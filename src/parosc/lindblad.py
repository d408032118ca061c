"""Zero-temperature Lindblad generator of the driven oscillator in the rotating frame.

d rho/dt = -i [H, rho] - gamma_tilde (n rho - 2 a rho a_dag + rho n)

with the single lowering-operator dissipator (bath temperature far below the
oscillator quantum).  The generator is written once, as a sparse matrix on the
row-stacked vec(rho) built by index arithmetic on the two bands of H
(``rwa.h_rwa_bands``): it moves each Fock index by at most 2, so each row has
at most six entries.

H changes the Fock number by 0 or 2 and the dissipator moves |m><n| to
|m-1><n-1|, so the generator never couples entries with even m + n to entries
with odd m + n.  Each Liouvillian carries these two parity sectors as separate
dense blocks (Buca & Prosen, New J. Phys. 14, 073007 (2012)); the steady state
is solved on the even block, and ``radiation`` steps the spectra block by
block.

Within a sector, H moves rho_mn to rho_{m+-2,n} and rho_{m,n+-2}, and the jump
term feeds rho_{m+1,n+1} into rho_mn, so row s = m + n reads only s - 2, s and
s + 2: ordered by s, each sector block is exactly block-tridiagonal with
stride 2, with blocks of at most dim coordinates.  The even sector's linear
solves (the steady state here, the sum rule's Y in ``radiation``) are block
elimination in s, Risken's matrix continued fraction (H. Risken, The
Fokker-Planck Equation, 2nd ed., Springer 1989, ch. 9), at O(dim^4).

A Lindblad generator preserves Hermiticity, L(rho^dag) = L(rho)^dag (Alicki &
Lendi, Lect. Notes Phys. 286 (1987)), and each sector is closed under the
adjoint.  In the Hermitian basis E_mm, (E_mn + E_nm)/sqrt(2),
i(E_mn - E_nm)/sqrt(2) (m < n) every sector block is therefore a real matrix,
and a Hermitian rho has real coordinates.  Each ``Sector`` keeps only that real
block, with the two gathers between its Fock entries and its Hermitian-basis
coordinates.  ``radiation`` relies on that layout: it reads vec(rho) at
``Sector.idx`` (entries m*dim + n) and composes the gathers with its own maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_array

from .fock import FockSpace, check_state
from .rwa import RwaSystem, h_rwa_bands


_NULL_TOL = 1e-8    # smallest sigma_min/sigma_max of a Schur block of the even elimination


class Gather:
    """Sparse linear map out[..., i] = sum_j coef[i, j] * v[..., pos[i, j]] on the last axis.

    The terms are held as one CSR matrix A with A[i, pos[i, j]] += coef[i, j],
    and a call is the one product out = v A^T.  Positions may repeat within a
    row (the diagonal coordinates read entry k twice) and coefficients may be
    zero; both enter as stored terms.
    """

    def __init__(self, pos: np.ndarray, coef: np.ndarray):
        self.pos, self.coef = pos, coef
        n, k = pos.shape
        self.matrix = csr_array((coef.ravel(), pos.ravel(), np.arange(0, n * k + 1, k)),
                                shape=(n, int(pos.max(initial=-1)) + 1))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        n, m = self.matrix.shape
        # columns past the last position carry no term
        rows = v.reshape(-1, v.shape[-1])[:, :m]
        return (self.matrix @ rows.T).T.reshape(v.shape[:-1] + (n,))

    def after(self, first: Gather) -> Gather:
        """The map v -> self(first(v)), its terms multiplied out."""
        n = len(self.pos)
        return Gather(first.pos[self.pos].reshape(n, -1),
                      (self.coef[:, :, None] * first.coef[self.pos]).reshape(n, -1))


class Sector(NamedTuple):
    """One (m + n)-parity sector: its Fock entries, its real block and the maps between them.

    idx holds the row-stacked indices m*dim + n with (m + n) % 2 fixed; the
    sector's Fock vector is x = vec(rho)[idx].  The columns of the unitary T
    are the Hermitian basis, and y = T^H x are the coordinates, real for a
    Hermitian rho: ``to_herm`` applies T^H and ``to_fock`` applies T, two
    terms per entry each, and ``block`` is the real matrix T^H L_s T, with L_s
    the generator's rows and columns at idx.  Coordinate k belongs to entry
    idx[k]: E_mm on the diagonal, the symmetric element of the pair (m, n)
    above it and the antisymmetric one below it.
    """

    idx: np.ndarray
    block: np.ndarray
    to_herm: Gather
    to_fock: Gather


class _Elimination(NamedTuple):
    """Block elimination of the even sector from the top s = 2 dim - 2 down to s = 2.

    Entry k of each list belongs to s = 2k; ``groups[k]`` are the coordinates
    of s = 2k.  With A_s, B_s and C_s the parts of block row s that read s,
    s + 2 and s - 2, S_s = A_s + B_s R_{s+2} and R_s = -S_s^-1 C_s (R_{2 dim} = 0).
    ``ratio`` is the smallest sigma_min/sigma_max of S_s over s >= 2.
    """

    groups: list[np.ndarray]
    ups: list[np.ndarray]           # B_s
    inverses: list[np.ndarray]      # S_s^-1, s >= 2
    links: list[np.ndarray]         # R_s, s >= 2
    ratio: float

    def solve(self, b: np.ndarray, y0: float) -> np.ndarray:
        """y with rho_00 = y0 that satisfies every row s >= 2 of L y = b.

        y_s = R_s y_{s-2} + g_s with g_s = S_s^-1 (b_s - B_s g_{s+2}), from
        the top down for g and from s = 0 up for y.
        """
        top = len(self.groups) - 1
        g = [None] * (top + 2)
        g[top + 1] = np.zeros(0)
        for k in range(top, 0, -1):
            g[k] = self.inverses[k] @ (b[self.groups[k]] - self.ups[k] @ g[k + 1])
        y = np.empty(len(b))
        y[self.groups[0]] = ys = np.array([y0], dtype=float)
        for k in range(1, top + 1):
            y[self.groups[k]] = ys = self.links[k] @ ys + g[k]
        return y


def _eliminate(even: Sector, dim: int) -> _Elimination:
    """The even elimination in s = m + n; raises if a Schur block S_s, s >= 2, is singular.

    Every S_s invertible fixes each solution of the rows s >= 2 by its rho_00
    entry, so the even null space is then at most one-dimensional.
    """
    m, n = np.divmod(even.idx, dim)
    groups = [np.flatnonzero(m + n == s) for s in range(0, 2 * dim - 1, 2)]
    top = dim - 1
    # the top block, (dim - 1, dim - 1) alone, reads no s + 2
    ups = [even.block[np.ix_(groups[k], groups[k + 1])] for k in range(top)] + [np.zeros((1, 0))]
    inverses, links = [None] * dim, [None] * dim
    ratio, r_up = 1.0, np.zeros((0, 1))
    for k in range(top, 0, -1):
        schur = even.block[np.ix_(groups[k], groups[k])] + ups[k] @ r_up
        sv = np.linalg.svd(schur, compute_uv=False)
        ratio_k = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
        if ratio_k < _NULL_TOL:
            raise RuntimeError(f"degenerate null space: the Schur block of s = {2 * k} has "
                               f"sigma_min/sigma_max {ratio_k:.3g} below {_NULL_TOL:.3g}")
        ratio = min(ratio, ratio_k)
        inverses[k] = np.linalg.inv(schur)
        links[k] = r_up = -inverses[k] @ even.block[np.ix_(groups[k], groups[k - 1])]
    return _Elimination(groups, ups, inverses, links, ratio)


def _superoperator(diag: np.ndarray, off2: np.ndarray, gamma_tilde: float) -> csr_array:
    """L on the row-stacked vec(rho), index m*d + n, for H with bands (diag, off2) of ``h_rwa_bands``.

    Row (m, n) reads rho[m + dm, n + dn] for the six shifts below, so the
    matrix has at most six entries per row.
    """
    d = len(diag)
    m, n = np.divmod(np.arange(d * d), d)
    # <k|H|k+2> = <k+2|H|k> = off2[k]: up[k] = <k|H|k+2>, down[k] = <k|H|k-2>
    up, down = np.concatenate([off2, [0.0, 0.0]]), np.concatenate([[0.0, 0.0], off2])
    root = np.sqrt(2.0 * gamma_tilde * (np.arange(d) + 1.0))    # sqrt(2 gamma_tilde (k+1))
    terms = (
        (0, 0, -1j * (diag[m] - diag[n]) - gamma_tilde * (m + n)),
        # -i[H, rho] off the diagonal
        (-2, 0, -1j * down[m]), (2, 0, -1j * up[m]),
        (0, -2, 1j * down[n]), (0, 2, 1j * up[n]),
        # 2 gamma_tilde (a rho a_dag)[m, n] = root[m] root[n] rho[m+1, n+1]
        (1, 1, root[m] * root[n]),
    )
    rows, cols, vals = [], [], []
    for dm, dn, coef in terms:
        ok = (m + dm >= 0) & (m + dm < d) & (n + dn >= 0) & (n + dn < d)
        rows.append(np.flatnonzero(ok))
        cols.append(((m + dm) * d + n + dn)[ok])
        vals.append(coef[ok])
    return csr_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                     shape=(d * d, d * d))


def _sector(matrix: csr_array, dim: int, parity: int) -> Sector:
    """The sector of the given (m + n) parity of the generator ``matrix`` on vec(rho)."""
    m, n = np.divmod(np.arange(dim * dim), dim)
    idx = np.flatnonzero((m + n) % 2 == parity)
    local = np.zeros(dim * dim, dtype=np.intp)
    local[idx] = np.arange(idx.size)
    m, n = m[idx], n[idx]
    pos = np.stack([np.arange(idx.size), local[n * dim + m]], axis=1)   # entry, its transpose
    r = np.sqrt(0.5)
    upper, lower = (m < n)[:, None], (m > n)[:, None]
    herm = np.where(upper, [r, r], np.where(lower, [1j * r, -1j * r], [0.5, 0.5]))
    fock = np.where(upper, [r, 1j * r], np.where(lower, [-1j * r, r], [0.5, 0.5]))
    to_herm, to_fock = Gather(pos, herm), Gather(pos, fock)
    block = (to_herm.matrix @ matrix[idx][:, idx] @ to_fock.matrix).real.toarray()
    return Sector(idx, block, to_herm, to_fock)


@dataclass
class Liouvillian:
    """Lindblad generator of the dissipative evolution and its two parity-sector blocks."""

    space: FockSpace
    sys: RwaSystem
    gamma_tilde: float
    matrix: csr_array = field(init=False, repr=False)    # L on the row-stacked vec(rho)
    sectors: tuple[Sector, Sector] = field(init=False, repr=False)
    _steady: np.ndarray | None = field(default=None, init=False, repr=False)
    _elimination: _Elimination | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.matrix = _superoperator(*h_rwa_bands(self.dim, self.sys), self.gamma_tilde)
        self.sectors = tuple(_sector(self.matrix, self.dim, parity) for parity in (0, 1))

    @property
    def dim(self) -> int:
        return self.space.dim

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """L[rho] for one d x d matrix or a stack of them on the last two axes."""
        rho = np.asarray(rho)
        rows = rho.reshape(-1, self.dim * self.dim)
        return (self.matrix @ rows.T).T.reshape(rho.shape)

    def even_solve(self, b: np.ndarray, y0: float) -> np.ndarray:
        """Even-sector coordinates y with rho_00 = y0 that satisfy L y = b but for its s = 0 row.

        The elimination in s = m + n is built on the first call and kept; it
        raises ``RuntimeError`` if the even null space may be degenerate.  L
        preserves the trace, so the s = 0 row follows from the others exactly
        when b has zero trace (b = 0 for the steady state).
        """
        if self._elimination is None:
            self._elimination = _eliminate(self.sectors[0], self.dim)
        return self._elimination.solve(b, y0)

    @property
    def steady_sigma_ratio(self) -> float | None:
        """min over s >= 2 of sigma_min/sigma_max of the Schur blocks S_s; None before a solve."""
        return None if self._elimination is None else self._elimination.ratio


def build_liouvillian(space: FockSpace, sys: RwaSystem, gamma_tilde: float) -> Liouvillian:
    """L[rho] = -i[H, rho] - gamma_tilde (n rho - 2 a rho a_dag + rho n), units of V."""
    if gamma_tilde < 0:
        raise ValueError("gamma_tilde must be >= 0")
    return Liouvillian(space=space, sys=sys, gamma_tilde=gamma_tilde)


def steady_state(liou: Liouvillian) -> np.ndarray:
    """Stationary density matrix: the null vector of L with unit trace.

    The even sector holds the diagonal, hence the trace, so the odd entries
    of rho_st are exactly zero.  The block elimination in s = m + n of
    ``Liouvillian.even_solve`` with rho_00 = 1 and b = 0 gives the null vector,
    Hermitian by construction, which is then divided by its trace.  If every
    Schur block S_s (s >= 2) is invertible, a null vector is fixed by its
    rho_00 entry, so the null space is at most one-dimensional: the smallest
    sigma_min/sigma_max over those blocks is the solve's certificate, below
    ``_NULL_TOL`` = 1e-8 it raises, and it is kept as
    ``liou.steady_sigma_ratio``.  Measured at delta = 1.8, f = 1, it is
    3.1e-4 at gamma_tilde = 0.01 for dim 24, 34, 44 and 60, and larger at
    gamma_tilde = 0.1 and 2.  The s = 0 row,
    which the elimination leaves out, is checked with the rest by the
    residual max|L rho_st|, against 1e-10 times the largest entry of the even
    block (or 1).
    """
    if liou.gamma_tilde <= 0:
        raise ValueError("steady state requires gamma_tilde > 0")
    if liou._steady is not None:
        return liou._steady
    dim = liou.dim
    even = liou.sectors[0]
    x = np.zeros(dim * dim, dtype=complex)
    x[even.idx] = even.to_fock(liou.even_solve(np.zeros(len(even.idx)), 1.0))
    rho = x.reshape(dim, dim)
    rho /= np.trace(rho).real
    resid = float(np.max(np.abs(liou.apply(rho))))
    if resid > 1e-10 * max(float(np.max(np.abs(even.block))), 1.0):
        raise RuntimeError(f"steady-state residual {resid:.3g} too large")
    liou._steady = rho
    return rho


def state_decay_rate(phi: np.ndarray, gamma_tilde: float) -> float:
    """Decay rate 2 * gamma_tilde * <phi|n|phi> of a parity eigenstate's population.

    For a definite-parity state the ladder operators have no diagonal matrix
    element, so only the occupation enters.
    """
    phi = np.asarray(phi, dtype=complex)
    check_state(phi)
    n_diag = np.arange(phi.shape[0])
    return float(2.0 * gamma_tilde * np.sum(n_diag * np.abs(phi) ** 2))

