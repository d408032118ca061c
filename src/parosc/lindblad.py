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
is solved on the even block, and ``radiation`` steps rho(t), the correlators and
the spectra block by block.

A Lindblad generator preserves Hermiticity, L(rho^dag) = L(rho)^dag (Alicki &
Lendi, Lect. Notes Phys. 286 (1987)), and each sector is closed under the
adjoint.  In the Hermitian basis E_mm, (E_mn + E_nm)/sqrt(2),
i(E_mn - E_nm)/sqrt(2) (m < n) every sector block is therefore a real matrix,
and a Hermitian rho has real coordinates.  Each ``Sector`` keeps only that real
block, with the two gathers between its Fock entries and its Hermitian-basis
coordinates; this module is the only one that knows either coordinate system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_array

from .fock import FockSpace, check_state
from .rwa import RwaSystem, h_rwa_bands


_NULL_TOL = 1e-8    # smallest sigma_min/sigma_max of the steady-state solve


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
    # sigma_min/sigma_max of the steady-state solve, set with _steady
    steady_sigma_ratio: float | None = field(default=None, init=False, repr=False)

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


def build_liouvillian(space: FockSpace, sys: RwaSystem, gamma_tilde: float) -> Liouvillian:
    """L[rho] = -i[H, rho] - gamma_tilde (n rho - 2 a rho a_dag + rho n), units of V."""
    if gamma_tilde < 0:
        raise ValueError("gamma_tilde must be >= 0")
    return Liouvillian(space=space, sys=sys, gamma_tilde=gamma_tilde)


def even_trace_stack(liou: Liouvillian) -> np.ndarray:
    """The real even block with the trace row under it: the matrix of y -> (L y, Tr y)."""
    even = liou.sectors[0]
    tr_row = even.to_herm(np.eye(liou.dim).reshape(-1)[even.idx]).real
    return np.vstack([even.block, tr_row])


def steady_state(liou: Liouvillian) -> np.ndarray:
    """Stationary density matrix: null vector of L under the trace constraint.

    Solved as the least-squares solution of L x = 0 stacked with Tr x = 1 on
    the real block of the even sector, which holds the diagonal and hence the
    trace; the result is Hermitian by construction and its odd entries are
    exactly zero.  T is unitary, so the singular values are those of the
    complex block in Fock coordinates.  The stacked matrix has full
    column rank iff the even null space is at most one-dimensional, so a
    smallest singular value below ``_NULL_TOL`` = 1e-8 times the largest means a
    degenerate null space; none at all leaves a large residual.  Measured
    sigma_min/sigma_max of the stacked matrix is >= 1.8e-5 at f = 1 for dim
    12-44, delta in {0, 1.8, 3} and gamma_tilde in {0.05, 0.1, 1}; each solve
    keeps its ratio as ``liou.steady_sigma_ratio``.
    """
    if liou.gamma_tilde <= 0:
        raise ValueError("steady state requires gamma_tilde > 0")
    if liou._steady is not None:
        return liou._steady
    dim = liou.dim
    even = liou.sectors[0]
    b = np.zeros(len(even.idx) + 1)
    b[-1] = 1.0
    y_even, _, _, sv = np.linalg.lstsq(even_trace_stack(liou), b, rcond=None)
    if sv[-1] < _NULL_TOL * sv[0]:
        raise RuntimeError(f"degenerate null space: smallest singular value "
                           f"{sv[-1]:.3g} below {_NULL_TOL:.3g} x {sv[0]:.3g}")
    scale = max(float(sv[0]), 1.0)
    x = np.zeros(dim * dim, dtype=complex)
    x[even.idx] = even.to_fock(y_even)
    rho = x.reshape(dim, dim)
    rho /= np.trace(rho).real
    resid = float(np.max(np.abs(liou.apply(rho))))
    if resid > 1e-10 * scale:
        raise RuntimeError(f"steady-state residual {resid:.3g} too large")
    liou._steady = rho
    liou.steady_sigma_ratio = float(sv[-1] / sv[0])
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

