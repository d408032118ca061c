"""Zero-temperature Lindblad dynamics of the driven oscillator in the rotating frame.

d rho/dt = -i [H, rho] - gamma_tilde (n rho - 2 a rho a_dag + rho n)

with the single lowering-operator dissipator (bath temperature far below the
oscillator quantum).  The Liouvillian is kept as a dense dim^2 x dim^2 matrix
acting on row-stacked density matrices: at desk-scale truncations robustness
beats scalability.

H changes the Fock number by 0 or 2 and the dissipator moves |m><n| to
|m-1><n-1|, so the generator never couples entries with even m + n to entries
with odd m + n.  Each Liouvillian carries these two parity sectors as separate
dense blocks (Buca & Prosen, New J. Phys. 14, 073007 (2012)); spectra, steady
states, the master-equation integrator and the propagators of the radiation
module work block by block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from .fock import FockSpace, check_state, ladder_operators, number_operator
from .rwa import RwaSystem, build_h_rwa


class Sector(NamedTuple):
    """Row-stacked indices m*dim + n with (m + n) % 2 fixed, and the generator block."""

    idx: np.ndarray
    block: np.ndarray


@dataclass
class Liouvillian:
    """Dense generator of the dissipative evolution and its two parity-sector blocks."""

    space: FockSpace
    sys: RwaSystem
    gamma_tilde: float
    matrix: np.ndarray
    sectors: tuple[Sector, Sector] = field(init=False, repr=False)
    _steady: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        m, n = np.divmod(np.arange(self.dim * self.dim), self.dim)
        parity = (m + n) % 2
        self.sectors = tuple(
            Sector(idx, self.matrix[np.ix_(idx, idx)])
            for idx in (np.flatnonzero(parity == 0), np.flatnonzero(parity == 1))
        )

    @property
    def dim(self) -> int:
        return self.space.dim

    def apply(self, rho: np.ndarray) -> np.ndarray:
        d = self.dim
        return (self.matrix @ rho.reshape(d * d)).reshape(d, d)

    def eigenvalues(self) -> np.ndarray:
        """Generator eigenvalues: the even-sector ones followed by the odd-sector ones."""
        return np.concatenate([np.linalg.eigvals(s.block) for s in self.sectors])


def _vec(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(-1)


def _unvec(x: np.ndarray, dim: int) -> np.ndarray:
    return x.reshape(dim, dim)


def build_liouvillian(space: FockSpace, sys: RwaSystem, gamma_tilde: float) -> Liouvillian:
    """L[rho] = -i[H, rho] - gamma_tilde (n rho - 2 a rho a_dag + rho n), units of V.

    Row-stacking convention: vec(A rho B) = (A kron B^T) vec(rho).
    """
    if gamma_tilde < 0:
        raise ValueError("gamma_tilde must be >= 0")
    dim = space.dim
    h = build_h_rwa(space, sys)
    a, _ = ladder_operators(space)
    n_op = number_operator(space)
    eye = np.eye(dim)
    lmat = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    lmat += -gamma_tilde * (np.kron(n_op, eye) + np.kron(eye, n_op.T)
                            - 2.0 * np.kron(a, a.conj()))
    return Liouvillian(space=space, sys=sys, gamma_tilde=gamma_tilde, matrix=lmat)


def trace_preservation_residual(liou: Liouvillian) -> float:
    """Max entry of Tr(L[.]): the trace functional must annihilate the generator."""
    tr_vec = _vec(np.eye(liou.dim)).astype(complex)
    return float(np.max(np.abs(tr_vec @ liou.matrix)))


def evolve_master(liou: Liouvillian, rho0: np.ndarray, t_grid: np.ndarray,
                  rel_tol: float = 1e-9) -> np.ndarray:
    """Propagate rho0 over t_grid; returns array of shape (len(t_grid), dim, dim).

    ``rel_tol`` is a global error target: DOP853 controls the local error, so
    it runs at rtol = rel_tol/20 and atol = rel_tol*1e-3.
    The state is held sector by sector (even entries, then odd), so each
    right-hand side applies the two parity blocks instead of the dense generator.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    dim = liou.dim
    even, odd = liou.sectors
    order = np.concatenate([even.idx, odd.idx])
    n_even = even.idx.size

    def rhs(t, y):
        return np.concatenate([even.block @ y[:n_even], odd.block @ y[n_even:]])

    y0 = _vec(np.asarray(rho0, dtype=complex))[order]
    span = (min(0.0, t_grid[0]), t_grid[-1])
    sol = solve_ivp(rhs, span, y0, t_eval=t_grid, method="DOP853",
                    rtol=rel_tol / 20.0, atol=rel_tol * 1e-3)
    if not sol.success:
        raise RuntimeError(f"master-equation propagation failed: {sol.message}")
    x = np.empty((len(t_grid), dim * dim), dtype=complex)
    x[:, order] = sol.y.T
    return x.reshape(len(t_grid), dim, dim)


def steady_state(liou: Liouvillian, null_tol: float = 1e-8) -> np.ndarray:
    """Stationary density matrix: null vector of L under the trace constraint.

    Solved as the least-squares solution of L x = 0 stacked with Tr x = 1 on
    the even sector, which holds the diagonal and hence the trace; the odd
    entries of the result are exactly zero.  The stacked matrix has full
    column rank iff the even null space is at most one-dimensional, so a
    smallest singular value below ``null_tol`` times the largest means a
    degenerate null space; none at all leaves a large residual.  Measured
    sigma_min/sigma_max of the stacked matrix is >= 1.8e-5 at f = 1 for dim
    12-44, delta in {0, 1.8, 3} and gamma_tilde in {0.05, 0.1, 1}.
    """
    if liou.gamma_tilde <= 0:
        raise ValueError("steady state requires gamma_tilde > 0")
    if liou._steady is not None:
        return liou._steady
    dim = liou.dim
    even = liou.sectors[0]
    tr_row = _vec(np.eye(dim))[even.idx].astype(complex)
    a_mat = np.vstack([even.block, tr_row])
    b = np.zeros(len(even.idx) + 1, dtype=complex)
    b[-1] = 1.0
    x_even, _, _, sv = np.linalg.lstsq(a_mat, b, rcond=None)
    if sv[-1] < null_tol * sv[0]:
        raise RuntimeError(f"degenerate null space: smallest singular value "
                           f"{sv[-1]:.3g} below {null_tol:.3g} x {sv[0]:.3g}")
    scale = max(float(sv[0]), 1.0)
    x = np.zeros(dim * dim, dtype=complex)
    x[even.idx] = x_even
    rho = _unvec(x, dim)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    resid = float(np.max(np.abs(liou.apply(rho))))
    if resid > 1e-10 * scale:
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


def expectation_number(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ np.diag(np.arange(rho.shape[0])))))
