"""Transient and stationary emission spectra of the dissipative driven oscillator.

Two-time correlators <a_dag(t1) a(t2)> follow from the quantum regression rule:
propagate rho to t1, deform it by a_dag on the right, propagate the deformation
for tau = t2 - t1, and trace against a.

Propagation is exact stepping on a uniform time grid with the matrix
exponential expm(L_s dt) of each (m + n)-parity sector block L_s of the
Liouvillian.  No eigendecomposition of the non-normal generator is involved,
so the flow stays accurate near exceptional points, where eigenvectors
coalesce (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).  The steady state and
every rho built from parity eigenstates live in the even sector; their seeds
rho a_dag and the trace against a live in the odd one.

The frequency axis is x = Omega - omega_F/2 in units of V; physical bath
prefactors are set to one, so spectra are in the reduced form where only peak
positions, signs, symmetry, and the sum rule are meaningful.

Transient spectral density (total excess emitted energy per unit frequency,
relative to the steady state):

    E_rad(x) = Int_0^T dt 2 Re Int_0^t dt' e^{i x (t - t')} [C(t', t) - C_st(t - t')]

evaluated on a uniform time grid with trapezoidal weights; the grid step obeys
dt <= min(0.05/gamma_tilde, 0.2/max|x|) so the fastest retained oscillation is
resolved.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .fock import ladder_operators
from .lindblad import Liouvillian, steady_state


@dataclass
class CorrelatorGrid:
    """C(t1, t2) = <a_dag(t1) a(t2)> for t2 >= t1; lower triangle unused (zeros)."""

    t_grid: np.ndarray
    values: np.ndarray


@dataclass
class SpectralDensity:
    omega_grid: np.ndarray      # x = Omega - omega_F/2, units of V
    values: np.ndarray
    kind: str                   # "transient_energy" or "steady_power"


# ---------------------------------------------------------------------------
# propagation

class _SteppingFlow:
    """Exact flow on a uniform grid ts, stepped by expm(L_s dt) per parity sector.

    Vectors are row-stacked d^2 vectors.  Only the sectors a vector occupies
    are stepped; the others stay exactly zero along the flow.
    """

    def __init__(self, liou: Liouvillian, ts: np.ndarray):
        steps = np.diff(ts)
        if len(steps) and not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("propagation needs a uniform time grid")
        self.dt = float(steps[0]) if len(steps) else 0.0
        self.n_t = len(ts)
        self.sectors = liou.sectors

    def _steps(self, v: np.ndarray, adjoint: bool):
        """(idx, states) per occupied sector; states[k] = sector part at step k."""
        for sector in self.sectors:
            x = v[sector.idx].astype(complex)
            if not np.any(x):
                continue
            states = np.empty((self.n_t, x.size), dtype=complex)
            states[0] = x
            if self.n_t > 1:
                prop = expm(sector.block * self.dt)
                if adjoint:
                    prop = prop.T
                for k in range(1, self.n_t):
                    states[k] = prop @ states[k - 1]
            yield sector.idx, states

    def evolve_columns(self, x0: np.ndarray) -> np.ndarray:
        """Columns exp(L t) x0 for every t, shape (d^2, len(ts))."""
        out = np.zeros((x0.size, self.n_t), dtype=complex)
        for idx, states in self._steps(x0, adjoint=False):
            out[idx] = states.T
        return out

    def adjoint_rows(self, row: np.ndarray) -> np.ndarray:
        """Rows row^T exp(L t) for every t, shape (len(ts), d^2)."""
        out = np.zeros((self.n_t, row.size), dtype=complex)
        for idx, states in self._steps(row, adjoint=True):
            out[:, idx] = states
        return out


def _operators(liou: Liouvillian):
    """Row tr_a with Tr[a M] = tr_a . vec(M), and a_dag for the seeds M a_dag."""
    a, a_dag = ladder_operators(liou.space)
    return a.T.reshape(-1), a_dag


def _times_adag(vecs: np.ndarray, a_dag: np.ndarray) -> np.ndarray:
    """vec(M a_dag) for vec(M) and for every column vec(M) of vecs."""
    d = a_dag.shape[0]
    return (a_dag.T @ vecs.reshape(d, d, -1)).reshape(vecs.shape)


def _default_dt(gamma_tilde: float, omega_grid: np.ndarray) -> float:
    x_max = float(np.max(np.abs(omega_grid))) if len(omega_grid) else 0.0
    dt = 0.05 / gamma_tilde
    if x_max > 0:
        dt = min(dt, 0.2 / x_max)
    return dt


def _trapz_weights(n: int, dt: float) -> np.ndarray:
    w = np.full(n, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def _fourier_quadrature(xs: np.ndarray, ts: np.ndarray, signal: np.ndarray,
                        block: int = 512) -> np.ndarray:
    """2 Re Int dt e^{i x t} signal(t) for every x, in x-blocks to bound memory."""
    out = np.empty(len(xs))
    for i in range(0, len(xs), block):
        chunk = xs[i:i + block]
        phases = np.exp(1j * np.outer(chunk, ts))
        out[i:i + block] = 2.0 * np.real(phases @ signal)
    return out


# ---------------------------------------------------------------------------
# correlators

def two_time_correlator(liou: Liouvillian, rho0: np.ndarray,
                        t_grid: np.ndarray) -> CorrelatorGrid:
    """Fill C(t1, t2) for all grid pairs with t2 >= t1 by quantum regression."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must ascend from 0")
    tr_a, a_dag = _operators(liou)
    flow = _SteppingFlow(liou, t_grid)
    rho_vecs = flow.evolve_columns(np.asarray(rho0, complex).reshape(-1))
    seeds = _times_adag(rho_vecs, a_dag)
    rows = flow.adjoint_rows(tr_a)                # row j = tr_a Lambda^{j dt}
    full = rows @ seeds                           # (tau index, t1 index)
    n_t = len(t_grid)
    values = np.zeros((n_t, n_t), dtype=complex)
    for i in range(n_t):
        values[i, i:] = full[: n_t - i, i]
    return CorrelatorGrid(t_grid=t_grid, values=values)


def stationary_correlator(liou: Liouvillian, taus: np.ndarray,
                          rho_st: np.ndarray | None = None) -> np.ndarray:
    """C_st(tau) = Tr[a Lambda_tau(rho_st a_dag)]."""
    if rho_st is None:
        rho_st = steady_state(liou)
    taus = np.asarray(taus, dtype=float)
    tr_a, a_dag = _operators(liou)
    seed = _times_adag(np.asarray(rho_st, complex).reshape(-1), a_dag)
    return _SteppingFlow(liou, taus).adjoint_rows(tr_a) @ seed


# ---------------------------------------------------------------------------
# spectra

def transient_spectrum(liou: Liouvillian, rho0: np.ndarray, T_max: float,
                       omega_grid: np.ndarray, dt: float | None = None,
                       relax_tol: float = 1e-4) -> SpectralDensity:
    """Excess emitted energy per unit frequency after preparing rho0.

    Requires T_max >= 10/gamma_tilde so the transient has relaxed; warns if the
    state at T_max still differs from the steady state by more than relax_tol.
    Values may be negative: the prepared state can emit less at a frequency
    than the steady state does.
    """
    gt = liou.gamma_tilde
    if gt <= 0:
        raise ValueError("transient spectrum needs gamma_tilde > 0")
    if T_max < 10.0 / gt:
        raise ValueError(f"T_max = {T_max} too short; need >= {10.0 / gt}")
    omega_grid = np.asarray(omega_grid, dtype=float)
    if dt is None:
        dt = _default_dt(gt, omega_grid)
    n_t = int(np.ceil(T_max / dt)) + 1
    ts = np.linspace(0.0, T_max, n_t)
    dt = ts[1] - ts[0]

    rho_st = steady_state(liou)
    tr_a, a_dag = _operators(liou)
    flow = _SteppingFlow(liou, ts)
    # evolve the deviation from the steady state; its correlator seeds are
    # exactly C(t', t' + tau) - C_st(tau)
    dev0 = (np.asarray(rho0, complex) - rho_st).reshape(-1)
    dev_vecs = flow.evolve_columns(dev0)
    if float(np.max(np.abs(dev_vecs[:, -1]))) > relax_tol:
        warnings.warn(
            f"state not relaxed at T_max: deviation {np.max(np.abs(dev_vecs[:, -1])):.2e}",
            RuntimeWarning, stacklevel=2,
        )
    seeds = _times_adag(dev_vecs, a_dag)          # (d^2, n_t), per t'

    # trapezoid prefix over t': B[:, r] = Int_0^{t_r} seeds dt'
    prefix = np.cumsum(seeds, axis=1) * dt
    b = prefix - 0.5 * dt * (seeds + seeds[:, :1])
    # S(tau_j) = Int_0^{T - tau_j} dt' dC(t', t' + tau_j)
    #          = [tr_a Lambda^{tau_j}] . B[:, n-1-j]
    rows = flow.adjoint_rows(tr_a)
    s_tau = np.einsum("jm,mj->j", rows, b[:, ::-1])

    w_tau = _trapz_weights(n_t, dt)
    values = _fourier_quadrature(omega_grid, ts, w_tau * s_tau)
    return SpectralDensity(omega_grid=omega_grid, values=values, kind="transient_energy")


def steady_spectrum(liou: Liouvillian, omega_grid: np.ndarray, T_corr: float,
                    dt: float | None = None) -> SpectralDensity:
    """Stationary emitted power per unit frequency around half the drive frequency."""
    gt = liou.gamma_tilde
    if gt <= 0:
        raise ValueError("steady spectrum needs gamma_tilde > 0")
    if T_corr < 10.0 / gt:
        raise ValueError(f"T_corr = {T_corr} too short; need >= {10.0 / gt}")
    omega_grid = np.asarray(omega_grid, dtype=float)
    if dt is None:
        dt = _default_dt(gt, omega_grid)
    n_t = int(np.ceil(T_corr / dt)) + 1
    taus = np.linspace(0.0, T_corr, n_t)
    c_st = stationary_correlator(liou, taus)
    w = _trapz_weights(n_t, taus[1] - taus[0])
    values = _fourier_quadrature(omega_grid, taus, w * c_st)
    return SpectralDensity(omega_grid=omega_grid, values=values, kind="steady_power")


def excess_occupation(liou: Liouvillian, rho0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """<n>(t) - <n>_st along the dissipative flow; helper for tests and the CLI."""
    t = np.asarray(t, dtype=float)
    rho_st = steady_state(liou)
    dev0 = (np.asarray(rho0, complex) - rho_st).reshape(-1)
    dev = _SteppingFlow(liou, t).evolve_columns(dev0)
    n_row = np.diag(np.arange(liou.dim)).T.reshape(-1)
    return np.real(n_row @ dev)


def sum_rule_check(liou: Liouvillian, rho0: np.ndarray, T_max: float,
                   x_max: float | None = None, n_x: int = 4001,
                   dt: float | None = None) -> tuple[float, float]:
    """Frequency-integral consistency check of the transient spectrum.

    lhs = (1/2 pi) Int dx E_rad(x) over a wide grid; rhs = Int dt (<n>(t) - <n>_st).
    The two must agree because integrating the phase factor over all x
    collapses the double time integral onto its diagonal.
    """
    gt = liou.gamma_tilde
    if x_max is None:
        # cover every oscillation frequency that carries weight for this seed;
        # Lorentzian tails beyond the margin cost ~ 2*gt/(pi*margin).  The
        # trace against a only sees the odd sector, so its modes suffice.
        odd = liou.sectors[1]
        mu, r = np.linalg.eig(odd.block)
        cond = np.linalg.cond(r)
        # cond*eps bounds the relative error of the mode weights
        if cond > 1e13:
            raise ValueError(
                f"x_max must be given explicitly: odd-sector eigenbasis condition "
                f"number {cond:.2e} too large"
            )
        tr_a, a_dag = _operators(liou)
        rho_st = steady_state(liou)
        seed = _times_adag((np.asarray(rho0, complex) - rho_st).reshape(-1), a_dag)
        w = np.abs((tr_a[odd.idx] @ r) * np.linalg.solve(r, seed[odd.idx]))
        active = w > 1e-12 * max(float(w.max()), 1e-300)
        x_max = (float(np.max(np.abs(mu[active].imag))) if np.any(active) else 0.0) \
            + 100.0 * gt
    xs = np.linspace(-x_max, x_max, n_x)
    spec = transient_spectrum(liou, rho0, T_max, xs, dt=dt)
    lhs = float(np.trapezoid(spec.values, xs) / (2.0 * np.pi))

    if dt is None:
        dt = _default_dt(gt, xs)
    n_t = int(np.ceil(T_max / dt)) + 1
    ts = np.linspace(0.0, T_max, n_t)
    excess = excess_occupation(liou, rho0, ts)
    rhs = float(np.sum(_trapz_weights(n_t, ts[1] - ts[0]) * excess))
    return lhs, rhs


def spectrum_rows(spec: SpectralDensity):
    """Rows (x, value) for CSV emission."""
    for x, v in zip(spec.omega_grid, spec.values):
        yield (x, v)
