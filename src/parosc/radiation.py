"""Dissipative flow of the driven oscillator: rho(t), correlators and emission spectra.

Everything here is one propagation: exact stepping on a uniform time grid with
the matrix exponential P = expm(L_s dt) of each (m + n)-parity sector block L_s
of the Liouvillian.  No eigendecomposition of the non-normal generator is
involved, so the flow stays accurate near exceptional points, where
eigenvectors coalesce (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).  The first
128 states are stepped one matrix-vector product at a time; every later block
of 128 states is one matrix product of the block before it with P^128.

The stepping is real arithmetic: ``lindblad.Sector.block`` is L_s in the
Hermitian basis, where it is a real matrix, so P, P^128 and every stepped row
are real.  A Hermitian state (rho0 - rho_st, say) is one real row; any other
vector, such as the seeds rho a_dag or the row of Tr[a .], is two real rows,
its real and imaginary coordinates.  Vectors enter and leave in Fock
coordinates only at the edges of ``evolve_master`` and the correlators.

``evolve_master`` returns rho(t) = exp(L t) rho0 on such a grid.
``two_time_correlator`` returns <a_dag(t1) a(t2)> by the quantum regression
rule on full d^2 vectors, the reference for the spectra: propagate rho to t1,
deform it by a_dag on the right, propagate the deformation for tau = t2 - t1,
and trace against a.

The steady state and every rho built from parity eigenstates live in the even
sector.  The trace against a sees only the odd sector, which the seeds
rho a_dag of the even part fill, so the spectra keep only the even deviation
from the steady state, the odd seeds and the odd adjoint rows tr_a Lambda^tau;
``emission_spectra`` reads both spectra, as arrays on the caller's grid, off
one stepping of those rows, and ``sum_rule_check`` integrates the first.

The frequency axis is x = Omega - omega_F/2 in units of V; physical bath
prefactors are set to one, so spectra are in the reduced form where only peak
positions, signs, symmetry, and the sum rule are meaningful.

Transient spectral density (total excess emitted energy per unit frequency,
relative to the steady state):

    E_rad(x) = Int_0^T dt 2 Re Int_0^t dt' e^{i x (t - t')} [C(t', t) - C_st(t - t')]

evaluated on a uniform time grid with trapezoidal weights; the grid step obeys
dt <= min(0.05/gamma_tilde, 0.2/max|x|) so that each x is resolved to 0.2 rad
per step.  ``sum_rule_check`` integrates E_rad over a band |x| <= X and only
needs the band free of aliasing, which takes X dt < pi; it steps at X dt = 1.
The stationary spectrum

    Q_st(x) = 2 Re Int_0^T dtau e^{i x tau} C_st(tau)

uses the same grid.  Frequency grids must be uniform: the Fourier sums over the
time grid are evaluated for all x at once by the chirp-z transform (Rabiner,
Schafer & Rader, IEEE Trans. Audio Electroacoust. 17, 86 (1969); Bluestein 1970).
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.fft import fft, ifft, next_fast_len
from scipy.linalg import expm

from .fock import ladder_operators
from .lindblad import Gather, Liouvillian, steady_state

_BLOCK = 128        # states per matrix product in the blocked stepping
_RELAX_TOL = 1e-4   # largest |rho(T_max) - rho_st| entry before the relaxation warning
_SUM_RULE_POINTS = 4001     # frequencies of the sum rule's x-quadrature
_HERMITIAN_TOL = 1e-14      # largest |Im y| / max|y| of coordinates stepped as one real row
_SPECTRUM_PHASE = 0.2       # largest x dt of the spectra: each x resolved
_SUM_RULE_PHASE = 1.0       # largest x dt of the sum-rule band: a third of the alias limit pi


def _uniform_step(grid: np.ndarray, name: str) -> float:
    """Step of a uniform grid (0 for fewer than two points); raises if not uniform."""
    steps = np.diff(grid)
    if len(steps) and not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError(f"{name} must be uniform")
    return float(grid[-1] - grid[0]) / len(steps) if len(steps) else 0.0


# ---------------------------------------------------------------------------
# propagation

class _SteppingFlow:
    """Exact flow on a uniform grid ts, stepped by the real P = expm(L_s dt) per parity sector.

    Sector states are rows of Hermitian-basis coordinates: row k is the sector
    vector at ts[k].  Full vectors are row-stacked d^2 vectors in Fock
    coordinates; only the sectors they occupy are stepped, the others stay
    exactly zero along the flow.
    """

    def __init__(self, liou: Liouvillian, ts: np.ndarray):
        self.dt = _uniform_step(ts, "time grid")
        self.n_t = len(ts)
        self.sectors = liou.sectors
        self._props = {}

    def _prop(self, s: int, power: int = 1) -> np.ndarray:
        """P^power of sector s, built once per flow."""
        if (s, power) not in self._props:
            self._props[s, power] = (expm(self.sectors[s].block * self.dt) if power == 1
                                     else np.linalg.matrix_power(self._prop(s), power))
        return self._props[s, power]

    def states(self, s: int, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Rows exp(L_s t) x, or x^T exp(L_s t) if adjoint, for every t: (n_t,) + x.shape.

        x holds real coordinates of sector s: one vector, or a stack of them
        (shape (r, m)) that is stepped together.
        """
        # rows advance as out[k] = out[k - 1] @ M with M = P (adjoint) or P^T;
        # flat views the r rows of each time as consecutive rows of one matrix
        out = np.empty((self.n_t,) + x.shape)
        out[0] = x
        flat, r = out.reshape(-1, x.shape[-1]), x.size // x.shape[-1]
        if self.n_t > 1:
            step = self._prop(s) if adjoint else self._prop(s).T
            for k in range(1, min(self.n_t, _BLOCK)):
                np.matmul(out[k - 1], step, out=out[k])
        if self.n_t > _BLOCK:
            jump = self._prop(s, _BLOCK) if adjoint else self._prop(s, _BLOCK).T
            for start in range(_BLOCK, self.n_t, _BLOCK):
                stop = min(start + _BLOCK, self.n_t)
                np.matmul(flat[r * (start - _BLOCK):r * (stop - _BLOCK)], jump,
                          out=flat[r * start:r * stop])
        return out

    def complex_states(self, s: int, y: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """``states`` of complex coordinates y: one real row if y is real to rounding, else two.

        A Hermitian matrix has real coordinates, but products such as
        psi psi^dag round its imaginary parts only to about eps, not to 0.
        """
        imag = np.max(np.abs(y.imag), initial=0.0)
        if imag <= _HERMITIAN_TOL * np.max(np.abs(y), initial=0.0):
            return self.states(s, y.real, adjoint)
        out = self.states(s, np.stack([y.real, y.imag]), adjoint)
        return out[:, 0] + 1j * out[:, 1]

    def final(self, s: int, y: np.ndarray) -> np.ndarray:
        """exp(L_s T) y at the last grid time, by the steps of ``states``; y may be complex."""
        if not np.any(y):
            return y
        x = np.stack([y.real, y.imag], axis=1)
        jumps, steps = divmod(self.n_t - 1, _BLOCK)
        for _ in range(jumps):
            x = self._prop(s, _BLOCK) @ x
        for _ in range(steps):
            x = self._prop(s) @ x
        return x[:, 0] + 1j * x[:, 1]

    def adjoint_rows(self, row: np.ndarray) -> np.ndarray:
        """Rows row^T exp(L t) for every t, shape (len(ts), d^2), in Fock coordinates.

        A row pairs with T y as (T^T row) . y, and T^T = conj(T^H).
        """
        out = np.zeros((self.n_t, row.size), dtype=complex)
        for s, sector in enumerate(self.sectors):
            if np.any(row[sector.idx]):
                rows = self.complex_states(s, sector.to_herm(row[sector.idx].conj()).conj(),
                                           adjoint=True)
                out[:, sector.idx] = sector.to_fock(np.conj(rows)).conj()
        return out


def evolve_master(liou: Liouvillian, rho0: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """rho(t) = exp(L t) rho0 at every t of t_grid; shape (len(t_grid), dim, dim).

    Exact: each parity sector that rho0 occupies is stepped by the matrix
    exponential of its block, so rounding is the only error.  t_grid must be
    uniform and start at 0; any other grid raises ValueError.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must ascend from 0")
    flow = _SteppingFlow(liou, t_grid)
    x0 = np.asarray(rho0, complex).reshape(-1)
    out = np.zeros((len(t_grid), x0.size), dtype=complex)
    for s, sector in enumerate(liou.sectors):
        if np.any(x0[sector.idx]):
            out[:, sector.idx] = sector.to_fock(flow.complex_states(s, sector.to_herm(
                x0[sector.idx])))
    return out.reshape(len(t_grid), liou.dim, liou.dim)


def _operators(liou: Liouvillian):
    """Row tr_a with Tr[a M] = tr_a . vec(M), and a_dag for the seeds M a_dag."""
    a, a_dag = ladder_operators(liou.space)
    return a.T.reshape(-1), a_dag


def _odd_operators(liou: Liouvillian):
    """tr_a and the seed map M -> M a_dag between the sectors' Hermitian-basis coordinates.

    Returns (tr_a_odd, seed): Tr[a M] = tr_a_odd . y_odd for the odd
    coordinates y_odd of M, and seed maps the even coordinates of M to the odd
    coordinates of M a_dag, at most four terms per entry.  In Fock entries
    (M a_dag)[m, n] = sqrt(n + 1) M[m, n + 1], zero in the last column.
    """
    d = liou.dim
    even, odd = liou.sectors
    tr_a, _ = _operators(liou)
    pos = np.zeros(d * d, dtype=np.intp)
    pos[even.idx] = np.arange(even.idx.size)
    last = odd.idx % d == d - 1
    shift = Gather(pos[np.where(last, 0, odd.idx + 1)][:, None],
                   np.where(last, 0.0, np.sqrt(odd.idx % d + 1.0))[:, None])
    # tr_a is real, so T^T tr_a = conj(T^H tr_a)
    return odd.to_herm(tr_a[odd.idx]).conj(), odd.to_herm.after(shift).after(even.to_fock)


def _trapz_weights(n: int, dt: float) -> np.ndarray:
    w = np.full(n, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def _fourier_quadrature(xs: np.ndarray, ts: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """2 Re sum_j signal_j e^{i x_k t_j} for every x_k, on uniform grids xs and ts.

    With x_k = x_0 + k h and t_j = t_0 + j dt the phase splits as
    x_k t_0 + x_0 j dt + h dt (k^2 + j^2 - (k - j)^2) / 2, so the sum is a chirp
    times the convolution of the chirped samples with the conjugate chirp,
    evaluated by FFT (chirp-z transform).  The chirp phases reach h dt n^2 / 2
    for n = max(len(xs), len(ts)), so their rounding error is about
    eps h dt n^2 where the direct sum has eps max|x t|.
    """
    n_x, n_t = len(xs), len(ts)
    if n_x == 0:
        return np.zeros(0)
    dt = _uniform_step(ts, "time grid")
    theta = _uniform_step(xs, "omega_grid") * dt
    j, k, m = np.arange(n_t), np.arange(n_x), np.arange(1 - n_t, n_x)
    n_fft = next_fast_len(n_t + n_x - 1)
    chirped = signal * np.exp(1j * (xs[0] * dt * j + 0.5 * theta * j * j))
    kernel = np.exp(-0.5j * theta * m * m)
    conv = ifft(fft(chirped, n_fft) * fft(kernel, n_fft))[n_t - 1:n_t - 1 + n_x]
    return 2.0 * np.real(np.exp(1j * (xs * ts[0] + 0.5 * theta * k * k)) * conv)


# ---------------------------------------------------------------------------
# correlators

def two_time_correlator(liou: Liouvillian, rho0: np.ndarray,
                        t_grid: np.ndarray) -> np.ndarray:
    """C[i, j] = <a_dag(t_i) a(t_j)> for j >= i by quantum regression; zero below the diagonal.

    Works on full d^2 vectors (both sectors of rho0, every seed), so it is an
    independent reference for the sector-only spectra.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    n_t = len(t_grid)
    tr_a, a_dag = _operators(liou)
    seeds = (evolve_master(liou, rho0, t_grid) @ a_dag).reshape(n_t, -1)
    rows = _SteppingFlow(liou, t_grid).adjoint_rows(tr_a)    # row j = tr_a Lambda^{j dt}
    full = rows @ seeds.T                                    # (tau index, t1 index)
    values = np.zeros((n_t, n_t), dtype=complex)
    for i in range(n_t):
        values[i, i:] = full[: n_t - i, i]
    return values


# ---------------------------------------------------------------------------
# spectra

def _time_grid(liou: Liouvillian, T_max: float, omega_grid: np.ndarray,
               phase: float) -> np.ndarray:
    """Uniform grid on [0, T_max] with max|x| dt <= phase, validated before any propagation."""
    gt = liou.gamma_tilde
    if gt <= 0:
        raise ValueError("emission spectra need gamma_tilde > 0")
    if T_max < 10.0 / gt:
        raise ValueError(f"T_max = {T_max} too short; need >= {10.0 / gt}")
    _uniform_step(omega_grid, "omega_grid")
    x_max = float(np.max(np.abs(omega_grid), initial=0.0))
    dt = min(0.05 / gt, phase / x_max) if x_max > 0 else 0.05 / gt
    return np.linspace(0.0, T_max, int(np.ceil(T_max / dt)) + 1)


def emission_spectra(liou: Liouvillian, rho0: np.ndarray, T_max: float,
                     omega_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E_rad, Q_st) at every x of the uniform omega_grid, from one odd-sector stepping.

    E_rad is the excess emitted energy per unit frequency after preparing rho0;
    it may be negative, since the prepared state can emit less at a frequency
    than the steady state does.  Q_st is the stationary emitted power per unit
    frequency, windowed at T_max like E_rad.  Requires T_max >= 10/gamma_tilde
    and warns if rho(T_max) has not relaxed to the steady state.
    """
    return _transient(liou, rho0, T_max, omega_grid, _SPECTRUM_PHASE)[:2]


def _transient(liou: Liouvillian, rho0: np.ndarray, T_max: float, omega_grid: np.ndarray,
               phase: float):
    """(E_rad, Q_st, Int dt (<n>(t) - <n>_st)) on one time grid with max|x| dt <= phase.

    Both correlators are the odd adjoint rows tr_a Lambda^tau against different seeds.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    ts = _time_grid(liou, T_max, omega_grid, phase)
    dt = ts[1] - ts[0]

    even, odd = liou.sectors
    tr_a, seed = _odd_operators(liou)
    flow = _SteppingFlow(liou, ts)
    # evolve the deviation from the steady state (real coordinates: it is
    # Hermitian); its correlator seeds are exactly C(t', t' + tau) - C_st(tau).
    # Only its even part seeds the odd sector that tr_a sees; the odd part
    # enters the relaxation check alone.
    rho_st = steady_state(liou).reshape(-1)
    dev0 = np.asarray(rho0, complex).reshape(-1) - rho_st
    dev = flow.complex_states(0, even.to_herm(dev0[even.idx]))
    odd_left = odd.to_fock(flow.final(1, odd.to_herm(dev0[odd.idx])))
    left = max(float(np.max(np.abs(even.to_fock(dev[-1])))), float(np.max(np.abs(odd_left))))
    if left > _RELAX_TOL:
        warnings.warn(f"state not relaxed at T_max: deviation {left:.2e}",
                      RuntimeWarning, stacklevel=3)
    # the sum rule's Int dt (<n>(t) - <n>_st); the even sector holds the real diagonal n
    n_row = even.to_herm(np.diag(np.arange(liou.dim)).reshape(-1)[even.idx]).real
    excess = np.real(dev @ n_row)
    seeds = seed(dev)                             # (n_t, odd), per t'
    del dev

    # trapezoid prefix over t': B[r] = Int_0^{t_r} seeds dt' = c[r] + c[r-1] - h[0]
    # with h = seeds dt/2 and c its running sum (c[-1] = 0), all in place
    seeds *= 0.5 * dt
    h0 = seeds[0].copy()
    c_rev = np.cumsum(seeds, axis=0, out=seeds)[::-1]
    # S(tau_j) = Int_0^{T - tau_j} dt' dC(t', t' + tau_j)
    #          = [tr_a Lambda^{tau_j}] . B[n-1-j]
    rows = flow.complex_states(1, tr_a, adjoint=True)
    s_tau = np.einsum("jm,jm->j", rows, c_rev)
    s_tau[:-1] += np.einsum("jm,jm->j", rows[:-1], c_rev[1:])
    s_tau -= rows @ h0
    c_st = rows @ seed(even.to_herm(rho_st[even.idx]).real)
    # 2 Re Int dt s(t) e^{i x t} by the trapezoid rule, for every x
    w = _trapz_weights(len(ts), dt)
    return (_fourier_quadrature(omega_grid, ts, w * s_tau),
            _fourier_quadrature(omega_grid, ts, w * c_st), float(np.sum(w * excess)))


def sum_rule_check(liou: Liouvillian, rho0: np.ndarray,
                   T_max: float) -> tuple[float, float, float]:
    """Frequency-integral consistency check of the transient spectrum.

    Returns (lhs, rhs, slowest_odd_rate).  lhs = (1/2 pi) Int dx E_rad(x) over
    a wide band |x| <= X; rhs = Int dt (<n>(t) - <n>_st).  The band covers
    every odd-sector oscillation frequency that carries weight for rho0, plus a
    margin of 100 gamma_tilde.
    The two must agree because integrating the phase factor over all x
    collapses the double time integral onto its diagonal.  Both come from one
    propagation: the excess occupation is read off the deviation that the
    transient spectrum steps, on a grid with X dt = 1 that keeps the band free
    of aliasing.  slowest_odd_rate is the smallest decay rate -Re mu among
    those weighted odd modes (inf if none carries weight): the correlators
    keep exp(-rate T_max) of their weight past the horizon.
    """
    # Lorentzian tails beyond the margin cost ~ 2*gt/(pi*margin).  The trace
    # against a only sees the odd sector, so its modes suffice.
    even, odd = liou.sectors
    mu, r = np.linalg.eig(odd.block)
    cond = np.linalg.cond(r)
    # cond*eps bounds the relative error of the mode weights
    if cond > 1e13:
        raise ValueError(f"sum rule needs the odd-sector eigenbasis: condition "
                         f"number {cond:.2e} too large")
    tr_a, seed = _odd_operators(liou)
    dev0 = (np.asarray(rho0, complex) - steady_state(liou)).reshape(-1)[even.idx]
    w = np.abs((tr_a @ r) * np.linalg.solve(r, seed(even.to_herm(dev0))))
    active = w > 1e-12 * max(float(w.max()), 1e-300)
    x_max = (float(np.max(np.abs(mu[active].imag))) if np.any(active) else 0.0) \
        + 100.0 * liou.gamma_tilde
    slowest = float(np.min(-mu[active].real)) if np.any(active) else np.inf
    xs = np.linspace(-x_max, x_max, _SUM_RULE_POINTS)
    e_rad, _, rhs = _transient(liou, rho0, T_max, xs, _SUM_RULE_PHASE)
    return float(np.trapezoid(e_rad, xs) / (2.0 * np.pi)), rhs, slowest
