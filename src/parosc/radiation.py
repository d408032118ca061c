"""Dissipative flow of the driven oscillator: emission spectra and their sum rule.

Everything stepped here is one propagation: exact stepping on a uniform time
grid with the matrix exponential P = expm(L_s dt) of each (m + n)-parity sector
block L_s of the Liouvillian.  No eigenvector of the non-normal generator is
involved, so the flow stays accurate near exceptional points, where
eigenvectors coalesce (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).  P comes
from the [13/13] Pade scaling-and-squaring method written in NumPy, so that
every matrix product and solve of the flow runs on NumPy's BLAS:
``scipy.linalg.expm`` runs on scipy's own copy of OpenBLAS, and calls that
alternate between the two copies leave their thread pools contending for the
same cores (with two threads each, the radiation experiment took 1.5 to 2
times as long).  The first 128 states are filled by doubling: states k to
2k - 1 are states 0 to k - 1 times P^k, and P^k is squared as it goes; every
later block of 128 states is one matrix product of the block before it with
P^128, the square after the last.  The stepping hands out these blocks in turn
and keeps only the last one.

The stepping is real arithmetic: ``lindblad.Sector.block`` is L_s in the
Hermitian basis, where it is a real matrix, so P and P^128 act on the float view
of the states, in which a complex vector is two interleaved real ones.  A
Hermitian rho0 (``emission_spectra`` requires one) has real coordinates; the
row of Tr[a .] is stepped as the complex vector it is.

The steady state and every rho built from parity eigenstates live in the even
sector.  The trace against a sees only the odd sector, which the seeds
K(M) = M a_dag of the even part fill, so the spectra need only the even
deviation from the steady state, its odd seeds and the odd adjoint rows
tr_a Lambda^tau; ``emission_spectra`` reads both spectra, as arrays on the
caller's grid, off one stepping of those rows.  K is linear, so the trapezoid
prefix over t' of the seeds is K of the prefix B of the even deviation.  B,
formed block by block as the deviation is stepped, is the one array of all
n_t times that the spectra keep: n_t x d^2/2 reals.
Each block of adjoint rows tau_j, j in [a, b), then meets the reversed slice
B[n_t-b : n_t-a] through K alone, so the odd seeds and rows never exist for
more than one block of times.

The frequency axis is x = Omega - omega_F/2 in units of V; physical bath
prefactors are set to one, so spectra are in the reduced form where only peak
positions, signs, symmetry, and the sum rule are meaningful.

Transient spectral density (total excess emitted energy per unit frequency,
relative to the steady state):

    E_rad(x) = Int_0^T dt 2 Re Int_0^t dt' e^{i x (t - t')} [C(t', t) - C_st(t - t')]

evaluated on a uniform time grid with trapezoidal weights; the grid step obeys
dt <= min(0.05/gamma_tilde, 0.2/max|x|) so that each x is resolved to 0.2 rad
per step.  The stationary spectrum

    Q_st(x) = 2 Re Int_0^T dtau e^{i x tau} C_st(tau)

uses the same grid.  The spectra, sums 2 Re sum_j u_j e^{i x t_j} of trapezoid-
weighted time signals u, are the only Fourier sums; frequency grids must be
uniform, and the sums run for all x at once by the chirp-z transform (Rabiner,
Schafer & Rader, IEEE Trans. Audio Electroacoust. 17, 86 (1969); Bluestein 1970).
The sum rule ties two methods: its time side Int_0^T dt (<n>(t) - <n>_st), the
third value of ``emission_spectra``, against its frequency side from one linear
solve in ``sum_rule_check``.  The time side is the trapezoid on the spectra's
grid with its Euler-Maclaurin end correction -dt^2/12 [d<n>/dt]_0^T, where
d<n>/dt comes from the even block on the first and last stepped rows: the
trapezoid's dt^2 error grows with the relaxation rate, to 1.1 % of the
integral at gamma_tilde = 2.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .fock import ladder_operators
from .lindblad import Gather, Liouvillian, steady_state

_BLOCK = 128        # states per matrix product in the blocked stepping
# [13/13] Pade numerator coefficients b_0..b_13 over b_0, and the largest 1-norm
# at which that approximant of exp meets double precision (Higham 2005)
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1))
_THETA13 = 5.371920351148152
_RELAX_TOL = 1e-4   # largest |rho(T_max) - rho_st| entry before the relaxation warning
_HERMITIAN_TOL = 1e-12      # largest max|rho0 - rho0^dag| / max|rho0| of a Hermitian rho0
_SPECTRUM_PHASE = 0.2       # largest x dt of the spectra: each x resolved


def _uniform_step(grid: np.ndarray, name: str) -> float:
    """Step of a uniform grid (0 for fewer than two points); raises if not uniform."""
    steps = np.diff(grid)
    if len(steps) and not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError(f"{name} must be uniform")
    return float(grid[-1] - grid[0]) / len(steps) if len(steps) else 0.0


# ---------------------------------------------------------------------------
# propagation

def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a real square matrix: [13/13] Pade scaling and squaring (Higham,
    SIAM J. Matrix Anal. Appl. 26, 1179 (2005)), in NumPy alone.

    a is scaled by 2^-s so that its 1-norm is at most theta_13; then
    exp(a) ~ (V - U)^-1 (V + U) with U the odd and V the even part of the
    numerator, and the result is squared s times.  U and V are built in place.
    """
    b, n = _PADE13, a.shape[0]
    s = math.ceil(math.log2(max(np.linalg.norm(a, 1) / _THETA13, 1.0)))
    a = a * 0.5**s
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    w = b[13] * a6
    w += b[11] * a4
    w += b[9] * a2
    u = a6 @ w
    u += b[7] * a6
    u += b[5] * a4
    u += b[3] * a2
    u.flat[::n + 1] += b[1]
    u = a @ u
    np.multiply(a6, b[12], out=w)
    w += b[10] * a4
    w += b[8] * a2
    v = a6 @ w
    v += b[6] * a6
    v += b[4] * a4
    v += b[2] * a2
    v.flat[::n + 1] += b[0]
    del a2, a4, a6, w
    p = v + u
    v -= u
    p = np.linalg.solve(v, p)
    for _ in range(s):
        p = p @ p
    return p


# bench/tracer.py times the builds of P through this binding; the function
# itself keeps a private name, so the tracer does not wrap it a second time
expm = _expm


class _SteppingFlow:
    """Exact flow on a uniform grid ts, stepped by the real P = expm(L_s dt) per parity sector.

    Sector states are rows of Hermitian-basis coordinates: row k is the sector
    vector at ts[k].
    """

    def __init__(self, liou: Liouvillian, ts: np.ndarray):
        self.dt = _uniform_step(ts, "time grid")
        self.n_t = len(ts)
        self.sectors = liou.sectors
        self._props = {}

    def _prop(self, s: int) -> np.ndarray:
        """P of sector s, built once per flow."""
        if s not in self._props:
            self._props[s] = expm(self.sectors[s].block * self.dt)
        return self._props[s]

    def states(self, s: int, x: np.ndarray, adjoint: bool = False):
        """Blocks (start, rows) of the rows exp(L_s t) x, or x^T exp(L_s t) if adjoint.

        x is one coordinate vector of sector s, real or complex; rows[k] is the
        state at ts[start + k], of the dtype of x, and a block holds at most
        _BLOCK times: shape (n, len(x)).  Each block is computed from the one
        before, the only one kept, so callers must not write to a block.
        """
        # the states are the columns of an (m, n) block, column k + j = M^k
        # column j with M = P^T (adjoint) or P.  M is real, so it multiplies the
        # block's float view, in which a complex column is two real columns.
        # The first block doubles from column 0, squaring M as it goes, and the
        # square after the last is the jump M^_BLOCK to the next block
        block = np.empty((len(x), min(self.n_t, _BLOCK)), x.dtype)
        block[:, 0] = x
        k, power = 1, None
        while k < block.shape[1]:
            if power is None:
                power = self._prop(s).T if adjoint else self._prop(s)
            else:
                power = power @ power
            n = min(k, block.shape[1] - k)
            np.matmul(power, block[:, :n].view(float), out=block[:, k:k + n].view(float))
            k *= 2
        yield 0, block.T
        if self.n_t > _BLOCK:
            jump = power @ power
        for start in range(_BLOCK, self.n_t, _BLOCK):
            n = min(_BLOCK, self.n_t - start)
            block = (jump @ block[:, :n].view(float)).view(x.dtype)
            yield start, block.T


def _operators(liou: Liouvillian) -> np.ndarray:
    """Row tr_a with Tr[a M] = tr_a . vec(M)."""
    a, _ = ladder_operators(liou.space)
    return a.T.reshape(-1)


def _odd_operators(liou: Liouvillian):
    """tr_a and the seed map M -> M a_dag between the sectors' Hermitian-basis coordinates.

    Returns (tr_a_odd, seed): Tr[a M] = tr_a_odd . y_odd for the odd
    coordinates y_odd of M, and seed maps the even coordinates of M to the odd
    coordinates of M a_dag, at most four terms per entry.  In Fock entries
    (M a_dag)[m, n] = sqrt(n + 1) M[m, n + 1], zero in the last column.
    """
    d = liou.dim
    even, odd = liou.sectors
    tr_a = _operators(liou)
    pos = np.zeros(d * d, dtype=np.intp)
    pos[even.idx] = np.arange(even.idx.size)
    last = odd.idx % d == d - 1
    shift = Gather(pos[np.where(last, 0, odd.idx + 1)][:, None],
                   np.where(last, 0.0, np.sqrt(odd.idx % d + 1.0))[:, None])
    # tr_a is real, so T^T tr_a = conj(T^H tr_a)
    return odd.to_herm(tr_a[odd.idx]).conj(), odd.to_herm.after(shift).after(even.to_fock)


def _fourier_quadrature(xs: np.ndarray, ts: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """2 Re sum_j signal[..., j] e^{i x_k t_j} for every x_k, on uniform grids xs and ts.

    signal is one time signal or a stack of them, on its last axis.  With
    x_k = x_0 + k h and t_j = t_0 + j dt the phase splits as x_k t_0 + x_0 j dt
    + h dt (k^2 + j^2 - (k - j)^2) / 2, so the sum is a chirp times the
    convolution of the chirped samples with the conjugate chirp: a chirp-z
    transform by NumPy's FFT of a power-of-two length, the kernel's once for
    the stack.  The chirp phases reach h dt n^2 / 2 for n = max(len(xs), len(ts)),
    so their rounding error is about eps h dt n^2 where the direct sum has eps max|x t|.
    """
    n_x, n_t = len(xs), len(ts)
    if n_x == 0:
        return np.zeros(signal.shape[:-1] + (0,))
    dt = _uniform_step(ts, "time grid")
    theta = _uniform_step(xs, "omega_grid") * dt
    j, k, m = np.arange(n_t), np.arange(n_x), np.arange(1 - n_t, n_x)
    n_fft = 1 << (n_t + n_x - 2).bit_length()         # the least power of two >= n_t + n_x - 1
    chirped = signal * np.exp(1j * (xs[0] * dt * j + 0.5 * theta * j * j))
    kernel = np.fft.fft(np.exp(-0.5j * theta * m * m), n_fft)
    conv = np.fft.ifft(np.fft.fft(chirped, n_fft) * kernel)[..., n_t - 1:n_t - 1 + n_x]
    return 2.0 * np.real(np.exp(1j * (xs * ts[0] + 0.5 * theta * k * k)) * conv)


# ---------------------------------------------------------------------------
# spectra

def spectrum_time_grid(liou: Liouvillian, T_max: float, omega_grid: np.ndarray) -> np.ndarray:
    """The uniform grid on [0, T_max] on which ``emission_spectra`` steps for omega_grid.

    Its step is min(0.05/gamma_tilde, 0.2/max|x|); raises ValueError for a
    non-uniform omega_grid, gamma_tilde <= 0 or T_max < 10/gamma_tilde.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    _uniform_step(omega_grid, "omega_grid")
    gt = liou.gamma_tilde
    if gt <= 0:
        raise ValueError("emission spectra need gamma_tilde > 0")
    if T_max < 10.0 / gt:
        raise ValueError(f"T_max = {T_max} too short; need >= {10.0 / gt}")
    x_max = float(np.max(np.abs(omega_grid), initial=0.0))
    dt = min(0.05 / gt, _SPECTRUM_PHASE / x_max) if x_max > 0 else 0.05 / gt
    return np.linspace(0.0, T_max, int(np.ceil(T_max / dt)) + 1)


def emission_spectra(liou: Liouvillian, rho0: np.ndarray, T_max: float,
                     omega_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(E_rad, Q_st, n_excess) on the uniform omega_grid, all from one stepping on one grid.

    E_rad is the excess emitted energy per unit frequency after preparing rho0;
    it may be negative, since the prepared state can emit less at a frequency
    than the steady state does.  Q_st is the stationary emitted power per unit
    frequency, windowed at T_max like E_rad.  n_excess is the trapezoid sum of
    Int_0^T_max dt (<n>(t) - <n>_st) on the same grid with its end correction
    -dt^2/12 [d<n>/dt]_0^T_max, the time side of ``sum_rule_check``.
    Requires a Hermitian rho0 (see ``_hermitian``) and T_max >= 10/gamma_tilde,
    and warns if rho(T_max) has not relaxed to the steady state.
    """
    rho0 = _hermitian(rho0)
    omega_grid = np.asarray(omega_grid, dtype=float)
    ts = spectrum_time_grid(liou, T_max, omega_grid)
    signals, n_excess = _transient(liou, rho0, ts)
    return *_fourier_quadrature(omega_grid, ts, signals), n_excess


def _hermitian(rho0) -> np.ndarray:
    """rho0 as a complex array; ValueError if max|rho0 - rho0^dag| > _HERMITIAN_TOL max|rho0|."""
    rho0 = np.asarray(rho0, complex)
    skew = float(np.max(np.abs(rho0 - rho0.conj().T), initial=0.0))
    if skew > _HERMITIAN_TOL * np.max(np.abs(rho0), initial=0.0):
        raise ValueError(f"rho0 must be Hermitian: max|rho0 - rho0^dag| = {skew:.3g}")
    return rho0


def _diagonal_row(liou: Liouvillian, w) -> np.ndarray:
    """Row r with Tr[diag(w) M] = r . y_even, real: the even sector holds the diagonal."""
    even = liou.sectors[0]
    return even.to_herm(np.diag(np.broadcast_to(w, liou.dim)).reshape(-1)[even.idx]).real


def _transient(liou: Liouvillian, rho0: np.ndarray, ts: np.ndarray):
    """([w S(tau), w C_st(tau)], Int dt (<n>(t) - <n>_st)) on the uniform grid ts, rho0 Hermitian.

    w are the trapezoid weights, so E_rad and Q_st are the Fourier sums
    2 Re sum_j u_j e^{i x t_j} of the two rows of the first value.  Both
    correlators are the odd adjoint rows tr_a Lambda^tau against different seeds.
    """
    dt, n_t = ts[1] - ts[0], len(ts)
    even, odd = liou.sectors
    tr_a, seed = _odd_operators(liou)
    flow = _SteppingFlow(liou, ts)
    # evolve the deviation from the steady state (real coordinates: it is
    # Hermitian); its correlator seeds are exactly C(t', t' + tau) - C_st(tau).
    # Only its even part seeds the odd sector that tr_a sees; the odd part
    # enters the relaxation check alone.
    rho_st = steady_state(liou).reshape(-1)
    dev0 = rho0.reshape(-1) - rho_st
    # the sum rule's Int dt (<n>(t) - <n>_st); d<n>/dt = n_rate . dev for its end term
    n_row = _diagonal_row(liou, np.arange(liou.dim))
    n_rate = n_row @ even.block
    excess = np.empty(n_t)
    # each block of the deviation becomes its part of the trapezoid prefix over
    # t': B[r] = Int_0^{t_r} dev dt' = c[r] + c[r-1] - h[0] with h = dev dt/2
    # and c its running sum (c[-1] = 0).  The seed map K is linear, so K B[r] is
    # the prefix of the seeds; B is the one full-length array of the spectra.
    carry = 0.0
    for start, dev in flow.states(0, even.to_herm(dev0[even.idx]).real):
        if start == 0:
            prefix = np.empty((n_t, dev.shape[1]), dev.dtype)
            h0 = 0.5 * dt * dev[0]
            rate0 = float(dev[0] @ n_rate)
        excess[start:start + len(dev)] = dev @ n_row
        c = prefix[start:start + len(dev)]
        np.multiply(dev, 0.5 * dt, out=c)
        c[0] += carry
        np.cumsum(c, axis=0, out=c)
        last = c[-1].copy()
        c[1:] += c[:-1]
        c[0] += carry
        c -= h0
        carry = last
    left = float(np.max(np.abs(even.to_fock(dev[-1]))))
    odd0 = odd.to_herm(dev0[odd.idx]).real
    if np.any(odd0):
        # only the last row counts; each block replaces the one before
        for _, rows in flow.states(1, odd0):
            pass
        left = max(left, float(np.max(np.abs(odd.to_fock(rows[-1])))))
    if left > _RELAX_TOL:
        warnings.warn(f"state not relaxed at T_max: deviation {left:.2e}",
                      RuntimeWarning, stacklevel=3)

    # S(tau_j) = Int_0^{T - tau_j} dt' dC(t', t' + tau_j)
    #          = [tr_a Lambda^{tau_j}] . K B[n-1-j],
    # so the adjoint rows j in [a, b) pair with B[n-b : n-a] reversed
    seed_st = seed(even.to_herm(rho_st[even.idx]).real)
    s_tau, c_st = signals = np.empty((2, n_t), complex)
    for a, rows in flow.states(1, tr_a, adjoint=True):
        b = a + len(rows)
        s_tau[a:b] = np.einsum("jm,jm->j", rows, seed(prefix[n_t - b:n_t - a][::-1]))
        c_st[a:b] = rows @ seed_st
    w = np.full(n_t, dt)
    w[0] = w[-1] = 0.5 * dt
    # Euler-Maclaurin: the trapezoid exceeds the integral by dt^2/12 [d<n>/dt]_0^T + O(dt^4)
    end = dt**2 / 12.0 * (float(dev[-1] @ n_rate) - rate0)
    return w * signals, float(np.sum(w * excess)) - end


def sum_rule_check(liou: Liouvillian, rho0: np.ndarray) -> tuple[float, float]:
    """(lhs, slowest_odd_rate): the sum rule's frequency side, and the slowest odd decay rate.

    lhs = (1/2 pi) Int dx E_rad(x) over all x at T -> infinity.  Integrating
    the phase factor over every x collapses the double time integral onto its
    diagonal, so lhs = Tr[n Y] with Y = Int_0^inf (rho(t) - rho_st) dt, which
    solves L Y = -(rho0 - rho_st), Tr Y = 0: nothing is stepped.  The even
    block elimination of ``Liouvillian.even_solve`` gives a solution y with
    rho_00 = 0, and Y = y - (Tr y) rho_st.  The row it leaves out, s = 0, is
    the solvability condition Tr(rho0 - rho_st) = 0, so rho0 must have unit
    trace (to 1e-10) and, as for ``emission_spectra``, be Hermitian, or
    ``ValueError``.  lhs matches the n_excess of ``emission_spectra`` once
    rho(T_max) has relaxed.  slowest_odd_rate is
    min -Re mu over the eigenvalues mu of the odd block: the correlators keep
    about exp(-rate T_max) past T_max.
    """
    rho0 = _hermitian(rho0)
    trace = complex(np.trace(rho0))
    if abs(trace - 1.0) > 1e-10:
        raise ValueError(f"sum rule needs a unit-trace rho0: Tr rho0 = {trace:.12g}")
    even, odd = liou.sectors
    rho_st = steady_state(liou).reshape(-1)[even.idx]
    # L maps real coordinates to real ones, and a Hermitian rho0 has real ones
    y = liou.even_solve(-even.to_herm(rho0.reshape(-1)[even.idx] - rho_st).real, 0.0)
    y -= (_diagonal_row(liou, 1.0) @ y) * even.to_herm(rho_st).real     # Y, with Tr Y = 0
    return (float(_diagonal_row(liou, np.arange(liou.dim)) @ y),
            float(np.min(-np.linalg.eigvals(odd.block).real)))
