"""Checks and oracles shared by the tests; nothing in the package calls them."""

from __future__ import annotations

import cmath
import math
import sys
import warnings

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import loggamma

from parosc.floquet import LabFrameParams, oscillator_levels
from parosc.fock import FockSpace, ladder_operators
from parosc.lindblad import Liouvillian
from parosc.lz import (LzProblem, LzSolution, _up_down_projection, lz_asymptotic_alphas,
                       lz_evolve_numeric)
from parosc.radiation import _operators, _SteppingFlow
from parosc import rwa
from parosc.rwa import (RwaSystem, h_rwa_bands, level_label_at_zero_drive, parity_eigh,
                        zero_drive_levels)
from parosc.spectrum import SpectrumSeries
from parosc.wigner import _diagonal_sum


def check_density_matrix(rho: np.ndarray, herm_tol: float = 1e-10,
                         trace_tol: float = 1e-10, eig_tol: float = 1e-8) -> None:
    """Raise if rho is not Hermitian, unit-trace, and positive within tolerances."""
    if np.max(np.abs(rho - rho.conj().T)) > herm_tol:
        raise ValueError("density matrix is not Hermitian")
    tr = np.trace(rho)
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"density matrix trace {tr} deviates from 1")
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if w.min() < -eig_tol:
        raise ValueError(f"density matrix has negative eigenvalue {w.min()}")


def expectation_number(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ np.diag(np.arange(rho.shape[0])))))


def dense_generator(liou: Liouvillian) -> np.ndarray:
    """The unsplit d^2 x d^2 generator from dense operators: the oracle for the band-built L.

    Row-stacking convention: vec(A rho B) = (A kron B^T) vec(rho).
    """
    h = build_h_rwa(liou.space, liou.sys)
    a, _ = ladder_operators(liou.space)
    n_op = number_operator(liou.space)
    eye = np.eye(liou.dim)
    lmat = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    lmat += -liou.gamma_tilde * (np.kron(n_op, eye) + np.kron(eye, n_op.T)
                                 - 2.0 * np.kron(a, a.conj()))
    return lmat


def trace_preservation_residual(liou: Liouvillian) -> float:
    """Max |Tr L[E_mn]| over the matrix units: the trace functional must annihilate the generator."""
    d = liou.dim
    units = np.eye(d * d).reshape(d * d, d, d)
    return float(np.max(np.abs(np.trace(liou.apply(units), axis1=1, axis2=2))))


def poisson_tail(mean: float, start: int) -> float:
    """Poisson tail mass P(N >= start) for occupation mean; coherent-state oracle."""
    total = 0.0
    for k in range(start):
        total += math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1)) if mean > 0 else (1.0 if k == 0 else 0.0)
    return 1.0 - total


def asymptote_estimate(prob: LzProblem, rel_tol: float = 1e-10) -> float:
    """|C_up(infinity)|^2 from direct integration, averaged over the last phase period.

    "Infinity" means 2 s t_max^2 >= 1e4; the average over one dynamical-phase
    oscillation removes the 1/t tail.
    """
    t_max = math.sqrt(1e4 / (2.0 * prob.s))
    if prob.Delta != 0:
        t_max = max(t_max, 20.0 / abs(prob.Delta))
    sol = lz_evolve_numeric(prob, t_max, rel_tol=rel_tol, n_out=6001)
    period = 2.0 * math.pi / (prob.s * t_max)
    mask = sol.t_grid > t_max - 5.0 * period
    return float(np.mean(np.abs(sol.c_up[mask]) ** 2))


def wigner_every_diagonal(rho: np.ndarray, lam: float, q_axis: np.ndarray,
                          p_axis: np.ndarray) -> np.ndarray:
    """W on the grid from the Horner pass over every diagonal, zero ones included.

    The oracle for ``wigner_transform``, which leaves out the diagonals
    without weight: the same arithmetic, line for line, with no diagonal skipped.
    """
    rho = np.asarray(rho, dtype=complex)
    Q, P = np.meshgrid(q_axis, p_axis, indexing="ij")
    two_a = np.sqrt(2.0 / lam) * (P - 1j * Q)
    radii, inverse = np.unique((2.0 / lam) * (Q * Q + P * P), return_inverse=True)
    inverse = inverse.reshape(two_a.shape)
    weight = 2.0 * np.triu(rho, 1) + np.diag(rho.diagonal().real)
    gauss = np.exp(-0.5 * radii) / (np.pi * lam)
    acc = np.zeros_like(two_a)
    for k in range(rho.shape[0] - 1, -1, -1):
        acc *= two_a / math.sqrt(k + 1)
        acc += _diagonal_sum(np.diagonal(weight, k), radii, gauss, k)[inverse]
    return acc.real


def initial_label_by_eigensolve(space: FockSpace, delta: float,
                                state: np.ndarray) -> tuple[int, int]:
    """(parity, rank) of the f = 0 eigenvector of the parity chain best overlapping ``state``.

    The oracle for ``ramp.initial_label``, which reads the rank off the
    zero-drive levels without an eigensolve.
    """
    state = np.asarray(state, dtype=complex)
    parity = 1 if float(np.sum(np.abs(state[0::2]) ** 2)) > 0.5 else -1
    idx, _, v = parity_eigh(space.dim, RwaSystem(delta=delta, f=0.0), parity)
    return parity, int(np.argmax(np.abs(v.T @ state[idx])))


def record_parity_eigh(monkeypatch) -> list[tuple[float, int]]:
    """Record (f, parity) of each ``rwa.parity_eigh`` call, from every parosc module binding it."""
    calls, solve = [], rwa.parity_eigh

    def recording(dim, system, parity):
        calls.append((system.f, parity))
        return solve(dim, system, parity)

    for name, module in list(sys.modules.items()):
        if name.startswith("parosc") and getattr(module, "parity_eigh", None) is solve:
            monkeypatch.setattr(module, "parity_eigh", recording)
    return calls


# ---------------------------------------------------------------------------
# dense operators and Hamiltonian

def number_operator(space: FockSpace) -> np.ndarray:
    return np.diag(np.arange(space.dim)).astype(complex)


def parity_operator(space: FockSpace) -> np.ndarray:
    """Occupation-number parity, diagonal with entries (-1)^n."""
    return np.diag((-1.0) ** np.arange(space.dim)).astype(complex)


def build_h_rwa(space: FockSpace, system: RwaSystem) -> np.ndarray:
    """Dense rotating-frame Hamiltonian assembled from ``h_rwa_bands``; units of V."""
    diag, off2 = h_rwa_bands(space.dim, system)
    h = np.diag(diag).astype(complex)
    h += np.diag(off2, 2) + np.diag(off2, -2)
    return h


def coherent_eigen_residual(space: FockSpace, f: float) -> float:
    """Residual of the exact coherent eigenstates at scaled detuning delta = 1.

    At delta = 1 the Hamiltonian factorizes and the coherent states |+-alpha>
    with alpha^2 = -f are exact degenerate eigenstates with energy -f^2/2.
    Returns max over the two signs of ||(H - E)|alpha>||.
    """
    if f <= 0:
        raise ValueError("f must be > 0")
    alpha = 1j * np.sqrt(f)
    h = build_h_rwa(space, RwaSystem(delta=1.0, f=f))
    energy = -f ** 2 / 2.0
    worst = 0.0
    for sign in (1.0, -1.0):
        psi = space.coherent_state(sign * alpha, tail_tol=1e-12)
        worst = max(worst, float(np.linalg.norm(h @ psi - energy * psi)))
    return worst


def exact_level_shift(space: FockSpace, delta: float, f: float, n: int) -> float:
    """Exact-diagonalization shift of the level adiabatically connected to |n>.

    The level is identified by its (parity, rank) label at zero drive, which
    is preserved because same-parity levels repel.  Used as the oracle against
    which ``perturbative_shift`` is checked.
    """
    parity, rank = level_label_at_zero_drive(delta, n)
    _, levels, _ = parity_eigh(space.dim, RwaSystem(delta=delta, f=f), parity)
    # diagonal of H at f=0 equals Ebar_n - Ebar_0, i.e. the zero-drive levels
    return float(levels[rank]) - zero_drive_levels(delta, n)[n]


# ---------------------------------------------------------------------------
# level flows

def column(series: SpectrumSeries, parity: int, rank: int) -> np.ndarray:
    """The flow of the level labelled (parity, rank) in ``series``."""
    mask = (series.parities == parity) & (series.ranks == rank)
    j = np.where(mask)[0]
    if len(j) == 0:
        raise ValueError(f"label (parity={parity:+d}, rank={rank}) not tracked")
    return series.levels[:, j[0]]


def same_parity_gap(series: SpectrumSeries, parity: int, rank: int) -> np.ndarray:
    """Distance to the nearest tracked same-parity neighbor, per drive value."""
    target = column(series, parity, rank)
    gaps = np.full(len(series.f_grid), np.inf)
    for j in range(series.levels.shape[1]):
        if series.parities[j] != parity or series.ranks[j] == rank:
            continue
        gaps = np.minimum(gaps, np.abs(series.levels[:, j] - target))
    if np.any(np.isinf(gaps)):
        raise ValueError("no same-parity neighbor tracked; increase n_levels")
    return gaps


# ---------------------------------------------------------------------------
# reduced Fourier chains of the lab-frame Floquet problem

def reduced_resonant_set(p: LabFrameParams, base_k: int, base_n: int) -> np.ndarray:
    """Tridiagonal system over the resonantly coupled chain through (base_k, base_n).

    The chain holds the amplitudes u_{base_k + j, base_n + 2j} for j >= -base_n//2;
    keeping only these is the rotating-wave approximation in the Fourier picture.
    """
    j = np.arange(-(base_n // 2), (p.n_cut - base_n + 1) // 2)     # base_n + 2j < n_cut
    ns, ks = base_n + 2 * j, base_k + j
    diag = oscillator_levels(p, ns) - ks * p.omegaF
    # exact q^2 elements <n|q^2|n+2>, times F/4
    off = 0.25 * p.F * np.sqrt((ns[:-1] + 1.0) * (ns[:-1] + 2.0)) / (2.0 * p.omega0)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def reduced_rwa_equations(p: LabFrameParams) -> tuple[np.ndarray, np.ndarray]:
    """The two canonical resonant chains (even through (0,0), odd through (0,1)).

    Their spectra reproduce the rotating-frame energies exactly: the even chain
    gives E, the odd chain gives E + omegaF/2, matching the parity-dependent
    quasienergy mapping.
    """
    return reduced_resonant_set(p, 0, 0), reduced_resonant_set(p, 0, 1)


# ---------------------------------------------------------------------------
# exact half-line Landau-Zener solution via parabolic cylinder functions
#
# Each C satisfies a Weber equation in z = sqrt(2s) e^{+-i pi/4} t, solved by
# parabolic cylinder functions D_nu with pure imaginary order nu = +-i p,
# p = Delta^2 / (2 s).  Along those 45-degree rays both fundamental solutions
# are oscillatory (|exp(+-z^2/4)| = 1), so evaluating D_nu by integrating its
# defining ODE (complex state, DOP853) outward from z = 0 is well conditioned,
# and D_nu(z)* = D_{nu*}(z*) makes the pair behind C_- the conjugate of the
# pair behind C_+: two of the four ODEs are integrated.  The ODE integrates
# D_nu(z)/D_nu(0), started from the log-derivative D'_nu(0)/D_nu(0): D_nu(0)
# itself holds 1/Gamma((1 - nu)/2) ~ exp(pi p/4) and overflows near
# Delta^2/s = 1800.

def _pcf_slope(nu: complex) -> complex:
    """r(nu) = D'_nu(0) / D_nu(0) = -sqrt(2) Gamma((1 - nu)/2) / Gamma(-nu/2).

    Formed from log-gamma: D_nu(0) alone holds 1/Gamma((1 - nu)/2), which
    overflows for large |Im nu| while the ratio stays of order sqrt(|nu|).
    """
    return -math.sqrt(2.0) * cmath.exp(loggamma((1.0 - nu) / 2.0) - loggamma(-nu / 2.0))


def parabolic_cylinder_on_ray(nu: complex, k: complex, t_grid: np.ndarray) -> np.ndarray:
    """D_nu(k*t) / D_nu(0) for t on a nonnegative real grid, along the fixed ray arg(k).

    Integrates w'' + (nu + 1/2 - z^2/4) w = 0 in the ray parameter t from
    w(0) = 1 and dw/dt(0) = k r(nu), the normalised values at the origin.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    k2 = k * k

    def rhs(t, y):
        return np.array([y[1], k2 * (k2 * t * t / 4.0 - nu - 0.5) * y[0]])

    y0 = np.array([1.0, k * _pcf_slope(nu)], dtype=complex)
    sol = solve_ivp(rhs, (0.0, float(t_grid[-1])), y0, t_eval=t_grid,
                    method="DOP853", rtol=1e-12, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"parabolic cylinder integration failed: {sol.message}")
    return sol.y[0]


def weber_solution(prob: LzProblem, t_grid: np.ndarray) -> LzSolution:
    """Exact C_+-(t) as combinations of parabolic cylinder functions.

    C_+- = A_+- D_{+-ip-1}(-+ i z_+-) + B_+- D_{-+ip}(z_+-) with
    z_+- = sqrt(2s) e^{+-i pi/4} t; A, B fixed by C_+-(0) = 1/sqrt(2) and
    i C'_+-(0) = Delta C_-+(0).  As D_nu(z)* = D_{nu*}(z*) and z_- = z_+*, the two
    functions behind C_- are the conjugates of the two integrated for C_+, to
    the bit (DOP853 commutes with conjugation).  Warns if the evaluation loses
    more than six digits of the conserved norm.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0):
        raise ValueError("t_grid must be >= 0")
    Delta, s, p = prob.Delta, prob.s, prob.p
    if p == 0:
        # Delta = 0: the +- states are exact eigenstates at all times
        phase = np.exp(-1j * s * t_grid ** 2 / 2.0)
        c_plus, c_minus = phase / math.sqrt(2.0), np.conj(phase) / math.sqrt(2.0)
    else:
        # D_{ip-1}(-i z_+) on the ray k_- = conj(k_+) and D_{-ip}(z_+) on k_+, each over
        # its value at 0; C_-'s functions and matrix are their conjugates
        k_pos = math.sqrt(2.0 * s) * cmath.exp(1j * math.pi / 4.0)
        nu1, nu2, k1 = 1j * p - 1.0, -1j * p, k_pos.conjugate()
        m_plus = np.array([[1.0, 1.0], [k1 * _pcf_slope(nu1), k_pos * _pcf_slope(nu2)]])
        rhs = np.array([1.0 / math.sqrt(2.0), -1j * Delta / math.sqrt(2.0)])
        a_plus, b_plus = np.linalg.solve(m_plus, rhs)
        a_minus, b_minus = np.linalg.solve(m_plus.conj(), rhs)
        g1 = parabolic_cylinder_on_ray(nu1, k1, t_grid)
        g2 = parabolic_cylinder_on_ray(nu2, k_pos, t_grid)
        c_plus = a_plus * g1 + b_plus * g2
        c_minus = a_minus * g1.conj() + b_minus * g2.conj()
    norm_drift = np.max(np.abs(np.abs(c_plus) ** 2 + np.abs(c_minus) ** 2 - 1.0))
    if norm_drift > 1e-6:
        warnings.warn(
            f"parabolic cylinder evaluation lost accuracy: norm drift {norm_drift:.2e}",
            RuntimeWarning, stacklevel=2,
        )
    c_up, c_down = _up_down_projection(c_plus, c_minus, Delta, s, t_grid)
    au, ad = lz_asymptotic_alphas(prob) if p else (None, None)
    return LzSolution(t_grid=t_grid, c_plus=c_plus, c_minus=c_minus,
                      c_up=c_up, c_down=c_down, alpha_up=au, alpha_down=ad)


# ---------------------------------------------------------------------------
# reference flows of the Lindblad generator on full d^2 vectors

def fock_rows(flow: _SteppingFlow, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """exp(L t) x for every t, or the rows x^T exp(L t) if adjoint; shape (len(ts), d^2).

    x and the result are row-stacked d^2 vectors in Fock coordinates; only the
    sectors x occupies are stepped, the others stay exactly zero along the
    flow.  A row pairs with T y as
    (T^T row) . y, and T^T = conj(T^H), so adjoint rows enter and leave
    conjugated.
    """
    flip = np.conj if adjoint else np.asarray
    out = np.zeros((flow.n_t, x.size), dtype=complex)
    for s, sector in enumerate(flow.sectors):
        if np.any(x[sector.idx]):
            for start, rows in flow.complex_blocks(
                    s, flip(sector.to_herm(flip(x[sector.idx]))), adjoint):
                out[start:start + len(rows), sector.idx] = flip(sector.to_fock(flip(rows)))
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
    rows = fock_rows(_SteppingFlow(liou, t_grid), np.asarray(rho0, complex).reshape(-1))
    return rows.reshape(len(t_grid), liou.dim, liou.dim)


def two_time_correlator(liou: Liouvillian, rho0: np.ndarray,
                        t_grid: np.ndarray) -> np.ndarray:
    """C[i, j] = <a_dag(t_i) a(t_j)> for j >= i by quantum regression; zero below the diagonal.

    Works on full d^2 vectors (both sectors of rho0, every seed), so it is an
    independent reference for the sector-only spectra: propagate rho to t1,
    deform it by a_dag on the right, propagate the deformation for
    tau = t2 - t1, and trace against a.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    n_t = len(t_grid)
    tr_a, a_dag = _operators(liou)
    seeds = (evolve_master(liou, rho0, t_grid) @ a_dag).reshape(n_t, -1)
    rows = fock_rows(_SteppingFlow(liou, t_grid), tr_a, adjoint=True)  # tr_a Lambda^{j dt}
    full = rows @ seeds.T                                    # (tau index, t1 index)
    values = np.zeros((n_t, n_t), dtype=complex)
    for i in range(n_t):
        values[i, i:] = full[: n_t - i, i]
    return values
