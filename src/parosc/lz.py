"""Half-line Landau-Zener problem: sweep started at t = 0 instead of t -> -infinity.

Two near-resonant same-parity levels mixed by a linearly growing drive reduce
to the two-level Hamiltonian

    H(t) = [[nu(t), Delta], [Delta, -nu(t)]],   nu(t) = s * t,

in the basis C_+/- of the symmetric/antisymmetric combinations, with the sweep
beginning at t = 0 from C_+(0) = C_-(0) = 1/sqrt(2) (lower bare state occupied).
Because the sweep starts at finite time, the nonadiabatic transition
probability falls off as a power law (Delta^2/s)^{-2} rather than the
exponential of the standard problem.

Trajectories, ``parosc run lz`` included, come from ``parosc.ramp.propagate_linear``
(commutator-free Magnus steps, each a product of two exact 2x2 exponentials
from the Rabi formula, applied a block of steps at a time through their prefix
products); the exact solution below is the oracle the tests check them against.

Exact solution: each C satisfies a Weber equation in z = sqrt(2s) e^{+-i pi/4} t,
solved by parabolic cylinder functions D_nu with pure imaginary order
nu = +-i p, p = Delta^2 / (2 s).  Along those 45-degree rays both fundamental
solutions are oscillatory (|exp(+-z^2/4)| = 1), so evaluating D_nu by
integrating its defining ODE (complex state, DOP853) outward from z = 0 is well
conditioned, and D_nu(z)* = D_{nu*}(z*) makes the pair behind C_- the conjugate
of the pair behind C_+: two of the four ODEs are integrated.  The gamma factors
of the solution separately over- or underflow near Delta^2/s = 600 while their
products stay of order one.  So the ODE integrates D_nu(z)/D_nu(0), started
from the log-derivative D'_nu(0)/D_nu(0) (D_nu(0) itself holds
1/Gamma((1 - nu)/2) ~ exp(pi p/4) and overflows near Delta^2/s = 1800), and the
limiting amplitudes take their modulus in closed form and their phases from
``scipy.special.loggamma``.  For p >= 50 the phase of the Gamma(z)/Gamma(z + 1/2)
ratio comes from its series in 1/p, so the small |alpha_down| is not the
difference of two rounded p log p phases.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import loggamma

from .ramp import propagate_linear


@dataclass(frozen=True)
class LzProblem:
    """Half splitting Delta (sign meaningful) and ramp speed s > 0."""

    Delta: float
    s: float

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError("ramp speed s must be > 0")

    @property
    def p(self) -> float:
        """Landau-Zener parameter Delta^2 / (2 s)."""
        return self.Delta ** 2 / (2.0 * self.s)


@dataclass
class LzSolution:
    t_grid: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray
    c_up: np.ndarray
    c_down: np.ndarray
    alpha_up: complex | None = None
    alpha_down: complex | None = None
    steps: int | None = None                # CF4 steps of a numeric sweep
    error_estimate: float | None = None     # and its step-doubling error estimate


# ---------------------------------------------------------------------------
# direct numerical integration

def _up_down_projection(c_plus, c_minus, Delta, s, t):
    """Project onto the instantaneous eigenvectors with eigenvalues +-sqrt(nu^2+Delta^2).

    The mixing angle chi = atan2(Delta, nu)/2 keeps the branches continuous from
    t = 0 (where they are the (1, +-1)/sqrt(2) combinations, by sign of Delta)
    to t -> infinity (where up -> C_+).
    """
    chi = 0.5 * np.arctan2(Delta, s * np.asarray(t, dtype=float))
    c_up = np.cos(chi) * c_plus + np.sin(chi) * c_minus
    c_down = -np.sin(chi) * c_plus + np.cos(chi) * c_minus
    return c_up, c_down


def lz_evolve_numeric(prob: LzProblem, t_max: float, rel_tol: float = 1e-10,
                      n_out: int = 2001) -> LzSolution:
    """Integrate the two-level Schrodinger equation from C_+(0) = C_-(0) = 1/sqrt(2).

    H(t) = Delta sigma_x + s t sigma_z through ``parosc.ramp.propagate_linear``:
    ``rel_tol`` bounds the step-doubling error estimate of the CF4 sweep over
    the whole unit-norm trajectory, and ``steps`` and ``error_estimate`` of the
    result record the accepted sweep.
    """
    if t_max <= 0:
        raise ValueError("t_max must be > 0")
    Delta, s = prob.Delta, prob.s
    ts = np.linspace(0.0, t_max, n_out)
    # H(t) = [[0, Delta], [Delta, 0]] + t diag(s, -s)
    a = (np.zeros(2), np.array([Delta]))
    b = (np.array([s, -s]), np.zeros(1))
    y0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    states, steps, estimate = propagate_linear(a, b, y0, ts, rel_tol)
    c_plus, c_minus = states.T
    c_up, c_down = _up_down_projection(c_plus, c_minus, Delta, s, ts)
    return LzSolution(t_grid=ts, c_plus=c_plus, c_minus=c_minus, c_up=c_up, c_down=c_down,
                      steps=steps, error_estimate=estimate)


# ---------------------------------------------------------------------------
# exact solution via parabolic cylinder functions

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


# above this p the ratio Gamma(-ip/2) / Gamma((1 - ip)/2) comes from its large-|z| expansion
_P_SERIES = 50.0
# theta(u) = sum_k c_k u^k over odd k, u = 2/p, with c_k = (2 - 2^-k) |B_{k+1}| / (k (k+1))
# (DLMF 5.11.8 for log Gamma(z) - log Gamma(z + 1/2); B_{k+1}(1/2) = (2^-k - 1) B_{k+1})
_THETA = (1.0 / 8.0, 1.0 / 192.0, 1.0 / 640.0, 17.0 / 14336.0, 31.0 / 18432.0)


def lz_asymptotic_alphas(prob: LzProblem) -> tuple[complex, complex]:
    """Limiting amplitudes alpha_up/down of the adiabatic-branch projections.

    Obtained from the large-argument expansion of the parabolic cylinder
    solution; |alpha_up|^2 + |alpha_down|^2 = 1.  In the adiabatic limit
    alpha_up ~ 1 - (i/12)(s/Delta^2) and alpha_down ~ -(i/4)(s/Delta^2), so the
    transition probability decays as (Delta^2/s)^{-2}.  At Delta = 0 both
    magnitudes are 1/sqrt(2) (equal superposition persists forever).

    With S = z^{1/2} Gamma(z) / Gamma(z + 1/2) at z = -ip/2, alpha_up = P (S + sgn)
    and alpha_down = conj(P (S - sgn)), sgn the sign of Delta.  The prefactor
    has the closed-form modulus |P| = sqrt(1 - e^{-pi p})/2, so the norm does
    not rest on log-gamma values of size p log p.  For p >= 50, |S| = 1 to
    e^{-pi p} and arg S comes from its series in 1/p, so S - 1 ~ i/(4p) carries
    no cancellation of rounded p log p phases.
    """
    p = prob.p
    if p == 0:
        r = 1.0 / math.sqrt(2.0)
        return complex(r), complex(r)
    # P = (1 + i) lam_plus Gamma((1 - ip)/2) with lam_plus = (2p/e)^(-ip/2)
    # (e^{3 pi p/4} - e^{-5 pi p/4}) sqrt(p) Gamma(ip) / (4 sqrt(2) pi); only its phase
    # is taken from log-gamma
    phase = (-0.5 * p * (math.log(2.0 * p) - 1.0) + loggamma(1j * p).imag
             + loggamma((1.0 - 1j * p) / 2.0).imag)
    pre = (1.0 + 1j) * math.sqrt(-math.expm1(-math.pi * p) / 8.0) * cmath.exp(1j * phase)
    if p < _P_SERIES:
        ratio = cmath.exp(loggamma(-0.5j * p) - loggamma((1.0 - 1j * p) / 2.0))
        s = math.sqrt(p) * ratio / (1.0 + 1j)
        s_plus, s_minus = s + 1.0, s - 1.0
    else:
        u = 2.0 / p
        theta = sum(c * u ** (2 * i + 1) for i, c in enumerate(_THETA))
        half = cmath.exp(0.5j * theta)
        s_plus, s_minus = 2.0 * math.cos(0.5 * theta) * half, 2j * math.sin(0.5 * theta) * half
    up, down = (s_plus, s_minus) if prob.Delta > 0 else (s_minus, s_plus)
    return pre * up, (pre * down).conjugate()


def dynamical_phase(prob: LzProblem, t: float) -> float:
    """Large-time dynamical phase theta(t) of the adiabatic branches.

    theta(t) = s t^2/2 + (Delta^2/2s) log(2 s t/|Delta|) + Delta^2/(4 s);
    for Delta = 0 it reduces to s t^2 / 2.  Requires 2 s t > |Delta| so the
    logarithm is in its asymptotic regime.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    Delta, s = prob.Delta, prob.s
    if Delta == 0:
        return 0.5 * s * t ** 2
    arg = 2.0 * s * t / abs(Delta)
    if arg <= 1.0:
        raise ValueError(f"t too small for the asymptotic phase: 2 s t/|Delta| = {arg:.3g} <= 1")
    return 0.5 * s * t ** 2 + prob.p * math.log(arg) + 0.5 * prob.p

