"""Half-line Landau-Zener problem: sweep started at t = 0 instead of t -> -infinity.

Two near-resonant same-parity levels mixed by a linearly growing drive reduce
to the two-level Hamiltonian

    H(t) = [[nu(t), Delta], [Delta, -nu(t)]],   nu(t) = s * t,

in the basis C_+/- of the symmetric/antisymmetric combinations, with the sweep
beginning at t = 0 from C_+(0) = C_-(0) = 1/sqrt(2) (lower bare state occupied).
Because the sweep starts at finite time, the nonadiabatic transition
probability falls off as a power law (Delta^2/s)^{-2} rather than the
exponential of the standard problem.

Trajectories, ``parosc run lz`` included, come from ``parosc.ramp.propagate_linear``;
the exact solution below is the oracle the tests check them against.

Exact solution: each C satisfies a Weber equation in z = sqrt(2s) e^{+-i pi/4} t,
solved by parabolic cylinder functions D_nu with pure imaginary order
nu = +-i p, p = Delta^2 / (2 s).  Along those 45-degree rays both fundamental
solutions are oscillatory (|exp(+-z^2/4)| = 1), so evaluating D_nu by
integrating its defining ODE (complex state, DOP853) outward from z = 0 is well
conditioned.  The limiting amplitudes are evaluated in log space
(``scipy.special.loggamma``): the gamma factors separately over- or underflow
near Delta^2/s = 600 while their products stay of order one.  For the same
reason the ODE integrates D_nu(z)/D_nu(0), started from the log-derivative
D'_nu(0)/D_nu(0): D_nu(0) itself holds 1/Gamma((1 - nu)/2) ~ exp(pi p/4) and
overflows near Delta^2/s = 1800.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import gamma, loggamma

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


def complex_gamma(z: complex) -> complex:
    """Gamma(z) for complex z (scipy.special.gamma); non-positive integers are poles and raise."""
    z = complex(z)
    if z.imag == 0 and z.real <= 0 and z.real == int(z.real):
        raise ValueError(f"gamma pole at z = {z}")
    return complex(gamma(z))


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
    """Integrate the two-level Schrodinger equation from C_+(0) = C_-(0) = 1/sqrt(2)."""
    if t_max <= 0:
        raise ValueError("t_max must be > 0")
    Delta, s = prob.Delta, prob.s
    ts = np.linspace(0.0, t_max, n_out)
    # H(t) = [[0, Delta], [Delta, 0]] + t diag(s, -s)
    a = (np.zeros(2), np.array([Delta]))
    b = (np.array([s, -s]), np.zeros(1))
    y0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    c_plus, c_minus = propagate_linear(a, b, y0, ts, rel_tol).T
    c_up, c_down = _up_down_projection(c_plus, c_minus, Delta, s, ts)
    return LzSolution(t_grid=ts, c_plus=c_plus, c_minus=c_minus,
                      c_up=c_up, c_down=c_down)


# ---------------------------------------------------------------------------
# exact solution via parabolic cylinder functions

def _pcf_slope(nu: complex) -> complex:
    """r(nu) = D'_nu(0) / D_nu(0) = -sqrt(2) Gamma((1 - nu)/2) / Gamma(-nu/2).

    Formed from log-gamma: D_nu(0) alone holds 1/Gamma((1 - nu)/2), which
    overflows for large |Im nu| while the ratio stays of order sqrt(|nu|).
    """
    return -math.sqrt(2.0) * cmath.exp(loggamma((1.0 - nu) / 2.0) - loggamma(-nu / 2.0))


def parabolic_cylinder_on_ray(nu: complex, k: complex, t_grid: np.ndarray,
                              rel_tol: float = 1e-12) -> np.ndarray:
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
                    method="DOP853", rtol=rel_tol, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"parabolic cylinder integration failed: {sol.message}")
    return sol.y[0]


def weber_solution(prob: LzProblem, t_grid: np.ndarray) -> LzSolution:
    """Exact C_+-(t) as combinations of parabolic cylinder functions.

    C_+- = A_+- D_{+-ip-1}(-+ i z_+-) + B_+- D_{-+ip}(z_+-) with
    z_+- = sqrt(2s) e^{+-i pi/4} t; A, B fixed by C_+-(0) = 1/sqrt(2) and
    i C'_+-(0) = Delta C_-+(0).  Warns if the evaluation loses more than six
    digits of the conserved norm.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0):
        raise ValueError("t_grid must be >= 0")
    Delta, s = prob.Delta, prob.s
    p = prob.p
    if p == 0:
        # Delta = 0: the +- states are exact eigenstates at all times
        phase = np.exp(-1j * s * t_grid ** 2 / 2.0)
        c_plus = phase / math.sqrt(2.0)
        c_minus = np.conj(phase) / math.sqrt(2.0)
        c_up, c_down = _up_down_projection(c_plus, c_minus, Delta, s, t_grid)
        return LzSolution(t_grid=t_grid, c_plus=c_plus, c_minus=c_minus,
                          c_up=c_up, c_down=c_down)

    c = math.sqrt(2.0 * s)
    k_pos = c * cmath.exp(1j * math.pi / 4.0)
    k_neg = c * cmath.exp(-1j * math.pi / 4.0)
    components = {}
    for sign in (+1, -1):
        nu1 = sign * 1j * p - 1.0          # order of D(.) with argument -+ i z_+-
        nu2 = -sign * 1j * p               # order of D(z_+-)
        k1 = k_neg if sign > 0 else k_pos
        k2 = k_pos if sign > 0 else k_neg
        # coefficients of the normalised solutions D(k t)/D(0)
        m = np.array([[1.0, 1.0], [k1 * _pcf_slope(nu1), k2 * _pcf_slope(nu2)]])
        rhs = np.array([1.0 / math.sqrt(2.0), -1j * Delta / math.sqrt(2.0)])
        a_coef, b_coef = np.linalg.solve(m, rhs)
        g1 = parabolic_cylinder_on_ray(nu1, k1, t_grid)
        g2 = parabolic_cylinder_on_ray(nu2, k2, t_grid)
        components[sign] = a_coef * g1 + b_coef * g2

    c_plus, c_minus = components[+1], components[-1]
    norm_drift = np.max(np.abs(np.abs(c_plus) ** 2 + np.abs(c_minus) ** 2 - 1.0))
    if norm_drift > 1e-6:
        warnings.warn(
            f"parabolic cylinder evaluation lost accuracy: norm drift {norm_drift:.2e}",
            RuntimeWarning, stacklevel=2,
        )
    c_up, c_down = _up_down_projection(c_plus, c_minus, Delta, s, t_grid)
    au, ad = lz_asymptotic_alphas(prob)
    return LzSolution(t_grid=t_grid, c_plus=c_plus, c_minus=c_minus,
                      c_up=c_up, c_down=c_down, alpha_up=au, alpha_down=ad)


def lz_asymptotic_alphas(prob: LzProblem) -> tuple[complex, complex]:
    """Limiting amplitudes alpha_up/down of the adiabatic-branch projections.

    Obtained from the large-argument expansion of the parabolic cylinder
    solution; |alpha_up|^2 + |alpha_down|^2 = 1.  In the adiabatic limit
    alpha_up ~ 1 - (i/12)(s/Delta^2) and alpha_down ~ -(i/4)(s/Delta^2), so the
    transition probability decays as (Delta^2/s)^{-2}.  At Delta = 0 both
    magnitudes are 1/sqrt(2) (equal superposition persists forever).
    """
    p = prob.p
    if p == 0:
        r = 1.0 / math.sqrt(2.0)
        return complex(r), complex(r)
    sgn = 1.0 if prob.Delta > 0 else -1.0
    # log of lam_plus = (2p/e)^(-ip/2) (e^{3 pi p/4} - e^{-5 pi p/4}) sqrt(p) Gamma(ip)
    # / (4 sqrt(2) pi): each factor alone over- or underflows near p = 300
    log_lam = (-0.5j * p * (math.log(2.0 * p) - 1.0) + 0.75 * math.pi * p
               + math.log1p(-math.exp(-2.0 * math.pi * p)) + 0.5 * math.log(p)
               + loggamma(1j * p) - math.log(4.0 * math.sqrt(2.0) * math.pi))
    # Gamma((1 -+ ip)/2) factored out of each bracket, Gamma(-+ip/2) enters as a ratio
    lg_up, lg_down = loggamma((1.0 - 1j * p) / 2.0), loggamma((1.0 + 1j * p) / 2.0)
    alpha_up = cmath.exp(log_lam + lg_up) * (
        math.sqrt(p) * cmath.exp(loggamma(-0.5j * p) - lg_up) + sgn * (1.0 + 1j))
    alpha_down = cmath.exp(log_lam.conjugate() + lg_down) * (
        math.sqrt(p) * cmath.exp(loggamma(0.5j * p) - lg_down) + sgn * (-1.0 + 1j))
    return complex(alpha_up), complex(alpha_down)


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


def lz_rows(sol: LzSolution):
    """Rows (t, |C_up|^2, |C_down|^2, Re C+, Im C+, Re C-, Im C-) for CSV emission."""
    for i, t in enumerate(sol.t_grid):
        yield (t, abs(sol.c_up[i]) ** 2, abs(sol.c_down[i]) ** 2,
               sol.c_plus[i].real, sol.c_plus[i].imag,
               sol.c_minus[i].real, sol.c_minus[i].imag)
