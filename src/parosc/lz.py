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
products).  The exact solution, parabolic cylinder functions D_nu of pure
imaginary order nu = +-i p with p = Delta^2 / (2 s), is the oracle the tests
check them against.

The limiting amplitudes come from the large-argument expansion of that
solution.  The gamma factors separately over- or underflow near
Delta^2/s = 600 while their products stay of order one, so the amplitudes take
their modulus in closed form and their phases from ``scipy.special.loggamma``.
For p >= 50 the phase of the Gamma(z)/Gamma(z + 1/2) ratio comes from its
series in 1/p, so the small |alpha_down| is not the difference of two rounded
p log p phases.

``dynamical_phase`` is library API that no experiment runs: the paper's
large-time phase of the adiabatic branches, a closed form that the tests
check against the numeric sweep rather than an oracle for other code.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
# kept bound for bench/tracer.py, which wraps lz.solve_ivp; ROADMAP item 3 retires it
from scipy.integrate import solve_ivp  # noqa: F401
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
    states, counts, estimate = propagate_linear(a, b, y0, ts, rel_tol)
    c_plus, c_minus = states.T
    c_up, c_down = _up_down_projection(c_plus, c_minus, Delta, s, ts)
    return LzSolution(t_grid=ts, c_plus=c_plus, c_minus=c_minus, c_up=c_up, c_down=c_down,
                      steps=int(counts.sum()), error_estimate=estimate)


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

