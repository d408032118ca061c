"""Schrodinger evolution under a linearly ramped drive for adiabatic state preparation.

The drive amplitude grows as f(t) = s_tilde * t until it reaches f_final, so a
Fock state at zero drive is carried into the eigenstate with the same
(parity, rank) label; the fidelity of that mapping is the figure of merit.
``propagate_linear`` integrates every linear ramp H(t) = A + t B (this one and the
Landau-Zener sweep of ``parosc.lz``) with the fourth-order commutator-free Magnus
exponential: H splits into independent tridiagonal chains (the two parity chains
here), each step applies two exact chain exponentials from a batched ``eigh``, and
step doubling meets ``rel_tol`` as a global error target.  Mixed-parity initial
states evolve on the same path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp  # noqa: F401  kept bound: bench/tracer.py wraps ramp.solve_ivp

from .fock import ConvergenceError, FockSpace, check_state, tail_population
from .rwa import RwaSystem, h_rwa_bands, parity_eigh
from .spectrum import eigenstate_by_label


@dataclass
class RampProtocol:
    """Linear ramp f(t) = s_tilde*t up to f_final, in units of V and 1/V."""

    delta: float
    f_final: float
    s_tilde: float
    initial_state: np.ndarray
    output_times: np.ndarray | None = None

    def __post_init__(self):
        if self.s_tilde <= 0 or self.f_final <= 0:
            raise ValueError("s_tilde and f_final must be > 0")
        check_state(np.asarray(self.initial_state))

    @property
    def t_end(self) -> float:
        return self.f_final / self.s_tilde


@dataclass
class RampResult:
    times: np.ndarray
    trajectory: np.ndarray      # shape (len(times), dim)
    final_state: np.ndarray
    target_label: tuple[int, int]
    final_fidelity: float       # |<target|state>|^2, the preparation probability
    steps: int                  # CF4 steps of the accepted sweep
    error_estimate: float       # its step-doubling error estimate


def initial_label(space: FockSpace, delta: float, state: np.ndarray) -> tuple[int, int]:
    """(parity, rank) of the zero-drive eigenstate best overlapping ``state``."""
    state = np.asarray(state, dtype=complex)
    parity = 1 if float(np.sum(np.abs(state[0::2]) ** 2)) > 0.5 else -1
    idx, _, v = parity_eigh(space.dim, RwaSystem(delta=delta, f=0.0), parity)
    overlaps = np.abs(v.T @ state[idx])
    return parity, int(np.argmax(overlaps))


# matrix entries of the chain exponentials built in one batch: a block of steps
# holds a few (2 steps, m, m) arrays, so its size bounds the memory of a sweep
_BLOCK_ENTRIES = 2**14
# for H linear in t, the two Gauss-node combinations of CF4 are H at t + h/6 and t + 5h/6
_NODES = np.array([1.0 / 6.0, 5.0 / 6.0])


def _cf4_pass(a, b, psi0: np.ndarray, times: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """One CF4 sweep of ``propagate_linear`` with counts[i] equal steps in times[i:i+2]."""
    k = len(a[0]) - len(a[1])
    h = np.repeat(np.diff(times) / counts, counts)
    first = np.cumsum(counts) - counts                  # first step of each interval
    t = np.repeat(times[:-1], counts) + h * (np.arange(h.size) - np.repeat(first, counts))
    taus = (t[:, None] + h[:, None] * _NODES).ravel()  # two Hamiltonian times per step
    halves = np.repeat(0.5 * h, 2)
    at_output = np.zeros(h.size, dtype=bool)
    at_output[np.cumsum(counts) - 1] = True
    at_output = at_output.tolist()
    states = np.zeros((len(times), len(psi0)), dtype=complex)
    states[0] = psi0
    for r in range(k):
        psi, out = psi0[r::k], []
        if not np.any(psi):
            continue        # a chain without weight stays exactly 0
        (a_d, a_o), (b_d, b_o) = (a[0][r::k], a[1][r::k]), (b[0][r::k], b[1][r::k])
        m = len(psi)
        diag, off = np.arange(m), np.arange(m - 1)
        block = max(1, _BLOCK_ENTRIES // (2 * m * m))
        for s in range(0, h.size, block):
            tau = taus[2 * s:2 * s + 2 * block, None]
            mats = np.zeros((len(tau), m, m))
            mats[:, diag, diag] = a_d + tau * b_d
            mats[:, off, off + 1] = mats[:, off + 1, off] = a_o + tau * b_o
            w, v = np.linalg.eigh(mats)
            phase = np.exp(-1j * halves[2 * s:2 * s + 2 * block, None] * w)
            factors = (v * phase[:, None, :]) @ v.transpose(0, 2, 1)
            for j, u in enumerate(factors[1::2] @ factors[0::2], start=s):
                psi = u.dot(psi)
                if at_output[j]:
                    out.append(psi)
        states[1:, r::k] = out
    return states


def propagate_linear(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray],
                     psi0: np.ndarray, times: np.ndarray,
                     rel_tol: float) -> tuple[np.ndarray, int, float]:
    """States psi(t), shape (len(times), dim), for i d/dt psi = (A + t B) psi from psi0.

    A and B are real symmetric, each given as (diag, off) with one off-diagonal
    at the offset k = len(diag) - len(off) that both share, so H(t) splits into
    the k independent tridiagonal chains r::k.  Returns the states at ``times``
    (strictly ascending, psi0 at times[0]), the step count of the accepted
    sweep and its error estimate.

    Integrator: the fourth-order commutator-free Magnus exponential (Blanes &
    Moan 2006; Alvermann & Fehske 2011).  A step of size h from t is
    psi <- exp(-i h/2 H(t + 5h/6)) exp(-i h/2 H(t + h/6)) psi, with each factor
    exact: one batched ``eigh`` per block of steps diagonalises every chain,
    and a chain holding no weight in psi0 is not touched (it stays exactly 0).
    Each output interval gets ceil(dt/h) equal steps, so the state is recorded
    exactly at every output time, and the norm is kept to rounding.

    ``rel_tol`` is a global error target on the unit-norm state.  Step
    doubling over the whole trajectory, starting from one step per output
    interval, halves h until max|psi_{h/2} - psi_h|/15 <= rel_tol and returns
    psi_{h/2}.  Rounding floor: once the estimate has stopped falling at the
    fourth-order rate (less than 4x per halving) and is at most dim * eps *
    steps, the rounding that many steps can collect, it is rounding and no
    longer truncation; the sweep then stops with a RuntimeWarning, as for a
    ``rel_tol`` below what double precision can deliver.
    """
    if not rel_tol > 0:
        raise ValueError("rel_tol must be > 0")
    times = np.asarray(times, dtype=float)
    dts = np.diff(times)
    if dts.size == 0 or np.any(dts <= 0):
        raise ValueError("times must be strictly ascending with at least 2 points")
    psi0 = np.asarray(psi0, dtype=complex)
    h = dts.max()
    coarse, previous = _cf4_pass(a, b, psi0, times, np.ones(dts.size, dtype=int)), np.inf
    while True:
        h /= 2.0
        counts = np.ceil(dts / h).astype(int)
        fine = _cf4_pass(a, b, psi0, times, counts)
        steps, estimate = int(counts.sum()), float(np.max(np.abs(fine - coarse))) / 15.0
        if estimate <= rel_tol:
            return fine, steps, estimate
        if estimate > previous / 4.0 and estimate <= len(psi0) * np.finfo(float).eps * steps:
            warnings.warn(f"rel_tol = {rel_tol:.1e} is below the rounding floor of "
                          f"{steps} steps; returning at error estimate {estimate:.1e}",
                          RuntimeWarning, stacklevel=2)
            return fine, steps, estimate
        coarse, previous = fine, estimate


def evolve_ramp(space: FockSpace, protocol: RampProtocol, rel_tol: float = 1e-8) -> RampResult:
    """Integrate i d/dt phi = H(f = s_tilde*t) phi and score against the target.

    ``rel_tol`` is the global error target of ``propagate_linear``: the CF4
    sweep halves its step until the step-doubling estimate of the error on
    the unit-norm trajectory is at most ``rel_tol`` (below the rounding floor
    it stops with a RuntimeWarning); ``steps`` and ``error_estimate`` of the
    result record the accepted sweep.
    The target eigenstate is the one sharing the initial state's (parity, rank)
    label at f_final.
    """
    dim = space.dim
    label = initial_label(space, protocol.delta, protocol.initial_state)
    _, target = eigenstate_by_label(space, protocol.delta, protocol.f_final, *label)
    if tail_population(target, max(4, dim // 8)) > 1e-8:
        raise ConvergenceError("target eigenstate leans on the truncation edge; increase dim")

    # bands at unit drive: H(t) = diag + (s_tilde*t) * off2 on the |n>, |n+2> pairs
    diag, off2 = h_rwa_bands(dim, RwaSystem(delta=protocol.delta, f=1.0))
    a, b = (diag, np.zeros_like(off2)), (np.zeros_like(diag), protocol.s_tilde * off2)

    t_end = protocol.t_end
    if protocol.output_times is None:
        times = np.linspace(0.0, t_end, 201)
    else:
        times = np.asarray(protocol.output_times, dtype=float)
        if times[0] > 0:
            times = np.concatenate([[0.0], times])
        if abs(times[-1] - t_end) > 1e-12:
            times = np.concatenate([times, [t_end]])

    traj, steps, estimate = propagate_linear(a, b, protocol.initial_state, times, rel_tol)
    fidelity = float(np.abs(np.vdot(target, traj[-1])) ** 2)
    return RampResult(times=times, trajectory=traj, final_state=traj[-1],
                      target_label=label, final_fidelity=fidelity,
                      steps=steps, error_estimate=estimate)


def instantaneous_fidelity(state: np.ndarray, space: FockSpace, delta: float,
                           f: float, parity: int, rank: int) -> float:
    """|<phi_label|state>|^2 against the labeled stationary eigenstate at drive f."""
    if f < 0:
        raise ValueError("f must be >= 0")
    _, phi = eigenstate_by_label(space, delta, f, parity, rank)
    return float(np.abs(np.vdot(phi, np.asarray(state, dtype=complex))) ** 2)


def ramp_rows(space: FockSpace, protocol: RampProtocol, result: RampResult):
    """Rows (t, f(t), fidelity, <n>, <parity>) for CSV emission."""
    n_diag = np.arange(space.dim)
    par_diag = (-1.0) ** n_diag
    label = result.target_label
    for t, psi in zip(result.times, result.trajectory):
        f_t = protocol.s_tilde * t
        fid = instantaneous_fidelity(psi, space, protocol.delta, f_t, *label)
        prob = np.abs(psi) ** 2
        yield (t, f_t, fid, float(prob @ n_diag), float(prob @ par_diag))
