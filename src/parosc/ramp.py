"""Schrodinger evolution under a linearly ramped drive for adiabatic state preparation.

The drive amplitude grows as f(t) = s_tilde * t until it reaches f_final, so a
Fock state at zero drive is carried into the eigenstate with the same
(parity, rank) label; the fidelity of that mapping is the figure of merit.
``propagate_linear`` integrates every linear ramp H(t) = A + t B (this one and the
Landau-Zener sweep of ``parosc.lz``) as a complex vector, applying H(t) through its
bands in O(dim) per step, so mixed-parity initial states evolve on the same path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

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


def initial_label(space: FockSpace, delta: float, state: np.ndarray) -> tuple[int, int]:
    """(parity, rank) of the zero-drive eigenstate best overlapping ``state``."""
    state = np.asarray(state, dtype=complex)
    parity = 1 if float(np.sum(np.abs(state[0::2]) ** 2)) > 0.5 else -1
    idx, _, v = parity_eigh(space.dim, RwaSystem(delta=delta, f=0.0), parity)
    overlaps = np.abs(v.T @ state[idx])
    return parity, int(np.argmax(overlaps))


def propagate_linear(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray],
                     psi0: np.ndarray, times: np.ndarray, rel_tol: float) -> np.ndarray:
    """States psi(t), shape (len(times), dim), for i d/dt psi = (A + t B) psi from psi0.

    A and B are real symmetric, each given as (diag, off) with one off-diagonal
    at the offset k = len(diag) - len(off) that both share.  ``rel_tol`` is a
    global relative error target: DOP853 controls the local error, so it runs
    at rtol = rel_tol/20 and atol = rel_tol*1e-3.
    """
    n, k = len(a[0]), len(a[0]) - len(a[1])
    j = np.arange(n)
    idx = np.stack([j, np.maximum(j - k, 0), np.minimum(j + k, n - 1)])
    m_a, m_b = (-1j * np.stack([d, np.pad(o, (k, 0)), np.pad(o, (0, k))]) for d, o in (a, b))

    def rhs(t, psi):
        # -i H(t) psi from the (diag, lower, upper) rows of -i (A + t B); padding is 0
        return ((m_a + t * m_b) * psi[idx]).sum(axis=0)

    sol = solve_ivp(rhs, (times[0], times[-1]), np.asarray(psi0, dtype=complex),
                    t_eval=times, method="DOP853", rtol=rel_tol / 20.0, atol=rel_tol * 1e-3)
    if not sol.success:
        raise RuntimeError(f"linear-ramp integration failed: {sol.message}")
    return sol.y.T


def evolve_ramp(space: FockSpace, protocol: RampProtocol, rel_tol: float = 1e-8) -> RampResult:
    """Integrate i d/dt phi = H(f = s_tilde*t) phi and score against the target.

    ``rel_tol`` is the global relative error target of ``propagate_linear``.
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

    traj = propagate_linear(a, b, protocol.initial_state, times, rel_tol)
    fidelity = float(np.abs(np.vdot(target, traj[-1])) ** 2)
    return RampResult(times=times, trajectory=traj, final_state=traj[-1],
                      target_label=label, final_fidelity=fidelity)


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
