"""Schrodinger evolution under a linearly ramped drive for adiabatic state preparation.

The drive amplitude grows as f(t) = s_tilde * t until it reaches f_final, so a
Fock state at zero drive is carried into the eigenstate with the same
(parity, rank) label; the fidelity of that mapping is the figure of merit.
The state is integrated as a complex vector over the whole Fock space, with
H(t) applied through its two bands (diagonal and second off-diagonal) in O(dim)
per step, so mixed-parity initial states evolve on the same path.
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


def evolve_ramp(space: FockSpace, protocol: RampProtocol, rel_tol: float = 1e-8) -> RampResult:
    """Integrate i d/dt phi = H(f = s_tilde*t) phi and score against the target.

    Uses an adaptive high-order explicit scheme with embedded error control;
    ``rel_tol`` is the local relative error target.  The target eigenstate is
    the one sharing the initial state's (parity, rank) label at f_final.
    """
    dim = space.dim
    label = initial_label(space, protocol.delta, protocol.initial_state)
    _, target = eigenstate_by_label(space, protocol.delta, protocol.f_final, *label)
    if tail_population(target, max(4, dim // 8)) > 1e-8:
        raise ConvergenceError("target eigenstate leans on the truncation edge; increase dim")

    # bands at unit drive: H(t) = diag + (s_tilde*t) * off2 on the |n>, |n+2> pairs
    diag, off2 = h_rwa_bands(dim, RwaSystem(delta=protocol.delta, f=1.0))
    s = protocol.s_tilde

    def rhs(t, psi):
        h_psi = diag * psi
        drive = (s * t) * off2
        h_psi[2:] += drive * psi[:-2]
        h_psi[:-2] += drive * psi[2:]
        return -1j * h_psi

    t_end = protocol.t_end
    if protocol.output_times is None:
        times = np.linspace(0.0, t_end, 201)
    else:
        times = np.asarray(protocol.output_times, dtype=float)
        if times[0] > 0:
            times = np.concatenate([[0.0], times])
        if abs(times[-1] - t_end) > 1e-12:
            times = np.concatenate([times, [t_end]])

    psi0 = np.asarray(protocol.initial_state, dtype=complex)
    sol = solve_ivp(rhs, (0.0, t_end), psi0, t_eval=times, method="DOP853",
                    rtol=rel_tol, atol=rel_tol * 1e-2)
    if not sol.success:
        raise RuntimeError(f"ramp integration failed: {sol.message}")
    traj = sol.y.T
    final = traj[-1]
    fidelity = float(np.abs(np.vdot(target, final)) ** 2)
    return RampResult(times=times, trajectory=traj, final_state=final,
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
