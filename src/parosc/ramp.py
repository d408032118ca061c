"""Schrodinger evolution under a linearly ramped drive for adiabatic state preparation.

The drive amplitude grows as f(t) = s_tilde * t until it reaches f_final, so a
Fock state at zero drive is carried into the eigenstate with the same
(parity, rank) label; the fidelity of that mapping, the squared overlap with
``spectrum.eigenstate_by_label``, is the figure of merit.  ``evolve_ramp``
holds the target to ``fock.check_edge``.
``propagate_linear`` integrates every linear ramp H(t) = A + t B (this one and the
Landau-Zener sweep of ``parosc.lz``) with the fourth-order commutator-free Magnus
exponential: H splits into independent tridiagonal chains (the two parity chains
here), each step applies two exact chain exponentials, and step doubling meets
``rel_tol`` as a global error target; given the step counts a sweep accepted, one
pass on that schedule replaces the search.  Mixed-parity initial states evolve on the
same path.  The kernel goes by chain length: chains of two states (the
Landau-Zener sweep) build their exponentials from the Rabi formula as
whole-array expressions and apply a block of steps through its prefix products,
formed by a scan; longer chains take theirs from a batched ``eigh`` and apply
them one step at a time.  The exponentials do not depend on the state, so a
thread pool computes them block by block ahead of the calling thread, which
applies them in order; the states are bitwise those of one thread.  It runs
where batched ``eigh`` is serial: on two or more cores, for sweeps of two or
more blocks whose longest chain holding weight has 3 to _SMLSIZ states.
Longer chains get their parallelism from the threaded BLAS inside ``eigh``.
"""

from __future__ import annotations

import os
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass

import numpy as np
# kept bound for bench/tracer.py, which wraps ramp.solve_ivp; ROADMAP item 3 retires it
from scipy.integrate import solve_ivp  # noqa: F401

from .fock import FockSpace, check_edge, check_state
from .rwa import RwaSystem, h_rwa_bands, zero_drive_levels
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
        if self.output_times is not None:
            times = np.asarray(self.output_times, dtype=float)
            if not (times.ndim == 1 and times.size and times[0] >= 0.0
                    and np.all(np.diff(times) > 0.0) and times[-1] <= self.t_end + 1e-12):
                raise ValueError(f"output_times must ascend strictly within "
                                 f"[0, t_end = {self.t_end:.6g}]")

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
    counts: np.ndarray          # CF4 steps in each interval times[i:i+2] of the sweep
    error_estimate: float | None    # its step-doubling error estimate; None at given counts

    @property
    def steps(self) -> int:
        """CF4 steps of the sweep."""
        return int(self.counts.sum())


def initial_label(space: FockSpace, delta: float, state: np.ndarray) -> tuple[int, int]:
    """(parity, rank) of the zero-drive eigenstate best overlapping ``state``.

    Those are Fock states: the largest amplitude of the parity's levels in rank order.
    """
    state = np.asarray(state, dtype=complex)
    p = 0 if float(np.sum(np.abs(state[0::2]) ** 2)) > 0.5 else 1
    order = np.argsort(zero_drive_levels(delta, space.dim - 1)[p::2], kind="stable")
    return (-1) ** p, int(np.argmax(np.abs(state[p::2][order])))


# matrix entries of the chain exponentials built in one batch: a block of steps
# holds a few (2 steps, m, m) arrays, so its size bounds the memory of a sweep
_BLOCK_ENTRIES = 2**14
# blocks computed ahead of the one being applied, so at most this many are held
_IN_FLIGHT = 4
# LAPACK's SMLSIZ: dsyevd's dstedc solves a tridiagonal matrix of at most this
# order with dsteqr, which runs no threaded BLAS; above it, divide and conquer does
_SMLSIZ = 25
# for H linear in t, the two Gauss-node combinations of CF4 are H at t + h/6 and t + 5h/6
_NODES = np.array([1.0 / 6.0, 5.0 / 6.0])


def _cores() -> int:
    """Cores this process may run on (every core where the platform has no affinity call)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _block_steps(a, b, taus: np.ndarray, halves: np.ndarray) -> np.ndarray:
    """The one-step propagators U_j = exp(-i h_j/2 H(taus[2j+1])) exp(-i h_j/2 H(taus[2j])).

    a and b are the (diag, off) bands of one tridiagonal chain, and halves
    holds h_j/2 twice per step; the result has shape (steps, m, m).  A chain
    of two states takes its factors from the Rabi formula and multiplies them
    entry by entry; a longer one diagonalises every H(tau) in one batched
    ``eigh`` and builds each factor V exp(-i h/2 w) V^T in real arithmetic:
    two real products, V cos(h/2 w) V^T and -V sin(h/2 w) V^T, fill the real
    and imaginary parts of one complex array.  One complex product would add
    only products with zero to these, at twice the multiplications and with
    a complex copy of V^T.  NumPy only, on arrays it only reads, so it runs on
    a worker thread.
    """
    (a_d, a_o), (b_d, b_o) = a, b
    m = len(a_d)
    if m == 2:
        # Rabi formula: exp(-i th H) = exp(-i th mu) [cos(th r) - i th sinc(th r) (d sz + q sx)]
        # with mu, d the mean and half-difference of the diagonal, q the coupling
        # and r = hypot(d, q); np.sinc, sin(pi x)/(pi x), is 1 at r = 0
        top, bottom, q = a_d[0] + taus * b_d[0], a_d[1] + taus * b_d[1], a_o[0] + taus * b_o[0]
        mu, d = 0.5 * (top + bottom), 0.5 * (top - bottom)
        theta_r = halves * np.hypot(d, q)
        phase = np.exp(-1j * halves * mu)
        cos, sin = phase * np.cos(theta_r), -1j * phase * halves * np.sinc(theta_r / np.pi)
        factors = np.empty((len(taus), 2, 2), dtype=complex)
        factors[:, 0, 0], factors[:, 1, 1] = cos + sin * d, cos - sin * d
        factors[:, 0, 1] = factors[:, 1, 0] = sin * q
        return _product2(factors[1::2], factors[0::2])
    diag, off = np.arange(m), np.arange(m - 1)
    tau = taus[:, None]
    mats = np.zeros((len(tau), m, m))
    mats[:, diag, diag] = a_d + tau * b_d
    mats[:, off, off + 1] = mats[:, off + 1, off] = a_o + tau * b_o
    w, v = np.linalg.eigh(mats)
    phase = np.exp(-1j * halves[:, None] * w)
    factors, vt = np.empty(v.shape, dtype=complex), v.transpose(0, 2, 1)
    factors.real = (v * phase.real[:, None, :]) @ vt
    factors.imag = (v * phase.imag[:, None, :]) @ vt
    return factors[1::2] @ factors[0::2]


def _product2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for stacks of 2 x 2 matrices, entry by entry."""
    out = np.empty(x.shape, dtype=complex)
    for i in range(2):
        for j in range(2):
            out[:, i, j] = x[:, i, 0] * y[:, 0, j] + x[:, i, 1] * y[:, 1, j]
    return out


def _prefix_products(steps: np.ndarray) -> np.ndarray:
    """P_j = U_j ... U_1 U_0 for a stack of 2 x 2 step propagators U_j.

    A Hillis-Steele scan (Hillis & Steele, CACM 29, 1170 (1986)): after the
    pass at shift s, P_j holds the product of the 2s steps up to j.
    """
    prefix, shift = steps, 1
    while shift < len(prefix):
        prefix = np.concatenate([prefix[:shift], _product2(prefix[shift:], prefix[:-shift])])
        shift *= 2
    return prefix


def _computed_ahead(jobs: list[tuple], pooled: bool):
    """Yield _block_steps(*job) for each job in order.

    If pooled, a pool of one thread per core computes up to _IN_FLIGHT blocks
    ahead of the one the caller is applying; the pool's threads end before the
    last block is yielded, or when the caller closes the generator.  Otherwise
    each block is computed on the calling thread when it is asked for.  Only
    passes whose batched ``eigh`` is serial (3 to _SMLSIZ states) pool: above
    that, eigh's threaded BLAS already holds the cores the workers would use.
    """
    if not pooled:
        for job in jobs:
            yield _block_steps(*job)
        return
    with ThreadPoolExecutor(_cores()) as pool:
        pending = deque()
        for job in jobs:
            pending.append(pool.submit(_block_steps, *job))
            if len(pending) == _IN_FLIGHT:
                yield pending.popleft().result()
        blocks = [future.result() for future in pending]
    yield from blocks


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
    flags = at_output.tolist()
    states = np.zeros((len(times), len(psi0)), dtype=complex)
    states[0] = psi0
    chains = [r for r in range(k) if np.any(psi0[r::k])]   # a chain without weight stays 0
    starts, jobs = {}, []
    for r in chains:
        chain_a, chain_b = (a[0][r::k], a[1][r::k]), (b[0][r::k], b[1][r::k])
        block = max(1, _BLOCK_ENTRIES // (2 * len(chain_a[0]) ** 2))
        starts[r] = range(0, h.size, block)
        jobs += [(chain_a, chain_b, taus[2 * s:2 * s + 2 * block], halves[2 * s:2 * s + 2 * block])
                 for s in starts[r]]
    # the pool pays with two cores, two blocks and a serial eigh (two-state chains have none)
    pooled = _cores() > 1 and len(jobs) > 1 and 3 <= max(len(psi0[r::k]) for r in chains) <= _SMLSIZ
    with closing(_computed_ahead(jobs, pooled)) as blocks:   # no pool outlives the pass
        for r in chains:
            psi, out = psi0[r::k], []
            if len(psi) == 2:   # a block's states are its prefix products times psi
                for s in starts[r]:
                    prefix = _prefix_products(next(blocks))
                    out.append(prefix[at_output[s:s + len(prefix)]] @ psi)
                    psi = prefix[-1] @ psi
                states[1:, r::k] = np.concatenate(out)
                continue
            for s in starts[r]:
                for j, u in enumerate(next(blocks), start=s):
                    psi = u.dot(psi)
                    if flags[j]:
                        out.append(psi)
            states[1:, r::k] = out
    return states


def propagate_linear(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray],
                     psi0: np.ndarray, times: np.ndarray, rel_tol: float,
                     counts: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray, float | None]:
    """States psi(t), shape (len(times), dim), for i d/dt psi = (A + t B) psi from psi0.

    A and B are real symmetric, each given as (diag, off) with one off-diagonal
    at the offset k = len(diag) - len(off) that both share, so H(t) splits into
    the k independent tridiagonal chains r::k.  Returns the states at ``times``
    (strictly ascending, psi0 at times[0]), the accepted sweep's step counts,
    counts[i] equal steps in times[i:i+2], and its error estimate.

    Integrator: the fourth-order commutator-free Magnus exponential (Blanes &
    Moan 2006; Alvermann & Fehske 2011).  A step of size h from t is
    psi <- exp(-i h/2 H(t + 5h/6)) exp(-i h/2 H(t + h/6)) psi, with each factor
    exact, and a chain holding no weight in psi0 is not touched (it stays
    exactly 0).  A chain of two states gets its factors from the Rabi formula
    and takes a block of steps at once: a scan forms the block's prefix
    products, and one batched product reads its output states.  A longer
    chain gets them from one batched ``eigh`` per block of steps and applies
    them one step at a time.
    When a sweep has two or more blocks, two usable cores and a longest
    weighted chain of 3 to _SMLSIZ states, whose batched ``eigh`` is serial,
    a pool of one thread per core computes the blocks' propagators, at most
    _IN_FLIGHT blocks ahead, and this thread applies them in order; the pool
    ends with the sweep, also when it raises.
    Each output interval gets ceil(dt/h) equal steps, so the state is recorded
    exactly at every output time, and the norm is kept to rounding.

    Given ``counts`` (len(times) - 1 positive integers, such as the counts
    an earlier sweep accepted), the schedule is fixed: one pass at those
    counts, no search, and the estimate is None.  On the counts a search
    accepted, the pass is bitwise the search's sweep; the dim+10 truncation
    probes run so, and measure truncation alone.

    Non-finite psi0, A or B, a non-finite error estimate or non-finite
    states at given counts raise ValueError.
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
    if dts.size == 0 or not np.all(dts > 0):
        raise ValueError("times must be strictly ascending with at least 2 points")
    psi0 = np.asarray(psi0, dtype=complex)
    if not all(np.all(np.isfinite(x)) for x in (psi0, *a, *b)):
        raise ValueError("psi0, A and B must be finite")
    if counts is not None:
        counts = np.asarray(counts)
        if (counts.shape != dts.shape or not np.issubdtype(counts.dtype, np.integer)
                or not np.all(counts > 0)):
            raise ValueError(f"counts must be {dts.size} positive integers, one per interval")
        states = _cf4_pass(a, b, psi0, times, counts)
        if not np.all(np.isfinite(states)):
            raise ValueError(f"CF4 states are not finite at {int(counts.sum())} steps")
        return states, counts, None
    h = dts.max()
    coarse, previous = _cf4_pass(a, b, psi0, times, np.ones(dts.size, dtype=int)), np.inf
    while True:
        h /= 2.0
        counts = np.ceil(dts / h).astype(int)
        fine = _cf4_pass(a, b, psi0, times, counts)
        steps, estimate = int(counts.sum()), float(np.max(np.abs(fine - coarse))) / 15.0
        if not np.isfinite(estimate):
            raise ValueError(f"CF4 error estimate is {estimate} at {steps} steps")
        if estimate <= rel_tol:
            return fine, counts, estimate
        if estimate > previous / 4.0 and estimate <= len(psi0) * np.finfo(float).eps * steps:
            warnings.warn(f"rel_tol = {rel_tol:.1e} is below the rounding floor of "
                          f"{steps} steps; returning at error estimate {estimate:.1e}",
                          RuntimeWarning, stacklevel=2)
            return fine, counts, estimate
        coarse, previous = fine, estimate


def evolve_ramp(space: FockSpace, protocol: RampProtocol, rel_tol: float = 1e-8,
                counts: np.ndarray | None = None) -> RampResult:
    """Integrate i d/dt phi = H(f = s_tilde*t) phi and score against the target.

    ``rel_tol`` is the global error target of ``propagate_linear``: the CF4
    sweep halves its step until the step-doubling estimate of the error on
    the unit-norm trajectory is at most ``rel_tol`` (below the rounding floor
    it stops with a RuntimeWarning); ``counts`` and ``error_estimate`` of the
    result record the accepted sweep.
    Given ``counts``, the step counts of an earlier result on the same output
    times (another truncation of the same ramp), the sweep is one CF4 pass on
    that schedule, with no search and no estimate; the checks of finite input
    and states and of the target's truncation edge still hold.
    The target eigenstate is the one sharing the initial state's (parity, rank)
    label at f_final.
    """
    dim = space.dim
    label = initial_label(space, protocol.delta, protocol.initial_state)
    _, target = eigenstate_by_label(space, protocol.delta, protocol.f_final, *label)
    check_edge(np.arange(dim), target[:, None], dim, [label[1]])

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

    traj, counts, estimate = propagate_linear(a, b, protocol.initial_state, times, rel_tol,
                                              counts)
    fidelity = float(np.abs(np.vdot(target, traj[-1])) ** 2)
    return RampResult(times=times, trajectory=traj, final_state=traj[-1],
                      target_label=label, final_fidelity=fidelity,
                      counts=counts, error_estimate=estimate)
