import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import parosc
from helpers import initial_label_by_eigensolve, record_parity_eigh, same_parity_gap
from parosc import ramp
from parosc.fock import FockSpace
from parosc.ramp import (
    RampProtocol,
    _cf4_pass,
    evolve_ramp,
    initial_label,
    propagate_linear,
)
from parosc.spectrum import eigenstate_by_label, spectrum_vs_drive


def make_protocol(space, delta, f_final, s_tilde, **kw):
    return RampProtocol(delta=delta, f_final=f_final, s_tilde=s_tilde,
                        initial_state=space.vacuum(), **kw)


def test_protocol_validation():
    sp = FockSpace(10)
    with pytest.raises(ValueError):
        RampProtocol(delta=0.0, f_final=1.0, s_tilde=0.0, initial_state=sp.vacuum())
    with pytest.raises(ValueError):
        RampProtocol(delta=0.0, f_final=1.0, s_tilde=1.0,
                     initial_state=2.0 * sp.vacuum())
    p = make_protocol(sp, 0.0, 2.0, 0.5)
    assert p.t_end == pytest.approx(4.0)


@pytest.mark.parametrize("times", [[-1.0, 0.0, 0.2],      # would start under a negative drive
                                   [0.0, 0.2, 0.1],       # unsorted
                                   [0.0, 0.2, 0.2],       # repeated
                                   [0.0, 2.0, 4.5],       # past t_end = 4
                                   []])
def test_output_times_checked_against_the_ramp(times):
    with pytest.raises(ValueError, match="output_times"):
        make_protocol(FockSpace(10), 0.0, 2.0, 0.5, output_times=np.array(times))


def test_initial_label():
    sp = FockSpace(20)
    assert initial_label(sp, 0.0, sp.vacuum()) == (1, 0)
    assert initial_label(sp, 1.8, sp.vacuum()) == (1, 1)
    assert initial_label(sp, 1.8, sp.basis_state(1)) == (-1, 0)


def test_evolve_ramp_solves_only_the_target_chain(monkeypatch):
    # the initial label comes from the zero-drive levels, not from an f = 0 eigensolve
    solves = record_parity_eigh(monkeypatch)
    sp = FockSpace(16)
    evolve_ramp(sp, make_protocol(sp, 1.8, 0.5, 0.5))
    assert solves == [(0.5, 1)]


@st.composite
def labelled_states(draw):
    """(dim, delta, state): a Fock state, an equal-weight pair (|n> + c|n+2>)/sqrt 2 or a
    random state; delta on the half-integer grid, where same-parity zero-drive
    levels tie, or anywhere in [-5, 45]."""
    dim = draw(st.integers(2, 40))
    if draw(st.booleans()):
        delta = draw(st.integers(-10, 90)) / 2.0
    else:
        delta = draw(st.floats(-5.0, 45.0, allow_nan=False))
    kind = draw(st.sampled_from(["fock", "pair", "random"]))
    state = np.zeros(dim, dtype=complex)
    if kind == "fock":
        state[draw(st.integers(0, dim - 1))] = 1.0
    elif kind == "pair" and dim > 2:
        n = draw(st.integers(0, dim - 3))
        state[n], state[n + 2] = 1.0, draw(st.sampled_from([1.0, -1.0, 1j]))   # C+, C- and more
        state /= np.linalg.norm(state)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state /= np.linalg.norm(state)
    return dim, delta, state


@settings(max_examples=400, derandomize=True, deadline=None)
@given(labelled_states())
@example((6, 1.5, np.array([1, 0, 1, 0, 0, 0]) / np.sqrt(2.0)))   # C+ at a tie of |0> and |2>
@example((12, 3.0, np.array([1, 0, 1] + [0] * 9) / np.sqrt(2.0)))   # |2> lies below |0>
def test_initial_label_equals_the_zero_drive_eigensolve(case):
    dim, delta, state = case
    space = FockSpace(dim)
    assert initial_label(space, delta, state) == initial_label_by_eigensolve(space, delta, state)


def test_adiabatic_limit_fidelity_one():
    sp = FockSpace(24)
    result = evolve_ramp(sp, make_protocol(sp, 0.0, 0.5, 0.005), rel_tol=1e-9)
    assert result.final_fidelity > 1.0 - 1e-3


def test_norm_and_parity_conservation():
    sp = FockSpace(40)
    rel_tol = 1e-9
    result = evolve_ramp(sp, make_protocol(sp, 1.8, 2.0, 0.1), rel_tol=rel_tol)
    norms = np.linalg.norm(result.trajectory, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 10 * rel_tol
    odd_mass = np.sum(np.abs(result.trajectory[:, 1::2]) ** 2, axis=1)
    assert np.max(odd_mass) < 1e-10


def test_mixed_parity_state_evolves_both_sectors():
    # the banded right-hand side acts on the whole Fock space: a superposition
    # of |0> and |1> keeps half its weight in each parity and evolves as the
    # sum of its separately evolved even and odd parts
    sp = FockSpace(30)
    times = np.linspace(0.0, 10.0, 21)

    def run(state):
        protocol = RampProtocol(delta=1.8, f_final=1.0, s_tilde=0.1,
                                initial_state=state, output_times=times)
        return evolve_ramp(sp, protocol, rel_tol=1e-10).trajectory

    mixed = run((sp.basis_state(0) + sp.basis_state(1)) / np.sqrt(2.0))
    even_weight = np.sum(np.abs(mixed[:, 0::2]) ** 2, axis=1)
    odd_weight = np.sum(np.abs(mixed[:, 1::2]) ** 2, axis=1)
    assert np.max(np.abs(even_weight - 0.5)) < 1e-9
    assert np.max(np.abs(odd_weight - 0.5)) < 1e-9
    parts = (run(sp.basis_state(0)) + run(sp.basis_state(1))) / np.sqrt(2.0)
    assert np.max(np.abs(mixed - parts)) < 1e-7


def test_integrator_convergence_in_rel_tol():
    sp = FockSpace(30)
    f1 = evolve_ramp(sp, make_protocol(sp, 0.0, 2.0, 0.5), rel_tol=1e-8).final_fidelity
    f2 = evolve_ramp(sp, make_protocol(sp, 0.0, 2.0, 0.5), rel_tol=5e-9).final_fidelity
    assert abs(f1 - f2) < 1e-4


def test_midramp_fidelity_dips_then_plateaus():
    # the delta=1.8 preparation passes near an avoided crossing: the tracked
    # fidelity leaves 1, dips, then settles at its final plateau
    sp = FockSpace(40)
    protocol = make_protocol(sp, 1.8, 3.0, 0.06,
                             output_times=np.linspace(0.0, 50.0, 26))
    result = evolve_ramp(sp, protocol, rel_tol=1e-8)
    fids = np.array([
        np.abs(np.vdot(eigenstate_by_label(sp, 1.8, 0.06 * t, *result.target_label)[1], psi)) ** 2
        for t, psi in zip(result.times, result.trajectory)
    ])
    assert fids[0] == pytest.approx(1.0, abs=1e-9)
    assert fids.min() < result.final_fidelity - 0.002   # a real dip happened
    # plateau: fidelity stops moving in the second half of the ramp
    second_half = fids[len(fids) // 2:]
    assert np.max(np.abs(second_half - result.final_fidelity)) < 0.01


def test_fig4a_preparation_probability():
    sp = FockSpace(40)
    result = evolve_ramp(sp, make_protocol(sp, 0.0, 5.0, 1.0), rel_tol=1e-9)
    assert result.target_label == (1, 0)
    assert result.final_fidelity == pytest.approx(0.997, abs=0.005)


# ---------------------------------------------------------------------------
# the CF4 stepper behind every linear ramp, against an independent oracle

def dense_h(a, b, t):
    """H(t) = A + t B as a dense matrix from the (diag, off) bands at offset k."""
    k = len(a[0]) - len(a[1])
    diag, off = a[0] + t * b[0], a[1] + t * b[1]
    return np.diag(diag) + np.diag(off, k) + np.diag(off, -k)


def oracle(a, b, psi0, times):
    sol = solve_ivp(lambda t, y: -1j * (dense_h(a, b, t) @ y), (times[0], times[-1]),
                    np.asarray(psi0, dtype=complex), t_eval=times, method="DOP853",
                    rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol.y.T


def linear_ramp(n, k, seed, empty, n_times):
    """Random bands of n states at offset k, a unit psi0 (chain empty::k left 0) and times."""
    rng = np.random.default_rng(seed)
    a = (rng.uniform(-1, 1, n), rng.uniform(-1, 1, n - k))
    b = (rng.uniform(-1, 1, n), rng.uniform(-1, 1, n - k))
    psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    if empty is not None:
        psi0[empty::k] = 0.0
    times = np.cumsum(rng.uniform(0.05, 0.6, n_times))
    return a, b, psi0 / np.linalg.norm(psi0), times, k, empty


@st.composite
def linear_ramps(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(max(2, k), 30))
    seed = draw(st.integers(0, 2**32 - 1))
    empty = draw(st.integers(0, k - 1)) if k > 1 and draw(st.booleans()) else None
    return linear_ramp(n, k, seed, empty, draw(st.integers(2, 7)))


# the two-state kernel: a Landau-Zener chain, and two chains of two with one empty
TWO_STATE_RAMPS = (linear_ramp(2, 1, 5, None, 5), linear_ramp(4, 2, 6, 1, 4))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(linear_ramps())
@example(TWO_STATE_RAMPS[0])
@example(TWO_STATE_RAMPS[1])
def test_propagate_linear_matches_oracle(case):
    a, b, psi0, times, k, empty = case
    rel_tol = 1e-8
    states, counts, estimate = propagate_linear(a, b, psi0, times, rel_tol)
    assert states.shape == (len(times), len(psi0)) and counts.shape == (len(times) - 1,)
    assert np.all(counts >= 1) and estimate <= rel_tol
    assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) <= 1e-12
    if empty is not None:
        assert np.all(states[:, empty::k] == 0.0)
    # measured worst case over 200 random examples: 1.2 rel_tol
    assert np.max(np.abs(states - oracle(a, b, psi0, times))) <= 5 * rel_tol


def test_cf4_pass_is_fourth_order():
    # doubling the steps per output interval cuts the error 16-fold
    # (measured ratios 16.09 and 16.02 for 8 -> 16 -> 32 steps)
    rng = np.random.default_rng(3)
    n, k = 12, 2
    a = (rng.uniform(-1, 1, n), rng.uniform(-1, 1, n - k))
    b = (rng.uniform(-1, 1, n), rng.uniform(-1, 1, n - k))
    psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi0 /= np.linalg.norm(psi0)
    times = np.array([0.0, 0.7, 1.2, 2.0])
    exact = oracle(a, b, psi0, times)
    errors = [np.max(np.abs(_cf4_pass(a, b, psi0, times, np.full(3, c)) - exact))
              for c in (8, 16, 32)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 15.0 <= coarse / fine <= 17.0


def two_state_step(n, seed, kind, scale):
    """Bands of one two-state chain, 2n times and n half steps; |th r| < 3 scale."""
    rng = np.random.default_rng(seed)
    a = (scale * rng.uniform(-1, 1, 2), scale * rng.uniform(-1, 1, 1))
    b = (scale * rng.uniform(-1, 1, 2), scale * rng.uniform(-1, 1, 1))
    taus, halves = rng.uniform(-1, 1, 2 * n), np.repeat(rng.uniform(0, 1, n), 2)
    if kind != "coupled":       # q = 0 at every time
        a[1][0] = b[1][0] = 0.0
    if kind == "degenerate at 0":   # H(0) = a_d[0] I, so r = 0 at the first time
        a[0][1], taus[0] = a[0][0], 0.0
    return a, b, taus, halves


@st.composite
def two_state_steps(draw):
    n, seed = draw(st.integers(1, 12)), draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["coupled", "uncoupled", "degenerate at 0"]))
    return two_state_step(n, seed, kind, 10.0 ** draw(st.floats(-3.0, 3.0)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(two_state_steps())
@example(two_state_step(12, 4, "coupled", 1e3))     # |th r| up to 1.0e3
def test_two_state_steps_match_expm(case):
    # the Rabi-formula kernel against dense exponentials of -i th H; measured
    # over 2000 random cases with |th r| up to 1.1e3: 3.9e-13 entrywise and
    # 1.1e-13 from unitarity
    a, b, taus, halves = case
    steps = ramp._block_steps(a, b, taus, halves)
    factors = [expm(-1j * th * dense_h(a, b, tau)) for tau, th in zip(taus, halves)]
    exact = np.array([late @ early for early, late in zip(factors[0::2], factors[1::2])])
    assert steps.shape == exact.shape
    assert np.max(np.abs(steps - exact)) <= 1e-12
    unitarity = np.einsum("jki,jkl->jil", steps.conj(), steps) - np.eye(2)
    assert np.max(np.abs(unitarity)) <= 3e-13


def test_two_state_blocks_are_applied_as_single_steps(monkeypatch):
    # 25 steps in blocks of 8: the prefix scan of each block, carried from
    # block to block, gives the states of one u @ psi per step
    block_steps, blocks = ramp._block_steps, []

    def recorded(*job):
        blocks.append(block_steps(*job))
        return blocks[-1]

    monkeypatch.setattr(ramp, "_BLOCK_ENTRIES", 64)
    monkeypatch.setattr(ramp, "_block_steps", recorded)
    a, b, psi0, times, _, _ = TWO_STATE_RAMPS[0]
    counts = np.array([3, 7, 5, 10])
    states = _cf4_pass(a, b, psi0, times, counts)
    assert [len(block) for block in blocks] == [8, 8, 8, 1]
    dts = np.diff(times) / counts
    t = np.concatenate([t0 + dt * np.arange(c) for t0, dt, c in zip(times, dts, counts)])
    h = np.repeat(dts, counts)
    taus = (t[:, None] + h[:, None] * np.array([1.0, 5.0]) / 6.0).ravel()
    steps = block_steps(a, b, taus, np.repeat(0.5 * h, 2))
    psi, expected = psi0, [psi0]
    for j, u in enumerate(steps, start=1):
        psi = u @ psi
        if j in np.cumsum(counts):
            expected.append(psi)
    assert np.max(np.abs(states - np.array(expected))) <= 1e-13


def complex_chain_steps(a, b, taus, halves):
    """The chain kernel's step propagators with each factor V exp(-i th w) V^T one complex product."""
    (a_d, a_o), (b_d, b_o) = a, b
    m = len(a_d)
    diag, off = np.arange(m), np.arange(m - 1)
    tau = taus[:, None]
    mats = np.zeros((len(tau), m, m))
    mats[:, diag, diag] = a_d + tau * b_d
    mats[:, off, off + 1] = mats[:, off + 1, off] = a_o + tau * b_o
    w, v = np.linalg.eigh(mats)
    phase = np.exp(-1j * halves[:, None] * w)
    factors = (v * phase[:, None, :]) @ v.transpose(0, 2, 1)
    return factors[1::2] @ factors[0::2]


@pytest.mark.parametrize("m", range(3, 26))
def test_chain_factors_equal_the_complex_product(m):
    # the factors are built from two real products; the complex product they
    # replace only adds products with zero, so the bits agree
    rng = np.random.default_rng(m)
    a = (rng.uniform(-m, m, m), rng.uniform(-1, 1, m - 1))
    b = (rng.uniform(-1, 1, m), rng.uniform(-1, 1, m - 1))
    steps = max(1, ramp._BLOCK_ENTRIES // (2 * m * m))
    taus, halves = rng.uniform(0, 10, 2 * steps), np.repeat(rng.uniform(0, 0.1, steps), 2)
    assert (ramp._block_steps(a, b, taus, halves).tobytes()
            == complex_chain_steps(a, b, taus, halves).tobytes())


@pytest.mark.parametrize("dim, delta, f_final, s_tilde", [
    (24, 1.8, 1.0, 0.06), (34, 1.8, 1.0, 0.06),     # radiation: run and its dim + 10 probe
    (40, 1.8, 1.0, 0.06), (50, 1.8, 1.0, 0.06),     # ramp
    (40, 0.0, 5.0, 1.0), (50, 0.0, 5.0, 1.0),       # wigner
])
def test_chain_factors_of_the_bench_ramps_equal_the_complex_product(monkeypatch, dim, delta,
                                                                    f_final, s_tilde):
    # every block of both sweeps of the vacuum ramps that bench/configs run
    block_steps, equal = ramp._block_steps, []

    def compared(a, b, taus, halves):
        steps = block_steps(a, b, taus, halves)
        equal.append(steps.tobytes() == complex_chain_steps(a, b, taus, halves).tobytes())
        return steps

    monkeypatch.setattr(ramp, "_block_steps", compared)
    space = FockSpace(dim)
    evolve_ramp(space, make_protocol(space, delta, f_final, s_tilde))
    assert len(equal) > 2 and all(equal)


def test_rounding_floor_stops_with_warning():
    # a rel_tol no double-precision sweep can meet: the doubling stops once the
    # estimate no longer falls and sits within dim * eps * steps, and warns
    a, b = (np.zeros(2), np.array([1.0])), (np.array([1.0, -1.0]), np.zeros(1))
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    times = np.linspace(0.0, 4.0, 41)
    with pytest.warns(RuntimeWarning, match="rounding floor"):
        states, counts, estimate = propagate_linear(a, b, psi0, times, 1e-16)
    assert 1e-16 < estimate <= 2 * np.finfo(float).eps * counts.sum()
    # the oracle itself runs at rtol 1e-12
    assert np.max(np.abs(states - oracle(a, b, psi0, times))) <= 1e-10
    # a reachable target returns without a warning, at or below it, also when
    # the first halvings are far from the fourth-order regime: over one output
    # interval of many oscillations the estimates fall 0.06, 0.04, 0.013,
    # 0.0066, 0.0078, ... before the 16x rate sets in
    stiff = (np.zeros(2), np.array([5.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert propagate_linear(a, b, psi0, times, 1e-13)[2] <= 1e-13
        one_interval = np.array([0.0, 12.0])
        states, _, estimate = propagate_linear(stiff, b, psi0, one_interval, 1e-10)
    assert estimate <= 1e-10
    assert np.max(np.abs(states - oracle(stiff, b, psi0, one_interval))) <= 1e-9
    with pytest.raises(ValueError):
        propagate_linear(a, b, psi0, times[::-1], 1e-8)
    with pytest.raises(ValueError):
        propagate_linear(a, b, psi0, times, 0.0)


@pytest.mark.parametrize("where", ["a", "b", "psi0"])
def test_propagate_linear_rejects_non_finite(where):
    # a NaN A (`parosc run lz` with Delta = sqrt(-1)) made every error estimate
    # NaN, so the step doubling never ended; non-finite input now fails at once,
    # also on a given schedule
    good = {"a": (np.zeros(2), np.array([1.0])), "b": (np.array([1.0, -1.0]), np.zeros(1)),
            "psi0": np.array([1.0, 1.0]) / np.sqrt(2.0)}
    bad = {"a": (np.zeros(2), np.array([np.nan])), "b": (np.array([np.inf, -1.0]), np.zeros(1)),
           "psi0": np.array([np.nan, 1.0])}
    args = good | {where: bad[where]}
    for counts in (None, np.array([3, 5])):
        with pytest.raises(ValueError, match="finite"):
            propagate_linear(args["a"], args["b"], args["psi0"], np.linspace(0.0, 1.0, 3), 1e-8,
                             counts)


def test_a_pass_at_given_counts_rejects_non_finite_states():
    # finite bands whose H(t) overflows within the sweep: no estimate catches
    # the NaN states of a single pass, so the pass checks them itself
    a, b = (np.zeros(2), np.array([1.0])), (np.array([1e308, -1e308]), np.zeros(1))
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
        propagate_linear(a, b, psi0, np.array([0.0, 1.0, 4.0]), 1e-8, np.array([2, 2]))


@pytest.mark.parametrize("counts", [[2, 2], [2, 2, 2, 2], [2, 0, 2], [2, -1, 2],
                                    [2.0, 2.0, 2.0], [[2, 2, 2]]])
def test_given_counts_are_one_positive_integer_per_interval(counts):
    a, b, psi0, times, _, _ = linear_ramp(6, 2, 1, None, 4)
    with pytest.raises(ValueError, match="counts"):
        propagate_linear(a, b, psi0, times, 1e-8, np.array(counts))
    space = FockSpace(16)
    protocol = make_protocol(space, 0.0, 0.5, 0.5, output_times=np.array([0.0, 0.25, 0.5, 1.0]))
    with pytest.raises(ValueError, match="counts"):
        evolve_ramp(space, protocol, counts=np.array(counts))


# twice the infidelity 1 - F measured for each rank k
@pytest.mark.parametrize("k, bound", [(0, 2 * 9.6e-4), (1, 2 * 2.6e-3), (2, 2 * 9.5e-4),
                                      (3, 2 * 1.4e-3), (4, 2 * 4.3e-4), (5, 2 * 2.0e-5)])
def test_vacuum_ramp_prepares_every_even_rank(k, bound):
    # any even quasienergy state from the ground state: at f = 0, |2m> lies
    # below the vacuum iff m < delta - 1/2, so at delta = k + 1 the vacuum
    # carries the label (+1, k); a ramp slow against the smallest same-parity
    # gap along it carries the vacuum onto that state
    space, delta = FockSpace(60), k + 1.0
    series = spectrum_vs_drive(space, delta, np.linspace(0.0, 1.0, 201), k + 2)
    g_min = float(np.min(same_parity_gap(series, 1, k)))
    result = evolve_ramp(space, make_protocol(space, delta, 1.0, g_min**2 / 16))
    assert result.target_label == (1, k)
    assert 1.0 - result.final_fidelity <= bound


# ---------------------------------------------------------------------------
# the pool that computes the step propagators ahead of the sweep

class SynchronousExecutor:
    """Stands in for the thread pool: each block is computed when it is submitted."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class CountingExecutor(ThreadPoolExecutor):
    """The thread pool, counting blocks submitted and not yet read; ``peaks`` keeps the maximum."""

    peaks = []

    def __init__(self, max_workers):
        super().__init__(max_workers)
        self.held = 0
        self.peaks.append(0)

    def submit(self, fn, *args):
        future = super().submit(fn, *args)
        self.held += 1
        self.peaks[-1] = max(self.peaks[-1], self.held)
        read = future.result

        def result(timeout=None):
            self.held -= 1
            return read(timeout)

        future.result = result
        return future


class NoExecutor:
    def __init__(self, max_workers):
        raise AssertionError("a pass that should run on the calling thread started a pool")


def pool_variants(run):
    """run() with the thread pool, with a stand-in pool of no threads and on the calling thread.

    Every pass is forced onto the pool of two threads, or off it, whatever its
    chains, so the pool runs on any machine and on chains of every length.
    """
    computed_ahead, out = ramp._computed_ahead, []
    for pooled, executor in ((True, ThreadPoolExecutor), (True, SynchronousExecutor),
                             (False, NoExecutor)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ramp, "_cores", lambda: 2)
            mp.setattr(ramp, "ThreadPoolExecutor", executor)
            mp.setattr(ramp, "_computed_ahead",
                       lambda jobs, _, pooled=pooled: computed_ahead(jobs, pooled))
            out.append(run())
    return out


def assert_bitwise_equal(results):
    for other in results[1:]:
        for x, y in zip(results[0], other):
            assert np.array_equal(x, y)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(linear_ramps())
@example(TWO_STATE_RAMPS[0])
@example(TWO_STATE_RAMPS[1])
def test_pool_leaves_every_state_bitwise_unchanged(case):
    # small blocks give each sweep many blocks, so the pool runs far ahead
    a, b, psi0, times, _, _ = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ramp, "_BLOCK_ENTRIES", 64)
        assert_bitwise_equal(pool_variants(lambda: propagate_linear(a, b, psi0, times, 1e-8)))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(linear_ramps())
@example(TWO_STATE_RAMPS[0])
@example(TWO_STATE_RAMPS[1])
def test_a_pass_at_the_accepted_counts_is_the_search_bitwise(case):
    # the dim+10 probes make one pass on the counts their run accepted; on the
    # run's own ramp that pass is the accepted sweep, pooled or not
    a, b, psi0, times, _, _ = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ramp, "_BLOCK_ENTRIES", 64)
        states, counts, _ = propagate_linear(a, b, psi0, times, 1e-8)
        for again, given_counts, estimate in pool_variants(
                lambda: propagate_linear(a, b, psi0, times, 1e-8, counts)):
            assert again.tobytes() == states.tobytes()
            assert np.array_equal(given_counts, counts) and estimate is None


def test_the_tomography_probe_is_its_own_search_bitwise():
    # the README wigner example: its d = 50 probe, one pass at the d = 40 run's
    # counts, is the sweep that a search at d = 50 accepts, so the report keeps its value
    runs = {}
    for dim in (40, 50):
        space = FockSpace(dim)
        runs[dim] = evolve_ramp(space, make_protocol(space, 0.0, 5.0, 1.0))
    space = FockSpace(50)
    probe = evolve_ramp(space, make_protocol(space, 0.0, 5.0, 1.0), counts=runs[40].counts)
    assert probe.steps == runs[40].steps == runs[50].steps == 400
    assert probe.trajectory.tobytes() == runs[50].trajectory.tobytes()
    assert probe.final_fidelity == runs[50].final_fidelity and probe.error_estimate is None


def test_pool_leaves_the_tomography_ramp_bitwise_unchanged():
    # the d = 50 probe of the README wigner example: 16 and 31 blocks per sweep
    space = FockSpace(50)
    results = pool_variants(lambda: evolve_ramp(space, make_protocol(space, 0.0, 5.0, 1.0)))
    assert results[0].steps == 400
    assert_bitwise_equal([(r.trajectory, r.steps, r.error_estimate) for r in results])


def test_blocks_in_flight_stay_bounded(monkeypatch):
    # each held block is at most _BLOCK_ENTRIES complex entries per step pair,
    # so the bound on held blocks bounds the memory of a sweep
    monkeypatch.setattr(ramp, "_cores", lambda: 2)
    monkeypatch.setattr(ramp, "ThreadPoolExecutor", CountingExecutor)
    monkeypatch.setattr(CountingExecutor, "peaks", [])
    space = FockSpace(40)
    evolve_ramp(space, make_protocol(space, 0.0, 5.0, 1.0))
    assert len(CountingExecutor.peaks) == 2                 # two sweeps
    assert max(CountingExecutor.peaks) == ramp._IN_FLIGHT   # 10 and 20 blocks


def tridiagonal_pass(n, blocks, k=1, empty=None):
    """_cf4_pass over n states in the k chains r::k, with ``blocks`` blocks on the longest chain.

    psi0 spreads over the first state of each chain but ``empty``.
    """
    a = (np.zeros(n), np.ones(n - k))
    b = (np.linspace(-1.0, 1.0, n), np.zeros(n - k))
    psi0 = np.zeros(n)
    psi0[[r for r in range(k) if r != empty]] = 1.0
    m = (n + k - 1) // k                # states of the longest chain, 0::k
    steps = blocks * max(1, ramp._BLOCK_ENTRIES // (2 * m * m))
    return _cf4_pass(a, b, psi0 / np.linalg.norm(psi0), np.array([0.0, 1.0]), np.array([steps]))


# the pool runs where batched eigh is serial: LAPACK solves chains of 3 to 25
# states without threaded BLAS, and from 26 on by divide and conquer
@pytest.mark.parametrize("n, k, blocks, cores", [
    pytest.param(2, 1, 3, 2, id="2-3-2"),       # a Landau-Zener chain: 2,048 steps a block
    pytest.param(26, 1, 8, 2, id="26-8-2"),     # eigh runs threaded BLAS
    pytest.param(51, 2, 8, 2, id="26+25-8-2"),  # mixed parity, the longest chain decides
    pytest.param(20, 1, 1, 2, id="20-1-2"),     # one block: nothing to compute ahead
    pytest.param(20, 1, 8, 1, id="20-8-1"),     # one core
])
def test_calling_thread_passes_start_no_pool(monkeypatch, n, k, blocks, cores):
    monkeypatch.setattr(ramp, "_cores", lambda: cores)
    monkeypatch.setattr(ramp, "ThreadPoolExecutor", NoExecutor)
    assert np.isclose(np.linalg.norm(tridiagonal_pass(n, blocks, k)[-1]), 1.0)


@pytest.mark.parametrize("n, k, empty", [
    (3, 1, None),
    (25, 1, None),
    (51, 2, 0),     # the 26-state chain holds no weight, so the 25-state one decides
])
def test_chains_with_a_serial_eigh_use_the_pool(monkeypatch, n, k, empty):
    monkeypatch.setattr(ramp, "_cores", lambda: 2)
    monkeypatch.setattr(ramp, "ThreadPoolExecutor", CountingExecutor)
    monkeypatch.setattr(CountingExecutor, "peaks", [])
    tridiagonal_pass(n, 8, k, empty)
    assert CountingExecutor.peaks == [ramp._IN_FLIGHT]


def test_a_pass_that_raises_leaves_no_worker_thread(monkeypatch):
    # the caller fails on the third block while the pool holds blocks ahead;
    # the traceback keeps the pass's frame, and still no worker outlives it
    computed_ahead = ramp._computed_ahead

    def failing_on_third(jobs, pooled):
        assert pooled
        with closing(computed_ahead(jobs, pooled)) as blocks:
            yield next(blocks)
            yield next(blocks)
            yield np.zeros((1, 3, 3))   # u.dot(psi) raises on this block

    monkeypatch.setattr(ramp, "_cores", lambda: 2)
    monkeypatch.setattr(ramp, "_computed_ahead", failing_on_third)
    before = set(threading.enumerate())
    with pytest.raises(ValueError) as raised:
        tridiagonal_pass(20, 12)
    assert raised.traceback
    assert set(threading.enumerate()) == before


def test_import_starts_no_thread_and_sweeps_leave_none():
    src = str(Path(parosc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import threading, parosc, parosc.cli; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "1"
    before = set(threading.enumerate())
    space = FockSpace(40)
    evolve_ramp(space, make_protocol(space, 0.0, 5.0, 1.0))
    assert set(threading.enumerate()) == before
