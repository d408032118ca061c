import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from parosc.fock import FockSpace
from parosc.ramp import (
    RampProtocol,
    _cf4_pass,
    evolve_ramp,
    initial_label,
    instantaneous_fidelity,
    propagate_linear,
)
from parosc.spectrum import same_parity_gap, spectrum_vs_drive


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


def test_instantaneous_fidelity_trivial_cases():
    sp = FockSpace(20)
    assert instantaneous_fidelity(sp.vacuum(), sp, 0.7, 0.0, 1, 0) == pytest.approx(1.0)
    # orthogonal parity
    assert instantaneous_fidelity(sp.basis_state(1), sp, 0.7, 1.3, 1, 0) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        instantaneous_fidelity(sp.vacuum(), sp, 0.0, -1.0, 1, 0)


def test_midramp_fidelity_dips_then_plateaus():
    # the delta=1.8 preparation passes near an avoided crossing: the tracked
    # fidelity leaves 1, dips, then settles at its final plateau
    sp = FockSpace(40)
    protocol = make_protocol(sp, 1.8, 3.0, 0.06,
                             output_times=np.linspace(0.0, 50.0, 26))
    result = evolve_ramp(sp, protocol, rel_tol=1e-8)
    fids = np.array([
        instantaneous_fidelity(psi, sp, 1.8, 0.06 * t, *result.target_label)
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


@st.composite
def linear_ramps(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(max(2, k), 30))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    a = (rng.uniform(-1, 1, n), rng.uniform(-1, 1, n - k))
    b = (rng.uniform(-1, 1, n), rng.uniform(-1, 1, n - k))
    psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    empty = draw(st.integers(0, k - 1)) if k > 1 and draw(st.booleans()) else None
    if empty is not None:
        psi0[empty::k] = 0.0
    times = np.cumsum(rng.uniform(0.05, 0.6, draw(st.integers(2, 7))))
    return a, b, psi0 / np.linalg.norm(psi0), times, k, empty


@settings(max_examples=40, derandomize=True, deadline=None)
@given(linear_ramps())
def test_propagate_linear_matches_oracle(case):
    a, b, psi0, times, k, empty = case
    rel_tol = 1e-8
    states, steps, estimate = propagate_linear(a, b, psi0, times, rel_tol)
    assert states.shape == (len(times), len(psi0)) and steps >= len(times) - 1
    assert estimate <= rel_tol
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


def test_rounding_floor_stops_with_warning():
    # a rel_tol no double-precision sweep can meet: the doubling stops once the
    # estimate no longer falls and sits within dim * eps * steps, and warns
    a, b = (np.zeros(2), np.array([1.0])), (np.array([1.0, -1.0]), np.zeros(1))
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    times = np.linspace(0.0, 4.0, 41)
    with pytest.warns(RuntimeWarning, match="rounding floor"):
        states, steps, estimate = propagate_linear(a, b, psi0, times, 1e-16)
    assert 1e-16 < estimate <= 2 * np.finfo(float).eps * steps
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
    # NaN, so the step doubling never ended; non-finite input now fails at once
    good = {"a": (np.zeros(2), np.array([1.0])), "b": (np.array([1.0, -1.0]), np.zeros(1)),
            "psi0": np.array([1.0, 1.0]) / np.sqrt(2.0)}
    bad = {"a": (np.zeros(2), np.array([np.nan])), "b": (np.array([np.inf, -1.0]), np.zeros(1)),
           "psi0": np.array([np.nan, 1.0])}
    args = good | {where: bad[where]}
    with pytest.raises(ValueError, match="finite"):
        propagate_linear(args["a"], args["b"], args["psi0"], np.linspace(0.0, 1.0, 3), 1e-8)


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
