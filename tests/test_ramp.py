import numpy as np
import pytest

from parosc.fock import FockSpace
from parosc.ramp import (
    RampProtocol,
    evolve_ramp,
    initial_label,
    instantaneous_fidelity,
    ramp_rows,
)


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


def test_rows_shape():
    sp = FockSpace(20)
    protocol = make_protocol(sp, 0.0, 0.5, 0.25,
                             output_times=np.linspace(0, 2.0, 5))
    result = evolve_ramp(sp, protocol, rel_tol=1e-8)
    rows = list(ramp_rows(sp, protocol, result))
    assert len(rows) == len(result.times)
    t, f, fid, n_exp, par = rows[-1]
    assert f == pytest.approx(0.5)
    assert 0.0 <= fid <= 1.0
    assert par == pytest.approx(1.0, abs=1e-9)
