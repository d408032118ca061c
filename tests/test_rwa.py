import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parosc.fock import FockSpace, ladder_operators, number_operator, parity_operator
from parosc.rwa import (
    RwaSystem,
    build_h_rwa,
    classical_hamiltonian_function,
    coherent_eigen_residual,
    exact_level_shift,
    h_rwa_bands,
    parity_eigh,
    perturbative_shift,
    semiclassics,
    zero_drive_levels,
)


def ladder_h_rwa(sp: FockSpace, system: RwaSystem) -> np.ndarray:
    """Oracle: -delta*n + (n^2 + n)/2 + (f/2)(a@a + a_dag@a_dag) from ladder operators."""
    a, a_dag = ladder_operators(sp)
    n_op = number_operator(sp)
    h = -system.delta * n_op + 0.5 * (n_op @ n_op + n_op)
    h += 0.5 * system.f * (a @ a + a_dag @ a_dag)
    return h


def second_order_shift_oracle(delta: float, f: float, n: int, dim: int = 40) -> float:
    """Independent oracle: textbook second-order sum over the two coupled levels."""
    sp = FockSpace(dim)
    a, a_dag = ladder_operators(sp)
    h1 = 0.5 * f * (a @ a + a_dag @ a_dag)
    e = zero_drive_levels(delta, dim - 1)
    shift = 0.0
    for m in (n - 2, n + 2):
        if 0 <= m < dim:
            shift += abs(h1[m, n]) ** 2 / (e[n] - e[m])
    return shift


class TestHamiltonian:
    def test_zero_drive_diagonal(self):
        h = build_h_rwa(FockSpace(5), RwaSystem(delta=0.0, f=0.0))
        assert np.allclose(np.diag(h).real, [0, 1, 3, 6, 10])
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0

    def test_drive_matrix_element(self):
        h = build_h_rwa(FockSpace(6), RwaSystem(delta=0.0, f=0.5))
        assert h[2, 0] == pytest.approx(0.5 * np.sqrt(2) / 2)

    def test_delta2_degenerate_pairs(self):
        h = build_h_rwa(FockSpace(40), RwaSystem(delta=2.0, f=0.0))
        w = np.sort(np.diag(h).real[:4])
        assert abs(w[0] - w[1]) < 1e-12   # E_1 = E_2
        assert abs(w[2] - w[3]) < 1e-12   # E_0 = E_3

    def test_commutes_with_parity(self):
        rng = np.random.default_rng(3)
        sp = FockSpace(24)
        p = parity_operator(sp)
        for _ in range(5):
            sys = RwaSystem(delta=rng.uniform(-1, 3), f=rng.uniform(0, 4))
            h = build_h_rwa(sp, sys)
            assert np.max(np.abs(h @ p - p @ h)) < 1e-12 * np.max(np.abs(h))

    def test_hermitian(self):
        h = build_h_rwa(FockSpace(17), RwaSystem(delta=1.3, f=2.2))
        assert np.max(np.abs(h - h.conj().T)) == 0.0

    @pytest.mark.parametrize("dim", [2, 3, 17, 40])
    def test_matches_ladder_oracle(self, dim):
        for delta, f in ((0.0, 0.0), (1.8, 1.0), (-1.3, 2.7)):
            sp, system = FockSpace(dim), RwaSystem(delta=delta, f=f)
            oracle = ladder_h_rwa(sp, system)
            h = build_h_rwa(sp, system)
            assert np.max(np.abs(h - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    def test_bands(self):
        diag, off2 = h_rwa_bands(6, RwaSystem(delta=0.5, f=0.4))
        n = np.arange(6)
        assert np.array_equal(diag, -0.5 * n + 0.5 * (n**2 + n))
        assert off2 == pytest.approx(0.2 * np.sqrt((n[:4] + 1) * (n[:4] + 2)), rel=1e-15)


class TestParityEigh:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(delta=st.floats(-2.0, 3.0), f=st.floats(0.0, 3.0), dim=st.integers(2, 40))
    def test_chains_reproduce_dense_spectrum(self, delta, f, dim):
        system = RwaSystem(delta=delta, f=f)
        h = build_h_rwa(FockSpace(dim), system)
        full = np.linalg.eigvalsh(h)
        scale = max(1.0, float(np.max(np.abs(full))))
        union = []
        for parity in (1, -1):
            idx, w, v = parity_eigh(dim, system, parity)
            phi = np.zeros((dim, len(idx)))
            phi[idx] = v
            assert np.all(np.diff(w) >= 0)
            residual = np.linalg.norm(h @ phi - phi * w, axis=0)
            assert np.all(residual <= 1e-12 * scale)
            union.append(w)
        assert np.max(np.abs(np.sort(np.concatenate(union)) - full)) <= 1e-12 * scale

    @pytest.mark.parametrize("dim", [60, 80])
    def test_large_dim_spectrum(self, dim):
        for delta, f in ((0.0, 3.0), (1.8, 1.0), (2.0, 2.0)):
            system = RwaSystem(delta=delta, f=f)
            full = np.linalg.eigvalsh(build_h_rwa(FockSpace(dim), system))
            union = np.sort(np.concatenate([parity_eigh(dim, system, par)[1]
                                            for par in (1, -1)]))
            assert np.max(np.abs(union - full)) <= 1e-12 * np.max(np.abs(full))

    def test_fock_indices_and_validation(self):
        system = RwaSystem(delta=0.3, f=0.7)
        assert np.array_equal(parity_eigh(7, system, 1)[0], [0, 2, 4, 6])
        assert np.array_equal(parity_eigh(7, system, -1)[0], [1, 3, 5])
        with pytest.raises(ValueError):
            parity_eigh(7, system, 0)


class TestZeroDrive:
    def test_delta0(self):
        e = zero_drive_levels(0.0, 2)
        assert e[1] == pytest.approx(1.0)
        assert e[2] == pytest.approx(3.0)

    def test_delta2(self):
        e = zero_drive_levels(2.0, 3)
        assert e[1] == pytest.approx(-1.0)
        assert e[2] == pytest.approx(-1.0)
        assert e[0] == pytest.approx(0.0)
        assert e[3] == pytest.approx(0.0)

    def test_delta_2p5(self):
        e = zero_drive_levels(2.5, 4)
        assert abs(e[0] - e[4]) < 1e-12
        assert abs(e[1] - e[3]) < 1e-12


class TestPerturbativeShift:
    def test_against_second_order_oracle(self):
        # frozen from the oracle: delta=0, n=0, f=0.1 -> -f^2/6
        assert perturbative_shift(0.0, 0.1, 0) == pytest.approx(-0.1**2 / 6, rel=1e-12)
        for delta, n in ((0.0, 0), (0.0, 1), (0.3, 0), (0.3, 2), (1.8, 1)):
            f = 0.05
            oracle = second_order_shift_oracle(delta, f, n)
            assert perturbative_shift(delta, f, n) == pytest.approx(oracle, rel=1e-10)

    def test_zero_drive(self):
        assert perturbative_shift(1.234, 0.0, 3) == 0.0

    def test_degenerate_pair_shifts_equal(self):
        for f in (0.01, 0.1):
            assert perturbative_shift(2.0, f, 0) == pytest.approx(perturbative_shift(2.0, f, 3))
            assert perturbative_shift(2.0, f, 1) == pytest.approx(perturbative_shift(2.0, f, 2))

    def test_degenerate_denominator_raises(self):
        # 2*Ebar_n = 1 at delta = n - 1/2: resonance of the second-order formula
        with pytest.raises(ValueError):
            perturbative_shift(0.5, 0.1, 1)

    @pytest.mark.parametrize("delta", [0.0, 0.3])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_residual_scales_as_f4(self, delta, n):
        sp = FockSpace(40)
        f = 0.1
        r1 = abs(exact_level_shift(sp, delta, f, n) - perturbative_shift(delta, f, n))
        r2 = abs(exact_level_shift(sp, delta, f / 2, n) - perturbative_shift(delta, f / 2, n))
        assert 12.0 < r1 / r2 < 20.0


class TestClassicalFunction:
    def test_origin(self):
        for mu in (-0.5, 0.0, 1.7):
            assert classical_hamiltonian_function(0.0, 0.0, mu) == 0.0

    def test_minimum_mu0(self):
        assert classical_hamiltonian_function(1.0, 0.0, 0.0) == pytest.approx(-0.25)

    def test_minimum_mu_0p6(self):
        q0 = np.sqrt(1.6)
        assert classical_hamiltonian_function(q0, 0.0, 0.6) == pytest.approx(-0.64)
        # verify it is the minimum on a grid
        qs = np.linspace(-2, 2, 201)
        vals = classical_hamiltonian_function(qs[:, None], qs[None, :], 0.6)
        assert vals.min() >= -0.64 - 1e-12


class TestSemiclassics:
    def test_mu0(self):
        s = semiclassics(RwaSystem(delta=0.0, f=2.0))
        assert s.q0 == pytest.approx(1.0)
        assert s.omega_min == pytest.approx(2.0)
        assert s.eta == pytest.approx(1.0)
        assert s.g_min == pytest.approx(-0.25)

    def test_gap_estimate(self):
        s = semiclassics(RwaSystem(delta=0.0, f=5.0))
        assert s.gap_estimate == pytest.approx(10.0)

    def test_invariant_relations(self):
        s = semiclassics(RwaSystem(delta=1.2, f=0.9))
        assert s.q0**2 == pytest.approx(s.q0 * s.q0)
        assert s.omega_min == pytest.approx(2 * s.q0)
        assert s.eta * s.q0 == pytest.approx(1.0)
        assert s.g_min == pytest.approx(-s.q0**4 / 4)

    def test_shallow_well_limit(self):
        s = semiclassics(RwaSystem(delta=-0.999, f=1.0))
        assert s.q0 == pytest.approx(np.sqrt(0.001))
        assert s.omega_min == pytest.approx(2 * np.sqrt(0.001))

    def test_no_double_well(self):
        with pytest.raises(ValueError):
            semiclassics(RwaSystem(delta=-2.0, f=1.0))


class TestCoherentEigenstates:
    def test_residual_f0p5(self):
        assert coherent_eigen_residual(FockSpace(40), 0.5) < 1e-8

    def test_residual_f2(self):
        assert coherent_eigen_residual(FockSpace(60), 2.0) < 1e-8

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(f=st.floats(0.05, 2.0), dim=st.integers(40, 60))
    def test_identity_holds_to_rounding(self, f, dim):
        # beyond 40 levels the Poisson weight of |alpha|^2 = f <= 2 is below 1e-36, so
        # the residual is rounding: measured at most 2.0e-15 on a 400 x 21 (f, dim) grid
        assert coherent_eigen_residual(FockSpace(dim), f) < 1e-14

    def test_small_f_limit(self):
        # |alpha> -> |0> and the residual vanishes with f
        r = [coherent_eigen_residual(FockSpace(30), f) for f in (0.1, 0.01)]
        assert r[0] < 1e-8 and r[1] < 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_integer_detuning_degeneracy_persists(k):
    # at delta = k, the k lowest even/odd pairs stay degenerate at any drive
    for f in (0.5, 1.5, 3.0):
        system = RwaSystem(delta=float(k), f=f)
        ev = parity_eigh(80, system, 1)[1]
        od = parity_eigh(80, system, -1)[1]
        for r in range(k):
            assert abs(ev[r] - od[r]) < 1e-8
