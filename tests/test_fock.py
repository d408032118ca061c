import numpy as np
import pytest

from helpers import check_density_matrix, parity_operator, poisson_tail
from parosc.fock import (
    ConvergenceError,
    FockSpace,
    convergence_report,
    check_state,
    ladder_operators,
    tail_population,
)


def test_ladder_dim2():
    a, a_dag = ladder_operators(FockSpace(2))
    assert a[0, 1] == 1.0
    assert np.count_nonzero(a) == 1
    assert np.allclose(a_dag, a.conj().T)


def test_number_operator_dim3():
    sp = FockSpace(3)
    a, a_dag = ladder_operators(sp)
    assert np.allclose(a_dag @ a, np.diag([0.0, 1.0, 2.0]))


def test_two_quanta_element():
    sp = FockSpace(4)
    a, a_dag = ladder_operators(sp)
    assert (a_dag @ a_dag)[2, 0] == pytest.approx(np.sqrt(2.0))


def test_commutator_truncation_edge():
    sp = FockSpace(12)
    a, a_dag = ladder_operators(sp)
    comm = a @ a_dag - a_dag @ a
    assert np.allclose(comm[:-1, :-1], np.eye(sp.dim)[:-1, :-1])
    # only the last diagonal entry deviates
    assert comm[-1, -1] == pytest.approx(1 - sp.dim)


def test_parity_algebra():
    sp = FockSpace(9)
    p = parity_operator(sp)
    a, _ = ladder_operators(sp)
    assert np.allclose(p, np.diag([1, -1, 1, -1, 1, -1, 1, -1, 1]))
    assert np.allclose(p @ p, np.eye(sp.dim))
    assert np.allclose(p @ a @ p, -a)


def test_parity_expectations():
    sp = FockSpace(6)
    p = parity_operator(sp)
    vac = sp.vacuum()
    assert np.vdot(vac, p @ vac).real == pytest.approx(1.0)
    cat = (sp.basis_state(0) + sp.basis_state(2)) / np.sqrt(2)
    assert np.vdot(cat, p @ cat).real == pytest.approx(1.0)


def test_tail_population_vacuum_and_top():
    sp = FockSpace(10)
    assert tail_population(sp.vacuum(), 5) == 0.0
    assert tail_population(sp.basis_state(9), 1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        tail_population(sp.vacuum(), 10)


def test_tail_population_density_matrix():
    sp = FockSpace(6)
    rho = np.outer(sp.basis_state(5), sp.basis_state(5))
    assert tail_population(rho, 2) == pytest.approx(1.0)


def test_coherent_tail_matches_poisson_and_shrinks():
    alpha = 1.3
    tails = []
    for dim in (12, 18, 24):
        psi = FockSpace(dim).coherent_state(alpha)
        tail = tail_population(psi, 4)
        # oracle: Poisson occupation statistics, mass in levels [dim-4, dim)
        expected = poisson_tail(alpha**2, dim - 4) - poisson_tail(alpha**2, dim)
        assert tail == pytest.approx(expected, rel=1e-8, abs=1e-15)
        tails.append(tail)
    assert tails[0] > tails[1] > tails[2]


def test_coherent_tail_tol_raises():
    with pytest.raises(ConvergenceError):
        FockSpace(6).coherent_state(3.0, tail_tol=1e-12)


def test_state_and_density_validators():
    sp = FockSpace(4)
    check_state(sp.basis_state(1))
    with pytest.raises(ValueError):
        check_state(sp.basis_state(1) * 1.01)
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    check_density_matrix(rho)
    with pytest.raises(ValueError):
        check_density_matrix(rho * 1.1)
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))


def test_convergence_report():
    calls = []

    def probe(dim):
        calls.append(dim)
        return 1.0 + 2.0 ** (-dim)

    report = convergence_report(1.0 + 2.0 ** (-20), probe, 20)
    assert report["converged"]
    assert calls == [30]        # the base value at dim is the caller's
    report = convergence_report(20.0, lambda dim: float(dim), 20)
    assert not report["converged"]


def test_dim_lower_bound():
    with pytest.raises(ValueError):
        FockSpace(1)
