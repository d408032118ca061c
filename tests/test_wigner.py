import numpy as np
import pytest

from parosc.fock import FockSpace
from parosc.wigner import wigner_transform


def fock_wavefunctions(dim, lam, x):
    """psi_n(x) = i^n H_n(x/sqrt(lam)) exp(-x^2/(2 lam)) / sqrt(2^n n! sqrt(pi lam)), n < dim."""
    h = np.zeros((dim, len(x)))
    u = x / np.sqrt(lam)
    h[0] = 1.0
    if dim > 1:
        h[1] = 2 * u
    for k in range(2, dim):
        h[k] = 2 * u * h[k - 1] - 2 * (k - 1) * h[k - 2]
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, dim)))])
    c = np.exp(-0.5 * (np.arange(dim) * np.log(2.0) + log_fact
                       + 0.5 * np.log(np.pi * lam)))
    return (1j ** np.arange(dim))[:, None] * c[:, None] * h * np.exp(-x**2 / (2 * lam))


def brute_force_wigner(rho, lam, qs, ps, xi_max=6.0, n_xi=4001):
    """Independent oracle: numerical quadrature of the defining integral."""
    dim = rho.shape[0]
    xis = np.linspace(-xi_max, xi_max, n_xi)
    w = np.zeros((len(qs), len(ps)))
    for i, q in enumerate(qs):
        left = fock_wavefunctions(dim, lam, q + xis)
        right = fock_wavefunctions(dim, lam, q - xis).conj()
        amp = np.einsum("mx,mn,nx->x", left, rho, right)
        for j, p in enumerate(ps):
            integ = np.trapezoid(np.exp(-2j * p * xis / lam) * amp, xis)
            w[i, j] = (integ / (np.pi * lam)).real
    return w


def test_vacuum_gaussian():
    sp = FockSpace(12)
    lam = 0.1
    qs = np.linspace(-1.5, 1.5, 41)
    rho = np.outer(sp.vacuum(), sp.vacuum())
    grid = wigner_transform(rho, lam, qs, qs)
    exact = np.exp(-(qs[:, None] ** 2 + qs[None, :] ** 2) / lam) / (np.pi * lam)
    assert np.max(np.abs(grid.values - exact)) < 1e-12
    assert grid.values.max() == pytest.approx(1 / (np.pi * lam))
    assert 0.0 < grid.boundary_mass < 1e-8


def test_against_brute_force_oracle():
    rng = np.random.default_rng(11)
    dim = 6
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    lam = 0.35
    qs = np.linspace(-2.5, 2.5, 21)
    ps = np.linspace(-2.5, 2.5, 19)
    grid = wigner_transform(rho, lam, qs, ps, boundary_tol=1.0)
    oracle = brute_force_wigner(rho, lam, qs, ps)
    assert np.max(np.abs(grid.values - oracle)) < 1e-6


@pytest.mark.parametrize("lam", [0.1, 0.5])
def test_fock_states_match_laguerre_closed_form(lam):
    # W of |n><n| is (-1)^n L_n(2 r^2/lam) exp(-r^2/lam) / (pi lam), r^2 = Q^2 + P^2;
    # the high-n states probe the recurrence far from the vacuum
    from scipy.special import eval_laguerre

    dim = 40
    qs = np.linspace(-3.0, 3.0, 61)
    ps = np.linspace(-3.0, 3.0, 47)
    r2 = qs[:, None] ** 2 + ps[None, :] ** 2
    for n in (0, 1, 2, 7, 20, 30, 39):
        rho = np.zeros((dim, dim))
        rho[n, n] = 1.0
        grid = wigner_transform(rho, lam, qs, ps, boundary_tol=np.inf)
        exact = ((-1) ** n * eval_laguerre(n, 2 * r2 / lam) * np.exp(-r2 / lam)
                 / (np.pi * lam))
        assert np.max(np.abs(grid.values - exact)) < 1e-12 / (np.pi * lam), n


def test_normalization_and_marginal():
    sp = FockSpace(20)
    psi = (sp.basis_state(0) + sp.basis_state(2) + sp.basis_state(3)) / np.sqrt(3)
    rho = np.outer(psi, psi.conj())
    lam = 0.25
    axis = np.linspace(-3.5, 3.5, 141)
    grid = wigner_transform(rho, lam, axis, axis)
    assert abs(grid.norm() - 1.0) < 1e-3
    # marginal over P must reproduce |psi(Q)|^2 (oracle: Hermite expansion)
    from_psi = np.abs(psi @ fock_wavefunctions(20, lam, axis)) ** 2
    assert np.max(np.abs(grid.marginal_q() - from_psi)) < 1e-3


def test_reality_parity_and_bound():
    rng = np.random.default_rng(5)
    sp = FockSpace(10)
    # random even-parity state
    psi = np.zeros(10, dtype=complex)
    psi[::2] = rng.normal(size=5) + 1j * rng.normal(size=5)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    lam = 0.5
    axis = np.linspace(-4.0, 4.0, 81)
    grid = wigner_transform(rho, lam, axis, axis)
    # reality is built in; check the symmetrized invariants instead
    assert np.max(np.abs(grid.values - grid.values[::-1, ::-1])) < 1e-8
    assert np.max(np.abs(grid.values)) <= 1 / (np.pi * lam) + 1e-8


def test_coherent_eigenstate_lobe_position_analytic():
    # at unit scaled detuning the double-well eigenstates are coherent states
    # with occupation f, so their lobes sit at Q = +-sqrt(2*lam*f) = +-1
    # exactly, for every drive; this pins the quadrature scaling.
    from parosc.spectrum import eigenstate_by_label

    f = 3.0
    lam = 1.0 / (2.0 * f)
    _, phi = eigenstate_by_label(FockSpace(50), 1.0, f, 1, 0)
    rho = np.outer(phi, phi.conj())
    qs = np.linspace(0.5, 1.5, 201)
    ps = np.linspace(-0.4, 0.4, 81)
    grid = wigner_transform(rho, lam, qs, ps, boundary_tol=1.0)
    i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    assert qs[i] == pytest.approx(1.0, abs=0.01)
    assert ps[j] == pytest.approx(0.0, abs=0.01)


def test_prepared_cat_lobe_sits_inside_classical_well():
    # the exact lobe of the delta=0, f=5 double-well ground state sits at
    # Q ~ 0.885, inside the classical minimum Q0 = 1 by an amount that is a
    # real quantum correction at lam = 0.1 (frozen from fine-grid runs)
    from parosc.spectrum import eigenstate_by_label

    _, phi = eigenstate_by_label(FockSpace(60), 0.0, 5.0, 1, 0)
    rho = np.outer(phi, phi.conj())
    qs = np.linspace(0.5, 1.5, 201)
    ps = np.linspace(-0.3, 0.3, 61)
    grid = wigner_transform(rho, 0.1, qs, ps, boundary_tol=1.0)
    i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    assert qs[i] == pytest.approx(0.885, abs=0.02)
    assert ps[j] == pytest.approx(0.0, abs=0.01)


def test_grid_too_small_raises():
    sp = FockSpace(30)
    psi = sp.coherent_state(2.0)
    rho = np.outer(psi, psi.conj())
    with pytest.raises(ValueError):
        wigner_transform(rho, 0.5, np.linspace(-1, 1, 21), np.linspace(-1, 1, 21))


@pytest.mark.parametrize("axis", [
    np.array([0.0]),
    np.linspace(2.0, -2.0, 21),
    np.concatenate([np.linspace(-2.0, 0.0, 11), np.linspace(0.5, 2.0, 4)]),
], ids=["single", "descending", "nonuniform"])
def test_bad_axis_raises(axis):
    rho = np.outer(FockSpace(4).vacuum(), FockSpace(4).vacuum())
    good = np.linspace(-2.0, 2.0, 21)
    with pytest.raises(ValueError, match="q_axis"):
        wigner_transform(rho, 0.1, axis, good)
    with pytest.raises(ValueError, match="p_axis"):
        wigner_transform(rho, 0.1, good, axis)
