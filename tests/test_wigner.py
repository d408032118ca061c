import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import wigner_every_diagonal
from parosc import wigner
from parosc.fock import FockSpace
from parosc.wigner import wigner_transform


@pytest.fixture
def boundary_tol(monkeypatch):
    """Sets the transform's edge-mass tolerance for one test, for grids that cut the state."""
    return lambda tol: monkeypatch.setattr(wigner, "_BOUNDARY_TOL", tol)


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


def test_against_brute_force_oracle(boundary_tol):
    boundary_tol(1.0)
    rng = np.random.default_rng(11)
    dim = 6
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    lam = 0.35
    qs = np.linspace(-2.5, 2.5, 21)
    ps = np.linspace(-2.5, 2.5, 19)
    grid = wigner_transform(rho, lam, qs, ps)
    oracle = brute_force_wigner(rho, lam, qs, ps)
    assert np.max(np.abs(grid.values - oracle)) < 1e-6


@pytest.mark.parametrize("lam", [0.1, 0.5])
def test_fock_states_match_laguerre_closed_form(lam, boundary_tol):
    # W of |n><n| is (-1)^n L_n(2 r^2/lam) exp(-r^2/lam) / (pi lam), r^2 = Q^2 + P^2;
    # the high-n states probe the recurrence far from the vacuum
    boundary_tol(np.inf)
    from scipy.special import eval_laguerre

    dim = 40
    qs = np.linspace(-3.0, 3.0, 61)
    ps = np.linspace(-3.0, 3.0, 47)
    r2 = qs[:, None] ** 2 + ps[None, :] ** 2
    for n in (0, 1, 2, 7, 20, 30, 39):
        rho = np.zeros((dim, dim))
        rho[n, n] = 1.0
        grid = wigner_transform(rho, lam, qs, ps)
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


def test_coherent_eigenstate_lobe_position_analytic(boundary_tol):
    # at unit scaled detuning the double-well eigenstates are coherent states
    # with occupation f, so their lobes sit at Q = +-sqrt(2*lam*f) = +-1
    # exactly, for every drive; this pins the quadrature scaling.
    boundary_tol(1.0)
    from parosc.spectrum import eigenstate_by_label

    f = 3.0
    lam = 1.0 / (2.0 * f)
    _, phi = eigenstate_by_label(FockSpace(50), 1.0, f, 1, 0)
    rho = np.outer(phi, phi.conj())
    qs = np.linspace(0.5, 1.5, 201)
    ps = np.linspace(-0.4, 0.4, 81)
    grid = wigner_transform(rho, lam, qs, ps)
    i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    assert qs[i] == pytest.approx(1.0, abs=0.01)
    assert ps[j] == pytest.approx(0.0, abs=0.01)


def test_prepared_cat_lobe_sits_inside_classical_well(boundary_tol):
    # the exact lobe of the delta=0, f=5 double-well ground state sits at
    # Q ~ 0.885, inside the classical minimum Q0 = 1 by an amount that is a
    # real quantum correction at lam = 0.1 (frozen from fine-grid runs)
    boundary_tol(1.0)
    from parosc.spectrum import eigenstate_by_label

    _, phi = eigenstate_by_label(FockSpace(60), 0.0, 5.0, 1, 0)
    rho = np.outer(phi, phi.conj())
    qs = np.linspace(0.5, 1.5, 201)
    ps = np.linspace(-0.3, 0.3, 61)
    grid = wigner_transform(rho, 0.1, qs, ps)
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


def _random_rho(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def cahill_glauber_sum(rho, lam, qs, ps):
    """Oracle: the double sum over Fock pairs m <= n of the closed-form elements."""
    from scipy.special import eval_genlaguerre, gammaln

    two_a = np.sqrt(2.0 / lam) * (ps[None, :] - 1j * qs[:, None])
    r2 = np.abs(two_a) ** 2
    w = np.zeros(r2.shape)
    for m in range(rho.shape[0]):
        for n in range(m, rho.shape[0]):
            k = n - m
            elem = ((-1) ** m * np.exp(0.5 * (gammaln(m + 1) - gammaln(n + 1))) * two_a ** k
                    * eval_genlaguerre(m, k, r2) * np.exp(-0.5 * r2) / (np.pi * lam))
            w += ((1 if k == 0 else 2) * rho[m, n] * elem).real
    return w


@pytest.mark.parametrize("dim", [1, 5, 12])
@pytest.mark.parametrize("axes", [
    (np.linspace(-3.0, 3.0, 41), np.linspace(-3.0, 3.0, 41)),
    (np.linspace(-2.7, 3.1, 37), np.linspace(-3.3, 2.4, 29)),
], ids=["symmetric", "asymmetric"])
def test_dense_state_matches_double_sum(dim, axes, boundary_tol):
    # symmetric axes share radii between points; asymmetric ones share almost none
    boundary_tol(np.inf)
    lam = 0.35
    rho = _random_rho(np.random.default_rng(dim), dim)
    grid = wigner_transform(rho, lam, *axes)
    oracle = cahill_glauber_sum(rho, lam, *axes)
    # measured <= 5.2e-16 in units of 1/(pi lam)
    assert np.max(np.abs(grid.values - oracle)) < 2e-15 / (np.pi * lam)


@pytest.mark.parametrize("m, n", [(40, 79), (60, 79), (20, 60)])
def test_high_fock_coherences_match_mpmath(m, n, boundary_tol):
    # rho = (|m><n| + |n><m|)/2 at d = 80, lam = 0.5, on 14 points with r^2 from
    # 8 to 100: a 60-digit evaluation of the closed form gives errors <= 2.6e-16
    # in units of 1/(pi lam), where a recurrence along the rows loses every digit
    boundary_tol(np.inf)
    import mpmath

    mpmath.mp.dps = 60
    lam, dim = 0.5, 80
    qs, ps = np.linspace(1.0, 4.0, 7), np.array([1.0, 3.0])
    rho = np.zeros((dim, dim))
    rho[m, n] = rho[n, m] = 0.5
    grid = wigner_transform(rho, lam, qs, ps)

    def exact(q, p):
        two_a = mpmath.sqrt(mpmath.mpf(2) / lam) * (mpmath.mpf(p) - 1j * mpmath.mpf(q))
        r2 = abs(two_a) ** 2
        w = ((-1) ** m * mpmath.sqrt(mpmath.factorial(m) / mpmath.factorial(n))
             * two_a ** (n - m) * mpmath.laguerre(m, n - m, r2) * mpmath.exp(-r2 / 2)
             / (mpmath.pi * lam))
        return float(mpmath.re(w))

    oracle = np.array([[exact(q, p) for p in ps] for q in qs])
    assert np.max(np.abs(oracle)) * np.pi * lam > 0.05
    assert np.max(np.abs(grid.values - oracle)) < 1e-15 / (np.pi * lam)


def test_transform_holds_less_than_one_complex_grid_per_fock_index(boundary_tol):
    # the CLI's 101 x 101 grid at d = 50: the radial factors live on the 2,683
    # distinct radii of this grid at lam = 0.1, and only one diagonal is summed
    # at a time
    boundary_tol(np.inf)
    import tracemalloc

    dim = 50
    axis = np.linspace(-2.5, 2.5, 101)
    rho = _random_rho(np.random.default_rng(3), dim)
    tracemalloc.start()
    try:
        wigner_transform(rho, 0.1, axis, axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dim * axis.size ** 2 * np.dtype(complex).itemsize


def summed_diagonals(rho, lam, qs, ps):
    """(W, the diagonals k that wigner_transform sums), with no edge-mass check."""
    summed = []

    def spy(c, radii, gauss, k):
        summed.append(k)
        return diagonal_sum(c, radii, gauss, k)

    diagonal_sum = wigner._diagonal_sum
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wigner, "_diagonal_sum", spy)
        mp.setattr(wigner, "_BOUNDARY_TOL", np.inf)
        values = wigner_transform(rho, lam, qs, ps).values
    return values, summed


def parity_rho(rng, dim, kind):
    """A random density matrix: even or odd parity, a mixture of both, or no parity."""
    z = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    if kind in ("even", "odd"):
        z[(1 if kind == "even" else 0)::2] = 0.0
    rho = z @ z.conj().T
    if kind == "both parities":     # no coherence between the two parities
        rho[(np.add.outer(np.arange(dim), np.arange(dim)) % 2) == 1] = 0.0
    return rho / np.trace(rho).real


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dim=st.integers(2, 40),
       kind=st.sampled_from(["even", "odd", "both parities", "no parity"]),
       lam=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1))
def test_skipped_diagonals_leave_every_bit(dim, kind, lam, seed):
    # a parity state has rho_m,m+k = 0 for odd k: those diagonals are not
    # summed, and W equals the pass over every diagonal to the bit
    rho = parity_rho(np.random.default_rng(seed), dim, kind)
    qs, ps = np.linspace(-2.0, 2.0, 23), np.linspace(-1.7, 2.3, 19)
    values, summed = summed_diagonals(rho, lam, qs, ps)
    assert values.tobytes() == wigner_every_diagonal(rho, lam, qs, ps).tobytes()
    assert sorted(summed) == [k for k in range(dim) if np.diagonal(rho, k).any()]
    if kind != "no parity":
        assert all(k % 2 == 0 for k in summed)


def test_tiny_odd_coherence_is_summed():
    # an even state whose one odd coherence is 1e-300: nonzero, so k = 1 is summed
    rho = parity_rho(np.random.default_rng(1), 12, "even")
    rho[0, 1], rho[1, 0] = 1e-300, 1e-300
    qs = np.linspace(-2.0, 2.0, 21)
    values, summed = summed_diagonals(rho, 0.3, qs, qs)
    assert values.tobytes() == wigner_every_diagonal(rho, 0.3, qs, qs).tobytes()
    assert sorted(summed) == [0, 1, 2, 4, 6, 8, 10]
