import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from helpers import (check_density_matrix, dense_generator, evolve_master, expectation_number,
                     same_parity_gap, trace_preservation_residual)
from parosc.fock import FockSpace
from parosc.lindblad import Gather, Liouvillian, build_liouvillian, state_decay_rate, steady_state
from parosc.radiation import _odd_operators
from parosc.rwa import RwaSystem
from parosc.spectrum import eigenstate_by_label, spectrum_vs_drive


def make_liouvillian(dim, delta, f, gt):
    return build_liouvillian(FockSpace(dim), RwaSystem(delta=delta, f=f), gt)


class TestGenerator:
    def test_trace_functional_annihilated(self):
        liou = make_liouvillian(12, 1.1, 0.8, 0.3)
        assert trace_preservation_residual(liou) < 1e-12

    def test_trace_of_generator_on_random_hermitian(self):
        rng = np.random.default_rng(4)
        liou = make_liouvillian(10, 0.4, 1.2, 0.7)
        for _ in range(5):
            m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
            rho = m + m.conj().T
            assert abs(np.trace(liou.apply(rho))) < 1e-11 * np.max(np.abs(rho))

    def test_single_quantum_decay_rate(self):
        # f=0, rho=|1><1|: d<n>/dt = -2 gamma_tilde
        gt = 0.35
        liou = make_liouvillian(8, 0.9, 0.0, gt)
        sp = FockSpace(8)
        rho = np.outer(sp.basis_state(1), sp.basis_state(1))
        drho = liou.apply(rho)
        n_op = np.diag(np.arange(8))
        assert np.trace(n_op @ drho).real == pytest.approx(-2 * gt)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(delta=st.floats(-2.0, 3.0), f=st.floats(0.0, 2.0), gt=st.floats(0.0, 1.0),
           dim=st.integers(2, 12), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @example(delta=1.8, f=1.0, gt=0.1, dim=2, k=2, seed=0)    # H has no +-2 band
    def test_apply_on_a_stack_matches_dense_generator(self, delta, f, gt, dim, k, seed):
        liou = make_liouvillian(dim, delta, f, gt)
        lmat = dense_generator(liou)
        assert max(np.diff(s.gen.matrix.indptr).max() for s in liou.sectors) <= 6
        rng = np.random.default_rng(seed)
        rho = rng.normal(size=(k, dim, dim)) + 1j * rng.normal(size=(k, dim, dim))
        out = liou.apply(rho)
        assert out.shape == rho.shape
        bound = 1e-13 * np.max(np.abs(lmat)) * np.max(np.abs(rho))
        for r, o in zip(rho, out):
            assert np.max(np.abs(o - (lmat @ r.reshape(-1)).reshape(dim, dim))) < bound

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            make_liouvillian(8, 0.0, 0.0, -0.1)

    def test_steady_state_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            Liouvillian(FockSpace(4), RwaSystem(0.0, 0.5), 0.3, np.eye(4))


class TestParitySectors:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(delta=st.floats(-2.0, 3.0), f=st.floats(0.0, 2.0),
           gt=st.floats(0.05, 1.0), dim=st.integers(3, 12))
    def test_sector_structure(self, delta, f, gt, dim):
        liou = make_liouvillian(dim, delta, f, gt)
        lmat = dense_generator(liou)
        m, n = np.divmod(np.arange(dim * dim), dim)
        parity = (m + n) % 2
        cross = parity[:, None] != parity[None, :]
        assert np.all(lmat[cross] == 0.0)

        # sector eigenvalues against the unsplit matrix, paired as multisets
        mu = np.concatenate([np.linalg.eigvals(s.block) for s in liou.sectors])
        ref = np.linalg.eigvals(lmat)
        rows, cols = linear_sum_assignment(np.abs(mu[:, None] - ref[None, :]))
        scale = max(np.max(np.abs(ref)), 1.0)
        assert np.max(np.abs(mu[rows] - ref[cols])) < 1e-9 * scale

        rho_st = steady_state(liou)
        assert np.all(rho_st.reshape(-1)[parity == 1] == 0.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(delta=st.floats(-2.0, 3.0), f=st.floats(0.0, 2.0),
           gt=st.floats(0.01, 2.0), dim=st.integers(3, 20))
    def test_blocks_are_block_tridiagonal_in_m_plus_n(self, delta, f, gt, dim):
        # row s = m + n reads only s - 2, s and s + 2: the even elimination
        # relies on it, and an odd-sector resolvent would too
        liou = make_liouvillian(dim, delta, f, gt)
        for sector in liou.sectors:
            s = np.sum(np.divmod(sector.idx, dim), axis=0)
            far = np.abs(s[:, None] - s[None, :]) > 2
            assert np.all(sector.block[far] == 0.0)


class TestHermitianBasis:
    """Each sector block is the real matrix T^H L_s T in the Hermitian basis."""

    @staticmethod
    def hermitian_basis(dim, idx):
        """T with column k the basis element at entry idx[k], in the sector's Fock entries."""
        pos = {int(i): k for k, i in enumerate(idx)}
        t = np.zeros((idx.size, idx.size), complex)
        r = np.sqrt(0.5)
        for k, i in enumerate(idx):
            m, n = divmod(int(i), dim)
            j = pos[n * dim + m]
            if m == n:          # E_mm
                t[k, k] = 1.0
            elif m < n:         # (E_mn + E_nm)/sqrt(2)
                t[k, k] = t[j, k] = r
            else:               # i(E_nm - E_mn)/sqrt(2) of the pair n < m
                t[j, k], t[k, k] = 1j * r, -1j * r
        return t

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(delta=st.floats(-2.0, 3.0), f=st.floats(0.0, 2.0),
           gt=st.floats(0.05, 1.0), dim=st.integers(2, 12))
    @example(delta=1.8, f=1.0, gt=0.1, dim=2)    # H has no +-2 band
    def test_real_blocks_in_hermitian_basis(self, delta, f, gt, dim):
        liou = make_liouvillian(dim, delta, f, gt)
        lmat = dense_generator(liou)
        scale = np.max(np.abs(lmat))
        for sector in liou.sectors:
            t = self.hermitian_basis(dim, sector.idx)
            eye = np.eye(sector.idx.size)
            assert np.max(np.abs(t.conj().T @ t - eye)) < 1e-14
            # the maps are T^H and T: as gathers on rows, eye -> conj(T) and T^T
            assert np.max(np.abs(sector.to_herm(eye) - t.conj())) < 1e-15
            assert np.max(np.abs(sector.to_fock(eye) - t.T)) < 1e-15
            dense = t.conj().T @ lmat[np.ix_(sector.idx, sector.idx)] @ t
            assert sector.block.dtype == np.float64
            assert np.max(np.abs(sector.block - dense)) < 1e-13 * scale

        mu = np.concatenate([np.linalg.eigvals(s.block) for s in liou.sectors])
        ref = np.linalg.eigvals(lmat)
        rows, cols = linear_sum_assignment(np.abs(mu[:, None] - ref[None, :]))
        assert np.max(np.abs(mu[rows] - ref[cols])) < 1e-9 * max(np.max(np.abs(ref)), 1.0)


def term_sum(gather, v):
    """The terms coef[i, j] v[..., pos[i, j]] summed over j, and the sum of their moduli."""
    terms = v[..., gather.pos] * gather.coef
    return terms.sum(axis=-1), np.abs(terms).sum(axis=-1)


# largest |Gather(v) - term sum| allowed, in units of eps sum_j |coef v|
GATHER_TOL = 4


class TestGather:
    """The CSR product of a Gather against its explicit term sum."""

    @staticmethod
    def assert_matches_terms(gather, v):
        out = gather(v)
        ref, scale = term_sum(gather, v)
        assert out.shape == v.shape[:-1] + (len(gather.pos),)
        assert out.dtype == ref.dtype
        assert np.all(np.abs(out - ref) <= GATHER_TOL * np.finfo(float).eps * scale)

    @staticmethod
    def vectors(rng, shape, complex_input):
        v = rng.normal(size=shape)
        return v + 1j * rng.normal(size=shape) if complex_input else v

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 30), m=st.integers(1, 30), k=st.integers(1, 4),
           shape=st.sampled_from([(), (3,), (2, 5)]), complex_input=st.booleans(),
           complex_coef=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_random_terms(self, n, m, k, shape, complex_input, complex_coef, seed):
        # repeated positions and zero coefficients among the terms
        rng = np.random.default_rng(seed)
        pos = rng.integers(0, m, size=(n, k))
        coef = self.vectors(rng, (n, k), complex_coef) * (rng.random((n, k)) > 0.2)
        self.assert_matches_terms(Gather(pos, coef),
                                  self.vectors(rng, shape + (m,), complex_input))

    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
    @pytest.mark.parametrize("complex_input", [False, True])
    def test_sector_maps_and_seed_map(self, shape, complex_input):
        # to_herm and to_fock read a diagonal entry twice (pos = (k, k)); the
        # seed map is composed by `after` and has zero terms in the last column
        liou = make_liouvillian(9, 1.8, 1.0, 0.1)
        even, odd = liou.sectors
        _, seed = _odd_operators(liou)
        assert np.any(even.to_herm.pos[:, 0] == even.to_herm.pos[:, 1])
        assert np.any(seed.coef == 0)
        rng = np.random.default_rng(11)
        for gather, m in ((even.to_herm, even.idx.size), (even.to_fock, even.idx.size),
                          (odd.to_herm, odd.idx.size), (seed, even.idx.size)):
            self.assert_matches_terms(gather, self.vectors(rng, shape + (m,), complex_input))


class TestEvolve:
    def test_exponential_occupation_decay(self):
        gt = 0.25
        sp = FockSpace(8)
        liou = make_liouvillian(8, 0.7, 0.0, gt)
        rho0 = np.outer(sp.basis_state(1), sp.basis_state(1))
        ts = np.linspace(0.0, 4.0, 9)
        rhos = evolve_master(liou, rho0, ts)
        nbar = [expectation_number(r) for r in rhos]
        assert np.allclose(nbar, np.exp(-2 * gt * ts), atol=1e-8)

    def test_purity_conserved_without_dissipation(self):
        sp = FockSpace(16)
        liou = make_liouvillian(16, 0.5, 1.0, 0.0)
        psi = (sp.basis_state(0) + sp.basis_state(2)) / np.sqrt(2)
        rho0 = np.outer(psi, psi.conj())
        rhos = evolve_master(liou, rho0, np.linspace(0, 3.0, 4))
        for rho in rhos:
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-7)

    def test_trace_hermiticity_positivity_along_flow(self):
        sp = FockSpace(14)
        liou = make_liouvillian(14, 1.8, 1.0, 0.1)
        psi = sp.vacuum()
        rho0 = np.outer(psi, psi.conj())
        rhos = evolve_master(liou, rho0, np.linspace(0, 20.0, 11))
        for rho in rhos:
            assert abs(np.trace(rho).real - 1.0) < 1e-8
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-8
            assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() > -1e-7

    def test_dissipator_mixes_parity(self):
        sp = FockSpace(12)
        liou = make_liouvillian(12, 0.0, 1.0, 0.2)
        _, phi = eigenstate_by_label(sp, 0.0, 1.0, 1, 0)
        rho0 = np.outer(phi, phi.conj())
        rho_t = evolve_master(liou, rho0, np.array([0.0, 2.0]))[-1]
        odd_mass = np.sum(np.diag(rho_t).real[1::2])
        assert odd_mass > 1e-3

    def test_long_time_reaches_steady_state(self):
        liou = make_liouvillian(12, 1.8, 1.0, 0.3)
        sp = FockSpace(12)
        rho0 = np.outer(sp.vacuum(), sp.vacuum())
        rho_t = evolve_master(liou, rho0, np.array([0.0, 60.0]))[-1]
        rho_st = steady_state(liou)
        # trace distance
        w = np.linalg.eigvalsh(rho_t - rho_st)
        assert 0.5 * np.sum(np.abs(w)) < 1e-6


class TestSteadyState:
    def test_vacuum_without_drive(self):
        liou = make_liouvillian(10, 1.3, 0.0, 0.4)
        rho_st = steady_state(liou)
        expected = np.zeros((10, 10))
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho_st - expected)) < 1e-10

    def test_requires_dissipation(self):
        liou = make_liouvillian(8, 0.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            steady_state(liou)

    def test_driven_steady_state_validity(self):
        liou = make_liouvillian(20, 1.8, 1.0, 0.1)
        rho_st = steady_state(liou)
        check_density_matrix(rho_st, herm_tol=1e-10, trace_tol=1e-10, eig_tol=1e-8)
        assert expectation_number(rho_st) > 0.1   # both wells populated
        assert np.max(np.abs(liou.apply(rho_st))) < 1e-10

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(dim=st.integers(4, 20), delta=st.floats(-2.0, 3.0), f=st.floats(0.0, 1.5),
           gt=st.floats(0.05, 1.0))
    def test_positive_unit_trace_hermitian(self, dim, delta, f, gt):
        rho_st = steady_state(make_liouvillian(dim, delta, f, gt))
        assert np.max(np.abs(rho_st - rho_st.conj().T)) < 1e-12
        assert abs(np.trace(rho_st) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho_st).min() >= -1e-12

    def test_degenerate_null_space_raises(self):
        # zero sector blocks leave every even vector stationary
        liou = make_liouvillian(6, 0.0, 0.0, 1.0)
        liou.sectors = tuple(s._replace(block=np.zeros_like(s.block)) for s in liou.sectors)
        with pytest.raises(RuntimeError, match="degenerate null space"):
            steady_state(liou)

    def test_one_singular_schur_block_raises(self):
        # a zero row and column at the top coordinate (d-1, d-1) leaves the rest
        # of the even block physical, but makes its 1 x 1 Schur block S_{2d-2} zero
        dim = 8
        liou = make_liouvillian(dim, 1.8, 1.0, 0.1)
        even = liou.sectors[0]
        block = even.block.copy()
        top = int(np.flatnonzero(even.idx == dim * dim - 1)[0])
        block[top, :] = block[:, top] = 0.0
        liou.sectors = (even._replace(block=block), liou.sectors[1])
        with pytest.raises(RuntimeError, match="degenerate null space"):
            steady_state(liou)

    def test_sigma_ratio_at_the_bench_config(self):
        # bench/configs/dissipation.json; the smallest Schur-block ratio measured
        # there is 1.1e-2 (the stacked matrix of a least-squares solve had 2.9e-4)
        liou = make_liouvillian(24, 1.8, 1.0, 0.1)
        assert liou.steady_sigma_ratio is None
        steady_state(liou)
        assert 1e-8 <= liou.steady_sigma_ratio <= 1.0


class TestEvenElimination:
    @staticmethod
    def dense_solve(liou, b, trace):
        """Least-squares y of the even block stacked with the trace row: L y = b, Tr y = trace."""
        even = liou.sectors[0]
        tr_row = even.to_herm(np.eye(liou.dim).reshape(-1)[even.idx]).real
        return tr_row, np.linalg.lstsq(np.vstack([even.block, tr_row]), np.append(b, trace),
                                       rcond=None)[0]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(dim=st.integers(4, 24), delta=st.floats(-2.0, 3.0), f=st.floats(0.0, 1.5),
           gt=st.floats(0.01, 2.0), seed=st.integers(0, 2**32 - 1))
    @example(dim=24, delta=1.8, f=1.0, gt=0.01, seed=0)
    def test_matches_dense_least_squares(self, dim, delta, f, gt, seed):
        # the steady state and Y = Int_0^inf (rho(t) - rho_st) dt, the two even
        # solves, against the stacked least-squares system; over these cases
        # the largest difference measured was 3.0e-12 of max|y| (d = 24,
        # gt = 0.01) and the largest residual 8.7e-17
        liou = make_liouvillian(dim, delta, f, gt)
        even = liou.sectors[0]
        scale = np.max(np.abs(even.block))
        rho_st = steady_state(liou).reshape(-1)[even.idx]
        y_st = even.to_herm(rho_st).real
        tr_row, ref_st = self.dense_solve(liou, np.zeros(len(even.idx)), 1.0)
        assert np.max(np.abs(y_st - ref_st)) <= 1e-10 * np.max(np.abs(ref_st))
        assert np.max(np.abs(even.block @ y_st)) <= 1e-12 * scale * np.max(np.abs(y_st))

        rng = np.random.default_rng(seed)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho0 = m @ m.conj().T
        b = -even.to_herm((rho0 / np.trace(rho0).real).reshape(-1)[even.idx] - rho_st).real
        y = liou.even_solve(b, 0.0)
        y -= (tr_row @ y) * y_st
        ref = self.dense_solve(liou, b, 0.0)[1]
        assert np.max(np.abs(y - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert np.max(np.abs(even.block @ y - b)) <= 1e-12 * scale * np.max(np.abs(y))


class TestDecayRate:
    def test_fock_states_exact(self):
        sp = FockSpace(12)
        gt = 0.7
        for n in range(5):
            assert state_decay_rate(sp.basis_state(n), gt) == 2 * gt * n

    def test_vacuum_zero(self):
        assert state_decay_rate(FockSpace(6).vacuum(), 1.3) == 0.0

    def test_strong_drive_growth(self):
        # the lowest even state's decay rate grows linearly in f with slope
        # 2*gamma_tilde*(d<n>/df); <n> ~ f in the double-well regime
        sp = FockSpace(120)
        gt = 1.0
        fs = np.linspace(3.0, 6.0, 7)
        rates = []
        for f in fs:
            _, phi = eigenstate_by_label(sp, 0.0, f, 1, 0)
            rates.append(state_decay_rate(phi, gt))
        slope = np.polyfit(fs, rates, 1)[0]
        assert slope == pytest.approx(2 * gt * 1.10, rel=0.1)


class TestDecayVsGap:
    def test_both_linear_and_slope_ratio(self):
        # measured physics at delta=0 on f in [3, 6]:
        #   Gamma_E = 2 gt <n> with d<n>/df ~ 1.10  -> slope ~ 2.2 gt
        #   Delta_E (same-parity gap)              -> slope ~ 2.02
        # so the slopes match near gt ~ 0.9, and the ratio scales with gt
        sp = FockSpace(120)
        fs = np.linspace(3.0, 6.0, 13)
        series = spectrum_vs_drive(sp, 0.0, fs, 3)
        gaps = same_parity_gap(series, 1, 0)
        slope_gap = np.polyfit(fs, gaps, 1)[0]
        resid = gaps - np.polyval(np.polyfit(fs, gaps, 1), fs)
        r2_gap = 1 - np.sum(resid**2) / np.sum((gaps - gaps.mean()) ** 2)
        assert r2_gap > 0.98
        for gt in (0.5, 1.0, 2.0):
            rates = []
            for f in fs:
                _, phi = eigenstate_by_label(sp, 0.0, f, 1, 0)
                rates.append(state_decay_rate(phi, gt))
            slope_rate = np.polyfit(fs, rates, 1)[0]
            assert slope_rate / slope_gap == pytest.approx(1.09 * gt, rel=0.05)
