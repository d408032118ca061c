import ast
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from parosc.fock import FockSpace, ladder_operators
from helpers import (dense_generator, evolve_master, expectation_number, fock_rows,
                     two_time_correlator)
from parosc.lindblad import build_liouvillian, steady_state
from parosc import radiation
from parosc.radiation import (
    _BLOCK,
    _expm,
    _fourier_quadrature,
    _SteppingFlow,
    emission_spectra,
    spectrum_time_grid,
    sum_rule_check,
)
from parosc.ramp import RampProtocol, evolve_ramp
from parosc.rwa import RwaSystem
from parosc.spectrum import eigenstate_by_label


def make_liouvillian(dim, delta, f, gt):
    return build_liouvillian(FockSpace(dim), RwaSystem(delta=delta, f=f), gt)


def prepared_state(dim, delta, f, s_tilde=0.06):
    sp = FockSpace(dim)
    protocol = RampProtocol(delta=delta, f_final=f, s_tilde=s_tilde,
                            initial_state=sp.vacuum())
    psi = evolve_ramp(sp, protocol, rel_tol=1e-8).final_state
    return np.outer(psi, psi.conj())


def transient(liou, rho0, T_max, xs):
    return emission_spectra(liou, rho0, T_max, xs)[0]


def stationary(liou, xs, T_max):
    """Q_st of emission_spectra, which does not depend on the prepared state."""
    return emission_spectra(liou, steady_state(liou), T_max, xs)[1]


class TestCorrelator:
    def test_single_decay_closed_form(self):
        # f=0, rho0=|1><1|: C(t1,t2) = e^{-2 gt t1} e^{(i(delta-1)-gt)(t2-t1)}
        dim, delta, gt = 8, 0.4, 0.3
        sp = FockSpace(dim)
        liou = make_liouvillian(dim, delta, 0.0, gt)
        rho0 = np.outer(sp.basis_state(1), sp.basis_state(1))
        ts = np.linspace(0.0, 3.0, 13)
        corr = two_time_correlator(liou, rho0, ts)
        assert corr.shape == (len(ts), len(ts))
        for i, t1 in enumerate(ts):
            tau = ts[i:] - t1
            expected = np.exp(-2 * gt * t1) * np.exp((1j * (delta - 1) - gt) * tau)
            assert np.max(np.abs(corr[i, i:] - expected)) < 1e-10

    def test_equal_time_diagonal_is_occupation(self):
        # dual route: the regression diagonal must equal <n>(t) from the
        # master-equation integrator
        dim = 10
        liou = make_liouvillian(dim, 1.8, 0.8, 0.2)
        sp = FockSpace(dim)
        rho0 = np.outer(sp.basis_state(2), sp.basis_state(2))
        ts = np.linspace(0.0, 5.0, 11)
        diag = np.diag(two_time_correlator(liou, rho0, ts))
        assert np.max(np.abs(diag.imag)) < 1e-10
        rhos = evolve_master(liou, rho0, ts)
        nbar = np.array([expectation_number(r) for r in rhos])
        assert np.max(np.abs(diag.real - nbar)) < 1e-8

    def test_stationarity_of_steady_correlator(self):
        dim = 12
        liou = make_liouvillian(dim, 1.8, 1.0, 0.4)
        rho_st = steady_state(liou)
        ts = np.linspace(0.0, 4.0, 9)
        corr = two_time_correlator(liou, rho_st, ts)
        # in the steady state C(t1, t1 + tau) = C_st(tau) is row 0 for every t1
        for i in range(len(ts)):
            assert np.max(np.abs(corr[i, i:] - corr[0, : len(ts) - i])) < 1e-10

    def test_grid_validation(self):
        liou = make_liouvillian(6, 0.0, 0.0, 0.1)
        rho0 = np.zeros((6, 6)); rho0[0, 0] = 1
        with pytest.raises(ValueError):
            two_time_correlator(liou, rho0, np.array([1.0, 2.0]))


class TestTransientSpectrum:
    def test_steady_seed_gives_zero(self):
        liou = make_liouvillian(10, 1.8, 0.7, 0.2)
        rho_st = steady_state(liou)
        xs = np.linspace(-4, 4, 101)
        spec = transient(liou, rho_st, 60.0, xs)
        assert np.max(np.abs(spec)) < 1e-8

    def test_single_decay_lorentzian(self):
        # f=0 emission from |1>: Lorentzian of width gt centered at x = 1-delta
        dim, delta, gt = 8, 0.4, 0.1
        sp = FockSpace(dim)
        liou = make_liouvillian(dim, delta, 0.0, gt)
        rho0 = np.outer(sp.basis_state(1), sp.basis_state(1))
        xs = np.linspace(-3, 3, 601)
        spec = transient(liou, rho0, 150.0, xs)
        x_peak = xs[np.argmax(spec)]
        assert x_peak == pytest.approx(1 - delta, abs=0.02)
        # closed form: E_rad(x) = 1 / (gt^2 + (x - x0)^2), peak 1/gt^2
        exact = 1.0 / (gt**2 + (xs - (1 - delta)) ** 2)
        assert np.max(np.abs(spec - exact)) < 0.02 * exact.max()

    def test_relaxation_guard(self):
        liou = make_liouvillian(6, 0.0, 0.2, 0.1)
        rho0 = np.zeros((6, 6)); rho0[1, 1] = 1
        with pytest.raises(ValueError):
            emission_spectra(liou, rho0, 5.0, np.linspace(-1, 1, 11))

    def test_strong_drive_peak_dip_structure(self):
        # prepared second-lowest even state: positive peak at +(E-E'), negative
        # dip at -(E-E'), narrow negative interwell feature at x=0
        dim, delta, f, gt = 24, 1.8, 1.0, 0.1
        rho0 = prepared_state(dim, delta, f)
        liou = make_liouvillian(dim, delta, f, gt)
        e_even, _ = eigenstate_by_label(FockSpace(dim), delta, f, 1, 1)
        e_odd, _ = eigenstate_by_label(FockSpace(dim), delta, f, -1, 0)
        gap = e_even - e_odd
        xs = np.linspace(-6.0, 6.0, 601)
        spec = transient(liou, rho0, 120.0, xs)
        assert xs[np.argmax(spec)] == pytest.approx(gap, abs=0.05)
        near_zero = np.abs(xs) < 0.15
        assert spec[near_zero].min() < 0
        # local negative dip at the mirror frequency
        mirror = (xs > -gap - 0.4) & (xs < -gap + 0.4)
        assert spec[mirror].min() < 0
        j = np.argmin(np.abs(xs + gap))
        assert spec[j] < 0

    def test_weak_drive_dominant_dip(self):
        dim, delta, f, gt = 16, 1.8, 0.1, 0.1
        rho0 = prepared_state(dim, delta, f, s_tilde=0.02)
        liou = make_liouvillian(dim, delta, f, gt)
        xs = np.linspace(-3.0, 3.0, 601)
        spec = transient(liou, rho0, 120.0, xs)
        # dominant negative dip near the undriven 1->0 emission line, which is
        # x = 1 - delta below the half-drive frequency
        assert xs[np.argmin(spec)] == pytest.approx(-(delta - 1), abs=0.05)

    def test_doubling_horizon_stable(self):
        dim, delta, f, gt = 12, 1.8, 0.5, 0.2
        sp = FockSpace(dim)
        _, phi = eigenstate_by_label(sp, delta, f, 1, 1)
        rho0 = np.outer(phi, phi.conj())
        liou = make_liouvillian(dim, delta, f, gt)
        xs = np.linspace(-4, 4, 201)
        s1 = transient(liou, rho0, 60.0, xs)
        s2 = transient(liou, rho0, 120.0, xs)
        assert np.max(np.abs(s1 - s2)) < 1e-2 * np.max(np.abs(s2))

    def test_matches_explicit_double_trapezoid(self):
        # the discrete definition: outer trapezoid over tau, inner trapezoid
        # over t' in [0, T - tau] of C(t', t' + tau) - C_st(tau), built from the
        # full-space correlators; the coherent rho0 occupies both sectors
        sp = FockSpace(8)
        liou = make_liouvillian(8, 1.1, 0.9, 0.25)
        psi = sp.coherent_state(0.6 + 0.3j)
        rho0 = np.outer(psi, psi.conj())
        # max|x| = 1 makes the step min(0.05/gamma_tilde, 0.2/max|x|) = 0.2
        T, dt = 40.0, 0.2
        xs = np.linspace(-0.7, 1.0, 35)
        with pytest.warns(RuntimeWarning, match="not relaxed"):
            spec = transient(liou, rho0, T, xs)
        ts = np.linspace(0.0, T, int(np.ceil(T / dt)) + 1)
        n = len(ts)
        corr = two_time_correlator(liou, rho0, ts)
        c_st = two_time_correlator(liou, steady_state(liou), ts)[0]
        inner = np.zeros(n, dtype=complex)
        for j in range(n - 1):
            diff = np.array([corr[i, i + j] for i in range(n - j)]) - c_st[j]
            inner[j] = dt * (diff.sum() - 0.5 * (diff[0] + diff[-1]))
        w = np.full(n, dt)
        w[0] = w[-1] = 0.5 * dt
        explicit = np.array([2.0 * np.real(np.sum(w * np.exp(1j * x * ts) * inner))
                             for x in xs])
        assert np.max(np.abs(spec - explicit)) < 1e-10 * np.max(np.abs(explicit))

    @pytest.mark.filterwarnings("ignore:state not relaxed")
    @pytest.mark.parametrize("n_t, hermitian", [(2, True), (_BLOCK, True), (_BLOCK + 1, True),
                                                (2 * _BLOCK + 1, True),
                                                (2 * _BLOCK + 1, False)])
    def test_blocks_match_explicit_double_trapezoid(self, monkeypatch, n_t, hermitian):
        # the adjoint rows meet the even prefix one block at a time: grids inside
        # one block, exactly one block, one row past it and one row past two.
        # A non-Hermitian rho0 raises; its Hermitian part, neither pure nor of
        # unit trace, has its even deviation stepped as real coordinates too
        sp = FockSpace(8)
        liou = make_liouvillian(8, 1.1, 0.9, 0.25)
        psi = sp.coherent_state(0.6 + 0.3j)
        phi = psi if hermitian else sp.coherent_state(-0.4 + 0.5j)
        rho0 = np.outer(psi, phi.conj())
        ts = np.linspace(0.0, 0.2 * (n_t - 1), n_t)
        xs = np.linspace(-0.7, 1.0, 35)
        if not hermitian:
            with pytest.raises(ValueError, match="Hermitian"):
                transient(liou, rho0, ts[-1], xs)
            rho0 = 0.5 * (rho0 + rho0.conj().T)
        monkeypatch.setattr(radiation, "spectrum_time_grid", lambda *args: ts)
        shapes = []
        states = _SteppingFlow.states

        def recording(self, s, x, adjoint=False):
            shapes.append((x.shape, x.dtype))
            return states(self, s, x, adjoint)

        monkeypatch.setattr(_SteppingFlow, "states", recording)
        spec = transient(liou, rho0, ts[-1], xs)
        assert shapes[0] == ((liou.sectors[0].idx.size,), np.float64)
        corr = two_time_correlator(liou, rho0, ts)
        c_st = two_time_correlator(liou, steady_state(liou), ts)[0]
        dt = ts[1]
        inner = np.zeros(n_t, dtype=complex)
        for j in range(n_t):
            diff = np.diagonal(corr, j) - c_st[j]      # C(t', t' + tau_j) - C_st(tau_j)
            inner[j] = dt * (diff.sum() - 0.5 * (diff[0] + diff[-1]))
        w = np.full(n_t, dt)
        w[0] = w[-1] = 0.5 * dt
        explicit = 2.0 * np.real(np.exp(1j * np.outer(xs, ts)) @ (w * inner))
        assert np.max(np.abs(spec - explicit)) < 1e-10 * np.max(np.abs(explicit))

    def test_odd_deviation_is_stepped_by_one_states_call(self, monkeypatch):
        # a rho0 with an odd part steps its odd deviation once for the
        # relaxation check, drawing every row, besides the odd adjoint rows
        sp = FockSpace(8)
        liou = make_liouvillian(8, 1.1, 0.9, 0.25)
        psi = sp.coherent_state(0.6 + 0.3j)
        rho0 = np.outer(psi, psi.conj())
        xs = np.linspace(-4.0, 4.0, 11)       # dt = 0.05: 801 rows, seven blocks
        calls, rows_drawn = Counter(), Counter()
        states = _SteppingFlow.states

        def counting(self, s, x, adjoint=False):
            calls[s, adjoint] += 1
            for start, rows in states(self, s, x, adjoint):
                rows_drawn[s, adjoint] += len(rows)
                yield start, rows

        monkeypatch.setattr(_SteppingFlow, "states", counting)
        with pytest.warns(RuntimeWarning, match="not relaxed"):
            transient(liou, rho0, 40.0, xs)
        n_t = len(spectrum_time_grid(liou, 40.0, xs))
        assert n_t > 2 * _BLOCK
        keys = {(0, False), (1, False), (1, True)}
        assert calls == Counter(dict.fromkeys(keys, 1))
        assert rows_drawn == Counter(dict.fromkeys(keys, n_t))

    def test_relaxation_warning_sees_odd_sector(self):
        # the even part is exactly the steady state, so the spectrum vanishes,
        # but the odd coherence has not decayed by T_max
        liou = make_liouvillian(8, 1.1, 0.9, 0.25)
        rho0 = steady_state(liou).copy()
        rho0[0, 1] += 0.3
        rho0[1, 0] += 0.3
        with pytest.warns(RuntimeWarning, match="not relaxed"):
            spec = transient(liou, rho0, 40.0, np.linspace(-2, 2, 21))
        assert np.max(np.abs(spec)) < 1e-10


class TestFrequencyGrid:
    def test_nonuniform_grid_raises(self):
        liou = make_liouvillian(6, 0.4, 0.3, 0.3)
        rho0 = np.zeros((6, 6)); rho0[1, 1] = 1
        xs = np.array([-1.0, 0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="omega_grid must be uniform"):
            emission_spectra(liou, rho0, 40.0, xs)

    def test_one_point_grid(self):
        liou = make_liouvillian(6, 0.4, 0.3, 0.3)
        rho0 = np.zeros((6, 6)); rho0[1, 1] = 1
        xs = np.linspace(-1.0, 1.0, 11)
        one = xs[8:9]
        # both grids get the step 0.05/gamma_tilde, below 0.2/max|x| of either
        *full, full_excess = emission_spectra(liou, rho0, 40.0, xs)
        *singles, single_excess = emission_spectra(liou, rho0, 40.0, one)
        for spectrum, single in zip(full, singles):
            assert single.shape == (1,)
            assert single[0] == pytest.approx(spectrum[8], rel=1e-12, abs=1e-14)
        assert single_excess == full_excess


class TestFourierQuadrature:
    """The chirp-z Fourier sums against the direct phase-matrix product."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_x=st.integers(1, 64), n_t=st.integers(1, 5000),
           x_lo=st.floats(-50.0, 50.0), width=st.floats(0.0, 60.0),
           t0=st.floats(0.0, 5.0), phase=st.floats(1e-2, 1e4),
           seed=st.integers(0, 2**32 - 1))
    @example(n_x=1, n_t=5000, x_lo=-7.3, width=0.0, t0=0.0, phase=1e4, seed=0)
    @example(n_x=2, n_t=5000, x_lo=-1e-3, width=2e-3, t0=0.0, phase=1e4, seed=1)
    @example(n_x=101, n_t=4999, x_lo=0.25, width=30.0, t0=0.0, phase=1e4, seed=2)
    @example(n_x=2, n_t=1, x_lo=3.0, width=1.0, t0=1.0, phase=10.0, seed=3)
    def test_matches_direct_sum(self, n_x, n_t, x_lo, width, t0, phase, seed):
        xs = np.linspace(x_lo, x_lo + width, n_x)
        # the largest phase |x| t over the grids is `phase`
        t_end = phase / max(float(np.max(np.abs(xs))), 1e-3)
        ts = np.linspace(min(t0, t_end / 2), t_end, n_t)
        rng = np.random.default_rng(seed)
        signal = rng.normal(size=n_t) + 1j * rng.normal(size=n_t)
        direct = 2.0 * np.real(np.exp(1j * np.outer(xs, ts)) @ signal)
        got = _fourier_quadrature(xs, ts, signal)
        assert np.max(np.abs(got - direct)) <= 1e-9 * np.sum(np.abs(signal))


class TestSteadySpectrum:
    def test_no_drive_no_emission(self):
        liou = make_liouvillian(8, 0.7, 0.0, 0.3)
        xs = np.linspace(-3, 3, 201)
        spec = stationary(liou, xs, 60.0)
        assert np.max(np.abs(spec)) < 1e-12

    def test_detailed_balance_symmetry(self):
        dim, delta, f, gt = 20, 1.8, 1.0, 0.1
        liou = make_liouvillian(dim, delta, f, gt)
        xs = np.linspace(-6, 6, 601)
        spec = stationary(liou, xs, 120.0)
        sym = np.abs(spec - spec[::-1])
        assert np.max(sym) < 1e-3 * np.max(spec)

    def test_nonnegative(self):
        liou = make_liouvillian(14, 0.5, 0.8, 0.2)
        xs = np.linspace(-5, 5, 401)
        spec = stationary(liou, xs, 80.0)
        assert spec.min() > -1e-8 * spec.max()

    def test_peaks_at_level_differences(self):
        # besides the tall interwell feature at x=0, the steady spectrum has a
        # sideband pair at the transition frequency between the two populated
        # quasienergy states; the long correlation window kills the window
        # ringing of the central peak
        dim, delta, f, gt = 20, 1.8, 1.0, 0.1
        liou = make_liouvillian(dim, delta, f, gt)
        e_even, _ = eigenstate_by_label(FockSpace(dim), delta, f, 1, 1)
        e_odd, _ = eigenstate_by_label(FockSpace(dim), delta, f, -1, 0)
        gap = e_even - e_odd
        xs = np.linspace(1.0, 3.0, 401)
        spec = stationary(liou, xs, 400.0)
        assert xs[np.argmax(spec)] == pytest.approx(gap, abs=0.1)


class TestEmissionSpectra:
    def test_steady_spectrum_matches_correlator_oracle(self):
        # Q_st read off the odd-sector rows against the explicit trapezoid
        # Fourier sum of C_st(tau), row 0 of the full-space correlator
        dim, delta, f, gt = 12, 1.8, 0.5, 0.2
        liou = make_liouvillian(dim, delta, f, gt)
        rho_st = steady_state(liou)
        T, xs = 60.0, np.linspace(-4, 4, 201)
        _, q_st, _ = emission_spectra(liou, rho_st, T, xs)
        dt = min(0.05 / gt, 0.2 / 4.0)
        ts = np.linspace(0.0, T, int(np.ceil(T / dt)) + 1)
        c_st = two_time_correlator(liou, rho_st, ts)[0]
        w = np.full(len(ts), ts[1])
        w[0] = w[-1] = 0.5 * ts[1]
        explicit = 2.0 * np.real(np.exp(1j * np.outer(xs, ts)) @ (w * c_st))
        assert np.max(np.abs(q_st - explicit)) <= 1e-10 * np.max(np.abs(explicit))


    @pytest.mark.filterwarnings("ignore:state not relaxed")
    def test_peak_memory_is_one_prefix_array(self):
        # the one full-length array is the even prefix, n_t x d^2/2 reals; the
        # odd seeds and adjoint rows live one block of times at a time
        dim, T = 16, 120.0
        liou = make_liouvillian(dim, 1.8, 1.0, 0.1)
        psi = FockSpace(dim).coherent_state(1.0 + 0.3j)
        rho0 = np.outer(psi, psi.conj())
        xs = np.linspace(-8.0, 8.0, 801)
        steady_state(liou)                  # cached on liou, as in every run
        prefix_bytes = len(spectrum_time_grid(liou, T, xs)) * (dim * dim // 2) * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            emission_spectra(liou, rho0, T, xs)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 2 * prefix_bytes


class TestPropagation:
    """The sector-wise stepping flow against expm of the full, unsplit generator."""

    @staticmethod
    def coherent_case():
        # a coherent state occupies both (m + n)-parity sectors of rho
        dim = 8
        sp = FockSpace(dim)
        liou = make_liouvillian(dim, 1.1, 0.9, 0.25)
        psi = sp.coherent_state(0.6 + 0.3j)
        return sp, liou, np.outer(psi, psi.conj())

    def test_flow_matches_full_expm(self):
        sp, liou, rho0 = self.coherent_case()
        rng = np.random.default_rng(8)
        ts = np.linspace(0.0, 5.0, 11)
        x0 = rho0.reshape(-1)
        row = rng.normal(size=x0.size) + 1j * rng.normal(size=x0.size)
        lmat = dense_generator(liou)
        props = [expm(lmat * t) for t in ts]
        flow = _SteppingFlow(liou, ts)
        cols = np.stack([p @ x0 for p in props], axis=1)
        rows = np.stack([row @ p for p in props])
        rhos = evolve_master(liou, rho0, ts).reshape(len(ts), -1)
        assert np.max(np.abs(rhos.T - cols)) < 1e-9
        assert np.max(np.abs(fock_rows(flow, row, adjoint=True) - rows)) < 1e-9

    def test_correlator_matches_full_expm(self):
        sp, liou, rho0 = self.coherent_case()
        a, a_dag = ladder_operators(sp)
        d = sp.dim
        ts = np.linspace(0.0, 4.0, 17)
        corr = two_time_correlator(liou, rho0, ts)
        lmat = dense_generator(liou)
        props = [expm(lmat * t) for t in ts]     # uniform grid: tau = ts[j - i]
        for i in range(len(ts)):
            rho_t1 = (props[i] @ rho0.reshape(-1)).reshape(d, d)
            seed = (rho_t1 @ a_dag).reshape(-1)
            for j in range(i, len(ts)):
                m = (props[j - i] @ seed).reshape(d, d)
                assert abs(corr[i, j] - np.trace(a @ m)) < 1e-9

    @pytest.mark.parametrize("n_t", [1, 2, 3, 127, 128, 129, 3 * _BLOCK + 5])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("parts", [1, 2])
    def test_blocked_stepping_matches_single_steps(self, n_t, adjoint, parts, monkeypatch):
        # the first block fills by doubling; past it, the P^B products and a
        # partial last block run.  The input is a Hermitian matrix (parts = 1:
        # its coordinates, as a state or as a row, conj(T^H conj x), are real)
        # or a random complex vector (parts = 2); either steps as one complex
        # vector per sector
        sp, liou, rho0 = self.coherent_case()
        dt = 0.05
        ts = dt * np.arange(n_t)
        rng = np.random.default_rng(3)
        x = rho0.reshape(-1)
        if parts == 2:
            x = rng.normal(size=x.size) + 1j * rng.normal(size=x.size)
        prop = expm(dense_generator(liou) * dt)
        refs = [x]
        for _ in range(n_t - 1):
            refs.append(refs[-1] @ prop if adjoint else prop @ refs[-1])
        flow = _SteppingFlow(liou, ts)
        shapes, states, expms = [], flow.states, []

        def recording(s, y, adjoint=False):
            shapes.append((y.shape, y.dtype))
            return states(s, y, adjoint)

        def counting(a):
            expms.append(a.shape)
            return _expm(a)

        flow.states = recording
        monkeypatch.setattr(radiation, "expm", counting)
        assert np.max(np.abs(fock_rows(flow, x, adjoint) - np.stack(refs))) < 1e-10
        assert shapes == [((sector.idx.size,), np.complex128) for sector in liou.sectors]
        # P is built only if there is a step, once per sector, and is all the flow keeps
        assert len(expms) == (0 if n_t == 1 else len(liou.sectors))
        assert set(flow._props) == (set() if n_t == 1 else {0, 1})
        for s, p in flow._props.items():
            assert np.array_equal(p, _expm(liou.sectors[s].block * dt))

    def test_nonuniform_grid_raises(self):
        sp, liou, rho0 = self.coherent_case()
        ts = np.array([0.0, 0.5, 1.5, 2.0])
        with pytest.raises(ValueError, match="uniform"):
            two_time_correlator(liou, rho0, ts)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dim=st.integers(2, 10), n_t=st.sampled_from([1, 2, 127, 128, 129, 389]),
           adjoint=st.booleans(), s=st.sampled_from([0, 1]), seed=st.integers(0, 2**32 - 1))
    def test_complex_vector_steps_as_its_real_and_imaginary_parts(self, dim, n_t, adjoint, s,
                                                                  seed):
        # P is real, so a complex vector is stepped as its two real parts; the
        # products differ only in rounding, at most 14 eps of a row's largest
        # entry over 600 drawn cases
        liou = make_liouvillian(dim, 1.1, 0.9, 0.25)
        rng = np.random.default_rng(seed)
        m = liou.sectors[s].idx.size
        y = rng.normal(size=m) + 1j * rng.normal(size=m)
        flow = _SteppingFlow(liou, 0.05 * np.arange(n_t))
        blocks = zip(flow.states(s, y, adjoint), flow.states(s, y.real, adjoint),
                     flow.states(s, y.imag, adjoint))
        drawn = 0
        for (start, rows), (_, re), (_, im) in blocks:
            assert start == drawn and rows.dtype == np.complex128
            ref = re + 1j * im
            scale = np.max(np.abs(ref), axis=1, keepdims=True)
            assert np.all(np.abs(rows - ref) <= 32 * np.finfo(float).eps * scale)
            drawn += len(rows)
        assert drawn == n_t


class TestEvolveMaster:
    """rho(t) against expm of the unsplit generator, and the density-matrix invariants."""

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(dim=st.integers(3, 12), delta=st.floats(-2.0, 3.0), f=st.floats(0.0, 2.0),
           gt=st.floats(0.05, 1.0), dt=st.floats(0.01, 0.3), n_t=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1))
    @example(dim=12, delta=1.8, f=1.0, gt=0.1, dt=0.1, n_t=300, seed=0)
    def test_matches_dense_expm_along_a_density_matrix_flow(self, dim, delta, f, gt, dt,
                                                            n_t, seed):
        liou = make_liouvillian(dim, delta, f, gt)
        rng = np.random.default_rng(seed)
        # full rank, so both (m + n)-parity sectors of rho0 are filled
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho0 = m @ m.conj().T
        rho0 /= np.trace(rho0).real
        ts = dt * np.arange(n_t)
        rhos = evolve_master(liou, rho0, ts)
        assert rhos.shape == (n_t, dim, dim)
        scale = np.max(np.abs(rhos))
        # past 128 points the later states are reached through P^128 jumps
        lmat = dense_generator(liou)
        for k in {n_t // 2, n_t - 1}:
            ref = expm(lmat * ts[k]) @ rho0.reshape(-1)
            assert np.max(np.abs(rhos[k].reshape(-1) - ref)) < 1e-10 * scale
        adj = rhos.conj().transpose(0, 2, 1)
        assert np.max(np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0)) < 1e-10
        assert np.max(np.abs(rhos - adj)) < 1e-10
        assert np.linalg.eigvalsh(0.5 * (rhos + adj)).min() > -1e-10

    def test_any_input_steps_as_one_complex_vector_per_sector(self, monkeypatch):
        # the flow multiplies the float view of complex coordinates by the real
        # P, so a Hermitian rho0 and any other matrix alike reach it as one
        # complex vector per sector
        sp, liou, rho0 = TestPropagation.coherent_case()
        shapes = []
        states = _SteppingFlow.states

        def recording(self, s, x, adjoint=False):
            shapes.append(x.shape)
            assert x.dtype == np.complex128
            return states(self, s, x, adjoint)

        monkeypatch.setattr(_SteppingFlow, "states", recording)
        ts = np.linspace(0.0, 3.0, 7)
        evolve_master(liou, rho0, ts)
        m = liou.sectors[0].idx.size
        assert shapes == [(m,), (m,)]
        shapes.clear()
        x = rho0 @ ladder_operators(sp)[1]        # not Hermitian, both sectors
        rhos = evolve_master(liou, x, ts)
        assert shapes == [(m,), (m,)]
        ref = expm(dense_generator(liou) * ts[-1]) @ x.reshape(-1)
        assert np.max(np.abs(rhos[-1].reshape(-1) - ref)) < 1e-10 * np.max(np.abs(ref))

    def test_grid_must_be_uniform_from_zero(self):
        sp, liou, rho0 = TestPropagation.coherent_case()
        with pytest.raises(ValueError, match="uniform"):
            evolve_master(liou, rho0, np.array([0.0, 0.5, 1.5, 2.0]))
        with pytest.raises(ValueError, match="from 0"):
            evolve_master(liou, rho0, np.array([0.5, 1.0, 1.5]))


def n_excess(liou, rho0, T_max):
    """The sum rule's time side: the trapezoid of <n>(t) - <n>_st on the spectra's grid.

    max|x| = 4 makes that grid's step min(0.05/gamma_tilde, 0.05) = 0.05 at gamma_tilde <= 1.
    """
    return emission_spectra(liou, rho0, T_max, np.linspace(-4.0, 4.0, 81))[2]


def test_non_hermitian_rho0_raises_in_both_entry_points():
    # with the traceless anti-Hermitian part 0.1 (|0><2| - |2><0|) added to the
    # vacuum, E_rad on this grid moved by 10 % of its max, while sum_rule_check,
    # which read only the real coordinates, gave the same lhs to 3e-16
    liou = make_liouvillian(8, 1.1, 0.9, 0.25)
    rho0 = np.zeros((8, 8), complex)
    rho0[0, 0] = 1.0
    skew = np.zeros((8, 8), complex)
    skew[0, 2], skew[2, 0] = 0.1, -0.1
    xs = np.linspace(-2.0, 2.0, 41)
    for rounding in (0.0, 1e-13):
        emission_spectra(liou, rho0 + rounding * skew, 40.0, xs)
        sum_rule_check(liou, rho0 + rounding * skew)
    with pytest.raises(ValueError, match="Hermitian"):
        emission_spectra(liou, rho0 + skew, 40.0, xs)
    with pytest.raises(ValueError, match="Hermitian"):
        sum_rule_check(liou, rho0 + skew)


class TestSumRule:
    def test_single_decay_analytic(self):
        # f=0, rho0=|1><1|: total excess emission = 1/(2 gt); the solve has no
        # step, and the end correction takes the trapezoid's (2 gt dt)^2/12 = 8e-6
        # at dt = 0.05 out of the time side, which is then off by 1.4e-11
        dim, gt = 8, 0.1
        sp = FockSpace(dim)
        liou = make_liouvillian(dim, 1.0, 0.0, gt)
        rho0 = np.outer(sp.basis_state(1), sp.basis_state(1))
        lhs, rate = sum_rule_check(liou, rho0)
        rhs = n_excess(liou, rho0, 150.0)
        assert rhs == pytest.approx(1 / (2 * gt), rel=1e-4)   # trapezoid-limited
        assert lhs == pytest.approx(rhs, rel=0.02)
        assert lhs == pytest.approx(1 / (2 * gt), rel=1e-12)
        # the slowest odd modes are the coherences |1><0| and |0><1|, which decay at gt
        assert rate == pytest.approx(gt, rel=1e-12)

    def test_end_correction_at_strong_damping(self):
        # at gt = 2, <n> relaxes in 10 steps of the grid's dt = 0.025, and the
        # plain trapezoid was 1.1 % off the solve; with the Euler-Maclaurin end
        # term -dt^2/12 [d<n>/dt]_0^T the measured gap is 1.3e-6 of rhs
        dim, delta, f, gt = 24, 1.8, 1.0, 2.0
        rho0 = prepared_state(dim, delta, f)
        liou = make_liouvillian(dim, delta, f, gt)
        lhs, _ = sum_rule_check(liou, rho0)
        rhs = emission_spectra(liou, rho0, 20.0, np.linspace(-8.0, 8.0, 201))[2]
        assert abs(lhs - rhs) <= 1e-5 * abs(rhs)

    def test_steady_seed_both_zero(self):
        liou = make_liouvillian(8, 0.5, 0.4, 0.3)
        rho_st = steady_state(liou)
        lhs, _ = sum_rule_check(liou, rho_st)
        assert abs(lhs) < 1e-8 and abs(n_excess(liou, rho_st, 40.0)) < 1e-8

    def test_rho0_without_unit_trace_raises(self):
        # L Y = -(rho0 - rho_st) has a solution only for Tr rho0 = 1; a
        # least-squares solve gave -2.344 for the vacuum and -6.816 for twice it
        dim = 12
        liou = make_liouvillian(dim, 1.8, 1.0, 0.5)
        vacuum = np.outer(FockSpace(dim).vacuum(), FockSpace(dim).vacuum())
        assert np.isfinite(sum_rule_check(liou, vacuum)[0])
        with pytest.raises(ValueError, match="Tr rho0 = 2"):
            sum_rule_check(liou, 2.0 * vacuum)

    def test_driven_configuration(self):
        dim, delta, f, gt = 20, 1.8, 1.0, 0.1
        rho0 = prepared_state(dim, delta, f)
        liou = make_liouvillian(dim, delta, f, gt)
        lhs, _ = sum_rule_check(liou, rho0)
        rhs = n_excess(liou, rho0, 120.0)
        assert lhs == pytest.approx(rhs, rel=0.02)
        # independent occupation route: <n>(t) is the equal-time regression
        # correlator of the full-space reference
        ts = np.linspace(0, 120.0, 1201)
        n_t = np.real(np.diag(two_time_correlator(liou, rho0, ts)))
        alt = np.trapezoid(n_t - expectation_number(steady_state(liou)), ts)
        assert alt == pytest.approx(rhs, rel=1e-3)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(dim=st.integers(4, 12), delta=st.floats(-2.0, 3.0), f=st.floats(0.0, 2.0),
           gt=st.floats(0.05, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_lhs_is_the_time_integral_of_the_excess_occupation(self, dim, delta, f, gt, seed):
        # Tr[n Y] from the solve against Int_0^T (<n>(t) - <n>_st) dt from
        # evolve_master, to where the slowest even mode keeps exp(-23) ~ 1e-10.
        # The trapezoid sums at h = 0.01 and 0.02 combine by Richardson
        # extrapolation, whose error falls as h^4: over 50 drawn cases it was
        # at most 4.2e-8 of Int |<n>(t) - <n>_st| dt, and the h = 0.01 sum alone
        # was off by up to 3.8e-4.
        liou = make_liouvillian(dim, delta, f, gt)
        rng = np.random.default_rng(seed)
        # full rank, so both (m + n)-parity sectors of rho0 are filled
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho0 = m @ m.conj().T
        rho0 /= np.trace(rho0).real
        lhs, _ = sum_rule_check(liou, rho0)
        rates = np.sort(-np.linalg.eigvals(liou.sectors[0].block).real)   # rates[0] ~ 0: rho_st
        T = 23.0 / rates[1]
        n_steps = 2 * int(np.ceil(T / 0.02))
        h = T / n_steps
        # chunks of at most 4096 steps keep the stored rho(t) small at long T
        rho, occupation = rho0, [[expectation_number(rho0)]]
        for start in range(0, n_steps, 4096):
            rhos = evolve_master(liou, rho, h * np.arange(min(4096, n_steps - start) + 1))
            occupation.append(np.einsum("kii,i->k", rhos[1:], np.arange(dim)).real)
            rho = rhos[-1]
        excess = np.concatenate(occupation) - expectation_number(steady_state(liou))
        fine, coarse = np.trapezoid(excess, dx=h), np.trapezoid(excess[::2], dx=2 * h)
        scale = np.trapezoid(np.abs(excess), dx=h)
        assert abs((4 * fine - coarse) / 3 - lhs) <= 2e-7 * scale

    @pytest.mark.parametrize("dim", [34, 44])
    @pytest.mark.parametrize("gt", [0.5, 1.0, 2.0])
    def test_slowest_odd_rate_is_the_decay_of_the_odd_propagator(self, dim, gt):
        # ||P^(k+1)|| / ||P^k|| -> exp(-rate dt) for P = exp(L_odd dt): the
        # power P^256, normalised as it is squared, against one more factor P.
        # Here cond of the odd eigenvectors reaches 4.4e19 (d = 44, gt = 2);
        # the worst relative difference measured was 9.4e-13 (d = 34, gt = 0.5).
        liou = make_liouvillian(dim, 1.8, 1.0, gt)
        _, rate = sum_rule_check(liou, steady_state(liou))
        p = _expm(liou.sectors[1].block)          # dt = 1
        power = p
        for _ in range(8):
            power = power @ power
            power /= np.linalg.norm(power)
        assert -np.log(np.linalg.norm(power @ p)) == pytest.approx(rate, rel=1e-11)

    @pytest.mark.parametrize("dim, delta, f, gt, rate", [
        (24, 1.8, 1.0, 0.1, 0.016046981503966),     # bench/configs/dissipation.json
        (12, 0.0, 0.1, 1.0, 1.000872373778849),     # bench/configs/tiny.json
    ])
    def test_slowest_odd_rate_of_the_benchmark_runs(self, dim, delta, f, gt, rate):
        # the value each run recorded when the rate was the slowest of the odd
        # modes that carry weight for its rho0; the slowest of all is the same
        liou = make_liouvillian(dim, delta, f, gt)
        assert sum_rule_check(liou, steady_state(liou))[1] == pytest.approx(rate, rel=1e-12)


# largest max|_expm(A) - expm(A)| / max|expm(A)| allowed: 6x the worst case measured
# over the sector blocks below (1.6e-12 at d = 34, gamma_tilde = 0.05, ||A||_1 = 523)
# and 14x the worst over 3000 random matrices drawn as in `stable_matrix` (7.2e-13)
EXPM_TOL = 1e-11


def stable_matrix(n, norm, seed):
    """Random real n x n matrix with 1-norm `norm` whose rightmost eigenvalue is 0."""
    g = np.random.default_rng(seed).normal(size=(n, n))
    g -= np.max(np.linalg.eigvals(g).real) * np.eye(n)
    return g * (norm / np.max(np.sum(np.abs(g), axis=0)))


class TestExpm:
    """The NumPy Pade-13 exponential of the stepping flow against scipy.linalg.expm."""

    @staticmethod
    def assert_matches_scipy(a):
        ref = expm(a)
        assert np.max(np.abs(_expm(a) - ref)) <= EXPM_TOL * np.max(np.abs(ref))

    @pytest.mark.parametrize("dim", [5, 12, 24, 34, 44])
    @pytest.mark.parametrize("gt", [0.05, 0.1, 1.0])
    def test_sector_blocks(self, dim, gt):
        # the propagators of the radiation runs: strong drive, the spectrum step
        # and the largest step 0.05/gamma_tilde; ||A||_1 reaches 896
        liou = make_liouvillian(dim, 1.8, 1.0, gt)
        for dt in (0.025, 0.05 / gt):
            for sector in liou.sectors:
                self.assert_matches_scipy(sector.block * dt)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(2, 40), log_norm=st.floats(-3.0, 3.0),
           seed=st.integers(0, 2**32 - 1))
    @example(n=40, log_norm=3.0, seed=0)
    @example(n=2, log_norm=-3.0, seed=1)
    def test_random_matrices(self, n, log_norm, seed):
        # 1-norms from 1e-3 (no scaling) to 1e3 (eight squarings)
        self.assert_matches_scipy(stable_matrix(n, 10.0**log_norm, seed))

    def test_zero_and_scalar(self):
        assert np.array_equal(_expm(np.zeros((6, 6))), np.eye(6))
        # exp(x) is (1 + |x|)-conditioned; the worst relative error measured over
        # |x| <= 700 is 28 (1 + |x|) eps, at x = -654.6 (seven squarings)
        for x in (-654.57, -40.0, -1.0, 1e-3, 0.7, 30.0):
            rel = 64 * (1 + abs(x)) * np.finfo(float).eps
            assert _expm(np.array([[x]]))[0, 0] == pytest.approx(np.exp(x), rel=rel)


SRC = Path(__file__).resolve().parents[1] / "src" / "parosc"


def test_dissipative_path_keeps_to_numpy_linalg():
    # scipy.linalg runs on its own OpenBLAS; alternating with NumPy's made the
    # two thread pools contend and doubled the time of the radiation experiment.
    # radiation.py imports no scipy at all (its FFTs are NumPy's); lindblad.py
    # keeps scipy.sparse for its gathers
    for name, banned in (("radiation.py", "scipy"), ("lindblad.py", "scipy.linalg")):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                     for alias in node.names]
        hits = [m for m in imported if m and (m == banned or m.startswith(banned + "."))]
        assert not hits, name
    assert radiation.expm.__module__ == "parosc.radiation"
