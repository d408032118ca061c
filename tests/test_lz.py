import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from helpers import asymptote_estimate
from parosc import lz
from parosc.lz import (
    LzProblem,
    _pcf_slope,
    dynamical_phase,
    lz_asymptotic_alphas,
    lz_evolve_numeric,
    parabolic_cylinder_on_ray,
    weber_solution,
)

FIG5_SET = (1.5, 0.25, 0.05, 0.01)


class TestNumericEvolution:
    def test_delta_zero_equal_superposition(self):
        sol = lz_evolve_numeric(LzProblem(Delta=0.0, s=1.0), t_max=8.0, rel_tol=1e-12)
        assert np.max(np.abs(np.abs(sol.c_up) ** 2 - 0.5)) < 1e-10

    def test_adiabatic_start_relaxes_toward_half(self):
        # small Delta^2/s: starts on the upper branch, relaxes toward 1/2
        prob = LzProblem(Delta=0.1, s=1.0)
        sol = lz_evolve_numeric(prob, t_max=40.0)
        p_up = np.abs(sol.c_up) ** 2
        assert p_up[0] == pytest.approx(1.0, abs=1e-8)
        assert abs(np.mean(p_up[-200:]) - 0.5) < 0.12

    def test_sign_complementarity_along_time(self):
        for d2s in (0.25, 1.5):
            delta = math.sqrt(d2s)
            pos = lz_evolve_numeric(LzProblem(Delta=delta, s=1.0), t_max=10.0)
            neg = lz_evolve_numeric(LzProblem(Delta=-delta, s=1.0), t_max=10.0)
            total = np.abs(pos.c_up) ** 2 + np.abs(neg.c_up) ** 2
            assert np.max(np.abs(total - 1.0)) < 1e-8

    def test_unitarity(self):
        rel_tol = 1e-10
        sol = lz_evolve_numeric(LzProblem(Delta=0.7, s=1.0), t_max=30.0, rel_tol=rel_tol)
        norm = np.abs(sol.c_plus) ** 2 + np.abs(sol.c_minus) ** 2
        assert np.max(np.abs(norm - 1.0)) < 10 * rel_tol


class TestAsymptoticAlphas:
    def test_normalization(self):
        for d2s in (0.01, 0.25, 1.5):
            au, ad = lz_asymptotic_alphas(LzProblem(Delta=math.sqrt(d2s), s=1.0))
            assert abs(au) ** 2 + abs(ad) ** 2 == pytest.approx(1.0, abs=1e-6)

    def test_adiabatic_limit_expansion(self):
        # alpha_up ~ 1 - (i/12)(s/Delta^2), alpha_down ~ -(i/4)(s/Delta^2)
        prob = LzProblem(Delta=math.sqrt(200.0), s=1.0)
        au, ad = lz_asymptotic_alphas(prob)
        r = prob.s / prob.Delta**2
        assert abs(au - (1 - 1j * r / 12)) < 5e-3 * r
        assert abs(ad - (-1j * r / 4)) < 0.05 * r / 4

    def test_transition_probability_at_p10(self):
        prob = LzProblem(Delta=math.sqrt(10.0), s=1.0)
        _, ad = lz_asymptotic_alphas(prob)
        leading = (1.0 / 16.0) * (prob.s / prob.Delta**2) ** 2
        assert abs(ad) ** 2 == pytest.approx(leading, rel=0.2)

    def test_matches_numeric_asymptote(self):
        for d2s in (0.05, 0.8):
            for sign in (1, -1):
                prob = LzProblem(Delta=sign * math.sqrt(d2s), s=1.0)
                au, _ = lz_asymptotic_alphas(prob)
                assert asymptote_estimate(prob) == pytest.approx(abs(au) ** 2, abs=2e-4)

    def test_power_law_exponent(self):
        d2s_vals = np.linspace(5.0, 50.0, 12)
        probs = []
        for d2s in d2s_vals:
            _, ad = lz_asymptotic_alphas(LzProblem(Delta=math.sqrt(d2s), s=1.0))
            probs.append(abs(ad) ** 2)
        slope = np.polyfit(np.log(1.0 / d2s_vals), np.log(probs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("d2s", [600.0, 2000.0, 1e4])
    def test_deep_adiabatic_regime(self, d2s):
        # the separate gamma factors over- or underflow near Delta^2/s = 600,
        # their product stays O(1); the prefactor modulus is closed-form, so the
        # norm holds to rounding (measured 2.2e-16 up to 1e4)
        prob = LzProblem(Delta=math.sqrt(d2s), s=1.0)
        au, ad = lz_asymptotic_alphas(prob)
        assert abs(au) ** 2 + abs(ad) ** 2 == pytest.approx(1.0, abs=1e-14)
        r = prob.s / prob.Delta**2
        assert abs(au - (1 - 1j * r / 12)) < 5e-3 * r
        assert abs(ad) / r == pytest.approx(0.25, rel=1e-3)
        # the opposite sign of Delta swaps the branch populations
        au_neg, ad_neg = lz_asymptotic_alphas(LzProblem(Delta=-prob.Delta, s=1.0))
        assert abs(au_neg) ** 2 + abs(ad_neg) ** 2 == pytest.approx(1.0, abs=1e-14)
        assert abs(au_neg) ** 2 == pytest.approx(abs(ad) ** 2, rel=1e-6)

    @pytest.mark.parametrize("d2s, tol", [(40.0, 5e-12), (99.0, 5e-12), (600.0, 1e-14),
                                          (2000.0, 1e-14), (1e4, 1e-14)])
    @staticmethod
    def mpmath_alphas(d2s):
        """The closed form of lz_asymptotic_alphas at working precision, for both signs."""
        p = mpmath.mpf(d2s) / 2
        lam = ((2 * p / mpmath.e) ** (-0.5j * p) * mpmath.sqrt(p) * mpmath.gamma(1j * p)
               * (mpmath.exp(0.75 * mpmath.pi * p) - mpmath.exp(-1.25 * mpmath.pi * p))
               / (4 * mpmath.sqrt(2) * mpmath.pi))
        return {sign: (complex(lam * (mpmath.sqrt(p) * mpmath.gamma(-0.5j * p)
                                      + sign * (1 + 1j) * mpmath.gamma((1 - 1j * p) / 2))),
                       complex(mpmath.conj(lam) * (mpmath.sqrt(p) * mpmath.gamma(0.5j * p)
                                                   + sign * (-1 + 1j) * mpmath.gamma((1 + 1j * p) / 2))))
                for sign in (1, -1)}

    @pytest.mark.parametrize("d2s, tol", [(40.0, 5e-12), (99.0, 5e-12), (600.0, 1e-14),
                                          (2000.0, 1e-14), (1e4, 1e-14)])
    def test_matches_mpmath(self, d2s, tol):
        # 60-digit evaluation of the closed form.  Measured |alpha| relative
        # errors: <= 8.2e-13 below p = 50 (log-gamma ratio), <= 1.7e-16 above
        # (series phase); rounding the p log p gamma phases first left 5.8e-8
        # on |alpha_down| at 1e4.  The common phase of both alphas is still
        # formed from log-gamma values, to ~1e-11 at 1e4.
        with mpmath.workdps(60):
            want = self.mpmath_alphas(d2s)
        for sign in (1, -1):
            got = lz_asymptotic_alphas(LzProblem(Delta=sign * math.sqrt(d2s), s=1.0))
            for g, w in zip(got, want[sign]):
                assert abs(abs(g) - abs(w)) <= tol * abs(w)
                assert abs(g - w) <= 2e-11
            assert abs(abs(got[0]) ** 2 + abs(got[1]) ** 2 - 1.0) <= 1e-14

    def test_delta_zero_limit(self):
        au, ad = lz_asymptotic_alphas(LzProblem(Delta=0.0, s=1.0))
        assert abs(au) ** 2 == pytest.approx(0.5)
        assert abs(ad) ** 2 == pytest.approx(0.5)


class TestDynamicalPhase:
    def test_delta_zero(self):
        assert dynamical_phase(LzProblem(Delta=0.0, s=1.0), 2.0) == pytest.approx(2.0)

    def test_matches_action_integral_asymptotically(self):
        # oracle: theta_exact(t) = Int_0^t sqrt((s t')^2 + Delta^2) dt'
        prob = LzProblem(Delta=0.8, s=1.0)

        def action(t):
            return quad(lambda u: math.hypot(prob.s * u, prob.Delta), 0, t)[0]

        diffs = [abs(dynamical_phase(prob, t) - action(t)) for t in (10.0, 40.0, 160.0)]
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] < 1e-5

    def test_large_time_oscillation_tracks_phase(self):
        # numeric C_down oscillates as exp(i theta): after removing it, the
        # residual phase drift over a late window is small
        prob = LzProblem(Delta=1.0, s=1.0)
        sol = lz_evolve_numeric(prob, t_max=60.0, rel_tol=1e-11, n_out=6001)
        window = sol.t_grid > 50.0
        phases = np.angle(sol.c_down[window]) - np.array(
            [dynamical_phase(prob, t) for t in sol.t_grid[window]])
        drift = np.unwrap(phases)
        assert np.max(np.abs(drift - drift.mean())) < 0.02

    def test_log_argument_guard(self):
        with pytest.raises(ValueError):
            dynamical_phase(LzProblem(Delta=10.0, s=1.0), 0.1)


class TestParabolicCylinderOnRay:
    @pytest.mark.parametrize("p", [0.125, 2.0, 100.0])
    def test_matches_mpmath(self, p):
        # the (order, ray) pairs weber_solution uses at s = 1: nu = +-ip - 1 on
        # k_-+ and nu = -+ip on k_+-.  Measured agreement: <= 5.9e-12 relative
        c = math.sqrt(2.0)
        k_pos, k_neg = c * cmath.exp(0.25j * math.pi), c * cmath.exp(-0.25j * math.pi)
        ts = np.array([0.5, 2.0, 6.0])
        for nu, k in ((1j * p - 1, k_neg), (-1j * p, k_pos),
                      (-1j * p - 1, k_pos), (1j * p, k_neg)):
            got = parabolic_cylinder_on_ray(nu, k, ts)
            d0 = mpmath.pcfd(nu, 0)
            want = np.array([complex(mpmath.pcfd(nu, k * t) / d0) for t in ts])
            assert np.max(np.abs(got - want) / np.abs(want)) < 2e-11

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(log_p=st.floats(-3.0, 4.0), s=st.floats(0.25, 4.0), t_max=st.floats(0.1, 2.0),
           n=st.integers(2, 40))
    def test_conjugate_order_and_ray_give_the_conjugate_bit_for_bit(self, log_p, s, t_max, n):
        # D_nu(z)* = D_{nu*}(z*), and DOP853 and the log-gamma slope commute with
        # conjugation: weber_solution builds C_- from conj of C_+'s two integrations
        p = 10.0 ** log_p
        k_pos = math.sqrt(2.0 * s) * cmath.exp(0.25j * math.pi)
        ts = np.linspace(0.0, t_max, n)
        for nu, k in ((1j * p - 1.0, k_pos.conjugate()), (-1j * p, k_pos)):
            assert _pcf_slope(nu.conjugate()) == _pcf_slope(nu).conjugate()
            conj = parabolic_cylinder_on_ray(nu.conjugate(), k.conjugate(), ts)
            assert np.array_equal(conj, np.conj(parabolic_cylinder_on_ray(nu, k, ts)))


class TestWeberSolution:
    def test_integrates_two_parabolic_cylinder_odes(self, monkeypatch):
        calls, solve_ivp = [], lz.solve_ivp

        def counted(*args, **kwargs):
            calls.append(args[1])
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(lz, "solve_ivp", counted)
        weber_solution(LzProblem(Delta=0.5, s=1.0), np.linspace(0.0, 2.0, 21))
        assert len(calls) == 2
        calls.clear()
        weber_solution(LzProblem(Delta=0.0, s=1.0), np.linspace(0.0, 2.0, 21))
        assert calls == []

    @pytest.mark.parametrize("d2s", FIG5_SET)
    def test_agrees_with_numeric(self, d2s):
        prob = LzProblem(Delta=math.sqrt(d2s), s=1.0)
        ts = np.linspace(0.0, 12.0, 601)
        exact = weber_solution(prob, ts)
        numeric = lz_evolve_numeric(prob, t_max=12.0, rel_tol=1e-11, n_out=601)
        dev = np.abs(np.abs(exact.c_up) ** 2 - np.abs(numeric.c_up) ** 2)
        assert dev.max() < 1e-4

    def test_delta_zero_constant_amplitudes(self):
        sol = weber_solution(LzProblem(Delta=0.0, s=1.0), np.linspace(0, 5, 51))
        assert np.max(np.abs(np.abs(sol.c_plus) - 1 / math.sqrt(2))) < 1e-12
        assert np.max(np.abs(np.abs(sol.c_minus) - 1 / math.sqrt(2))) < 1e-12

    def test_initial_conditions(self):
        prob = LzProblem(Delta=-0.6, s=2.0)
        sol = weber_solution(prob, np.linspace(0.0, 1.0, 11))
        assert sol.c_plus[0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert sol.c_minus[0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_envelope_decays_like_one_over_t(self):
        # the bare amplitudes approach their limit with an oscillating
        # (2 s t^2)^{-1/2} correction: the envelope halves per time doubling.
        # (In the adiabatic projection that leading 1/t piece cancels against
        # the rotation of the basis, so |C_up|^2 converges even faster.)
        prob = LzProblem(Delta=1.0, s=1.0)
        sol = weber_solution(prob, np.linspace(0.0, 80.0, 8001))
        late = np.abs(sol.c_plus[sol.t_grid > 72.0]) ** 2
        resid = np.abs(np.abs(sol.c_plus) ** 2 - late.mean())
        a1 = resid[(sol.t_grid > 18) & (sol.t_grid < 22)].max()
        a2 = resid[(sol.t_grid > 38) & (sol.t_grid < 42)].max()
        assert a1 / a2 == pytest.approx(2.0, rel=0.25)
        up_resid = np.abs(np.abs(sol.c_up) ** 2 - abs(sol.alpha_up) ** 2)
        assert up_resid[(sol.t_grid > 38) & (sol.t_grid < 42)].max() < 0.01 * a2

    @pytest.mark.parametrize("d2s", [1800.0, 1e4])
    def test_deep_adiabatic_regime(self, d2s):
        # D_nu(0) ~ exp(pi p/4) overflows from Delta^2/s ~ 1800; the solution
        # is built from D_nu(z)/D_nu(0), which stays finite
        prob = LzProblem(Delta=math.sqrt(d2s), s=1.0)
        ts = np.linspace(0.0, 4.0, 201)
        sol = weber_solution(prob, ts)
        norm = np.abs(sol.c_plus) ** 2 + np.abs(sol.c_minus) ** 2
        assert np.max(np.abs(norm - 1.0)) <= 1e-10
        assert (sol.alpha_up, sol.alpha_down) == lz_asymptotic_alphas(prob)
        # measured agreement with direct integration: 1e-11
        numeric = lz_evolve_numeric(prob, t_max=4.0, rel_tol=1e-11, n_out=201)
        assert np.max(np.abs(sol.c_plus - numeric.c_plus)) < 1e-9
        assert np.max(np.abs(sol.c_minus - numeric.c_minus)) < 1e-9

    def test_norm_consistency(self):
        sol = weber_solution(LzProblem(Delta=0.5, s=1.0), np.linspace(0, 10, 201))
        norm = np.abs(sol.c_plus) ** 2 + np.abs(sol.c_minus) ** 2
        assert np.max(np.abs(norm - 1.0)) < 1e-8
