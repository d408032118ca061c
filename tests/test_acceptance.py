"""Acceptance suite: every headline result at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s or -v to see them all).
Three checks fail as written and are kept that way deliberately; each failure
is a property of the stated target, not of the implementation:

* criterion 2 asks for three degenerate even-odd pairs at delta = 2, but an
  integer detuning delta = k pins exactly k pairs (two here); the third pair
  keeps a gap of ~2-3 V at every drive.  See test_c02.
* criterion 7 places the phase-space lobes at the classical well positions
  +-sqrt(mu+1) to within 0.1, but the exact lobes sit measurably inside them
  at these quantum scales: 0.885 vs 1.0 for run (a) and 1.00 vs 1.265 for run
  (b).  The displacement is physical, not numerical: at unit scaled detuning
  the eigenstates are exactly coherent states whose lobes sit at Q = 1 for
  every drive, inside the classical minimum sqrt(1 + 1/f).  See test_c07.
* criterion 10 asks the decay-rate/gap slope ratio at gamma_tilde = 2 to be 1,
  but Gamma_E = 2*gamma_tilde*<n> with d<n>/df ~ 1.10 against a gap slope of
  ~2.02 puts that ratio at ~2.2 (it is ~1 near gamma_tilde = 0.9); the gap is
  also not linear enough on f in [3, 6] to clear R^2 > 0.99.  See test_c10.
"""

import math

import numpy as np
import pytest

from helpers import (coherent_eigen_residual, evolve_master, exact_level_shift, same_parity_gap,
                     weber_solution)
from parosc.floquet import LabFrameParams, floquet_vs_rwa
from parosc.fock import FockSpace
from parosc.lindblad import build_liouvillian, state_decay_rate, steady_state
from parosc.lz import LzProblem, lz_asymptotic_alphas, lz_evolve_numeric
from parosc.radiation import emission_spectra, sum_rule_check
from parosc.ramp import RampProtocol, evolve_ramp
from parosc.rwa import RwaSystem, parity_eigh, perturbative_shift, zero_drive_levels
from parosc.spectrum import eigenstate_by_label, spectrum_vs_drive
from parosc.wigner import wigner_transform


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def rsquared(x, y):
    c = np.polyfit(x, y, 1)
    resid = y - np.polyval(c, x)
    return 1.0 - np.sum(resid**2) / np.sum((y - np.mean(y)) ** 2), c[0]


def prepare(dim, delta, f_final, s_tilde, rel_tol=1e-9):
    space = FockSpace(dim)
    protocol = RampProtocol(delta=delta, f_final=f_final, s_tilde=s_tilde,
                            initial_state=space.vacuum())
    return space, evolve_ramp(space, protocol, rel_tol=rel_tol)


def test_c01_zero_drive_degeneracies():
    e2 = zero_drive_levels(2.0, 3)
    e25 = zero_drive_levels(2.5, 4)
    devs = [abs(e2[0] - e2[3]), abs(e2[1] - e2[2]),
            abs(e25[0] - e25[4]), abs(e25[1] - e25[3])]
    ok = all(d < 1e-12 for d in devs)
    assert report(1, ok, f"zero-drive degeneracies, max dev {max(devs):.2e}")


def test_c02_degeneracy_persistence_three_pairs():
    worst = np.zeros(3)
    for dim in (60, 70):          # dim-converged: both sizes give the same gaps
        for f in (0.5, 1.0, 2.0, 3.0):
            system = RwaSystem(delta=2.0, f=f)
            ev, od = parity_eigh(dim, system, 1)[1], parity_eigh(dim, system, -1)[1]
            for r in range(3):
                worst[r] = max(worst[r], abs(ev[r] - od[r]))
    ok = bool(np.all(worst < 1e-8))
    detail = (f"pair splittings {worst[0]:.1e}, {worst[1]:.1e}, {worst[2]:.1e}; "
              "delta=2 pins exactly two pairs, the third keeps a ~2 V gap")
    assert report(2, ok, detail)


def test_c03_perturbation_scaling():
    space = FockSpace(40)
    r1 = abs(exact_level_shift(space, 0.0, 0.1, 0) - perturbative_shift(0.0, 0.1, 0))
    r2 = abs(exact_level_shift(space, 0.0, 0.05, 0) - perturbative_shift(0.0, 0.05, 0))
    ratio = r1 / r2
    ok = 12.0 < ratio < 20.0
    assert report(3, ok, f"shift residual ratio {ratio:.2f} (quartic scaling)")


def test_c04_coherent_eigenstates():
    r1 = coherent_eigen_residual(FockSpace(40), 0.5)
    r2 = coherent_eigen_residual(FockSpace(60), 2.0)
    ok = r1 < 1e-8 and r2 < 1e-8
    assert report(4, ok, f"coherent eigenstate residuals {r1:.1e}, {r2:.1e}")


def test_c05_floquet_rwa_consistency():
    worst = []
    for v in (1e-3, 5e-4, 2.5e-4):
        table = floquet_vs_rwa(LabFrameParams.from_reduced(1.0, v, 0.3, 0.8))
        worst.append(float(np.max(table["discrepancy"])) / v)
    ok = worst[0] > worst[1] > worst[2]
    assert report(5, ok, "quasienergy discrepancy/V over two halvings: "
                  + ", ".join(f"{w:.2e}" for w in worst))


def test_c06_ramp_fidelities():
    _, res_a = prepare(40, 0.0, 5.0, 1.0)
    _, res_b = prepare(40, 1.8, 3.0, 0.06)
    ok_a = abs(res_a.final_fidelity - 0.997) <= 0.005
    ok_b = abs(res_b.final_fidelity - 0.98) <= 0.01
    ok = ok_a and ok_b
    assert report(6, ok, f"preparation probabilities {res_a.final_fidelity:.4f} "
                  f"(target 0.997+-0.005), {res_b.final_fidelity:.4f} (target 0.98+-0.01)")


def _lobe_extremum(grid, q_window, mode):
    qs, ps, w = grid.q_axis, grid.p_axis, grid.values
    mask = (qs >= q_window[0]) & (qs <= q_window[1])
    sub = w[mask]
    pick = np.argmax(sub) if mode == "max" else np.argmin(sub)
    i, j = np.unravel_index(pick, sub.shape)
    return qs[mask][i], ps[j], sub[i, j]


def test_c07_wigner_structure():
    axis_a = np.linspace(-2.2, 2.2, 111)
    space, res = prepare(50, 0.0, 5.0, 1.0)
    rho = np.outer(res.final_state, res.final_state.conj())
    grid_a = wigner_transform(rho, 1.0 / 10.0, axis_a, axis_a)
    # lobes of the even superposition: positive maxima away from the fringes
    qr, pr, vr = _lobe_extremum(grid_a, (0.6, 2.2), "max")
    ql, pl, vl = _lobe_extremum(grid_a, (-2.2, -0.6), "max")
    lobes_a = (abs(qr - 1) < 0.1 and abs(pr) < 0.1 and vr > 0
               and abs(ql + 1) < 0.1 and abs(pl) < 0.1 and vl > 0)
    # interference fringe through the origin alternates sign along P
    fringe = grid_a.values[np.argmin(np.abs(axis_a))]
    strong = fringe[np.abs(fringe) > 1e-3 * grid_a.values.max()]
    sign_flips = int(np.sum(np.abs(np.diff(np.sign(strong))) > 0))
    norm_a = abs(grid_a.norm() - 1.0) < 1e-3

    axis_b = np.linspace(-2.8, 2.8, 141)
    space, res = prepare(50, 1.8, 3.0, 0.06)
    rho = np.outer(res.final_state, res.final_state.conj())
    grid_b = wigner_transform(rho, 1.0 / 6.0, axis_b, axis_b)
    # each lobe is a displaced one-quantum state: its center is the negative node
    q0 = math.sqrt(1.6)
    qrn, prn, vrn = _lobe_extremum(grid_b, (0.6, 2.8), "min")
    qln, pln, vln = _lobe_extremum(grid_b, (-2.8, -0.6), "min")
    lobes_b = (abs(qrn - q0) < 0.1 and abs(prn) < 0.1 and vrn < 0
               and abs(qln + q0) < 0.1 and abs(pln) < 0.1 and vln < 0)
    norm_b = abs(grid_b.norm() - 1.0) < 1e-3

    ok = lobes_a and sign_flips >= 4 and norm_a and lobes_b and norm_b
    assert report(7, ok, f"cat lobes at ({qr:.2f},{pr:.2f})/({ql:.2f},{pl:.2f}) "
                  f"vs target (+-1,0)+-0.1, {sign_flips} fringe sign flips; "
                  f"nodes at ({qrn:.2f},{prn:.2f})/({qln:.2f},{pln:.2f}) vs "
                  f"target (+-1.26,0)+-0.1, W<0 there; norms ok={norm_a and norm_b}")


def test_c08_landau_zener():
    dev_max = 0.0
    for d2s in (1.5, 0.25, 0.05, 0.01):
        prob = LzProblem(Delta=math.sqrt(d2s), s=1.0)
        ts = np.linspace(0.0, 12.0, 601)
        exact = weber_solution(prob, ts)
        numeric = lz_evolve_numeric(prob, t_max=12.0, rel_tol=1e-11, n_out=601)
        dev_max = max(dev_max, float(np.max(np.abs(
            np.abs(exact.c_up) ** 2 - np.abs(numeric.c_up) ** 2))))
    oracle_ok = dev_max < 1e-4

    flat = lz_evolve_numeric(LzProblem(Delta=0.0, s=1.0), 8.0, rel_tol=1e-12)
    delta0_ok = float(np.max(np.abs(np.abs(flat.c_up) ** 2 - 0.5))) < 1e-10

    norm_ok, compl_ok = True, True
    for d2s in (0.01, 0.25, 1.5):
        au_p, ad_p = lz_asymptotic_alphas(LzProblem(Delta=math.sqrt(d2s), s=1.0))
        au_m, _ = lz_asymptotic_alphas(LzProblem(Delta=-math.sqrt(d2s), s=1.0))
        norm_ok &= abs(abs(au_p) ** 2 + abs(ad_p) ** 2 - 1) < 1e-6
        compl_ok &= abs(abs(au_p) ** 2 + abs(au_m) ** 2 - 1) < 1e-6

    d2s_vals = np.linspace(5.0, 50.0, 12)
    probs = [abs(lz_asymptotic_alphas(LzProblem(Delta=math.sqrt(v), s=1.0))[1]) ** 2
             for v in d2s_vals]
    expo = np.polyfit(np.log(1.0 / d2s_vals), np.log(probs), 1)[0]
    expo_ok = abs(expo - 2.0) <= 0.1

    ok = oracle_ok and delta0_ok and norm_ok and compl_ok and expo_ok
    assert report(8, ok, f"weber-vs-ode dev {dev_max:.1e}; flat-case ok={delta0_ok}; "
                  f"norms ok={norm_ok}; complementarity ok={compl_ok}; "
                  f"power-law exponent {expo:.3f}")


def test_c09_open_system_basics():
    space = FockSpace(12)
    gt = 0.7
    rates_ok = all(state_decay_rate(space.basis_state(n), gt) == 2 * gt * n
                   for n in range(6))
    liou0 = build_liouvillian(space, RwaSystem(delta=1.3, f=0.0), 0.4)
    rho_st = steady_state(liou0)
    vac = np.zeros((12, 12)); vac[0, 0] = 1.0
    vacuum_ok = float(np.max(np.abs(rho_st - vac))) < 1e-10

    liou = build_liouvillian(space, RwaSystem(delta=1.8, f=1.0), 0.1)
    rhos = evolve_master(liou, np.outer(space.vacuum(), space.vacuum()),
                         np.linspace(0.0, 30.0, 16))
    trace_ok = all(abs(np.trace(r).real - 1.0) < 1e-8 for r in rhos)
    pos_ok = all(np.linalg.eigvalsh(0.5 * (r + r.conj().T)).min() > -1e-7
                 for r in rhos)
    ok = rates_ok and vacuum_ok and trace_ok and pos_ok
    assert report(9, ok, f"decay rates exact={rates_ok}, vacuum steady={vacuum_ok}, "
                  f"trace ok={trace_ok}, positivity ok={pos_ok}")


def test_c10_decay_rate_vs_gap_slopes():
    space = FockSpace(120)
    fs = np.linspace(3.0, 6.0, 13)
    series = spectrum_vs_drive(space, 0.0, fs, 3)
    gaps = same_parity_gap(series, 1, 0)
    r2_gap, slope_gap = rsquared(fs, gaps)
    gt = 2.0
    rates = []
    for f in fs:
        _, phi = eigenstate_by_label(space, 0.0, f, 1, 0)
        rates.append(state_decay_rate(phi, gt))
    r2_rate, slope_rate = rsquared(fs, np.array(rates))
    ratio = slope_rate / slope_gap
    ok = r2_rate > 0.99 and r2_gap > 0.99 and abs(ratio - 1.0) <= 0.15
    assert report(10, ok, f"R2(Gamma_E)={r2_rate:.4f}, R2(Delta_E)={r2_gap:.4f}, "
                  f"slope ratio at gamma_tilde=2 is {ratio:.2f} "
                  "(crosses 1 near gamma_tilde~0.9)")


@pytest.fixture(scope="module")
def fig8_strong_drive():
    dim, delta, f, gt = 24, 1.8, 1.0, 0.1
    space, res = prepare(dim, delta, f, 0.06, rel_tol=1e-8)
    rho0 = np.outer(res.final_state, res.final_state.conj())
    liou = build_liouvillian(space, RwaSystem(delta=delta, f=f), gt)
    e1, _ = eigenstate_by_label(space, delta, f, 1, 1)
    e0, _ = eigenstate_by_label(space, delta, f, -1, 0)
    return liou, rho0, e1 - e0


def test_c11_radiation_spectra(fig8_strong_drive):
    liou, rho0, gap = fig8_strong_drive
    xs = np.linspace(-6.0, 6.0, 601)
    dx = xs[1] - xs[0]
    spec, qst, _ = emission_spectra(liou, rho0, 120.0, xs)
    peak_ok = abs(xs[np.argmax(spec)] - gap) <= 2 * dx
    window = np.abs(xs + gap) <= 0.4
    j_dip = np.where(window)[0][np.argmin(spec[window])]
    dip_ok = spec[j_dip] < 0 and abs(xs[j_dip] + gap) <= 3 * dx
    zero_ok = spec[np.abs(xs) <= 0.1].min() < 0

    dim_w, delta, gt = 16, 1.8, 0.1
    space_w, res_w = prepare(dim_w, delta, 0.1, 0.02, rel_tol=1e-8)
    rho_w = np.outer(res_w.final_state, res_w.final_state.conj())
    liou_w = build_liouvillian(space_w, RwaSystem(delta=delta, f=0.1), gt)
    xs_w = np.linspace(-3.0, 3.0, 601)
    spec_w, _, _ = emission_spectra(liou_w, rho_w, 120.0, xs_w)
    # the undriven 1 -> 0 line sits at x = 1 - delta below half the drive
    weak_ok = abs(xs_w[np.argmin(spec_w)] - (1 - delta)) <= 0.05

    sym = float(np.max(np.abs(qst - qst[::-1])))
    sym_ok = sym < 1e-3 * float(np.max(qst))

    ok = peak_ok and dip_ok and zero_ok and weak_ok and sym_ok
    assert report(11, ok, f"f=1 peak at +gap={peak_ok}, dip at -gap={dip_ok}, "
                  f"negative x=0 feature={zero_ok}; f=0.1 dominant dip at "
                  f"x=1-delta={weak_ok}; Q_st asymmetry {sym:.2e}")


def test_c12_sum_rule(fig8_strong_drive):
    # lhs = (1/2 pi) Int E_rad dx over all x at T -> infinity, from one linear
    # solve; rhs = Int_0^T (<n>(t) - <n>_st) dt, read off the stepping of the
    # spectra on c11's grid (dt = 1/30)
    xs = np.linspace(-6.0, 6.0, 601)
    space = FockSpace(10)
    gt = 0.1
    liou0 = build_liouvillian(space, RwaSystem(delta=1.0, f=0.0), gt)
    rho1 = np.outer(space.basis_state(1), space.basis_state(1))
    lhs0, _ = sum_rule_check(liou0, rho1)
    rhs0 = emission_spectra(liou0, rho1, 150.0, xs)[2]
    analytic_ok = (abs(lhs0 - 1 / (2 * gt)) <= 0.02 * (1 / (2 * gt))
                   and abs(lhs0 - rhs0) <= 0.02 * abs(rhs0))

    liou, rho0, _ = fig8_strong_drive
    lhs, _ = sum_rule_check(liou, rho0)
    rhs = emission_spectra(liou, rho0, 120.0, xs)[2]
    driven_ok = abs(lhs - rhs) <= 0.02 * abs(rhs)
    ok = analytic_ok and driven_ok
    assert report(12, ok, f"single-decay lhs={lhs0:.4f} (target 5), "
                  f"driven |lhs-rhs|/|rhs|={abs(lhs - rhs) / abs(rhs):.3%}")
