import numpy as np
import pytest

from helpers import build_h_rwa, column, same_parity_gap
from parosc.fock import ConvergenceError, FockSpace, tail_population
from parosc.rwa import (RwaSystem, h_rwa_bands, level_label_at_zero_drive, parity_eigh,
                        semiclassics, zero_drive_levels)
from parosc.spectrum import eigenstate_by_label, find_degeneracy_points, spectrum_vs_drive


def test_blocks_dim4():
    system = RwaSystem(delta=0.3, f=0.7)
    h = build_h_rwa(FockSpace(4), system)
    diag, off2 = h_rwa_bands(4, system)
    assert diag[0::2].shape == (2,) and diag[1::2].shape == (2,)
    assert off2[0::2][0] == h[0, 2]
    assert off2[1::2][0] == h[1, 3]


def test_zero_drive_blocks_diagonal():
    system = RwaSystem(delta=1.0, f=0.0)
    assert np.count_nonzero(h_rwa_bands(8, system)[1]) == 0
    for parity in (1, -1):
        _, _, v = parity_eigh(8, system, parity)
        assert np.count_nonzero(v - np.diag(np.diag(v))) == 0


def test_block_union_matches_full_spectrum():
    system = RwaSystem(delta=1.1, f=1.7)
    union = np.sort(np.concatenate([parity_eigh(30, system, 1)[1],
                                    parity_eigh(30, system, -1)[1]]))
    full = np.linalg.eigvalsh(build_h_rwa(FockSpace(30), system))   # diagonalize without splitting
    assert np.max(np.abs(union - full)) < 1e-10 * max(1, np.max(np.abs(full)))


def test_level_labels_at_zero_drive():
    # delta=1.8 ordering: |1> < |2> < |0> < |3>
    assert level_label_at_zero_drive(1.8, 0) == (1, 1)
    assert level_label_at_zero_drive(1.8, 2) == (1, 0)
    assert level_label_at_zero_drive(1.8, 1) == (-1, 0)
    assert level_label_at_zero_drive(0.0, 4) == (1, 2)


@pytest.mark.parametrize("delta", [7.0, 7.6, 10.0])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_level_labels_at_large_detuning(delta, n):
    # brute force: rank of |n> among the first 200 same-parity levels
    same = np.arange(n % 2, 200, 2)
    order = np.argsort(zero_drive_levels(delta, 199)[same], kind="stable")
    rank = int(np.where(same[order] == n)[0][0])
    assert level_label_at_zero_drive(delta, n) == (1 if n % 2 == 0 else -1, rank)


class TestSpectrumSeries:
    def test_delta2_lowest_pair_coincides(self):
        series = spectrum_vs_drive(FockSpace(60), 2.0, np.linspace(0, 3, 31), 3)
        even0 = column(series, 1, 0)
        odd0 = column(series, -1, 0)
        assert np.max(np.abs(even0 - odd0)) < 1e-8

    def test_delta0_even_odd_pairing_at_strong_drive(self):
        series = spectrum_vs_drive(FockSpace(80), 0.0, np.array([3.0, 4.0, 5.0, 6.0]), 3)
        gap = np.abs(column(series, 1, 0) - column(series, -1, 0))
        assert np.all(np.diff(gap) < 0)          # tunnel splitting shrinks with f
        assert gap[-1] < 1e-3 * abs(column(series, 1, 0)[-1])

    def test_delta1p8_vacuum_state_stays_third_lowest(self):
        sp = FockSpace(60)
        series = spectrum_vs_drive(sp, 1.8, np.linspace(0.0, 3.0, 25), 4)
        target = column(series, 1, 1)   # the flow connected to |0>
        for i in range(len(series.f_grid)):
            position = np.sum(series.levels[i] < target[i] - 1e-12)
            assert position == 2

    def test_no_same_parity_crossing(self):
        for delta in (0.0, 1.8, 2.5):
            series = spectrum_vs_drive(FockSpace(60), delta, np.linspace(0, 3, 61), 4)
            for parity in (1, -1):
                cols = [column(series, parity, r) for r in range(3)]
                for lo, hi in zip(cols[:-1], cols[1:]):
                    assert np.all(hi - lo > -1e-12)

    def test_min_same_parity_gap_never_collapses(self):
        # gaps open at zero drive stay open: the minimum same-parity gap over
        # the lowest four even levels never falls meaningfully below its f=0
        # value (it dips ~5% around f~1.8 at delta=0 before growing again)
        for delta in (0.0, 1.8):
            series = spectrum_vs_drive(FockSpace(80), delta, np.linspace(0, 4, 41), 4)
            even = np.stack([column(series, 1, r) for r in range(4)], axis=1)
            gaps = np.diff(even, axis=1).min(axis=1)
            assert np.all(gaps >= 0.9 * gaps[0])

    def test_truncation_tail_check(self):
        # reference: tail weight of the embedded rank-0 eigenvector at the last drive
        sp = FockSpace(16)
        _, phi = eigenstate_by_label(sp, 0.0, 5.0, 1, 0)
        expected = f"tail population {tail_population(phi, 4):.3g} "
        with pytest.raises(ConvergenceError, match=f"rank 0 has {expected}"):
            spectrum_vs_drive(sp, 0.0, np.array([0.0, 5.0]), 3)
        spectrum_vs_drive(FockSpace(60), 0.0, np.array([0.0, 5.0]), 3)

    def test_f_grid_must_ascend(self):
        with pytest.raises(ValueError):
            spectrum_vs_drive(FockSpace(20), 0.0, np.array([1.0, 0.5]), 2)


class TestSameParityGap:
    def test_zero_drive_vacuum_gap(self):
        series = spectrum_vs_drive(FockSpace(40), 0.0, np.array([0.0]), 3)
        gap = same_parity_gap(series, 1, 0)
        assert gap[0] == pytest.approx(3.0)   # |0> to |2>

    def test_nonnegative(self):
        series = spectrum_vs_drive(FockSpace(40), 1.3, np.linspace(0, 2, 11), 3)
        assert np.all(same_parity_gap(series, 1, 0) >= 0)
        assert np.all(same_parity_gap(series, -1, 1) >= 0)

    def test_semiclassical_estimate_approached_from_below(self):
        # intrawell spacing 2*sqrt((delta+f) f): the well holds ~f/4 states at
        # delta=0, so the estimate overshoots at moderate f and improves slowly
        ratios = []
        for f, dim in ((5.0, 120), (10.0, 200), (20.0, 320)):
            series = spectrum_vs_drive(FockSpace(dim), 0.0, np.array([f]), 2)
            gap = same_parity_gap(series, 1, 0)[0]
            est = semiclassics(RwaSystem(delta=0.0, f=f)).gap_estimate
            ratios.append(gap / est)
        assert ratios[0] == pytest.approx(0.68, abs=0.02)
        assert ratios[0] < ratios[1] < ratios[2] < 1.0
        assert abs(ratios[2] - 1.0) < 0.06

    def test_missing_neighbor_raises(self):
        series = spectrum_vs_drive(FockSpace(20), 0.0, np.array([0.0]), 1)
        with pytest.raises(ValueError):
            same_parity_gap(series, 1, 0)


class TestDegeneracyScan:
    def test_integer_detuning_opposite_parity(self):
        found = find_degeneracy_points(FockSpace(60), np.linspace(0.5, 3.5, 13), 0.3)
        deltas = sorted({r["delta"] for r in found if r["kind"] == "opposite-parity"})
        assert deltas == [1.0, 2.0, 3.0]

    def test_half_integer_same_parity_at_zero_drive(self):
        found = find_degeneracy_points(FockSpace(40), np.array([2.5]), 0.0)
        kinds = {r["kind"] for r in found}
        assert "same-parity-even" in kinds   # E_0 = E_4
        assert "same-parity-odd" in kinds    # E_1 = E_3

    def test_half_integer_degeneracy_lifted_at_finite_drive(self):
        found = find_degeneracy_points(FockSpace(40), np.array([2.5]), 0.3)
        assert all(not r["kind"].startswith("same-parity") for r in found)


def test_eigenstate_by_label_phase_and_energy():
    sp = FockSpace(40)
    e, phi = eigenstate_by_label(sp, 0.0, 0.0, 1, 1)
    assert e == pytest.approx(3.0)
    assert phi[2] == pytest.approx(1.0)
    e, phi = eigenstate_by_label(sp, 0.0, 2.0, 1, 0)
    k = np.argmax(np.abs(phi))
    assert phi[k].imag == pytest.approx(0.0, abs=1e-14)
    assert phi[k].real > 0
    with pytest.raises(ValueError):
        eigenstate_by_label(sp, 0.0, 0.0, 1, 100)
