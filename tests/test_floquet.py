import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (build_floquet_matrix, q_squared_matrix, reduced_resonant_set,
                     reduced_rwa_equations)
from parosc.floquet import (
    LabFrameParams,
    _circular_distance,
    floquet_parity_block,
    floquet_vs_rwa,
    oscillator_levels,
    quasienergy_from_rwa,
)
from parosc.fock import FockSpace, ladder_operators
from parosc.rwa import RwaSystem, parity_eigh

OM0 = 1.0
V = 1e-3


def make_params(delta, f, **kw):
    return LabFrameParams(OM0, V, delta, f, **kw)


def test_parameter_validation():
    with pytest.raises(ValueError):
        LabFrameParams(omega0=1.0, V=1e-3, delta=500.0, f=0.0)  # omegaF = 3, far off resonance
    with pytest.raises(ValueError):
        LabFrameParams(omega0=1.0, V=0.2, delta=0.0, f=0.0)     # V too large
    with pytest.raises(ValueError):
        LabFrameParams(omega0=1.0, V=1e-3, delta=0.0, f=-0.1)   # negative drive
    with pytest.raises(ValueError):
        LabFrameParams(omega0=1.0, V=1e-3, delta=0.0, f=0.0, k_cut=2)


def test_lab_drive_from_reduced_controls():
    # omegaF = 2 (omega0 + delta V) and F = 4 omega0 f V, exact in binary here
    p = LabFrameParams(omega0=1.0, V=2.0 ** -10, delta=1.5, f=0.75)
    assert p.omegaF == 2.0 + 3.0 / 1024.0
    assert p.F == 3.0 / 1024.0
    # and as the float operations of the formulas at the package's usual values
    p = make_params(1.8, 0.7)
    assert p.omegaF == 2.0 * (OM0 + 1.8 * V)
    assert p.F == 4.0 * OM0 * 0.7 * V


def test_eps_rwa_is_the_rwa_chain_at_the_given_controls():
    # the RWA side diagonalises the chains at the delta and f it was given, to
    # the bit: a round trip through the lab frame used to shift delta = 1.8
    for delta, f, n_cut in ((1.8, 1.0, 12), (1.8, 0.7, 24), (0.3, 0.8, 24)):
        p = make_params(delta, f, n_cut=n_cut)
        table = floquet_vs_rwa(p)
        chains = {parity: parity_eigh(n_cut, RwaSystem(delta, f), parity)[1]
                  for parity in (1, -1)}
        labels = zip(table["parity"].astype(int), table["rank"].astype(int))
        expected = [quasienergy_from_rwa(chains[parity][rank] * V, parity, p.omegaF)
                    for parity, rank in labels]
        assert table["eps_rwa"].tolist() == expected


def test_q_squared_oracle():
    # oracle: square the position matrix built from ladder operators
    p = make_params(0.0, 0.0, n_cut=12)
    a, a_dag = ladder_operators(FockSpace(12))
    q = (a + a_dag) / np.sqrt(2 * OM0)
    q2_oracle = (q @ q).real
    q2 = q_squared_matrix(p)
    # the direct product has an edge defect in its diagonal from truncation
    assert np.allclose(q2[:10, :10], q2_oracle[:10, :10], atol=1e-14)
    assert q2[3, 5] == pytest.approx(np.sqrt(4 * 5) / (2 * OM0))


def test_zero_drive_eigenvalues_exact():
    p = make_params(0.5, 0.0, k_cut=4, n_cut=6)
    m = build_floquet_matrix(p)
    w = np.sort(np.linalg.eigvalsh(m))
    ks = np.arange(-4, 5)
    ns = np.arange(6)
    expected = np.sort((oscillator_levels(p, ns)[None, :]
                        - ks[:, None] * p.omegaF).ravel())
    assert np.allclose(w, expected, atol=1e-12)


def test_zero_drive_quasienergies():
    p = make_params(0.5, 0.0)
    e1 = oscillator_levels(p, np.array([1]))[0]
    assert quasienergy_from_rwa(0.0, 1, p.omegaF) == 0.0
    m = build_floquet_matrix(p)
    w = np.linalg.eigvalsh(m) % p.omegaF
    assert np.min(np.abs(w)) < 1e-10                      # eps_0 = 0
    assert np.min(np.abs(w - e1 % p.omegaF)) < 1e-10      # eps_1 = E_1 mod omegaF


def test_coupling_element_position():
    p = make_params(0.2, 0.4, k_cut=5, n_cut=8)
    m = build_floquet_matrix(p)
    n, k = 3, 1
    row = (k + p.k_cut) * p.n_cut + n
    col = (k + 1 + p.k_cut) * p.n_cut + n + 2
    expected = 0.25 * p.F * np.sqrt((n + 1) * (n + 2)) / (2 * OM0)
    assert m[row, col] == pytest.approx(expected)


def test_reduced_even_set_zero_drive_diagonal():
    p = make_params(1.0, 0.0, n_cut=10)
    even, odd = reduced_rwa_equations(p)
    ks = np.arange(even.shape[0])
    assert np.allclose(np.diag(even),
                       oscillator_levels(p, 2 * ks) - ks * p.omegaF)
    assert np.count_nonzero(even - np.diag(np.diag(even))) == 0
    assert np.count_nonzero(odd - np.diag(np.diag(odd))) == 0


def test_k_shift_equivalence_of_resonant_sets():
    p = make_params(0.7, 0.9, n_cut=20)
    base = np.linalg.eigvalsh(reduced_resonant_set(p, 0, 0))
    shifted = np.linalg.eigvalsh(reduced_resonant_set(p, 1, 0))
    # same chain of Fock states, eigenvalues displaced by exactly omegaF
    assert np.allclose(shifted + p.omegaF, base, atol=1e-12)
    # chains entered at a different rung are literally the same system
    same = np.linalg.eigvalsh(reduced_resonant_set(p, 1, 2))
    assert np.allclose(same, base, atol=1e-15)


def test_reduced_sets_reproduce_rwa_spectrum():
    for delta, f in ((0.0, 0.5), (1.8, 1.0), (2.5, 2.0)):
        p = make_params(delta, f, n_cut=40)
        even, odd = reduced_rwa_equations(p)
        system = RwaSystem(delta=delta, f=f)
        ew = parity_eigh(40, system, 1)[1] * V
        ow = parity_eigh(40, system, -1)[1] * V
        scale = max(np.max(np.abs(ew)), V)
        assert np.max(np.abs(np.linalg.eigvalsh(even)[:10]
                             - ew[:10])) < 1e-12 * scale / V * V
        # odd chain sits half a drive quantum above the odd RWA levels
        assert np.max(np.abs(np.linalg.eigvalsh(odd)[:10]
                             - (ow[:10] + p.omegaF / 2))) < 1e-9 * p.omegaF


def test_quasienergy_mapping():
    omegaF = 2.0
    assert quasienergy_from_rwa(0.0, 1, omegaF) == pytest.approx(0.0)
    assert quasienergy_from_rwa(0.0, -1, omegaF) == pytest.approx(omegaF / 2)
    # degenerate opposite-parity pair maps to quasienergies omegaF/2 apart
    e = 0.123
    d = abs(quasienergy_from_rwa(e, 1, omegaF) - quasienergy_from_rwa(e, -1, omegaF))
    assert min(d, omegaF - d) == pytest.approx(omegaF / 2)


EPS = np.finfo(float).eps


@settings(max_examples=300, derandomize=True, deadline=None)
@given(energy=st.floats(-1e4, 1e4), omegaF=st.floats(1e-2, 1e3), k=st.integers(-50, 50))
@example(energy=-1e-20, omegaF=1.0, k=0)      # E % omegaF rounds up to omegaF
def test_quasienergy_map_is_modular(energy, omegaF, k):
    # RWA energies fold onto the quasienergy circle [0, omegaF): the map is
    # periodic in E, and odd parity sits half a drive quantum above even.
    # Both hold to the rounding of E + k omegaF and of the fold: over 10^5
    # random draws the largest distances were 0.98 eps (|E| + |k| omegaF) and
    # 1.12 eps (|E| + omegaF)
    q = {parity: quasienergy_from_rwa(energy, parity, omegaF) for parity in (1, -1)}
    assert all(0.0 <= value < omegaF for value in q.values())
    shifted = quasienergy_from_rwa(energy + k * omegaF, 1, omegaF)
    assert _circular_distance(shifted, q[1], omegaF) <= 2 * EPS * (abs(energy) + abs(k) * omegaF)
    half_up = (q[1] + omegaF / 2) % omegaF
    assert _circular_distance(q[-1], half_up, omegaF) <= 2 * EPS * (abs(energy) + omegaF)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(a=st.integers(-2**30, 2**30), b=st.integers(-2**30, 2**30),
       period=st.integers(1, 2**20), k=st.integers(-50, 50))
def test_circular_distance(a, b, period, k):
    # multiples of 2^-10, so a + k period is exact and equal mod period exactly
    a, b, period = a / 1024, b / 1024, period / 1024
    d = _circular_distance(a, b, period)
    assert d == _circular_distance(b, a, period)
    assert 0.0 <= d <= period / 2
    assert _circular_distance(a, a + k * period, period) == 0.0


def test_fourier_vs_rwa_tracked_states():
    p = make_params(0.3, 0.8)
    table = floquet_vs_rwa(p, n_track=6)
    assert {len(column) for column in table.values()} == {6}
    assert np.all(table["overlap"] > 0.99)
    assert np.all(table["discrepancy"] < 2e-3 * V)


def test_quasienergy_set_type():
    p = make_params(1.8, 0.5)
    table = floquet_vs_rwa(p, n_track=5)
    values, parities = table["eps_fourier"], table["parity"]
    assert len(values) == 5
    assert np.all((values >= 0) & (values < p.omegaF))
    assert set(parities) <= {-1, 1}
    # the lowest even and odd states straddle half a drive quantum
    even = values[parities == 1][0]
    odd = values[parities == -1][0]
    d = abs(even - odd) % p.omegaF
    shifted = min(d, p.omegaF - d) - p.omegaF / 2
    assert abs(shifted) < 0.1 * p.omegaF


def test_fourier_quasienergy_a_hair_below_zero_folds_to_zero(monkeypatch):
    # NumPy's % rounds -1e-20 % omegaF up to omegaF, outside [0, omegaF)
    eigh = np.linalg.eigh

    def eigh_at_minus_tiny(a):
        w, v = eigh(a)
        return np.full_like(w, -1e-20), v

    monkeypatch.setattr(np.linalg, "eigh", eigh_at_minus_tiny)
    p = make_params(0.3, 0.8)
    eps = floquet_vs_rwa(p, n_track=6)["eps_fourier"]
    assert np.all((eps >= 0) & (eps < p.omegaF))
    assert eps.tolist() == [0.0] * 6


def test_rwa_error_decreases_with_nonlinearity():
    worst = []
    for v in (1e-3, 5e-4, 2.5e-4):
        table = floquet_vs_rwa(LabFrameParams(OM0, v, 0.3, 0.8))
        worst.append(float(np.max(table["discrepancy"])) / v)
    assert worst[0] > worst[1] > worst[2]


def test_quasienergy_set_stable_under_k_cut():
    p1 = make_params(1.8, 1.0, k_cut=10, n_cut=20)
    p2 = make_params(1.8, 1.0, k_cut=12, n_cut=20)
    e1 = floquet_vs_rwa(p1, n_track=6)["eps_fourier"]
    e2 = floquet_vs_rwa(p2, n_track=6)["eps_fourier"]
    d = np.abs(e1 - e2) % p1.omegaF
    assert np.all(np.minimum(d, p1.omegaF - d) < 1e-8 * p1.omegaF)


@pytest.mark.parametrize("n_cut", [24, 32])
def test_even_and_odd_fock_rows_never_meet(n_cut):
    # q^2 changes n by 0 or 2, so the block between rows of even n and rows
    # of odd n is exactly zero: each parity is diagonalised on its own
    m = build_floquet_matrix(make_params(1.8, 1.0, n_cut=n_cut))
    odd = np.arange(len(m)) % n_cut % 2 == 1
    assert m[np.ix_(~odd, odd)].size > 0
    assert np.all(m[np.ix_(~odd, odd)] == 0.0)


@pytest.mark.parametrize("n_cut", [24, 25])
@pytest.mark.parametrize("parity", [1, -1])
def test_parity_block_is_the_full_matrix_on_its_rows(parity, n_cut):
    # the block built on its own is, entry for entry, the oracle's rows and
    # columns of Fock parity `parity`, in the same k-major order
    p = make_params(1.8, 1.0, k_cut=6, n_cut=n_cut)
    m = build_floquet_matrix(p)
    rows = np.flatnonzero(np.arange(len(m)) % n_cut % 2 == (1 - parity) // 2)
    block = floquet_parity_block(p, parity)
    assert block.shape == (len(rows), len(rows))
    assert np.all(block == m[np.ix_(rows, rows)])


@pytest.mark.parametrize("delta, f", [(1.8, 1.0), (0.3, 0.8), (2.5, 2.0)])
def test_parity_blocks_match_full_matrix_eigh(delta, f):
    # oracle: the whole Fourier x Fock matrix, each tracked state picked by its
    # overlap with the resonant-chain embedding over all eigenvectors
    p = make_params(delta, f)
    table = floquet_vs_rwa(p, n_track=6)
    w, vecs = np.linalg.eigh(build_floquet_matrix(p))
    nk = 2 * p.k_cut + 1
    chains = {parity: parity_eigh(p.n_cut, RwaSystem(delta=delta, f=f), parity)
              for parity in (1, -1)}
    for parity, rank, eps in zip(table["parity"], table["rank"], table["eps_fourier"]):
        idx, _, v = chains[int(parity)]
        keep = (idx < p.n_cut) & (idx // 2 <= p.k_cut)
        embedded = np.zeros(nk * p.n_cut)
        embedded[(idx[keep] // 2 + p.k_cut) * p.n_cut + idx[keep]] = v[keep, int(rank)]
        j = int(np.argmax(np.abs(vecs.T @ embedded)))
        d = abs(w[j] % p.omegaF - eps)
        assert min(d, p.omegaF - d) < 1e-12 * p.omegaF
