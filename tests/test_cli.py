import ast
import dataclasses
import json
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import record_parity_eigh, same_parity_gap, weber_solution
from parosc import cli, io, radiation
from parosc.cli import ConfigError, load_config, main, run_experiment, validate_config
from parosc.fock import ConvergenceError, FockSpace
from parosc.io import write_csv
from parosc.lindblad import state_decay_rate
from parosc.lz import LzProblem, lz_evolve_numeric
from parosc.ramp import RampProtocol, evolve_ramp
from parosc.spectrum import eigenstate_by_label, spectrum_vs_drive

EPS = np.finfo(float).eps


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("zero_drive", "spectrum", "ramp", "wigner", "lz",
                 "decay_rates", "radiation", "floquet_check"):
        assert name in out


def test_validate_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "zero_drive", "delta": 2.0,
                                  "output_dir": str(tmp_path / "out")})
    assert main(["validate", "--config", cfg]) == 0
    assert "config ok" in capsys.readouterr().out


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "zero_drive", "delta": 2.0,
                                  "bogus_key": 1, "output_dir": str(tmp_path)})
    assert main(["validate", "--config", cfg]) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_missing_required_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "ramp", "delta": 0.0,
                                  "output_dir": str(tmp_path)})
    assert main(["validate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "f_final" in err or "s_tilde" in err


def test_write_csv_format(tmp_path):
    # the one CSV writer: %d for integer columns, %.17e for all others
    path = write_csv(tmp_path / "t.csv", {"n": np.array([0, -3, 7]),
                                          "x": np.array([-0.0, 1e-300, np.nan]),
                                          "y": np.array([0.1, -2.5e300, -np.inf])})
    assert path == tmp_path / "t.csv"
    assert path.read_bytes() == (
        b"n,x,y\n"
        b"0,-0.00000000000000000e+00,1.00000000000000006e-01\n"
        b"-3,1.00000000000000003e-300,-2.50000000000000013e+300\n"
        b"7,nan,-inf\n")
    # mixed %d and %.17e columns over many rows, against one format per row
    rng = np.random.default_rng(7)
    columns = {"i": rng.integers(-10**12, 10**12, 301),
               "x": rng.normal(size=301) * 10.0 ** rng.integers(-300, 300, 301),
               "k": np.arange(301, dtype=np.uint16), "y": rng.normal(size=301)}
    fmt = "%d,%.17e,%d,%.17e\n"
    rows = "".join(fmt % row for row in zip(*(c.tolist() for c in columns.values())))
    path = write_csv(tmp_path / "mixed.csv", columns)
    assert path.read_bytes() == ("i,x,k,y\n" + rows).encode()
    # repeated values, each formatted once: a long-format grid, signed zeros,
    # NaN payloads, infinities, repeated integers, and a column with exactly
    # half its values distinct (the most that is still formatted once)
    axis = np.linspace(-2.5, 2.5, 41)
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000],
                    dtype=np.uint64).view(float)
    specials = np.concatenate([nans, [np.inf, -np.inf, 0.0, -0.0, 5e-324]])
    half = np.repeat(rng.normal(size=len(axis) ** 2 // 2), 2)
    columns = {"Q": np.repeat(axis, len(axis)), "P": np.tile(axis, len(axis)),
               "W": rng.normal(size=len(axis) ** 2),
               "z": np.tile([0.0, -0.0], len(axis) ** 2 // 2 + 1)[:len(axis) ** 2],
               "s": rng.choice(specials, len(axis) ** 2),
               "i": rng.integers(-3, 3, len(axis) ** 2),
               "u": rng.integers(0, 2**16, len(axis) ** 2).astype(np.uint16) // 4096,
               "h": np.concatenate([half, [half[0]]]), "g": np.concatenate([half, [1.5]])}
    assert [io._cells(c)[0] for c in columns.values()] == (
        ["%s", "%s", "%.17e", "%s", "%s", "%s", "%s", "%s", "%.17e"])
    fmt = "%.17e,%.17e,%.17e,%.17e,%.17e,%d,%d,%.17e,%.17e\n"
    rows = "".join(fmt % row for row in zip(*(c.tolist() for c in columns.values())))
    path = write_csv(tmp_path / "repeated.csv", columns)
    assert path.read_bytes() == ("Q,P,W,z,s,i,u,h,g\n" + rows).encode()
    assert b"-0.00000000000000000e+00,nan" in path.read_bytes()
    empty = write_csv(tmp_path / "empty.csv", {"n": np.zeros(0, dtype=int), "x": np.zeros(0)})
    assert empty.read_bytes() == b"n,x\n"
    with pytest.raises(ValueError, match="equal length"):
        write_csv(tmp_path / "bad.csv", {"a": np.zeros(2), "b": np.zeros(3)})


def assert_rejected_before_run(tmp_path, capsys, payload, override, *needles):
    """``run --set override`` and ``validate`` of the overridden config exit 2, naming it."""
    payload = {**payload, "output_dir": str(tmp_path / "out")}
    cfg = write_config(tmp_path, payload)
    assert main(["run", "--config", cfg, "--set", override]) == 2
    err = capsys.readouterr().err
    assert all(needle in err for needle in needles)
    assert not (tmp_path / "out").exists()
    key, value = override.split("=", 1)
    try:
        payload[key] = json.loads(value)
    except json.JSONDecodeError:
        payload[key] = value
    assert main(["validate", "--config", write_config(tmp_path, payload, "bad.json")]) == 2
    err = capsys.readouterr().err
    assert all(needle in err for needle in needles)


@pytest.mark.parametrize("experiment, override, key", [
    ("zero_drive", "delta=NaN", "delta"),
    ("zero_drive", "n_max=Infinity", "n_max"),
    ("lz", "t_max=Infinity", "t_max"),
    ("decay_rates", "gamma_tildes=[]", "gamma_tildes"),
    ("decay_rates", "gamma_tildes=abc", "gamma_tildes"),
    ("decay_rates", 'gamma_tildes=["abc"]', "gamma_tildes"),
    ("decay_rates", "gamma_tildes=[1.0, NaN]", "gamma_tildes"),
    ("decay_rates", "gamma_tildes=[-1.0]", "gamma_tildes"),
    ("lz", "n_out=2.7", "n_out"),           # int(2.7) used to run 2 quietly
    ("lz", "sign=1.5", "sign"),
    ("radiation", "gamma_tilde=0", "gamma_tilde"),
    # sizes and rates outside the domain of the library call they feed
    ("lz", "n_out=0", "n_out"),
    ("lz", "n_out=1", "n_out"),
    ("lz", "t_max=0", "t_max"),
    ("radiation", "dim=2", "dim"),
    ("radiation", "s_tilde=0", "s_tilde"),
    ("radiation", "x_points=0", "x_points"),
    ("radiation", "x_max=0", "x_max"),
    ("radiation", "x_max=-2", "x_max"),
    ("ramp", "n_out=0", "n_out"),
    ("ramp", "n_out=1", "n_out"),           # used to write the start and the end
    ("ramp", "dim=1", "dim"),
    ("ramp", "s_tilde=0", "s_tilde"),
    ("spectrum", "f_points=0", "f_points"),
    ("spectrum", "n_levels=0", "n_levels"),
    ("spectrum", "dim=1", "dim"),
    ("wigner", "q_points=1", "q_points"),   # a one-point axis has no cell size
    ("decay_rates", "f_points=0", "f_points"),
    ("floquet_check", "n_track=0", "n_track"),
    ("floquet_check", "k_cut=2", "k_cut"),
    ("zero_drive", "n_max=-1", "n_max"),
    # cross-key rules, each naming every key it compares (comma-separated here)
    ("floquet_check", "n_track=13", "n_track,n_cut"),   # used to die in a numpy broadcast
    ("spectrum", "f_min=1.0", "f_min,f_max"),
    ("decay_rates", "f_min=7.0", "f_min,f_max"),
])
def test_bad_value_rejected_before_run(tmp_path, capsys, experiment, override, key):
    keys = {**TINY, "zero_drive": {"delta": 2.0}, "lz": {"delta2_over_s": 1.0},
            "decay_rates": {}}
    assert_rejected_before_run(tmp_path, capsys, {"experiment": experiment, **keys[experiment]},
                               override, *(f"key {k}" for k in key.split(",")))


@pytest.mark.parametrize("payload, override, keys", [
    ({"delta": 0.0, "f": 1}, "delta=200", ("delta", "V", "omega0")),   # 2|delta| V >= 0.2 omega0
    ({"delta": 0.1, "f": 1}, "V=0.06", ("V", "omega0")),               # V >= 0.05 omega0
])
def test_floquet_check_lab_frame_domain(tmp_path, capsys, payload, override, keys):
    # LabFrameParams rejects both, but only once the run has started
    assert_rejected_before_run(tmp_path, capsys, {"experiment": "floquet_check", **payload},
                               override, *(f"key {k}" for k in keys))


BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


def bench_configs():
    """Each timed and probe entry of the three workloads and each tiny.json entry."""
    params = []
    for workload in ("dissipation", "tomography", "flows"):
        spec = json.loads((BENCH_CONFIGS / f"{workload}.json").read_text(encoding="utf-8"))
        for group in ("timed", "probe"):
            params += [pytest.param(cfg, id=f"{workload}-{group}{i}")
                       for i, cfg in enumerate(spec.get(group, []))]
    tiny = json.loads((BENCH_CONFIGS / "tiny.json").read_text(encoding="utf-8"))
    return params + [pytest.param(cfg, id=f"tiny-{name}") for name, cfg in tiny.items()]


@pytest.mark.parametrize("raw", bench_configs())
def test_benchmark_config_validates(tmp_path, raw):
    # the domains of validate_config must not fail a benchmark operation
    cfg = validate_config({**raw, "output_dir": str(tmp_path / "out")})
    assert cfg["experiment"] == raw["experiment"]


@pytest.mark.parametrize("override, key", [
    ("delta2_over_s=-1", "delta2_over_s"), ("sign=5", "sign"), ("sign=0", "sign")])
def test_lz_run_rejects_sweep_outside_domain(tmp_path, capsys, override, key):
    # Delta = sqrt(-1) used to hang the step doubling; sign = 5 ran Delta^2/s = 25
    assert_rejected_before_run(tmp_path, capsys, {"experiment": "lz", "delta2_over_s": 1.0},
                               override, key)


def test_decay_rates_builds_each_eigenstate_once(tmp_path, monkeypatch):
    # one even-chain solve per drive gives both the gap and the (+1, 0) state,
    # to the bit the spectrum module's gap and labelled eigenstate
    cfg = validate_config({"experiment": "decay_rates", **TINY["decay_rates"],
                           "gamma_tildes": [0.5, 1.0, 2.0], "output_dir": str(tmp_path)})
    space, f_grid = FockSpace(cfg["dim"]), np.linspace(cfg["f_min"], cfg["f_max"], cfg["f_points"])
    gaps = same_parity_gap(spectrum_vs_drive(space, cfg["delta"], f_grid, 3), 1, 0)
    rates = [state_decay_rate(eigenstate_by_label(space, cfg["delta"], f, 1, 0)[1], 0.5)
             for f in f_grid]
    calls = record_parity_eigh(monkeypatch)
    run_experiment(cfg)
    # even-chain solves only, one per drive and one for the probe
    assert [parity for _, parity in calls] == [1] * (cfg["f_points"] + 1)
    data = np.loadtxt(tmp_path / "decay_rates.csv", delimiter=",", skiprows=1, ndmin=2)
    assert data.shape == (3 * cfg["f_points"], 4)
    assert np.array_equal(data[:, 0], np.repeat([0.5, 1.0, 2.0], cfg["f_points"]))
    assert np.array_equal(data[:3, 2], rates) and np.array_equal(data[:3, 3], gaps)
    # Gamma_E = 2 gamma_tilde <n> is linear in gamma_tilde at each drive
    assert np.allclose(data[6:, 2], 4.0 * data[:3, 2], rtol=1e-14, atol=0.0)


def test_decay_rates_edge_check_covers_the_gap_partner(tmp_path):
    # at d = 12, f = 0.5 the top 4 levels hold 1.2e-9 of the (+1, 0) state and
    # 2.8e-7 of the (+1, 1) state, whose level sets the shipped gap
    cfg = validate_config({"experiment": "decay_rates", "delta": 0.0, "dim": 12,
                           "f_max": 0.5, "f_points": 3, "output_dir": str(tmp_path)})
    with pytest.raises(ConvergenceError, match="rank 1 "):
        run_experiment(cfg)
    assert not (tmp_path / "decay_rates.csv").exists()


def test_unknown_experiment():
    with pytest.raises(ConfigError):
        validate_config({"experiment": "nope", "output_dir": "x"})


def test_zero_drive_reproduces_degeneracies(tmp_path):
    out = tmp_path / "zd"
    cfg = write_config(tmp_path, {"experiment": "zero_drive", "delta": 2.0,
                                  "n_max": 5, "output_dir": str(out)})
    assert main(["run", "--config", cfg]) == 0
    lines = (out / "zero_drive.csv").read_text().strip().split("\n")
    assert lines[0] == "n,energy"
    levels = [float(l.split(",")[1]) for l in lines[1:]]
    assert abs(levels[0] - levels[3]) < 1e-12
    assert abs(levels[1] - levels[2]) < 1e-12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["convergence"]["converged"]
    assert manifest["experiment"] == "zero_drive"


def test_zero_drive_report_checks_the_shipped_levels(tmp_path):
    # the table holds E_n by Fock index n; at delta = 15 these are not the
    # n_max + 1 lowest levels, which the report once compared (rel_diff 0.067)
    manifest = run_experiment(validate_config({"experiment": "zero_drive", "delta": 15.0,
                                               "n_max": 5, "output_dir": str(tmp_path)}))
    assert manifest["convergence"]["converged"]
    assert manifest["convergence"]["rel_diff"] < 1e-15


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    base = {"experiment": "spectrum", "delta": 2.0, "f_max": 1.0,
            "f_points": 5, "n_levels": 3, "dim": 30}
    cfg1 = write_config(tmp_path, base | {"output_dir": str(out1)}, "c1.json")
    cfg2 = write_config(tmp_path, base | {"output_dir": str(out2)}, "c2.json")
    assert main(["run", "--config", cfg1]) == 0
    assert main(["run", "--config", cfg2]) == 0
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()
    # a wigner table: its Q and P columns repeat each value, so the writer
    # formats each once; the rows are still those of the %.17e format
    wigner = {"experiment": "wigner", "delta": 0.0, "f_final": 1.0, "s_tilde": 2.0, "dim": 16,
              "q_max": 3.0, "p_max": 3.0, "q_points": 21, "p_points": 17}
    for out in (out1, out2):
        assert main(["run", "--config", write_config(tmp_path, wigner | {"output_dir": str(out)},
                                                     "w.json")]) == 0
    body = (out1 / "wigner.csv").read_bytes()
    assert body == (out2 / "wigner.csv").read_bytes()
    q, p = np.linspace(-3.0, 3.0, 21), np.linspace(-3.0, 3.0, 17)
    rows = body.decode().splitlines()[1:]
    assert [r.rsplit(",", 1)[0] for r in rows] == (
        ["%.17e,%.17e" % qp for qp in zip(np.repeat(q, 17).tolist(), np.tile(p, 21).tolist())])


def test_set_override(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, {"experiment": "zero_drive", "delta": 0.0,
                                  "output_dir": str(out)})
    assert main(["run", "--config", cfg, "--set", "delta=2.5", "--set", "n_max=4"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["delta"] == 2.5
    lines = (out / "zero_drive.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 5
    levels = [float(l.split(",")[1]) for l in lines[1:]]
    assert abs(levels[0] - levels[4]) < 1e-12   # E_0 = E_4 at delta = 2.5


def test_lz_run_matches_shape(tmp_path):
    out = tmp_path / "lz"
    cfg = write_config(tmp_path, {"experiment": "lz", "delta2_over_s": 0.25,
                                  "t_max": 6.0, "n_out": 121,
                                  "output_dir": str(out)})
    assert main(["run", "--config", cfg]) == 0
    rows = (out / "lz.csv").read_text().strip().split("\n")[1:]
    p_up = np.array([float(r.split(",")[1]) for r in rows])
    assert p_up[0] == pytest.approx(1.0, abs=1e-10)   # starts on the upper branch
    assert p_up.min() < 0.9                            # relaxes away from 1
    summary = json.loads((out / "manifest.json").read_text())["results"]
    assert summary["alpha_up_sq"] + summary["alpha_down_sq"] == pytest.approx(1.0, abs=1e-6)
    # at this ramp parameter the branch population levels off near 0.78
    assert np.mean(p_up[-20:]) == pytest.approx(summary["alpha_up_sq"], abs=0.05)


def test_lz_run_deep_adiabatic(tmp_path):
    # Delta^2/s = 600: the limiting amplitudes used to overflow here
    out = tmp_path / "lz600"
    cfg = write_config(tmp_path, {"experiment": "lz", "delta2_over_s": 600.0,
                                  "output_dir": str(out)})
    assert main(["run", "--config", cfg]) == 0
    summary = json.loads((out / "manifest.json").read_text())["results"]
    assert summary["alpha_up_sq"] + summary["alpha_down_sq"] == pytest.approx(1.0, abs=1e-12)
    rows = (out / "lz.csv").read_text().strip().split("\n")[1:]
    p_up = np.array([float(r.split(",")[1]) for r in rows])
    assert np.all(np.abs(p_up - 1.0) < 1e-3)


def check_lz_run_against_weber(tmp_path, d2s, **keys):
    """Run `parosc run lz`; its trajectory must hold the norm and match the Weber oracle."""
    out = tmp_path / f"lz{d2s:g}"
    cfg = write_config(tmp_path, {"experiment": "lz", "delta2_over_s": d2s, **keys,
                                  "output_dir": str(out)})
    assert main(["run", "--config", cfg]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["norm_drift"] <= 1e-9
    assert manifest["parameters"]["delta2_over_s"] == d2s and manifest["parameters"]["sign"] == 1
    data = np.loadtxt(out / "lz.csv", delimiter=",", skiprows=1, ndmin=2)
    exact = weber_solution(LzProblem(Delta=np.sqrt(d2s), s=1.0), data[:, 0])
    assert np.max(np.abs(data[:, 3] + 1j * data[:, 4] - exact.c_plus)) <= 1e-9
    assert np.max(np.abs(data[:, 5] + 1j * data[:, 6] - exact.c_minus)) <= 1e-9
    return data


def test_lz_run_beyond_pcf_overflow(tmp_path):
    # Delta^2/s = 2000: D_nu(0) of the exact solution used to overflow here
    data = check_lz_run_against_weber(tmp_path, 2000.0, t_max=4.0, n_out=201)
    assert len(data) == 201


@pytest.mark.parametrize("d2s", [0.25, 200.0])
def test_lz_run_matches_weber_oracle(tmp_path, d2s):
    # the CLI writes the direct integration; the exact solution is its oracle
    check_lz_run_against_weber(tmp_path, d2s)


def test_radiation_zero_horizon_rejected(tmp_path, capsys):
    # T_max = 0 is too short like any other horizon below 10/gamma_tilde
    assert_rejected_before_run(tmp_path, capsys, {"experiment": "radiation", **TINY["radiation"]},
                               "T_max=0", "T_max", "too short")


def test_radiation_steps_each_sector_once_per_grid(tmp_path, monkeypatch):
    # both spectra read the same odd adjoint rows, and the sum rule steps
    # nothing: on each time grid (main run, dim+10 probe) every parity sector
    # is stepped by one call that yields all n_t rows
    calls, rows_drawn = Counter(), Counter()
    states = radiation._SteppingFlow.states

    def grid(flow):
        return flow.sectors[0].idx.size, flow.n_t, flow.dt

    def counting_states(self, s, x, adjoint=False):
        calls[grid(self), s] += 1
        for start, rows in states(self, s, x, adjoint):
            rows_drawn[grid(self), s] += len(rows)
            yield start, rows

    monkeypatch.setattr(radiation._SteppingFlow, "states", counting_states)
    run_experiment(validate_config({"experiment": "radiation", **TINY["radiation"],
                                    "output_dir": str(tmp_path)}))
    grids = {key for key, _ in calls}
    assert len(grids) == 2
    assert set(calls) == {(key, s) for key in grids for s in (0, 1)}
    assert set(calls.values()) == {1}
    assert rows_drawn == Counter({(key, s): key[1] for key, s in calls})


@pytest.mark.filterwarnings("ignore:spectra truncated at the horizon")
@pytest.mark.parametrize("gamma_tilde", [1.0, 2.0])
def test_radiation_runs_where_the_odd_eigenbasis_is_ill_conditioned(tmp_path, gamma_tilde):
    # at d = 34 the odd-sector eigenvectors have condition number 1.7e14
    # (gamma_tilde = 1) and 1.5e15 (2); the sum rule needs none of them
    out = run_cli(tmp_path, "radiation", delta=1.8, f=1.0, gamma_tilde=gamma_tilde, dim=34,
                  T_max=20.0, x_points=201)
    res = json.loads((out / "manifest.json").read_text())["results"]
    lhs, rhs = res["sum_rule_lhs"], res["sum_rule_rhs"]
    assert abs(lhs - rhs) <= 0.02 * abs(rhs)


def test_radiation_manifest_records_horizon_weight(tmp_path):
    # the weight the slowest odd mode keeps past T_max is in the manifest
    manifest = run_experiment(validate_config({"experiment": "radiation", **TINY["radiation"],
                                               "output_dir": str(tmp_path)}))
    res = manifest["results"]
    assert 0.0 < res["slowest_odd_rate"] < np.inf
    assert res["horizon_weight"] == pytest.approx(
        np.exp(-res["slowest_odd_rate"] * TINY["radiation"]["T_max"]), rel=1e-15)
    # 4.5e-5 is below the run's 1e-4, so nothing is truncated and nothing warns
    assert res["horizon_weight"] < cli.RADIATION_REL_TOL
    assert manifest["warnings"] == []
    # the smallest sigma_min/sigma_max of the steady-state elimination's Schur
    # blocks; the solve raises below 1e-8
    assert 1e-8 <= res["steady_sigma_ratio"] <= 1.0
    # the spectra's stepping: stepping_steps steps of stepping_dt span [0, T_max]
    assert res["stepping_steps"] * res["stepping_dt"] == pytest.approx(
        TINY["radiation"]["T_max"], rel=1e-12)


def test_radiation_manifest_records_horizon_truncation(tmp_path):
    # the dissipation benchmark as checked in (seed 0) keeps 15 % of its slowest
    # odd mode past T_max = 120: the run warns, and the manifest keeps the message
    raw = json.loads((BENCH_CONFIGS / "dissipation.json").read_text(encoding="utf-8"))
    cfg = validate_config({**raw["timed"][0], "output_dir": str(tmp_path)})
    with pytest.warns(RuntimeWarning, match="horizon") as shown:
        manifest = run_experiment(cfg)
    assert manifest["results"]["horizon_weight"] > cli.RADIATION_REL_TOL
    [message] = manifest["warnings"]
    assert message in [str(w.message) for w in shown]
    for name in ("T_max = 120", "slowest_odd_rate = 0.016", "horizon_weight = 0.146"):
        assert name in message
    assert json.loads((tmp_path / "manifest.json").read_text())["warnings"] == [message]


def test_manifest_records_warnings_the_filters_hide(tmp_path, monkeypatch):
    # the filters in force decide what is shown, not what the manifest keeps
    run = cli.RUNNERS["zero_drive"]

    def warning_run(cfg):
        warnings.warn("raised by the run", RuntimeWarning)
        return run(cfg)

    monkeypatch.setitem(cli.RUNNERS, "zero_drive", warning_run)
    cfg = validate_config({"experiment": "zero_drive", **TINY["zero_drive"],
                           "output_dir": str(tmp_path)})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_experiment(cfg)["warnings"] == ["raised by the run"]
    with pytest.warns(RuntimeWarning, match="raised by the run"):
        assert run_experiment(cfg)["warnings"] == ["raised by the run"]


def test_ramp_run_manifest(tmp_path):
    out = tmp_path / "r"
    cfg = write_config(tmp_path, {"experiment": "ramp", "delta": 0.0,
                                  "f_final": 0.5, "s_tilde": 0.25, "dim": 16,
                                  "n_out": 11, "output_dir": str(out)})
    assert main(["run", "--config", cfg]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["final_fidelity"] > 0.99
    assert manifest["convergence"]["converged"]
    header = (out / "ramp.csv").read_text().split("\n")[0]
    assert header == "t,f,fidelity,n_expect,parity_expect"


def test_run_reports_failure(tmp_path, capsys):
    out = tmp_path / "bad"
    # f large enough that dim=8 cannot converge: module raises, CLI exits 1
    cfg = write_config(tmp_path, {"experiment": "spectrum", "delta": 0.0,
                                  "f_max": 6.0, "f_points": 3, "n_levels": 3,
                                  "dim": 8, "output_dir": str(out)})
    assert main(["run", "--config", cfg]) == 1
    assert "failed" in capsys.readouterr().err


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_wigner_run_records_boundary_mass(tmp_path):
    out = tmp_path / "w"
    cfg = write_config(tmp_path, {"experiment": "wigner", "delta": 0.0,
                                  "f_final": 0.5, "s_tilde": 0.25, "dim": 16,
                                  "q_max": 5.0, "q_points": 41,
                                  "p_max": 5.0, "p_points": 41,
                                  "output_dir": str(out)})
    assert main(["run", "--config", cfg]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert 0.0 <= manifest["results"]["boundary_mass"] < 1e-4
    assert manifest["results"]["norm"] == pytest.approx(1.0, abs=1e-3)
    assert manifest["results"]["lambda"] == 1.0


TINY = {
    "zero_drive": {"delta": 2.5, "n_max": 2},
    "spectrum": {"delta": 2.0, "dim": 16, "f_max": 0.5, "f_points": 3, "n_levels": 2},
    "ramp": {"delta": 0.0, "f_final": 0.1, "s_tilde": 0.5, "dim": 12, "n_out": 3},
    "wigner": {"delta": 0.0, "f_final": 1.0, "s_tilde": 2.0, "dim": 16,
               "q_max": 3.0, "p_max": 3.0, "q_points": 9, "p_points": 9},
    "decay_rates": {"dim": 16, "f_max": 0.5, "f_points": 3, "gamma_tildes": [1.0]},
    "radiation": {"delta": 0.0, "f": 0.1, "gamma_tilde": 1.0, "s_tilde": 0.5, "dim": 12,
                  "T_max": 10.0, "x_max": 2.0, "x_points": 11},
    "floquet_check": {"delta": 1.8, "f": 1.0, "k_cut": 4, "n_cut": 12, "n_track": 2},
}


@pytest.mark.parametrize("experiment", sorted(TINY))
def test_truncation_probe_runs_only_at_dim_check(tmp_path, monkeypatch, experiment):
    # the report's base value is the run's own result: only dim_check is recomputed
    dims = []
    report = cli.convergence_report

    def recording_probe(probe):
        def wrapped(dim):
            dims.append(dim)
            return probe(dim)
        return wrapped

    def recording_report(*args, **kwargs):
        return report(*(recording_probe(a) if callable(a) else a for a in args), **kwargs)

    monkeypatch.setattr(cli, "convergence_report", recording_report)
    cfg = validate_config({"experiment": experiment, **TINY[experiment],
                           "output_dir": str(tmp_path)})
    manifest = run_experiment(cfg)
    assert dims == [manifest["convergence"]["dim_check"]]
    assert manifest["convergence"]["converged"]


def test_wigner_report_sees_weight_above_dim(tmp_path, monkeypatch):
    # the dim+10 state puts 1e-5 of its weight on level dim, which the dim
    # state cannot hold, so the report must not call the run converged
    dim, leak = TINY["wigner"]["dim"], 1e-5
    vacuum_ramp = cli._vacuum_ramp

    def leaky_ramp(d, *args, **kwargs):
        space, result = vacuum_ramp(d, *args, **kwargs)
        if d == dim:
            return space, result
        psi = np.sqrt(1.0 - leak) * result.final_state
        psi[dim] = np.sqrt(leak)
        return space, dataclasses.replace(result, final_state=psi)

    monkeypatch.setattr(cli, "_vacuum_ramp", leaky_ramp)
    manifest = run_experiment(validate_config({"experiment": "wigner", **TINY["wigner"],
                                               "output_dir": str(tmp_path)}))
    assert manifest["convergence"]["dim_check"] == dim + 10
    assert manifest["convergence"]["rel_diff"] > 1e-3
    assert not manifest["convergence"]["converged"]


@pytest.mark.parametrize("experiment, rel_tol", [
    ("ramp", 1e-8), ("wigner", 1e-8), ("radiation", 1e-8), ("lz", 1e-10)])
def test_manifest_records_cf4_sweep(tmp_path, experiment, rel_tol):
    # every ramp or LZ run reports the accepted CF4 step count and its error
    # estimate, which meets the run's rel_tol (the radiation ramp runs at 1e-8,
    # `parosc run lz` at the lz_evolve_numeric default of 1e-10)
    keys = TINY.get(experiment, {"delta2_over_s": 1.0, "t_max": 1.0, "n_out": 3})
    manifest = run_experiment(validate_config({"experiment": experiment, **keys,
                                               "output_dir": str(tmp_path)}))
    res = manifest["results"]
    assert isinstance(res["cf4_steps"], int) and res["cf4_steps"] >= 2
    assert 0.0 <= res["cf4_error_estimate"] <= rel_tol


def run_cli(tmp_path, experiment, **keys):
    """Output directory of one `parosc run` of ``experiment`` with ``keys``."""
    out = tmp_path / experiment
    cfg = write_config(tmp_path, {"experiment": experiment, **keys, "output_dir": str(out)})
    assert main(["run", "--config", cfg]) == 0
    return out


def read_table(path):
    """Header and data rows of a written CSV, each field a string."""
    header, *rows = path.read_text(encoding="utf-8").split("\n")[:-1]
    return header.split(","), [row.split(",") for row in rows]


@pytest.mark.parametrize("experiment", sorted(TINY) + ["lz"])
def test_run_writes_only_its_tables_and_manifest(tmp_path, experiment):
    keys = TINY.get(experiment, {"delta2_over_s": 1.0, "t_max": 1.0, "n_out": 3})
    out = run_cli(tmp_path, experiment, **keys)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] and all(name.endswith(".csv") for name in manifest["outputs"])
    assert sorted(p.name for p in out.iterdir()) == sorted(manifest["outputs"] + ["manifest.json"])


def test_lz_csv_layout(tmp_path):
    header, rows = read_table(run_cli(tmp_path, "lz", delta2_over_s=0.25, t_max=2.0,
                                      n_out=5) / "lz.csv")
    assert header == ["t", "p_up", "p_down", "re_c_plus", "im_c_plus", "re_c_minus",
                      "im_c_minus"]
    assert len(rows) == 5 and {len(r) for r in rows} == {7}
    # the probabilities match the scalar loop of the library solution to rounding
    sol = lz_evolve_numeric(LzProblem(Delta=0.5, s=1.0), 2.0, n_out=5)
    data = np.array(rows, dtype=float)
    for j, amps in ((1, sol.c_up), (2, sol.c_down)):
        loop = np.array([abs(c) ** 2 for c in amps])
        np.testing.assert_allclose(data[:, j], loop, rtol=4 * EPS, atol=0.0)


def test_ramp_csv_layout(tmp_path):
    out = run_cli(tmp_path, "ramp", delta=0.0, f_final=0.5, s_tilde=0.25, dim=20, n_out=5)
    data = np.loadtxt(out / "ramp.csv", delimiter=",", skiprows=1, ndmin=2)
    assert data.shape == (5, 5)
    t, f, fid, n_exp, par = data[-1]
    assert f == pytest.approx(0.5)
    assert 0.0 <= fid <= 1.0
    assert par == pytest.approx(1.0, abs=1e-9)
    # the expectations match a row-by-row loop over the library trajectory to rounding
    space = FockSpace(20)
    result = evolve_ramp(space, RampProtocol(delta=0.0, f_final=0.5, s_tilde=0.25,
                                             initial_state=space.vacuum(),
                                             output_times=np.linspace(0.0, 2.0, 5)))
    n = np.arange(20)
    loop = np.array([[np.abs(psi) ** 2 @ n, np.abs(psi) ** 2 @ (-1.0) ** n]
                     for psi in result.trajectory])
    np.testing.assert_allclose(data[:, 3:], loop, rtol=4 * EPS, atol=4 * EPS)


def test_wigner_csv_layout(tmp_path):
    out = run_cli(tmp_path, "wigner", delta=0.0, f_final=0.5, s_tilde=0.25, dim=16,
                  q_max=5.0, q_points=3, p_max=5.0, p_points=3)
    data = np.loadtxt(out / "wigner.csv", delimiter=",", skiprows=1, ndmin=2)
    assert data.shape == (9, 3)
    # long format, Q-major: Q steps once per p_points rows
    assert np.array_equal(data[:, 0], np.repeat([-5.0, 0.0, 5.0], 3))
    assert tuple(data[4, :2]) == (0.0, 0.0)


def test_spectrum_csv_layout(tmp_path):
    out = run_cli(tmp_path, "spectrum", delta=0.0, f_max=1.0, f_points=2, n_levels=2, dim=20)
    header, rows = read_table(out / "spectrum.csv")
    assert header == ["f", "parity", "rank", "energy"]
    assert len(rows) == 2 * 4 and {len(r) for r in rows} == {4}
    assert float(rows[0][0]) == 0.0
    # parity and rank are integer columns
    assert {r[1] for r in rows} == {"1", "-1"}
    assert {r[2] for r in rows} == {"0", "1"}


SRC = Path(__file__).resolve().parents[1] / "src" / "parosc"
RUN_ROOTS = [("cli", "RUNNERS"), ("cli", "run_experiment"), ("cli", "main")]
# Library API that no experiment runs: closed forms of the paper that check no
# other code.  Reference implementations the tests compare against live in
# tests/helpers.py instead.
LIBRARY_API = {
    "rwa.level_label_at_zero_drive": "the (parity, rank) label of |n> at zero drive",
    "rwa.perturbative_shift": "the second-order level shift at small drive",
    "rwa.classical_hamiltonian_function": "the scaled classical Hamiltonian g(Q, P)",
    "rwa.semiclassics": "the well data and intrawell gap estimate of g(Q, P)",
    "rwa.SemiclassicalSummary": "the record that semiclassics returns",
    "lz.dynamical_phase": "the large-time phase of the adiabatic branches",
    "spectrum.find_degeneracy_points": "the scan of the detuning for level coincidences",
    "fock.FockSpace.coherent_state": "the exact eigenstates at delta = 1",
    "wigner.WignerGrid.marginal_q": "the Q marginal of a Wigner function",
}


def package_definitions():
    """Per module of src/parosc: its top-level definitions and methods (``Class.name``)
    by name, and the (module, name) behind each of its relative imports."""
    defs, imports = {}, {}
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        defs[mod], imports[mod] = {}, {}
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod][node.name] = node
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef):
                        defs[mod][f"{node.name}.{sub.name}"] = sub
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defs[mod][target.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    imports[mod][alias.asname or alias.name] = (node.module, alias.name)
    return defs, imports


def reached_from(roots, defs, imports):
    """(module, name) of each definition that the roots use, directly or not, and the
    attribute names read on the way: a method counts as used where its name is read."""
    seen, attrs, work = set(), set(), list(roots)
    while work:
        mod, name = work.pop()
        if name not in defs[mod]:
            if name in imports[mod]:
                work.append(imports[mod][name])
            continue
        if (mod, name) in seen:
            continue
        seen.add((mod, name))
        for node in ast.walk(defs[mod][name]):
            if isinstance(node, ast.Name):
                work.append((mod, node.id))
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return seen, attrs


def test_package_holds_what_the_experiments_run():
    # every function, class and public method in src/parosc is reached from the
    # experiments (cli.RUNNERS, run_experiment, main) or is listed library API
    defs, imports = package_definitions()
    api = [tuple(key.split(".", 1)) for key in LIBRARY_API]
    run, _ = reached_from(RUN_ROOTS, defs, imports)
    assert [key for key in api if key[1] not in defs[key[0]] or key in run] == []
    reached, attrs = reached_from(RUN_ROOTS + api, defs, imports)
    unreached = []
    for mod, names in defs.items():
        for name, node in names.items():
            if (mod, name) in reached or not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            owner, _, method = name.rpartition(".")
            if not owner:
                unreached.append(f"{mod}.{name}")
            elif (mod, owner) in reached and not method.startswith("_") and method not in attrs:
                unreached.append(f"{mod}.{name}")
    assert unreached == []
