import json
from collections import Counter

import numpy as np
import pytest

from parosc import cli, radiation
from parosc.cli import ConfigError, load_config, main, run_experiment, validate_config
from parosc.lz import LzProblem, weber_solution


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


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    base = {"experiment": "spectrum", "delta": 2.0, "f_max": 1.0,
            "f_points": 5, "n_levels": 3, "dim": 30}
    cfg1 = write_config(tmp_path, base | {"output_dir": str(out1)}, "c1.json")
    cfg2 = write_config(tmp_path, base | {"output_dir": str(out2)}, "c2.json")
    assert main(["run", "--config", cfg1]) == 0
    assert main(["run", "--config", cfg2]) == 0
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()


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
    summary = json.loads((out / "lz_summary.json").read_text())
    assert summary["alpha_up_sq"] + summary["alpha_down_sq"] == pytest.approx(1.0, abs=1e-6)
    # at this ramp parameter the branch population levels off near 0.78
    assert np.mean(p_up[-20:]) == pytest.approx(summary["alpha_up_sq"], abs=0.05)


def test_lz_run_deep_adiabatic(tmp_path):
    # Delta^2/s = 600: the limiting amplitudes used to overflow here
    out = tmp_path / "lz600"
    cfg = write_config(tmp_path, {"experiment": "lz", "delta2_over_s": 600.0,
                                  "output_dir": str(out)})
    assert main(["run", "--config", cfg]) == 0
    summary = json.loads((out / "lz_summary.json").read_text())
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
    summary = json.loads((out / "lz_summary.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["norm_drift"] == summary["norm_drift"] <= 1e-9
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
    cfg = write_config(tmp_path, {"experiment": "radiation", **TINY["radiation"],
                                  "output_dir": str(tmp_path / "rad")})
    assert main(["run", "--config", cfg, "--set", "T_max=0"]) == 1
    err = capsys.readouterr().err
    assert "T_max" in err and "too short" in err


def test_radiation_steps_each_sector_once_per_grid(tmp_path, monkeypatch):
    # both spectra read the same odd adjoint rows: on each time grid (main run,
    # sum rule, dim+10 probe) every parity sector is stepped exactly once
    steps = Counter()
    states = radiation._SteppingFlow.states

    def counting(self, s, x, adjoint=False):
        steps[self.sectors[s].idx.size, self.n_t, self.dt, s] += 1
        return states(self, s, x, adjoint)

    monkeypatch.setattr(radiation._SteppingFlow, "states", counting)
    run_experiment(validate_config({"experiment": "radiation", **TINY["radiation"],
                                    "output_dir": str(tmp_path)}))
    assert sum(1 for key in steps if key[-1] == 1) == 3
    assert set(steps.values()) == {1}


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


def test_wigner_run_records_boundary_mass(tmp_path, capsys):
    out = tmp_path / "w"
    cfg = write_config(tmp_path, {"experiment": "wigner", "delta": 0.0,
                                  "f_final": 0.5, "s_tilde": 0.25, "dim": 16,
                                  "q_max": 5.0, "q_points": 41,
                                  "p_max": 5.0, "p_points": 41,
                                  "output_dir": str(out)})
    assert main(["run", "--config", cfg]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    meta = json.loads((out / "wigner_meta.json").read_text())
    assert 0.0 <= meta["boundary_mass"] < 1e-4
    assert manifest["results"]["boundary_mass"] == meta["boundary_mass"]
    assert manifest["results"]["norm"] == pytest.approx(1.0, abs=1e-3)
    # a one-point axis has no cell size: the CLI reports it, not an IndexError
    assert main(["run", "--config", cfg, "--set", "q_points=1"]) == 1
    assert "q_axis" in capsys.readouterr().err


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


@pytest.mark.parametrize("experiment, rel_tol", [
    ("ramp", 1e-8), ("wigner", 1e-8), ("radiation", 1e-8), ("lz", 1e-10)])
def test_manifest_records_cf4_sweep(tmp_path, experiment, rel_tol):
    # every ramp or LZ run reports the accepted CF4 step count and its error
    # estimate, which meets the run's rel_tol (the radiation ramp runs at 1e-8,
    # `parosc run lz` at the lz_evolve_numeric default of 1e-10)
    keys = TINY.get(experiment, {"delta2_over_s": 1.0, "t_max": 1.0, "n_out": 3})
    manifest = run_experiment(validate_config({"experiment": experiment, **keys,
                                               "output_dir": str(tmp_path)}))
    records = [manifest["results"]]
    if experiment == "lz":
        records.append(json.loads((tmp_path / "lz_summary.json").read_text()))
    for res in records:
        assert isinstance(res["cf4_steps"], int) and res["cf4_steps"] >= 2
        assert 0.0 <= res["cf4_error_estimate"] <= rel_tol
