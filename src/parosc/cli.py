"""Experiment driver: named experiments configured by a flat JSON file.

    parosc run --config cfg.json [--set key=value ...]
    parosc list
    parosc validate --config cfg.json

Each run writes one CSV per data series plus a manifest JSON holding the
parameters, the truncation report (a summary of the run's own result at dim
against the same quantity recomputed at dim+10), and the wall time.  CSV output
is byte-reproducible for identical configs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .floquet import LabFrameParams, floquet_vs_rwa
from .fock import FockSpace, convergence_report
from .io import write_csv, write_json
from .lindblad import build_liouvillian, state_decay_rate
from .lz import LzProblem, lz_asymptotic_alphas, lz_evolve_numeric, lz_rows
from .radiation import emission_spectra, spectrum_rows, sum_rule_check
from .ramp import RampProtocol, evolve_ramp, ramp_rows
from .rwa import RwaSystem, h_rwa_bands, zero_drive_levels
from .spectrum import (
    eigenstate_by_label,
    same_parity_gap,
    series_rows,
    spectrum_vs_drive,
)
from .wigner import wigner_rows, wigner_transform

# experiment name -> {key: (type, default)}; None default means required
EXPERIMENTS: dict[str, dict[str, tuple[type, object]]] = {
    "zero_drive": {
        "delta": (float, None),
        "n_max": (int, 10),
    },
    "spectrum": {
        "delta": (float, None),
        "f_min": (float, 0.0),
        "f_max": (float, 3.0),
        "f_points": (int, 61),
        "n_levels": (int, 5),
        "dim": (int, 60),
    },
    "ramp": {
        "delta": (float, None),
        "f_final": (float, None),
        "s_tilde": (float, None),
        "dim": (int, 40),
        "rel_tol": (float, 1e-8),
        "n_out": (int, 101),
    },
    "wigner": {
        "delta": (float, None),
        "f_final": (float, None),
        "s_tilde": (float, None),
        "dim": (int, 40),
        "rel_tol": (float, 1e-8),
        "q_max": (float, 2.5),
        "q_points": (int, 101),
        "p_max": (float, 2.5),
        "p_points": (int, 101),
    },
    "lz": {
        "delta2_over_s": (float, None),
        "sign": (int, 1),
        "t_max": (float, 12.0),
        "n_out": (int, 1201),
    },
    "decay_rates": {
        "delta": (float, 0.0),
        "gamma_tildes": (list, [0.5, 1.0, 2.0]),
        "f_min": (float, 0.0),
        "f_max": (float, 6.0),
        "f_points": (int, 61),
        "dim": (int, 80),
    },
    "radiation": {
        "delta": (float, None),
        "f": (float, None),
        "gamma_tilde": (float, None),
        "s_tilde": (float, 0.06),
        "dim": (int, 24),
        "T_max": (float, None),
        "x_max": (float, 8.0),
        "x_points": (int, 801),
    },
    "floquet_check": {
        "omega0": (float, 1.0),
        "V": (float, 1e-3),
        "delta": (float, None),
        "f": (float, None),
        "k_cut": (int, 12),
        "n_cut": (int, 24),
        "n_track": (int, 6),
    },
}

COMMON_KEYS = {"experiment": (str, None), "output_dir": (str, None)}


class ConfigError(ValueError):
    pass


def load_config(path: str, overrides: list[str] | None = None) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object with flat keys")
    for kv in overrides or []:
        if "=" not in kv:
            raise ConfigError(f"--set expects key=value, got {kv!r}")
        key, value = kv.split("=", 1)
        try:
            raw[key] = json.loads(value)
        except json.JSONDecodeError:
            raw[key] = value
    return validate_config(raw)


def validate_config(raw: dict) -> dict:
    if "experiment" not in raw:
        raise ConfigError("missing key: experiment")
    name = raw["experiment"]
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choices: {sorted(EXPERIMENTS)}")
    schema = EXPERIMENTS[name]
    allowed = set(schema) | set(COMMON_KEYS)
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) for {name}: {sorted(unknown)}")
    if "output_dir" not in raw:
        raise ConfigError("missing key: output_dir")
    cfg = {"experiment": name, "output_dir": raw["output_dir"]}
    for key, (typ, default) in schema.items():
        if key in raw:
            value = raw[key]
            if typ in (int, float) and isinstance(value, bool):
                raise ConfigError(f"key {key} must be {typ.__name__}")
            try:
                value = typ(value) if typ is not list else list(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"key {key} must be {typ.__name__}") from exc
        elif default is None:
            raise ConfigError(f"missing required key for {name}: {key}")
        else:
            value = default
        cfg[key] = value
    return cfg


# ---------------------------------------------------------------------------
# experiment implementations; each returns (csv files, extras, convergence dict)

def _run_zero_drive(cfg, outdir):
    levels = zero_drive_levels(cfg["delta"], cfg["n_max"])
    path = write_csv(outdir / "zero_drive.csv", ["n", "energy"],
                     ((int(n), float(e)) for n, e in enumerate(levels)))

    def probe(dim):
        diag, _ = h_rwa_bands(dim, RwaSystem(delta=cfg["delta"], f=0.0))
        return np.sort(diag)[:cfg["n_max"] + 1]

    # the closed-form levels are not the probe quantity: truncate at dim too
    dim = max(cfg["n_max"] + 2, 16)
    return [path], {}, convergence_report(probe(dim), probe, dim)


def _run_spectrum(cfg, outdir):
    space = FockSpace(cfg["dim"])
    f_grid = np.linspace(cfg["f_min"], cfg["f_max"], cfg["f_points"])
    series = spectrum_vs_drive(space, cfg["delta"], f_grid, cfg["n_levels"])
    path = write_csv(outdir / "spectrum.csv", ["f", "parity", "rank", "energy"],
                     series_rows(series))

    def probe(dim):
        s = spectrum_vs_drive(FockSpace(dim), cfg["delta"], f_grid[-1:], cfg["n_levels"])
        return s.levels[0]

    # a one-point series orders its columns by energy
    return [path], {}, convergence_report(np.sort(series.levels[-1]), probe, cfg["dim"])


def _cf4_record(result):
    """Step count and error estimate of the CF4 sweep behind a ramp or LZ result."""
    return {"cf4_steps": result.steps, "cf4_error_estimate": result.error_estimate}


def _vacuum_ramp(dim, cfg, f_final, rel_tol, output_times=None):
    """Ramp the vacuum of a dim-level truncation from zero drive to f_final."""
    space = FockSpace(dim)
    protocol = RampProtocol(delta=cfg["delta"], f_final=f_final, s_tilde=cfg["s_tilde"],
                            initial_state=space.vacuum(), output_times=output_times)
    return space, protocol, evolve_ramp(space, protocol, rel_tol=rel_tol)


def _run_ramp(cfg, outdir):
    times = np.linspace(0, cfg["f_final"] / cfg["s_tilde"], cfg["n_out"])
    space, protocol, result = _vacuum_ramp(cfg["dim"], cfg, cfg["f_final"],
                                           cfg["rel_tol"], times)
    path = write_csv(outdir / "ramp.csv",
                     ["t", "f", "fidelity", "n_expect", "parity_expect"],
                     ramp_rows(space, protocol, result))
    extras = {"final_fidelity": result.final_fidelity,
              "target_label": list(result.target_label), **_cf4_record(result)}

    def probe(dim):
        return _vacuum_ramp(dim, cfg, cfg["f_final"], cfg["rel_tol"])[2].final_fidelity

    return [path], extras, convergence_report(result.final_fidelity, probe, cfg["dim"])


def _wigner_run(dim, cfg, qs, ps):
    result = _vacuum_ramp(dim, cfg, cfg["f_final"], cfg["rel_tol"])[2]
    rho = np.outer(result.final_state, result.final_state.conj())
    return result, wigner_transform(rho, 1.0 / (2.0 * cfg["f_final"]), qs, ps)


def _run_wigner(cfg, outdir):
    qs = np.linspace(-cfg["q_max"], cfg["q_max"], cfg["q_points"])
    ps = np.linspace(-cfg["p_max"], cfg["p_max"], cfg["p_points"])
    result, grid = _wigner_run(cfg["dim"], cfg, qs, ps)
    path = write_csv(outdir / "wigner.csv", ["Q", "P", "W"], wigner_rows(grid))
    summary = {"lambda": grid.lam, "norm": grid.norm(),
               "boundary_mass": grid.boundary_mass}
    meta = write_json(outdir / "wigner_meta.json", {
        **summary,
        "q_axis": [float(qs[0]), float(qs[-1]), len(qs)],
        "p_axis": [float(ps[0]), float(ps[-1]), len(ps)],
    })
    extras = {**summary, "final_fidelity": result.final_fidelity, **_cf4_record(result)}

    def peaks(g):
        return np.array([g.norm(), float(g.values.max())])

    return [path, meta], extras, convergence_report(
        peaks(grid), lambda dim: peaks(_wigner_run(dim, cfg, qs, ps)[1]), cfg["dim"])


def _run_lz(cfg, outdir):
    s = 1.0
    delta = cfg["sign"] * float(np.sqrt(cfg["delta2_over_s"] * s))
    prob = LzProblem(Delta=delta, s=s)
    sol = lz_evolve_numeric(prob, cfg["t_max"], n_out=cfg["n_out"])
    path = write_csv(outdir / "lz.csv",
                     ["t", "p_up", "p_down", "re_c_plus", "im_c_plus",
                      "re_c_minus", "im_c_minus"],
                     lz_rows(sol))
    au, ad = lz_asymptotic_alphas(prob)
    norm = np.abs(sol.c_plus) ** 2 + np.abs(sol.c_minus) ** 2
    results = {"alpha_up_sq": abs(au) ** 2, "alpha_down_sq": abs(ad) ** 2,
               "norm_drift": float(np.max(np.abs(norm - 1.0))), **_cf4_record(sol)}
    summary = write_json(outdir / "lz_summary.json", {
        "delta2_over_s": cfg["delta2_over_s"], "sign": cfg["sign"], **results})
    # two-level problem has no Fock truncation; record a trivial report
    conv = {"dim": None, "dim_check": None, "rel_diff": 0.0, "rel_tol": 0.0,
            "converged": True}
    return [path, summary], results, conv


def _decay_gap_data(dim, delta, gamma_tildes, f_grid):
    space = FockSpace(dim)
    series = spectrum_vs_drive(space, delta, f_grid, n_levels=3)
    gaps = same_parity_gap(series, 1, 0)
    rows = []
    for gt in gamma_tildes:
        for f, gap in zip(f_grid, gaps):
            _, phi = eigenstate_by_label(space, delta, f, 1, 0)
            rows.append((float(gt), float(f), state_decay_rate(phi, gt), float(gap)))
    return rows


def _run_decay_rates(cfg, outdir):
    f_grid = np.linspace(cfg["f_min"], cfg["f_max"], cfg["f_points"])
    rows = _decay_gap_data(cfg["dim"], cfg["delta"], cfg["gamma_tildes"], f_grid)
    path = write_csv(outdir / "decay_rates.csv",
                     ["gamma_tilde", "f", "gamma_E", "delta_E"], rows)

    def probe(dim):     # the (first gamma_tilde, last f) row
        data = _decay_gap_data(dim, cfg["delta"], cfg["gamma_tildes"][:1], f_grid[-1:])
        return np.array(data[0][2:])

    base = np.array(rows[len(f_grid) - 1][2:])
    return [path], {}, convergence_report(base, probe, cfg["dim"])


def _radiation_run(dim, cfg, xs):
    """Both spectra at truncation dim, and the Liouvillian, rho0 and ramp behind them."""
    space, _, ramp = _vacuum_ramp(dim, cfg, cfg["f"], 1e-8)
    rho0 = np.outer(ramp.final_state, ramp.final_state.conj())
    liou = build_liouvillian(space, RwaSystem(delta=cfg["delta"], f=cfg["f"]),
                             cfg["gamma_tilde"])
    return *emission_spectra(liou, rho0, cfg["T_max"], xs), liou, rho0, ramp


def _run_radiation(cfg, outdir):
    xs = np.linspace(-cfg["x_max"], cfg["x_max"], cfg["x_points"])
    trans, steady, liou, rho0, ramp = _radiation_run(cfg["dim"], cfg, xs)
    lhs, rhs = sum_rule_check(liou, rho0, cfg["T_max"])
    p1 = write_csv(outdir / "transient_spectrum.csv", ["x", "E_rad"],
                   spectrum_rows(trans))
    p2 = write_csv(outdir / "steady_spectrum.csv", ["x", "Q_st"],
                   spectrum_rows(steady))
    extras = {"sum_rule_lhs": lhs, "sum_rule_rhs": rhs, **_cf4_record(ramp)}

    # every k-th frequency; the subgrid keeps -x_max, hence dt and n_t
    k = max(1, len(xs) // 16)

    def probe(dim):
        t, s, *_ = _radiation_run(dim, cfg, xs[::k])
        return np.concatenate([t.values, s.values])

    base = np.concatenate([trans.values[::k], steady.values[::k]])
    return [p1, p2], extras, convergence_report(base, probe, cfg["dim"], rel_tol=1e-4)


def _run_floquet_check(cfg, outdir):
    def eps_over_v(n_cut):
        p = LabFrameParams.from_reduced(cfg["omega0"], cfg["V"], cfg["delta"], cfg["f"],
                                        k_cut=cfg["k_cut"], n_cut=n_cut)
        rows = floquet_vs_rwa(p, n_track=cfg["n_track"])
        return rows, np.array([r["eps_fourier"] for r in rows]) / cfg["V"]

    rows, base = eps_over_v(cfg["n_cut"])
    path = write_csv(outdir / "floquet_check.csv",
                     ["parity", "rank", "eps_fourier", "eps_rwa", "discrepancy"],
                     ((r["parity"], r["rank"], r["eps_fourier"], r["eps_rwa"],
                       r["discrepancy"]) for r in rows))
    extras = {"worst_discrepancy_over_V": max(r["discrepancy"] for r in rows) / cfg["V"]}
    return [path], extras, convergence_report(base, lambda n_cut: eps_over_v(n_cut)[1],
                                              cfg["n_cut"], dim_step=8, rel_tol=1e-5)


RUNNERS = {
    "zero_drive": _run_zero_drive,
    "spectrum": _run_spectrum,
    "ramp": _run_ramp,
    "wigner": _run_wigner,
    "lz": _run_lz,
    "decay_rates": _run_decay_rates,
    "radiation": _run_radiation,
    "floquet_check": _run_floquet_check,
}


def run_experiment(cfg: dict) -> dict:
    """Execute a validated config; returns the manifest (also written to disk)."""
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    files, extras, conv = RUNNERS[cfg["experiment"]](cfg, outdir)
    manifest = {
        "version": __version__,
        "experiment": cfg["experiment"],
        "parameters": {k: v for k, v in cfg.items()
                       if k not in ("experiment", "output_dir")},
        "outputs": sorted(p.name for p in files),
        "convergence": conv,
        "results": extras,
        "wall_time_s": time.perf_counter() - start,
    }
    write_json(outdir / "manifest.json", manifest)
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="parosc",
                                     description="driven nonlinear oscillator experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="KEY=VALUE", help="override a config key")
    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("--config", required=True)
    sub.add_parser("list", help="list experiments and their keys")

    args = parser.parse_args(argv)
    if args.command == "list":
        for name, schema in EXPERIMENTS.items():
            required = [k for k, (_, d) in schema.items() if d is None]
            optional = {k: d for k, (_, d) in schema.items() if d is not None}
            print(f"{name}: required {required or '[]'}, optional {optional}")
        return 0
    try:
        cfg = load_config(args.config, getattr(args, "overrides", None))
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print(f"config ok: experiment {cfg['experiment']}")
        return 0
    try:
        manifest = run_experiment(cfg)
    except Exception as exc:  # propagate numerical failures with context
        print(f"error: {cfg['experiment']} failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
