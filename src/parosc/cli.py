"""Experiment driver: named experiments configured by a flat JSON file.

    parosc run --config cfg.json [--set key=value ...]
    parosc list
    parosc validate --config cfg.json

Each runner computes its tables (CSV file name -> column name -> 1-D array),
its results and its truncation report (a summary of the run's own result at dim
against the same quantity recomputed at dim+10).  ``run_experiment`` is the only
code that writes: one CSV per table through ``io.write_csv``, and manifest.json
with the parameters, the table names, the report, the results, the message of
every warning the run raised and the wall time.
Nothing else is written, and CSV output is byte-reproducible for identical configs.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .floquet import LabFrameParams, floquet_vs_rwa
from .fock import FockSpace, convergence_report
from .io import write_csv, write_json
from .lindblad import build_liouvillian, state_decay_rate
from .lz import LzProblem, lz_asymptotic_alphas, lz_evolve_numeric
from .radiation import emission_spectra, spectrum_time_grid, sum_rule_check
from .ramp import RampProtocol, evolve_ramp, instantaneous_fidelity
from .rwa import RwaSystem, h_rwa_bands, parity_eigh, zero_drive_levels
from .spectrum import _check_tracked_tails, spectrum_vs_drive
from .wigner import wigner_transform

# experiment name -> {key: (type, default, domain)}; None default means required.
# A domain (op, bound) holds every value of the key (each entry of a list) to
# ``value op bound``; each is the library check that the run would otherwise
# fail at.  No ramp or spectrum can run at dim <= 4: the truncation-edge checks
# take the top fock.edge_levels(dim) = max(4, dim // 8) levels.
POSITIVE, NON_NEGATIVE, DIM = (">", 0), (">=", 0), (">=", 5)
EXPERIMENTS: dict[str, dict[str, tuple[type, object, tuple | None]]] = {
    "zero_drive": {
        "delta": (float, None, None),
        "n_max": (int, 10, NON_NEGATIVE),
    },
    "spectrum": {
        "delta": (float, None, None),
        "f_min": (float, 0.0, NON_NEGATIVE),
        "f_max": (float, 3.0, NON_NEGATIVE),
        "f_points": (int, 61, (">=", 1)),
        "n_levels": (int, 5, (">=", 1)),
        "dim": (int, 60, DIM),
    },
    "ramp": {
        "delta": (float, None, None),
        "f_final": (float, None, POSITIVE),
        "s_tilde": (float, None, POSITIVE),
        "dim": (int, 40, DIM),
        "rel_tol": (float, 1e-8, POSITIVE),
        "n_out": (int, 101, (">=", 2)),      # the ramp writes t = 0 and t_end at least
    },
    "wigner": {
        "delta": (float, None, None),
        "f_final": (float, None, POSITIVE),
        "s_tilde": (float, None, POSITIVE),
        "dim": (int, 40, DIM),
        "rel_tol": (float, 1e-8, POSITIVE),
        "q_max": (float, 2.5, POSITIVE),
        "q_points": (int, 101, (">=", 2)),
        "p_max": (float, 2.5, POSITIVE),
        "p_points": (int, 101, (">=", 2)),
    },
    "lz": {
        "delta2_over_s": (float, None, NON_NEGATIVE),
        "sign": (int, 1, ("in", {-1, 1})),
        "t_max": (float, 12.0, POSITIVE),
        "n_out": (int, 1201, (">=", 2)),
    },
    "decay_rates": {
        "delta": (float, 0.0, None),
        "gamma_tildes": (list, [0.5, 1.0, 2.0], NON_NEGATIVE),
        "f_min": (float, 0.0, NON_NEGATIVE),
        "f_max": (float, 6.0, NON_NEGATIVE),
        "f_points": (int, 61, (">=", 1)),
        "dim": (int, 80, DIM),
    },
    "radiation": {
        "delta": (float, None, None),
        "f": (float, None, POSITIVE),
        "gamma_tilde": (float, None, POSITIVE),
        "s_tilde": (float, 0.06, POSITIVE),
        "dim": (int, 24, DIM),
        "T_max": (float, None, None),       # >= 10/gamma_tilde, checked below
        "x_max": (float, 8.0, POSITIVE),
        "x_points": (int, 801, (">=", 1)),
    },
    "floquet_check": {
        "omega0": (float, 1.0, POSITIVE),
        "V": (float, 1e-3, POSITIVE),
        "delta": (float, None, None),
        "f": (float, None, NON_NEGATIVE),
        "k_cut": (int, 12, (">=", 4)),
        "n_cut": (int, 24, (">=", 4)),
        "n_track": (int, 6, (">=", 1)),
    },
}
# relative tolerance of the radiation run: its dim+10 report and the weight its
# spectra may lose past the horizon
RADIATION_REL_TOL = 1e-4
IN_DOMAIN = {">": operator.gt, ">=": operator.ge,
             "in": lambda value, allowed: value in allowed}

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
    for key, (typ, default, domain) in schema.items():
        if key in raw:
            value = _convert(key, typ, raw[key])
        elif default is None:
            raise ConfigError(f"missing required key for {name}: {key}")
        else:
            value = default
        if domain and not all(IN_DOMAIN[domain[0]](v, domain[1])
                              for v in (value if typ is list else [value])):
            raise ConfigError(f"key {key} must be {domain[0]} {domain[1]}, got {value}")
        cfg[key] = value
    # the comparison of radiation.spectrum_time_grid, which keeps it for library callers
    if name == "radiation" and cfg["T_max"] < 10.0 / cfg["gamma_tilde"]:
        raise ConfigError(f"key T_max = {cfg['T_max']} too short; "
                          f"need >= 10/gamma_tilde = {10.0 / cfg['gamma_tilde']}")
    # spectrum_vs_drive needs an ascending drive grid
    if "f_min" in schema and cfg["f_min"] > cfg["f_max"]:
        raise ConfigError(f"key f_min = {cfg['f_min']} must be <= key f_max = {cfg['f_max']}")
    # the RWA chains at n_cut hold n_cut states in all, and the probe at n_cut + 8
    # must track as many as the run
    if name == "floquet_check" and cfg["n_track"] > cfg["n_cut"]:
        raise ConfigError(f"key n_track = {cfg['n_track']} must be <= key n_cut = "
                          f"{cfg['n_cut']}, the number of RWA states at n_cut")
    # the two bounds of floquet.LabFrameParams, in its own arithmetic
    if name == "floquet_check":
        omega0, v = cfg["omega0"], cfg["V"]
        if v >= 0.05 * omega0:
            raise ConfigError(f"key V = {v} must be < 0.05 key omega0 = {0.05 * omega0}")
        if abs(2.0 * (omega0 + cfg["delta"] * v) - 2.0 * omega0) >= 0.2 * omega0:
            raise ConfigError(f"key delta = {cfg['delta']} with key V = {v} detunes the drive "
                              f"by 2|delta| V = {2.0 * abs(cfg['delta']) * v}, which must be "
                              f"< 0.2 key omega0 = {0.2 * omega0}")
    return cfg


def _convert(key: str, typ: type, value):
    """``value`` of config key ``key`` as ``typ``; a list is a non-empty list of floats.

    Floats must be finite: ``--set key=NaN`` parses to nan.  Ints must be
    integral: ``int(2.7)`` would silently run 2.
    """
    if typ is list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"key {key} must be a non-empty list of numbers, got {value!r}")
        return [_convert(key, float, v) for v in value]
    if isinstance(value, bool):
        raise ConfigError(f"key {key} must be {typ.__name__}")
    if typ is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"key {key} must be an integer, got {value}")
    try:
        value = typ(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"key {key} must be {typ.__name__}") from exc
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"key {key} must be finite, got {value}")
    return value


# ---------------------------------------------------------------------------
# experiment implementations; each returns (tables, results, convergence dict),
# where tables maps a CSV file name to its columns (header name -> 1-D array)

def _run_zero_drive(cfg):
    levels = zero_drive_levels(cfg["delta"], cfg["n_max"])
    table = {"n": np.arange(len(levels)), "energy": levels}

    def probe(dim):     # E_n by Fock index n, as the table ships them
        diag, _ = h_rwa_bands(dim, RwaSystem(delta=cfg["delta"], f=0.0))
        return diag[:cfg["n_max"] + 1]

    dim = max(cfg["n_max"] + 2, 16)
    return {"zero_drive.csv": table}, {}, convergence_report(levels, probe, dim)


def _run_spectrum(cfg):
    space = FockSpace(cfg["dim"])
    f_grid = np.linspace(cfg["f_min"], cfg["f_max"], cfg["f_points"])
    series = spectrum_vs_drive(space, cfg["delta"], f_grid, cfg["n_levels"])
    n_f, n_levels = series.levels.shape
    table = {"f": np.repeat(series.f_grid, n_levels),
             "parity": np.tile(series.parities, n_f), "rank": np.tile(series.ranks, n_f),
             "energy": series.levels.ravel()}

    def probe(dim):
        s = spectrum_vs_drive(FockSpace(dim), cfg["delta"], f_grid[-1:], cfg["n_levels"])
        return s.levels[0]

    # a one-point series orders its columns by energy
    return ({"spectrum.csv": table}, {},
            convergence_report(np.sort(series.levels[-1]), probe, cfg["dim"]))


def _cf4_record(result):
    """Step count and error estimate of the CF4 sweep behind a ramp or LZ result."""
    return {"cf4_steps": result.steps, "cf4_error_estimate": result.error_estimate}


def _vacuum_ramp(dim, cfg, f_final, rel_tol, output_times=None):
    """(space, result) of the vacuum of a dim-level truncation ramped from zero drive to f_final."""
    space = FockSpace(dim)
    protocol = RampProtocol(delta=cfg["delta"], f_final=f_final, s_tilde=cfg["s_tilde"],
                            initial_state=space.vacuum(), output_times=output_times)
    return space, evolve_ramp(space, protocol, rel_tol=rel_tol)


def _run_ramp(cfg):
    times = np.linspace(0, cfg["f_final"] / cfg["s_tilde"], cfg["n_out"])
    space, result = _vacuum_ramp(cfg["dim"], cfg, cfg["f_final"], cfg["rel_tol"], times)
    f_t = cfg["s_tilde"] * result.times
    prob = np.abs(result.trajectory) ** 2
    n = np.arange(space.dim)
    table = {"t": result.times, "f": f_t,
             "fidelity": [instantaneous_fidelity(psi, space, cfg["delta"], f,
                                                 *result.target_label)
                          for psi, f in zip(result.trajectory, f_t)],
             "n_expect": prob @ n, "parity_expect": prob @ (-1.0) ** n}
    results = {"final_fidelity": result.final_fidelity,
               "target_label": list(result.target_label), **_cf4_record(result)}

    def probe(dim):
        return _vacuum_ramp(dim, cfg, cfg["f_final"], cfg["rel_tol"])[1].final_fidelity

    return ({"ramp.csv": table}, results,
            convergence_report(result.final_fidelity, probe, cfg["dim"]))


def _run_wigner(cfg):
    qs = np.linspace(-cfg["q_max"], cfg["q_max"], cfg["q_points"])
    ps = np.linspace(-cfg["p_max"], cfg["p_max"], cfg["p_points"])
    _, result = _vacuum_ramp(cfg["dim"], cfg, cfg["f_final"], cfg["rel_tol"])
    psi = result.final_state
    grid = wigner_transform(np.outer(psi, psi.conj()),
                            RwaSystem(delta=cfg["delta"], f=cfg["f_final"]).lam, qs, ps)
    # long format, Q-major
    table = {"Q": np.repeat(grid.q_axis, len(grid.p_axis)),
             "P": np.tile(grid.p_axis, len(grid.q_axis)), "W": grid.values.ravel()}
    results = {"lambda": grid.lam, "norm": grid.norm(), "boundary_mass": grid.boundary_mass,
               "final_fidelity": result.final_fidelity, **_cf4_record(result)}

    # the report compares the prepared states amplitude by amplitude, psi
    # zero-padded to dim + step, so weight above level dim counts; since
    # |W_psi - W_phi| <= 2 ||psi - phi|| / (pi lam) at every point, it bounds the grid
    def probe(dim):
        return _vacuum_ramp(dim, cfg, cfg["f_final"], cfg["rel_tol"])[1].final_state.view(float)

    step = 10
    return {"wigner.csv": table}, results, convergence_report(
        np.pad(psi, (0, step)).view(float), probe, cfg["dim"], dim_step=step)


def _run_lz(cfg):
    s = 1.0
    delta = cfg["sign"] * float(np.sqrt(cfg["delta2_over_s"] * s))
    prob = LzProblem(Delta=delta, s=s)
    sol = lz_evolve_numeric(prob, cfg["t_max"], n_out=cfg["n_out"])
    table = {"t": sol.t_grid, "p_up": np.abs(sol.c_up) ** 2, "p_down": np.abs(sol.c_down) ** 2,
             "re_c_plus": sol.c_plus.real, "im_c_plus": sol.c_plus.imag,
             "re_c_minus": sol.c_minus.real, "im_c_minus": sol.c_minus.imag}
    au, ad = lz_asymptotic_alphas(prob)
    norm = np.abs(sol.c_plus) ** 2 + np.abs(sol.c_minus) ** 2
    results = {"alpha_up_sq": abs(au) ** 2, "alpha_down_sq": abs(ad) ** 2,
               "norm_drift": float(np.max(np.abs(norm - 1.0))), **_cf4_record(sol)}
    # two-level problem has no Fock truncation; record a trivial report
    conv = {"dim": None, "dim_check": None, "rel_diff": 0.0, "rel_tol": 0.0,
            "converged": True}
    return {"lz.csv": table}, results, conv


def _decay_gap_data(dim, delta, gamma_tildes, f_grid):
    """Rates Gamma_E of the (+1, 0) state, shape (len(gamma_tildes), len(f_grid)), and its gaps
    to (+1, 1), from one even-chain solve per drive; both states are edge-checked at the last."""
    gaps, phis = np.empty(len(f_grid)), np.zeros((len(f_grid), dim))
    for i, f in enumerate(f_grid):
        idx, w, v = parity_eigh(dim, RwaSystem(delta=delta, f=f), 1)
        gaps[i], phis[i, idx] = w[1] - w[0], v[:, 0]
    _check_tracked_tails(idx, v[:, :2], dim)
    rates = np.array([[state_decay_rate(phi, gt) for phi in phis] for gt in gamma_tildes])
    return rates, gaps


def _run_decay_rates(cfg):
    f_grid = np.linspace(cfg["f_min"], cfg["f_max"], cfg["f_points"])
    gamma_tildes = np.array(cfg["gamma_tildes"], dtype=float)
    rates, gaps = _decay_gap_data(cfg["dim"], cfg["delta"], gamma_tildes, f_grid)
    table = {"gamma_tilde": np.repeat(gamma_tildes, len(f_grid)),
             "f": np.tile(f_grid, len(gamma_tildes)), "gamma_E": rates.ravel(),
             "delta_E": np.tile(gaps, len(gamma_tildes))}

    def probe(dim):     # the (first gamma_tilde, last f) point
        r, g = _decay_gap_data(dim, cfg["delta"], gamma_tildes[:1], f_grid[-1:])
        return np.array([r[0, 0], g[0]])

    base = np.array([rates[0, -1], gaps[-1]])
    return {"decay_rates.csv": table}, {}, convergence_report(base, probe, cfg["dim"])


def _radiation_run(dim, cfg, xs):
    """``emission_spectra`` at truncation dim, and the Liouvillian, rho0 and ramp behind it."""
    space, ramp = _vacuum_ramp(dim, cfg, cfg["f"], 1e-8)
    rho0 = np.outer(ramp.final_state, ramp.final_state.conj())
    liou = build_liouvillian(space, RwaSystem(delta=cfg["delta"], f=cfg["f"]),
                             cfg["gamma_tilde"])
    return *emission_spectra(liou, rho0, cfg["T_max"], xs), liou, rho0, ramp


def _run_radiation(cfg):
    xs = np.linspace(-cfg["x_max"], cfg["x_max"], cfg["x_points"])
    e_rad, q_st, rhs, liou, rho0, ramp = _radiation_run(cfg["dim"], cfg, xs)
    lhs, rate = sum_rule_check(liou, rho0)
    tables = {"transient_spectrum.csv": {"x": xs, "E_rad": e_rad},
              "steady_spectrum.csv": {"x": xs, "Q_st": q_st}}
    # the share of the slowest odd mode left past the horizon
    horizon = math.exp(-rate * cfg["T_max"])
    if horizon > RADIATION_REL_TOL:
        warnings.warn(f"spectra truncated at the horizon: T_max = {cfg['T_max']:g} keeps "
                      f"horizon_weight = {horizon:.3g} > {RADIATION_REL_TOL:g} of the "
                      f"slowest odd mode (slowest_odd_rate = {rate:.4g})",
                      RuntimeWarning, stacklevel=2)
    ts = spectrum_time_grid(liou, cfg["T_max"], xs)
    results = {"sum_rule_lhs": lhs, "sum_rule_rhs": rhs, "slowest_odd_rate": rate,
               "horizon_weight": horizon, "steady_sigma_ratio": liou.steady_sigma_ratio,
               "stepping_dt": float(ts[1] - ts[0]),
               "stepping_steps": len(ts) - 1, **_cf4_record(ramp)}

    # every k-th frequency; the subgrid keeps -x_max, hence dt and n_t
    k = max(1, len(xs) // 16)

    def probe(dim):
        return np.concatenate(_radiation_run(dim, cfg, xs[::k])[:2])

    base = np.concatenate([e_rad[::k], q_st[::k]])
    return tables, results, convergence_report(base, probe, cfg["dim"],
                                               rel_tol=RADIATION_REL_TOL)


def _run_floquet_check(cfg):
    def eps_over_v(n_cut):
        p = LabFrameParams.from_reduced(cfg["omega0"], cfg["V"], cfg["delta"], cfg["f"],
                                        k_cut=cfg["k_cut"], n_cut=n_cut)
        columns = floquet_vs_rwa(p, n_track=cfg["n_track"])
        return columns, columns["eps_fourier"] / cfg["V"]

    columns, base = eps_over_v(cfg["n_cut"])
    table = {key: columns[key]
             for key in ("parity", "rank", "eps_fourier", "eps_rwa", "discrepancy")}
    results = {"worst_discrepancy_over_V": float(np.max(columns["discrepancy"])) / cfg["V"]}
    return {"floquet_check.csv": table}, results, convergence_report(
        base, lambda n_cut: eps_over_v(n_cut)[1], cfg["n_cut"], dim_step=8, rel_tol=1e-5)


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
    """Execute a validated config, write its tables and manifest.json; return the manifest.

    The manifest lists every warning the run raises; the caller's warning
    filters decide only which of them are shown.
    """
    start = time.perf_counter()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tables, results, conv = RUNNERS[cfg["experiment"]](cfg)
    finally:
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    for name, columns in tables.items():
        write_csv(outdir / name, columns)
    manifest = {
        "version": __version__,
        "experiment": cfg["experiment"],
        "parameters": {k: v for k, v in cfg.items()
                       if k not in ("experiment", "output_dir")},
        "outputs": sorted(tables),
        "convergence": conv,
        "results": results,
        "warnings": [str(w.message) for w in caught],
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
            required = [k for k, (_, d, _) in schema.items() if d is None]
            optional = {k: d for k, (_, d, _) in schema.items() if d is not None}
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
