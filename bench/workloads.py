"""Workloads of the parosc benchmark: checked-in configs, seeded jitter, output checks.

Each workload is a list of flat ``parosc run`` configs in ``configs/<name>.json``.
``timed`` configs make up one timed pass; ``probe`` configs run once per
benchmark run, outside the timed region, and only report whether they succeed.
Seed 0 gives the configs exactly as checked in. Any other seed scales each
continuous physical parameter by an independent factor in [0.98, 1.02] and
keeps every size (dim, grid points, T_max, x_points), so the work per
operation stays comparable across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
CONFIGS = BENCH / "configs"
REFERENCE = BENCH / "reference"

JITTERED = ("delta", "f", "f_final", "gamma_tilde", "s_tilde", "delta2_over_s",
            "gamma_tildes")
JITTER = 0.02
# lz reports no truncation tolerance (rel_tol 0); compare its CSVs at the
# default tolerance of the dim/dim+10 report instead
DEFAULT_REL_TOL = 1e-6
SUM_RULE_TOL = 0.02          # test_c12
SYMMETRY_TOL = 1e-3          # test_c11, relative to the spectrum maximum
WIGNER_NORM_TOL = 1e-3       # test_c07
LZ_NORM_TOL = 1e-6           # test_cli


@dataclass
class Op:
    """One operation: a validated parosc config and the label of its output dir."""

    label: str
    cfg: dict


def _jitter(raw: dict, rng: random.Random) -> dict:
    cfg = dict(raw)
    for key in JITTERED:
        if key not in cfg:
            continue
        if isinstance(cfg[key], list):
            cfg[key] = [v * (1.0 + JITTER * rng.uniform(-1.0, 1.0)) for v in cfg[key]]
        else:
            cfg[key] = cfg[key] * (1.0 + JITTER * rng.uniform(-1.0, 1.0))
    return cfg


def load(workload: str, seed: int, out_root: Path, validate) -> tuple[list[Op], list[Op]]:
    """(timed ops, probe ops) of a workload; ``validate`` is parosc's config validator."""
    spec = json.loads((CONFIGS / f"{workload}.json").read_text(encoding="utf-8"))
    rng = random.Random(f"{workload}/{seed}")
    ops = {}
    for kind in ("timed", "probe"):
        ops[kind] = []
        for i, raw in enumerate(spec.get(kind, [])):
            label = f"{kind}{i:02d}_{raw['experiment']}"
            cfg = _jitter(raw, rng) if seed else dict(raw)
            cfg["output_dir"] = str(out_root / label)
            ops[kind].append(Op(label, validate(cfg)))
    return ops["timed"], ops["probe"]


def tiny_ops(experiments, out_root: Path, validate) -> list[Op]:
    """Small configs of the given experiments, for the tracer self-check."""
    spec = json.loads((CONFIGS / "tiny.json").read_text(encoding="utf-8"))
    return [Op(f"tiny_{name}", validate(dict(spec[name], output_dir=str(out_root / name))))
            for name in sorted(set(experiments))]


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def csv_outputs(op: Op, manifest: dict) -> dict[str, np.ndarray]:
    out = Path(op.cfg["output_dir"])
    return {f"{op.label}/{name}": read_csv(out / name)
            for name in manifest["outputs"] if name.endswith(".csv")}


def check(op: Op, manifest: dict, reference: dict | None) -> list[str]:
    """Problems with one operation's outputs; empty when every check passes.

    ``reference`` maps '<label>/<csv name>' to the array recorded at seed 0;
    pass None to skip that comparison (other seeds change the inputs).
    """
    problems = []
    conv = manifest["convergence"]
    if not conv["converged"]:
        problems.append(f"dim {conv['dim']} vs {conv['dim_check']} not converged: "
                        f"rel_diff {conv['rel_diff']:.3g} > {conv['rel_tol']:.3g}")
    res = manifest["results"]
    out = Path(op.cfg["output_dir"])
    experiment = op.cfg["experiment"]
    if experiment == "radiation":
        lhs, rhs = res["sum_rule_lhs"], res["sum_rule_rhs"]
        if not abs(lhs - rhs) <= SUM_RULE_TOL * abs(rhs):
            problems.append(f"sum rule lhs {lhs:.6g} vs rhs {rhs:.6g}")
        q = read_csv(out / "steady_spectrum.csv")[:, 1]
        asym = float(np.max(np.abs(q - q[::-1])))
        if not asym < SYMMETRY_TOL * float(np.max(q)):
            problems.append(f"steady spectrum asymmetry {asym:.3g}")
    elif experiment == "wigner":
        if not abs(res["norm"] - 1.0) < WIGNER_NORM_TOL:
            problems.append(f"wigner norm {res['norm']:.6g}")
    elif experiment == "lz":
        total = res["alpha_up_sq"] + res["alpha_down_sq"]
        if not abs(total - 1.0) <= LZ_NORM_TOL:
            problems.append(f"|alpha_up|^2 + |alpha_down|^2 = {total:.12g}")
    if reference is not None:
        tol = op.cfg.get("rel_tol") or conv["rel_tol"] or DEFAULT_REL_TOL
        for key, got in csv_outputs(op, manifest).items():
            want = reference.get(key)
            if want is None or got.shape != want.shape:
                problems.append(f"{key}: no reference of shape {got.shape}")
                continue
            scale = np.maximum(np.max(np.abs(want), axis=0), 1e-300)
            rel = float(np.max(np.max(np.abs(got - want), axis=0) / scale))
            if not rel <= tol:
                problems.append(f"{key}: relative difference {rel:.3g} from reference "
                                f"exceeds {tol:.3g}")
    return problems
