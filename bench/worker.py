"""Benchmark worker: one fresh interpreter that runs one workload of parosc experiments.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's ``src`` and
the BLAS thread count fixed in its environment. It imports parosc, validates
the workload's configs, makes a small warm-up call and prints ``ready``; the
parent times interpreter start to that line as set-up. With ``--setup-only``
it stops there. Otherwise it runs timed passes over the workload until the
next pass would end after ``--seconds`` (at least one pass), checks every
operation's outputs, and prints its result as one JSON line. With
``--trace 1`` it then runs one traced pass (plus the probes) and the tracer's
call-count self-check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import workloads
from workloads import Op

ROOT = workloads.BENCH.parent
OUT = workloads.BENCH / "out"


def _import_parosc():
    import parosc
    import parosc.cli
    src = (ROOT / "src").resolve()
    if src not in Path(parosc.__file__).resolve().parents:
        raise SystemExit(f"parosc imported from {parosc.__file__}, not from {src}")
    return parosc.cli


def _warm_up() -> None:
    """First LAPACK/BLAS calls start the BLAS threads; pay that in set-up."""
    from scipy.integrate import solve_ivp
    from scipy.linalg import expm
    a = np.random.default_rng(0).standard_normal((64, 64))
    z = a + 1j * a.T
    np.linalg.eigh(a + a.T)
    np.linalg.eig(a @ a)
    np.linalg.eigh(z @ z.conj().T)
    np.linalg.eig(z @ z)
    expm(0.01 * z)
    solve_ivp(lambda t, y: -y, (0.0, 1.0), [1.0], method="DOP853")


def run_op(cli, op: Op, reference: dict | None) -> dict:
    """Run one config through parosc.cli.run_experiment; time it, then check it."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        manifest = cli.run_experiment(op.cfg)
    except Exception as exc:  # an operation that raises counts as failed
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        return {"label": op.label, "wall_s": wall, "cpu_s": cpu,
                "problems": [f"raised {type(exc).__name__}: {exc}"]}
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {"label": op.label, "wall_s": wall, "cpu_s": cpu,
            "problems": workloads.check(op, manifest, reference)}


def run_pass(cli, ops: list[Op], reference: dict | None) -> dict:
    results = [run_op(cli, op, reference) for op in ops]
    return {"wall_s": sum(r["wall_s"] for r in results),
            "cpu_s": sum(r["cpu_s"] for r in results),
            "ops": results}


def measure(cli, ops: list[Op], reference: dict | None, seconds: float) -> list[dict]:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, ops, reference))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["wall_s"] for p in passes) > seconds:
            return passes


def traced_run(cli, workload: str, timed: list[Op], probes: list[Op],
               reference: dict | None) -> dict:
    from tracer import Tracer, call_count_mismatches
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, timed, reference)
        n_pass_spans = len(tracer.spans)
        probe_results = [run_op(cli, op, None) for op in probes]
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"{workload}-spans.jsonl")

    tiny = workloads.tiny_ops([op.cfg["experiment"] for op in timed],
                              OUT / workload / "tiny", cli.validate_config)
    compared, mismatches = call_count_mismatches(
        lambda: [cli.run_experiment(op.cfg) for op in tiny])
    return {"layers": tracer.aggregate(), "counters": dict(tracer.counters),
            "pass": traced, "probes": probe_results,
            "self_s": tracer.self_seconds(n_pass_spans),
            "selfcheck_calls": compared, "selfcheck_mismatches": mismatches}


def machine_info() -> dict:
    info = {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    for mod in (np, scipy):
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info[f"{mod.__name__}_blas"] = f"{blas.get('name')} {blas.get('version')}"
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = _import_parosc()
    out_root = OUT / args.workload
    timed, probes = workloads.load(args.workload, args.seed, out_root, cli.validate_config)
    _warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    reference = None
    if args.seed == 0:
        with np.load(workloads.REFERENCE / f"{args.workload}.npz") as ref:
            reference = dict(ref)
    passes = measure(cli, timed, reference, args.seconds)
    probe_results = [] if args.trace else [run_op(cli, op, None) for op in probes]
    result = {"passes": passes, "probes": probe_results,
              "machine": machine_info()}
    if args.trace:
        result["trace"] = traced_run(cli, args.workload, timed, probes, reference)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
