"""Benchmark of the parosc experiments, run from the root of a source checkout.

    python3 bench/run.py --workload dissipation --seed 0 --seconds 20 --trace 0

Workloads (configs in bench/configs/, reasons in BENCHMARK.json):
``dissipation`` (radiation at the Fig. 8 strong drive), ``tomography`` (the
README wigner example) and ``flows`` (closed-system experiments plus the
Delta^2/s = 600 robustness probe).

Every experiment runs in-process through ``parosc.cli.run_experiment``, as
``parosc run`` does, in one worker interpreter at a time whose BLAS thread
count is fixed to the number of usable cores. The parent times each worker
from start to its ``ready`` line (set-up; median of SETUP_SAMPLES workers),
runs the workload in the last one, and prints a summary followed by one JSON
line with the metrics:

* ``--trace 0``: wall_s and cpu_s (one pass: the sum over operations of each
  one's median over the timed passes), setup_s and peak_rss_mb;
* ``--trace 1``: per-layer metrics of one traced pass (plus the probes), the
  tracing overhead (traced minus untraced wall time) and the tracer
  self-check.

``attempted`` and ``failed`` count the timed operations (one experiment config
each); an operation fails if it raises or fails its output checks. Probes run
outside the timed region. They exercise known weak spots (flows: Delta^2/s =
600, where the LZ limiting amplitudes overflow), so they are kept out of
``failed`` and count only in the summary's ``failed_ratio`` and the
``probe.failed`` layer metric. A missing ``src/parosc`` or a failed worker
exits with 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


class Worker:
    """One worker interpreter; ``setup_s`` is its start-to-ready time."""

    def __init__(self, args, threads: int, setup_only: bool, deadline: float):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if setup_only:
            cmd.append("--setup-only")
        self.deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                     text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.finish()
            raise RuntimeError(f"worker did not get ready: {line.strip()!r}")

    def finish(self) -> str:
        """Wait for the worker (killing it at the deadline); return its last line."""
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("worker overran the benchmark deadline") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        lines = out.strip().splitlines()
        return lines[-1] if lines else ""


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_pass(passes: list[dict], key: str) -> float:
    """One pass's cost: the sum over operations of each one's median over passes."""
    return sum(statistics.median(p["ops"][i][key] for p in passes)
               for i in range(len(passes[0]["ops"])))


def end_to_end(passes: list[dict], setup: list[float], peak_rss_mb: float) -> dict:
    return {
        "wall_s": metric(per_pass(passes, "wall_s"), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "cpu_s": metric(per_pass(passes, "cpu_s"), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def trace_metrics(spec: dict, trace: dict, untraced_wall: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced pass, and problems with the trace itself."""
    traced_wall = trace["pass"]["wall_s"]
    values = dict(trace["layers"], **trace["counters"])
    values.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unaccounted_s": traced_wall - trace["self_s"],
        "trace.selfcheck_calls": trace["selfcheck_calls"],
        "trace.selfcheck_mismatches": len(trace["selfcheck_mismatches"]),
        "probe.failed": sum(bool(p["problems"]) for p in trace["probes"]),
    })
    problems = [f"call count mismatch {m}" for m in trace["selfcheck_mismatches"]]
    unaccounted = abs(values["trace.unaccounted_s"])
    if unaccounted > abs(values["trace.overhead_s"]) + 0.01 * traced_wall:
        problems.append(f"span self times leave {unaccounted:.3f} s of the traced pass "
                        f"unaccounted")
    metrics = {m["name"]: metric(values.get(m["name"], 0.0), m["unit"])
               for m in spec["per_layer"]}
    return metrics, problems


def machine_info(worker_info: dict, threads: int) -> dict:
    return dict(worker_info, nproc=os.cpu_count(), cpus_usable=threads,
                mem_total_mb=os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
                platform=platform.platform())


def run(args) -> tuple[dict, list[str]]:
    """(final JSON object, human summary lines)."""
    spec = load_spec()
    threads = blas_threads()
    deadline = time.monotonic() + DEADLINE_S
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            worker = Worker(args, threads, True, deadline)
            setup.append(worker.setup_s)
            worker.finish()
    worker = Worker(args, threads, False, deadline)
    setup.append(worker.setup_s)
    result = json.loads(worker.finish())

    passes = result["passes"]
    trace = result.get("trace")
    ops = [op for p in passes + ([trace["pass"]] if trace else []) for op in p["ops"]]
    probes = trace["probes"] if trace else result["probes"]
    problems = [f"{op['label']}: {msg}" for op in ops for msg in op["problems"]]
    failed = sum(bool(op["problems"]) for op in ops)
    probe_failed = sum(bool(p["problems"]) for p in probes)
    if trace:
        metrics, trace_problems = trace_metrics(spec, trace, per_pass(passes, "wall_s"))
        problems += trace_problems
    else:
        metrics = end_to_end(passes, setup, result["peak_rss_mb"])
    machine = machine_info(result["machine"], threads)

    lines = [f"workload {args.workload} seed {args.seed}: {len(passes)} timed pass(es), "
             f"{len(ops)} operations, {failed} failed; "
             f"{len(probes)} probe(s), {probe_failed} failed",
             "machine " + json.dumps(machine, sort_keys=True)]
    lines += [f"  probe {p['label']}: {'; '.join(p['problems']) or 'ok'}" for p in probes]
    lines += [f"  PROBLEM {msg}" for msg in problems]
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    # the probes count here, but not in "failed" (see the module docstring)
    lines.append(f"  failed_ratio = {(failed + probe_failed) / (len(ops) + len(probes)):.6g} "
                 f"ratio")
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "setup_samples_s": setup,
              "passes": passes, "probes": probes, "problems": problems, "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return ({"correct": not problems, "attempted": len(ops), "failed": failed,
             "metrics": metrics}, lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "parosc" / "__init__.py").is_file():
        print(f"error: no parosc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in [w["name"] for w in load_spec()["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        result, lines = run(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
