"""Record the seed-0 reference CSVs that the benchmark compares outputs against.

    PYTHONPATH=src python3 bench/record_reference.py

Run at the commit whose outputs are the reference; writes
bench/reference/<workload>.npz with one array per '<op label>/<csv name>'.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads


def main() -> int:
    from parosc.cli import run_experiment, validate_config
    spec = json.loads((workloads.BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(dir=workloads.BENCH) as tmp:
        for name in (w["name"] for w in spec["workloads"]):
            timed, _ = workloads.load(name, 0, Path(tmp) / name, validate_config)
            arrays = {}
            for op in timed:
                arrays.update(workloads.csv_outputs(op, run_experiment(op.cfg)))
            workloads.REFERENCE.mkdir(exist_ok=True)
            np.savez_compressed(workloads.REFERENCE / f"{name}.npz", **arrays)
            print(f"{name}: {len(arrays)} arrays", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
