"""Compare the outputs of two source trees on every benchmark and tiny config.

    python tools/output_diff.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.  Every
``timed`` and ``probe`` config of ``bench/configs/{dissipation,tomography,flows}.json``
and every config of ``bench/configs/tiny.json`` (read from this repository) runs
through ``parosc.cli.run_experiment`` once per tree, each tree in its own
subprocess with ``PYTHONPATH`` set to its ``src``.  The outputs go to a
temporary directory; nothing under ``bench/`` is written.

Per CSV it prints "byte-identical" or, for each column, max|diff|/max|ref|
with the PARENT_SRC file as the reference.  Per run it compares the
manifests without ``wall_time_s``, and a run that raises is compared by its
error message.  The exit status is 1 on any difference, else 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "bench" / "configs"
WORKLOADS = ("dissipation", "tomography", "flows")
ERROR = "error.txt"     # holds the message of a run that raised


def configs() -> dict[str, dict]:
    """Each config by its label, ``<workload>/<kind><i>_<experiment>`` or ``tiny/<name>``."""
    out = {}
    for workload in WORKLOADS:
        spec = json.loads((CONFIGS / f"{workload}.json").read_text(encoding="utf-8"))
        for kind in ("timed", "probe"):
            for i, raw in enumerate(spec.get(kind, [])):
                out[f"{workload}/{kind}{i:02d}_{raw['experiment']}"] = raw
    tiny = json.loads((CONFIGS / "tiny.json").read_text(encoding="utf-8"))
    out.update({f"tiny/{name}": raw for name, raw in tiny.items()})
    return out


def run_all(out_root: str) -> None:
    """Run every config with the parosc on ``sys.path``; the subprocess side."""
    import parosc
    from parosc.cli import run_experiment, validate_config

    warnings.simplefilter("ignore")     # each manifest lists the warnings of its run
    print(f"output_diff: parosc from {Path(parosc.__file__).parent}", flush=True)
    for label, raw in configs().items():
        out = Path(out_root) / label
        try:
            run_experiment(validate_config(dict(raw, output_dir=str(out))))
        except Exception as exc:  # a run that fails is an output to compare too
            out.mkdir(parents=True, exist_ok=True)
            (out / ERROR).write_text(f"{type(exc).__name__}: {exc}\n", encoding="utf-8")


def run_tree(src: Path, out_root: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); "
            "import output_diff; output_diff.run_all(sys.argv[1])")
    subprocess.run([sys.executable, "-c", code, str(out_root)], cwd=out_root,
                   env=env, check=True)


def csv_diff(ref: Path, new: Path) -> list[str]:
    """Lines describing how CSV ``new`` differs from ``ref``; empty if byte-identical."""
    if ref.read_bytes() == new.read_bytes():
        return []
    header_ref = ref.read_text(encoding="utf-8").split("\n", 1)[0]
    header_new = new.read_text(encoding="utf-8").split("\n", 1)[0]
    if header_ref != header_new:
        return [f"header {header_new!r} against {header_ref!r}"]
    a = np.loadtxt(ref, delimiter=",", skiprows=1, ndmin=2)
    b = np.loadtxt(new, delimiter=",", skiprows=1, ndmin=2)
    if a.shape != b.shape:
        return [f"shape {b.shape} against {a.shape}"]
    lines = []
    for j, name in enumerate(header_ref.split(",")):
        scale, diff = np.max(np.abs(a[:, j])), np.max(np.abs(b[:, j] - a[:, j]))
        rel = diff / scale if scale > 0 else diff
        lines.append(f"{name}: max|diff|/max|ref| = {rel:.3g}")
    return lines


def manifest_diff(ref: Path, new: Path) -> list[str]:
    """Keys whose values differ between two manifests, ``wall_time_s`` left out."""
    a, b = (json.loads(p.read_text(encoding="utf-8")) for p in (ref, new))
    keys = sorted((set(a) | set(b)) - {"wall_time_s"})
    return [f"{key}: {b.get(key)!r} against {a.get(key)!r}"
            for key in keys if a.get(key) != b.get(key)]


def compare(parent: Path, change: Path) -> bool:
    """Print the comparison of every run; True if all outputs agree."""
    same = True
    for label in configs():
        ref_dir, new_dir = parent / label, change / label
        names = sorted({p.name for d in (ref_dir, new_dir) if d.is_dir() for p in d.iterdir()})
        for name in names:
            ref, new = ref_dir / name, new_dir / name
            if not (ref.exists() and new.exists()):
                print(f"{label}/{name}: only in {'PARENT_SRC' if ref.exists() else 'CHANGE_SRC'}")
                same = False
                continue
            if name.endswith(".csv"):
                lines = csv_diff(ref, new)
            elif name == "manifest.json":
                lines = manifest_diff(ref, new)
            else:
                lines = [] if ref.read_bytes() == new.read_bytes() else [
                    f"{new.read_text().strip()} against {ref.read_text().strip()}"]
            same = same and not lines
            verdict = "differs" if lines else "byte-identical" if name.endswith(".csv") else "equal"
            print(f"{label}/{name}: {verdict}")
            for line in lines:
                print(f"    {line}")
    return same


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/output_diff.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    srcs = [Path(a).resolve() for a in args]
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "parent", Path(tmp) / "change"]
        for src, out in zip(srcs, outs):
            out.mkdir()
            run_tree(src, out)
        same = compare(*outs)
    print("output_diff: no difference" if same else "output_diff: outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
