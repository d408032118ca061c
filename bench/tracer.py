"""Spans around the public functions of every parosc module, installed from outside.

The tracer replaces each public function and method at every module binding
that holds it (``cli`` and ``radiation`` import with ``from .x import y``, so a
function can be bound in several modules), plus three third-party bindings:
``ramp.solve_ivp`` and ``lz.solve_ivp`` (their ``nfev`` is summed into
``<module>.rhs_evals``) and ``radiation.expm`` (builds of the stepping
backend). Spans under ``radiation.`` and ``lindblad.`` also record their
tracemalloc peak. Spans stay in memory until ``write``.

A span's self time is its duration minus the durations of its direct
children; the self times of all spans add up to the durations of the root
spans.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import json
import pkgutil
import pstats
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

MEMORY_PREFIXES = ("radiation.", "lindblad.")
THIRD_PARTY = (("ramp", "solve_ivp"), ("lz", "solve_ivp"), ("radiation", "expm"))


def _modules():
    import parosc
    mods = [parosc]
    for info in pkgutil.iter_modules(parosc.__path__):
        mods.append(importlib.import_module(f"parosc.{info.name}"))
    return mods


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _traceable(obj) -> bool:
    return (inspect.isfunction(obj) and obj.__module__.startswith("parosc")
            and not obj.__name__.startswith("_")
            and not inspect.isgeneratorfunction(obj))


class Tracer:
    def __init__(self):
        self.spans = []         # [name, start, end, parent, failed, child_s, peak_mb]
        self.counters = defaultdict(float)
        self._stack = []
        self._mem = []          # per open memory span: [traced bytes at entry, peak seen]
        self._undo = []
        self.originals = {}     # span name -> original function

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if name.startswith(MEMORY_PREFIXES):
            self._mem_open()
        self.spans.append([name, time.perf_counter(), None, parent, False, 0.0, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int, failed: bool) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span[2], span[4] = end, failed
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += end - span[1]
        if span[0].startswith(MEMORY_PREFIXES):
            span[6] = self._mem_close()

    def _mem_open(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._mem.append([0, 0])
            return
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, 0])

    def _mem_close(self) -> float:
        base, child_peak = self._mem.pop()
        peak = max(tracemalloc.get_traced_memory()[1], child_peak)
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        else:
            tracemalloc.stop()
        return (peak - base) / 2**20

    def _wrap(self, name, fn, after=None, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_of(args) if name_of else name)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                tracer._close(idx, failed)
            if after is not None:
                after(args, out)
            return out

        return traced

    # -- installation --------------------------------------------------------

    def _count(self, key, value_of):
        def after(args, out):
            self.counters[key] += value_of(args, out)
        return after

    def _special(self, name):
        if name == "cli.run_experiment":
            return {"name_of": lambda args: f"cli.run_experiment.{args[0]['experiment']}"}
        if name == "io.write_csv":
            return {"after": self._count("io.write_csv.bytes",
                                         lambda args, out: out.stat().st_size)}
        if name == "wigner.wigner_transform":
            return {"after": self._count("wigner.grid_points",
                                         lambda args, out: out.values.size)}
        return {}

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public parosc function and method, at every binding."""
        modules = _modules()
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for m_attr, m_obj in list(vars(obj).items()):
                        if _traceable(m_obj):
                            name = f"{_short(mod.__name__)}.{m_obj.__qualname__}"
                            self.originals[name] = m_obj
                            self._set(obj, m_attr, self._wrap(name, m_obj))
                elif _traceable(obj):
                    if obj not in wrappers:
                        name = f"{_short(obj.__module__)}.{obj.__qualname__}"
                        self.originals[name] = obj
                        wrappers[obj] = self._wrap(name, obj, **self._special(name))
                    self._set(mod, attr, wrappers[obj])
        for mod_name, attr in THIRD_PARTY:
            mod = importlib.import_module(f"parosc.{mod_name}")
            fn = getattr(mod, attr)
            name = f"{mod_name}.{attr}"
            self.originals[name] = fn
            after = None
            if attr == "solve_ivp":
                after = self._count(f"{mod_name}.rhs_evals", lambda args, out: out.nfev)
            self._set(mod, attr, self._wrap(name, fn, after=after))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def aggregate(self) -> dict[str, float]:
        """Per-name calls, failed, s (busy time), self_s and peak_alloc_mb."""
        out = defaultdict(float)
        for name, start, end, parent, failed, child_s, peak in self.spans:
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.failed"] += failed
            out[f"{name}.self_s"] += dur - child_s
            # busy time: count a span only when no enclosing span has its name
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out[f"{name}.s"] += dur
            if peak is not None:
                key = f"{name}.peak_alloc_mb"
                out[key] = max(out[key], peak)
        return dict(out)

    def self_seconds(self, end: int | None = None) -> float:
        """Sum of self times over spans[:end]; equals the root spans' durations."""
        return sum(stop - start - child
                   for _, start, stop, _, _, child, _ in self.spans[:end])

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line."""
        with Path(path).open("w", encoding="utf-8") as fh:
            for name, start, end, parent, failed, _, peak in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "failed": failed,
                                     "peak_alloc_mb": peak}) + "\n")


def call_count_mismatches(run) -> tuple[int, list[str]]:
    """Trace ``run()`` under cProfile and compare call counts per function.

    cProfile counts calls of each original code object independently of the
    wrappers; a mismatch means some call path bypasses a wrapper (or a
    wrapper counts a call twice). Returns (calls compared, mismatches).
    """
    tracer = Tracer()
    tracer.install()
    prof = cProfile.Profile()
    try:
        prof.enable()
        try:
            run()
        finally:
            prof.disable()
    finally:
        tracer.uninstall()
    stats = pstats.Stats(prof).stats
    traced = defaultdict(int)
    for name, *_ in tracer.spans:
        if name.startswith("cli.run_experiment."):
            name = "cli.run_experiment"
        traced[tracer.originals[name]] += 1
    profiled = {}
    for fn in set(tracer.originals.values()):
        code = inspect.unwrap(fn).__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        profiled[fn] = stats[key][1] if key in stats else 0
    names = {fn: name for name, fn in tracer.originals.items()}
    mismatches = [f"{names[fn]}: traced {traced[fn]}, profiled {n}"
                  for fn, n in profiled.items() if traced[fn] != n]
    return sum(profiled.values()), sorted(mismatches)
