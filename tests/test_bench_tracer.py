"""The benchmark tracer (bench/tracer.py, only read here) still finds what it wraps.

The tracer installs its wrappers by name, so moving a function or an import in
the package would otherwise break ``bench/run.py --trace 1`` without a failing test.
"""

import importlib.util
import inspect
import json
import time
from pathlib import Path

from parosc import cli, radiation

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(modules) -> dict:
    """Every name bound in the modules and in the classes they define."""
    out = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            out[mod.__name__, attr] = obj
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for m_attr, m_obj in vars(obj).items():
                    out[mod.__name__, attr, m_attr] = m_obj
    return out


def test_tracer_wraps_its_bindings_and_restores_them():
    tracer_mod = load_tracer()
    modules = tracer_mod._modules()
    before = bindings(modules)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        during = bindings(modules)
        for mod_name, attr in tracer_mod.THIRD_PARTY:
            key = (f"parosc.{mod_name}", attr)
            assert tracer.originals[f"{mod_name}.{attr}"] is before[key]
            assert during[key] is not before[key]
        for name in ("radiation.evolve_master", "radiation.emission_spectra",
                     "lindblad.steady_state", "cli.run_experiment"):
            assert name in tracer.originals
        assert during["parosc", "evolve_master"] is during["parosc.radiation", "evolve_master"]
    finally:
        tracer.uninstall()
    after = bindings(modules)
    assert [key for key, obj in before.items() if after[key] is not obj] == []
    # tests/test_cli.py counts sector steppings by patching this method
    assert inspect.isfunction(radiation._SteppingFlow.states)


def bench_config(workload, name, tmp_path):
    """A validated bench config: a workload's first timed one (name None) or a tiny.json one."""
    spec = json.loads((BENCH / "configs" / f"{workload}.json").read_text(encoding="utf-8"))
    raw = spec["timed"][0] if name is None else spec[name]
    return cli.validate_config(dict(raw, output_dir=str(tmp_path / (name or workload))))


def test_selfcheck_counts_match_while_ramps_run_on_the_pool(tmp_path):
    # the ramp's worker threads call no public function, so the tracer's spans
    # (main thread) and cProfile's counts (main thread) still agree
    tracer_mod = load_tracer()
    cfgs = [bench_config("tiny", name, tmp_path) for name in ("wigner", "ramp", "lz", "radiation")]
    compared, mismatches = tracer_mod.call_count_mismatches(
        lambda: [cli.run_experiment(cfg) for cfg in cfgs])
    assert compared > 0
    assert mismatches == []


def test_traced_tomography_pass_is_accounted_for(tmp_path):
    cfg = bench_config("tomography", None, tmp_path)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        cli.run_experiment(cfg)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert 0.0 <= wall - tracer.self_seconds() < 0.01 * wall
