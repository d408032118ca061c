"""The benchmark tracer (bench/tracer.py, only read here) still finds what it wraps.

The tracer installs its wrappers by name, so moving a function or an import in
the package would otherwise break ``bench/run.py --trace 1`` without a failing test.
"""

import importlib.util
import inspect
from pathlib import Path

from parosc import radiation

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
