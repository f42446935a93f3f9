"""The benchmark's per-layer tracer must still find every function it wraps."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_probe_resolves():
    probes = _load_tracer().Tracer().probes()
    assert probes
    for name, modname, attr, _ in probes:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), f"probe {name}: {modname}.{attr} is missing"
            owner = getattr(owner, part)
        assert callable(owner), f"probe {name}: {modname}.{attr} is not callable"
