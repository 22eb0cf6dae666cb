"""The per-layer benchmark tracer still finds every function it wraps."""

import importlib.util
from pathlib import Path

import impscat.cli  # noqa: F401  (loads every traced module)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_against_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        assert tracer.binding_count > 0
    finally:
        tracer.uninstall()
