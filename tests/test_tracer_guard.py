"""The per-layer benchmark tracer still finds and measures what it wraps."""

import importlib.util
from pathlib import Path

import numpy as np

import impscat.cli  # noqa: F401  (loads every traced module)
from impscat import forward
from impscat.geometry import ObstacleGeometry
from impscat.layer_ops import ImpedanceField

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_installs_against_package():
    tracer = load_tracer()
    try:
        tracer.install()
        assert tracer.binding_count > 0
    finally:
        tracer.uninstall()


def test_traced_solve_reports_system_and_eigenvalues():
    # the tracer reads the assembled system's entries and counts eigenvalue
    # calls; a change to either shows here, not only in a traced benchmark run.
    # k = 0.2 keeps the plane-wave tail at N = 8 below its warning threshold.
    ctx = forward.WaveContext(k=0.2, omega=np.array([0.0, 0.0, 1.0]))
    tracer = load_tracer()
    try:
        tracer.install()
        tracer.run_job(0, forward.solve_farfield, ctx, ObstacleGeometry(),
                       ImpedanceField.constant(1.0), None, 8)
    finally:
        tracer.uninstall()
    metrics, _, _ = tracer.layer_metrics()
    assert metrics["layer_ops.system_mb"][0] > 0
    assert metrics["layer_ops.eigenvalue_calls"][0] > 0
