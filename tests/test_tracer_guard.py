"""The per-layer benchmark tracer still finds and measures what it wraps."""

import importlib.util
import json
from pathlib import Path

import numpy as np

import impscat.cli  # noqa: F401  (loads every traced module)
from impscat import forward
from impscat.geometry import ObstacleGeometry
from impscat.layer_ops import ImpedanceField

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer").Tracer()


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


def test_traced_farfield_job_reaches_predicted_groups(tmp_path, capsys):
    # the benchmark's traced run checks these call counts on farfield-const;
    # a refactor that stops a predicted layer from being reached shows here
    predicted = load_perfbench("workloads").PREDICTED_NONZERO["farfield-const"]
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"k": 0.2, "band_limit": 8,
                                  "output": str(tmp_path / "ff.csv")}))
    tracer = load_tracer()
    try:
        tracer.install()
        code = tracer.run_job(0, impscat.cli.main, ["farfield", str(config)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    _, calls, _ = tracer.layer_metrics()
    assert {group for group in predicted if calls.get(group, 0) == 0} == set()
