"""The per-layer benchmark tracer still finds and measures what it wraps."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

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
    # k = 0.2 at N = 8 passes the density tail check.
    ctx = forward.WaveContext(k=0.2, omega=np.array([0.0, 0.0, 1.0]))
    tracer = load_tracer()
    try:
        tracer.install()
        tracer.run_job(0, forward.solve_farfield, ctx, ObstacleGeometry(),
                       ImpedanceField.constant(1.0), 8)
    finally:
        tracer.uninstall()
    metrics, _, _ = tracer.layer_metrics()
    assert metrics["layer_ops.system_mb"][0] > 0
    assert metrics["layer_ops.eigenvalue_calls"][0] > 0


def traced_jobs_mismatch(workload, jobs, tmp_path, capsys):
    """The checked groups whose call count over the traced CLI ``jobs``
    ((subcommand, config) pairs) contradicts the prediction for ``workload``:
    reached though predicted zero, or never reached though predicted nonzero,
    as the benchmark's call-count self-check reads it."""
    workloads = load_perfbench("workloads")
    predicted = workloads.PREDICTED_NONZERO[workload]
    tracer = load_tracer()
    codes = []
    try:
        tracer.install()
        for i, (subcommand, config) in enumerate(jobs):
            path = tmp_path / f"c{i}.json"
            path.write_text(json.dumps({**config, "output": str(tmp_path / f"out{i}.csv")}))
            codes.append(tracer.run_job(i, impscat.cli.main, [subcommand, str(path)]))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(jobs)
    _, calls, _ = tracer.layer_metrics()
    return {group for group in workloads.CHECKED_GROUPS
            if (calls.get(group, 0) > 0) != (group in predicted)}


def test_traced_farfield_job_reaches_predicted_groups(tmp_path, capsys):
    # the benchmark's traced run checks these call counts on farfield-const;
    # a refactor that stops a predicted layer from being reached shows here
    jobs = [("farfield", {"k": 0.2, "band_limit": 8})]
    assert traced_jobs_mismatch("farfield-const", jobs, tmp_path, capsys) == set()


def test_traced_sweep_job_reaches_predicted_groups(tmp_path, capsys):
    # the same check for sweep-variable: a degree-1 perturbation, so the
    # multiplication layer runs
    jobs = [("stability-sweep", {"k": 0.2, "band_limit": 8,
                                 "perturbation": [0.0, 0.0, 1.0, 0.0]})]
    assert traced_jobs_mismatch("sweep-variable", jobs, tmp_path, capsys) == set()


def test_traced_carleman_jobs_reach_predicted_groups(tmp_path, capsys):
    # verify-carleman runs all three kinds of job; together they reach the
    # Carleman quadrature, the three-sphere fit and the CLI, and no solve
    jobs = [("carleman-check", {"suite_size": 1}), ("three-sphere", {"k": 2.0}),
            ("chain", {})]
    assert traced_jobs_mismatch("verify-carleman", jobs, tmp_path, capsys) == set()


# one small job per benchmark subcommand; the stability sweep perturbs by
# degree 2, as the sweep-variable workload does
CHECKED_JOBS = [
    ("farfield", {"k": 1.3, "impedance": 0.7, "band_limit": 12}),
    ("stability-sweep", {"k": 1.0, "impedance": 1.5, "band_limit": 12,
                         "perturbation": [0.0, 0.3, -0.2, 0.1, 0.25, -0.1, 0.2, 0.0, 0.1],
                         "eps_list": [0.025, 0.05, 0.1]}),
    ("carleman-check", {"suite_size": 2}),
    ("three-sphere", {"k": 2.0}),
    ("chain", {}),
]


@pytest.mark.parametrize("subcommand,config", CHECKED_JOBS,
                         ids=[subcommand for subcommand, _ in CHECKED_JOBS])
def test_benchmark_checker_accepts_each_job(subcommand, config, tmp_path, capsys):
    # the benchmark scores a job its checker rejects as a failure; a change
    # that breaks what the checker calls (solve_density, boundary_traces,
    # gauss_product_rule and the rule's nodes) shows here, not only as a
    # benchmark success_rate of 0
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**config, "output": str(tmp_path / "out.csv"),
                                "summary": str(tmp_path / "summary.json")}))
    code = impscat.cli.main([subcommand, str(path)])
    assert load_perfbench("checks").Checker().check(subcommand, str(path), code) is None
