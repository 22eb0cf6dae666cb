"""Seeded job lists for the benchmark workloads.

This module uses the standard library only, so the parent process can write
the JSON configs without importing numpy.  A job is one CLI subcommand call;
its config names the output files the CLI writes, so the worker runs the
same path a user does: ``impscat <subcommand> <config.json>``.

Inputs that set the cost of a job (band limit, perturbation degree, suite
size) are fixed per workload; inputs that set the answer but not the cost
(k, λ, ω, perturbation shapes, suite seeds) come from the seed.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("farfield-const", "sweep-variable", "verify-carleman")

FARFIELD_BAND_LIMITS = (24, 32, 40)
SWEEP_BAND_LIMIT = 24
SWEEP_JOBS = 3
SWEEP_SHAPE_DEGREE = 2
CARLEMAN_CHECKS = 3

# The traced run checks the call count of each of these tracer groups
# against a prediction: nonzero for the groups listed for the workload, zero
# for the rest.  A mismatch means the tracer missed a binding, or the
# workload does not exercise the layer it is meant to.
CHECKED_GROUPS = ("specfun.bessel", "specfun.harmonics", "layer_ops.eigenvalue",
                  "layer_ops.multiplication", "forward.solve",
                  "stability.sweep", "carleman.sides",
                  "carleman.three_sphere", "cli")
_FORWARD = {"specfun.bessel", "specfun.harmonics", "layer_ops.eigenvalue",
            "forward.solve", "cli"}
PREDICTED_NONZERO = {
    "farfield-const": _FORWARD,
    "sweep-variable": _FORWARD | {"layer_ops.multiplication", "stability.sweep"},
    "verify-carleman": {"carleman.sides", "carleman.three_sphere", "cli"},
}


def _unit_vector(rng: random.Random) -> list:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-3:
            return [c / norm for c in v]


def _farfield_const(rng):
    jobs = []
    for n in FARFIELD_BAND_LIMITS:
        jobs.append(("farfield", {
            "k": rng.uniform(0.5, 4.0), "impedance": rng.uniform(0.0, 5.0),
            "omega": _unit_vector(rng), "band_limit": n,
        }))
    warmup = ("farfield", dict(jobs[0][1]))
    return jobs, warmup


def _sweep_variable(rng):
    jobs = []
    n_coef = (SWEEP_SHAPE_DEGREE + 1) ** 2
    for _ in range(SWEEP_JOBS):
        shape = [rng.uniform(-1.0, 1.0) for _ in range(n_coef)]
        shape[0] = 0.0  # mean-free, so the perturbation is purely nonconstant
        jobs.append(("stability-sweep", {
            "k": rng.uniform(0.5, 2.0), "impedance": rng.uniform(1.0, 2.0),
            "omega": _unit_vector(rng), "band_limit": SWEEP_BAND_LIMIT,
            "perturbation": shape,
            "eps_list": [0.0125, 0.025, 0.05, 0.1],
        }))
    warmup_cfg = dict(jobs[0][1])
    warmup_cfg["eps_list"] = warmup_cfg["eps_list"][:1]
    return jobs, ("stability-sweep", warmup_cfg)


def _verify_carleman(rng):
    jobs = [("carleman-check", {"seed": rng.randrange(2**31), "suite_size": 50})
            for _ in range(CARLEMAN_CHECKS)]
    jobs.append(("three-sphere", {"k": rng.uniform(0.5, 4.0),
                                  "seed": rng.randrange(2**31)}))
    jobs.append(("chain", {"x_tilde": _unit_vector(rng)}))
    warmup = ("carleman-check", {"seed": rng.randrange(2**31), "suite_size": 2})
    return jobs, warmup


_GENERATORS = {
    "farfield-const": _farfield_const,
    "sweep-variable": _sweep_variable,
    "verify-carleman": _verify_carleman,
}


def write_jobs(workload: str, seed: int, workdir: str) -> dict:
    """Write one JSON config per job into ``workdir``; return the job plan.

    Each config sets ``summary`` (and ``output`` where the subcommand writes
    a CSV) to files in ``workdir``, so the CLI writes its results there.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs, warmup = _GENERATORS[workload](rng)
    plan = []
    for name, (sub, cfg) in [("warmup", warmup)] + [
            (f"job{i}", job) for i, job in enumerate(jobs)]:
        cfg = dict(cfg)
        cfg["summary"] = os.path.join(workdir, f"{name}.summary.json")
        if sub in ("farfield", "stability-sweep"):
            cfg["output"] = os.path.join(workdir, f"{name}.csv")
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=1)
        plan.append({"name": name, "subcommand": sub, "config": path})
    return {"workload": workload, "seed": seed, "warmup": plan[0],
            "jobs": plan[1:]}
