"""impscat benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload farfield-const --seed 1 --seconds 30 --trace 0

Workloads (job lists in ``workloads.py``; the reasons are in BENCHMARK.json):
``farfield-const``, ``sweep-variable``, ``verify-carleman``.

This process uses the standard library only.  It writes the seeded JSON
configs into a scratch directory under ``perfbench/``, then starts the
workload in child processes whose environment pins the BLAS thread count,
one process at a time:

* four set-up probes and the measuring process each report ``setup_s``,
  the seconds from process start through ``import impscat`` and one
  untimed warm-up job; the median of the five is reported;
* the measuring process runs whole passes over the job list for
  ``--seconds`` seconds and checks every job's output outside the timed
  region (``checks.py``).

With ``--trace 0`` it reports the end-to-end metrics.  The three times are
wall seconds rescaled to a nominal host speed: each job's time is multiplied
by the reference kernel's nominal time over the mean of the kernel times
right before and right after the job, and each set-up time by the nominal
time over the median of five kernel runs in the same process
(``reference.py``: the host's speed swings by 25% and more in phases of tens
of seconds, and all of impscat's kinds of work swing with it).  The times as
measured are printed next to them.

* ``job_p50_s``  median rescaled seconds per job (one CLI call), over every
  pass;
* ``wall_s``     median over passes of the pass's summed rescaled job times;
* ``setup_s``    median rescaled set-up seconds over five processes;
* ``peak_rss_mb`` peak resident memory of the measuring process (the
  reference kernel's arrays add about 9 MB to it);
* ``success_rate`` 1 - error_rate, the share of jobs that exited 0 and
  passed their check (a rate of 0 cannot carry a relative bound).

With ``--trace 1`` the measuring process alternates untraced passes and
passes with ``tracer.py`` wrapping the layer functions, and reports the
per-layer metrics (per job, averaged over the traced jobs, as measured),
``host.reference_s``, the run's median reference-kernel time, and
``trace.overhead_pct``, the median traced pass wall over the untraced one.  It
also checks the predicted zero / nonzero call-count pattern and prints where
the time goes.

Every metric is printed as ``name = value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run exits non-zero without that line when it cannot run the
workload, for example when ``src/impscat`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

from workloads import (CHECKED_GROUPS, PREDICTED_NONZERO, WORKLOADS,  # noqa: E402
                       write_jobs)

# One BLAS thread: on a shared 2-vCPU host, two threads make the dense
# SVD/solve wait on whichever vCPU the host delays, and run-to-run spread
# grows several-fold (N=32 farfield medians 11% apart vs 1.4% with one).
BLAS_THREADS = 1
SETUP_PROBES = 4
DEADLINE_S = 170.0
END_TO_END_UNITS = {"job_p50_s": "s", "wall_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "success_rate": "ratio"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _run_worker(plan_path, result_path, mode, deadline) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the workload process")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan_path,
           result_path]
    # stdout goes to stderr so that this process's stdout holds only metrics
    subprocess.run(cmd + [repr(time.monotonic()), mode], env=_child_env(),
                   stdout=sys.stderr, check=True, timeout=timeout)
    with open(result_path) as fh:
        return json.load(fh)


def _print_metric(name, value, unit, note=""):
    print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def _counts(result):
    """(attempted, failed) jobs, the warm-up job included; prints each failure."""
    failures = [(-1, "warmup", result["warmup_error"])] if result["warmup_error"] else []
    failures += [(j["pass"], j["job"], j["error"]) for j in result["jobs"] if j["error"]]
    for pass_index, job, error in failures:
        print(f"FAILED check: pass {pass_index} {job}: {error}")
    return len(result["jobs"]) + 1, len(failures)


def _scaled_job_seconds(result) -> list:
    """Each job's seconds at the nominal host speed.

    A job's time is multiplied by the nominal reference-kernel time over the
    mean of the kernel times right before and right after the job; see
    ``reference.py`` for why.
    """
    refs = [j["ref_s"] for j in result["jobs"]] + [result["last_ref_s"]]
    return [j["seconds"] * 2.0 * result["nominal_ref_s"] / (before + after)
            for j, before, after in zip(result["jobs"], refs, refs[1:])]


def _end_to_end(result, setup_runs):
    attempted, failed = _counts(result)
    measured = [j["seconds"] for j in result["jobs"]]
    times = _scaled_job_seconds(result)
    pass_of = [j["pass"] for j in result["jobs"]]
    walls = [sum(t for t, p in zip(times, pass_of) if p == i)
             for i in range(len(result["pass_walls"]))]
    measured_setups = [r["setup_s"] for r in setup_runs]
    setups = [r["setup_s"] * r["nominal_ref_s"] / r["setup_ref_s"]
              for r in setup_runs]
    metrics = {
        "job_p50_s": statistics.median(times),
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "success_rate": 1.0 - failed / attempted,
    }
    notes = {
        "job_p50_s": f"median of {len(times)} jobs, "
                     f"{statistics.median(measured):.4f} s as measured",
        "wall_s": f"median of {len(walls)} passes, "
                  f"{statistics.median(result['pass_walls']):.4f} s as measured",
        "setup_s": f"median of {len(setups)} processes: "
                   + ", ".join(f"{s:.3f}" for s in setups) + "; as measured: "
                   + ", ".join(f"{s:.3f}" for s in measured_setups),
        "peak_rss_mb": "ru_maxrss of the measuring process",
        "success_rate": f"error_rate = {failed / attempted:.6g}, "
                        f"{failed} of {attempted} jobs failed",
    }
    for name, value in metrics.items():
        _print_metric(name, value, END_TO_END_UNITS[name], notes[name])
    refs = [j["ref_s"] for j in result["jobs"]]
    print(f"host speed: reference kernel {min(refs):.4f} .. {max(refs):.4f} s, "
          f"median {statistics.median(refs):.4f} s over {len(refs)} runs, "
          f"nominal {result['nominal_ref_s']} s")
    return attempted, failed, {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                               for name, value in metrics.items()}


def _per_layer(workload, result):
    trace = result["trace"]
    attempted, failed = _counts(result)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in trace["metrics"].items()}
    plain = statistics.median(trace["plain_pass_walls"])
    traced = statistics.median(trace["traced_pass_walls"])
    metrics["host.reference_s"] = {
        "value": statistics.median(j["ref_s"] for j in result["jobs"]), "unit": "s"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced / plain - 1.0),
                                     "unit": "%"}
    for name, entry in metrics.items():
        _print_metric(name, entry["value"], entry["unit"])
    print(f"trace: {trace['bindings']} bindings wrapped, {trace['spans']} spans; "
          f"untraced pass {plain:.4f} s, traced pass {traced:.4f} s")

    job_s = next(row[2] for row in trace["table"] if row[0] == "job")
    print("where the time goes (per job; incl. = with children):")
    print(f"  {'layer':26s} {'calls':>10s} {'incl. s':>10s} {'self s':>10s} {'self %':>7s}")
    for group, calls, incl, self_s in trace["table"]:
        print(f"  {group:26s} {calls:10.1f} {incl:10.4f} {self_s:10.4f} "
              f"{100.0 * self_s / job_s:7.1f}")
    ranked = sorted(trace["table"][1:], key=lambda row: -row[3])[:3]
    print("largest layers by self time: " + ", ".join(
        f"{group} {100.0 * self_s / job_s:.1f}%" for group, _, _, self_s in ranked))

    mismatches = []
    for group in CHECKED_GROUPS:
        count = trace["calls"].get(group, 0)
        predicted = group in PREDICTED_NONZERO[workload]
        if (count > 0) != predicted:
            mismatches.append(f"{group} calls = {count}, predicted "
                              f"{'> 0' if predicted else '0'}")
    print("call-count self-check: "
          + ("; ".join(mismatches) if mismatches else "matches the prediction"))
    return attempted, failed, not mismatches, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "impscat", "cli.py")):
        print(f"impscat sources not found under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        plan = write_jobs(args.workload, args.seed, workdir)
        plan["seconds"] = args.seconds
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        probes = [_run_worker(plan_path, os.path.join(workdir, f"probe{i}.json"),
                              "setup", deadline)
                  for i in range(0 if args.trace else SETUP_PROBES)]
        result = _run_worker(plan_path, os.path.join(workdir, "result.json"),
                             "trace" if args.trace else "measure", deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "blas_threads": BLAS_THREADS,
           "nproc": os.cpu_count(), "cpu": _cpu_model(), **result["versions"]}
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        attempted, failed, pattern_ok, metrics = _per_layer(args.workload, result)
    else:
        attempted, failed, metrics = _end_to_end(result, probes + [result])
        pattern_ok = True
    print(json.dumps({"correct": failed == 0 and pattern_ok,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
