"""One workload process: import impscat, warm up, run timed passes, check.

Started by ``run.py`` with the BLAS thread count pinned in its environment.
Usage: ``worker.py PLAN RESULT T0 MODE`` where PLAN is the JSON job plan,
RESULT the JSON file to write, T0 the parent's ``time.monotonic()`` just
before this process was started, and MODE one of ``setup`` (stop after the
warm-up job), ``measure`` (timed passes, no tracing) or ``trace`` (timed
passes that alternate between untraced and traced).

A pass runs the workload's whole seeded job list once; each job is one call
of ``impscat.cli.main``.  Only the calls are timed; every job's output is
checked right after its call, outside the timed region.  After the warm-up
job, the reference kernel (``reference.py``) is timed right before every
job and once after the last, so that ``run.py`` can read each job's time
against the host's speed right before and right after it.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# kernel runs that give a set-up process's host speed, after its warm-up job
SETUP_REFERENCE_RUNS = 5


def _import_impscat():
    sys.path.insert(0, SRC)
    import impscat

    if not os.path.abspath(impscat.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"impscat imported from {impscat.__file__}, not {SRC}")


class Runner:
    """Runs and checks the jobs of one plan; traces them once ``tracer`` is set."""

    def __init__(self, plan, checker):
        from impscat import cli

        self.cli = cli
        self.plan = plan
        self.checker = checker
        self.tracer = None
        self.reference = None  # set after set-up: times the host before each job
        self.records = []

    def run_job(self, job, pass_index, traced=False):
        argv = [job["subcommand"], job["config"]]
        job_id = f"{pass_index}:{job['name']}"
        ref_s = self.reference() if self.reference else None
        start = time.perf_counter()
        try:
            if traced:
                code = self.tracer.run_job(job_id, self.cli.main, argv)
            else:
                code = self.cli.main(argv)
        except Exception:  # a crashing job is a failed job, not a crashed run
            traceback.print_exc()
            code = None
        seconds = time.perf_counter() - start
        try:
            error = self.checker.check(job["subcommand"], job["config"], code)
        except Exception as exc:  # a malformed output is a failed check
            error = f"check raised {type(exc).__name__}: {exc}"
        record = {"job": job["name"], "subcommand": job["subcommand"],
                  "pass": pass_index, "traced": traced, "seconds": seconds,
                  "ref_s": ref_s, "error": error}
        self.records.append(record)
        if error:
            print(f"job {job_id} ({job['subcommand']}) failed: {error}",
                  file=sys.stderr)
        return record

    def run_pass(self, pass_index, traced=False):
        """Run the job list once; return its wall time."""
        return sum(self.run_job(job, pass_index, traced)["seconds"]
                   for job in self.plan["jobs"])

    def run_for(self, budget, run_round):
        """Call ``run_round(i)`` for i = 0, 1, ... until ``budget`` seconds.

        Another round starts only if it is expected to end within half a
        round of the budget.  Returns the list of round results.
        """
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(run_round(len(rounds)))
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / len(rounds) > budget:
                return rounds


def main(argv):
    plan_path, result_path, t0, mode = argv
    with open(plan_path) as fh:
        plan = json.load(fh)
    _import_impscat()

    import numpy
    import scipy

    from checks import Checker

    checker = Checker()
    runner = Runner(plan, checker)
    warmup = runner.run_job(plan["warmup"], -1)
    result = {"setup_s": time.monotonic() - float(t0),
              "warmup_error": warmup["error"]}

    import reference

    runner.reference = reference.reference_seconds
    result["nominal_ref_s"] = reference.REFERENCE_NOMINAL_S
    result["setup_ref_s"] = statistics.median(
        runner.reference() for _ in range(SETUP_REFERENCE_RUNS))
    runner.records.clear()
    if mode != "setup":
        seconds = float(plan["seconds"])
        if mode == "measure":
            result["pass_walls"] = runner.run_for(seconds, runner.run_pass)
        else:
            from tracer import Tracer

            tracer = runner.tracer = Tracer()

            def plain_then_traced(i):
                plain = runner.run_pass(2 * i)
                tracer.install()
                try:
                    return plain, runner.run_pass(2 * i + 1, traced=True)
                finally:
                    tracer.uninstall()

            plain, traced = zip(*runner.run_for(seconds, plain_then_traced))
            metrics, calls, table = tracer.layer_metrics()
            result["trace"] = {
                "plain_pass_walls": plain, "traced_pass_walls": traced,
                "metrics": metrics, "calls": calls, "table": table,
                "bindings": tracer.binding_count, "spans": len(tracer.spans),
            }
        result["jobs"] = runner.records
        result["last_ref_s"] = runner.reference()  # closes the last job's bracket
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
        result["versions"] = {
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
