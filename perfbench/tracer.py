"""Span tracer that wraps impscat's layer functions from outside the package.

Several impscat modules bind layer functions with ``from … import``
(``forward`` binds ``layer_ops`` and ``specfun`` functions, ``stability``
binds ``solve_density``/``farfield``, ``layer_ops`` binds ``sph_bessel_j``
and ``sph_hankel1``).  Patching only the defining module would miss those
calls and read as zero time, so :meth:`Tracer.install` replaces every
binding of each traced function in every loaded impscat module, and then
checks that no binding of an original is left.

Each wrapped call records one span: name, start, end, parent span, job id.
Spans are kept in memory; :meth:`Tracer.layer_metrics` turns them into
per-job counts and times when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# group -> (defining module, traced functions)
TARGETS = {
    "specfun.bessel": ("impscat.specfun",
                       ("sph_bessel_j", "sph_bessel_y", "sph_hankel1")),
    "specfun.harmonics": ("impscat.specfun",
                          ("sph_harmonic_all", "real_sph_harmonic_all")),
    "layer_ops.eigenvalue": ("impscat.layer_ops", ("sphere_operator_eigenvalue",)),
    "layer_ops.multiplication": ("impscat.layer_ops", ("assemble_multiplication",)),
    "layer_ops.assemble": ("impscat.layer_ops", ("assemble_combined_system",)),
    "layer_ops.rhs": ("impscat.layer_ops", ("rhs_from_incident",)),
    "forward.solve": ("impscat.forward", ("solve_density",)),
    "forward.farfield": ("impscat.forward", ("farfield",)),
    "stability.sweep": ("impscat.stability", ("stability_sweep",)),
    "carleman.sides": ("impscat.carleman", ("carleman_sides",)),
    "carleman.three_sphere": ("impscat.carleman", ("three_sphere_check",)),
    # config parsing, validation and the atomic CSV/JSON writers
    "cli": ("impscat.cli", ("load_config", "validate_common", "emit_summary",
                            "atomic_write_text", "farfield_csv", "sweep_csv")),
}

JOB = "job"

# span record: [name, start, end, parent record, job id, child seconds, group]
_START, _END, _PARENT, _JOB, _CHILD, _GROUP = range(1, 7)


def _impscat_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "impscat" or name.startswith("impscat."))]


class Tracer:
    """Records spans for the wrapped impscat functions while a job is open."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self.system_bytes = 0  # entries.nbytes of the assembled systems
        self._bindings = []  # (namespace dict, key, original)
        self.binding_count = 0

    # -- installation ------------------------------------------------------

    def install(self):
        originals = {}
        for group, (modname, names) in TARGETS.items():
            home = sys.modules[modname]
            for name in names:
                orig = getattr(home, name)
                label = f"{modname.rsplit('.', 1)[-1]}.{name}"
                originals[id(orig)] = (orig, self._wrap(orig, label, group))
        for mod in _impscat_modules():
            namespaces = [vars(mod)] + [v for v in vars(mod).values()
                                        if isinstance(v, dict)]
            for ns in namespaces:
                for key, value in list(ns.items()):
                    hit = originals.get(id(value))
                    if hit is not None and hit[0] is value:
                        ns[key] = hit[1]
                        self._bindings.append((ns, key, value))
        self.binding_count = len(self._bindings)
        missed = self._unpatched([orig for orig, _ in originals.values()])
        if missed:
            self.uninstall()
            raise RuntimeError(f"tracer left bindings unwrapped: {missed}")

    def uninstall(self):
        for ns, key, orig in reversed(self._bindings):
            ns[key] = orig
        self._bindings.clear()

    @staticmethod
    def _unpatched(originals):
        missed = []
        for mod in _impscat_modules():
            namespaces = [vars(mod)] + [v for v in vars(mod).values()
                                        if isinstance(v, dict)]
            for ns in namespaces:
                for key, value in ns.items():
                    if any(value is orig for orig in originals):
                        missed.append(f"{mod.__name__}.{key}")
        return missed

    def _wrap(self, fn, label, group):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            result = tracer._call(fn, label, group, args, kwargs)
            if group == "layer_ops.assemble":
                tracer.system_bytes += result.entries.nbytes
            return result

        return traced

    def _call(self, fn, label, group, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        rec = [label, 0.0, 0.0, parent, self.job, 0.0, group]
        self.spans.append(rec)
        self._stack.append(rec)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            rec[_START], rec[_END] = start, end
            if parent is not None:
                parent[_CHILD] += end - start

    # -- jobs ----------------------------------------------------------------

    def run_job(self, job_id, fn, *args):
        """Call ``fn(*args)`` as job ``job_id`` under a root span."""
        self.job = job_id
        try:
            return self._call(fn, JOB, JOB, args, {})
        finally:
            self.job = None

    # -- aggregation -----------------------------------------------------------

    def layer_metrics(self) -> tuple[dict, dict, list]:
        """Per-job layer metrics, total calls per group, and a per-group table.

        The table rows are (group, calls, inclusive s, self s), per job.
        """
        jobs = {rec[_JOB] for rec in self.spans if rec[_GROUP] == JOB}
        n_jobs = max(1, len(jobs))
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        for rec in self.spans:
            group = rec[_GROUP]
            dur = rec[_END] - rec[_START]
            calls[group] += 1
            self_s[group] += dur - rec[_CHILD]
            parent = rec[_PARENT]
            if parent is None or parent[_GROUP] != group:
                incl[group] += dur

        def per_job(table, group):
            return table[group] / n_jobs

        metrics = {
            "specfun.bessel_calls": (per_job(calls, "specfun.bessel"), "count"),
            "specfun.bessel_s": (per_job(incl, "specfun.bessel"), "s"),
            "specfun.harmonics_calls": (per_job(calls, "specfun.harmonics"), "count"),
            "specfun.harmonics_s": (per_job(incl, "specfun.harmonics"), "s"),
            "layer_ops.eigenvalue_calls": (per_job(calls, "layer_ops.eigenvalue"), "count"),
            "layer_ops.multiplication_calls":
                (per_job(calls, "layer_ops.multiplication"), "count"),
            "layer_ops.multiplication_s": (per_job(incl, "layer_ops.multiplication"), "s"),
            "layer_ops.assemble_self_s": (per_job(self_s, "layer_ops.assemble"), "s"),
            "layer_ops.system_mb":
                (self.system_bytes / 1e6 / n_jobs, "MB"),
            "layer_ops.rhs_self_s": (per_job(self_s, "layer_ops.rhs"), "s"),
            "forward.solve_calls": (per_job(calls, "forward.solve"), "count"),
            "forward.solve_self_s": (per_job(self_s, "forward.solve"), "s"),
            "forward.farfield_self_s": (per_job(self_s, "forward.farfield"), "s"),
            "stability.sweep_self_s": (per_job(self_s, "stability.sweep"), "s"),
            "carleman.sides_calls": (per_job(calls, "carleman.sides"), "count"),
            "carleman.sides_s": (per_job(incl, "carleman.sides"), "s"),
            "carleman.three_sphere_s": (per_job(incl, "carleman.three_sphere"), "s"),
            "cli.self_s": (per_job(self_s, "cli"), "s"),
        }
        table = [(group, calls[group] / n_jobs, incl[group] / n_jobs,
                  self_s[group] / n_jobs)
                 for group in [JOB] + list(TARGETS)]
        return metrics, dict(calls), table
