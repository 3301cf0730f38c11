"""In-memory spans around deformspec's public functions, for the traced run.

``Tracer.install`` replaces every public function of a deformspec module in
every deformspec namespace that binds it (``cli.project``,
``experiments.evaluate``, ``transform.eigenfunction``, a module's own calls
to itself) with a wrapper that records a span: name, layer, start, end and
parent.  Nothing under ``src/`` changes; the wrappers live only in the child
process that installs them.

Self time is a span's duration minus its child spans.  Each span's self time
is credited to its layer and to the nearest named function of the same layer
on its ancestor chain (``NAMED``), so ``sinpi`` counts toward
``spectrum.eigenfunction_s`` and the projection inside ``parseval_defect``
toward ``transform.project_s``.  The ``*_values``, ``*_rows``, ``*_points``,
``*_nodes`` and ``*_mb`` counts are computed from call arguments, not
measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("cli", "params", "spectrum", "quadrature", "transform", "fdsolver", "experiments", "io")

# Called once per number inside the io writers; a span each would measure the
# wrapper, not the writer.  Its time stays in the calling writer's self time.
UNWRAPPED = {("io", "format_float")}

NAMED = {
    ("params", "deformation_profile"): "params.profile_s",
    ("spectrum", "eigenfunction"): "spectrum.eigenfunction_s",
    ("spectrum", "modes"): "spectrum.modes_s",
    ("quadrature", "gauss_legendre_rule"): "quadrature.rule_s",
    ("quadrature", "composite_simpson_rule"): "quadrature.rule_s",
    ("quadrature", "default_projection_rule"): "quadrature.rule_s",
    ("quadrature", "fd_derivative"): "quadrature.fd_derivative_s",
    ("transform", "project"): "transform.project_s",
    ("transform", "evaluate"): "transform.evaluate_s",
    ("transform", "gram_matrix"): "transform.gram_s",
    ("transform", "l2_norm"): "transform.norm_s",
    ("fdsolver", "eigenvalues_tridiagonal"): "fdsolver.eigenvalues_s",
    ("fdsolver", "top_eigenvalues"): "fdsolver.eigenvalues_s",
    ("fdsolver", "eigenvector_inverse_iteration"): "fdsolver.inverse_iteration_s",
    ("fdsolver", "validate_against_analytic"): "fdsolver.validate_s",
    ("fdsolver", "refinement_study"): "fdsolver.validate_s",
    ("experiments", "asymptotics_report"): "experiments.report_s",
    ("experiments", "rigidity_report"): "experiments.report_s",
    ("experiments", "constant_coefficient_report"): "experiments.report_s",
    ("experiments", "inverse_limit_report"): "experiments.report_s",
    ("experiments", "convergence_study"): "experiments.report_s",
    ("io", "read_coefficients"): "io.read_s",
}
# Every other io function serializes output.
IO_DEFAULT = "io.write_s"

COUNTS = (
    "cli.jobs",
    "params.profile_values",
    "spectrum.eigenfunction_values",
    "spectrum.basis_rows",
    "quadrature.gl_nodes",
    "quadrature.simpson_points",
    "quadrature.rule_builds",
    "transform.basis_peak_mb",
    "fdsolver.eigen_rows",
    "fdsolver.inverse_iteration_calls",
    "experiments.reports",
    "io.bytes_out",
    "io.rows_read",
)

TIMES = tuple(f"{layer}.self_s" for layer in LAYERS) + tuple(sorted(set(NAMED.values()) | {IO_DEFAULT}))


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Span recorder for one process; call ``install`` once, before the jobs."""

    def __init__(self, clock=None):
        self.clock = clock or (lambda: time.clock_gettime(time.CLOCK_MONOTONIC))
        self.spans = []  # [name, layer, start, end, parent]
        self._stack = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.rows_repeated = 0
        self.rules_repeated = 0
        self._rules_built = set()
        self._rows_seen = {}
        self.job_seconds = 0.0

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"deformspec.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__ or (layer, name) in UNWRAPPED:
                    continue
                wrappers[fn] = self.wrap(layer, name, fn)
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, name, wrappers[value])

    def wrap(self, layer, name, fn):
        count = getattr(self, f"_count_{layer}_{name}", None)
        if NAMED.get((layer, name)) == "experiments.report_s":
            count = self._count_report

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[2] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = self.clock()
                self._stack.pop()
            if count is not None:
                count(args, kwargs, result)
            elif layer == "io" and isinstance(result, str):
                self.counts["io.bytes_out"] += len(result.encode())
            return result

        return traced

    # -- counters computed from call arguments ----------------------------

    def _count_cli_run(self, args, kwargs, result):
        self.counts["cli.jobs"] += 1

    def _count_params_deformation_profile(self, args, kwargs, result):
        self.counts["params.profile_values"] += int(np.size(_arg(args, kwargs, 1, "v")))

    def _count_spectrum_eigenfunction(self, args, kwargs, result):
        n = np.asarray(_arg(args, kwargs, 1, "n"))
        v = np.asarray(_arg(args, kwargs, 2, "v"))
        self.counts["spectrum.eigenfunction_values"] += int(np.broadcast(n, v).size)
        key = (v.size, float(v.flat[0]), float(v.flat[v.size // 2]), float(v.flat[-1]))
        seen = self._rows_seen.setdefault(key, set())
        rows = set(n.ravel().tolist())
        self.counts["spectrum.basis_rows"] += len(rows)
        self.rows_repeated += len(rows & seen)
        seen |= rows

    def _count_rule(self, kind, params, size):
        self.counts["quadrature.rule_builds"] += 1
        key = (kind, params.v_c, int(size))
        if key in self._rules_built:
            self.rules_repeated += 1
        self._rules_built.add(key)

    def _count_quadrature_gauss_legendre_rule(self, args, kwargs, result):
        m = int(_arg(args, kwargs, 1, "m"))
        self.counts["quadrature.gl_nodes"] += m
        self._count_rule("gauss_legendre", _arg(args, kwargs, 0, "params"), m)

    def _count_quadrature_composite_simpson_rule(self, args, kwargs, result):
        points = int(_arg(args, kwargs, 1, "points"))
        self.counts["quadrature.simpson_points"] += points
        self._count_rule("composite_simpson", _arg(args, kwargs, 0, "params"), points)

    def _basis(self, rows, nodes):
        mb = 8.0 * rows * nodes / 1e6
        self.counts["transform.basis_peak_mb"] = max(self.counts["transform.basis_peak_mb"], mb)

    def _count_transform_project(self, args, kwargs, result):
        self._basis(int(_arg(args, kwargs, 2, "n_max")) + 1, len(_arg(args, kwargs, 3, "rule").nodes))

    def _count_transform_gram_matrix(self, args, kwargs, result):
        self._basis(int(_arg(args, kwargs, 1, "n_max")) + 1, len(_arg(args, kwargs, 2, "rule").nodes))

    def _count_transform_evaluate(self, args, kwargs, result):
        coeffs = _arg(args, kwargs, 0, "coeffs")
        self._basis(coeffs.n_max + 1, int(np.size(_arg(args, kwargs, 1, "v"))))

    def _count_fdsolver_eigenvalues_tridiagonal(self, args, kwargs, result):
        self.counts["fdsolver.eigen_rows"] += _arg(args, kwargs, 0, "A").dim ** 2

    def _count_fdsolver_top_eigenvalues(self, args, kwargs, result):
        A = _arg(args, kwargs, 0, "A")
        self.counts["fdsolver.eigen_rows"] += A.dim * int(_arg(args, kwargs, 1, "count"))

    def _count_fdsolver_eigenvector_inverse_iteration(self, args, kwargs, result):
        self.counts["fdsolver.inverse_iteration_calls"] += 1

    def _count_io_read_coefficients(self, args, kwargs, result):
        self.counts["io.rows_read"] += len(result.coefficients)

    def _count_io_write_experiment_csv_per_series(self, args, kwargs, result):
        self.counts["io.bytes_out"] += sum(path.stat().st_size for path in result)

    def _count_report(self, args, kwargs, result):
        self.counts["experiments.reports"] += 1

    # -- per job bookkeeping ----------------------------------------------

    def begin_job(self):
        self._rows_seen = {}

    def end_job(self, start, end):
        self.job_seconds += end - start

    # -- aggregation ------------------------------------------------------

    def metrics(self) -> dict:
        """Per-pass metrics: self times by layer and named function, counts,
        and the job time no span covers."""
        out = dict.fromkeys(TIMES, 0.0)
        child_time = [0.0] * len(self.spans)
        credit = [None] * len(self.spans)
        root_time = 0.0
        for i, (name, layer, start, end, parent) in enumerate(self.spans):
            if parent < 0:
                root_time += end - start
            else:
                child_time[parent] += end - start
            named = NAMED.get((layer, name)) or (IO_DEFAULT if layer == "io" else None)
            if named is None and parent >= 0 and self.spans[parent][1] == layer:
                named = credit[parent]
            credit[i] = named
        for i, (name, layer, start, end, parent) in enumerate(self.spans):
            self_time = (end - start) - child_time[i]
            out[f"{layer}.self_s"] += self_time
            if credit[i] is not None:
                out[credit[i]] += self_time
        out.update(self.counts)
        out["spectrum.basis_repeat_ratio"] = self.rows_repeated / max(self.counts["spectrum.basis_rows"], 1)
        out["quadrature.rule_repeat_ratio"] = self.rules_repeated / max(self.counts["quadrature.rule_builds"], 1)
        out["trace.wall_s"] = self.job_seconds
        out["trace.unspanned_s"] = self.job_seconds - root_time
        return out
