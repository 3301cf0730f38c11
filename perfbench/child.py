"""One benchmark pass in a fresh process:
``python3 child.py SPEC.json SPAWNED_AT``.

The spec names the jobs, the directory for their outputs and whether to
trace; SPAWNED_AT is the parent's CLOCK_MONOTONIC reading just before the
spawn.  The child imports deformspec, builds the CLI parser once
(``run(["--version"])``) and records that instant as the end of set-up.  It
then runs each job in turn with stdout and stderr captured in memory.  Only
the job call itself is timed; saving outputs for the parent's checks happens
after the clock stops.  A summary is written to ``<outdir>/summary.json``.
With an empty job list the child only measures set-up.
"""

import contextlib
import io
import json
import os
import sys
import time
import traceback

import numpy as np

from deformspec import cli, fdsolver, params


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_mb():
    """Peak resident set of this process image (VmHWM).

    Not ru_maxrss: Linux carries the maximum over exec, so ru_maxrss also
    holds the parent's resident set at the moment it spawned this process.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM line in /proc/self/status")


# Library jobs look functions up on the modules at call time, so the traced
# run sees the wrapped ones.


def _all_eigenvalues(results, m):
    return fdsolver.eigenvalues_tridiagonal(fdsolver.discretize(params.canonical_params(), m))


def _top_eigenvectors(results, m, modes, shifts_from):
    A = fdsolver.discretize(params.canonical_params(), m)
    return np.stack([fdsolver.eigenvector_inverse_iteration(A, lam) for lam in results[shifts_from][:modes]])


LIBRARY_CALLS = {"all_eigenvalues": _all_eigenvalues, "top_eigenvectors": _top_eigenvectors}


def _run_job(job, results):
    out, err = io.StringIO(), io.StringIO()
    value = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = _clock()
        try:
            if "argv" in job:
                code = cli.run(job["argv"])
            else:
                value = LIBRARY_CALLS[job["call"]](results, **job["args"])
                code = 0
        except Exception:  # a traceback is what a user would see: record it
            code = 1
            traceback.print_exc()
        end = _clock()
    return start, end, code, out.getvalue(), err.getvalue(), value


def main(spec_path, spawned_at):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(["--version"])
    setup_end = _clock()

    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    results, jobs, trace = {}, [], None
    for i, job in enumerate(spec["jobs"]):
        if tracer is not None:
            if job.get("probe") and trace is None:
                trace = tracer.metrics()  # probes are reported apart from the measured jobs
            tracer.begin_job()
        start, end, code, out, err, value = _run_job(job, results)
        if tracer is not None:
            tracer.end_job(start, end)
        path = os.path.join(spec["outdir"], f"{i:02d}.out")
        if value is not None:
            results[job["id"]] = value
            path += ".npy"
            np.save(path, value)
        else:
            with open(path, "w") as fh:
                fh.write(out)
        jobs.append({"id": job["id"], "seconds": end - start, "exit": code, "stderr": err, "output": path})

    summary = {
        "setup_s": setup_end - spawned_at,
        "peak_rss_mb": _peak_rss_mb(),
        "jobs": jobs,
    }
    if tracer is not None:
        summary["trace"] = trace or tracer.metrics()
    with open(os.path.join(spec["outdir"], "summary.json"), "w") as fh:
        json.dump(summary, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
