"""deformspec benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the root of a source checkout.

Closed loop, one client: each pass runs the workload's job list, one job at
a time, in a fresh child process (``child.py``) that imports deformspec from
``src/``.  Passes repeat until ``--seconds`` have elapsed (at least three).
Every output is checked against an independent reference (``checks.py``)
outside the timed region.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer ones with ``--trace 1``.

The traced run interleaves untraced and traced passes, so it also gives the
tracing overhead and checks that tracing leaves every output byte unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 7
MIN_PASSES = 3  # a median of three passes, even where one pass takes half the run
RUN_LIMIT_S = 170  # a child still running this long after the start is killed

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "max_scaled_err": "ratio",
}


def _per_layer_units():
    units = {name: "s" for name in tracing.TIMES}
    units.update({name: "count" for name in tracing.COUNTS})
    units.update(
        {
            "transform.basis_peak_mb": "MB",
            "io.bytes_out": "bytes",
            "spectrum.basis_repeat_ratio": "ratio",
            "quadrature.rule_repeat_ratio": "ratio",
            "cli.exit_contract_violations": "count",
            "trace.wall_s": "s",
            "trace.untraced_wall_s": "s",
            "trace.overhead_s": "s",
            "trace.unspanned_s": "s",
        }
    )
    return units


PER_LAYER = _per_layer_units()


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _digest(job, path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    if "outdir" in job and os.path.isdir(job["outdir"]):
        for name in sorted(os.listdir(job["outdir"])):
            h.update(name.encode())
            with open(os.path.join(job["outdir"], name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Bench:
    """Spawns passes of one job list and judges their outputs."""

    def __init__(self, jobs, workdir, env):
        self.workdir = workdir
        self.env = env
        self.jobs = jobs
        for job in self.jobs:
            if "outdir" in job:
                os.makedirs(job["outdir"], exist_ok=True)
        self.started = _clock()
        self.spawned = 0
        self.setups = []
        self.reference = {}  # job id -> (digest, checks.Result) of the first checked output
        self.problems = []

    def spawn(self, jobs, trace=False):
        """Run one child; returns its summary, or None when it died."""
        outdir = os.path.join(self.workdir, f"pass{self.spawned:03d}")
        self.spawned += 1
        os.makedirs(outdir)
        spec_path = os.path.join(outdir, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump({"jobs": jobs, "outdir": outdir, "trace": trace}, fh)
        command = [sys.executable, os.path.join(HERE, "child.py"), spec_path, repr(_clock())]
        proc = subprocess.Popen(command, env=self.env)
        try:
            code = proc.wait(timeout=max(1.0, RUN_LIMIT_S - (_clock() - self.started)))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        summary_path = os.path.join(outdir, "summary.json")
        if code != 0 or not os.path.exists(summary_path):
            self.problems.append(f"child process ended with code {code}")
            return None
        with open(summary_path) as fh:
            summary = json.load(fh)
        self.setups.append(summary["setup_s"])
        return summary

    def run_pass(self, trace):
        summary = self.spawn(self.jobs, trace)
        if summary is None:
            return None
        summary["results"] = [self.judge(job, record) for job, record in zip(self.jobs, summary["jobs"])]
        summary["wall_s"] = sum(r["seconds"] for job, r in zip(self.jobs, summary["jobs"]) if not job.get("probe"))
        return summary

    def judge(self, job, record):
        """Failed when the exit code is unexpected, stderr holds a traceback,
        or the output lies outside its reference bound."""
        reasons = []
        if record["exit"] != job.get("expect_exit", 0):
            reasons.append(f"exit {record['exit']}, expected {job.get('expect_exit', 0)}")
        if "Traceback (most recent call last)" in record["stderr"]:
            reasons.append("traceback on stderr: " + record["stderr"].strip().splitlines()[-1])
        digest = _digest(job, record["output"])
        known = self.reference.get(job["id"])
        if known is not None and known[0] == digest:
            result = known[1]
        else:
            if record["output"].endswith(".npy"):
                output = np.load(record["output"])
            else:
                with open(record["output"]) as fh:
                    output = fh.read()
            result = checks.check(output, job["check"])
            if known is None:
                self.reference[job["id"]] = (digest, result)
        if not result.ok:
            reasons.append(result.detail)
        return {"id": job["id"], "failed": bool(reasons), "reasons": reasons, "err": result.err, "digest": digest}

    def fill_setups(self):
        while len(self.setups) < SETUP_SAMPLES and _clock() - self.started < RUN_LIMIT_S - 10:
            if self.spawn([]) is None:
                break


def _run(bench, seconds, trace):
    """Passes until the time is up and at least MIN_PASSES have run.  With
    tracing, passes run untraced, traced, traced, untraced and so on, at
    least four, so drift in the machine's speed cancels from the overhead."""
    bench.spawn([])  # warm-up: the first import compiles bytecode, which users pay once
    bench.setups.clear()
    deadline = _clock() + seconds
    passes = []
    while len(passes) < (4 if trace else MIN_PASSES) or _clock() < deadline:
        traced = trace and len(passes) % 4 in (1, 2)
        summary = bench.run_pass(traced)
        if summary is None:
            break
        summary["traced"] = traced
        passes.append(summary)
    bench.fill_setups()
    return passes


def _pass_wall(jobs, passes):
    """Wall time of one pass: the sum over measured jobs of each job's median
    time across passes, so a stall in one job of one pass does not count."""
    if not passes:
        return 0.0
    return sum(
        statistics.median(s["jobs"][i]["seconds"] for s in passes)
        for i, job in enumerate(jobs)
        if not job.get("probe")
    )


def _report(bench, passes, trace):
    measured = [job for job in bench.jobs if not job.get("probe")]
    attempted = len(measured) * max(len(passes), 1)
    failed = 0 if passes else attempted
    errs = []
    for summary in passes:
        for job, result in zip(bench.jobs, summary["results"]):
            if job.get("probe"):
                continue
            if result["failed"]:
                failed += 1
                bench.problems.append(f"{job['id']}: {'; '.join(result['reasons'])}")
            elif not job.get("seeded"):
                errs.append(result["err"])
    correct = failed == 0 and not bench.problems
    if trace:
        untraced = [s for s in passes if not s["traced"]]
        traced = [s for s in passes if s["traced"]]
        for summary in traced if untraced else ():
            for a, b in zip(untraced[0]["results"], summary["results"]):
                if a["digest"] != b["digest"]:
                    correct = False
                    bench.problems.append(f"{a['id']}: output bytes differ between traced and untraced passes")
        values = {name: 0.0 for name in PER_LAYER}
        for summary in traced:
            for name, value in summary["trace"].items():
                if name in values:
                    values[name] += value / len(traced)
        probes = [job for job in bench.jobs if job.get("probe")]
        violations = [
            sum(r["failed"] for job, r in zip(bench.jobs, s["results"]) if job.get("probe")) for s in passes
        ]
        values["cli.exit_contract_violations"] = statistics.mean(violations) if probes else 0.0
        values["trace.untraced_wall_s"] = statistics.median(s["wall_s"] for s in untraced) if untraced else 0.0
        values["trace.wall_s"] = statistics.median(s["trace"]["trace.wall_s"] for s in traced) if traced else 0.0
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(bench.setups) if bench.setups else 0.0,
            "wall_s": _pass_wall(bench.jobs, passes),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in passes) if passes else 0.0,
            "ok_ratio": (attempted - failed) / attempted,
            "max_scaled_err": max(errs) if errs else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "deformspec", "cli.py")):
        print(f"perfbench: no deformspec sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    env = child_env(src)
    workdir = os.path.join(".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        bench = Bench(workloads.build(args.workload, args.seed, workdir), workdir, env)
        passes = _run(bench, args.seconds, bool(args.trace))
        result = _report(bench, passes, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(".perfbench_work") and not os.listdir(".perfbench_work"):
            os.rmdir(".perfbench_work")
    for problem in bench.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
