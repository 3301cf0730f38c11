"""Seeded inputs: the same seed gives identical inputs, and a different seed
changes values only, so every per-layer work count stays the same."""

import filecmp
import json
import os

import pytest

import run
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _strip(jobs, workdir):
    """Job specs with the work directory replaced, for comparing two builds."""
    return json.loads(json.dumps(jobs).replace(workdir, "WORKDIR"))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(tmp_path, name):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    os.makedirs(a)
    os.makedirs(b)
    assert _strip(workloads.build(name, 7, a), a) == _strip(workloads.build(name, 7, b), b)
    match, mismatch, errors = filecmp.cmpfiles(a, b, os.listdir(a), shallow=False)
    assert not mismatch and not errors


def test_seed_changes_values_not_sizes(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    os.makedirs(a)
    os.makedirs(b)
    for name in ("project-gl", "fd-crosscheck", "synthesis-io"):
        jobs_a, jobs_b = _strip(workloads.build(name, 1, a), a), _strip(workloads.build(name, 2, b), b)
        assert jobs_a != jobs_b
        assert len(jobs_a) == len(jobs_b)
    assert not filecmp.cmp(os.path.join(a, "coeffs.csv"), os.path.join(b, "coeffs.csv"), shallow=False)


def _traced_counts(name, seed, workdir):
    os.makedirs(workdir)
    bench = run.Bench(workloads.build(name, seed, workdir), workdir, run.child_env(os.path.join(ROOT, "src")))
    summary = bench.run_pass(trace=True)
    assert summary is not None, bench.problems
    trace = summary["trace"]
    layers = sum(trace[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + trace["trace.unspanned_s"] == pytest.approx(trace["trace.wall_s"], rel=1e-9)
    assert all(not r["failed"] for job, r in zip(bench.jobs, summary["results"]) if not job.get("probe"))
    # io.bytes_out is measured from the output text, whose length follows the values
    return {key: trace[key] for key in tracing.COUNTS if key in trace and key != "io.bytes_out"}


@pytest.mark.parametrize("name", ["project-gl", "fd-crosscheck", "synthesis-io"])
def test_seed_keeps_computed_counts(tmp_path, name):
    first = _traced_counts(name, 1, str(tmp_path / "a"))
    second = _traced_counts(name, 2, str(tmp_path / "b"))
    assert first == second
    assert any(value for value in first.values())
