"""One-off reproduction of the baseline rows the roadmap quotes, printed as JSON:
``python3 perfbench/baseline.py`` from the root of a source checkout.

- ``project --n-max 2000``: wall time and peak RSS;
- ``fd-validate`` with its default grid sizes and modes: wall time;
- ``gram --n-max 500``: the rule / compute / CSV split, from a traced pass.

Each row is the median of three fresh child processes, spawned as in the
benchmark.  The result is recorded in ``ledger.json``; it is not gated.
"""

import json
import os
import shutil
import statistics
import sys

import run

ROWS = {
    "project --n-max 2000": ["project", "--target", "C", "--n-max", "2000"],
    "fd-validate": ["fd-validate"],
    "gram --n-max 500": ["gram", "--n-max", "500"],
}
REPEATS = 3


def main():
    workdir = os.path.join(".perfbench_work", f"baseline-{os.getpid()}")
    os.makedirs(workdir)
    bench = run.Bench([], workdir, run.child_env(os.path.join(os.getcwd(), "src")))
    out = {}
    try:
        for label, argv in ROWS.items():
            job = {"id": label, "argv": argv}
            traced = label.startswith("gram")
            summaries = [bench.spawn([job], trace=traced) for _ in range(REPEATS)]
            if any(s is None or s["jobs"][0]["exit"] != 0 for s in summaries):
                raise SystemExit(f"baseline row {label!r} failed: {bench.problems}")
            row = {
                "wall_s": statistics.median(s["jobs"][0]["seconds"] for s in summaries),
                "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in summaries),
            }
            if traced:
                split = {
                    "rule_s": "quadrature.rule_s",
                    "compute_s": ("spectrum.self_s", "transform.self_s"),
                    "csv_s": "io.write_s",
                }
                for name, keys in split.items():
                    keys = (keys,) if isinstance(keys, str) else keys
                    row[name] = statistics.median(sum(s["trace"][k] for k in keys) for s in summaries)
            out[label] = row
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    sys.exit(main())
