"""Job lists of the four benchmark workloads, generated from a seed.

A job is a plain dict that the child process runs and the parent checks:

- ``argv`` (one ``deformspec.cli.run`` call) or ``call`` + ``args`` (one
  public library call, for work no subcommand exposes);
- ``expect_exit``: the exit code a correct run returns;
- ``check``: how ``checks.py`` verifies the output, with its bound;
- ``probe``: exit-contract cases that are run and reported but are not
  counted as operations (they fail at the parent commit by design);
- ``outdir``: a directory the job writes its result files into.

Every size is fixed.  The seed changes values only: the ``psi:<k>`` targets,
the coefficient file, one custom ``(hbar, c, v_c)`` and the eigenfunction
index, so per-layer work counts do not depend on it.
"""

from __future__ import annotations

import os

import numpy as np

from checks import CANONICAL

WORKLOADS = ("project-gl", "project-uniform", "fd-crosscheck", "synthesis-io")


# Scaled-error bounds, 10-300x above the deviation measured on a 2-core
# x86-64 box; each is proven non-vacuous in tests/test_checks.py.
GL_BOUND = 1e-12
SIMPSON_BOUND = 1e-8
REPORT_BOUND = 1e-8
FD_BOUND = 1e-12
VECTOR_BOUND = 1e-9
SAMPLE_BOUND = 1e-11


def _cli(job_id, argv, check, expect_exit=0, **extra):
    return {"id": job_id, "argv": [str(a) for a in argv], "expect_exit": expect_exit, "check": check, **extra}


def _project_gl(rng):
    jobs = []
    for n_max in (255, 511):
        k = int(rng.integers(0, n_max + 1))
        for target in ("C", "const", f"psi:{k}"):
            jobs.append(
                _cli(
                    f"project-{target}-{n_max}",
                    ["project", "--target", target, "--n-max", n_max],
                    {"kind": "coefficients", "target": target, "n_max": n_max, "bound": GL_BOUND},
                    seeded=target.startswith("psi:"),
                )
            )
    jobs.append(_cli("gram-255", ["gram", "--n-max", 255], {"kind": "gram", "n_max": 255, "bound": GL_BOUND}))
    n_list = [8, 16, 32, 64, 128, 256]
    jobs.append(
        _cli(
            "converge-256",
            ["converge", "--target", "C", "--n-list", ",".join(map(str, n_list))],
            {"kind": "converge", "n_list": n_list, "bound": REPORT_BOUND},
        )
    )
    jobs.append(
        _cli(
            "rigidity-256",
            ["rigidity", "--n-list", ",".join(map(str, n_list))],
            {"kind": "rigidity", "n_list": n_list, "format": "json", "bound": REPORT_BOUND},
        )
    )
    jobs.append(
        _cli("parseval-400", ["parseval", "--n-max", 400], {"kind": "parseval", "n_max": 400, "bound": GL_BOUND})
    )
    return jobs


def _project_uniform(rng):
    return [
        _cli(
            "project-C-2000",
            ["project", "--target", "C", "--n-max", 2000],
            {"kind": "coefficients", "target": "C", "n_max": 2000, "bound": SIMPSON_BOUND},
        ),
        _cli(
            "parseval-1000",
            ["parseval", "--n-max", 1000],
            {"kind": "parseval", "n_max": 1000, "bound": SIMPSON_BOUND},
        ),
        _cli(
            "project-const-1023",
            ["project", "--target", "const", "--n-max", 1023],
            {"kind": "coefficients", "target": "const", "n_max": 1023, "bound": SIMPSON_BOUND},
        ),
        _cli(
            "gram-600",
            ["gram", "--n-max", 600, "--nodes", 19233],
            {"kind": "gram", "n_max": 600, "bound": SIMPSON_BOUND},
        ),
    ]


def custom_fd_params(rng) -> dict:
    """A custom (hbar, c, v_c) whose group hbar/(c v_c) stays within 10% of the
    canonical one, so the Sturm solver does the same work for every seed."""
    c = float(rng.uniform(0.5, 2.0))
    v_c = c * float(rng.uniform(0.5, 0.9))
    gamma = (1.0 / CANONICAL["v_c"]) * float(rng.uniform(0.9, 1.1))
    return {"hbar": gamma * c * v_c, "c": c, "v_c": v_c}


def _fd_crosscheck(rng):
    sizes = [250, 500, 1000, 2000]
    grid = ["--grid-sizes", ",".join(map(str, sizes)), "--modes", 10]
    custom = custom_fd_params(rng)
    flags = ["--hbar", repr(custom["hbar"]), "--c", repr(custom["c"]), "--v-c", repr(custom["v_c"])]
    return [
        _cli(
            "fd-validate-canonical",
            ["fd-validate", *grid],
            {"kind": "fd_validate", "params": CANONICAL, "sizes": sizes, "modes": 10, "bound": FD_BOUND},
        ),
        _cli(
            "fd-validate-custom",
            ["fd-validate", *grid, *flags],
            {"kind": "fd_validate", "params": custom, "sizes": sizes, "modes": 10, "bound": FD_BOUND},
            seeded=True,
        ),
        {
            "id": "eigenvalues-2000",
            "call": "all_eigenvalues",
            "args": {"m": 2000},
            "check": {"kind": "all_eigenvalues", "params": CANONICAL, "m": 2000, "bound": FD_BOUND},
        },
        {
            "id": "inverse-iteration-2000",
            "call": "top_eigenvectors",
            "args": {"m": 2000, "modes": 10, "shifts_from": "eigenvalues-2000"},
            "check": {"kind": "eigenvectors", "m": 2000, "modes": 10, "bound": VECTOR_BOUND},
        },
    ]


def coefficient_csv(rng, rows: int) -> str:
    """Seeded coefficients a_n = N(0, 1)/(n+1), written round-trippably."""
    values = rng.standard_normal(rows) / np.arange(1, rows + 1)
    return "n,a_n\n" + "".join(f"{n},{a!r}\n" for n, a in enumerate(values.tolist()))


def _synthesis_io(rng, workdir):
    coeff_path = os.path.join(workdir, "coeffs.csv")
    with open(coeff_path, "w") as fh:
        fh.write(coefficient_csv(rng, 1501))
    mode = int(rng.integers(0, 300))
    series_dir = os.path.join(workdir, "inverse_limit_csv")
    json_dir = os.path.join(workdir, "inverse_limit_json")
    return [
        _cli(
            "reconstruct-1500",
            ["reconstruct", "--coeffs", coeff_path, "--grid-points", 20001],
            {"kind": "reconstruct", "coeffs": coeff_path, "points": 20001, "bound": SAMPLE_BOUND},
            seeded=True,
        ),
        _cli(
            "eigenfunction-400001",
            ["eigenfunction", "--n", mode, "--grid-points", 400001],
            {"kind": "eigenfunction", "n": mode, "points": 400001, "bound": SAMPLE_BOUND},
            seeded=True,
        ),
        _cli(
            "spectrum-csv-200000",
            ["spectrum", "--n-max", 200000],
            {"kind": "spectrum", "n_max": 200000, "format": "csv", "bound": SAMPLE_BOUND},
        ),
        _cli(
            "spectrum-json-100000",
            ["spectrum", "--n-max", 100000, "--format", "json"],
            {"kind": "spectrum", "n_max": 100000, "format": "json", "bound": SAMPLE_BOUND},
        ),
        _cli(
            "rigidity-csv",
            ["rigidity", "--format", "csv"],
            {"kind": "rigidity", "n_list": [8, 16, 32, 64], "format": "csv", "bound": REPORT_BOUND},
        ),
        _cli(
            "inverse-limit-csv-dir",
            ["inverse-limit", "--k-max", 4, "--format", "csv", "--output", series_dir],
            {"kind": "inverse_limit", "k_max": 4, "dir": series_dir, "bound": REPORT_BOUND},
            outdir=series_dir,
        ),
        # Exit-contract probes: each should exit 2 without a traceback.
        _cli(
            "contract-missing-coeffs",
            ["reconstruct", "--coeffs", os.path.join(workdir, "missing.csv")],
            {"kind": "exit_only"},
            expect_exit=2,
            probe=True,
        ),
        _cli(
            "contract-missing-output-dir",
            ["spectrum", "--output", os.path.join(workdir, "missing", "x")],
            {"kind": "exit_only"},
            expect_exit=2,
            probe=True,
        ),
        _cli(
            "contract-json-into-dir",
            ["inverse-limit", "--output", json_dir],
            {"kind": "exit_only"},
            expect_exit=2,
            probe=True,
            outdir=json_dir,
        ),
    ]


def build(name: str, seed: int, workdir: str) -> list[dict]:
    """Jobs of one workload; input files are written under workdir."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
    rng = np.random.default_rng(seed)
    if name == "project-gl":
        return _project_gl(rng)
    if name == "project-uniform":
        return _project_uniform(rng)
    if name == "fd-crosscheck":
        return _fd_crosscheck(rng)
    return _synthesis_io(rng, workdir)
