"""Every check passes on real program output and trips when one output
value moves by its bound, so no check passes vacuously.

Outputs come from deformspec at reduced sizes; the checks themselves never
import it.  The clean output must sit below a tenth of the bound, so a push
of 1.1 bounds leaves it at least one bound away from the reference.
"""

import contextlib
import io
import json
import math
import os

import numpy as np
import pytest

import checks
import workloads
from checks import CANONICAL

from deformspec import cli, fdsolver, params

PUSH = 1.1


def cli_text(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run([str(a) for a in argv]) == 0
    return out.getvalue()


def bump_csv(text, row, col, delta):
    """Add delta to one field; row 0 is the header."""
    lines = text.split("\n")
    fields = lines[row].split(",")
    fields[col] = repr(float(fields[col]) + delta)
    lines[row] = ",".join(fields)
    return "\n".join(lines)


def bump_json(text, path, delta):
    doc = json.loads(text)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += delta
    return json.dumps(doc)


def assert_trips(output, spec, perturbed):
    clean = checks.check(output, spec)
    assert clean.ok, clean.detail
    assert clean.err < 0.1 * spec["bound"]
    tripped = checks.check(perturbed, spec)
    assert not tripped.ok


def push(spec, scale):
    return PUSH * spec["bound"] * scale


@pytest.mark.parametrize("target", ["C", "const", "psi:3"])
def test_coefficients(target):
    spec = {"kind": "coefficients", "target": target, "n_max": 31, "bound": workloads.GL_BOUND}
    text = cli_text("project", "--target", target, "--n-max", 31)
    scale = np.max(np.abs(checks.coefficients_target(CANONICAL, target, 31)))
    assert_trips(text, spec, bump_csv(text, 6, 1, push(spec, scale)))


def test_coefficients_on_simpson_nodes():
    spec = {"kind": "coefficients", "target": "const", "n_max": 600, "bound": workloads.SIMPSON_BOUND}
    text = cli_text("project", "--target", "const", "--n-max", 600)
    scale = np.max(checks.coefficients_const(CANONICAL, 600))
    assert_trips(text, spec, bump_csv(text, 600, 1, push(spec, scale)))


def test_gram():
    spec = {"kind": "gram", "n_max": 15, "bound": workloads.GL_BOUND}
    text = cli_text("gram", "--n-max", 15)
    assert_trips(text, spec, bump_csv(text, 3, 5, push(spec, 1.0)))


def test_parseval():
    spec = {"kind": "parseval", "n_max": 40, "bound": workloads.GL_BOUND}
    text = cli_text("parseval", "--n-max", 40)
    scale = checks.norm_sq_profile(CANONICAL)
    assert_trips(text, spec, bump_json(text, ["coefficient_sum_sq"], push(spec, scale)))


def test_converge():
    spec = {"kind": "converge", "n_list": [64, 256], "bound": workloads.REPORT_BOUND}
    text = cli_text("converge", "--n-list", "64,256")
    scale = max(json.loads(text)["series"]["interior_sup_error"])
    assert_trips(text, spec, bump_json(text, ["series", "interior_sup_error", 1], push(spec, scale)))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_rigidity(fmt):
    spec = {"kind": "rigidity", "n_list": [8, 16], "format": fmt, "bound": workloads.REPORT_BOUND}
    text = cli_text("rigidity", "--n-list", "8,16", "--format", fmt)
    scale = math.pi**2 * 17  # norm_sq at n = 16, the largest reference value
    if fmt == "json":
        perturbed = bump_json(text, ["series", "boundary_gap", 1], push(spec, scale))
    else:
        row = text.split("\n").index("boundary_gap,1,3.1415926535897931")
        perturbed = bump_csv(text, row, 2, push(spec, scale))
    assert_trips(text, spec, perturbed)


def fd_case():
    spec = {"kind": "fd_validate", "params": CANONICAL, "sizes": [40, 80], "modes": 10, "bound": workloads.FD_BOUND}
    return spec, cli_text("fd-validate", "--grid-sizes", "40,80", "--modes", 10)


def test_fd_validate():
    spec, text = fd_case()
    scale = np.max(np.abs(checks.reference_eigenvalues(CANONICAL, 40)))
    assert_trips(text, spec, bump_json(text, ["reports", 0, "eigenvalues_fd", 3], push(spec, scale)))


def test_fd_validate_convergence_order():
    spec, text = fd_case()
    order = json.loads(text)["reports"][0]["convergence_order"]
    assert_trips(text, spec, bump_json(text, ["reports", 0, "convergence_order"], PUSH * checks.ORDER_TOL * order))


def test_all_eigenvalues():
    spec = {"kind": "all_eigenvalues", "params": CANONICAL, "m": 50, "bound": workloads.FD_BOUND}
    values = fdsolver.eigenvalues_tridiagonal(fdsolver.discretize(params.canonical_params(), 50))
    perturbed = values.copy()
    perturbed[7] += push(spec, np.max(np.abs(values)))
    assert_trips(values, spec, perturbed)


def test_eigenvectors():
    spec = {"kind": "eigenvectors", "m": 50, "modes": 3, "bound": workloads.VECTOR_BOUND}
    A = fdsolver.discretize(params.canonical_params(), 50)
    vectors = np.stack([fdsolver.eigenvector_inverse_iteration(A, lam) for lam in fdsolver.top_eigenvalues(A, 3)])
    perturbed = vectors.copy()
    perturbed[2, 10] += push(spec, np.max(np.abs(vectors)))
    assert_trips(vectors, spec, perturbed)


def test_reconstruct(tmp_path):
    path = os.path.join(tmp_path, "coeffs.csv")
    with open(path, "w") as fh:
        fh.write(workloads.coefficient_csv(np.random.default_rng(5), 21))
    spec = {"kind": "reconstruct", "coeffs": path, "points": 201, "bound": workloads.SAMPLE_BOUND}
    text = cli_text("reconstruct", "--coeffs", path, "--grid-points", 201)
    sampled = checks._table(text, "v,f")[::50, 1]
    assert_trips(text, spec, bump_csv(text, 1 + 100, 1, push(spec, np.max(np.abs(sampled)))))


def test_eigenfunction():
    spec = {"kind": "eigenfunction", "n": 3, "points": 101, "bound": workloads.SAMPLE_BOUND}
    text = cli_text("eigenfunction", "--n", 3, "--grid-points", 101)
    assert_trips(text, spec, bump_csv(text, 40, 1, push(spec, 1.0 / math.sqrt(CANONICAL["v_c"]))))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum(fmt):
    spec = {"kind": "spectrum", "n_max": 20, "format": fmt, "bound": workloads.SAMPLE_BOUND}
    text = cli_text("spectrum", "--n-max", 20, "--format", fmt)
    scale = abs(checks.eigenvalues(CANONICAL, 20))
    if fmt == "csv":
        perturbed = bump_csv(text, 5, 2, push(spec, scale))
    else:
        perturbed = bump_json(text, ["modes", 4, "eigenvalue"], push(spec, scale))
    assert_trips(text, spec, perturbed)


def bump_series(directory, column, row, delta):
    path = os.path.join(directory, f"inverse_limit__{column}.csv")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(bump_csv(text, row + 1, 1, delta))


@pytest.mark.parametrize(
    "column, row, tolerance",
    [("seminorm_k0", 0, None), ("fitted_slope", 3, checks.FD_IDENTITY_TOL), ("seminorm_k2", 5, checks.FD_IDENTITY_TOL)],
)
def test_inverse_limit(tmp_path, column, row, tolerance):
    directory = str(tmp_path)
    cli_text("inverse-limit", "--k-max", 4, "--format", "csv", "--output", directory)
    spec = {"kind": "inverse_limit", "k_max": 4, "dir": directory, "bound": workloads.REPORT_BOUND}
    clean = checks.check("", spec)
    assert clean.ok, clean.detail
    assert clean.err < 0.1 * spec["bound"]
    values = checks._series_file(directory, column)
    scale = np.max(np.abs(values))
    bump_series(directory, column, row, PUSH * (tolerance or spec["bound"]) * scale)
    assert not checks.check("", spec).ok


def test_unparseable_output_fails():
    spec = {"kind": "coefficients", "target": "C", "n_max": 3, "bound": workloads.GL_BOUND}
    assert not checks.check("n,a_n\n0,x\n", spec).ok
    assert not checks.check("", spec).ok
