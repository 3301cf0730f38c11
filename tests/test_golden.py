"""Golden corpus: exit code and sha256 of the output for fixed command lines
and for the demos, plus the package's public names.

Refactors must keep every digest byte-identical.  A change that alters the
output on purpose regenerates the digests and says why in its description.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import deformspec
from deformspec import transform
from deformspec.cli import run

ROOT = Path(__file__).resolve().parents[1]

COEFFS = "n,a_n\n0,0.5\n1,-0.25\n2,0.125\n3,-0.0625\n"

# name -> (argv, exit code); "{coeffs}" is replaced by the path of a file
# holding COEFFS.
CASES = {
    "spectrum-csv": (["spectrum", "--n-max", "20"], 0),
    "spectrum-json": (["spectrum", "--n-max", "20", "--format", "json"], 0),
    "spectrum-si-json": (["spectrum", "--si", "--n-max", "5", "--format", "json", "--no-meta"], 0),
    "spectrum-negative-n-max": (["spectrum", "--n-max", "-1"], 2),
    "eigenfunction-csv": (["eigenfunction", "--n", "3", "--grid-points", "65"], 0),
    "eigenfunction-json": (["eigenfunction", "--n", "3", "--grid-points", "65", "--format", "json"], 2),
    "critical-index-json": (["critical-index"], 0),
    "critical-index-csv": (["critical-index", "--format", "csv"], 0),
    "critical-index-custom-csv": (
        ["critical-index", "--hbar", "0.1", "--c", "1", "--v-c", "0.8256453", "--format", "csv"],
        0,
    ),
    "project-csv": (["project", "--target", "C", "--n-max", "16"], 0),
    "project-simpson-csv": (["project", "--target", "const", "--n-max", "40", "--nodes", "5000"], 0),
    "project-psi-csv": (["project", "--target", "psi:2", "--n-max", "8", "--nodes", "128"], 0),
    "reconstruct-csv": (["reconstruct", "--coeffs", "{coeffs}", "--grid-points", "33"], 0),
    "reconstruct-json": (["reconstruct", "--coeffs", "{coeffs}", "--grid-points", "33", "--format", "json"], 2),
    "parseval-json": (["parseval", "--n-max", "32"], 0),
    "parseval-csv": (["parseval", "--n-max", "32", "--format", "csv"], 0),
    "gram-gl-csv": (["gram", "--n-max", "8", "--nodes", "4096"], 0),
    "gram-simpson-csv": (["gram", "--n-max", "8", "--nodes", "4097"], 0),
    "gram-default-json": (["gram", "--n-max", "4", "--format", "json"], 0),
    "fd-validate-json": (["fd-validate", "--grid-sizes", "100,200", "--modes", "3"], 0),
    "fd-validate-csv": (["fd-validate", "--grid-sizes", "100,200", "--modes", "3", "--format", "csv"], 0),
    "fd-validate-single-csv": (["fd-validate", "--grid-sizes", "150", "--modes", "2", "--format", "csv"], 0),
    "rigidity-json": (["rigidity", "--n-list", "8,16"], 0),
    "rigidity-csv": (["rigidity", "--n-list", "8,16", "--format", "csv"], 0),
    "rigidity-fail-json": (["rigidity", "--n-list", "8,16", "--tol", "rigidity.parseval=1e-30"], 1),
    "inverse-limit-json": (
        ["inverse-limit", "--n-max", "16", "--tau-list", "1,2,3,4", "--k-max", "1"],
        0,
    ),
    "inverse-limit-csv": (
        ["inverse-limit", "--n-max", "8", "--tau-list", "1,2.5,4", "--k-max", "3", "--format", "csv"],
        0,
    ),
    "asymptotics-json": (["asymptotics", "--n-min", "100", "--n-max", "200"], 0),
    "asymptotics-csv": (["asymptotics", "--n-min", "100", "--n-max", "200", "--format", "csv"], 0),
    "converge-json": (["converge", "--n-list", "8,16,32,64,128"], 0),
    "converge-csv": (["converge", "--n-list", "8,16,32,64,128", "--format", "csv"], 0),
}

# name -> sha256 of stdout
GOLDEN = {
    "asymptotics-csv": "0e939610be40cf6582dce53a02933145c6a994925eed23cff5f6dae3eb4629a9",
    "asymptotics-json": "a3187fb27622c6d35fad5634de4549a11eb7effb01c1fc81a4c884d6b9d0fadc",
    "converge-csv": "7260df78503137b447821749c2edd21ab9941ee46d9f535df60371146b2e099c",
    "converge-json": "c1fde9d2013534b4d64db652bf225e42c88415c100078104107935db966dd65f",
    "critical-index-csv": "4f38a3f75e763da9617d474149ffcb7c80977e03f2f0d845c416cb7ff928614c",
    "critical-index-custom-csv": "d9ade9e20ad9db73a58a856d6dc4b7080dc56776e0ffe3c10067e1ec80a721cb",
    "critical-index-json": "e84d219e996e96da08bfc7022a1a5ee9cb20e537c4bad0d54fa3b9c4bdf24109",
    "eigenfunction-csv": "5a8352066c9f633a49d084d44e15aaa585e14ec0d2aa69d264eac63b9f5b960c",
    "eigenfunction-json": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fd-validate-csv": "537c0f33cece00e132ce3760a1bc422437faa838ab4c0a8c787047a16a2f3436",
    "fd-validate-json": "bc0f215514cd9d342b6da7a4e24cd9dd47e925fc2eccd54f0f5a6eacc082c1fe",
    "fd-validate-single-csv": "609515138346b65b4754205dd2643716b81a32b868239b4574352be8f47705ac",
    "gram-default-json": "e0435bd16027248be0f13ac827d7b70a127c6914a1ed927292d2c2b4bc47b68f",
    "gram-gl-csv": "893834d3b72801033374703c83c4d4688d6ee6cbe6a59c10b7cd52e39a49d116",
    "gram-simpson-csv": "02842c7ad612b502a4b057b6b8428c574b327da9f63122e0f58013266288de3c",
    "inverse-limit-csv": "9f14459d58e55886d3ecbdb49a099240a65100c5f131b3b1e8af67e38f286f66",
    "inverse-limit-json": "28b20f3b87267115ea3a4236f72c5fecab908ac546ff27ce2578d7a70832ca3f",
    "parseval-csv": "1e51f85598e9080941fd0cab104ba9936d7e797caadccaa2b2adf7d48aeaa2aa",
    "parseval-json": "4ceb26058bcb3a73533f7ec64c0155933ca6d92213a5063760f1bb65214fa9db",
    "project-csv": "ae16c9ea21fa7649924b33ceb9d3d8bfb5aaf5420d707cc7b57f0caa135f58a5",
    "project-psi-csv": "b27c9ff81cb1f5a93a9a78b976bc7c4bccc3f2db8b20bd89c10e8fe0c41dcb63",
    "project-simpson-csv": "ce9769eb4c4189ee84597ed62cc680242caef1497be60a39cf3cc1ecc728578a",
    "reconstruct-csv": "9f6426bb6397edc43867f3ad674b902a1b539ab40f8bd89f0662142a79b0c261",
    "reconstruct-json": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "rigidity-csv": "a83c0fdb582e9148c245d64e9dfa2e69f98ccfabba181a2da9101754f83bc0da",
    "rigidity-fail-json": "f5391e2b0e7b06877874bf28a413423c56d9748cfaa2108d815e4dae6dc50e0c",
    "rigidity-json": "1df720709cf826ac47c430bbd27381823f7773e91b223a5b589adf9d274e4af9",
    "spectrum-csv": "4e4530d9456327c5e2a66676038255a56c965e18e06117a20dc4b9360e96a66e",
    "spectrum-json": "a72efeda0f7201711555a7a238b0e545c4db9c98ddf549a9f29dcf1b1747f65d",
    "spectrum-negative-n-max": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "spectrum-si-json": "dd4d4fd5e5c1fdfaedcdd9e79803589813abce799f53c2821a95bbbc6b7bcb72",
}

# file name -> sha256 for `rigidity --n-list 8,16 --format csv --output DIR`
RIGIDITY_SERIES = {
    "rigidity__boundary_gap.csv": "f0d53f6b7df6067f54823beb2bca8a420e7284747e0fb8286fbcd960346c8cc8",
    "rigidity__l2_distance_to_pi.csv": "ba3ece36892aee513a787ea43cfd549065c5d22db8e2b3d848d01c612253ac0a",
    "rigidity__n.csv": "ccd35ee916c4f5482aa4eb62ebc673d0606cf1a777ecb17f26f90f08acb3ebec",
    "rigidity__norm_sq.csv": "5c5f923fc84c1a613d943909dbd3d47a0956612339bbc33c1c91a31169239b31",
    "rigidity__norm_sq_over_count_minus_pi_sq.csv": "8984ab02bbe991c778de6df36e7e892000a66b4ac593d339fb1ea47c7185ed2b",
    "rigidity__sup_deviation_from_pi.csv": "ee267b242f81c1e678d8d29388efdd9420c94ea30d96fb45ca7c7822a84e849a",
}

# demo file name -> sha256 of stdout
DEMOS = {
    "01_closed_form_spectrum.py": "e5840a9f669f651550ddd68645fed8dfbac7059b5354300ee79489db1b2abc96",
    "02_transform_and_parseval.py": "80e35c98ff19a44bc47ab46c092a2575e901c6d9bc6322ce8a05db453074ee91",
    "03_fd_cross_validation.py": "e92b0dac6d04ba23bddab5e306258dcf27098458671d676f5f33190255df7783",
    "04_rigidity_obstruction.py": "d4a424c3f4957b81cddb4528cf2963a8be0e9de4d4cf4760d989ac3eb024701f",
    "05_inverse_limit_decay.py": "28923f4af41eaccb37bf53b96580c1c0f2a9c6f67a5e34cb2572a4a69073c3e3",
    "06_reconstruction_convergence.py": "efea4ffffe5a8d71b4b539171603be27f781ba37368bac94be73a5ccf4b95691",
}

PUBLIC_NAMES = {
    "CRITICAL_VELOCITY_RATIO", "CoefficientVector", "ConditioningWarning", "CriticalIndexReport",
    "DEFAULT_TOLERANCES", "DecayModel", "DeformSpecError", "DomainError", "ExperimentReport",
    "FDSpectrumReport", "FormatError", "Grid", "NumericalError", "OperatorParams", "QuadratureRule",
    "ResolutionError", "SampledFunction", "TridiagonalSymmetricMatrix", "ValidationError",
    "apply_operator_spectral", "asymptotic_coefficient", "asymptotic_eigenvalue", "asymptotics_report",
    "canonical_params", "composite_simpson_rule", "constant_coefficient_report", "convergence_study",
    "count_interior_zeros", "critical_index", "custom_params", "default_projection_rule",
    "deformation_profile", "discretize", "eigenfunction", "eigenvalue", "eigenvalues_tridiagonal",
    "eigenvector_inverse_iteration", "evaluate", "fd_derivative", "gauss_legendre_rule", "gram_matrix",
    "interior_grid", "inverse_limit_report", "l2_norm", "parseval_defect", "project", "reconstruct",
    "refinement_study", "rigidity_report", "si_params", "sinpi", "top_eigenvalues", "uniform_grid",
    "validate_against_analytic", "wavenumber",
}


def _digest(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def run_case(name, tmp_path, capsys):
    argv, _ = CASES[name]
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text(COEFFS)
    code = run([str(coeffs) if arg == "{coeffs}" else arg for arg in argv])
    return code, _digest(capsys.readouterr().out)


def run_rigidity_series(tmp_path, capsys):
    code = run(["rigidity", "--n-list", "8,16", "--format", "csv", "--output", str(tmp_path)])
    digests = {path.name: _digest(path.read_text()) for path in sorted(tmp_path.glob("*.csv"))}
    return code, capsys.readouterr().out, digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, tmp_path, capsys):
    assert run_case(name, tmp_path, capsys) == (CASES[name][1], GOLDEN[name])


def test_per_series_files_match_golden(tmp_path, capsys):
    assert run_rigidity_series(tmp_path, capsys) == (0, "", RIGIDITY_SERIES)


def test_dense_basis_fills_stay_small(tmp_path, capsys, monkeypatch):
    """Uniform points never fill the basis, and the GL cap (4096 nodes, so at
    most 512 modes) bounds every other fill the corpus makes."""
    fill = transform._basis_matrix
    sizes = []

    def recorded(params, n_max, v):
        sizes.append((n_max + 1) * len(v))
        return fill(params, n_max, v)

    monkeypatch.setattr(transform, "_basis_matrix", recorded)
    for name in sorted(CASES):
        run_case(name, tmp_path, capsys)
    assert sizes and max(sizes) <= 512 * 4096


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_stdout_matches_golden(demo):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    argv = [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / demo)]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    assert _digest(done.stdout) == DEMOS[demo]


def test_public_names_are_pinned():
    names = deformspec.__all__
    assert names == sorted(names)
    assert all(hasattr(deformspec, name) for name in names)
    assert set(names) == PUBLIC_NAMES and len(names) == len(PUBLIC_NAMES)
