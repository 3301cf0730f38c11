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

CUSTOM = ["--hbar", "0.8", "--c", "3", "--v-c", "1.7"]
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
    # gram matrices with many repeated entries, recorded before the gram CSV
    # path began formatting each distinct value once
    "gram-simpson-64-csv": (["gram", "--n-max", "64", "--nodes", "4097"], 0),
    "gram-default-64-csv": (["gram", "--n-max", "64"], 0),
    # gram CSVs at the benchmark's sizes, and one of exactly two 64-row
    # blocks, recorded before the CSV was built from the upper triangle
    "gram-bench-600-csv": (["gram", "--n-max", "600", "--nodes", "19233"], 0),
    "gram-bench-255-csv": (["gram", "--n-max", "255"], 0),
    "gram-two-blocks-csv": (["gram", "--n-max", "127", "--nodes", "2048"], 0),
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
    # the uniform-grid paths at SI and custom scale, recorded before the
    # points became plain arrays
    "eigenfunction-si-csv": (["eigenfunction", "--si", "--n", "3", "--grid-points", "65"], 0),
    "eigenfunction-custom-csv": (["eigenfunction", *CUSTOM, "--n", "3", "--grid-points", "65"], 0),
    "reconstruct-si-csv": (["reconstruct", "--si", "--coeffs", "{coeffs}", "--grid-points", "33"], 0),
    "reconstruct-custom-csv": (["reconstruct", *CUSTOM, "--coeffs", "{coeffs}", "--grid-points", "33"], 0),
    "rigidity-si-json": (["rigidity", "--si", "--n-list", "8,16"], 0),
    "rigidity-custom-json": (["rigidity", *CUSTOM, "--n-list", "8,16"], 0),
    "inverse-limit-si-json": (["inverse-limit", "--si", "--n-max", "8", "--tau-list", "1,2,3", "--k-max", "4"], 0),
    "inverse-limit-custom-json": (["inverse-limit", *CUSTOM, "--n-max", "8", "--tau-list", "1,2,3", "--k-max", "4"], 0),
    "converge-si-json": (["converge", "--si", "--n-list", "8,16,32,64,128"], 0),
    "converge-custom-json": (["converge", *CUSTOM, "--n-list", "8,16,32,64,128"], 1),
    # FD validations at the benchmark's grid sizes, and at odd sizes with 25
    # modes, recorded before the Sturm counts split by parity
    "fd-validate-bench-json": (["fd-validate", "--grid-sizes", "250,500,1000,2000", "--modes", "10"], 0),
    "fd-validate-bench-custom-json": (
        ["fd-validate", *CUSTOM, "--grid-sizes", "250,500,1000,2000", "--modes", "10"],
        0,
    ),
    "fd-validate-odd-custom-csv": (
        ["fd-validate", *CUSTOM, "--grid-sizes", "251,501,1001", "--modes", "25", "--format", "csv"],
        0,
    ),
}

# name -> sha256 of stdout
GOLDEN = {
    "asymptotics-csv": "0e939610be40cf6582dce53a02933145c6a994925eed23cff5f6dae3eb4629a9",
    "asymptotics-json": "a3187fb27622c6d35fad5634de4549a11eb7effb01c1fc81a4c884d6b9d0fadc",
    "converge-csv": "ceea659cb42bd5375d1f4fac0710be43923fc4fd5ef5a92f33e6a51dd7f68d4a",
    "converge-custom-json": "2b75f546ffde61c33e02e49bf2976ba22e0c4fcd135d9154513257f84438a7e0",
    "converge-json": "9b19ef2179dc490c88504526a1e39119a1bfa0a5309e9033dd3ca351e3ff5039",
    "converge-si-json": "5a1081a24964a9c34ee4b7a957e88fb8b16910a5af5f4ea43b1d2bcf80d4cfa1",
    "critical-index-csv": "4f38a3f75e763da9617d474149ffcb7c80977e03f2f0d845c416cb7ff928614c",
    "critical-index-custom-csv": "d9ade9e20ad9db73a58a856d6dc4b7080dc56776e0ffe3c10067e1ec80a721cb",
    "critical-index-json": "e84d219e996e96da08bfc7022a1a5ee9cb20e537c4bad0d54fa3b9c4bdf24109",
    "eigenfunction-csv": "5a8352066c9f633a49d084d44e15aaa585e14ec0d2aa69d264eac63b9f5b960c",
    "eigenfunction-custom-csv": "963ad731f8fa03b152dacd7912d2a03171990cf055fc58967e9741a874382187",
    "eigenfunction-json": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "eigenfunction-si-csv": "965baf9dfb3994353eb82f44bb9150f02a73042d6e831ff75a61375b4021425e",
    "fd-validate-bench-custom-json": "b4f98ed3049459f97f7b291efe25b5fed7e5e6cb5831898680066058d0b0b8fa",
    "fd-validate-bench-json": "5e1cdfc794e0011ac42907bc4f9705398bd111d95fe02381310d1ec1f52cb771",
    "fd-validate-csv": "537c0f33cece00e132ce3760a1bc422437faa838ab4c0a8c787047a16a2f3436",
    "fd-validate-json": "bc0f215514cd9d342b6da7a4e24cd9dd47e925fc2eccd54f0f5a6eacc082c1fe",
    "fd-validate-odd-custom-csv": "48e347d07a3332a96cc36648deeb3770a26e509af06cd26a18a06ea26ae8d357",
    "fd-validate-single-csv": "609515138346b65b4754205dd2643716b81a32b868239b4574352be8f47705ac",
    "gram-bench-255-csv": "bf41661947ed34849a6903ca8303188c5eebd69c043db0b3863e55f77739fc04",
    "gram-bench-600-csv": "1ad41d4dac317ce6c14ef14a76df9ed5b6cd4a73ad2c4969bbc8d73bf25534a5",
    "gram-default-64-csv": "9b539db60513a4a53eb6988cf28dfd71022cb06a39c91fcce2f3b481dd3b056d",
    "gram-default-json": "54a49df24f2a408dc091abeca766153d5ab97f9076650f0fe7ffb18256b5e683",
    "gram-gl-csv": "e00238599609dd1d3b7f747d77ede0b07ce7745716db39bd63af50775138b0e8",
    "gram-simpson-64-csv": "eabebea65fc71befa1966cb24a771321bda89ce2f15cde94d698abb49c83a441",
    "gram-simpson-csv": "02842c7ad612b502a4b057b6b8428c574b327da9f63122e0f58013266288de3c",
    "gram-two-blocks-csv": "c56fd1303b0efed95017f5867784d29af82cd784a12ac438450c02e870181dce",
    "inverse-limit-csv": "9f14459d58e55886d3ecbdb49a099240a65100c5f131b3b1e8af67e38f286f66",
    "inverse-limit-custom-json": "7544390bf8b62a35912c373636c05f8358c0e841403828e70160fe049eaab423",
    "inverse-limit-json": "735030730ce73544c1dca1428ab4aaba3876aa7ad670e2f04037d7f358cac8d6",
    "inverse-limit-si-json": "16804ab6b5e747989713c4f06846eace3a005ad10f46797721dd2c1208f5b5be",
    "parseval-csv": "1e51f85598e9080941fd0cab104ba9936d7e797caadccaa2b2adf7d48aeaa2aa",
    "parseval-json": "4ceb26058bcb3a73533f7ec64c0155933ca6d92213a5063760f1bb65214fa9db",
    "project-csv": "bdc6161b097ce8bd6c803497e97e30c57bf5ae1e20f953fe69bbbbd3ecefd220",
    "project-psi-csv": "3b11837600a9e7d180c4a0b51a6b9d7c80acff8605a8ee342850863bd2c0bb1e",
    "project-simpson-csv": "ce9769eb4c4189ee84597ed62cc680242caef1497be60a39cf3cc1ecc728578a",
    "reconstruct-csv": "9f6426bb6397edc43867f3ad674b902a1b539ab40f8bd89f0662142a79b0c261",
    "reconstruct-custom-csv": "6afdc66f9ec505cd366420a402ff56cbab39e3cef6fe6409de5a3db0d8cf32f1",
    "reconstruct-json": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "reconstruct-si-csv": "5e30fbdcb1017854c156df58311f80bfec28f7a89f29274030bac25711812080",
    "rigidity-csv": "95d162853ee6cda3af4b5cb81cd377b0d14a7b9b70c3b06fdad3434d013b98cf",
    "rigidity-custom-json": "1a42d6bec9b19f6bfc3536b33f9c0ede0113591a0304b5260a30abd339c146e6",
    "rigidity-fail-json": "65df09c6a4befa72883c3f3549cb16c65bf8c2bb175c4a64969c6a44b33da265",
    "rigidity-json": "9c873377aa455bbd07a976c487d821479d4450920070ae96ac41a9ae5df96550",
    "rigidity-si-json": "7a22d675d5011fbc07ae2169223eaae1c7ba9e9c99a1ef182dec6ea1529dc6f7",
    "spectrum-csv": "4e4530d9456327c5e2a66676038255a56c965e18e06117a20dc4b9360e96a66e",
    "spectrum-json": "a72efeda0f7201711555a7a238b0e545c4db9c98ddf549a9f29dcf1b1747f65d",
    "spectrum-negative-n-max": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "spectrum-si-json": "dd4d4fd5e5c1fdfaedcdd9e79803589813abce799f53c2821a95bbbc6b7bcb72",
}

# file name -> sha256 for `rigidity --n-list 8,16 --format csv --output DIR`
RIGIDITY_SERIES = {
    "rigidity__boundary_gap.csv": "f0d53f6b7df6067f54823beb2bca8a420e7284747e0fb8286fbcd960346c8cc8",
    "rigidity__l2_distance_to_pi.csv": "67d63a241a66b43304eefe3ff1d5c123a3f35ac944bb6669b5b8a4964e3caacf",
    "rigidity__n.csv": "ccd35ee916c4f5482aa4eb62ebc673d0606cf1a777ecb17f26f90f08acb3ebec",
    "rigidity__norm_sq.csv": "61dd62a8735523debfed372ff18bdf7feb6def6177058285cb242e3d8845c3b0",
    "rigidity__norm_sq_over_count_minus_pi_sq.csv": "3e61d984030a56b0606027755da357cd9bb587adcf7a8e0fb3ffbdf1cf4d46b4",
    "rigidity__sup_deviation_from_pi.csv": "ee267b242f81c1e678d8d29388efdd9420c94ea30d96fb45ca7c7822a84e849a",
}

# demo file name -> sha256 of stdout
DEMOS = {
    "01_closed_form_spectrum.py": "e5840a9f669f651550ddd68645fed8dfbac7059b5354300ee79489db1b2abc96",
    "02_transform_and_parseval.py": "44ee3f24242cb14e54e266756373d7719aa61664f008588968c4f5103e1b443e",
    "03_fd_cross_validation.py": "2a436858b5cb7b38c2bb6f9293222973e764fcf4cf3f9b11dcd30d9eb9593555",
    "04_rigidity_obstruction.py": "c684db6224d153adc08c2a0e19ecaec9ea13d7d2c1da496db9362774cdcc4ce4",
    "05_inverse_limit_decay.py": "28923f4af41eaccb37bf53b96580c1c0f2a9c6f67a5e34cb2572a4a69073c3e3",
    "06_reconstruction_convergence.py": "377ff2edb5ce657159a7298e3c3cbe012fec58be88a5f3ef647085371f6c9872",
}

PUBLIC_NAMES = {
    "CRITICAL_VELOCITY_RATIO", "CoefficientVector", "ConditioningWarning", "CriticalIndexReport",
    "DEFAULT_TOLERANCES", "DecayModel", "DeformSpecError", "DomainError", "ExperimentReport",
    "FDSpectrumReport", "FormatError", "NumericalError", "OperatorParams", "QuadratureRule",
    "ResolutionError", "TridiagonalSymmetricMatrix", "ValidationError",
    "asymptotic_coefficient", "asymptotic_eigenvalue", "asymptotics_report",
    "canonical_params", "composite_simpson_rule", "constant_coefficient_report", "convergence_study",
    "count_interior_zeros", "critical_index", "custom_params", "default_projection_rule",
    "deformation_profile", "discretize", "eigenfunction", "eigenvalue", "eigenvalues_tridiagonal",
    "eigenvector_inverse_iteration", "evaluate", "fd_derivative", "gauss_legendre_rule", "gram_matrix",
    "interior_grid", "inverse_limit_report", "l2_norm", "parseval_defect", "project",
    "refinement_study", "rigidity_report", "si_params", "top_eigenvalues", "uniform_grid",
    "wavenumber",
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
    """No command fills a dense basis: uniform points go through real FFTs,
    and every other route contracts sine tables.  The GL cap (4096 nodes, so
    at most 512 modes) bounds the tables at 2 (B + Q) rows with B = Q = 32,
    those of mode 1023 that the Gram matrix's cosine moments take at 512
    modes."""
    sine_tables = transform._sine_tables
    tables = []

    def recorded_tables(params, n_max, v):
        out = sine_tables(params, n_max, v)
        tables.append(sum(table.size for table in out))
        return out

    monkeypatch.setattr(transform, "_sine_tables", recorded_tables)
    for name in sorted(CASES):
        run_case(name, tmp_path, capsys)
    assert not hasattr(transform, "_basis_matrix")
    assert tables and max(tables) <= 2 * (32 + 32) * 4096


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
