"""Golden corpus: exit code and sha256 of the output for fixed command lines.

Refactors must keep every digest byte-identical.  A change that alters the
output on purpose regenerates the digests and says why in its description.
"""

import hashlib

import pytest

from deformspec import transform
from deformspec.cli import run

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
    "asymptotics-csv": "9ece8332697ed314e981b491ed32f5cdc3916d67a006ed3148838f8bdbeaefd8",
    "asymptotics-json": "658af4b3b318e9359a75f06f0eb1a4cec22cb3e1b41baba6a6fe911898bcc080",
    "converge-csv": "9f5cc40829b147dedf7670429bf8735735a442fd1b0f14098f1e7773f9c401e9",
    "converge-json": "0737d0a3ca394aa60fccf793f8fcdb614359092f7cdd0e67bfc570b855e2651d",
    "critical-index-csv": "4f38a3f75e763da9617d474149ffcb7c80977e03f2f0d845c416cb7ff928614c",
    "critical-index-custom-csv": "d9ade9e20ad9db73a58a856d6dc4b7080dc56776e0ffe3c10067e1ec80a721cb",
    "critical-index-json": "e84d219e996e96da08bfc7022a1a5ee9cb20e537c4bad0d54fa3b9c4bdf24109",
    "eigenfunction-csv": "5a8352066c9f633a49d084d44e15aaa585e14ec0d2aa69d264eac63b9f5b960c",
    "eigenfunction-json": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fd-validate-csv": "537c0f33cece00e132ce3760a1bc422437faa838ab4c0a8c787047a16a2f3436",
    "fd-validate-json": "bc0f215514cd9d342b6da7a4e24cd9dd47e925fc2eccd54f0f5a6eacc082c1fe",
    "fd-validate-single-csv": "609515138346b65b4754205dd2643716b81a32b868239b4574352be8f47705ac",
    "gram-default-json": "30892e085712a2596228bc664141a88a078d069de0c01e9035cf9e5e31607ce0",
    "gram-gl-csv": "fd418bca03824fd7b1c5112ee093f08076df9819095af1397fb47b69484ef60e",
    "gram-simpson-csv": "02842c7ad612b502a4b057b6b8428c574b327da9f63122e0f58013266288de3c",
    "inverse-limit-csv": "9f14459d58e55886d3ecbdb49a099240a65100c5f131b3b1e8af67e38f286f66",
    "inverse-limit-json": "28b20f3b87267115ea3a4236f72c5fecab908ac546ff27ce2578d7a70832ca3f",
    "parseval-csv": "4bea55c7ee47b4314b06d1a2a8280050276668b0e6b07fe726084860de169007",
    "parseval-json": "0946414bd3a9718eae7dd1c2b0ef0cd1be5013e2b8aaeea6de7fd6d462b1c3e4",
    "project-csv": "8d0e3b81da5bc820f3b1addb41c71c7e835d15984436be1dbb742ab386573262",
    "project-psi-csv": "5474146f9c7c9664ba8f335067e52806953d4cbc6cbffde1869ff0a916dc47a8",
    "project-simpson-csv": "ce9769eb4c4189ee84597ed62cc680242caef1497be60a39cf3cc1ecc728578a",
    "reconstruct-csv": "9f6426bb6397edc43867f3ad674b902a1b539ab40f8bd89f0662142a79b0c261",
    "reconstruct-json": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "rigidity-csv": "4cc0e49aad9e1b06f87194748c83e60d0f4ad030793911a814069db7d6417566",
    "rigidity-fail-json": "9589e20752736e05005dfac6fe02b5ced4e0c31ad3f363789a7a74a38632d16b",
    "rigidity-json": "7d74ef0fba016c132e2d8e6601ff79c1aa3979e53358f0f8d80a6b5438da35b4",
    "spectrum-csv": "4e4530d9456327c5e2a66676038255a56c965e18e06117a20dc4b9360e96a66e",
    "spectrum-json": "a72efeda0f7201711555a7a238b0e545c4db9c98ddf549a9f29dcf1b1747f65d",
    "spectrum-negative-n-max": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "spectrum-si-json": "dd4d4fd5e5c1fdfaedcdd9e79803589813abce799f53c2821a95bbbc6b7bcb72",
}

# file name -> sha256 for `rigidity --n-list 8,16 --format csv --output DIR`
RIGIDITY_SERIES = {
    "rigidity__boundary_gap.csv": "f0d53f6b7df6067f54823beb2bca8a420e7284747e0fb8286fbcd960346c8cc8",
    "rigidity__l2_distance_to_pi.csv": "d0366869c97baf0a030a36f524538ce36bb425c971f428f552325188c5be178a",
    "rigidity__n.csv": "ccd35ee916c4f5482aa4eb62ebc673d0606cf1a777ecb17f26f90f08acb3ebec",
    "rigidity__norm_sq.csv": "5c5f923fc84c1a613d943909dbd3d47a0956612339bbc33c1c91a31169239b31",
    "rigidity__norm_sq_over_count_minus_pi_sq.csv": "8984ab02bbe991c778de6df36e7e892000a66b4ac593d339fb1ea47c7185ed2b",
    "rigidity__sup_deviation_from_pi.csv": "ee267b242f81c1e678d8d29388efdd9420c94ea30d96fb45ca7c7822a84e849a",
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
