import contextlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformspec import (
    FormatError,
    canonical_params,
    custom_params,
    deformation_profile,
    eigenfunction,
    eigenvalue,
    gauss_legendre_rule,
    project,
)
from deformspec.cli import _COMMANDS, MAX_INT_ARG, _build_parser, run
from deformspec.experiments import DEFAULT_TOLERANCES
from deformspec.io import read_coefficients, write_coefficients, write_csv

CANON = canonical_params()


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    def test_csv_values(self, capsys):
        code, out, _ = invoke(capsys, "spectrum", "--n-max", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,wavenumber,eigenvalue"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["0", "1", "2"]
        eigenvalues = [float(r[2]) for r in rows]
        assert eigenvalues[0] == pytest.approx(-8.2295113, rel=1e-7)
        assert eigenvalues[0] > eigenvalues[1] > eigenvalues[2]

    def test_json_format(self, capsys):
        code, out, _ = invoke(capsys, "spectrum", "--n-max", "1", "--format", "json", "--no-meta")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["modes"]) == 2


class TestCriticalIndexCommand:
    def test_small_hbar_case(self, capsys):
        code, out, _ = invoke(
            capsys, "critical-index", "--hbar", "0.1", "--c", "1", "--v-c", "0.8256453", "--no-meta"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["x"] == pytest.approx(5.25622, abs=1e-4)
        assert doc["n_star_paper"] == 5
        assert doc["n_star_exact"] == 4
        assert doc["agree"] is False

    def test_canonical_none(self, capsys):
        code, out, _ = invoke(capsys, "critical-index", "--no-meta")
        doc = json.loads(out)
        assert doc["n_star_exact"] == "none"

    def test_x_from_the_ratio_of_hbar_and_c(self, capsys):
        # 2 v_c c = 2e320 would overflow; 2 v_c / (pi hbar/c) does not
        argv = ["critical-index", "--hbar", "1e200", "--c", "1e200", "--v-c", "1e120", "--no-meta"]
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and json.loads(out)["x"] == pytest.approx(6.366e119, rel=1e-4)

    @pytest.mark.parametrize(
        "custom", [["1e-200", "1e200", "1e199"], ["5e-324", "1", "0.5"]], ids=["huge-ratio", "denormal-hbar"]
    )
    def test_overflowing_x_exits_three(self, capsys, custom):
        hbar, c, v_c = custom
        code, out, err = invoke(capsys, "critical-index", "--hbar", hbar, "--c", c, "--v-c", v_c)
        assert (code, out) == (3, "")
        assert err.startswith("deformspec: numerical error:") and err.count("\n") == 1


class TestProjectReconstructRoundTrip:
    def test_write_then_read(self, capsys, tmp_path):
        path = tmp_path / "coeffs.csv"
        code, out, _ = invoke(
            capsys, "project", "--target", "C", "--n-max", "16", "--nodes", "256",
            "--output", str(path),
        )
        assert code == 0
        loaded = read_coefficients(path, CANON)
        direct = project(
            CANON, lambda v: deformation_profile(CANON, v), 16, gauss_legendre_rule(CANON, 256)
        )
        np.testing.assert_array_equal(loaded.coefficients, direct.coefficients)

    def test_reconstruct_from_file(self, capsys, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("n,a_n\n0,3.1415926535897931\n")
        code, out, _ = invoke(capsys, "reconstruct", "--coeffs", str(path), "--grid-points", "9")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "v,f"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values[0] == 0.0 and values[-1] == 0.0

    def test_eigenfunction_samples(self, capsys):
        code, out, _ = invoke(capsys, "eigenfunction", "--n", "1", "--grid-points", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "v,f"
        assert len(lines) == 6
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values[0] == 0.0 and values[-1] == 0.0
        assert abs(values[2]) < 1e-12  # odd mode vanishes at the center

    def test_eigenfunction_target(self, capsys):
        code, out, _ = invoke(capsys, "project", "--target", "psi:2", "--n-max", "4", "--nodes", "128")
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert values[2] == pytest.approx(1.0, abs=1e-10)
        assert max(abs(v) for i, v in enumerate(values) if i != 2) < 1e-10


class TestReadCoefficients:
    def test_gap_detected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,a_n\n0,1.0\n2,2.0\n")
        with pytest.raises(FormatError, match="line 3"):
            read_coefficients(path, CANON)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,1.0\n")
        with pytest.raises(FormatError, match="line 1"):
            read_coefficients(path, CANON)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,a_n\n0,inf\n")
        with pytest.raises(FormatError, match="line 2"):
            read_coefficients(path, CANON)

    def test_seventeen_digit_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        from deformspec import CoefficientVector

        coeffs = CoefficientVector(CANON, rng.uniform(-1, 1, 20) * 10.0 ** rng.integers(-8, 8, 20))
        path = tmp_path / "coeffs.csv"
        with open(path, "w") as stream:
            write_coefficients(stream, coeffs)
        loaded = read_coefficients(path, CANON)
        np.testing.assert_array_equal(loaded.coefficients, coeffs.coefficients)


class TestTableToCsv:
    def test_cell_rule(self):
        out = io.StringIO()
        write_csv(out, ["a", "b"], [np.array([0.1, 1e-300]), [np.int64(3), "none"]])
        assert out.getvalue() == "a,b\n0.10000000000000001,3\n1e-300,none\n"

    def test_header_only(self):
        out = io.StringIO()
        write_csv(out, ["n", "a_n"], [[], []])
        assert out.getvalue() == "n,a_n\n"


class TestReports:
    def test_rigidity_pass(self, capsys):
        code, out, _ = invoke(capsys, "rigidity", "--n-list", "8,16,32,64", "--no-meta")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_rigidity_fail_exit_code_with_tightened_tolerance(self, capsys):
        code, out, _ = invoke(
            capsys, "rigidity", "--n-list", "8,16", "--tol", "rigidity.parseval=1e-30", "--no-meta"
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "fail"

    def test_asymptotics(self, capsys):
        code, out, _ = invoke(capsys, "asymptotics", "--n-min", "100", "--n-max", "200", "--no-meta")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert doc["inputs"]["alpha"] == pytest.approx(11.37110398547581, rel=1e-12)

    def test_inverse_limit(self, capsys):
        code, out, _ = invoke(
            capsys, "inverse-limit", "--A", "1", "--beta", "2", "--n-max", "16",
            "--tau-list", "1,2,3,4", "--k-max", "1", "--no-meta",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        for slope in doc["series"]["fitted_slope"]:
            assert slope == pytest.approx(-2.0, rel=0.05)

    def test_converge(self, capsys):
        code, out, _ = invoke(
            capsys, "converge", "--target", "C", "--n-list", "8,16,32,64,128", "--no-meta"
        )
        assert code == 0
        doc = json.loads(out)
        errors = doc["series"]["l2_error"]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_converge_fails_when_threshold_unreachable(self, capsys):
        code, out, _ = invoke(
            capsys, "converge", "--target", "C", "--n-list", "8,16,32",
            "--tol", "converge.final_l2_rel=0.0155", "--no-meta",
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "fail"

    @pytest.mark.parametrize("tol,code", [("0.0248", 0), ("0.02", 1)])
    def test_converge_verdict_does_not_depend_on_units(self, capsys, tol, code):
        # the final relative L2 error is 0.0222431 in both unit systems
        for units in ([], ["--si"]):
            got, out, _ = invoke(capsys, "converge", *units, "--tol", f"converge.final_l2_rel={tol}", "--no-meta")
            assert got == code, units
            doc = json.loads(out)
            ratio = doc["series"]["l2_error"][-1] / doc["inputs"]["target_l2_norm"]
            assert ratio == pytest.approx(0.0222431, rel=1e-5), units

    def test_converge_rejects_the_absolute_key(self, capsys):
        code, out, err = invoke(capsys, "converge", "--tol", "converge.final_l2=0.08")
        assert (code, out) == (2, "")
        assert "keys: converge.final_l2_rel, converge.monotonic_slack" in err

    def test_fd_validate(self, capsys):
        code, out, _ = invoke(
            capsys, "fd-validate", "--grid-sizes", "100,200", "--modes", "3", "--no-meta"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["reports"]) == 2
        assert doc["reports"][0]["convergence_order"] == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("sizes", ["20000000", "250,20000000"])
    def test_fd_validate_grid_over_limit_exits_2_before_allocating(self, capsys, monkeypatch, sizes):
        from deformspec import experiments

        def no_discretize(*args):
            raise AssertionError("discretize reached with a grid over the FD limit")

        monkeypatch.setattr(experiments, "discretize", no_discretize)
        code, out, err = invoke(capsys, "fd-validate", "--grid-sizes", sizes)
        assert code == 2
        assert out == ""
        assert "20000000" in err and str(experiments.FD_MAX_INTERIOR_POINTS) in err
        assert "Traceback" not in err

    def test_parseval(self, capsys):
        code, out, _ = invoke(capsys, "parseval", "--target", "C", "--n-max", "64", "--no-meta")
        assert code == 0
        doc = json.loads(out)
        assert doc["defect"] > 0
        assert doc["relative_defect"] == pytest.approx(9.7466e-4, rel=1e-3)

    def test_parseval_samples_its_target_once(self, capsys, monkeypatch):
        from deformspec import cli

        sizes = []

        def profile(params, v):
            sizes.append(np.size(v))
            return deformation_profile(params, v)

        monkeypatch.setattr(cli, "deformation_profile", profile)
        assert invoke(capsys, "parseval", "--n-max", "32")[0] == 0
        assert sizes == [264]  # the 8 (32 + 1)-node Gauss-Legendre rule

    def test_gram_csv(self, capsys):
        code, out, _ = invoke(capsys, "gram", "--n-max", "3", "--nodes", "128")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,0,1,2,3"
        row = lines[1].split(",")
        assert float(row[1]) == pytest.approx(1.0, abs=1e-10)

    def test_csv_report_long_format(self, capsys):
        code, out, _ = invoke(capsys, "rigidity", "--n-list", "2,4", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "series,index,value"

    def test_per_series_files(self, capsys, tmp_path):
        code, _, _ = invoke(
            capsys, "rigidity", "--n-list", "2,4", "--format", "csv", "--output", str(tmp_path)
        )
        assert code == 0
        written = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert "rigidity__boundary_gap.csv" in written


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert invoke(capsys, "bogus")[0] == 2

    def test_unknown_flag(self, capsys):
        assert invoke(capsys, "spectrum", "--bogus")[0] == 2

    def test_incomplete_custom_params(self, capsys):
        code, _, err = invoke(capsys, "spectrum", "--hbar", "0.5")
        assert code == 2
        assert "custom parameters" in err

    def test_si_conflicts_with_custom(self, capsys):
        assert invoke(capsys, "spectrum", "--si", "--hbar", "1")[0] == 2

    def test_invalid_custom_values(self, capsys):
        code, _, err = invoke(capsys, "spectrum", "--hbar", "1", "--c", "1", "--v-c", "2")
        assert code == 2
        assert "v_c must be < c" in err

    def test_unknown_tolerance_key(self, capsys):
        assert invoke(capsys, "rigidity", "--tol", "bogus.key=1")[0] == 2

    def test_bad_target(self, capsys):
        assert invoke(capsys, "project", "--target", "psi:x")[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["project", "--format", "json"],
            ["eigenfunction", "--no-meta"],
            ["spectrum", "--tol", "rigidity.parseval=1"],
            ["rigidity", "--tol", "converge.final_l2_rel=1"],
            ["converge", "--tol", "constant_projection.rule_agreement=1"],
            ["spectrum", "--n-max", "1", "--no-meta"],
            ["critical-index", "--format", "csv", "--no-meta"],
        ],
        ids=[
            "project-format", "eigenfunction-no-meta", "spectrum-tol", "rigidity-foreign-tol", "library-only-tol",
            "spectrum-csv-no-meta", "critical-index-csv-no-meta",
        ],
    )
    def test_flag_the_subcommand_does_not_honour(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("deformspec") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1e-9", "abc"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, value):
        code, out, err = invoke(capsys, "rigidity", "--n-list", "8,16", "--tol", f"rigidity.parseval={value}")
        assert (code, out) == (2, "")
        assert "finite positive" in err

    def test_unknown_tolerance_key_names_the_prefix(self, capsys):
        code, out, err = invoke(capsys, "inverse-limit", "--tol", "inverse_limit.slope=1")
        assert (code, out) == (2, "")
        assert "inverse_limit reads no tolerance 'inverse_limit.slope'; keys: inverse_limit.slope_rel" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["rigidity", "--tol", "rigidity.parseval"],
            ["project", "--target", "foo"],
            ["rigidity", "--n-list", "8,x"],
            ["inverse-limit", "--A", "-1"],
            ["inverse-limit", "--k-max", "5"],
            ["inverse-limit", "--A", "0"],
            ["inverse-limit", "--tau-list", "1,nan,3"],
            ["inverse-limit", "--tau-list", "1,2,inf"],
            ["fd-validate", "--grid-sizes", "100", "--modes", "0"],
            ["reconstruct", "--coeffs", "n,a_n\n0,1,2\n"],
            ["reconstruct", "--coeffs", "n,a_n\n0,abc\n"],
            ["reconstruct", "--coeffs", "n,a_n\n"],
            ["reconstruct", "--coeffs", b"n,a_n\n0,\xff\n"],
            ["rigidity", "--n-list", ","],
            ["converge", "--n-list", ","],
            ["inverse-limit", "--tau-list", ","],
            ["fd-validate", "--grid-sizes", ","],
            ["eigenfunction", "--grid-points", "2"],
            ["reconstruct", "--grid-points", "0", "--coeffs", "n,a_n\n0,1\n"],
        ],
        ids=[
            "tol-without-equals", "unknown-target", "n-list-not-int", "negative-amplitude", "k-max-5",
            "zero-amplitude", "nan-tau", "inf-tau", "zero-modes", "coeffs-three-fields", "coeffs-not-a-number",
            "coeffs-header-only", "coeffs-not-utf8", "empty-n-list", "empty-converge-n-list", "empty-tau-list",
            "empty-grid-sizes", "two-grid-points", "reconstruct-zero-grid-points",
        ],
    )
    def test_bad_input_is_one_line_and_exit_2(self, capsys, tmp_path, argv):
        if argv[0] == "reconstruct":
            path = tmp_path / "coeffs.csv"
            contents = argv[-1]
            path.write_bytes(contents if isinstance(contents, bytes) else contents.encode())
            argv = [*argv[:-1], str(path)]
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("deformspec: error:") and err.count("\n") == 1 and "Traceback" not in err
        if "--grid-points" in argv:
            assert f"--grid-points must be >= 3, got {argv[argv.index('--grid-points') + 1]}" in err

    def test_undecodable_coefficient_file_in_a_real_process(self, tmp_path):
        """What a user sees: exit 2, one stderr line and no traceback."""
        path = tmp_path / "coeffs.csv"
        path.write_bytes(b"n,a_n\n0,\xff\n")
        argv = ["reconstruct", "--coeffs", str(path)]
        with deformspec_child(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
            out, err = child.communicate(timeout=120)
        assert (child.returncode, out) == (2, b"")
        assert err.startswith(b"deformspec: error: byte 8: not ") and err.count(b"\n") == 1
        assert b"Traceback" not in err


# Integer arguments past what numpy can allocate (2^63 bytes) or, for a mode n, whose
# phase (n+1) t leaves the int64 range; each once escaped as a traceback or printed
# meaningless samples.
HUGE = str(10**20)
OVERSIZED_ARGV = [
    ["spectrum", "--n-max", HUGE],
    ["project", "--n-max", HUGE],
    ["gram", "--n-max", "3", "--nodes", HUGE],
    ["rigidity", "--n-list", HUGE],
    ["asymptotics", "--n-min", "1", "--n-max", HUGE],
    ["inverse-limit", "--n-max", HUGE],
    ["converge", "--n-list", f"8,{HUGE}"],
    ["parseval", "--n-max", HUGE],
    ["eigenfunction", "--grid-points", HUGE],
    ["eigenfunction", "--n", str(2**63 - 1)],
]


@pytest.mark.parametrize("argv", OVERSIZED_ARGV, ids=lambda argv: argv[0] + argv[-2])
def test_oversized_integer_is_a_usage_error(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert argv[-2] in err and str(MAX_INT_ARG) in err


class TestIOErrors:
    """File-system failures exit 2 with a one-line message, never a traceback."""

    def test_missing_coefficient_file(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "reconstruct", "--coeffs", str(tmp_path / "missing.csv"))
        assert (code, out) == (2, "")
        assert err.startswith("deformspec: error:") and "Traceback" not in err

    def test_output_under_missing_directory(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "spectrum", "--output", str(tmp_path / "missing" / "x"))
        assert (code, out) == (2, "")
        assert err.startswith("deformspec: error:") and "Traceback" not in err

    def test_json_output_into_existing_directory(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "inverse-limit", "--output", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("deformspec: error:") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


def test_overflowing_spectrum_exits_three_before_writing(capsys, tmp_path):
    path = tmp_path / "spectrum.csv"
    code, out, err = invoke(capsys, "spectrum", "--hbar", "1", "--c", "1", "--v-c", "1e-300", "--output", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("deformspec: numerical error:") and "Warning" not in err
    assert not path.exists()


@pytest.mark.parametrize("command", ["fd-validate", "asymptotics"])
def test_overflowing_parameters_exit_three(capsys, command):
    code, out, err = invoke(capsys, command, "--hbar", "1", "--c", "1", "--v-c", "1e-300")
    assert (code, out) == (3, "")
    assert err.startswith("deformspec: numerical error:") and "Traceback" not in err


def test_asymptotics_reads_hbar_and_c_through_their_ratio(capsys):
    argv = ["asymptotics", "--format", "csv", "--v-c", "0.8"]
    runs = [invoke(capsys, *argv, "--hbar", h, "--c", h) for h in ("1e155", "1")]
    assert runs[0][0] == runs[1][0] == 0 and runs[0][1] == runs[1][1]


@pytest.mark.parametrize("c,v_c", [("1e200", "1e120"), ("1.7e308", "2e307")])
def test_underflowing_decay_rate_exits_three(capsys, c, v_c):
    code, out, err = invoke(capsys, "asymptotics", "--hbar", "1", "--c", c, "--v-c", v_c)
    assert (code, out) == (3, "")
    assert err.startswith("deformspec: numerical error: decay rate underflows") and err.count("\n") == 1


def test_decay_rate_where_both_squares_underflow(capsys):
    # (hbar/c)^2 and v_c^2 are both 0.0 in floats, but (hbar/(c v_c))^2 = 1
    code, out, err = invoke(capsys, "asymptotics", "--hbar", "1e-200", "--c", "1", "--v-c", "1e-200", "--no-meta")
    assert (code, err) == (0, "")
    assert json.loads(out)["inputs"]["alpha"] == pytest.approx(math.pi**3 / 4, rel=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("v_c", ["2e-77", "5e-154"])
def test_fd_validate_off_diagonal_overflow_exits_three(capsys, v_c):
    # off-diagonal above 1.34e154: its square overflows and the Sturm counts would be garbage
    argv = ["fd-validate", "--hbar", "1", "--c", "1", "--v-c", v_c, "--grid-sizes", "4", "--modes", "1"]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("deformspec: numerical error:") and err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fd_validate_just_below_overflow_exits_zero(capsys):
    argv = ["fd-validate", "--hbar", "1", "--c", "1", "--v-c", "4e-77", "--grid-sizes", "4", "--modes", "1"]
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    # the 3-point truncation error of mode 0 on 4 interior points
    assert json.loads(out)["reports"][0]["rel_errors"][0] == pytest.approx(0.0325, abs=1e-4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [["reconstruct", "--coeffs", "{coeffs}"], ["inverse-limit", "--A", "1e308"]])
def test_synthesis_overflow_exits_three(capsys, tmp_path, argv):
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text("n,a_n\n0,1e308\n1,1e308\n2,1e308\n")
    code, out, err = invoke(capsys, *[str(coeffs) if arg == "{coeffs}" else arg for arg in argv])
    assert (code, out) == (3, "")
    assert err.startswith("deformspec: numerical error:") and err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("beta", ["300", "1e308"])
def test_inverse_limit_seminorm_underflow_exits_three(capsys, beta):
    # exp(-beta tau) underflows to 0 by tau = 3: no log-slope can be fitted
    code, out, err = invoke(capsys, "inverse-limit", "--beta", beta, "--tau-list", "1,2,3")
    assert (code, out) == (3, "")
    assert err.startswith("deformspec: numerical error:") and err.count("\n") == 1


WIDE_SPACING = ["--hbar", "1", "--c", "1e300", "--v-c", "1e160"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["--beta", "1000", "--tau-list=-3,-2,-1"],  # exp(-beta tau) overflows
        ["--A", "1e300", "--beta", "1", "--tau-list=-700,-699,-698"],  # A exp(-beta tau) overflows
        ["--A", "1e300", "--beta", "1", "--tau-list", "1,2,3", "--k-max", "4"],  # a derivative overflows
        # a grid spacing near 1e156: the stencils' Python-float h**order
        # overflows, so their weights 1/h**order underflow
        [*WIDE_SPACING],
        [*WIDE_SPACING, "--k-max", "4"],
    ],
)
def test_inverse_limit_overflow_exits_three(capsys, argv):
    code, out, err = invoke(capsys, "inverse-limit", *argv)
    assert (code, out) == (3, "")
    assert err.startswith("deformspec: numerical error:") and err.count("\n") == 1
    if argv[: len(WIDE_SPACING)] == WIDE_SPACING:
        assert err.startswith("deformspec: numerical error: order-2 finite difference underflows")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_fd_validate_at_a_zero_eigenvalue_exits_three(capsys, fmt):
    # 2 v_c c/(pi hbar) = 1 exactly, so C_0 = 0 and its relative error divides by zero
    v_c = "0.7853981633974483"
    assert eigenvalue(custom_params(1, 2, float(v_c)), 0) == 0.0
    code, out, err = invoke(capsys, "fd-validate", "--hbar", "1", "--c", "2", "--v-c", v_c, "--format", fmt)
    assert (code, out) == (3, "")
    assert err.startswith("deformspec: numerical error: relative error overflows") and err.count("\n") == 1


@pytest.mark.parametrize("message", ["Unable to allocate 11.9 GiB for an array", ""])
def test_memory_error_exits_two(monkeypatch, capsys, message):
    import deformspec.transform as transform

    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(transform, "_sine_sums", no_memory)
    code, out, err = invoke(capsys, "inverse-limit", "--n-max", "16")
    assert (code, out) == (2, "")
    detail = f": {message}" if message else ""
    assert err == f"deformspec: error: not enough memory for inverse-limit{detail}\n"


def deformspec_child(argv, **kwargs) -> subprocess.Popen:
    """``deformspec argv`` in a fresh interpreter that imports the package from src/."""
    path = filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.Popen([sys.executable, "-m", "deformspec.cli", *argv], env=env, **kwargs)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reader_closing_stdout_early_is_not_an_error(fmt):
    """``deformspec spectrum --n-max 100000 | head -1``: the reader takes one
    line and closes the pipe, and the command exits 0 without a word, at the
    write that fails and at the interpreter's flush at exit."""
    argv = ["spectrum", "--n-max", "100000", "--format", fmt]
    with deformspec_child(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=120)
    assert first == (b"n,wavenumber,eigenvalue\n" if fmt == "csv" else b"{\n")
    assert (code, err) == (0, b"")


def test_gram_beyond_the_address_space_exits_two():
    """gram --n-max 20000 needs about 3.2 GB for its matrix alone; under a
    2 GiB address-space limit, set in the child only, it exits 2 with one line
    and writes nothing, because every array is allocated before the first
    character of output."""
    limit = 2 * 2**30
    with deformspec_child(
        ["gram", "--n-max", "20000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    ) as child:
        out, err = child.communicate(timeout=120)
    assert (child.returncode, out) == (2, b"")
    assert err.startswith(b"deformspec: error: not enough memory for gram") and err.count(b"\n") == 1
    assert b"Traceback" not in err


@pytest.mark.parametrize("gamma", ["-1", "nan"])
def test_inverse_limit_rejects_bad_mode_decay(capsys, gamma):
    code, out, err = invoke(capsys, "inverse-limit", "--n-max", "8", "--gamma-mode-decay", gamma)
    assert (code, out) == (2, "")
    assert err.startswith("deformspec: error: mode_decay") and err.count("\n") == 1


def test_si_asymptotics_exits_zero(capsys):
    # every C_n rounds to pi in SI units; the verdict reads the deficits pi - C_n
    code, out, _ = invoke(capsys, "asymptotics", "--si", "--n-min", "10", "--n-max", "20", "--no-meta")
    assert code == 0 and json.loads(out)["verdict"] == "pass"


_LOG_SCALED = st.floats(min_value=-6.0, max_value=-3.0).map(lambda x: 10.0**x)


@settings(max_examples=300, deadline=None)
@given(
    n_min=st.integers(min_value=1, max_value=5000),
    span=st.integers(min_value=1, max_value=3000),
    slack=st.floats(min_value=-18.0, max_value=-1.0).map(lambda x: 10.0**x),
    e=st.just(0.0) | _LOG_SCALED | _LOG_SCALED.map(lambda x: -x),
)
def test_si_asymptotics_exits_as_canonical(n_min, span, slack, e):
    """The asymptotics verdict reads deficits, so it does not depend on the units;
    alpha scaled by 1 + e makes the identity fail for a small enough slack."""
    import deformspec.experiments as experiments

    argv = ["asymptotics", "--n-min", str(n_min), "--n-max", str(n_min + span)]
    argv += ["--tol", f"asymptotics.identity_slack={slack!r}", "--format", "csv"]
    exact = experiments.asymptotic_coefficient
    codes = []
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(experiments, "asymptotic_coefficient", lambda p: exact(p) * (1 + e))
        for extra in ([], ["--si"]):
            codes.append(run(argv + extra))
    assert codes[0] in (0, 1) and codes[1] == codes[0]


def test_large_inverse_limit_runs_in_linear_memory(capsys):
    # 5001 modes on 320065 uniform points: a dense basis would take 12.8 GB
    tracemalloc.start()
    try:
        code, out, _ = invoke(capsys, "inverse-limit", "--n-max", "5000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["verdict"] == "pass"
    assert peak < 100e6


def test_eigenfunction_writes_in_memory_bounded_by_its_samples(tmp_path, monkeypatch):
    """From the moment the samples exist, ``eigenfunction --output`` holds the
    two sample arrays and one block of cells, however many rows it writes.

    The sampling's own temporaries (one float array and a byte mask beside the
    result, 17 B a point in all) are not the writer's, so
    the peak is reset when ``eigenfunction`` returns; what is held then is the
    two arrays plus less than 1 MB that does not grow with the rows (the parser,
    the parameters).  A block of ``BLOCK_CELLS`` cells takes under 128 bytes a
    cell (about 80 measured): its floats as Python objects (24 B) and in the
    ``tolist`` list (8 B), the interleaved cells and their tuple (8 B each), the
    row template, the formatted text and its encoded copy (about 20 B each)."""
    import deformspec.cli as cli
    from deformspec.io import BLOCK_CELLS

    points = 500_001
    held = []

    def sampled(*args):
        samples = eigenfunction(*args)
        tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])
        return samples

    monkeypatch.setattr(cli, "eigenfunction", sampled)
    path = tmp_path / "samples.csv"
    tracemalloc.start()
    try:
        code = run(["eigenfunction", "--n", "3", "--grid-points", str(points), "--output", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and path.stat().st_size > 40 * points
    assert held[0] < 2 * 8 * points + 1e6
    assert peak - held[0] < 128 * BLOCK_CELLS


@pytest.mark.parametrize("command", ["eigenfunction", "reconstruct", "rigidity", "inverse-limit"])
def test_si_uniform_grid_commands_exit_zero(capsys, tmp_path, command):
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text("n,a_n\n0,0.5\n1,-0.25\n")
    argv = [str(coeffs) if arg == "{coeffs}" else arg for arg in SMALL_ARGV[command]]
    assert invoke(capsys, command, *argv, "--si")[0] == 0


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        argv = ("spectrum", "--n-max", "5")
        first = invoke(capsys, *argv)
        second = invoke(capsys, *argv)
        assert first == second

    def test_json_meta_block(self, capsys):
        _, with_meta, _ = invoke(capsys, "critical-index")
        _, without, _ = invoke(capsys, "critical-index", "--no-meta")
        assert "meta" in json.loads(with_meta)
        assert "meta" not in json.loads(without)
        assert json.loads(with_meta)["meta"]["argv"] == ["critical-index"]


def test_exit_code_constants():
    from deformspec.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERDICT_FAIL

    assert (EXIT_OK, EXIT_VERDICT_FAIL, EXIT_USAGE, EXIT_NUMERICAL) == (0, 1, 2, 3)


def test_numerical_errors_map_to_exit_three(monkeypatch, capsys):
    import deformspec.cli as cli
    from deformspec.errors import NumericalError

    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    monkeypatch.setitem(cli._COMMANDS, "spectrum", boom)
    code, _, err = invoke(capsys, "spectrum")
    assert code == 3
    assert "synthetic failure" in err


def test_readme_cli_examples_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    assert all(words[0] == "deformspec" for words in lines)
    parsed = [_build_parser().parse_args(words[1:]) for words in lines]
    assert sorted(args.command for args in parsed) == sorted(_COMMANDS)


REPORTS = {"rigidity", "inverse-limit", "asymptotics", "converge"}
SMALL_ARGV = {
    "spectrum": ["--n-max", "4"],
    "eigenfunction": ["--n", "2", "--grid-points", "9"],
    "critical-index": [],
    "project": ["--n-max", "4", "--nodes", "64"],
    "reconstruct": ["--coeffs", "{coeffs}", "--grid-points", "9"],
    "parseval": ["--n-max", "8"],
    "gram": ["--n-max", "3", "--nodes", "64"],
    "fd-validate": ["--grid-sizes", "40,80", "--modes", "2"],
    "rigidity": ["--n-list", "2,4"],
    "inverse-limit": ["--n-max", "4", "--tau-list", "1,2,3", "--k-max", "1"],
    "asymptotics": ["--n-min", "10", "--n-max", "20"],
    "converge": ["--n-list", "2,4,8"],
}


# (c, v_c) at the ends of the v_c range with hbar = 1: 2 v_c overflows, v_c
# subnormal, the smallest normal v_c, a v_c whose partial-sum norms overflow,
# and two large v_c: one where a target's L^2 norm overflows, and one where
# the projection sums overflow too
EDGE_VC = [
    ("1.7976931348623157e308", "1.7e308"),
    ("2", "1e-320"),
    ("2", "2.2250738585072014e-308"),
    ("2", "1e-307"),
    ("1.7e308", "2e307"),
    ("1.7e308", "5e307"),
]
NON_FINITE = re.compile(r"\b(inf|nan|Infinity|NaN)\b")


def run_in_process(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def small_argv(command, coeffs):
    return [command, *(str(coeffs) if arg == "{coeffs}" else arg for arg in SMALL_ARGV[command])]


@pytest.mark.parametrize("c, v_c", EDGE_VC[:2], ids=["double-overflows", "subnormal"])
@pytest.mark.parametrize("command", sorted(SMALL_ARGV))
def test_v_c_outside_the_normal_range_is_a_usage_error(tmp_path, command, c, v_c):
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text("n,a_n\n0,0.5\n1,-0.25\n")
    code, out, err = run_in_process([*small_argv(command, coeffs), "--hbar", "1", "--c", c, "--v-c", v_c])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "v_c must be a normal float" in err


@pytest.mark.parametrize("c, v_c", EDGE_VC[2:4], ids=["smallest-normal", "tiny"])
@pytest.mark.parametrize("command", sorted(SMALL_ARGV))
def test_v_c_at_the_small_end_exits_with_finite_output_or_one_line(tmp_path, command, c, v_c):
    """An overflow is a numerical error, never a verdict or a non-finite cell."""
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text("n,a_n\n0,0.5\n1,-0.25\n")
    code, out, err = run_in_process([*small_argv(command, coeffs), "--hbar", "1", "--c", c, "--v-c", v_c])
    if command in ("spectrum", "asymptotics", "critical-index", "rigidity", "fd-validate"):
        assert code == 3
    if code in (2, 3):
        assert out == "" and err.count("\n") == 1
    else:
        assert err == "" and "nan" not in out and "inf" not in out


@pytest.mark.parametrize("c, v_c", EDGE_VC[4:], ids=["norm-overflows", "sums-overflow"])
@pytest.mark.parametrize("command", sorted(SMALL_ARGV))
def test_v_c_at_the_large_end_exits_with_finite_output_or_one_line(tmp_path, command, c, v_c):
    """A projection sum or a target norm that overflows is a numerical error,
    never a non-finite cell or a verdict that passes against an infinite norm."""
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text("n,a_n\n0,0.5\n1,-0.25\n")
    code, out, err = run_in_process([*small_argv(command, coeffs), "--hbar", "1", "--c", c, "--v-c", v_c])
    if command in ("parseval", "converge", "rigidity") or (command, v_c) == ("project", "5e307"):
        assert code == 3
    if code in (2, 3):
        assert out == "" and err.count("\n") == 1
    else:
        assert err == "" and not NON_FINITE.search(out)


@settings(max_examples=400, deadline=None)
@given(
    command=st.sampled_from(sorted(SMALL_ARGV)),
    fmt=st.sampled_from([None, "csv", "json"]),
    no_meta=st.booleans(),
    tol=st.none() | st.sampled_from(sorted(DEFAULT_TOLERANCES)),
    si=st.booleans(),
    to_file=st.booleans(),
    edge=st.none() | st.sampled_from(EDGE_VC),
)
def test_exit_contract(command, fmt, no_meta, tol, si, to_file, edge):
    """Exit 0-3 without a traceback for any subset of the shared flags, also
    at the ends of the v_c range; exit 1 only from a report whose verdict is
    fail, and no non-finite number in the output of exit 0 or 1."""
    with tempfile.TemporaryDirectory() as tmp:
        coeffs, output = Path(tmp) / "coeffs.csv", Path(tmp) / "out"
        coeffs.write_text("n,a_n\n0,0.5\n1,-0.25\n")
        argv = small_argv(command, coeffs)
        argv += ["--format", fmt] if fmt else []
        argv += ["--no-meta"] if no_meta else []
        argv += ["--tol", f"{tol}=1e-3"] if tol else []
        argv += ["--si"] if si else []
        argv += ["--output", str(output)] if to_file else []
        argv += ["--hbar", "1", "--c", edge[0], "--v-c", edge[1]] if edge else []
        code, out, err = run_in_process(argv)
        text = output.read_text() if output.exists() else out
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err and err.count("\n") == (1 if code in (2, 3) else 0)
    if code in (0, 1):
        assert not NON_FINITE.search(text)
    if code == 1:
        assert command in REPORTS
        if fmt != "csv":
            assert json.loads(text)["verdict"] == "fail"
