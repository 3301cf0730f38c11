"""Command-line front end.

Every compute module is reachable through a subcommand that writes CSV or
JSON to stdout (or --output).  Exit codes: 0 success / verdict pass,
1 verdict fail, 2 usage, validation or I/O error, 3 numerical error.  Output is
deterministic: identical argv yields byte-identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DeformSpecError, NumericalError, ValidationError
from .experiments import (
    DecayModel,
    asymptotics_report,
    convergence_study,
    inverse_limit_report,
    refinement_study,
    rigidity_report,
)
from .io import Records, format_floats, read_coefficients, write_coefficients, write_csv, write_json
from .params import OperatorParams, canonical_params, custom_params, deformation_profile, si_params
from .quadrature import default_projection_rule, uniform_grid
from .spectrum import critical_index, eigenfunction, eigenvalue, wavenumber
from .transform import evaluate, gram_matrix, parseval_defect, project

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# Largest integer flag or list item: numpy refuses arrays above 2^63 bytes, and gram's
# (N+1)^2 table of 8-byte entries, the largest array a count N sizes, needs N + 1 < 2^30.
MAX_INT_ARG = 2**28  # 16 times below that in bytes


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, like every other error."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache  # built once per process: parsing never changes the parser
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    source = common.add_argument_group("operator parameters (default: canonical)")
    source.add_argument("--hbar", type=float, help="custom hbar (requires --c and --v-c)")
    source.add_argument("--c", type=float, help="custom c")
    source.add_argument("--v-c", dest="v_c", type=float, help="custom v_c")
    source.add_argument("--si", action="store_true", help="SI constants with the critical interval")
    common.add_argument("--output", help="file path (or directory for per-series report CSVs)")
    formats = {}
    for default in ("csv", "json"):
        # One parent per default format: set_defaults on a subparser would
        # rewrite the --format action that all of its siblings share.
        parent = formats[default] = argparse.ArgumentParser(add_help=False, parents=[common])
        parent.add_argument("--format", choices=("csv", "json"), default=default, help=f"default: {default}")
        parent.add_argument("--no-meta", action="store_true", help="omit the JSON metadata block")
    report = argparse.ArgumentParser(add_help=False, parents=[formats["json"]])
    report.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="tolerance override (repeatable); keys begin with the subcommand name, - read as _",
    )

    parser = _Parser(
        prog="deformspec",
        description="Spectral analysis of the Dirichlet operator pi*(1 + (hbar/c)^2 d^2/dv^2).",
    )
    parser.add_argument("--version", action="version", version=f"deformspec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[formats["csv"]], help="closed-form modes 0..n_max")
    p.add_argument("--n-max", type=_int_arg, default=16)

    p = sub.add_parser("eigenfunction", parents=[common], help="samples of one eigenfunction")
    p.add_argument("--n", type=_int_arg, default=0)
    p.add_argument("--grid-points", type=_int_arg, default=257)

    sub.add_parser("critical-index", parents=[formats["json"]], help="floor formula vs exact sign change")

    p = sub.add_parser("project", parents=[common], help="coefficients of a target function")
    p.add_argument("--target", default="C")
    p.add_argument("--n-max", type=_int_arg, default=16)
    p.add_argument("--nodes", type=_int_arg, help="quadrature nodes (Gauss-Legendre up to 4096)")

    p = sub.add_parser("reconstruct", parents=[common], help="partial sum from a coefficient CSV")
    p.add_argument("--coeffs", required=True, help="CSV file with header n,a_n")
    p.add_argument("--grid-points", type=_int_arg, default=257)

    p = sub.add_parser("parseval", parents=[formats["json"]], help="norm vs truncated coefficient sum")
    p.add_argument("--target", default="C")
    p.add_argument("--n-max", type=_int_arg, default=64)

    p = sub.add_parser("gram", parents=[formats["csv"]], help="pairwise eigenfunction inner products")
    p.add_argument("--n-max", type=_int_arg, default=16)
    p.add_argument("--nodes", type=_int_arg)

    p = sub.add_parser("fd-validate", parents=[formats["json"]], help="finite-difference cross-validation")
    p.add_argument("--grid-sizes", default="250,500,1000,2000", help="comma-separated m values")
    p.add_argument("--modes", type=_int_arg, default=10, dest="n_modes")

    p = sub.add_parser("rigidity", parents=[report], help="uniform-coefficient obstruction")
    p.add_argument("--n-list", default="8,16,32,64")

    p = sub.add_parser("inverse-limit", parents=[report], help="seminorm decay of reconstructions")
    p.add_argument("--A", type=float, default=1.0, dest="amplitude")
    p.add_argument("--beta", type=float, default=2.0, dest="decay_rate")
    p.add_argument("--gamma-mode-decay", type=float, default=1.0, dest="mode_decay")
    p.add_argument("--n-max", type=_int_arg, default=32)
    p.add_argument("--tau-list", default="1,2,3,4,5,6,7,8")
    p.add_argument("--k-max", type=_int_arg, default=2)

    p = sub.add_parser("asymptotics", parents=[report], help="quadratic-approximant remainder")
    p.add_argument("--n-min", type=_int_arg, default=100)
    p.add_argument("--n-max", type=_int_arg, default=1000)

    p = sub.add_parser("converge", parents=[report], help="reconstruction convergence study")
    p.add_argument("--target", default="C")
    p.add_argument("--n-list", default="8,16,32,64,128")
    return parser


def _params_from(args) -> OperatorParams:
    custom = [x is not None for x in (args.hbar, args.c, args.v_c)]
    if args.si and any(custom):
        raise ValidationError("--si cannot be combined with --hbar/--c/--v-c")
    if any(custom) and not all(custom):
        raise ValidationError("custom parameters need all of --hbar, --c and --v-c")
    if args.si:
        return si_params()
    if all(custom):
        return custom_params(args.hbar, args.c, args.v_c)
    return canonical_params()


def _tolerances_from(items: list[str]) -> dict:
    """--tol KEY=VALUE items as {KEY: VALUE}; the report checks keys and values."""
    overrides = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValidationError(f"--tol expects KEY=VALUE, got {item!r}")
        overrides[key] = value
    return overrides


def _target_function(name: str, params: OperatorParams):
    if name == "C":
        return lambda v: deformation_profile(params, v)
    if name == "const":
        return lambda v: np.ones_like(np.asarray(v, dtype=float))
    if name.startswith("psi:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad eigenfunction target {name!r}; use psi:<n>") from None
        return lambda v: eigenfunction(params, n, v)
    raise ValidationError(f"unknown target {name!r}; choose C, const or psi:<n>")


def _int_arg(text: str) -> int:
    """An integer flag value or list item, at most MAX_INT_ARG."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value > MAX_INT_ARG:
        raise argparse.ArgumentTypeError(f"{value} is above {MAX_INT_ARG}, the largest integer accepted")
    return value


def _number_list(text: str, flag: str, kind=_int_arg) -> list:
    try:
        return [kind(part) for part in text.split(",") if part.strip() != ""]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValidationError(f"{flag}: {exc}") from None


def _emit(args, write, *items) -> None:
    """``write(stream, *items)`` to stdout, or to the --output file opened once."""
    if args.output is None:
        write(sys.stdout, *items)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
    else:
        with open(args.output, "w") as stream:
            write(stream, *items)


def _meta(args) -> dict | None:
    if args.no_meta:
        return None
    return {"generator": f"deformspec {__version__}", "argv": args.argv}


def _emit_report(args, report) -> int:
    if args.format == "json":
        # the fields in order; dataclasses.asdict would deep-copy every series value
        _emit(args, write_json, vars(report), _meta(args))
    elif args.output is not None and Path(args.output).is_dir():
        for column, series in report.series.items():
            path = Path(args.output) / f"{report.name}__{column}.csv"
            with open(path, "w") as stream:
                write_csv(stream, ["index", "value"], [range(len(series)), series])
    else:
        # long format: one row per (series column, index, value)
        names, index, values = [], [], []
        for column, series in report.series.items():
            names += [column] * len(series)
            index += range(len(series))
            values += series
        _emit(args, write_csv, ["series", "index", "value"], [names, index, values])
    return EXIT_OK if report.verdict in ("pass", "documented_discrepancy") else EXIT_VERDICT_FAIL


def _cmd_spectrum(args) -> int:
    if args.n_max < 0:
        raise ValidationError("n_max must be >= 0")
    ns = np.arange(args.n_max + 1)
    header = ["n", "wavenumber", "eigenvalue"]
    columns = [ns, wavenumber(args.params, ns), eigenvalue(args.params, ns)]
    if args.format == "csv":
        _emit(args, write_csv, header, columns)
    else:
        _emit(args, write_json, {"modes": Records(header, columns)}, _meta(args))
    return EXIT_OK


def _cmd_eigenfunction(args) -> int:
    if args.grid_points < 3:
        raise ValidationError(f"--grid-points must be >= 3, got {args.grid_points}")
    grid = uniform_grid(args.params, args.grid_points - 1)
    _emit(args, write_csv, ["v", "f"], [grid, eigenfunction(args.params, args.n, grid)])
    return EXIT_OK


def _cmd_critical_index(args) -> int:
    report = critical_index(args.params)
    payload = {
        "x": report.x,
        "n_star_paper": report.n_star_paper,
        "n_star_exact": report.n_star_exact if report.n_star_exact is not None else "none",
        "agree": report.agree,
    }
    if args.format == "json":
        _emit(args, write_json, payload, _meta(args))
    else:
        _emit(args, write_csv, list(payload), [[value] for value in payload.values()])
    return EXIT_OK


def _cmd_project(args) -> int:
    rule = default_projection_rule(args.params, args.n_max, args.nodes)
    f = _target_function(args.target, args.params)
    coeffs = project(args.params, f, args.n_max, rule)
    _emit(args, write_coefficients, coeffs)
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    if args.grid_points < 3:
        raise ValidationError(f"--grid-points must be >= 3, got {args.grid_points}")
    coeffs = read_coefficients(args.coeffs, args.params)
    grid = uniform_grid(args.params, args.grid_points - 1)
    _emit(args, write_csv, ["v", "f"], [grid, evaluate(coeffs, grid)])
    return EXIT_OK


def _cmd_parseval(args) -> int:
    f = _target_function(args.target, args.params)
    rule = default_projection_rule(args.params, args.n_max)
    norm, defect = parseval_defect(args.params, f, args.n_max, rule)
    payload = {
        "target": args.target,
        "n_max": args.n_max,
        "norm_sq": norm**2,
        "coefficient_sum_sq": norm**2 - defect,
        "defect": defect,
        "relative_defect": defect / norm**2 if norm > 0 else 0.0,
    }
    if args.format == "json":
        _emit(args, write_json, payload, _meta(args))
    else:
        _emit(args, write_csv, ["key", "value"], [list(payload), list(payload.values())])
    return EXIT_OK


def _cmd_gram(args) -> int:
    rule = default_projection_rule(args.params, args.n_max, args.nodes)
    matrix = gram_matrix(args.params, args.n_max, rule)
    if args.format == "csv":
        n = len(matrix)
        # the matrix is symmetric bit for bit, so its upper triangle holds
        # every value, and those repeat (each depends on |n-m| and n+m only):
        # the float matrix is freed once the triangle is taken, each distinct
        # value is formatted once and mirrored into the lower triangle, and
        # the strings go to the writer as one group of columns
        upper = np.triu(np.ones((n, n), dtype=bool))
        values = matrix[upper]
        del matrix
        cells = np.empty((n, n), dtype=object)
        cells[upper] = cells.T[upper] = format_floats(values, "%.17g")
        del upper, values
        _emit(args, write_csv, ["n", *map(str, range(n))], [range(n), cells])
    else:
        _emit(args, write_json, {"gram": matrix}, _meta(args))
    return EXIT_OK


def _cmd_fd_validate(args) -> int:
    reports = refinement_study(args.params, _number_list(args.grid_sizes, "--grid-sizes"), args.n_modes)
    if args.format == "json":
        payload = [
            {
                "grid": {"m": r.m, "h": r.h},
                "convergence_order": r.convergence_order,
                "eigenvalues_fd": r.eigenvalues_fd,
                "eigenvalues_analytic": r.eigenvalues_analytic,
                "abs_errors": r.abs_errors,
                "rel_errors": r.rel_errors,
            }
            for r in reports
        ]
        _emit(args, write_json, {"reports": payload}, _meta(args))
    else:

        def write_tables(stream):
            for r in reports:
                write_csv(
                    stream,
                    ["n", "lambda_fd", "lambda_analytic", "abs_err", "rel_err"],
                    [range(len(r.eigenvalues_fd)), r.eigenvalues_fd, r.eigenvalues_analytic, r.abs_errors, r.rel_errors],
                )

        _emit(args, write_tables)
    return EXIT_OK


def _cmd_rigidity(args) -> int:
    report = rigidity_report(args.params, _number_list(args.n_list, "--n-list"), args.tolerances)
    return _emit_report(args, report)


def _cmd_inverse_limit(args) -> int:
    model = DecayModel(args.amplitude, args.decay_rate, args.n_max, args.mode_decay)
    taus = _number_list(args.tau_list, "--tau-list", float)
    report = inverse_limit_report(model, args.params, taus, args.k_max, args.tolerances)
    return _emit_report(args, report)


def _cmd_asymptotics(args) -> int:
    report = asymptotics_report(args.params, args.n_min, args.n_max, args.tolerances)
    return _emit_report(args, report)


def _cmd_converge(args) -> int:
    n_list = _number_list(args.n_list, "--n-list")
    f = _target_function(args.target, args.params)
    report = convergence_study(args.params, f, n_list, args.tolerances)
    return _emit_report(args, report)


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "eigenfunction": _cmd_eigenfunction,
    "critical-index": _cmd_critical_index,
    "project": _cmd_project,
    "reconstruct": _cmd_reconstruct,
    "parseval": _cmd_parseval,
    "gram": _cmd_gram,
    "fd-validate": _cmd_fd_validate,
    "rigidity": _cmd_rigidity,
    "inverse-limit": _cmd_inverse_limit,
    "asymptotics": _cmd_asymptotics,
    "converge": _cmd_converge,
}


def run(argv) -> int:
    """Dispatch a command line; returns the process exit code."""
    argv = list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    try:
        if "no_meta" in args and args.no_meta and args.format == "csv":
            raise ValidationError("--no-meta applies only to --format json")
        args.params = _params_from(args)
        if "tol" in args:
            args.tolerances = _tolerances_from(args.tol)
        args.argv = argv
        return _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"deformspec: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenPipeError:
        # the reader stopped early (`deformspec spectrum | head -1`): not an
        # error, and what is still buffered for stdout goes to the null device
        # so that the flush at exit does not fail again
        if args.output is None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"deformspec: error: not enough memory for {args.command}{detail}", file=sys.stderr)
        return EXIT_USAGE
    except (DeformSpecError, OSError) as exc:
        print(f"deformspec: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
