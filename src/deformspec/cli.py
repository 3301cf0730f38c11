"""Command-line front end.

Every compute module is reachable through a subcommand that writes CSV or
JSON to stdout (or --output).  Exit codes: 0 success / verdict pass,
1 verdict fail, 2 usage, validation or I/O error, 3 numerical error.  Output is
deterministic: identical argv yields byte-identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DeformSpecError, NumericalError, ValidationError
from .experiments import (
    DEFAULT_TOLERANCES,
    DecayModel,
    _required_points,
    asymptotics_report,
    convergence_study,
    inverse_limit_report,
    rigidity_report,
)
from .fdsolver import refinement_study, validate_against_analytic
from .io import (
    coefficients_to_csv,
    critical_index_to_dict,
    experiment_to_csv,
    fd_report_to_dict,
    read_coefficients,
    sampled_function_to_csv,
    table_to_csv,
    to_json,
    write_experiment_csv_per_series,
)
from .params import OperatorParams, canonical_params, custom_params, deformation_profile, si_params
from .quadrature import SampledFunction, _rule_from_nodes, default_projection_rule, uniform_grid
from .spectrum import critical_index, eigenfunction, eigenvalue, wavenumber
from .transform import gram_matrix, l2_norm, parseval_defect, project, reconstruct

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


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
    p.add_argument("--n-max", type=int, default=16)

    p = sub.add_parser("eigenfunction", parents=[common], help="samples of one eigenfunction")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--grid-points", type=int, default=257)

    sub.add_parser("critical-index", parents=[formats["json"]], help="floor formula vs exact sign change")

    p = sub.add_parser("project", parents=[common], help="coefficients of a target function")
    p.add_argument("--target", default="C")
    p.add_argument("--n-max", type=int, default=16)
    p.add_argument("--nodes", type=int, help="quadrature nodes (Gauss-Legendre up to 4096)")

    p = sub.add_parser("reconstruct", parents=[common], help="partial sum from a coefficient CSV")
    p.add_argument("--coeffs", required=True, help="CSV file with header n,a_n")
    p.add_argument("--grid-points", type=int, default=257)

    p = sub.add_parser("parseval", parents=[formats["json"]], help="norm vs truncated coefficient sum")
    p.add_argument("--target", default="C")
    p.add_argument("--n-max", type=int, default=64)

    p = sub.add_parser("gram", parents=[formats["csv"]], help="pairwise eigenfunction inner products")
    p.add_argument("--n-max", type=int, default=16)
    p.add_argument("--nodes", type=int)

    p = sub.add_parser("fd-validate", parents=[formats["json"]], help="finite-difference cross-validation")
    p.add_argument("--grid-sizes", default="250,500,1000,2000", help="comma-separated m values")
    p.add_argument("--modes", type=int, default=10, dest="n_modes")

    p = sub.add_parser("rigidity", parents=[report], help="uniform-coefficient obstruction")
    p.add_argument("--n-list", default="8,16,32,64")

    p = sub.add_parser("inverse-limit", parents=[report], help="seminorm decay of reconstructions")
    p.add_argument("--A", type=float, default=1.0, dest="amplitude")
    p.add_argument("--beta", type=float, default=2.0, dest="decay_rate")
    p.add_argument("--gamma-mode-decay", type=float, default=1.0, dest="mode_decay")
    p.add_argument("--n-max", type=int, default=32)
    p.add_argument("--tau-list", default="1,2,3,4,5,6,7,8")
    p.add_argument("--k-max", type=int, default=2)

    p = sub.add_parser("asymptotics", parents=[report], help="quadratic-approximant remainder")
    p.add_argument("--n-min", type=int, default=100)
    p.add_argument("--n-max", type=int, default=1000)

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


def _tolerances_from(args) -> dict:
    prefix = args.command.replace("-", "_") + "."
    keys = sorted(key for key in DEFAULT_TOLERANCES if key.startswith(prefix))
    overrides = {}
    for item in args.tol:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValidationError(f"--tol expects KEY=VALUE, got {item!r}")
        if key not in keys:
            raise ValidationError(f"{args.command} reads no tolerance {key!r}; keys: {', '.join(keys)}")
        try:
            tol = float(value)
        except ValueError:
            tol = math.nan
        if not (math.isfinite(tol) and tol > 0):
            raise ValidationError(f"tolerance value for {key!r} must be a finite positive real")
        overrides[key] = tol
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


def _number_list(text: str, flag: str, kind=int) -> list:
    try:
        values = [kind(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValidationError(f"{flag} expects a comma-separated list of {kind.__name__} values") from None
    if not values:
        raise ValidationError(f"{flag} must not be empty")
    return values


def _emit(args, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)


def _meta(args) -> dict | None:
    if args.no_meta:
        return None
    return {"generator": f"deformspec {__version__}", "argv": args.argv}


def _emit_report(args, report) -> int:
    if args.format == "json":
        # the fields in order; dataclasses.asdict would deep-copy every series value
        _emit(args, to_json(vars(report), _meta(args)))
    elif args.output is not None and Path(args.output).is_dir():
        write_experiment_csv_per_series(report, args.output)
    else:
        _emit(args, experiment_to_csv(report))
    return EXIT_OK if report.verdict in ("pass", "documented_discrepancy") else EXIT_VERDICT_FAIL


def _cmd_spectrum(args) -> int:
    if args.n_max < 0:
        raise ValidationError("n_max must be >= 0")
    ns = np.arange(args.n_max + 1)
    header = ["n", "wavenumber", "eigenvalue"]
    columns = [ns.tolist(), wavenumber(args.params, ns).tolist(), eigenvalue(args.params, ns).tolist()]
    if args.format == "csv":
        _emit(args, table_to_csv(header, columns))
    else:
        payload = {"modes": [dict(zip(header, row)) for row in zip(*columns)]}
        _emit(args, to_json(payload, _meta(args)))
    return EXIT_OK


def _cmd_eigenfunction(args) -> int:
    grid = uniform_grid(args.params, args.grid_points - 1)
    values = eigenfunction(args.params, args.n, grid.points)
    _emit(args, sampled_function_to_csv(SampledFunction(grid, values)))
    return EXIT_OK


def _cmd_critical_index(args) -> int:
    payload = critical_index_to_dict(critical_index(args.params))
    if args.format == "json":
        _emit(args, to_json(payload, _meta(args)))
    else:
        _emit(args, table_to_csv(list(payload), [[value] for value in payload.values()]))
    return EXIT_OK


def _cmd_project(args) -> int:
    rule = _rule_from_nodes(args.params, args.nodes, args.n_max)
    f = _target_function(args.target, args.params)
    coeffs = project(args.params, f, args.n_max, rule)
    _emit(args, coefficients_to_csv(coeffs))
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    coeffs = read_coefficients(args.coeffs, args.params)
    grid = uniform_grid(args.params, args.grid_points - 1)
    _emit(args, sampled_function_to_csv(reconstruct(coeffs, grid)))
    return EXIT_OK


def _cmd_parseval(args) -> int:
    f = _target_function(args.target, args.params)
    rule = default_projection_rule(args.params, args.n_max)
    norm = l2_norm(args.params, f, rule)
    defect = parseval_defect(args.params, f, args.n_max, rule)
    payload = {
        "target": args.target,
        "n_max": args.n_max,
        "norm_sq": norm**2,
        "coefficient_sum_sq": norm**2 - defect,
        "defect": defect,
        "relative_defect": defect / norm**2 if norm > 0 else 0.0,
    }
    if args.format == "json":
        _emit(args, to_json(payload, _meta(args)))
    else:
        _emit(args, table_to_csv(["key", "value"], [list(payload), list(payload.values())]))
    return EXIT_OK


def _cmd_gram(args) -> int:
    rule = _rule_from_nodes(args.params, args.nodes, args.n_max)
    matrix = gram_matrix(args.params, args.n_max, rule)
    if args.format == "csv":
        n = len(matrix)
        _emit(args, table_to_csv(["n", *map(str, range(n))], [range(n), *matrix.T]))
    else:
        _emit(args, to_json({"gram": matrix.tolist()}, _meta(args)))
    return EXIT_OK


def _cmd_fd_validate(args) -> int:
    sizes = _number_list(args.grid_sizes, "--grid-sizes")
    if len(sizes) == 1:
        reports = [validate_against_analytic(args.params, sizes[0], args.n_modes)]
    else:
        reports = refinement_study(args.params, sizes, args.n_modes)
    if args.format == "json":
        _emit(args, to_json({"reports": [fd_report_to_dict(r) for r in reports]}, _meta(args)))
    else:
        tables = [
            table_to_csv(
                ["n", "lambda_fd", "lambda_analytic", "abs_err", "rel_err"],
                [range(len(r.eigenvalues_fd)), r.eigenvalues_fd, r.eigenvalues_analytic, r.abs_errors, r.rel_errors],
            )
            for r in reports
        ]
        _emit(args, "".join(tables))
    return EXIT_OK


def _cmd_rigidity(args) -> int:
    report = rigidity_report(args.params, _number_list(args.n_list, "--n-list"), args.tolerances)
    return _emit_report(args, report)


def _cmd_inverse_limit(args) -> int:
    model = DecayModel(args.amplitude, args.decay_rate, args.n_max, args.mode_decay)
    grid = uniform_grid(args.params, max(_required_points(args.n_max, args.k_max), 2048))
    taus = _number_list(args.tau_list, "--tau-list", float)
    report = inverse_limit_report(model, args.params, taus, args.k_max, grid, args.tolerances)
    return _emit_report(args, report)


def _cmd_asymptotics(args) -> int:
    report = asymptotics_report(args.params, args.n_min, args.n_max, args.tolerances)
    return _emit_report(args, report)


def _cmd_converge(args) -> int:
    n_list = _number_list(args.n_list, "--n-list")
    rule = default_projection_rule(args.params, max(n_list))
    f = _target_function(args.target, args.params)
    report = convergence_study(args.params, f, n_list, rule, args.tolerances)
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
        args.params = _params_from(args)
        if "tol" in args:
            args.tolerances = _tolerances_from(args)
        args.argv = argv
        return _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"deformspec: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"deformspec: error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DeformSpecError, OSError) as exc:
        print(f"deformspec: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
