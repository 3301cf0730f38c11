"""Command-line front end.

Every compute module is reachable through a subcommand that writes CSV or
JSON to stdout (or --output).  Exit codes: 0 success / verdict pass,
1 verdict fail, 2 usage, validation or I/O error, 3 numerical error.  Output is
deterministic: identical argv yields byte-identical bytes.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DeformSpecError,
    DomainError,
    EvaluationError,
    FormatError,
    NumericalError,
    ResolutionError,
    ValidationError,
)
from .experiments import (
    DEFAULT_TOLERANCES,
    DecayModel,
    _required_points,
    asymptotics_report,
    convergence_study,
    inverse_limit_report,
    rigidity_report,
)
from .fdsolver import refinement_study
from .io import (
    coefficients_to_csv,
    critical_index_to_dict,
    experiment_to_csv,
    experiment_to_dict,
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


@dataclass
class RunConfig:
    params: OperatorParams
    fmt: str
    output: str | None
    no_meta: bool
    tolerances: dict
    argv: list


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    source = common.add_argument_group("operator parameters (default: canonical)")
    source.add_argument("--hbar", type=float, help="custom hbar (requires --c and --v-c)")
    source.add_argument("--c", type=float, help="custom c")
    source.add_argument("--v-c", dest="v_c", type=float, help="custom v_c")
    source.add_argument("--si", action="store_true", help="SI constants with the critical interval")
    out = common.add_argument_group("output")
    out.add_argument("--format", choices=("csv", "json"), help="override the subcommand default")
    out.add_argument("--output", help="file path (or directory for per-series report CSVs)")
    out.add_argument("--no-meta", action="store_true", help="omit the JSON metadata block")
    out.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=f"tolerance override; keys: {', '.join(sorted(DEFAULT_TOLERANCES))}",
    )

    parser = argparse.ArgumentParser(
        prog="deformspec",
        description="Spectral analysis of the Dirichlet operator pi*(1 + (hbar/c)^2 d^2/dv^2).",
    )
    parser.add_argument("--version", action="version", version=f"deformspec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common], help="closed-form modes 0..n_max")
    p.add_argument("--n-max", type=int, default=16)

    p = sub.add_parser("eigenfunction", parents=[common], help="samples of one eigenfunction")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--grid-points", type=int, default=257)

    sub.add_parser("critical-index", parents=[common], help="floor formula vs exact sign change")

    p = sub.add_parser("project", parents=[common], help="coefficients of a target function")
    p.add_argument("--target", default="C")
    p.add_argument("--n-max", type=int, default=16)
    p.add_argument("--nodes", type=int, help="quadrature nodes (Gauss-Legendre up to 4096)")

    p = sub.add_parser("reconstruct", parents=[common], help="partial sum from a coefficient CSV")
    p.add_argument("--coeffs", required=True, help="CSV file with header n,a_n")
    p.add_argument("--grid-points", type=int, default=257)

    p = sub.add_parser("parseval", parents=[common], help="norm vs truncated coefficient sum")
    p.add_argument("--target", default="C")
    p.add_argument("--n-max", type=int, default=64)

    p = sub.add_parser("gram", parents=[common], help="pairwise eigenfunction inner products")
    p.add_argument("--n-max", type=int, default=16)
    p.add_argument("--nodes", type=int)

    p = sub.add_parser("fd-validate", parents=[common], help="finite-difference cross-validation")
    p.add_argument("--grid-sizes", default="250,500,1000,2000", help="comma-separated m values")
    p.add_argument("--modes", type=int, default=10, dest="n_modes")

    p = sub.add_parser("rigidity", parents=[common], help="uniform-coefficient obstruction")
    p.add_argument("--n-list", default="8,16,32,64")

    p = sub.add_parser("inverse-limit", parents=[common], help="seminorm decay of reconstructions")
    p.add_argument("--A", type=float, default=1.0, dest="amplitude")
    p.add_argument("--beta", type=float, default=2.0, dest="decay_rate")
    p.add_argument("--gamma-mode-decay", type=float, default=1.0, dest="mode_decay")
    p.add_argument("--n-max", type=int, default=32)
    p.add_argument("--tau-list", default="1,2,3,4,5,6,7,8")
    p.add_argument("--k-max", type=int, default=2)

    p = sub.add_parser("asymptotics", parents=[common], help="quadratic-approximant remainder")
    p.add_argument("--n-min", type=int, default=100)
    p.add_argument("--n-max", type=int, default=1000)

    p = sub.add_parser("converge", parents=[common], help="reconstruction convergence study")
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
    overrides = {}
    for item in args.tol:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValidationError(f"--tol expects KEY=VALUE, got {item!r}")
        if key not in DEFAULT_TOLERANCES:
            raise ValidationError(f"unknown tolerance key {key!r}")
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


def _emit(config: RunConfig, text: str) -> None:
    if config.output is None:
        sys.stdout.write(text)
    else:
        Path(config.output).write_text(text)


def _meta(config: RunConfig) -> dict | None:
    if config.no_meta:
        return None
    return {"generator": f"deformspec {__version__}", "argv": config.argv}


def _emit_report(config: RunConfig, report, default_fmt: str = "json") -> int:
    fmt = config.fmt or default_fmt
    if fmt == "json":
        _emit(config, to_json(experiment_to_dict(report), _meta(config)))
    elif config.output is not None and Path(config.output).is_dir():
        write_experiment_csv_per_series(report, config.output)
    else:
        _emit(config, experiment_to_csv(report))
    return EXIT_OK if report.verdict in ("pass", "documented_discrepancy") else EXIT_VERDICT_FAIL


def _cmd_spectrum(args, config: RunConfig) -> int:
    if args.n_max < 0:
        raise ValidationError("n_max must be >= 0")
    ns = np.arange(args.n_max + 1)
    header = ["n", "wavenumber", "eigenvalue"]
    columns = [ns.tolist(), wavenumber(config.params, ns).tolist(), eigenvalue(config.params, ns).tolist()]
    if (config.fmt or "csv") == "csv":
        _emit(config, table_to_csv(header, columns))
    else:
        payload = {"modes": [dict(zip(header, row)) for row in zip(*columns)]}
        _emit(config, to_json(payload, _meta(config)))
    return EXIT_OK


def _cmd_eigenfunction(args, config: RunConfig) -> int:
    grid = uniform_grid(config.params, args.grid_points - 1)
    values = eigenfunction(config.params, args.n, grid.points)
    _emit(config, sampled_function_to_csv(SampledFunction(grid, values)))
    return EXIT_OK


def _cmd_critical_index(args, config: RunConfig) -> int:
    payload = critical_index_to_dict(critical_index(config.params))
    if (config.fmt or "json") == "json":
        _emit(config, to_json(payload, _meta(config)))
    else:
        _emit(config, table_to_csv(list(payload), [[value] for value in payload.values()]))
    return EXIT_OK


def _cmd_project(args, config: RunConfig) -> int:
    rule = _rule_from_nodes(config.params, args.nodes, args.n_max)
    f = _target_function(args.target, config.params)
    coeffs = project(config.params, f, args.n_max, rule)
    _emit(config, coefficients_to_csv(coeffs))
    return EXIT_OK


def _cmd_reconstruct(args, config: RunConfig) -> int:
    coeffs = read_coefficients(args.coeffs, config.params)
    grid = uniform_grid(config.params, args.grid_points - 1)
    _emit(config, sampled_function_to_csv(reconstruct(coeffs, grid)))
    return EXIT_OK


def _cmd_parseval(args, config: RunConfig) -> int:
    f = _target_function(args.target, config.params)
    rule = default_projection_rule(config.params, args.n_max)
    norm = l2_norm(config.params, f, rule)
    defect = parseval_defect(config.params, f, args.n_max, rule)
    payload = {
        "target": args.target,
        "n_max": args.n_max,
        "norm_sq": norm**2,
        "coefficient_sum_sq": norm**2 - defect,
        "defect": defect,
        "relative_defect": defect / norm**2 if norm > 0 else 0.0,
    }
    if (config.fmt or "json") == "json":
        _emit(config, to_json(payload, _meta(config)))
    else:
        _emit(config, table_to_csv(["key", "value"], [list(payload), list(payload.values())]))
    return EXIT_OK


def _cmd_gram(args, config: RunConfig) -> int:
    rule = _rule_from_nodes(config.params, args.nodes, args.n_max)
    matrix = gram_matrix(config.params, args.n_max, rule)
    if (config.fmt or "csv") == "csv":
        n = len(matrix)
        _emit(config, table_to_csv(["n", *map(str, range(n))], [range(n), *matrix.T]))
    else:
        _emit(config, to_json({"gram": matrix.tolist()}, _meta(config)))
    return EXIT_OK


def _cmd_fd_validate(args, config: RunConfig) -> int:
    sizes = _number_list(args.grid_sizes, "--grid-sizes")
    if len(sizes) == 1:
        from .fdsolver import validate_against_analytic

        reports = [validate_against_analytic(config.params, sizes[0], args.n_modes)]
    else:
        reports = refinement_study(config.params, sizes, args.n_modes)
    if (config.fmt or "json") == "json":
        _emit(config, to_json({"reports": [fd_report_to_dict(r) for r in reports]}, _meta(config)))
    else:
        tables = [
            table_to_csv(
                ["n", "lambda_fd", "lambda_analytic", "abs_err", "rel_err"],
                [range(len(r.eigenvalues_fd)), r.eigenvalues_fd, r.eigenvalues_analytic, r.abs_errors, r.rel_errors],
            )
            for r in reports
        ]
        _emit(config, "".join(tables))
    return EXIT_OK


def _cmd_rigidity(args, config: RunConfig) -> int:
    report = rigidity_report(config.params, _number_list(args.n_list, "--n-list"), config.tolerances)
    return _emit_report(config, report)


def _cmd_inverse_limit(args, config: RunConfig) -> int:
    decay = args.mode_decay
    model = DecayModel(
        amplitude=args.amplitude,
        decay_rate=args.decay_rate,
        n_max=args.n_max,
        mode_weights=lambda n: np.exp(-decay * np.asarray(n, dtype=float)),
    )
    grid = uniform_grid(config.params, max(_required_points(args.n_max, args.k_max), 2048))
    taus = _number_list(args.tau_list, "--tau-list", float)
    report = inverse_limit_report(model, config.params, taus, args.k_max, grid, config.tolerances)
    return _emit_report(config, report)


def _cmd_asymptotics(args, config: RunConfig) -> int:
    report = asymptotics_report(config.params, args.n_min, args.n_max, config.tolerances)
    return _emit_report(config, report)


def _cmd_converge(args, config: RunConfig) -> int:
    n_list = _number_list(args.n_list, "--n-list")
    rule = default_projection_rule(config.params, max(n_list))
    f = _target_function(args.target, config.params)
    report = convergence_study(config.params, f, n_list, rule, config.tolerances)
    return _emit_report(config, report)


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
        config = RunConfig(
            params=_params_from(args),
            fmt=args.format,
            output=args.output,
            no_meta=args.no_meta,
            tolerances=_tolerances_from(args),
            argv=argv,
        )
        return _COMMANDS[args.command](args, config)
    except (ValidationError, DomainError, ResolutionError, FormatError, OSError) as exc:
        print(f"deformspec: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"deformspec: error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalError, EvaluationError) as exc:
        print(f"deformspec: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DeformSpecError as exc:
        print(f"deformspec: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
