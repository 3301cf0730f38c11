"""CSV and JSON serialization for the library's data types.

Numbers are printed with 17 significant digits so 64-bit floats survive a
write/read round trip bit-for-bit.  Nothing here emits timestamps: identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import FormatError
from .experiments import ExperimentReport
from .fdsolver import FDSpectrumReport
from .params import OperatorParams
from .quadrature import SampledFunction
from .spectrum import CriticalIndexReport
from .transform import CoefficientVector


def format_float(x: float) -> str:
    """Round-trippable decimal rendering of a 64-bit float."""
    return f"{float(x):.17g}"


def table_to_csv(header, columns) -> str:
    """CSV table: the header row, then row i holds element i of every column.

    A float cell is written by :func:`format_float`, any other cell through
    ``str``; ndarray columns are converted with ``tolist`` first.
    """
    cells = [_cells(column) for column in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def _cells(column) -> list:
    if isinstance(column, np.ndarray):
        column = column.tolist()
    return [format_float(x) if isinstance(x, float) else str(x) for x in column]


def sampled_function_to_csv(sf: SampledFunction) -> str:
    return table_to_csv(["v", "f"], [sf.grid.points, sf.values])


def coefficients_to_csv(coeffs: CoefficientVector) -> str:
    return table_to_csv(["n", "a_n"], [range(len(coeffs.coefficients)), coeffs.coefficients])


def read_coefficients(path, params: OperatorParams) -> CoefficientVector:
    """Parse a coefficient CSV (header ``n,a_n``, consecutive n from 0)."""
    text = Path(path).read_text()
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0].strip() != "n,a_n":
        raise FormatError("line 1: expected header 'n,a_n'")
    values = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected two comma-separated fields")
        try:
            n = int(parts[0])
            a = float(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: could not parse '{line}'") from None
        if n != len(values):
            raise FormatError(f"line {lineno}: expected n={len(values)}, found n={n}")
        if not math.isfinite(a):
            raise FormatError(f"line {lineno}: non-finite coefficient {parts[1]!r}")
        values.append(a)
    if not values:
        raise FormatError("no coefficient rows found")
    return CoefficientVector(params=params, coefficients=np.array(values))


def critical_index_to_dict(report: CriticalIndexReport) -> dict:
    return {
        "x": report.x,
        "n_star_paper": report.n_star_paper,
        "n_star_exact": report.n_star_exact if report.n_star_exact is not None else "none",
        "agree": report.agree,
    }


def fd_report_to_dict(report: FDSpectrumReport) -> dict:
    return {
        "grid": {"m": report.m, "h": report.h},
        "convergence_order": None if math.isnan(report.convergence_order) else report.convergence_order,
        "eigenvalues_fd": report.eigenvalues_fd.tolist(),
        "eigenvalues_analytic": report.eigenvalues_analytic.tolist(),
        "abs_errors": report.abs_errors.tolist(),
        "rel_errors": report.rel_errors.tolist(),
    }


def experiment_to_dict(report: ExperimentReport) -> dict:
    return {
        "name": report.name,
        "inputs": report.inputs,
        "tolerances": report.tolerances,
        "series": report.series,
        "verdict": report.verdict,
    }


def experiment_to_csv(report: ExperimentReport) -> str:
    """Long-format table: one row per (series column, index, value)."""
    names, index, values = [], [], []
    for column, series in report.series.items():
        names += [column] * len(series)
        index += range(len(series))
        values += series
    return table_to_csv(["series", "index", "value"], [names, index, values])


def write_experiment_csv_per_series(report: ExperimentReport, directory) -> list[Path]:
    """One CSV file per series column, named <report>__<column>.csv."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for column, series in report.series.items():
        path = directory / f"{report.name}__{column}.csv"
        path.write_text(table_to_csv(["index", "value"], [range(len(series)), series]))
        written.append(path)
    return written


def to_json(payload: dict, meta: dict | None = None) -> str:
    doc = dict(payload)
    if meta is not None:
        doc["meta"] = meta
    return json.dumps(doc, indent=2) + "\n"
