"""CSV and JSON serialization for the library's data types.

Numbers are printed with 17 significant digits so 64-bit floats survive a
write/read round trip bit-for-bit.  Nothing here emits timestamps: identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import math
from itertools import chain
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
    ``str``; ndarray columns are converted with ``tolist`` first.  Raises
    ``ValueError`` when the columns differ in length.
    """
    columns = [column.tolist() if isinstance(column, np.ndarray) else list(column) for column in columns]
    lengths = [len(column) for column in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    rows = lengths[0] if lengths else 0
    width = len(columns)
    directives, cells = [], [None] * (rows * width)
    for j, column in enumerate(columns):
        directive, column_cells = _column(column)
        directives.append(directive)
        cells[j::width] = column_cells
    template = ",".join(directives) + "\n"
    return ",".join(header) + "\n" + (template * rows) % tuple(cells)


def _column(column: list) -> tuple[str, list]:
    """One ``%`` directive for a whole column, and the cells it takes.

    Columns of exact floats or exact ints are formatted by the directive
    (``bool`` and numpy scalars are not exact ints); any other column is
    formatted cell by cell and written through ``%s``.
    """
    types = set(map(type, column))
    if types == {float}:
        return "%.17g", column
    if types == {int}:
        return "%d", column
    return "%s", [format_float(x) if isinstance(x, float) else str(x) for x in column]


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
    """``json.dumps(doc, indent=2)`` plus a newline, doc being the payload
    with ``meta`` appended; numeric lists and records are written by templates."""
    doc = dict(payload)
    if meta is not None:
        doc["meta"] = meta
    return _json(doc, "\n") + "\n"


def _json(obj, newline: str) -> str:
    """``json.dumps(obj, indent=2)`` for a value whose line starts ``newline``."""
    inner = newline + "  "
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        items = (json.dumps(key) + ": " + _json(value, inner) for key, value in obj.items())
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if type(obj) is list and obj:
        if _plain_numbers(obj):
            body = ("," + inner).join(map(repr, obj))
        elif (records := _records(obj, inner)) is not None:
            body = records
        else:
            body = ("," + inner).join(_json(item, inner) for item in obj)
        return "[" + inner + body + newline + "]"
    return json.dumps(obj, indent=2).replace("\n", newline)


def _records(obj: list, newline: str) -> str | None:
    """A list of dicts with one shared order of ``str`` keys and plain-number
    values, written by one record template; ``None`` for any other list."""
    if set(map(type, obj)) != {dict} or len(set(map(tuple, obj))) != 1:
        return None
    if not obj[0] or not all(type(key) is str for key in obj[0]):
        return None
    values = list(chain.from_iterable(map(dict.values, obj)))
    if not _plain_numbers(values):
        return None
    inner = newline + "  "
    fields = ("," + inner).join(json.dumps(key).replace("%", "%%") + ": %r" for key in obj[0])
    record = "{" + inner + fields + newline + "}"
    return ("," + newline).join([record] * len(obj)) % tuple(values)


def _plain_numbers(values: list) -> bool:
    """Every value an exact int or a finite exact float, which json writes as its repr."""
    if not set(map(type, values)) <= {int, float}:
        return False
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # an int beyond float range: left to json.dumps
        return False
