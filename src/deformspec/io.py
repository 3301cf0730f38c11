"""CSV and JSON formats: tables, JSON documents and the coefficient file.

A table is a header and equal-length columns: :func:`table_to_csv` writes it
as CSV, :func:`to_json` writes it as a list of records when wrapped in
:class:`Records`.  Numbers are printed with 17 significant digits so 64-bit
floats survive a write/read round trip bit-for-bit.  Nothing here emits
timestamps: identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import FormatError
from .params import OperatorParams
from .transform import CoefficientVector


def format_float(x: float) -> str:
    """Round-trippable decimal rendering of a 64-bit float."""
    return f"{float(x):.17g}"


def format_floats(values: np.ndarray) -> np.ndarray:
    """:func:`format_float` of every entry of a float array, as an object array
    of the same shape.  Each distinct 64-bit pattern is formatted once, so
    ``-0.0`` and ``0.0`` (and NaN payloads) stay apart; this pays off where
    the values repeat, such as the entries of a Gram matrix."""
    values = np.asarray(values, dtype=np.float64)
    keys, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    distinct = ("%.17g\n" * len(keys) % tuple(keys.view(np.float64).tolist())).splitlines()
    return np.array(distinct, dtype=object)[inverse].reshape(values.shape)


def table_to_csv(header, columns) -> str:
    """CSV table: the header row, then row i holds element i of every column.

    A float cell is written by :func:`format_float`, any other cell through
    ``str``; ndarray columns are converted with ``tolist`` first.  Raises
    ``ValueError`` when the columns differ in length.
    """
    directives, cells, rows = _interleave(columns, _column)
    head = ",".join(header).replace("%", "%%") + "\n"
    return (head + (",".join(directives) + "\n") * rows) % tuple(cells)


def _interleave(columns, column_format) -> tuple[list[str], list, int]:
    """Each column's ``%`` directive and cells by ``column_format``, the cells
    interleaved row by row, and the row count; ndarray columns go through
    ``tolist``.  Raises ``ValueError`` when the columns differ in length."""
    columns = [column.tolist() if isinstance(column, np.ndarray) else list(column) for column in columns]
    lengths = [len(column) for column in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    rows = lengths[0] if lengths else 0
    width = len(columns)
    directives, cells = [], [None] * (rows * width)
    for j, column in enumerate(columns):
        directive, column_cells = column_format(column)
        directives.append(directive)
        cells[j::width] = column_cells
    return directives, cells, rows


def _column(column: list) -> tuple[str, list]:
    """One ``%`` directive for a whole column, and the cells it takes.

    Columns of exact floats, exact ints or exact strs are formatted by the
    directive (``bool`` and numpy scalars are not exact ints); any other
    column is formatted cell by cell and written through ``%s``.
    """
    types = set(map(type, column))
    if types == {float}:
        return "%.17g", column
    if types == {int}:
        return "%d", column
    if types == {str}:
        return "%s", column
    return "%s", [format_float(x) if isinstance(x, float) else str(x) for x in column]


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


class Records(NamedTuple):
    """A table that :func:`to_json` writes as a list of records, one per row:
    ``[dict(zip(header, row)) for row in zip(*columns)]`` without the dicts.
    The ``str`` field names must be distinct."""

    header: list[str]
    columns: list


def to_json(payload: dict, meta: dict | None = None) -> str:
    """``json.dumps(doc, indent=2)`` plus a newline, doc being the payload
    with ``meta`` appended and each :class:`Records` read as its list of
    dicts; numeric lists and records are written by templates."""
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
    if type(obj) is Records:
        return _records(obj, newline)
    if type(obj) is list and obj:
        if _plain_numbers(obj):
            body = ("," + inner).join(map(repr, obj))
        else:
            body = ("," + inner).join(_json(item, inner) for item in obj)
        return "[" + inner + body + newline + "]"
    return json.dumps(obj, indent=2).replace("\n", newline)


def _records(table: Records, newline: str) -> str:
    """The records by one template: ``%r`` for a column of plain numbers,
    any other column cell by cell.  Raises ``ValueError`` unless the header
    names each column once and the columns are equal in length."""
    header, columns = table
    if len(header) != len(columns) or len(set(header)) != len(header):
        raise ValueError(f"{len(header)} field names for {len(columns)} columns, or a name repeated: {header}")
    inner, field = newline + "  ", newline + "    "

    def column_format(column: list) -> tuple[str, list]:
        if _plain_numbers(column):
            return "%r", column
        return "%s", [_json(value, field) for value in column]

    directives, cells, rows = _interleave(columns, column_format)
    if not rows:
        return "[]"
    fields = ("," + field).join(json.dumps(key).replace("%", "%%") + ": " + d for key, d in zip(header, directives))
    record = "{" + field + fields + inner + "}"
    return "[" + inner + ("," + inner).join([record] * rows) % tuple(cells) + newline + "]"


def _plain_numbers(values: list) -> bool:
    """Every value an exact int or a finite exact float, which json writes as its repr."""
    if not set(map(type, values)) <= {int, float}:
        return False
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # an int beyond float range: left to json.dumps
        return False
