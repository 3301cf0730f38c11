"""CSV and JSON formats: tables, JSON documents and the coefficient file.

A table is a header and equal-length columns: :func:`write_csv` writes it
as CSV, :func:`write_json` writes it as a list of records when wrapped in
:class:`Records`, and a JSON list of numbers (a plain list, or the innermost
lists of a float array) is a one-column table.  One row writer, :func:`_rows`,
formats every table by a ``%`` row template in blocks of about
:data:`BLOCK_CELLS` cells.  Both writers run every check that can fail before
the first character and write the blocks to a text stream, so their memory
does not grow with the row count.  Numbers are printed with 17 significant
digits so 64-bit floats survive a write/read round trip bit-for-bit.  Nothing
here emits timestamps: identical inputs produce byte-identical output.
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

# Cells formatted per write.  Measured in fresh processes: eigenfunction
# --grid-points 400001 and spectrum --n-max 200000 take the same time from
# 2**12 to 2**16 cells a block, and peak memory grows by about 0.1 kB a cell
# from 2**12 on.
BLOCK_CELLS = 2**12


def format_float(x: float) -> str:
    """Round-trippable decimal rendering of a 64-bit float."""
    return f"{float(x):.17g}"


def format_floats(values: np.ndarray, directive: str) -> np.ndarray:
    """``directive % x`` for every entry x of a float array, as an object array
    of the same shape: ``"%.17g"`` is :func:`format_float` (the cells of the
    Gram CSV), ``"%r"`` json's rendering of a finite float (the cells of a float
    matrix's innermost JSON lists, one-column tables of :func:`_rows`).  Each
    distinct 64-bit pattern is formatted once, so ``-0.0`` and ``0.0`` (and NaN
    payloads) stay apart; this pays off where the values repeat, such as the
    entries of a Gram matrix."""
    values = np.asarray(values, dtype=np.float64)
    keys, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    distinct = ((directive + "\n") * len(keys) % tuple(keys.view(np.float64).tolist())).splitlines()
    return np.array(distinct, dtype=object)[inverse].reshape(values.shape)


def write_csv(stream, header, columns) -> None:
    """CSV table to ``stream``: the header row, then row i holds element i of
    every column.

    The columns are sequences (lists, ranges, ndarrays), sliced block by block.
    A float cell is written by :func:`format_float`, any other cell through
    ``str``; ndarray slices are converted with ``tolist`` first.  A 2-D ndarray
    of strings is a group of adjacent columns, row i its row i.  Raises
    ``ValueError``, before writing anything, when the columns differ in length.
    """
    rows = _row_count(columns)
    stream.write(",".join(header) + "\n")
    stream.writelines(_rows(columns, rows, _column, lambda directives: ",".join(directives) + "\n", ""))


def _row_count(columns) -> int:
    """The common length of the columns; raises ``ValueError`` when they differ."""
    lengths = [len(column) for column in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    return lengths[0] if lengths else 0


def _rows(columns, rows: int, column_format, template, sep: str):
    """The rows of a table as text, one block at a time: a block of ``count``
    rows is ``count`` copies of the row template ``template(directives)``,
    joined by ``sep`` (and led by it after the first block), applied to the
    block's cells interleaved row by row.  ``column_format`` gives each column
    slice's ``%`` directive and cells; ndarray slices go through ``tolist``.
    A 2-D ndarray column (CSV only) is a group of at least one column whose
    cells are already strings: each row's group cells, joined by ``","``,
    fill one ``%s``.

    A block holds :data:`BLOCK_CELLS` cells, each column of a group counted,
    or one row of a table wider than that."""
    groups = [type(column) is np.ndarray and column.ndim == 2 for column in columns]
    width = sum(column.shape[1] if group else 1 for column, group in zip(columns, groups))
    step = max(BLOCK_CELLS // width, 1) if width else 1
    slots = len(columns)
    for start in range(0, rows, step):
        count = min(step, rows - start)
        directives, cells = [], [None] * (count * slots)
        for j, (column, group) in enumerate(zip(columns, groups)):
            block = column[start : start + step]
            if group:
                directive, cells[j::slots] = "%s", map(",".join, block.tolist())
            else:
                directive, cells[j::slots] = column_format(block.tolist() if isinstance(block, np.ndarray) else list(block))
            directives.append(directive)
        yield (sep if start else "") + sep.join([template(directives)] * count) % tuple(cells)


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


def write_coefficients(stream, coeffs: CoefficientVector) -> None:
    """The coefficient CSV that :func:`read_coefficients` parses."""
    write_csv(stream, ["n", "a_n"], [range(len(coeffs.coefficients)), coeffs.coefficients])


def read_coefficients(path, params: OperatorParams) -> CoefficientVector:
    """Parse a coefficient CSV (header ``n,a_n``, consecutive n from 0);
    raises :class:`FormatError` for bytes the text encoding cannot decode."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise FormatError(f"byte {exc.start}: not {exc.encoding} text ({exc.reason})") from None
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
    """A table that :func:`write_json` writes as a list of records, one per row:
    ``[dict(zip(header, row)) for row in zip(*columns)]`` without the dicts.
    The ``str`` field names must be distinct."""

    header: list[str]
    columns: list


def write_json(stream, payload: dict, meta: dict | None = None) -> None:
    """``json.dumps(doc, indent=2)`` plus a newline to ``stream``, doc being the
    payload with ``meta`` appended, each :class:`Records` read as its list of
    dicts and each ndarray as its ``tolist()``.  Every :class:`Records` is
    checked before anything is written; numeric lists, records and float
    arrays are tables of :func:`_rows`."""
    doc = dict(payload)
    if meta is not None:
        doc["meta"] = meta
    pieces = [*_json(doc, "\n"), "\n"]
    stream.writelines(_flatten(pieces))


def _json(obj, newline: str):
    """``json.dumps(obj, indent=2)`` for a value whose line starts ``newline``,
    as pieces: strings, and iterators of strings that format their blocks of a
    long list or table only when written.  Making the pieces runs the checks."""
    if type(obj) is np.ndarray:
        if obj.dtype == np.float64 and obj.ndim and obj.size and np.isfinite(obj).all():
            # a matrix's entries repeat where its structure makes them (a Gram
            # matrix), so each distinct one is formatted once
            yield from _array(obj if obj.ndim == 1 else format_floats(obj, "%r"), newline)
            return
        obj = obj.tolist()
    inner = newline + "  "
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        for i, (key, value) in enumerate(obj.items()):
            yield ("," if i else "{") + inner + json.dumps(key) + ": "
            yield from _json(value, inner)
        yield newline + "}"
    elif type(obj) is Records:
        yield from _records(obj, newline)
    elif type(obj) is list and obj and _plain_numbers(obj):
        yield from _array(obj, newline)
    elif type(obj) is list and obj:
        yield "[" + inner
        for i, item in enumerate(obj):
            if i:
                yield "," + inner
            yield from _json(item, inner)
        yield newline + "]"
    else:
        yield json.dumps(obj, indent=2).replace("\n", newline)


def _flatten(pieces):
    """The strings of :func:`_json`'s pieces, in order."""
    for piece in pieces:
        if type(piece) is str:
            yield piece
        else:
            yield from piece


def _array(values, newline: str):
    """A list of plain numbers, or an array (no empty axis) of finite floats or
    of their ``%r`` strings, as nested JSON lists; each innermost list is a
    one-column table whose cells are written by ``%s`` (``str`` of an exact int
    or float is its ``repr``)."""
    inner = newline + "  "
    yield "[" + inner
    if type(values) is list or values.ndim == 1:
        yield _rows([values], len(values), lambda column: ("%s", column), "".join, "," + inner)
    else:
        for i, row in enumerate(values):
            if i:
                yield "," + inner
            yield from _array(row, inner)
    yield newline + "]"


def _records(table: Records, newline: str):
    """The records as a table of :func:`_rows`, the record its row template: a
    column's block of plain numbers by ``%r``, any other block by ``%s`` of each
    value's JSON.  Raises ``ValueError``, when the pieces are made and so before
    the first character is written, unless the header names each column once
    and the columns are equal in length."""
    header, columns = table
    if len(header) != len(columns) or len(set(header)) != len(header):
        raise ValueError(f"{len(header)} field names for {len(columns)} columns, or a name repeated: {header}")
    rows = _row_count(columns)
    if not rows:
        yield "[]"
        return
    inner, field = newline + "  ", newline + "    "
    names = [json.dumps(key).replace("%", "%%") + ": " for key in header]

    def column_format(column: list) -> tuple[str, list]:
        if _plain_numbers(column):
            return "%r", column
        return "%s", ["".join(_flatten(_json(value, field))) for value in column]

    def record(directives: list) -> str:
        return "{" + field + ("," + field).join(map(str.__add__, names, directives)) + inner + "}"

    yield "[" + inner
    yield _rows(columns, rows, column_format, record, "," + inner)
    yield newline + "]"


def _plain_numbers(values: list) -> bool:
    """Every value an exact int or a finite exact float, which json writes as its repr."""
    if not set(map(type, values)) <= {int, float}:
        return False
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # an int beyond float range: left to json.dumps
        return False
