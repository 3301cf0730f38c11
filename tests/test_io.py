"""The CSV and JSON writers against the writers they replaced.

``oracle_table_to_csv`` (one ``format_float`` or ``str`` call per cell, rows
joined by ``zip``) and ``oracle_to_json`` (plain ``json.dumps(indent=2)``) are
the writers ``deformspec.io`` used before its row and record templates and
its blocks; ``oracle_format_floats`` formats every entry, where
``format_floats`` formats each distinct value once.  Every output must equal
theirs as a string.

Run as a script, the module compares the sha256 of CLI outputs at benchmark
size, on stdout and written to ``--output``, with those of the same commands
written by the oracles, and exits 1 on any difference::

    PYTHONPATH=src python tests/test_io.py
"""

import ast
import contextlib
import hashlib
import json
import math
import os
import sys
import tempfile
from io import StringIO
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deformspec.io as writers
from deformspec import cli
from deformspec.io import BLOCK_CELLS, Records, format_floats, write_csv, write_json


def table_to_csv(header, columns) -> str:
    """What ``write_csv`` writes, as a string."""
    out = StringIO()
    write_csv(out, header, columns)
    return out.getvalue()


def to_json(payload: dict, meta: dict | None = None) -> str:
    """What ``write_json`` writes, as a string."""
    out = StringIO()
    write_json(out, payload, meta)
    return out.getvalue()


def oracle_format_float(x) -> str:
    return f"{float(x):.17g}"


def oracle_format_floats(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    cells = np.empty(values.shape, dtype=object)
    for index, x in np.ndenumerate(values):
        cells[index] = oracle_format_float(x)
    return cells


def oracle_cells(column) -> list:
    if isinstance(column, np.ndarray):
        column = column.tolist()
    return [oracle_format_float(x) if isinstance(x, float) else str(x) for x in column]


def oracle_table_to_csv(header, columns) -> str:
    cells = [oracle_cells(column) for column in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def oracle_to_json(payload: dict, meta: dict | None = None) -> str:
    doc = dict(payload)
    if meta is not None:
        doc["meta"] = meta
    return json.dumps(doc, indent=2) + "\n"


def oracle_records(value):
    """``value`` with every ``Records`` in it expanded into its list of dicts."""
    if isinstance(value, Records):
        return [dict(zip(value.header, row)) for row in zip(*value.columns)]
    if isinstance(value, dict):
        return {key: oracle_records(item) for key, item in value.items()}
    if isinstance(value, list):
        return [oracle_records(item) for item in value]
    return value


def oracle_records_to_json(payload: dict, meta: dict | None = None) -> str:
    return oracle_to_json(oracle_records(payload), meta)


def oracle_lists(value):
    """``value`` with every ndarray in it, ``Records`` columns included, read by
    ``tolist``, as the CLI handed its arrays to the writers before they streamed."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Records):
        return Records(value.header, [oracle_lists(column) for column in value.columns])
    if isinstance(value, dict):
        return {key: oracle_lists(item) for key, item in value.items()}
    if isinstance(value, list):
        return [oracle_lists(item) for item in value]
    return value


def oracle_write_csv(stream, header, columns):
    stream.write(oracle_table_to_csv(header, columns))


def oracle_write_json(stream, payload, meta=None):
    stream.write(oracle_records_to_json(oracle_lists(payload), meta))


def oracle_cmd_gram(args) -> int:
    """``gram``, its CSV built from every entry of the full matrix, one format
    per entry, as the CLI wrote it before it formatted the upper triangle."""
    if args.format == "json":
        return cli._cmd_gram(args)
    rule = cli.default_projection_rule(args.params, args.n_max, args.nodes)
    matrix = cli.gram_matrix(args.params, args.n_max, rule)
    n = len(matrix)
    cli._emit(args, oracle_write_csv, ["n", *map(str, range(n))], [range(n), *oracle_format_floats(matrix.T)])
    return cli.EXIT_OK


def cli_output(argv, oracle: bool = False, to_file: bool = False) -> bytes:
    """stdout of ``deformspec argv``, written by the oracles when ``oracle``;
    with ``to_file``, the bytes of ``deformspec argv --output out`` run in an
    empty working directory, so that a JSON meta block's argv is the same on
    every run."""
    out = StringIO()
    with contextlib.ExitStack() as stack:
        if oracle:
            # the io writers call write_csv through their module's globals
            stack.enter_context(mock.patch.object(writers, "write_csv", oracle_write_csv))
            stack.enter_context(mock.patch.object(cli, "write_csv", oracle_write_csv))
            stack.enter_context(mock.patch.object(cli, "write_json", oracle_write_json))
            stack.enter_context(mock.patch.dict(cli._COMMANDS, {"gram": oracle_cmd_gram}))
        if to_file:
            stack.callback(os.chdir, os.getcwd())
            os.chdir(stack.enter_context(tempfile.TemporaryDirectory()))
            argv = [*argv, "--output", "out"]
        stack.enter_context(contextlib.redirect_stdout(out))
        code = cli.run(list(argv))
        if code != 0:
            raise RuntimeError(f"deformspec {' '.join(argv)} exited {code}")
        if to_file:
            assert out.getvalue() == ""
            return Path("out").read_bytes()
    return out.getvalue().encode()


FLOAT_EDGES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
floats = st.floats() | st.sampled_from(FLOAT_EDGES)
# past 2**53, %.17g of the int's float would differ from str
ints = st.integers() | st.integers(min_value=2**53, max_value=2**80) | st.integers(max_value=-(2**53))
texts = st.text(alphabet=st.sampled_from("%sdr.,-aé0 \"\\\n"), max_size=6)

CELLS = {
    "float": floats,
    "int": ints,
    "bool": st.booleans(),
    "int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "float64": floats.map(np.float64),
    "str": texts,
}
CELLS["mixed"] = st.one_of(*CELLS.values())


@st.composite
def tables(draw):
    rows = draw(st.integers(0, 12))
    columns = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from([*CELLS, "range"]))
        if kind == "range":
            columns.append(range(rows))
            continue
        column = draw(st.lists(CELLS[kind], min_size=rows, max_size=rows))
        if kind in ("float", "bool", "int64", "float64") and draw(st.booleans()):
            column = np.array(column)
        columns.append(column)
    # headers such as "%s" or "%d" would be live directives in the row template if unescaped
    return [draw(texts) for _ in columns], columns


class TestTableToCsv:
    @settings(max_examples=250, deadline=None)
    @given(tables())
    def test_equals_oracle(self, table):
        assert table_to_csv(*table) == oracle_table_to_csv(*table)

    @pytest.mark.parametrize(
        "column",
        [
            FLOAT_EDGES,
            [2**53 + 1, -(2**60) - 1, 10**30, 0],
            [True, False],
            [np.int64(7), np.float64(0.1), np.float64(math.nan)],
            ["100%", "%d", "%s%%"],
            [1, 2.5, "x", None, True],
            [],
        ],
    )
    def test_edge_columns_equal_oracle(self, column):
        table = (["a", "b"], [range(len(column)), column])
        assert table_to_csv(*table) == oracle_table_to_csv(*table)

    def test_ragged_columns_raise(self):
        with pytest.raises(ValueError, match=r"columns differ in length: \[3, 1\]"):
            table_to_csv(["a", "b"], [[1.0, 2.0, 3.0], [4]])


def nan_with_payload(payload: int, sign: int = 0) -> float:
    return np.array([(sign << 63) | (0x7FF << 52) | payload], dtype=np.uint64).view(np.float64)[0]


NANS = [nan_with_payload(1 << 51), nan_with_payload(1), nan_with_payload(12345, sign=1), nan_with_payload((1 << 52) - 1)]


def assert_formats_like_oracle(values):
    cells = format_floats(values, "%.17g")
    assert cells.dtype == object and cells.shape == np.shape(values)
    assert cells.tolist() == oracle_format_floats(values).tolist()
    finite = np.asarray(values)[np.isfinite(values)]
    assert format_floats(finite, "%r").tolist() == [json.dumps(x) for x in finite.tolist()]


class TestFormatFloats:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(floats | st.sampled_from(NANS), min_size=1, max_size=6),
        st.integers(0, 9),
        st.integers(0, 9),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_equals_oracle_with_repeats(self, pool, rows, cols, transpose, random):
        values = np.array([random.choice(pool) for _ in range(rows * cols)]).reshape(rows, cols)
        assert_formats_like_oracle(values.T if transpose else values)

    @pytest.mark.parametrize(
        "values",
        [
            np.array(FLOAT_EDGES),
            np.array(NANS),
            np.array([-0.0, 0.0] * 50 + [5e-324, -5e-324] * 3),
            np.full((1, 1), -0.0),
            np.empty((0, 0)),
            np.empty((3, 0)),
            np.arange(12.0).reshape(3, 4).T / 7,
            np.tile(np.array(FLOAT_EDGES + NANS), (5, 3)).T,
        ],
        ids=["edges", "nan-payloads", "signed-zeros", "1x1", "0x0", "3x0", "transposed", "transposed-repeats"],
    )
    def test_edge_arrays_equal_oracle(self, values):
        assert_formats_like_oracle(values)

    def test_repeats_share_one_string(self):
        for directive in ("%.17g", "%r"):
            cells = format_floats(np.array([0.1, 0.2, 0.1, 0.1]), directive)
            assert cells[0] is cells[2] is cells[3] and cells[0] is not cells[1]


json_floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])
json_leaves = st.none() | st.booleans() | ints | json_floats | st.text(max_size=5)
json_keys = st.text(max_size=4) | st.integers() | json_floats | st.booleans() | st.none()
json_values = st.recursive(
    json_leaves,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(ints | json_floats, max_size=6)
        | st.tuples(children, children)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
        | st.dictionaries(json_keys, children, max_size=3)
    ),
    max_leaves=25,
)
plain_numbers = st.integers() | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def record_lists(draw):
    """Records that share one key order, or that break the record template
    in one place: key order, keys, or a value json writes differently."""
    key = st.text(alphabet=st.sampled_from("n%a_é\"\\"), max_size=3) | st.integers(0, 2) | st.none()
    keys = draw(st.lists(key, max_size=4, unique=True))
    records = [
        dict(zip(keys, draw(st.lists(plain_numbers, min_size=len(keys), max_size=len(keys)))))
        for _ in range(draw(st.integers(1, 5)))
    ]
    last = records[-1]
    change = draw(st.sampled_from(["none", "reorder", "extra-key", "drop-key", "value"]))
    if change == "reorder":
        records[-1] = dict(reversed(last.items()))
    elif change == "extra-key":
        last["extra"] = 1
    elif change == "drop-key" and last:
        del last[next(iter(last))]
    elif change == "value" and last:
        last[next(iter(last))] = draw(st.sampled_from([math.nan, math.inf, -math.inf, True, None, "x", 10**400]))
    return records


class TestToJson:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(max_size=4), json_values, max_size=4), st.none() | json_values)
    def test_equals_oracle(self, payload, meta):
        assert to_json(payload, meta) == oracle_to_json(payload, meta)

    @settings(max_examples=200, deadline=None)
    @given(record_lists())
    def test_records_equal_oracle(self, records):
        payload = {"modes": records, "nested": [records, {"r": records}]}
        assert to_json(payload) == oracle_to_json(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            {"a": [], "b": {}, "c": [[]], "d": [{}], "e": ()},
            {"leaf": [1, 2.5, math.nan, -math.inf], "t": (1, [2.0, math.inf]), "s": "ünïcode ✓"},
            {"r": [{"n": 0, "x": math.inf}, {"n": 1, "x": 0.5}], "b": [{"ok": True}, {"ok": False}]},
            {"k": {True: 1, 1.5: [2], None: 3, 7: 4, math.nan: 5}},
            {"r": [{1: 2.0, None: 3}, {1: 4.0, None: 5}]},
            {"%": [{"%d": 1, "%s": 2.0}]},
        ],
    )
    def test_edge_documents_equal_oracle(self, payload):
        assert to_json(payload, {"argv": ["x"]}) == oracle_to_json(payload, {"argv": ["x"]})


# past float range, or not written as a repr by json
unplain_numbers = st.sampled_from([10**400, -(10**400), math.nan, math.inf, -math.inf])
RECORD_CELLS = [
    ints | st.floats(allow_nan=False, allow_infinity=False),
    ints | st.floats(allow_nan=False, allow_infinity=False) | unplain_numbers,
    ints | json_floats | unplain_numbers | st.booleans() | st.none() | st.text(max_size=4),
    st.booleans() | st.none(),
    st.text(alphabet=st.sampled_from("%sdr,é✓\"\\\n"), max_size=4),
]


@st.composite
def record_tables(draw):
    rows = draw(st.integers(0, 6))
    header = draw(st.lists(st.text(alphabet=st.sampled_from("n%sd_é✓\"\\"), max_size=3), max_size=4, unique=True))
    columns = [draw(st.lists(draw(st.sampled_from(RECORD_CELLS)), min_size=rows, max_size=rows)) for _ in header]
    return Records(header, columns)


class TestRecords:
    @settings(max_examples=250, deadline=None)
    @given(record_tables(), st.none() | json_values)
    def test_equals_oracle(self, table, meta):
        payload = {"modes": table}
        assert to_json(payload, meta) == oracle_records_to_json(payload, meta)

    @settings(max_examples=100, deadline=None)
    @given(record_tables())
    def test_nested_equals_oracle(self, table):
        payload = {"nested": [table, {"r": table}], "modes": table}
        assert to_json(payload) == oracle_records_to_json(payload)

    def test_zero_rows_write_an_empty_list(self):
        assert to_json({"modes": Records(["n", "x"], [[], np.array([])])}) == '{\n  "modes": []\n}\n'

    @pytest.mark.parametrize(
        "table",
        [
            Records(["n", "x"], [[0, 1, 2], [0.5]]),
            Records(["n"], [[0], [1.0]]),
            Records(["n", "x"], [[0]]),
            Records(["n", "n"], [[0], [1.0]]),
        ],
        ids=["ragged", "fewer-names", "fewer-columns", "repeated-name"],
    )
    def test_malformed_tables_raise(self, table):
        with pytest.raises(ValueError):
            to_json({"modes": table})


float_arrays = st.builds(
    lambda shape, pool, random: np.array([random.choice(pool) for _ in range(math.prod(shape))]).reshape(shape),
    st.lists(st.integers(0, 4), min_size=1, max_size=3).map(tuple),
    st.lists(floats, min_size=1, max_size=4),
    st.randoms(use_true_random=False),
)


class TestArrays:
    """ndarrays in a JSON payload are written as their ``tolist()``."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(float_arrays | st.lists(CELLS["int64"], max_size=5).map(np.array), max_size=3))
    def test_equal_oracle(self, arrays):
        payload = {"a": arrays, "first": arrays[0] if arrays else np.empty(0)}
        assert to_json(payload) == oracle_to_json(oracle_lists(payload))

    @pytest.mark.parametrize(
        "values",
        [np.full(0, 0.5), np.array(FLOAT_EDGES), np.array([[-0.0, 0.0], [0.0, -0.0]]), np.zeros((3, 0)), np.array(2.5)],
        ids=["empty", "edges", "signed-zeros", "3x0", "0-d"],
    )
    def test_edge_arrays_equal_oracle(self, values):
        assert to_json({"x": values}) == oracle_to_json({"x": values.tolist()})

    def test_float_arrays_format_each_distinct_value_once(self):
        matrix = np.add.outer(np.arange(40.0), np.arange(40.0)) / 3
        with mock.patch.object(writers, "format_floats", wraps=writers.format_floats) as spy:
            assert to_json({"gram": matrix}) == oracle_to_json({"gram": matrix.tolist()})
        spy.assert_called_once()
        assert spy.call_args.args[1] == "%r"


def block_rows(width: int) -> int:
    """Rows the writers format per block for a table of ``width`` columns."""
    return max(BLOCK_CELLS // width, 1)


def boundary_columns(rows: int) -> list:
    """Three columns, one a float array; the last changes cell type at each
    block boundary and holds a non-finite float and a bool one row before the
    first, so one block is written cell by cell."""
    block = block_rows(3)
    kinds = [lambda i: i / 8, lambda i: i, lambda i: f"s{i}"]
    mixed = [kinds[min(i // block, 2)](i) for i in range(rows)]
    if rows >= block:
        mixed[block - 2 : block] = [math.inf, True]
    return [range(rows), np.arange(rows) / 7, mixed]


BOUNDARY_ROWS = [0, block_rows(3) - 1, block_rows(3), block_rows(3) + 1, 2 * block_rows(3) + 1]
# a table of SQUARE_ROWS columns has blocks of SQUARE_ROWS rows
SQUARE_ROWS = math.isqrt(BLOCK_CELLS)
GROUP_ROWS = [0, SQUARE_ROWS - 1, SQUARE_ROWS, SQUARE_ROWS + 1, 2 * SQUARE_ROWS + 1]


def group_table(rows: int, width: int = SQUARE_ROWS - 2):
    """A header and three columns: ``range(rows)``, a ``rows`` x ``width``
    group of float strings with ``"-0"`` and ``"0"`` cells, and a float array;
    each group cell counts, so by default the table is ``SQUARE_ROWS``
    cells wide and its blocks hold ``SQUARE_ROWS`` rows."""
    values = np.subtract.outer(np.arange(rows), np.arange(width)) % 5 / 3
    values[::3, 1::4] = -0.0
    group = oracle_format_floats(values)
    assert rows < 2 or {"-0", "0"} <= set(group.ravel())
    header = ["n", *(f"g{j}" for j in range(width)), "x"]
    return header, [range(rows), group, np.arange(rows) / 7]


class Pieces:
    """A text stream that keeps each string written to it."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)

    def writelines(self, texts):
        self.pieces.extend(texts)


class TestBlocks:
    """Outputs at and around the block boundaries equal the oracles'."""

    @pytest.mark.parametrize("rows", BOUNDARY_ROWS)
    def test_csv(self, rows):
        table = (["n", "x", "%mixed"], boundary_columns(rows))
        assert table_to_csv(*table) == oracle_table_to_csv(*table)

    @pytest.mark.parametrize("rows", BOUNDARY_ROWS)
    def test_records(self, rows):
        payload = {"modes": Records(["n", "x", "%mixed"], boundary_columns(rows)), "after": [1, 2.5]}
        assert to_json(payload, {"argv": []}) == oracle_records_to_json(oracle_lists(payload), {"argv": []})

    @pytest.mark.parametrize("length", [0, BLOCK_CELLS - 1, BLOCK_CELLS, BLOCK_CELLS + 1, 2 * BLOCK_CELLS + 1])
    def test_json_lists_and_arrays(self, length):
        values = np.arange(length) / 3
        payload = {"list": values.tolist(), "array": values, "ints": list(range(length))}
        assert to_json(payload) == oracle_to_json(oracle_lists(payload))

    @pytest.mark.parametrize("offset", [-1, 0, 1, SQUARE_ROWS + 1])
    def test_gram(self, offset):
        # an n-row Gram CSV has n + 1 columns, so one block holds all of it
        # up to n = SQUARE_ROWS - 1 and BLOCK_CELLS // (n + 1) rows from there on
        n = SQUARE_ROWS + offset
        matrix = np.subtract.outer(np.arange(n), np.arange(n)) % 4 / 3
        matrix[0, 1] = -0.0
        header = ["n", *map(str, range(n))]
        csv = table_to_csv(header, [range(n), *format_floats(matrix.T, "%.17g")])
        assert csv == oracle_table_to_csv(header, [range(n), *oracle_format_floats(matrix.T)])
        out = Pieces()
        write_csv(out, header, [range(n), format_floats(matrix, "%.17g")])
        assert "".join(out.pieces) == csv
        assert len(out.pieces) == 1 + -(-n // block_rows(n + 1))
        assert to_json({"gram": matrix}) == oracle_to_json({"gram": matrix.tolist()})

    @pytest.mark.parametrize("rows", GROUP_ROWS)
    def test_string_group(self, rows):
        # a 2-D string array between two columns is its own columns, row i its row i
        header, columns = group_table(rows)
        assert table_to_csv(header, columns) == oracle_table_to_csv(header, [columns[0], *columns[1].T, columns[2]])

    def test_string_group_blocks_count_every_cell(self):
        header, columns = group_table(2 * SQUARE_ROWS + 1)
        out = Pieces()
        write_csv(out, header, columns)
        assert [piece.count("\n") for piece in out.pieces] == [1, SQUARE_ROWS, SQUARE_ROWS, 1]

    def test_table_wider_than_a_block_writes_a_row_a_block(self):
        header, columns = group_table(3, BLOCK_CELLS)
        out = Pieces()
        write_csv(out, header, columns)
        assert [piece.count("\n") for piece in out.pieces] == [1, 1, 1, 1]
        assert "".join(out.pieces) == oracle_table_to_csv(header, [columns[0], *columns[1].T, columns[2]])

    def test_gram_without_rows(self):
        matrix = np.empty((0, 0))
        assert table_to_csv(["n"], [range(0)]) == oracle_table_to_csv(["n"], [range(0)])
        assert to_json({"gram": matrix}) == oracle_to_json({"gram": []})


class TestChecksFirst:
    """A table the writers reject leaves the target stream empty."""

    def test_ragged_table(self):
        out = StringIO()
        with pytest.raises(ValueError, match="columns differ in length"):
            write_csv(out, ["a", "b"], [np.arange(2 * BLOCK_CELLS) / 3, [1.0]])
        assert out.getvalue() == ""

    @pytest.mark.parametrize("group_rows", [SQUARE_ROWS, SQUARE_ROWS + 2])
    def test_string_group_of_another_length(self, group_rows):
        header, columns = group_table(SQUARE_ROWS + 1)
        columns[1] = group_table(group_rows)[1][1]
        out = StringIO()
        with pytest.raises(ValueError, match="columns differ in length"):
            write_csv(out, header, columns)
        assert out.getvalue() == ""

    @pytest.mark.parametrize(
        "table",
        [
            Records(["n", "x"], [range(BLOCK_CELLS), [0.5]]),
            Records(["n"], [[0], [1.0]]),
            Records(["n", "x"], [[0]]),
            Records(["n", "n"], [[0], [1.0]]),
        ],
        ids=["ragged", "fewer-names", "fewer-columns", "repeated-name"],
    )
    def test_malformed_records_after_other_output(self, table):
        out = StringIO()
        payload = {"before": np.arange(BLOCK_CELLS + 1) / 3, "good": Records(["n"], [range(5)]), "nested": [{"t": table}]}
        with pytest.raises(ValueError):
            write_json(out, payload, {"argv": []})
        assert out.getvalue() == ""


def test_io_imports_no_compute_module_but_params_and_transform():
    """io writes formats; laying out other modules' results is the CLI's job."""
    tree = ast.parse(Path(writers.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."), (alias.name for alias in node.names))
        elif isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
    assert not names & {"experiments", "fdsolver", "quadrature", "spectrum", "cli"}


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--n-max", "20000", "--format", "json"],
        ["spectrum", "--n-max", "20000"],
        ["eigenfunction", "--n", "137", "--grid-points", "40001"],
        ["gram", "--n-max", "64", "--nodes", "4097"],
        ["gram", "--n-max", "64"],
        ["gram", "--n-max", "64", "--format", "json"],
        ["fd-validate", "--grid-sizes", "40,80", "--modes", "3", "--format", "csv"],
        ["fd-validate", "--grid-sizes", "40,80", "--modes", "3"],
        ["asymptotics", "--n-min", "1", "--n-max", "20000"],
    ],
)
def test_cli_output_equals_oracle(argv):
    assert cli_output(argv) == cli_output(argv, oracle=True)


BENCHMARK_SIZE = [
    ["spectrum", "--n-max", "100000", "--format", "json"],
    ["spectrum", "--n-max", "200000"],
    ["eigenfunction", "--n", "137", "--grid-points", "400001"],
    ["gram", "--n-max", "600", "--nodes", "19233"],
    ["gram", "--n-max", "600", "--nodes", "19233", "--format", "json"],
    ["gram", "--n-max", "255"],
    ["rigidity", "--format", "csv"],
    ["fd-validate", "--grid-sizes", "250,500,1000,2000", "--modes", "10"],
    ["asymptotics", "--n-min", "1", "--n-max", "20000"],
]


def main() -> int:
    failed = 0
    for argv in BENCHMARK_SIZE:
        new, old = (hashlib.sha256(cli_output(argv, oracle)).hexdigest() for oracle in (False, True))
        print(f"{'ok' if new == old else 'DIFFERS'}: deformspec {' '.join(argv)}: {new} (oracle {old})")
        written, written_old = (hashlib.sha256(cli_output(argv, oracle, True)).hexdigest() for oracle in (False, True))
        # a JSON meta block records the argv, --output included; any other file holds stdout's bytes
        args = cli._build_parser().parse_args(argv)
        same = written == written_old and (written == new or (args.format == "json" and not args.no_meta))
        print(f"{'ok' if same else 'DIFFERS'}: deformspec {' '.join(argv)} --output out: {written} (oracle {written_old})")
        failed += new != old or not same
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
