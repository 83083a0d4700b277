"""The CSV writer: every column kind, in every array layout, is written as
a serial loop over the rows would write it, with %d, %.17g or the string
itself, whether a block of rows takes the vectorised float formatter or
goes cell by cell; arrays are read through views, never through ``flat``
and never built at table size, and a block's float fields drop the places
none of them uses; a large table is formatted in forked processes, one
contiguous row chunk each, into the same bytes; no child outlives a call,
and nothing but the output file is written."""

import io
import os
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from falva import cli, csvfmt
from falva.cli import main
from falva.numcore import Grid1D

EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
               -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1,
               2.0**-25, 1e-5, 9.999999999999999e-5, 1e16, 1e17, 123456.789]


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bytes):
        return value.decode()
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return "%d" % value
    return "%.17g" % value


def _serial(columns) -> bytes:
    """The rows of ``columns`` as one loop over them writes them, each cell
    by %d, %.17g or as it is (a byte field decoded), built here and not by
    the writer."""
    cells = [column.ravel().tolist() if isinstance(column, np.ndarray)
             else list(column) for column in columns]
    return "".join(",".join(map(_cell, row)) + "\n" for row in zip(*cells)).encode()


def _edge_table(rows: int) -> cli._Table:
    """Float, integer, flag, string, list and sweep-value columns over
    ``rows`` rows, the floats cycling through the extremes of %.17g."""
    index = np.arange(rows)
    floats = np.array(EDGE_FLOATS)[index % len(EDGE_FLOATS)]
    names = np.array([f"node{i}" for i in range(rows)], dtype=object)
    sweep = tuple("" if i % 5 == 2 else float(f) for i, f in enumerate(floats))
    columns = [floats, -floats[::-1], index * 7 - 3, index % 3 == 0, names,
               [str(i) if i % 2 else float(i) / 3 for i in range(rows)], sweep]
    return cli._Table([("note", "edge")], list("abcdefg"), columns)


def _body(data: bytes, table) -> bytes:
    """The rows of a written file: what follows its comments and header."""
    head = 1 + len(table.comments) + 1
    return data.split(b"\n", head)[head]


@pytest.fixture
def forks(monkeypatch):
    """Four usable CPUs whatever the host has, and the list of the children
    ``os.fork`` made, in the parent."""
    made = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)
    monkeypatch.setattr(os, "fork", counting_fork)
    return made


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_table_forks_one_process_per_cpu_above_the_threshold(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)
    per = cli._CELLS_PER_PROCESS
    assert [cli._processes(c) for c in (0, per, 2 * per - 1, 2 * per,
                                        3 * per, 100 * per)] == [1, 1, 1, 2, 3, 4]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert cli._processes(100 * per) == 1


# seven columns, seven rows a process: the threshold of a split is 14 rows
@pytest.mark.parametrize("rows, processes", [
    (13, 1), (14, 2), (15, 2), (21, 3), (27, 3), (29, 4), (61, 4), (1, 1), (0, 1),
])
def test_split_rows_are_the_bytes_of_one_loop(tmp_path, monkeypatch, forks,
                                              rows, processes):
    monkeypatch.setattr(cli, "_CELLS_PER_PROCESS", 7 * 7)
    table = _edge_table(rows)
    out = tmp_path / "out.csv"
    cli._write_csv(str(out), "test", table)
    assert len(forks) == processes - 1
    data = out.read_bytes()
    assert _body(data, table) == _serial(table.columns)
    assert data.startswith(b"# falva ") and b"\n# note=edge\na,b,c,d,e,f,g\n" in data
    _assert_no_child()


def test_the_edge_values_cover_every_chunk(tmp_path, monkeypatch, forks):
    # each process of a four-way split formats every edge value
    monkeypatch.setattr(cli, "_CELLS_PER_PROCESS", 7 * len(EDGE_FLOATS))
    table = _edge_table(4 * len(EDGE_FLOATS) + 1)
    out = tmp_path / "out.csv"
    cli._write_csv(str(out), "test", table)
    assert len(forks) == 3
    text = _body(out.read_bytes(), table).decode()
    assert _body(out.read_bytes(), table) == _serial(table.columns)
    for cell in ("nan", "inf", "-inf", "-0", "4.9406564584124654e-324",
                 "1.7976931348623157e+308"):
        assert text.count(f"\n{cell},") >= 4, cell


def _spied_main(monkeypatch, argv, out):
    """Run the CLI and return (status, the column lists the writer was
    given)."""
    seen = []
    real = cli._write_rows

    def spy(fh, columns, rows):
        seen.append(columns)
        real(fh, columns, rows)

    monkeypatch.setattr(cli, "_write_rows", spy)
    return main([*argv, "--out", str(out)]), seen


def _nodes(*grids) -> list:
    """The coordinate columns of ``grids`` as floats, in row-major order."""
    return np.meshgrid(*(g.nodes for g in grids), indexing="ij")


def test_a_2d_residual_at_n256_is_split_into_the_serial_bytes(tmp_path, forks,
                                                              monkeypatch):
    argv = ["residual", "--lagrangian", "(qx^2 + qy^2)/2 + q*x*y",
            "--alpha", "0.45", "--beta", "0.6", "--delta", "0.35", "--chi", "0.7",
            "--gamma=0.3,-0.4", "--domain", "0,1", "--domain", "0,1",
            "--n", "256", "--path", "sin(1.7*x)*cos(2.3*y) + 0.4"]
    monkeypatch.setattr(cli, "_CELLS_PER_PROCESS", 100_000)
    out = tmp_path / "out.csv"
    status, seen = _spied_main(monkeypatch, argv, out)
    assert status == 0
    # 66049 rows of six cells: three processes of the four CPUs
    assert len(forks) == 2
    [columns] = seen
    grid = Grid1D(0.0, 1.0, 256)
    body = _serial([*_nodes(grid, grid), *columns[2:]])
    data = out.read_bytes()
    assert columns[0].size == 257 * 257 and data.endswith(body)
    assert data[:-len(body)].count(b"\n") == 4  # version, 2 comments, header
    _assert_no_child()


def test_a_3d_deriv_is_split_into_the_serial_bytes(tmp_path, forks, monkeypatch):
    monkeypatch.setattr(cli, "_CELLS_PER_PROCESS", 1000)
    argv = ["deriv", "--path", "sin(3*x1)*cos(2*x2) + x3*x1", "--alpha", "0.4",
            "--gamma=0.3,0.2", "--domain", "0,1", "--domain", "0,2",
            "--domain", "-1,1", "--n", "12", "--n", "13", "--n", "14"]
    out = tmp_path / "out.csv"
    status, seen = _spied_main(monkeypatch, argv, out)
    assert status == 0 and len(forks) == 3
    [columns] = seen
    grids = Grid1D(0.0, 1.0, 12), Grid1D(0.0, 2.0, 13), Grid1D(-1.0, 1.0, 14)
    body = _serial([*_nodes(*grids), *columns[3:]])
    data = out.read_bytes()
    assert columns[0].size == 13 * 14 * 15 and data.endswith(body)
    assert data[:-len(body)].count(b"\n") == 2  # version, header
    _assert_no_child()


# (rows, columns) of the tables below, whose blocks hold two float columns:
# two row counts on either side of half the float count V from which a
# block takes the vectorised formatter, two where each float column alone
# holds more than V floats, and the row block size B with B - 1 and B + 1
SHAPES = [(7, 13), (4, 23), (10, 19), (12, 16), (63, 65), (64, 64), (17, 241)]

# (rows, columns, csvfmt.fields calls) of _strided_table, four float
# columns a row: the floats of a block just under V and at V, in a table of
# one block and in the last, shorter block of a longer one, and a table of
# three blocks
STRIDED_SHAPES = [(3, 15, 0), (2, 23, 1), (41, 101, 1), (38, 109, 2),
                  (67, 131, 3)]


def test_the_shapes_straddle_the_crossover_and_the_block_size():
    v, b = cli._VECTOR_FLOATS, cli._BLOCK_ROWS
    assert sorted(2 * m * n for m, n in SHAPES[:2]) == [v - 2, v]
    assert v < min(m * n for m, n in SHAPES[2:4])
    assert sorted(m * n for m, n in SHAPES[4:]) == [b - 1, b, b + 1]
    rows = [m * n for m, n, _ in STRIDED_SHAPES]
    assert [r // b for r in rows] == [0, 0, 1, 1, 2]
    assert [4 * (r % b) for r in rows[:4]] == [v - 4, v, v - 4, v]
    assert 4 * (rows[4] % b) > v


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: str(s[0] * s[1]))
@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
def test_every_column_kind_is_the_bytes_of_one_loop(tmp_path, monkeypatch, forks,
                                                    shape, split):
    # broadcast coordinates of a 2D grid, with values in both %g forms,
    # and the columns of _edge_table over its rows
    grids = Grid1D(-1e-5, 2e-4, shape[0] - 1), Grid1D(1e15, 3e17, shape[1] - 1)
    edge = _edge_table(shape[0] * shape[1])
    columns = [*cli._coordinates(grids), *edge.columns]
    cells = len(columns) * shape[0] * shape[1]
    monkeypatch.setattr(cli, "_CELLS_PER_PROCESS", cells // 3 if split else cells + 1)
    out = tmp_path / "out.csv"
    table = cli._Table(edge.comments, ["x", "y", *edge.header], columns)
    cli._write_csv(str(out), "test", table)
    assert len(forks) == (2 if split else 0)
    assert _body(out.read_bytes(), table) == _serial([*_nodes(*grids), *edge.columns])
    _assert_no_child()


@pytest.fixture
def fields_calls(monkeypatch):
    """The float counts of the ``csvfmt.fields`` calls made in this
    process, in order."""
    calls = []
    real = csvfmt.fields

    def counting_fields(x):
        calls.append(x.size)
        return real(x)

    monkeypatch.setattr(csvfmt, "fields", counting_fields)
    return calls


def _strided_table(m: int, n: int) -> cli._Table:
    """Four float columns that are views, not arrays of their own (the real
    and imaginary parts of a complex array, a broadcast of m values over n
    columns and a reversed array), each after an integer, flag or string
    column, over m * n rows, the floats cycling through the extremes of
    %.17g."""
    index = np.arange(m * n)
    floats = np.array(EDGE_FLOATS)[index % len(EDGE_FLOATS)]
    pairs = np.empty(m * n, dtype=complex)
    pairs.real, pairs.imag = floats, -floats[::-1]
    columns = [index * 7 - 3, pairs.real, index % 3 == 0, pairs.imag,
               [f"s{i}" for i in index],
               np.broadcast_to(floats[:m, None], (m, n)), index % 2 == 1,
               floats[::-1]]
    return cli._Table([("note", "strided")], list("abcdefgh"), columns)


@pytest.mark.parametrize("shape", STRIDED_SHAPES, ids=lambda s: str(s[0] * s[1]))
@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
def test_the_float_columns_of_a_block_share_one_formatter_call(
        tmp_path, monkeypatch, forks, fields_calls, shape, split):
    # the threshold counts the floats of a block, over every float column;
    # a forked child's calls are not seen here
    m, n, calls = shape
    table = _strided_table(m, n)
    cells = len(table.columns) * m * n
    monkeypatch.setattr(cli, "_CELLS_PER_PROCESS", cells // 3 if split else cells + 1)
    out = tmp_path / "out.csv"
    cli._write_csv(str(out), "test", table)
    assert len(forks) == (2 if split else 0)
    if not split:
        b = cli._BLOCK_ROWS
        assert fields_calls == [4 * min(b, m * n - lo)
                                for lo in range(0, m * n, b)][:calls]
    assert _body(out.read_bytes(), table) == _serial(table.columns)
    _assert_no_child()


@pytest.mark.parametrize("under", [1, 0], ids=["under", "at"])
def test_the_axes_of_a_grid_share_one_formatter_call(tmp_path, fields_calls, under):
    # each axis short of the threshold, the nodes of both just under or at it
    v = cli._VECTOR_FLOATS
    grids = Grid1D(-1e-5, 2e-4, v // 2 - 1), Grid1D(1e15, 3e17, v - v // 2 - 1 - under)
    table = cli._Table([], ["x", "y"], cli._coordinates(grids))
    assert fields_calls == ([] if under else [v])
    out = tmp_path / "out.csv"
    cli._write_csv(str(out), "test", table)
    assert _body(out.read_bytes(), table) == _serial(_nodes(*grids))


RESIDUAL_2D = ["residual", "--lagrangian", "(qx^2 + qy^2)/2 + q*x*y",
               "--alpha", "0.45", "--beta", "0.6", "--delta", "0.35", "--chi", "0.7",
               "--gamma=0.3,-0.4", "--domain", "0,1", "--domain", "0,1",
               "--path", "sin(1.7*x)*cos(2.3*y) + 0.4"]


@pytest.mark.parametrize("n, calls", [
    # 130 nodes go cell by cell; two blocks of three float columns
    (64, [3 * 4096, 3 * 129]),
    # 514 nodes in one call, then 16 full blocks and one of 513 rows
    (256, [514] + [3 * 4096] * 16 + [3 * 513]),
], ids=["n64", "n256"])
def test_a_2d_residual_makes_one_formatter_call_per_block(tmp_path, monkeypatch,
                                                          fields_calls, n, calls):
    out = tmp_path / "out.csv"
    status, seen = _spied_main(monkeypatch, [*RESIDUAL_2D, "--n", str(n)], out)
    assert status == 0 and fields_calls == calls
    [columns] = seen
    grid = Grid1D(0.0, 1.0, n)
    assert out.read_bytes().endswith(_serial([*_nodes(grid, grid), *columns[2:]]))


@pytest.mark.parametrize("argv, calls", [
    (["minimize", "--lagrangian", "qdot^2/2 - q^2/2", "--alpha", "0.5",
      "--domain", "0,1", "--boundary", "0,0.7", "--n", "1600"], [2 * 1601]),
    (["solve-bvp", "--lagrangian", "qdot^2/2 - q^2/2", "--alpha", "0.5",
      "--domain", "0,1", "--boundary", "0,0.7", "--n", "400"], [3 * 401]),
], ids=["minimize", "solve-bvp"])
def test_a_1d_extremal_table_makes_one_formatter_call(tmp_path, monkeypatch,
                                                      fields_calls, argv, calls):
    out = tmp_path / "out.csv"
    status, [columns] = _spied_main(monkeypatch, argv, out)
    assert status == 0 and fields_calls == calls
    assert out.read_bytes().endswith(_serial(columns))


@pytest.mark.parametrize("n", [4, 300, 5000])
def test_the_coordinates_of_one_grid_are_its_nodes(tmp_path, n):
    # one node column, in both %g forms, short of and across a row block
    grid = Grid1D(-1e-5, 3e17, n)
    table = cli._Table([], ["x"], cli._coordinates([grid]))
    out = tmp_path / "out.csv"
    cli._write_csv(str(out), "test", table)
    assert _body(out.read_bytes(), table) == _serial([grid.nodes])


@pytest.mark.parametrize("lengths", [(3, 2), (2, 3), (4, 4, 1)])
def test_columns_of_unequal_lengths_are_an_internal_error(tmp_path, lengths):
    columns = [np.arange(n, dtype=float) for n in lengths[:-1]]
    columns.append(["a"] * lengths[-1])
    table = cli._Table([], list("abc")[:len(lengths)], columns)
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="unequal lengths"):
        cli._write_csv(str(out), "test", table)
    assert not out.exists()


RESIDUAL_8 = ["residual", "--lagrangian", "(qx^2+qy^2)/2", "--path", "x*y",
              "--alpha", "0.5", "--domain", "0,1", "--domain", "0,1", "--n", "8"]


def test_a_failing_child_is_one_error_line_and_is_reaped(tmp_path, monkeypatch,
                                                         forks, capfd):
    monkeypatch.setattr(cli, "_CELLS_PER_PROCESS", 20)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    parent = os.getpid()
    real = cli._format_rows

    def format_rows(fh, columns, lo, hi):
        if os.getpid() != parent:
            raise ValueError("a child fails")
        real(fh, columns, lo, hi)

    monkeypatch.setattr(cli, "_format_rows", format_rows)
    out = tmp_path / "out.csv"
    try:
        status = main([*RESIDUAL_8, "--out", str(out)])
    finally:
        if os.getpid() != parent:
            os._exit(0)  # a child came back: its parent sees no failure
    assert status == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == (f"FALVA-ERR spec: cannot write output file {str(out)!r}: "
                            "3 forked row formatting process(es) failed\n")
    assert len(forks) == 3
    _assert_no_child()
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_an_error_in_this_process_still_reaps_every_child(tmp_path, monkeypatch,
                                                          forks, capfd):
    monkeypatch.setattr(cli, "_CELLS_PER_PROCESS", 20)
    parent = os.getpid()
    real = cli._format_rows

    def format_rows(fh, columns, lo, hi):
        if os.getpid() == parent:
            raise OSError("the first chunk fails")
        real(fh, columns, lo, hi)

    monkeypatch.setattr(cli, "_format_rows", format_rows)
    out = tmp_path / "out.csv"
    assert main([*RESIDUAL_8, "--out", str(out)]) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == (f"FALVA-ERR spec: cannot write output file {str(out)!r}: "
                            "the first chunk fails\n")
    assert len(forks) == 3
    _assert_no_child()


def _serial_file(tmp_path, argv) -> bytes:
    out = tmp_path / "serial.csv"
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


def _no_fork():
    raise AssertionError("os.fork called")


def test_a_second_thread_keeps_the_write_in_this_process(tmp_path, monkeypatch):
    serial = _serial_file(tmp_path, RESIDUAL_8)
    monkeypatch.setattr(cli, "_CELLS_PER_PROCESS", 20)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)
    monkeypatch.setattr(os, "fork", _no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        out = tmp_path / "out.csv"
        assert main([*RESIDUAL_8, "--out", str(out)]) == 0
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert out.read_bytes() == serial


def test_no_temporary_file_keeps_the_write_in_this_process(tmp_path, monkeypatch):
    serial = _serial_file(tmp_path, RESIDUAL_8)
    monkeypatch.setattr(cli, "_CELLS_PER_PROCESS", 20)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)
    monkeypatch.setattr(os, "fork", _no_fork)
    made = []
    real = tempfile.TemporaryFile

    def temporary_file():
        # the first of three files is made, the second cannot be
        if made:
            raise OSError("no space left")
        made.append(real())
        return made[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    out = tmp_path / "out.csv"
    assert main([*RESIDUAL_8, "--out", str(out)]) == 0
    assert out.read_bytes() == serial
    assert len(made) == 1 and made[0].closed


def test_a_failed_fork_formats_its_chunk_in_this_process(tmp_path, monkeypatch):
    serial = _serial_file(tmp_path, RESIDUAL_8)
    monkeypatch.setattr(cli, "_CELLS_PER_PROCESS", 20)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)

    def failed_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failed_fork)
    out = tmp_path / "out.csv"
    assert main([*RESIDUAL_8, "--out", str(out)]) == 0
    assert out.read_bytes() == serial


def _split_cpus(monkeypatch, cells: int, split: bool) -> None:
    """Four usable CPUs, and a cell threshold that splits a table of
    ``cells`` cells into three chunks, or keeps it whole."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)
    monkeypatch.setattr(cli, "_CELLS_PER_PROCESS",
                        max(1, cells // 3) if split else cells + 1)


def _written(columns) -> bytes:
    """The rows ``_write_rows`` writes for ``columns``."""
    fh = io.BytesIO()
    cli._write_rows(fh, columns, cli._rows(columns))
    return fh.getvalue()


def _layout(kind: str, values: np.ndarray, shape: tuple):
    """A column of ``shape`` in the layout ``kind``, from the flat array
    ``values`` of at least prod(shape) entries."""
    m, k = shape
    size = m * k
    if kind == "contiguous":
        return values[:size].reshape(shape)
    if kind in ("real", "imag"):
        pairs = np.empty(shape, dtype=complex)
        pairs.real = values[:size].reshape(shape)
        pairs.imag = values[::-1][:size].reshape(shape)
        return getattr(pairs, kind)
    if kind == "reversed":
        return values[:size].reshape(shape)[::-1, ::-1]
    if kind == "broadcast-rows":
        return np.broadcast_to(values[:m, None], shape)
    if kind == "broadcast-columns":
        return np.broadcast_to(values[:k], shape)
    if kind == "transposed":
        return values[:size].reshape(k, m).T
    assert kind == "fortran"
    return np.asfortranarray(values[:size].reshape(shape))


LAYOUTS = ["contiguous", "real", "imag", "reversed", "broadcast-rows",
           "broadcast-columns", "transposed", "fortran"]
KINDS = [*(f"float {layout}" for layout in LAYOUTS), "int", "flag",
         "bytes reversed", "bytes transposed", "coordinates", "sequence"]


@st.composite
def _tables(draw):
    """(columns, the columns as ``_serial`` reads them): columns of one
    shape, floats in every layout the writer reads, integers, flags, byte
    fields, the coordinates of a grid (read back as its nodes) and
    sequences of floats and strings, the floats drawn from ``st.floats()``
    and repeated in a drawn order.  The shapes hold row counts on either
    side of the float count from which a block is vectorised and of the
    row block size."""
    shape = draw(st.one_of(
        st.sampled_from([*SHAPES, *((m, n) for m, n, _ in STRIDED_SHAPES)]),
        st.tuples(st.integers(1, 24), st.integers(1, 24))))
    size = shape[0] * shape[1]
    pool = np.array(draw(st.lists(st.floats(), min_size=1, max_size=24)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=7))
    columns, serial = [], []
    for kind in kinds:
        values = pool[rng.integers(0, pool.size, size)]
        if kind.startswith("float"):
            column = _layout(kind.split()[1], values, shape)
        elif kind == "int":
            column = rng.integers(-10**12, 10**12, shape)
        elif kind == "flag":
            column = _layout("transposed", values > 0, shape)
        elif kind.startswith("bytes"):
            text = np.array([b"f%d" % i for i in rng.integers(0, 10**6, size)])
            column = _layout(kind.split()[1], text, shape)
        elif kind == "sequence":
            column = [str(v) if i % 3 == 0 else v
                      for i, v in enumerate(values.tolist())]
        elif min(shape) > 2:
            grids = Grid1D(-1e-5, 2e-4, shape[0] - 1), Grid1D(1e15, 3e17, shape[1] - 1)
            columns += cli._coordinates(grids)
            serial += _nodes(*grids)
            continue
        else:
            continue
        columns.append(column)
        serial.append(column)
    return (columns, serial) if columns else ([pool], [pool])


@settings(max_examples=40)
@given(table=_tables())
def test_every_layout_of_every_column_kind_is_the_bytes_of_one_loop(table):
    # serial and split three ways, into the bytes of one loop over the rows
    columns, serial = table
    cells = len(columns) * cli._rows(columns)
    for split in (False, True):
        with pytest.MonkeyPatch.context() as monkeypatch:
            _split_cpus(monkeypatch, cells, split)
            assert _written(columns) == _serial(serial)
    _assert_no_child()


def _arrays_of_every_layout() -> list:
    """Arrays of up to four axes whose row-major elements no single view
    of a 1D array holds, and a 0-d, a 1D strided and a C-contiguous one."""
    cube = np.arange(24.0).reshape(2, 3, 4)
    pairs = cube * (1 + 1j)
    return [np.array(7.0), np.arange(30.0)[::-3], cube, cube.transpose(2, 0, 1),
            cube[::-1, :, ::-2], np.asfortranarray(cube), pairs.imag,
            np.broadcast_to(np.arange(3.0)[None, :, None], (2, 3, 4)),
            np.broadcast_to(cube[:, :1, :], (2, 3, 4)),
            np.broadcast_to(cube, (2, 2, 3, 4)).transpose(1, 0, 3, 2),
            np.arange(12).reshape(3, 4).T.astype("S2")]


@pytest.mark.parametrize("array", _arrays_of_every_layout(),
                         ids=lambda a: "x".join(map(str, a.shape)) + str(a.strides))
def test_a_read_of_any_range_is_those_elements_in_row_major_order(array):
    flat = array.ravel()
    for lo in range(flat.size + 1):
        for hi in range(lo, flat.size + 1):
            out = cli._read(array, lo, hi, np.empty(hi - lo, array.dtype))
            assert out.tolist() == flat[lo:hi].tolist(), (lo, hi)


class _NoFlat(np.ndarray):
    """An array whose ``flat`` raises: the writer reads it through views."""

    @property
    def flat(self):
        raise AssertionError("a column was read through flat")


def _residual_values(n: int) -> list:
    """The columns of a 2D residual table on an n x n grid after its two
    coordinate columns: the field, the real and imaginary parts of a
    complex residual and the exclusion flags."""
    grid = Grid1D(0.0, 1.0, n)
    x, y = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    q = np.sin(1.7 * x) * np.cos(2.3 * y) - 0.1
    residual = (q - 0.4) * 1e-3 + 1j * (0.5 - q)
    return [q, residual.real, residual.imag, np.abs(q) < 0.1]


@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
def test_no_column_is_read_through_flat(monkeypatch, forks, split):
    # a residual table over two blocks, and a float column in each other
    # layout; a forked child that reads flat fails the write
    grid = Grid1D(0.0, 1.0, 70)
    columns = _residual_values(70)
    values = columns[0].ravel()
    columns += [_layout(layout, values, (71, 71)) for layout in LAYOUTS[3:]]
    expected = _serial([*_nodes(grid, grid), *columns])
    columns = [*cli._coordinates((grid, grid)), *columns]
    _split_cpus(monkeypatch, len(columns) * values.size, split)
    assert _written([column.view(_NoFlat) for column in columns]) == expected
    assert len(forks) == (2 if split else 0)
    _assert_no_child()


class _Discard:
    """A binary file that keeps nothing written to it."""

    def write(self, data):
        pass


def _peak(n: int) -> int:
    """The peak of the memory, by tracemalloc, that the coordinate columns
    of a 2D residual table on an n x n grid and the writing of the table
    allocate in this process."""
    grid = Grid1D(0.0, 1.0, n)
    values = _residual_values(n)
    columns = [*cli._coordinates((grid, grid)), *values]
    cli._format_rows(_Discard(), columns, 0, cli._rows(columns))  # warm
    tracemalloc.start()
    try:
        columns = [*cli._coordinates((grid, grid)), *values]
        cli._format_rows(_Discard(), columns, 0, cli._rows(columns))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_writer_memory_does_not_grow_with_the_table():
    # the writer's temporaries are a block's at four times the rows: no
    # column is built at table size (a coordinate column of the larger
    # table would be 3.2 MB, against some 2.4 MB for a block)
    assert _peak(512) < 1.25 * _peak(256)


def _block_widths(column, other) -> list:
    """The widths of the fields ``_float_fields`` gives each block of the
    float columns ``column`` and ``other``."""
    rows, b = column.size, cli._BLOCK_ROWS
    return [[f.shape[1] for f in cli._float_fields([(column, lo, min(lo + b, rows)),
                                                     (other, lo, min(lo + b, rows))])]
            for lo in range(0, rows, b)]


@pytest.mark.parametrize("value, width", [
    (-1.5, 24),  # the sign place
    (1.5e20, 28),  # the five exponent places
    (2.0**-25, 24),  # Python's formatter: a tie at the 18th digit
    (float("nan"), 24),
], ids=["negative", "exponent", "tie", "nan"])
@pytest.mark.parametrize("row", ["first", "block-last", "block-first", "last"])
def test_a_block_drops_the_places_none_of_its_fields_uses(tmp_path, value, width,
                                                          row):
    # two blocks of two float columns, both vectorised; one value of the
    # first column needs a place the others leave empty: its block keeps
    # that place, every other block of either column drops the sign place
    # and the exponent places (29 - 1 - 5 bytes)
    b = cli._BLOCK_ROWS
    rows = b + 100
    assert 2 * (rows - b) >= cli._VECTOR_FLOATS
    at = {"first": 0, "block-last": b - 1, "block-first": b, "last": rows - 1}[row]
    column, other = np.sqrt(np.arange(2.0, rows + 2)), np.arange(rows) / 7.0 + 1.0
    column[at] = value
    assert csvfmt.WIDTH == 29
    assert _block_widths(column, other) == [[width if at // b == block else 23, 23]
                                            for block in (0, 1)]
    out = tmp_path / "out.csv"
    table = cli._Table([], ["a", "b"], [column, other])
    cli._write_csv(str(out), "test", table)
    assert _body(out.read_bytes(), table) == _serial([column, other])
