"""The CSV writer: every column kind is written as a serial loop over the
rows would write it, with %d, %.17g or the string itself, whether a block
of rows takes the vectorised float formatter or goes cell by cell; a large
table is formatted in forked processes, one contiguous row chunk each, into
the same bytes; no child outlives a call, and nothing but the output file
is written."""

import os
import tempfile
import threading

import numpy as np
import pytest

from falva import cli
from falva.cli import main
from falva.numcore import Grid1D

EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
               -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1,
               2.0**-25, 1e-5, 9.999999999999999e-5, 1e16, 1e17, 123456.789]


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return "%d" % value
    return "%.17g" % value


def _serial(columns) -> bytes:
    """The rows of ``columns`` as one loop over them writes them, each cell
    by %d, %.17g or as it is, built here and not by the writer."""
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


# (rows, columns) of the tables below: two on either side of the row count
# from which a float block takes the vectorised formatter, and the row
# block size B with B - 1 and B + 1
SHAPES = [(10, 19), (12, 16), (63, 65), (64, 64), (17, 241)]


def test_the_shapes_straddle_the_crossover_and_the_block_size():
    v, b = cli._VECTOR_ROWS, cli._BLOCK_ROWS
    assert sorted(m * n for m, n in SHAPES) == [v - 2, v, b - 1, b, b + 1]


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
