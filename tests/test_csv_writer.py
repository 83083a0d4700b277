"""The CSV writer's row split: a large table is formatted in forked
processes, one contiguous row chunk each, into the bytes of one serial loop
over its rows; no child outlives a call, and nothing but the output file is
written."""

import os
import tempfile
import threading

import numpy as np
import pytest

from falva import cli
from falva.cli import main

EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
               -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]


def _serial(table) -> bytes:
    """A table's rows as one loop over them writes them, built here."""
    fields, cells = zip(*map(cli._cells, table.columns))
    template = ",".join(fields) + "\n"
    return "".join(template % row for row in zip(*cells)).encode()


def _edge_table(rows: int) -> cli._Table:
    """Float, integer, flag, string and list columns over ``rows`` rows,
    the floats cycling through the extremes of %.17g."""
    index = np.arange(rows)
    floats = np.array(EDGE_FLOATS)[index % len(EDGE_FLOATS)]
    names = np.array([f"node{i}" for i in range(rows)], dtype=object)
    columns = [floats, -floats[::-1], index * 7 - 3, index % 3 == 0, names,
               [str(i) if i % 2 else float(i) / 3 for i in range(rows)]]
    return cli._Table([("note", "edge")], list("abcdef"), columns)


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


# six columns, seven rows a process: the threshold of a split is 14 rows
@pytest.mark.parametrize("rows, processes", [
    (13, 1), (14, 2), (15, 2), (21, 3), (27, 3), (29, 4), (61, 4), (1, 1), (0, 1),
])
def test_split_rows_are_the_bytes_of_one_loop(tmp_path, monkeypatch, forks,
                                              rows, processes):
    monkeypatch.setattr(cli, "_CELLS_PER_PROCESS", 6 * 7)
    table = _edge_table(rows)
    out = tmp_path / "out.csv"
    cli._write_csv(str(out), "test", table)
    assert len(forks) == processes - 1
    data = out.read_bytes()
    assert _body(data, table) == _serial(table)
    assert data.startswith(b"# falva ") and b"\n# note=edge\na,b,c,d,e,f\n" in data
    _assert_no_child()


def test_the_edge_values_cover_every_chunk(tmp_path, monkeypatch, forks):
    # each process of a four-way split formats every edge value
    monkeypatch.setattr(cli, "_CELLS_PER_PROCESS", 6 * 10)
    table = _edge_table(4 * len(EDGE_FLOATS) + 1)
    out = tmp_path / "out.csv"
    cli._write_csv(str(out), "test", table)
    assert len(forks) == 3
    text = _body(out.read_bytes(), table).decode()
    assert _body(out.read_bytes(), table) == _serial(table)
    for cell in ("nan", "inf", "-inf", "-0", "4.9406564584124654e-324",
                 "1.7976931348623157e+308"):
        assert text.count(f"\n{cell},") >= 4, cell


def _spied_main(monkeypatch, argv, out):
    """Run the CLI and return (status, the tables the writer was given)."""
    seen = []
    real = cli._write_rows

    def spy(fh, template, cells):
        seen.append((template, cells))
        real(fh, template, cells)

    monkeypatch.setattr(cli, "_write_rows", spy)
    return main([*argv, "--out", str(out)]), seen


def test_a_2d_residual_at_n256_is_split_into_the_serial_bytes(tmp_path, forks,
                                                              monkeypatch):
    argv = ["residual", "--lagrangian", "(qx^2 + qy^2)/2 + q*x*y",
            "--alpha", "0.45", "--beta", "0.6", "--delta", "0.35", "--chi", "0.7",
            "--gamma=0.3,-0.4", "--domain", "0,1", "--domain", "0,1",
            "--n", "256", "--path", "sin(1.7*x)*cos(2.3*y) + 0.4"]
    out = tmp_path / "out.csv"
    status, seen = _spied_main(monkeypatch, argv, out)
    assert status == 0
    # 66049 rows of six cells: three processes of the four CPUs
    assert len(forks) == 2
    [(template, cells)] = seen
    body = "".join(template % row for row in zip(*cells)).encode()
    data = out.read_bytes()
    assert len(cells[0]) == 257 * 257 and data.endswith(body)
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
    [(template, cells)] = seen
    body = "".join(template % row for row in zip(*cells)).encode()
    data = out.read_bytes()
    assert len(cells[0]) == 13 * 14 * 15 and data.endswith(body)
    assert data[:-len(body)].count(b"\n") == 2  # version, header
    _assert_no_child()


RESIDUAL_8 = ["residual", "--lagrangian", "(qx^2+qy^2)/2", "--path", "x*y",
              "--alpha", "0.5", "--domain", "0,1", "--domain", "0,1", "--n", "8"]


def test_a_failing_child_is_one_error_line_and_is_reaped(tmp_path, monkeypatch,
                                                         forks, capfd):
    monkeypatch.setattr(cli, "_CELLS_PER_PROCESS", 20)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    parent = os.getpid()
    real = cli._format_rows

    def format_rows(fh, template, cells, lo, hi):
        if os.getpid() != parent:
            raise ValueError("a child fails")
        real(fh, template, cells, lo, hi)

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

    def format_rows(fh, template, cells, lo, hi):
        if os.getpid() == parent:
            raise OSError("the first chunk fails")
        real(fh, template, cells, lo, hi)

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
