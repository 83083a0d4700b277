"""Smoke test of tools/cli_matrix.py, the byte matrix of the command line."""

import hashlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

from falva.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "cli_matrix.py"


def _matrix():
    spec = importlib.util.spec_from_file_location("cli_matrix", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_three_calls_give_one_line_each(tmp_path, monkeypatch):
    matrix = _matrix()
    calls = dict(matrix.CALLS)
    names = ["action-file", "sweep-action-cresson-bad-qdot", "unknown-flag"]
    lines = matrix.run([(name, calls[name]) for name in names])
    assert [line.split(" ", 1)[0] for line in lines] == names
    for line in lines:
        assert re.fullmatch(r"\S+ ([0-9a-f]{64}|-) [0-9] '.*'", line), line
    assert lines[2] == ("unknown-flag - 2 'FALVA-ERR spec: unrecognized "
                        "arguments: --alpah 0.5\\n'")
    # the digest is that of the file a direct call writes
    monkeypatch.chdir(tmp_path)
    Path("line.csv").write_text(matrix.FILES["line.csv"], encoding="utf-8")
    assert main([*calls["action-file"], "--out", "out.csv"]) == 0
    digest = hashlib.sha256(Path("out.csv").read_bytes()).hexdigest()
    assert lines[0] == f"action-file {digest} 0 ''"
    assert lines[1].endswith(" 0 ''")


def test_kept_files_compare_by_their_cells(tmp_path):
    matrix = _matrix()
    calls = dict(matrix.CALLS)
    names = ["deriv-1d-gamma", "sweep-action-cresson", "unknown-flag"]
    parent, change = tmp_path / "parent", tmp_path / "change"
    lines = matrix.run([(name, calls[name]) for name in names], keep=parent)
    # a call that writes no file keeps none
    assert sorted(p.name for p in parent.iterdir()) == [
        "deriv-1d-gamma.csv", "sweep-action-cresson.csv"]
    digest = hashlib.sha256((parent / "deriv-1d-gamma.csv").read_bytes()).hexdigest()
    assert lines[0].split(" ")[1] == digest
    change.mkdir()
    # one number moved by 1e-12 of its value; one text cell changed
    deriv = (parent / "deriv-1d-gamma.csv").read_text(encoding="utf-8")
    row = deriv.splitlines()[3].split(",")
    moved = float(row[3]) * (1 + 1e-12)
    (change / "deriv-1d-gamma.csv").write_text(
        deriv.replace(",".join(row), ",".join([*row[:3], repr(moved), *row[4:]])),
        encoding="utf-8")
    sweep = (parent / "sweep-action-cresson.csv").read_text(encoding="utf-8")
    (change / "sweep-action-cresson.csv").write_text(
        sweep.replace(",ok,", ",FALVA-ERR domain,", 1), encoding="utf-8")
    assert matrix.compare(parent, parent) == []
    out = subprocess.run([sys.executable, str(SCRIPT), "--compare", str(parent),
                          str(change)], capture_output=True, text=True, check=True)
    first, second = out.stdout.splitlines()
    name, worst, text = first.split(" ", 2)
    column = [float(r.split(",")[3]) for r in deriv.splitlines()[2:]]
    expected = abs(moved - float(row[3])) / (1 + max(map(abs, column)))
    assert (name, text) == ("deriv-1d-gamma", "numeric cells only")
    assert float(worst) == pytest.approx(expected, rel=1e-2)
    assert second == "sweep-action-cresson 0 other cells differ"
    (parent / "deriv-1d-gamma.csv").unlink()
    assert matrix.compare(parent, change)[0] == f"deriv-1d-gamma only in {change}"
