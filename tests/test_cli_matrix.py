"""Smoke test of tools/cli_matrix.py, the byte matrix of the command line."""

import hashlib
import importlib.util
import re
from pathlib import Path

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
