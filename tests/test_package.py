"""The package's public names, its imports, and the README's command lines."""

import ast
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import falva
from falva import action, errors, euler, exprdsl, fracops, numcore
from falva.cli import main
from test_trace_sites import _span_sites

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_public_names_are_the_module_lists():
    modules = (numcore, exprdsl, fracops, action, euler, errors)
    names = ["__version__"] + [name for m in modules for name in m.__all__]
    assert sorted(falva.__all__) == sorted(names)
    assert len(set(falva.__all__)) == len(falva.__all__) == 58
    for module in modules:
        for name in module.__all__:
            assert getattr(falva, name) is getattr(module, name), name
    assert falva.__version__ == "0.1.0"


def _readme_commands():
    """Each ``falva ...`` command of the README's sh blocks, as argv."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.S)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "falva":
                commands.append(argv[1:])
    return commands


@pytest.mark.parametrize("argv", _readme_commands(),
                         ids=lambda argv: " ".join(argv[:2]))
def test_readme_command_runs(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def _unread_imports(source: str) -> list:
    """The names that the imports of ``source`` bind and it never reads."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_every_imported_name_is_read():
    # a name imported for the benchmark's tracer alone counts as read at its
    # lookup site
    sites = {site[:2] for site in _span_sites()}
    unread = [(f"falva.{path.stem}", name)
              for path in sorted((ROOT / "src" / "falva").glob("*.py"))
              if path.name != "__init__.py"
              for name in _unread_imports(path.read_text(encoding="utf-8"))]
    assert [site for site in unread if site not in sites] == []


def test_the_import_check_sees_an_unread_name():
    assert _unread_imports("import math\nfrom .x import a, b as c\nprint(a)\n") \
        == ["math", "c"]


def test_the_cli_imports_no_process_pool():
    # the CLI's set-up time is its import; a pool module would add to it
    code = ("import sys, falva.cli; print(sorted(m for m in ('multiprocessing', "
            "'concurrent.futures') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=ROOT)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
