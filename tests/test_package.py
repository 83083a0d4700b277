"""The package's public names, and the README's command lines."""

import re
import shlex
from pathlib import Path

import pytest

import falva
from falva import action, errors, euler, exprdsl, fracops, numcore
from falva.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_are_the_module_lists():
    modules = (numcore, exprdsl, fracops, action, euler, errors)
    names = ["__version__"] + [name for m in modules for name in m.__all__]
    assert sorted(falva.__all__) == sorted(names)
    assert len(set(falva.__all__)) == len(falva.__all__) == 59
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

