"""One Hypothesis profile for every property test: derandomized, with no
example database and no deadline, so each run replays the same examples
on every machine.

The tests that start ``python -m falva`` or ``python -c`` in a child process
find falva where the tests import it from (``pythonpath`` in pyproject.toml
puts the checkout's ``src`` first), so they run the same code without an
install or a PYTHONPATH."""

import os

from hypothesis import settings

import falva

settings.register_profile("falva", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("falva")

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(falva.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
