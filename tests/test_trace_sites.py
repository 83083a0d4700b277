"""The benchmark's traced run wraps falva functions where their callers look
them up (``perfbench/spans.py``); every such name must still exist, or
``perfbench/run.py --trace 1`` stops."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _span_sites():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_SITES


# the sites the tracer replaces besides SPAN_SITES
EXTRA_SITES = (("falva.euler", "find_root"), ("falva.euler", "_integrate_el"))


@pytest.mark.parametrize("module, attr",
                         [site[:2] for site in _span_sites()] + list(EXTRA_SITES))
def test_lookup_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_shooting_calls_go_through_the_lookup_sites(monkeypatch):
    # the traced counts euler.bvp.integrations and numcore.find_root.evals
    # come from wrapping these names; a call that bypassed them would
    # silently report 0
    from falva import BoundaryData1D, euler, parse

    calls = {}
    for name in ("find_root", "_integrate_el"):
        def counted(*args, _name=name, _fn=getattr(euler, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(euler, name, counted)
    euler.solve_el_bvp(parse("qdot^2/2"), BoundaryData1D(0.0, 1.0, 0.0, 1.0),
                       0.5, 50)
    assert sorted(calls) == ["_integrate_el", "find_root"]


def test_operator_calls_go_through_the_lookup_sites(monkeypatch):
    # fracops.axis_cresson is traced where falva.action and falva.euler look
    # it up; the kernel plan lives below it, so the span keeps its time
    from falva import (Grid1D, GridFunction, OrderSet, action_1d_cresson,
                       el_residual_1d_cresson, parse)

    calls = []
    for name in ("falva.action", "falva.euler"):
        module = importlib.import_module(name)

        def counted(*args, _name=name, _fn=module.axis_cresson, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, "axis_cresson", counted)
    grid = Grid1D(0.0, 1.0, 32)
    q = GridFunction(grid, grid.nodes ** 1.5)
    orders = OrderSet.for_1d(0.5, 0.5, 0.3 - 0.6j)
    action_1d_cresson(parse("qdot^2/2"), q, orders)
    el_residual_1d_cresson(parse("qdot^2/2"), q, orders)
    assert sorted(set(calls)) == ["falva.action", "falva.euler"]
