"""Per-layer spans for the traced benchmark run.

The tracer replaces a falva function with a timing wrapper at the place
where its caller looks the name up: the modules import most of these
functions by name (``from .exprdsl import evaluate``), so the wrapper is set
on ``falva.action.evaluate`` and ``falva.cli.evaluate``, not only on
``falva.exprdsl.evaluate``.  Nothing in the package itself changes.

Spans nest: a layer's self time is its span minus the spans opened inside
it.  Extremal jobs open a few hundred thousand spans, so the tracer sums
each job's spans in memory instead of keeping them one by one.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute, layer) for every wrapped lookup site.  A layer named
# after a package module takes the time of the calls into that module.
SPAN_SITES = (
    ("falva.cli", "parse", "exprdsl.parse"),
    ("falva.cli", "evaluate", "exprdsl.evaluate"),
    ("falva.action", "evaluate", "exprdsl.evaluate"),
    ("falva.action", "partial", "exprdsl.partial"),
    ("falva.euler", "second_partials", "exprdsl.second_partials"),
    ("falva.cli", "axis_cresson", "fracops.axis_cresson"),
    ("falva.action", "axis_cresson", "fracops.axis_cresson"),
    ("falva.euler", "axis_cresson", "fracops.axis_cresson"),
    ("falva.euler", "ode_step_rk4", "numcore.ode_step_rk4"),
    ("falva.cli", "action_1d", "action"),
    ("falva.cli", "action_1d_cresson", "action"),
    ("falva.cli", "action_2d", "action"),
    ("falva.cli", "action_nd", "action"),
    ("falva.cli", "trapezoid_action", "action"),
    ("falva.cli", "el_residual_1d", "euler.residual"),
    ("falva.cli", "el_residual_1d_cresson", "euler.residual"),
    ("falva.cli", "el_residual_2d", "euler.residual"),
    ("falva.cli", "el_residual_nd", "euler.residual"),
    ("falva.cli", "solve_el_bvp", "euler.bvp"),
    ("falva.cli", "direct_minimize", "euler.minimize"),
)

# Layers whose calls receive an environment of node arrays: the span also
# counts the evaluation points (the largest binding size of each call).
POINT_LAYERS = {"exprdsl.evaluate", "exprdsl.partial", "exprdsl.second_partials"}


def _points(args) -> int:
    env = args[-1]
    return max((getattr(v, "size", 1) for v in env.values()), default=1)


class Tracer:
    """Nested timing spans and work counts, summed per job."""

    def __init__(self):
        self.stats = defaultdict(float)
        self._open = []  # child-time accumulator of each open span
        self._saved = []

    def reset(self) -> dict:
        """Start a new job; return the sums of the previous one."""
        done, self.stats = self.stats, defaultdict(float)
        return dict(done)

    def span(self, layer, fn, points=False):
        def wrapper(*args, **kwargs):
            children = [0.0]
            self._open.append(children)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self._open.pop()
                if self._open:
                    self._open[-1][0] += dur
                st = self.stats
                st[layer + ".s"] += dur
                st[layer + ".self_s"] += dur - children[0]
                st[layer + ".calls"] += 1
                if points:
                    st[layer + ".points"] += _points(args)
        return wrapper

    def _count_calls(self, key, fn):
        def wrapper(*args, **kwargs):
            self.stats[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _axis_cresson(self, fn):
        def wrapper(field, axis, orders):
            shape = field.values.shape
            self.stats["fracops.lines"] += field.values.size // shape[axis]
            self.stats["fracops.line_nodes_total"] += field.values.size
            return fn(field, axis, orders)
        return wrapper

    def _find_root(self, fn):
        def wrapper(g, *args, **kwargs):
            return fn(self._count_calls("numcore.find_root.evals", g),
                      *args, **kwargs)
        return wrapper

    def _wrap_site(self, module, attr, layer, fn):
        if layer == "fracops.axis_cresson":
            fn = self._axis_cresson(fn)
        if (module, attr) == ("falva.cli", "evaluate"):
            fn = self._count_calls("cli.evaluate.calls", fn)
        return self.span(layer, fn, points=layer in POINT_LAYERS)

    def _replace(self, module, attr, wrap) -> None:
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, wrap(original))

    def install(self) -> None:
        for module, attr, layer in SPAN_SITES:
            self._replace(module, attr,
                          lambda fn: self._wrap_site(module, attr, layer, fn))
        self._replace("falva.euler", "find_root", self._find_root)
        # every shooting integration: the slope scan, each root-search
        # evaluation and the final solve
        self._replace("falva.euler", "_integrate_el",
                      lambda fn: self._count_calls("euler.bvp.integrations", fn))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
