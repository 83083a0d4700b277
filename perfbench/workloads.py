"""The benchmark's workloads: inputs drawn from a seed, the CLI calls that
make up one job, and the checks of a job's output files.

The seed sets coefficients, orders and boundary values inside fixed
ranges; it never changes sizes.  ``tiny`` shrinks the sizes for the smoke
test only.  NOTES.md records why each workload was chosen.
"""

from __future__ import annotations

import math
import random

import numpy as np

# CLI calls that are known to fail at the time the benchmark was written:
# each should exit nonzero until the defect named with it is fixed.
PROBES = (
    ("shooting: d2L/dqdot^2 reported as vanished for a convex quartic",
     ["solve-bvp", "--lagrangian", "qdot^2/2 + q^4/4", "--alpha", "0.5",
      "--domain", "0,1", "--n", "400", "--boundary", "0,1"]),
    ("minimizer: iteration cap on a non-quadratic Lagrangian",
     ["minimize", "--lagrangian", "sqrt(1+qdot^2)", "--alpha", "0.5",
      "--domain", "0,1", "--n", "400", "--boundary", "0,1"]),
)


def _draw(rng, lo, hi) -> float:
    return round(rng.uniform(lo, hi), 4)


def _fmt(x) -> str:
    """The CLI's float format: 17 significant digits, which round-trips."""
    return format(float(x), ".17g")


def _split_csv(text: str):
    """(comments as a key=value dict, lead comment, header, rows)."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("output does not end with a newline")
    lines.pop()
    comments = [ln[2:] for ln in lines if ln.startswith("# ")]
    body = [ln for ln in lines if not ln.startswith("#")]
    table = dict(c.split("=", 1) for c in comments[1:])
    return table, comments[0], body[0].split(","), [ln.split(",") for ln in body[1:]]


def _require(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _compare_column(problems, name, got, expected) -> None:
    want = [_fmt(v) for v in np.ravel(expected)]
    if len(got) != len(want):
        problems.append(f"{name}: {len(got)} rows, expected {len(want)}")
        return
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    if bad:
        i = bad[0]
        problems.append(f"{name}: {len(bad)} values differ from the library, "
                        f"first at row {i}: {got[i]} != {want[i]}")


def _sample(falva, text, names, grids):
    """Path samples exactly as the CLI takes them."""
    meshes = np.meshgrid(*[g.nodes for g in grids], indexing="ij")
    shape = tuple(g.n + 1 for g in grids)
    values = falva.evaluate(falva.parse(text), dict(zip(names, meshes)))
    return np.broadcast_to(np.asarray(values), shape).copy()


class Field2D:
    """``residual`` on a 2D field: CSV emission dominates the job."""

    name = "field2d"
    lagrangian = "(qx^2 + qy^2)/2 + q*x*y"

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.n = 16 if tiny else 256
        a, b, c = _draw(rng, 0.5, 3.0), _draw(rng, 0.5, 3.0), _draw(rng, 0.1, 0.9)
        self.path = f"sin({a}*x)*cos({b}*y) + {c}"
        self.alpha, self.beta, self.delta, self.chi = (
            _draw(rng, 0.3, 0.8) for _ in range(4))
        self.gamma = complex(_draw(rng, -1.0, 1.0), _draw(rng, -1.0, 1.0))

    def run(self, call) -> None:
        n = str(self.n)
        call(["residual", "--lagrangian", self.lagrangian,
              "--alpha", str(self.alpha), "--beta", str(self.beta),
              "--delta", str(self.delta), "--chi", str(self.chi),
              f"--gamma={self.gamma.real},{self.gamma.imag}",
              "--domain", "0,1", "--domain", "0,1", "--n", n, "--n", n,
              "--path", self.path], "residual.csv")

    def check(self, falva, outputs: dict) -> list:
        problems = []
        table, _, header, rows = _split_csv(outputs["residual.csv"].decode())
        _require(problems, header == ["x", "y", "q", "residual_re", "residual_im",
                                      "excluded"], f"header {header}")
        grid = falva.Grid1D(0.0, 1.0, self.n)
        q = _sample(falva, self.path, ("x", "y"), (grid, grid))
        orders = falva.OrderSet.for_2d(self.alpha, self.beta, self.delta,
                                       self.chi, self.gamma)
        rf = falva.el_residual_2d(falva.parse(self.lagrangian),
                                  falva.GridFunctionND((grid, grid), q), orders,
                                  (1.0, 1.0))
        cols = list(zip(*rows)) if rows else [()] * 6
        X, Y = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
        vals = rf.residual.values
        for name, got, expected in (("x", cols[0], X), ("y", cols[1], Y),
                                    ("q", cols[2], q),
                                    ("residual_re", cols[3], vals.real),
                                    ("residual_im", cols[4], vals.imag)):
            _compare_column(problems, name, list(got), expected)
        want_excl = ["1" if e else "0" for e in rf.excluded.ravel()]
        _require(problems, list(cols[5]) == want_excl, "excluded flags differ")
        _require(problems, table.get("epsilon_margin")
                 == ",".join(_fmt(e) for e in rf.epsilon_margin),
                 f"epsilon_margin={table.get('epsilon_margin')}")
        # the sup norm must be the largest modulus over included rows
        kept = [complex(float(r[3]), float(r[4])) for r in rows if r[5] == "0"]
        sup = float(np.max(np.abs(np.array(kept)))) if kept else 0.0
        _require(problems, float(table.get("sup_norm", "nan")) == sup,
                 f"sup_norm={table.get('sup_norm')} but the included rows "
                 f"give {_fmt(sup)}")
        return problems


class Line1D:
    """Action and residual sweeps on one long Cresson line: the O(n^2)
    line kernel dominates and the CSV is a few rows."""

    name = "line1d"
    alphas = (0.25, 0.5, 0.75)

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.n = 512 if tiny else 16384
        self.lagrangian = f"qdot^2/2 - {_draw(rng, 0.5, 2.0)}*q^2/2"
        self.power = _draw(rng, 1.2, 2.0)
        self.path = f"{_draw(rng, 0.5, 1.5)}*tau^{self.power}"
        self.gamma = complex(_draw(rng, -1.0, 1.0), _draw(rng, -1.0, 1.0))

    def _argv(self, kind):
        return ["sweep", "--sweep-kind", kind, "--lagrangian", self.lagrangian,
                "--variant", "cresson", f"--gamma={self.gamma.real},{self.gamma.imag}",
                "--alpha", ",".join(str(a) for a in self.alphas),
                "--domain", "0,1", "--n", str(self.n), "--path", self.path]

    def run(self, call) -> None:
        call(self._argv("action"), "action.csv")
        call(self._argv("residual"), "residual.csv")

    def check(self, falva, outputs: dict) -> list:
        problems = []
        grid = falva.Grid1D(0.0, 1.0, self.n)
        L = falva.parse(self.lagrangian)
        q = falva.GridFunction(grid, _sample(falva, self.path, ("tau",), (grid,)))
        classical = falva.trapezoid_action(L, q)
        expected = {"action.csv": [], "residual.csv": []}
        for a in self.alphas:
            orders = falva.OrderSet.for_1d(a, a, self.gamma)
            av = falva.action_1d_cresson(L, q, orders).value
            expected["action.csv"].append(
                [_fmt(a), _fmt(av.real), _fmt(av.imag), "ok", _fmt(classical)])
            sup = falva.el_residual_1d_cresson(L, q, orders).sup_norm
            expected["residual.csv"].append([_fmt(a), _fmt(sup), "0", "ok"])
        headers = {"action.csv": ["alpha", "value_re", "value_im", "status",
                                  "classical_ref"],
                   "residual.csv": ["alpha", "value_re", "value_im", "status"]}
        for name, want in expected.items():
            _, _, header, rows = _split_csv(outputs[name].decode())
            _require(problems, header == headers[name], f"{name} header {header}")
            for i, (got, exp) in enumerate(zip(rows, want)):
                _require(problems, got == exp, f"{name} row {i}: {got} != {exp}")
            _require(problems, len(rows) == len(want), f"{name}: {len(rows)} rows")
        # the kernel against the closed form of D^a tau^p at tau = 1, to the
        # tolerance of acceptance criterion 2
        p = self.power
        f = falva.GridFunction(grid, grid.nodes ** p)
        for a in self.alphas:
            exact = math.gamma(p + 1.0) / math.gamma(p + 1.0 - a)
            err = abs(falva.rl_left(f, a).values[-1] - exact) / exact
            _require(problems, err < 1e-3,
                     f"rl_left of tau^{p}, alpha={a}: relative error {err:.3e}")
        return problems


class Extremal1D:
    """``minimize`` then ``solve-bvp`` on the four problems of acceptance
    criterion 6: the direct and shooting routes check each other."""

    name = "extremal1d"
    cases = (("qdot^2/2", 0.5), ("qdot^2/2", 0.75),
             ("qdot^2/2 - q^2/2", 0.5), ("qdot^2/2 - q^2/2", 0.75))

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.n_min, self.n_bvp = (200, 200) if tiny else (1600, 400)
        # the match time of the shooting route is t - eps
        self.eps = max(0.02, 2.0 / self.n_bvp)
        # Above qb ~ 1.05 the minimizer's iteration count at alpha = 0.5
        # doubles (absolute gradient tolerance); NOTES.md has the numbers.
        self.qb = _draw(rng, 0.4, 1.0)

    def run(self, call) -> None:
        for k, (lagrangian, alpha) in enumerate(self.cases):
            base = ["--lagrangian", lagrangian, "--alpha", str(alpha),
                    "--domain", "0,1", "--boundary", f"0,{self.qb}"]
            minimized = call(["minimize"] + base + ["--n", str(self.n_min)],
                             f"minimize{k}.csv")
            if minimized is None:
                return
            _, _, _, rows = _split_csv(minimized.decode())
            tau, q = np.array(rows, dtype=float).T
            target = float(np.interp(1.0 - self.eps, tau, q))
            call(["solve-bvp"] + base + ["--n", str(self.n_bvp),
                                         "--margin-target", _fmt(target)],
                 f"bvp{k}.csv")

    def check(self, falva, outputs: dict) -> list:
        problems = []
        for k, (lagrangian, alpha) in enumerate(self.cases):
            label = f"{lagrangian} alpha={alpha}"
            mt, _, _, mrows = _split_csv(outputs[f"minimize{k}.csv"].decode())
            bt, _, _, brows = _split_csv(outputs[f"bvp{k}.csv"].decode())
            _require(problems, mt.get("converged") == "true",
                     f"{label}: minimizer converged={mt.get('converged')}")
            tau_m, q_m = np.array(mrows, dtype=float).T
            tau_b, q_b, _ = np.array(brows, dtype=float).T
            mask = tau_b <= 1.0 - 5.0 * self.eps
            gap = float(np.max(np.abs(np.interp(tau_b, tau_m, q_m) - q_b)[mask]))
            _require(problems, gap <= 1e-3, f"{label}: route gap {gap:.3e}")
            if lagrangian == "qdot^2/2":
                slope = (2.0 - alpha) * self.qb
                err = abs(float(bt["v0"]) - slope)
                _require(problems, err <= 1e-3,
                         f"{label}: v0={bt['v0']}, free-particle slope {slope}")
        return problems


WORKLOADS = {w.name: w for w in (Field2D, Line1D, Extremal1D)}
