"""The CLI's output and error contracts.

Round trip: every CSV cell equals format(x, ".17g") of the library result
the CLI reports, for every kind.  Errors: a malformed input ends in exactly
one "FALVA-ERR <code>:" line on stderr and exit status 2 or 3, never in a
traceback or a warning.
"""

import builtins
import contextlib
import functools
import io
import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from falva import (
    BoundaryData1D,
    FalvaError,
    Grid1D,
    GridFunction,
    GridFunctionND,
    NonConvergedError,
    OrderSet,
    SpecError,
    action_1d,
    action_1d_cresson,
    action_nd,
    axis_cresson,
    cresson,
    direct_minimize,
    el_residual_1d_cresson,
    el_residual_2d,
    evaluate,
    parse,
    rl_left,
    solve_el_bvp,
    solve_el_ivp,
    trapezoid_action,
)
from falva import cli, exprdsl, fracops, numcore
from falva.cli import Spec, main

UNIT = ["--domain", "0,1"]
GAMMA = complex(0.3, -0.7)


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    return format(float(x), ".17g")


def _read_csv(path):
    """(comments as a dict, header, columns as lists of cell strings)."""
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines.pop() == ""
    comments = dict(ln[2:].split("=", 1) for ln in lines[1:] if ln.startswith("# "))
    body = [ln for ln in lines if not ln.startswith("#")]
    rows = [ln.split(",") for ln in body[1:]]
    return comments, body[0].split(","), [list(col) for col in zip(*rows)]


def _line(n, a=0.0, t=1.0):
    return Grid1D(a, t, n)


def _sample(text, names, grids):
    meshes = np.meshgrid(*[g.nodes for g in grids], indexing="ij")
    shape = tuple(g.n + 1 for g in grids)
    values = evaluate(parse(text), dict(zip(names, meshes)))
    return meshes, np.broadcast_to(np.asarray(values), shape).copy()


# Each case returns (argv, expected comments, expected columns by header).


def _deriv_1d():
    grid = _line(32)
    _, f = _sample("tau^1.5", ("tau",), (grid,))
    out = cresson(GridFunction(grid, f), OrderSet.for_1d(0.4, 0.6, GAMMA))
    argv = ["deriv", "--path", "tau^1.5", "--alpha", "0.4", "--beta", "0.6",
            "--gamma=0.3,-0.7", *UNIT, "--n", "32"]
    return argv, {}, {"tau": grid.nodes, "f_re": f.real, "f_im": f.imag,
                      "deriv_re": out.values.real, "deriv_im": out.values.imag,
                      "flagged": out.flags}


def _deriv_3d():
    grids = (_line(6), _line(6), _line(6, t=2.0))
    meshes, f = _sample("x1*x2 + x3^2", ("x1", "x2", "x3"), grids)
    out = axis_cresson(GridFunctionND(grids, f), 2,
                       OrderSet.for_nd([0.6] * 3, [0.6] * 3, -1j))
    argv = ["deriv", "--path", "x1*x2 + x3^2", "--alpha", "0.6", "--axis", "z",
            *UNIT, *UNIT, "--domain", "0,2", "--n", "6"]
    return argv, {}, {"x1": meshes[0], "x2": meshes[1], "x3": meshes[2],
                      "f_re": f.real, "f_im": f.imag,
                      "deriv_re": out.values.real, "deriv_im": out.values.imag,
                      "flagged": out.flags}


def _residual_2d():
    L, text = "(qx^2 + qy^2)/2 + q*x*y", "sin(3*x)*cos(2*y) + 0.5"
    grids = (_line(12), _line(9, t=2.0))
    meshes, q = _sample(text, ("x", "y"), grids)
    rf = el_residual_2d(parse(L), GridFunctionND(grids, q),
                        OrderSet.for_nd([0.5, 0.3], [0.5, 0.3], GAMMA), (1.0, 2.0))
    argv = ["residual", "--lagrangian", L, "--path", text, "--alpha", "0.5,0.3",
            "--gamma=0.3,-0.7", *UNIT, "--domain", "0,2", "--n", "12", "--n", "9"]
    comments = {"sup_norm": _cell(rf.sup_norm),
                "epsilon_margin": ",".join(map(_cell, rf.epsilon_margin))}
    return argv, comments, {"x": meshes[0], "y": meshes[1], "q": q,
                            "residual_re": rf.residual.values.real,
                            "residual_im": rf.residual.values.imag,
                            "excluded": rf.excluded}


def _solve_ivp():
    L = "qdot^2/2 - q^2/2"
    q, qdot = solve_el_ivp(parse(L), 0.0, 1.0, 0.0, 1.5, 0.5, 100)
    argv = ["solve-ivp", "--lagrangian", L, "--alpha", "0.5", "--q0", "0",
            "--v0", "1.5", *UNIT, "--n", "100"]
    return argv, {"truncated_t": _cell(q.grid.t)}, {
        "tau": q.grid.nodes, "q": q.values, "qdot": qdot.values}


def _solve_bvp():
    target = 0.99717157287525381
    result = solve_el_bvp(parse("qdot^2/2"), BoundaryData1D(0.0, 1.0, 0.0, 1.0),
                          0.5, 200, qb_at_margin=target)
    argv = ["solve-bvp", "--lagrangian", "qdot^2/2", "--alpha", "0.5",
            "--boundary", "0,1", "--margin-target", _cell(target), *UNIT,
            "--n", "200"]
    comments = {"v0": _cell(result.v0), "matched_time": _cell(result.matched_time),
                "target": _cell(result.target)}
    return argv, comments, {"tau": result.q.grid.nodes, "q": result.q.values,
                            "qdot": result.qdot.values}


def _minimize():
    result = direct_minimize(parse("qdot^2/2"), BoundaryData1D(0.0, 1.0, 0.0, 1.0),
                             0.9, 60)
    assert result.converged
    argv = ["minimize", "--lagrangian", "qdot^2/2", "--alpha", "0.9",
            "--boundary", "0,1", *UNIT, "--n", "60"]
    comments = {"converged": "true", "iterations": str(result.iterations),
                "grad_norm": _cell(result.grad_norm),
                "action_value": _cell(result.action_value)}
    return argv, comments, {"tau": result.q.grid.nodes, "q": result.q.values}


def _sweep(kind, argv, alphas, value, classical=None):
    """Expected sweep table; ``value(alpha)`` is the library's complex
    summary and may raise the FalvaError that fails the row."""
    cols = {"alpha": list(alphas), "value_re": [], "value_im": [], "status": []}
    for alpha in alphas:
        try:
            v = value(alpha)
        except FalvaError as err:
            cols["value_re"].append("")
            cols["value_im"].append("")
            cols["status"].append(f"FALVA-ERR {err.code}")
            continue
        cols["value_re"].append(v.real)
        cols["value_im"].append(v.imag)
        cols["status"].append("ok")
    if classical is not None:
        cols["classical_ref"] = [classical if s == "ok" else ""
                                 for s in cols["status"]]
    argv = ["sweep", "--sweep-kind", kind,
            "--alpha", ",".join(map(str, alphas)), *argv]
    return argv, {"sweep_kind": kind}, cols


def _sweep_action():
    L, grid = parse("qdot^2/2 - q^2/2"), _line(64)
    q = GridFunction(grid, _sample("sin(tau)", ("tau",), (grid,))[1])
    qdot = _sample("cos(tau)", ("tau",), (grid,))[1]
    return _sweep("action", ["--lagrangian", "qdot^2/2 - q^2/2", "--variant",
                             "classic", "--path", "sin(tau)", "--qdot", "cos(tau)",
                             *UNIT, "--n", "64"], (0.25, 0.75),
                  lambda a: action_1d(L, q, a, qdot=qdot).value,
                  classical=trapezoid_action(L, q, qdot=qdot))


def _sweep_deriv():
    grid = _line(32)
    f = GridFunction(grid, _sample("tau^1.5", ("tau",), (grid,))[1])
    return _sweep("deriv", ["--path", "tau^1.5", "--operator", "left", *UNIT,
                            "--n", "32"], (0.3, 0.6),
                  lambda a: complex(rl_left(f, a).values[-1]))


def _sweep_residual():
    L, grid = parse("qdot^2/2 - q^2/2"), _line(64)
    q = GridFunction(grid, _sample("sin(tau)", ("tau",), (grid,))[1])
    return _sweep("residual", ["--lagrangian", "qdot^2/2 - q^2/2", "--variant",
                               "cresson", "--gamma=0.3,-0.7", "--path", "sin(tau)",
                               *UNIT, "--n", "64"], (0.25, 0.75),
                  lambda a: complex(el_residual_1d_cresson(
                      L, q, OrderSet.for_1d(a, a, GAMMA)).sup_norm))


def _sweep_solve_ivp():
    # the path reaches q < 0, where sqrt fails, only at the larger alpha
    L = parse("qdot^2/2 + sqrt(q)")
    return _sweep("solve-ivp", ["--lagrangian", "qdot^2/2 + sqrt(q)", "--q0", "1",
                                "--v0", "-1.7", *UNIT, "--n", "50"], (0.2, 0.8),
                  lambda a: complex(solve_el_ivp(L, 0.0, 1.0, 1.0, -1.7, a,
                                                 50)[0].values[-1]))


def _sweep_solve_bvp():
    L, bd = parse("qdot^2/2"), BoundaryData1D(0.0, 1.0, 0.0, 1.0)
    return _sweep("solve-bvp", ["--lagrangian", "qdot^2/2", "--boundary", "0,1",
                                *UNIT, "--n", "100"], (0.3, 0.6),
                  lambda a: complex(solve_el_bvp(L, bd, a, 100).v0))


def _sweep_minimize():
    L, bd = parse("qdot^2/2"), BoundaryData1D(0.0, 1.0, 0.0, 1.0)

    def value(alpha):
        result = direct_minimize(L, bd, alpha, 40)
        if not result.converged:
            raise NonConvergedError("minimizer hit its iteration cap")
        return complex(result.action_value)

    return _sweep("minimize", ["--lagrangian", "qdot^2/2", "--boundary", "0,1",
                               *UNIT, "--n", "40"], (0.5, 0.9), value)


ROUND_TRIP_CASES = {
    "deriv-1d": _deriv_1d, "deriv-3d": _deriv_3d, "residual-2d": _residual_2d,
    "solve-ivp": _solve_ivp, "solve-bvp": _solve_bvp, "minimize": _minimize,
    "sweep-action": _sweep_action, "sweep-deriv": _sweep_deriv,
    "sweep-residual": _sweep_residual, "sweep-solve-ivp": _sweep_solve_ivp,
    "sweep-solve-bvp": _sweep_solve_bvp, "sweep-minimize": _sweep_minimize,
}


@pytest.mark.parametrize("case", ROUND_TRIP_CASES)
def test_every_cell_round_trips_the_library_result(case, tmp_path):
    argv, comments, columns = ROUND_TRIP_CASES[case]()
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    got_comments, header, got_columns = _read_csv(out)
    assert got_comments == comments
    assert header == list(columns)
    for name, got, expected in zip(header, got_columns, columns.values()):
        cells = np.asarray(expected, dtype=object).ravel()
        assert got == [_cell(x) for x in cells], name
    if case == "sweep-solve-ivp":
        assert got_columns[3] == ["ok", "FALVA-ERR eval"]


@pytest.mark.parametrize("case", ROUND_TRIP_CASES)
def test_flags_before_the_subcommand_give_the_same_bytes(case, tmp_path):
    (kind, *flags), _, _ = ROUND_TRIP_CASES[case]()
    after, before = tmp_path / "after.csv", tmp_path / "before.csv"
    assert main([kind, *flags, "--out", str(after)]) == 0
    assert main([*flags, "--out", str(before), kind]) == 0
    assert before.read_bytes() == after.read_bytes()


# At n = 16384 a BLAS dot splits its sum by the thread count; the actions
# and the minimizer's objective and line search reduce in numpy instead, so
# their last digits do not depend on it.  (A host with one CPU runs both
# children on one BLAS thread.)
BLAS_SIZED = {
    "cresson-action-sweep": [
        "sweep", "--sweep-kind", "action", "--lagrangian", "qdot^2/2 - 0.8*q^2/2",
        "--variant", "cresson", "--gamma=0.3,-0.4", "--alpha", "0.25,0.5,0.75",
        "--domain", "0,1", "--n", "16384", "--path", "1.1*tau^1.5"],
    "classic-action": [
        "action", "--variant", "classic", "--lagrangian", "qdot^2/2 - q^2/2",
        "--alpha", "0.5", "--domain", "0,1", "--n", "16384", "--path", "sin(tau)"],
    "minimize": [
        "minimize", "--lagrangian", "qdot^2/2 - q^2/2", "--alpha", "0.5",
        "--domain", "0,1", "--n", "16384", "--boundary", "0,1"],
}


@pytest.mark.parametrize("case", BLAS_SIZED)
def test_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, case):
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "falva", *BLAS_SIZED[case], "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_the_residual_round_trip_holds_a_repeated_data_value():
    # so the round trip checks a column whose value repeats cell by cell:
    # residual_re is zero at every excluded node
    _, _, columns = _residual_2d()
    excluded = columns["excluded"]
    assert excluded.sum() > 1 and (columns["residual_re"][excluded] == 0).all()


# Each case is (argv, grids); the domains give nodes with 17-digit
# expansions (0.3/3 is 0.099999999999999992), negative nodes and a
# different n on each axis.
COORDINATE_CASES = {
    "deriv-2d": (["deriv", "--path", "x*y", "--alpha", "0.5", "--axis", "y",
                  "--domain", "0,0.3", "--domain", "-0.7,0.3", "--n", "3",
                  "--n", "4"],
                 (Grid1D(0.0, 0.3, 3), Grid1D(-0.7, 0.3, 4))),
    "residual-2d": (["residual", "--lagrangian", "(qx^2 + qy^2)/2 + q*x*y",
                     "--path", "sin(x)*cos(y) + 1", "--alpha", "0.5,0.3",
                     "--domain", "-2,-0.5", "--domain", "0,0.3", "--n", "4",
                     "--n", "6"],
                    (Grid1D(-2.0, -0.5, 4), Grid1D(0.0, 0.3, 6))),
    "residual-3d": (["residual", "--lagrangian", "(qx1^2 + qx2^2 + qx3^2)/2",
                     "--path", "x1*x2 + x3", "--alpha", "0.5,0.3,0.7",
                     "--domain", "0,0.3", "--domain", "-2,-0.5", "--domain",
                     "-0.7,0.3", "--n", "3", "--n", "5", "--n", "4"],
                    (Grid1D(0.0, 0.3, 3), Grid1D(-2.0, -0.5, 5),
                     Grid1D(-0.7, 0.3, 4))),
}


@pytest.mark.parametrize("case", COORDINATE_CASES)
def test_coordinate_columns_pin_each_node_in_row_major_order(case, tmp_path):
    argv, grids = COORDINATE_CASES[case]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    _, header, got = _read_csv(out)
    axes = [["%.17g" % x for x in g.nodes.tolist()] for g in grids]
    expected = [list(col) for col in zip(*itertools.product(*axes))]
    names = {2: ["x", "y"], 3: ["x1", "x2", "x3"]}[len(grids)]
    assert header[:len(grids)] == names
    assert got[:len(grids)] == expected
    assert "0.099999999999999992" in got[0] + got[1]


# ---------------------------------------------------------------------------
# error contract

BASES = {
    "action": ["action", "--lagrangian", "qdot^2/2", "--variant", "classic",
               "--path", "tau"],
    "residual": ["residual", "--lagrangian", "qdot^2/2 - q^2/2", "--variant",
                 "cresson", "--path", "sin(tau)"],
    "deriv": ["deriv", "--operator", "left", "--path", "tau^1.5"],
    "solve-ivp": ["solve-ivp", "--lagrangian", "qdot^2/2", "--q0", "0", "--v0", "1"],
    "solve-bvp": ["solve-bvp", "--lagrangian", "qdot^2/2"],
    "minimize": ["minimize", "--lagrangian", "qdot^2/2"],
}
DEFAULTS = {"n": "8", "domain": "0,1", "alpha": "0.5", "boundary": "0,1"}
ERR_LINE = re.compile(r"FALVA-ERR [a-z]+: [^\n]*\n")


def _argv(kind, **values):
    values = dict(DEFAULTS, **values)
    keys = ["n", "domain", "alpha"]
    if kind in ("solve-bvp", "minimize"):
        keys.append("boundary")
    return BASES[kind] + [f"--{key}={values[key]}" for key in keys]


def _run_quietly(argv, out):
    """(exit status, stderr text, warnings raised) of one CLI call."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        status = main(argv + ["--out", str(out)])
    return status, stderr.getvalue(), caught


def _assert_one_error_line(argv, out):
    status, stderr, caught = _run_quietly(argv, out)
    assert status in (2, 3), (argv, stderr)
    assert ERR_LINE.fullmatch(stderr), (argv, stderr)
    assert not caught, (argv, [str(w.message) for w in caught])
    return stderr


def _fails(parse_as, text) -> bool:
    try:
        parse_as(text)
    except (ValueError, OverflowError):
        return True
    return False


# one comma-free token that is not a number
WORD = st.text(st.characters(blacklist_categories=("Cs", "Cc"),
                             blacklist_characters=","), max_size=6)
NOT_A_NUMBER = WORD.filter(lambda s: _fails(float, s))
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
ORDERS = st.floats(0.01, 0.99)


def _joined(values):
    return ",".join(map(repr, values))


BAD_N = st.one_of(
    NOT_A_NUMBER,
    FLOATS.filter(lambda x: not x.is_integer() if math.isfinite(x) else True)
    .map(repr),
    st.integers(max_value=1).map(str),
    st.sampled_from(["1e400", "-1e400", "8,8"]),
)
BAD_DOMAIN = st.one_of(
    NOT_A_NUMBER,
    st.tuples(FLOATS, FLOATS).filter(
        lambda p: not (math.isfinite(p[0]) and math.isfinite(p[1]) and p[0] < p[1])
    ).map(_joined),
    st.lists(st.floats(-10, 10), min_size=1, max_size=4)
    .filter(lambda v: len(v) != 2).map(_joined),
)
BAD_ALPHA = st.one_of(
    NOT_A_NUMBER,
    FLOATS.filter(lambda a: not 0.0 < a < 1.0).map(repr),
    st.lists(ORDERS, min_size=2, max_size=3).map(_joined),
)
BAD_BOUNDARY = st.one_of(
    NOT_A_NUMBER,
    st.tuples(FLOATS, FLOATS).filter(
        lambda p: not (math.isfinite(p[0]) and math.isfinite(p[1]))
    ).map(_joined),
    st.lists(st.floats(-10, 10), min_size=1, max_size=3)
    .filter(lambda v: len(v) != 2).map(_joined),
)
CONTRACT = settings(max_examples=20)


@pytest.mark.parametrize("kind", BASES)
def test_base_specs_run(kind, tmp_path):
    status, stderr, _ = _run_quietly(_argv(kind), tmp_path / "out.csv")
    assert (status, stderr) == (0, "")


@pytest.mark.parametrize("key", ["n", "domain", "alpha"])
@CONTRACT
@given(kind=st.sampled_from(sorted(BASES)), data=st.data())
def test_malformed_spec_value(tmp_path_factory, key, kind, data):
    value = data.draw({"n": BAD_N, "domain": BAD_DOMAIN, "alpha": BAD_ALPHA}[key])
    _assert_one_error_line(_argv(kind, **{key: value}),
                           tmp_path_factory.mktemp("spec") / "out.csv")


@CONTRACT
@given(kind=st.sampled_from(["solve-bvp", "minimize"]), value=BAD_BOUNDARY)
def test_malformed_boundary(tmp_path_factory, kind, value):
    _assert_one_error_line(_argv(kind, boundary=value),
                           tmp_path_factory.mktemp("bnd") / "out.csv")


@pytest.mark.parametrize("kind, key, value", [
    ("action", "n", "nan"), ("action", "n", "inf"), ("action", "n", "1e400"),
    ("action", "n", "1e12"),
    ("solve-bvp", "boundary", "0,inf"), ("minimize", "boundary", "0,inf"),
    # gamma(alpha) overflows below about 5.6e-309
    ("action", "alpha", "1e-320"), ("minimize", "alpha", "1e-320"),
])
def test_inputs_that_once_crashed(tmp_path, kind, key, value):
    _assert_one_error_line(_argv(kind, **{key: value}), tmp_path / "out.csv")


@pytest.mark.parametrize("extra", [["--variant=classic"], ["--variant=cresson"]])
def test_subnormal_order_of_either_action_is_a_domain_error(tmp_path, extra):
    # extra names the variant in place of the base's --variant
    argv = _argv("action", alpha="1e-320")
    at = argv.index("--variant")
    argv = argv[:at] + argv[at + 2:] + extra
    stderr = _assert_one_error_line(argv, tmp_path / "out.csv")
    assert stderr.startswith("FALVA-ERR domain: gamma: overflow")


def test_subnormal_order_fails_its_sweep_row_alone(tmp_path):
    out = tmp_path / "out.csv"
    argv = ["sweep", "--lagrangian", "qdot^2/2", "--path", "tau", *UNIT,
            "--n", "8", "--alpha", "0.5,1e-320"]
    assert _run_quietly(argv, out) == (0, "", [])
    _, header, columns = _read_csv(out)
    assert header[3] == "status"
    assert columns[3] == ["ok", "FALVA-ERR domain"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_margin_target_is_bad_input(tmp_path, value):
    argv = _argv("solve-bvp") + [f"--margin-target={value}"]
    stderr = _assert_one_error_line(argv, tmp_path / "out.csv")
    assert stderr.startswith("FALVA-ERR domain:")
    assert _run_quietly(argv, tmp_path / "out.csv")[0] == 2


@pytest.mark.parametrize("key", ["q0", "v0"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_initial_data_is_bad_input(tmp_path, key, value):
    # refused before the run, as the boundary data and the margin target are
    argv = _argv("solve-ivp")
    at = argv.index(f"--{key}")
    argv = argv[:at] + argv[at + 2:] + [f"--{key}={value}"]
    data = {"q0": 0.0, "v0": 1.0, key: float(value)}
    out = tmp_path / "out.csv"
    assert _run_quietly(argv, out) == (2, (
        f"FALVA-ERR domain: initial data must be finite, got "
        f"q0 = {data['q0']!r}, v0 = {data['v0']!r}\n"), [])
    assert not out.exists()


# every slope of the scan blows up before the match time
QUARTIC_BVP = ["solve-bvp", "--lagrangian", "qdot^2/2 + q^4/4", "--alpha", "0.5",
               "--domain", "0,1", "--n", "400", "--boundary", "0,50"]
# d sqrt(q)/dq is infinite at the first node, where q = tau = 0
SQRT_RESIDUAL = ["residual", "--variant", "classic", "--lagrangian",
                 "sqrt(q)+qdot^2", "--path", "tau", "--alpha", "0.5",
                 "--domain", "0,1", "--n", "8"]


@pytest.mark.parametrize("argv, code", [(QUARTIC_BVP, "step"),
                                        (SQRT_RESIDUAL, "eval")],
                         ids=["quartic-bvp", "sqrt-residual"])
def test_blow_ups_end_in_one_error_line(tmp_path, argv, code):
    stderr = _assert_one_error_line(argv, tmp_path / "out.csv")
    assert stderr.startswith(f"FALVA-ERR {code}:")
    # d2L/dqdot^2 of the quartic is 1 everywhere
    assert "vanished" not in stderr


SUBNORMAL = ["--lagrangian", "qdot^2/2", "--path", "tau", "--alpha", "0.5",
             "--n", "10"]


# a scan span of 10 * 1e308 overflows; a step of 1e-321 overflows the slopes;
# a step that rounds to 0 (5e-324 / 10) makes the boundary factor of the
# line kernel infinite and the product weights NaN; a step of 1e-321
# overflows the central differences and the damping of the classic residual.
# The kernel plan is cached, so each call runs on a cold cache, then on the
# warm cache that the first run left.
@pytest.mark.parametrize("argv, status, line", [
    (["solve-bvp", "--lagrangian", "qdot^2/2", "--boundary", "0,1e308",
      "--alpha", "0.5", "--domain", "0,1", "--n", "10"], 3,
     "FALVA-ERR step: non-finite derivative at tau = 0.0\n"),
    (["residual", "--lagrangian", "qdot^2/2", "--path", "tau", "--alpha",
      "0.5", "--variant", "cresson", "--domain", "0,1e-320", "--n", "10"], 2,
     "FALVA-ERR grid: non-finite value at unflagged node 0\n"),
    (["residual", "--variant", "cresson", *SUBNORMAL, "--domain", "0,5e-324"], 2,
     "FALVA-ERR grid: non-finite value at unflagged node 1\n"),
    (["deriv", *SUBNORMAL[2:], "--domain", "0,5e-324"], 2,
     "FALVA-ERR grid: non-finite value at unflagged node 1\n"),
    (["residual", "--variant", "classic", *SUBNORMAL, "--domain", "0,1e-320"], 2,
     "FALVA-ERR grid: non-finite value at unflagged node 1\n"),
    (["action", "--variant", "classic", *SUBNORMAL, "--domain", "0,5e-324"], 2,
     "FALVA-ERR domain: action value is not finite\n"),
], ids=["bvp-huge-boundary", "residual-subnormal-step", "residual-zero-step",
        "deriv-zero-step", "classic-residual-subnormal-step",
        "classic-action-zero-step"])
def test_overflow_ends_in_one_error_line(tmp_path, argv, status, line):
    fracops._line_kernel.cache_clear()
    for _cache in ("cold", "warm"):
        assert _assert_one_error_line(argv, tmp_path / "out.csv") == line
        assert _run_quietly(argv, tmp_path / "out.csv")[0] == status


UNDERFLOW_2D = ["residual", "--lagrangian", "(qx^2+qy^2)/2", "--alpha", "0.5",
                "--beta", "0.6", "--gamma=0.3,0.2", "--n", "6", "--n", "5",
                "--path", "1 + x + y"]
UNDERFLOW_3D = ["residual", "--lagrangian", "(qx1^2+qx2^2+qx3^2)/2", "--alpha",
                "0.5", "--delta", "0.3", "--gamma=0.3,0.2", "--n", "4", "--n", "3",
                "--n", "5", "--path", "1 + x1 + x2 + x3"]


# the step of one axis underflows (a domain of 0,1e-320), and the error names
# the first bad node by its row-major (C-order) index in the (7, 6) or
# (5, 4, 6) grid: node (1, 0) is 6 and (0, 1) is 1 in 2D; (1, 0, 0) is 24,
# (0, 1, 0) is 6 and (0, 0, 1) is 1 in 3D
@pytest.mark.parametrize("tiny, node", [(0, 6), (1, 1)], ids=["x", "y"])
def test_a_2d_step_underflow_names_a_c_order_node(tmp_path, tiny, node):
    domains = ["1e-320" if axis == tiny else "1" for axis in range(2)]
    argv = [*UNDERFLOW_2D, *(f"--domain=0,{t}" for t in domains)]
    assert _assert_one_error_line(argv, tmp_path / "out.csv") == (
        f"FALVA-ERR grid: non-finite value at unflagged node {node}\n")


@pytest.mark.parametrize("tiny, node", [(0, 24), (1, 6), (2, 1)],
                         ids=["x1", "x2", "x3"])
def test_a_3d_step_underflow_names_a_c_order_node(tmp_path, tiny, node):
    domains = ["1e-320" if axis == tiny else "1" for axis in range(3)]
    argv = [*UNDERFLOW_3D, *(f"--domain=0,{t}" for t in domains)]
    assert _assert_one_error_line(argv, tmp_path / "out.csv") == (
        f"FALVA-ERR grid: non-finite value at unflagged node {node}\n")


# each call overflows on its way to its result, and a run dispatches with
# numpy's floating-point warnings off: the error line, or nothing at exit 0,
# is all it prints.  The straight start path of both minimize cases
# overflows, and the error names the boundary data; a domain whose width
# overflows is a grid error, raised before any node is built
@pytest.mark.parametrize("argv, status, stderr", [
    (["minimize", "--lagrangian", "q^2", "--alpha", "1e-300", "--domain", "0,1",
      "--n", "2", "--boundary=1e308,-1e308"], 2,
     "FALVA-ERR domain: boundary data q(0.0) = 1e+308, q(1.0) = -1e+308: the "
     "straight start path between them overflows\n"),
    (["minimize", "--lagrangian", "qdot^2/2", "--alpha", "1e-300", "--domain",
      "-1e300,1e300", "--n", "100", "--boundary=0,1e308"], 2,
     "FALVA-ERR domain: boundary data q(-1e+300) = 0.0, q(1e+300) = 1e+308: "
     "the straight start path between them overflows\n"),
    (["deriv", "--domain", "0,1", "--n", "8", "--path", "tau", "--alpha", "0.3",
      "--gamma=1e308,0"], 2,
     "FALVA-ERR grid: non-finite value at unflagged node 0\n"),
    (["action", "--domain", "0,1e-300", "--n", "3", "--path", "1e300*tau",
      "--lagrangian", "qdot^3", "--alpha", "0.5", "--variant", "cresson",
      "--gamma=0,1"], 2, "FALVA-ERR domain: action value is not finite\n"),
    (["solve-bvp", "--lagrangian", "1/qdot", "--alpha", "1e-300", "--domain",
      "-1e300,1e300", "--n", "1000", "--boundary=0,1e308"], 0, ""),
    (["action", "--lagrangian", "qdot^2/2", "--alpha", "0.5", "--domain",
      "-1e308,1e308", "--n", "4", "--path", "tau"], 2,
     "FALVA-ERR grid: grid width t - a overflows, got a=-1e+308, t=1e+308\n"),
], ids=["minimize-nan-start", "minimize-inf-start", "deriv-huge-gamma",
        "cresson-action-overflow", "bvp-gap-overflow", "grid-width-overflow"])
def test_overflow_prints_no_numpy_warning(tmp_path, argv, status, stderr):
    assert _run_quietly(argv, tmp_path / "out.csv") == (status, stderr, [])


@pytest.mark.parametrize("term, q0, message", [
    ("log(q)", "-1", "log of a non-positive value in real mode"),
    ("sqrt(q)", "-1", "sqrt of a negative value in real mode"),
    ("q^1.5", "-1", "negative base under a fractional power in real mode"),
    ("1/q", "0", "division by zero"),
    ("q^-2", "0", "zero base under a negative power"),
])
def test_solve_ivp_domain_error_names_node_0(tmp_path, term, q0, message):
    argv = ["solve-ivp", "--lagrangian", "qdot^2/2 + " + term, "--alpha", "0.5",
            "--domain", "0,1", "--n", "50", "--q0", q0, "--v0", "0"]
    stderr = _assert_one_error_line(argv, tmp_path / "out.csv")
    assert stderr == f"FALVA-ERR eval: {message} (step from node 0, at tau = 0.0)\n"


def _step_40_terms():
    """The times of the mid and end stages of step 40 on the match grid of
    --domain 0,1 --n 100, and a term that overflows at the mid stages."""
    grid = Grid1D(0.0, 0.98, 100)
    start, h = grid.nodes.tolist()[40], grid.h
    blow_up = f"exp({8000.0 / h!r}*(tau - {start + 0.25 * h!r}))*q"
    return start + 0.5 * h, start + h, blow_up


_MID, _END, _BLOW_UP = _step_40_terms()


@pytest.mark.parametrize("L, stderr", [
    # a zero d2L/dqdot^2 at the mid stages, then log(0) at the end stage: the
    # lone run records the zero curvature and the rest of its step raises,
    # named by the step's node and the end stage's tau
    (f"qdot^2/2*(tau - {_MID!r})^2 + log({_END!r} - tau)*q",
     "FALVA-ERR eval: log of a non-positive value in real mode "
     f"(step from node 40, at tau = {_END!r})\n"),
    # a blow-up at the second stage, then a zero curvature at the end stage:
    # the lone run keeps its first failure
    (f"qdot^2/2*(tau - {_END!r})^2 + {_BLOW_UP}",
     f"FALVA-ERR step: non-finite derivative at tau = {_MID!r}\n"),
], ids=["eval after degenerate", "step before degenerate"])
def test_solve_ivp_reports_what_its_scan_lane_meets(tmp_path, L, stderr):
    argv = ["solve-ivp", "--lagrangian", L, "--alpha", "0.5", "--q0", "0",
            "--v0", "0.5", *UNIT, "--n", "100"]
    assert _run_quietly(argv, tmp_path / "out.csv") == (3, stderr, [])


# q = 0 at the first node: the first scan slope fails there, at n = 50 as
# at n = 400, and the scan reports it
@pytest.mark.parametrize("n", ["50", "400"])
def test_solve_bvp_scan_error_names_node_0(tmp_path, n):
    argv = ["solve-bvp", "--lagrangian", "qdot^2/2 + log(q)", "--alpha", "0.5",
            "--domain", "0,1", "--n", n, "--boundary", "0,1"]
    stderr = _assert_one_error_line(argv, tmp_path / "out.csv")
    assert stderr == ("FALVA-ERR eval: log of a non-positive value in real mode "
                      "(step from node 0, at tau = 0.0)\n")


# the far scan slopes drive q below -1, where log(1+q) fails: at boundary
# (0, 1) the scan stops at the bracket next to the straight-line slope
# before it runs them, while the root at (0.5, -2) lies past q = -1, so the
# slopes near it fail, each as a run of its own; the error names the grid
# node its failing step starts from and the tau of the failing stage, the
# end of that step
@pytest.mark.parametrize("boundary, status, stderr", [
    ("0,1", 0, ""),
    ("0.5,-2", 3,
     "FALVA-ERR eval: log of a non-positive value in real mode "
     "(step from node 122, at tau = 0.30135)\n"),
], ids=["solves", "root-past-the-domain"])
def test_solve_bvp_scans_only_up_to_its_bracket(tmp_path, boundary, status,
                                                stderr):
    argv = ["solve-bvp", "--lagrangian", "qdot^2/2 + log(1+q)", "--alpha",
            "0.5", "--domain", "0,1", "--boundary", boundary, "--n", "400"]
    assert _run_quietly(argv, tmp_path / "out.csv") == (status, stderr, [])


@pytest.mark.parametrize("kind, extra", [
    ("solve-ivp", ["--q0", "0", "--v0", "1"]),
    ("solve-bvp", ["--boundary", "0,1"]),
])
def test_shooting_at_two_intervals_is_one_grid_error(tmp_path, kind, extra):
    # the margin 2 (t-a)/n of n = 2 would take the whole domain
    argv = [kind, "--lagrangian", "qdot^2/2", "--alpha", "0.5", "--domain",
            "0,1", "--n", "2", *extra]
    stderr = _assert_one_error_line(argv, tmp_path / "out.csv")
    assert stderr == "FALVA-ERR grid: shooting needs n >= 3, got n=2\n"
    assert _run_quietly(argv, tmp_path / "out.csv")[0] == 2


MINIMIZE = ["minimize", "--alpha", "0.5", "--domain", "0,1", "--n", "80",
            "--boundary", "0,1"]


# the first overflows in the line search and stalls after 620 iterations; a
# linear L leaves the Hessian zero, so the first Newton solve fails
@pytest.mark.parametrize("lagrangian, iterations", [
    ("qdot^2/2 - 30*q^2", 620), ("q", 1)])
def test_minimizer_stall_is_one_line_that_counts_iterations(
        tmp_path, lagrangian, iterations):
    out = tmp_path / "out.csv"
    stderr = _assert_one_error_line([*MINIMIZE, "--lagrangian", lagrangian],
                                    out)
    assert stderr.startswith(
        f"FALVA-ERR noconv: minimizer stopped after {iterations} of 10000 "
        "iterations, where its Newton solve or line search failed (grad_norm=")
    assert f"# iterations={iterations}\n" in out.read_text()


def test_minimizer_names_its_cap_when_it_reaches_it(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "MINIMIZE_MAX_ITER", 2)
    monkeypatch.setattr(cli, "direct_minimize",
                        functools.partial(cli.direct_minimize, max_iter=2))
    stderr = _assert_one_error_line(
        [*MINIMIZE, "--lagrangian", "sqrt(1+qdot^2)"], tmp_path / "out.csv")
    assert stderr.startswith("FALVA-ERR noconv: minimizer hit its iteration "
                             "cap (grad_norm=")


# values that start with '-': each flag once, apart and in the = form
DASH_VALUES = {
    "lagrangian": ["solve-bvp", "--alpha", "0.5", "--domain", "0,1", "--n",
                   "50", "--boundary", "0,1", "--lagrangian",
                   "-q^2/2+qdot^2/2"],
    "path": ["deriv", "--alpha", "0.5", "--domain", "0,1", "--n", "16",
             "--path", "-tau"],
    "gamma": ["deriv", "--alpha", "0.5", "--domain", "0,1", "--n", "16",
              "--path", "tau", "--gamma", "-i"],
    "domain": ["deriv", "--alpha", "0.5", "--n", "16", "--path", "x*y",
               "--domain", "-1,1", "--domain", "-2,0"],
    "boundary": ["minimize", "--lagrangian", "qdot^2/2", "--alpha", "0.5",
                 "--domain", "0,1", "--n", "40", "--boundary", "-1,2"],
}


@pytest.mark.parametrize("case", DASH_VALUES)
def test_dash_values_give_the_bytes_of_the_equals_form(tmp_path, case):
    argv = DASH_VALUES[case]
    joined = []
    for token in argv:
        if joined and joined[-1] == f"--{case}":
            joined[-1] += "=" + token
        else:
            joined.append(token)
    apart, equals = tmp_path / "apart.csv", tmp_path / "equals.csv"
    assert _run_quietly(argv, apart)[:2] == (0, "")
    assert _run_quietly(joined, equals)[:2] == (0, "")
    assert apart.read_bytes() == equals.read_bytes()


@pytest.mark.parametrize("tail", [
    ["--lagrangian"], ["--lagrangian", "--alpha", "0.5"],
    ["--lagrangian", "--alp", "0.5"], ["--lagrangian", "-h"],
    ["--lagrangian", "--"],
], ids=["last", "before-flag", "before-abbreviation", "before-help",
        "before-separator"])
def test_a_missing_value_keeps_its_message(tmp_path, tail):
    argv = ["minimize", "--domain", "0,1", "--n", "8", "--boundary", "0,1",
            *tail]
    stderr = _assert_one_error_line(argv, tmp_path / "out.csv")
    assert stderr == ("FALVA-ERR spec: argument --lagrangian: expected one "
                      "argument\n")


@pytest.mark.parametrize("table", [
    {"n.x": "2048", "domain.y": "0,1"},
    {"n.x": "200", "domain.y": "0,1", "domain.z": "0,1"},
], ids=["2d", "3d"])
def test_grid_size_cap_counts_every_axis(table):
    spec = Spec("action", {"domain.x": "0,1", **table})
    with pytest.raises(SpecError, match="nodes"):
        spec.grids()


def _shape(tokens):
    try:
        return tuple(int(t) for t in tokens)
    except (ValueError, OverflowError):
        return None


def _field_file_argv(directory, shape_line, values):
    path = directory / "field.csv"
    path.write_text("\n".join([shape_line] + values) + "\n", encoding="utf-8")
    return BASES["action"][:-2] + ["--path-file", str(path), "--n=8",
                                   "--domain=0,1", "--alpha=0.5"]


@CONTRACT
@given(tokens=st.lists(st.one_of(WORD, st.integers().map(str)), min_size=1,
                       max_size=3).filter(lambda t: _shape(t) != (9,)))
def test_malformed_field_file_shape(tmp_path_factory, tokens):
    directory = tmp_path_factory.mktemp("shape")
    values = [repr(0.125 * j) for j in range(9)]
    _assert_one_error_line(
        _field_file_argv(directory, "shape," + ",".join(tokens), values),
        directory / "out.csv")


@CONTRACT
@given(index=st.integers(0, 8), bad=NOT_A_NUMBER)
def test_malformed_field_file_value(tmp_path_factory, index, bad):
    directory = tmp_path_factory.mktemp("values")
    values = [repr(0.125 * j) for j in range(9)]
    values[index] = bad
    _assert_one_error_line(_field_file_argv(directory, "shape,9", values),
                           directory / "out.csv")


def test_field_file_base_runs(tmp_path):
    argv = _field_file_argv(tmp_path, "shape,9", [repr(0.125 * j) for j in range(9)])
    status, stderr, _ = _run_quietly(argv, tmp_path / "out.csv")
    assert (status, stderr) == (0, "")


@pytest.mark.parametrize("which", ["spec", "field"])
def test_a_file_that_is_not_utf8_is_one_spec_error(tmp_path, which):
    # a stray byte, even in a comment, ended in a UnicodeDecodeError traceback
    argv = _field_file_argv(tmp_path, "shape,9", [repr(0.125 * j) for j in range(9)])
    spec = tmp_path / "problem.spec"
    spec.write_text("alpha=0.5\n", encoding="utf-8")
    target = {"spec": spec, "field": tmp_path / "field.csv"}[which]
    target.write_bytes(target.read_bytes() + b"# \xff\n")
    out = tmp_path / "out.csv"
    status, stderr, caught = _run_quietly([*argv, "--spec", str(spec)], out)
    assert (status, caught) == (2, []) and ERR_LINE.fullmatch(stderr), stderr
    assert stderr.startswith(f"FALVA-ERR spec: cannot read {which} file ")
    assert not out.exists()


@pytest.mark.parametrize("lines, key", [
    (["alpha=0.3", "alpha=0.6"], "alpha"), (["n=8", "n.x=16"], "n.x"),
    (["n.x=16", "n=8"], "n.x"), (["domain=0,1", "domain.x=0,2"], "domain.x"),
])
def test_a_key_repeated_in_a_spec_file_is_one_spec_error(tmp_path, lines, key):
    # the last value, or the axis form next to a bare key, was taken
    # without a word; bare domain and n are the x axis
    spec = tmp_path / "problem.spec"
    spec.write_text("\n".join(["# orders and grid", *lines]) + "\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    argv = ["deriv", "--path", "1+tau^1.5", "--alpha", "0.5", "--spec", str(spec)]
    assert _run_quietly(argv, out) == (
        2, f"FALVA-ERR spec: {spec}:3: repeated key {key!r}\n", [])
    assert not out.exists()


REPEAT_BASE = ["deriv", "--path", "1+tau^1.5", "--domain", "0,1", "--n", "8"]


@pytest.mark.parametrize("extra, flag", [
    (["--alpha", "0.3", "--alpha", "0.6"], "--alpha"),
    (["--alpha", "0.3", "--path", "tau"], "--path"),
    (["--alpha=0.3", "--alph", "0.6"], "--alpha"),
    (["--alpha", "0.3", "--axis", "x", "--axis=x"], "--axis"),
    (["--alpha", "0.3", "--out", "other.csv"], "--out"),
    (["--alpha", "0.3", "--spec", "problem.spec", "--spec", "problem.spec"],
     "--spec"),
])
def test_a_repeated_flag_is_one_spec_error(tmp_path, monkeypatch, extra, flag):
    # argparse kept the last value without a word, even where both agree
    monkeypatch.chdir(tmp_path)
    (tmp_path / "problem.spec").write_text("operator=cresson\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    assert _run_quietly([*REPEAT_BASE, *extra], out) == (
        2, f"FALVA-ERR spec: repeated flag {flag!r}\n", [])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.spec"]


def test_axis_flags_and_a_flag_over_a_spec_key_keep_their_meaning(tmp_path):
    # one --domain and one --n per axis, and a flag overrides a spec-file key
    spec = tmp_path / "problem.spec"
    spec.write_text("alpha=0.3\nn=4\n", encoding="utf-8")
    plain, merged = tmp_path / "plain.csv", tmp_path / "merged.csv"
    argv = ["deriv", "--path", "x*y", "--domain", "0,1", "--domain", "0,2",
            "--n", "8", "--n", "6"]
    assert _run_quietly([*argv, "--alpha", "0.6"], plain) == (0, "", [])
    assert _run_quietly([*argv, "--spec", str(spec), "--alpha", "0.6"],
                        merged) == (0, "", [])
    assert merged.read_bytes() == plain.read_bytes()
    _, header, columns = _read_csv(plain)
    assert header[:2] == ["x", "y"] and len(columns[0]) == 9 * 7


def test_field_file_skips_an_indented_comment(tmp_path):
    values = [repr(0.125 * j) for j in range(9)]
    plain, commented = tmp_path / "plain.csv", tmp_path / "commented.csv"
    assert main(_field_file_argv(tmp_path, "shape,9", values)
                + ["--out", str(plain)]) == 0
    argv = _field_file_argv(tmp_path, "  # note\nshape,9",
                            values[:4] + ["\t# mid-file note"] + values[4:])
    status, stderr, caught = _run_quietly(argv, commented)
    assert (status, stderr, caught) == (0, "", [])
    assert commented.read_bytes() == plain.read_bytes()


# the right orders enter a 3D action only where gamma is not -i
LAGRANGIAN_3D, PATH_3D = "(qx1^2 + qx2^2 + qx3^2)/2 + q*x1", "sin(3*x1)*cos(2*x2) + x3"
ACTION_3D = ["action", "--lagrangian", LAGRANGIAN_3D, "--path", PATH_3D,
             "--alpha", "0.5", "--gamma=0.3,0.2", *UNIT, *UNIT, *UNIT,
             "--n", "5", "--n", "4", "--n", "6"]


def test_3d_delta_gives_the_right_order_of_each_axis(tmp_path):
    grids = (_line(5), _line(4), _line(6))
    _, f = _sample(PATH_3D, ("x1", "x2", "x3"), grids)
    av = action_nd(parse(LAGRANGIAN_3D), GridFunctionND(grids, f),
                   OrderSet.for_nd([0.5] * 3, [0.3, 0.4, 0.6], 0.3 + 0.2j),
                   (1.0, 1.0, 1.0))
    out = tmp_path / "out.csv"
    assert _run_quietly([*ACTION_3D, "--delta", "0.3,0.4,0.6"], out)[:2] == (0, "")
    _, _, columns = _read_csv(out)
    assert columns == [[_cell(av.value.real)], [_cell(av.value.imag)],
                       [str(av.singular_nodes_excluded)]]
    # one entry serves every axis
    single, triple = tmp_path / "single.csv", tmp_path / "triple.csv"
    assert _run_quietly([*ACTION_3D, "--delta", "0.4"], single)[:2] == (0, "")
    assert _run_quietly([*ACTION_3D, "--delta", "0.4,0.4,0.4"], triple)[:2] == (0, "")
    assert single.read_bytes() == triple.read_bytes() != out.read_bytes()
    argv = [*ACTION_3D, "--delta", "0.3,0.4"]
    assert _assert_one_error_line(argv, out) == (
        "FALVA-ERR spec: 'delta' needs 1 or 3 entries\n")
    assert _run_quietly(argv, out)[0] == 2


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("axis", [0, 1, 2], ids=["x", "y", "z"])
def test_a_3d_deriv_names_a_bad_order_at_its_own_slot(tmp_path, axis, side):
    # the orders of the other axes are bad too, and the deriv reads none
    orders = {"left": [2.5] * 3, "right": [2.5] * 3}
    orders["left"][axis], orders["right"][axis] = 0.5, 0.5
    orders[side][axis] = 1.5
    argv = ["deriv", "--axis", "xyz"[axis], "--path", "x1*x2*x3",
            "--alpha", _joined(orders["left"]), "--delta", _joined(orders["right"]),
            "--gamma=0.3,0.2", *UNIT, *UNIT, *UNIT, "--n", "4"]
    assert _run_quietly(argv, tmp_path / "out.csv") == (
        2, f"FALVA-ERR domain: order {side}[{axis}] must lie strictly in (0,1), "
           "got 1.5\n", [])


def test_a_2d_deriv_along_y_names_the_slot_an_action_names(tmp_path):
    orders = ["--path", "x*y", "--alpha", "0.5", "--beta", "1.5",
              "--gamma=0.3,0.2", *UNIT, *UNIT, "--n", "6"]
    stderr = "FALVA-ERR domain: order left[1] must lie strictly in (0,1), got 1.5\n"
    for argv in (["deriv", "--axis", "y", *orders],
                 ["action", "--lagrangian", "(qx^2 + qy^2)/2", *orders]):
        assert _run_quietly(argv, tmp_path / "out.csv") == (2, stderr, [])


def test_an_error_in_a_trimmed_action_names_its_grid_node(tmp_path):
    # the Cresson derivative flags both ends, so the integrand starts at
    # node 1: its node 1 is grid node 2, where q - 0.75 is 0
    argv = ["action", "--variant", "cresson", "--lagrangian",
            "qdot^2/2 + log(q - 0.75)", "--path", "tau + 0.25", "--alpha", "0.5",
            *UNIT, "--n", "4"]
    assert _assert_one_error_line(argv, tmp_path / "out.csv") == (
        "FALVA-ERR eval: log of zero (node 1) [grid node 2]\n")
    assert _run_quietly(argv, tmp_path / "out.csv")[0] == 3


# ---------------------------------------------------------------------------
# choice keys: one check whichever way a value comes

CHOICES = {"operator": ("left", "right", "cresson"), "axis": ("x", "y", "z"),
           "variant": ("classic", "cresson"),
           "sweep_kind": ("deriv", "action", "residual", "solve-ivp",
                          "solve-bvp", "minimize"),
           "format": ("csv",)}
DERIV = ["--path", "tau^1.5", "--alpha=0.5", "--n=8", "--domain=0,1"]
# a run that reads each choice key, next to the keys of DERIV
CHOICE_RUNS = {"operator": ["deriv"], "axis": ["deriv"], "format": ["deriv"],
               "variant": ["action", "--lagrangian", "qdot^2/2"],
               "sweep_kind": ["sweep", "--lagrangian", "qdot^2/2"]}


def _choice_argv(directory, key, value, via):
    """A ``key`` given as a flag or in the spec file of a run that reads it,
    or in the spec file of a sweep over that run."""
    run = CHOICE_RUNS[key]
    if via == "flag":
        return [*run, *DERIV, f"--{key.replace('_', '-')}={value}"]
    path = directory / "problem.spec"
    path.write_text(f"{key}={value}\n", encoding="utf-8")
    if via == "sweep" and run[0] != "sweep":
        run = ["sweep", "--sweep-kind", *run]
    return [*run, "--spec", str(path), *DERIV]


@pytest.mark.parametrize("via", ["flag", "spec", "sweep"])
@pytest.mark.parametrize("key", sorted(CHOICES))
@settings(max_examples=10)
@given(value=WORD.filter(lambda v: all(v.strip() not in c for c in CHOICES.values())))
# a spec-file axis=w ended in a ValueError traceback, operator=lfet in a
# silent Cresson derivative
@example(value="w")
@example(value="lfet")
def test_bad_choice_is_one_spec_error(tmp_path_factory, key, via, value):
    directory = tmp_path_factory.mktemp("choice")
    argv = _choice_argv(directory, key, value, via)
    status, stderr, caught = _run_quietly(argv, directory / "out.csv")
    assert status == 2, (argv, stderr)
    assert ERR_LINE.fullmatch(stderr), (argv, stderr)
    assert stderr.startswith(f"FALVA-ERR spec: key {key!r}: expected one of")
    assert not caught


@pytest.mark.parametrize("via", ["flag", "spec", "sweep"])
@pytest.mark.parametrize("key", sorted(CHOICES))
def test_every_allowed_choice_passes_the_check(tmp_path, key, via):
    for value in CHOICES[key]:
        # a valid choice may fail later, but never on its own key
        _, stderr, _ = _run_quietly(_choice_argv(tmp_path, key, value, via),
                                    tmp_path / "out.csv")
        assert f"key {key!r}" not in stderr, stderr


@pytest.mark.parametrize("operator", ["left", "right", "cresson"])
def test_a_1d_deriv_takes_only_the_x_axis(tmp_path, operator):
    argv = ["deriv", *DERIV, "--operator", operator]
    plain, on_x = tmp_path / "plain.csv", tmp_path / "x.csv"
    assert _run_quietly(argv, plain)[:2] == (0, "")
    assert _run_quietly([*argv, "--axis", "x"], on_x)[:2] == (0, "")
    assert plain.read_bytes() == on_x.read_bytes()
    for axis in ("y", "z"):
        stderr = _assert_one_error_line([*argv, "--axis", axis], tmp_path / "out.csv")
        assert stderr == f"FALVA-ERR spec: axis {axis!r} out of range for dimension 1\n"


@pytest.mark.parametrize("via", ["flag", "spec"])
@pytest.mark.parametrize("operator, key, value", [
    ("left", "gamma", "0.3,0.2"), ("left", "beta", "0.9"),
    ("right", "gamma", "0.3,0.2")])
def test_a_1d_deriv_rejects_an_order_its_operator_does_not_read(
        tmp_path, operator, key, value, via):
    # left reads alpha and right beta (alpha when beta is not given); only
    # cresson reads gamma.  A given key that the operator ignored used to
    # leave the output as it was without it
    argv = ["deriv", *DERIV, "--operator", operator]
    out = tmp_path / "out.csv"
    assert _run_quietly(argv, out)[:2] == (0, "")
    out.unlink()
    if via == "flag":
        argv.append(f"--{key}={value}")
    else:
        spec = tmp_path / "problem.spec"
        spec.write_text(f"{key}={value}\n", encoding="utf-8")
        argv += ["--spec", str(spec)]
    stderr = _assert_one_error_line(argv, out)
    assert stderr == f"FALVA-ERR spec: key {key!r}: a 1D {operator} deriv reads no {key}\n"
    assert _run_quietly(argv, out)[0] == 2
    assert not out.exists()
    # the operator that reads the key takes it (right without alpha, which
    # it does not read next to beta)
    reader = "right" if key == "beta" else "cresson"
    if reader == "right":
        argv.remove("--alpha=0.5")
    argv[argv.index("--operator") + 1] = reader
    assert _run_quietly(argv, out)[:2] == (0, "")


def test_a_1d_left_deriv_names_the_first_unread_order(tmp_path):
    argv = ["deriv", "--operator", "left", "--gamma=0.3,0.2", "--beta", "0.9",
            "--alpha", "0.4", "--path", "1+tau", "--domain", "0,1", "--n", "8"]
    assert _assert_one_error_line(argv, tmp_path / "out.csv") == (
        "FALVA-ERR spec: key 'gamma': a 1D left deriv reads no gamma\n")


# a 1D run reads alpha, beta and gamma at most: delta and chi were dropped
# without a word, so a call with them wrote the bytes of the call without
LINE_1D = ["--lagrangian", "qdot^2/2 - q^2/2", "--alpha", "0.5", "--domain", "0,1",
           "--n", "8"]
PATH_1D = ["--path", "1+tau^1.5"]  # read by an action or a residual alone
RUNS_1D = {
    "cresson deriv": ["deriv", *DERIV],
    "action": ["action", *LINE_1D, *PATH_1D],
    "residual": ["residual", *LINE_1D, *PATH_1D, "--gamma=0.3,0.2"],
    "solve-ivp": ["solve-ivp", *LINE_1D, "--q0", "0", "--v0", "1"],
    "solve-bvp": ["solve-bvp", *LINE_1D, "--boundary", "0,1"],
    "minimize": ["minimize", *LINE_1D, "--boundary", "0,1"],
    "action sweep": ["sweep", *LINE_1D, *PATH_1D],
}


@pytest.mark.parametrize("via", ["flag", "spec"])
@pytest.mark.parametrize("key", ["delta", "chi"])
@pytest.mark.parametrize("name", RUNS_1D)
def test_a_1d_run_rejects_delta_and_chi(tmp_path, name, key, via):
    argv = list(RUNS_1D[name])
    out = tmp_path / "out.csv"
    assert _run_quietly(argv, out)[:2] == (0, "")
    out.unlink()
    if via == "flag":
        argv += [f"--{key}", "0.3"]
    else:
        spec = tmp_path / "problem.spec"
        spec.write_text(f"{key}=0.3\n", encoding="utf-8")
        argv += ["--spec", str(spec)]
    functional = name.removesuffix(" sweep")
    assert _assert_one_error_line(argv, out) == (
        f"FALVA-ERR spec: key {key!r}: a 1D {functional} reads no {key}\n")
    assert not out.exists()


def test_a_plane_still_reads_delta_and_chi(tmp_path):
    plane = ["residual", *PLANE, "--gamma=0.3,0.2"]
    outputs = []
    for extra in ([], ["--delta", "0.3", "--chi", "0.7"]):
        out = tmp_path / f"out{len(extra)}.csv"
        assert _run_quietly([*plane, *extra], out)[:2] == (0, "")
        outputs.append(out.read_bytes())
    assert outputs[0] != outputs[1]


def test_a_1d_right_deriv_given_beta_reads_no_alpha(tmp_path):
    # right reads beta, and alpha only when beta is not given; alpha was
    # required next to beta and then ignored
    right = ["deriv", "--operator", "right", "--path", "tau^1.5", "--n=8",
             "--domain=0,1"]
    out, fallback = tmp_path / "out.csv", tmp_path / "fallback.csv"
    assert _run_quietly([*right, "--beta", "0.7"], out)[:2] == (0, "")
    assert _run_quietly([*right, "--alpha", "0.7"], fallback)[:2] == (0, "")
    assert out.read_bytes() == fallback.read_bytes()
    out.unlink()
    line = "FALVA-ERR spec: key 'alpha': a 1D right deriv reads no alpha when beta is given\n"
    assert _assert_one_error_line([*right, "--beta", "0.7", "--alpha", "0.4"], out) == line
    # a sweep over alpha of such a deriv is the same error, once
    sweep = ["sweep", "--sweep-kind", "deriv", *right[1:], "--beta", "0.7",
             "--alpha", "0.25,0.5"]
    assert _assert_one_error_line(sweep, out) == line
    assert not out.exists()
    # gamma is named first, as for left
    assert _assert_one_error_line(
        [*right, "--beta", "0.7", "--alpha", "0.4", "--gamma=i"], out) == (
        "FALVA-ERR spec: key 'gamma': a 1D right deriv reads no gamma\n")


@pytest.mark.parametrize("argv", [["--help"], ["action", "--help"]],
                         ids=["falva-help", "action-help"])
def test_help_lists_every_flag_and_choice(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    flags = ["--spec", "--lagrangian", "--alpha", "--beta", "--delta", "--chi",
             "--gamma", "--domain", "--n", "--path", "--path-file", "--qdot",
             "--boundary", "--margin-target", "--q0", "--v0", "--operator",
             "--axis", "--variant", "--sweep-kind", "--out", "--format"]
    for flag in flags:
        assert f"  {flag} " in text, flag
    for key, allowed in CHOICES.items():
        assert "{" + ",".join(allowed) + "}" in text, key


# a real-typed argument of sqrt in complex mode takes the principal branch
SQRT_OF_NEGATIVE = ["action", "--variant", "cresson", "--gamma=0.3,-0.7",
                    "--lagrangian", "qdot^2/2 + sqrt(q - 0.5)", "--alpha", "0.5",
                    "--domain", "0,1", "--n", "8", "--path", "tau"]


def test_principal_branch_in_complex_mode(tmp_path):
    out = tmp_path / "out.csv"
    status, stderr, caught = _run_quietly(SQRT_OF_NEGATIVE, out)
    assert (status, stderr, caught) == (0, "", [])
    _, header, columns = _read_csv(out)
    value = complex(float(columns[0][0]), float(columns[1][0]))
    assert header[:2] == ["value_re", "value_im"]
    assert math.isfinite(value.real) and value.imag != 0.0


# variant picks between the two 1D functionals; a 2D or 3D action or
# residual is the Cresson one, so variant=classic there is an error, not a
# silently ignored key
PLANE = ["--lagrangian", "(qx^2+qy^2)/2", "--path", "x*y", "--alpha", "0.5",
         "--domain", "0,1", "--domain", "0,1", "--n", "8"]


def _variant_argv(directory, kind, via, variant):
    if via == "flag":
        return [kind, *PLANE, "--variant", variant]
    path = directory / "problem.spec"
    path.write_text(f"variant={variant}\n", encoding="utf-8")
    head = [kind] if via == "spec" else ["sweep", "--sweep-kind", kind]
    return [*head, "--spec", str(path), *PLANE]


@pytest.mark.parametrize("via", ["flag", "spec", "sweep"])
@pytest.mark.parametrize("kind", ["action", "residual"])
def test_classic_variant_on_a_plane_is_one_spec_error(tmp_path, kind, via):
    out = tmp_path / "out.csv"
    argv = _variant_argv(tmp_path, kind, via, "classic")
    stderr = _assert_one_error_line(argv, out)
    assert stderr.startswith("FALVA-ERR spec: key 'variant': 2D and 3D")
    assert not out.exists()
    # the same call with the Cresson variant runs
    argv = _variant_argv(tmp_path, kind, via, "cresson")
    assert _run_quietly(argv, out)[:2] == (0, "")


def test_a_sweep_parses_each_text_once_and_samples_once(tmp_path, monkeypatch):
    # the rows share the parsed Lagrangian, path and velocity; a classic
    # action sweep samples the path and the velocity once each, for every
    # row's action and classical reference alike.  A parse is a miss of the
    # shared parse cache, which starts empty
    exprdsl._parsed.cache_clear()
    evaluations = []
    evaluate_ = cli.evaluate
    monkeypatch.setattr(cli, "evaluate",
                        lambda *args: evaluations.append(1) or evaluate_(*args))
    argv = ["sweep", "--variant", "classic", "--lagrangian", "qdot^2/2 - q^2/2",
            "--alpha", "0.25,0.5,0.75", "--domain", "0,1", "--n", "64",
            "--path", "sin(tau)", "--qdot", "cos(tau)"]
    assert _run_quietly(argv, tmp_path / "out.csv")[:2] == (0, "")
    assert (exprdsl._parsed.cache_info().misses, len(evaluations)) == (3, 2)


def _line_sweep(extra):
    """A 1D action sweep of ``extra`` with a default Lagrangian and n."""
    defaults = {"--lagrangian": "qdot^2/2 - q^2/2", "--n": "16"}
    return ["sweep", "--domain", "0,1", *extra,
            *(token for flag, value in defaults.items() if flag not in extra
              for token in (flag, value))]


@pytest.mark.parametrize("extra, statuses", [
    # a path or velocity that cannot be sampled fails every row alike
    (["--path", "log(tau - 2)", "--alpha", "0.25,0.5,0.75"], ["eval"] * 3),
    (["--path", "sin(tau)", "--qdot", "log(tau - 2)", "--alpha", "0.25,0.5,0.75"],
     ["eval"] * 3),
    (["--path", "log(tau - 2)", "--qdot", "log(tau - 2)", "--gamma", "i",
      "--alpha", "0.25,0.5"], ["eval"] * 2),
    # a Cresson row reads the velocity after its action, for the classical
    # reference: the action's error comes first where both fail
    (["--path", "sin(tau)", "--qdot", "log(tau - 2)", "--gamma", "i",
      "--alpha", "1e-310,0.5"], ["domain", "eval"]),
    (["--n", "2", "--path", "1", "--qdot", "log(tau - 2)", "--gamma", "i",
      "--alpha", "0.25,0.5"], ["grid", "grid"]),
    # the reference alone fails: log(q) is complex in the action only
    (["--lagrangian", "log(q)", "--path", "tau - 0.55", "--gamma", "i",
      "--alpha", "0.25,0.5"], ["eval", "eval"]),
    (["--path", "sin(tau)", "--qdot", "cos(tau)", "--alpha", "1e-310,0.5"],
     ["domain", "ok"]),
])
def test_a_sweep_row_reports_the_first_error_it_meets(tmp_path, extra, statuses):
    out = tmp_path / "out.csv"
    assert _run_quietly(_line_sweep(extra), out) == (0, "", [])
    _, header, columns = _read_csv(out)
    assert header[3:] == ["status", "classical_ref"]
    assert columns[3] == [s if s == "ok" else f"FALVA-ERR {s}" for s in statuses]


def test_a_path_file_sweep_reads_its_file_once(tmp_path, monkeypatch):
    field = tmp_path / "field.csv"
    field.write_text("shape,9\n" + "".join(f"{k * k / 64}\n" for k in range(9)),
                     encoding="utf-8")
    reads = []
    read_ = cli._read_field_file
    monkeypatch.setattr(cli, "_read_field_file",
                        lambda *args: reads.append(1) or read_(*args))
    for kind in ("action", "residual", "deriv"):
        argv = ["sweep", "--sweep-kind", kind, "--alpha", "0.25,0.5,0.75",
                "--domain", "0,1", "--n", "8", "--path-file", str(field)]
        if kind != "deriv":
            argv += ["--lagrangian", "qdot^2/2 - q^2/2"]
        out = tmp_path / f"{kind}.csv"
        assert _run_quietly(argv, out) == (0, "", [])
        assert _read_csv(out)[2][3] == ["ok"] * 3
    assert len(reads) == 3


@pytest.mark.parametrize("kind, checks", [("action", 4), ("residual", 13)])
def test_a_sweep_checks_its_path_once(tmp_path, monkeypatch, kind, checks):
    # one check of the sampled path for the whole sweep; an action row adds
    # its operator result, a residual row its four fields
    calls = []
    checked = numcore._checked_samples
    monkeypatch.setattr(numcore, "_checked_samples",
                        lambda *args: calls.append(1) or checked(*args))
    argv = ["sweep", "--sweep-kind", kind, "--lagrangian", "qdot^2/2 - q^2/2",
            "--alpha", "0.25,0.5,0.75", "--gamma=0.3,-0.7", "--domain", "0,1",
            "--n", "16", "--path", "sin(tau)"]
    out = tmp_path / "out.csv"
    assert _run_quietly(argv, out) == (0, "", [])
    assert _read_csv(out)[2][3] == ["ok"] * 3
    assert len(calls) == checks


def _cresson_sweep(kind, alphas, source):
    """A 1D Cresson sweep of ``kind`` over ``alphas`` on the path ``source``."""
    functional = ([] if kind == "deriv" else
                  ["--lagrangian", "qdot^2/2 - 1.2*q^2/2", "--variant", "cresson"])
    return ["sweep", "--sweep-kind", kind, *functional, "--gamma=0.3,-0.7",
            "--alpha", alphas, "--domain", "0,1", *source]


@pytest.mark.parametrize("kind, transforms", [("action", 1), ("residual", 7)])
def test_a_cresson_sweep_transforms_its_path_once(tmp_path, monkeypatch, kind,
                                                  transforms):
    # the rows share the slope spectrum of the sweep's read-only path; a
    # residual row adds the two parts of its complex momentum.  A job of
    # both sweeps, as line1d runs them, makes 1 + 7 = 8 forward transforms;
    # with every row transforming the path it made 3 + 9 = 12
    argv = _cresson_sweep(kind, "0.25,0.5,0.75",
                          ["--n", "512", "--path", "0.9*tau^1.5"])
    out = tmp_path / "out.csv"
    assert _run_quietly(argv, out) == (0, "", [])  # builds the kernel plans
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(fracops.np.fft, "rfft",
                        lambda *args, **kwargs: calls.append(1)
                        or rfft(*args, **kwargs))
    assert _run_quietly(argv, out) == (0, "", [])
    assert _read_csv(out)[2][3] == ["ok"] * 3
    assert len(calls) == transforms


@pytest.mark.parametrize("alphas", ["0.25,0.5,0.75", "1e-310,0.5,0.75"])
@pytest.mark.parametrize("source", ["path", "path-file"])
@pytest.mark.parametrize("kind", ["action", "residual", "deriv"])
def test_each_cresson_sweep_row_has_the_bytes_of_its_own_sweep(
        tmp_path, kind, source, alphas):
    # a row that reads the kept spectrum, one that fills it, and rows after
    # a first row that failed write what a sweep of their alpha alone writes
    field = tmp_path / "line.csv"
    field.write_text("shape,17\n" + "".join(f"{math.sin(k / 16) + k * k / 256!r}\n"
                                           for k in range(17)), encoding="utf-8")
    path = {"path": ["--path", "sin(tau) + tau^2"],
            "path-file": ["--path-file", str(field)]}[source]

    def rows(alpha_list):
        argv = _cresson_sweep(kind, alpha_list, ["--n", "16", *path])
        out = tmp_path / "out.csv"
        assert _run_quietly(argv, out) == (0, "", [])
        return out.read_text(encoding="utf-8").split("\n")[3:-1]

    together = rows(alphas)
    assert together == [rows(alpha)[0] for alpha in alphas.split(",")]
    assert ("FALVA-ERR" in together[0]) == (kind == "action"
                                            and alphas.startswith("1e-310"))


def _with_and_without_bom(tmp_path, name, text, argv_for):
    """The output bytes of one call with the file ``name`` holding ``text``,
    and of the same call with the file led by a UTF-8 byte-order mark."""
    outputs = []
    for lead in ("", "\ufeff"):
        path = tmp_path / f"{len(outputs)}{name}"
        path.write_text(lead + text, encoding="utf-8")
        out = tmp_path / f"{len(outputs)}.csv"
        assert _run_quietly(argv_for(str(path)), out) == (0, "", [])
        outputs.append(out.read_bytes())
    return outputs


def test_a_spec_file_may_start_with_a_byte_order_mark(tmp_path):
    text = ("kind=action\nlagrangian=qdot^2/2 - q^2/2\nalpha=0.5\n"
            "domain=0,1\nn=16\npath=sin(tau)\n")
    plain, marked = _with_and_without_bom(tmp_path, "run.spec", text,
                                          lambda path: ["action", "--spec", path])
    assert marked == plain


def test_a_path_file_may_start_with_a_byte_order_mark(tmp_path):
    text = "shape,9\n" + "".join(f"{k * k / 64}\n" for k in range(9))
    plain, marked = _with_and_without_bom(
        tmp_path, "field.csv", text,
        lambda path: ["residual", "--lagrangian", "qdot^2/2 - q^2/2", "--alpha",
                      "0.5", "--domain", "0,1", "--n", "8", "--path-file", path])
    assert marked == plain


# one call of each subcommand; small, so that a fresh process runs it fast
EVERY_KIND = {
    "deriv": ["deriv", *DERIV, "--gamma=0.3,0.2"],
    "action": ["action", *LINE_1D, *PATH_1D, "--gamma=0.3,-0.7"],
    "residual": ["residual", *PLANE, "--gamma=0.3,0.2"],
    "solve-ivp": ["solve-ivp", *LINE_1D, "--q0", "0", "--v0", "1"],
    "solve-bvp": ["solve-bvp", "--lagrangian", "qdot^2/2 - q^2/2", "--alpha",
                  "0.5", "--domain", "0,1", "--n", "120", "--boundary", "0,1"],
    "minimize": ["minimize", *LINE_1D, "--boundary", "0,1"],
    "sweep": ["sweep", "--sweep-kind", "solve-bvp", "--lagrangian",
              "qdot^2/2 - q^2/2", "--alpha", "0.25,0.5", "--domain", "0,1",
              "--n", "8", "--boundary", "0,1"],
}


@pytest.mark.parametrize("kind", EVERY_KIND)
def test_a_repeated_call_writes_the_bytes_of_a_fresh_process(tmp_path, kind):
    # the parser, the parses and their compiled programs are kept across
    # calls in one process; none of them may change an output
    argv = EVERY_KIND[kind]
    fresh = tmp_path / "fresh.csv"
    proc = subprocess.run([sys.executable, "-m", "falva", *argv, "--out", str(fresh)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    for i in range(2):
        out = tmp_path / f"call{i}.csv"
        assert _run_quietly(argv, out) == (0, "", [])
        assert out.read_bytes() == fresh.read_bytes()


def test_a_repeated_call_builds_no_parser_and_compiles_no_program(tmp_path,
                                                                  monkeypatch):
    parsers, programs = [], []
    init = cli._ArgumentParser.__init__
    monkeypatch.setattr(cli._ArgumentParser, "__init__",
                        lambda self, *a, **k: parsers.append(1) or init(self, *a, **k))
    compile_ = builtins.compile

    def counted(source, filename, *args, **kwargs):
        if filename == "<falva program>":
            programs.append(source)
        return compile_(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counted)
    cli._build_parser.cache_clear()
    exprdsl._parsed.cache_clear()
    argv = ["minimize", *LINE_1D, "--boundary", "0,1"]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert _run_quietly(argv, first)[:2] == (0, "")
    assert (len(parsers), len(programs) > 0) == (1, True)
    built = len(programs)
    assert _run_quietly(argv, second)[:2] == (0, "")
    assert (len(parsers), len(programs)) == (1, built)
    assert first.read_bytes() == second.read_bytes()


# Every key a run is given either changes what it writes or ends the run in
# one spec error: a key a run dropped without a word made it solve another
# problem than the one written.  The problems are spec-file tables that give
# each kind only the keys it reads; the Cresson ones carry a gamma that is
# neither i nor -i, so that both orders of an axis reach the output.
GRIDS = {1: {"domain.x": "0,1", "n.x": "8"},
         2: {"domain.x": "0,1", "domain.y": "0,1", "n.x": "6"},
         3: {"domain.x": "0,1", "domain.y": "0,1", "domain.z": "0,1", "n.x": "4"}}
FIELDS = {1: {"lagrangian": "qdot^2/2 - q^2/2", "path": "1+tau^1.5"},
          2: {"lagrangian": "(qx^2+qy^2)/2 + q^2/4", "path": "1+x^1.5*(1+y)+y^1.5"},
          3: {"lagrangian": "(qx1^2+qx2^2+qx3^2)/2",
              "path": "1+x1^1.5*(1+x2)+x2^1.5+x3^1.5"}}
CRESSON = {"gamma": "0.3,-0.7"}


def _dimension(table):
    return 1 + ("domain.y" in table) + ("domain.z" in table)


# the value each key is checked with, off its default; a callable gives the
# value for a problem table: a Lagrangian of the table's dimension, and the
# variant that the table's orders do not imply (a left derivative is the
# Cresson one at the default gamma -i).  Every run reads out and format,
# and format has no other value than its default.
CHECKED_VALUES = {"gamma": "0.3,0.2", "beta": "0.37", "alpha": "0.43",
                  "delta": "0.39", "chi": "0.41", "n.y": "5", "n.z": "6",
                  "qdot": "cos(tau)", "boundary": "0,0.7", "margin_target": "0.8",
                  "q0": "0.3", "v0": "0.7",
                  "lagrangian": lambda table: (
                      FIELDS[_dimension(table)]["lagrangian"] + " + q/7"),
                  "path": "1.5", "path_file": "field.csv", "operator": "right",
                  "axis": "y", "sweep_kind": "deriv",
                  "variant": lambda table: (
                      "classic" if {"gamma", "beta"} & table.keys() else "cresson")}


def _problem(kind, dim, **keys):
    # a deriv reads the path alone, a solver or the minimizer the Lagrangian
    unread = {"deriv": "lagrangian", "action": None, "residual": None}.get(kind, "path")
    texts = {key: text for key, text in FIELDS[dim].items() if key != unread}
    return kind, {**GRIDS[dim], **texts, "alpha": "0.5", **keys}


PROBLEMS = {
    "left deriv": _problem("deriv", 1, operator="left"),
    "right deriv": _problem("deriv", 1, operator="right"),
    "classic action": _problem("action", 1, variant="classic"),
    "classic residual": _problem("residual", 1, variant="classic"),
    "solve-ivp": _problem("solve-ivp", 1, q0="0", v0="1"),
    "solve-bvp": _problem("solve-bvp", 1, boundary="0,1"),
    "minimize": _problem("minimize", 1, boundary="0,1"),
    "1D deriv": _problem("deriv", 1, **CRESSON),
    "1D action": _problem("action", 1, variant="cresson", **CRESSON),
    "1D residual": _problem("residual", 1, variant="cresson", **CRESSON),
    **{f"{dim}D {kind}": _problem(kind, dim, **CRESSON)
       for kind in ("deriv", "action", "residual") for dim in (2, 3)},
    "2D deriv along y": _problem("deriv", 2, axis="y", **CRESSON),
}


@functools.cache
def _outcome(kind, items):
    """(exit status, stderr, output bytes or None) of one call whose spec
    file holds ``items``."""
    with tempfile.TemporaryDirectory() as directory:
        spec, out = os.path.join(directory, "p.spec"), os.path.join(directory, "o.csv")
        with open(spec, "w", encoding="utf-8") as fh:
            fh.writelines(f"{key}={value}\n" for key, value in items)
        status, stderr, caught = _run_quietly([kind, "--spec", spec], out)
        assert not caught, (items, [str(w.message) for w in caught])
        data = open(out, "rb").read() if os.path.exists(out) else None
    return status, stderr, data


def _assert_read_or_rejected(kind, table, key, summary=False):
    """``table`` runs, and with ``key`` set it writes other bytes than
    without the key ("read") or ends in one spec error with no output file
    ("rejected"); with ``summary`` (a sweep row that reports one value of
    its run) the same bytes may also be written."""
    assert _outcome(kind, tuple(sorted(table.items())))[:2] == (0, ""), (kind, table)
    value = CHECKED_VALUES[key]
    value = value(table) if callable(value) else value
    without = {k: v for k, v in table.items() if k != key}
    status, stderr, data = _outcome(kind, tuple(sorted({**without, key: value}.items())))
    if status == 0:
        other = _outcome(kind, tuple(sorted(without.items())))[2]
        assert summary or data != other, (kind, table, key)
        return "read"
    assert status == 2, (kind, table, key, stderr)
    assert ERR_LINE.fullmatch(stderr) and stderr.startswith("FALVA-ERR spec:"), stderr
    assert data is None
    return "rejected"


@pytest.mark.parametrize("key", CHECKED_VALUES)
@pytest.mark.parametrize("name", PROBLEMS)
def test_a_checked_key_is_read_or_rejected(name, key):
    kind, table = PROBLEMS[name]
    _assert_read_or_rejected(kind, table, key)


@pytest.mark.parametrize("key", CHECKED_VALUES)
@pytest.mark.parametrize("name", PROBLEMS)
def test_a_checked_key_is_read_or_rejected_in_a_sweep_row(name, key):
    kind, table = PROBLEMS[name]
    sweep = {**table, "sweep_kind": kind, "alpha": "0.25,0.5"}
    # a deriv row reports the derivative at the last node alone, where the
    # right derivative is zero and only the last line of the axis counts;
    # there a key the lone deriv reads may leave the row's value as it was
    summary = kind == "deriv" and _assert_read_or_rejected(kind, table, key) == "read"
    _assert_read_or_rejected("sweep", sweep, key, summary)


# inputs whose last flags a run once dropped without a word: the call wrote
# the bytes of the same call without them (the second --n is n.y)
BVP_50 = ["solve-bvp", "--lagrangian", "qdot^2/2", "--alpha", "0.5", "--domain", "0,1",
          "--n", "50", "--boundary", "0,1"]
CLASSIC_50 = ["action", "--variant", "classic", "--lagrangian", "qdot^2/2", "--alpha",
              "0.5", "--domain", "0,1", "--n", "50", "--path", "tau"]
DERIV_8 = ["deriv", "--alpha", "0.4", "--path", "1+tau^1.5", "--domain", "0,1", "--n", "8"]
DROPPED = {
    "3D action": (["action", "--lagrangian", "(qx1^2+qx2^2+qx3^2)/2", "--path",
                   "x1*x2+x3", "--alpha", "0.4", "--gamma=0.3,0.2", "--domain", "0,1",
                   "--domain", "0,1", "--domain", "0,1", "--n", "5"],
                  ["--beta", "0.9", "--chi", "0.2"], "key 'beta': a 3D action reads no beta"),
    "solve-bvp": (BVP_50, ["--gamma=i", "--beta", "0.9"],
                  "key 'gamma': a 1D solve-bvp reads no gamma"),
    "classic action": (CLASSIC_50, ["--gamma=i", "--beta", "0.9"],
                       "key 'gamma': a 1D action reads no gamma"),
    "1D deriv": (DERIV_8, ["--n", "120"], "key 'n.y': a 1D cresson deriv reads no n.y"),
    "deriv given a Lagrangian": (DERIV_8, ["--lagrangian", "qdot^2"],
                                 "key 'lagrangian': a 1D cresson deriv reads no lagrangian"),
    "solve-bvp given a path": (BVP_50, ["--path", "sin(tau)", "--operator", "left",
                                        "--axis", "x"],
                               "key 'path': a 1D solve-bvp reads no path"),
    "action given a sweep kind": (CLASSIC_50, ["--sweep-kind", "deriv"],
                                  "key 'sweep_kind': a 1D action reads no sweep_kind"),
}


@pytest.mark.parametrize("name", DROPPED)
def test_a_key_the_run_once_dropped_is_one_spec_error(tmp_path, name):
    argv, extra, message = DROPPED[name]
    out = tmp_path / "out.csv"
    assert _run_quietly(argv, out) == (0, "", [])
    out.unlink()
    assert _assert_one_error_line([*argv, *extra], out) == f"FALVA-ERR spec: {message}\n"
    assert not out.exists()


def test_a_path_file_a_solver_does_not_read_is_one_spec_error(tmp_path):
    # the file is never opened: a missing one was taken without a word
    spec = tmp_path / "problem.spec"
    spec.write_text(f"path_file={tmp_path / 'missing.csv'}\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    argv = ["solve-ivp", "--spec", str(spec), *LINE_1D, "--q0", "0", "--v0", "1"]
    assert _run_quietly(argv, out) == (
        2, "FALVA-ERR spec: key 'path_file': a 1D solve-ivp reads no path_file\n", [])
    assert not out.exists()


def test_a_sweep_none_of_whose_rows_finished_checks_no_key(tmp_path):
    # no row read gamma, since each one failed before its orders; the
    # sweep still writes its table of failed rows
    argv = ["sweep", "--lagrangian", "qdot^2/2", "--alpha", "0.3,0.5", "--gamma=i",
            "--domain", "0,1", "--n", "50", "--path", "log(tau-2)"]
    out = tmp_path / "out.csv"
    assert _run_quietly(argv, out)[:2] == (0, "")
    assert _read_csv(out)[2][3] == ["FALVA-ERR eval"] * 2


def test_a_right_deriv_sweep_given_alpha_and_beta_reads_no_alpha(tmp_path):
    # the sweep's own alpha list is no read: its rows read beta alone
    argv = ["sweep", "--sweep-kind", "deriv", "--operator", "right", "--path", "tau^1.5",
            "--domain", "0,1", "--n", "8", "--beta", "0.7", "--alpha", "0.25,0.5"]
    out = tmp_path / "out.csv"
    assert _assert_one_error_line(argv, out) == ("FALVA-ERR spec: key 'alpha': a 1D "
                                                 "right deriv reads no alpha when beta is given\n")
    assert not out.exists()


def test_the_checked_values_and_the_grid_keys_cover_every_key():
    given = {key.partition(".")[0] for key in [*CHECKED_VALUES, *GRIDS[3]]}
    assert given | {"out", "format"} == set(cli._KEYS)


# ---------------------------------------------------------------------------
# error and success paths of the front end that no other test reaches

PROBLEM_1D = ["--lagrangian", "qdot^2/2", "--alpha", "0.5", "--n", "8"]
ACTION_1D = ["action", *PROBLEM_1D, "--path", "tau"]


def _spec_file(tmp_path, text):
    path = tmp_path / "problem.spec"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("spec, argv, line", [
    ("kind=action\nlagrangian\n", [*ACTION_1D, *UNIT],
     "{spec}:2: expected key=value, got 'lagrangian'"),
    ("bogus=1\n", [*ACTION_1D, *UNIT], "{spec}:1: unknown key 'bogus'"),
    ("kind=residual\n", [*ACTION_1D, *UNIT],
     "spec file kind 'residual' conflicts with subcommand 'action'"),
    (None, [*ACTION_1D, *UNIT * 4], "too many --domain axes (max 3)"),
    (None, ACTION_1D, "missing required key 'domain' (or 'domain.x')"),
    ("domain=0,1\ndomain.z=0,1\n", ACTION_1D, "domain.z given without domain.y"),
    (None, [*ACTION_1D, *UNIT, "--gamma", "x"],
     "key 'gamma': expected RE,IM or i or -i, got 'x'"),
    (None, ["action", "--lagrangian", "(qx^2+qy^2)/2", "--path", "x*y",
            "--alpha", "0.5,0.5,0.5", *UNIT, *UNIT, "--n", "8"],
     "'alpha' needs 1 or 2 entries for dimension 2"),
    (None, ["action", *PROBLEM_1D, "--path", "z*tau", *UNIT],
     "path expression uses ['z']; allowed coordinates are ['tau']"),
    (None, ["solve-bvp", *PROBLEM_1D, *UNIT, *UNIT, "--boundary", "0,1"],
     "solve-bvp is one-dimensional"),
    (None, ["sweep", "--lagrangian", "qdot^2/2", "--alpha", "0.5,1.5", "--n", "8",
            "--path", "tau", *UNIT],
     "sweep alpha 1.5 outside (0,1)"),
    (None, [], "missing subcommand; expected one of deriv, action, residual, "
     "solve-ivp, solve-bvp, minimize, sweep"),
], ids=["spec-line-without-equals", "unknown-spec-key", "spec-kind-conflict",
        "four-domains", "no-domain", "domain-z-without-y", "bad-gamma",
        "three-alphas-in-2d", "unknown-coordinate", "solve-bvp-in-2d",
        "sweep-alpha-outside", "no-subcommand"])
def test_front_end_error_paths(tmp_path, spec, argv, line):
    if spec is not None:
        spec = _spec_file(tmp_path, spec)
        argv = [*argv, "--spec", spec]
    out = tmp_path / "out.csv"
    assert _assert_one_error_line(argv, out) == (
        f"FALVA-ERR spec: {line.format(spec=spec)}\n")
    assert not out.exists()


def test_a_field_file_without_a_shape_line_is_a_spec_error(tmp_path):
    field = tmp_path / "field.csv"
    field.write_text("0.0\n0.5\n1.0\n")
    argv = ["action", "--lagrangian", "qdot^2/2", "--alpha", "0.5", "--n", "2",
            "--path-file", str(field), *UNIT]
    assert _assert_one_error_line(argv, tmp_path / "out.csv") == (
        f"FALVA-ERR spec: field file {str(field)!r} must start with a "
        "'shape,...' line\n")


@pytest.mark.parametrize("gamma, weight", [("i", 1j), ("0.5", 0.5 + 0j)])
def test_gamma_i_and_a_real_gamma_are_the_library_weight(tmp_path, gamma, weight):
    out = tmp_path / "out.csv"
    assert _run_quietly([*ACTION_1D, *UNIT, "--gamma", gamma], out) == (0, "", [])
    grid = _line(8)
    av = action_1d_cresson(parse("qdot^2/2"), GridFunction(grid, grid.nodes.copy()),
                           OrderSet.for_1d(0.5, 0.5, weight))
    _, header, columns = _read_csv(out)
    assert header == ["value_re", "value_im", "singular_excluded"]
    assert columns == [[_cell(av.value.real)], [_cell(av.value.imag)],
                       [str(av.singular_nodes_excluded)]]


def test_a_minimize_sweep_row_that_does_not_converge(tmp_path):
    # L = q has a zero Hessian, so the first Newton solve fails and the
    # minimizer stops unconverged; the row records it and the sweep goes on
    argv = ["sweep", "--sweep-kind", "minimize", "--lagrangian", "q", "--alpha",
            "0.25,0.5", *UNIT, "--n", "8", "--boundary", "0,1"]
    assert not direct_minimize(parse("q"), BoundaryData1D(0.0, 1.0, 0.0, 1.0),
                               0.25, 8).converged
    out = tmp_path / "out.csv"
    assert _run_quietly(argv, out) == (0, "", [])
    _, header, columns = _read_csv(out)
    assert header == ["alpha", "value_re", "value_im", "status"]
    assert columns[3] == ["FALVA-ERR noconv"] * 2


def _python_m_falva(argv, out):
    """(exit status, stderr) of ``python -m falva`` in a fresh process,
    where the recursion limit meets the same stack depth as a user's call."""
    proc = subprocess.run([sys.executable, "-m", "falva", *argv, "--out", str(out)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stderr


def _nested(k):
    return "(" * k + "qdot^2/2" + ")" * k


def _sum(m):
    return "+".join(["qdot^2/2"] * m)


def _product(m):
    return "*".join(["(1+q^2)"] * m) + "*qdot^2"


_DEEP_RUNS = {
    "action": ["action", "--alpha", "0.5", *UNIT, "--n", "20", "--path", "tau^2"],
    "residual": ["residual", "--alpha", "0.5", *UNIT, "--n", "20", "--path", "tau^2"],
    "minimize": ["minimize", "--alpha", "0.5", *UNIT, "--n", "20", "--boundary", "0,1"],
    "solve-bvp": ["solve-bvp", "--alpha", "0.5", *UNIT, "--n", "20", "--boundary", "0,1"],
    "solve-ivp": ["solve-ivp", "--alpha", "0.5", *UNIT, "--n", "20", "--q0", "0",
                  "--v0", "1"],
}


def _deep(kind, text):
    return [*_DEEP_RUNS[kind], "--lagrangian=" + text]


# the smallest sizes that passed Python's recursion limit, each on the
# subcommands where it did: in the parser (nesting, leading minus signs),
# in a compiled program (a long sum) or in a derivative tree (a product,
# whose second derivatives minimize reads).  Each ends in one error line
@pytest.mark.parametrize("argv", [
    _deep("action", _nested(196)), _deep("solve-ivp", _nested(196)),
    ["deriv", "--path=" + "(" * 196 + "tau^2" + ")" * 196, "--alpha", "0.5",
     *UNIT, "--n", "8"],
    *[_deep(kind, _sum(326)) for kind in ("action", "residual", "minimize",
                                         "solve-bvp")],
    _deep("minimize", _product(110)), _deep("residual", _product(164)),
    _deep("solve-bvp", _product(164)), _deep("action", _product(325)),
    _deep("action", "-" * 491 + "qdot^2/2"),
], ids=["nested-196-action", "nested-196-solve-ivp", "nested-196-deriv-path",
        "sum-326-action", "sum-326-residual", "sum-326-minimize",
        "sum-326-solve-bvp", "product-110-minimize", "product-164-residual",
        "product-164-solve-bvp", "product-325-action", "minus-491-action"])
def test_a_too_deep_expression_is_a_parse_error(tmp_path, argv):
    out = tmp_path / "out.csv"
    status, stderr = _python_m_falva(argv, out)
    assert status == 2 and re.fullmatch(
        r"FALVA-ERR parse: expression nests too deeply at offset \d+\n", stderr), stderr
    assert not out.exists()


def test_a_325_term_sum_still_runs_an_action(tmp_path):
    out = tmp_path / "out.csv"
    assert _python_m_falva(_deep("action", _sum(325)), out) == (0, "")
    assert _read_csv(out)[1] == ["value_re", "value_im", "singular_excluded"]


@pytest.mark.parametrize("argv", [
    ["deriv", "--path", "tau^1.5", "--alpha", "0.5", *UNIT, "--n", "20"],
    ["residual", *LINE_1D, *PATH_1D],
], ids=["deriv", "residual"])
def test_a_small_table_leaves_the_vector_formatter_unimported(tmp_path, argv):
    code = ("import sys; from falva.cli import main; "
            f"status = main({[*argv, '--out', str(tmp_path / 'out.csv')]!r}); "
            "print(status, 'falva.csvfmt' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 False\n", "")
