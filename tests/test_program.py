"""The compiled expression programs against the tree-walking evaluator.

``_tree_eval`` is the loop version kept as the reference: it walks a tree
node by node and evaluates a repeated subtree again at each occurrence.
The compiled program runs each distinct operation once, in the order of
its first occurrence, so it must give the same bits and, where evaluation
fails, the same first error.  A pruned program, which returns only some of
the entries, must give those entries and fail as the full program does.
The shooting integrator runs the pruned program as a function of each RK4
stage, screens a step once and replays it with each stage checked; it must
give the bits, failures and first error of a plain RK4 on ``partials``.
"""

import builtins
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from falva import (
    BoundaryData1D,
    EvalError,
    Grid1D,
    SingularLagrangianError,
    StepFailure,
    evaluate,
    parse,
    partials,
    solve_el_bvp,
)
from falva import exprdsl
from falva.cli import main
from falva.exprdsl import (
    _ARITH,
    _FUNCTIONS,
    Call,
    Neg,
    Num,
    Var,
    _check,
    _derivative,
    _int_literal,
    _intpow,
    _is_complex_binding,
    _principal,
)
from falva.euler import _ACCEL_PARTIALS, _ACCEL_RETURNS, _integrate_el


def _tree_eval(node, env):
    """Value of the tree ``node`` under ``env``, walked node by node."""
    complex_mode = any(_is_complex_binding(v) for v in env.values())

    def walk(node):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Var):
            try:
                return env[node.name]
            except KeyError:
                raise EvalError(f"unbound variable {node.name!r}") from None
        if isinstance(node, Neg):
            return -walk(node.child)
        if isinstance(node, Call):
            return call(node)
        if node.op == "^":
            return power(node)
        a = walk(node.lhs)
        b = walk(node.rhs)
        if node.op == "/":
            _check(b == 0, "division by zero")
        return _ARITH[node.op](a, b)

    def power(node):
        base = walk(node.lhs)
        n = _int_literal(node.rhs)
        if n is not None:
            if n < 0:
                _check(base == 0, "zero base under a negative power")
            return _intpow(base, n)
        expo = walk(node.rhs)
        if complex_mode:
            _check(base == 0, "zero base under a general power")
            base = _principal(base)
        else:
            _check(np.real(base) < 0,
                   "negative base under a fractional power in real mode")
            zero = np.asarray(np.real(base) == 0)
            if np.any(zero):
                _check(zero & np.asarray(np.real(expo) <= 0),
                       "zero base under a non-positive power")
                return np.power(base, expo)
        return np.exp(expo * np.log(base))

    def call(node):
        arg = walk(node.arg)
        fn = node.fn
        if fn == "log":
            if complex_mode:
                _check(arg == 0, "log of zero")
            else:
                _check(np.real(arg) <= 0, "log of a non-positive value in real mode")
        elif fn == "sqrt" and not complex_mode:
            _check(np.real(arg) < 0, "sqrt of a negative value in real mode")
        if complex_mode and fn in ("log", "sqrt"):
            arg = _principal(arg)
        elif fn == "sign" and _is_complex_binding(arg):
            raise EvalError("abs is not differentiable for complex values")
        return _FUNCTIONS[fn](arg)

    return walk(node)


def _tree_partials(expr, variable_tuples, env):
    return [_tree_eval(tree, env) for tree in
            [expr.ast] + [_derivative(expr, v) for v in variable_tuples]]


def _outcome(fn):
    """("ok", result) or ("error", type, message, index)."""
    try:
        with np.errstate(all="ignore"):
            return ("ok", fn())
    except (EvalError, ArithmeticError) as err:
        return ("error", type(err), str(err), getattr(err, "index", None))


def _same_bits(x, y) -> bool:
    if type(x) is not type(y):
        return False
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1:] == want[1:]
        return
    got, want = got[1], want[1]
    if not isinstance(want, list):
        got, want = [got], [want]
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert _same_bits(g, w), (i, g, w)


# ---------------------------------------------------------------------------
# random expressions and bindings

NAMES = ("qdot", "q", "tau")
LEAVES = st.sampled_from(NAMES + ("0", "1", "2", "0.5", "3.25"))
EXPONENTS = st.sampled_from(["2", "3", "-1", "-2", "-3", "0", "1", "12",
                             "-12", "0.5", "-0.5", "1.5"])


def _extend(children):
    return st.one_of(
        st.builds("({} {} {})".format, children, st.sampled_from("+-*/"),
                  children),
        st.builds("{}({})".format,
                  st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "abs"]),
                  children),
        st.builds("({})^{}".format, children, EXPONENTS),
        st.builds("({})^({})".format, children, children),
        st.builds("-({})".format, children),
    )


EXPRESSIONS = st.recursive(LEAVES, _extend, max_leaves=10)
REALS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0])
COMPLEXES = st.builds(complex, REALS, REALS)
TUPLES = st.lists(st.lists(st.sampled_from(NAMES), min_size=1, max_size=2)
                  .map(tuple), max_size=4)


@st.composite
def environments(draw):
    """Scalars and length-3 arrays holding zeros and negatives, all real or
    some complex; now and then one variable is left unbound."""
    complex_mode = draw(st.booleans())
    env = {}
    for name in NAMES:
        scalar = COMPLEXES if complex_mode and draw(st.booleans()) else REALS
        if draw(st.booleans()):
            env[name] = draw(scalar)
        else:
            dtype = complex if scalar is COMPLEXES else float
            env[name] = np.array(draw(st.lists(scalar, min_size=3, max_size=3)),
                                 dtype=dtype)
    if draw(st.integers(0, 5)) == 0:
        del env[draw(st.sampled_from(NAMES))]
    return env


@settings(max_examples=400)
@given(text=EXPRESSIONS, env=environments(), tuples=TUPLES)
@example(text="abs(qdot) + log(q)", env={"qdot": 1j, "q": np.array([1.0, 0.0])},
         tuples=[("q",), ("qdot",)])
@example(text="abs(qdot) + log(q)", env={"qdot": 1j, "q": 2.0},
         tuples=[("q",), ("qdot",)])
def test_program_matches_the_tree_walk(text, env, tuples):
    expr = parse(text)
    _assert_same_outcome(_outcome(lambda: evaluate(expr, env)),
                         _outcome(lambda: _tree_eval(expr.ast, env)))
    _assert_same_outcome(_outcome(lambda: partials(expr, tuples, env)),
                         _outcome(lambda: _tree_partials(expr, tuples, env)))


@settings(max_examples=400)
@given(text=EXPRESSIONS, env=environments(), tuples=TUPLES, data=st.data())
def test_pruned_program_matches_the_full_one(text, env, tuples, data):
    expr = parse(text)
    returns = tuple(data.draw(st.lists(st.integers(0, len(tuples)), max_size=4)))
    pruned = exprdsl._program(expr, tuple(tuples), exprdsl._complex_mode(env),
                              returns)

    def selected():
        entries = partials(expr, tuples, env)
        return [entries[i] for i in returns]

    _assert_same_outcome(_outcome(lambda: pruned(env)), _outcome(selected))


@pytest.mark.parametrize("text", ["qdot^2/2 - q^2/2",
                                  "sqrt(1+qdot^2)*exp(-q)*tau",
                                  "log(q)/qdot + (qdot*q)^tau - abs(q)^-2"])
def test_accel_partials_match_the_tree_walk(text):
    expr = parse(text)
    env = {"qdot": np.array([0.3, -1.2, 2.0]), "q": np.array([0.7, 1.5, 0.2]),
           "tau": 0.4}
    _assert_same_outcome(_outcome(lambda: partials(expr, _ACCEL_PARTIALS, env)),
                         _outcome(lambda: _tree_partials(expr, _ACCEL_PARTIALS,
                                                         env)))


# ---------------------------------------------------------------------------
# what the compiled program holds


@pytest.mark.parametrize("complex_mode", [False, True])
@pytest.mark.parametrize("text, operations", [
    ("qdot^2/2 - q^2/2", 10), ("sqrt(1+qdot^2)*exp(-q)*tau", 25)])
def test_accel_program_runs_each_distinct_operation_once(text, operations,
                                                         complex_mode):
    # 26 and 143 tree nodes; each operation assigns one register, and so
    # does each variable lookup
    program = exprdsl._program(parse(text), _ACCEL_PARTIALS, complex_mode)
    assigned = re.findall(r"^ *r\d+ = (.*)$", program.source, re.MULTILINE)
    assert sum(not value.startswith("env[") for value in assigned) == operations


def test_pruned_accel_program_holds_no_value_only_operation():
    # the value's two squares, two halvings and difference are left out
    program = exprdsl._program(parse("qdot^2/2 - q^2/2"), _ACCEL_PARTIALS, False,
                               _ACCEL_RETURNS)
    assigned = re.findall(r"^ *(r\d+) = (.*)$", program.source, re.MULTILINE)
    assert sum(not value.startswith("env[") for _, value in assigned) == 5
    assert "_intpow" not in program.source
    # and every register it assigns is read
    reads = "\n".join(line for line in program.source.splitlines()
                      if not line.strip().startswith("del "))
    for register, _ in assigned:
        assert len(re.findall(rf"\b{register}\b", reads)) >= 2, register


def test_pruned_accel_program_keeps_a_value_only_check():
    # log(q) only feeds the value, but its check still runs in its place
    expr = parse("qdot^2/2 + log(q)")
    program = exprdsl._program(expr, _ACCEL_PARTIALS, False, _ACCEL_RETURNS)
    assert "_log(" not in program.source
    env = {"qdot": np.array([0.5, 1.0, 2.0]), "q": np.array([1.0, -1.0, 0.0]),
           "tau": 0.0}
    want = _outcome(lambda: partials(expr, _ACCEL_PARTIALS, env))
    assert want[:3] == ("error", EvalError,
                        "log of a non-positive value in real mode (node 1)")
    _assert_same_outcome(_outcome(lambda: program(env)), want)


def test_only_a_divisor_that_can_be_zero_is_checked():
    literal = exprdsl._program(parse("(2.0*qdot)/2.0"), (), False)
    assert "division by zero" not in literal.source
    variable = exprdsl._program(parse("(2.0*qdot)/q"), (), False)
    assert variable.source.count("division by zero") == 1
    with pytest.raises(EvalError, match="division by zero") as info:
        evaluate(parse("qdot/0"), {"qdot": np.ones(3)})
    assert info.value.index is None


def test_signed_zero_literals_stay_apart():
    # d2L/dq dqdot of qdot^2/2 - q^2/2 folds to -0.0, dL/dtau to 0.0
    out = partials(parse("qdot^2/2 - q^2/2"), _ACCEL_PARTIALS,
                   {"qdot": 1.0, "q": 1.0, "tau": 0.0})
    assert math.copysign(1.0, out[4]) == -1.0
    assert math.copysign(1.0, out[5]) == 1.0


def test_program_is_built_once_per_variable_tuples_and_mode():
    expr = parse("qdot^2/2 - q^2/2")
    real = exprdsl._program(expr, _ACCEL_PARTIALS, False)
    partials(expr, list(_ACCEL_PARTIALS), {"qdot": 1.0, "q": 2.0, "tau": 0.0})
    assert exprdsl._program(expr, _ACCEL_PARTIALS, False) is real
    assert exprdsl._program(expr, _ACCEL_PARTIALS, True) is not real


def test_shooting_field_is_built_once_per_lagrangian(tmp_path, monkeypatch):
    # a solve at n = 400 integrates 4 times, and a sweep over three alphas
    # 12 times; each builds the one shooting program of its Lagrangian.
    # Parses are shared, so the counts start from an empty parse cache
    exprdsl._parsed.cache_clear()
    builds = []
    compile_ = builtins.compile

    def counted(source, filename, *args, **kwargs):
        if filename == "<falva program>":
            builds.append(source)
        return compile_(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counted)
    solve_el_bvp(parse("qdot^2/2 - q^2/2"), BoundaryData1D(0.0, 1.0, 0.0, 1.0),
                 0.5, 400)
    assert len(builds) == 1
    assert builds[0].startswith("def program(qdot, q, tau, damping):")
    argv = ["sweep", "--sweep-kind", "solve-bvp", "--lagrangian", "qdot^2/2",
            "--alpha", "0.25,0.5,0.75", "--domain", "0,1", "--boundary", "0,1",
            "--n", "400", "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    assert len(builds) == 2


# ---------------------------------------------------------------------------
# the shooting integrator against a plain RK4


def _stage_error(curvature, tau):
    if curvature == 0:
        return SingularLagrangianError(f"d2L/dqdot^2 vanished at tau = {tau:g}",
                                       tau=tau)
    if math.isfinite(curvature):
        return StepFailure(f"non-finite derivative at tau = {tau!r}", tau=tau)
    return StepFailure(f"d2L/dqdot^2 is not finite at tau = {tau:g}", tau=tau)


def _reference_rk4(L, q0, slopes, alpha, n):
    """(Q, V, failures) of the Euler-Lagrange dynamics from q0 at 0 up to
    the match time 1 - eps, by classical RK4 on lane arrays, one lane per
    slope, with the field from the env-dict ``partials`` program and every
    stage checked.  A lane whose derivative is not finite records its error
    and rides along as NaN; one slope is a scan of one lane."""
    grid = Grid1D(0.0, 1.0 - max(0.02, 2.0 / n), n)
    h, m = grid.h, len(slopes)
    failures = [None] * m
    dead = np.zeros(m, dtype=bool)

    def derivative(q, v, tau):
        q, v = np.where(dead, np.nan, q), np.where(dead, np.nan, v)
        _, l_qd, l_qdqd, l_q, l_qdq, _, l_qdtau = partials(
            L, _ACCEL_PARTIALS, {"qdot": v, "q": q, "tau": tau})
        force = l_q - (1.0 - alpha) / (1.0 - tau) * l_qd - l_qdq * v - l_qdtau
        curvature = np.broadcast_to(l_qdqd, (m,))
        acc = force / l_qdqd
        finite = np.isfinite(v) & np.isfinite(acc) & np.isfinite(curvature)
        for i in np.flatnonzero(~(finite | dead)):
            failures[i] = _stage_error(float(curvature[i]), tau)
            dead[i] = True
        return v, acc

    q, v = np.full(m, float(q0)), np.array(slopes, dtype=float)
    rows = [(q, v)]
    for tau in grid.nodes.tolist()[:-1]:
        if dead.all():
            break
        v1, a1 = derivative(q, v, tau)
        v2, a2 = derivative(q + 0.5 * h * v1, v + 0.5 * h * a1, tau + 0.5 * h)
        v3, a3 = derivative(q + 0.5 * h * v2, v + 0.5 * h * a2, tau + 0.5 * h)
        v4, a4 = derivative(q + h * v3, v + h * a3, tau + h)
        q = q + h / 6.0 * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        rows.append((np.where(dead, np.nan, q), np.where(dead, np.nan, v)))
    Q, V = np.full((2, n + 1, m), np.nan)
    Q[:len(rows)] = [row[0] for row in rows]
    V[:len(rows)] = [row[1] for row in rows]
    return Q, V, failures


def _run_outcome(fn):
    """("ok", Q, V, failures) or ("error", message, index) of an EvalError."""
    try:
        with np.errstate(all="ignore"):
            Q, V, failures = fn()
    except EvalError as err:
        return ("error", str(err), err.index)
    return ("ok", Q, V, [None if f is None else (type(f), str(f), f.tau)
                         for f in failures])


def _assert_same_run(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1:] == want[1:]
        return
    assert _same_bits(got[1], want[1]) and _same_bits(got[2], want[2])
    assert got[3] == want[3]


# the times of the mid and end stages of step 40 of 100 on the match grid
# [0, 0.98], and a term that overflows at the mid stages of that step
_MATCH_GRID = Grid1D(0.0, 0.98, 100)
_H, _START = _MATCH_GRID.h, _MATCH_GRID.nodes.tolist()[40]
_MID, _END = _START + 0.5 * _H, _START + _H
_BLOW_UP = f"exp({8000.0 / _H!r}*(tau - {_START + 0.25 * _H!r}))*q"

SLOPES = st.lists(st.sampled_from([0.0, 1.0, -2.5, 3.0, 40.0, -300.0, 1e200]),
                  min_size=2, max_size=4)


@settings(max_examples=300)
@given(text=st.one_of(EXPRESSIONS, EXPRESSIONS.map("qdot^2/2 + ({})".format)),
       q0=REALS, slopes=SLOPES, alpha=st.sampled_from([0.25, 0.5, 0.75]),
       n=st.integers(3, 12))
# lanes that lose their curvature mid-step, and one that overflows
@example(text="exp(-q)*qdot^2/2", q0=0.0, slopes=[1.0, 20.0, 30.0, 60.0],
         alpha=0.5, n=100)
@example(text="qdot^2/2 + q^4/4", q0=0.0, slopes=[2.0, -20.0, 300.0],
         alpha=0.5, n=100)
# d2L/dqdot^2 = 2 q overflows at q = 1e308 while the force stays finite
@example(text="q*qdot^2", q0=1e308, slopes=[0.0, 1e-10], alpha=0.5, n=10)
# a check of tau alone, which fails at tau = 0.5 in every lane
@example(text="qdot^2/2 + log(0.5 - tau)*q", q0=0.0, slopes=[1.0, 2.0],
         alpha=0.5, n=100)
# a zero curvature at the mid stages, then a check of tau alone at the end
@example(text=f"qdot^2/2*(tau - {_MID!r})^2 + log({_END!r} - tau)*q", q0=0.0,
         slopes=[0.5, 1.0], alpha=0.5, n=100)
# a blow-up at the second stage, then a zero curvature at the end
@example(text=f"qdot^2/2*(tau - {_END!r})^2 + {_BLOW_UP}", q0=0.0,
         slopes=[0.5, 1.0], alpha=0.5, n=100)
def test_shooting_matches_a_plain_rk4(text, q0, slopes, alpha, n):
    L = parse(text)

    def fused(v0):
        return _integrate_el(L, 0.0, 1.0, q0, v0, alpha, n)[1:]

    scan = _run_outcome(lambda: fused(np.array(slopes)))
    _assert_same_run(scan, _run_outcome(
        lambda: _reference_rk4(L, q0, slopes, alpha, n)))
    for i, slope in enumerate(slopes):
        lone = _run_outcome(lambda: fused(slope))
        _assert_same_run(lone, _run_outcome(
            lambda: _reference_rk4(L, q0, [slope], alpha, n)))
        if scan[0] == lone[0] == "ok":
            # a lone run has the bits and the failure of its scan lane
            _assert_same_run(lone, ("ok", scan[1][:, i:i + 1],
                                    scan[2][:, i:i + 1], [scan[3][i]]))
