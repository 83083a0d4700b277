import math

import numpy as np
import pytest

from falva import (
    EvalError,
    ExprSyntaxError,
    UnknownFunctionError,
    evaluate,
    parse,
    partial,
    second_partials,
    serialize,
)
from falva.exprdsl import Bin, Call, Neg, Num, Var


class TestParse:
    def test_free_vars(self):
        assert parse("qdot^2/2 - q^2/2").free_vars == frozenset({"qdot", "q"})
        assert parse("(qx^2 + qy^2)/2").free_vars == frozenset({"qx", "qy"})

    def test_precedence(self):
        assert evaluate(parse("2+3*4"), {}) == 14.0
        assert evaluate(parse("(2+3)*4"), {}) == 20.0
        # right-associative: 2^(3^2), not (2^3)^2 = 64
        assert evaluate(parse("2^3^2"), {}) == pytest.approx(512.0, rel=1e-13)
        assert evaluate(parse("-2^2"), {}) == -4.0  # unary minus below ^
        assert evaluate(parse("2^-2"), {}) == 0.25
        assert evaluate(parse("6/3/2"), {}) == 1.0  # left-associative

    def test_structure(self):
        tree = parse("qdot + 1").ast
        assert tree == Bin("+", Var("qdot"), Num(1.0))
        assert parse("-q").ast == Neg(Var("q"))
        assert parse("sin(q)").ast == Call("sin", Var("q"))

    def test_unclosed_paren_offset(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("sin(q")
        assert info.value.offset == 6

    def test_unknown_function_distinct(self):
        with pytest.raises(UnknownFunctionError):
            parse("sinh(q)")

    def test_empty_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("   ")

    def test_trailing_tokens(self):
        with pytest.raises(ExprSyntaxError):
            parse("q 2")

    def test_whitespace_insensitive(self):
        a = parse("qdot ^ 2 / 2").ast
        b = parse("qdot^2/2").ast
        assert a == b


class TestSerialize:
    @pytest.mark.parametrize(
        "source",
        [
            "qdot^2/2 - q^2/2",
            "sin(qdot*q) + exp(-tau)",
            "sqrt(q + 2.5)/(1 + tau^2)",
            "-q^3 + abs(qdot)",
            "log(1 + q^2) * cos(tau)",
        ],
    )
    def test_roundtrip_identical_tree(self, source):
        expr = parse(source)
        again = parse(serialize(expr))
        assert again.ast == expr.ast
        assert again.free_vars == expr.free_vars

    def test_roundtrip_eval_bit_for_bit(self):
        env = {"qdot": 0.37, "q": 1.21, "tau": 0.83}
        expr = parse("sin(qdot*q)/(1+tau^2) + qdot^3 - sqrt(q)")
        assert evaluate(parse(serialize(expr)), env) == evaluate(expr, env)


class TestEvaluate:
    def test_basic(self):
        assert evaluate(parse("qdot^2/2 - q^2/2"), {"qdot": 2.0, "q": 1.0}) == 1.5
        assert evaluate(parse("exp(tau)"), {"tau": 0.0}) == 1.0

    def test_real_mode_domain_errors(self):
        with pytest.raises(EvalError):
            evaluate(parse("sqrt(q)"), {"q": -1.0})
        with pytest.raises(EvalError):
            evaluate(parse("log(q)"), {"q": 0.0})
        with pytest.raises(EvalError):
            evaluate(parse("q^0.5"), {"q": -2.0})

    def test_complex_mode_principal_branch(self):
        out = evaluate(parse("sqrt(q)"), {"q": -1.0 + 0.0j})
        assert out == pytest.approx(1j)
        out = evaluate(parse("q^0.5"), {"q": -1.0 + 0.0j})
        assert out == pytest.approx(1j)

    @pytest.mark.parametrize("text, fn", [
        ("sqrt(q - 0.5)", np.sqrt), ("log(q - 0.5)", np.log),
        ("(q - 0.5)^0.3", lambda z: np.exp(0.3 * np.log(z))),
    ])
    def test_real_argument_in_complex_mode(self, text, fn):
        # a complex binding elsewhere sets complex mode; the real-typed
        # argument with a negative element takes the principal branch
        q = np.array([0.1, 0.7, 1.5])
        out = evaluate(parse(text + " + 0*w"), {"q": q, "w": 1j})
        assert np.array_equal(out, fn((q - 0.5).astype(complex)))
        scalar = evaluate(parse(text + " + 0*w"), {"q": 0.25, "w": 1j})
        assert scalar == fn(complex(-0.25))

    def test_nonnegative_argument_in_complex_mode_keeps_its_bits(self):
        q = np.array([0.6, 0.7, 1.5])
        out = evaluate(parse("sqrt(q - 0.5)"), {"q": q, "w": 1j})
        assert out.dtype == np.float64
        assert np.array_equal(out, np.sqrt(q - 0.5))

    def test_unbound_variable(self):
        with pytest.raises(EvalError, match="unbound"):
            evaluate(parse("q + k"), {"q": 1.0})

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            evaluate(parse("1/q"), {"q": 0.0})

    def test_array_env_elementwise(self):
        q = np.array([0.0, 0.5, 1.0])
        out = evaluate(parse("q^2 + 1"), {"q": q})
        assert np.allclose(out, q**2 + 1)

    def test_array_error_carries_index(self):
        with pytest.raises(EvalError) as info:
            evaluate(parse("1/q"), {"q": np.array([1.0, 0.0, 2.0])})
        assert info.value.index == 1

    def test_integer_power_of_negative_base(self):
        assert evaluate(parse("q^2"), {"q": -3.0}) == 9.0
        assert evaluate(parse("q^3"), {"q": -2.0}) == -8.0


class TestPartial:
    def test_quadratic(self):
        expr = parse("qdot^2/2 - q^2/2")
        env = {"qdot": 2.0, "q": 1.0}
        assert partial(expr, "qdot", env) == 2.0
        assert partial(expr, "q", env) == -1.0

    def test_unused_variable_exactly_zero(self):
        expr = parse("qdot^2/2 - q^2/2")
        out = partial(expr, "tau", {"qdot": 2.0, "q": 1.0})
        assert out == 0.0 and isinstance(out, float)

    def test_product_chain(self):
        # oracle: central finite difference, step 1e-6
        expr = parse("sin(qdot*q)")
        env = {"qdot": 0.3, "q": 0.7}
        ad = partial(expr, "qdot", env)
        assert ad == pytest.approx(0.7 * math.cos(0.21), rel=1e-13)
        fd = (
            evaluate(expr, {"qdot": 0.3 + 1e-6, "q": 0.7})
            - evaluate(expr, {"qdot": 0.3 - 1e-6, "q": 0.7})
        ) / 2e-6
        assert abs(ad - fd) / (1.0 + abs(ad)) < 1e-6

    def test_array_partial(self):
        q = np.array([0.2, 0.4, 0.9])
        out = partial(parse("q^3"), "q", {"q": q})
        assert np.allclose(out, 3 * q**2, rtol=1e-14)

    def test_complex_partial(self):
        z = 0.4 + 0.3j
        out = partial(parse("qdot^2"), "qdot", {"qdot": z})
        assert out == pytest.approx(2 * z, rel=1e-14)

    def test_principal_branch_partial(self):
        # d/dq sqrt(q - 0.3) = 1 / (2 sqrt(q - 0.3)) on the principal branch
        expr = parse("sqrt(q - 0.3) + qdot^2")
        q = np.array([0.1, 0.2, 0.9])
        out = partial(expr, "q", {"q": q, "qdot": 0.5j})
        root = np.sqrt((q - 0.3).astype(complex))
        assert np.allclose(out, 1.0 / (2.0 * root), rtol=1e-14)
        scalar = partial(expr, "q", {"q": 0.1, "qdot": 0.5j})
        assert scalar == pytest.approx(1.0 / (2.0 * np.sqrt(complex(-0.2))),
                                       rel=1e-14)


class TestSecondPartials:
    def test_pure_second(self):
        val, d_a, d_b, d_ab = second_partials(
            parse("qdot^3"), "qdot", "qdot", {"qdot": 2.0}
        )
        assert val == 8.0
        assert d_a == 12.0 and d_b == 12.0
        assert d_ab == 12.0  # 6*qdot

    def test_mixed(self):
        expr = parse("sin(qdot*q)")
        env = {"qdot": 0.3, "q": 0.7}
        _, d_qd, d_q, d_mixed = second_partials(expr, "qdot", "q", env)
        x = 0.21
        assert d_qd == pytest.approx(0.7 * math.cos(x), rel=1e-13)
        assert d_q == pytest.approx(0.3 * math.cos(x), rel=1e-13)
        # d2/dq dqdot sin(qdot q) = cos(x) - x sin(x)
        assert d_mixed == pytest.approx(math.cos(x) - x * math.sin(x), rel=1e-12)

    def test_quadratic_lagrangian(self):
        expr = parse("qdot^2/2 - q^2/2")
        env = {"qdot": 1.3, "q": -0.4, "tau": 0.5}
        _, _, _, d_qdqd = second_partials(expr, "qdot", "qdot", env)
        _, _, _, d_qdq = second_partials(expr, "qdot", "q", env)
        _, _, _, d_qdtau = second_partials(expr, "qdot", "tau", env)
        assert d_qdqd == 1.0
        assert d_qdq == 0.0
        assert d_qdtau == 0.0


def _random_expr(rng, depth):
    """Random tree over the grammar, kept in benign numeric territory."""
    vars_ = ("qdot", "q", "tau")
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return rng.choice(vars_)
        return format(rng.uniform(0.3, 2.0), ".3f")
    kind = rng.random()
    if kind < 0.55:
        op = rng.choice(["+", "-", "*", "/"])
        lhs = _random_expr(rng, depth - 1)
        rhs = _random_expr(rng, depth - 1)
        if op == "/":
            rhs = f"(1.5 + ({rhs})^2)"  # keep denominators away from zero
        return f"(({lhs}) {op} ({rhs}))"
    if kind < 0.75:
        fn = rng.choice(["sin", "cos", "exp", "sqrt", "log"])
        arg = _random_expr(rng, depth - 1)
        if fn in ("sqrt", "log"):
            arg = f"(0.5 + ({arg})^2)"
        if fn == "exp":
            arg = f"(({arg}) / 4)"
        return f"{fn}({arg})"
    expo = rng.choice(["2", "3", "0.5", "1.5"])
    base = _random_expr(rng, depth - 1)
    return f"((0.5 + ({base})^2) ^ {expo})"


class TestRandomAgainstFiniteDifferences:
    def test_200_random_expressions(self):
        rng = np.random.default_rng(20240811)
        step = 1e-6
        accepted = 0
        attempts = 0
        while accepted < 200 and attempts < 2000:
            attempts += 1
            source = _random_expr(rng, depth=int(rng.integers(1, 4)))
            expr = parse(source)
            var = str(rng.choice(["qdot", "q", "tau"]))
            env = {
                "qdot": float(rng.uniform(0.3, 1.2)),
                "q": float(rng.uniform(0.3, 1.2)),
                "tau": float(rng.uniform(0.3, 1.2)),
            }
            try:
                ad = partial(expr, var, env)
                hi = dict(env)
                lo = dict(env)
                hi[var] += step
                lo[var] -= step
                fd = (evaluate(expr, hi) - evaluate(expr, lo)) / (2 * step)
            except EvalError:
                continue
            if not (np.isfinite(ad) and np.isfinite(fd)) or abs(ad) > 1e3:
                continue
            accepted += 1
            assert abs(ad - fd) / (1.0 + abs(ad)) < 1e-6, (
                f"AD/FD mismatch for {source!r} d/d{var} at {env}: {ad} vs {fd}"
            )
        assert accepted == 200
