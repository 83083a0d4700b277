"""First and second partials: edge cases of the derivative rules, the
partial fields of the functionals, and a random-expression check of
``second_partials``."""

import numpy as np
import pytest

from falva import EvalError, parse, partial, partials, second_partials
from falva.action import _partial_fields
from falva.euler import _HESSIAN_PARTIALS


class TestPartialEdgeCases:
    def test_fractional_power_at_zero_base_names_the_node(self):
        with pytest.raises(EvalError) as info:
            partial(parse("q^0.5"), "q", {"q": np.array([0.5, 0.0, 1.0])})
        assert info.value.index == 1

    def test_abs_derivative_is_sign(self):
        qdot = np.array([-0.7, 0.0, 0.4])
        q = np.array([1.3, 2.0, -0.5])
        out = partial(parse("abs(qdot)*q"), "qdot", {"qdot": qdot, "q": q})
        assert np.array_equal(out, np.sign(qdot) * q)
        assert out[1] == 0.0

    def test_abs_derivative_rejects_complex_values(self):
        with pytest.raises(EvalError, match="abs"):
            partial(parse("abs(qdot)*q"), "qdot", {"qdot": 0.3 + 0.1j, "q": 1.0})

    def test_primal_domain_check_still_runs(self):
        # sqrt(q) does not depend on qdot, but its value is out of domain
        with pytest.raises(EvalError):
            partial(parse("qdot^2 + sqrt(q)"), "qdot",
                    {"qdot": 0.5, "q": -1.0, "tau": 0.2})

    def test_second_partial_ignores_an_overflowing_term(self):
        # d2/dqdot^2 of qdot^2/2 + q^4/4 is exactly 1, even where q^4 overflows
        q = np.array([0.5, 1e120])
        with np.errstate(over="ignore"):
            _, _, _, d2 = second_partials(parse("qdot^2/2 + q^4/4"), "qdot",
                                          "qdot", {"qdot": np.ones(2), "q": q,
                                                   "tau": np.zeros(2)})
        assert np.all(np.asarray(d2) == 1.0)


class TestPartialFields:
    ENV = {"qdot": np.array([1.0, 2.0, 3.0]), "q": np.array([0.5, 2.0, 4.0])}

    def test_a_tuple_with_an_unused_variable_gives_zero(self):
        tuples = (("qdot",), ("tau",), ("q", "tau"), ("q", "qdot"), ("q", "q"))
        fields = _partial_fields(parse("qdot^2/2 + log(q)"), tuples, self.ENV, (3,))
        q = self.ENV["q"]
        expected = [self.ENV["qdot"], 0.0, 0.0, 0.0, -1.0 / (q * q)]
        for field, want in zip(fields, expected):
            assert field.shape == (3,)
            assert np.array_equal(field, np.broadcast_to(want, (3,)))

    @pytest.mark.parametrize("text", ["exp(-q)*qdot^2/2 + q^3", "-(qdot^2)*q",
                                      "qdot^4/4", "q^2"])
    def test_the_hessian_partials_are_those_of_one_program(self, text):
        # a tuple with an unused variable is left out of the program, and
        # every partial keeps its value
        L = parse(text)
        fields = _partial_fields(L, _HESSIAN_PARTIALS, self.ENV, (3,))
        for field, want in zip(fields, partials(L, _HESSIAN_PARTIALS, self.ENV)[1:]):
            assert np.array_equal(field, np.broadcast_to(want, (3,)))

    def test_the_first_error_names_its_node(self):
        env = dict(self.ENV, q=np.array([1.0, 0.0, -1.0]))
        with pytest.raises(EvalError) as info:
            _partial_fields(parse("qdot^2/2 + log(q)"), _HESSIAN_PARTIALS, env,
                            (3,), offsets=(2,))
        assert str(info.value) == ("log of a non-positive value in real mode "
                                   "(node 1) [grid node 3]")


def test_random_second_partials():
    """d_ab against central differences of ``partial`` (the criterion-9
    bound), symmetry d_ab == d_ba, and d_a, d_b equal to ``partial``."""
    from test_exprdsl import _random_expr

    rng = np.random.default_rng(31337)
    step = 1e-6
    names = ("qdot", "q", "tau")
    accepted = 0
    attempts = 0
    while accepted < 200 and attempts < 3000:
        attempts += 1
        expr = parse(_random_expr(rng, depth=int(rng.integers(1, 4))))
        var_a, var_b = (str(v) for v in rng.choice(names, size=2))
        env = {name: float(rng.uniform(0.3, 1.2)) for name in names}
        try:
            _, d_a, d_b, d_ab = second_partials(expr, var_a, var_b, env)
            d_ba = second_partials(expr, var_b, var_a, env)[3]
            hi, lo = dict(env), dict(env)
            hi[var_a] += step
            lo[var_a] -= step
            fd = (partial(expr, var_b, hi) - partial(expr, var_b, lo)) / (2 * step)
        except EvalError:
            continue
        if not (np.isfinite(d_ab) and np.isfinite(fd)) or abs(d_ab) > 1e3:
            continue
        accepted += 1
        assert d_a == partial(expr, var_a, env)
        assert d_b == partial(expr, var_b, env)
        assert abs(d_ab - d_ba) <= 1e-12 * max(abs(d_ab), abs(d_ba)), (
            f"d2/d{var_a}d{var_b} not symmetric for {expr}: {d_ab} vs {d_ba}")
        assert abs(d_ab - fd) / (1.0 + abs(d_ab)) < 1e-6, (
            f"d2/d{var_a}d{var_b} against FD for {expr} at {env}: {d_ab} vs {fd}")
    assert accepted == 200
