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


# Lagrangians whose value tree fails before any partial does, at a node
# where q is 0 or negative
FAILING_VALUES = ("qdot^2/2 + log(q)", "qdot^2/2 + sqrt(q)", "qdot^2/2 + q^0.5",
                  "qdot^2/2 + 1/q", "qdot*q + 3/q + tau")


class TestPrunedPartialFields:
    """``_partial_fields`` runs the program pruned to the partials: the bits
    of ``partials(...)[1:]``, and its first error."""

    Q = np.array([0.5, 2.0, 0.0, -1.0])
    TUPLES = ((("q",), ("qdot",)), (("qdot",), ("q",)), _HESSIAN_PARTIALS)

    def _env(self, complex_mode, q):
        qdot = np.array([1.0, -2.0, 3.0, 0.25])
        if complex_mode:
            qdot = qdot + np.array([0.5, -0.25, 0.0, 1.0]) * 1j
        return {"qdot": qdot, "q": q, "tau": np.linspace(0.0, 0.75, 4)}

    @pytest.mark.parametrize("complex_mode", [False, True])
    @pytest.mark.parametrize("tuples", TUPLES)
    @pytest.mark.parametrize("text", ["exp(-q)*qdot^2/2 + q^3*tau",
                                      "sqrt(1 + qdot^2) + log(q)", "qdot^2/2",
                                      "abs(q)*qdot + sin(tau)", *FAILING_VALUES])
    def test_the_bits_of_partials(self, text, tuples, complex_mode):
        L = parse(text)
        env = self._env(complex_mode, np.array([0.5, 2.0, 1.5, 3.0]))
        fields = _partial_fields(L, tuples, env, (4,))
        full = dict(zip(tuples, partials(L, tuples, env)[1:]))
        for v, field in zip(tuples, fields):
            want = full[v] if L.free_vars.issuperset(v) else 0.0
            want = np.broadcast_to(np.asarray(want), (4,))
            assert field.dtype == want.dtype
            assert field.tobytes() == want.tobytes()

    @pytest.mark.parametrize("complex_mode", [False, True])
    @pytest.mark.parametrize("tuples", TUPLES)
    @pytest.mark.parametrize("text", FAILING_VALUES)
    def test_the_first_error_of_the_value(self, text, tuples, complex_mode):
        L = parse(text)
        env = self._env(complex_mode, self.Q)
        with pytest.raises(EvalError) as full:
            partials(L, tuples, env)
        with pytest.raises(EvalError) as pruned:
            _partial_fields(L, tuples, env, (4,))
        assert str(pruned.value) == f"{full.value} [grid node {full.value.index}]"
        assert pruned.value.index == full.value.index


class TestPartialFieldsOwnTheirArrays:
    """Every array ``_partial_fields`` returns is the caller's own: a
    writeable field that shares memory with no input and no other partial,
    with the bits of ``partials(...)[1:]``."""

    SHAPE = (5, 4)
    TUPLES = (("q",), ("qx",), ("qy",))

    @pytest.mark.parametrize("complex_mode", [False, True])
    @pytest.mark.parametrize("text", [
        "(qx + qy)^2/2",  # one array for both momenta
        "qx*qy",  # each momentum is the other input
        "q*qx + q*qy",  # both momenta are the input q
        "qx + qy",  # constant partials: floats
    ])
    def test_each_field_is_its_own(self, text, complex_mode):
        rng = np.random.default_rng(7)
        env = {name: rng.standard_normal(self.SHAPE) for name in ("q", "qx", "qy")}
        if complex_mode:
            env = {name: v + 0.5j * rng.standard_normal(self.SHAPE)
                   for name, v in env.items()}
        L = parse(text)
        fields = _partial_fields(L, self.TUPLES, env, self.SHAPE)
        for k, (field, want) in enumerate(zip(fields,
                                              partials(L, self.TUPLES, env)[1:])):
            assert field.shape == self.SHAPE
            assert field.flags.writeable
            others = [*env.values(), *fields[:k], *fields[k + 1:]]
            assert not any(np.shares_memory(field, other) for other in others)
            want = np.broadcast_to(np.asarray(want), self.SHAPE)
            assert field.dtype == want.dtype
            assert field.tobytes() == want.tobytes()


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
