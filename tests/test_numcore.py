import math

import numpy as np
import pytest

from falva import (
    ArgumentError,
    BracketingError,
    DomainError,
    Grid1D,
    GridFunction,
    GridFunctionND,
    GridError,
    StepFailure,
    find_root,
    gamma,
    observed_order,
    ode_step_rk4,
    weighted_integral,
)


class TestGamma:
    def test_factorials(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma(4.0) == pytest.approx(6.0, rel=1e-14)

    def test_half(self):
        # oracle: gamma(1/2) = sqrt(pi) via the reflection identity
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_matches_stdlib_on_0_30(self):
        xs = np.linspace(0.05, 30.0, 517)
        for x in xs:
            assert gamma(float(x)) == pytest.approx(math.gamma(float(x)), rel=1e-12)

    def test_recurrence_property(self):
        xs = np.linspace(0.1, 20.0, 100, endpoint=False) + 1e-3
        for x in xs:
            assert gamma(float(x) + 1.0) == pytest.approx(
                float(x) * gamma(float(x)), rel=1e-12
            )

    def test_reflection_negative(self):
        assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-12)
        assert gamma(-1.5) == pytest.approx(math.gamma(-1.5), rel=1e-12)

    @pytest.mark.parametrize("pole", [0.0, -1.0, -2.0, -17.0])
    def test_pole_raises(self, pole):
        with pytest.raises(DomainError, match="pole"):
            gamma(pole)

    @pytest.mark.parametrize("x", [1e-320, -1e-320, 172.0])
    def test_overflow_raises(self, x):
        with pytest.raises(DomainError, match="overflow"):
            gamma(x)

    def test_tiny_orders_that_do_not_overflow(self):
        assert gamma(1e-300) == math.gamma(1e-300)


class TestGrid:
    def test_nodes_uniform(self):
        g = Grid1D(0.25, 2.25, 8)
        assert g.h == pytest.approx(0.25)
        assert np.allclose(np.diff(g.nodes), g.h)
        assert g.nodes[0] == 0.25 and g.nodes[-1] == 2.25

    def test_rejects_bad(self):
        with pytest.raises(GridError):
            Grid1D(1.0, 1.0, 4)
        with pytest.raises(GridError):
            Grid1D(0.0, 1.0, 1)
        for n in (float("nan"), float("inf"), None):
            with pytest.raises(GridError):
                Grid1D(0.0, 1.0, n)

    def test_rejects_nonfinite_values(self):
        g = Grid1D(0.0, 1.0, 4)
        with pytest.raises(GridError, match="non-finite value at unflagged node 2$"):
            GridFunction(g, [0.0, 1.0, np.inf, 0.0, 0.0])
        plane = np.zeros((5, 5))
        plane[1, 2] = np.nan  # flat index 7
        with pytest.raises(GridError, match="unflagged node 7$"):
            GridFunctionND((g, g), plane)

    def test_shape_errors_read_alike_in_1d_and_nd(self):
        g = Grid1D(0.0, 1.0, 4)
        message = r"values shape \(4,\) does not match grid shape \(5,\)"
        with pytest.raises(GridError, match=message):
            GridFunction(g, np.zeros(4))
        with pytest.raises(GridError, match=message):
            GridFunctionND((g,), np.zeros(4))
        for make in (GridFunction, lambda g, v, f: GridFunctionND((g,), v, f)):
            with pytest.raises(GridError, match="flags shape does not match"):
                make(g, np.zeros(5), np.zeros(4, dtype=bool))

    def test_flagged_nonfinite_allowed(self):
        g = Grid1D(0.0, 1.0, 4)
        flags = np.array([False, False, True, False, False])
        gf = GridFunction(g, [0.0, 1.0, np.nan, 0.0, 0.0], flags)
        assert gf.flags[2]


class TestWeightedIntegral:
    def test_constant_half(self):
        # int_0^1 (1-tau)^(-1/2) dtau = 2
        g = Grid1D(0.0, 1.0, 100)
        f = GridFunction(g, np.ones(101))
        assert weighted_integral(f, 0.5) == pytest.approx(2.0, rel=1e-13)

    def test_linear_beta(self):
        # int_0^1 tau (1-tau)^(-1/2) dtau = B(2, 1/2) = 4/3
        g = Grid1D(0.0, 1.0, 64)
        f = GridFunction(g, g.nodes)
        assert weighted_integral(f, 0.5) == pytest.approx(4.0 / 3.0, rel=1e-13)

    def test_zero(self):
        g = Grid1D(0.0, 1.0, 16)
        assert weighted_integral(GridFunction(g, np.zeros(17)), 0.3) == 0.0

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_constant_closed_form(self, alpha):
        # c (t-a)^alpha / alpha, exactness for constants
        g = Grid1D(0.5, 2.75, 37)
        c = 3.25
        f = GridFunction(g, np.full(38, c))
        expected = c * (g.t - g.a) ** alpha / alpha
        assert weighted_integral(f, alpha) == pytest.approx(expected, rel=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        g = Grid1D(0.0, 2.0, 40)
        f1 = rng.normal(size=41)
        f2 = rng.normal(size=41)
        a, b = 1.7, -0.45
        lhs = weighted_integral(GridFunction(g, a * f1 + b * f2), 0.35)
        rhs = a * weighted_integral(GridFunction(g, f1), 0.35) + b * weighted_integral(
            GridFunction(g, f2), 0.35
        )
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-14)

    def test_alpha_out_of_range(self):
        g = Grid1D(0.0, 1.0, 8)
        f = GridFunction(g, np.zeros(9))
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                weighted_integral(f, alpha)

    def test_complex_values(self):
        g = Grid1D(0.0, 1.0, 32)
        f = GridFunction(g, (1.0 + 2.0j) * np.ones(33))
        assert weighted_integral(f, 0.5) == pytest.approx((1 + 2j) * 2.0, rel=1e-13)


class TestRK4:
    def test_constant_field(self):
        out = ode_step_rk4(np.array([1.0]), lambda y, t: np.zeros(1), 0.0, 0.3)
        assert out[0] == 1.0

    def test_exponential_step(self):
        out = ode_step_rk4(np.array([1.0]), lambda y, t: y, 0.0, 0.1)
        assert abs(out[0] - math.exp(0.1)) < 1e-7

    def test_harmonic_quarter_period(self):
        def field(y, t):
            return np.array([y[1], -y[0]])

        y = np.array([0.0, 1.0])
        tau = 0.0
        h = 1e-3
        target = math.pi / 2.0
        while tau < target - 1e-12:
            step = min(h, target - tau)
            y = ode_step_rk4(y, field, tau, step)
            tau += step
        assert abs(y[0] - 1.0) < 1e-9
        assert abs(y[1]) < 1e-9

    def test_empirical_order_four(self):
        # integrate x' = x over [0,1] at several resolutions
        errs = []
        for n in (16, 32, 64, 128):
            h = 1.0 / n
            y = np.array([1.0])
            for k in range(n):
                y = ode_step_rk4(y, lambda yy, tt: yy, k * h, h)
            errs.append((h, abs(y[0] - math.e)))
        assert observed_order(errs) == pytest.approx(4.0, abs=0.1)

    def test_nonfinite_field_fails(self):
        def field(y, t):
            return np.array([np.nan])

        with pytest.raises(StepFailure) as info:
            ode_step_rk4(np.array([1.0]), field, 0.25, 0.1)
        assert info.value.tau == 0.25


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 2.0, 0.0, 5.0, 1e-12) == pytest.approx(2.0)

    def test_sqrt2(self):
        root = find_root(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-11)

    def test_cos(self):
        root = find_root(math.cos, 1.0, 2.0, 1e-12)
        assert root == pytest.approx(math.pi / 2.0, abs=1e-11)

    def test_no_bracket(self):
        with pytest.raises(BracketingError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)

    def test_tiny_values_are_compared_by_sign(self):
        # products of two values near 1e-170 underflow to zero
        g = lambda x: 1e-170 * (x - 0.3)  # noqa: E731
        assert find_root(g, -1.0, 1.0, 1e-190) == pytest.approx(0.3, abs=1e-15)
        with pytest.raises(BracketingError):
            find_root(g, 1.0, 2.0, 1e-190)

    @staticmethod
    def _recorded(g):
        points = []

        def recorded(x):
            points.append(x)
            return g(x)
        return recorded, points

    @pytest.mark.parametrize("lo, hi, root", [(1.0, 3.0, 1.0), (-1.0, 1.0, 1.0)])
    def test_an_end_that_is_a_root_is_returned(self, lo, hi, root):
        g, points = self._recorded(lambda x: x - root)
        assert find_root(g, lo, hi, 1e-12) == root
        assert points == [lo, hi]

    def test_a_bracket_narrower_than_tol_stops_the_search(self):
        # neither end is within tol of 0, and the root lies nearer lo
        g, points = self._recorded(lambda x: 1e3 * (x - 4e-14))
        assert find_root(g, 0.0, 1e-13, 1e-12) == 0.0
        assert points == [0.0, 1e-13]

    @pytest.mark.parametrize("hi, end", [(1.0, 0.0), (0.5, 0.5)])
    def test_without_iterations_the_end_nearer_a_root_is_returned(self, hi, end):
        assert find_root(lambda x: x - 0.3, 0.0, hi, 1e-12, max_iter=0) == end


class TestObservedOrder:
    def test_quadratic(self):
        assert observed_order([(0.1, 0.01), (0.05, 0.0025)]) == pytest.approx(2.0)

    def test_rl_power_law_three_points(self):
        # three points from the left-derivative power-law test at alpha=0.5
        from falva import rl_left

        oracle = math.gamma(3.0) / math.gamma(2.5)
        errs = []
        for n in (64, 128, 256):
            g = Grid1D(0.0, 1.0, n)
            d = rl_left(GridFunction(g, g.nodes**2), 0.5)
            errs.append((1.0 / n, abs(d.values[-1] - oracle) / oracle))
        assert observed_order(errs) >= 1.3

    def test_linear(self):
        assert observed_order([(0.1, 1e-1), (0.01, 1e-2)]) == pytest.approx(1.0)

    def test_needs_two_points(self):
        with pytest.raises(ArgumentError):
            observed_order([(0.1, 0.01)])

    def test_rejects_increasing_h(self):
        with pytest.raises(ArgumentError):
            observed_order([(0.05, 1.0), (0.1, 2.0)])
