import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from falva import (
    BoundaryData1D,
    BracketingError,
    DomainError,
    EvalError,
    Grid1D,
    GridError,
    GridFunction,
    GridFunctionND,
    OrderSet,
    SingularLagrangianError,
    SingularNodeError,
    SlotMismatchError,
    StepFailure,
    action_1d,
    action_1d_cresson,
    action_2d,
    action_nd,
    direct_minimize,
    el_residual_1d,
    el_residual_1d_cresson,
    el_residual_2d,
    el_residual_nd,
    parse,
    partial,
    product_weights,
    rayleigh,
    rl_left,
    rl_right,
    solve_el_bvp,
    solve_el_ivp,
    trapezoid_action,
    weighted_integral,
)
from falva import euler, find_root, observed_order, partials
from falva.euler import _integrate_el, _solve_tridiagonal

FREE = "qdot^2/2"
OSC = "qdot^2/2 - q^2/2"
QUARTIC = "qdot^2/2 + q^4/4"
LENGTH = "sqrt(1+qdot^2)"


def _free_particle_path(grid, alpha, qa=0.0, v0=1.5):
    """Closed-form extremal of the damped free particle:
    qddot = -(1-alpha)/(t-tau) qdot, q(a) = qa, qdot(a) = v0."""
    t, a = grid.t, grid.a
    c = v0 / ((2.0 - alpha) * (t - a) ** (1.0 - alpha))
    q = qa + c * ((t - a) ** (2.0 - alpha) - (t - grid.nodes) ** (2.0 - alpha))
    qdot = v0 * ((t - grid.nodes) / (t - a)) ** (1.0 - alpha)
    return q, qdot


_BD = BoundaryData1D(0.0, 1.0, 0.0, 1.0)
_PATH = GridFunction(Grid1D(0.0, 1.0, 8), np.linspace(0.0, 1.0, 9))
_BELOW = GridFunction(Grid1D(0.0, 0.5, 8), np.zeros(9))

# the six 1D routes that read L(qdot, q, tau) along a path, each as
# route(L, alpha); trapezoid_action has no order
_PATH_ROUTES = {
    "action_1d": lambda L, alpha: action_1d(L, _PATH, alpha),
    "el_residual_1d": lambda L, alpha: el_residual_1d(L, _PATH, alpha),
    "solve_el_ivp": lambda L, alpha: solve_el_ivp(L, 0.0, 1.0, 0.0, 1.0, alpha, 8),
    "direct_minimize": lambda L, alpha: direct_minimize(L, _BD, alpha, 8),
    "rayleigh": lambda L, alpha: rayleigh(L, _BELOW, _BELOW, alpha, 1.0),
    "trapezoid_action": lambda L, alpha: trapezoid_action(L, _PATH),
}


@pytest.mark.parametrize("route", _PATH_ROUTES)
def test_path_routes_share_one_slot_set(route):
    with pytest.raises(SlotMismatchError) as info:
        _PATH_ROUTES[route](parse("qdot^2 + x"), 0.5)
    assert str(info.value) == ("Lagrangian uses ['x']; allowed slots here are "
                               "['q', 'qdot', 'tau']")


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, math.nan])
@pytest.mark.parametrize("route", ["action_1d", "el_residual_1d", "solve_el_ivp",
                                   "direct_minimize"])
def test_path_routes_share_one_order_check(route, alpha):
    with pytest.raises(DomainError) as info:
        _PATH_ROUTES[route](parse(FREE), alpha)
    assert str(info.value) == f"alpha must lie in (0,1), got {alpha!r}"


_PLANE = GridFunctionND((Grid1D(0.0, 1.0, 8),) * 2, np.zeros((9, 9)))
_PLANE_ORDERS = OrderSet.for_2d(0.5, 0.5, 0.5, 0.5, -1j)

# every entry point that takes an observer time, each as route(observer)
_OBSERVER_ROUTES = {
    "action_2d": lambda t: action_2d(parse("q"), _PLANE, _PLANE_ORDERS, (t, 1.0)),
    "action_nd": lambda t: action_nd(parse("q"), _PLANE, _PLANE_ORDERS, (1.0, t)),
    "el_residual_2d": lambda t: el_residual_2d(parse("q^2/2"), _PLANE,
                                               _PLANE_ORDERS, (t, 1.0)),
    "el_residual_nd": lambda t: el_residual_nd(parse("q^2/2"), _PLANE,
                                               _PLANE_ORDERS, (1.0, t)),
    "el_residual_1d": lambda t: el_residual_1d(parse(FREE), _PATH, 0.5, observer=t),
    "product_weights": lambda t: product_weights(_PATH.grid, 0.5, observer=t),
    "weighted_integral": lambda t: weighted_integral(_PATH, 0.5, observer=t),
    "rayleigh": lambda t: rayleigh(parse(FREE), _BELOW, _BELOW, 0.5, t),
}


@pytest.mark.parametrize("observer", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("route", _OBSERVER_ROUTES)
def test_a_non_finite_observer_is_one_domain_error(route, observer):
    with pytest.raises(DomainError) as info:
        _OBSERVER_ROUTES[route](observer)
    assert str(info.value) == f"observer time must be finite, got {observer!r}"


_FLAGGED_ROUTES = {
    "action_1d": lambda q, qdot: action_1d(parse(OSC), q, 0.5, qdot=qdot),
    "trapezoid_action": lambda q, qdot: trapezoid_action(parse(OSC), q, qdot=qdot),
    "el_residual_1d": lambda q, qdot: el_residual_1d(parse(OSC), q, 0.5, qdot=qdot),
    "rayleigh": lambda q, qdot: rayleigh(parse(OSC), qdot, q, 0.5, 1.5),
}


@pytest.mark.parametrize("placeholder", [123.0, math.inf])
@pytest.mark.parametrize("flagged", ["path", "qdot"])
@pytest.mark.parametrize("route", _FLAGGED_ROUTES)
def test_path_routes_reject_a_flagged_sample(route, flagged, placeholder):
    # these routes read every node, and a flagged node holds a placeholder,
    # which they would otherwise take in (or warn on, if it is inf)
    grid, flags = _PATH.grid, np.arange(9) == 0
    values = {"path": np.sin(grid.nodes), "qdot": np.cos(grid.nodes)}
    _FLAGGED_ROUTES[route](*(GridFunction(grid, values[k]) for k in values))
    values[flagged][0] = placeholder
    q, qdot = (GridFunction(grid, values[k], flags if k == flagged else None)
               for k in values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridError) as info:
            _FLAGGED_ROUTES[route](q, qdot)
    assert str(info.value) == f"{route} expects an unflagged {flagged}"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("route", _FLAGGED_ROUTES)
def test_a_raw_qdot_array_with_a_non_finite_value_is_one_grid_error(route, bad):
    # a raw array is checked where it is taken in, so the error names it and
    # its first bad node; a NaN at node 2 was "action value is not finite"
    # from action_1d and "non-finite value at unflagged node 1" from
    # el_residual_1d, where the central difference had spread it
    grid = _PATH.grid
    q = GridFunction(grid, np.sin(grid.nodes))
    qdot = np.cos(grid.nodes)
    qdot[2], qdot[5] = bad, math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridError) as info:
            _FLAGGED_ROUTES[route](q, qdot)
    assert str(info.value) == "qdot sample array holds a non-finite value at node 2"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_raw_tau_array_with_a_non_finite_value_is_one_grid_error(bad):
    # a NaN was "non-finite value at unflagged node 2" of the output, and an
    # inf a SingularNodeError against the observer
    tau = [0.0, 0.1, bad, 0.3, math.nan]
    g = Grid1D(0.0, 0.4, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridError) as info:
            rayleigh(parse(FREE), GridFunction(g, np.ones(5)),
                     GridFunction(g, np.zeros(5)), 0.5, 1.0, tau=tau)
    assert str(info.value) == "tau sample array holds a non-finite value at node 2"


# every route that takes a path (a one-axis field), each as route(path, qdot)
_ONE_AXIS_ROUTES = {
    "rl_left": lambda q, qdot: rl_left(q, 0.5),
    "rl_right": lambda q, qdot: rl_right(q, 0.5),
    "weighted_integral": lambda q, qdot: weighted_integral(q, 0.5),
    **_FLAGGED_ROUTES,
}


@pytest.mark.parametrize("route, plane", [
    *((route, "path") for route in _ONE_AXIS_ROUTES),
    *((route, "qdot") for route in _FLAGGED_ROUTES),
])
def test_a_path_route_rejects_a_field_of_more_axes(route, plane):
    # a plane was an AttributeError on the grid it lacks ("'GridFunctionND'
    # object has no attribute 'grid'")
    grid = _PATH.grid
    args = {"path": GridFunction(grid, np.sin(grid.nodes)),
            "qdot": GridFunction(grid, np.cos(grid.nodes)), plane: _PLANE}
    with pytest.raises(GridError) as info:
        _ONE_AXIS_ROUTES[route](args["path"], args["qdot"])
    assert str(info.value) == f"{route} needs a one-axis field"


def test_action_1d_checks_the_order_before_the_path():
    complex_path = GridFunction(_PATH.grid, _PATH.values + 1j)
    with pytest.raises(DomainError, match=r"^alpha must lie in \(0,1\)"):
        action_1d(parse(FREE), complex_path, 0.0)
    with pytest.raises(DomainError, match="^action_1d expects a real-valued path"):
        action_1d(parse(FREE), complex_path, 0.5)


class TestRayleigh:
    def test_direct_substitution(self):
        # R = (1-alpha) L / (t-tau) with L = qdot^2/2 = 1/2 at qdot = 1
        g = Grid1D(0.0, 0.5, 4)
        qdot = GridFunction(g, np.ones(5))
        q = GridFunction(g, np.zeros(5))
        out = rayleigh(parse(FREE), qdot, q, 0.5, 1.0)
        j = 2  # tau = 0.25, t - tau = 0.75
        assert out.values[j] == pytest.approx(0.5 * 0.5 / 0.75, rel=1e-14)
        # check the quoted point t - tau = 0.5 exactly
        assert out.values[-1] == pytest.approx(0.5 * 0.5 / 0.5, rel=1e-14)

    def test_alpha_one_vanishes(self):
        g = Grid1D(0.0, 0.5, 8)
        qdot = GridFunction(g, np.ones(9))
        q = GridFunction(g, np.zeros(9))
        out = rayleigh(parse(FREE), qdot, q, 1.0, 1.0)
        assert np.all(out.values == 0.0)

    def test_zero_lagrangian(self):
        g = Grid1D(0.0, 0.5, 8)
        qdot = GridFunction(g, np.ones(9))
        q = GridFunction(g, np.zeros(9))
        out = rayleigh(parse("0"), qdot, q, 0.5, 1.0)
        assert np.all(out.values == 0.0)

    def test_node_at_observer_rejected(self):
        g = Grid1D(0.0, 1.0, 8)
        qdot = GridFunction(g, np.ones(9))
        q = GridFunction(g, np.zeros(9))
        with pytest.raises(SingularNodeError):
            rayleigh(parse(FREE), qdot, q, 0.5, 1.0)

    def test_qdot_on_another_grid_rejected(self):
        # the same node count on another interval
        q = GridFunction(Grid1D(0.0, 0.5, 8), np.zeros(9))
        qdot = GridFunction(Grid1D(0.0, 0.25, 8), np.ones(9))
        with pytest.raises(GridError,
                           match="^qdot samples live on a different grid than q$"):
            rayleigh(parse(FREE), qdot, q, 0.5, 1.0)


class TestElResidual1d:
    def test_free_particle_extremal(self):
        g = Grid1D(0.0, 1.0, 2000)
        qv, qdv = _free_particle_path(g, 0.5)
        rf = el_residual_1d(parse(FREE), GridFunction(g, qv), 0.5,
                            qdot=GridFunction(g, qdv))
        assert rf.sup_norm < 1e-4
        assert rf.epsilon_margin[0] == pytest.approx(0.05)

    def test_classical_oscillator(self):
        g = Grid1D(0.0, 1.0, 2000)
        q = GridFunction(g, np.sin(g.nodes))
        qd = GridFunction(g, np.cos(g.nodes))
        rf = el_residual_1d(parse(OSC), q, 1.0 - 1e-9, qdot=qd)
        assert rf.sup_norm < 1e-5

    def test_constant_path_zero_residual(self):
        g = Grid1D(0.0, 1.0, 100)
        rf = el_residual_1d(parse(FREE), GridFunction(g, np.full(101, 2.5)), 0.5)
        assert rf.sup_norm == 0.0

    def test_operator_form_identity(self):
        # residual == E(L) - dR/dqdot with dR/dqdot by finite differences
        g = Grid1D(0.0, 1.0, 400)
        alpha = 0.5
        qv, qdv = _free_particle_path(g, alpha)
        qv = qv + 0.1 * np.sin(3 * g.nodes)  # off-shell path
        qdv = qdv + 0.3 * np.cos(3 * g.nodes)
        L = parse(OSC)
        q = GridFunction(g, qv)
        qd = GridFunction(g, qdv)
        rf = el_residual_1d(L, q, alpha, qdot=qd)

        h = g.h
        nodes = g.nodes
        env = {"qdot": qdv, "q": qv, "tau": nodes}
        p = partial(L, "qdot", env)
        lq = partial(L, "q", env)
        dp = np.empty_like(p)
        dp[1:-1] = (p[2:] - p[:-2]) / (2 * h)
        dp[0] = dp[-1] = 0.0
        el_part = lq - dp

        step = 1e-6
        r_hi = rayleigh(L, GridFunction(g, qdv + step), q, alpha, g.t + 1e-12)
        r_lo = rayleigh(L, GridFunction(g, qdv - step), q, alpha, g.t + 1e-12)
        dr_dqdot = (r_hi.values - r_lo.values) / (2 * step)

        inc = ~rf.excluded
        diff = np.abs(rf.residual.values - (el_part - dr_dqdot))[inc]
        assert np.max(diff) < 1e-8

    def test_mesh_refinement_halves(self):
        sups = []
        for n in (500, 1000, 2000):
            q, qd = solve_el_ivp(parse(FREE), 0.0, 1.0, 0.0, 1.5, 0.5, n)
            rf = el_residual_1d(parse(FREE), q, 0.5, qdot=qd, observer=1.0)
            sups.append(rf.sup_norm)
        assert sups[0] > sups[1] > sups[2]

    def test_residual_of_solution(self):
        q, qd = solve_el_ivp(parse(FREE), 0.0, 1.0, 0.0, 1.5, 0.5, 4000)
        rf = el_residual_1d(parse(FREE), q, 0.5, qdot=qd, observer=1.0)
        assert rf.sup_norm < 1e-3


class TestElResidual1dCresson:
    def test_zero_path(self):
        g = Grid1D(0.0, 1.0, 200)
        rf = el_residual_1d_cresson(parse(OSC), GridFunction(g, np.zeros(201)),
                                    OrderSet.for_1d(0.5, 0.5, -1j))
        assert rf.sup_norm == 0.0

    def test_degenerates_toward_plain_variant(self):
        # extremal of the damped free particle at matching orders ~ 1
        al = 1.0 - 1e-3
        g = Grid1D(0.0, 1.0, 512)
        qv, _ = _free_particle_path(g, al)
        rf = el_residual_1d_cresson(parse(FREE), GridFunction(g, qv),
                                    OrderSet.for_1d(al, al, -1j))
        assert rf.sup_norm < 0.05

    def test_constant_gradient_lagrangian(self):
        # L = q: dL/dq = 1, dL/dqdot = 0, so the residual is exactly one
        g = Grid1D(0.0, 1.0, 128)
        q = GridFunction(g, np.sin(g.nodes) + 0.3)
        rf = el_residual_1d_cresson(parse("q"), q,
                                    OrderSet.for_1d(0.4, 0.7, 0.8 + 0.3j))
        inc = ~rf.excluded
        assert inc.any()
        assert np.max(np.abs(rf.residual.values[inc] - 1.0)) == 0.0

    def test_velocity_lagrangian_nonvanishing(self):
        # L = qdot: residual = -Adj(1) - (1-alpha)/(t-tau), which cannot
        # vanish; such Lagrangians admit no extremal
        g = Grid1D(0.0, 1.0, 256)
        q = GridFunction(g, g.nodes)
        rf = el_residual_1d_cresson(parse("qdot"), q,
                                    OrderSet.for_1d(0.5, 0.5, -1j))
        assert rf.sup_norm > 0.1


class TestElResidual2d:
    def _field(self, fn, n=96):
        g = Grid1D(0.0, 1.0, n)
        X, Y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
        return GridFunctionND((g, g), fn(X, Y)), X, Y

    def test_zero_field(self):
        q, _, _ = self._field(lambda X, Y: np.zeros_like(X), n=32)
        orders = OrderSet.for_2d(0.5, 0.5, 0.5, 0.5, -1j)
        rf = el_residual_2d(parse("(qx^2 + qy^2)/2"), q, orders, (1.0, 1.0))
        assert rf.sup_norm == 0.0

    @pytest.mark.parametrize("fn", [lambda X, Y: X**2 - Y**2,
                                    lambda X, Y: X * Y])
    def test_harmonic_classical_limit(self, fn):
        q, X, Y = self._field(fn)
        orders = OrderSet.for_2d(0.999, 0.999, 0.999, 0.999, -1j)
        rf = el_residual_2d(parse("(qx^2 + qy^2)/2"), q, orders, (1.0, 1.0))
        sub = (X >= 0.2) & (X <= 0.8) & (Y >= 0.2) & (Y <= 0.8) & ~rf.excluded
        assert np.max(np.abs(rf.residual.values[sub])) < 0.05

    def test_monotone_in_orders(self):
        q, X, Y = self._field(lambda X, Y: X**2 - Y**2)
        sub = (X >= 0.2) & (X <= 0.8) & (Y >= 0.2) & (Y <= 0.8)
        sups = []
        for o in (0.9, 0.99, 0.999):
            orders = OrderSet.for_2d(o, o, o, o, -1j)
            rf = el_residual_2d(parse("(qx^2 + qy^2)/2"), q, orders, (1.0, 1.0))
            sups.append(np.max(np.abs(rf.residual.values[sub & ~rf.excluded])))
        assert sups[0] > sups[1] > sups[2]


class TestElResidualNd:
    def test_n1_bitwise(self):
        g = Grid1D(0.0, 1.0, 128)
        vals = np.sin(1.7 * g.nodes) + 0.3
        orders = OrderSet.for_1d(0.4, 0.7, 0.8 + 0.3j)
        r1 = el_residual_1d_cresson(parse("qdot^2/2 - q^2/2 + tau*q"),
                                    GridFunction(g, vals), orders)
        rn = el_residual_nd(parse("qx1^2/2 - q^2/2 + x1*q"),
                            GridFunctionND((g,), vals), orders, (1.0,))
        assert np.array_equal(r1.residual.values, rn.residual.values)
        assert np.array_equal(r1.excluded, rn.excluded)
        assert r1.sup_norm == rn.sup_norm

    def test_n2_bitwise(self):
        g = Grid1D(0.0, 1.0, 48)
        X, Y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
        vals = np.sin(X) * np.cos(Y) + 0.2
        q = GridFunctionND((g, g), vals)
        orders = OrderSet.for_2d(0.4, 0.6, 0.55, 0.45, 0.3 - 0.5j)
        r2 = el_residual_2d(parse("(qx^2 + qy^2)/2 + q*x*y"), q, orders,
                            (1.0, 1.0))
        rn = el_residual_nd(parse("(qx1^2 + qx2^2)/2 + q*x1*x2"), q, orders,
                            (1.0, 1.0))
        assert np.array_equal(r2.residual.values, rn.residual.values)
        assert r2.sup_norm == rn.sup_norm

    def test_n3_zero_field(self):
        g = Grid1D(0.0, 1.0, 12)
        q = GridFunctionND((g, g, g), np.zeros((13, 13, 13)))
        orders = OrderSet.for_nd([0.5] * 3, [0.5] * 3, -1j)
        rf = el_residual_nd(parse("(qx1^2 + qx2^2 + qx3^2)/2"), q, orders,
                            (1.0, 1.0, 1.0))
        assert rf.sup_norm == 0.0


    @pytest.mark.parametrize("text, text_nd", [("q", "q"), ("qx + qy", "qx1 + qx2")],
                             ids=["q", "qx+qy"])
    def test_a_real_momentum_gives_a_complex_residual(self, text, text_nd):
        # every partial is a constant, so each momentum is a real field; its
        # axis term is still a new complex array
        g = Grid1D(0.0, 1.0, 24)
        X, Y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
        q = GridFunctionND((g, g), np.sin(X) * np.cos(Y) + 0.2)
        orders = OrderSet.for_2d(0.4, 0.6, 0.55, 0.45, 0.3 - 0.5j)
        r2 = el_residual_2d(parse(text), q, orders, (1.0, 1.0))
        rn = el_residual_nd(parse(text_nd), q, orders, (1.0, 1.0))
        assert r2.residual.values.dtype == np.complex128
        assert r2.residual.values.tobytes() == rn.residual.values.tobytes()
        assert np.array_equal(r2.excluded, rn.excluded)
        if text == "q":
            # dL/dq = 1 and every momentum is 0
            assert np.all(r2.residual.values[~r2.excluded] == 1.0)


def _fields_at_peak(run, shape) -> float:
    """The tracemalloc peak of ``run()``, in complex128 arrays of ``shape``,
    with the kernel plans and the compiled programs warmed by a first run."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / (16 * math.prod(shape))
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [256, 512])
def test_the_2d_residual_holds_at_most_eight_fields(n):
    # the residual of the field2d workload; with no array released before
    # the end of the call it held 13.4 fields at n = 256 and 11.4 at 512
    g = Grid1D(0.0, 1.0, n)
    X, Y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    q = GridFunctionND((g, g), np.sin(1.3 * X) * np.cos(2.1 * Y) + 0.4)
    orders = OrderSet.for_2d(0.6, 0.5, 0.4, 0.7, 0.3 + 0.2j)
    L = parse("(qx^2 + qy^2)/2 + q*x*y")
    peak = _fields_at_peak(lambda: el_residual_2d(L, q, orders, (1.0, 1.0)),
                           q.values.shape)
    assert peak <= 8.0


def test_the_3d_residual_holds_at_most_ten_fields():
    # 16.7 fields with no array released before the end of the call
    g = Grid1D(0.0, 1.0, 48)
    X1, X2, X3 = np.meshgrid(g.nodes, g.nodes, g.nodes, indexing="ij")
    q = GridFunctionND((g, g, g), np.sin(1.3 * X1) * np.cos(2.1 * X2) * np.cos(X3)
                       + 0.4)
    orders = OrderSet.for_nd((0.6, 0.4, 0.7), (0.5, 0.7, 0.3), 0.3 + 0.2j)
    L = parse("(qx1^2 + qx2^2 + qx3^2)/2 + q*x1*x2*x3")
    peak = _fields_at_peak(lambda: el_residual_nd(L, q, orders, (1.0, 1.0, 1.0)),
                           q.values.shape)
    assert peak <= 10.0


@pytest.mark.parametrize("functional, most", [(el_residual_1d_cresson, 11.0),
                                              (action_1d_cresson, 7.0)])
def test_a_1d_cresson_call_on_a_kept_path_stays_in_its_bound(functional, most):
    # the calls of the line1d workload, on a path whose slope spectrum is
    # kept; the bound is in arrays of 16385 complex entries.  Each block
    # assembled in place and the complex momentum's spectrum product taken
    # in chunks brought the residual from 11.78 to 10.78 and the action from
    # 7.58 to 6.58; without the chunks the residual read 11.78
    g = Grid1D(0.0, 1.0, 16384)
    values = 0.9 * g.nodes ** 1.5
    values.flags.writeable = False
    q = GridFunction(g, values)
    orders = OrderSet.for_1d(0.5, 0.5, 0.3 + 0.4j)
    L = parse("qdot^2/2 - 1.2*q^2/2")
    assert _fields_at_peak(lambda: functional(L, q, orders), values.shape) <= most


def test_results_holding_fields_compare_by_their_fields():
    # fields and residuals compare and hash by identity, so == on a result
    # that holds them never raises
    g = Grid1D(0.0, 1.0, 4)
    q, qdot = GridFunction(g, np.zeros(5)), GridFunction(g, np.zeros(5))
    result = euler.BvpResult(q, qdot, 1.0, 0.9, 0.0)
    assert result == euler.BvpResult(q, qdot, 1.0, 0.9, 0.0)
    assert result != euler.BvpResult(q, GridFunction(g, np.zeros(5)), 1.0, 0.9, 0.0)
    path = GridFunctionND((g, g), np.ones((5, 5)))
    orders = OrderSet.for_2d(0.5, 0.5, 0.5, 0.5, 0.3 + 0.2j)
    L = parse("(qx^2 + qy^2)/2")
    rf, twin = (el_residual_2d(L, path, orders, (1.0, 1.0)) for _ in range(2))
    assert rf == rf
    assert rf != twin
    assert len({rf, twin}) == 2


class TestSolveIvp:
    def test_free_particle_closed_form(self):
        q, qd = solve_el_ivp(parse(FREE), 0.0, 1.0, 0.0, 1.5, 0.5, 4000)
        assert q.grid.t == pytest.approx(0.98)
        exact = 1.0 - (1.0 - q.grid.nodes) ** 1.5
        assert np.max(np.abs(q.values - exact)) < 1e-4

    def test_classical_oscillator(self):
        q, qd = solve_el_ivp(parse(OSC), 0.0, 1.0, 0.0, 1.0, 1.0 - 1e-9, 2000)
        assert np.max(np.abs(q.values - np.sin(q.grid.nodes))) < 1e-6

    def test_degenerate_lagrangian(self):
        with pytest.raises(SingularLagrangianError):
            solve_el_ivp(parse("q"), 0.0, 1.0, 0.0, 1.0, 0.5, 100)

    def test_overflowing_curvature_is_not_reported_as_vanished(self):
        # d2L/dqdot^2 = exp(q) overflows at q = 800
        with pytest.raises(StepFailure, match="not finite") as info:
            solve_el_ivp(parse("exp(q)*qdot^2/2"), 0.0, 1.0, 800.0, 0.0, 0.5, 50)
        assert info.value.tau == 0.0

    @pytest.mark.parametrize("term, q0", [("log(q)", -1.0), ("sqrt(q)", -1.0),
                                          ("q^1.5", -1.0), ("1/q", 0.0),
                                          ("q^-2", 0.0)])
    def test_domain_error_names_node_0(self, term, q0):
        # a lone run evaluates on floats, yet reports the node as on arrays
        with pytest.raises(EvalError) as info:
            solve_el_ivp(parse("qdot^2/2 + " + term), 0.0, 1.0, q0, 0.0, 0.5, 50)
        assert info.value.index == 0
        assert str(info.value).endswith(" (step from node 0, at tau = 0.0)")

    def test_check_of_tau_alone_names_the_step(self):
        # a check that reads only tau is named like any other: by the node
        # its step starts from and the tau of the failing stage, here the
        # mid stage of the step from node 26 (0.4992) on the grid [0, 0.96]
        with pytest.raises(EvalError) as info:
            solve_el_ivp(parse("qdot^2/2 + log(0.5 - tau)*q"), 0.0, 1.0, 0.0,
                         1.0, 0.5, 50)
        assert info.value.index == 26
        assert str(info.value) == ("log of a non-positive value in real mode "
                                   "(step from node 26, at tau = 0.5088)")

    @pytest.mark.parametrize("q0, v0", [(math.nan, 1.0), (math.inf, 1.0),
                                        (0.0, -math.inf), (0.0, math.nan)])
    def test_non_finite_initial_data_is_a_domain_error(self, monkeypatch, q0,
                                                       v0):
        # refused before any step runs
        monkeypatch.setattr(euler, "_integrate_el", None)
        with pytest.raises(DomainError) as info:
            solve_el_ivp(parse(FREE), 0.0, 1.0, q0, v0, 0.5, 50)
        assert str(info.value) == (
            f"initial data must be finite, got q0 = {q0!r}, v0 = {v0!r}")

    @pytest.mark.parametrize("text, end", [
        (OSC, (0.40267547202531223, 0.025655805718367487)),
        ("qdot^2/2 + q^4/4 + tau*q", (0.5824264045313686, 0.26879172307142907)),
    ])
    def test_rk4_bits(self, text, end):
        # pinned end state: a reordered RK4 sum moves its last bits
        q, qdot = solve_el_ivp(parse(text), 0.0, 1.0, 0.0, 0.7, 0.5, 400)
        assert (q.values[-1], qdot.values[-1]) == end


class TestSolveBvp:
    def test_free_particle_slope(self):
        bd = BoundaryData1D(0.0, 1.0, 0.0, 1.0)
        eps = max(0.02, 2.0 / 800)
        res = solve_el_bvp(parse(FREE), bd, 0.5, 800,
                           qb_at_margin=1.0 - eps**1.5)
        assert abs(res.v0 - 1.5) < 1e-3
        exact = 1.0 - (1.0 - res.q.grid.nodes) ** 1.5
        assert np.max(np.abs(res.q.values - exact)) < 1e-3

    def test_classical_straight_line(self):
        bd = BoundaryData1D(0.0, 1.0, 0.0, 1.0)
        eps = max(0.02, 2.0 / 400)
        res = solve_el_bvp(parse(FREE), bd, 1.0 - 1e-9, 400,
                           qb_at_margin=1.0 - eps)
        assert abs(res.v0 - 1.0) < 1e-6

    def test_default_target_has_documented_defect(self):
        # raw qb matching carries an O(eps^(2-alpha)) slope defect
        bd = BoundaryData1D(0.0, 1.0, 0.0, 1.0)
        res = solve_el_bvp(parse(FREE), bd, 0.5, 400)
        eps = max(0.02, 2.0 / 400)
        expected = 1.5 / (1.0 - eps**1.5)
        assert abs(res.v0 - expected) < 1e-6

    def test_symmetric_zero_solution(self):
        bd = BoundaryData1D(0.0, 0.5, 0.0, 0.0)
        res = solve_el_bvp(parse(OSC), bd, 0.5, 200)
        assert abs(res.v0) < 1e-9
        assert np.max(np.abs(res.q.values)) < 1e-9

    def test_quartic_matches_minimizer(self):
        # the outermost slopes of the scan blow up; the finite gaps still
        # bracket the root, and the two routes agree as in criterion 6
        n = 200
        eps = max(0.02, 2.0 / n)
        bd = BoundaryData1D(0.0, 1.0, 0.0, 1.0)
        L = parse(QUARTIC)
        dm = direct_minimize(L, bd, 0.5, n)
        assert dm.converged
        target = float(np.interp(1.0 - eps, dm.q.grid.nodes, dm.q.values))
        res = solve_el_bvp(L, bd, 0.5, n, qb_at_margin=target)
        bn = res.q.grid.nodes
        gap = np.abs(np.interp(bn, dm.q.grid.nodes, dm.q.values) - res.q.values)
        assert np.max(gap[bn <= 1.0 - 5.0 * eps]) < 1e-3

    @pytest.mark.parametrize("qa, qb", [(0.0, 1e-12), (0.0, 1e-6), (0.0, 1e200),
                                        (1e-170, 2e-170)])
    def test_root_tolerance_scales_with_the_boundary_data(self, qa, qb):
        # the free particle's slope is linear in qb - qa.  An absolute gap
        # tolerance stopped at a scan slope for qb = 1e-12; products of two
        # gaps overflowed at 1e200 and underflowed to a false bracket at
        # 1e-170
        L = parse(FREE)
        unit = solve_el_bvp(L, BoundaryData1D(0.0, 1.0, 0.0, 1.0), 0.5, 50).v0
        res = solve_el_bvp(L, BoundaryData1D(0.0, 1.0, qa, qb), 0.5, 50)
        assert res.v0 / (qb - qa) == pytest.approx(unit, rel=1e-8)

    @pytest.mark.parametrize("text, alpha, v0", [
        (FREE, 0.5, 1.0529782716401337), (FREE, 0.75, 0.8816309272074996),
        (OSC, 0.5, 1.2168608073779041), (OSC, 0.75, 1.029243287548484),
    ])
    def test_slope_bits(self, text, alpha, v0):
        res = solve_el_bvp(parse(text), BoundaryData1D(0.0, 1.0, 0.0, 0.7),
                           alpha, 400)
        assert res.v0 == v0

    def test_no_bracket_diagnostic(self):
        # conjugate point: q(tau) = v0 sin(tau) vanishes at pi regardless of
        # v0, so q = 1 there is unreachable and the scan finds no bracket
        t = math.pi / 0.98
        bd = BoundaryData1D(0.0, t, 0.0, 1.0)
        with pytest.raises(BracketingError):
            solve_el_bvp(parse(OSC), bd, 1.0 - 1e-9, 500)


class TestShootingLanes:
    """Each shooting slope runs alone and fails on its own; the scan runs
    the slopes outward from the straight-line slope, and the root search
    reads the scan's runs."""

    # the slopes of each case below that fail; the others get through
    _LOST = {QUARTIC: [*range(11), *range(21, 32)], "exp(qdot) + exp(-qdot)": [2]}

    @pytest.mark.parametrize("text, slopes", [
        # 22 of the 32 slopes blow up, at different steps and stages
        (QUARTIC, np.linspace(-20.0, 20.0, 32)),
        ("sqrt(1+qdot^2)*exp(-q/3)", np.linspace(-20.0, 20.0, 12)),
        # d2L/dqdot^2 = exp(qdot) + exp(-qdot) overflows at v0 = 720 only
        ("exp(qdot) + exp(-qdot)", np.array([-1.0, 0.0, 720.0, 1.0])),
        # each runtime helper and a checked division, on floats
        ("qdot^2/2 + abs(q)", np.linspace(-20.0, 20.0, 12)),
        ("qdot^2/2 + (1+q^2)^0.75", np.linspace(-20.0, 20.0, 12)),
        ("qdot^2/2 + q/(2+q^2)", np.linspace(-20.0, 20.0, 12)),
        ("qdot^2/2 + log(2+q^2)", np.linspace(-20.0, 20.0, 12)),
    ])
    def test_lane_parity(self, text, slopes):
        L = parse(text)
        lost = []
        for i, v0 in enumerate(slopes):
            grid, q, v, failure = _integrate_el(L, 0.0, 1.0, 0.0, v0, 0.5, 100)
            assert q.shape == v.shape == (101,)
            # a failed run ends in NaN, a finished one does not
            assert np.isnan(q[-1]) == (failure is not None)
            if failure is None:
                # solve_el_ivp returns the run's bits
                q1, v1 = solve_el_ivp(L, 0.0, 1.0, 0.0, v0, 0.5, 100)
                assert q1.grid == grid
                assert np.array_equal(q1.values, q) and np.array_equal(v1.values, v)
                continue
            lost.append(i)
            assert isinstance(failure, StepFailure)
            # solve_el_ivp raises the run's failure
            with pytest.raises(StepFailure) as info:
                solve_el_ivp(L, 0.0, 1.0, 0.0, v0, 0.5, 100)
            assert (str(info.value), info.value.tau) == (str(failure), failure.tau)
        assert lost == self._LOST.get(text, [])

    def test_lane_failure_kinds(self):
        L = parse("exp(qdot) + exp(-qdot)")
        _, q0, _, failure = _integrate_el(L, 0.0, 1.0, 0.0, 0.0, 0.5, 50)
        assert failure is None and np.all(np.isfinite(q0))
        _, q1, _, failure = _integrate_el(L, 0.0, 1.0, 0.0, 720.0, 0.5, 50)
        assert str(failure) == "d2L/dqdot^2 is not finite at tau = 0"
        assert failure.tau == 0.0
        assert np.all(np.isnan(q1[1:]))
        _, _, _, failure = _integrate_el(parse(QUARTIC), 0.0, 1.0, 0.0, 300.0,
                                         0.5, 400)
        assert str(failure).startswith("non-finite derivative at tau = ")

    def test_check_of_tau_alone_fails_in_the_rest_of_a_failed_step(self):
        # each run is lost at a mid stage of step k, by a blow-up at the
        # second stage or by d2L/dqdot^2 = (tau - s)^2 = 0 at both, and
        # log(c - tau) fails at its fourth stage, tau = c: the rest of the
        # step runs on NaN, so the run raises the EvalError, named by node k
        # and the fourth stage's tau
        grid = Grid1D(0.0, 0.98, 100)
        taus, h, k = grid.nodes.tolist(), grid.h, 40
        s, c = taus[k] + 0.5 * h, taus[k] + h
        d, rate = taus[k] + 0.25 * h, 8000.0 / h
        message = ("log of a non-positive value in real mode "
                   f"(step from node {k}, at tau = {c!r})")
        for lose in (f"qdot^2/2 + exp({rate!r}*(tau - {d!r}))*q",
                     f"qdot^2/2*(tau - {s!r})^2"):
            L = parse(f"{lose} + log({c!r} - tau)*q")
            for v0 in (0.5, 1.0):
                with pytest.raises(EvalError, match=f"^{re.escape(message)}$"):
                    _integrate_el(L, 0.0, 1.0, 0.0, v0, 0.5, 100)

    @pytest.mark.parametrize("text, slopes, lost", [
        # d2L/dqdot^2 = 0 everywhere: every run fails at tau = 0
        ("q*qdot", [0.0, 1.0], [True, True]),
        # exp(-q) underflows to 0 on the steep slopes only
        ("exp(-q)*qdot^2/2", [1.0, 20.0, -1.0, 40.0], [False, True, False, True]),
    ], ids=["q*qdot", "exp(-q)*qdot^2/2"])
    def test_zero_curvature_fails_its_lane(self, text, slopes, lost):
        L = parse(text)
        for v0, want in zip(slopes, lost):
            _, q, _, failure = _integrate_el(L, 0.0, 1.0, 0.0, v0, 0.5, 100)
            if not want:
                assert failure is None and np.isfinite(q[-1])
                continue
            assert isinstance(failure, SingularLagrangianError)
            assert np.isnan(q[-1])
            # solve_el_ivp raises the recorded failure
            with pytest.raises(SingularLagrangianError) as info:
                solve_el_ivp(L, 0.0, 1.0, 0.0, v0, 0.5, 100)
            assert (str(info.value), info.value.tau) == (str(failure), failure.tau)

    _SINGULAR, _STEP = SingularLagrangianError, StepFailure

    @pytest.mark.parametrize("text, slopes, pinned", [
        # exp(-q) underflows to 0 on the steep slopes: in the middle of a
        # step (slopes 20 and 60), at its end (30) and at its start (40)
        ("exp(-q)*qdot^2/2", [1.0, 20.0, 30.0, 40.0, 60.0], [
            None,
            (_SINGULAR, "d2L/dqdot^2 vanished at tau = 0.1127", 0.1127, 12),
            (_SINGULAR, "d2L/dqdot^2 vanished at tau = 0.0784", 0.0784, 8),
            (_SINGULAR, "d2L/dqdot^2 vanished at tau = 0.0588", 0.0588, 7),
            (_SINGULAR, "d2L/dqdot^2 vanished at tau = 0.0441", 0.0441, 5)]),
        # d2L/dqdot^2 = 0 everywhere: every run fails at its first stage
        ("q*qdot", [0.0, 1.0], [
            (_SINGULAR, "d2L/dqdot^2 vanished at tau = 0", 0.0, 1)] * 2),
        # the quartic's far slopes blow up in the middle of a step
        (QUARTIC, [2.0, -20.0, 20.0], [
            None,
            (_STEP, "non-finite derivative at tau = 0.5439", 0.5439, 56),
            (_STEP, "non-finite derivative at tau = 0.5439", 0.5439, 56)]),
    ], ids=["exp(-q)*qdot^2/2", "q*qdot", QUARTIC])
    def test_lanes_that_fail_mid_step(self, text, slopes, pinned):
        # a step that loses its run fails the screen and is replayed with
        # each stage checked: each run's error, its tau and its first NaN row
        for v0, want in zip(slopes, pinned):
            _, q, v, failure = _integrate_el(parse(text), 0.0, 1.0, 0.0, v0,
                                             0.5, 100)
            if want is None:
                assert failure is None
                assert np.isfinite(q).all() and np.isfinite(v).all()
                continue
            kind, message, tau, row = want
            assert type(failure) is kind
            assert (str(failure), failure.tau) == (message, tau)
            assert np.isfinite(q[:row]).all() and np.isnan(q[row:]).all()
            assert np.isnan(v[row:]).all()

    @pytest.mark.parametrize("v0", [0.0, 1e-10])
    def test_an_infinite_curvature_alone_fails_the_screen(self, v0):
        # d2L/dqdot^2 = 2 q overflows at q = 1e308, while dL/dqdot = 2 q qdot
        # does not: qddot = force/inf is 0 and (q, v) stay finite, so only the
        # curvatures in the screen send the step to its checked replay
        _, q, _, failure = _integrate_el(parse("q*qdot^2"), 0.0, 1.0, 1e308,
                                         v0, 0.5, 10)
        assert (type(failure), str(failure), failure.tau) == (
            StepFailure, "d2L/dqdot^2 is not finite at tau = 0", 0.0)
        assert q[0] == 1e308 and np.isnan(q[1:]).all()

    def test_an_error_of_a_lost_lane_is_not_raised(self):
        # each run blows up at the second stage of step k; run unchecked,
        # its fourth stage then reads q = inf, and log(10 - q) fails there,
        # or d2L/dqdot^2 = (tau - c)^2 vanishes there, at tau = c.  The
        # checked replay runs those stages on NaN, which no check fails, so
        # the run records its StepFailure
        grid = Grid1D(0.0, 0.98, 100)
        taus, h, k = grid.nodes.tolist(), grid.h, 40
        c, d, rate = taus[k] + h, taus[k] + 0.25 * h, 8000.0 / h
        blow_up = f"exp({rate!r}*(tau - {d!r}))*q"
        message = f"non-finite derivative at tau = {taus[k] + 0.5 * h!r}"
        for text in (f"qdot^2/2 + {blow_up} + log(10 - q)",
                     f"qdot^2/2*(tau - {c!r})^2 + {blow_up}"):
            L = parse(text)
            for v0 in (0.5, 1.0):
                _, q, _, failure = _integrate_el(L, 0.0, 1.0, 0.0, v0, 0.5, 100)
                assert (type(failure), str(failure)) == (StepFailure, message)
                assert np.isfinite(q[:k + 1]).all() and np.isnan(q[k + 1:]).all()
            with pytest.raises(StepFailure, match=f"^{re.escape(message)}$"):
                solve_el_ivp(L, 0.0, 1.0, 0.0, 0.5, 0.5, 100)

    def test_no_bracket_reports_the_first_vanished_curvature(self):
        # the slopes up to -7.74 each underflow exp(q) to 0, the steepest
        # first; every finite slope, and every run between slope 15 and
        # its lost neighbour 14, ends below the target 8
        with pytest.raises(SingularLagrangianError) as info:
            solve_el_bvp(parse("exp(q)*qdot^2/2"),
                         BoundaryData1D(0.0, 1.0, 0.0, 8.0), 0.5, 400)
        assert str(info.value) == "d2L/dqdot^2 vanished at tau = 0.028175"

    def test_a_root_next_to_a_lost_lane_is_bisected(self, monkeypatch):
        # the slopes from 17 up each underflow exp(-q) to 0, and the root
        # lies between slope 16 and the lost slope 17, so no two slopes
        # bracket: the scan runs all 32 slopes, then runs bisect that
        # interval until a gap changes sign, and the root search runs
        calls = self._count_integrations(monkeypatch)
        res = solve_el_bvp(parse("exp(-q)*qdot^2/2"),
                           BoundaryData1D(0.0, 1.0, 0.0, 3.0), 0.75, 400)
        assert abs(float(res.q.values[-1]) - 3.0) < 3e-10
        assert calls[:32] == [400] * 32
        assert set(calls[32:]) == {400}

    @pytest.mark.parametrize("lost_above", [True, False])
    def test_edge_bisection_moves_one_end_per_run(self, lost_above):
        # gap(v) = v - 0.7 up to a blow-up at v = 0.9; a lost midpoint moves
        # the lost end, a finite one of the finite end's sign the finite end
        sign = 1.0 if lost_above else -1.0
        runs = []

        def lone_gap(v):
            runs.append(v)
            return sign * v - 0.7 if sign * v < 0.9 else math.nan

        slopes = sign * np.array([-1.0, 0.0, 1.0])
        gaps = [sign * s - 0.7 if sign * s < 0.9 else math.nan for s in slopes]
        bracket = euler._bracket_at_lost_lane(slopes, gaps, lone_gap)
        # midpoints 0.5 (finite, below), 0.75 (above): the bracket closes
        assert [sign * v for v in runs] == [0.5, 0.75]
        assert bracket == (sign * 0.5, sign * 0.75)

    def test_edge_bisection_without_a_sign_change_gives_none(self):
        runs = []

        def lone_gap(v):
            runs.append(v)
            return -1.0 if v < 0.3 else math.nan

        slopes = np.array([-2.0, -1.0, 0.0, 1.0])
        gaps = [math.nan, -1.0, -1.0, math.nan]
        assert euler._bracket_at_lost_lane(slopes, gaps, lone_gap) is None
        assert len(runs) == 2 * euler.BVP_EDGE_STEPS

    @staticmethod
    def _count_integrations(monkeypatch, edit=None):
        """Record n per integration; ``edit(v0, n, out)`` may change the
        returned (grid, q, qdot, failure) or raise."""
        calls = []
        integrate = euler._integrate_el

        def counted(L, a, t, q0, v0, alpha, n):
            calls.append(n)
            out = integrate(L, a, t, q0, v0, alpha, n)
            return out if edit is None else edit(v0, n, out)

        monkeypatch.setattr(euler, "_integrate_el", counted)
        return calls

    def test_scan_order_runs_outward_from_the_straight_line_slope(self):
        # slope k is x_k * scale with x = linspace(-10, 10, 32); slope 17
        # (x = 0.968) is nearest 1, then 18, 16, 19, ...: slope 17 + k is
        # 0.645 k - 0.032 from 1, slope 17 - k 0.645 k + 0.032
        order = euler._SCAN_ORDER
        assert order[:9] == (17, 18, 16, 19, 15, 20, 14, 21, 13)
        assert order[-6:] == (4, 31, 3, 2, 1, 0)
        assert sorted(order) == list(range(euler.BVP_SCAN_SLOPES))
        for scale in (1.0, -1.0, 1e-170, -3.0, 1e200):
            slopes = np.linspace(-10.0 * scale, 10.0 * scale, 32)
            assert np.all(np.diff(np.abs(slopes[list(order)] - scale)) > 0)

    def test_the_bracket_nearest_the_scale_is_taken(self, monkeypatch):
        # brackets (2, 3) and (17, 18), and (18, 19) whose farther end 19
        # comes after 18 in the scan order
        gaps = [-1.0] * 3 + [1.0] * 15 + [-1.0, 1.0] + [math.nan] * 12
        assert _nearest_bracket([1.0] * 32) is None
        slopes = np.linspace(-10.0, 10.0, 32)
        for gaps, i in ((gaps, 17), (gaps[:17] + [math.nan] * 15, 2)):
            assert _nearest_bracket(gaps) == i
            # a shooting field whose endpoint gap to qb = 1 interpolates
            # ``gaps`` between the slopes: the root lies in bracket i
            monkeypatch.setattr(euler, "_integrate_el", _gap_field(slopes, gaps))
            res = solve_el_bvp(parse(FREE), _BD, 0.5, 400)
            assert slopes[i] < res.v0 < slopes[i + 1]

    # ``scanned`` is the number of scan runs, in _SCAN_ORDER (17, 18, 16,
    # 19, 15, 20, ...) up to the slope that closes the bracket: the free
    # particle's root lies between slopes 17 and 18 (runs 17, 18: 2), the
    # oscillator's between 18 and 19 (17, 18, 16, 19: 4), and between 19
    # and 20 for the oscillator from qa = 1e-170 (17, 18, 16, 19, 15, 20: 6).
    # At 1e200 and 1e-170 the secant step's product overflows or
    # underflows, and the step takes the quotient first.  The ids of the
    # cases at n = 100 leave n out
    _LINEAR_CASES = [
        (FREE, 0.0, 1.0, 2), (OSC, 0.0, 1.0, 4), (FREE, 0.0, 1e200, 2),
        (OSC, 0.0, 1e200, 4), (FREE, 1e-170, 2e-170, 2),
        (OSC, 1e-170, 2e-170, 6),
    ]
    _LINEAR_IDS = [FREE, OSC, FREE + "-1e200", OSC + "-1e200",
                   FREE + "-1e-170", OSC + "-1e-170"]

    @pytest.mark.parametrize("n, text, qa, qb, scanned", [
        (n, *case) for case in _LINEAR_CASES for n in (100, 400)
    ], ids=[name if n == 100 else f"{name}-n400"
            for name in _LINEAR_IDS for n in (100, 400)])
    def test_linear_problem_integrates_twice(self, monkeypatch, n, text, qa,
                                             qb, scanned):
        # the scan runs its slopes at n, outward from the straight-line
        # slope up to the first bracket, whose ends the secant step reads
        # from the scan; then the root runs once
        calls = self._count_integrations(monkeypatch)
        solve_el_bvp(parse(text), BoundaryData1D(0.0, 1.0, qa, qb), 0.5, n)
        assert calls == [n] * (scanned + 1)

    def test_quartic_integrations(self, monkeypatch):
        # scan runs of slopes 17 and 18, which bracket, then nine
        # root-search runs
        calls = self._count_integrations(monkeypatch)
        res = solve_el_bvp(parse(QUARTIC), BoundaryData1D(0.0, 1.0, 0.0, 1.0),
                           0.5, 400)
        assert calls == [400] * 11
        assert res.v0 == 1.4261737846979154


# the scan slopes as multiples of the scan scale (qb - qa)/(t - a)
_SCAN_X = np.linspace(-10.0, 10.0, 32)


def _scan_gaps(L, bd, alpha, m):
    """The full 32-slope scan of ``bd`` at m, from 32 lone runs: the slopes,
    each one's run (q, qdot, failure) and its endpoint gap to qb, NaN where
    the run failed."""
    scale = (bd.qb - bd.qa) / (bd.t - bd.a) or 1.0 / (bd.t - bd.a)
    slopes = np.linspace(-10.0 * scale, 10.0 * scale, 32)
    runs = [_integrate_el(L, bd.a, bd.t, bd.qa, v0, alpha, m)[1:]
            for v0 in slopes.tolist()]
    return slopes, runs, [float(q[-1]) - bd.qb for q, _, _ in runs]


def _brackets(gaps):
    """The lower index i of each pair of neighbouring gaps that change sign;
    a NaN gap compares false, so a failed run bounds no bracket."""
    return [i for i in range(len(gaps) - 1) if gaps[i] <= 0.0 <= gaps[i + 1]
            or gaps[i + 1] <= 0.0 <= gaps[i]]


def _nearest_bracket(gaps):
    """The root rule, stated as a reference: of the brackets of a full scan,
    the one whose farther end is nearest the scan scale, or None.  Slope k
    lies |x_k - 1| * |scale| from the scale, and no two k tie."""
    return min(_brackets(gaps), key=lambda i: max(abs(_SCAN_X[i:i + 2] - 1.0)),
               default=None)


def _gap_field(slopes, gaps):
    """A stand-in for _integrate_el whose endpoint gap to qb = 1 is ``gaps``
    at ``slopes`` and linear in between, and whose run fails where that gap
    is NaN."""
    table = dict(zip(slopes.tolist(), gaps))

    def integrate(L, a, t, q0, v0, alpha, n):
        grid = Grid1D(a, t - max(0.02 * (t - a), 2.0 * (t - a) / n), n)
        gap = table[v0] if v0 in table else float(np.interp(v0, slopes, gaps))
        q = np.full(n + 1, 1.0 + gap)
        return grid, q, q, StepFailure("lost", tau=a) if math.isnan(gap) else None
    return integrate


def _first_bracket_in_slope_order(gaps):
    """The bracket rule before the scan ran outward: the lowest i whose
    gaps i, i+1 bracket, or None."""
    return next(iter(_brackets(gaps)), None)


def _full_scan_solve(L, bd, alpha, n, choose=_nearest_bracket):
    """(v0, q, qdot) of the shooting solve with a full 32-slope scan at n,
    built from _integrate_el, find_root and the reference root rule, or the
    error it raises: the bracket ``choose(gaps)`` (by default the bracket
    nearest the scan scale), else the bisection next to a lost slope, else
    the scan's error."""
    tol = euler.BVP_ROOT_TOL * (max(abs(bd.qa), abs(bd.qb)) or 1.0)
    slopes, scan, gaps = _scan_gaps(L, bd, alpha, n)
    runs = dict(zip(slopes.tolist(), scan))  # v0 -> (q, qdot, failure)

    def gap(v0):
        if v0 not in runs:
            runs[v0] = _integrate_el(L, bd.a, bd.t, bd.qa, v0, alpha, n)[1:]
        q, _, failure = runs[v0]
        if failure is not None:
            raise failure
        return float(q[-1]) - bd.qb

    def lone_gap(v0):
        try:
            return gap(v0)
        except (EvalError, SingularLagrangianError, StepFailure):
            return math.nan

    i = choose(gaps)
    if i is not None:
        bracket = slopes[i], slopes[i + 1]
    else:
        bracket = euler._bracket_at_lost_lane(slopes, gaps, lone_gap)
        if bracket is None:
            raise euler._scan_failure([f for *_, f in scan]) or BracketingError(
                f"no sign change across 32 shooting slopes in "
                f"[{slopes[0]:g}, {slopes[-1]:g}]; the boundary problem "
                "appears to have no solution in the scanned family")
    v0 = find_root(gap, *bracket, tol=tol)
    return (v0, *runs[v0][:2])


def _bvp_arrays(res):
    return res.v0, res.q.values, res.qdot.values


def _solve_outcome(fn):
    """("ok", v0, q, qdot) or ("error", type, message)."""
    try:
        with np.errstate(all="ignore"):
            out = fn()
    except (BracketingError, SingularLagrangianError, StepFailure) as err:
        return ("error", type(err), str(err))
    return ("ok", *out)


def _bvp_outcome(L, bd, alpha, n):
    """_solve_outcome of solve_el_bvp, checking that no slope runs twice at
    one n."""
    runs = []
    integrate = euler._integrate_el

    def counted(L, a, t, q0, v0, alpha, n):
        runs.append((v0, n))
        return integrate(L, a, t, q0, v0, alpha, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(euler, "_integrate_el", counted)
        got = _solve_outcome(lambda: _bvp_arrays(solve_el_bvp(L, bd, alpha, n)))
    assert len(set(runs)) == len(runs), runs
    return got


def _assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1:] == want[1:]
        return
    assert got[1] == want[1]
    assert np.array_equal(got[2], want[2])
    assert np.array_equal(got[3], want[3])


# (text, alpha, qa, qb, several_roots); an id names qa only where it is not 0
_FULL_SCAN_CASES = [
    (FREE, 0.5, 0.0, 1.0, False), (FREE, 0.75, 0.0, 1.0, False),
    (OSC, 0.5, 0.0, 1.0, False), (OSC, 0.75, 0.0, 1.0, False),
    (QUARTIC, 0.5, 0.0, 1.0, False),
    ("qdot^2/2 - q^4", 0.75, 0.0, 1.0, True),
    ("qdot^2/2 + 20*cos(q)*q", 0.5, 0.0, 1.0, True),
    # the root rule gives v0 = 4.02953725048196 (-1.61 times the scale
    # -2.5); the root -13.532879437954978 (5.41 times the scale) has a
    # bracket too, but farther from the straight-line slope
    ("qdot^2/2 + 5*q^2 + 5*tau*qdot^2 + -1*q^2*qdot^2", 0.5, 0.5, -2.0, True),
]


class TestCoarseScan:
    """The scan at n has the bits of the full 32-slope scan at n
    (``_full_scan_solve``), and runs no slope twice.  The class keeps the
    name it had while a coarse-grid pass ran first."""

    @pytest.mark.parametrize(
        "text, alpha, qa, qb, several_roots", _FULL_SCAN_CASES,
        ids=["-".join(map(str, (text, alpha, *[qa][:qa != 0.0], qb, several)))
             for text, alpha, qa, qb, several in _FULL_SCAN_CASES])
    def test_bits_of_the_full_scan(self, text, alpha, qa, qb, several_roots):
        L, bd = parse(text), BoundaryData1D(0.0, 1.0, qa, qb)
        assert (_scan_brackets(L, bd, alpha, 400) > 1) == several_roots
        want = _solve_outcome(lambda: _full_scan_solve(L, bd, alpha, 400))
        assert want[0] == "ok"
        _assert_same_outcome(_bvp_outcome(L, bd, alpha, 400), want)

    def test_no_bracket_raises_the_full_scan_error(self, monkeypatch):
        # no two slopes bracket and none is lost, so the scan runs all 32
        # slopes once, and no bisection runs
        L, bd = parse("qdot^2/2 + 80*cos(q)"), BoundaryData1D(0.0, 1.0, 0.0, 1.0)
        want = _solve_outcome(lambda: _full_scan_solve(L, bd, 0.5, 400))
        assert want == ("error", BracketingError, (
            "no sign change across 32 shooting slopes in [-10, 10]; the "
            "boundary problem appears to have no solution in the scanned family"))
        calls = TestShootingLanes._count_integrations(monkeypatch)
        _assert_same_outcome(_bvp_outcome(L, bd, 0.5, 400), want)
        assert calls == [400] * 32


_MONOMIALS = ("q", "q^2", "q^3", "q^4", "tau*q", "qdot^4", "qdot*q",
              "q^2*qdot^2", "qdot^3", "tau*qdot^2")
POLYNOMIALS = st.lists(
    st.tuples(st.sampled_from(["1", "-1", "2", "-3", "0.5", "5", "-8", "20"]),
              st.sampled_from(_MONOMIALS)), min_size=1, max_size=3,
).map(lambda terms: "qdot^2/2" + "".join(f" + {c}*{t}" for c, t in terms))


@settings(max_examples=60, deadline=None)
@given(text=POLYNOMIALS, alpha=st.sampled_from([0.25, 0.5, 0.75]),
       qa=st.sampled_from([0.0, 0.5]),
       qb=st.sampled_from([1.0, 2.0, -2.0, 0.3, 0.0, 5.0, 50.0]),
       n=st.sampled_from([50, 150, 400]))
# no bracket, and no slope lost
@example(text="qdot^2/2 + 20*qdot*q", alpha=0.25, qa=0.0, qb=5.0, n=150)
# one bracket, between slopes 15 and 16, among ten lost slopes
@example(text="qdot^2/2 + 5*q^2 + 5*tau*qdot^2 + -1*q^2*qdot^2", alpha=0.75,
         qa=0.0, qb=0.0, n=400)
# no bracket; the root lies next to a lost slope
@example(text="qdot^2/2 + 1*q^4", alpha=0.75, qa=0.0, qb=5.0, n=150)
# every slope blows up
@example(text=QUARTIC, alpha=0.5, qa=0.0, qb=50.0, n=400)
def test_lone_scan_runs_give_the_full_scan_result(text, alpha, qa, qb, n):
    # the scan runs its slopes outward up to its first bracket; it must
    # solve, or fail, as a scan that runs all 32 slopes and takes the
    # bracket nearest the scan scale does
    L, bd = parse(text), BoundaryData1D(0.0, 1.0, qa, qb)
    _assert_same_outcome(_bvp_outcome(L, bd, alpha, n), _solve_outcome(
        lambda: _full_scan_solve(L, bd, alpha, n)))


def _scan_brackets(L, bd, alpha, n):
    """The number of brackets of the full 32-slope scan at n."""
    return len(_brackets(_scan_gaps(L, bd, alpha, n)[2]))


@settings(max_examples=60, deadline=None)
@given(text=st.one_of(POLYNOMIALS, st.sampled_from(
           [LENGTH, "exp(-q)*qdot^2/2", "sqrt(1+qdot^2)*exp(-q/3)"])),
       alpha=st.sampled_from([0.25, 0.5, 0.75]),
       qa=st.sampled_from([0.0, 0.5]),
       qb=st.sampled_from([1.0, 2.0, -2.0, 0.3, 0.0, 5.0]),
       n=st.sampled_from([50, 150, 400]))
@example(text=LENGTH, alpha=0.5, qa=0.0, qb=1.0, n=400)
@example(text="exp(-q)*qdot^2/2", alpha=0.75, qa=0.0, qb=2.0, n=150)
@example(text=OSC, alpha=0.25, qa=0.5, qb=-2.0, n=50)
def test_a_single_bracket_keeps_its_bits(text, alpha, qa, qb, n):
    # where the full 32-slope scan at n brackets one root, the root does not
    # depend on the bracket rule: the solve has the bits of a solve that
    # takes the first bracket in slope order, as the scan did before it
    # ran outward from the straight-line slope
    L, bd = parse(text), BoundaryData1D(0.0, 1.0, qa, qb)
    if _scan_brackets(L, bd, alpha, n) != 1:
        return
    # an error is the root search's, where it met a failing slope
    _assert_same_outcome(_bvp_outcome(L, bd, alpha, n), _solve_outcome(
        lambda: _full_scan_solve(L, bd, alpha, n,
                                 choose=_first_bracket_in_slope_order)))


# boundary problems on [0, 1] from qa = 0 whose full 32-slope scan at n = 400
# brackets several roots, each named by its slope v0: first the root that
# solve_el_bvp returns, in the bracket nearest the straight-line slope,
# last the one in the bracket lowest in slope order, which it returned
# before the scan ran outward.  ``minimized`` is the root whose path
# direct_minimize (n = 1600) reaches, for the one case cheap enough to
# minimize here (0.6 s).  Measured on the other two: at alpha 0.5 the
# minimizer converges after 6568 Newton iterations (10 s) within 0.029 of
# the -4.8039 path on [0, 0.9], 1.70 from the -3.0991 one; for
# qdot^2/2 - q^4, whose action is unbounded below, it stops at the
# iteration cap, 0.106 from the 2.0160 path and 3.21 from the -8.6171 one
_SEVERAL_ROOTS = [
    ("qdot^2/2 + 20*cos(q)*q", 0.75, 0.7,
     (-2.3174205643564467, -4.770702389855506), -4.770702389855506),
    ("qdot^2/2 + 20*cos(q)*q", 0.5, 1.0,
     (-3.0990906058640686, -4.803869175855354), None),
    ("qdot^2/2 - q^4", 0.75, 1.0,
     (2.0160321633871505, 2.5984720435890063, -8.617148006942047), None),
]


@pytest.mark.parametrize("text, alpha, qb, roots, minimized", _SEVERAL_ROOTS,
                         ids=["cos-0.75", "cos-0.5", "quartic-0.75"])
def test_several_roots_give_the_nearest(text, alpha, qb, roots, minimized):
    L, bd = parse(text), BoundaryData1D(0.0, 1.0, 0.0, qb)
    assert _scan_brackets(L, bd, alpha, 400) == len(roots)
    # each root, run alone, ends within the root tolerance of qb at n
    paths = {}
    for v0 in roots:
        q, _ = solve_el_ivp(L, 0.0, 1.0, 0.0, v0, alpha, 400)
        assert abs(float(q.values[-1]) - qb) <= euler.BVP_ROOT_TOL * qb
        paths[v0] = q
    assert solve_el_bvp(L, bd, alpha, 400).v0 == roots[0]
    if minimized is None:
        return
    dm = direct_minimize(L, bd, alpha, 1600)
    assert dm.converged

    def distance(v0):
        nodes = paths[v0].grid.nodes
        gap = np.interp(nodes, dm.q.grid.nodes, dm.q.values) - paths[v0].values
        return np.max(np.abs(gap[nodes <= 0.9]))

    assert distance(minimized) < 0.07
    assert min(distance(v0) for v0 in roots if v0 != minimized) > 2.0


# of three position-dependent masses x 5 boundaries x 3 alphas at n = 400,
# the 11 whose root lies between the last finite scan slope and a lost one,
# which no pair of scan slopes brackets
_LOST_NEIGHBOUR = {("exp(-q)*qdot^2/2", 3.0, 0.75),
                   ("qdot^2/2*exp(-q^2)", 1.0, 0.75)} | {
    ("qdot^2/2*exp(-q^2)", qb, alpha)
    for qb in (2.0, 3.0, -2.0) for alpha in (0.25, 0.5, 0.75)}


@pytest.mark.parametrize("text, qb, alpha", [
    (text, qb, alpha)
    for text in ("exp(-q)*qdot^2/2", "exp(q)*qdot^2/2", "qdot^2/2*exp(-q^2)")
    for qb in (0.5, 1.0, 2.0, 3.0, -2.0) for alpha in (0.25, 0.5, 0.75)])
def test_zero_curvature_lanes_leave_the_root_to_the_others(text, qb, alpha):
    # far slopes drive |q| up until d2L/dqdot^2 underflows to 0; the other
    # slopes bracket the root, or, for _LOST_NEIGHBOUR, runs between the
    # last finite slope and its lost neighbour do, and the two routes agree
    # as in criterion 6
    n = 400
    eps = max(0.02, 2.0 / n)
    L, bd = parse(text), BoundaryData1D(0.0, 1.0, 0.0, qb)
    _, runs, _ = _scan_gaps(L, bd, alpha, n)
    assert any(isinstance(f, SingularLagrangianError) for _, _, f in runs)
    dm = direct_minimize(L, bd, alpha, n)
    assert dm.converged
    target = float(np.interp(1.0 - eps, dm.q.grid.nodes, dm.q.values))
    gaps = [float(q[-1]) - target for q, _, _ in runs]
    assert (_nearest_bracket(gaps) is None) == ((text, qb, alpha) in _LOST_NEIGHBOUR)
    res = solve_el_bvp(L, bd, alpha, n, qb_at_margin=target)
    bn = res.q.grid.nodes
    gap = np.abs(np.interp(bn, dm.q.grid.nodes, dm.q.values) - res.q.values)
    assert np.max(gap[bn <= 1.0 - 5.0 * eps]) < 1e-3


@pytest.mark.parametrize("text, alpha, qa, qb", [
    ("qdot^2/2 + log(1+q)", 0.5, 0.0, 1.0),
    ("qdot^2/2*sqrt(1+q)", 0.75, 0.0, 3.0),
    ("qdot^2/2 + sqrt(2-q)", 0.5, 0.5, -2.0),
])
def test_far_slopes_out_of_the_domain_leave_the_root_to_the_scan(text, alpha,
                                                                 qa, qb):
    # the far scan slopes drive q out of the field's real domain, where a
    # check raises EvalError; the scan stops at the bracket next to the
    # straight-line slope before it runs them, and the two routes agree as
    # in criterion 6
    n = 400
    eps = max(0.02, 2.0 / n)
    L, bd = parse(text), BoundaryData1D(0.0, 1.0, qa, qb)
    with pytest.raises(EvalError):
        solve_el_ivp(L, 0.0, 1.0, qa, -10.0 * (qb - qa), alpha, n)
    dm = direct_minimize(L, bd, alpha, n)
    assert dm.converged
    target = float(np.interp(1.0 - eps, dm.q.grid.nodes, dm.q.values))
    res = solve_el_bvp(L, bd, alpha, n, qb_at_margin=target)
    bn = res.q.grid.nodes
    gap = np.abs(np.interp(bn, dm.q.grid.nodes, dm.q.values) - res.q.values)
    assert np.max(gap[bn <= 1.0 - 5.0 * eps]) < 1e-3


class TestEnergyBalance:
    """Along an extremal the energy H = v L_v - L obeys the FALVA balance
    dH/dtau = -(1-alpha) v L_v/(t-tau) - L_tau (Frederico & Torres, Int. J.
    Appl. Math. 19, 2006).  With a Simpson integral of the source, the
    balance defect of the RK4 path falls at RK4's order."""

    @pytest.mark.parametrize("text", [OSC, "qdot^2/2 + q^4/4 + tau*q",
                                      "sqrt(1+qdot^2)*exp(-q/3)"])
    def test_defect_falls_at_fourth_order(self, text):
        L, alpha, t = parse(text), 0.5, 1.0
        errors = []
        for n in (200, 400, 800):
            grid, q, v, failure = _integrate_el(L, 0.0, t, 0.0, 0.7, alpha, n)
            assert failure is None
            tau = grid.nodes
            value, l_v, l_tau = partials(L, [("qdot",), ("tau",)],
                                         {"qdot": v, "q": q, "tau": tau})
            energy = v * l_v - value
            source = -(1.0 - alpha) * v * l_v / (t - tau) - l_tau
            # Simpson from node 0 to each even node
            panels = source[:-2:2] + 4.0 * source[1:-1:2] + source[2::2]
            balance = np.concatenate([[0.0], np.cumsum(panels) * grid.h / 3.0])
            defect = energy[::2] - energy[0] - balance
            errors.append((grid.h, float(np.max(np.abs(defect)))))
        assert 3.8 < observed_order(errors) < 4.2


class TestDirectMinimize:
    def test_free_particle_matches_bvp(self):
        bd = BoundaryData1D(0.0, 1.0, 0.0, 1.0)
        dm = direct_minimize(parse(FREE), bd, 0.5, 200)
        assert dm.converged
        eps = max(0.02, 2.0 / 200)
        target = float(np.interp(1.0 - eps, dm.q.grid.nodes, dm.q.values))
        res = solve_el_bvp(parse(FREE), bd, 0.5, 200, qb_at_margin=target)
        bn = res.q.grid.nodes
        dm_interp = np.interp(bn, dm.q.grid.nodes, dm.q.values)
        mask = bn <= 0.95
        assert np.max(np.abs(dm_interp - res.q.values)[mask]) < 1e-3

    def test_classical_straight_line(self):
        bd = BoundaryData1D(0.0, 1.0, 0.0, 1.0)
        dm = direct_minimize(parse(FREE), bd, 1.0 - 1e-6, 200)
        assert dm.converged
        assert np.max(np.abs(dm.q.values - dm.q.grid.nodes)) < 1e-6

    def test_convex_restart_stability(self):
        bd = BoundaryData1D(0.0, 1.0, 0.0, 1.0)
        L = parse("qdot^2/2 + q^2/2")
        dm1 = direct_minimize(L, bd, 0.4, 150)
        rng = np.random.default_rng(2)
        start = dm1.q.values + 0.2 * rng.normal(size=151)
        dm2 = direct_minimize(L, bd, 0.4, 150, start=start)
        assert dm1.converged and dm2.converged
        assert np.max(np.abs(dm1.q.values - dm2.q.values)) < 1e-6

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_is_a_domain_error(self, monkeypatch, value):
        # the end values of a start path are replaced by the boundary data,
        # so only an interior value is refused, before the first objective
        bd = BoundaryData1D(0.0, 1.0, 0.0, 1.0)
        start = np.linspace(0.0, 1.0, 21)
        start[0] = start[-1] = value
        assert direct_minimize(parse(FREE), bd, 0.5, 20, start=start).converged
        start[10] = value
        monkeypatch.setattr(euler, "_eval_field", None)
        with pytest.raises(DomainError) as info:
            direct_minimize(parse(FREE), bd, 0.5, 20, start=start)
        assert str(info.value) == (
            f"start path must be finite, got {value!r} at node 10")

    def test_iteration_cap_flagged(self):
        # a quadratic converges in one Newton step, this one does not
        bd = BoundaryData1D(0.0, 1.0, 0.0, 1.0)
        dm = direct_minimize(parse(LENGTH), bd, 0.5, 200, max_iter=2)
        assert not dm.converged
        assert dm.iterations == 2

    @pytest.mark.parametrize("n", [400, 1600, 6400])
    @pytest.mark.parametrize("source", [FREE, OSC, QUARTIC, LENGTH])
    def test_converges_on_fine_grids(self, source, n):
        bd = BoundaryData1D(0.0, 1.0, 0.0, 1.0)
        dm = direct_minimize(parse(source), bd, 0.5, n)
        assert dm.converged
        assert dm.grad_norm < 1e-9
        if source in (FREE, OSC):
            # one Newton step solves a quadratic only with the exact Hessian
            assert dm.iterations == 1


class TestTridiagonalSolve:
    def _matrix(self, diag, off):
        return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)

    @pytest.mark.parametrize("m", [1, 2, 7, 64])
    def test_positive_definite_matches_dense_solve(self, m):
        rng = np.random.default_rng(m)
        diag = rng.uniform(2.5, 4.0, m)
        off = rng.uniform(-1.0, 1.0, m - 1)
        rhs = rng.normal(size=m)
        x = _solve_tridiagonal(diag, off, rhs)
        expected = np.linalg.solve(self._matrix(diag, off), rhs)
        assert np.allclose(x, expected, rtol=1e-13, atol=1e-13)

    def test_indefinite_matrix_gets_the_smallest_shift(self):
        rng = np.random.default_rng(5)
        m = 40
        diag = rng.uniform(-1.0, 3.0, m)
        off = rng.uniform(-1.0, 1.0, m - 1)
        rhs = rng.normal(size=m)
        T = self._matrix(diag, off)
        lowest = np.linalg.eigvalsh(T)[0]
        assert lowest < 0.0
        scale = np.max(np.abs(T))
        # the first shift of the sequence that makes T + s I positive definite
        shift = next(f * scale for f in (1e-3, 1e-2, 1e-1, 1.0, 10.0)
                     if lowest + f * scale > 0.0)
        x = _solve_tridiagonal(diag, off, rhs)
        expected = np.linalg.solve(T + shift * np.eye(m), rhs)
        assert np.allclose(x, expected, rtol=1e-12, atol=1e-12)
        # a positive definite system keeps the Newton direction a descent one
        assert float(np.dot(rhs, x)) > 0.0

    @staticmethod
    def _two_pass(diag, off, rhs):
        """The reference: factorize T + s I = L D L^T for the first shift
        whose pivots are all positive, then substitute forward and back."""
        scale = float(np.max(np.abs(np.concatenate([diag, off]))))
        d, e, b = diag.tolist(), off.tolist(), rhs.tolist()
        for factor in (0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0):
            shift = factor * scale
            pivots, mults = [d[0] + shift], []
            for di, ei in zip(d[1:], e):
                if not pivots[-1] > 0.0:
                    break
                mults.append(ei / pivots[-1])
                pivots.append(di + shift - mults[-1] * ei)
            if len(pivots) == len(d) and pivots[-1] > 0.0:
                break
        y = [b[0]]
        for bi, li in zip(b[1:], mults):
            y.append(bi - li * y[-1])
        x = [y[-1] / pivots[-1]]
        for yi, pi, li in zip(y[-2::-1], pivots[-2::-1], mults[::-1]):
            x.append(yi / pi - li * x[-1])
        return np.array(x[::-1])

    @pytest.mark.parametrize("m", [1, 2, 3, 64, 1599])
    @pytest.mark.parametrize("kind", ["definite", "indefinite", "negative"])
    def test_bits_of_a_two_pass_solve(self, m, kind):
        # a definite system solves unshifted; the first pivot of the others
        # is negative, so they take the shifted path
        rng = np.random.default_rng([m, len(kind)])
        diag = rng.uniform(2.5, 4.0, m)
        if kind == "indefinite":
            diag = rng.uniform(-1.0, 3.0, m)
            diag[0] = -0.5
        elif kind == "negative":
            diag -= 4.5
        off = rng.uniform(-1.0, 1.0, m - 1)
        rhs = rng.normal(size=m)
        x = _solve_tridiagonal(diag, off, rhs)
        assert x.tobytes() == self._two_pass(diag, off, rhs).tobytes()

    def test_non_finite_or_zero_matrix_is_refused(self):
        rhs = np.ones(3)
        assert _solve_tridiagonal(np.zeros(3), np.zeros(2), rhs) is None
        diag = np.array([1.0, np.nan, 1.0])
        assert _solve_tridiagonal(diag, np.zeros(2), rhs) is None
