import math
import re
import warnings

import numpy as np
import pytest

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
    direct_minimize,
    el_residual_1d,
    el_residual_1d_cresson,
    el_residual_2d,
    el_residual_nd,
    parse,
    partial,
    rayleigh,
    solve_el_bvp,
    solve_el_ivp,
    trapezoid_action,
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
        assert str(info.value).endswith(" (node 0)")

    def test_check_of_tau_alone_names_no_node(self):
        with pytest.raises(EvalError) as info:
            solve_el_ivp(parse("qdot^2/2 + log(0.5 - tau)*q"), 0.0, 1.0, 0.0,
                         1.0, 0.5, 50)
        assert info.value.index is None
        assert str(info.value) == "log of a non-positive value in real mode"

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
    """Each lane of a batched integration fails on its own and matches its
    lone run bit for bit; the root search reads the scan's lanes."""

    @pytest.mark.parametrize("text, slopes", [
        # 22 of the 32 lanes blow up, at different steps and stages
        (QUARTIC, np.linspace(-20.0, 20.0, 32)),
        ("sqrt(1+qdot^2)*exp(-q/3)", np.linspace(-20.0, 20.0, 12)),
        # d2L/dqdot^2 = exp(qdot) + exp(-qdot) overflows at v0 = 720 only
        ("exp(qdot) + exp(-qdot)", np.array([-1.0, 0.0, 720.0, 1.0])),
        # each runtime helper and a checked division, on floats when alone
        ("qdot^2/2 + abs(q)", np.linspace(-20.0, 20.0, 12)),
        ("qdot^2/2 + (1+q^2)^0.75", np.linspace(-20.0, 20.0, 12)),
        ("qdot^2/2 + q/(2+q^2)", np.linspace(-20.0, 20.0, 12)),
        ("qdot^2/2 + log(2+q^2)", np.linspace(-20.0, 20.0, 12)),
    ])
    def test_lane_parity(self, text, slopes):
        L = parse(text)
        grid, qs, vs, failures = _integrate_el(L, 0.0, 1.0, 0.0, slopes, 0.5, 100)
        assert qs.shape == vs.shape == (101, len(slopes))
        for i, v0 in enumerate(slopes):
            lone_grid, q1, v1, (lone,) = _integrate_el(L, 0.0, 1.0, 0.0, v0, 0.5, 100)
            assert lone_grid == grid
            assert np.array_equal(qs[:, i], q1[:, 0], equal_nan=True)
            assert np.array_equal(vs[:, i], v1[:, 0], equal_nan=True)
            # a failed lane ends in NaN, a finished one does not
            assert np.isnan(qs[-1, i]) == (lone is not None)
            if lone is None:
                assert failures[i] is None
                continue
            assert isinstance(failures[i], StepFailure)
            assert str(failures[i]) == str(lone)
            assert failures[i].tau == lone.tau
            # solve_el_ivp raises the lone lane's failure
            with pytest.raises(StepFailure) as info:
                solve_el_ivp(L, 0.0, 1.0, 0.0, v0, 0.5, 100)
            assert (str(info.value), info.value.tau) == (str(lone), lone.tau)

    def test_lane_failure_kinds(self):
        _, qs, _, failures = _integrate_el(parse("exp(qdot) + exp(-qdot)"), 0.0,
                                           1.0, 0.0, [0.0, 720.0], 0.5, 50)
        assert failures[0] is None
        assert str(failures[1]) == "d2L/dqdot^2 is not finite at tau = 0"
        assert failures[1].tau == 0.0
        assert np.all(np.isnan(qs[1:, 1])) and np.all(np.isfinite(qs[:, 0]))
        _, _, _, failures = _integrate_el(parse(QUARTIC), 0.0, 1.0, 0.0,
                                          [300.0], 0.5, 400)
        assert str(failures[0]).startswith("non-finite derivative at tau = ")

    def test_check_of_tau_alone_fails_in_the_rest_of_a_failed_step(self):
        # every lane is lost at a mid stage of step k, by a blow-up at the
        # second stage or by d2L/dqdot^2 = (tau - s)^2 = 0 at both, and
        # log(c - tau) fails at its fourth stage, tau = c: the rest of the
        # step runs on NaN, so the lone run raises the scan's EvalError
        grid = Grid1D(0.0, 0.98, 100)
        taus, h, k = grid.nodes.tolist(), grid.h, 40
        s, c = taus[k] + 0.5 * h, taus[k] + h
        d, rate = taus[k] + 0.25 * h, 8000.0 / h
        for lose in (f"qdot^2/2 + exp({rate!r}*(tau - {d!r}))*q",
                     f"qdot^2/2*(tau - {s!r})^2"):
            L = parse(f"{lose} + log({c!r} - tau)*q")
            for v0 in ([0.5, 1.0], 0.5):
                with pytest.raises(EvalError, match="^log of a non-positive value in real mode$"):
                    _integrate_el(L, 0.0, 1.0, 0.0, v0, 0.5, 100)

    @pytest.mark.parametrize("text, slopes, lost", [
        # d2L/dqdot^2 = 0 everywhere: every lane fails at tau = 0
        ("q*qdot", [0.0, 1.0], [True, True]),
        # exp(-q) underflows to 0 on the steep lanes only
        ("exp(-q)*qdot^2/2", [1.0, 20.0, -1.0, 40.0], [False, True, False, True]),
    ], ids=["q*qdot", "exp(-q)*qdot^2/2"])
    def test_zero_curvature_fails_its_lane(self, text, slopes, lost):
        L = parse(text)
        _, qs, vs, failures = _integrate_el(L, 0.0, 1.0, 0.0, slopes, 0.5, 100)
        assert [f is not None for f in failures] == lost
        for i, v0 in enumerate(slopes):
            # a lone run has the bits of its lane and records its failure
            _, q1, v1, (lone,) = _integrate_el(L, 0.0, 1.0, 0.0, v0, 0.5, 100)
            assert np.array_equal(qs[:, i], q1[:, 0], equal_nan=True)
            assert np.array_equal(vs[:, i], v1[:, 0], equal_nan=True)
            if not lost[i]:
                assert lone is None
                continue
            assert isinstance(lone, SingularLagrangianError)
            assert isinstance(failures[i], SingularLagrangianError)
            assert (str(failures[i]), failures[i].tau) == (str(lone), lone.tau)
            assert np.isnan(qs[-1, i])
            # solve_el_ivp raises the recorded failure
            with pytest.raises(SingularLagrangianError) as info:
                solve_el_ivp(L, 0.0, 1.0, 0.0, v0, 0.5, 100)
            assert (str(info.value), info.value.tau) == (str(lone), lone.tau)

    _SINGULAR, _STEP = SingularLagrangianError, StepFailure

    @pytest.mark.parametrize("text, slopes, pinned", [
        # exp(-q) underflows to 0 on the steep lanes: in the middle of a
        # step (slopes 20 and 60), at its end (30) and at its start (40)
        ("exp(-q)*qdot^2/2", [1.0, 20.0, 30.0, 40.0, 60.0], [
            None,
            (_SINGULAR, "d2L/dqdot^2 vanished at tau = 0.1127", 0.1127, 12),
            (_SINGULAR, "d2L/dqdot^2 vanished at tau = 0.0784", 0.0784, 8),
            (_SINGULAR, "d2L/dqdot^2 vanished at tau = 0.0588", 0.0588, 7),
            (_SINGULAR, "d2L/dqdot^2 vanished at tau = 0.0441", 0.0441, 5)]),
        # d2L/dqdot^2 = 0 everywhere: every lane fails at its first stage
        ("q*qdot", [0.0, 1.0], [
            (_SINGULAR, "d2L/dqdot^2 vanished at tau = 0", 0.0, 1)] * 2),
        # the quartic's far lanes blow up in the middle of a step
        (QUARTIC, [2.0, -20.0, 20.0], [
            None,
            (_STEP, "non-finite derivative at tau = 0.5439", 0.5439, 56),
            (_STEP, "non-finite derivative at tau = 0.5439", 0.5439, 56)]),
    ], ids=["exp(-q)*qdot^2/2", "q*qdot", QUARTIC])
    def test_lanes_that_fail_mid_step(self, text, slopes, pinned):
        # a step that loses a lane fails the screen and is replayed with each
        # stage checked: each lane's error, its tau and its first NaN row
        _, qs, vs, failures = _integrate_el(parse(text), 0.0, 1.0, 0.0, slopes,
                                            0.5, 100)
        for i, want in enumerate(pinned):
            if want is None:
                assert failures[i] is None
                assert np.isfinite(qs[:, i]).all() and np.isfinite(vs[:, i]).all()
                continue
            kind, message, tau, row = want
            assert type(failures[i]) is kind
            assert (str(failures[i]), failures[i].tau) == (message, tau)
            assert np.isfinite(qs[:row, i]).all() and np.isnan(qs[row:, i]).all()
            assert np.isnan(vs[row:, i]).all()

    @pytest.mark.parametrize("v0", [[0.0, 1e-10], 0.0, 1e-10])
    def test_an_infinite_curvature_alone_fails_the_screen(self, v0):
        # d2L/dqdot^2 = 2 q overflows at q = 1e308, while dL/dqdot = 2 q qdot
        # does not: qddot = force/inf is 0 and (q, v) stay finite, so only the
        # curvatures in the screen send the step to its checked replay
        _, qs, _, failures = _integrate_el(parse("q*qdot^2"), 0.0, 1.0, 1e308,
                                           v0, 0.5, 10)
        assert [(type(f), str(f), f.tau) for f in failures] == [
            (StepFailure, "d2L/dqdot^2 is not finite at tau = 0", 0.0)] * np.size(v0)
        assert (qs[0] == 1e308).all() and np.isnan(qs[1:]).all()

    def test_an_error_of_a_lost_lane_is_not_raised(self):
        # every lane blows up at the second stage of step k; run unchecked,
        # its fourth stage then reads q = inf, and log(10 - q) fails there,
        # or d2L/dqdot^2 = (tau - c)^2 vanishes there, at tau = c.  The
        # checked replay runs those stages on NaN, which no check fails, so
        # each lane, and a lone run alike, records its StepFailure
        grid = Grid1D(0.0, 0.98, 100)
        taus, h, k = grid.nodes.tolist(), grid.h, 40
        c, d, rate = taus[k] + h, taus[k] + 0.25 * h, 8000.0 / h
        blow_up = f"exp({rate!r}*(tau - {d!r}))*q"
        message = f"non-finite derivative at tau = {taus[k] + 0.5 * h!r}"
        for text in (f"qdot^2/2 + {blow_up} + log(10 - q)",
                     f"qdot^2/2*(tau - {c!r})^2 + {blow_up}"):
            L = parse(text)
            for v0 in ([0.5, 1.0], [0.5]):
                _, qs, _, failures = _integrate_el(L, 0.0, 1.0, 0.0, v0, 0.5, 100)
                assert [(type(f), str(f)) for f in failures] == [
                    (StepFailure, message)] * len(v0)
                assert np.isfinite(qs[:k + 1]).all() and np.isnan(qs[k + 1:]).all()
            with pytest.raises(StepFailure, match=f"^{re.escape(message)}$"):
                solve_el_ivp(L, 0.0, 1.0, 0.0, 0.5, 0.5, 100)

    def test_no_bracket_reports_the_first_vanished_curvature(self):
        # the lanes up to -7.74 each underflow exp(q) to 0, the steepest
        # first; every finite lane, and every lone run between lane 15 and
        # its lost neighbour 14, ends below the target 8
        with pytest.raises(SingularLagrangianError) as info:
            solve_el_bvp(parse("exp(q)*qdot^2/2"),
                         BoundaryData1D(0.0, 1.0, 0.0, 8.0), 0.5, 400)
        assert str(info.value) == "d2L/dqdot^2 vanished at tau = 0.028175"

    def test_a_root_next_to_a_lost_lane_is_bisected(self, monkeypatch):
        # the lanes from 17 up each underflow exp(-q) to 0, and the root
        # lies between lane 16 and the lost lane 17: lone runs at n bisect
        # that interval until a gap changes sign
        calls = self._count_integrations(monkeypatch)
        res = solve_el_bvp(parse("exp(-q)*qdot^2/2"),
                           BoundaryData1D(0.0, 1.0, 0.0, 3.0), 0.75, 400)
        assert abs(float(res.q.values[-1]) - 3.0) < 3e-10
        assert calls[:2] == [(1, 100), (1, 400)]
        assert set(calls[2:]) == {(0, 400)}

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
        """Record (ndim of the slopes, n) per integration; ``edit(v0, n,
        out)`` may change the returned (grid, Q, V, failures) or raise."""
        calls = []
        integrate = euler._integrate_el

        def counted(L, a, t, q0, v0, alpha, n):
            calls.append((np.ndim(v0), n))
            out = integrate(L, a, t, q0, v0, alpha, n)
            return out if edit is None else edit(v0, n, out)

        monkeypatch.setattr(euler, "_integrate_el", counted)
        return calls

    _LINEAR_CASES = pytest.mark.parametrize("text, qa, qb", [
        (FREE, 0.0, 1.0), (OSC, 0.0, 1.0), (FREE, 0.0, 1e200), (OSC, 0.0, 1e200),
        (FREE, 1e-170, 2e-170), (OSC, 1e-170, 2e-170),
    ], ids=[FREE, OSC, FREE + "-1e200", OSC + "-1e200", FREE + "-1e-170",
            OSC + "-1e-170"])

    # at 1e200 and 1e-170 the secant step's product overflows or
    # underflows, and the step takes the quotient first
    @_LINEAR_CASES
    def test_linear_problem_integrates_twice(self, monkeypatch, text, qa, qb):
        # up to BVP_COARSE_NODES the scan runs at n: the scan, then the
        # secant root; the bracket ends come from the scan
        calls = self._count_integrations(monkeypatch)
        solve_el_bvp(parse(text), BoundaryData1D(0.0, 1.0, qa, qb), 0.5, 100)
        assert calls == [(1, 100), (0, 100)]

    @_LINEAR_CASES
    def test_linear_problem_scans_coarse_then_runs_three_slopes(
            self, monkeypatch, text, qa, qb):
        # the scan at BVP_COARSE_NODES, the two bracket ends at n, then the
        # secant root
        calls = self._count_integrations(monkeypatch)
        solve_el_bvp(parse(text), BoundaryData1D(0.0, 1.0, qa, qb), 0.5, 400)
        assert calls == [(1, 100)] + [(0, 400)] * 3

    def test_quartic_integrations(self, monkeypatch):
        calls = self._count_integrations(monkeypatch)
        res = solve_el_bvp(parse(QUARTIC), BoundaryData1D(0.0, 1.0, 0.0, 1.0),
                           0.5, 400)
        assert calls == [(1, 100)] + [(0, 400)] * 11
        assert res.v0 == 1.4261737846979154


def _full_scan_solve(L, bd, alpha, n):
    """The shooting solve with its 32-slope scan at the full n, built from
    _integrate_el and find_root; returns (v0, q, qdot, brackets), where
    brackets counts the sign changes of the scan."""
    scale = (bd.qb - bd.qa) / (bd.t - bd.a) or 1.0 / (bd.t - bd.a)
    slopes = np.linspace(-10.0 * scale, 10.0 * scale, 32)
    _, qs, vs, _ = _integrate_el(L, bd.a, bd.t, bd.qa, slopes, alpha, n)
    runs = {float(s): (qs[:, i], vs[:, i]) for i, s in enumerate(slopes)}
    gaps = qs[-1] - bd.qb
    # a NaN gap compares false, so a failed lane bounds no bracket
    brackets = [i for i in range(31) if gaps[i] <= 0.0 <= gaps[i + 1]
                or gaps[i + 1] <= 0.0 <= gaps[i]]

    def gap(v0):
        if v0 not in runs:
            _, q, qdot, (failure,) = _integrate_el(L, bd.a, bd.t, bd.qa, v0,
                                                   alpha, n)
            if failure is not None:
                raise failure
            runs[v0] = q[:, 0], qdot[:, 0]
        return float(runs[v0][0][-1]) - bd.qb

    i = brackets[0]
    tol = euler.BVP_ROOT_TOL * max(abs(bd.qa), abs(bd.qb))
    v0 = find_root(gap, slopes[i], slopes[i + 1], tol=tol)
    return (v0, *runs[v0], len(brackets))


class TestCoarseScan:
    """Above BVP_COARSE_NODES intervals the scan runs on BVP_COARSE_NODES,
    which match at the same time t - eps; the result keeps the bits of a
    scan at the full n."""

    def test_coarse_grid_matches_at_the_same_time(self):
        assert euler.BVP_COARSE_NODES == 100
        grid, *_ = _integrate_el(parse(FREE), 0.0, 1.0, 0.0, 1.0, 0.5, 400)
        coarse, *_ = _integrate_el(parse(FREE), 0.0, 1.0, 0.0, 1.0, 0.5, 100)
        assert coarse.t == grid.t

    @pytest.mark.parametrize("text, alpha, qb, several_roots", [
        (FREE, 0.5, 1.0, False), (FREE, 0.75, 1.0, False),
        (OSC, 0.5, 1.0, False), (OSC, 0.75, 1.0, False),
        (QUARTIC, 0.5, 1.0, False),
        ("qdot^2/2 - q^4", 0.75, 1.0, True),
        ("qdot^2/2 + 20*cos(q)*q", 0.5, 1.0, True),
    ])
    def test_bits_of_the_full_scan(self, text, alpha, qb, several_roots):
        L, bd = parse(text), BoundaryData1D(0.0, 1.0, 0.0, qb)
        v0, q, qdot, brackets = _full_scan_solve(L, bd, alpha, 400)
        assert (brackets > 1) == several_roots
        res = solve_el_bvp(L, bd, alpha, 400)
        assert res.v0 == v0
        assert np.array_equal(res.q.values, q)
        assert np.array_equal(res.qdot.values, qdot)

    @pytest.mark.parametrize("fault, expected", [
        ("no bracket at n", [(1, 100), (0, 400), (0, 400), (1, 400), (0, 400)]),
        ("coarse scan fails", [(1, 100), (1, 400), (0, 400)]),
        ("bracket end fails at n", [(1, 100), (0, 400), (1, 400), (0, 400)]),
        ("bracket end records a failure at n",
         [(1, 100), (0, 400), (1, 400), (0, 400)]),
    ])
    def test_falls_back_to_the_full_scan(self, monkeypatch, fault, expected):
        # the full scan runs and gives its own result
        lone_runs = []

        def edit(v0, n, out):
            coarse = n == euler.BVP_COARSE_NODES
            if fault == "no bracket at n" and coarse:
                # the coarse scan's first bracket becomes lanes 0 and 1,
                # which do not bracket at n
                out[1][-1] = np.where(np.arange(len(v0)) == 0, 0.0, 2.0)
            elif fault == "coarse scan fails" and coarse:
                raise EvalError("a check failed on the coarse grid")
            elif fault == "bracket end fails at n" and np.ndim(v0) == 0:
                lone_runs.append(v0)
                if len(lone_runs) == 1:
                    # a lone run raises only an EvalError; its failures are
                    # recorded, as below
                    raise EvalError("a check failed at n")
            elif fault == "bracket end records a failure at n" and np.ndim(v0) == 0:
                lone_runs.append(v0)
                if len(lone_runs) == 1:
                    # the run ends as a lone run that blew up does
                    out[3][0] = StepFailure("non-finite derivative", tau=0.5)
            return out

        L, bd = parse(OSC), BoundaryData1D(0.0, 1.0, 0.0, 1.0)
        v0, q, qdot, _ = _full_scan_solve(L, bd, 0.5, 400)
        calls = TestShootingLanes._count_integrations(monkeypatch, edit)
        res = solve_el_bvp(L, bd, 0.5, 400)
        assert calls == expected
        assert res.v0 == v0
        assert np.array_equal(res.q.values, q)
        assert np.array_equal(res.qdot.values, qdot)

    def test_no_bracket_raises_the_full_scan_error(self, monkeypatch):
        calls = TestShootingLanes._count_integrations(monkeypatch)
        with pytest.raises(BracketingError) as info:
            solve_el_bvp(parse("qdot^2/2 + 80*cos(q)"),
                         BoundaryData1D(0.0, 1.0, 0.0, 1.0), 0.5, 400)
        assert str(info.value) == (
            "no sign change across 32 shooting slopes in [-10, 10]; the "
            "boundary problem appears to have no solution in the scanned family")
        assert calls == [(1, 100), (1, 400)]


# of three position-dependent masses x 5 boundaries x 3 alphas at n = 400,
# the 11 whose root lies between the last finite scan lane and a lost one,
# which no pair of scan lanes brackets
_LOST_NEIGHBOUR = {("exp(-q)*qdot^2/2", 3.0, 0.75),
                   ("qdot^2/2*exp(-q^2)", 1.0, 0.75)} | {
    ("qdot^2/2*exp(-q^2)", qb, alpha)
    for qb in (2.0, 3.0, -2.0) for alpha in (0.25, 0.5, 0.75)}


@pytest.mark.parametrize("text, qb, alpha", [
    (text, qb, alpha)
    for text in ("exp(-q)*qdot^2/2", "exp(q)*qdot^2/2", "qdot^2/2*exp(-q^2)")
    for qb in (0.5, 1.0, 2.0, 3.0, -2.0) for alpha in (0.25, 0.5, 0.75)])
def test_zero_curvature_lanes_leave_the_root_to_the_others(text, qb, alpha):
    # far lanes drive |q| up until d2L/dqdot^2 underflows to 0; the other
    # lanes bracket the root, or, for _LOST_NEIGHBOUR, lone runs between
    # the last finite lane and its lost neighbour do, and the two routes
    # agree as in criterion 6
    n = 400
    eps = max(0.02, 2.0 / n)
    L, bd = parse(text), BoundaryData1D(0.0, 1.0, 0.0, qb)
    _, qs, _, failures = _integrate_el(L, 0.0, 1.0, 0.0,
                                       np.linspace(-10.0 * qb, 10.0 * qb, 32), alpha, n)
    assert any(isinstance(f, SingularLagrangianError) for f in failures)
    dm = direct_minimize(L, bd, alpha, n)
    assert dm.converged
    target = float(np.interp(1.0 - eps, dm.q.grid.nodes, dm.q.values))
    assert (euler._first_bracket(qs[-1] - target) is None) == (
        (text, qb, alpha) in _LOST_NEIGHBOUR)
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
            grid, qs, vs, failures = _integrate_el(L, 0.0, t, 0.0, 0.7, alpha, n)
            assert failures == [None]
            q, v, tau = qs[:, 0], vs[:, 0], grid.nodes
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

    def test_non_finite_or_zero_matrix_is_refused(self):
        rhs = np.ones(3)
        assert _solve_tridiagonal(np.zeros(3), np.zeros(2), rhs) is None
        diag = np.array([1.0, np.nan, 1.0])
        assert _solve_tridiagonal(diag, np.zeros(2), rhs) is None
