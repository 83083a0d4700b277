"""Euler-Lagrange residuals, extremal solvers, and a direct minimizer.

Residual orientation.  All residual variants are written in the same
orientation,

    residual = dL/dq - sum_i [ Adj_i(dL/dqx_i) + (1 - alpha_i)/(xi_i - x_i) dL/dqx_i ],

where Adj_i is the combined fractional operator along axis i with the
order pair swapped and gamma negated (in the plain 1D variant the middle
term is d/dtau of the sampled partial instead).  The 1D, 2D and ND
fractional variants share one core, so they agree bit for bit where they
overlap.

Singular margin.  The damping coefficient (1 - alpha)/(t - tau) diverges
at the observer time, so residuals exclude an epsilon margin below each
observer, epsilon = max(0.05 (t - a), 2 h); the extremal integrator stops
at epsilon = max(0.02 (t - a), 2 (t - a)/n).  The fractional-operator
variants additionally exclude the same margin above each axis lower bound:
the one-sided operators leave (theta - a)^(1-alpha)-type boundary layers
whose adjoint derivatives genuinely diverge there, and the equations hold
on the open box only.  Excluded nodes carry a zero residual value and are
left out of the sup norm.

Flagged operator endpoints.  Where the forward operator flags a grid
endpoint, the sampled momentum dL/dqdot is a placeholder there; before the
adjoint operator is applied, flagged line endpoints are replaced by linear
extrapolation from their two neighbours (the flagged nodes themselves stay
excluded from the residual).

Boundary solves.  The shooting solver matches the endpoint at the
truncated time t - epsilon.  By default the match target is the raw
boundary value, which leaves an O(epsilon^(2-alpha)) endpoint defect; a
caller that knows the value of the sought path at t - epsilon can pass it
as ``qb_at_margin`` to remove the defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action import (
    MAX_DIMENSION,
    _check_observer,
    _check_slots,
    _eval_field,
    _partial_field,
    _qdot_samples,
    nd_slots,
)
from .errors import (
    BracketingError,
    DomainError,
    GridError,
    SingularLagrangianError,
    SingularNodeError,
    StepFailure,
    UnsupportedDimensionError,
)
from .exprdsl import LagrangianExpr, second_partials
from .fracops import GridFunctionND, OrderSet, as_nd, axis_cresson
from .numcore import (
    Grid1D,
    GridFunction,
    central_diff,
    find_root,
    gamma,
    ode_step_rk4,
)

__all__ = [
    "ResidualField",
    "BoundaryData1D",
    "BvpResult",
    "MinimizeResult",
    "rayleigh",
    "el_residual_1d",
    "el_residual_1d_cresson",
    "el_residual_2d",
    "el_residual_nd",
    "solve_el_ivp",
    "solve_el_bvp",
    "direct_minimize",
]

RESIDUAL_MARGIN_FRACTION = 0.05
IVP_MARGIN_FRACTION = 0.02
BVP_SCAN_SLOPES = 32
BVP_SCAN_SPAN = 10.0


@dataclass(frozen=True)
class ResidualField:
    """Per-node Euler-Lagrange residual with its exclusion bookkeeping.

    ``excluded`` marks nodes that are not part of the residual statement
    (grid boundary, the epsilon margin below each observer time, flagged
    singular nodes); the residual value is zero there.  ``epsilon_margin``
    holds the excluded interval length per axis; ``sup_norm`` is the max
    modulus over non-excluded nodes.
    """

    residual: object  # GridFunction or GridFunctionND
    excluded: np.ndarray
    epsilon_margin: tuple
    sup_norm: float


@dataclass(frozen=True)
class BoundaryData1D:
    a: float
    t: float
    qa: float
    qb: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.t, self.qa, self.qb))):
            raise DomainError("boundary data must be finite")
        if not self.t > self.a:
            raise DomainError("boundary data needs t > a")


@dataclass(frozen=True)
class BvpResult:
    """Shooting solution: the path, its velocity, and the matched slope."""

    q: GridFunction
    qdot: GridFunction
    v0: float
    matched_time: float
    target: float


@dataclass(frozen=True)
class MinimizeResult:
    """Direct-minimization output; ``converged`` is never silently true."""

    q: GridFunction
    converged: bool
    iterations: int
    grad_norm: float
    action_value: float


def _margin(lower: float, observer: float, h: float) -> float:
    return max(RESIDUAL_MARGIN_FRACTION * (observer - lower), 2.0 * h)


def rayleigh(L: LagrangianExpr, qdot: GridFunction, q: GridFunction,
             alpha: float, t_observer: float, tau=None) -> GridFunction:
    """Dissipation samples R = (1 - alpha) L(qdot, q, tau) / (t - tau).

    Every tau node must lie strictly below the observer time.
    """
    _check_slots(L, ("qdot", "q", "tau"))
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0,1], got {alpha!r}")
    if qdot.grid != q.grid:
        raise GridError("qdot and q must share a grid")
    nodes = q.grid.nodes if tau is None else np.asarray(tau, dtype=np.float64)
    if nodes.shape != q.values.shape:
        raise GridError("tau samples do not match the grid")
    if np.max(nodes) >= t_observer:
        raise SingularNodeError(
            f"tau = {float(np.max(nodes))!r} is not strictly below t = {t_observer!r}"
        )
    g = _eval_field(L, {"qdot": qdot.values, "q": q.values, "tau": nodes},
                    nodes.shape)
    r = (1.0 - alpha) * g / (t_observer - nodes)
    return GridFunction(q.grid, r)


def el_residual_1d(L: LagrangianExpr, q: GridFunction, alpha: float,
                   qdot=None, observer: float = None) -> ResidualField:
    """Residual of the weighted-action Euler-Lagrange equation,

        dL/dq - d/dtau(dL/dqdot) - (1 - alpha)/(t - tau) dL/dqdot,

    with the partials sampled along the path and the middle term taken by
    central differences of the sampled partial.  ``observer`` defaults to
    the grid's upper limit (pass the original observer time when the path
    itself was truncated).
    """
    _check_slots(L, ("qdot", "q", "tau"))
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got {alpha!r}")
    if np.iscomplexobj(q.values):
        raise DomainError("el_residual_1d expects a real-valued path")
    t_obs = q.grid.t if observer is None else float(observer)
    if t_obs < q.grid.t:
        raise DomainError("observer lies below the path's upper grid limit")
    qd, _ = _qdot_samples(q, qdot)
    nodes = q.grid.nodes
    h = q.grid.h
    env = {"qdot": qd, "q": q.values, "tau": nodes}
    p = _partial_field(L, "qdot", env, nodes.shape)
    lq = _partial_field(L, "q", env, nodes.shape)
    dp = central_diff(p, h)
    eps = _margin(q.grid.a, t_obs, h)
    excluded = np.zeros(nodes.shape, dtype=bool)
    excluded[0] = excluded[-1] = True
    excluded |= nodes > t_obs - eps
    excluded |= q.flags
    with np.errstate(divide="ignore", invalid="ignore"):
        damping = np.where(excluded, 0.0, (1.0 - alpha) / (t_obs - nodes))
    res = np.where(excluded, 0.0, lq - dp - damping * p)
    return _wrap_residual(GridFunction(q.grid, res), excluded, (eps,))


def _wrap_residual(residual, excluded, eps):
    vals = residual.values
    included = ~excluded
    sup = float(np.max(np.abs(vals[included]))) if included.any() else 0.0
    return ResidualField(residual, excluded, tuple(float(e) for e in eps), sup)


def _fix_flagged_line_ends(p: np.ndarray, flags: np.ndarray, axis: int) -> np.ndarray:
    """Replace flagged endpoint values along ``axis`` by linear extrapolation
    from the two adjacent nodes, so the adjoint operator never consumes a
    singular placeholder."""
    moved = np.moveaxis(p, axis, -1).copy()
    fmoved = np.moveaxis(flags, axis, -1)
    start = fmoved[..., 0]
    end = fmoved[..., -1]
    if start.any():
        moved[..., 0] = np.where(start, 2.0 * moved[..., 1] - moved[..., 2],
                                 moved[..., 0])
    if end.any():
        moved[..., -1] = np.where(end, 2.0 * moved[..., -2] - moved[..., -3],
                                  moved[..., -1])
    return np.moveaxis(moved, -1, axis)


def _el_residual_core(L: LagrangianExpr, field: GridFunctionND,
                      orders: OrderSet, deriv_slots, coord_slots,
                      q_slot="q") -> ResidualField:
    ndim = field.ndim
    if orders.ndim != ndim:
        raise DomainError(f"OrderSet has {orders.ndim} axes, field has {ndim}")
    _check_slots(L, tuple(deriv_slots) + tuple(coord_slots) + (q_slot,))
    derivs = [axis_cresson(field, ax, orders) for ax in range(ndim)]
    flags = field.flags.copy()
    for d in derivs:
        flags |= d.flags
    env = {q_slot: field.values}
    for ax in range(ndim):
        env[deriv_slots[ax]] = derivs[ax].values
    meshes = field.node_meshes()
    for ax in range(ndim):
        env[coord_slots[ax]] = meshes[ax]
    shape = field.values.shape
    lq = _partial_field(L, q_slot, env, shape)
    momenta = [_partial_field(L, deriv_slots[ax], env, shape)
               for ax in range(ndim)]

    excluded = flags.copy()
    eps = []
    adjoint_orders = orders.adjoint()
    total = np.zeros(shape, dtype=np.complex128)
    for ax in range(ndim):
        grid = field.grids[ax]
        e = _margin(grid.a, grid.t, grid.h)
        eps.append(e)
        idx = [None] * ndim
        idx[ax] = slice(None)
        line = grid.nodes[tuple(idx)]
        excluded |= np.broadcast_to(line > grid.t - e, shape)
        excluded |= np.broadcast_to(line < grid.a + e, shape)
        edge = np.zeros(shape, dtype=bool)
        first = [slice(None)] * ndim
        first[ax] = 0
        last = [slice(None)] * ndim
        last[ax] = shape[ax] - 1
        edge[tuple(first)] = True
        edge[tuple(last)] = True
        excluded |= edge

        p_fixed = _fix_flagged_line_ends(momenta[ax], flags, ax)
        adj = axis_cresson(
            GridFunctionND(field.grids, p_fixed), ax, adjoint_orders
        )
        excluded |= adj.flags
        alpha_ax = orders.weight_order(ax)
        with np.errstate(divide="ignore", invalid="ignore"):
            damping = np.where(
                np.broadcast_to(line, shape) < grid.t,
                (1.0 - alpha_ax) / (grid.t - np.broadcast_to(line, shape)),
                0.0,
            )
        total += adj.values + damping * momenta[ax]

    res = np.where(excluded, 0.0 + 0.0j, lq - total)
    residual = GridFunctionND(field.grids, res)
    field_out = residual if ndim > 1 else GridFunction(
        residual.grids[0], residual.values, residual.flags
    )
    return _wrap_residual(field_out, excluded, eps)


def el_residual_1d_cresson(L: LagrangianExpr, q: GridFunction,
                           orders: OrderSet) -> ResidualField:
    """Residual of the fractional-derivative Euler-Lagrange equation,

        dL/dq - Adj(dL/dqdot) - (1 - alpha)/(t - tau) dL/dqdot,

    with the first slot of L fed by the combined operator of the path and
    Adj the combined operator with swapped order pair and negated gamma.
    Complex-valued in general.
    """
    return _el_residual_core(L, as_nd(q), orders, ("qdot",), ("tau",))


def el_residual_2d(L: LagrangianExpr, q: GridFunctionND, orders: OrderSet,
                   observer) -> ResidualField:
    """Two-axis residual (slots qx, qy, q, x, y); see the module notes for
    the sign orientation shared with the 1D variant."""
    if q.ndim != 2:
        raise UnsupportedDimensionError("el_residual_2d needs a two-axis field")
    _check_observer(q, observer)
    return _el_residual_core(L, q, orders, ("qx", "qy"), ("x", "y"))


def el_residual_nd(L: LagrangianExpr, q: GridFunctionND, orders: OrderSet,
                   observer) -> ResidualField:
    """N-axis residual, N <= 3; reproduces the 1D and 2D variants bit for
    bit at N = 1 and N = 2 (up to slot naming)."""
    if q.ndim > MAX_DIMENSION:
        raise UnsupportedDimensionError(
            f"dimension {q.ndim} unsupported (max {MAX_DIMENSION})"
        )
    _check_observer(q, observer)
    deriv, coord = nd_slots(q.ndim)
    return _el_residual_core(L, q, orders, deriv, coord)


# ---------------------------------------------------------------------------
# extremal solvers (1D, no fractional derivatives in the dynamics)


def _accel_factory(L: LagrangianExpr, alpha: float, t_obs: float):
    """Acceleration field from the Euler-Lagrange equation solved for qddot:

        qddot = (dL/dq - (1-alpha)/(t-tau) dL/dqdot
                 - d2L/dqdot dq * qdot - d2L/dqdot dtau) / d2L/dqdot^2

    with the partials evaluated from the Lagrangian's derivative trees.
    Works on scalar or batched (array) states.  A non-finite d2L/dqdot^2
    raises StepFailure and a zero one SingularLagrangianError.
    """

    def accel(qv, vv, tau):
        env = {"qdot": vv, "q": qv, "tau": tau}
        _, l_qd, _, l_qdqd = second_partials(L, "qdot", "qdot", env)
        _, _, l_q, l_qdq = second_partials(L, "qdot", "q", env)
        _, _, _, l_qdtau = second_partials(L, "qdot", "tau", env)
        curvature = np.asarray(l_qdqd, dtype=float)
        if not np.all(np.isfinite(curvature)):
            at = float(np.min(tau))
            raise StepFailure(f"d2L/dqdot^2 is not finite at tau = {at:g}", tau=at)
        if np.any(curvature == 0):
            raise SingularLagrangianError(
                f"d2L/dqdot^2 vanished at tau = {float(np.min(tau)):g}"
            )
        damping = (1.0 - alpha) / (t_obs - tau)
        return (l_q - damping * l_qd - l_qdq * vv - l_qdtau) / l_qdqd

    return accel


def _integrate_el(L, a, t, q0, v0, alpha, n):
    """RK4-integrate the rearranged Euler-Lagrange dynamics from a to the
    truncated time t - eps; q0/v0 may be arrays for batched shooting.
    Returns (grid, Q, V) with node samples in rows."""
    _check_slots(L, ("qdot", "q", "tau"))
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got {alpha!r}")
    n = int(n)
    eps = max(IVP_MARGIN_FRACTION * (t - a), 2.0 * (t - a) / n)
    grid = Grid1D(a, t - eps, n)
    nodes = grid.nodes
    q0 = np.atleast_1d(np.asarray(q0, dtype=np.float64))
    v0 = np.atleast_1d(np.asarray(v0, dtype=np.float64))
    m = max(q0.shape[0], v0.shape[0])
    q0 = np.broadcast_to(q0, (m,)).copy()
    v0 = np.broadcast_to(v0, (m,)).copy()
    accel = _accel_factory(L, alpha, t)

    def field(state, tau):
        qv, vv = state[:m], state[m:]
        return np.concatenate([vv, np.broadcast_to(accel(qv, vv, tau), (m,))])

    qs = np.empty((grid.n + 1, m))
    vs = np.empty((grid.n + 1, m))
    qs[0], vs[0] = q0, v0
    y = np.concatenate([q0, v0])
    # a state that blows up ends in ode_step_rk4's StepFailure, not in warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(grid.n):
            y = ode_step_rk4(y, field, nodes[k], grid.h)
            qs[k + 1], vs[k + 1] = y[:m], y[m:]
    return grid, qs, vs


def solve_el_ivp(L: LagrangianExpr, a: float, t: float, q0: float, v0: float,
                 alpha: float, n: int):
    """Integrate the extremal dynamics from (q0, v0) at tau = a.

    Stops at the truncated time t - eps, eps = max(0.02 (t-a), 2 (t-a)/n);
    returns (q, qdot) sampled on the truncated grid.
    """
    grid, qs, vs = _integrate_el(L, a, t, q0, v0, alpha, n)
    return GridFunction(grid, qs[:, 0]), GridFunction(grid, vs[:, 0])


def solve_el_bvp(L: LagrangianExpr, bd: BoundaryData1D, alpha: float, n: int,
                 qb_at_margin: float = None, root_tol: float = 1e-10) -> BvpResult:
    """Shooting solve of the two-point boundary problem q(a) = qa, q(t) = qb.

    The endpoint is matched at the truncated time t - eps.  With the default
    target (the raw qb) the match carries a documented
    O(eps^min(1, 2-alpha)) endpoint defect; pass ``qb_at_margin`` (the value
    of the sought path at t - eps) to match without it.

    The shooting slope is bracketed by scanning 32 slopes across
    [-10, 10] * (qb - qa)/(t - a); when qb == qa the scan scale falls back
    to 1/(t - a).
    """
    target = float(bd.qb if qb_at_margin is None else qb_at_margin)
    scale = (bd.qb - bd.qa) / (bd.t - bd.a)
    if scale == 0.0:
        scale = 1.0 / (bd.t - bd.a)
    slopes = np.linspace(-BVP_SCAN_SPAN * scale, BVP_SCAN_SPAN * scale,
                         BVP_SCAN_SLOPES)

    def endpoint_gap(v0):
        _, qs, _ = _integrate_el(L, bd.a, bd.t, bd.qa, v0, alpha, n)
        return float(qs[-1, 0]) - target

    # one batched integration evaluates the whole scan
    _, qs, _ = _integrate_el(L, bd.a, bd.t, bd.qa, slopes, alpha, n)
    gaps = qs[-1, :] - target
    bracket = None
    for i in range(len(slopes) - 1):
        if gaps[i] * gaps[i + 1] <= 0.0:
            bracket = (slopes[i], slopes[i + 1])
            break
    if bracket is None:
        raise BracketingError(
            f"no sign change across {BVP_SCAN_SLOPES} shooting slopes in "
            f"[{slopes[0]:g}, {slopes[-1]:g}]; the boundary problem appears "
            "to have no solution in the scanned family"
        )
    v0 = find_root(endpoint_gap, bracket[0], bracket[1], tol=root_tol)
    q, qdot = solve_el_ivp(L, bd.a, bd.t, bd.qa, v0, alpha, n)
    return BvpResult(q=q, qdot=qdot, v0=float(v0),
                     matched_time=q.grid.t, target=target)


# ---------------------------------------------------------------------------
# direct discrete minimization (independent oracle for the solver route)


def direct_minimize(L: LagrangianExpr, bd: BoundaryData1D, alpha: float,
                    n: int, grad_tol: float = 1e-9, max_iter: int = 10000,
                    start=None) -> MinimizeResult:
    """Minimize the discrete weighted action over interior node values.

    The objective is the product-rule quadrature of the weighted action
    with the Lagrangian sampled per cell: exact singular-weight cell
    masses, cell-slope velocities and midpoint positions/times.  (Sampling
    at the nodes with central-difference velocities leaves the odd/even
    sublattices decoupled near the singular weight and shifts the
    minimizer by O(h); the cell sampling is free of that.)  The gradient
    is assembled exactly from the expression partials and the adjoint of
    the quadrature, and minimized by Polak-Ribiere conjugate gradient with
    a curvature-probe line search.  Endpoints stay fixed at (qa, qb).
    Termination: gradient sup-norm below ``grad_tol`` or ``max_iter``
    iterations, in which case the result is flagged non-converged.
    """
    _check_slots(L, ("qdot", "q", "tau"))
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got {alpha!r}")
    grid = Grid1D(bd.a, bd.t, int(n))
    nodes = grid.nodes
    h = grid.h
    u = grid.t - nodes
    cell_w = (u[:-1] ** alpha - u[1:] ** alpha) / alpha
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    norm = gamma(alpha)

    def cell_env(qv):
        return {"qdot": np.diff(qv) / h,
                "q": 0.5 * (qv[:-1] + qv[1:]),
                "tau": mids}

    def objective(qv):
        g = _eval_field(L, cell_env(qv), mids.shape)
        return float(np.dot(cell_w, g)) / norm

    def grad(qv):
        env = cell_env(qv)
        lq = _partial_field(L, "q", env, mids.shape)
        lqd = _partial_field(L, "qdot", env, mids.shape)
        out = np.zeros_like(qv)
        out[:-1] += cell_w * (0.5 * lq - lqd / h)
        out[1:] += cell_w * (0.5 * lq + lqd / h)
        return out / norm

    if start is None:
        qv = bd.qa + (bd.qb - bd.qa) * (nodes - bd.a) / (bd.t - bd.a)
    else:
        qv = np.array(start, dtype=np.float64)
        if qv.shape != nodes.shape:
            raise GridError("start path does not match the grid")
        qv = qv.copy()
        qv[0], qv[-1] = bd.qa, bd.qb

    s_val = objective(qv)
    g_full = grad(qv)
    gf = g_full[1:-1]
    d = -gf
    iterations = 0
    converged = float(np.max(np.abs(gf))) < grad_tol
    while not converged and iterations < max_iter:
        iterations += 1
        g0d = float(np.dot(gf, d))
        if g0d >= 0.0:  # not a descent direction: restart on steepest descent
            d = -gf
            g0d = float(np.dot(gf, d))
            if g0d == 0.0:
                break
        # curvature probe along d gives the exact step for quadratic models
        dnorm = float(np.max(np.abs(d)))
        sigma = 1e-7 * (1.0 + float(np.max(np.abs(qv)))) / max(dnorm, 1e-30)
        probe = qv.copy()
        probe[1:-1] += sigma * d
        curv = (float(np.dot(grad(probe)[1:-1], d)) - g0d) / sigma
        step = -g0d / curv if curv > 0.0 else 1.0 / max(dnorm, 1.0)
        # Armijo backtracking safeguards the probe step
        accepted = False
        for _ in range(40):
            trial = qv.copy()
            trial[1:-1] += step * d
            s_trial = objective(trial)
            if s_trial <= s_val + 1e-4 * step * g0d + 1e-15 * (1.0 + abs(s_val)):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        qv = trial
        s_val = s_trial
        g_new = grad(qv)[1:-1]
        beta = float(np.dot(g_new, g_new - gf)) / max(float(np.dot(gf, gf)), 1e-300)
        beta = max(beta, 0.0)
        d = -g_new + beta * d
        gf = g_new
        converged = float(np.max(np.abs(gf))) < grad_tol
    return MinimizeResult(
        q=GridFunction(grid, qv),
        converged=bool(converged),
        iterations=iterations,
        grad_norm=float(np.max(np.abs(gf))),
        action_value=s_val,
    )
