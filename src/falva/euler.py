"""Euler-Lagrange residuals, extremal solvers, and a direct minimizer.

Residual orientation.  All residual variants are written in the same
orientation,

    residual = dL/dq - sum_i [ Adj_i(dL/dqx_i) + (1 - alpha_i)/(xi_i - x_i) dL/dqx_i ],

where Adj_i is the combined fractional operator along axis i with the
order pair swapped and gamma negated (in the plain 1D variant the middle
term is d/dtau of the sampled partial instead).  The 1D, 2D and ND
fractional variants share one core, which binds its slots like the
action's (``action.SLOTS``), so they agree bit for bit where they overlap.

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
as ``qb_at_margin`` to remove the defect.  The slope scan that brackets
the shooting root runs on at most BVP_COARSE_NODES intervals, which match
at the same time t - epsilon as the full n, and at n itself up to that
size; a root next to a lost lane is bracketed by lone runs between the
two.  ``solve_el_bvp`` tells how.

Shooting integrator.  Every shooting run, a lone slope on Python floats or
a scan on lane arrays, goes through ``_integrate_el``.  Its field is one
compiled program per Lagrangian, a function of an RK4 stage's (qdot, q,
tau) and damping that returns the force and d2L/dqdot^2, and one RK4 step
serves floats and lanes.  A step runs unchecked and is screened once, on
its new (q, v) and its four curvatures; a step that fails the screen or
raises is replayed with each stage checked, on lane arrays, a lone slope
as one lane.  So a lost lane, a failure's tau and the first error are
those of a run checked at every stage, and a lone slope fails exactly as
its lane in a scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action import (
    _PATH_SLOTS,
    MAX_DIMENSION,
    SLOTS,
    _check_observer,
    _check_path_problem,
    _check_slots,
    _eval_field,
    _fractional_env,
    _partial_fields,
    _qdot_samples,
    nd_slots,
)
from .errors import (
    BracketingError,
    DomainError,
    EvalError,
    GridError,
    SingularLagrangianError,
    SingularNodeError,
    StepFailure,
    UnsupportedDimensionError,
)
# second_partials is not called here; perfbench/spans.py wraps it at this name
from .exprdsl import LagrangianExpr, _program, second_partials
from .fracops import GridFunctionND, OrderSet, as_1d, as_nd, axis_cresson
# ode_step_rk4 is not called here; perfbench/spans.py wraps it at this name
from .numcore import (
    Grid1D,
    GridFunction,
    _weighted_sum,
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
# the fewest intervals at which 2 (t-a)/n <= IVP_MARGIN_FRACTION (t-a), so
# that the match time t - eps no longer depends on n
BVP_COARSE_NODES = math.ceil(2.0 / IVP_MARGIN_FRACTION)
BVP_SCAN_SPAN = 10.0
BVP_ROOT_TOL = 1e-10
# lone runs that bisect the interval between a finite scan lane and a lost
# neighbour, down to 2^-30 of the lane spacing
BVP_EDGE_STEPS = 30
MINIMIZE_MAX_ITER = 10000
MINIMIZE_GRAD_TOL = 1e-9

# the partials of the acceleration field; the order fixes which error a
# Lagrangian that fails in several trees reports: dL/dqdot first, then each
# partial by q or tau followed by its qdot-derivative
_ACCEL_PARTIALS = (("qdot",), ("qdot", "qdot"), ("q",), ("q", "qdot"),
                   ("tau",), ("tau", "qdot"))
# the entries of [value, *_ACCEL_PARTIALS] the field reads: all but the
# value and dL/dtau
_ACCEL_RETURNS = (1, 2, 3, 4, 6)
# the shooting field's signature: a function of one RK4 stage's (qdot, q,
# tau) and damping (1-alpha)/(t-tau) that returns the numerator of qddot,
# dL/dq - damping dL/dqdot - d2L/dqdot dq qdot - d2L/dqdot dtau, and the
# curvature d2L/dqdot^2, from the entries above
_FIELD = (("qdot", "q", "tau", "damping"),
          "{2} - damping * {0} - {3} * qdot - {4}, {1}")

# the first and second partials the Hessian of direct_minimize reads, in the
# order in which separate calls of second_partials by (qdot, qdot),
# (qdot, q) and (q, q) would first compute them
_HESSIAN_PARTIALS = (("qdot",), ("qdot", "qdot"), ("q",), ("q", "qdot"),
                     ("q", "q"))


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
    _check_slots(L, _PATH_SLOTS)
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0,1], got {alpha!r}")
    qd, _ = _qdot_samples(q, qdot, "rayleigh")
    nodes = q.grid.nodes if tau is None else np.asarray(tau, dtype=np.float64)
    if nodes.shape != q.values.shape:
        raise GridError("tau samples do not match the grid")
    if np.max(nodes) >= t_observer:
        raise SingularNodeError(
            f"tau = {float(np.max(nodes))!r} is not strictly below t = {t_observer!r}"
        )
    g = _eval_field(L, {"qdot": qd, "q": q.values, "tau": nodes}, nodes.shape)
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
    _check_path_problem(L, alpha)
    if np.iscomplexobj(q.values):
        raise DomainError("el_residual_1d expects a real-valued path")
    t_obs = q.grid.t if observer is None else float(observer)
    if t_obs < q.grid.t:
        raise DomainError("observer lies below the path's upper grid limit")
    qd, _ = _qdot_samples(q, qdot, "el_residual_1d")
    nodes = q.grid.nodes
    h = q.grid.h
    env = {"qdot": qd, "q": q.values, "tau": nodes}
    p, lq = _partial_fields(L, (("qdot",), ("q",)), env, nodes.shape)
    dp = central_diff(p, h)
    eps = _margin(q.grid.a, t_obs, h)
    excluded = np.zeros(nodes.shape, dtype=bool)
    excluded[0] = excluded[-1] = True
    excluded |= nodes > t_obs - eps
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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
                      orders: OrderSet, slots) -> ResidualField:
    env, flags = _fractional_env(L, field, orders, slots)
    ndim = field.ndim
    shape = field.values.shape
    lq, *momenta = _partial_fields(L, (("q",), *zip(slots[0])), env, shape)

    excluded = flags.copy()
    eps = []
    adjoint_orders = orders.adjoint()
    total = np.zeros(shape, dtype=np.complex128)
    for ax, grid in enumerate(field.grids):
        # per-axis vectors, shaped to broadcast along axis ax
        along = (-1,) + (1,) * (ndim - 1 - ax)
        line = grid.nodes
        e = _margin(grid.a, grid.t, grid.h)
        eps.append(e)
        cut = (line > grid.t - e) | (line < grid.a + e)
        cut[0] = cut[-1] = True
        excluded |= cut.reshape(along)

        p_fixed = _fix_flagged_line_ends(momenta[ax], flags, ax)
        adj = axis_cresson(
            GridFunctionND(field.grids, p_fixed), ax, adjoint_orders
        )
        excluded |= adj.flags
        with np.errstate(divide="ignore"):
            damping = np.where(line < grid.t,
                               (1.0 - orders.weight_order(ax)) / (grid.t - line),
                               0.0)
        total += adj.values + damping.reshape(along) * momenta[ax]

    res = np.where(excluded, 0.0 + 0.0j, lq - total)
    residual = GridFunctionND(field.grids, res)
    return _wrap_residual(residual if ndim > 1 else as_1d(residual), excluded, eps)


def el_residual_1d_cresson(L: LagrangianExpr, q: GridFunction,
                           orders: OrderSet) -> ResidualField:
    """Residual of the fractional-derivative Euler-Lagrange equation,

        dL/dq - Adj(dL/dqdot) - (1 - alpha)/(t - tau) dL/dqdot,

    with the first slot of L fed by the combined operator of the path and
    Adj the combined operator with swapped order pair and negated gamma.
    Complex-valued in general.
    """
    return _el_residual_core(L, as_nd(q), orders, SLOTS[1])


def el_residual_2d(L: LagrangianExpr, q: GridFunctionND, orders: OrderSet,
                   observer) -> ResidualField:
    """Two-axis residual (slots qx, qy, q, x, y); see the module notes for
    the sign orientation shared with the 1D variant."""
    if q.ndim != 2:
        raise UnsupportedDimensionError("el_residual_2d needs a two-axis field")
    _check_observer(q, observer)
    return _el_residual_core(L, q, orders, SLOTS[2])


def el_residual_nd(L: LagrangianExpr, q: GridFunctionND, orders: OrderSet,
                   observer) -> ResidualField:
    """N-axis residual, N <= 3; reproduces the 1D and 2D variants bit for
    bit at N = 1 and N = 2 (up to slot naming)."""
    if q.ndim > MAX_DIMENSION:
        raise UnsupportedDimensionError(
            f"dimension {q.ndim} unsupported (max {MAX_DIMENSION})"
        )
    _check_observer(q, observer)
    return _el_residual_core(L, q, orders, nd_slots(q.ndim))


# ---------------------------------------------------------------------------
# extremal solvers (1D, no fractional derivatives in the dynamics)


def _stage_failure(curvature, tau):
    """The error of a stage at ``tau`` whose derivative is not finite: a
    SingularLagrangianError where d2L/dqdot^2 is 0, else a StepFailure that
    tells whether the curvature was finite there."""
    if curvature == 0:
        return SingularLagrangianError(
            f"d2L/dqdot^2 vanished at tau = {float(tau):g}", tau=tau)
    return StepFailure(f"non-finite derivative at tau = {tau!r}"
                       if math.isfinite(curvature)
                       else f"d2L/dqdot^2 is not finite at tau = {tau:g}", tau=tau)


def _integrate_el(L, a, t, q0, v0, alpha, n):
    """RK4-integrate the rearranged Euler-Lagrange dynamics

        qddot = (dL/dq - (1-alpha)/(t-tau) dL/dqdot
                 - d2L/dqdot dq * qdot - d2L/dqdot dtau) / d2L/dqdot^2

    from q0 at a to the truncated time t - eps, one lane per slope in
    ``v0``.  Returns (grid, Q, V, failures) with node samples in rows; a
    lane's samples are NaN from its first non-finite RK4 stage on, and
    failures[i] is the SingularLagrangianError or StepFailure of lane i's
    first failed stage (None if it got through), the same whether the slope
    runs alone or in a scan.

    The field is one compiled program of the stage's (qdot, q, tau) and
    damping (1-alpha)/(t-tau) that returns the numerator and d2L/dqdot^2: the
    real-mode program of ``[value, *_ACCEL_PARTIALS]`` pruned to the five
    partials it reads, so every check of all seven trees still runs in its
    place and an error is the one ``partials`` raises.  One RK4 step
    advances the pair (q, v).  A lone slope runs it on Python floats, which
    spares numpy's per-call cost on one-element arrays; several slopes run
    it on lane arrays.  The bits are the same either way, so every lane
    matches its lone run.

    A step first runs unchecked and is screened once: it stands if the new
    (q, v) and the sum of its four curvatures are finite, since a stage with
    a non-finite derivative, or a zero curvature, makes q or v non-finite.
    A step that fails the screen or raises (EvalError, or a float division
    by a zero curvature) is replayed with the checks of each stage, always
    on lane arrays; a lone run is replayed as one lane:
    - a lane whose stage has a zero d2L/dqdot^2 or a non-finite derivative
      records that failure and rides along as NaN from that stage on, so a
      check of tau alone still fails in the rest of the step;
    - an EvalError propagates from its stage, with its node index;
    - the run ends once every lane is lost, a step after a lane was lost
      runs checked, and a lone run whose lane survives goes back to floats.
    The replay is the checked integration itself, so the failures, their
    tau and the first error do not depend on the screen, and a lone run
    fails exactly as its scan lane.
    """
    _check_path_problem(L, alpha)
    n = Grid1D(a, t, n).n  # a GridError for a bad n, before eps divides by it
    if n < 3:  # the margin 2 (t-a)/n would take the whole domain
        raise GridError(f"shooting needs n >= 3, got n={n}")
    eps = max(IVP_MARGIN_FRACTION * (t - a), 2.0 * (t - a) / n)
    grid = Grid1D(a, t - eps, n)
    h = grid.h
    half, sixth = 0.5 * h, h / 6.0
    # the stage times of each step, and their damping (1-alpha)/(t-tau)
    starts = grid.nodes.tolist()[:-1]
    mids = [tau + half for tau in starts]
    ends = [tau + h for tau in starts]
    order_gap = 1.0 - alpha
    d_starts, d_mids, d_ends = ([order_gap / (t - tau) for tau in taus]
                                for taus in (starts, mids, ends))
    v0 = np.atleast_1d(np.asarray(v0, dtype=np.float64))
    m = v0.shape[0]
    field = _program(L, _ACCEL_PARTIALS, False, _ACCEL_RETURNS, _FIELD)
    failures = [None] * m
    dead = np.zeros(m, dtype=bool)
    lost = []  # the lanes in ``dead``, in the order they failed

    def step(stage, q, v, k):
        """The RK4 step from node k; returns the new (q, v) and the sum of
        the four curvatures.  ``stage`` is the field or ``checked``, and each
        stage's q-increment is its v.  Component by component, the
        operations and their order are those of ``ode_step_rk4`` on the
        stacked state (q, v), and IEEE arithmetic gives them the same bits
        on floats as on lane arrays."""
        force, c1 = stage(v, q, starts[k], d_starts[k])
        a1 = force / c1
        v2 = v + half * a1
        force, c2 = stage(v2, q + half * v, mids[k], d_mids[k])
        a2 = force / c2
        v3 = v + half * a2
        force, c3 = stage(v3, q + half * v2, mids[k], d_mids[k])
        a3 = force / c3
        v4 = v + h * a3
        force, c4 = stage(v4, q + h * v3, ends[k], d_ends[k])
        a4 = force / c4
        return (q + sixth * (v + 2.0 * v2 + 2.0 * v3 + v4),
                v + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4), c1 + c2 + c3 + c4)

    def checked(qdot, q, tau, damping):
        """The field with the checks of one stage, on lane arrays (see
        above)."""
        if lost:
            q, qdot = np.where(dead, np.nan, q), np.where(dead, np.nan, qdot)
        force, curvature = field(qdot, q, tau, damping)
        # the force is an array, as it holds -d2L/dqdot dq * qdot, so a zero
        # curvature divides it into inf or NaN; a literal or scalar
        # curvature is a float (np.float64 is one too)
        curvatures = np.broadcast_to(curvature, (m,))
        ok = (np.isfinite(qdot) & np.isfinite(force / curvature)
              & np.isfinite(curvatures))
        for i in np.flatnonzero(~(ok | dead)):
            failures[i] = _stage_failure(float(curvatures[i]), tau)
            lost.append(i)
        dead[lost] = True
        return force, curvature

    # the screen: a sum is finite only if each of its terms is, and a sum
    # of finite terms that overflows costs a replay, not a result
    if m == 1:
        q, v, finite = float(q0), float(v0[0]), math.isfinite
    else:
        q, v, finite = np.full(m, float(q0)), v0, lambda x: math.isfinite(x.sum())
    rows = [(q, v)]  # (q, v) at each node reached, lost lanes as NaN
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(grid.n):
            if not lost:
                try:
                    q_next, v_next, curvature = step(field, q, v, k)
                    passed = finite(q_next + v_next + curvature)
                except (EvalError, ArithmeticError):
                    passed = False
            if lost or not passed:
                q_next, v_next, _ = step(checked, np.atleast_1d(q),
                                         np.atleast_1d(v), k)
                if m == 1 and not lost:  # the lone lane survived: back to floats
                    q_next, v_next = float(q_next[0]), float(v_next[0])
            q, v = q_next, v_next
            if lost:
                if len(lost) == m:
                    break
                q, v = np.where(dead, np.nan, q), np.where(dead, np.nan, v)
            rows.append((q, v))
    qs, vs = np.full((2, grid.n + 1, m), np.nan)
    qs[:len(rows)], vs[:len(rows)] = np.reshape(rows, (-1, 2, m)).transpose(1, 0, 2)
    return grid, qs, vs, failures


def solve_el_ivp(L: LagrangianExpr, a: float, t: float, q0: float, v0: float,
                 alpha: float, n: int):
    """Integrate the extremal dynamics from (q0, v0) at tau = a.

    Stops at the truncated time t - eps, eps = max(0.02 (t-a), 2 (t-a)/n),
    so n must be at least 3; returns (q, qdot) sampled on the truncated
    grid.
    """
    grid, qs, vs, failures = _integrate_el(L, a, t, q0, v0, alpha, n)
    if failures[0] is not None:
        raise failures[0]
    return GridFunction(grid, qs[:, 0]), GridFunction(grid, vs[:, 0])


def solve_el_bvp(L: LagrangianExpr, bd: BoundaryData1D, alpha: float, n: int,
                 qb_at_margin: float = None) -> BvpResult:
    """Shooting solve of the two-point boundary problem q(a) = qa, q(t) = qb.

    The endpoint is matched at the truncated time t - eps.  With the default
    target (the raw qb) the match carries a documented
    O(eps^min(1, 2-alpha)) endpoint defect; pass ``qb_at_margin`` (the value
    of the sought path at t - eps) to match without it.

    One batched integration scans 32 slopes across
    [-10, 10] * (qb - qa)/(t - a); when qb == qa the scan scale falls back
    to 1/(t - a).  A slope whose trajectory blows up or meets a vanishing
    d2L/dqdot^2 drops out and bounds no bracket.

    The scan runs in up to two passes, on m = min(n, BVP_COARSE_NODES)
    intervals and then on n.  eps = max(0.02 (t-a), 2 (t-a)/n) is
    0.02 (t-a) from BVP_COARSE_NODES on, so a coarse pass matches at the
    same time t - eps as a pass at n.  A pass accepts its first bracket if
    the two ends, integrated alone at n, bracket there too, and the root
    search starts from them.  These are the slopes and gaps a pass at n
    gives whenever its first bracket is the same one, and a lone run has
    the bits of its scan lane, so the result is that pass's.  A coarse pass
    that finds no such bracket, or raises EvalError,
    SingularLagrangianError or StepFailure, hands over to the pass at n,
    whose errors propagate; a problem with no bracket therefore pays for
    both passes.  At n <= BVP_COARSE_NODES the one pass runs at n.  If the
    pass at n finds no bracket, lone runs at n bisect each interval between
    a finite lane and a lost neighbour (``_bracket_at_lost_lane``), and the
    first sign change they meet is the bracket; if there is none, the pass
    raises the first vanished curvature it met, else the StepFailure of the
    lowest failed slope, else a BracketingError.

    Only runs at n are kept.  The root search reuses them and integrates
    only the slopes it adds; it stops at an endpoint gap of BVP_ROOT_TOL
    times the boundary data's scale, max(|qa|, |qb|, |target|), or times 1
    when all three are zero.  A non-finite ``qb_at_margin`` raises
    DomainError, and an n that is not an integer >= 3 GridError.
    """
    target = float(bd.qb if qb_at_margin is None else qb_at_margin)
    if not math.isfinite(target):
        raise DomainError(f"the margin target must be finite, got {target!r}")
    n = Grid1D(bd.a, bd.t, n).n  # a GridError for a bad n, before min() reads it
    tol = BVP_ROOT_TOL * (max(abs(bd.qa), abs(bd.qb), abs(target)) or 1.0)
    scale = (bd.qb - bd.qa) / (bd.t - bd.a)
    if scale == 0.0:
        scale = 1.0 / (bd.t - bd.a)
    with np.errstate(over="ignore", invalid="ignore"):  # a span past 1e308
        slopes = np.linspace(-BVP_SCAN_SPAN * scale, BVP_SCAN_SPAN * scale,
                             BVP_SCAN_SLOPES)

    runs = {}  # v0 -> (grid, q, qdot, failure) at n; no slope runs twice

    def integrate(v0s, m):
        grid, qs, vs, failures = _integrate_el(L, bd.a, bd.t, bd.qa, v0s, alpha, m)
        if m == n:
            for i, v0 in enumerate(np.atleast_1d(v0s)):
                runs[float(v0)] = grid, qs[:, i], vs[:, i], failures[i]
        return qs[-1] - target, failures

    def endpoint_gap(v0):
        if v0 not in runs:
            integrate(v0, n)
        _, q, _, failure = runs[v0]
        if failure is not None:
            raise failure
        return float(q[-1]) - target

    def lone_gap(v0):
        """The gap of a lone run at n, NaN where the run fails."""
        try:
            return endpoint_gap(v0)
        except (EvalError, SingularLagrangianError, StepFailure):
            return math.nan

    for m in dict.fromkeys((min(n, BVP_COARSE_NODES), n)):
        try:
            gaps, failures = integrate(slopes, m)  # NaN where a slope failed
            i = _first_bracket(gaps)
            # a bracket holds if its two ends, run alone at n, bracket
            if i is not None and _first_bracket(
                    [endpoint_gap(float(v0)) for v0 in slopes[i:i + 2]]) == 0:
                bracket = slopes[i], slopes[i + 1]
                break
        except (EvalError, SingularLagrangianError, StepFailure):
            if m == n:
                raise
    else:
        bracket = _bracket_at_lost_lane(slopes, gaps, lone_gap)
        if bracket is None:
            raise _scan_failure(failures) or BracketingError(
                f"no sign change across {BVP_SCAN_SLOPES} shooting slopes in "
                f"[{slopes[0]:g}, {slopes[-1]:g}]; the boundary problem "
                "appears to have no solution in the scanned family"
            )
    v0 = find_root(endpoint_gap, *bracket, tol=tol)
    grid, q, qdot, _ = runs[v0]  # find_root returns a point it evaluated
    return BvpResult(q=GridFunction(grid, q), qdot=GridFunction(grid, qdot),
                     v0=float(v0), matched_time=grid.t, target=target)


def _first_bracket(gaps):
    """Index i of the first pair of finite gaps i, i+1 whose signs do not
    strictly agree, or None."""
    for i in range(len(gaps) - 1):
        pair = gaps[i:i + 2]
        if np.isfinite(pair).all() and (pair[0] <= 0.0 <= pair[1]
                                         or pair[1] <= 0.0 <= pair[0]):
            return i
    return None


def _bracket_at_lost_lane(slopes, gaps, lone_gap):
    """A bracket (finite end, midpoint) found next to a lost scan lane, or
    None.

    Each pair of neighbouring lanes, one finite and one lost, is bisected in
    scan order with BVP_EDGE_STEPS lone runs (``lone_gap``, NaN for a lost
    run): a lost midpoint moves the lost end, a finite midpoint whose gap
    has the finite end's strict sign moves the finite end, and any other
    midpoint closes the bracket.
    """
    for i in range(len(gaps) - 1):
        finite = np.isfinite(gaps[i:i + 2])
        if finite[0] == finite[1]:
            continue
        good, lost = (i, i + 1) if finite[0] else (i + 1, i)
        v, gap, beyond = float(slopes[good]), float(gaps[good]), float(slopes[lost])
        for _ in range(BVP_EDGE_STEPS):
            mid = 0.5 * (v + beyond)
            mid_gap = lone_gap(mid)
            if not math.isfinite(mid_gap):
                beyond = mid
            elif gap < 0.0 and mid_gap < 0.0 or gap > 0.0 and mid_gap > 0.0:
                v, gap = mid, mid_gap
            else:
                return v, mid
    return None


def _scan_failure(failures):
    """The error a scan with no bracket raises, or None if no lane failed:
    the vanished curvature met first, since a degenerate Lagrangian is the
    likelier cause, else the first lane's StepFailure."""
    singular = [f for f in failures if isinstance(f, SingularLagrangianError)]
    if singular:
        return min(singular, key=lambda f: f.tau)
    return next((f for f in failures if f is not None), None)


# ---------------------------------------------------------------------------
# direct discrete minimization (independent oracle for the solver route)


def direct_minimize(L: LagrangianExpr, bd: BoundaryData1D, alpha: float,
                    n: int, max_iter: int = MINIMIZE_MAX_ITER,
                    start=None) -> MinimizeResult:
    """Minimize the discrete weighted action over interior node values.

    The objective is the product-rule quadrature of the weighted action
    with the Lagrangian sampled per cell: exact singular-weight cell
    masses, cell-slope velocities and midpoint positions/times.  (Sampling
    at the nodes with central-difference velocities leaves the odd/even
    sublattices decoupled near the singular weight and shifts the
    minimizer by O(h); the cell sampling is free of that.)  The gradient
    is assembled exactly from the expression partials and the adjoint of
    the quadrature.  The objective couples neighbouring nodes only, so its
    Hessian is tridiagonal; it is assembled exactly from the second partials
    and the minimization is damped Newton (Nocedal & Wright, Numerical
    Optimization, ch. 3 and 6): a tridiagonal solve, with the diagonal
    shifted until every pivot is positive where the Hessian is not positive
    definite, and Armijo backtracking from the full step.  Endpoints stay
    fixed at (qa, qb).  Termination: gradient sup-norm below
    MINIMIZE_GRAD_TOL, or ``max_iter`` iterations, in which case the result
    is flagged non-converged; so is a run whose line search or tridiagonal
    solve fails.  The objective and the line search's slope are numpy sums
    (``_weighted_sum``), so the result does not depend on the BLAS thread
    count.
    """
    _check_path_problem(L, alpha)
    grid = Grid1D(bd.a, bd.t, n)
    norm = gamma(alpha)  # a DomainError for a subnormal alpha, before cell_w
    nodes = grid.nodes
    h = grid.h
    u = grid.t - nodes
    cell_w = (u[:-1] ** alpha - u[1:] ** alpha) / alpha
    mids = 0.5 * (nodes[:-1] + nodes[1:])

    def cell_env(qv):
        return {"qdot": np.diff(qv) / h,
                "q": 0.5 * (qv[:-1] + qv[1:]),
                "tau": mids}

    def objective(qv):
        g = _eval_field(L, cell_env(qv), mids.shape)
        return float(_weighted_sum(cell_w, g)) / norm

    def grad(qv):
        env = cell_env(qv)
        lq, lqd = _partial_fields(L, (("q",), ("qdot",)), env, mids.shape)
        out = np.zeros_like(qv)
        out[:-1] += cell_w * (0.5 * lq - lqd / h)
        out[1:] += cell_w * (0.5 * lq + lqd / h)
        return out / norm

    def hessian(qv):
        """Diagonal and off-diagonal of the Hessian in the interior nodes.
        Cell c couples nodes c and c+1 through dqdot = (-1/h, 1/h) and
        dq = (1/2, 1/2)."""
        _, l_qdqd, _, l_qdq, l_qq = _partial_fields(L, _HESSIAN_PARTIALS,
                                                    cell_env(qv), mids.shape)
        vv = cell_w * l_qdqd / (h * h)
        vq = cell_w * l_qdq / h
        qq = cell_w * l_qq / 4.0
        diag = np.zeros_like(qv)
        diag[:-1] += vv - vq + qq
        diag[1:] += vv + vq + qq
        off = qq - vv
        return diag[1:-1] / norm, off[1:-1] / norm

    if start is None:
        qv = bd.qa + (bd.qb - bd.qa) * (nodes - bd.a) / (bd.t - bd.a)
    else:
        qv = np.array(start, dtype=np.float64)
        if qv.shape != nodes.shape:
            raise GridError("start path does not match the grid")
        qv[0], qv[-1] = bd.qa, bd.qb

    # an overflowing trial step is rejected by the line search, not reported
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s_val = objective(qv)
        gf = grad(qv)[1:-1]
        iterations = 0
        converged = float(np.max(np.abs(gf))) < MINIMIZE_GRAD_TOL
        while not converged and iterations < max_iter:
            iterations += 1
            d = _solve_tridiagonal(*hessian(qv), -gf)
            if d is None:
                break
            g0d = float(_weighted_sum(gf, d))
            # Armijo backtracking from the Newton step
            step = 1.0
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
            gf = grad(qv)[1:-1]
            converged = float(np.max(np.abs(gf))) < MINIMIZE_GRAD_TOL
    return MinimizeResult(
        q=GridFunction(grid, qv),
        converged=bool(converged),
        iterations=iterations,
        grad_norm=float(np.max(np.abs(gf))),
        action_value=s_val,
    )


def _solve_tridiagonal(diag, off, rhs):
    """Solve (T + s I) x = rhs for the symmetric tridiagonal T with the
    given diagonal and off-diagonal, by LDL^T (Thomas) elimination.

    s is 0 when every pivot of T is positive.  Otherwise it grows through
    1e-3, 1e-2, ... 10 times the largest entry of T, until every pivot is
    positive (Nocedal & Wright, section 3.4); at 10 times, T + s I is
    diagonally dominant.  Returns None if no shift works, which happens
    only for non-finite or all-zero entries.
    """
    scale = float(np.max(np.abs(np.concatenate([diag, off]))))
    if not 0.0 < scale < math.inf:
        return None
    d, e, b = diag.tolist(), off.tolist(), rhs.tolist()
    for factor in (0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0):
        factors = _ldl_tridiagonal(d, e, factor * scale)
        if factors is not None:
            break
    else:
        return None
    pivots, mults = factors
    y = [b[0]]
    for bi, li in zip(b[1:], mults):
        y.append(bi - li * y[-1])
    x = [y[-1] / pivots[-1]]
    for yi, pi, li in zip(y[-2::-1], pivots[-2::-1], mults[::-1]):
        x.append(yi / pi - li * x[-1])
    return np.array(x[::-1])


def _ldl_tridiagonal(d, e, shift):
    """Pivots and multipliers of T + shift I = L D L^T, or None as soon as
    a pivot is not positive."""
    pivots = []
    mults = []
    p = d[0] + shift
    for di, ei in zip(d[1:], e):
        if not p > 0.0:
            return None
        pivots.append(p)
        li = ei / p
        mults.append(li)
        p = di + shift - li * ei
    if not p > 0.0:
        return None
    pivots.append(p)
    return pivots, mults
