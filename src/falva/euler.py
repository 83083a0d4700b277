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
the shooting root runs at n, its slopes one at a time, outward from the
straight-line slope, up to the first bracket, which is the one nearest
that slope; a root next to a lost slope is bracketed by runs between the
two.  ``solve_el_bvp`` tells how.

Shooting integrator.  Every shooting run, of one slope, goes through
``_integrate_el``.  Its field is one compiled float program per
Lagrangian, a function of an RK4 stage's (qdot, q, tau) and damping on
Python floats that returns the force and d2L/dqdot^2, with the bits of
the array program.  The run is a loop generated per Lagrangian
(``_rk4_loop``): the whole RK4 integration, with the field inlined in
each of the four stages.  A step runs unchecked and is screened once, on
its new (q, v) and its four curvatures; a step that fails the screen or
raises is replayed by a step generated from the same RK4 text, whose
stages call the same program with their checks.  So a failure's tau and
the first error are those of a run checked at every stage, and every
EvalError names the node its step starts from and the stage's tau.
"""

from __future__ import annotations

import functools
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
    _finite_samples,
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
from .fracops import GridFunctionND, OrderSet, axis_cresson
# ode_step_rk4 is not called here; perfbench/spans.py wraps it at this name
from .numcore import (
    Grid1D,
    GridFunction,
    _observer_time,
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
BVP_SCAN_SPAN = 10.0
BVP_ROOT_TOL = 1e-10
# runs that bisect the interval between a finite scan slope and a lost
# neighbour, down to 2^-30 of the slope spacing
BVP_EDGE_STEPS = 30
# the scan slopes in order of their distance from the scan scale: slope k
# is x_k * scale, x = linspace(-SPAN, SPAN, SLOPES), which lies
# |x_k - 1| * |scale| from it for either sign of the scale (17, 18, 16, 19,
# 15, ... for 32 slopes).  A Python sort, as numpy's first argsort adds
# 0.4 MB to a process's RSS
_SCAN_ORDER = tuple(sorted(range(BVP_SCAN_SLOPES), key=lambda k: abs(
    BVP_SCAN_SPAN * (2.0 * k / (BVP_SCAN_SLOPES - 1) - 1.0) - 1.0)))
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


@dataclass(frozen=True, eq=False)
class ResidualField:
    """Per-node Euler-Lagrange residual with its exclusion bookkeeping.

    ``excluded`` marks nodes that are not part of the residual statement
    (grid boundary, the epsilon margin below each observer time, flagged
    singular nodes); the residual value is zero there.  ``epsilon_margin``
    holds the excluded interval length per axis; ``sup_norm`` is the max
    modulus over non-excluded nodes.  Equality and hashing are by
    identity, as for the fields.
    """

    residual: object  # GridFunctionND, a GridFunction in 1D
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

    The observer time and every tau sample must be finite, and every tau
    node must lie strictly below the observer.
    """
    _check_slots(L, _PATH_SLOTS)
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0,1], got {alpha!r}")
    t_observer = _observer_time(t_observer)
    qd, _ = _qdot_samples(q, qdot, "rayleigh")
    nodes = q.grid.nodes if tau is None else np.asarray(tau, dtype=np.float64)
    if nodes.shape != q.values.shape:
        raise GridError("tau samples do not match the grid")
    _finite_samples(nodes, "tau sample array")
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
    itself was truncated); it must be finite.
    """
    _check_path_problem(L, alpha)
    if np.iscomplexobj(q.values):
        raise DomainError("el_residual_1d expects a real-valued path")
    qd, _ = _qdot_samples(q, qdot, "el_residual_1d")
    t_obs = q.grid.t if observer is None else _observer_time(observer)
    if t_obs < q.grid.t:
        raise DomainError("observer lies below the path's upper grid limit")
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
    singular placeholder.  The ends are patched on one C-order copy of
    ``p``; with no end flagged, ``p`` itself is returned."""
    fmoved = np.moveaxis(flags, axis, -1)
    start = fmoved[..., 0]
    end = fmoved[..., -1]
    if not (start.any() or end.any()):
        return p
    fixed = p.copy()
    moved = np.moveaxis(fixed, axis, -1)
    if start.any():
        moved[..., 0] = np.where(start, 2.0 * moved[..., 1] - moved[..., 2],
                                 moved[..., 0])
    if end.any():
        moved[..., -1] = np.where(end, 2.0 * moved[..., -2] - moved[..., -3],
                                  moved[..., -1])
    return fixed


def _el_residual_core(L: LagrangianExpr, field: GridFunctionND,
                      orders: OrderSet, slots) -> ResidualField:
    """The residual dL/dq - sum over axes of (Adj p + damping p), p the
    momentum dL/dqx_i, with its exclusions.

    Each field-sized array is released after its last use, so that the
    working set stays near seven complex fields: the forward operators
    and node meshes once the partials exist, and each axis's momentum
    once its adjoint and damping term do.  An axis's term is summed into
    its adjoint's own array before it is added to the total."""
    env, flags = _fractional_env(L, field, orders, slots)
    ndim = field.ndim
    shape = field.values.shape
    lq, *momenta = _partial_fields(L, (("q",), *zip(slots[0])), env, shape)
    del env

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

        p, momenta[ax] = momenta[ax], None
        adj = axis_cresson(
            GridFunctionND(field.grids, _fix_flagged_line_ends(p, flags, ax)),
            ax, adjoint_orders,
        )
        excluded |= adj.flags
        with np.errstate(divide="ignore"):
            damping = np.where(line < grid.t,
                               (1.0 - orders.weight_order(ax)) / (grid.t - line),
                               0.0)
        term = damping.reshape(along) * p
        del p
        # the sum goes into adj's values, complex and this call's own, so a
        # real momentum gives a complex sum too
        total += np.add(adj.values, term, out=adj.values)
        del adj, term

    res = np.where(excluded, 0.0 + 0.0j, lq - total)
    if ndim == 1:
        return _wrap_residual(GridFunction(field.grids[0], res), excluded, eps)
    return _wrap_residual(GridFunctionND(field.grids, res), excluded, eps)


def el_residual_1d_cresson(L: LagrangianExpr, q: GridFunction,
                           orders: OrderSet) -> ResidualField:
    """Residual of the fractional-derivative Euler-Lagrange equation,

        dL/dq - Adj(dL/dqdot) - (1 - alpha)/(t - tau) dL/dqdot,

    with the first slot of L fed by the combined operator of the path and
    Adj the combined operator with swapped order pair and negated gamma.
    Complex-valued in general.
    """
    return _el_residual_core(L, q, orders, SLOTS[1])


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
            f"d2L/dqdot^2 vanished at tau = {tau:g}", tau=tau)
    return StepFailure(f"non-finite derivative at tau = {tau!r}"
                       if math.isfinite(curvature)
                       else f"d2L/dqdot^2 is not finite at tau = {tau:g}", tau=tau)


# ``run`` is the unchecked RK4 loop of ``_integrate_el`` on Python floats,
# from node j on: it appends q and v of each node reached to ``rows`` and
# returns the first step that raises or fails the screen, or ``steps``.
# ``step`` is the checked replay of step j.  Both run ``_rk4_step``
_RK4_LOOP = """\
def run(rows, j, steps, h, half, sixth, starts, mids, ends, d_starts, d_mids,
        d_ends):
    qn, vn = rows[-2:]
    try:
        for j in range(j, steps):
{loop}
            if not _isfinite(q_next + v_next + (c1 + c2 + c3 + c4)):
                return j
            qn, vn = q_next, v_next
            rows += qn, vn
    except (EvalError, ArithmeticError):
        return j
    return steps

def step(checked, qn, vn, j, h, half, sixth, starts, mids, ends, d_starts,
         d_mids, d_ends):
{replay}
    return q_next, v_next
"""
# the field's (qdot, q, tau, damping) at each RK4 stage; None keeps the last
_RK4_STAGES = (("vn", "qn", "starts[j]", "d_starts[j]"),
               ("v2", "qn + half * vn", "mids[j]", "d_mids[j]"),
               ("v3", "qn + half * v2", None, None),
               ("v4", "qn + h * v3", "ends[j]", "d_ends[j]"))


def _rk4_step(stages, indent):
    """The text of one RK4 step from (qn, vn) at node j to (q_next, v_next),
    indented; ``stages`` holds the lines of each stage, which set the field's
    parameters and leave its force and curvature cN.  The operations and
    their order are those of ``ode_step_rk4`` on the stacked state (q, v)."""
    text = """\
{0}
a1 = force / c1
v2 = vn + half * a1
{1}
a2 = force / c2
v3 = vn + half * a2
{2}
a3 = force / c3
v4 = vn + h * a3
{3}
a4 = force / c4
q_next = qn + sixth * (vn + 2.0 * v2 + 2.0 * v3 + v4)
v_next = vn + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)"""
    lines = text.format(*map("\n".join, stages)).splitlines()
    return "\n".join(" " * indent + line for line in lines)


@functools.lru_cache(maxsize=128)
def _rk4_loop(field):
    """``run`` and ``step`` of ``_RK4_LOOP`` for the float program
    ``field``, built once per program.  A stage of ``run`` sets the
    parameters that the field or the force reads and runs the field's
    lines; a stage of ``step`` sets them all and calls ``checked``."""
    reads = set(field.reads) | {"qdot", "damping"}
    loop, replay = [], []
    for i, values in enumerate(_RK4_STAGES, 1):
        sets = [(name, value) for name, value in zip(_FIELD[0], values)
                if value is not None]
        loop.append([f"{name} = {value}" for name, value in sets if name in reads]
                    + field.body + [f"force, c{i} = {field.returned}"])
        replay.append([f"{name} = {value}" for name, value in sets]
                      + [f"force, c{i} = checked(j, qdot, q, tau, damping)"])
    source = _RK4_LOOP.format(loop=_rk4_step(loop, 12),
                              replay=_rk4_step(replay, 4))
    namespace = dict(field.__globals__, _isfinite=math.isfinite)
    exec(compile(source, "<falva rk4 loop>", "exec"), namespace)
    return namespace["run"], namespace["step"]


def _integrate_el(L, a, t, q0, v0, alpha, n):
    """RK4-integrate the rearranged Euler-Lagrange dynamics

        qddot = (dL/dq - (1-alpha)/(t-tau) dL/dqdot
                 - d2L/dqdot dq * qdot - d2L/dqdot dtau) / d2L/dqdot^2

    from (q0, v0) at a to the truncated time t - eps.  Returns (grid, q, v,
    failure) with the node samples: NaN from the run's first non-finite RK4
    stage on, and ``failure`` the SingularLagrangianError or StepFailure of
    that stage, None if the run got through.

    The field is one compiled float program of the stage's (qdot, q, tau)
    and damping (1-alpha)/(t-tau) that returns the numerator and
    d2L/dqdot^2: the real-mode program of ``[value, *_ACCEL_PARTIALS]``
    pruned to the five partials it reads, so every check of all seven trees
    still runs in its place and an error is the one ``partials`` raises,
    with the bits of ``partials`` on one-element arrays.  The run is a loop
    generated per field (``_rk4_loop``), with the field inlined in each of
    the four stages of an RK4 step of the pair (q, v).

    A step first runs unchecked and is screened once: it stands if the new
    (q, v) and the sum of its four curvatures are finite, since a stage with
    a non-finite derivative, or a zero curvature, makes q or v non-finite.
    The loop stops at a step that fails the screen or raises (EvalError, or
    a float division by a zero curvature), and that step is replayed from
    the same RK4 text with the checks of each stage:
    - a stage with a zero d2L/dqdot^2 or a non-finite derivative records
      that failure, and the rest of the step runs on NaN, so a check of tau
      alone still fails there, and the run ends;
    - an EvalError propagates from its stage, naming the node k the step
      starts from and the stage's tau;
    - a step that passes goes back to the loop at the next step.
    The replay is the checked integration itself, so the failure, its tau
    and the first error do not depend on the screen.
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
    starts = grid.nodes[:-1]
    stage_times = (starts, starts + half, starts + h)
    starts, mids, ends = (taus.tolist() for taus in stage_times)
    d_starts, d_mids, d_ends = (((1.0 - alpha) / (t - taus)).tolist()
                                for taus in stage_times)
    field = _program(L, _ACCEL_PARTIALS, False, _ACCEL_RETURNS, _FIELD, True)
    failure = None

    def checked(k, qdot, q, tau, damping):
        """The field with the checks of one stage of the step from node k
        (see above); NaN once the step has failed, so no division raises."""
        nonlocal failure
        if failure is not None:
            q = qdot = math.nan
        try:
            force, curvature = field(qdot, q, tau, damping)
        except EvalError as err:
            raise EvalError(f"{err} (step from node {k}, at tau = {tau!r})",
                            index=k) from None
        if failure is None and not (curvature != 0 and all(map(
                math.isfinite, (qdot, force / curvature, curvature)))):
            failure = _stage_failure(curvature, tau)
        return (force, curvature) if failure is None else (math.nan, math.nan)

    run, step = _rk4_loop(field)
    stages = (h, half, sixth, starts, mids, ends, d_starts, d_mids, d_ends)
    rows = [float(q0), float(v0)]  # q and v at each node reached, flat
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k = run(rows, 0, grid.n, *stages)
        while k < grid.n:
            q_next, v_next = step(checked, *rows[-2:], k, *stages)
            if failure is not None:
                break
            rows += q_next, v_next
            k = run(rows, k + 1, grid.n, *stages)
    q, v = np.full((2, grid.n + 1), np.nan)
    q[:len(rows) // 2], v[:len(rows) // 2] = np.reshape(rows, (-1, 2)).T
    return grid, q, v, failure


def solve_el_ivp(L: LagrangianExpr, a: float, t: float, q0: float, v0: float,
                 alpha: float, n: int):
    """Integrate the extremal dynamics from (q0, v0) at tau = a.

    Stops at the truncated time t - eps, eps = max(0.02 (t-a), 2 (t-a)/n),
    so n must be at least 3; returns (q, qdot) sampled on the truncated
    grid.  A non-finite q0 or v0 raises DomainError before any step.
    """
    if not (math.isfinite(q0) and math.isfinite(v0)):
        raise DomainError(
            f"initial data must be finite, got q0 = {float(q0)!r}, "
            f"v0 = {float(v0)!r}")
    grid, q, qdot, failure = _integrate_el(L, a, t, q0, v0, alpha, n)
    if failure is not None:
        raise failure
    return GridFunction(grid, q), GridFunction(grid, qdot)


def solve_el_bvp(L: LagrangianExpr, bd: BoundaryData1D, alpha: float, n: int,
                 qb_at_margin: float = None) -> BvpResult:
    """Shooting solve of the two-point boundary problem q(a) = qa, q(t) = qb.

    The endpoint is matched at the truncated time t - eps.  With the default
    target (the raw qb) the match carries a documented
    O(eps^min(1, 2-alpha)) endpoint defect; pass ``qb_at_margin`` (the value
    of the sought path at t - eps) to match without it.

    The scan runs up to 32 slopes across [-10, 10] * (qb - qa)/(t - a) at
    n; when qb == qa the scan scale falls back to 1/(t - a).  Each slope
    runs alone (see ``_integrate_el``), outward from the scale in order of
    its distance from it (``_SCAN_ORDER``: slope 17 first, then 18, 16, 19,
    ...), and the scan stops at the first bracket, a pair of neighbouring
    slopes whose endpoint gaps change sign.  That is the bracket nearest
    the scan scale (the straight-line slope unless qb == qa): of all the
    brackets of the 32 slopes, the one whose farther end comes first in
    that order.  With several roots, the rule picks one by where its slope
    lies, so it need not be the action's minimizer.  A slope whose
    trajectory blows up or meets a vanishing d2L/dqdot^2 drops out and
    bounds no bracket; an EvalError of a slope propagates, and the slopes
    the scan did not reach raise none.  A scan with no bracket runs all 32
    slopes; then runs bisect each interval between a finite slope and a
    lost neighbour (``_bracket_at_lost_lane``), in slope order, and the
    first sign change they meet is the bracket; if there is none, the
    solve raises the first vanished curvature it met, else the StepFailure
    of the lowest failed slope, else a BracketingError.

    The root search reuses the scan's runs and integrates only the slopes
    it adds; it stops at an endpoint gap of BVP_ROOT_TOL times the boundary
    data's scale, max(|qa|, |qb|, |target|), or times 1 when all three are
    zero.  A non-finite ``qb_at_margin`` raises DomainError, and an n that
    is not an integer >= 3 GridError.
    """
    target = float(bd.qb if qb_at_margin is None else qb_at_margin)
    if not math.isfinite(target):
        raise DomainError(f"the margin target must be finite, got {target!r}")
    tol = BVP_ROOT_TOL * (max(abs(bd.qa), abs(bd.qb), abs(target)) or 1.0)
    scale = (bd.qb - bd.qa) / (bd.t - bd.a)
    if scale == 0.0:
        scale = 1.0 / (bd.t - bd.a)
    with np.errstate(over="ignore", invalid="ignore"):  # a span past 1e308
        slopes = np.linspace(-BVP_SCAN_SPAN * scale, BVP_SCAN_SPAN * scale,
                             BVP_SCAN_SLOPES)

    runs = {}  # v0 -> (grid, q, qdot, failure); no slope runs twice

    def integrate(v0):
        """The endpoint gap and failure of slope v0."""
        out = runs.get(v0)
        if out is None:
            out = runs[v0] = _integrate_el(L, bd.a, bd.t, bd.qa, v0, alpha, n)
        return float(out[1][-1]) - target, out[3]

    def endpoint_gap(v0):
        gap, failure = integrate(v0)
        if failure is not None:
            raise failure
        return gap

    def lone_gap(v0):
        """The gap of a run, NaN where the run fails."""
        try:
            return endpoint_gap(v0)
        except (EvalError, SingularLagrangianError, StepFailure):
            return math.nan

    # NaN and None for a slope not run or, in gaps, one that failed
    gaps, failures = [math.nan] * len(slopes), [None] * len(slopes)

    def scan():
        """Run the slopes in _SCAN_ORDER up to the first bracket and return
        it, or None."""
        for j in _SCAN_ORDER:
            gaps[j], failures[j] = integrate(float(slopes[j]))
            # the slopes run are contiguous, so slope j closes at most one
            # bracket, with its one neighbour already run
            for i in (j - 1, j):
                if 0 <= i < len(slopes) - 1 and _is_bracket(*gaps[i:i + 2]):
                    return slopes[i], slopes[i + 1]
        return None

    bracket = scan() or _bracket_at_lost_lane(slopes, gaps, lone_gap)
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


def _is_bracket(gap, other):
    """Whether two gaps are finite and their signs do not strictly agree."""
    return (math.isfinite(gap) and math.isfinite(other)
            and (gap <= 0.0 <= other or other <= 0.0 <= gap))


def _bracket_at_lost_lane(slopes, gaps, lone_gap):
    """A bracket (finite end, midpoint) found next to a lost scan slope, or
    None.

    Each pair of neighbouring slopes, one finite and one lost, is bisected
    in slope order with BVP_EDGE_STEPS runs (``lone_gap``, NaN for a lost
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
    """The error a scan with no bracket raises, or None if no slope failed:
    the vanished curvature met first, since a degenerate Lagrangian is the
    likelier cause, else the first slope's StepFailure."""
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
    solve fails.  A ``start`` path with a non-finite interior value raises
    DomainError before the first iteration.  The objective and the line
    search's slope are numpy sums (``_weighted_sum``), so the result does
    not depend on the BLAS thread count.
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
        with np.errstate(over="ignore", invalid="ignore"):
            qv = bd.qa + (bd.qb - bd.qa) * (nodes - bd.a) / (bd.t - bd.a)
        if not np.isfinite(qv).all():
            raise DomainError(
                f"boundary data q({bd.a!r}) = {bd.qa!r}, q({bd.t!r}) = {bd.qb!r}: "
                "the straight start path between them overflows")
    else:
        qv = np.array(start, dtype=np.float64)
        if qv.shape != nodes.shape:
            raise GridError("start path does not match the grid")
        qv[0], qv[-1] = bd.qa, bd.qb
        bad = np.flatnonzero(~np.isfinite(qv))
        if bad.size:
            k = int(bad[0])
            raise DomainError(
                f"start path must be finite, got {float(qv[k])!r} at node {k}")

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

    The forward substitution L y = rhs runs in the factorization loop, which
    keeps the multipliers and y / pivot for the back substitution; a shift
    whose pivots fail discards both.  The operations and their order are
    those of factorizing first and substituting after.
    """
    scale = float(np.max(np.abs(np.concatenate([diag, off]))))
    if not 0.0 < scale < math.inf:
        return None
    d, e, b = diag.tolist(), off.tolist(), rhs.tolist()
    for factor in (0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0):
        shift = factor * scale
        quotients, mults = [], []
        p, y = d[0] + shift, b[0]
        for di, ei, bi in zip(d[1:], e, b[1:]):
            if not p > 0.0:
                break
            quotients.append(y / p)
            li = ei / p
            mults.append(li)
            p = di + shift - li * ei
            y = bi - li * y
        else:
            if p > 0.0:
                quotients.append(y / p)
                break
    else:
        return None
    x = [quotients[-1]]
    for qi, li in zip(quotients[-2::-1], mults[::-1]):
        x.append(qi - li * x[-1])
    return np.array(x[::-1])
