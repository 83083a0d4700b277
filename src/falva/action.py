"""Weighted action functionals.

``action_1d`` evaluates the plain weighted action: the Lagrangian sampled
along a real path, integrated against (t - tau)^(alpha-1) / gamma(alpha).
``action_1d_cresson`` feeds the velocity slot with the combined fractional
derivative of the path instead of a time derivative; ``action_2d`` and
``action_nd`` are the tensor-product generalisations with one weight
factor (xi_i - x_i)^(alpha_i - 1) / gamma(alpha_i) per axis.

All three fractional-derivative variants share one core, so the 1D and 2D
entry points agree with ``action_nd`` bit for bit.  Their slot names come
from one table, ``SLOTS``, and one helper binds the slots for both this
core and the Euler-Lagrange residual core.  Quadrature is the
product rule on the piecewise-(multi)linear interpolant of the integrand
samples; when an operator flags an endpoint of the grid as singular, the
quadrature range is shrunk by one cell on that side while the weight stays
anchored at the original observer time.  Complex action values are
returned as-is, with no truncation of imaginary parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EvalError,
    GridError,
    SlotMismatchError,
    UnsupportedDimensionError,
)
# partial is not called here; perfbench/spans.py wraps it at this name
from .exprdsl import LagrangianExpr, _complex_mode, _program, evaluate, partial
from .fracops import GridFunctionND, OrderSet, axis_cresson
from .numcore import (
    GridFunction,
    _observer_time,
    _one_axis,
    _weighted_sum,
    _weights_from_nodes,
    central_diff,
    gamma,
)

__all__ = [
    "ActionValue",
    "action_1d",
    "action_1d_cresson",
    "action_2d",
    "action_nd",
    "trapezoid_action",
]

MAX_DIMENSION = 3


@dataclass(frozen=True)
class ActionValue:
    """Result of a weighted action evaluation plus quadrature metadata.

    ``weight_orders`` are the per-axis weight exponents alpha_i;
    ``orders`` is the full operator OrderSet for the fractional-derivative
    variants (None for the plain 1D action, which involves no fractional
    derivative).  ``qdot_source`` records how the velocity slot was filled.
    """

    value: complex
    observer: tuple
    weight_orders: tuple
    orders: OrderSet
    n_per_axis: tuple
    singular_nodes_excluded: int
    qdot_source: str = None

    def __post_init__(self):
        v = complex(self.value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise DomainError("action value is not finite")
        object.__setattr__(self, "value", v)


def _check_slots(expr: LagrangianExpr, allowed) -> None:
    extra = set(expr.free_vars) - set(allowed)
    if extra:
        raise SlotMismatchError(
            f"Lagrangian uses {sorted(extra)}; allowed slots here are {sorted(allowed)}"
        )


def _check_path_problem(L: LagrangianExpr, alpha: float) -> None:
    """The checks every 1D path problem shares: its slots, and 0 < alpha < 1."""
    _check_slots(L, _PATH_SLOTS)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got {alpha!r}")


def _broadcast(result, shape) -> np.ndarray:
    return np.broadcast_to(np.asarray(result), shape).copy()


def _eval_field(expr, env, shape, offsets=None):
    """Vectorised evaluation; EvalErrors get the grid node attached."""
    try:
        return _broadcast(evaluate(expr, env), shape)
    except EvalError as err:
        raise _locate(err, shape, offsets) from None


def _partial_fields(expr, variable_tuples, env, shape, offsets=None):
    """The partial of ``expr`` by each of ``variable_tuples``, one program for
    all, with the bits of ``partials(...)[1:]``.  The program is pruned to
    return only the partials: the operations that only the value needs are
    left out, while each domain check of the value tree still runs in its
    place, so the first error is that of ``partials``.  A tuple with a
    variable that ``expr`` does not use gives exactly 0: its tree is a
    literal, so the program keeps its operations and errors.

    Each returned array has ``shape``, is writeable and is the caller's
    own: a program output is copied only when it is a scalar or a
    broadcast, when it may share memory with an input in ``env`` (the
    partial of ``qx*qy`` by ``qx`` is ``qy`` itself) or with a field
    already returned (``(qx + qy)^2/2`` has one array for both partials).
    The rest are returned as they are, so no field is held twice."""
    used = tuple(v for v in variable_tuples if expr.free_vars.issuperset(v))
    found = {}
    try:
        if used:
            program = _program(expr, used, _complex_mode(env),
                               tuple(range(1, len(used) + 1)))
            found = dict(zip(used, program(env)))
    except EvalError as err:
        raise _locate(err, shape, offsets) from None
    fields = []
    for v in variable_tuples:
        field = found.get(v, 0.0)
        if (np.shape(field) != shape or not field.flags.writeable
                or any(np.may_share_memory(field, other)
                       for other in (*env.values(), *fields))):
            field = _broadcast(field, shape)
        fields.append(field)
    return fields


def _locate(err: EvalError, shape, offsets) -> EvalError:
    if err.index is None:
        return err
    idx = np.unravel_index(err.index, shape)
    if offsets is not None:
        idx = tuple(int(i + o) for i, o in zip(idx, offsets))
    else:
        idx = tuple(int(i) for i in idx)
    node = idx[0] if len(idx) == 1 else idx
    return EvalError(f"{err} [grid node {node}]", index=err.index)


def _finite_samples(values: np.ndarray, what: str) -> np.ndarray:
    """``values``, a raw sample array, or a GridError that names ``what``
    and its first non-finite node."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise GridError(f"{what} holds a non-finite value at node "
                        f"{int(np.argmax(bad))}")
    return values


def _qdot_samples(q: GridFunction, qdot, caller: str):
    """Velocity samples: supplied analytically or by central differences.
    The classic 1D route ``caller`` reads every node, so a field ``q`` or
    ``qdot`` with more than one axis is a GridError, and so are a flagged
    one, which holds a placeholder there, and a raw ``qdot`` array with a
    non-finite value."""
    for name, f in (("path", q), ("qdot", qdot)):
        if isinstance(f, GridFunctionND):
            _one_axis(f, caller)
            if f.flags.any():
                raise GridError(f"{caller} expects an unflagged {name}")
    if qdot is None:
        return central_diff(q.values, q.grid.h), "finite-difference"
    if isinstance(qdot, GridFunction):
        if qdot.grid != q.grid:
            raise GridError("qdot samples live on a different grid than q")
        return qdot.values, "analytic"
    v = np.asarray(qdot, dtype=np.float64)
    if v.shape != q.values.shape:
        raise GridError("qdot sample array does not match the path grid")
    return _finite_samples(v, "qdot sample array"), "analytic"


def action_1d(L: LagrangianExpr, q: GridFunction, alpha: float,
              qdot=None) -> ActionValue:
    """Weighted action of a real path without fractional derivatives.

    The integrand is L(qdot, q, tau) sampled at the nodes, with qdot either
    supplied (analytic samples) or taken as central differences of q
    (one-sided at the ends); the result is the product-rule integral against
    (t - tau)^(alpha-1), divided by gamma(alpha).
    """
    _check_path_problem(L, alpha)
    if np.iscomplexobj(q.values):
        raise DomainError("action_1d expects a real-valued path")
    qd, source = _qdot_samples(q, qdot, "action_1d")
    nodes = q.grid.nodes
    g = _eval_field(L, {"qdot": qd, "q": q.values, "tau": nodes}, nodes.shape)
    norm = gamma(alpha)  # a DomainError for a subnormal alpha, before the weights
    w = _weights_from_nodes(nodes, alpha, q.grid.t)
    value = complex(_weighted_sum(w, g)) / norm
    return ActionValue(
        value=value,
        observer=(q.grid.t,),
        weight_orders=(float(alpha),),
        orders=None,
        n_per_axis=(q.grid.n,),
        singular_nodes_excluded=0,
        qdot_source=source,
    )


def trapezoid_action(L: LagrangianExpr, q: GridFunction, qdot=None) -> float:
    """Unweighted classical action by the trapezoidal rule (the alpha -> 1
    reference used in limit checks and sweep output)."""
    _check_slots(L, _PATH_SLOTS)
    qd, _ = _qdot_samples(q, qdot, "trapezoid_action")
    nodes = q.grid.nodes
    g = _eval_field(L, {"qdot": qd, "q": q.values, "tau": nodes}, nodes.shape)
    h = q.grid.h
    return float(h * (0.5 * g[0] + g[1:-1].sum() + 0.5 * g[-1]))


def _trim_slices(flags: np.ndarray):
    """One-cell trims at flagged endpoint planes, per axis.

    Returns (slices, n_excluded).  Flags surviving inside the trimmed block
    cannot be excluded by endpoint trimming and are an error.
    """
    ndim = flags.ndim
    slices = []
    for ax in range(ndim):
        start = [slice(None)] * ndim
        start[ax] = 0
        stop = [slice(None)] * ndim
        stop[ax] = flags.shape[ax] - 1
        lo = 1 if flags[tuple(start)].any() else 0
        hi = 1 if flags[tuple(stop)].any() else 0
        if flags.shape[ax] - lo - hi < 3:
            raise GridError("grid too small to trim its flagged endpoints away")
        slices.append(slice(lo, flags.shape[ax] - hi))
    slices = tuple(slices)
    if flags[slices].any():
        raise GridError("singular nodes found away from the grid boundary")
    return slices, int(flags.sum())


def nd_slots(ndim: int):
    """Reserved slot names for the N-dimensional functional."""
    deriv = tuple(f"qx{i + 1}" for i in range(ndim))
    coord = tuple(f"x{i + 1}" for i in range(ndim))
    return deriv, coord


# The slot names of the fractional functionals by dimension: the derivative
# slots, then the coordinate slots; the field itself is always "q".  The 1D
# and 2D entry points, the 1D path problems and the command line read them.
SLOTS = {1: (("qdot",), ("tau",)), 2: (("qx", "qy"), ("x", "y")), 3: nd_slots(3)}
_PATH_SLOTS = (*SLOTS[1][0], "q", *SLOTS[1][1])


def _fractional_env(L: LagrangianExpr, field: GridFunctionND, orders: OrderSet,
                    slots):
    """(env, flags) of a fractional functional: q, the forward combined
    operator along each axis and the node meshes bound to their slots, and
    the field's flags or-ed with every derivative's."""
    ndim = field.ndim
    if orders.ndim != ndim:
        raise DomainError(f"OrderSet has {orders.ndim} axes, field has {ndim}")
    deriv_slots, coord_slots = slots
    _check_slots(L, deriv_slots + coord_slots + ("q",))
    env = {"q": field.values}
    flags = field.flags.copy()
    for ax, name in enumerate(deriv_slots):
        d = axis_cresson(field, ax, orders)
        env[name] = d.values
        flags |= d.flags
    env.update(zip(coord_slots, field.node_meshes()))
    return env, flags


def _weighted_action_core(L: LagrangianExpr, field: GridFunctionND,
                          orders: OrderSet, slots) -> ActionValue:
    env, flags = _fractional_env(L, field, orders, slots)
    slices, excluded = _trim_slices(flags)
    env = {name: v[slices] for name, v in env.items()}
    g = _eval_field(L, env, env["q"].shape, tuple(s.start for s in slices))
    norm = 1.0
    value = g
    for ax, grid in enumerate(field.grids):
        alpha = orders.weight_order(ax)
        norm *= gamma(alpha)
        w = _weights_from_nodes(grid.nodes[slices[ax]], alpha, grid.t)
        value = _weighted_sum(w, value)
    return ActionValue(
        value=complex(value) / norm,
        observer=tuple(g_.t for g_ in field.grids),
        weight_orders=tuple(orders.weight_order(ax) for ax in range(field.ndim)),
        orders=orders,
        n_per_axis=tuple(g_.n for g_ in field.grids),
        singular_nodes_excluded=excluded,
    )


def action_1d_cresson(L: LagrangianExpr, q: GridFunction,
                      orders: OrderSet) -> ActionValue:
    """Weighted action with the velocity slot fed by the combined
    fractional derivative of the path; complex-valued in general."""
    return _weighted_action_core(L, q, orders, SLOTS[1])


def action_2d(L: LagrangianExpr, q: GridFunctionND, orders: OrderSet,
              observer) -> ActionValue:
    """Double-weighted action over a rectangle with upper corner
    ``observer``; slot qx/qy carry the per-axis fractional derivatives."""
    if q.ndim != 2:
        raise UnsupportedDimensionError("action_2d needs a two-axis field")
    _check_observer(q, observer)
    return _weighted_action_core(L, q, orders, SLOTS[2])


def action_nd(L: LagrangianExpr, q: GridFunctionND, orders: OrderSet,
              observer) -> ActionValue:
    """N-fold weighted action, N <= 3; reduces to the 1D and 2D variants."""
    if q.ndim > MAX_DIMENSION:
        raise UnsupportedDimensionError(
            f"dimension {q.ndim} unsupported (max {MAX_DIMENSION})"
        )
    _check_observer(q, observer)
    return _weighted_action_core(L, q, orders, nd_slots(q.ndim))


def _check_observer(q: GridFunctionND, observer) -> None:
    obs = tuple(_observer_time(v) for v in np.atleast_1d(observer))
    uppers = tuple(g.t for g in q.grids)
    if len(obs) != len(uppers) or any(
        abs(o - u) > 1e-12 * max(1.0, abs(u)) for o, u in zip(obs, uppers)
    ):
        raise DomainError(
            f"observer {obs} does not match the field's upper corners {uppers}"
        )
