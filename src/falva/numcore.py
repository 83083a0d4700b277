"""Shared numerical kernel.

Uniform grids and the sampled fields on them, the Euler gamma function, a
product-integration rule that absorbs the power-law observer weight
(t - tau)^(alpha-1) exactly against piecewise-linear interpolants, a
classical RK4 step, bracketed scalar root finding, and empirical
convergence-order fits.

A sampled field is a ``GridFunctionND``, one Grid1D per axis; a
``GridFunction`` is the one-axis GridFunctionND of a path, so every
operation on N-dimensional fields takes a path as it is.  The samples of
either are checked in one place, when it is built.  ``GridFunctionND`` is
listed among ``falva.fracops``'s public names, next to its operators.

All operations are pure functions of their inputs; values are treated as
immutable after construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    BracketingError,
    DomainError,
    GridError,
    StepFailure,
)

__all__ = [
    "Grid1D",
    "GridFunction",
    "gamma",
    "product_weights",
    "weighted_integral",
    "ode_step_rk4",
    "find_root",
    "observed_order",
]


def gamma(x: float) -> float:
    """Euler gamma function for real, non-pole arguments (``math.gamma``).

    Raises DomainError at the poles 0, -1, -2, ..., for non-finite x and
    where the value overflows a float (0 < |x| < 5.6e-309, x > 171.6).
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"gamma: non-finite argument {x!r}")
    try:
        return math.gamma(x)
    except ValueError:
        raise DomainError(f"gamma: pole at x = {x:g}") from None
    except OverflowError:
        raise DomainError(f"gamma: overflow at x = {x:g}") from None


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid with nodes tau_j = a + j (t - a) / n, j = 0..n.

    ``t`` doubles as the observer time of the functionals built on the grid.
    Only uniform grids exist: there is no constructor for anything else.
    ``nodes`` is built on first access and kept: every access returns the
    same read-only array, so writing into it raises a ValueError.
    """

    a: float
    t: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.t)):
            raise GridError("grid endpoints must be finite")
        if not self.t > self.a:
            raise GridError(f"grid needs t > a, got a={self.a!r}, t={self.t!r}")
        if not math.isfinite(self.t - self.a):
            raise GridError(f"grid width t - a overflows, got a={self.a!r}, "
                            f"t={self.t!r}")
        try:
            whole = int(self.n) == self.n
        except (TypeError, ValueError, OverflowError):  # None, NaN, inf
            whole = False
        if not whole or self.n < 2:
            raise GridError(f"grid needs an integer n >= 2, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def h(self) -> float:
        return (self.t - self.a) / self.n

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.linspace(self.a, self.t, self.n + 1)
        nodes.flags.writeable = False
        return nodes


def _observer_time(value) -> float:
    """``value`` as an observer time: a float, or a DomainError that names
    the observer if it is not finite."""
    t = float(value)
    if not math.isfinite(t):
        raise DomainError(f"observer time must be finite, got {t!r}")
    return t


def _checked_samples(values, flags, shape: tuple):
    """Checked (values, flags) of samples on a grid of ``shape``: values as
    float64 or complex128, flags as a bool mask (None: no node flagged)."""
    v = np.asarray(values)
    if v.shape != shape:
        raise GridError(f"values shape {v.shape} does not match grid shape {shape}")
    v = np.ascontiguousarray(
        v, dtype=np.complex128 if np.iscomplexobj(v) else np.float64)
    if flags is None:
        f = np.zeros(shape, dtype=bool)
    else:
        f = np.asarray(flags, dtype=bool)
        if f.shape != shape:
            raise GridError("flags shape does not match values")
    bad = ~np.isfinite(v) & ~f
    if bad.any():
        raise GridError(
            f"non-finite value at unflagged node {int(np.argmax(bad.ravel()))}"
        )
    return v, f


@dataclass(frozen=True, eq=False)
class GridFunctionND:
    """Samples of a field on a rectangular (tensor-product) grid, real- or
    complex-valued.

    ``values`` has shape (n_1+1, ..., n_N+1) in row-major storage, one axis
    per Grid1D of ``grids``.  ``flags`` is a same-shaped boolean mask of
    nodes where an operation documented an endpoint singularity; the stored
    value there is a finite placeholder (the divergent boundary
    contribution is omitted), and downstream consumers must exclude flagged
    nodes.  The samples are checked once, when the object is built.
    Equality and hashing are by identity; compare the samples of two
    fields with ``np.array_equal``.

    A float64 or complex128 C-order ``values`` array is kept as it is, not
    copied.  Samples given as a read-only array that owns its memory are
    relied on not to change: ``fracops`` keeps the slope spectrum of such a
    one-axis real field for as long as the field lives.  Re-enabling writes
    on that array (``flags.writeable = True``), or writing through a view
    made before it became read-only, is unsupported.  A writeable array
    may be changed between calls; nothing derived from it is kept.
    """

    grids: tuple
    values: np.ndarray
    flags: np.ndarray = None

    def __post_init__(self):
        grids = tuple(self.grids)
        if not grids:
            raise GridError("need at least one axis")
        for g in grids:
            if not isinstance(g, Grid1D):
                raise GridError("grids must be Grid1D instances")
        object.__setattr__(self, "grids", grids)
        shape = tuple(g.n + 1 for g in grids)
        v, f = _checked_samples(self.values, self.flags, shape)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "flags", f)

    @property
    def ndim(self) -> int:
        return len(self.grids)

    def node_meshes(self):
        return np.meshgrid(*[g.nodes for g in self.grids], indexing="ij")


class GridFunction(GridFunctionND):
    """Samples of a path on a Grid1D: the one-axis GridFunctionND, built
    from its one grid, which ``grid`` returns."""

    def __init__(self, grid: Grid1D, values, flags=None):
        super().__init__((grid,), values, flags)

    @property
    def grid(self) -> Grid1D:
        return self.grids[0]


def _one_axis(f: GridFunctionND, caller: str) -> None:
    """A GridError unless the field ``f`` has one axis: ``caller`` takes a
    path."""
    if f.ndim != 1:
        raise GridError(f"{caller} needs a one-axis field")


def _weights_from_nodes(nodes: np.ndarray, alpha: float, anchor: float) -> np.ndarray:
    """Node weights w_j with sum_j w_j f_j = int f_lin(tau) (anchor - tau)^(alpha-1) dtau.

    ``f_lin`` is the piecewise-linear interpolant through (nodes, f); the
    per-interval moments of the weight are evaluated in closed form, so the
    rule is exact (up to rounding) for affine f even when the weight is
    singular at the anchor.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"weight order must lie in (0,1), got {alpha!r}")
    u = anchor - nodes  # decreasing, >= 0
    if u[-1] < 0.0:
        raise DomainError("weight anchor lies below the integration range")
    u = np.maximum(u, 0.0)
    hseg = np.diff(nodes)
    ua = u**alpha
    m0 = (ua[:-1] - ua[1:]) / alpha
    m1 = (u[:-1] ** (alpha + 1.0) - (u[:-1] + alpha * hseg) * ua[1:]) / (
        alpha * (alpha + 1.0)
    )
    w = np.zeros(nodes.shape[0])
    # cells that round to zero width (a subnormal domain) give NaN weights,
    # which the caller's finiteness check reports
    with np.errstate(invalid="ignore", divide="ignore"):
        w[:-1] += m0 - m1 / hseg
        w[1:] += m1 / hseg
    return w


def _weighted_sum(w: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_j w[j] values[j, ...]: the weights contracted with the first axis.

    numpy's own reduction adds the terms in an order fixed by the shapes;
    a BLAS dot would split it by the thread count, so the last digits of
    an action would depend on the host's BLAS threads.
    """
    return np.sum(w.reshape(w.shape + (1,) * (values.ndim - 1)) * values, axis=0)


def product_weights(grid: Grid1D, alpha: float, observer: float = None) -> np.ndarray:
    """Quadrature weights for the singular-weight integral on ``grid``.

    ``observer`` defaults to the grid's upper limit; it may exceed it, which
    is used when quadrature is restricted away from a flagged endpoint while
    the weight stays anchored at the original observer time.  A non-finite
    observer is a DomainError.
    """
    anchor = grid.t if observer is None else _observer_time(observer)
    return _weights_from_nodes(grid.nodes, float(alpha), anchor)


def weighted_integral(f: GridFunction, alpha: float, observer: float = None) -> complex:
    """int_a^t f(tau) (t - tau)^(alpha-1) dtau by product integration.

    The 1/gamma(alpha) normalisation of the action functionals is *not*
    applied here.  ``f`` must have no flagged nodes.
    """
    _one_axis(f, "weighted_integral")
    if f.flags.any():
        raise GridError("weighted_integral needs f defined on its full grid "
                        "(flagged singular nodes present)")
    w = product_weights(f.grids[0], alpha, observer)
    return complex(_weighted_sum(w, f.values))


def central_diff(values: np.ndarray, h: float) -> np.ndarray:
    """Central differences, second-order one-sided at the two ends.

    A difference that overflows (a subnormal h) is returned as inf or NaN
    without a warning; the caller's non-finite check reports it.
    """
    v = np.asarray(values)
    d = np.empty_like(v)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return d


def ode_step_rk4(state, field, tau: float, h: float) -> np.ndarray:
    """One classical 4-stage Runge-Kutta step of size ``h`` from ``tau``.

    ``field(state, tau)`` returns the state derivative; a non-finite stage
    raises StepFailure with the offending tau.
    """
    y = np.asarray(state, dtype=np.float64)

    def eval_field(yy, tt):
        d = np.asarray(field(yy, tt), dtype=np.float64)
        if not np.isfinite(d).all():
            raise StepFailure(f"non-finite derivative at tau = {float(tt)!r}",
                              tau=float(tt))
        return d

    k1 = eval_field(y, tau)
    k2 = eval_field(y + 0.5 * h * k1, tau + 0.5 * h)
    k3 = eval_field(y + 0.5 * h * k2, tau + 0.5 * h)
    k4 = eval_field(y + h * k3, tau + h)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def find_root(g, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Bracketed bisection/secant hybrid.

    Requires g(lo) and g(hi) not to be NaN and not to share a strict sign
    (their signs are compared, never their product, which can overflow or
    underflow; an infinite end still brackets);
    returns x with |g(x)| <= tol or with the final bracket width <= tol.
    A secant candidate that is not strictly inside the bracket is formed
    again with the quotient taken first, which survives gaps and widths
    whose product overflows or underflows; if it is still outside, the
    step bisects.
    """
    a, b = float(lo), float(hi)
    fa, fb = float(g(a)), float(g(b))
    if math.isnan(fa) or math.isnan(fb):
        raise BracketingError(
            f"g is NaN at an end of [{a:g}, {b:g}]: g(lo)={fa:g}, g(hi)={fb:g}"
        )
    if abs(fa) <= tol:
        return a
    if abs(fb) <= tol:
        return b
    if fa > 0.0 and fb > 0.0 or fa < 0.0 and fb < 0.0:
        raise BracketingError(
            f"no sign change on [{a:g}, {b:g}]: g(lo)={fa:g}, g(hi)={fb:g}"
        )
    use_secant = True
    for _ in range(max_iter):
        if abs(b - a) <= tol:
            break
        x = None
        if use_secant and fb != fa:
            x = b - fb * (b - a) / (fb - fa)
            if not min(a, b) < x < max(a, b):
                x = b - fb / (fb - fa) * (b - a)
                if not min(a, b) < x < max(a, b):
                    x = None
        if x is None:
            x = 0.5 * (a + b)
        use_secant = not use_secant  # alternate to guarantee shrinkage
        fx = float(g(x))
        if abs(fx) <= tol:
            return x
        if fa <= 0.0 <= fx or fx <= 0.0 <= fa:
            b, fb = x, fx
        else:
            a, fa = x, fx
    return a if abs(fa) <= abs(fb) else b


def observed_order(errors) -> float:
    """Least-squares slope of log(err) against log(h).

    ``errors`` is a sequence of (h, err) pairs with h finite, positive and
    strictly decreasing and err finite and positive.
    """
    pts = [(float(h), float(e)) for h, e in errors]
    if len(pts) < 2:
        raise ArgumentError("observed_order needs at least 2 (h, err) points")
    hs = np.array([p[0] for p in pts])
    es = np.array([p[1] for p in pts])
    if not np.all((hs > 0.0) & np.isfinite(hs)) or not np.all(np.diff(hs) < 0.0):
        raise ArgumentError("step sizes must be finite, positive and strictly "
                            "decreasing")
    if not np.all((es > 0.0) & np.isfinite(es)):
        raise ArgumentError("errors must be finite and positive")
    slope, _ = np.polyfit(np.log(hs), np.log(es), 1)
    return float(slope)
