"""Riemann-Liouville and Cresson fractional derivatives on grid functions.

The left derivative of order ``al`` in (0,1) is realised as the boundary
term f(a) (theta-a)^(-al) / gamma(1-al) plus the integral
int_a^theta f'(tau) (theta-tau)^(-al) dtau / gamma(1-al), with f' taken as
the slopes of the piecewise-linear interpolant of f.  This is exact for
affine f and avoids differentiating a singular quadrature result
numerically.  The right derivative is the mirror image: reflect, apply the
left operator, reflect back, so the left/right mirror identity holds
exactly.

The combined complex operator of order (al, be) with weight gamma_w is

    D = (1/2) (L - R) + (i gamma_w / 2) (L + R)
      = (1/2)(1 + i gamma_w) L + (1/2)(i gamma_w - 1) R

where L and R are the left/right derivatives.  gamma_w = -i collapses it
to L, gamma_w = +i to -R, and both orders -> 1 recovers d/dt.

Nodes where the boundary term diverges (a left start with f(a) != 0, a
right end with f(t) != 0) are *flagged*, and the stored value there keeps
only the finite integral part.  Flags from an operand only propagate when
its complex weight is nonzero, so the gamma_w = -i / +i collapses are exact
including their flags.

N-dimensional fields live in row-major (C-order) storage; applying the
operator along an axis is a gather of every 1D line parallel to that axis,
a batched 1D apply, and a scatter back.

The slope integral is a discrete convolution of each line's slopes with
the product-integration weights.  It is evaluated for all lines at once
by a zero-padded real FFT, O(n log n) per line.  Each line is transformed
on its own, so a line gives the same bits alone as inside any batch (the
dimensional parity of 1D, 2D and 3D results rests on this).  A line holding
a non-finite slope (inf or NaN at a flagged node) keeps the direct O(n^2)
sum, where the value only reaches later nodes; a transform would spread it
over the whole line.  Against the direct sum the FFT's rounding is
relative to the line's scale: below 1e-14 of 1 + max|D f| on smooth paths
and random data at n = 16384.  A node much smaller than the line's maximum
(an early-time value) can carry a node-wise relative error near 1e-11,
far below the scheme's O(h^(2-al)) discretisation error there.

The combined operator with both weights nonzero costs one forward
transform per line (two for a complex line, its real and imaginary parts)
and one inverse transform each for the real and imaginary parts of D.  L's
slope integral is the convolution with the left kernel's spectrum, moved
one node on by a phase factor; R's is the correlation with the right
kernel, whose spectrum is the conjugate, so no reflected copy is made.
These values agree with w_L L + w_R R of the one-sided operators to
rounding, not bit for bit (at most a few 1e-15 of the line's scale on the
command line's outputs).  The one-sided operators, the collapses at
gamma_w = -i and +i (one weight exactly zero) and lines holding a
non-finite slope keep the per-side path, since the mirror and collapse
identities are exact only there and the direct sum keeps a non-finite
value local.

The kernel of a line depends only on its cell count, its spacing h and the
order, so it is built once per (nseg, h, order) key as a kernel plan: the
slope weights, their spectrum, the transform size and the boundary factor
of the start value, as read-only arrays.  Left and right operators,
forward and adjoint sides, equally spaced axes and sweep rows with one
order share a plan.  Cache bounds: the plans of the last six keys are
kept (``_KERNEL_PLANS``, the six keys of a 3D field), up to 512 MB of
arrays in all (``_KERNEL_PLAN_BYTES``).  A plan holds 32 to 48 B per cell
(32 when nseg is a power of two): 0.5 MB at n = 16384, 32 MB at n = 2^20
and 128 MB for one line at the command line's 2^22-node cap, so the cache
retains at most 3 MB, 192 MB and 512 MB (four plans) there.  A plan holds
the bits of a fresh build, so no output depends on what ran before.  The
one-node phase factor depends only on the transform size, so it is kept
apart from the plans, for the last three sizes (``_delay``, one size per
axis of a 3D field): 16 to 32 B per cell, 0.25 MB at n = 16384 and 64 MB
for a line at the 2^22-node cap, so at most 192 MB.  The two weighted
spectra of a call are built from the plans and the factor per call and
not kept.  Neither are a call's temporaries; under the command line on
glibc they come from heap the process keeps (``cli._keep_freed_heap``)
rather than from pages mapped and faulted in again on every call.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, GridError
from .numcore import Grid1D, GridFunction, _checked_samples, gamma

__all__ = [
    "OrderSet",
    "GridFunctionND",
    "rl_left",
    "rl_right",
    "cresson",
    "axis_cresson",
    "as_nd",
    "as_1d",
    "ORDER_CONVENTION",
]

# Order-pair bookkeeping: every axis carries a (left, right) pair; the
# forward operator along axis i is D^{(left_i, right_i)} and the axis
# weight/normalisation order of the action functionals is left_i.
ORDER_CONVENTION = "pairs=(left,right) per axis; weight order = left"


def _check_order(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 < value < 1.0:
        raise DomainError(f"order {name} must lie strictly in (0,1), got {value!r}")
    return value


@dataclass(frozen=True)
class OrderSet:
    """Fractional orders per axis plus the complex Cresson weight.

    ``pairs[i] = (left_i, right_i)`` are the orders of the forward operator
    along axis i; ``gamma_w`` is the complex combination weight.  The 1D
    constructor maps (alpha, beta) to the single pair, the 2D constructor
    maps (alpha, delta) to the x axis and (beta, chi) to the y axis, and the
    ND constructor zips the left/right vectors.
    """

    pairs: tuple
    gamma_w: complex

    def __post_init__(self):
        pairs = tuple(
            (_check_order(f"left[{i}]", lo), _check_order(f"right[{i}]", hi))
            for i, (lo, hi) in enumerate(self.pairs)
        )
        if not pairs:
            raise DomainError("an OrderSet needs at least one axis")
        object.__setattr__(self, "pairs", pairs)
        g = complex(self.gamma_w)
        if not (math.isfinite(g.real) and math.isfinite(g.imag)):
            raise DomainError("gamma_w must be finite")
        object.__setattr__(self, "gamma_w", g)

    @classmethod
    def for_1d(cls, alpha: float, beta: float, gamma_w: complex) -> "OrderSet":
        return cls(((alpha, beta),), gamma_w)

    @classmethod
    def for_2d(cls, alpha: float, beta: float, delta: float, chi: float,
               gamma_w: complex) -> "OrderSet":
        return cls(((alpha, delta), (beta, chi)), gamma_w)

    @classmethod
    def for_nd(cls, alphas, deltas, gamma_w: complex) -> "OrderSet":
        if len(alphas) != len(deltas):
            raise DomainError("alpha and delta vectors must have equal length")
        return cls(tuple(zip(alphas, deltas)), gamma_w)

    @property
    def ndim(self) -> int:
        return len(self.pairs)

    def pair(self, axis: int) -> tuple:
        return self.pairs[axis]

    def weight_order(self, axis: int) -> float:
        return self.pairs[axis][0]

    def adjoint(self) -> "OrderSet":
        """Order pairs swapped and gamma negated (the operator that appears
        on the adjoint side of the Euler-Lagrange equations)."""
        return OrderSet(tuple((r, l) for l, r in self.pairs), -self.gamma_w)


@dataclass(frozen=True)
class GridFunctionND:
    """Samples of a field on a rectangular (tensor-product) grid.

    ``values`` has shape (n_1+1, ..., n_N+1) in row-major storage; ``flags``
    is a same-shaped boolean mask of singular nodes (see GridFunction).
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


def as_nd(f: GridFunction) -> GridFunctionND:
    return GridFunctionND((f.grid,), f.values, f.flags)


def as_1d(f: GridFunctionND) -> GridFunction:
    if f.ndim != 1:
        raise GridError("as_1d needs a one-axis field")
    return GridFunction(f.grids[0], f.values, f.flags)


# ---------------------------------------------------------------------------
# batched 1D kernels; ``vals`` has one line per row

# Transform entries per FFT batch: lines go through the transform at most
# _FFT_BLOCK // size at a time, which keeps the temporaries of wide fields
# small.
_FFT_BLOCK = 2**16

# Kernel plans kept by _line_kernel: at most _KERNEL_PLANS of them and
# _KERNEL_PLAN_BYTES of arrays in all (the sizes are in the module notes).
_KERNEL_PLANS = 6
_KERNEL_PLAN_BYTES = 2**29


class _PlanCacheInfo(NamedTuple):
    hits: int
    misses: int
    plans: int  # the plans kept
    used: int  # the bytes of their arrays


def _plan_bytes(plan) -> int:
    kern, spec, _, boundary = plan
    return kern.nbytes + spec.nbytes + boundary.nbytes


def _plan_cache(most: int, budget: int):
    """Decorator: keep the plans of the most recently used keys, at most
    ``most`` plans and ``budget`` bytes of arrays in all.

    The least recently used plans go first; a plan larger than the whole
    budget is returned without being kept.  Keys are compared by equality,
    as with ``functools.lru_cache``.  The wrapper has ``cache_info()``
    (hits, misses, plans, used) and ``cache_clear()``.
    """
    def decorate(build):
        kept = OrderedDict()  # key -> plan, least recently used first
        counts = {"hits": 0, "misses": 0, "used": 0}
        lock = threading.Lock()

        @functools.wraps(build)
        def wrapper(*key):
            with lock:
                plan = kept.get(key)
                if plan is not None:
                    counts["hits"] += 1
                    kept.move_to_end(key)
                    return plan
                counts["misses"] += 1
            plan = build(*key)
            with lock:
                if _plan_bytes(plan) <= budget and key not in kept:
                    kept[key] = plan
                    counts["used"] += _plan_bytes(plan)
                    while len(kept) > most or counts["used"] > budget:
                        counts["used"] -= _plan_bytes(kept.popitem(last=False)[1])
            return plan

        def cache_info() -> _PlanCacheInfo:
            with lock:
                return _PlanCacheInfo(counts["hits"], counts["misses"], len(kept),
                                      counts["used"])

        def cache_clear() -> None:
            with lock:
                kept.clear()
                counts.update(hits=0, misses=0, used=0)

        wrapper.cache_info, wrapper.cache_clear = cache_info, cache_clear
        return wrapper
    return decorate


@_plan_cache(_KERNEL_PLANS, _KERNEL_PLAN_BYTES)
def _line_kernel(nseg: int, h: float, order: float):
    """The kernel plan of a line of ``nseg`` cells of width ``h``:
    (kern, spec, size, boundary), built once per (nseg, h, order).

    ``kern`` holds the product-integration weights of the slopes, ``spec``
    their real FFT of power-of-two size ``size`` >= 2 nseg - 1 (so nothing
    wraps around), and ``boundary`` the factor (m h)^(-order) / gamma(1 -
    order) of the start value at nodes m = 1..nseg.  The arrays are
    read-only, since every caller with the same key shares them; their
    sizes and the cache's bounds are in the module notes.  The build runs
    with floating-point warnings off: at a subnormal h the boundary factor
    overflows or divides by zero (the caller's non-finite check reports
    that), and a warning here would show only on a cache miss.
    """
    g1 = gamma(1.0 - order)
    mh = h * np.arange(nseg + 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pw = mh ** (1.0 - order)
        kern = (pw[1:] - pw[:-1]) / ((1.0 - order) * g1)
        boundary = mh[1:] ** (-order) / g1
    size = 1 << (2 * nseg - 2).bit_length()
    spec = np.fft.rfft(kern, size)
    for arr in (kern, spec, boundary):
        arr.flags.writeable = False
    return kern, spec, size, boundary


def _rl_left_lines(vals: np.ndarray, h: float, order: float):
    """Left derivative along the last axis of a (lines, nodes) array.

    Returns (out, start_flags): ``out`` holds the boundary term plus the
    product-integrated slope convolution; row starts with a nonzero first
    value are flagged and keep only the integral part (zero) there.

    The kernel, its spectrum and the boundary factor come from the kernel
    plan ``_line_kernel(nseg, h, order)``, so left and right operators,
    forward and adjoint sides, equally spaced axes and sweep rows share
    one build (its sizes and bounds are in the module notes).  The
    convolution runs as a real FFT of the plan's size, and only its first
    nseg terms are kept.  Each row is transformed on its own, so its bits
    do not depend on the batch.  A complex row is transformed as its real
    and imaginary parts, written straight into the views ``out.real`` and
    ``out.imag``.  Rows holding a non-finite slope keep the direct
    ``np.convolve`` sum, which keeps the value local to later nodes; only
    finite rows reach the transform.  The FFT's rounding against the
    direct sum is below 1e-14 of 1 + max|out| on smooth and random lines up
    to n = 16384; see the module notes for small early-time values.
    """
    nseg = vals.shape[1] - 1
    kern, spec, size, boundary = _line_kernel(nseg, h, order)
    # a slope that overflows is kept: its row takes the direct sum below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slopes = np.diff(vals, axis=1) / h
    out = np.zeros(vals.shape, dtype=np.result_type(vals.dtype, np.float64))
    conv = out[:, 1:]
    finite = np.isfinite(slopes).all(axis=1)
    for i in np.flatnonzero(~finite):
        conv[i] = np.convolve(slopes[i], kern)[:nseg]
    rows = np.flatnonzero(finite)
    parts = [(slopes, conv)]
    if np.iscomplexobj(slopes):
        parts = [(slopes.real, conv.real), (slopes.imag, conv.imag)]
    step = max(1, _FFT_BLOCK // size)
    for lo in range(0, rows.size, step):
        sel = rows[lo:lo + step]
        for src, dst in parts:
            prod = np.fft.rfft(src[sel], size, axis=1) * spec
            dst[sel] = np.fft.irfft(prod, size, axis=1)[:, :nseg]
    # the boundary term, zero at node 0; past node 0 an infinite start value
    # meets the infinite first slope (inf - inf): that row has no derivative
    start = vals[:, :1]
    lost = ~np.isfinite(start[:, 0])
    if lost.any():
        start = np.where(lost[:, None], 0.0, start)
        out[lost, 1:] = np.nan
    # a zero start against an infinite factor (subnormal h) is NaN, which
    # the caller's non-finite check reports
    with np.errstate(over="ignore", invalid="ignore"):
        out[:, 1:] += start * boundary
    return out, vals[:, 0] != 0


def _rl_right_lines(vals: np.ndarray, h: float, order: float):
    out, fl = _rl_left_lines(vals[:, ::-1], h, order)
    return out[:, ::-1], fl


def _add_weighted(out: np.ndarray, weight: complex, part: np.ndarray) -> None:
    """out += weight * part.  A real part goes to ``out.real`` and
    ``out.imag`` separately and skips a zero weight part, so an infinite
    value at a flagged node stays inf + 0i at gamma_w = -i or +i."""
    if np.iscomplexobj(part):
        out += weight * part
        return
    if weight.real != 0:
        out.real += weight.real * part
    if weight.imag != 0:
        out.imag += weight.imag * part


@functools.lru_cache(maxsize=3)
def _delay(size: int) -> np.ndarray:
    """exp(-2 pi i k / size) for k = 0..size/2, read-only: the factor that
    moves a real FFT of ``size`` points one node later.  The last three
    sizes are kept (one per axis of a 3D field; sizes in the module
    notes)."""
    delay = np.exp(-1j * np.pi * (np.arange(size // 2 + 1) * (2.0 / size)))
    delay.flags.writeable = False
    return delay


def _transfer_spectra(lspec, rspec, size: int, w_left: complex,
                      w_right: complex):
    """(to_re, to_im): the spectra that take a real line's slopes to the
    real and the imaginary part of w_left L + w_right R, boundary terms
    aside.  L's slope integral is the convolution with the left kernel,
    moved one node on by ``_delay``; R's is minus the correlation with the
    right kernel, whose spectrum is the conjugate, so no line is
    reflected."""
    to_re = lspec * _delay(size)
    to_im = to_re * w_left.imag
    to_re *= w_left.real
    rconj = rspec.conj()
    to_re -= w_right.real * rconj
    to_im -= w_right.imag * rconj
    return to_re, to_im


def _two_sided_lines(out, vals, slopes, rows, h: float, pair, w_left: complex,
                     w_right: complex) -> None:
    """Write w_left L + w_right R of the rows ``rows`` into ``out``, from
    one real FFT of each row's slopes (two for a complex row: its real and
    imaginary parts) and one inverse FFT each for the real and imaginary
    parts of the sum (``_transfer_spectra``); the boundary terms are added
    after.  Every product of a row with a spectrum broadcasts the spectrum
    along the row, so a row's bits do not depend on the batch.  The rows'
    slopes must be finite (the caller's check).
    """
    nseg = slopes.shape[1]
    _, lspec, size, lbound = _line_kernel(nseg, h, pair[0])
    _, rspec, _, rbound = _line_kernel(nseg, h, pair[1])
    to_re, to_im = _transfer_spectra(lspec, rspec, size, w_left, w_right)
    rbound = rbound[::-1]
    parts = [(vals, 1.0)]
    if np.iscomplexobj(vals):
        parts = [(vals.real, 1.0), (vals.imag, 1j)]
    step = max(1, _FFT_BLOCK // size)
    for lo in range(0, rows.size, step):
        sel = rows[lo:lo + step]
        if np.iscomplexobj(slopes):
            # (a + ib) (to_re + i to_im), taken part by part
            re = np.fft.rfft(slopes.real[sel], size, axis=1)
            im = np.fft.rfft(slopes.imag[sel], size, axis=1)
            tmp = im * to_im
            im *= to_re
            im += re * to_im
            re *= to_re
            re -= tmp
            del tmp
        else:
            im = np.fft.rfft(slopes[sel], size, axis=1)
            re = im * to_re
            im *= to_im
        block = np.empty((sel.size, nseg + 1), dtype=np.complex128)
        block.real = np.fft.irfft(re, size, axis=1)[:, :nseg + 1]
        del re
        block.imag = np.fft.irfft(im, size, axis=1)[:, :nseg + 1]
        # the boundary terms, the start value's past node 0 and the end
        # value's before node nseg; a zero value against an infinite factor
        # (subnormal h) is NaN, which the caller's non-finite check reports
        with np.errstate(over="ignore", invalid="ignore"):
            for line, unit in parts:
                _add_weighted(block[:, 1:], unit * w_left, line[sel, :1] * lbound)
                _add_weighted(block[:, :-1], unit * w_right,
                              line[sel, -1:] * rbound)
        out[sel] = block


def _per_side_lines(vals: np.ndarray, h: float, pair, w_left: complex,
                    w_right: complex):
    """w_left L + w_right R with each side applied on its own: returns
    (out, start_flags, end_flags).  An operand with an exactly-zero weight
    is skipped, so its flags do not propagate."""
    out = np.zeros(vals.shape, dtype=np.complex128)
    start = end = np.zeros(vals.shape[0], dtype=bool)
    if w_left != 0:
        lvals, start = _rl_left_lines(vals, h, pair[0])
        _add_weighted(out, w_left, lvals)
    if w_right != 0:
        rvals, end = _rl_right_lines(vals, h, pair[1])
        _add_weighted(out, w_right, rvals)
    return out, start, end


def _cresson_lines(vals: np.ndarray, h: float, pair, gamma_w: complex):
    """Combined operator along the last axis: returns (out, start_flags,
    end_flags).

    At gamma_w = -i or +i one weight is exactly zero, and the other side
    alone is applied (``_per_side_lines``), so the collapses are exact.
    Otherwise rows with finite slopes take the two-sided transform
    (``_two_sided_lines``), and a row holding a non-finite slope applies
    each side on its own, where the direct sum keeps the value local.
    """
    w_left = 0.5 * (1.0 + 1j * gamma_w)
    w_right = 0.5 * (1j * gamma_w - 1.0)
    if w_left == 0 or w_right == 0:
        return _per_side_lines(vals, h, pair, w_left, w_right)
    # a slope that overflows is kept: its row takes the per-side path
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slopes = np.diff(vals, axis=1) / h
    finite = np.isfinite(slopes).all(axis=1)
    out = np.empty(vals.shape, dtype=np.complex128)
    _two_sided_lines(out, vals, slopes, np.flatnonzero(finite), h, pair,
                     w_left, w_right)
    rest = np.flatnonzero(~finite)
    if rest.size:
        out[rest] = _per_side_lines(vals[rest], h, pair, w_left, w_right)[0]
    return out, vals[:, 0] != 0, vals[:, -1] != 0


# ---------------------------------------------------------------------------
# public operators


def rl_left(f: GridFunction, alpha: float) -> GridFunction:
    """Left Riemann-Liouville derivative of order alpha in (0,1).

    The start node is flagged singular when f(a) != 0; input flags
    propagate.
    """
    alpha = _check_order("alpha", alpha)
    out, fl = _rl_left_lines(f.values[None, :], f.grid.h, alpha)
    flags = f.flags.copy()
    flags[0] |= bool(fl[0])
    return GridFunction(f.grid, out[0], flags)


def rl_right(f: GridFunction, beta: float) -> GridFunction:
    """Right Riemann-Liouville derivative: the exact mirror image of
    rl_left about the interval midpoint.  The end node is flagged when
    f(t) != 0."""
    beta = _check_order("beta", beta)
    out, fl = _rl_right_lines(f.values[None, :], f.grid.h, beta)
    flags = f.flags.copy()
    flags[-1] |= bool(fl[0])
    return GridFunction(f.grid, out[0], flags)


def cresson(f: GridFunction, orders: OrderSet) -> GridFunction:
    """Complex combination of the one-sided derivatives (see module notes).

    Always complex-valued; flags propagate from each operand that enters
    with a nonzero weight, plus any input flags.
    """
    return as_1d(axis_cresson(as_nd(f), 0, orders))


def axis_cresson(field: GridFunctionND, axis: int, orders: OrderSet) -> GridFunctionND:
    """Apply the combined operator along every grid line parallel to ``axis``.

    Each line spans the box's full extent on that axis: left endpoint at the
    axis lower bound, right endpoint at the axis observer time.
    """
    if not 0 <= axis < field.ndim:
        raise GridError(f"axis {axis} out of range for a {field.ndim}-axis field")
    if orders.ndim != field.ndim:
        raise DomainError(
            f"OrderSet has {orders.ndim} axes but the field has {field.ndim}"
        )
    moved = np.moveaxis(field.values, axis, -1)
    shape = moved.shape
    lines = moved.reshape(-1, shape[-1])
    out, start, end = _cresson_lines(
        lines, field.grids[axis].h, orders.pair(axis), orders.gamma_w
    )
    newflags = np.zeros(lines.shape, dtype=bool)
    newflags[:, 0] |= start
    newflags[:, -1] |= end
    values = np.moveaxis(out.reshape(shape), -1, axis)
    flags = np.moveaxis(newflags.reshape(shape), -1, axis) | field.flags
    return GridFunctionND(field.grids, values, flags)
