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
operator along an axis is a batched 1D apply to every line parallel to
that axis.  The lines are read through a view of the field and written
through a view of the C-order result (``_line_view``), so along any axis
the call holds no line-major copy of either; only the slopes are gathered,
line by line.  A field is a ``GridFunctionND``
(defined in ``numcore``, listed here); a path's ``GridFunction`` is its
one-axis case, so ``axis_cresson`` takes a path as it is, and ``cresson``
only makes its one-axis result a ``GridFunction`` again (``as_1d``).

The slope integral is a discrete convolution of each line's slopes with
the product-integration weights.  It is evaluated for all lines at once
by a zero-padded real FFT, O(n log n) per line.  Each line is transformed
on its own, so a line gives the same bits alone as inside any batch (the
dimensional parity of 1D, 2D and 3D results rests on this).  Against the
direct sum the FFT's rounding is relative to the line's scale: below
1e-14 of 1 + max|D f| on smooth paths and random data at n = 16384.  A
node much smaller than the line's maximum (an early-time value) can carry
a node-wise relative error near 1e-11, far below the scheme's
O(h^(2-al)) discretisation error there.

Every operator runs through one transform loop (``_transform``) and one
boundary update (``_add_boundary``), writing straight into the C-order
result.  The combined operator with both weights nonzero costs one forward
transform per line (two for a complex line, its real and imaginary parts)
and one inverse transform each for the real and imaginary parts of D.  The
forward transform of a path is taken once per path, not once per call,
when the path is one real line whose samples are read-only and own their
memory, as the command line's are: its slopes' spectrum is kept with the
path (``_slope_spectrum``), so every alpha row of a sweep shares it.  A
writeable path is transformed on every call, and so is every line of an
N-dimensional field.  Each block of lines writes the inverse transforms of
the real and imaginary parts of D into the result; after the last block,
each side's boundary terms, w_L f(start) or w_R f(end) times the side's
boundary factor, are added to every line in the result's memory order.
L's slope integral is the convolution with the left kernel's spectrum,
moved one node on by a phase factor; R's is the correlation with the right
kernel, whose spectrum is the conjugate, so no reflected copy is made.
These values agree with w_L L + w_R R of the one-sided operators to
rounding, not bit for bit (at most a few 1e-15 of the line's scale on the
command line's outputs).  A line holding a non-finite slope comes out
non-finite at every node, as w_L L + w_R R would: L is non-finite from
that value on and R up to it.

One side alone (``_one_sided``) is the left operator: ``rl_left``, and the
collapse at gamma_w = -i, where w_R is exactly zero.  Its spectrum is the
left kernel's times its real weight, with no phase factor, and its slope
integral is written from node 1 on; node 0 is 0.  The right side alone,
``rl_right`` and the collapse at +i, is the left side of the reversed lines
(a view) with the order pair swapped, so the mirror and collapse
identities hold bit for bit, and its result is written through the
reversed view; it reads no kept spectrum.  A collapse is 0 + w L, as D with its zero side, so an
exact zero there is +0.  A real line's collapse takes one inverse
transform and keeps a zero imaginary part.  For one side alone a line
holding a non-finite slope (inf or NaN at a flagged node) keeps the
direct O(n^2) sum, where the value only reaches later nodes; a transform
would spread it over the whole line.

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
not kept.  A kept path's slope spectrum (``_SLOPE_SPECTRA``, keyed by the
path and dropped with it) holds 8 B per transform entry: 256 KB at
n = 16384 and 64 MB for a line at the 2^22-node cap, for as long as its
path lives.  A call's temporaries are not kept either; under the command
line on glibc they come from heap the process keeps (``cli._keep_freed_heap``)
rather than from pages mapped and faulted in again on every call.  Lines
go through the transforms in blocks of at most ``_FFT_BLOCK`` = 2^14
transform entries, so the temporaries of a block (32 lines of a 257-node
axis) are a few hundred KB and do not add to the peak of a field-sized
call such as the Euler-Lagrange residual.  The product of a complex
line's two spectra with the transfer spectra runs ``_PRODUCT_CHUNK`` =
4096 entries at a time, so on a long line it adds no spectrum-sized
temporary and the kept spectrum adds nothing to the residual's peak; the
boundary terms run as many entries of the result at a time.
"""

from __future__ import annotations

import functools
import math
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, GridError
from .numcore import GridFunction, GridFunctionND, _one_axis, gamma

__all__ = [
    "OrderSet",
    "GridFunctionND",
    "rl_left",
    "rl_right",
    "cresson",
    "axis_cresson",
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


def as_1d(f: GridFunctionND) -> GridFunction:
    _one_axis(f, "as_1d")
    return GridFunction(f.grids[0], f.values, f.flags)


# ---------------------------------------------------------------------------
# batched 1D kernels; ``vals`` and ``out`` are ``_line_view``s of a field

# Transform entries per FFT batch: lines go through the transform at most
# _FFT_BLOCK // size at a time (at least one), which keeps the temporaries of
# wide fields small.  Blocks of 2^12 to 2^18 entries ran equally fast on a
# 257 x 257 field, where a 2D residual's peak was 13.4 complex fields at
# 2^16 entries and 11.5 at 2^14 with every field kept to the end of the call.
_FFT_BLOCK = 2**14

# Kernel plans kept by _line_kernel: at most _KERNEL_PLANS of them and
# _KERNEL_PLAN_BYTES of arrays in all (the sizes are in the module notes).
_KERNEL_PLANS = 6
_KERNEL_PLAN_BYTES = 2**29

# Spectrum entries per step of the product of a complex line's spectra
# with the transfer spectra (``_complex_product``), and result entries per
# step of the boundary terms (``_chunks``), so that their temporaries stay
# small next to a long line's spectra or a field.
_PRODUCT_CHUNK = 4096

# The slope spectrum of each kept path, by path; an entry goes with its
# path (``_slope_spectrum``; sizes in the module notes).
_SLOPE_SPECTRA = weakref.WeakKeyDictionary()


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


def _line_view(a: np.ndarray, axis: int) -> np.ndarray:
    """The lines of the C-order array ``a`` along ``axis`` as a view of it,
    the nodes of each line on the last axis: (lines, nodes) when ``axis``
    is the first or the last, else (outer, inner, nodes), since no 2D view
    holds the lines of a middle axis.  Lines are numbered in C order of
    the other axes."""
    outer = math.prod(a.shape[:axis])
    v = a.reshape(outer, a.shape[axis], -1).transpose(0, 2, 1)
    if outer == 1:
        return v[0]
    if v.shape[1] == 1:
        return v[:, 0]
    return v


def _at(lines: np.ndarray, rows):
    """The index of the lines ``rows`` (line numbers: a slice, or one
    number, whose index gives a view of that line) in a ``_line_view``."""
    if lines.ndim == 2:
        return rows
    lead = lines.shape[:-1]
    return np.unravel_index(np.arange(math.prod(lead))[rows], lead)


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


def _keeps_spectrum(field: GridFunctionND) -> bool:
    """Whether the slope spectrum of ``field`` is kept (``_slope_spectrum``):
    a one-axis real field whose samples are read-only and own their memory,
    so they do not change after their check (see ``GridFunctionND``)."""
    v = field.values
    return (field.ndim == 1 and v.dtype == np.float64
            and not v.flags.writeable and v.flags.owndata)


def _slope_spectrum(slopes: np.ndarray, sel, size: int, path) -> np.ndarray:
    """The real FFT of ``slopes[sel]`` at ``size`` points.  For ``path``,
    a field whose spectrum is kept (``_keeps_spectrum``) and whose one line
    ``slopes`` holds, it is taken on the first call and kept, read-only,
    until the path is gone; for ``path`` None it is the caller's own."""
    if path is None:
        return np.fft.rfft(slopes[sel], size, axis=1)
    spec = _SLOPE_SPECTRA.get(path)
    if spec is None:
        spec = np.fft.rfft(slopes[sel], size, axis=1)
        spec.flags.writeable = False
        # a thread that kept the same spectrum first wins; the bits agree
        spec = _SLOPE_SPECTRA.setdefault(path, spec)
    return spec


def _complex_product(re: np.ndarray, im: np.ndarray, to_re, to_im) -> None:
    """(re + i im) times (to_re + i to_im), in place in ``re`` and ``im``:
    the spectra of a block of complex lines' real and imaginary parts
    taken to those of D.  It runs ``_PRODUCT_CHUNK`` entries of each line
    at a time, so no temporary is as large as a spectrum."""
    for lo in range(0, re.shape[1], _PRODUCT_CHUNK):
        c = slice(lo, lo + _PRODUCT_CHUNK)
        r, i, t_re, t_im = re[:, c], im[:, c], to_re[c], to_im[c]
        tmp = i * t_im
        i *= t_re
        i += r * t_im
        r *= t_re
        r -= tmp


def _chunks(shape):
    """Index boxes of at most ``_PRODUCT_CHUNK`` entries that cover an
    array of ``shape`` in C order."""
    k = next(k for k in range(len(shape))
             if math.prod(shape[k + 1:]) <= _PRODUCT_CHUNK)
    step = _PRODUCT_CHUNK // math.prod(shape[k + 1:])
    for head in np.ndindex(*shape[:k]):
        for lo in range(0, shape[k], step):
            yield (*(slice(i, i + 1) for i in head), slice(lo, lo + step),
                   *(slice(None),) * (len(shape) - k - 1))


def _slopes(vals: np.ndarray, h: float) -> np.ndarray:
    """The slopes of the lines of ``vals`` (a ``_line_view``) in line order,
    (lines, cells); a slope that overflows is kept."""
    n = vals.shape[-1]
    slopes = np.empty(vals.shape[:-1] + (n - 1,), dtype=vals.dtype)
    np.subtract(vals[..., 1:], vals[..., :-1], out=slopes)
    slopes /= h
    return slopes.reshape(-1, n - 1)


def _transform(out, slopes, size: int, to_re, to_im=None, path=None) -> None:
    """The one transform loop: write the inverse real FFT of each line's
    slope spectrum times ``to_re`` into ``out.real``, and times ``to_im``
    into ``out.imag``, the first ``out.shape[-1]`` entries of each.

    ``out`` is a ``_line_view`` and ``slopes`` (lines, cells).  A complex
    line is transformed as its real and imaginary parts; against a real
    weight's transfer (``to_im`` None) each part goes to its own part of
    ``out``, else their product with the transfer spectra gives the parts
    of D (``_complex_product``).  Lines run ``_FFT_BLOCK // size`` at a
    time, as slices, and every product broadcasts a spectrum along the
    lines, so a line's bits do not depend on the batch.  ``path`` is the
    one-line field of ``slopes`` if its slope spectrum is kept
    (``_slope_spectrum``), else None.
    """
    m = out.shape[-1]
    step = max(1, _FFT_BLOCK // size)
    for lo in range(0, slopes.shape[0], step):
        sel = slice(lo, lo + step)
        if np.iscomplexobj(slopes):
            re = np.fft.rfft(slopes.real[sel], size, axis=1)
            im = np.fft.rfft(slopes.imag[sel], size, axis=1)
            if to_im is None:
                re *= to_re
                im *= to_re
            else:
                _complex_product(re, im, to_re, to_im)
        else:
            spec = _slope_spectrum(slopes, sel, size, path)
            re = spec * to_re
            im = None if to_im is None else np.multiply(
                spec, to_im, out=spec if spec.flags.writeable else None)
            del spec
        at = _at(out, sel)
        out.real[at] = np.fft.irfft(re, size, axis=1)[:, :m]
        del re  # each spectrum is freed once transformed
        if im is not None:
            out.imag[at] = np.fft.irfft(im, size, axis=1)[:, :m]
            del im


def _add_boundary(out, sides) -> None:
    """Add each side's boundary terms to ``out``, a ``_line_view``: for
    each (nodes, coef, factor) of ``sides``, ``coef`` (one value per line,
    shaped as ``out[..., :1]``) times ``factor`` at the nodes ``nodes`` of
    every line.

    A rank-one update, run in the result's memory order (the view taken
    back to (outer, nodes, inner)) in boxes of at most ``_PRODUCT_CHUNK``
    entries (``_chunks``), each box's temporary from ``np.empty_like`` of
    its destination.  A (lines, nodes) view whose nodes lie further apart
    than its lines is axis 0's.
    """
    apart = abs(out.strides[-1]) > abs(out.strides[0])

    def order(a):
        if a.ndim == 2:
            a = a[None] if apart else a[:, None]
        return a.transpose(0, 2, 1)

    out = order(out)
    for nodes, coef, factor in sides:
        side, coef = out[:, nodes], order(coef)
        for outer, node, inner in _chunks(side.shape):
            part = side[outer, node, inner]
            term = np.empty_like(part)
            np.multiply(coef[outer, :, inner], factor[node, None], out=term)
            part += term


def _one_sided(out, vals, h: float, order: float, weight=None,
               path=None) -> None:
    """Write the left derivative of every line of ``vals`` into the same
    line of ``out`` (both ``_line_view``s): L itself for ``weight`` None,
    else 0 + weight L with a real ``weight``, the collapse of D, whose
    exact zeros are +0.  The right derivative is the left derivative of
    the reversed lines, a view.

    The slope integral is the convolution with the kernel plan's spectrum
    (times the weight), written from node 1 on; node 0 is 0.  A line
    holding a non-finite slope keeps the direct ``np.convolve`` sum, which
    keeps the value local to later nodes.  Then the boundary term, the
    (weighted) start value times the plan's boundary factor, is added; past
    node 0 an infinite start value meets the infinite first slope
    (inf - inf), so that line has no derivative and is NaN there.  A real
    line's collapse keeps a zero imaginary part.
    """
    if np.iscomplexobj(out) and not np.iscomplexobj(vals):
        out.imag[...] = 0
        out = out.real
    slopes = _slopes(vals, h)
    nseg = slopes.shape[1]
    kern, spec, size, boundary = _line_kernel(nseg, h, order)
    out[..., 0] = 0
    _transform(out[..., 1:], slopes, size,
               spec if weight is None else spec * weight, path=path)
    for i in np.flatnonzero(~np.isfinite(slopes).all(axis=1)):
        conv = np.convolve(slopes[i], kern)[:nseg]
        out[_at(out, i)][1:] = conv if weight is None else weight * conv
    # a collapse adds w f(a) to the zero of its other side, so no -0 is left
    start = vals[..., :1]
    _add_boundary(out, ((slice(1, None), start if weight is None
                         else 0.0 + weight * start, boundary),))
    out[~np.isfinite(vals[..., 0]), 1:] = np.nan


def _cresson_lines(vals: np.ndarray, h: float, pair, gamma_w: complex,
                   out: np.ndarray, path=None):
    """Combined operator along the last axis of ``vals``, written into
    ``out`` (both ``_line_view``s): returns (start_flags, end_flags), one
    per line.

    At gamma_w = -i or +i one weight is exactly zero and the other side is
    applied alone (``_one_sided``; the right side as the left side of the
    reversed lines), so the collapses and their flags are exact.  Otherwise
    every line takes the two-sided transform: the delayed left and the
    right kernel's spectra, weighted (``_transfer_spectra``), and then both
    sides' boundary terms, w_left f(start) and w_right f(end) times each
    side's boundary factor.  A line holding a non-finite slope comes out
    non-finite at every node, as the weighted sum of its sides would.
    ``path`` is the field whose slope spectrum is kept, else None.  Every
    kernel runs with floating-point warnings off: a non-finite value is
    the caller's non-finite check's to report.
    """
    w_left = 0.5 * (1.0 + 1j * gamma_w)
    w_right = 0.5 * (1j * gamma_w - 1.0)
    start, end = vals[..., 0] != 0, vals[..., -1] != 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if w_right == 0:
            _one_sided(out, vals, h, pair[0], w_left.real, path)
            return start, np.zeros_like(end)
        if w_left == 0:
            _one_sided(out[..., ::-1], vals[..., ::-1], h, pair[1], w_right.real)
            return np.zeros_like(start), end
        slopes = _slopes(vals, h)
        _, lspec, size, lbound = _line_kernel(slopes.shape[1], h, pair[0])
        _, rspec, _, rbound = _line_kernel(slopes.shape[1], h, pair[1])
        _transform(out, slopes, size,
                   *_transfer_spectra(lspec, rspec, size, w_left, w_right),
                   path=path)
        _add_boundary(out, ((slice(1, None), w_left * vals[..., :1], lbound),
                            (slice(-1), w_right * vals[..., -1:], rbound[::-1])))
    return start, end


def _rl(f: GridFunction, order: float, caller: str, nodes: slice) -> GridFunction:
    """The left derivative of ``f`` with its nodes taken in the order
    ``nodes`` (reversed: the right derivative), and its flags; the start
    node of that order is flagged when f there is nonzero."""
    _one_axis(f, caller)
    out = np.empty(f.values.shape, dtype=f.values.dtype)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _one_sided(out[None, nodes], f.values[None, nodes], f.grids[0].h, order)
    flags = f.flags.copy()
    flags[nodes][0] |= f.values[nodes][0] != 0
    return GridFunction(f.grids[0], out, flags)


# ---------------------------------------------------------------------------
# public operators


def rl_left(f: GridFunction, alpha: float) -> GridFunction:
    """Left Riemann-Liouville derivative of order alpha in (0,1).

    The start node is flagged singular when f(a) != 0; input flags
    propagate.
    """
    return _rl(f, _check_order("alpha", alpha), "rl_left", slice(None))


def rl_right(f: GridFunction, beta: float) -> GridFunction:
    """Right Riemann-Liouville derivative: the exact mirror image of
    rl_left about the interval midpoint.  The end node is flagged when
    f(t) != 0."""
    return _rl(f, _check_order("beta", beta), "rl_right", slice(None, None, -1))


def cresson(f: GridFunction, orders: OrderSet) -> GridFunction:
    """Complex combination of the one-sided derivatives (see module notes).

    Always complex-valued; flags propagate from each operand that enters
    with a nonzero weight, plus any input flags.
    """
    return as_1d(axis_cresson(f, 0, orders))


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
    values = np.empty(field.values.shape, dtype=np.complex128)
    start, end = _cresson_lines(
        _line_view(field.values, axis), field.grids[axis].h, orders.pair(axis),
        orders.gamma_w, _line_view(values, axis),
        field if _keeps_spectrum(field) else None,
    )
    flags = field.flags.copy()
    ends = _line_view(flags, axis)
    ends[..., 0] |= start.reshape(ends.shape[:-1])
    ends[..., -1] |= end.reshape(ends.shape[:-1])
    return GridFunctionND(field.grids, values, flags)
