"""Property tests of the identities the shared fractional core rests on.

Dimensional bit parity: the 1D Cresson and 2D entry points run the same
core as the N-dimensional one, so with the slots renamed they give the
same bits.  Collapse: the combined operator at gamma = -i is the left
derivative and at gamma = +i minus the right one, values and flags alike.
Mirror: the right derivative is the left one of the reflected path,
reflected back, bit for bit.  Linearity: the combined operator is linear
up to rounding, to a tolerance derived from the float64 epsilon.  Grids,
fields, orders and gamma are drawn small and at random; gamma includes
exactly -i and +i.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from falva import (
    Grid1D,
    GridFunction,
    GridFunctionND,
    OrderSet,
    action_1d_cresson,
    action_2d,
    action_nd,
    cresson,
    el_residual_1d_cresson,
    el_residual_2d,
    el_residual_nd,
    parse,
    rl_left,
    rl_right,
)

ORDER = st.floats(0.05, 0.95)
GAMMA = st.one_of(
    st.sampled_from([-1j, 1j]),
    st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
VALUE = st.floats(-2.0, 2.0)

# Lagrangians in the 1D slots and the same ones in the numbered ND slots
LAGRANGIANS_1D = [
    ("qdot^2/2 - q^2/2 + tau*q", "qx1^2/2 - q^2/2 + x1*q"),
    ("qdot*q + tau^2*qdot^2", "qx1*q + x1^2*qx1^2"),
    ("(qdot - tau)^3 + 2*q", "(qx1 - x1)^3 + 2*q"),
]
LAGRANGIANS_2D = [
    ("(qx^2 + qy^2)/2 + q*x*y", "(qx1^2 + qx2^2)/2 + q*x1*x2"),
    ("qx*qy - q^2 + x", "qx1*qx2 - q^2 + x1"),
    ("qx^3/3 + y*qy*q", "qx1^3/3 + x2*qx2*q"),
]
PROPERTY = settings(max_examples=60)


@st.composite
def grids(draw, min_n=4, max_n=24):
    a = draw(st.floats(-1.0, 1.0))
    return Grid1D(a, a + draw(st.floats(0.5, 2.0)), draw(st.integers(min_n, max_n)))


def _field(draw, grid_list):
    shape = tuple(g.n + 1 for g in grid_list)
    return draw(hnp.arrays(np.float64, shape, elements=VALUE))


def _same_residual(r1, rn):
    assert np.array_equal(r1.residual.values, rn.residual.values)
    assert np.array_equal(r1.excluded, rn.excluded)
    assert r1.epsilon_margin == rn.epsilon_margin
    assert r1.sup_norm == rn.sup_norm


@PROPERTY
@given(data=st.data(), grid=grids(), pair=st.sampled_from(LAGRANGIANS_1D),
       alpha=ORDER, beta=ORDER, gamma_w=GAMMA)
def test_1d_cresson_matches_nd_bit_for_bit(data, grid, pair, alpha, beta, gamma_w):
    vals = _field(data.draw, (grid,))
    orders = OrderSet.for_1d(alpha, beta, gamma_w)
    text_1d, text_nd = pair
    q1, qn = GridFunction(grid, vals), GridFunctionND((grid,), vals)
    a1 = action_1d_cresson(parse(text_1d), q1, orders)
    an = action_nd(parse(text_nd), qn, orders, (grid.t,))
    assert a1 == an
    _same_residual(el_residual_1d_cresson(parse(text_1d), q1, orders),
                   el_residual_nd(parse(text_nd), qn, orders, (grid.t,)))


@PROPERTY
@given(data=st.data(), gx=grids(max_n=10), gy=grids(max_n=10),
       pair=st.sampled_from(LAGRANGIANS_2D),
       orders=st.tuples(ORDER, ORDER, ORDER, ORDER), gamma_w=GAMMA)
def test_2d_matches_nd_bit_for_bit(data, gx, gy, pair, orders, gamma_w):
    q = GridFunctionND((gx, gy), _field(data.draw, (gx, gy)))
    orders = OrderSet.for_2d(*orders, gamma_w)
    text_2d, text_nd = pair
    observer = (gx.t, gy.t)
    a2 = action_2d(parse(text_2d), q, orders, observer)
    an = action_nd(parse(text_nd), q, orders, observer)
    assert a2 == an
    _same_residual(el_residual_2d(parse(text_2d), q, orders, observer),
                   el_residual_nd(parse(text_nd), q, orders, observer))


@PROPERTY
@given(data=st.data(), grid=grids(max_n=64), alpha=ORDER, beta=ORDER)
def test_cresson_collapses_to_one_sided_operators(data, grid, alpha, beta):
    f = GridFunction(grid, _field(data.draw, (grid,)))
    left = rl_left(f, alpha)
    minus = cresson(f, OrderSet.for_1d(alpha, beta, -1j))
    assert np.array_equal(minus.values, left.values)
    assert np.array_equal(minus.flags, left.flags)
    right = rl_right(f, beta)
    plus = cresson(f, OrderSet.for_1d(alpha, beta, 1j))
    assert np.array_equal(plus.values, -right.values)
    assert np.array_equal(plus.flags, right.flags)


def _reflect(f):
    return GridFunction(f.grid, f.values[::-1], f.flags[::-1])


@PROPERTY
@given(data=st.data(), grid=grids(max_n=64), beta=ORDER)
def test_right_operator_mirrors_the_left_one(data, grid, beta):
    flags = data.draw(hnp.arrays(bool, grid.n + 1))
    f = GridFunction(grid, _field(data.draw, (grid,)), flags)
    right = rl_right(f, beta)
    mirrored = _reflect(rl_left(_reflect(f), beta))
    assert np.array_equal(right.values, mirrored.values)
    assert np.array_equal(right.flags, mirrored.flags)


EPS = np.finfo(np.float64).eps


def _operator_scale(values, h, orders):
    """Bound on the sum of the absolute terms that make up one node of the
    combined operator: per side, its weight times max|slope| times the sum
    of the product weights, (n h)^(1-order) / gamma(2-order), plus the
    boundary term |f(end)| h^-order / gamma(1-order) at its largest."""
    (left, right), g = orders.pair(0), orders.gamma_w
    slope = np.max(np.abs(np.diff(values))) / h
    span = h * (values.size - 1)

    def side(order, end):
        return (slope * span ** (1.0 - order) / math.gamma(2.0 - order)
                + abs(end) * h ** -order / math.gamma(1.0 - order))

    return (abs(0.5 * (1.0 + 1j * g)) * side(left, values[0])
            + abs(0.5 * (1j * g - 1.0)) * side(right, values[-1]))


@PROPERTY
@given(data=st.data(), grid=grids(max_n=64), alpha=ORDER, beta=ORDER,
       gamma_w=GAMMA, a=VALUE, b=VALUE)
def test_cresson_is_linear(data, grid, alpha, beta, gamma_w, a, b):
    f, g = (_field(data.draw, (grid,)) for _ in range(2))
    orders = OrderSet.for_1d(alpha, beta, gamma_w)
    combined = cresson(GridFunction(grid, a * f + b * g), orders).values
    apart = (a * cresson(GridFunction(grid, f), orders).values
             + b * cresson(GridFunction(grid, g), orders).values)
    # rounding of a zero-padded FFT convolution of n terms grows at most like
    # log2(transform size) * sqrt(n) times epsilon times the terms' scale
    n = grid.n
    growth = 4.0 * math.log2(4 * n) * math.sqrt(n) * EPS
    scale = (abs(a) * _operator_scale(f, grid.h, orders)
             + abs(b) * _operator_scale(g, grid.h, orders)
             + _operator_scale(a * f + b * g, grid.h, orders))
    assert np.max(np.abs(combined - apart)) <= growth * scale


@PROPERTY
@given(data=st.data(), grid=grids(max_n=200), alpha=ORDER, beta=ORDER,
       gamma_w=GAMMA, complex_line=st.booleans())
def test_cresson_is_the_weighted_sum_of_its_sides(data, grid, alpha, beta,
                                                 gamma_w, complex_line):
    # the two-sided transform against the one-sided operators it combines
    vals = _field(data.draw, (grid,))
    if complex_line:
        vals = vals + 1j * _field(data.draw, (grid,))
    f = GridFunction(grid, vals)
    out = cresson(f, OrderSet.for_1d(alpha, beta, gamma_w)).values
    combo = (0.5 * (1 + 1j * gamma_w) * rl_left(f, alpha).values
             + 0.5 * (1j * gamma_w - 1) * rl_right(f, beta).values)
    scale = 1.0 + np.max(np.abs(combo))
    assert np.max(np.abs(out - combo)) / scale < 1e-13
