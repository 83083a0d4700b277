"""Property tests of the identities the shared fractional core rests on.

Dimensional bit parity: the 1D Cresson and 2D entry points run the same
core as the N-dimensional one, so with the slots renamed they give the
same bits.  Collapse: the combined operator at gamma = -i is the left
derivative and at gamma = +i minus the right one, values and flags alike.
Grids, fields, orders and gamma are drawn small and at random; gamma
includes exactly -i and +i.
"""

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
