import math
import subprocess
import sys

import numpy as np
import pytest

from falva import (
    DomainError,
    GridError,
    Grid1D,
    GridFunction,
    GridFunctionND,
    OrderSet,
    axis_cresson,
    cresson,
    el_residual_1d_cresson,
    el_residual_nd,
    observed_order,
    parse,
    rl_left,
    rl_right,
)
from falva import fracops


def _grid(n=128, a=0.0, t=1.0):
    return Grid1D(a, t, n)


def _direct_rl_left(values, h, alpha):
    """Reference left derivative: the boundary term plus the direct O(n^2)
    sum of slopes against the product-integration weights, term for term
    as the operator's notes define it."""
    g1 = math.gamma(1.0 - alpha)
    n = values.size - 1
    slopes = np.diff(values) / h
    mh = h * np.arange(n + 1)
    pw = mh ** (1.0 - alpha)
    kern = (pw[1:] - pw[:-1]) / ((1.0 - alpha) * g1)
    out = np.zeros(n + 1, dtype=np.result_type(values.dtype, np.float64))
    out[1:] = np.convolve(slopes, kern)[:n]
    bpow = np.zeros(n + 1)
    bpow[1:] = mh[1:] ** (-alpha)
    out += values[0] * (bpow / g1)
    return out


class TestOrderSet:
    def test_1d_pair(self):
        o = OrderSet.for_1d(0.3, 0.6, -1j)
        assert o.pair(0) == (0.3, 0.6)
        assert o.weight_order(0) == 0.3

    def test_2d_mapping(self):
        o = OrderSet.for_2d(0.3, 0.4, 0.5, 0.6, 1j)
        assert o.pair(0) == (0.3, 0.5)  # x axis: (alpha, delta)
        assert o.pair(1) == (0.4, 0.6)  # y axis: (beta, chi)
        assert o.weight_order(1) == 0.4

    def test_adjoint_swaps_and_negates(self):
        o = OrderSet.for_2d(0.3, 0.4, 0.5, 0.6, 0.7 + 0.2j)
        adj = o.adjoint()
        assert adj.pair(0) == (0.5, 0.3)
        assert adj.pair(1) == (0.6, 0.4)
        assert adj.gamma_w == -(0.7 + 0.2j)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 2.0])
    def test_order_range(self, bad):
        with pytest.raises(DomainError):
            OrderSet.for_1d(bad, 0.5, -1j)
        with pytest.raises(DomainError):
            OrderSet.for_1d(0.5, bad, -1j)

    def test_gamma_finite(self):
        with pytest.raises(DomainError):
            OrderSet.for_1d(0.5, 0.5, complex(np.inf, 0.0))


class TestRlLeft:
    def test_zero(self):
        g = _grid()
        out = rl_left(GridFunction(g, np.zeros(g.n + 1)), 0.5)
        assert np.all(out.values == 0.0)
        assert not out.flags.any()

    def test_constant(self):
        # D^0.5 of 1 on [0,1] is theta^(-1/2)/gamma(1/2); at theta=1: 1/sqrt(pi)
        g = _grid()
        out = rl_left(GridFunction(g, np.ones(g.n + 1)), 0.5)
        assert out.values[-1] == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)
        assert out.flags[0]  # f(a) != 0 -> singular start

    def test_identity_path(self):
        # D^0.5 of theta at theta=1 equals gamma(2)/gamma(1.5) = 1/gamma(1.5)
        g = _grid()
        out = rl_left(GridFunction(g, g.nodes), 0.5)
        assert out.values[-1] == pytest.approx(1.0 / math.gamma(1.5), rel=1e-12)
        assert not out.flags[0]

    def test_exact_for_affine(self):
        # boundary term + interpolant-slope integral is exact for c0 + c1 theta
        g = Grid1D(0.5, 2.0, 64)
        c0, c1, alpha = 1.25, -0.7, 0.35
        f = GridFunction(g, c0 + c1 * (g.nodes - g.a))
        out = rl_left(f, alpha)
        theta = g.nodes[1:]
        expected = c0 * (theta - g.a) ** (-alpha) / math.gamma(1 - alpha) + c1 * (
            theta - g.a
        ) ** (1 - alpha) / math.gamma(2 - alpha)
        assert np.allclose(out.values[1:], expected, rtol=1e-12)

    def test_power_law_convergence(self):
        for mu in (1.0, 1.5, 2.0):
            for alpha in (0.25, 0.5, 0.75):
                errs = []
                oracle = math.gamma(mu + 1) / math.gamma(mu + 1 - alpha)
                for n in (64, 128, 256, 512):
                    g = _grid(n)
                    out = rl_left(GridFunction(g, g.nodes**mu), alpha)
                    errs.append((1.0 / n, abs(out.values[-1] - oracle) / oracle))
                assert errs[-1][1] < 1e-3
                if errs[-1][1] > 1e-12:  # mu=1 is exact; order is noise there
                    assert observed_order(errs) >= 1.0

    def test_classical_limit(self):
        # f(a) = 0 keeps the (theta-a)^(-alpha) boundary layer out of the
        # comparison; with f(a) != 0 the *continuum* operator differs from
        # f' by ~ f(a)(1-alpha)/(theta-a) near a, which no scheme can beat.
        g = _grid(256)
        f = GridFunction(g, np.sin(2 * np.pi * g.nodes))
        out = rl_left(f, 0.999)
        fprime = 2 * np.pi * np.cos(2 * np.pi * g.nodes)
        err = np.max(np.abs(out.values[1:-1] - fprime[1:-1]))
        assert err <= 0.05 * (1.0 + np.max(np.abs(fprime)))

    def test_classical_limit_away_from_boundary_layer(self):
        # for f(a) != 0 the limit holds outside a 5% margin at the ends
        g = _grid(256)
        f = GridFunction(g, np.sin(2 * g.nodes) + np.cos(g.nodes))
        out = rl_left(f, 0.999)
        fprime = 2 * np.cos(2 * g.nodes) - np.sin(g.nodes)
        inner = (g.nodes >= 0.05) & (g.nodes <= 0.95)
        err = np.max(np.abs(out.values[inner] - fprime[inner]))
        assert err <= 0.05 * (1.0 + np.max(np.abs(fprime)))

    def test_linearity(self):
        rng = np.random.default_rng(3)
        g = _grid(64)
        f1, f2 = rng.normal(size=65), rng.normal(size=65)
        a, b = 0.6, -1.9
        lhs = rl_left(GridFunction(g, a * f1 + b * f2), 0.4).values
        rhs = a * rl_left(GridFunction(g, f1), 0.4).values + b * rl_left(
            GridFunction(g, f2), 0.4
        ).values
        scale = 1.0 + np.max(np.abs(rhs[1:]))
        assert np.max(np.abs(lhs[1:] - rhs[1:])) / scale < 1e-13


class TestRlRight:
    def test_zero(self):
        g = _grid()
        out = rl_right(GridFunction(g, np.zeros(g.n + 1)), 0.5)
        assert np.all(out.values == 0.0)

    def test_constant_at_left_end(self):
        # mirror of the rl_left constant case: value 1/sqrt(pi) at theta=0
        g = _grid()
        out = rl_right(GridFunction(g, np.ones(g.n + 1)), 0.5)
        assert out.values[0] == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)
        assert out.flags[-1]

    def test_mirror_identity_exact(self):
        rng = np.random.default_rng(11)
        g = _grid(96)
        vals = rng.normal(size=97)
        beta = 0.55
        right = rl_right(GridFunction(g, vals), beta)
        reflected = rl_left(GridFunction(g, vals[::-1]), beta)
        assert np.array_equal(right.values, reflected.values[::-1])


class TestCresson:
    def _smooth(self, n=128):
        g = _grid(n)
        return g, GridFunction(g, np.sin(2 * g.nodes) + np.cos(g.nodes))

    def test_gamma_minus_i_is_left(self):
        g, f = self._smooth()
        out = cresson(f, OrderSet.for_1d(0.4, 0.7, -1j))
        left = rl_left(f, 0.4)
        assert np.array_equal(out.values, left.values.astype(complex))
        assert np.array_equal(out.flags, left.flags)

    def test_gamma_plus_i_is_minus_right(self):
        g, f = self._smooth()
        out = cresson(f, OrderSet.for_1d(0.4, 0.7, 1j))
        right = rl_right(f, 0.7)
        assert np.array_equal(out.values, (-right.values).astype(complex))
        assert np.array_equal(out.flags, right.flags)

    def test_linear_combination_identity(self):
        rng = np.random.default_rng(5)
        g, f = self._smooth()
        for _ in range(4):
            gw = complex(rng.normal(), rng.normal())
            out = cresson(f, OrderSet.for_1d(0.4, 0.7, gw))
            combo = 0.5 * (1 + 1j * gw) * rl_left(f, 0.4).values + 0.5 * (
                1j * gw - 1
            ) * rl_right(f, 0.7).values
            scale = 1.0 + np.max(np.abs(combo[1:-1]))
            assert np.max(np.abs(out.values[1:-1] - combo[1:-1])) / scale < 1e-13

    def test_classical_derivative_limit(self):
        # f = theta^2 on [0,1], orders ~1, gamma=-i: value ~ 2 theta
        g = _grid(512)
        f = GridFunction(g, g.nodes**2)
        out = cresson(f, OrderSet.for_1d(0.999, 0.999, -1j))
        mid = g.n // 2
        assert abs(out.values[mid] - 1.0) < 0.02

    def test_linearity(self):
        rng = np.random.default_rng(13)
        g = _grid(64)
        f1, f2 = rng.normal(size=65), rng.normal(size=65)
        orders = OrderSet.for_1d(0.3, 0.8, 0.2 + 0.4j)
        a, b = 1.1, -0.3
        lhs = cresson(GridFunction(g, a * f1 + b * f2), orders).values
        rhs = a * cresson(GridFunction(g, f1), orders).values + b * cresson(
            GridFunction(g, f2), orders
        ).values
        scale = 1.0 + np.max(np.abs(rhs[1:-1]))
        assert np.max(np.abs(lhs[1:-1] - rhs[1:-1])) / scale < 1e-13


class TestAxisCresson:
    def test_zero_field(self):
        g = _grid(16)
        q = GridFunctionND((g, g), np.zeros((17, 17)))
        out = axis_cresson(q, 0, OrderSet.for_2d(0.5, 0.5, 0.5, 0.5, -1j))
        assert np.all(out.values == 0.0)
        assert not out.flags.any()

    def test_one_axis_orders_on_a_plane_is_a_domain_error(self):
        g = _grid(8)
        field = GridFunctionND((g, g), np.zeros((9, 9)))
        for axis in (0, 1):
            with pytest.raises(DomainError, match="OrderSet has 1 axes but "
                                                  "the field has 2"):
                axis_cresson(field, axis, OrderSet.for_1d(0.5, 0.5, -1j))

    def test_constant_in_y_matches_1d_per_line(self):
        # q(x, y) = g(x): applying the operator along y sees constant lines
        gx, gy = _grid(20), _grid(24)
        line = np.sin(gx.nodes)
        field = GridFunctionND((gx, gy), np.tile(line[:, None], (1, 25)))
        orders = OrderSet.for_2d(0.4, 0.6, 0.5, 0.7, 0.3 - 0.2j)
        out = axis_cresson(field, 1, orders)
        # per-line reference: 1D operator on the constant restriction
        yorders = OrderSet.for_1d(0.6, 0.7, 0.3 - 0.2j)
        for i in (0, 5, 13):
            ref = cresson(GridFunction(gy, np.full(25, line[i])), yorders)
            assert np.array_equal(out.values[i, :], ref.values)

    def test_identity_field_along_x(self):
        # q(x,y) = x, orders (0.5, 0.5), gamma=-i: every y line sees D^0.5 x
        gx, gy = _grid(64), _grid(32)
        X, _ = np.meshgrid(gx.nodes, gy.nodes, indexing="ij")
        field = GridFunctionND((gx, gy), X)
        out = axis_cresson(field, 0, OrderSet.for_2d(0.5, 0.5, 0.5, 0.5, -1j))
        expected = 1.0 / math.gamma(1.5)
        assert np.allclose(out.values[-1, :], expected, rtol=1e-12)

    def test_flag_planes(self):
        gx, gy = _grid(16), _grid(16)
        field = GridFunctionND((gx, gy), np.ones((17, 17)))
        orders = OrderSet.for_2d(0.5, 0.5, 0.5, 0.5, 0.2 + 0.1j)
        out = axis_cresson(field, 0, orders)
        assert out.flags[0, :].all() and out.flags[-1, :].all()
        assert not out.flags[1:-1, :].any()


class TestLineKernel:
    """The batched line kernel against the direct sum and single lines."""

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_rows_match_single_lines_across_batches(self, complex_field):
        # 300 lines of 257 nodes span several transform batches
        rng = np.random.default_rng(17)
        gx, gy = _grid(299), _grid(256)
        vals = rng.normal(size=(300, 257))
        if complex_field:
            vals = vals + 1j * rng.normal(size=(300, 257))
        orders = OrderSet.for_2d(0.3, 0.45, 0.6, 0.8, 0.4 - 0.7j)
        out = axis_cresson(GridFunctionND((gx, gy), vals), 1, orders)
        yorders = OrderSet.for_1d(0.45, 0.8, 0.4 - 0.7j)
        for i in range(300):
            ref = cresson(GridFunction(gy, vals[i]), yorders)
            assert np.array_equal(out.values[i], ref.values), i

    @pytest.mark.parametrize("alpha", [0.25, 0.75])
    @pytest.mark.parametrize("path", ["smooth", "random"])
    def test_accuracy_against_direct_sum(self, alpha, path):
        g = _grid(16384)
        if path == "smooth":
            vals, tol = 1.2 * g.nodes**1.6, 1e-14
        else:
            slopes = np.random.default_rng(23).normal(size=g.n)
            vals, tol = np.concatenate(([0.0], np.cumsum(slopes) * g.h)), 1e-13
        out = rl_left(GridFunction(g, vals), alpha).values
        ref = _direct_rl_left(vals, g.h, alpha)
        assert np.max(np.abs(out - ref)) / (1.0 + np.max(np.abs(ref))) < tol

    @pytest.mark.parametrize("complex_line", [False, True])
    @pytest.mark.parametrize("path", ["smooth", "random"])
    def test_two_sided_accuracy_against_direct_sum(self, complex_line, path):
        # both sides of the combined operator come from one transform of the
        # slopes; against w_l L + w_r R of the direct sums it keeps the
        # one-sided bounds
        g = _grid(16384)
        if path == "smooth":
            vals, tol = 1.2 * g.nodes**1.6, 1e-14
            if complex_line:
                vals = vals + 1j * (0.5 - np.cos(3 * g.nodes))
        else:
            slopes = np.random.default_rng(23).normal(size=(2, g.n))
            walks = np.cumsum(slopes, axis=1) * g.h
            vals, tol = np.concatenate(([0.0], walks[0])), 1e-13
            if complex_line:
                vals = vals + 1j * np.concatenate(([0.0], walks[1]))
        for alpha, beta, gw in ((0.25, 0.75, 0.3 - 0.6j), (0.75, 0.25, -1.7 + 0.2j)):
            out = cresson(GridFunction(g, vals), OrderSet.for_1d(alpha, beta, gw))
            left = _direct_rl_left(vals, g.h, alpha)
            right = _direct_rl_left(vals[::-1], g.h, beta)[::-1]
            ref = 0.5 * (1 + 1j * gw) * left + 0.5 * (1j * gw - 1) * right
            err = np.max(np.abs(out.values - ref)) / (1.0 + np.max(np.abs(ref)))
            assert err < tol, (alpha, beta, err)

    def test_inf_at_flagged_end_stays_local_left(self):
        g = _grid(64)
        vals = np.sin(3 * g.nodes) + 0.5
        vals[-1] = np.inf
        flags = np.zeros(g.n + 1, dtype=bool)
        flags[-1] = True
        out = rl_left(GridFunction(g, vals, flags), 0.4)
        assert np.array_equal(out.values, _direct_rl_left(vals, g.h, 0.4))
        assert np.isfinite(out.values[:-1]).all()

    def test_inf_at_flagged_start_stays_local_right(self):
        g = _grid(64)
        vals = np.sin(3 * g.nodes) + 0.5
        vals[0] = np.inf
        flags = np.zeros(g.n + 1, dtype=bool)
        flags[0] = True
        out = rl_right(GridFunction(g, vals, flags), 0.6)
        ref = _direct_rl_left(vals[::-1], g.h, 0.6)[::-1]
        assert np.array_equal(out.values, ref)
        assert np.isfinite(out.values[1:]).all()

    def test_inf_line_among_finite_lines(self):
        gx, gy = _grid(6), _grid(64)
        X, Y = np.meshgrid(gx.nodes, gy.nodes, indexing="ij")
        vals = np.sin(X + 2 * Y)
        vals[2, -1] = np.inf
        flags = np.zeros(vals.shape, dtype=bool)
        flags[2, -1] = True
        # gamma = -i keeps only the left operator, with weight 1 + 0i; the
        # real line enters the real part alone, so the inf stays inf + 0i
        out = axis_cresson(
            GridFunctionND((gx, gy), vals, flags), 1,
            OrderSet.for_2d(0.5, 0.35, 0.5, 0.7, -1j),
        )
        ref = _direct_rl_left(vals[2], gy.h, 0.35) + 0j
        assert np.array_equal(out.values[2], ref)
        assert out.values[2, -1] == complex(np.inf, 0.0)
        assert np.isfinite(out.values[2, :-1]).all()
        assert np.isfinite(np.delete(out.values, 2, axis=0)).all()

    @pytest.mark.parametrize("gamma_w", [1j, 0.3 + 0.2j])
    def test_inf_start_of_right_operator_is_a_grid_error(self, gamma_w):
        # the right operator reflects the line, so the inf becomes an
        # infinite start value against an infinite first slope: the
        # derivative is indeterminate and the unflagged nodes say so
        gx, gy = _grid(6), _grid(64)
        X, Y = np.meshgrid(gx.nodes, gy.nodes, indexing="ij")
        vals = np.sin(X + 2 * Y)
        vals[2, -1] = np.inf
        flags = np.zeros(vals.shape, dtype=bool)
        flags[2, -1] = True
        with pytest.raises(GridError, match="non-finite value at unflagged node"):
            axis_cresson(GridFunctionND((gx, gy), vals, flags), 1,
                         OrderSet.for_2d(0.5, 0.35, 0.5, 0.7, gamma_w))

    def test_a_non_finite_row_applies_each_side_on_its_own(self):
        # with both weights nonzero, the row holding an inf keeps the
        # per-side path; the other rows keep the bits they have alone
        vals = np.random.default_rng(31).normal(size=(5, 65))
        vals[2, -1] = np.inf
        pair, gw, h = (0.35, 0.7), 0.3 + 0.2j, 1.0 / 64
        out, start, end = fracops._cresson_lines(vals, h, pair, gw)
        weights = 0.5 * (1 + 1j * gw), 0.5 * (1j * gw - 1)
        ref = fracops._per_side_lines(vals[2:3], h, pair, *weights)[0]
        assert np.array_equal(out[2:3], ref, equal_nan=True)
        for i in (0, 1, 3, 4):
            alone = fracops._cresson_lines(vals[i:i + 1], h, pair, gw)[0]
            assert np.array_equal(out[i:i + 1], alone)
        assert np.array_equal(start, vals[:, 0] != 0)
        assert np.array_equal(end, vals[:, -1] != 0)

    def test_import_leaves_fft_unloaded(self):
        code = (
            "import sys, falva, falva.cli\n"
            "falva.cli._build_parser()\n"
            "assert 'numpy.fft' not in sys.modules, 'numpy.fft was imported'\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def _plan_cases():
    """(name, thunk) pairs covering every caller of the kernel plan: the
    one-sided operators, the combined one in 1D, 2D and 3D, and a residual
    at alpha = beta and alpha != beta."""
    g = _grid(96)
    f = GridFunction(g, 1.0 + np.sin(3 * g.nodes))
    gx, gy, gz = _grid(12), _grid(16, t=2.0), _grid(10)
    X, Y = np.meshgrid(gx.nodes, gy.nodes, indexing="ij")
    field2 = GridFunctionND((gx, gy), np.cos(X + 2 * Y) + 1j * X * Y)
    X3, Y3, Z3 = np.meshgrid(gx.nodes, gx.nodes, gz.nodes, indexing="ij")
    field3 = GridFunctionND((gx, gx, gz), X3 * Y3 + np.sin(Z3))
    orders2 = OrderSet.for_2d(0.3, 0.45, 0.6, 0.45, 0.4 - 0.7j)
    orders3 = OrderSet.for_nd((0.3, 0.3, 0.7), (0.6, 0.3, 0.5), 1j)
    L = parse("qdot^2/2 - q^2/2 + tau*q")
    path = GridFunction(g, g.nodes ** 1.5)
    return [
        ("rl_left", lambda: rl_left(f, 0.35)),
        ("rl_right", lambda: rl_right(f, 0.65)),
        ("cresson", lambda: cresson(f, OrderSet.for_1d(0.35, 0.65, 0.2 + 0.9j))),
        *[(f"axis_cresson_2d[{ax}]", lambda ax=ax: axis_cresson(field2, ax, orders2))
          for ax in range(2)],
        *[(f"axis_cresson_3d[{ax}]", lambda ax=ax: axis_cresson(field3, ax, orders3))
          for ax in range(3)],
        ("residual alpha=beta", lambda: el_residual_1d_cresson(
            L, path, OrderSet.for_1d(0.5, 0.5, 0.3 - 0.6j)).residual),
        ("residual alpha!=beta", lambda: el_residual_1d_cresson(
            L, path, OrderSet.for_1d(0.3, 0.7, 0.3 - 0.6j)).residual),
    ]


class TestKernelPlan:
    """The memoized (nseg, h, order) kernel plan of the line kernel."""

    @pytest.mark.parametrize("name", [name for name, _ in _plan_cases()])
    def test_cold_and_warm_cache_give_the_same_bits(self, name):
        thunk = dict(_plan_cases())[name]
        fracops._line_kernel.cache_clear()
        cold = thunk()
        warm = thunk()
        assert fracops._line_kernel.cache_info().hits > 0
        assert np.array_equal(cold.values, warm.values)
        assert np.array_equal(cold.flags, warm.flags)

    def test_cached_arrays_are_read_only(self):
        fracops._line_kernel.cache_clear()
        kern, spec, size, boundary = fracops._line_kernel(8, 0.125, 0.5)
        assert size == 16
        for arr in (kern, spec, boundary):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        assert fracops._line_kernel(8, 0.125, 0.5)[0] is kern

    def test_cache_size_is_pinned(self):
        # the cache keeps six plans, the keys of a 3D field, and at most
        # 512 MB of them: four plans of a line at the command line's
        # 2^22-node cap, 128 MB each
        assert fracops._KERNEL_PLANS == 6
        assert fracops._KERNEL_PLAN_BYTES == 2**29 == 512 * 2**20
        nseg = 2**22 - 1
        size = 1 << (2 * nseg - 2).bit_length()
        cap_plan = 2 * 8 * nseg + 16 * (size // 2 + 1)
        assert cap_plan == 128 * 2**20
        assert fracops._KERNEL_PLAN_BYTES // cap_plan == 4
        # the bytes counted are those of the plan's arrays
        fracops._line_kernel.cache_clear()
        fracops._line_kernel(8, 0.125, 0.5)
        assert fracops._line_kernel.cache_info().used == 8 * 8 + 16 * 9 + 8 * 8

    def test_the_six_keys_of_a_3d_field_are_built_once_each(self):
        # three axes with two orders each: the forward and adjoint sides
        # share the six plans, which a cache of four plans rebuilt each time
        g = _grid(12)
        X, Y, Z = np.meshgrid(g.nodes, g.nodes, g.nodes, indexing="ij")
        field = GridFunctionND((g, g, g), X * Y + np.sin(Z) + 1.0)
        orders = OrderSet.for_nd((0.3, 0.4, 0.5), (0.6, 0.7, 0.8), 0.3 + 0.2j)
        fracops._line_kernel.cache_clear()
        el_residual_nd(parse("(qx1^2 + qx2^2 + qx3^2)/2 - q^2/2"), field, orders,
                       (1.0, 1.0, 1.0))
        assert fracops._line_kernel.cache_info()[:2] == (6, 6)

    def test_a_plan_over_the_budget_is_not_kept(self):
        # the least recently used plans go first, and a plan larger than the
        # whole budget is returned without being kept
        build = fracops._line_kernel.__wrapped__
        plan_bytes = fracops._plan_bytes(build(16, 0.0625, 0.5))
        limited = fracops._plan_cache(6, 2 * plan_bytes)(build)
        for order in (0.3, 0.4, 0.3, 0.5, 0.3):
            limited(16, 0.0625, order)
        assert limited.cache_info() == (2, 3, 2, 2 * plan_bytes)
        limited(16, 0.0625, 0.4)  # evicted by 0.5: 0.3 was used later
        assert limited.cache_info()[:2] == (2, 4)
        limited(64, 0.0625, 0.5)
        assert limited.cache_info()[2:] == (2, 2 * plan_bytes)

    def test_the_plan_count_is_bounded_too(self):
        # small plans are kept up to the count, not up to the byte budget
        build = fracops._line_kernel.__wrapped__
        plan_bytes = fracops._plan_bytes(build(16, 0.0625, 0.5))
        limited = fracops._plan_cache(2, 2**29)(build)
        for order in (0.3, 0.4, 0.5, 0.4):
            limited(16, 0.0625, order)
        assert limited.cache_info() == (1, 3, 2, 2 * plan_bytes)
        limited(16, 0.0625, 0.3)  # the oldest plan went when the third came
        assert limited.cache_info()[:2] == (1, 4)

    def test_residual_at_equal_orders_builds_one_kernel(self, monkeypatch):
        # forward left and right and the adjoint's left and right share one
        # plan: one kernel spectrum (the only 1-D transform) instead of four;
        # each line's two sides come from one transform of its slopes
        shapes = []
        rfft = np.fft.rfft

        def counted(a, *args, **kwargs):
            shapes.append(np.ndim(a))
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counted)
        fracops._line_kernel.cache_clear()
        g = _grid(64)
        el_residual_1d_cresson(parse("qdot^2/2 - q^2/2"),
                               GridFunction(g, g.nodes ** 1.5),
                               OrderSet.for_1d(0.5, 0.5, 0.3 - 0.6j))
        assert shapes.count(1) == 1
        assert fracops._line_kernel.cache_info().misses == 1
        # the path's line and the complex momentum's two parts
        assert shapes.count(2) == 3
