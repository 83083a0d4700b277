"""The vectorised float formatter: every field equals Python's '%.17g'."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from falva import csvfmt


def _texts(values) -> list:
    """The fields of ``values`` as strings, NUL bytes dropped."""
    fields, _ = csvfmt.fields(np.asarray(values, dtype=np.float64))
    return [field[field != 0].tobytes().decode() for field in fields]


def _joined(values) -> bytes:
    """The fields of ``values``, NUL bytes dropped, one a line."""
    fields, _ = csvfmt.fields(values)
    lines = np.zeros((len(values), fields.shape[1] + 1), dtype=np.uint8)
    lines[:, :-1] = fields
    lines[:, -1] = ord("\n")
    return lines[lines != 0].tobytes()


def _reference(values) -> list:
    return ["%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


SMALLEST_NORMAL = 2.2250738585072014e-308
LARGEST_SUBNORMAL = np.nextafter(SMALLEST_NORMAL, 0.0)
TIE = 2.0**-25  # 2.98023223876953125e-08: an exact tie at the 18th digit

EDGES = [
    0.0, -0.0, 5e-324, -5e-324, LARGEST_SUBNORMAL, SMALLEST_NORMAL,
    1.7976931348623157e308, -1.7976931348623157e308, TIE, -TIE,
    np.nextafter(1e17, 0.0), 1e16, 1e17, np.nextafter(1e16, 0.0),
    np.nextafter(1e17, np.inf),
    # the switches of %g between the fixed and the exponent form
    1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0),
    1e-5, np.nextafter(1e-5, 0.0), np.nextafter(1e-5, 1.0),
    1e100, 1e-100, -1e100, 1e22, 1e23, 0.1, 0.5, 1.0, 10.0, 1 / 3, 2 / 3,
    # below 10^-79, it rounds up into the next decade: '1e-79'
    1e-79,
    float("nan"), float("inf"), -float("inf"),
]


def test_the_edge_values_are_the_bytes_of_percent_g():
    assert _texts(EDGES) == _reference(EDGES)
    assert Fraction(1e-79) < Fraction(1, 10**79) and "%.17g" % 1e-79 == "1e-79"


def test_the_fallback_fires_on_a_tie_and_on_subnormals():
    for value in (TIE, -TIE, 5e-324, LARGEST_SUBNORMAL):
        assert csvfmt.fields(np.array([value]))[1] == 1, value
    for value in (SMALLEST_NORMAL, 0.1, 0.0, -0.0, 1e16):
        assert csvfmt.fields(np.array([value]))[1] == 0, value


def test_empty_and_strided_input():
    fields, fallback = csvfmt.fields(np.array([]))
    assert fields.shape == (0, csvfmt.WIDTH) and fallback == 0
    grid = np.linspace(-3.0, 7.0, 41).reshape(41, 1) * np.ones((1, 3))
    assert _texts(grid[:, 1]) == _reference(grid[:, 1])


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1,
                max_size=40))
def test_any_floats_are_the_bytes_of_percent_g(values):
    assert _texts(values) == _reference(values)


def test_a_million_random_bit_patterns_are_the_bytes_of_percent_g():
    # every exponent, sign and mantissa, NaN and subnormal included, in
    # blocks of the CSV writer's size
    rng = np.random.default_rng(20261019)
    values = rng.integers(0, 2**64, size=2**20, dtype=np.uint64).view(np.float64)
    for block in np.split(values, 128):
        expected = "".join(f"{text}\n" for text in _reference(block)).encode()
        assert _joined(block) == expected


def test_random_decimals_of_every_scale_are_the_bytes_of_percent_g():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(2**15) * 10.0 ** rng.integers(-30, 30, 2**15)
    values[::7] = np.round(values[::7], 3)  # short decimals, trailing zeros
    expected = "".join(f"{text}\n" for text in _reference(values)).encode()
    assert _joined(values) == expected
