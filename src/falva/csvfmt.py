"""Exact ``'%.17g'`` formatting of float64 arrays, for the CSV writer.

``fields(x)`` gives one NUL-padded byte field per value of a float64
array: its bytes other than NUL are ``('%.17g' % value).encode()``.  The
CSV writer drops every NUL when it joins the fields into rows.

A finite normal value |x| = m 2^e (m < 2^53) is printed from the 17-digit
integer D = round(|x| 10^p), p = 16 - floor(log10 |x|), found without big
numbers (fixed-precision printing by multiplication with cached powers of
ten, as in Adams, "Ryu revisited", 2019).  10^p is truncated to a 96-bit
integer c_p = floor(10^p 2^-k_p) in [2^95, 2^96), built from Python
integers for each p that occurs and cached.  m is shifted left by
u = 96 + e + k_p bits (0 <= u <= 6 when the decade is right), so the
truncated D is the product m 2^u c_p shifted right by 96 bits; the product
is formed from 32-bit limbs held in uint64 arrays, without the partial
products that only reach its low 64 bits.  The truncation of c_p and
those partial products make bits 64 to 95 of the product too small by at
most 3, so they tell rounding down from rounding up unless they lie within
3 below 2^31 or at 2^31, exact ties included.  Such a value goes through
Python's ``'%.17g'``, one by one, and so do a value whose decade estimate
was off (the truncated D outside [10^16, 10^17), or a D that rounds up to
10^17), a subnormal value, ±inf and NaN.  ±0 is written directly.

The digits come four at a time from a table of the 10^4 four-digit
strings.  A field is four uint64 words: the sign, "0.000" (the fixed form
below 1), 18 places for the digits and the point, then "e", the
exponent's sign and three exponent digits; the three bytes after those
are not returned.  The digits are laid out twice, from the first of the
18 places and from the second, and the ``%g`` layout (fixed or exponent
form, trailing zeros and a bare point dropped) is one row of a small
pattern table per value: masks of the bytes taken from each layout and
from the exponent word, and the constant bytes ("0.000", the point).
Every other byte is NUL.

Every uint64 operation has uint64 operands: numpy 1 and numpy 2 alike
turn a mixed int64/uint64 operation into float64.
"""

from __future__ import annotations

import functools

import numpy as np

_U64 = np.uint64
_LOW = _U64(0xFFFFFFFF)
_8, _31, _32, _52, _56, _63 = (_U64(s) for s in (8, 31, 32, 52, 56, 63))

# the byte places of a field, four uint64 words, of which the first WIDTH
# bytes are returned
_PREFIX, _DIGITS, _E = 1, 6, 24
WIDTH = _E + 5

# pattern rows: (X + 4) * 17 + nz - 1 for the fixed form, -4 <= X <= 16,
# with X the decimal exponent and nz the digits up to the last nonzero one;
# then _FIXED_ROWS + nz - 1 for the exponent form with two exponent digits,
# and 17 rows on for three
_FIXED_ROWS = 21 * 17

# decimal exponents X of a double, as indices X + _X0 of ``_exponents``
_X0 = 330


@functools.cache
def _power(p: int) -> tuple:
    """The 32-bit limbs, low first, of c_p = floor(10^p 2^-k_p) in
    [2^95, 2^96), and 96 - 1075 + k_p modulo 2^64: the shift u of m less
    the biased binary exponent."""
    if p >= 0:
        k = (10**p).bit_length() - 96
        c = 10**p >> k if k >= 0 else 10**p << -k
    else:
        k = -95 - (10**-p).bit_length()
        c = (1 << -k) // 10**-p
    return c & 0xFFFFFFFF, c >> 32 & 0xFFFFFFFF, c >> 64, (96 - 1075 + k) % 2**64


# The tables below are built with the uint64 operations that ``_decimal``
# and ``_layout`` use anyway, or from Python objects: each numpy loop used
# for the first time pages in some of numpy's code, and loops used nowhere
# else would cost more resident memory than the tables themselves.

@functools.cache
def _quads() -> tuple:
    """The four ASCII digits of 0..9999 as the bytes of little-endian
    uint64 (the first digit lowest), and the count of trailing zero digits
    of each (4 for 0)."""
    i = np.arange(10_000, dtype=_U64)
    text, zeros = np.zeros_like(i), np.zeros_like(i)
    for place in range(4):
        high = i // _U64(10 ** (3 - place))
        high -= high // _U64(10) * _U64(10)
        high += _U64(ord("0"))
        high <<= _U64(8 * place)
        text |= high
        zeros += i // _U64(10 ** (place + 1)) * _U64(10 ** (place + 1)) == i
    return text, zeros


@functools.cache
def _exponents() -> tuple:
    """By decimal exponent X (index X + _X0): the pattern row of X with all
    17 digits shown, and the exponent word "e", sign and three digits,
    bytes 24 to 28 of a field."""
    x = range(-_X0, _X0)
    full = [(e + 4) * 17 + 16 if -4 <= e <= 16
            else _FIXED_ROWS + 17 * (abs(e) >= 100) + 16 for e in x]
    words = b"".join(b"e%+04d\0\0\0" % e for e in x)
    return np.array(full, dtype=_U64), np.frombuffer(words, dtype=_U64)


@functools.cache
def _patterns() -> np.ndarray:
    """Ten uint64 words per layout row, as a (10, rows) array: the masks of
    the bytes kept from the first layout (words 0 to 3, the last the
    exponent word) and from the second (4 to 6), and the constant bytes
    (7 to 9)."""
    first = np.zeros((_FIXED_ROWS + 34, 32), dtype=np.uint8)
    second, const = np.zeros_like(first), np.zeros_like(first)
    first[:, 0] = 0xFF  # the sign
    for row in range(len(first)):
        nz = row % 17 + 1
        if row < _FIXED_ROWS:
            x = row // 17 - 4
            whole = nz if x < 0 else x + 1  # digits before the point
            if x < 0:
                const[row, _PREFIX:_PREFIX + 1 - x] = list(b"0." + b"0" * (-x - 1))
        else:
            whole = 1
            digits = 2 if row < _FIXED_ROWS + 17 else 3
            first[row, _E:_E + 2] = first[row, _E + 5 - digits:_E + 5] = 0xFF
        first[row, _DIGITS:_DIGITS + whole] = 0xFF
        if nz > whole:
            const[row, _DIGITS + whole] = ord(".")
            second[row, _DIGITS + whole + 1:_DIGITS + nz + 1] = 0xFF
    words = [table.view(_U64) for table in (first, second, const)]
    return np.concatenate([words[0], words[1][:, :3], words[2][:, :3]],
                          axis=1).T.copy()


def _python(values) -> np.ndarray:
    """The fields of ``values`` through Python's formatter, one by one."""
    text = [("%.17g" % v).encode() for v in values.tolist()]
    return np.array(text, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)


def _decimal(bits) -> tuple:
    """(D, X, exact) of the float64 values with the bit patterns ``bits``:
    D = round(|x| 10^(16 - X)) as uint64, X the decimal exponent, and
    whether the two are proven (see the module notes).  The steps work in
    place where they can, so that few arrays of len(bits) live at once."""
    biased = bits >> _52
    biased &= _U64(0x7FF)
    normal = biased - _U64(1) < _U64(0x7FE)
    # the decade; a wrong one gives a D outside [10^16, 10^17) below
    magnitude = np.abs(bits.view(np.float64))
    magnitude[~normal] = 1.0
    np.floor(np.log10(magnitude, out=magnitude), out=magnitude)
    decade = magnitude.astype(np.int64)
    del magnitude
    lo, hi = 16 - int(decade.max()), 16 - int(decade.min())
    powers = np.array([_power(p) for p in range(lo, hi + 1)], dtype=_U64).T
    index = 16 - lo - decade
    c0, c1, c2, u = (np.take(column, index) for column in powers)
    del index
    u += biased
    exact = u <= _U64(6)
    exact &= normal
    del biased, normal
    u &= _U64(7)
    m = bits & _U64(2**52 - 1)
    m |= _U64(2**52)
    m <<= u  # m 2^u, as m0 + 2^32 m1
    m1 = m >> _32
    m &= _LOW
    # the product's 32-bit columns 2 and 3 (bits 64 to 127) and its top,
    # from the partial products m_i c_j with i + j >= 1
    col2 = m * c1
    col2 >>= _32
    part = m1 * c0
    part >>= _32
    col2 += part
    p02, p11, p12 = m * c2, m1 * c1, m1 * c2
    del m, m1, c0, c1, c2
    for p in (p02, p11):
        np.bitwise_and(p, _LOW, out=part)
        col2 += part
        p >>= _32
    col3 = p02
    col3 += p11
    del p02, p11
    np.bitwise_and(p12, _LOW, out=part)
    col3 += part
    np.right_shift(col2, _32, out=part)
    col3 += part
    d = p12
    d &= ~_LOW
    d += col3  # D, truncated
    del col3, p12
    below = col2
    below &= _LOW  # bits 64 to 95 of the product
    np.subtract(d, _U64(10**16), out=part)
    exact &= part < _U64(9 * 10**16)
    np.subtract(below, _U64(2**31 - 3), out=part)
    exact &= part > _U64(3)
    below >>= _31
    d += below
    exact &= d != _U64(10**17)
    return d, decade, exact


def _layout(d, decade, negative) -> np.ndarray:
    """The (len(d), 4) uint64 field words of the 17-digit integers ``d``,
    which it overwrites, with decimal exponents ``decade`` and a sign where
    ``negative`` is 1."""
    quads, trailing = _quads()
    # D as its lead digit and four groups of four, g4 the last
    lead = d // _U64(10**16)
    d -= lead * _U64(10**16)
    g12 = d // _U64(10**8)
    d -= g12 * _U64(10**8)
    g1, g3 = g12 // _U64(10**4), d // _U64(10**4)
    g2, g4 = g12, d
    g2 -= g1 * _U64(10**4)
    g4 -= g3 * _U64(10**4)
    del g12, d
    zeros = np.take(trailing, g4)
    more = np.flatnonzero(g4 == _U64(0))
    for g in (g3, g2, g1):  # all zero but the lead digit: rare
        if more.size:
            extra = np.take(trailing, g[more])
            zeros[more] += extra
            more = more[extra == 4]
    full_row, exponent = _exponents()
    index = decade + _X0
    row = np.take(full_row, index)
    row -= zeros
    del zeros

    # the digits from byte 7 on (the second layout), as words 0 to 2, and
    # from byte 6 on (the first), with the sign at byte 0
    lead += _U64(ord("0"))
    lead <<= _56
    second = [lead, np.take(quads, g2), np.take(quads, g4)]
    second[1] <<= _32
    second[1] |= np.take(quads, g1)
    second[2] <<= _32
    second[2] |= np.take(quads, g3)
    del g1, g2, g3, g4, lead
    first = [second[0] >> _8, second[1] >> _8, second[2] >> _8]
    first[0] |= second[1] << _56
    first[0] |= negative * _U64(ord("-"))
    first[1] |= second[2] << _56
    patterns = _patterns()
    out = np.empty((len(row), 4), dtype=_U64)
    for i in range(3):
        first[i] &= np.take(patterns[i], row)
        second[i] &= np.take(patterns[4 + i], row)
        first[i] |= second[i]
        first[i] |= np.take(patterns[7 + i], row)
        out[:, i] = first[i]
        first[i] = second[i] = None
    out[:, 3] = np.take(exponent, index) & np.take(patterns[3], row)
    return out


def fields(x) -> tuple:
    """(fields, fallback): the ``'%.17g'`` field of each value of the float64
    array ``x``, in order, as a (x.size, WIDTH) uint8 array, NUL-padded, and
    the count of values that went through Python's formatter."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    if not x.size:
        return np.zeros((0, WIDTH), dtype=np.uint8), 0
    bits = x.view(_U64)
    d, decade, exact = _decimal(bits)
    out = _layout(d, decade, bits >> _63).view(np.uint8)[:, :WIDTH]
    redo = np.flatnonzero(~exact)
    is_zero = (bits[redo] << _U64(1)) == _U64(0)
    zero = redo[is_zero]  # ±0, written here
    out[zero] = 0
    out[zero, _DIGITS] = ord("0")
    out[zero, 0] = (bits[zero] >> _63).astype(np.uint8) * np.uint8(ord("-"))
    redo = redo[~is_zero]
    if redo.size:
        out[redo] = _python(x[redo])
    return out, int(redo.size)
