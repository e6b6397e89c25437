"""``repr`` of every float of a long float64 column at once.

``reprs(values)`` is ``list(map(repr, values.tolist()))`` byte for byte.  A
short column takes that per-value path.  A long one is spelled by a numpy
kernel: each |x| is scaled by 10**(16 - k), k its decimal exponent, to a
double-double y in [1e16, 1e17).  The shortest digits that read back as x
are the largest power of ten with a multiple inside x's rounding interval
around y; of those multiples the one nearest y is kept.  This is the spelling
``repr`` prints.  The digit search runs only on the magnitudes inside
(_TINY, _HUGE): zeros, inf and nan, such as a tongue's masked cells, have
fixed layouts and are never searched.  The digits are laid out in one byte
buffer, decoded once and split once.  Values the double-double cannot
decide are left to ``repr``: a rounding bound or a tie within ``_MARGIN``
of y, and magnitudes outside (_TINY, _HUGE).
"""

from __future__ import annotations

import functools

import numpy as np

# Columns shorter than this are spelled one value at a time: the kernel's
# fixed cost of some seventy numpy calls (about 0.25 ms) matches repr's
# ~0.9 us a value at 400-550 random values, and from 1024 on the kernel is
# 1.5-2.2x faster (2-core x86-64 host, numpy 2.4, medians of 201 calls).
_KERNEL_MIN = 1024
# A long column is spelled a block at a time, which keeps the kernel's
# temporaries small beside the cells it returns.
_BLOCK = 8192

# Within these bounds every scaled product and Veltkamp split below is a
# normal, finite double.
_TINY, _HUGE = 1e-280, 1e280

# y is known to about 1e-14 units of its last integer digit. A rounding
# bound or a tie this close to an integer or a half is left to repr.
_MARGIN = 1e-6

_POW10 = 10 ** np.arange(18, dtype=np.int64)
_SPLIT = 2.0**27 + 1.0  # Veltkamp's constant for 53-bit doubles

# One output row of six 64-bit words: sign, the "0.000" of 1e-4 <= |x| < 0.1,
# 17 digits with a possible '.' after each of the first 16, the '0' of
# "123.0", the exponent, a separator and two bytes of padding.
_ROW = np.frombuffer(b"-0.000" + b"0." * 16 + b"0" + b"0e+000 \0\0", dtype=np.uint8)
_DIGITS = slice(6, 39, 2)
_POINTS = slice(7, 39, 2)
_EXPONENT = slice(42, 45)
# A row's layout depends on its sign, digit count and form. Forms 0..19 are
# fixed notation at k = -4..15; 20..23 are scientific with a '+' or '-'
# exponent of two or three digits, spelled here at these k; then inf and nan.
_FORM_K = np.append(np.arange(-4, 16), [16, 100, -5, -100])
_INF, _NAN = len(_FORM_K), len(_FORM_K) + 1
_FORMS = len(_FORM_K) + 2


@functools.cache
def _pow10(e: int) -> tuple[float, float]:
    """10**e as a double-double (hi, lo), from exact integer arithmetic."""
    if e >= 0:
        exact = 10**e
        hi = float(exact)
        return hi, float(exact - int(hi))
    denominator = 10**-e
    hi = 1 / denominator
    num, den = hi.as_integer_ratio()
    return hi, (den - num * denominator) / (den * denominator)


@functools.cache
def _parts() -> np.ndarray:
    """Words to AND into a row, by index: 0..9999 the four digits of the
    index in words 1..4, 10000..10009 the first digit in word 0, and from
    10010 a three-digit exponent in word 5; 0xff bytes keep the row's own."""
    n = np.arange(10000)
    ascii_ = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")
    words = np.full((10000 + 10 + 1000, 8), 0xFF, dtype=np.uint8)
    words[:10000, 0::2] = ascii_
    words[10000:10010, 6] = ascii_[:10, 3]
    words[10010:, 2:5] = ascii_[:1000, 1:]
    return words.view(np.uint64).ravel()


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    big = _SPLIT * a
    hi = big - (big - a)
    return hi, a - hi


def _scaled(x: np.ndarray, k: np.ndarray):
    """x * 10**(16 - k) as s + t (s the rounded product), and 10**(16 - k)
    rounded to a double."""
    e10 = 16 - k
    first = int(e10.min())
    hi, lo = zip(*[_pow10(e) for e in range(first, int(e10.max()) + 1)])
    p_hi, p_lo = np.take(hi, e10 - first), np.take(lo, e10 - first)
    s = x * p_hi
    x_hi, x_lo = _split(x)
    p_hi_hi, p_hi_lo = _split(p_hi)
    # Dekker's two-product: s + err is x * p_hi exactly
    err = ((x_hi * p_hi_hi - s) + x_hi * p_hi_lo + x_lo * p_hi_hi) + x_lo * p_hi_lo
    return s, err + x * p_lo, p_hi


def _outside(s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where s + t lies below 1e16 and where at or above 1e17."""
    return (s < 1e16) | ((s == 1e16) & (t < 0)), (s > 1e17) | ((s == 1e17) & (t >= 0))


def _shortest(x: np.ndarray):
    """The shortest round-trip digits of positive floats x in (_TINY, _HUGE).

    Returns the digits as an int64 in [1e16, 1e17) padded with zeros, their
    count, the decimal exponent of the first digit, and where the result is
    certified; elsewhere the other three are meaningless.
    """
    k = np.floor(np.log10(x)).astype(np.int64)
    s, t, p = _scaled(x, k)
    # log10 can round across a power of ten: move k by one there
    low, high = _outside(s, t)
    moved = np.flatnonzero(low | high)
    if moved.size:
        k[moved] += high[moved].astype(np.int64) - low[moved]
        s[moved], t[moved], p[moved] = _scaled(x[moved], k[moved])
    low, high = _outside(s, t)
    ok = ~(low | high)
    s[~ok], t[~ok] = 1e16, 0.0
    floor_t = np.floor(t)
    y_int = s.astype(np.int64) + floor_t.astype(np.int64)
    f = t - floor_t  # y = y_int + f, f in [0, 1]
    # the rounding interval [y - h_lo, y + h]: half an ulp of x either side,
    # a quarter below a power of two. Its width lies between 1.1 and 23.
    bits = x.view(np.uint64)
    h = np.ldexp(p, (bits >> np.uint64(52)).astype(np.int64) - 1076)
    h_lo = np.where(bits & np.uint64(2**52 - 1) == 0, 0.5 * h, h)
    up, down = f + h, f - h_lo
    ok &= (np.abs(up - np.round(up)) > _MARGIN) & (np.abs(down - np.round(down)) > _MARGIN)
    top = y_int + np.floor(up).astype(np.int64)
    bottom = y_int + np.ceil(down).astype(np.int64)
    # j: the largest power of ten with a multiple in [bottom, top], and the
    # quotients of the interval's ends by 10**j; only the rows with a
    # multiple of 10**(p - 1) inside can have one of 10**p
    below = bottom - 1
    j = np.zeros(len(x), dtype=np.int64)
    rows = np.arange(len(x))
    for power in range(1, 18):
        rows = rows[top[rows] // _POW10[power] != below[rows] // _POW10[power]]
        if not rows.size:
            break
        j[rows] = power
    highest, lowest = top // _POW10[j], below // _POW10[j] + 1
    # Of the multiples inside, the one nearest y. Two or more lie inside
    # only for j <= 1, where the float distance past their midpoint is exact.
    tens = j > 0
    q = np.where(tens, y_int // 10, y_int)
    past_half = (y_int - np.where(tens, 10 * q, q)) + f - np.where(tens, 5.0, 0.5)
    several = lowest < highest
    ok &= ~several | (np.abs(past_half) > _MARGIN)
    nearest = np.where(several, np.clip(q + (past_half > 0), lowest, highest), highest)
    digits = nearest * _POW10[j]
    # a multiple of 1e17 is the next power of ten, one digit long
    carry = digits == _POW10[17]
    digits[carry] = _POW10[16]
    return digits, np.maximum(17 - j, 1), k + carry, ok


@functools.cache
def _templates() -> np.ndarray:
    """Each layout's row as six words: its characters, 0xff at the digits
    it shows and zero bytes at what it drops. Layout number
    (negative * 17 + count - 1) * _FORMS + form."""
    negative, count, form = np.indices((2, 17, _FORMS)).reshape(3, -1)
    count += 1
    k = _FORM_K[np.minimum(form, _INF - 1)]
    fixed = form < 20
    whole = fixed & (k >= 0)  # fixed with digits before the point
    keep = np.zeros((len(k), len(_ROW)), dtype=bool)
    keep[:, 0] = negative
    keep[:, 1] = keep[:, 2] = fixed & (k < 0)
    keep[:, 3:6] = np.arange(3) < np.where(fixed, -1 - k, 0)[:, None]
    shown = np.where(whole, np.maximum(count, k + 1), count)
    keep[:, _DIGITS] = np.arange(17) < shown[:, None]
    point = np.where(fixed, k, np.where(count > 1, 0, -1))
    keep[:, _POINTS] = np.arange(16) == point[:, None]
    keep[:, 39] = whole & (count <= k + 1)
    keep[:, 40:42] = keep[:, 43:45] = ~fixed[:, None]
    keep[:, 42] = ~fixed & (np.abs(k) >= 100)
    keep[:, 45] = True
    rows = np.where(keep, _ROW, 0).astype(np.uint8)
    rows[:, 41] = np.where(k < 0, ord("-"), ord("+")) * keep[:, 41]
    rows[:, _DIGITS] = 0xFF * keep[:, _DIGITS]
    rows[:, _EXPONENT] = 0xFF * keep[:, _EXPONENT]
    # inf and nan: a signed word and an unsigned one
    rows[form >= _INF, 1:45] = 0
    rows[form == _INF, 1:4] = np.frombuffer(b"inf", dtype=np.uint8)
    rows[form == _NAN, :4] = np.frombuffer(b"\0nan", dtype=np.uint8)
    return rows.view(np.uint64)


def _layout(negative, digits, count, k, form) -> list[str]:
    """The text of each value: its layout's row with its digits and its
    exponent filled in."""
    rows = np.take(_templates(), (negative * 17 + count - 1) * _FORMS + form, axis=0)
    lead = digits // _POW10[16]
    rest = digits - lead * _POW10[16]
    upper = rest // _POW10[8]
    lower = rest - upper * _POW10[8]
    upper_hi, lower_hi = upper // 10000, lower // 10000
    parts = [lead + 10000, upper_hi, upper - 10000 * upper_hi, lower_hi,
             lower - 10000 * lower_hi, np.abs(k) + 10010]
    rows &= _parts()[np.stack(parts, axis=1)]
    # the dropped characters are zero bytes: delete them all at once
    cells = rows.tobytes().translate(None, b"\0").decode("ascii").split(" ")
    del cells[-1]  # after the last separator
    return cells


def _spell(values: np.ndarray) -> list[str]:
    """``repr`` of each value of one block, by the kernel where it is sure."""
    magnitude = np.abs(values)
    fit = (magnitude > _TINY) & (magnitude < _HUGE)
    if fit.all():
        digits, count, k, ok = _shortest(magnitude)
    else:
        # the digit search runs on the cells that have digits; every other
        # cell keeps the one digit 0 at k = 0, which is how zero is spelled
        digits, k = np.zeros((2, len(values)), dtype=np.int64)
        count = np.ones(len(values), dtype=np.int64)
        ok = np.zeros(len(values), dtype=bool)
        if fit.any():
            digits[fit], count[fit], k[fit], ok[fit] = _shortest(magnitude[fit])
    form = np.where((k >= -4) & (k < 16), k + 4, 20 + 2 * (k < 0) + (np.abs(k) >= 100))
    form[np.isinf(values)] = _INF
    form[np.isnan(values)] = _NAN
    cells = _layout(np.signbit(values), digits, count, k, form)
    rest = np.flatnonzero(~(ok | (magnitude == 0) | (form >= _INF)))
    if rest.size:
        # by repr, once per bit pattern
        distinct, inverse = np.unique(values[rest].view(np.uint64), return_inverse=True)
        spelled = list(map(repr, distinct.view(np.float64).tolist()))
        for i, j in zip(rest.tolist(), inverse.tolist()):
            cells[i] = spelled[j]
    return cells


def reprs(values: np.ndarray) -> list[str]:
    """``repr`` of each value of a 1-D float64 array, in order."""
    if len(values) < _KERNEL_MIN:
        return list(map(repr, values.tolist()))
    cells = []
    for block in np.array_split(values, -(-len(values) // _BLOCK)):
        cells += _spell(block)
    return cells
