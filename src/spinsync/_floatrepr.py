"""``repr`` of every float of a long float64 column at once, as bytes.

``repr_bytes(values)`` spells ``list(map(repr, values.tolist()))`` byte for
byte, as one zero-padded ASCII row per spelled value, for a writer that lays
the rows out in its own byte buffer.  A short column takes the per-value
path.  A long one that repeats its values (a masked tongue's nan, a
symmetric grid) is spelled once per distinct bit pattern.  Otherwise a numpy
kernel spells it: each |x| is scaled by 10**(16 - k), k its decimal
exponent, to a double-double y in [1e16, 1e17).  The shortest digits that
read back as x are the largest power of ten with a multiple inside x's
rounding interval around y; of those multiples the one nearest y is kept.
This is the spelling ``repr`` prints.  The kernel lays out only the cells
with digits that it certifies: magnitudes inside
(_TINY, _HUGE) whose rounding bound and tie lie farther than ``_MARGIN``
from y.  Zeros, infinities and nans take their row from a constant table of
five.  ``repr`` spells the rest once per bit pattern: the magnitudes
outside those bounds and the undecided cells.  Each cell is a 48-byte row
of its characters and zero bytes, which the writer deletes from its buffer
at once.

The kernel reads four tables, each built once per process on first use and
read with one gather per block: ``_powers``, 10**(16 - k) for every k it
meets as a double-double whose high part is already split in Veltkamp
halves (built from exact integers in about 1 ms); ``_by_k``, the layout
form and exponent of each k; ``_templates``, the row of each layout; and
``_parts``, the characters of four digits, a first digit or an exponent.
"""

from __future__ import annotations

import functools

import numpy as np

# Columns shorter than this are spelled one value at a time, untested for
# repeats: the kernel's fixed cost of about 0.1 ms matches repr's ~0.65 us a
# value at 250-320 random values, and from 1024 on the kernel is 2.1-2.3x
# faster (2-core x86-64 host, numpy 2.4, medians of 201 paired calls). The
# sweeps' and forcing figures' columns, 48-484 values, stay with repr.
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
_EXPONENT_BITS = np.uint64(0x7FF0000000000000)

# The decimal exponents k that the tables below hold, by k - _K_MIN: those
# of (_TINY, _HUGE) with one to spare either side for log10's rounding and a
# carry.
_K_MIN, _K_MAX = -282, 281

# One output row of six 64-bit words: sign, the "0.000" of 1e-4 <= |x| < 0.1,
# 17 digits with a possible '.' after each of the first 16, the '0' of
# "123.0", the exponent and three bytes of padding.
_ROW = np.frombuffer(b"-0.000" + b"0." * 16 + b"0" + b"0e+000\0\0\0", dtype=np.uint8)
_DIGITS = slice(6, 39, 2)
_POINTS = slice(7, 39, 2)
_EXPONENT = slice(42, 45)
_CELL = np.dtype((np.void, len(_ROW)))  # a row as one value
# The rows of the values without digits, by 2 * isinf(x) + signbit(x), and
# 4 for nan (of either sign and any payload).
_NO_DIGITS = np.array(
    [b"0.0", b"-0.0", b"inf", b"-inf", b"nan"], dtype=f"S{len(_ROW)}"
).view(_CELL)
# A row's layout depends on its form, sign and digit count. Forms 0..19 are
# fixed notation at k = -4..15; 20..23 are scientific with a '+' or '-'
# exponent of two or three digits, spelled here at these k.
_FORM_K = np.append(np.arange(-4, 16), [16, 100, -5, -100])


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
def _powers() -> np.ndarray:
    """10**(16 - k) for each k of _K_MIN.._K_MAX, a row by k - _K_MIN: hi
    and lo of the double-double hi + lo, then hi's Veltkamp halves."""
    hi, lo = np.array([_pow10(16 - k) for k in range(_K_MIN, _K_MAX + 1)]).T
    return np.stack([hi, lo, *_split(hi)], axis=1)


@functools.cache
def _by_k() -> np.ndarray:
    """For each k of _K_MIN.._K_MAX, by k - _K_MIN: its form's first layout
    number less one, and the index of its exponent in _parts()."""
    k = np.arange(_K_MIN, _K_MAX + 1)
    form = np.where((k >= -4) & (k < 16), k + 4, 20 + 2 * (k < 0) + (np.abs(k) >= 100))
    return np.stack([2 * 17 * form - 1, np.abs(k) + 10010])


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
    """x * 10**(16 - k) as y + f, y an int64 and f in [0, 1], and 10**(16 - k)
    rounded to a double."""
    p_hi, p_lo, p_hi_hi, p_hi_lo = np.take(_powers(), k - _K_MIN, axis=0).T
    s = x * p_hi
    x_hi, x_lo = _split(x)
    # Dekker's two-product: s + err is x * p_hi exactly
    err = ((x_hi * p_hi_hi - s) + x_hi * p_hi_lo + x_lo * p_hi_hi) + x_lo * p_hi_lo
    t = err + x * p_lo
    floor_t = np.floor(t)
    return s.astype(np.int64) + floor_t.astype(np.int64), t - floor_t, p_hi


def _outside(y: np.ndarray) -> np.ndarray:
    """Where the integer y lies outside [1e16, 1e17): one unsigned compare."""
    return (y - _POW10[16]).view(np.uint64) >= np.uint64(9 * 10**16)


def _shortest(x: np.ndarray):
    """The shortest round-trip digits of positive floats x in (_TINY, _HUGE).

    Returns the digits as an int64 in [1e16, 1e17) padded with zeros, their
    count, the decimal exponent of the first digit, and where the result is
    certified; elsewhere the other three are meaningless.
    """
    k = np.floor(np.log10(x)).astype(np.int64)
    y, f, p = _scaled(x, k)
    # log10 can round across a power of ten: move k by one there
    moved = np.flatnonzero(_outside(y))
    if moved.size:
        k[moved] += np.where(y[moved] < _POW10[16], -1, 1)
        y[moved], f[moved], p[moved] = _scaled(x[moved], k[moved])
        moved = moved[_outside(y[moved])]
        y[moved], f[moved] = _POW10[16], 0.0
    # the rounding interval [y - h_lo, y + h]: half an ulp of x either side,
    # a quarter below a power of two. Its width lies between 1.1 and 23.
    bits = x.view(np.uint64)
    exponent = bits & _EXPONENT_BITS  # x rounded down to a power of two
    # half an ulp of x is 2**-53 of that, a normal double here
    h = p * (exponent - np.uint64(53 << 52)).view(np.float64)
    up, down = f + h, f - h
    powers_of_two = np.flatnonzero(exponent == bits)
    down[powers_of_two] = f[powers_of_two] - 0.5 * h[powers_of_two]
    sure = (np.abs(up - np.rint(up)) > _MARGIN) & (np.abs(down - np.rint(down)) > _MARGIN)
    sure[moved] = False
    # the integers inside: y + ceil(down) .. y + floor(up)
    floor_up, ceil_down = np.floor(up), np.ceil(down)
    # Of the multiples of 10**j inside, the one nearest y, j the largest
    # power of ten with a multiple inside. Two or more lie inside only for
    # j <= 1, where the float distance past their midpoint is exact. At
    # j = 0 that is the integer nearest y, a tie (f = 0.5) rounding down.
    digits = y + np.minimum(np.maximum(np.rint(f), ceil_down), floor_up).astype(np.int64)
    ok = sure & ((ceil_down >= floor_up) | (np.abs(f - 0.5) > _MARGIN))
    count = np.full(len(x), 17)
    # j > 0 only in the rows with a multiple of ten inside, and the rows
    # with a multiple of 10**(p - 1) inside are those that can have one of
    # 10**p: each division by ten adds one to j where the ends still differ
    top, below = y + floor_up.astype(np.int64), y + (ceil_down - 1).astype(np.int64)
    last, first = top // 10, below // 10
    tens = np.flatnonzero(last != first)
    if tens.size:
        last, first = last[tens], first[tens]
        j = np.ones(len(tens), dtype=np.int64)
        for _ in range(2, 18):
            last, first = last // 10, first // 10
            more = last != first
            if not more.any():
                break
            j += more
        # the interval's first and last multiple of 10**j, over 10**j
        y, ten_j = y[tens], _POW10[j]
        highest, lowest = top[tens] // ten_j, below[tens] // ten_j + 1
        q = y // 10
        past_half = (y - 10 * q) + f[tens] - 5.0
        ok[tens] = sure[tens] & ((lowest >= highest) | (np.abs(past_half) > _MARGIN))
        nearest = np.clip(q + (past_half > 0), lowest, highest) * ten_j
        # a multiple of 1e17 is the next power of ten, one digit long
        carry = nearest == _POW10[17]
        nearest[carry] = _POW10[16]
        digits[tens], count[tens] = nearest, np.maximum(17 - j, 1)
        k[tens[carry]] += 1
    return digits, count, k, ok


@functools.cache
def _templates() -> np.ndarray:
    """Each layout's row as six words: its characters, 0xff at the digits
    it shows and zero bytes at what it drops. Layout number
    (form * 2 + negative) * 17 + count - 1."""
    form, negative, count = np.indices((len(_FORM_K), 2, 17)).reshape(3, -1)
    count += 1
    k = _FORM_K[form]
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
    rows = np.where(keep, _ROW, 0).astype(np.uint8)
    rows[:, 41] = np.where(k < 0, ord("-"), ord("+")) * keep[:, 41]
    rows[:, _DIGITS] = 0xFF * keep[:, _DIGITS]
    rows[:, _EXPONENT] = 0xFF * keep[:, _EXPONENT]
    return rows.view(np.uint64)


def _layout(negative, digits, count, k) -> np.ndarray:
    """The row of each value: its layout's row with its digits and its
    exponent filled in."""
    first_layout, exponent = np.take(_by_k(), k - _K_MIN, axis=1)
    rows = np.take(_templates(), first_layout + 17 * negative + count, axis=0)
    # word 0 takes the first digit and words 1..4 four digits each, a word
    # at a time: one contiguous gather per word
    words = _parts()
    upper = digits // _POW10[8]  # the first nine digits
    lower = digits - upper * _POW10[8]
    head = upper // 10000  # the first five
    lead = head // 10000
    rows[:, 0] &= np.take(words, lead + 10000)
    rows[:, 1] &= np.take(words, head - 10000 * lead)
    rows[:, 2] &= np.take(words, upper - 10000 * head)
    head = lower // 10000
    rows[:, 3] &= np.take(words, head)
    rows[:, 4] &= np.take(words, lower - 10000 * head)
    rows[:, 5] &= np.take(words, exponent)
    return rows


def _repr_rows(values: np.ndarray) -> np.ndarray:
    """The row of each value spelled by repr, once per bit pattern: its at
    most 24 characters and zero bytes."""
    distinct, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    text = b"".join(
        repr(x).encode("ascii").ljust(len(_ROW), b"\0")
        for x in distinct.view(np.float64).tolist()
    )
    return np.frombuffer(text, dtype=_CELL)[inverse]


def _rows(values: np.ndarray) -> np.ndarray:
    """The row of each value of one block, its characters and zero bytes:
    laid out by the kernel where it certifies the digits, taken from
    _NO_DIGITS for zeros, infinities and nans, and spelled by repr once per
    bit pattern elsewhere."""
    magnitude = np.abs(values)
    fit = (magnitude > _TINY) & (magnitude < _HUGE)
    rows = np.empty(len(values), dtype=_CELL)
    if fit.any():
        digits, count, k, ok = _shortest(magnitude[fit])
        rows[fit] = _layout(np.signbit(values[fit]), digits, count, k).view(_CELL).ravel()
        fit[fit] = ok  # an undecided cell is left to repr
    rest = np.flatnonzero(~fit)
    if rest.size:
        v = values[rest]
        infinite = np.isinf(v)
        blank = ~(magnitude[rest] > 0.0) | infinite  # zeros, nans and infinities
        key = np.where(np.isnan(v), 4, 2 * infinite + np.signbit(v))
        rows[rest[blank]] = _NO_DIGITS[key[blank]]
        if not blank.all():
            rows[rest[~blank]] = _repr_rows(v[~blank])
    return rows


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """A long array that repeats its values as its distinct values and the
    index of each value among them; any other array as it is, and None."""
    if len(values) < _KERNEL_MIN:
        return values, None
    # distinct by bit pattern, as -0.0 and 0.0 spell apart; only a column
    # that repeats pays for the argsort giving each cell its value
    bits = values.view(np.uint64)
    ordered = np.sort(bits)
    first = np.append(True, ordered[1:] != ordered[:-1])
    if 2 * np.count_nonzero(first) > len(bits):
        return values, None
    inverse = np.empty(len(bits), dtype=np.intp)
    inverse[np.argsort(bits)] = np.cumsum(first) - 1
    return ordered[first].view(np.float64), inverse


def repr_bytes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """``repr`` of each value of a 1-D float64 array as zero-padded ASCII:
    a uint8 matrix of one row per spelled value, and the row of each value
    in it, or None where value i has row i.  A long array that repeats its
    values is spelled once per distinct value, and a long column by the
    kernel, whose rows keep its layout's zero bytes between the characters."""
    values, inverse = _distinct(values)
    if len(values) < _KERNEL_MIN:
        cells = list(map(repr, values.tolist()))
        rows = np.array(cells, dtype=f"S{max(map(len, cells), default=1)}")
        return rows.view(np.uint8).reshape(len(rows), rows.itemsize), inverse
    rows = np.empty(len(values), dtype=_CELL)
    start = 0
    for block in np.array_split(values, -(-len(values) // _BLOCK)):
        rows[start : start + len(block)] = _rows(block)
        start += len(block)
    return rows.view(np.uint8).reshape(len(values), len(_ROW)), inverse

