"""The bytes of ``repr(float)`` for whole blocks of float64 at once.

CPython's repr writes the shortest decimal that reads back as the same
double and, of those, the one nearest the exact value (ties to an even
last digit). Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020) finds exactly that decimal with integer arithmetic: the
value and the two ends of its rounding interval are scaled by a 126-bit
approximation g of 10^-k and rounded to odd, and a few comparisons
decide which of the two or four candidates around the value lies in
the interval. Here every step is a numpy ``uint64`` operation over the
whole block; the 64 x 128-bit products are done in 32-bit limbs. Unlike
Java's rendering of the same algorithm, a one-digit result is kept
(repr writes ``5e-324``, not ``4.9e-324``).

:class:`RowLayout` lays the decimals out as repr does -- positional for
1e-4 <= |x| < 1e16 with at least ``.0``, otherwise ``d.ddde-XX`` with
at least two exponent digits -- and spells non-finite cells as the CSV
(``nan``, ``inf``) or JSON (``NaN``, ``Infinity``) writer does. Each
cell gets a fixed-width slot of a ``uint8`` matrix that holds every
byte it could need, its column's prefix and suffix included, and one
boolean mask picks the bytes of each row in order.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_LOW63 = _U64((1 << 63) - 1)
_EXP_MASK = 2047
_FRACTION_MASK = (1 << 52) - 1


def _floor_log10_pow2(e):
    """floor(log10(2^e)), exact for |e| < 5.4e6 (ints or int64 arrays)."""
    return (e * 661_971_961_083) >> 41


def _floor_log10_three_quarters_pow2(e):
    """floor(log10(3/4 * 2^e))."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _floor_log2_pow10(e):
    """floor(log2(10^e))."""
    return (e * 913_124_641_741) >> 38


def _g_table(k_min: int, k_max: int) -> np.ndarray:
    """g(k) = ceil(10^-k * 2^(125 - floor(log2 10^-k))) for k_min..k_max (k_min <= 0 < k_max).

    Each g lies in [2^125, 2^126); row i holds g1 = g >> 63 and
    g0 = g mod 2^63. For k > 0, floor(2^top / 10^k) is divided by 10
    once per k and shifted down to 2^(125 - floor(log2 10^-k)) / 10^k;
    that is never an integer, so its ceiling is one more.
    """
    g = []
    power = 10**-k_min
    for k in range(k_min, 1):
        shift = 125 - _floor_log2_pow10(-k)
        g.append(power << shift if shift >= 0 else -(-power >> -shift))
        power //= 10
    top = 125 - _floor_log2_pow10(-k_max)
    quotient = 1 << top
    for k in range(1, k_max + 1):
        quotient //= 10
        g.append((quotient >> (top - 125 + _floor_log2_pow10(-k))) + 1)
    return np.array([(v >> 63, v & ((1 << 63) - 1)) for v in g], dtype=np.uint64)


# k runs from that of the least subnormal to that of the largest double
_K_MIN = _floor_log10_three_quarters_pow2(-1074)
_G = _g_table(_K_MIN, _floor_log10_pow2(971))


def _mul_high(ah, al, bh, bl):
    """floor(a * b / 2^64) of uint64 arrays given as 32-bit halves."""
    low = al * bl
    cross = ah * bl + (low >> _U64(32))
    mid = al * bh + (cross & _LOW32)
    return ah * bh + (cross >> _U64(32)) + (mid >> _U64(32))


def _round_odd(g, cp):
    """g * cp / 2^127 rounded to odd (Schubfach's r_o').

    ``g`` is g1 and the 32-bit limbs of g1 and g0, as uint64 arrays.
    """
    g1, g1h, g1l, g0h, g0l = g
    cph, cpl = cp >> _U64(32), cp & _LOW32
    z = ((g1 * cp) >> _U64(1)) + _mul_high(g0h, g0l, cph, cpl)
    whole = _mul_high(g1h, g1l, cph, cpl) + (z >> _U64(63))
    return whole | ((z & _LOW63) != 0)


def _decimal(bits: np.ndarray):
    """repr's decimal of each double, given its bits: (r, e, shorter).

    |value| = r * 10^e with int64 r < 10^17; ``shorter`` marks the
    values whose r came from the one-digit-shorter candidates, the only
    ones whose r can end in zeros. Zeros and non-finite values give
    meaningless entries.
    """
    fraction = bits & _U64(_FRACTION_MASK)
    biased = (bits.view(np.int64) >> 52) & _EXP_MASK
    # an irregular value's lower neighbour is half as far as its upper one
    irregular = (fraction == 0) & (biased > 1)
    q = np.maximum(biased, 1) - 1075  # value = c * 2^q
    k = np.where(irregular, _floor_log10_three_quarters_pow2(q), _floor_log10_pow2(q))
    h = (q + _floor_log2_pow10(-k) + 2).view(np.uint64)
    g1, g0 = _G.take(k - _K_MIN, axis=0).T
    g = (g1, g1 >> _U64(32), g1 & _LOW32, g0 >> _U64(32), g0 & _LOW32)
    c = fraction | ((biased > 0).astype(np.uint64) << _U64(52))
    cb = c << _U64(2)
    vb = _round_odd(g, cb << h)
    vbl = _round_odd(g, (cb - _U64(2) + irregular) << h)
    vbr = _round_odd(g, (cb + _U64(2)) << h)
    odd = c & _U64(1)  # an odd significand's interval is open
    vbl += odd
    vbr -= odd
    s = vb >> _U64(2)
    # one digit shorter: exactly one of 10 s' and 10 (s' + 1) in the interval
    s1 = s // _U64(10)
    lower_in = vbl <= s1 * _U64(40)
    upper_in = s1 * _U64(40) + _U64(40) <= vbr
    shorter = lower_in ^ upper_in
    # else the nearer of s and s + 1 in the interval; vb & 7 in {0, 1, 2, 4, 5}
    # is nearer s, 2 being a tie that goes to s when s is even
    nearer_s = ((_U64(0b110111) >> (vb & _U64(7))) & _U64(1)).astype(bool)
    take_s = (vbl <= s << _U64(2)) & (nearer_s | ((s << _U64(2)) + _U64(4) > vbr))
    r = np.where(shorter, s1 + upper_in, s + ~take_s)
    return r.view(np.int64), k + shorter, shorter


_POW10 = np.array([10**i for i in range(18)], dtype=np.int64)
# the ASCII digits of 0000..9999
_DIGITS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
# 0000..9999 as "d.d.d.d." and 0..9 as "d.", one uint64 / uint16 each
_DIGIT_PAIRS = np.full((10000, 8), ord("."), dtype=np.uint8)
_DIGIT_PAIRS[:, ::2] = _DIGITS
_DIGITS4 = _DIGIT_PAIRS.view(np.uint64).ravel()
_DIGITS1 = _DIGIT_PAIRS[:10, 6:].copy().view(np.uint16).ravel()
# the exponents -_X_RANGE.._X_RANGE - 1 as sign and three digits, one uint32 each
_X_RANGE = 400
_X = np.arange(-_X_RANGE, _X_RANGE)
_EXPONENT_TEXT = np.empty((len(_X), 4), dtype=np.uint8)
_EXPONENT_TEXT[:, 0] = np.where(_X < 0, ord("-"), ord("+"))
_EXPONENT_TEXT[:, 1:] = _DIGITS[np.abs(_X), 1:]
_EXPONENTS = _EXPONENT_TEXT.view(np.uint32).ravel()


def _digits(bits: np.ndarray):
    """repr's digits of each double: (digits, x, nd).

    ``digits`` holds the 17 digits of the significand, zero-padded on
    the right, each followed by ".", as uint8 rows; x is the exponent of
    the leading digit and nd the number of significant digits. Zeros
    give 17 zero digits; non-finite values, meaningless entries.
    """
    magnitude = bits & _LOW63
    r, e, shorter = _decimal(bits)
    zero = magnitude == 0
    r[zero] = 0
    # digits of r: 15-17 for normal values, any number for subnormal ones
    nd = 15 + (r >= 10**15) + (r >= 10**16)
    tiny = np.flatnonzero(magnitude - _U64(1) < _U64(_FRACTION_MASK))
    nd[tiny] = np.searchsorted(_POW10, r[tiny], side="right")
    x = e + nd - 1
    # only the shorter candidates can end in zeros, which repr drops
    strip = np.flatnonzero(shorter & ~zero)
    ends = r[strip]
    more = ends % 10 == 0
    strip, ends = strip[more], ends[more]
    r *= _POW10.take(17 - nd, mode="clip")
    while len(strip):
        ends //= 10
        nd[strip] -= 1
        more = ends % 10 == 0
        strip, ends = strip[more], ends[more]
    top = r // 10**16
    rest = r - top * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    groups = np.empty((len(r), 4), dtype=np.int64)
    np.floor_divide(high, 10**4, out=groups[:, 0])
    np.subtract(high, groups[:, 0] * 10**4, out=groups[:, 1])
    np.floor_divide(low, 10**4, out=groups[:, 2])
    np.subtract(low, groups[:, 2] * 10**4, out=groups[:, 3])
    digits = np.empty((len(r), 34), dtype=np.uint8)
    digits[:, :2] = _DIGITS1.take(top).view(np.uint8).reshape(-1, 2)
    digits[:, 2:] = _DIGITS4.take(groups).view(np.uint8).reshape(-1, 32)
    return digits, x, nd


# A cell's slot, after its column's prefix: the sign, "0.000", the 17
# digits each followed by a candidate point, then "e" and the exponent's
# sign and three digits. Non-finite cells are spelled in the digits.
_SIGN, _LEAD, _DIGIT, _E = 0, 1, 6, 40
_CELL = _E + 5
# pattern ids: positional (x in -4..15, nd in 1..17), exponential (nd, |x| >= 100),
# then NaN and infinity; x is the exponent of the leading digit, nd the digit count
_EXPONENTIAL = 20 * 17
_NAN = _EXPONENTIAL + 17 * 2
_ZERO = 4 * 17  # "0.0": x = 0, one digit


def _digit(i):
    """The slot column of digit i (an int or an array); its point follows it."""
    return _DIGIT + 2 * i


def _patterns():
    """The bytes of the cell slot each finite pattern keeps (the sign apart), and the ids.

    The ids are indexed by (x + _X_RANGE) * 18 + nd.
    """
    keep = np.zeros((_NAN, _CELL), dtype=bool)
    for x in range(-4, 16):
        for nd in range(1, 18):
            row = keep[(x + 4) * 17 + nd - 1]
            if x >= 0:
                row[_digit(0) : _digit(max(nd, x + 2)) : 2] = True
                row[_digit(x) + 1] = True
            else:
                row[[_LEAD, _LEAD + 1]] = True  # "0."
                row[_DIGIT + x + 1 : _DIGIT] = True  # -x-1 zeros
                row[_digit(0) : _digit(nd) : 2] = True
    for nd in range(1, 18):
        for three in (0, 1):
            row = keep[_EXPONENTIAL + (nd - 1) * 2 + three]
            row[_digit(0) : _digit(nd) : 2] = True
            row[_digit(0) + 1] = nd > 1
            row[_E : _E + 2] = True
            row[_E + 3 - three : _E + 5] = True
    x, nd = np.meshgrid(_X.astype(np.int16), np.arange(18, dtype=np.int16), indexing="ij")
    ids = np.where(
        (x >= -4) & (x < 16),
        (x + 4) * 17 + nd - 1,
        _EXPONENTIAL + (nd - 1) * 2 + (np.abs(x) >= 100),
    )
    return keep, ids.ravel()


_PATTERNS, _IDS = _patterns()


# Slot bytes per np.compress call. It holds an 8-byte index of each byte
# it keeps: 2.2 MB for one call over a whole 768-row JSON block, under
# 1 MB for a piece of this size. Much smaller pieces cost faults: with
# 128 KiB a 50 000-sample simulate took 16 000 more minor page faults, as
# glibc then trimmed and refilled the heap block after block.
_COMPRESS_BYTES = 1 << 18


def _compress(keep: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.compress(keep, out), _COMPRESS_BYTES of out at a time into one new array."""
    pieces = [slice(i, i + _COMPRESS_BYTES) for i in range(0, len(out), _COMPRESS_BYTES)]
    ends = np.cumsum([np.count_nonzero(keep[piece]) for piece in pieces], dtype=np.int64)
    text = np.empty(ends[-1] if pieces else 0, dtype=np.uint8)
    for piece, first, last in zip(pieces, [0, *ends[:-1]], ends):
        np.compress(keep[piece], out[piece], out=text[first:last])
    return text


class Workspace:
    """The two slot-sized arrays of :meth:`RowLayout.rows`, kept from block to block.

    A caller that formats many blocks makes one and passes it to every
    call, so each block writes its slots and mask into the same memory
    instead of fresh pages. They grow to the largest block seen; each
    call takes views of exactly its own size and fills them whole.
    """

    def __init__(self):
        self._out = np.empty(0, dtype=np.uint8)
        self._keep = np.empty(0, dtype=bool)

    def arrays(self, size: int):
        """(bytes, mask) views of ``size`` entries each, unset."""
        if size > len(self._out):
            self._out = self._keep = None  # the smaller pair goes before the larger is made
            self._out = np.empty(size, dtype=np.uint8)
            self._keep = np.empty(size, dtype=bool)
        return self._out[:size], self._keep[:size]


class RowLayout:
    """Rows of ``prefixes[j] + cell + suffixes[j]`` over the columns j of a block.

    Each cell is ``repr(value)``, with NaN and the infinities spelled
    ``nan`` and ``inf`` (CSV) or ``NaN`` and ``Infinity`` (JSON). All
    text is ASCII. A row's slots are the columns' prefixes, padded to
    the longest, cells and suffixes, padded likewise.
    """

    def __init__(self, prefixes, suffixes, nan: str = "nan", inf: str = "inf"):
        head, tail = max(map(len, prefixes)), max(map(len, suffixes))
        columns = len(prefixes)
        self._start = head
        slot = head + _CELL + tail
        self._spelled = [np.frombuffer(word.encode("ascii"), dtype=np.uint8) for word in (nan, inf)]
        spelled = np.zeros((2, _CELL), dtype=bool)  # the _NAN and infinity patterns
        for row, word in zip(spelled, (nan, inf)):
            row[_digit(0) : _digit(len(word)) : 2] = True
        patterns = np.concatenate([_PATTERNS, spelled])
        template = np.zeros((columns, slot), dtype=np.uint8)
        template[:, head : head + _CELL] = np.frombuffer(
            ("-0.000" + "0." * 17 + "e+000").encode("ascii"), dtype=np.uint8
        )
        ends = np.zeros((columns, slot), dtype=bool)  # which bytes of the ends are text
        for j, (prefix, suffix) in enumerate(zip(prefixes, suffixes)):
            for at, text in ((0, prefix), (head + _CELL, suffix)):
                template[j, at : at + len(text)] = np.frombuffer(text.encode("ascii"), np.uint8)
                ends[j, at : at + len(text)] = True
        self._template, self._ends, self._patterns = template, ends, patterns

    def rows(self, block: np.ndarray, workspace: Workspace | None = None) -> np.ndarray:
        """The bytes of the rows of a (rows, columns) float64 block, as a new uint8 array.

        ``workspace`` holds the slots and their mask between calls; without
        one, the call makes its own.
        """
        block = np.ascontiguousarray(block, dtype=np.float64)
        n_rows, columns = block.shape
        bits = block.view(np.uint64).ravel()
        digits, x, nd = _digits(bits)
        magnitude = bits & _LOW63
        pattern = _IDS.take((x + _X_RANGE) * 18 + nd, mode="clip")
        pattern[magnitude == 0] = _ZERO
        special = np.flatnonzero(magnitude >= _U64(_EXP_MASK << 52))
        infinite = magnitude[special] == _U64(_EXP_MASK << 52)
        pattern[special] = _NAN + infinite

        slot = self._template.shape[1]
        start = self._start
        workspace = Workspace() if workspace is None else workspace
        out, keep = workspace.arrays(n_rows * columns * slot)
        out = out.reshape(n_rows, columns, slot)
        out[:] = self._template
        out = out.reshape(-1, slot)
        out[:, start + _DIGIT : start + _E] = digits
        out[:, start + _E + 1 : start + _E + 5] = (
            _EXPONENTS.take(x + _X_RANGE, mode="clip").view(np.uint8).reshape(-1, 4)
        )
        for word, cells in zip(self._spelled, (special[~infinite], special[infinite])):
            out[cells[:, None], start + _digit(np.arange(len(word)))] = word
        keep = keep.reshape(out.shape)
        keep.reshape(n_rows, columns, slot)[:] = self._ends
        keep[:, start : start + _CELL] = self._patterns.take(pattern, axis=0)
        keep[:, start + _SIGN] = bits >> _U64(63)
        keep[special[~infinite], start + _SIGN] = False  # repr(-nan) is "nan"
        return _compress(keep.ravel(), out.ravel())
