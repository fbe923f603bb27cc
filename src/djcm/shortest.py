"""The bytes of ``repr(float)`` for whole blocks of float64 at once.

CPython's repr writes the shortest decimal that reads back as the same
double and, of those, the one nearest the exact value (ties to an even
last digit). Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020) finds exactly that decimal with integer arithmetic: the
value and the two ends of its rounding interval are scaled by a 126-bit
approximation g of 10^-k and rounded to odd, and a few comparisons
decide which of the two or four candidates around the value lies in
the interval. Here every step is a numpy ``uint64`` operation over the
whole block, written in place into rows of a :class:`Workspace`; the
64 x 128-bit products are done in 32-bit limbs. Unlike Java's rendering
of the same algorithm, a one-digit result is kept (repr writes
``5e-324``, not ``4.9e-324``).

:class:`RowLayout` lays the decimals out as repr does -- positional for
1e-4 <= |x| < 1e16 with at least ``.0``, otherwise ``d.ddde-XX`` with
at least two exponent digits -- and spells non-finite cells as the CSV
(``nan``, ``inf``) or JSON (``NaN``, ``Infinity``) writer does. Each
cell gets a fixed-width slot that holds every byte it could need, its
column's prefix and suffix included. The bytes a cell does not keep are
set to NUL, and one ``bytearray.translate`` deletes them all; no kept
byte is NUL, as all text is ASCII.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_LOW63 = _U64((1 << 63) - 1)
_EXP_MASK = 2047
_FRACTION_MASK = (1 << 52) - 1
_INFINITY = _U64(_EXP_MASK << 52)


# floor(log10(2^e)) = (e * _LOG10_2) >> 41, exact for |e| < 5.4e6; with
# _LOG10_4_3 subtracted, floor(log10(3/4 * 2^e)); floor(log2(10^e)) =
# (e * _LOG2_10) >> 38
_LOG10_2, _LOG10_4_3, _LOG2_10 = 661_971_961_083, 274_743_187_321, 913_124_641_741


def _floor_log10_pow2(e):
    """floor(log10(2^e)) of an int."""
    return (e * _LOG10_2) >> 41


def _floor_log10_three_quarters_pow2(e):
    """floor(log10(3/4 * 2^e)) of an int."""
    return (e * _LOG10_2 - _LOG10_4_3) >> 41


def _floor_log2_pow10(e):
    """floor(log2(10^e)) of an int."""
    return (e * _LOG2_10) >> 38


def _g_table(k_min: int, k_max: int) -> np.ndarray:
    """g(k) = ceil(10^-k * 2^(125 - floor(log2 10^-k))) for k_min..k_max (k_min <= 0 < k_max).

    Each g lies in [2^125, 2^126); row 0 holds g1 = g >> 63 and row 1
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
    return np.array([(v >> 63, v & ((1 << 63) - 1)) for v in g], dtype=np.uint64).T.copy()


# k runs from that of the least subnormal to that of the largest double
_K_MIN = _floor_log10_three_quarters_pow2(-1074)
_G1, _G0 = _g_table(_K_MIN, _floor_log10_pow2(971))


def _mul_high(ah, al, bh, bl, out, t):
    """out = floor(a * b / 2^64) of uint64 arrays given as 32-bit halves; t's two rows are spent."""
    cross, mid = t
    np.multiply(al, bl, out=out)
    out >>= 32
    np.multiply(ah, bl, out=cross)
    cross += out
    np.bitwise_and(cross, _LOW32, out=out)
    np.multiply(al, bh, out=mid)
    mid += out
    np.multiply(ah, bh, out=out)
    cross >>= 32
    out += cross
    mid >>= 32
    out += mid


def _round_odd(g, cp, out, t):
    """out = g * cp / 2^127 rounded to odd (Schubfach's r_o'); cp and t's five rows are spent.

    ``g`` is g1 and the 32-bit limbs of g1 and g0, as uint64 arrays.
    """
    g1, g1h, g1l, g0h, g0l = g
    cph, z, low, *pair = t
    np.multiply(g1, cp, out=z)
    z >>= 1
    np.right_shift(cp, 32, out=cph)
    cp &= _LOW32
    _mul_high(g0h, g0l, cph, cp, low, pair)
    z += low
    _mul_high(g1h, g1l, cph, cp, out, pair)
    np.right_shift(z, 63, out=low)
    out += low
    z &= _LOW63
    np.minimum(z, 1, out=low)
    out |= low


def _decimal(bits: np.ndarray, rows):
    """repr's decimal of each double, given its bits: (r, e), int64 views of rows[15] and [14].

    |value| = r * 10^e with r < 10^17. ``rows`` are 16 uint64 rows of
    bits' length, all overwritten. Zeros and non-finite values give
    meaningless entries.
    """
    q, k, f, h, c, g1, g1h, g1l, g0h, g0l, vb, vbl, vbr, *t = rows[::-1]
    qi, ki, hi = q.view(np.int64), k.view(np.int64), h.view(np.int64)
    np.bitwise_and(bits, _FRACTION_MASK, out=f)
    np.right_shift(bits, 52, out=q)
    q &= _EXP_MASK  # the biased exponent
    np.minimum(q, 1, out=c)
    c <<= 52
    c |= f  # the significand c, its hidden bit set
    # an irregular value's lower neighbour is half as far as its upper one
    irregular = f
    np.greater(q, 1, out=t[0])
    np.equal(f, 0, out=irregular)
    irregular &= t[0]
    np.maximum(q, 1, out=q)
    qi -= 1075  # value = c * 2^q
    # k = floor(log10(2^q)), or of 3/4 * 2^q where irregular
    np.multiply(qi, _LOG10_2, out=ki)
    np.multiply(irregular, _LOG10_4_3, out=t[0])
    k -= t[0]
    ki >>= 41
    np.negative(ki, out=hi)
    hi *= _LOG2_10
    hi >>= 38
    hi += qi
    hi += 2  # h = q + floor(log2(10^-k)) + 2
    np.subtract(ki, _K_MIN, out=qi)
    np.take(_G1, qi, out=g1, mode="clip")
    np.take(_G0, qi, out=g0h, mode="clip")
    np.right_shift(g1, 32, out=g1h)
    np.bitwise_and(g1, _LOW32, out=g1l)
    np.bitwise_and(g0h, _LOW32, out=g0l)
    g0h >>= 32
    g = (g1, g1h, g1l, g0h, g0l)
    c <<= 2
    np.subtract(c, 2, out=q)
    q += irregular
    q <<= h
    _round_odd(g, q, vbl, (f, vb, vbr, *t[:2]))
    np.add(c, 2, out=q)
    q <<= h
    _round_odd(g, q, vbr, (f, vb, *t))
    np.right_shift(c, 2, out=f)
    f &= 1  # an odd significand's interval is open
    vbl += f
    vbr -= f
    c <<= h
    _round_odd(g, c, vb, (f, q, *t))
    s, s1, bound = q, h, c
    lower_in, upper_in, shorter, take_s, far = t[0].view(np.bool_).reshape(8, -1)[:5]
    np.right_shift(vb, 2, out=s)
    # one digit shorter: exactly one of 10 s' and 10 (s' + 1) in the interval
    np.floor_divide(s, 10, out=s1)
    np.multiply(s1, 40, out=bound)
    np.less_equal(vbl, bound, out=lower_in)
    bound += 40
    np.less_equal(bound, vbr, out=upper_in)
    np.not_equal(lower_in, upper_in, out=shorter)
    s1 += upper_in
    # else the nearer of s and s + 1 in the interval; vb & 7 in {0, 1, 2, 4, 5}
    # is nearer s, 2 being a tie that goes to s when s is even
    np.bitwise_and(vb, 7, out=f)
    np.right_shift(_U64(0b110111), f, out=f)
    f &= 1
    np.left_shift(s, 2, out=bound)
    np.less_equal(vbl, bound, out=take_s)
    bound += 4
    np.greater(bound, vbr, out=far)
    np.logical_or(far, f, out=far)
    np.logical_and(take_s, far, out=take_s)
    np.logical_not(take_s, out=take_s)
    s += take_s
    np.copyto(s, s1, where=shorter)
    ki += shorter
    return s.view(np.int64), ki


_POW10 = np.array([10**i for i in range(18)], dtype=np.int64)
# the ASCII digits of 0000..9999
_DIGITS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
# 0000..9999 as "d.d.d.d." and 0..9 as "d.", one uint64 / uint16 each
_DIGIT_PAIRS = np.full((10000, 8), ord("."), dtype=np.uint8)
_DIGIT_PAIRS[:, ::2] = _DIGITS
_DIGITS4 = _DIGIT_PAIRS.view(np.uint64).ravel()
_DIGITS1 = _DIGIT_PAIRS[:10, 6:].copy().view(np.uint16).ravel()
# [j, v]: the significant digits of a 17-digit significand up to the last
# nonzero one in v, its digit group j (after the leading digit), or 0
_LENGTH = (4 - (_DIGITS[:, ::-1] != ord("0")).argmax(axis=1)).astype(np.uint8)
_LENGTH[0] = 0
_SIGNIFICANT = np.where(_LENGTH > 0, np.arange(1, 17, 4, dtype=np.uint8)[:, None] + _LENGTH, 0)
_SIGNIFICANT[0, 0] = 1
# the exponents -_X_RANGE.._X_RANGE - 1 as sign and three digits, one uint32 each
_X_RANGE = 400
_X = np.arange(-_X_RANGE, _X_RANGE)
_EXPONENT_TEXT = np.empty((len(_X), 4), dtype=np.uint8)
_EXPONENT_TEXT[:, 0] = np.where(_X < 0, ord("-"), ord("+"))
_EXPONENT_TEXT[:, 1:] = _DIGITS[np.abs(_X), 1:]
_EXPONENTS = _EXPONENT_TEXT.view(np.uint32).ravel()


def _digits(bits: np.ndarray, rows):
    """repr's digits of each double, in rows[:6]: (top, groups, x).

    The 17 digits of the significand, zero-padded on the right, are the
    leading one ``top`` and four ``groups`` of four; x is the exponent
    of the leading digit. Zeros give 17 zero digits; non-finite values,
    meaningless entries. ``rows`` are as :func:`_decimal` takes them.
    """
    r, e = _decimal(bits, rows)
    top, *groups, x, high, magnitude = (row.view(np.int64) for row in rows[:8])
    np.bitwise_and(bits, _LOW63, out=magnitude)
    flag = groups[3].view(np.bool_)[: len(bits)]
    np.equal(magnitude, 0, out=flag)
    np.copyto(r, 0, where=flag)
    # digits of r: 15-17 for normal values, any number for subnormal ones
    nd = x
    np.greater_equal(r, 10**15, out=nd)
    np.greater_equal(r, 10**16, out=high)
    nd += high
    nd += 15
    magnitude -= 1
    np.less(magnitude.view(np.uint64), _FRACTION_MASK, out=flag)
    tiny = np.flatnonzero(flag)
    nd[tiny] = np.searchsorted(_POW10, r[tiny], side="right")
    np.subtract(17, nd, out=high)
    np.take(_POW10, high, out=top, mode="clip")
    r *= top
    x += e
    x -= 1
    np.floor_divide(r, 10**16, out=top)
    np.multiply(top, 10**16, out=high)
    r -= high
    np.floor_divide(r, 10**8, out=high)
    np.multiply(high, 10**8, out=groups[0])
    r -= groups[0]
    for pair, value in ((groups[:2], high), (groups[2:], r)):
        np.floor_divide(value, 10**4, out=pair[0])
        np.multiply(pair[0], 10**4, out=pair[1])
        np.subtract(value, pair[1], out=pair[1])
    return top, groups, x


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
# Rows of a block's cells that Schubfach and the digits take: _LOW_ROWS
# of them outlive the digits, and the rest may lie in the slots.
_ROWS, _LOW_ROWS = 16, 8


class Workspace:
    """All the working memory of :meth:`RowLayout.rows`, kept from block to block.

    A caller that formats many blocks makes one and passes it to every
    call, so each block writes into the same memory instead of fresh
    pages. It holds uint64 rows of the block's cells and the slots of
    its rows, in two ``bytearray`` halves: the compaction's temporary is
    as long as the bytes it reads, and half a 768-row JSON block's slots
    stay under glibc's mmap threshold where a whole block's (617 kB) did
    not, which cost fresh pages for each block. Schubfach's rows are dead
    before the slots are filled, so as many of them as fit lie in the
    slots. All grow to the largest block seen. Slot bytes past a block
    are NUL whenever the slots are compacted.
    """

    def __init__(self):
        self._halves = [bytearray(), bytearray()]
        self._dirty = [0, 0]  # bytes of each half that may not be NUL
        self._rows = np.empty(0, dtype=np.uint64)

    def arrays(self, cells: int, sizes):
        """(halves, low, high) for ``cells`` cells whose slots take ``sizes`` bytes a half.

        ``halves`` are the two uint8 slot arrays, ``low`` a (_LOW_ROWS,
        cells) uint64 array and ``high`` the other uint64 rows, the last
        of them in the halves; all unset.
        """
        hosted = [min(size // (8 * cells), _ROWS - _LOW_ROWS) for size in sizes]
        hosted[1] = min(hosted[1], _ROWS - _LOW_ROWS - hosted[0])
        for i, size in enumerate(sizes):
            if size > len(self._halves[i]):
                self._halves[i] = None  # the smaller goes before the larger is made
                self._halves[i], self._dirty[i] = bytearray(size), 0
            self._dirty[i] = max(self._dirty[i], size)
        count = (_ROWS - sum(hosted)) * cells
        if count > len(self._rows):
            self._rows = None
            self._rows = np.empty(count, dtype=np.uint64)
        rows = list(self._rows[:count].reshape(-1, cells))
        for half, k in zip(self._halves, hosted):
            rows += list(np.frombuffer(half, np.uint64, k * cells).reshape(k, cells))
        halves = [np.frombuffer(h, np.uint8, size) for h, size in zip(self._halves, sizes)]
        return halves, self._rows[: _LOW_ROWS * cells].reshape(_LOW_ROWS, cells), rows[_LOW_ROWS:]

    def compact(self, sizes) -> np.ndarray:
        """The first ``sizes`` bytes of the halves without their NULs, as a new uint8 array."""
        for i, size in enumerate(sizes):
            np.frombuffer(self._halves[i], np.uint8)[size : self._dirty[i]] = 0
            self._dirty[i] = size
        text = self._halves[0].translate(None, b"\0")
        text += self._halves[1].translate(None, b"\0")
        return np.frombuffer(text, dtype=np.uint8)


def _put(parts, at, values):
    """Write each half's cells of ``values`` (bytes per cell) at the cell columns ``at``."""
    for span, cell in parts:
        cell[:, at] = values[span]


class RowLayout:
    """Rows of ``prefixes[j] + cell + suffixes[j]`` over the columns j of a block.

    Each cell is ``repr(value)``, with NaN and the infinities spelled
    ``nan`` and ``inf`` (CSV) or ``NaN`` and ``Infinity`` (JSON). All
    text is ASCII. A row's slots are the columns' prefixes, padded to
    the longest, cells and suffixes, padded likewise, with NUL.
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
        # 255 on each byte a pattern keeps, and on the sign
        self._masks = np.where(np.concatenate([_PATTERNS, spelled]), 255, 0).astype(np.uint8)
        self._masks[:, _SIGN] = 255
        template = np.zeros((columns, slot), dtype=np.uint8)
        template[:, head : head + _CELL] = np.frombuffer(
            ("-0.000" + "0." * 17 + "e+000").encode("ascii"), dtype=np.uint8
        )
        for j, (prefix, suffix) in enumerate(zip(prefixes, suffixes)):
            for at, text in ((0, prefix), (head + _CELL, suffix)):
                template[j, at : at + len(text)] = np.frombuffer(text.encode("ascii"), np.uint8)
        self._template = template

    def rows(self, block: np.ndarray, workspace: Workspace | None = None) -> np.ndarray:
        """The bytes of the rows of a (rows, columns) float64 block, as a new uint8 array.

        ``workspace`` holds all the call's working memory between calls;
        without one, the call makes its own.
        """
        block = np.ascontiguousarray(block, dtype=np.float64)
        n_rows, columns = block.shape
        bits = block.view(np.uint64).ravel()
        n, slot = len(bits), self._template.shape[1]
        if not n:
            return np.empty(0, dtype=np.uint8)
        workspace = Workspace() if workspace is None else workspace
        middle = (n_rows + 1) // 2 * columns  # the cells of the first half's rows
        spans = [slice(0, middle), slice(middle, n)]
        sizes = [(span.stop - span.start) * slot for span in spans]
        halves, low, high = workspace.arrays(n, sizes)
        top, groups, x = _digits(bits, [*low, *high])
        spare, pattern = low[6], low[7].view(np.int64)
        parts = []
        for span, slots in zip(spans, halves):
            slots.reshape(-1, columns, slot)[:] = self._template
            parts.append((span, slots.reshape(-1, slot)[:, self._start : self._start + _CELL]))
        # the digits, each followed by a point
        leading = spare.view(np.uint16)[:n]
        np.take(_DIGITS1, top, out=leading, mode="clip")
        _put(parts, slice(_DIGIT, _digit(1)), leading.view(np.uint8).reshape(n, 2))
        for j, group in enumerate(groups):
            np.take(_DIGITS4, group, out=spare, mode="clip")
            at = slice(_digit(1 + 4 * j), _digit(5 + 4 * j))
            _put(parts, at, spare.view(np.uint8).reshape(n, 8))
        # the significant digits, then the exponent, then each cell's pattern
        nd, more = spare.view(np.uint8)[: 2 * n].reshape(2, n)
        np.take(_SIGNIFICANT[0], groups[0], out=nd, mode="clip")
        for table, group in zip(_SIGNIFICANT[1:], groups[1:]):
            np.take(table, group, out=more, mode="clip")
            np.maximum(nd, more, out=nd)
        x += _X_RANGE
        np.multiply(x, 18, out=top)
        top += nd
        ids = spare.view(np.int16)[n : 2 * n]
        np.take(_IDS, top, out=ids, mode="clip")
        np.copyto(pattern, ids)
        exponent = spare.view(np.uint32)[:n]
        np.take(_EXPONENTS, x, out=exponent, mode="clip")
        _put(parts, slice(_E + 1, _CELL), exponent.view(np.uint8).reshape(n, 4))
        magnitude, flag = low[0], spare.view(np.bool_)[:n]
        np.bitwise_and(bits, _LOW63, out=magnitude)
        np.equal(magnitude, 0, out=flag)
        np.copyto(pattern, _ZERO, where=flag)
        np.greater_equal(magnitude, _INFINITY, out=flag)
        special = np.flatnonzero(flag)
        infinite = magnitude[special] == _INFINITY
        pattern[special] = _NAN + infinite
        # NUL on each byte the cell's pattern drops, and on the sign of x >= 0
        mask = low.view(np.uint8).reshape(-1)[: n * _CELL].reshape(n, _CELL)
        np.take(self._masks, pattern, axis=0, out=mask, mode="clip")
        np.less(bits.view(np.int64), 0, out=flag)
        flag[special[~infinite]] = False  # repr(-nan) is "nan"
        for span, cell in parts:
            np.bitwise_and(cell, mask[span], out=cell)
            np.multiply(cell[:, _SIGN], flag[span], out=cell[:, _SIGN])
            for word, spelled in zip(self._spelled, (special[~infinite], special[infinite])):
                if len(spelled):
                    at = spelled[(spelled >= span.start) & (spelled < span.stop)] - span.start
                    cell[at[:, None], _digit(np.arange(len(word)))] = word
        return workspace.compact(sizes)
