"""Check the block formatter against float.__repr__ and the json module, value by value.

    PYTHONPATH=src python tools/check_formatter.py COUNT

Formats the fixed edge cases below and COUNT drawn doubles with
:class:`djcm.shortest.RowLayout` in both spellings. The CSV spelling must
equal ``repr(value)`` and the JSON spelling ``json.dumps(value)`` (which
is repr's, except for NaN and the infinities), byte for byte. The values,
drawn from a fixed seed, cover:

- random 64-bit patterns (every sign, exponent and fraction);
- every biased exponent at its power of 2 and one unit in the last
  place either side, with both signs;
- the powers of 10 from 1e-323 to 1e308 and their neighbours, the
  layout edges 1e-4 and 1e16 among them;
- small integers, and m * 2^e with small m, whose exact decimals can tie
  between two shortest candidates;
- decimals of 1 to 17 significant digits, which repr writes back short;
- subnormals, +-0, NaN and the infinities.

The values go through both layouts in blocks of BLOCKS rows in turn,
all formatted in one :class:`djcm.shortest.Workspace`, as ``emit`` formats
a run's blocks: each size is smaller than the one before, so a byte that
a larger block left in the workspace and a smaller one kept would show
as a mismatch.

Prints the number of values and mismatches, the first SHOWN mismatches
with them, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from djcm.shortest import RowLayout, Workspace

SEED = 20180618  # any fixed value; the draw depends only on it and COUNT
BLOCKS = (768, 300, 17)  # rows per block, in turn: a stream's longest, then shorter ones
SHOWN = 10  # mismatches printed
_CSV = RowLayout([""], ["\n"])
_JSON = RowLayout([""], [", "], nan="NaN", inf="Infinity")
_EXPONENT = 1 << 52
# json.dumps writes a float as repr does, except for these
_JSON_SPELLING = {repr(v): json.dumps(v) for v in (math.nan, math.inf, -math.inf)}


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.uint64)


def edge_cases() -> np.ndarray:
    """The values every run checks, as float64."""
    powers_of_two = _bits(np.arange(2047, dtype=np.uint64) * _bits(_EXPONENT))
    powers_of_ten = np.array([float(f"1e{p}") for p in range(-323, 309)]).view(np.uint64)
    layout = np.array([1e-4, 1e16, 9999999999999998.0, 9.999999999999999e-05]).view(np.uint64)
    first_subnormals = np.arange(1, 4096, dtype=np.uint64)
    around = np.concatenate([powers_of_two, powers_of_ten, layout])
    bits = np.concatenate([around - _bits(1), around, around + _bits(1), first_subnormals])
    bits = bits[bits < _bits(2047 * _EXPONENT)]  # the neighbours of 0 and of the largest
    special = [0.0, math.nan, math.inf, 0.1, 123.0, 2.2250738585072014e-308, 1.7976931348623157e308]
    values = np.concatenate([bits.view(np.float64), special])
    return np.concatenate([values, -values])


def draw(count: int, rng: np.random.Generator) -> np.ndarray:
    """count values of the random classes, in a fixed order."""
    share = count // 6
    patterns = rng.integers(0, 1 << 64, count - 5 * share, dtype=np.uint64, endpoint=False)
    small = rng.integers(1, 1 << 12, share).astype(np.float64)
    ties = np.ldexp(rng.integers(1, 1 << 12, share), rng.integers(-1085, 960, share))
    digits = rng.integers(1, 18, share)
    mantissas = np.floor(rng.random(share) * 10.0**digits).astype(np.int64) + 1
    exponents = rng.integers(-340, 300, share)
    short = np.array([float(f"{m}e{x}") for m, x in zip(mantissas.tolist(), exponents.tolist())])
    subnormal = rng.integers(0, _EXPONENT, share, dtype=np.uint64).view(np.float64)
    normal = rng.standard_normal(share) * 10.0 ** rng.integers(-20, 20, share)
    values = np.concatenate([patterns.view(np.float64), small, ties, short, subnormal, normal])
    signs = rng.integers(0, 2, len(values), dtype=np.uint64) << _bits(63)
    return (values.view(np.uint64) ^ signs).view(np.float64)


def _blocks(values: np.ndarray):
    """values cut into consecutive blocks of BLOCKS rows in turn."""
    start, turn = 0, 0
    while start < len(values):
        rows = BLOCKS[turn % len(BLOCKS)]
        yield values[start : start + rows]
        start, turn = start + rows, turn + 1


def mismatches(values: np.ndarray) -> tuple[int, list[str]]:
    """The number of values whose CSV or JSON spelling differs, and the first SHOWN."""
    found, shown = 0, []
    work = Workspace()
    for chunk in _blocks(values):
        cells = chunk.tolist()
        csv = _CSV.rows(chunk[:, None], work).tobytes().decode("ascii")
        js = "[" + _JSON.rows(chunk[:, None], work).tobytes().decode("ascii")[:-2] + "]"
        reprs = list(map(repr, cells))
        spelled = list(map(_JSON_SPELLING.get, reprs, reprs))
        if csv == "\n".join(reprs) + "\n" and js == "[" + ", ".join(spelled) + "]":
            continue
        pairs = zip(cells, csv.split("\n"), js[1:-1].split(", "), reprs, spelled)
        for value, got_csv, got_js, want_csv, want_js in pairs:
            if got_csv != want_csv or got_js != want_js:
                found += 1
                if len(shown) < SHOWN:
                    shown.append(f"{value!r}: csv {got_csv!r}, json {got_js!r}")
    return found, shown


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("count", type=int, help="values to draw besides the edge cases")
    args = parser.parse_args(argv)
    values = np.concatenate([edge_cases(), draw(args.count, np.random.default_rng(SEED))])
    found, shown = mismatches(values)
    for line in shown:
        print(line)
    print(f"{len(values)} values, {found} mismatches")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
