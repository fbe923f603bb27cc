import importlib.util
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from djcm.scenario import _CSV_ROWS, _JSON_ROWS
from djcm.shortest import RowLayout, Workspace

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "check_formatter.py")
_SPEC = importlib.util.spec_from_file_location("check_formatter", _PATH)
check_formatter = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_formatter)


def test_formatter_matches_repr_on_two_million_values():
    rng = np.random.default_rng(check_formatter.SEED)
    values = np.concatenate([check_formatter.edge_cases(), check_formatter.draw(2_000_000, rng)])
    found, shown = check_formatter.mismatches(values)
    assert found == 0, shown


def test_check_exits_1_on_a_mismatch(monkeypatch, capsys):
    assert check_formatter.main(["0"]) == 0
    assert capsys.readouterr().out.endswith(" 0 mismatches\n")
    # a CSV writer that ends its rows in "\r\n" differs on every value
    monkeypatch.setattr(check_formatter, "_CSV", RowLayout([""], ["\r\n"]))
    assert check_formatter.main(["0"]) == 1


@pytest.mark.parametrize("rows", [1, 3, 256, 333, 5000])
def test_rows_join_prefixes_cells_and_suffixes(rows):
    layout = RowLayout(['{"a": ', ', "bb": '], ["", "}\n"], nan="NaN", inf="Infinity")
    rng = np.random.default_rng(rows)
    block = rng.standard_normal((rows, 2)) * 10.0 ** rng.integers(-30, 30, (rows, 2))
    block[0] = [-math.nan, -math.inf]
    want = "".join(json.dumps({"a": a, "bb": b}) + "\n" for a, b in block.tolist())
    assert layout.rows(block).tobytes().decode("ascii") == want


def test_rows_take_any_float64_layout():
    layout = RowLayout(["", ""], [",", "\n"])
    block = np.arange(12.0).reshape(2, 6)[:, ::3].T  # not contiguous
    assert layout.rows(block).tobytes() == b"0.0,6.0\n3.0,9.0\n"


def test_one_workspace_formats_blocks_of_any_size_and_layout():
    # long cells in a large block, then short ones in smaller blocks of
    # another layout: nothing the large block wrote may show
    csv = RowLayout(["", ""], [",", "\n"])
    js = RowLayout(['{"a": ', ', "bb": '], ["", "}\n"], nan="NaN", inf="Infinity")
    rng = np.random.default_rng(7)
    edges = np.array(
        [[math.nan, -math.nan], [math.inf, -math.inf], [0.0, -0.0], [5e-324, -2.2250738585072e-308]]
    )
    long_cells = -rng.random((768, 2)) * 1e-300
    long_cells[100:104] = edges
    zeros = np.zeros((300, 2))
    zeros[::3] = -0.0
    work = Workspace()
    blocks = [long_cells, zeros, np.ones((17, 2)), edges, long_cells, edges]
    for layout, block in zip((csv, js, csv, js, js, csv), blocks):
        assert layout.rows(block, work).tobytes() == layout.rows(block).tobytes()
    want = b"nan,nan\ninf,-inf\n0.0,-0.0\n5e-324,-2.2250738585072e-308\n"
    assert csv.rows(edges, work).tobytes() == want


def _traced(layout, blocks):
    """Traced bytes of a workspace warmed on blocks[0], and the peak of the call on
    blocks[1] above them, less the text it returns."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        work = Workspace()
        layout.rows(blocks[0], work)
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        text = layout.rows(blocks[1], work)
        peak = tracemalloc.get_traced_memory()[1] - base - held
    finally:
        tracemalloc.stop()
    return held, peak - text.nbytes


@pytest.mark.parametrize("layout", [_CSV_ROWS, _JSON_ROWS], ids=["csv", "json"])
def test_a_warm_block_formats_in_its_workspace(layout):
    # a stream's longest block, 768 x 12 cells. The workspace holds the
    # slots (46 bytes a CSV cell, 67 a JSON one) in two halves and 16
    # uint64 rows a cell, as many of them in the slots as fit: 143 and
    # 131 bytes a cell. Beyond the text, the one temporary of note is the
    # compaction's: bytearray.translate makes each half's text as long as
    # the half's slots, and shrinks it only where it fills under half of
    # them. Bounds, in bytes a cell: 48 for the transients, 180 for the
    # workspace and transients. Fresh arrays at each step and np.compress
    # read about 190 and 280 (CSV), 195 and 325 (JSON).
    rng = np.random.default_rng(27)
    shape = (768, 12)
    blocks = [rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape) for _ in "ab"]
    held, transient = _traced(layout, blocks)
    cells = blocks[1].size
    assert transient / cells <= 48.0, (held / cells, transient / cells)
    assert (held + transient) / cells <= 180.0, (held / cells, transient / cells)
