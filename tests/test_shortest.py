import importlib.util
import json
import math
import os

import numpy as np
import pytest

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
    # 5000 rows take three np.compress pieces
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
    long_cells = -rng.random((768, 2)) * 1e-300
    work = Workspace()
    blocks = [long_cells, np.zeros((300, 2)), np.ones((17, 2)), long_cells]
    for layout, block in zip((csv, js, csv, js), blocks):
        assert layout.rows(block, work).tobytes() == layout.rows(block).tobytes()
