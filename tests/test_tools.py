import importlib.util
import json
import os

import numpy as np
import pytest

import djcm
from djcm.dynamics import closed_form_series, evolve_ode_oracle
from djcm.scenario import (
    CSV_COLUMNS,
    config_from_dict,
    emit,
    merge_config,
    preset_dict,
    run_scenario,
)


def _tool(name):
    """The module tools/<name>.py."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _tool("bench_pairs")
emit_all = _tool("emit_all")
oracle_blocks = _tool("oracle_blocks")


SMALL = {
    "params": {"k": 1, "gamma": 1.0, "mu": 0.1},
    "nonlinearity": "sqrt_n",
    "field": {"kind": "coherent", "nbar": 0.5},
    "time": {"t_end": 5.0, "samples": 120},
}


def _write_pair(tmp_path, fmt):
    res = run_scenario(config_from_dict(SMALL))
    a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
    for path in (a, b):
        emit(res.records, fmt, str(path), res.metadata)
    return a, b


def test_compare_reports_identical_files(tmp_path):
    for fmt in ("csv", "json"):
        a, b = _write_pair(tmp_path, fmt)
        assert emit_all.compare_file(str(a), str(b)) == (True, f"a.{fmt}: identical", {})
    same, report, _ = emit_all.compare_file(str(a), str(tmp_path / "absent.json"))
    assert not same and "missing" in report


def test_compare_reports_largest_change_per_column(tmp_path):
    a, b = _write_pair(tmp_path, "csv")
    lines = b.read_text().splitlines()
    cells = lines[5].split(",")
    w = CSV_COLUMNS.index("W")
    cells[w] = repr(float(cells[w]) + 2.5e-12)
    lines[5] = ",".join(cells)
    b.write_text("\n".join(lines) + "\n")
    same, report, worst = emit_all.compare_file(str(a), str(b))
    assert not same and "max |change| W 2.50e-12" in report
    assert list(worst) == ["W"]
    assert np.isclose(worst["W"], 2.5e-12, rtol=1e-3)


def test_compare_names_changed_metadata_keys(tmp_path):
    a, b = _write_pair(tmp_path, "json")
    doc = json.loads(b.read_text())
    doc["metadata"]["resolved"]["active_doublets"] += 1
    b.write_text(json.dumps(doc, indent=1) + "\n")
    same, report, worst = emit_all.compare_file(str(a), str(b))
    assert not same and worst == {}
    assert report.endswith("0 in every column; metadata keys changed: resolved.active_doublets")


def _shift_cell(path, row, column, by):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    i = CSV_COLUMNS.index(column)
    cells[i] = repr(float(cells[i]) + by)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_compare_exit_code_follows_the_column_limits(tmp_path, capsys):
    res = run_scenario(config_from_dict(SMALL))
    one, two = tmp_path / "one", tmp_path / "two"
    for folder in (one, two):
        folder.mkdir()
        emit(res.records, "csv", str(folder / "run.csv"))
    assert emit_all.compare_dirs(str(one), str(two), ["run.csv"]) == 0
    assert emit_all.compare_dirs(str(one), str(two), ["run.csv", "absent.csv"]) == 1
    # within the limits: W by 1e-15 (limit 2e-15), E_x by 5e-11 (limit 1e-10)
    _shift_cell(two / "run.csv", 7, "W", 1e-15)
    _shift_cell(two / "run.csv", 7, "E_x", 5e-11)
    capsys.readouterr()
    assert emit_all.compare_dirs(str(one), str(two), ["run.csv"]) == 1
    assert "beyond" not in capsys.readouterr().out
    # beyond them: each column is named
    _shift_cell(two / "run.csv", 9, "rho_gg", 4e-15)
    _shift_cell(two / "run.csv", 9, "E_y", 3e-10)
    assert emit_all.compare_dirs(str(one), str(two), ["run.csv"]) == 2
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("beyond the per-column limits: ")
    assert "rho_gg" in last and "E_y" in last and "W" not in last and "E_x" not in last


def test_emit_all_writes_through_the_cli(tmp_path, monkeypatch):
    name = "coherent_kerr_sqrt_n_lown"
    monkeypatch.setattr(emit_all.scenario, "available_presets", lambda: [name])
    monkeypatch.setattr(emit_all, "REVIVAL_TIME", {"t_end": 75.0, "samples": 3000})
    outdir = tmp_path / "out"
    here = os.getcwd()
    names = emit_all.emit_all(str(outdir))
    assert os.getcwd() == here
    assert names == [
        f"{name}.csv",
        f"{name}.json",
        "revival_grid.csv",
        "revival_grid.json",
        "coherent_bare_identity_oracle.json",
        "short_grid.csv",
        "short_grid_oracle.json",
        "config_variants.json",
    ]
    assert sorted(os.listdir(outdir)) == sorted(names)
    # the same bytes as run_scenario + emit, with the bare file name echoed
    revival = merge_config(preset_dict("coherent_bare_identity"), {"time": emit_all.REVIVAL_TIME})
    oracle = merge_config(
        preset_dict("coherent_bare_identity"),
        {"options": {"oracle_check": True, "counter_rotating_diagnostic": True}},
    )
    short = merge_config(preset_dict("coherent_bare_identity_k2"), {"time": {"samples": 15}})
    short_oracle = merge_config(short, {"options": {"oracle_check": True}})
    runs = [
        (names[0], preset_dict(name), name),
        (names[1], preset_dict(name), name),
        (names[2], revival, None),
        (names[3], revival, None),
        (names[4], oracle, "coherent_bare_identity"),
        (names[5], short, None),
        (names[6], short_oracle, None),
        (names[7], emit_all.VARIANTS_DOC, None),
    ]
    for file_name, doc, preset_name in runs:
        fmt = file_name.rsplit(".", 1)[1]
        doc = merge_config(doc, {"output": {"path": file_name, "format": fmt}})
        res = run_scenario(config_from_dict(doc, preset_name))
        emit(res.records, fmt, str(tmp_path / "expected"), res.metadata)
        assert (outdir / file_name).read_bytes() == (tmp_path / "expected").read_bytes(), file_name
    resolved = json.loads((outdir / names[4]).read_text())["metadata"]["resolved"]
    assert resolved["max_oracle_deviation"] <= 1e-6
    assert resolved["max_counter_rotating_deviation"] > 0.1
    resolved = json.loads((outdir / names[6]).read_text())["metadata"]["resolved"]
    assert resolved["max_oracle_deviation"] <= 1e-6
    # the echo keys and the option that no preset sets
    metadata = json.loads((outdir / names[7]).read_text())["metadata"]
    assert metadata["field"]["temperature"] == 2.0 and metadata["field"]["frequency"] == 1.0
    assert len(metadata["nonlinearity"]["table"]) == 80
    assert metadata["options"]["free_phase_on_coherence"] is True
    assert metadata["resolved"]["n_cut"] == 67


@pytest.mark.parametrize("grid", ["array", "uniform grid"])
def test_oracle_blocks_saves_every_case_both_ways(tmp_path, monkeypatch, capsys, grid):
    # both oracle integrations and the closed form; the CLI case passes a UniformGrid
    cfg = config_from_dict(SMALL)
    dist = cfg.build_distribution()
    times = cfg.grid()[:]
    run_on = cfg.grid() if grid == "uniform grid" else times
    case = ("small", cfg.params, cfg.nonlinearity, dist, run_on, 1e-10)
    monkeypatch.setattr(oracle_blocks, "cases", lambda: iter([case]))
    digests = oracle_blocks.oracle_blocks(str(tmp_path))
    assert list(digests) == ["small", "small_counter_rotating", "small_closed_form"]
    with np.load(tmp_path / oracle_blocks.FILE) as saved:
        assert saved.files == list(digests)
        for name, counter_rotating in (("small", False), ("small_counter_rotating", True)):
            states = evolve_ode_oracle(cfg.params, cfg.nonlinearity, dist, times, counter_rotating)
            expected = np.stack([states.excited, states.ground])
            assert saved[name].tobytes() == expected.tobytes()
        expected = np.stack(closed_form_series(cfg.params, cfg.nonlinearity, dist, times))
        assert saved["small_closed_form"].tobytes() == expected.tobytes()
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"small: {digests['small']}"
    assert out[2] == f"small_closed_form: {digests['small_closed_form']}"


def test_oracle_blocks_compare_exit_code_follows_the_limit(tmp_path, capsys):
    one, two = tmp_path / "one", tmp_path / "two"
    for folder in (one, two):
        folder.mkdir()
    blocks = np.arange(12.0).reshape(2, 3, 2) * (1.0 + 0.5j)

    def save(folder, **arrays):
        np.savez(folder / oracle_blocks.FILE, **arrays)

    save(one, a=blocks, b=blocks)
    save(two, a=blocks, b=blocks)
    assert oracle_blocks.compare(str(one), str(two)) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2 of 2 cases byte-identical"
    moved = blocks.copy()
    moved[1, 2, 0] += 5e-13
    save(two, a=blocks, b=moved)
    assert oracle_blocks.compare(str(one), str(two)) == 1
    assert "b: differs; max |change|" in capsys.readouterr().out
    moved[0, 0, 1] += 1e-9j
    save(two, a=blocks, b=moved)
    assert oracle_blocks.compare(str(one), str(two)) == 2
    save(two, a=blocks)
    assert oracle_blocks.compare(str(one), str(two)) == 2
    assert "b: missing" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, metric", [([], "wall_s"), (["--metric", "peak_rss_mib"], "peak_rss_mib")]
)
def test_bench_pairs_records_the_claimed_metric(tmp_path, monkeypatch, capsys, flags, metric):
    def run_bench(checkout, workload, seed, seconds, trace):
        rss = 46.0 if checkout.endswith("parent") else 42.0
        values = {"wall_s": 0.43, "setup_s": 0.09, "peak_rss_mib": rss}
        metrics = {name: {"value": value} for name, value in values.items()}
        return {"metrics": metrics, "failed": 0, "attempted": 9, "correct": True}

    monkeypatch.setattr(bench_pairs, "_run_bench", run_bench)
    out = tmp_path / "bench.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), str(out), "--seeds", "41"]
    argv += ["--pairs", "2", "--checks", "", "--probe-runs", "0", *flags]
    assert bench_pairs.main(argv) == 0
    record = json.loads(out.read_text())
    assert record["claim"] == f"long_grid_io {metric}"
    assert record["pairs"]["all"]["peak_rss_mib"]["change_lower"] == 2
    assert record["pairs"]["all"]["wall_s"]["change_lower"] == 0
    lines = capsys.readouterr().err.splitlines()
    value = {"wall_s": "0.4300, change 0.4300", "peak_rss_mib": "46.0000, change 42.0000"}
    pair = "long_grid_io seed 41 pair {} " + f"{metric}: parent {value[metric]}"
    assert lines == [pair.format(i) for i in (0, 1)]


def test_bench_pairs_alternates_the_probe_sides(monkeypatch):
    # each probe's runs take turns which side goes first, as the pairs do,
    # so that neither side always runs on a machine the other warmed
    calls = []

    def probe(checkout, kind, arg):
        calls.append((kind, arg, checkout))
        return [{"pass": 0}, {"pass": 1}, {"pass": 1}] if kind in ("suite", "sweep") else []

    monkeypatch.setattr(bench_pairs, "_probe", probe)
    out = bench_pairs.run_probes({"parent": "p", "change": "c"}, 3)
    probes = [("grid", "csv,json,revivals"), ("grid", "json,csv,revivals"), ("format", "5"),
              ("oracle", "12"), ("suite", "4"), ("sweep", "3")]
    assert [(kind, arg) for kind, arg, _ in calls] == [p for p in probes for _ in range(6)]
    for i in range(0, len(calls), 6):
        assert [side for *_, side in calls[i : i + 6]] == ["p", "c", "c", "p", "p", "c"]
    for side in out.values():
        assert [len(runs) for runs in side["long_grid_ops"].values()] == [3, 3]
        assert len(side["format"]) == 3
        assert len(side["counter_rotating_oracle"]) == 3
        assert side["suite_oracle_family"] == [[{"pass": 1}, {"pass": 1}]] * 3
        assert len(side["preset_sweep"]) == 3


def test_bench_pairs_records_per_operation_medians(tmp_path, monkeypatch):
    # from each run's report: per pass the suite's operations summed and each
    # CLI operation alone, their medians per run, then per side and seed
    def report(suite, cli):
        ops = [{"id": "suite:a", "seconds": suite / 2}, {"id": "suite:b", "seconds": suite / 2},
               {"id": "cli:oracle", "seconds": cli}]
        return {"ops": ops}

    runs = {"untraced": [report(0.1, 0.3), report(0.2, 0.1), report(0.6, 0.2)], "traced": []}
    assert bench_pairs._op_medians(runs) == pytest.approx({"suite": 0.2, "cli:oracle": 0.2})

    def run_bench(checkout, workload, seed, seconds, trace):
        suite = 0.1 if checkout.endswith("change") else 0.13
        metrics = {name: {"value": 1.0} for name in bench_pairs.END_TO_END}
        ops = {"suite": suite + 0.01 * seed, "cli:oracle": 0.16}
        return {"metrics": metrics, "failed": 0, "attempted": 9, "correct": True, "ops": ops}

    monkeypatch.setattr(bench_pairs, "_run_bench", run_bench)
    out = tmp_path / "bench.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), str(out), "--seeds", "1,2"]
    argv += ["--pairs", "2", "--checks", "", "--probe-runs", "0"]
    assert bench_pairs.main(argv) == 0
    record = json.loads(out.read_text())
    for seed in (1, 2):
        ops = record["pairs"][str(seed)]["summary"]["ops"]
        assert ops["parent"] == pytest.approx({"suite": 0.13 + 0.01 * seed, "cli:oracle": 0.16})
        assert ops["change"] == pytest.approx({"suite": 0.1 + 0.01 * seed, "cli:oracle": 0.16})


def test_bench_pairs_says_which_probes_separate_the_sides():
    # synthetic runs: the csv operation differs by more than the parent's
    # spread, the json operation by less; the suite and the sweep sum their
    # calls per pass, the oracle takes each call
    def side(csv, json_s, oracle, suite, sweep):
        grid = [[{"op": "csv", "seconds": c}, {"op": "json", "seconds": j}]
                for c, j in zip(csv, json_s)]
        return {
            "long_grid_ops": {"csv,json": grid},
            "counter_rotating_oracle": [[{"seconds": s} for s in oracle]],
            "suite_oracle_family": [[{"pass": 1, "seconds": s / 2}] * 2 for s in suite],
            "preset_sweep": [[{"pass": p, "seconds": s} for p, s in enumerate(sweep)]],
        }

    parent = side([1.0, 1.1, 1.2], [1.0, 1.4, 1.8], [0.1, 0.1, 0.1], [0.5, 0.6, 0.7], [])
    change = side([0.6, 0.7, 0.8], [1.2, 1.3, 1.2], [0.1, 0.1, 0.1], [0.2, 0.3, 0.4], [2.0])
    summary = bench_pairs.summarize_probes({"parent": parent, "change": change})
    assert set(summary) == {
        "long_grid_ops csv,json csv", "long_grid_ops csv,json json",
        "counter_rotating_oracle", "suite_oracle_family",
    }
    csv = summary["long_grid_ops csv,json csv"]
    assert csv["parent"]["median"] == pytest.approx(1.1)
    assert csv["change"]["median"] == pytest.approx(0.7)
    assert csv["parent"]["iqr"] == pytest.approx(0.2)
    assert csv["median_gap"] == pytest.approx(0.4) and csv["resolved"]
    json_op = summary["long_grid_ops csv,json json"]
    assert json_op["median_gap"] == pytest.approx(0.2) and not json_op["resolved"]
    assert summary["counter_rotating_oracle"]["median_gap"] == 0.0
    assert not summary["counter_rotating_oracle"]["resolved"]  # no gap, no spread
    suite = summary["suite_oracle_family"]
    assert suite["parent"]["median"] == pytest.approx(0.6) and suite["resolved"]


def test_bench_pairs_resolves_nothing_on_fewer_than_3_samples_a_side():
    # one sample a side has an IQR of 0, so any gap, in either sign, would
    # read as resolved
    for parent, change in (([1.0], [0.5]), ([1.0, 1.1], [0.5, 0.6, 0.7]), ([1.0] * 3, [2.0] * 2)):
        entry = bench_pairs._gap(parent, change)
        assert entry["resolved"] is None and entry["median_gap"] != 0.0
    assert bench_pairs._gap([1.0, 1.1, 1.2], [0.5, 0.6, 0.7])["resolved"] is True
    assert bench_pairs._gap([1.0, 1.4, 1.8], [1.2, 1.3, 1.2])["resolved"] is False
    # --probe-runs 1: one long-grid run a side
    one = {
        "long_grid_ops": {"csv": [[{"op": "csv", "seconds": 1.0}]]},
        "counter_rotating_oracle": [],
        "suite_oracle_family": [],
        "preset_sweep": [],
    }
    other = json.loads(json.dumps(one))
    other["long_grid_ops"]["csv"][0][0]["seconds"] = 0.9
    summary = bench_pairs.summarize_probes({"parent": one, "change": other})
    assert summary["long_grid_ops csv csv"]["resolved"] is None
    # two pairs: each end-to-end metric unresolved
    row = {name: 1.0 for name in bench_pairs.END_TO_END}
    rows = [{"parent": {**row, "failed": 0}, "change": {**row, "failed": 0}}] * 2
    summary = bench_pairs.summarize(rows)
    assert [summary[name]["resolved"] for name in bench_pairs.END_TO_END] == [None] * 3


def test_bench_pairs_probes_the_formatter():
    # RowLayout.rows on the long grid's 768 x 12 blocks, in a process of its
    # own with this checkout's src: per layout, ns per cell per pass and the
    # traced bytes of one warm block, its workspace and text included
    checkout = os.path.join(os.path.dirname(__file__), os.pardir)
    entries = bench_pairs._probe(checkout, "format", "2")
    assert [entry["layout"] for entry in entries] == ["csv", "json"]
    keys = {"layout", "cells", "ns_per_cell", "workspace_bytes", "peak_bytes", "text_bytes"}
    for entry in entries:
        assert set(entry) == keys and entry["cells"] == 768 * 12
        assert len(entry["ns_per_cell"]) == 2 and min(entry["ns_per_cell"]) > 0.0
        assert 0 < entry["workspace_bytes"]
        assert entry["workspace_bytes"] + entry["text_bytes"] <= entry["peak_bytes"]
    # the summary: ns per cell per pass, peak bytes per cell per run
    side = {
        "long_grid_ops": {}, "format": [entries] * 3, "counter_rotating_oracle": [],
        "suite_oracle_family": [], "preset_sweep": [],
    }
    summary = bench_pairs.summarize_probes({"parent": side, "change": side})
    assert sorted(summary) == [
        f"format {layout} {metric}"
        for layout in ("csv", "json") for metric in ("ns_per_cell", "peak_bytes_per_cell")
    ]
    peak = summary["format json peak_bytes_per_cell"]
    assert peak["parent"]["median"] == entries[1]["peak_bytes"] / entries[1]["cells"]
    assert peak["median_gap"] == 0.0 and summary["format csv ns_per_cell"]["resolved"] is False


def test_bench_pairs_probes_the_suite_oracle_family():
    # the acceptance suite's 12 criterion-2 presets, pass by pass, in a
    # process of their own with this checkout's src
    checkout = os.path.join(os.path.dirname(__file__), os.pardir)
    calls = bench_pairs._probe(checkout, "suite", "2")
    presets = [call["preset"] for call in calls]
    assert len(presets) == 24 and presets[:12] == presets[12:]
    assert len(set(presets)) == 12 and all("_bare_" in name for name in presets)
    assert [call["pass"] for call in calls] == [0] * 12 + [1] * 12
    assert all(call["seconds"] > 0.0 and call["minflt"] >= 0 for call in calls)


def test_bench_pairs_probes_the_preset_sweep():
    # the 45 presets' run_scenario plus CSV emit, two passes, in a process of
    # its own with this checkout's src; each pass writes 45 distinct new files
    checkout = os.path.join(os.path.dirname(__file__), os.pardir)
    calls = bench_pairs._probe(checkout, "sweep", "2")
    assert [(call["pass"], call["presets"], call["files"]) for call in calls] == [
        (0, 45, 45),
        (1, 45, 45),
    ]
    for call in calls:
        assert call["seconds"] > 0.0 and call["cpu_s"] > 0.0 and call["maxrss_mib"] > 0.0


def test_bench_pairs_refuses_checkout_paths_of_different_lengths(tmp_path, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("nothing may run")

    monkeypatch.setattr(bench_pairs, "_run_bench", never)
    monkeypatch.setattr(bench_pairs, "_probe", never)
    parent, change, out = tmp_path / "parent", tmp_path / "change_1", tmp_path / "bench.json"
    assert bench_pairs.main([str(parent), str(change), str(out)]) == 2
    assert not out.exists()
    lengths = f"{len(str(parent))} and {len(str(change))} characters"
    assert lengths in capsys.readouterr().err


def test_package_exports_are_sorted_unique_and_resolve():
    names = djcm.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(djcm, name)] == []
