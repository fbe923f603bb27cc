"""Paired benchmark runs of two djcm checkouts, with per-operation probes, as one JSON file.

    python tools/bench_pairs.py PARENT CHANGE OUT.json [--pairs 10] [--seconds 40]
                                [--metric wall_s]

PARENT and CHANGE are djcm checkouts (each with ``src``, ``tests`` and
``perfbench``); the parent is typically made with ``git archive``. Their
absolute paths must be equally long: ``preset_sweep`` ``wall_s`` moves by
about 1% with the length of the checkout's path alone, so the script
exits 2, naming both lengths, before it runs anything when they differ.
The script records:

``pairs``
    For the claimed workload (``--workload``, default ``long_grid_io``)
    and each seed of ``--seeds``, ``--pairs`` pairs of
    ``perfbench/run.py --trace 0`` runs, one per checkout, the first side
    alternating from pair to pair; each run's last line as it prints it.
    Seeds 41 and 43 order the long grid's operations csv first and json
    first. For each seed and each end-to-end metric: the pairs the change
    wins, the medians and the parent's interquartile range. The claimed
    metric (``--metric``, default ``wall_s``) names the record's
    ``claim`` and is the one printed per pair. Each run also reads its
    ``.perfbench`` report for the median seconds, over its passes, of
    the suite operations summed (``suite``), of the preset sweep's
    operations summed (``sweep``) and of each CLI operation (``cli:...``);
    each seed's summary holds their medians per side (``ops``), which
    show when one operation gains and another loses.
``checks``
    ``--check-pairs`` such pairs on each workload of ``--checks``, from
    seed ``--check-seed`` on, the metrics that must not move.
``probes``
    In fresh processes with BLAS on one thread, as in perfbench: the
    long grid's three CLI operations (simulate to CSV, to JSON,
    ``revivals`` on the CSV) in both orders, each with its seconds, its
    minor page faults (``ru_minflt``) and the process's ``ru_maxrss``
    after it; the formatter (``format``), ``RowLayout.rows`` in the CSV
    and the JSON layout on the long grid's first eight 768 x 12 blocks,
    with its ns per cell over 5 passes of one workspace and its
    ``tracemalloc`` figures for one warm block: the workspace's bytes,
    the call's peak with the workspace included, and the text's bytes;
    the counter-rotating RK4 oracle on
    coherent_bare_identity's 2000-sample grid, seconds and minor faults
    per call; the acceptance suite's criterion-2 family, each of its
    presets' ``evolve_ode_oracle`` plus ``closed_form_series`` on the
    window the suite picks, seconds and minor faults per preset and
    pass; and the 45 presets' ``run_scenario`` plus CSV ``emit``, as
    ``preset_sweep`` runs them, with seconds, process CPU (``ru_utime +
    ru_stime``, all threads), ``ru_maxrss`` and the files written per
    pass after a warm-up pass. Each pass writes each preset to a file of
    its own in a new directory, so no emit replaces a file: on a
    filesystem where replacing or deleting a file whose data is on disk
    takes tens of milliseconds, that wait would be timed with the pass.
    ``--probe-runs`` processes per side and order, the first side
    alternating from run to run, as in the pairs.
``probe_summary``
    Per probe timing (each long-grid operation per order, the formatter's
    ns per cell and peak bytes per cell per layout, an oracle call, a pass
    of the suite family, a pass of the sweep): each side's median and
    interquartile range of its samples, the gap of the medians and
    ``resolved``, true only when that gap exceeds the parent's IQR, and
    null when either side has fewer than 3 samples, whose IQR reads 0.
    The pairs' summaries carry ``resolved`` for each end-to-end metric too.
``traced``
    One ``--trace 1`` run per checkout of the claimed workload at seed
    ``--trace-seed``: its per-layer metrics (``emit.csv.busy_s``,
    ``emit.json.busy_s``, ``revivals.busy_s``, ...).

Everything runs one process at a time. Nothing is written into the
checkouts except perfbench's own ``.perfbench`` reports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

# the end-to-end metrics of perfbench/run.py, each better when lower
END_TO_END = ("wall_s", "setup_s", "peak_rss_mib")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Runs in a fresh process with a checkout's src on the path and the
# checkout as its directory: argv[1] is "grid" with a comma-separated order
# of operations, "oracle" with a call count, or "format", "suite" or
# "sweep" with a pass count; prints one JSON object.
PROBE = r"""
import contextlib, io, json, os, resource, sys, tempfile, time

def usage():
    return resource.getrusage(resource.RUSAGE_SELF)

kind, arg = sys.argv[1], sys.argv[2]
out = []
if kind == "grid":
    from djcm import cli
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        with open("long.json", "w") as handle:
            json.dump({"time": {"t_end": 75.0, "samples": 50000}}, handle)
        simulate = ["simulate", "--preset", "coherent_bare_identity", "--config", "long.json"]
        ops = {
            "csv": simulate + ["--output", "long.csv"],
            "json": simulate + ["--output", "long_run.json", "--format", "json"],
            "revivals": ["revivals", "--input", "long.csv"],
        }
        for name in arg.split(","):
            before, start = usage(), time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(ops[name])
            seconds, after = time.perf_counter() - start, usage()
            out.append({
                "op": name, "exit": code, "seconds": seconds,
                "minflt": after.ru_minflt - before.ru_minflt,
                "maxrss_mib": after.ru_maxrss / 1024.0,
            })
        os.chdir("/")
elif kind == "format":
    import tracemalloc
    import numpy as np
    from djcm import scenario
    from djcm.shortest import Workspace
    doc = {"time": {"t_end": 75.0, "samples": 50000}}
    doc = scenario.merge_config(scenario.preset_dict("coherent_bare_identity"), doc)
    blocks = []
    for series in scenario.iter_scenario(scenario.config_from_dict(doc)):
        blocks.append(np.stack([series[name] for name in scenario.CSV_COLUMNS], axis=1))
        if len(blocks) == 8:
            break
    for name, layout in (("csv", scenario._CSV_ROWS), ("json", scenario._JSON_ROWS)):
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        work = Workspace()
        layout.rows(blocks[0], work)
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        text = layout.rows(blocks[1], work)
        peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.stop()
        ns = []
        for _ in range(int(arg)):
            start = time.perf_counter()
            for block in blocks:
                layout.rows(block, work)
            ns.append((time.perf_counter() - start) / (len(blocks) * blocks[0].size) * 1e9)
        out.append({
            "layout": name, "cells": blocks[0].size, "ns_per_cell": ns,
            "workspace_bytes": held, "peak_bytes": peak, "text_bytes": text.nbytes,
        })
elif kind == "suite":
    sys.path.insert(0, "tests")
    import numpy as np
    import test_acceptance as suite
    from djcm import dynamics, scenario
    windows = []
    for name in suite.ORACLE_PRESETS:
        cfg = scenario.preset(name)
        window, dist = suite.choose_oracle_window(cfg)
        windows.append((name, cfg, dist, np.linspace(0.0, window, suite.ORACLE_SEGMENTS + 1)))
    for i in range(int(arg)):
        for name, cfg, dist, grid in windows:
            before, start = usage(), time.perf_counter()
            dynamics.evolve_ode_oracle(
                cfg.params, cfg.nonlinearity, dist, grid, tol=suite.ORACLE_TOL
            )
            dynamics.closed_form_series(cfg.params, cfg.nonlinearity, dist, grid)
            seconds, after = time.perf_counter() - start, usage()
            out.append({
                "pass": i, "preset": name, "seconds": seconds,
                "minflt": after.ru_minflt - before.ru_minflt,
            })
elif kind == "sweep":
    from djcm import scenario
    configs = {name: scenario.preset(name) for name in scenario.available_presets()}
    with tempfile.TemporaryDirectory() as work:
        for i in range(int(arg)):
            # each preset's file new in a directory of the pass: no emit replaces a file
            folder = os.path.join(work, f"pass{i}")
            os.mkdir(folder)
            before, start = usage(), time.perf_counter()
            for name, cfg in configs.items():
                result = scenario.run_scenario(cfg)
                path = os.path.join(folder, name + ".csv")
                scenario.emit(result.records, "csv", path, result.metadata)
            seconds, after = time.perf_counter() - start, usage()
            cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
            out.append({
                "pass": i, "presets": len(configs), "seconds": seconds, "cpu_s": cpu,
                "maxrss_mib": after.ru_maxrss / 1024.0, "files": len(os.listdir(folder)),
            })
else:
    from djcm import dynamics, scenario
    cfg = scenario.preset("coherent_bare_identity")
    dist = cfg.build_distribution()
    for _ in range(int(arg)):
        before, start = usage(), time.perf_counter()
        for _ in dynamics.ode_oracle_blocks(
            cfg.params, cfg.nonlinearity, dist, cfg.grid(), include_counter_rotating=True
        ):
            pass
        seconds, after = time.perf_counter() - start, usage()
        out.append({"seconds": seconds, "minflt": after.ru_minflt - before.ru_minflt})
print(json.dumps(out))
"""


def _run_bench(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The run's last line, with ``ops``: its operations' medians (:func:`_op_medians`)."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report = os.path.join(checkout, ".perfbench", f"{workload}-seed{seed}-trace{trace}.json")
    with open(report, encoding="utf-8") as handle:
        result["ops"] = _op_medians(json.load(handle)["runs"])
    return result


def _op_medians(runs: dict) -> dict:
    """Median seconds over a report's untraced passes: per CLI operation, and summed
    over the suite's operations (``suite``) and over the preset sweep's (``sweep``)."""
    passes = []
    for result in runs["untraced"]:
        seconds = {}
        for op in result["ops"]:
            kind = op["id"].split(":", 1)[0]
            key = op["id"] if kind == "cli" else kind
            seconds[key] = seconds.get(key, 0.0) + op["seconds"]
        passes.append(seconds)
    keys = sorted({key for seconds in passes for key in seconds})
    return {key: statistics.median(p[key] for p in passes if key in p) for key in keys}


def _metrics(result: dict) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def _quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": statistics.median(values), "q3": q3, "iqr": q3 - q1}


def _gap(parent: list, change: list) -> dict:
    """Both sides' quartiles, ``median_gap`` (parent less change) and ``resolved``: the
    gap exceeds the parent's IQR, so the runs can tell the two sides apart. With
    fewer than 3 samples a side the IQR reads 0 and any gap would pass: null."""
    entry = {"parent": _quartiles(parent), "change": _quartiles(change)}
    entry["median_gap"] = entry["parent"]["median"] - entry["change"]["median"]
    entry["resolved"] = (
        abs(entry["median_gap"]) > entry["parent"]["iqr"]
        if min(len(parent), len(change)) >= 3
        else None
    )
    return entry


def run_pairs(
    sides: dict, workload: str, seeds, count: int, seconds: float, metric: str = "wall_s"
) -> list:
    """``count`` alternating pairs per seed; each row holds both sides' end-to-end metrics.

    Each pair's ``metric`` goes to stderr as it is measured.
    """
    rows = []
    for seed in seeds:
        for i in range(count):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            row = {"seed": seed, "first": order[0]}
            for side in order:
                result = _run_bench(sides[side], workload, seed, seconds, 0)
                row[side] = {**_metrics(result), "failed": result["failed"],
                             "attempted": result["attempted"], "correct": result["correct"],
                             "ops": result.get("ops", {})}
            rows.append(row)
            print(f"{workload} seed {seed} pair {i} {metric}: parent "
                  f"{row['parent'][metric]:.4f}, change {row['change'][metric]:.4f}",
                  file=sys.stderr)
    return rows


def summarize(rows: list) -> dict:
    """Per end-to-end metric: both sides' quartiles and the pairs the change wins (is lower)."""
    out = {"pairs": len(rows)}
    for metric in END_TO_END:
        parent = [r["parent"][metric] for r in rows]
        change = [r["change"][metric] for r in rows]
        out[metric] = _gap(parent, change)
        out[metric]["change_lower"] = sum(c < p for p, c in zip(parent, change))
    out["failed"] = sum(r[side]["failed"] for r in rows for side in ("parent", "change"))
    out["ops"] = {}
    for side in ("parent", "change"):
        runs = [r[side].get("ops", {}) for r in rows]
        keys = sorted({key for ops in runs for key in ops})
        out["ops"][side] = {
            key: statistics.median(ops[key] for ops in runs if key in ops) for key in keys
        }
    return out


def _probe(checkout: str, kind: str, arg: str) -> list:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), **THREAD_ENV)
    done = subprocess.run(
        [sys.executable, "-c", PROBE, kind, arg], env=env, cwd=checkout, capture_output=True,
        text=True, check=True,
    )
    return json.loads(done.stdout)


def _in_turn(sides: dict, runs: int):
    """(side, checkout) for ``runs`` runs of each side, the first side alternating."""
    for i in range(runs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            yield side, sides[side]


def run_probes(sides: dict, runs: int) -> dict:
    """Per side: the grid's operations in both orders, the formatter, the counter-rotating
    oracle, the suite's criterion-2 family and the 45-preset sweep, each probe's runs in
    turn."""
    grid_orders = ("csv,json,revivals", "json,csv,revivals")
    out = {
        side: {
            "long_grid_ops": {order: [] for order in grid_orders}, "format": [],
            "counter_rotating_oracle": [], "suite_oracle_family": [], "preset_sweep": [],
        }
        for side in sides
    }
    for order in grid_orders:
        for side, checkout in _in_turn(sides, runs):
            out[side]["long_grid_ops"][order].append(_probe(checkout, "grid", order))
    for side, checkout in _in_turn(sides, runs):
        out[side]["format"].append(_probe(checkout, "format", "5"))
    for side, checkout in _in_turn(sides, runs):
        # two warm-up calls, then the calls measured
        out[side]["counter_rotating_oracle"].append(_probe(checkout, "oracle", "12")[2:])
    # a warm-up pass, then the passes measured
    for kind, key, passes in (("suite", "suite_oracle_family", "4"), ("sweep", "preset_sweep", "3")):
        for side, checkout in _in_turn(sides, runs):
            calls = _probe(checkout, kind, passes)
            out[side][key].append([call for call in calls if call["pass"]])
    return out


def _probe_seconds(probes: dict) -> dict:
    """One side's probe samples, one list per timing: the seconds of each long-grid
    operation per order (one per run), the formatter's ns per cell (one per pass) and
    traced peak bytes per cell (one per run) per layout, and the seconds of each
    counter-rotating oracle call and each pass of the suite family (its presets summed)
    and of the preset sweep."""
    out = {}
    for order, runs in probes["long_grid_ops"].items():
        for run in runs:
            for op in run:
                out.setdefault(f"long_grid_ops {order} {op['op']}", []).append(op["seconds"])
    for run in probes.get("format", []):
        for entry in run:
            name = f"format {entry['layout']}"
            out.setdefault(f"{name} ns_per_cell", []).extend(entry["ns_per_cell"])
            out.setdefault(f"{name} peak_bytes_per_cell", []).append(
                entry["peak_bytes"] / entry["cells"]
            )
    out["counter_rotating_oracle"] = [
        call["seconds"] for run in probes["counter_rotating_oracle"] for call in run
    ]
    for key in ("suite_oracle_family", "preset_sweep"):
        passes = {}
        for i, run in enumerate(probes[key]):
            for call in run:
                passes[i, call["pass"]] = passes.get((i, call["pass"]), 0.0) + call["seconds"]
        out[key] = list(passes.values())
    return out


def summarize_probes(probes: dict) -> dict:
    """Per probe timing with runs on both sides: each side's quartiles, the median gap
    and whether the gap exceeds the parent's IQR (:func:`_gap`)."""
    seconds = {side: _probe_seconds(found) for side, found in probes.items()}
    out = {}
    for name, parent in seconds["parent"].items():
        change = seconds["change"].get(name)
        if parent and change:
            out[name] = _gap(parent, change)
    return out


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "blas_threads_in_probes": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("out")
    parser.add_argument("--workload", default="long_grid_io")
    parser.add_argument("--metric", default="wall_s", choices=END_TO_END)
    parser.add_argument("--seeds", default="41,43")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--checks", default="oracle_check,preset_sweep")
    parser.add_argument("--check-pairs", type=int, default=3)
    parser.add_argument("--check-seed", type=int, default=1901)
    parser.add_argument("--probe-runs", type=int, default=3)
    parser.add_argument("--trace-seed", type=int, default=1941)
    args = parser.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    lengths = [len(path) for path in sides.values()]
    if lengths[0] != lengths[1]:
        print(f"bench_pairs: the checkout paths are {lengths[0]} and {lengths[1]} characters "
              "long; run both from paths of equal length", file=sys.stderr)
        return 2
    seeds = [int(s) for s in args.seeds.split(",")]

    record = {
        "command": " ".join(["python", "tools/bench_pairs.py", *(argv or sys.argv[1:])]),
        "env": environment(),
        "claim": f"{args.workload} {args.metric}",
        "pairs": {},
        "checks": {},
    }
    rows = run_pairs(sides, args.workload, seeds, args.pairs, args.seconds, args.metric)
    for seed in seeds:
        mine = [r for r in rows if r["seed"] == seed]
        record["pairs"][str(seed)] = {"summary": summarize(mine), "rows": mine}
    record["pairs"]["all"] = summarize(rows)
    for i, workload in enumerate(w for w in args.checks.split(",") if w):
        seed = args.check_seed + 10 * i
        found = run_pairs(sides, workload, [seed], args.check_pairs, args.seconds, args.metric)
        record["checks"][workload] = {"summary": summarize(found), "rows": found}
    record["probes"] = run_probes(sides, args.probe_runs)
    record["probe_summary"] = summarize_probes(record["probes"])
    record["traced"] = {
        side: _metrics(_run_bench(checkout, args.workload, args.trace_seed, args.seconds, 1))
        for side, checkout in sides.items()
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
