"""Paired benchmark runs of two djcm checkouts, with per-operation probes, as one JSON file.

    python tools/bench_pairs.py PARENT CHANGE OUT.json [--pairs 10] [--seconds 40]
                                [--metric wall_s]

PARENT and CHANGE are djcm checkouts (each with ``src``, ``tests`` and
``perfbench``); the parent is typically made with ``git archive``. The
script records:

``pairs``
    For the claimed workload (``--workload``, default ``long_grid_io``)
    and each seed of ``--seeds``, ``--pairs`` pairs of
    ``perfbench/run.py --trace 0`` runs, one per checkout, the first side
    alternating from pair to pair; each run's last line as it prints it.
    Seeds 41 and 43 order the long grid's operations csv first and json
    first. For each seed and each end-to-end metric: the pairs the change
    wins, the medians and the parent's interquartile range. The claimed
    metric (``--metric``, default ``wall_s``) names the record's
    ``claim`` and is the one printed per pair.
``checks``
    ``--check-pairs`` such pairs on each workload of ``--checks``, from
    seed ``--check-seed`` on, the metrics that must not move.
``probes``
    In fresh processes with BLAS on one thread, as in perfbench: the
    long grid's three CLI operations (simulate to CSV, to JSON,
    ``revivals`` on the CSV) in both orders, each with its seconds, its
    minor page faults (``ru_minflt``) and the process's ``ru_maxrss``
    after it; and the counter-rotating RK4 oracle on
    coherent_bare_identity's 2000-sample grid, seconds and minor faults
    per call. ``--probe-runs`` processes per side and order.
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

# Runs in a fresh process with a checkout's src on the path: argv[1] is
# "grid" with a comma-separated order of operations, or "oracle" with a
# call count; prints one JSON object.
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
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _metrics(result: dict) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def _quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": statistics.median(values), "q3": q3, "iqr": q3 - q1}


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
                             "attempted": result["attempted"], "correct": result["correct"]}
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
        entry = {"parent": _quartiles(parent), "change": _quartiles(change)}
        entry["change_lower"] = sum(c < p for p, c in zip(parent, change))
        entry["median_gap"] = entry["parent"]["median"] - entry["change"]["median"]
        out[metric] = entry
    out["failed"] = sum(r[side]["failed"] for r in rows for side in ("parent", "change"))
    return out


def _probe(checkout: str, kind: str, arg: str) -> list:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), **THREAD_ENV)
    done = subprocess.run(
        [sys.executable, "-c", PROBE, kind, arg], env=env, capture_output=True, text=True,
        check=True,
    )
    return json.loads(done.stdout)


def run_probes(sides: dict, runs: int) -> dict:
    """Per side: the grid's operations in both orders, and the counter-rotating oracle."""
    out = {}
    for side, checkout in sides.items():
        grid = {}
        for order in ("csv,json,revivals", "json,csv,revivals"):
            grid[order] = [_probe(checkout, "grid", order) for _ in range(runs)]
        # two warm-up calls, then the calls measured
        oracle = [_probe(checkout, "oracle", "12")[2:] for _ in range(runs)]
        out[side] = {"long_grid_ops": grid, "counter_rotating_oracle": oracle}
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
