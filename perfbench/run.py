"""djcm benchmark: three workloads, every output checked, per-layer traces.

    python3 perfbench/run.py --workload preset_sweep --seed 1 --seconds 40 --trace 0

Run it from the root of a djcm checkout: it imports djcm from ``src``
and the oracle step-cost model from ``tests/test_acceptance.py``, and
keeps its work files and reports under ``.perfbench/``. Each pass of a
workload runs in a fresh worker process (``worker.py``) with BLAS pinned
to one thread; operations run one at a time (closed loop, one client).
A run first starts a few set-up probes, then passes until the next pass
would end after ``--seconds``. The last line of stdout is one JSON
object; the lines before it give the same numbers for people.

Workloads, and why each was chosen:

preset_sweep   all 45 presets through ``run_scenario`` plus CSV ``emit`` on
               their default 2000-sample grids. This is the production path;
               the closed-form kernel does most of the work.
oracle_check   the acceptance suite's criterion-2 family at the suite's own
               windows (tol 1e-10, 32 segments), except
               squeezed_bare_sqrt_n_k2 (47.7 s a run), plus CLI ``--oracle``
               and ``--counter-rotating-diagnostic`` on the full
               coherent_bare_identity grid. The RK4 oracle does the work.
long_grid_io   the README's revival workflow through ``cli.main`` on a
               50 000-sample grid (t_end 75): simulate to CSV, simulate to
               JSON, then ``revivals`` on the CSV. Record building and
               emission do the work; the kernel share is small.

Seeds: seed 0 runs the exact presets in a fixed order. Any other seed
shuffles the operations and multiplies every mu by 1 + u with |u| <=
1e-6. That keeps each n_cut, active-doublet count and oracle window
(fixed at the unperturbed preset) as at seed 0, which the worker checks,
and moves W, E_x and E_y by at most 3.2e-6, well inside the tolerance
of the seed-0 reference (``reference.json``, written by
``make_reference.py``).

End-to-end metrics (``--trace 0``), medians over the run:

setup_s        spawn of a worker until it has imported djcm and parsed
               every scenario document of the workload (probes and passes)
wall_s         one pass after set-up: the summed time of its operations
peak_rss_mib   ru_maxrss of the worker at the end of its pass

``failed_frac`` is ``failed / attempted`` of the result line. A failure
is an exception, an unexpected exit code or a failed output check.

Per-layer metrics (``--trace 1``): passes alternate untraced and traced;
each per-layer value is the median over the traced passes, and
``trace.overhead_s`` is the traced minus the untraced median wall time.
See ``spans.py`` for what each layer wraps. ``identical_outputs`` counts
emitted files byte-identical to seed 0; only seed 0 has inputs to
compare, so other seeds report 0, and a mismatch never fails a run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("preset_sweep", "oracle_check", "long_grid_io")

MU_JITTER = 1e-6
CLI_PRESET = "coherent_bare_identity"
SUITE_EXCLUDED = ("squeezed_bare_sqrt_n_k2",)
LONG_GRID = {"t_end": 75.0, "samples": 50000}
SETUP_PROBES = 6
READY_TIMEOUT_S = 30.0
PASS_TIMEOUT_S = 100.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _acceptance_suite():
    """The acceptance suite module, for its oracle window and cost model."""
    sys.path.insert(0, os.path.join(os.getcwd(), "tests"))
    import test_acceptance

    return test_acceptance


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def build_plan(workload: str, seed: int, work: str) -> dict:
    """Operations of one pass, made from the seed; config files go to work."""
    from djcm import scenario

    rng = random.Random(seed) if seed else None

    def jitter(mu: float) -> float:
        return mu if rng is None else mu * (1.0 + MU_JITTER * rng.uniform(-1.0, 1.0))

    def shuffled(items: list) -> list:
        return items if rng is None else rng.sample(items, len(items))

    def cli_op(op_id, check, argv_tail, override, out):
        config_path = f"{op_id.replace(':', '-')}.json"
        _write_json(os.path.join(work, config_path), override)
        doc = scenario.merge_config(scenario.preset_dict(CLI_PRESET), override)
        argv = ["simulate", "--preset", CLI_PRESET, "--config", config_path]
        return {
            "id": op_id, "kind": "cli", "check": check, "preset": CLI_PRESET,
            "doc": doc, "argv": argv + ["--output", out] + argv_tail, "out": out,
            "rows": doc["time"]["samples"],
        }

    base_mu = scenario.preset_dict(CLI_PRESET)["params"]["mu"]
    ops = []
    if workload == "preset_sweep":
        for name in shuffled(scenario.available_presets()):
            doc = scenario.preset_dict(name)
            doc["params"]["mu"] = jitter(doc["params"]["mu"])
            ops.append({
                "id": f"sweep:{name}", "kind": "sweep", "preset": name, "doc": doc,
                "out": f"{name}.csv", "rows": doc["time"]["samples"],
            })
    elif workload == "oracle_check":
        suite = _acceptance_suite()
        for name in suite.ORACLE_PRESETS:
            if name in SUITE_EXCLUDED:
                continue
            window, _ = suite.choose_oracle_window(scenario.preset(name))
            doc = scenario.preset_dict(name)
            doc["params"]["mu"] = jitter(doc["params"]["mu"])
            cfg = scenario.config_from_dict(doc, name)
            perturbed_window, dist = suite.choose_oracle_window(cfg)
            ops.append({
                "id": f"suite:{name}", "kind": "suite", "preset": name, "doc": doc,
                "window": window, "perturbed_window": perturbed_window,
                "segments": suite.ORACLE_SEGMENTS, "tol": suite.ORACLE_TOL,
                "predicted_steps": suite.predicted_oracle_steps(
                    cfg.params, cfg.nonlinearity, dist, window,
                    suite.ORACLE_SEGMENTS, suite.ORACLE_TOL,
                ),
            })
        for check, flag in (("oracle", "--oracle"), ("diagnostic", "--counter-rotating-diagnostic")):
            op = cli_op(f"cli:{check}", check, [flag], {"params": {"mu": jitter(base_mu)}}, f"{check}.csv")
            # the suite's rotating-wave cost model; the counter-rotating run
            # adds |mu + R_n|, which is below alpha_n on this bare preset
            cfg = scenario.config_from_dict(op["doc"])
            op["predicted_steps"] = suite.predicted_oracle_steps(
                cfg.params, cfg.nonlinearity, cfg.build_distribution(), cfg.t_end,
                cfg.samples - 1, suite.ORACLE_TOL,
            )
            ops.append(op)
        ops = shuffled(ops)
    elif workload == "long_grid_io":
        override = {"time": dict(LONG_GRID), "params": {"mu": jitter(base_mu)}}
        csv = cli_op("cli:simulate-csv", "csv", [], override, "long.csv")
        js = cli_op("cli:simulate-json", "json", ["--format", "json"], override, "long.json")
        rev = {
            "id": "cli:revivals", "kind": "cli", "check": "revivals",
            "argv": ["revivals", "--input", "long.csv"],
            "grid_step": LONG_GRID["t_end"] / (LONG_GRID["samples"] - 1),
        }
        orders = ([csv, js, rev], [csv, rev, js], [js, csv, rev])
        ops = list(orders[0] if rng is None else rng.choice(orders))
    else:
        raise BenchError(f"unknown workload {workload!r}")
    for op in ops:
        op["reference_inputs"] = seed == 0
    return {
        "workload": workload,
        "seed": seed,
        "src": os.path.join(os.getcwd(), "src"),
        "reference": REFERENCE,
        "record": False,
        "ops": ops,
    }


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------


def _wait_ready(proc) -> None:
    deadline = time.monotonic() + READY_TIMEOUT_S
    line = b""
    while not line.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
            raise BenchError("worker not ready in time")
        chunk = os.read(proc.stdout.fileno(), 64)
        if not chunk:
            raise BenchError(f"worker exited during set-up with code {proc.wait()}")
        line += chunk
    if line.strip() != b"ready":
        raise BenchError(f"unexpected worker output {line!r}")


def spawn(work: str, trace: bool, go: bool) -> tuple[float, float, dict | None]:
    """Start a worker; return (setup seconds, total seconds, pass result)."""
    result_path = os.path.join(work, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"), **THREAD_ENV)
    argv = [sys.executable, WORKER, "plan.json", "result.json", "1" if trace else "0"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=work, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        _wait_ready(proc)
        setup = time.perf_counter() - start
        proc.communicate(b"go\n" if go else b"stop\n", timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker pass timed out") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    total = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    if not go:
        return setup, total, None
    with open(result_path, encoding="utf-8") as handle:
        return setup, total, json.load(handle)


def measure(work: str, seconds: float, trace: bool) -> dict:
    """Set-up probes, then passes until the next one would overrun."""
    started = time.perf_counter()
    setups = [spawn(work, False, False)[0] for _ in range(SETUP_PROBES)]
    untraced, traced, totals = [], [], []
    while True:
        tracing = trace and len(traced) < len(untraced)
        setup, total, result = spawn(work, tracing, True)
        if not tracing:
            setups.append(setup)
        totals.append(total)
        (traced if tracing else untraced).append(result)
        elapsed = time.perf_counter() - started
        if (not trace or traced) and elapsed + statistics.median(totals) > seconds:
            break
    return {"setups": setups, "untraced": untraced, "traced": traced}


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREAD_ENV,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def summarize(runs: dict, trace: bool) -> dict:
    passes = runs["untraced"] + runs["traced"]
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["error"]]
    walls = [p["wall_s"] for p in runs["untraced"]]
    summary = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "failures": [f"{op['id']}: {op['error']}" for op in failed],
        "identical_outputs": min(p["identical_outputs"] for p in passes),
        "compared_outputs": passes[0]["compared_outputs"],
        "setup_samples": len(runs["setups"]),
        "passes": len(walls),
        "end_to_end": {
            "setup_s": _metric(statistics.median(runs["setups"]), "s"),
            "wall_s": _metric(statistics.median(walls), "s"),
            "peak_rss_mib": _metric(
                statistics.median(p["peak_rss_kib"] for p in runs["untraced"]) / 1024.0, "MiB"
            ),
        },
    }
    if trace:
        layers = {}
        for key in runs["traced"][0]["layers"]:
            value = statistics.median(p["layers"][key] for p in runs["traced"])
            layers[key] = _metric(value, spans.unit_of(key))
        traced_wall = statistics.median(p["wall_s"] for p in runs["traced"])
        layers["trace.overhead_s"] = _metric(traced_wall - statistics.median(walls), "s")
        layers["trace.absent_layers"] = _metric(len(runs["traced"][0]["absent_layers"]), "count")
        layers["identical_outputs"] = _metric(summary["identical_outputs"], "count")
        summary["per_layer"] = layers
        summary["absent_layers"] = runs["traced"][0]["absent_layers"]
    return summary



def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    needed = ("src/djcm/__init__.py", "tests/test_acceptance.py")
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing or not os.path.isfile(REFERENCE):
        print(f"not a djcm checkout (missing {missing or REFERENCE})", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    out_dir = os.path.join(root, ".perfbench")
    work = os.path.join(out_dir, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        plan = build_plan(args.workload, args.seed, work)
        _write_json(os.path.join(work, "plan.json"), plan)
        runs = measure(work, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    summary = summarize(runs, bool(args.trace))
    report = {"env": env, "args": vars(args), "summary": summary, "runs": runs}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    _write_json(os.path.join(out_dir, name), report)

    print(f"djcm benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    print("env: " + json.dumps(env))
    for failure in summary["failures"][:10]:
        print("FAILED " + failure)
    e2e = summary["end_to_end"]
    print(f"  setup_s       {e2e['setup_s']['value']:.4f} s    (median of {summary['setup_samples']})")
    print(f"  wall_s        {e2e['wall_s']['value']:.4f} s    (median of {summary['passes']} passes)")
    print(f"  peak_rss_mib  {e2e['peak_rss_mib']['value']:.2f} MiB")
    print(f"  failed_frac   {summary['failed'] / summary['attempted']:.4f}    "
          f"({summary['failed']} of {summary['attempted']} operations)")
    print(f"  identical_outputs {summary['identical_outputs']} of {summary['compared_outputs']}")
    if args.trace:
        for key, metric in summary["per_layer"].items():
            print(f"  {key:30s} {metric['value']:.6g} {metric['unit']}")
        if summary["absent_layers"]:
            print("  absent layers: " + ", ".join(summary["absent_layers"]))
    print(f"  report: .perfbench/{name}")
    metrics = summary["per_layer"] if args.trace else e2e
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
