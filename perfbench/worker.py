"""One pass of one benchmark workload, in a fresh process.

    python3 worker.py PLAN RESULT TRACE

``run.py`` starts this with the checkout's ``src`` on PYTHONPATH, BLAS
pinned to one thread and the run's work directory as the current
directory. The worker imports djcm, parses every scenario document of
the plan, prints ``ready`` and reads one line from stdin: ``go`` runs the
pass, anything else ends the process (a set-up probe). Each operation is
timed on its own; the facts needed to check it are gathered outside those
timers, files are inspected only after the peak RSS is read, and the
result goes to RESULT as JSON. With TRACE 1 the layer functions are
wrapped (see ``spans.py``) before anything is parsed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import sys
import time

import numpy as np

# rows whose W, E_x and E_y the seed-0 reference keeps for each preset
REFERENCE_ROWS = tuple(range(0, 2000, 100)) + (1999,)
REFERENCE_TOL = 1e-5  # seed jitter moves these by <= 3.2e-6 (see run.py)
NORM_DRIFT_LIMIT = 1e-10
ENTROPIC_MARGIN_LIMIT = -1e-9
SUITE_DEVIATION_LIMIT = 1e-8
CLI_DEVIATION_LIMIT = 1e-6
_CSV_W, _CSV_EX, _CSV_EY = 1, 9, 10


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _cli(argv):
    from djcm import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _deviation(text: str, label: str) -> float:
    match = re.search(label + r": max amplitude deviation (\S+)", text)
    return float(match.group(1)) if match else math.nan


# ---------------------------------------------------------------------------
# Operations: each returns (seconds, facts) and raises only on a program error
# ---------------------------------------------------------------------------


def _sweep(op, cfg):
    from djcm import scenario

    start = time.perf_counter()
    result = scenario.run_scenario(cfg)
    scenario.emit(result.records, "csv", op["out"], result.metadata)
    seconds = time.perf_counter() - start
    records = result.records
    norms = np.array([r.norm for r in records])
    dh = np.array([[r.dH_x, r.dH_y, r.dH_z] for r in records])
    resolved = result.metadata["resolved"]
    return seconds, {
        "n_cut": resolved["n_cut"],
        "norm_drift": float(np.max(np.abs(norms - resolved["captured_mass"]))),
        "entropic_margin": float(np.min(dh[:, 0] * dh[:, 1] - 4.0 / dh[:, 2])),
    }


def _suite(op, cfg):
    from djcm import dynamics

    start = time.perf_counter()
    dist = cfg.build_distribution()
    t_grid = np.linspace(0.0, op["window"], op["segments"] + 1)
    states = dynamics.evolve_ode_oracle(
        cfg.params, cfg.nonlinearity, dist, t_grid, tol=op["tol"]
    )
    exc, gnd = dynamics.closed_form_series(cfg.params, cfg.nonlinearity, dist, t_grid)
    seconds = time.perf_counter() - start
    deviation = max(
        max(float(np.max(np.abs(s.excited - exc[i]))), float(np.max(np.abs(s.ground - gnd[i]))))
        for i, s in enumerate(states)
    )
    return seconds, {"n_cut": dist.n_cut, "deviation": deviation}


def _cli_op(op, cfg):
    start = time.perf_counter()
    code, text = _cli(op["argv"])
    seconds = time.perf_counter() - start
    facts = {"exit": code}
    if op["check"] == "oracle":
        facts["deviation"] = _deviation(text, "oracle check")
    elif op["check"] == "diagnostic":
        facts["deviation"] = _deviation(text, "counter-rotating diagnostic")
    elif op["check"] == "revivals":
        events = json.loads(text)
        facts["first_revival"] = events[0]["t_center"] if events else None
    return seconds, facts


RUNNERS = {"sweep": _sweep, "suite": _suite, "cli": _cli_op}


def _late_facts(op, cfg) -> dict:
    """Facts gathered after the pass: output files and doublet counts."""
    facts = {}
    if op["kind"] == "sweep":
        facts["active"] = int(np.count_nonzero(cfg.build_distribution().probabilities))
    path = op.get("out")
    if path is None:
        return facts
    with open(path, "rb") as handle:
        data = handle.read()
    facts["sha256"] = hashlib.sha256(data).hexdigest()
    if path.endswith(".json"):
        facts["rows"] = len(json.loads(data)["records"])
        return facts
    lines = data.decode("utf-8").splitlines()[1:]
    facts["rows"] = len(lines)
    if op["kind"] == "sweep" and len(lines) == op["rows"]:
        picked = {}
        for i in REFERENCE_ROWS:
            cells = lines[i].split(",")
            picked[str(i)] = [float(cells[c]) for c in (_CSV_W, _CSV_EX, _CSV_EY)]
        facts["samples"] = picked
    return facts


def check(op, facts, ref) -> None:
    """Raise CheckFailed unless the operation's facts are correct."""
    if "exit" in facts:
        _require(facts["exit"] == 0, f"exit code {facts['exit']}")
    if "rows" in facts:
        _require(facts["rows"] == op["rows"], f"{facts['rows']} rows, expected {op['rows']}")
    preset = ref["presets"].get(op.get("preset"))
    if op["kind"] in ("sweep", "suite"):
        _require(preset is not None, "no reference for this preset")
        _require(facts["n_cut"] == preset["n_cut"], f"n_cut {facts['n_cut']} != {preset['n_cut']}")
    if op["kind"] == "sweep":
        _require(facts["active"] == preset["active"], "active doublet count changed")
        _require(facts["norm_drift"] <= NORM_DRIFT_LIMIT, f"norm drift {facts['norm_drift']:.3e}")
        _require(
            facts["entropic_margin"] >= ENTROPIC_MARGIN_LIMIT,
            f"entropic margin {facts['entropic_margin']:.3e}",
        )
        _require(abs(facts["samples"]["0"][0] - 1.0) <= 1e-9, "W(0) != 1")
        for row, values in preset["samples"].items():
            worst = max(abs(a - b) for a, b in zip(facts["samples"][row], values))
            _require(worst <= REFERENCE_TOL, f"row {row} differs from reference by {worst:.3e}")
    elif op["kind"] == "suite":
        _require(op["window"] == preset["window"], "oracle window changed")
        _require(op["perturbed_window"] == op["window"], "jitter moves the oracle window")
        _require(
            facts["deviation"] <= SUITE_DEVIATION_LIMIT,
            f"oracle deviation {facts['deviation']:.3e} on window {op['window']:g}",
        )
    elif op["check"] == "oracle":
        _require(facts["deviation"] <= CLI_DEVIATION_LIMIT, f"oracle deviation {facts['deviation']}")
    elif op["check"] == "diagnostic":
        _require(math.isfinite(facts["deviation"]), "counter-rotating deviation not finite")
    elif op["check"] == "revivals":
        expected = ref["first_revival"]
        _require(facts["first_revival"] is not None, "no revival found")
        _require(
            abs(facts["first_revival"] - expected) <= op["grid_step"],
            f"first revival at {facts['first_revival']}, reference {expected}",
        )


def main(argv) -> int:
    plan_path, result_path, trace = argv[1], argv[2], argv[3] == "1"
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)

    import djcm

    src = os.path.realpath(plan["src"])
    if not os.path.realpath(djcm.__file__).startswith(src + os.sep):
        print(f"djcm imported from {djcm.__file__}, not {src}", file=sys.stderr)
        return 1
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    from djcm import scenario

    configs = []
    for op in plan["ops"]:
        doc = op.get("doc")
        configs.append(None if doc is None else scenario.config_from_dict(doc, op.get("preset")))
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    outcomes = []
    for op, cfg in zip(plan["ops"], configs):
        if tracer is not None:
            tracer.op = op["id"]
        try:
            seconds, facts = RUNNERS[op["kind"]](op, cfg)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            seconds, facts, error = 0.0, {}, f"{type(exc).__name__}: {exc}"
        outcomes.append((op, seconds, facts, error))
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.recording = False

    ref = None
    if not plan["record"]:
        with open(plan["reference"], encoding="utf-8") as handle:
            ref = json.load(handle)
    ops_out = []
    identical = compared = 0
    for (op, seconds, facts, error), cfg in zip(outcomes, configs):
        if error is None:
            try:
                facts.update(_late_facts(op, cfg))
                if ref is not None:
                    check(op, facts, ref)
            except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        if ref is not None and op["reference_inputs"] and "sha256" in facts:
            compared += 1
            identical += facts["sha256"] == ref["outputs"].get(op["id"])
        ops_out.append({"id": op["id"], "seconds": seconds, "error": error, "facts": facts})

    result = {
        "wall_s": sum(o["seconds"] for o in ops_out),
        "peak_rss_kib": peak_rss_kib,
        "ops": ops_out,
        "identical_outputs": identical,
        "compared_outputs": compared,
    }
    if tracer is not None:
        predicted = sum(op.get("predicted_steps", 0.0) for op in plan["ops"])
        result["layers"] = spans.layer_metrics(tracer.spans, predicted)
        result["absent_layers"] = tracer.absent_layers()
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
