"""The benchmark's reads of the library, pinned.

``perfbench/worker.py`` is imported as it stands, and two of its
operations run here: one preset of the sweep and one criterion-2 window of
the acceptance suite, each held to the facts that the worker's ``check``
gates. A change to the API the benchmark reads then fails here, not first
in a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import pytest
import test_acceptance as suite

from djcm import scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def reference():
    return json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def test_sweep_walks_the_rows_of_a_run(worker, reference, tmp_path):
    name = "thermal_kerr_stark_identity"
    cfg = scenario.preset(name)
    op = {
        "id": f"sweep:{name}", "kind": "sweep", "preset": name,
        "out": str(tmp_path / f"{name}.csv"), "rows": cfg.samples,
    }
    _, facts = worker._sweep(op, cfg)
    assert facts["norm_drift"] <= worker.NORM_DRIFT_LIMIT == 1e-10
    assert facts["entropic_margin"] >= worker.ENTROPIC_MARGIN_LIMIT == -1e-9
    facts.update(worker._late_facts(op, cfg))
    worker.check(op, facts, reference)


def test_suite_walks_the_oracle_states_of_a_criterion_2_window(worker, reference):
    name = "coherent_bare_sqrt_n_k2"
    cfg = scenario.preset(name)
    window, _ = suite.choose_oracle_window(cfg)
    op = {
        "id": f"suite:{name}", "kind": "suite", "preset": name,
        "window": window, "perturbed_window": window,
        "segments": suite.ORACLE_SEGMENTS, "tol": suite.ORACLE_TOL,
    }
    _, facts = worker._suite(op, cfg)
    assert facts["deviation"] <= worker.SUITE_DEVIATION_LIMIT == 1e-8
    worker.check(op, facts, reference)
