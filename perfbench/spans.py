"""Spans around calls into the djcm layers, recorded from outside the program.

A traced worker replaces each layer function with a wrapper at the place
where its caller looks it up (``djcm.scenario.closed_form_series``, not
only ``djcm.dynamics.closed_form_series``), so the program itself carries
no timers. Spans live in memory and are handed back with the pass result.

A span is ``[name, start, end, parent, op, counts]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``op`` the id of the
benchmark operation that was running. A call made while a span of the
same layer is open is not recorded again, so each layer's busy time
counts every instant once.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import time

import numpy as np


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _kernel_cells(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"cells": len(a["times"]) * int(np.count_nonzero(a["dist"].probabilities))}


def _oracle_pairs(fn, args, kwargs, result):
    # the oracle integrates a doublet unless sqrt(2)|c0| <= tol/2 (frozen)
    a = _bound(fn, args, kwargs)
    c0 = np.sqrt(a["dist"].probabilities)
    live = int(np.count_nonzero(math.sqrt(2.0) * c0 > 0.5 * a["tol"]))
    return {"pairs": (len(a["t_grid"]) - 1) * live}


def _n_cut(fn, args, kwargs, result):
    return {"n_cut": result.n_cut}


def _records(fn, args, kwargs, result):
    return {"records": len(result)}


def _emit_name(fn, args, kwargs):
    return "emit." + _bound(fn, args, kwargs)["format"]


def _emit_bytes(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


def _rows(fn, args, kwargs, result):
    return {"rows": len(result["t"])}


def _samples(fn, args, kwargs, result):
    return {"samples": len(_bound(fn, args, kwargs)["records"])}


# (module, attribute, layer name or function of the call, counter)
TARGETS = (
    ("djcm.cli", "main", "cli", None),
    ("djcm.cli", "config_from_dict", "config", None),
    ("djcm.scenario", "config_from_dict", "config", None),
    ("djcm.cli", "run_scenario", "run", None),
    ("djcm.scenario", "run_scenario", "run", None),
    ("djcm.field_states", "build_distribution", "field_states", _n_cut),
    ("djcm.nonlinearity", "Nonlinearity.ensure", "nonlinearity", None),
    ("djcm.dynamics", "CoefficientTable", "coefficients", None),
    ("djcm.scenario", "closed_form_series", "kernel", _kernel_cells),
    ("djcm.dynamics", "closed_form_series", "kernel", _kernel_cells),
    ("djcm.scenario", "evolve_ode_oracle", "oracle", _oracle_pairs),
    ("djcm.dynamics", "evolve_ode_oracle", "oracle", _oracle_pairs),
    ("djcm.scenario", "records_from_series", "observables", _records),
    ("djcm.scenario", "emit", _emit_name, _emit_bytes),
    ("djcm.cli", "emit", _emit_name, _emit_bytes),
    ("djcm.cli", "read_csv_series", "read", _rows),
    ("djcm.cli", "measure_revivals", "revivals", _samples),
)

LAYERS = (
    "cli", "config", "run", "field_states", "nonlinearity", "coefficients",
    "kernel", "oracle", "observables", "emit", "read", "revivals",
)


def _layer_of(target) -> str:
    name = target[2]
    return "emit" if callable(name) else name


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.open: list[int] = []
        self.op = "setup"
        self.missing: list[str] = []
        self.recording = True

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for target in TARGETS:
            module_name, attr, name, count = target
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(fn, name, count))

    def absent_layers(self) -> list[str]:
        present = {
            _layer_of(t) for t in TARGETS if f"{t[0]}.{t[1]}" not in self.missing
        }
        return [layer for layer in LAYERS if layer not in present]

    def _wrap(self, fn, name, count):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span_name = name(fn, args, kwargs) if callable(name) else name
            if any(tracer.spans[i][0] == span_name for i in tracer.open):
                return fn(*args, **kwargs)
            parent = tracer.open[-1] if tracer.open else -1
            span = [span_name, time.perf_counter(), None, parent, tracer.op, {}]
            tracer.open.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.open.pop()
            if count is not None:
                span[5] = count(fn, args, kwargs, result)
            return result

        return traced


UNITS = {
    "kernel.ns_per_cell": "ns",
    "kernel.bytes_out": "B",
    "oracle.ns_per_predicted_step": "ns",
    "observables.us_per_record": "us",
    "emit.bytes": "B",
    "emit.mb_per_s": "MB/s",
}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "s" if metric.endswith("_s") else "count"


def layer_metrics(spans, predicted_steps: float) -> dict:
    """Per-layer busy and self times, counts and rates for one pass."""
    busy: dict[str, float] = {}
    covered: dict[str, float] = {}
    counts: dict[str, float] = {}
    for name, start, end, parent, _op, span_counts in spans:
        duration = end - start
        busy[name] = busy.get(name, 0.0) + duration
        if parent >= 0:
            pname = spans[parent][0]
            covered[pname] = covered.get(pname, 0.0) + duration
        for key, value in span_counts.items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    kernel_s = busy.get("kernel", 0.0)
    cells = counts.get("kernel.cells", 0)
    oracle_s = busy.get("oracle", 0.0)
    obs_s = busy.get("observables", 0.0)
    records = counts.get("observables.records", 0)
    emit_s = busy.get("emit.csv", 0.0) + busy.get("emit.json", 0.0)
    emit_bytes = counts.get("emit.csv.bytes", 0) + counts.get("emit.json.bytes", 0)
    return {
        "kernel.busy_s": kernel_s,
        "kernel.cells": cells,
        "kernel.ns_per_cell": ratio(kernel_s, cells, 1e9),
        "kernel.bytes_out": 2 * 16 * cells,
        "oracle.busy_s": oracle_s,
        "oracle.pairs": counts.get("oracle.pairs", 0),
        "oracle.predicted_steps": predicted_steps,
        "oracle.ns_per_predicted_step": ratio(oracle_s, predicted_steps, 1e9),
        "observables.busy_s": obs_s,
        "observables.records": records,
        "observables.us_per_record": ratio(obs_s, records, 1e6),
        "emit.csv.busy_s": busy.get("emit.csv", 0.0),
        "emit.json.busy_s": busy.get("emit.json", 0.0),
        "emit.bytes": emit_bytes,
        "emit.mb_per_s": ratio(emit_bytes, emit_s, 1e-6),
        "read.busy_s": busy.get("read", 0.0),
        "read.rows": counts.get("read.rows", 0),
        "revivals.busy_s": busy.get("revivals", 0.0),
        "revivals.samples": counts.get("revivals.samples", 0),
        "run.self_s": busy.get("run", 0.0) - covered.get("run", 0.0),
        "cli.self_s": busy.get("cli", 0.0) - covered.get("cli", 0.0),
        "coefficients.busy_s": busy.get("coefficients", 0.0),
        "field_states.busy_s": busy.get("field_states", 0.0),
        "field_states.n_cut": counts.get("field_states.n_cut", 0),
        "nonlinearity.busy_s": busy.get("nonlinearity", 0.0),
        "config.busy_s": busy.get("config", 0.0),
    }
