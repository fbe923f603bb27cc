"""Emit every preset, and the long revival grid, for a byte-level regression check.

    PYTHONPATH=src python tools/emit_all.py OUTDIR [--compare OTHERDIR]

Writes ``<preset>.csv`` and ``<preset>.json`` for all 45 presets,
``revival_grid.csv`` and ``revival_grid.json`` (coherent_bare_identity on
50 000 samples up to t = 75, the README's revival workflow),
``coherent_bare_identity_oracle.json`` (that preset with ``--oracle
--counter-rotating-diagnostic``, so its metadata carries both
deviations), and ``short_grid.csv`` and ``short_grid_oracle.json``
(coherent_bare_identity_k2 on 15 samples, under the 16 that take fine
phase tables, the second with ``--oracle``; k = 2 so that rho_eg is not
zero) and ``config_variants.json`` (``VARIANTS_DOC``: a thermal field
given by temperature and frequency, an inline f(n) table and
``free_phase_on_coherence``, the echo keys and options no preset sets)
into OUTDIR with the djcm found on the import path: 96 files,
each written by ``djcm simulate`` (``cli.main``), so the check covers
the streamed writer the CLI uses. Point PYTHONPATH at another
checkout's ``src`` to emit that version's files.

With ``--compare OTHERDIR`` it then reports, per file, whether the bytes
equal those of the same file in OTHERDIR and, where they differ, the
largest absolute change per CSV column and the JSON metadata keys that
changed. The exit code is 0 when every file is byte-identical, 1 when any
differs within the per-column limits or is missing, and 2 when a column
changed beyond its limit (``LIMITS``: t not at all; W, rho_ee, rho_gg,
H_z and norm by 2e-15; every other column by 1e-10); the report then
names those columns.

Each file is written from within OUTDIR under its bare name, so the
metadata echo in the JSON files does not depend on OUTDIR.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from djcm import cli, scenario

REVIVAL_GRID = "revival_grid"
REVIVAL_PRESET = "coherent_bare_identity"
REVIVAL_TIME = {"t_end": 75.0, "samples": 50000}
ORACLE_PRESET = "coherent_bare_identity"
ORACLE_FLAGS = ["--oracle", "--counter-rotating-diagnostic"]
SHORT_GRID = "short_grid"
SHORT_PRESET = "coherent_bare_identity_k2"
SHORT_SAMPLES = 15
VARIANTS = "config_variants"
VARIANTS_DOC = {
    "params": {"k": 2, "mu": 0.1, "chi": 0.01, "nu": 1.0},
    "nonlinearity": {"table": [1.0 / math.sqrt(1.0 + 0.1 * n) for n in range(1, 81)]},
    "field": {"kind": "thermal", "temperature": 2.0, "frequency": 1.0},
    "time": {"t_end": 10.0, "samples": 300},
    "options": {"free_phase_on_coherence": True},
}
# largest |change| per column that a change of summation order may leave
LIMITS = {"t": 0.0, "W": 2e-15, "rho_ee": 2e-15, "rho_gg": 2e-15, "H_z": 2e-15, "norm": 2e-15}
OTHER_LIMIT = 1e-10


def _config_file(config_dir: str, name: str, doc: dict) -> str:
    """Path of the config file ``doc``, written into config_dir."""
    path = os.path.join(config_dir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def _on_grid(preset: str, time: dict) -> dict:
    """The document of ``preset`` on the grid ``time``."""
    return scenario.merge_config(scenario.preset_dict(preset), {"time": dict(time)})


def _runs(config_dir: str):
    """(file name, ``djcm simulate`` arguments but --output) of every file, in order."""
    for name in scenario.available_presets():
        for fmt in ("csv", "json"):
            yield f"{name}.{fmt}", ["--preset", name, "--format", fmt]
    revival = _config_file(config_dir, REVIVAL_GRID, _on_grid(REVIVAL_PRESET, REVIVAL_TIME))
    for fmt in ("csv", "json"):
        yield f"{REVIVAL_GRID}.{fmt}", ["--config", revival, "--format", fmt]
    oracle_args = ["--preset", ORACLE_PRESET, "--format", "json", *ORACLE_FLAGS]
    yield f"{ORACLE_PRESET}_oracle.json", oracle_args
    short_doc = _on_grid(SHORT_PRESET, {"samples": SHORT_SAMPLES})
    short = _config_file(config_dir, SHORT_GRID, short_doc)
    yield f"{SHORT_GRID}.csv", ["--config", short, "--format", "csv"]
    yield f"{SHORT_GRID}_oracle.json", ["--config", short, "--format", "json", "--oracle"]
    variants = _config_file(config_dir, VARIANTS, VARIANTS_DOC)
    yield f"{VARIANTS}.json", ["--config", variants, "--format", "json"]


def emit_all(outdir: str) -> list[str]:
    """Write every file into outdir through the CLI; return their names in order."""
    os.makedirs(outdir, exist_ok=True)
    names = []
    back = os.getcwd()
    with tempfile.TemporaryDirectory() as config_dir:
        os.chdir(outdir)
        try:
            for file_name, argv in _runs(config_dir):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["simulate", *argv, "--output", file_name])
                if code != 0:
                    raise RuntimeError(f"djcm simulate {' '.join(argv)} exited {code}")
                names.append(file_name)
        finally:
            os.chdir(back)
    return names


def _columns(path: str):
    """(column names, (rows, columns) values, metadata or None) of an emitted file."""
    with open(path, encoding="utf-8") as handle:
        if path.endswith(".json"):
            doc = json.load(handle)
            records = doc["records"]
            names = list(records[0]) if records else []
            values = np.array([[row[c] for c in names] for row in records], dtype=float)
            return names, values, doc["metadata"]
        names = handle.readline().rstrip("\n").split(",")
        values = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
        return names, values, None


def _changed_keys(a, b, prefix=""):
    """Dotted keys whose values differ between two metadata trees."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in list(a) + [k for k in b if k not in a]:
            out += _changed_keys(a.get(key), b.get(key), f"{prefix}{key}.")
        return out
    return [] if a == b else [prefix.rstrip(".")]


def compare_file(path: str, other: str) -> tuple[bool, str, dict]:
    """(identical, one-line report, largest |change| per changed column) of one file."""
    name = os.path.basename(path)
    if not os.path.exists(other):
        return False, f"{name}: missing in the other directory", {}
    with open(path, "rb") as a, open(other, "rb") as b:
        if a.read() == b.read():
            return True, f"{name}: identical", {}
    names, values, meta = _columns(path)
    other_names, other_values, other_meta = _columns(other)
    if names != other_names or values.shape != other_values.shape:
        return False, f"{name}: differs in layout ({values.shape} vs {other_values.shape})", {}
    with np.errstate(invalid="ignore"):
        change = np.abs(values - other_values)
    same_nan = np.isnan(values) & np.isnan(other_values)
    change[same_nan] = 0.0
    worst = {
        c: float(w) for c, w in zip(names, np.max(change, axis=0, initial=0.0)) if not w == 0.0
    }
    parts = [f"{c} {w:.2e}" for c, w in worst.items()]
    report = f"{name}: differs; max |change| " + (", ".join(parts) if parts else "0 in every column")
    if meta is not None:
        keys = _changed_keys(meta, other_meta)
        if keys:
            report += "; metadata keys changed: " + ", ".join(keys)
    return False, report, worst


def compare_dirs(outdir: str, other: str, names) -> int:
    """Print each file's report and the summary; return the exit code."""
    identical = 0
    overall = {}
    for file_name in names:
        same, report, worst = compare_file(
            os.path.join(outdir, file_name), os.path.join(other, file_name)
        )
        identical += same
        for column, change in worst.items():
            overall[column] = max(overall.get(column, 0.0), change)
        print(report)
    print(f"{identical} of {len(names)} files byte-identical")
    if overall:
        print("max |change| over all files: " + ", ".join(f"{c} {w:.2e}" for c, w in overall.items()))
    beyond = [
        f"{c} {w:.2e} > {LIMITS.get(c, OTHER_LIMIT):.0e}"
        for c, w in overall.items()
        if w > LIMITS.get(c, OTHER_LIMIT)
    ]
    if beyond:
        print("beyond the per-column limits: " + ", ".join(beyond))
        return 2
    return 0 if identical == len(names) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir")
    parser.add_argument("--compare", metavar="OTHERDIR")
    args = parser.parse_args(argv)
    names = emit_all(args.outdir)
    if args.compare is None:
        print(f"wrote {len(names)} files to {args.outdir}")
        return 0
    return compare_dirs(args.outdir, args.compare, names)


if __name__ == "__main__":
    sys.exit(main())
