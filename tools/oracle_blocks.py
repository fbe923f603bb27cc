"""Save the RK4 oracle's blocks and the closed form's amplitudes on fixed cases; compare two runs.

    PYTHONPATH=src python tools/oracle_blocks.py OUTDIR [--compare OTHERDIR]

Runs ``ode_oracle_blocks`` with the djcm found on the import path on each
case, rotating-wave and with the counter-rotating terms, and
``closed_form_series`` on the case's grid (case ``<name>_closed_form``):

* the acceptance suite's criterion-2 windows: its 12 presets, each on
  ``ORACLE_SEGMENTS + 1`` points up to the window the suite's step-cost
  model picks, at ``ORACLE_TOL`` (taken from ``tests/test_acceptance.py``);
* the grid of ``djcm simulate --preset coherent_bare_identity --oracle``:
  that preset's 2000 samples at the default tol.

It writes the stacked excited and ground amplitudes of every case to
``OUTDIR/oracle_blocks.npz`` and prints one SHA-256 per case. The emitted
CSV and JSON carry only the largest oracle deviations and the density
sink's columns, so this is the check on the oracle's own amplitudes and
on the closed form's amplitude sink. Point PYTHONPATH at another
checkout's ``src`` to save that version's arrays.

With ``--compare OTHERDIR`` it reports, per case, whether the blocks equal
those in OTHERDIR byte for byte and, where they differ, the largest
absolute change. The exit code is 0 when every case is identical, 1 when
any differs by at most ``LIMIT`` (1e-12), and 2 when any differs by more,
differs in shape or is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import sys

import numpy as np

from djcm import dynamics, scenario

HERE = os.path.dirname(os.path.abspath(__file__))
SUITE = os.path.join(HERE, os.pardir, "tests", "test_acceptance.py")
CLI_PRESET = "coherent_bare_identity"
CLI_TOL = 1e-10  # the CLI runs the oracle at ode_oracle_blocks' default tol
FILE = "oracle_blocks.npz"
LIMIT = 1e-12


def _suite():
    """The acceptance suite module, for its presets, windows and tolerance."""
    spec = importlib.util.spec_from_file_location("test_acceptance", SUITE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cases():
    """(name, params, f, distribution, grid, tol) of every case, in order."""
    suite = _suite()
    for name in suite.ORACLE_PRESETS:
        cfg = scenario.preset(name)
        horizon, dist = suite.choose_oracle_window(cfg)
        grid = np.linspace(0.0, horizon, suite.ORACLE_SEGMENTS + 1)
        yield name, cfg.params, cfg.nonlinearity, dist, grid, suite.ORACLE_TOL
    cfg = scenario.preset(CLI_PRESET)
    dist = cfg.build_distribution()
    yield f"{CLI_PRESET}_cli", cfg.params, cfg.nonlinearity, dist, cfg.grid(), CLI_TOL


def _runs(name, params, f, dist, grid, tol):
    """(case, (excited, ground)) of the oracle both ways and of the closed form on one case."""
    for counter_rotating in (False, True):
        blocks = list(dynamics.ode_oracle_blocks(params, f, dist, grid, counter_rotating, tol))
        amplitudes = [np.concatenate([b[i] for b in blocks]) for i in (0, 1)]
        yield f"{name}{'_counter_rotating' if counter_rotating else ''}", amplitudes
    yield f"{name}_closed_form", dynamics.closed_form_series(params, f, dist, grid[:])


def oracle_blocks(outdir: str) -> dict:
    """Run every case; save the arrays and return {case: sha256}."""
    arrays, digests = {}, {}
    for run in cases():
        for case, amplitudes in _runs(*run):
            stacked = np.stack(amplitudes)
            arrays[case] = stacked
            digests[case] = hashlib.sha256(stacked.tobytes()).hexdigest()
            print(f"{case}: {digests[case]}")
    os.makedirs(outdir, exist_ok=True)
    np.savez(os.path.join(outdir, FILE), **arrays)
    return digests


def compare(outdir: str, other: str) -> int:
    """Print each case's report and the summary; return the exit code."""
    with np.load(os.path.join(outdir, FILE)) as mine, np.load(os.path.join(other, FILE)) as theirs:
        identical, worst, code = 0, 0.0, 0
        for case in mine.files:
            a = mine[case]
            if case not in theirs.files or a.shape != theirs[case].shape:
                print(f"{case}: missing or of another shape in the other directory")
                code = 2
                continue
            b = theirs[case]
            if a.tobytes() == b.tobytes():
                identical += 1
                print(f"{case}: identical")
                continue
            change = float(np.max(np.abs(a - b)))
            worst = max(worst, change)
            print(f"{case}: differs; max |change| {change:.2e}")
            code = max(code, 1 if change <= LIMIT else 2)
        print(f"{identical} of {len(mine.files)} cases byte-identical")
        if worst:
            print(f"max |change| over all cases: {worst:.2e} (limit {LIMIT:.0e})")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir")
    parser.add_argument("--compare", metavar="OTHERDIR")
    args = parser.parse_args(argv)
    oracle_blocks(args.outdir)
    if args.compare is None:
        return 0
    return compare(args.outdir, args.compare)


if __name__ == "__main__":
    sys.exit(main())
