"""The closed form's helper thread: same bytes, no thread left behind.

``ClosedFormPlan.blocks`` evaluates every other block on one helper
thread when the plan has two or more doublet chunks, the grid two or more
blocks and the process two or more usable CPUs. These tests force the CPU
count both ways through ``dynamics._usable_cpus``.
"""

import sys
import threading
import warnings

import numpy as np
import pytest

from djcm import dynamics
from djcm.dynamics import AmplitudeSink, ClosedFormPlan, DensitySink, UniformGrid
from djcm.errors import PhysicsValidationError
from djcm.scenario import preset, run_scenario

WIDE = "thermal_kerr_stark_identity"  # 6 chunks of doublets, k = 2: rho_eg is not zero
NARROW = "coherent_bare_identity"  # 1 chunk
SAMPLES = 1100  # 5 blocks, the last one short


def _plan(name, samples=SAMPLES):
    cfg = preset(name)
    grid = UniformGrid(cfg.t_end, samples)
    return ClosedFormPlan(cfg.params, cfg.nonlinearity, cfg.build_distribution(), grid)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: count)


def _blocks(plan, sinks=None):
    """Every block of the sinks (by default both, new) as bytes, and the thread count seen."""
    blocks, threads = [], []
    for start, *values in plan.blocks(*(sinks or (DensitySink(plan), AmplitudeSink(plan)))):
        threads.append(threading.active_count())
        blocks.append((start,) + tuple(a.tobytes() for block in values for a in block))
    return blocks, threads


def test_threaded_blocks_are_the_serial_blocks(monkeypatch):
    before = threading.active_count()
    _cpus(monkeypatch, 1)
    serial, serial_threads = _blocks(_plan(WIDE))
    _cpus(monkeypatch, 2)
    plan = _plan(WIDE)
    assert len(plan.chunks) == 6
    threaded, threaded_threads = _blocks(plan)
    assert [b[0] for b in serial] == list(range(0, SAMPLES, 256))
    assert threaded == serial
    # the threaded run had its helper while it ran, and neither left one
    assert serial_threads == [before] * len(serial)
    assert threaded_threads == [before + 1] * len(threaded)
    assert threading.active_count() == before


def test_run_scenario_same_columns_serial_and_threaded(monkeypatch):
    cfg = preset(WIDE)
    runs = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        runs.append(run_scenario(cfg).records)
    for name in runs[0].columns:
        assert runs[0][name].tobytes() == runs[1][name].tobytes()


@pytest.mark.parametrize(
    "name, samples, cpus",
    [(NARROW, SAMPLES, 2), (WIDE, 256, 2), (WIDE, SAMPLES, 1)],
    ids=["one chunk", "one block", "one cpu"],
)
def test_no_thread_where_it_cannot_pay(monkeypatch, name, samples, cpus):
    _cpus(monkeypatch, cpus)
    before = threading.active_count()
    _, threads = _blocks(_plan(name, samples))
    assert threads == [before] * len(threads)


@pytest.mark.parametrize("taken", [0, 1, 2])
def test_stream_closed_early_joins_its_helper(monkeypatch, taken):
    _cpus(monkeypatch, 2)
    before = threading.active_count()
    plan = _plan(WIDE)
    blocks = plan.blocks(DensitySink(plan))
    for _ in range(taken + 1):
        next(blocks)
    assert threading.active_count() == before + 1
    blocks.close()
    assert threading.active_count() == before


class _OverflowFrom(DensitySink):
    """A density sink whose rho_ee overflows in every block from time ``t0`` on."""

    def __init__(self, plan, t0):
        super().__init__(plan)
        self.t0 = t0

    def take(self, block, chunk, t, envelope, s, work):
        super().take(block, chunk, t, envelope, s, work)
        if t[0, 0] >= self.t0:
            rho_ee = block[0]
            rho_ee *= 1e200
            rho_ee *= 1e200  # inf, under the evaluating thread's errstate


@pytest.mark.parametrize("block", [1, 2])  # the helper's block, the caller's
def test_overflow_surfaces_in_block_order(monkeypatch, block):
    errors = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        before = threading.active_count()
        plan = _plan(WIDE)
        sink = _OverflowFrom(plan, plan.times[block * 256 : block * 256 + 1][0])
        starts = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on any thread
            with pytest.raises(PhysicsValidationError, match="not finite") as raised:
                for start, (rho_ee, _, _) in plan.blocks(sink):
                    starts.append(start)
                    assert np.all(np.isfinite(rho_ee))
        assert starts == list(range(0, block * 256, 256))
        assert threading.active_count() == before
        errors.append(str(raised.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("cpus", [1, 2])
def test_threads_sharing_one_plan_and_its_sinks_get_the_serial_blocks(monkeypatch, cpus):
    # three threads iterate one plan into the same two sinks at once, each
    # with work buffers of its own (with two CPUs also a helper of its own:
    # six threads on fewer cores), switching as often as the interpreter
    # allows; a buffer or block shared between them would change some
    # block's bytes
    _cpus(monkeypatch, 1)
    plan = _plan(WIDE)
    sinks = (DensitySink(plan), AmplitudeSink(plan))
    serial, _ = _blocks(plan, sinks)
    _cpus(monkeypatch, cpus)
    results = [None] * 3

    def run(i):
        results[i] = _blocks(plan, sinks)[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(i,)) for i in range(3)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
            assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial] * 3
