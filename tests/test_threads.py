"""Callers' threads sharing one closed-form plan get the serial bytes.

``ClosedFormPlan.blocks`` evaluates every block on the calling thread, in
work buffers of that call; the plan and its sinks hold only per-run
tables. These tests check that a run on a thread of its own gives the
bytes of a run on the main thread, that one plan and its sinks run on
several threads at once give each thread the blocks of a run alone, that
an overflow surfaces in block order, that no plan starts a thread (also
where the process reports one usable CPU), and that a finished run keeps
no plan alive.
"""

import gc
import os
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest

from djcm.dynamics import AmplitudeSink, ClosedFormPlan, DensitySink, UniformGrid
from djcm.errors import PhysicsValidationError
from djcm.scenario import iter_scenario, preset, run_scenario

WIDE = "thermal_kerr_stark_identity"  # 6 amplitude chunks, 2 density chunks; k = 2
NARROW = "coherent_bare_identity"  # 1 amplitude chunk, 1 density chunk
SAMPLES = 1100  # 5 blocks, the last one short


def _plan(name, samples=SAMPLES):
    cfg = preset(name)
    grid = UniformGrid(cfg.t_end, samples)
    return ClosedFormPlan(cfg.params, cfg.nonlinearity, cfg.build_distribution(), grid)


def _blocks(plan, sinks=None):
    """Every block of the sinks (by default both, new), a pass per sink, as bytes, and the
    thread count seen."""
    blocks, threads = [], []
    for sink in sinks or (DensitySink(plan), AmplitudeSink(plan)):
        for start, value in plan.blocks(sink):
            threads.append(threading.active_count())
            blocks.append((start,) + tuple(a.tobytes() for a in value))
    return blocks, threads


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


def _in_thread(target):
    """target() run on a thread of its own, which ends before this returns; its result."""
    out = []
    thread = threading.Thread(target=lambda: out.append(target()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    return out[0]


def test_threaded_blocks_are_the_serial_blocks():
    before = threading.active_count()
    serial, serial_threads = _blocks(_plan(WIDE))
    threaded, threaded_threads = _in_thread(lambda: _blocks(_plan(WIDE)))
    assert [b[0] for b in serial] == 2 * list(range(0, SAMPLES, 256))
    assert threaded == serial
    # the threaded run saw its own thread and no other; neither left one
    assert serial_threads == [before] * len(serial)
    assert threaded_threads == [before + 1] * len(threaded)
    assert threading.active_count() == before


def test_run_scenario_same_columns_serial_and_threaded():
    cfg = preset(WIDE)
    runs = [run_scenario(cfg).records, _in_thread(lambda: run_scenario(cfg).records)]
    for name in runs[0].columns:
        assert runs[0][name].tobytes() == runs[1][name].tobytes()


@pytest.mark.parametrize(
    "name, samples, cpus",
    [(NARROW, SAMPLES, None), (WIDE, 256, None), (WIDE, SAMPLES, 1)],
    ids=["one per-cell chunk", "one block", "one cpu"],
)
def test_no_thread_where_it_cannot_pay(monkeypatch, name, samples, cpus):
    if cpus is not None:  # the process reports this many usable CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    before = threading.active_count()
    plan = _plan(name, samples)
    # the amplitude sink's chunks cut every active doublet: coherent_bare_identity's
    # 80 make one chunk, thermal_kerr_stark_identity's 717 six
    assert len(AmplitudeSink(plan).chunks) == {NARROW: 1, WIDE: 6}[name]
    _, threads = _blocks(plan)
    assert threads == [before] * len(threads)


def test_a_wide_plan_starts_no_thread():
    # six amplitude chunks and two of per-cell doublets on a grid of five blocks
    before = threading.active_count()
    plan = _plan(WIDE)
    assert (len(AmplitudeSink(plan).chunks), len(DensitySink(plan).chunks)) == (6, 2)
    blocks, threads = _blocks(plan)
    assert [b[0] for b in blocks] == 2 * list(range(0, SAMPLES, 256))
    assert threads == [before] * len(blocks)
    stream = plan.blocks(AmplitudeSink(plan))
    next(stream)
    assert threading.active_count() == before
    stream.close()
    assert threading.active_count() == before


@pytest.mark.parametrize("block", [1, 2])
def test_overflow_surfaces_in_block_order(block):
    errors = []
    for _ in range(2):  # two plans, one error message
        before = threading.active_count()
        plan = _plan(WIDE)
        sink = _OverflowFrom(plan, plan.times[block * 256 : block * 256 + 1][0])
        starts = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning
            with pytest.raises(PhysicsValidationError, match="not finite") as raised:
                for start, (rho_ee, _, _) in plan.blocks(sink):
                    starts.append(start)
                    assert np.all(np.isfinite(rho_ee))
        assert starts == list(range(0, block * 256, 256))
        assert threading.active_count() == before
        errors.append(str(raised.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("shared", [1, 2])  # the density sink alone, a pass of each sink
def test_threads_sharing_one_plan_and_its_sinks_get_the_serial_blocks(shared):
    # three threads iterate one plan into the same sinks at once, each
    # with work buffers of its own, switching as often as the interpreter
    # allows; a buffer or block shared between them would change some
    # block's bytes
    plan = _plan(WIDE)
    sinks = (DensitySink(plan), AmplitudeSink(plan))[:shared]
    serial, _ = _blocks(plan, sinks)
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


@pytest.mark.parametrize("threads", [1, 2])
def test_runs_of_other_widths_on_one_thread_give_the_bytes_of_fresh_threads(threads):
    # narrow (768 x 30 cells of work buffers), wide (256 x 130), narrow
    # again: each run must give the bytes of a run on a thread of its own,
    # on one thread alone or on two threads running the sequence at once

    def narrow():
        plan = _plan(NARROW)
        return _blocks(plan, (DensitySink(plan),))[0]

    def wide():
        return _blocks(_plan(WIDE))[0]

    runs = (narrow, wide, narrow)
    fresh = [_in_thread(run) for run in runs]

    def in_sequence():
        return [run() for run in runs]

    results = []
    callers = [
        threading.Thread(target=lambda: results.append(in_sequence())) for _ in range(threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
            assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [fresh] * threads


def test_a_finished_run_keeps_no_plan():
    plan = _plan(NARROW)
    sink = DensitySink(plan)
    _blocks(plan, (sink,))
    finished = weakref.ref(plan)
    del plan, sink
    gc.collect()
    assert finished() is None


def test_a_finished_stream_keeps_no_plan():
    stream = iter_scenario(preset(NARROW))
    finished = weakref.ref(stream._sink.plan)
    blocks = list(stream)
    assert blocks and stream._sink is None
    gc.collect()
    assert finished() is None
