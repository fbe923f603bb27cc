"""The streamed run: the grid a block at a time, the oracle per block, emit per block.

A run's memory must not grow with the number of samples: the CLI walks
the grid block by block from the plan to the bytes, the RK4 oracle
integrates and compares one block at a time, and a failed run leaves no
file behind.
"""

import contextlib
import functools
import io
import json
import os
import tracemalloc

import numpy as np
import pytest

from djcm import cli, scenario
from djcm import oracle as oracle_module
from djcm.dynamics import (
    _BLOCK_ROWS,
    AmplitudeSink,
    ClosedFormPlan,
    DensitySink,
    UniformGrid,
    closed_form_series,
    evolve_ode_oracle,
    ode_oracle_blocks,
)
from djcm.errors import InvalidParameterError, OutputError, PhysicsValidationError
from djcm.observables import ObservableSeries
from djcm.scenario import config_from_dict, emit, iter_scenario, merge_config, run_scenario

SMALL = {
    "params": {"k": 1, "gamma": 1.0, "mu": 0.1},
    "nonlinearity": "sqrt_n",
    "field": {"kind": "coherent", "nbar": 0.5},
    "time": {"t_end": 5.0, "samples": 600},
}


def small(**overrides):
    return config_from_dict(merge_config(SMALL, overrides))


# ---------------------------------------------------------------------------
# the grid, a block at a time
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "t_end, samples",
    [(50.0, 2000), (75.0, 50000), (1.0, 2), (3.7, 17), (1e-300, 300), (5e-324, 3), (1e-322, 40)],
)
def test_uniform_grid_is_linspace_bit_for_bit(t_end, samples):
    grid = UniformGrid(t_end, samples)
    whole = np.linspace(0.0, t_end, samples)
    assert len(grid) == samples
    assert grid[:].tobytes() == whole.tobytes()
    for start in range(0, samples, 256):
        assert grid[start : start + 256].tobytes() == whole[start : start + 256].tobytes()
    assert grid[samples - 1 :].tobytes() == whole[samples - 1 :].tobytes()


def test_uniform_grid_rejects_what_linspace_grids_never_are():
    for t_end, samples in ((-1.0, 10), (float("nan"), 10), (1.0, 1)):
        with pytest.raises(InvalidParameterError):
            UniformGrid(t_end, samples)
    # only the slices of step 1 that a run walks, not numpy's other keys
    grid = UniformGrid(1.0, 11)
    assert grid[2:5:1].tobytes() == np.linspace(0.0, 1.0, 11)[2:5].tobytes()
    for key in (slice(None, None, 2), slice(5, 2, -1), 3):
        with pytest.raises(InvalidParameterError):
            grid[key]


@pytest.mark.parametrize("samples", [15, 16, 600])
def test_plan_on_a_grid_matches_plan_on_its_array(samples):
    cfg = small(time={"samples": samples}, params={"chi": 0.03})
    dist = cfg.build_distribution()
    rows, plans = [], []
    for times in (np.linspace(0.0, cfg.t_end, cfg.samples), cfg.grid()):
        plans.append(ClosedFormPlan(cfg.params, cfg.nonlinearity, dist, times))
        blocks = plans[-1].blocks(DensitySink(plans[-1]))
        rows.append([(s, ee, eg) for s, (ee, _, eg) in blocks])
    assert plans[0].step == plans[1].step
    assert plans[0].max_phase_argument == plans[1].max_phase_argument
    for (s_a, ee_a, eg_a), (s_b, ee_b, eg_b) in zip(*rows, strict=True):
        assert s_a == s_b
        assert ee_a.tobytes() == ee_b.tobytes() and eg_a.tobytes() == eg_b.tobytes()


# ---------------------------------------------------------------------------
# the oracle, a block at a time
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rows", [_BLOCK_ROWS, 300, 768])
def test_oracle_blocks_tile_the_grid_and_make_up_the_list(rows):
    # evolve_ode_oracle concatenates blocks of _BLOCK_ROWS: the rows do not depend on the length
    cfg = small(params={"chi": 0.03}, time={"samples": 1700})
    dist = cfg.build_distribution()
    states = evolve_ode_oracle(cfg.params, cfg.nonlinearity, dist, cfg.grid()[:])
    start = 0
    blocks = ode_oracle_blocks(cfg.params, cfg.nonlinearity, dist, cfg.grid(), block_rows=rows)
    for excited, ground in blocks:
        assert len(excited) == len(ground) == min(rows, cfg.samples - start)
        stop = start + len(excited)
        assert excited.tobytes() == states.excited[start:stop].tobytes()
        assert ground.tobytes() == states.ground[start:stop].tobytes()
        start = stop
    assert start == cfg.samples
    assert states.time.tobytes() == cfg.grid()[:].tobytes()


def test_kept_blocks_are_values():
    # every block, kept until the grid is done, still holds its own rows
    cfg = small(params={"chi": 0.03}, time={"samples": 1700})
    dist = cfg.build_distribution()
    times = cfg.grid()[:]
    states = evolve_ode_oracle(cfg.params, cfg.nonlinearity, dist, times)
    excited, ground = closed_form_series(cfg.params, cfg.nonlinearity, dist, times)
    plan = ClosedFormPlan(cfg.params, cfg.nonlinearity, dist, times)
    sink = AmplitudeSink(plan)
    rows = plan.block_rows(sink)
    oracle = list(ode_oracle_blocks(cfg.params, cfg.nonlinearity, dist, times, block_rows=rows))
    closed = [amplitudes for _, amplitudes in plan.blocks(sink)]
    starts = range(0, cfg.samples, rows)
    lengths = [min(rows, cfg.samples - start) for start in starts]
    assert len(lengths) == 3
    assert [len(e) for e, _ in oracle] == [len(e) for e, _ in closed] == lengths
    for start, (o_exc, o_gnd), (c_exc, c_gnd) in zip(starts, oracle, closed):
        rows = states[start : start + len(o_exc)]
        assert o_exc.tobytes() == rows.excited.tobytes()
        assert o_gnd.tobytes() == rows.ground.tobytes()
        assert c_exc.tobytes() == excited[start : start + len(c_exc)].tobytes()
        assert c_gnd.tobytes() == ground[start : start + len(c_gnd)].tobytes()


def test_oracle_batches_do_not_change_the_integration(monkeypatch):
    # one segment's doublets per batch, the default cap and no cap: the same bytes
    kerr = merge_config(
        SMALL, {"params": {"chi": 0.03}, "field": {"nbar": 4.0}, "time": {"samples": 300}}
    )
    # 80 live doublets: an uncapped batch holds 20 480 pairs, arrays past
    # numpy's 256 KiB threshold for computing into a temporary. The
    # counter-rotating coupling of a bare tier is real, so the Kerr tier is
    # the one whose step loop multiplies complex numbers in both orders.
    t10 = {"time": {"t_end": 10.0, "samples": 300}}
    bare = merge_config(scenario.preset_dict("coherent_bare_identity"), t10)
    kerr80 = merge_config(scenario.preset_dict("coherent_kerr_identity"), t10)
    for doc, counter_rotating in ((kerr, False), (bare, False), (bare, True), (kerr80, True)):
        cfg = config_from_dict(doc)
        dist = cfg.build_distribution()
        times = cfg.grid()[:]
        runs = []
        for cap in (1, 4096, 10**7):
            monkeypatch.setattr(oracle_module, "_MAX_PAIRS", cap)
            runs.append(
                evolve_ode_oracle(cfg.params, cfg.nonlinearity, dist, times, counter_rotating)
            )
        for states in runs[1:]:
            assert states.tobytes() == runs[0].tobytes()


def test_oracle_runs_leave_nothing_in_their_buffers(monkeypatch):
    # each run makes its step and propagator buffers once: runs at other
    # caps in between, with other batch widths, change no byte of either form
    cfg = small(params={"chi": 0.03}, time={"samples": 300})
    dist = cfg.build_distribution()
    times = cfg.grid()[:]

    def both():
        runs = (evolve_ode_oracle(cfg.params, cfg.nonlinearity, dist, times, cr) for cr in (1, 0))
        return [run.tobytes() for run in runs]

    before = both()
    cap = oracle_module._MAX_PAIRS
    for other in (1, 10**7):
        monkeypatch.setattr(oracle_module, "_MAX_PAIRS", other)
        both()
    monkeypatch.setattr(oracle_module, "_MAX_PAIRS", cap)
    assert both() == before


def test_a_one_block_grid_is_its_block_and_the_stacked_blocks(monkeypatch):
    # the acceptance suite's oracle windows are one block of 33 rows: the
    # closed form's series is that block itself, the oracle's records are
    # filled from it, and both equal the blocks of fewer rows stacked
    cfg = scenario.preset("coherent_bare_sqrt_n_k2")
    dist = cfg.build_distribution()
    times = np.linspace(0.0, 0.1, 33)

    def series():
        states = evolve_ode_oracle(cfg.params, cfg.nonlinearity, dist, times)
        closed = closed_form_series(cfg.params, cfg.nonlinearity, dist, times)
        return [states, *closed]

    first, second = series(), series()
    for i, a in enumerate(first):
        assert not any(np.shares_memory(a, b) for b in first[i + 1 :] + second)
    monkeypatch.setattr(ClosedFormPlan, "block_rows", lambda self, sink: 16)
    monkeypatch.setattr(
        oracle_module, "ode_oracle_blocks", functools.partial(ode_oracle_blocks, block_rows=8)
    )
    assert [a.tobytes() for a in first] == [a.tobytes() for a in series()]


def test_oracle_rejects_a_grid_with_repeated_times():
    cfg = small()
    dist = cfg.build_distribution()
    with pytest.raises(InvalidParameterError, match="ascending"):
        next(ode_oracle_blocks(cfg.params, cfg.nonlinearity, dist, UniformGrid(5e-324, 3)))


@pytest.mark.parametrize(
    "grid, tol, rows, match",
    [
        (UniformGrid(5e-324, 3), 1e-10, {}, "ascending"),
        ([1.0, 2.0], 1e-10, {}, "start at 0"),
        ([0.0, 1.0], float("nan"), {}, "tol must be finite"),
        ([0.0, 1.0], 1e-10, {"block_rows": 0}, "block_rows must be a positive integer"),
        ([0.0, 1.0], 1e-10, {"block_rows": 256.0}, "block_rows must be a positive integer"),
    ],
    ids=["repeated times", "late start", "nan tol", "no rows", "float rows"],
)
def test_oracle_blocks_refuse_bad_arguments_at_the_call(grid, tol, rows, match):
    # no block is drawn: the call itself validates
    cfg = small()
    dist = cfg.build_distribution()
    with pytest.raises(InvalidParameterError, match=match):
        ode_oracle_blocks(cfg.params, cfg.nonlinearity, dist, grid, tol=tol, **rows)


# ---------------------------------------------------------------------------
# iter_scenario
# ---------------------------------------------------------------------------


def test_stream_metadata_comes_before_the_blocks():
    cfg = small(
        options={"oracle_check": True, "counter_rotating_diagnostic": True},
        time={"samples": 1700},
    )
    plan = ClosedFormPlan(cfg.params, cfg.nonlinearity, cfg.build_distribution(), cfg.grid())
    # the blocks of the stream: the density sink's, whatever the oracle options
    rows = plan.block_rows(DensitySink(plan))
    lengths = [min(rows, cfg.samples - start) for start in range(0, cfg.samples, rows)]
    assert len(lengths) == 3
    stream = iter_scenario(cfg)
    resolved = dict(stream.metadata["resolved"])
    # complete before the first block: the oracle's pass has run
    assert list(resolved) == [
        "n_cut",
        "captured_mass",
        "active_doublets",
        "max_phase_argument",
        "per_cell_doublets",
        "separable_rounding_bound",
        "max_oracle_deviation",
        "max_counter_rotating_deviation",
    ]
    blocks = list(stream)
    assert [len(b) for b in blocks] == lengths
    whole = run_scenario(cfg)
    assert stream.metadata == whole.metadata
    assert stream.metadata["resolved"] == resolved
    for name in scenario.CSV_COLUMNS:
        assert ObservableSeries.concatenate(blocks)[name].tobytes() == whole.records[name].tobytes()
    with pytest.raises(RuntimeError, match="once"):
        list(stream)


def test_phase_overflow_is_refused_before_any_block():
    for samples in (10, 50):
        cfg = small(params={"chi": 1e20}, time={"samples": samples})
        with pytest.raises(PhysicsValidationError, match="^phase overflow"):
            iter_scenario(cfg)


# ---------------------------------------------------------------------------
# emit, a block at a time
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_of_a_stream_writes_the_bytes_of_the_series(tmp_path, fmt):
    cfg = small(options={"oracle_check": True})
    whole = run_scenario(cfg)
    emit(whole.records, fmt, str(tmp_path / f"series.{fmt}"), whole.metadata)
    stream = iter_scenario(cfg)
    # the stream's metadata holds max_oracle_deviation before its first block
    emit(stream, fmt, str(tmp_path / f"stream.{fmt}"), stream.metadata)
    assert (tmp_path / f"stream.{fmt}").read_bytes() == (tmp_path / f"series.{fmt}").read_bytes()
    assert sorted(os.listdir(tmp_path)) == [f"series.{fmt}", f"stream.{fmt}"]


def _failing(blocks, after):
    for i, block in enumerate(blocks):
        if i == after:
            raise PhysicsValidationError("phase overflow: injected")
        yield block


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failed_stream_leaves_no_file(tmp_path, fmt):
    cfg = small(time={"samples": 1700})
    plan = ClosedFormPlan(cfg.params, cfg.nonlinearity, cfg.build_distribution(), cfg.grid())
    assert cfg.samples > 2 * plan.block_rows(DensitySink(plan))  # three blocks or more
    path = tmp_path / f"run.{fmt}"
    with pytest.raises(PhysicsValidationError):
        emit(_failing(iter_scenario(cfg), 2), fmt, str(path))
    assert os.listdir(tmp_path) == []
    # a file already there stays as it was
    path.write_text("earlier run\n")
    with pytest.raises(PhysicsValidationError):
        emit(_failing(iter_scenario(cfg), 1), fmt, str(path))
    assert os.listdir(tmp_path) == [path.name]
    assert path.read_text() == "earlier run\n"
    with pytest.raises(OutputError, match="no records"):
        emit(iter([]), fmt, str(path))
    assert path.read_text() == "earlier run\n"


# ---------------------------------------------------------------------------
# memory stays flat in the number of samples
# ---------------------------------------------------------------------------


def _traced_peak(tmp_path, samples, fmt, flags):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(merge_config(SMALL, {"time": {"samples": samples}})))
    argv = ["simulate", "--config", str(config), "--output", str(tmp_path / f"run.{fmt}")]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["--format", fmt, *flags]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "fmt, flags, samples",
    [
        ("csv", [], 2500),
        ("json", [], 2500),
        ("csv", ["--oracle"], 1500),
        ("json", ["--oracle"], 1500),
    ],
)
def test_cli_peak_memory_is_flat_in_samples(tmp_path, fmt, flags, samples):
    # a whole-grid array of any kind would grow the peak about fourfold
    one = _traced_peak(tmp_path, samples, fmt, flags)
    four = _traced_peak(tmp_path, 4 * samples, fmt, flags)
    assert four <= 1.2 * one, (one, four)
