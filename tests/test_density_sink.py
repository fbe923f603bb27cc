"""The closed form's density sink against its amplitude sink, and what it pins.

``run_scenario`` reduces rho_ee, rho_gg and rho_eg straight from the
rotation stage and the phase tables, and the doublets and pairs whose
rounding would not show as separable sums of exponentials;
``closed_form_series`` writes the amplitudes, from which
``records_from_series`` reduces the same columns. The two routes differ
only in summation order and in how the phases are tabulated, so their
columns agree to the limits below.
"""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from djcm import dynamics, scenario
from djcm.cli import main
from djcm.dynamics import (
    AmplitudeSink,
    ClosedFormPlan,
    CoefficientTable,
    DensitySink,
    ModelParams,
    UniformGrid,
    _Scratch,
    closed_form_series,
)
from djcm.errors import PhysicsValidationError
from djcm.field_states import coherent_distribution
from djcm.nonlinearity import Nonlinearity
from djcm.observables import records_from_series
from djcm.scenario import (
    CSV_COLUMNS,
    available_presets,
    config_from_dict,
    emit,
    merge_config,
    preset,
    preset_dict,
    run_scenario,
)

EPS = float(np.finfo(float).eps)
# largest |density route - amplitude route| per column; t is the same grid
POPULATION_COLUMNS = ("W", "rho_ee", "rho_gg", "H_z", "norm")
LIMITS = {c: 0.0 if c == "t" else 2e-15 if c in POPULATION_COLUMNS else 1e-10 for c in CSV_COLUMNS}


def _amplitude_route(cfg):
    dist = cfg.build_distribution()
    times = cfg.grid()[:]
    excited, ground = closed_form_series(cfg.params, cfg.nonlinearity, dist, times)
    return records_from_series(times, excited, ground, cfg.params.k)


def _assert_routes_agree(cfg, label):
    density = run_scenario(cfg).records
    amplitudes = _amplitude_route(cfg)
    for column, limit in LIMITS.items():
        change = float(np.max(np.abs(density[column] - amplitudes[column])))
        assert change <= limit, (label, column, change)


@pytest.mark.parametrize("name", available_presets())
def test_density_sink_matches_amplitude_route_on_every_preset(name):
    cfg = preset(name)
    _assert_routes_agree(cfg, name)
    if cfg.field_kind == "squeezed" and cfg.params.k % 2:
        # no coherence pair is active: the columns are +0.0, bit for bit
        records = run_scenario(cfg).records
        for column in ("re_rho_eg", "im_rho_eg"):
            values = records[column]
            assert np.all(values == 0.0) and not np.any(np.signbit(values)), column


GRID_DOCS = {
    # k = 2, Kerr and Stark: pairs of neighbouring levels, a halo per chunk
    "thermal_kerr_stark": {
        "params": {"k": 2, "gamma": 1.0, "mu": 0.1, "chi": 0.03, "beta1": 0.1, "beta2": 0.1},
        "nonlinearity": "sqrt_n",
        "field": {"kind": "thermal", "nbar": 4.0},
        "time": {"t_end": 20.0},
    },
    # even levels only and k = 4: each pair skips one active level
    "squeezed_k4": {
        "params": {"k": 4, "gamma": 1.0, "mu": 0.1},
        "nonlinearity": "identity",
        "field": {"kind": "squeezed", "nbar": 25.0},
        "time": {"t_end": 20.0},
    },
}


@pytest.mark.parametrize("samples", [2, 15, 16, 17, 257, 513])
@pytest.mark.parametrize("doc", sorted(GRID_DOCS))
def test_density_sink_matches_amplitude_route_at_block_edges(doc, samples):
    # under 16 samples each time is its own anchor, from 16 on 16-row groups
    cfg = config_from_dict(merge_config(GRID_DOCS[doc], {"time": {"samples": samples}}))
    _assert_routes_agree(cfg, (doc, samples))


@pytest.mark.parametrize(
    "option", ["oracle_check", "counter_rotating_diagnostic", "free_phase_on_coherence"]
)
def test_oracle_options_leave_the_emitted_bytes_alone(tmp_path, option):
    doc = merge_config(
        GRID_DOCS["thermal_kerr_stark"],
        {
            "params": {"nu": 1.0},
            "nonlinearity": "identity",
            "field": {"nbar": 2.0},
            "time": {"samples": 300, "t_end": 2.0},
        },
    )
    plain = run_scenario(config_from_dict(doc))
    other = run_scenario(config_from_dict(merge_config(doc, {"options": {option: True}})))
    emit(plain.records, "csv", str(tmp_path / "plain.csv"))
    emit(other.records, "csv", str(tmp_path / "other.csv"))
    same = (tmp_path / "plain.csv").read_bytes() == (tmp_path / "other.csv").read_bytes()
    # the free phase is the one option that changes rho_eg
    assert same == (option != "free_phase_on_coherence")


@pytest.mark.parametrize("samples", [2000, 2003])
@pytest.mark.parametrize("name", ["coherent_kerr_stark_identity", "squeezed_kerr_sqrt_n"])
def test_density_values_do_not_depend_on_the_block_length(name, samples):
    # a narrow plan's density sink runs in long blocks; the same sink
    # driven in blocks of 256 rows, an amplitude sink's, gives the same
    # bytes. The Kerr-Stark plan's coherence sums are products that BLAS,
    # on two or more threads, rounds differently when one product spans
    # more rows.
    cfg = preset(name)
    plan = ClosedFormPlan(
        cfg.params, cfg.nonlinearity, cfg.build_distribution(), UniformGrid(cfg.t_end, samples)
    )
    density = DensitySink(plan)
    assert plan.block_rows(density) == 768 and plan.block_rows(AmplitudeSink(plan)) == 256
    assert samples > 2 * 768
    alone = [values for _, values in plan.blocks(density)]
    work = _Scratch(*plan.scratch_shape(density))
    short = [plan._evaluate(start, 256, density, work) for start in range(0, samples, 256)]
    assert len(alone) == 3 and len(short) == 8
    for column, (a, b) in enumerate(zip(zip(*alone), zip(*short))):
        assert np.concatenate(a).tobytes() == np.concatenate(b).tobytes(), column


def test_plain_run_holds_no_full_width_amplitude_block():
    cfg = preset("squeezed_bare_sqrt_n_k4")
    n_cut = cfg.build_distribution().n_cut
    assert n_cut == 1310
    block = 256 * (n_cut + 1) * np.dtype(complex).itemsize  # 5.4 MB
    run_scenario(cfg)  # lazy set-up (the f(n) table) out of the way
    tracemalloc.start()
    try:
        run_scenario(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < block, peak


@pytest.mark.parametrize(
    "name", ["coherent_kerr_identity", "coherent_kerr_stark_identity", "thermal_kerr_stark_identity"]
)
def test_mu_acts_on_the_populations_as_a_detuning(name):
    # one retained sideband: mu enters the populations only through R_n - mu
    doc = preset_dict(name)
    mu, detuning = doc["params"]["mu"], doc["params"]["detuning"]
    assert mu > 0.0
    cfg = config_from_dict(doc)
    shifted = config_from_dict(merge_config(doc, {"params": {"mu": 0.0, "detuning": detuning - mu}}))
    a, b = run_scenario(cfg).records, run_scenario(shifted).records
    co = CoefficientTable(cfg.params, cfg.nonlinearity, cfg.build_distribution().n_cut)
    # R_n - mu rounds differently on the two sides, by a few eps (|R1| + |R2|)
    bound = 8.0 * EPS * (1.0 + np.max(np.abs(co.R1) + np.abs(co.R2)) * cfg.t_end)
    for column in ("W", "rho_ee", "rho_gg"):
        assert np.max(np.abs(a[column] - b[column])) <= bound, column


def test_both_sinks_report_phase_overflow_once():
    doc = merge_config(GRID_DOCS["thermal_kerr_stark"], {"params": {"chi": 1e200}, "time": {"samples": 40}})
    cfg = config_from_dict(doc)
    dist = cfg.build_distribution()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        with pytest.raises(PhysicsValidationError, match="phase overflow"):
            run_scenario(cfg)
        with pytest.raises(PhysicsValidationError, match="phase overflow"):
            closed_form_series(cfg.params, cfg.nonlinearity, dist, cfg.grid()[:])


def test_block_that_is_not_finite_names_its_start_and_phase_argument():
    # finite amplitudes whose squares overflow in rho_ee's sum; the phase
    # arguments themselves stay small
    dist = coherent_distribution(4.0)
    c0 = np.sqrt(dist.probabilities).astype(complex)
    c0[[2, 5]] = 1e154
    params = ModelParams(k=1, mu=0.1)
    plan = ClosedFormPlan(params, Nonlinearity.identity(), dist, np.linspace(0.0, 1.0, 40), c0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        with pytest.raises(
            PhysicsValidationError,
            match=r"^the closed form is not finite in the block starting at t = 0; "
            r"the largest phase argument \|w\| t_end is 3\.04179$",
        ):
            list(plan.blocks(DensitySink(plan)))


# ---------------------------------------------------------------------------
# the split: separable sums for the doublets and pairs whose rounding would
# not show, the per-cell kernel for the rest
# ---------------------------------------------------------------------------


def _plan(cfg, times=None):
    times = cfg.grid() if times is None else times
    return ClosedFormPlan(cfg.params, cfg.nonlinearity, cfg.build_distribution(), times)


def _all_per_cell(plan):
    """Each block's (rho_ee, rho_gg, rho_eg) reduced cell by cell over all of the plan's chunks.

    The products of the per-cell reduction, written out: |envelope|^2 and
    ((alpha/2) s)^2 against |c0|^2, and each pair's s_n envelope_{n+k}
    against the coarse and fine rows of its phase.
    """
    c0, alpha, active = plan.c0, plan.coefficients.alpha, plan.active
    population = np.abs(c0[active]) ** 2
    half_alpha = 0.5 * alpha[active]
    lo, hi = active[plan.pair_lo], active[plan.pair_hi]
    weight = 0.5j * alpha[lo] * np.conj(c0[lo]) * c0[hi]
    pair_fine = np.exp(-1j * (plan.pair_rate * plan.r_step)) * weight
    # the blocks of a density sink without separable terms, whose chunks
    # hold every active doublet and pair
    sink = DensitySink(plan)
    rows = plan.block_rows(sink)
    work = _Scratch(*plan.scratch_shape(sink))
    for start in range(0, len(plan.times), rows):
        n = min(rows, len(plan.times) - start)
        t = plan._table_times(start, n)
        m, g = len(t), plan.group
        rho_ee, rho_gg, rho_eg = np.zeros(n), np.zeros(n), np.zeros(n, dtype=complex)
        for chunk in sink.chunks:
            envelope, s = plan.rotation(chunk, t, work)
            mine, w = chunk.mine, chunk.own
            rho_gg += np.square(s[:n, :w] * half_alpha[mine]) @ population[mine]
            rho_ee += np.square(envelope[:n, :w].view(float)) @ np.repeat(population[mine], 2)
            pairs = chunk.pairs
            if pairs.stop > pairs.start:
                terms = (s[:, chunk.lo] * envelope[:, chunk.hi]).reshape(m // g, g, -1)
                terms *= pair_fine[:, pairs]
                coarse = np.exp(-1j * (plan.pair_rate[pairs] * t[::g]))
                rho_eg += np.matmul(terms, coarse[:, :, None]).reshape(m)[:n]
        yield rho_ee, rho_gg, rho_eg


@pytest.mark.parametrize("name", available_presets())
def test_split_keeps_row_0_and_the_all_per_cell_values_at_budget_0(monkeypatch, name):
    cfg = preset(name)
    split = run_scenario(cfg).records
    monkeypatch.setattr(dynamics, "_SEPARABLE_BUDGET", 0.0)
    plan = _plan(cfg)
    sink = DensitySink(plan)
    # no budget: every doublet per cell, in ascending order, as before the split
    assert sink.per_cell_doublets == plan.active_doublets
    assert sink.separable_rounding_bound == 0.0
    assert np.all(np.diff(plan.active) > 0) and len(sink.chunks) == len(AmplitudeSink(plan).chunks)
    blocks = [values for _, values in plan.blocks(sink)]
    for got, want in zip(blocks, _all_per_cell(plan), strict=True):
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
    per_cell = run_scenario(cfg).records
    for column, limit in LIMITS.items():
        # t = 0: the separable share is exactly zero and rho_ee the same sum
        assert split[column][:1].tobytes() == per_cell[column][:1].tobytes(), column
        assert np.max(np.abs(split[column] - per_cell[column])) <= limit, column
    assert np.all(split["rho_gg"] >= 0.0)


@pytest.mark.parametrize(
    "times",
    [
        UniformGrid(50.0, 15),
        np.linspace(0.0, 50.0, 15),
        np.geomspace(1e-3, 50.0, 300),
        np.concatenate((np.linspace(0.0, 1.0, 200), [50.0])),
    ],
    ids=["grid of 15", "array of 15", "geometric", "uneven"],
)
def test_grids_without_fine_tables_keep_every_doublet_per_cell(times):
    cfg = config_from_dict(GRID_DOCS["thermal_kerr_stark"])
    plan = _plan(cfg, times)
    assert plan.group == 1
    sink = DensitySink(plan)
    assert sink.per_cell_doublets == plan.active_doublets > 0
    assert sink.separable_rounding_bound == 0.0
    assert len(sink.chunks) == len(AmplitudeSink(plan).chunks)
    assert not sink.has_separable
    # the rounding weights are still reported, doublet by doublet
    assert np.all(sink.rounding_weight > 0.0)


@pytest.mark.parametrize("mu", [0.0, 1e-300])
@pytest.mark.parametrize("doc", sorted(GRID_DOCS))
def test_mu_zero_and_tiny_give_finite_rows(doc, mu):
    cfg = config_from_dict(merge_config(GRID_DOCS[doc], {"params": {"mu": mu}}))
    plan = _plan(cfg)
    assert 0 < DensitySink(plan).per_cell_doublets < plan.active_doublets  # the split is in use
    records = run_scenario(cfg).records
    for column in CSV_COLUMNS:
        assert np.all(np.isfinite(records[column])), column
    _assert_routes_agree(cfg, (doc, mu))


def test_tail_doublets_near_the_phase_limit_stay_per_cell():
    # Rabi frequencies of gamma sqrt(n + 1)/2: the tail doublets reach
    # Omega t_end ~ 2^50, where a phase's rounding eps Omega t_end is a
    # quarter of a radian, and their p q ~ p of 1e-12 and more then weighs
    doc = {
        "params": {"k": 1, "mu": 0.1, "gamma": 5e12},
        "nonlinearity": "identity",
        "field": {"kind": "coherent", "nbar": 25.0},
        "time": {"t_end": 50.0},
    }
    cfg = config_from_dict(doc)
    plan = _plan(cfg)
    sink = DensitySink(plan)
    assert 2.0**49 < plan.max_phase_argument < 2.0**52
    # every tail doublet whose own rounding would show is kept per cell,
    # and what is left to the separable sums stays within the budget
    huge = EPS * plan.omega * cfg.t_end > 0.1
    heavy = sink.rounding_weight > dynamics._SEPARABLE_BUDGET
    per_cell = np.isin(np.arange(plan.active_doublets), sink.doublets)
    assert np.count_nonzero(huge & heavy) > 10
    assert np.all(per_cell[huge & heavy])
    assert 0.0 <= sink.separable_rounding_bound <= dynamics._SEPARABLE_BUDGET
    records = run_scenario(cfg).records
    assert np.all(np.isfinite(records["W"])) and np.all(records["rho_gg"] >= 0.0)


@pytest.mark.parametrize("kind", ["coherent", "squeezed", "thermal"])
@pytest.mark.parametrize("t_end", [1e-300, 1e-12, 1e12])
@pytest.mark.parametrize("gamma", [1e-300, 1e200, 1e300])
def test_extreme_couplings_and_times_never_write_nan_rows(tmp_path, gamma, t_end, kind):
    doc = {
        "params": {"k": 2, "gamma": gamma, "mu": 0.1},
        "field": {"kind": kind, "nbar": 3.0},
        "time": {"t_end": t_end, "samples": 120},
    }
    config, out = tmp_path / "scenario.json", tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(config), "--output", str(out), "--format", "json"])
    assert code in (0, 2, 4)
    if code == 0:
        records = json.loads(out.read_text())["records"]
        values = np.array([list(row.values()) for row in records], dtype=float)
        assert len(values) == 120 and np.all(np.isfinite(values))
    if (gamma, t_end) == (1e200, 1e-300):
        # the fuzz test's extreme: the separable sums carry it
        assert code == 0
        plan = _plan(config_from_dict(doc))
        assert DensitySink(plan).per_cell_doublets < plan.active_doublets


def test_split_is_reported_in_the_metadata(tmp_path):
    cfg = preset("coherent_bare_identity")
    res = run_scenario(cfg)
    resolved = res.metadata["resolved"]
    sink = DensitySink(_plan(cfg))
    assert resolved["per_cell_doublets"] == sink.per_cell_doublets == 30
    assert resolved["active_doublets"] == 80
    bound = resolved["separable_rounding_bound"]
    assert bound == sink.separable_rounding_bound and 0.0 < bound <= 1e-15
    # the bound is the summed rounding weight of the separable terms
    separable = np.delete(sink.rounding_weight, sink.doublets)
    assert np.sum(separable) <= bound
    path = tmp_path / "run.json"
    emit(res.records, "json", str(path), res.metadata)
    assert json.loads(path.read_text())["metadata"]["resolved"] == resolved


# ---------------------------------------------------------------------------
# the split belongs to the density sink: amplitude passes make none
# ---------------------------------------------------------------------------


class _NoSplit(Exception):
    """Raised by a _separable_split that refuses to run."""


def _refuse_split(plan):
    raise _NoSplit


def test_amplitude_passes_make_no_split(monkeypatch, tmp_path):
    monkeypatch.setattr(dynamics, "_separable_split", _refuse_split)
    cfg = preset("coherent_kerr_stark_identity")
    times = cfg.grid()[:]
    dist = cfg.build_distribution()
    excited, ground = closed_form_series(cfg.params, cfg.nonlinearity, dist, times)
    assert excited.shape == ground.shape == (len(times), dist.n_cut + 1)
    # the CLI's oracle pass completes; the density sink, made after it, splits
    deviations = []
    oracle_pass = scenario._oracle_deviations

    def recording(*args):
        deviations.append(oracle_pass(*args))
        return deviations[-1]

    monkeypatch.setattr(scenario, "_oracle_deviations", recording)
    argv = ["simulate", "--preset", "coherent_bare_identity", "--output", str(tmp_path / "run.csv")]
    with pytest.raises(_NoSplit):
        main(argv + ["--oracle", "--counter-rotating-diagnostic"])
    assert [list(found) for found in deviations] == [
        ["max_oracle_deviation", "max_counter_rotating_deviation"]
    ]
    assert deviations[0]["max_oracle_deviation"] <= 1e-6


@pytest.mark.parametrize("name", ["squeezed_bare_sqrt_n_k4", "thermal_kerr_stark_identity"])
def test_amplitude_sink_chunks_tile_every_active_doublet_in_order(name):
    plan = _plan(preset(name))
    chunks = AmplitudeSink(plan).chunks
    own = np.concatenate([np.arange(c.mine.start, c.mine.stop) for c in chunks])
    assert np.array_equal(own, np.arange(plan.active_doublets))
    assert all(c.span == c.mine and c.own == c.mine.stop - c.mine.start for c in chunks)
    assert [c.own for c in chunks[:-1]] == [dynamics._DOUBLET_CHUNK] * (len(chunks) - 1)
    # ascending levels: each chunk's columns are one slice
    for c in chunks:
        assert isinstance(c.cols, slice)
        assert np.array_equal(np.arange(plan.c0.size)[c.cols], plan.active[c.mine])


@pytest.mark.parametrize(
    "name", ["coherent_bare_identity", "squeezed_bare_sqrt_n_k4", "thermal_kerr_stark_identity"]
)
def test_at_budget_0_the_density_sink_owns_the_amplitude_sinks_doublets(monkeypatch, name):
    monkeypatch.setattr(dynamics, "_SEPARABLE_BUDGET", 0.0)
    plan = _plan(preset(name))
    density, amplitude = DensitySink(plan), AmplitudeSink(plan)
    assert np.array_equal(density.doublets, np.arange(plan.active_doublets))
    assert len(density.chunks) == len(amplitude.chunks)
    for d, a in zip(density.chunks, amplitude.chunks):
        assert (d.own, d.mine, d.cols) == (a.own, a.mine, a.cols)
        # the halo of its pairs aside, the same rotation tables
        w = d.own
        for table in ("omega", "rabi", "envelope_rate"):
            assert getattr(d, table)[:w].tobytes() == getattr(a, table).tobytes(), table
        assert d.rabi_fine[:, :w].tobytes() == a.rabi_fine.tobytes()
