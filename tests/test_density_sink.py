"""The closed form's density sink against its amplitude sink, and what it pins.

``run_scenario`` reduces rho_ee, rho_gg and rho_eg straight from the
rotation stage and the phase tables; ``closed_form_series`` writes the
amplitudes, from which ``records_from_series`` reduces the same columns.
The two routes differ only in summation order and in how the coherence
phase is tabulated, so their columns agree to the limits below.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from djcm.dynamics import CoefficientTable, closed_form_series
from djcm.errors import PhysicsValidationError
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
