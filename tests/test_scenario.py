import json
import math
import tracemalloc

import numpy as np
import pytest

from djcm import scenario
from djcm.dynamics import (
    AmplitudeSink,
    ClosedFormPlan,
    CoefficientTable,
    DensitySink,
    closed_form_series,
    evolve_ode_oracle,
)
from djcm.errors import (
    ConfigError,
    InvalidParameterError,
    OutputError,
    PhysicsValidationError,
    PresetLookupError,
)
from djcm.observables import SERIES_COLUMNS, ObservableSeries, records_from_series
from djcm.scenario import (
    CSV_COLUMNS,
    available_presets,
    config_from_dict,
    emit,
    measure_revivals,
    merge_config,
    parse_config,
    preset,
    preset_dict,
    read_csv_series,
    run_scenario,
    sliding_rms,
)

MINIMAL = {
    "params": {"k": 1, "gamma": 1.0, "mu": 0.1},
    "field": {"kind": "coherent", "nbar": 25.0},
    "time": {"t_end": 50.0, "samples": 2000},
}


def small_config(**overrides):
    doc = {
        "params": {"k": 1, "gamma": 1.0, "mu": 0.1},
        "nonlinearity": "sqrt_n",
        "field": {"kind": "coherent", "nbar": 0.5},
        "time": {"t_end": 5.0, "samples": 120},
    }
    return config_from_dict(merge_config(doc, overrides))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_minimal_config_fills_defaults():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.params.k == 1
    assert cfg.params.chi == 0.0
    assert cfg.nonlinearity.kind == "identity"
    assert cfg.tail_eps == 1e-12
    assert cfg.samples == 2000
    assert cfg.output_format == "csv"
    assert cfg.oracle_check is False


def test_unknown_keys_rejected_with_name():
    bad = dict(MINIMAL, extra=1)
    with pytest.raises(ConfigError, match="config.'extra'"):
        config_from_dict(bad)
    bad = json.loads(json.dumps(MINIMAL))
    bad["params"]["coupling"] = 2.0
    with pytest.raises(ConfigError, match="params.'coupling'"):
        config_from_dict(bad)
    bad = json.loads(json.dumps(MINIMAL))
    bad["field"]["alpha"] = 5.0
    with pytest.raises(ConfigError, match="field.'alpha'"):
        config_from_dict(bad)


def test_stark_constraint_quoted():
    bad = json.loads(json.dumps(MINIMAL))
    bad["params"]["beta1"] = 0.3
    with pytest.raises(PhysicsValidationError, match="Stark coefficients require k=2"):
        config_from_dict(bad)


def test_degenerate_grid_rejected():
    bad = json.loads(json.dumps(MINIMAL))
    bad["time"]["samples"] = 1
    with pytest.raises(ConfigError, match="samples"):
        config_from_dict(bad)


def test_invalid_json_reported():
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config("{not json")


def test_thermal_temperature_input():
    doc = {
        "field": {"kind": "thermal", "temperature": 1.0, "frequency": math.log(2.0)},
        "time": {"t_end": 5.0, "samples": 10},
    }
    cfg = config_from_dict(doc)
    assert cfg.nbar == pytest.approx(1.0, rel=1e-12)
    assert cfg.temperature == 1.0
    # nbar and temperature are mutually exclusive
    doc["field"]["nbar"] = 2.0
    with pytest.raises(ConfigError, match="not both"):
        config_from_dict(doc)
    # temperature is thermal-only
    with pytest.raises(ConfigError, match="thermal"):
        config_from_dict(
            {"field": {"kind": "coherent", "temperature": 1.0, "frequency": 1.0}}
        )


def test_inline_nonlinearity_table():
    doc = merge_config(MINIMAL, {"nonlinearity": {"table": [1.0, 1.4, 1.7]}})
    cfg = config_from_dict(doc)
    assert cfg.nonlinearity.eval_f(2) == 1.4
    with pytest.raises(ConfigError):
        config_from_dict(merge_config(MINIMAL, {"nonlinearity": {"table": []}}))
    with pytest.raises(ConfigError):
        config_from_dict(merge_config(MINIMAL, {"nonlinearity": 7}))


THERMAL_BY_TEMPERATURE = {"kind": "thermal", "temperature": 1.0, "frequency": 1.0}


@pytest.mark.parametrize(
    "override, where",
    [
        ({"params": {"mu": math.nan}}, "params.mu"),
        ({"params": {"chi": math.inf}}, "params.chi"),
        ({"params": {"detuning": -math.inf}}, "params.detuning"),
        ({"params": {"gamma": 10**400}}, "params.gamma"),
        ({"field": {"nbar": math.nan}}, "field.nbar"),
        ({"time": {"t_end": math.inf}}, "time.t_end"),
        ({"field": dict(THERMAL_BY_TEMPERATURE, temperature="hot")}, "field.temperature"),
        ({"field": dict(THERMAL_BY_TEMPERATURE, temperature=[1])}, "field.temperature"),
        ({"field": dict(THERMAL_BY_TEMPERATURE, temperature=math.nan)}, "field.temperature"),
        ({"field": dict(THERMAL_BY_TEMPERATURE, frequency=True)}, "field.frequency"),
        ({"field": dict(THERMAL_BY_TEMPERATURE, frequency=math.inf)}, "field.frequency"),
        ({"nonlinearity": {"table": [1.0, "x"]}}, r"f\(2\)"),
        ({"nonlinearity": {"table": [math.nan]}}, r"f\(1\)"),
        ({"nonlinearity": {"table": [1.0, 1.0, math.inf]}}, r"f\(3\)"),
        ({"nonlinearity": {"table": [[1.0]]}}, r"f\(1\)"),
    ],
)
def test_non_finite_or_mistyped_numbers_rejected(override, where):
    doc = json.loads(json.dumps(MINIMAL))
    if "kind" in override.get("field", {}):
        doc.pop("field")  # temperature input replaces nbar
    with pytest.raises(ConfigError, match=where):
        config_from_dict(merge_config(doc, override))


def test_field_kind_required_and_checked():
    with pytest.raises(ConfigError):
        config_from_dict({"time": {"t_end": 1.0, "samples": 2}})
    with pytest.raises(ConfigError, match="field.kind"):
        config_from_dict({"field": {"kind": "binomial", "nbar": 1.0}})
    with pytest.raises(ConfigError, match="nbar"):
        config_from_dict({"field": {"kind": "coherent"}})


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_preset_catalog_structure():
    names = available_presets()
    assert "coherent_bare_identity" in names
    assert "thermal_kerr_stark_detuned_sqrt_n" in names
    assert len(names) == len(set(names))
    for name in names:
        cfg = preset(name)
        assert cfg.params.mu == 0.1
        assert cfg.preset_name == name


def test_preset_coherent_bare_sqrt_n():
    cfg = preset("coherent_bare_sqrt_n")
    assert cfg.params.k == 1
    assert cfg.nonlinearity.kind == "sqrt_n"
    assert cfg.params.chi == 0.0
    assert cfg.params.beta1 == 0.0 and cfg.params.beta2 == 0.0
    assert cfg.params.detuning == 0.0
    assert cfg.nbar == 25.0
    assert cfg.field_kind == "coherent"


def test_preset_low_intensity_squeezed():
    cfg = preset("squeezed_bare_sqrt_n_lown")
    assert cfg.field_kind == "squeezed"
    assert cfg.nbar == 1.0
    assert cfg.params.k == 1


def test_preset_thermal_kerr_identity():
    cfg = preset("thermal_kerr_identity")
    assert cfg.field_kind == "thermal"
    assert cfg.nonlinearity.kind == "identity"
    assert cfg.params.chi == 0.03


def test_preset_stark_tiers_are_two_photon():
    for name in available_presets():
        cfg = preset(name)
        if "kerr_stark" in name:
            assert cfg.params.k == 2
            assert cfg.params.beta1 == 0.1


def test_unknown_preset_lists_available():
    with pytest.raises(PresetLookupError) as err:
        preset("coherent_ultra")
    assert "coherent_bare_identity" in str(err.value)


def test_preset_merge_override():
    doc = merge_config(preset_dict("coherent_bare_identity"), {"time": {"t_end": 10.0}})
    cfg = config_from_dict(doc)
    assert cfg.t_end == 10.0
    assert cfg.samples == 2000


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def test_run_scenario_records_and_t0():
    cfg = small_config()
    res = run_scenario(cfg)
    series = res.records
    assert len(series) == cfg.samples
    assert series["t"][0] == 0.0
    assert series["W"][0] == pytest.approx(1.0, abs=1e-11)
    assert series["E_x"][0] == pytest.approx(0.0, abs=1e-11)
    assert series["H_z"][0] == pytest.approx(0.0, abs=1e-11)
    mass = res.metadata["resolved"]["captured_mass"]
    for norm in series["norm"][:: len(series) // 7]:
        assert norm == pytest.approx(mass, abs=1e-10)


def test_run_scenario_oracle_check_small():
    cfg = small_config(options={"oracle_check": True})
    res = run_scenario(cfg)
    deviation = res.metadata["resolved"]["max_oracle_deviation"]
    assert type(deviation) is float and 0.0 <= deviation <= 1e-6


def test_run_scenario_counter_rotating_diagnostic():
    cfg = small_config(options={"counter_rotating_diagnostic": True})
    res = run_scenario(cfg)
    # the RWA is an approximation here, so the diagnostic is visibly nonzero
    assert res.metadata["resolved"]["max_counter_rotating_deviation"] > 1e-4


def test_run_scenario_free_phase_option():
    base = small_config()
    phased = small_config(
        params={"nu": 2.0}, options={"free_phase_on_coherence": True}
    )
    res0 = run_scenario(base)
    res1 = run_scenario(phased)
    i = 37
    t = res0.records["t"][i]
    rot = np.exp(-1j * 2.0 * 1 * t)

    def rho_eg(res):
        return complex(res.records["re_rho_eg"][i], res.records["im_rho_eg"][i])

    assert rho_eg(res1) == pytest.approx(rho_eg(res0) * rot, abs=1e-13)
    assert res1.records["W"][i] == res0.records["W"][i]


def test_metadata_echoes_defaults():
    cfg = small_config()
    res = run_scenario(cfg)
    meta = res.metadata
    assert meta["params"]["chi"] == 0.0
    assert meta["field"]["tail_eps"] == 1e-12
    assert meta["time"]["t_start"] == 0.0
    assert meta["options"]["oracle_check"] is False
    assert "n_cut" in meta["resolved"]


def test_echo_is_a_copy_of_the_nonlinearity_table():
    doc = merge_config(EDGE_DOC, {"nonlinearity": {"table": [1.0, 2.0, 3.0]}})
    cfg = config_from_dict(doc)
    doc["nonlinearity"]["table"][0] = 9.0
    first = cfg.echo()
    assert first["nonlinearity"] == {"table": [1.0, 2.0, 3.0]}
    first["nonlinearity"]["table"].append(4.0)
    assert cfg.echo()["nonlinearity"] == {"table": [1.0, 2.0, 3.0]}
    assert cfg.nonlinearity.eval_f(1) == 1.0


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def test_emit_csv_layout(tmp_path):
    cfg = small_config(time={"samples": 2, "t_end": 1.0})
    res = run_scenario(cfg)
    path = tmp_path / "two.csv"
    emit(res.records, "csv", str(path), res.metadata)
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4 and lines[3] == ""  # header + 2 rows, newline-terminated
    # full double precision round-trip
    series = read_csv_series(str(path))
    assert series["W"][0] == res.records["W"][0]
    assert series["E_y"][1] == res.records["E_y"][1]


def test_emit_refuses_empty(tmp_path):
    path = tmp_path / "none.csv"
    with pytest.raises(OutputError):
        emit([], "csv", str(path))
    assert not path.exists()


def test_emit_unwritable_path():
    cfg = small_config(time={"samples": 2, "t_end": 1.0})
    res = run_scenario(cfg)
    with pytest.raises(OutputError):
        emit(res.records, "csv", "/nonexistent-dir/out.csv", res.metadata)


def test_emit_json_round_trip(tmp_path):
    cfg = small_config(time={"samples": 5, "t_end": 2.0})
    res = run_scenario(cfg)
    path = tmp_path / "out.json"
    emit(res.records, "json", str(path), res.metadata)
    doc = json.loads(path.read_text())
    assert doc["metadata"]["field"]["nbar"] == 0.5
    assert len(doc["records"]) == 5
    for i, row in enumerate(doc["records"]):
        assert list(row) == list(CSV_COLUMNS)
        for name in CSV_COLUMNS:
            assert row[name] == res.records[name][i]


def test_emitted_bytes_deterministic(tmp_path):
    cfg_a = small_config()
    cfg_b = small_config()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(run_scenario(cfg_a).records, "csv", str(p1))
    emit(run_scenario(cfg_b).records, "csv", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def _parent_emit(records, format, path, metadata=None):
    """The row-dict emitter that the columnar one replaced, kept as reference."""
    rows = [
        {
            "t": r.time,
            "W": r.W,
            "rho_ee": r.rho.rho_ee,
            "rho_gg": r.rho.rho_gg,
            "re_rho_eg": float(np.real(r.rho.rho_eg)),
            "im_rho_eg": float(np.imag(r.rho.rho_eg)),
            "H_x": r.H_x,
            "H_y": r.H_y,
            "H_z": r.H_z,
            "E_x": r.E_x,
            "E_y": r.E_y,
            "norm": r.norm,
        }
        for r in records
    ]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if format == "csv":
            handle.write(",".join(CSV_COLUMNS) + "\n")
            for row in rows:
                handle.write(",".join(repr(row[c]) for c in CSV_COLUMNS) + "\n")
        else:
            json.dump({"metadata": metadata or {}, "records": rows}, handle, indent=1)
            handle.write("\n")


def _assert_same_bytes(series, metadata, tmp_path):
    for format in ("csv", "json"):
        new, old = tmp_path / f"new.{format}", tmp_path / f"old.{format}"
        emit(series, format, str(new), metadata)
        _parent_emit(series, format, str(old), metadata)
        assert new.read_bytes() == old.read_bytes(), format


@pytest.mark.parametrize(
    "name, override",
    [
        ("squeezed_bare_sqrt_n_k2", {}),
        ("thermal_kerr_sqrt_n", {}),
        ("coherent_kerr_stark_sqrt_n", {"options": {"free_phase_on_coherence": True}}),
    ],
)
def test_emitted_bytes_match_row_emitter(name, override, tmp_path, monkeypatch):
    # a chunk size that leaves a short last chunk exercises the chunk seams
    monkeypatch.setattr(scenario, "_EMIT_CHUNK", 333)
    res = run_scenario(config_from_dict(merge_config(preset_dict(name), override), name))
    _assert_same_bytes(res.records, res.metadata, tmp_path)


def test_emit_spells_non_finite_values(tmp_path):
    values = np.array(
        [
            *(0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, -2.5e17),
            # repr's layout edges: positional for 1e-4 <= |x| < 1e16
            *(1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 0.1, 123.0),
            # the smallest subnormal and normal, the largest double, a negative exponent
            *(5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.5e-07),
        ]
    )
    series = ObservableSeries({name: np.roll(values, i) for i, name in enumerate(SERIES_COLUMNS)})
    _assert_same_bytes(series, {"note": math.nan}, tmp_path)
    text = (tmp_path / "new.json").read_text()
    assert "NaN" in text and "-Infinity" in text and "nan" not in text
    csv_cells = ",".join((tmp_path / "new.csv").read_text().splitlines()[1:]).split(",")
    assert {"nan", "inf", "-inf", "-0.0", "1e-300", "1e+16", "0.0001", "5e-324"} <= set(csv_cells)
    # the CSV reads back bit for bit, non-finite cells included
    back = read_csv_series(str(tmp_path / "new.csv"))
    for name in CSV_COLUMNS:
        assert back[name].tobytes() == series[name].tobytes()


def test_read_back_of_an_entropy_beyond_exp_range_is_infinite(tmp_path):
    # dH = exp(H) overflows past H ~ 709.78: inf, with no RuntimeWarning
    # (the suite turns one into an error)
    res = run_scenario(small_config())
    columns = {name: res.records[name] for name in SERIES_COLUMNS}
    columns["H_x"] = np.full(len(res.records), 1.7976931348623157e308)
    path = tmp_path / "big.csv"
    emit(ObservableSeries(columns), "csv", str(path))
    back = read_csv_series(str(path))
    assert back["H_x"].tobytes() == columns["H_x"].tobytes()
    assert np.all(back["dH_x"] == np.inf)
    assert back["dH_y"].tobytes() == res.records["dH_y"].tobytes()


def test_csv_read_back_re_emits_same_bytes(tmp_path):
    res = run_scenario(small_config(options={"free_phase_on_coherence": True}))
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(res.records, "csv", str(first))
    back = read_csv_series(str(first))
    assert len(back) == len(res.records)
    for name in ("H_x", "H_y", "H_z", "dH_x", "dH_y", "dH_z", "E_x"):
        assert back[name].tobytes() == res.records[name].tobytes()
    emit(back, "csv", str(second))
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize(
    "body, match",
    [
        ("0.0,1.0,x,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,1.0\n", "malformed"),
        ("0.0,1.0,1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,1.0\n0.1,1.0\n", "malformed"),
        ("0.0,1.0,1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,1.0,7.0\n", "13 cells"),
        ("", "no data rows"),
    ],
)
def test_read_csv_series_rejects_malformed_rows(tmp_path, body, match):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n" + body)
    with pytest.raises(OutputError, match=match):
        read_csv_series(str(path))


def _csv_lines(rows):
    """``rows`` data lines of 12 distinct numbers each, as an emitted CSV has them."""
    values = np.arange(rows * len(CSV_COLUMNS), dtype=float).reshape(rows, -1) / 7.0
    return [",".join(map(repr, row)) + "\n" for row in values.tolist()]


def _write_csv(path, lines):
    path.write_text(",".join(CSV_COLUMNS) + "\n" + "".join(lines))
    return str(path)


@pytest.mark.parametrize(
    "bad_row, match",
    [
        ("0.1,0.9,0.95,0.05,0.0,0.0,oops,0.1,0.1,0.0,0.0,1.0\n", "line 3000: H_x is 'oops'"),
        ("0.1,0.9,0.95\n", "line 3000: 3 cells, not 12"),
        ("0.1,0.9,0.95,0.05,0.0,0.0,0.0,0.1,0.1,0.0,0.0,1.0,7.0\n", "line 3000: 13 cells"),
    ],
)
def test_malformed_row_after_the_first_block_names_its_file_line(tmp_path, bad_row, match):
    lines = _csv_lines(5000)
    lines[2998] = bad_row  # file line 3000: the header is line 1
    path = _write_csv(tmp_path / "bad.csv", lines)
    for columns in (None, ("t", "W")):
        with pytest.raises(OutputError, match="malformed row at " + match):
            read_csv_series(path, columns)


def test_blank_lines_across_block_boundaries_are_skipped(tmp_path):
    lines = _csv_lines(3000)
    plain = read_csv_series(_write_csv(tmp_path / "plain.csv", lines))
    # file lines 1024-1028 straddle the first block's end, 2049 the second's
    spaced = lines[:1022] + ["\n"] * 5 + lines[1022:2042] + ["\n"] + lines[2042:]
    path = _write_csv(tmp_path / "spaced.csv", spaced)
    back = read_csv_series(path)
    assert len(back) == 3000
    for name in SERIES_COLUMNS:
        assert back[name].tobytes() == plain[name].tobytes(), name
    kept = read_csv_series(path, ("t", "W"))
    assert list(kept) == ["t", "W"]
    assert kept["t"].tobytes() == plain["t"].tobytes()
    assert kept["W"].tobytes() == plain["W"].tobytes()
    # the line count goes on through blank lines
    cells = spaced[2500].split(",")
    spaced[2500] = ",".join([cells[0], "oops", *cells[2:]])
    _write_csv(tmp_path / "spaced.csv", spaced)
    with pytest.raises(OutputError, match="line 2502: W is 'oops'"):
        read_csv_series(path, ("t", "W"))


def test_a_body_of_blank_lines_has_no_data_rows(tmp_path):
    path = _write_csv(tmp_path / "blank.csv", ["\n"] * 3000)
    with pytest.raises(OutputError, match="no data rows"):
        read_csv_series(path)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_t_and_w_read_back_in_24_bytes_per_row(tmp_path):
    # the two kept columns, plus one of them again while it is concatenated;
    # a whole-file np.loadtxt of all 12 columns takes about 100 B per row
    peaks = []
    for rows in (20000, 40000):
        path = _write_csv(tmp_path / f"rows{rows}.csv", _csv_lines(rows))
        peaks.append(_traced_peak(lambda: read_csv_series(path, ("t", "W"))))
    assert (peaks[1] - peaks[0]) / 20000 <= 25.0, peaks


class _RecordingBlocks:
    """A ClosedFormPlan wrapper that keeps a copy of the amplitudes of every block.

    It adds one amplitude sink to the sinks of each ``blocks`` call, so the
    amplitudes come from the same chunk evaluations as the run's own sinks.
    """

    def __init__(self, plan):
        self.plan = plan
        self.recorded = []

    def __getattr__(self, name):
        return getattr(self.plan, name)

    def blocks(self, *sinks):
        for start, *values, (excited, ground) in self.plan.blocks(*sinks, AmplitudeSink(self.plan)):
            self.recorded.append((start, excited.copy(), ground.copy()))
            yield (start, *values)


def _record_blocks(monkeypatch):
    """Patch run_scenario's ClosedFormPlan; return the list of plans made."""
    plans = []
    make = scenario.ClosedFormPlan

    def recording(*args, **kwargs):
        plans.append(_RecordingBlocks(make(*args, **kwargs)))
        return plans[-1]

    monkeypatch.setattr(scenario, "ClosedFormPlan", recording)
    return plans


def _emitted(plan, samples):
    """The recorded blocks as whole-grid arrays, after checking they tile the grid once.

    The blocks are those of the run's density sink beside the recording amplitude sink.
    """
    rows = plan.block_rows(DensitySink(plan.plan), AmplitudeSink(plan.plan))
    starts = [start for start, _, _ in plan.recorded]
    lengths = [len(exc) for _, exc, _ in plan.recorded]
    assert starts == list(range(0, samples, rows))
    assert lengths == [min(rows, samples - start) for start in starts]
    exc = np.concatenate([e for _, e, _ in plan.recorded])
    gnd = np.concatenate([g for _, _, g in plan.recorded])
    return exc, gnd


def test_oracle_checks_emitted_amplitudes(monkeypatch):
    cfg = small_config(
        time={"samples": 1700},
        options={"oracle_check": True, "counter_rotating_diagnostic": True},
    )
    plans = _record_blocks(monkeypatch)
    res = run_scenario(cfg)
    # one plan, iterated once: one pass over the grid, no second pass
    assert len(plans) == 1
    exc, gnd = _emitted(plans[0], cfg.samples)
    # three blocks, each checked against the oracle's blocks of the same rows
    assert len(plans[0].recorded) == 3

    dist = cfg.build_distribution()
    times = cfg.grid()[:]
    for name, rwa in (("oracle", False), ("counter_rotating", True)):
        states = evolve_ode_oracle(
            cfg.params, cfg.nonlinearity, dist, times, include_counter_rotating=rwa
        )
        expected = [
            max(np.max(np.abs(exc[i] - st.excited)), np.max(np.abs(gnd[i] - st.ground)))
            for i, st in enumerate(states)
        ]
        assert res.metadata["resolved"][f"max_{name}_deviation"] == max(expected)


EDGE_DOC = {
    "params": {"k": 2, "gamma": 1.0, "mu": 0.1, "chi": 0.03, "beta1": 0.1, "beta2": 0.1},
    "nonlinearity": "sqrt_n",
    "field": {"kind": "thermal", "nbar": 4.0},
    "time": {"t_end": 20.0},
}


def _rate_bound(cfg, dist, t_end):
    """8 eps (1 + |w| t_end) per doublet, w the largest phase rate of its amplitudes."""
    co = CoefficientTable(cfg.params, cfg.nonlinearity, dist.n_cut)
    mu = cfg.params.mu
    rate = np.maximum(co.Omega, np.abs(co.phi - 0.5 * mu) + mu)
    return 8.0 * np.finfo(float).eps * (1.0 + rate * t_end)


@pytest.mark.parametrize("samples", [2, 15, 16, 17, 255, 256, 257, 513])
def test_run_scenario_block_edges_match_per_time_closed_form(monkeypatch, samples):
    cfg = config_from_dict(merge_config(EDGE_DOC, {"time": {"samples": samples}}))
    plans = _record_blocks(monkeypatch)
    res = run_scenario(cfg)
    exc, gnd = _emitted(plans[0], samples)
    dist = cfg.build_distribution()
    times = cfg.grid()[:]
    # one single-time grid per sample: each time its own anchor, no fine table
    singles = [closed_form_series(cfg.params, cfg.nonlinearity, dist, [t]) for t in times]
    ref_e = np.concatenate([e for e, _ in singles])
    ref_g = np.concatenate([g for _, g in singles])
    bound = _rate_bound(cfg, dist, times[-1])
    assert np.all(np.abs(exc - ref_e) <= bound)
    assert np.all(np.abs(gnd - ref_g) <= bound)
    # the emitted W, from the density sink, is that of the per-time closed
    # form; the other density columns at block edges are pinned against the
    # amplitude route by test_density_sink_matches_amplitude_route_at_block_edges
    assert res.records["t"].tolist() == times.tolist()
    w_ref = records_from_series(times, ref_e, ref_g, cfg.params.k)["W"]
    assert np.max(np.abs(res.records["W"] - w_ref)) <= 2e-15


@pytest.mark.parametrize("name", ["squeezed_kerr_stark_sqrt_n", "thermal_kerr_sqrt_n"])
def test_blocks_match_whole_grid_series(name):
    cfg = preset(name)
    dist = cfg.build_distribution()
    times = np.linspace(0.0, 50.0, 700)
    exc, gnd = closed_form_series(cfg.params, cfg.nonlinearity, dist, times)
    plan = ClosedFormPlan(cfg.params, cfg.nonlinearity, dist, times)
    assert plan.active_doublets == np.count_nonzero(dist.probabilities)
    for start, (block_e, block_g) in plan.blocks(AmplitudeSink(plan)):
        rows = slice(start, start + len(block_e))
        # closed_form_series is these blocks, concatenated
        assert np.array_equal(block_e, exc[rows]) and np.array_equal(block_g, gnd[rows])
        # doublets with no amplitude stay zero in the reused buffers
        assert not np.any(block_e[:, dist.probabilities == 0.0])


def test_same_config_twice_gives_same_bytes(tmp_path):
    doc = merge_config(EDGE_DOC, {"time": {"samples": 600}})
    for fmt in ("csv", "json"):
        outputs = []
        # another run in between must leave no trace in the next one
        for cfg in (config_from_dict(doc), small_config(), config_from_dict(doc)):
            res = run_scenario(cfg)
            path = tmp_path / f"{len(outputs)}.{fmt}"
            emit(res.records, fmt, str(path), res.metadata)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[2]


def test_metadata_reports_active_doublets_and_phase_argument(tmp_path):
    cfg = preset("squeezed_bare_sqrt_n_k4")
    res = run_scenario(cfg)
    resolved = res.metadata["resolved"]
    dist = cfg.build_distribution()
    active = np.nonzero(dist.probabilities)[0]
    # squeezed vacuum: even levels only
    assert resolved["active_doublets"] == len(active) == 656
    assert np.all(active % 2 == 0)
    co = CoefficientTable(cfg.params, cfg.nonlinearity, dist.n_cut)
    # the tail Rabi frequency dominates: |Omega| t_end ~ 7.4e13
    assert resolved["max_phase_argument"] == float(np.max(co.Omega[active]) * cfg.t_end)
    assert resolved["max_phase_argument"] == pytest.approx(7.4188506e13, rel=1e-7)
    path = tmp_path / "run.json"
    emit(res.records, "json", str(path), res.metadata)
    assert json.loads(path.read_text())["metadata"]["resolved"] == resolved


# ---------------------------------------------------------------------------
# revival detection
# ---------------------------------------------------------------------------


def _records_from(times, values):
    return {"t": times, "W": values}


def test_revivals_needs_samples():
    with pytest.raises(InvalidParameterError):
        measure_revivals(_records_from(np.arange(10.0), np.zeros(10)))


def test_revivals_constant_series_empty():
    t = np.linspace(0.0, 50.0, 500)
    assert measure_revivals(_records_from(t, np.full(500, 0.7))) == []


def test_revivals_pure_cosine_empty():
    t = np.linspace(0.0, 50.0, 2000)
    assert measure_revivals(_records_from(t, np.cos(t))) == []


def test_revivals_synthetic_collapse_revival():
    t = np.linspace(0.0, 100.0, 4000)
    envelope = np.exp(-((t - 0.0) ** 2) / 18.0) + 0.8 * np.exp(-((t - 60.0) ** 2) / 50.0)
    w = envelope * np.cos(5.0 * t)
    events = measure_revivals(_records_from(t, w))
    assert len(events) == 1
    assert events[0]["t_center"] == pytest.approx(60.0, abs=2.0)
    assert events[0]["envelope_amplitude"] > 0.3


def test_first_revival_at_mu_zero_is_the_one_sideband_value():
    # with one retained sideband the coupling is gamma/2, so the first
    # revival of a coherent field sits at 4 pi sqrt(nbar)/gamma, not at the
    # constant-coupling 2 pi sqrt(nbar)/gamma
    cfg = config_from_dict(
        merge_config(
            preset_dict("coherent_bare_identity"),
            {"params": {"mu": 0.0}, "time": {"t_end": 150.0, "samples": 6000}},
        )
    )
    events = measure_revivals(run_scenario(cfg).records)
    window = round(0.02 * cfg.samples) * cfg.t_end / (cfg.samples - 1)  # 3.0 time units
    expected = 4.0 * math.pi * math.sqrt(cfg.nbar) / cfg.params.gamma
    assert abs(events[0]["t_center"] - expected) <= window, (events[0], expected)


def _sliding_rms_by_index(x, window):
    """The sliding RMS with a clipped index pair per sample: a reference for sliding_rms."""
    n = len(x)
    cum = np.concatenate(([0.0], np.cumsum(x * x)))
    lo = np.maximum(np.arange(n) - window, 0)
    hi = np.minimum(np.arange(n) + window + 1, n)
    return np.sqrt((cum[hi] - cum[lo]) / (hi - lo))


def test_sliding_rms_is_bit_identical_to_the_index_formula():
    rng = np.random.default_rng(21)
    # windows wider than the series: every sample is an edge, on one side or both
    for n in [*range(12), 100, 1001, 5000]:
        for window in (0, 1, 3, 5, 6, 11, 50, 100):
            x = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
            got, want = sliding_rms(x, window), _sliding_rms_by_index(x, window)
            assert got.tobytes() == want.tobytes(), (n, window)


def test_revival_scan_holds_at_most_32_bytes_per_sample():
    rng = np.random.default_rng(22)
    peaks = []
    for n in (50000, 100000):
        t, w = np.arange(float(n)), rng.standard_normal(n)
        peaks.append(_traced_peak(lambda: measure_revivals({"t": t, "W": w})))
    assert (peaks[1] - peaks[0]) / 50000 <= 32.0, peaks


def _revivals_by_scan(records):
    """The revival events by the definition, sample by sample: a reference for the array scan."""
    times, w = np.asarray(records["t"]), np.asarray(records["W"])
    window = max(3, round(0.02 * len(w)))
    env = sliding_rms(w - np.mean(w), window)
    threshold = 0.2 * env[0]
    events, collapsed, last_peak = [], False, -len(env)
    for i in range(window, len(env) - window):
        collapsed = collapsed or env[i - 1] < threshold
        if not collapsed or env[i] < threshold:
            continue
        neighborhood = env[i - window : i + window + 1]
        if (
            env[i] >= np.max(neighborhood)
            and env[i] > neighborhood[0]
            and env[i] > neighborhood[-1]
            and i - last_peak > window
        ):
            events.append({"t_center": float(times[i]), "envelope_amplitude": float(env[i])})
            last_peak = i
    return events


def _revival_series():
    """Series with many, few and no revivals: noise, beats and bursts with plateaus."""
    rng = np.random.default_rng(20)
    for k in range(60):
        n = int(rng.integers(100, 2500))
        t = np.arange(n, dtype=float)
        if k % 3 == 0:
            w = rng.standard_normal(n)
        elif k % 3 == 1:
            bump = np.exp(-(((t - n / 2) / (n / 6)) ** 2))
            w = np.cos(t * rng.uniform(0.01, 0.5)) * bump + np.cos(0.3 * t) * (t < n / 8)
        else:  # integers of zero sum: the envelope is exact, so equal windows tie
            w = rng.integers(-1, 2, n) * (np.sin(t / rng.uniform(5.0, 100.0)) > 0.3)
            w[-1] -= w.sum()
        yield f"series {k}", _records_from(t, w)
    for name in ("coherent_bare_identity", "thermal_kerr_sqrt_n", "squeezed_bare_sqrt_n_lown_k2"):
        yield name, run_scenario(preset(name)).records


def test_revivals_match_the_sample_by_sample_scan():
    found = 0
    for label, records in _revival_series():
        events = measure_revivals(records)
        assert json.dumps(events) == json.dumps(_revivals_by_scan(records)), label
        found += len(events)
    assert found >= 30  # the series do have revivals to find
