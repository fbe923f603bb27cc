"""Scenario configuration, presets, the run loop and result emission.

A scenario document is JSON with the sections below; unknown keys are
rejected anywhere in the tree. Every value has a default except the
field mean photon number (or temperature+frequency for thermal fields).
The params keys, their defaults and their order are the fields of
:class:`~djcm.model.ModelParams`.

    {
      "params":       {"k", "gamma", "mu", "detuning", "chi",
                       "beta1", "beta2", "nu"},
      "nonlinearity": "identity" | "sqrt_n" | {"table": [f(1), f(2), ...]},
      "field":        {"kind", "nbar", "temperature", "frequency",
                       "tail_eps"},
      "time":         {"t_end", "samples"},
      "options":      {"oracle_check", "counter_rotating_diagnostic",
                       "free_phase_on_coherence"},
      "output":       {"path", "format"}
    }

Time is reported in the scaled unit gamma*t; gamma is configured
separately so physical time stays recoverable.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import uuid
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import field_states
from .dynamics import _MAX_BLOCK_ROWS, AmplitudeSink, ClosedFormPlan, DensitySink, _phase_checked
from .errors import (
    ConfigError,
    InvalidParameterError,
    OutputError,
    PresetLookupError,
)
from .model import ModelParams, UniformGrid
from .nonlinearity import Nonlinearity
from .observables import CSV_COLUMNS, ObservableSeries, series_from_density
from .oracle import ode_oracle_blocks
from .shortest import RowLayout, Workspace

ORACLE_DEVIATION_LIMIT = 1e-6
# rows formatted per write of a whole series: a stream's longest block
_EMIT_CHUNK = _MAX_BLOCK_ROWS
# the option flags of a scenario document, each false unless it sets them
_OPTIONS = ("oracle_check", "counter_rotating_diagnostic", "free_phase_on_coherence")
# a revival reaches this fraction of the initial envelope after falling below it
_REVIVAL_THRESHOLD = 0.2
# CSV lines per np.loadtxt call on read-back. On 50 000 samples `djcm
# revivals` after `simulate` raised the peak RSS by 0.5-0.6 MiB at 1024
# lines, by 2.0 MiB at 4096 and by 9.3 MiB at 16 384.
_READ_ROWS = 1024


@dataclass(frozen=True)
class ScenarioConfig:
    params: ModelParams
    nonlinearity: Nonlinearity
    nonlinearity_selector: object
    field_kind: str
    nbar: float
    tail_eps: float
    t_end: float
    samples: int
    oracle_check: bool = False
    counter_rotating_diagnostic: bool = False
    free_phase_on_coherence: bool = False
    output_path: str | None = None
    output_format: str = "csv"
    preset_name: str | None = None
    temperature: float | None = None
    frequency: float | None = None

    def grid(self) -> UniformGrid:
        """The run's grid ``np.linspace(0.0, t_end, samples)``, made a block at a time."""
        return UniformGrid(self.t_end, self.samples)

    def build_distribution(self) -> field_states.PhotonDistribution:
        return field_states.build_distribution(
            self.field_kind, self.nbar, self.tail_eps, k=self.params.k
        )

    def echo(self) -> dict:
        """Every resolved parameter, defaults included (audit trail)."""
        out = {
            "preset": self.preset_name,
            "params": asdict(self.params),
            "nonlinearity": json.loads(json.dumps(self.nonlinearity_selector)),  # deep copy
            "field": {
                "kind": self.field_kind,
                "nbar": self.nbar,
                "tail_eps": self.tail_eps,
            },
            "time": {"t_start": 0.0, "t_end": self.t_end, "samples": self.samples},
            "options": {name: getattr(self, name) for name in _OPTIONS},
            "output": {"path": self.output_path, "format": self.output_format},
        }
        if self.temperature is not None:
            out["field"]["temperature"] = self.temperature
            out["field"]["frequency"] = self.frequency
        return out


def _require_keys(section: dict, allowed, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {where}.{key!r}")


def _section(doc: dict, name: str, allowed, required: bool = False) -> dict:
    """The object ``doc[name]``, holding only keys in ``allowed``; {} if absent and optional."""
    section = doc.get(name) if required else doc.get(name, {})
    if not isinstance(section, dict):
        if required:
            raise ConfigError(f"config.{name} section is required")
        raise ConfigError(f"config.{name} must be an object")
    _require_keys(section, allowed, name)
    return section


def _finite(value, what: str):
    """A JSON number that is neither NaN nor infinite, else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return value


def _number(section: dict, key: str, default, where: str, integer: bool = False):
    if key not in section:
        return default
    value = _finite(section[key], f"{where}.{key}")
    if integer:
        if int(value) != value:
            raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
        return int(value)
    return float(value)


def _flag(section: dict, key: str) -> bool:
    value = section.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"options.{key} must be true or false, got {value!r}")
    return value


def config_from_dict(doc: dict, preset_name: str | None = None) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a JSON object")
    _require_keys(doc, ("params", "nonlinearity", "field", "time", "options", "output"), "config")

    # keys, defaults and order from ModelParams; k, whose default is an int, is an integer
    declared = fields(ModelParams)
    raw_params = _section(doc, "params", [f.name for f in declared])
    params = ModelParams(
        **{
            f.name: _number(raw_params, f.name, f.default, "params", isinstance(f.default, int))
            for f in declared
        }
    )

    selector = doc.get("nonlinearity", "identity")
    if isinstance(selector, str):
        nonlin = Nonlinearity.from_name(selector)
    elif isinstance(selector, dict):
        table = _section(doc, "nonlinearity", ("table",)).get("table")
        if not isinstance(table, list) or not table:
            raise ConfigError("nonlinearity.table must be a non-empty list of f(n) values")
        for n, value in enumerate(table, start=1):
            _finite(value, f"nonlinearity.table entry f({n})")
        nonlin = Nonlinearity.from_table(table)
    else:
        raise ConfigError(f"nonlinearity must be a name or an inline table, got {selector!r}")

    raw_field = _section(
        doc, "field", ("kind", "nbar", "temperature", "frequency", "tail_eps"), required=True
    )
    kind = raw_field.get("kind")
    if kind not in field_states.KINDS:
        raise ConfigError(f"field.kind must be one of {field_states.KINDS}, got {kind!r}")
    tail_eps = _number(raw_field, "tail_eps", field_states.DEFAULT_TAIL_EPS, "field")
    temperature = _number(raw_field, "temperature", None, "field")
    frequency = _number(raw_field, "frequency", None, "field")
    if temperature is not None or frequency is not None:
        if kind != field_states.THERMAL:
            raise ConfigError("field.temperature/frequency only apply to thermal fields")
        if "nbar" in raw_field:
            raise ConfigError("give field.nbar or field.temperature, not both")
        if temperature is None or frequency is None:
            raise ConfigError("thermal temperature input needs both temperature and frequency")
        nbar = field_states.thermal_nbar_from_temperature(frequency, temperature)
    elif "nbar" in raw_field:
        nbar = _number(raw_field, "nbar", None, "field")
    else:
        raise ConfigError("field.nbar is required (or temperature+frequency for thermal)")
    if nbar < 0.0:
        raise ConfigError(f"field.nbar must be >= 0, got {nbar!r}")

    raw_time = _section(doc, "time", ("t_end", "samples"))
    t_end = _number(raw_time, "t_end", 50.0, "time")
    samples = _number(raw_time, "samples", 2000, "time", integer=True)
    if samples < 2:
        raise ConfigError(f"time.samples must be >= 2, got {samples}")
    if not (t_end > 0.0):
        raise ConfigError(f"time.t_end must be > 0, got {t_end!r}")

    raw_options = _section(doc, "options", _OPTIONS)

    raw_output = _section(doc, "output", ("path", "format"))
    output_format = raw_output.get("format", "csv")
    if output_format not in ("csv", "json"):
        raise ConfigError(f"output.format must be 'csv' or 'json', got {output_format!r}")
    output_path = raw_output.get("path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError(f"output.path must be a string, got {output_path!r}")

    return ScenarioConfig(
        params=params,
        nonlinearity=nonlin,
        nonlinearity_selector=json.loads(json.dumps(selector)),  # deep copy
        field_kind=kind,
        nbar=float(nbar),
        tail_eps=tail_eps,
        t_end=t_end,
        samples=samples,
        **{name: _flag(raw_options, name) for name in _OPTIONS},
        output_path=output_path,
        output_format=output_format,
        preset_name=preset_name,
        temperature=temperature,
        frequency=frequency,
    )


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a JSON scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# Presets
#
# mu = 0.1, nu = 1 and nbar = 25 throughout, except the documented
# low-intensity squeezing presets (nbar = 1). chi = 0.03 on Kerr tiers,
# beta1 = beta2 = 0.1 on Stark tiers (which force k = 2), detuning = 5 on
# detuned tiers; those values are artifact choices (figure-caption values
# are not available) and every key can be overridden per-config.
# ---------------------------------------------------------------------------

_BASE_PARAMS = {**asdict(ModelParams()), "mu": 0.1, "nu": 1.0}
_STARK = {"k": 2, "chi": 0.03, "beta1": 0.1, "beta2": 0.1}
# each tier's params, as overrides of _BASE_PARAMS
_TIERS = {
    "bare": {},
    "kerr": {"chi": 0.03},
    "kerr_stark": _STARK,
    "kerr_stark_detuned": {**_STARK, "detuning": 5.0},
}


def _preset_doc(field_kind: str, nonlin: str, nbar: float = 25.0, **params) -> dict:
    return {
        "params": {**_BASE_PARAMS, **params},
        "nonlinearity": nonlin,
        "field": {"kind": field_kind, "nbar": nbar, "tail_eps": 1e-12},
        "time": {"t_end": 50.0, "samples": 2000},
    }


def _build_presets() -> dict:
    presets = {}
    for field_kind in field_states.KINDS:
        for tier, params in _TIERS.items():
            for nonlin in ("identity", "sqrt_n"):
                presets[f"{field_kind}_{tier}_{nonlin}"] = _preset_doc(field_kind, nonlin, **params)
        # bare multiphoton variants, used for the k = 2, 3, 4 checks
        for nonlin in ("identity", "sqrt_n"):
            for k in (2, 3, 4):
                presets[f"{field_kind}_bare_{nonlin}_k{k}"] = _preset_doc(field_kind, nonlin, k=k)
    presets["squeezed_bare_sqrt_n_lown"] = _preset_doc("squeezed", "sqrt_n", 1.0)
    # Squeezed fields populate even levels only, so the atomic coherence
    # rho_eg vanishes identically for odd k; the two-photon variant is the
    # regime where low-intensity squeezed-field entropy squeezing shows up.
    presets["squeezed_bare_sqrt_n_lown_k2"] = _preset_doc("squeezed", "sqrt_n", 1.0, k=2)
    presets["coherent_kerr_sqrt_n_lown"] = _preset_doc("coherent", "sqrt_n", 1.0, chi=0.03)
    return presets


_PRESETS = _build_presets()


def available_presets() -> list[str]:
    return sorted(_PRESETS)


def preset_dict(name: str) -> dict:
    if name not in _PRESETS:
        raise PresetLookupError(name, available_presets())
    return json.loads(json.dumps(_PRESETS[name]))  # deep copy


def preset(name: str) -> ScenarioConfig:
    """Named scenario for the studied regimes; see :func:`available_presets`."""
    return config_from_dict(preset_dict(name), preset_name=name)


def merge_config(base: dict, override: dict) -> dict:
    """Per-key override of a preset document by a user document."""
    out = json.loads(json.dumps(base))
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge_config(out[key], value)
        else:
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


@dataclass
class ScenarioResult:
    records: ObservableSeries
    metadata: dict


def _block_deviation(closed, oracle) -> float:
    """Largest |amplitude difference| of two (excited, ground) blocks; overwrites the oracle's."""
    excited, ground = (np.subtract(c, o, out=o) for c, o in zip(closed, oracle, strict=True))
    return float(np.maximum(np.max(np.abs(excited)), np.max(np.abs(ground))))


def _oracle_deviations(config: ScenarioConfig, dist, plan: ClosedFormPlan) -> dict:
    """The largest amplitude deviation of each oracle option the config sets.

    One pass of the plan's blocks through an amplitude sink, each block
    compared with the matching block of every RK4 integration, drawn in
    blocks of the same rows (:func:`~djcm.oracle.ode_oracle_blocks`), and
    dropped before the next is drawn, so the pass holds one block of
    (rows, n_cut+1) amplitudes per route. Keys ``max_oracle_deviation``,
    then ``max_counter_rotating_deviation``; without an option, none, and
    no amplitude sink is made.
    """
    if not (config.oracle_check or config.counter_rotating_diagnostic):
        return {}
    params, f, sink = config.params, config.nonlinearity, AmplitudeSink(plan)
    rows = plan.block_rows(sink)
    oracles = {}
    if config.oracle_check:
        oracles["oracle"] = ode_oracle_blocks(params, f, dist, plan.times, block_rows=rows)
    if config.counter_rotating_diagnostic:
        oracles["counter_rotating"] = ode_oracle_blocks(
            params, f, dist, plan.times, include_counter_rotating=True, block_rows=rows
        )
    # np.maximum keeps a NaN deviation, where max() could drop it
    worst = dict.fromkeys(oracles, -np.inf)
    for _, closed in plan.blocks(sink):
        for name, blocks in oracles.items():
            worst[name] = np.maximum(worst[name], _block_deviation(closed, next(blocks)))
    return {f"max_{name}_deviation": float(value) for name, value in worst.items()}


class ScenarioStream:
    """One run of a config, as :class:`ObservableSeries` blocks of the plan's rows.

    Made by :func:`iter_scenario`. ``metadata`` is complete as soon as the
    stream exists, before any block is evaluated: the config's echo and,
    under ``resolved``, ``n_cut``, ``captured_mass``, ``active_doublets``,
    ``max_phase_argument``, ``per_cell_doublets``,
    ``separable_rounding_bound`` and the oracle options' deviations, which
    making the stream checks in a pass of its own (:func:`_oracle_deviations`).

    Iterating the stream (once) evaluates the closed form block by block
    through the density sink and yields each block's series. A block has
    the rows :meth:`~djcm.dynamics.ClosedFormPlan.block_rows` gives the
    density sink, 256 to 768, whatever the oracle options; the rows'
    values do not depend on it. The stream holds one block: the chunk
    buffers it is evaluated in, its values in the sink and its series.
    """

    def __init__(self, config: ScenarioConfig):
        params = config.params
        self.config = config
        dist = config.build_distribution()
        self._plan = plan = ClosedFormPlan(params, config.nonlinearity, dist, config.grid())
        self._coherence_phase = params.nu * params.k if config.free_phase_on_coherence else 0.0
        # the free phase nu k t of rho_eg rounds as the kernel's phases do
        phase = _phase_checked(max(plan.max_phase_argument, self._coherence_phase * config.t_end))
        self.metadata = config.echo()
        self.metadata["resolved"] = {
            "n_cut": dist.n_cut,
            "captured_mass": dist.captured_mass,
            "active_doublets": plan.active_doublets,
            "max_phase_argument": phase,
            "per_cell_doublets": plan.per_cell_doublets,
            "separable_rounding_bound": plan.separable_rounding_bound,
            **_oracle_deviations(config, dist, plan),
        }

    def __iter__(self):
        plan = self._plan
        if plan is None:
            raise RuntimeError("a ScenarioStream is iterated once")
        self._plan = None
        for start, (rho_ee, rho_gg, rho_eg) in plan.blocks(DensitySink(plan)):
            times = plan.times[start : start + len(rho_ee)]
            yield series_from_density(times, rho_ee, rho_gg, rho_eg, self._coherence_phase)


def iter_scenario(config: ScenarioConfig) -> ScenarioStream:
    """The run of ``config`` as a stream of series blocks of 256 to 768 samples.

    The closed form's plan is built here, and the oracle options' check
    runs here, so a config whose phase arguments overflow
    (PhysicsValidationError), whose grid is invalid or whose oracle
    integration fails fails before the first block; the complete
    metadata is then available as ``stream.metadata`` (see
    :class:`ScenarioStream`). The CLI hands the stream to :func:`emit`,
    which writes each block as it comes, so memory stays bounded in the
    number of samples.
    """
    return ScenarioStream(config)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """The observable series on the configured grid: :func:`iter_scenario`, concatenated.

    The closed form runs a block of samples at a time, 256 or, for a
    narrow plan, up to 768 (:class:`~djcm.dynamics.ClosedFormPlan`): the
    coefficient table, the active doublets and, on the uniform grid, the
    16-row fine phase tables are built once for the run; each block
    evaluates its coarse phase rows, one per 16 samples, and its density
    sink reduces rho_ee, rho_gg and rho_eg straight from the rotation and
    the phase tables, and the doublets whose rounding would not show as
    separable sums of exponentials, so no amplitude is written. With
    ``oracle_check`` a pass of its own compares the plan's amplitudes
    with the RK4 reference integration on the same grid and reports the
    largest deviation as ``metadata["resolved"]["max_oracle_deviation"]``;
    callers treat one above 1e-6 as a failure (the CLI exits 3).
    ``counter_rotating_diagnostic`` reports the same deviation measure
    against the integration that retains the counter-rotating terms, as
    ``max_counter_rotating_deviation``: that difference measures the
    rotating-wave approximation itself, so it is reported, never gated on.

    ``metadata["resolved"]`` holds the truncation (``n_cut``,
    ``captured_mass``), the number of active doublets, the largest
    phase argument (``max_phase_argument``, |w| t_end over the Rabi and
    phase frequencies of the active doublets, and nu k with
    ``free_phase_on_coherence``), the
    split of the density sink (``per_cell_doublets`` evaluated cell by
    cell, and ``separable_rounding_bound``, the summed rounding weight of
    the separable terms; see :class:`~djcm.dynamics.ClosedFormPlan`),
    plus the largest deviation of each oracle option. ``records`` is a whole-grid
    series; the CLI streams instead.
    """
    stream = iter_scenario(config)
    records = ObservableSeries.concatenate(list(stream))
    return ScenarioResult(records=records, metadata=stream.metadata)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


# CSV cells end in "," or, the row's last, in "\n". A record of
# json.dump(..., indent=1) inside the top-level "records" list is each
# column's key text and cell, then "\n  }"; records are joined by
# _JSON_SEPARATOR, which every row here starts with.
_LAST = len(CSV_COLUMNS) - 1
_CSV_ROWS = RowLayout([""] * len(CSV_COLUMNS), [","] * _LAST + ["\n"])
_JSON_SEPARATOR = ",\n"
_JSON_ROWS = RowLayout(
    [
        _JSON_SEPARATOR + ("  {\n" if i == 0 else "") + f"   {json.dumps(name)}: "
        for i, name in enumerate(CSV_COLUMNS)
    ],
    [""] * _LAST + ["\n  }"],
    nan="NaN",
    inf="Infinity",
)


def _head(format: str, metadata) -> bytes:
    """The bytes before the first row; JSON's hold the metadata."""
    if format == "csv":
        return (",".join(CSV_COLUMNS) + "\n").encode("utf-8")
    empty = json.dumps({"metadata": metadata or {}, "records": []}, indent=1)
    return (empty[: -len("]\n}")] + "\n").encode("utf-8")


def _write_rows(handle, series, json_format: bool, first: bool, work: Workspace) -> None:
    """Append the rows of a series block in one write; ``first`` when none precede them."""
    layout = _JSON_ROWS if json_format else _CSV_ROWS
    block = np.stack([series[name] for name in CSV_COLUMNS], axis=1)
    rows = layout.rows(block, work)
    handle.write(rows[len(_JSON_SEPARATOR) :] if first and json_format else rows)


def _pieces(series: ObservableSeries):
    """A whole series as consecutive blocks of _EMIT_CHUNK rows (the last one shorter)."""
    for start in range(0, len(series), _EMIT_CHUNK):
        yield ObservableSeries(
            {name: column[start : start + _EMIT_CHUNK] for name, column in series.columns.items()}
        )


def _spool_path(path: str) -> str:
    """A fresh hidden file name beside path."""
    folder, name = os.path.split(path)
    return os.path.join(folder, f".{name}.{uuid.uuid4().hex}.part")


def emit(records, format: str, path: str, metadata: dict | None = None) -> None:
    """Write a series, or a stream of series blocks, as CSV or JSON.

    ``records`` is an :class:`ObservableSeries` or an iterable of
    consecutive blocks, such as the stream of :func:`iter_scenario`; each
    block's rows are formatted whole and written before the next block is
    pulled, and a whole series is cut into blocks of _EMIT_CHUNK (768)
    rows, a stream's longest, so only one block's text is held, whatever
    the number of samples. The blocks of one call are formatted in one
    :class:`~djcm.shortest.Workspace`, made here and dropped at the end,
    so each block reuses the memory of the one before. The bytes
    are those of a CSV row of repr() values per sample, or of
    ``json.dump({"metadata": ..., "records": [row, ...]}, indent=1)``
    followed by a newline, with rows keyed in CSV_COLUMNS order. JSON's
    metadata is written once, before the first row, as ``metadata`` is
    at the call: a stream's is complete from the start.

    The file appears only when it is complete: everything goes to a
    hidden file in the same directory, renamed onto ``path`` at the end.
    A run that fails, or yields no rows (OutputError), leaves no file and
    the file that ``path`` held, if any, as it was.
    """
    if format not in ("csv", "json"):
        raise OutputError(f"unknown output format {format!r}")
    blocks = _pieces(records) if isinstance(records, ObservableSeries) else records
    json_format = format == "json"
    spool = _spool_path(path)
    work = Workspace()
    try:
        with open(spool, "xb") as handle:
            handle.write(_head(format, metadata))
            rows = 0
            for block in blocks:
                if len(block):
                    _write_rows(handle, block, json_format, not rows, work)
                    rows += len(block)
            if not rows:
                raise OutputError("no records to emit; not creating a file")
            handle.write(b"\n ]\n}\n" if json_format else b"")
        os.replace(spool, path)
    except OSError as exc:
        raise OutputError(f"cannot write {path!r}: {exc}") from exc
    finally:  # the spool, unless it was renamed onto path
        with contextlib.suppress(OSError):
            os.remove(spool)


def read_csv_series(path: str, columns: tuple | None = None) -> ObservableSeries | dict:
    """Read back an emitted CSV as a series, with dH_* = exp(H_*) (inf where that overflows).

    The header is checked, then ``np.loadtxt`` parses the body
    _READ_ROWS lines at a time, blank lines skipped, so neither the
    file's text nor a whole-file parse buffer is held. Every value comes
    back bit for bit as emitted. A cell that is not a number, a row with
    the wrong number of cells or a file with no data rows raises
    OutputError, naming the file line (the header is line 1).

    With ``columns``, names from CSV_COLUMNS, every cell is still parsed
    and checked, but only those columns are kept and returned as a dict
    of arrays: ``djcm revivals`` keeps t and W, 16 B per sample.
    """
    names = CSV_COLUMNS if columns is None else tuple(columns)
    kept = {name: [] for name in names}
    rows = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            header = handle.readline()
            if not header:
                raise OutputError(f"{path!r} is empty")
            if header.rstrip("\n").split(",") != list(CSV_COLUMNS):
                raise OutputError(f"{path!r} does not look like an emitted series")
            line = 2  # the file line of the chunk's first line
            while chunk := list(itertools.islice(handle, _READ_ROWS)):
                block = _parse_rows(path, chunk, line)
                for name in names:
                    kept[name].append(block[:, CSV_COLUMNS.index(name)].copy())
                rows += len(block)
                line += len(chunk)
    except OSError as exc:
        raise OutputError(f"cannot read {path!r}: {exc}") from exc
    if not rows:
        raise OutputError(f"{path!r} has no data rows")
    # a column at a time, each dropping its blocks: t and W peak at 24 B per row
    data = {name: np.concatenate(kept.pop(name)) for name in names}
    if columns is not None:
        return data
    with np.errstate(over="ignore"):  # an H beyond ln(max double) reads back as dH = inf
        for axis in ("x", "y", "z"):
            data[f"dH_{axis}"] = np.exp(data[f"H_{axis}"])
    return ObservableSeries(data)


def _parse_rows(path: str, chunk: list, line: int) -> np.ndarray:
    """The (rows, 12) values of the non-blank lines of ``chunk``, which starts at file ``line``."""
    text = [row for row in chunk if row != "\n"]
    if not text:  # np.loadtxt would warn of no data
        return np.empty((0, len(CSV_COLUMNS)))
    with contextlib.suppress(ValueError):
        block = np.loadtxt(text, delimiter=",", comments=None, ndmin=2)
        if block.shape[1] == len(CSV_COLUMNS):
            return block
    # name the first bad line, and the first cell np.loadtxt refuses there
    for number, row in enumerate(chunk, line):
        if row == "\n":
            continue
        cells = row.rstrip("\n").split(",")
        where = f"{path!r} has a malformed row at line {number}:"
        if len(cells) != len(CSV_COLUMNS):
            raise OutputError(f"{where} {len(cells)} cells, not {len(CSV_COLUMNS)}")
        for column, name in enumerate(CSV_COLUMNS):
            try:
                np.loadtxt([row], delimiter=",", comments=None, usecols=column)
            except ValueError as exc:
                raise OutputError(f"{where} {name} is {cells[column]!r}, not a number") from exc
    raise OutputError(f"{path!r} has a malformed row at lines {line}-{line + len(chunk) - 1}")


# ---------------------------------------------------------------------------
# Revival detection
# ---------------------------------------------------------------------------


def sliding_rms(x: np.ndarray, window: int) -> np.ndarray:
    """Centered RMS of x over +-window samples (edges clipped).

    Sample i is sqrt((cum[hi] - cum[lo]) / (hi - lo)) over the cumulative
    sum cum of x * x, with lo = max(i - window, 0) and hi = min(i +
    window + 1, n): slices of cum for the interior, where hi - lo is
    2 window + 1, and short index arrays for the clipped edges, so no
    full-length index array is made.
    """
    n, size = len(x), 2 * window + 1
    cum = np.empty(n + 1)
    cum[0] = 0.0
    np.cumsum(x * x, out=cum[1:])
    env = np.empty(n)
    inner = env[window : max(n - window, window)]
    np.subtract(cum[size:], cum[:-size], out=inner)
    inner /= size
    edge = np.r_[: min(window, n), max(n - window, window) : n]
    lo, hi = np.maximum(edge - window, 0), np.minimum(edge + window + 1, n)
    env[edge] = (cum[hi] - cum[lo]) / (hi - lo)
    return np.sqrt(env, out=env)


def measure_revivals(records):
    """Revival events {t_center, envelope_amplitude} of an inversion series.

    ``records`` is an :class:`ObservableSeries`, or any mapping with "t"
    and "W" arrays.

    The envelope is the sliding-window RMS of W - mean(W) with a window of
    2% of the grid. An event is an interior local maximum of the envelope
    that reaches _REVIVAL_THRESHOLD of the initial envelope after the
    envelope has previously collapsed below that same threshold; no
    collapse means no revival, so a flat (or merely rippling) envelope
    yields no events. A series of fewer than 100 samples, or with a t or
    W that is NaN or infinite, raises InvalidParameterError: a non-finite
    W would make the mean, and so every comparison, NaN.
    """
    times = np.asarray(records["t"], dtype=float)
    w = np.asarray(records["W"], dtype=float)
    if len(w) < 100:
        raise InvalidParameterError(f"revival detection needs >= 100 samples, got {len(w)}")
    bad = np.flatnonzero(~(np.isfinite(times) & np.isfinite(w)))
    if len(bad):
        i = int(bad[0])
        raise InvalidParameterError(
            f"revival detection needs finite t and W; sample {i} has t={times[i]!r}, W={w[i]!r}"
        )
    window = max(3, round(0.02 * len(w)))
    env = sliding_rms(w - np.mean(w), window)
    threshold = _REVIVAL_THRESHOLD * env[0]

    # the interior samples i = window .. len - window - 1 at or above
    # threshold once the envelope has collapsed (some env[i - 1] below it),
    # a local maximum above both ends of their +-window neighbourhood; then
    # those that are its largest value. Views and masks only, so the scan
    # holds no more than the envelope's size.
    lo, hi = window, len(env) - window
    collapse = np.flatnonzero(env[lo - 1 : hi - 1] < threshold)
    if not len(collapse):
        return []
    first = lo + int(collapse[0])
    peak = env[first:hi]
    keep = peak >= threshold
    for shift in (-1, 1):  # a neighbourhood's largest value is a local maximum
        keep &= peak >= env[first + shift : hi + shift]
    for shift in (-window, window):
        keep &= peak > env[first + shift : hi + shift]
    i = first + np.flatnonzero(keep)
    i = i[env[i] >= _window_maxima(env, window, i)]

    events = []
    last_peak = -len(env)
    for peak in i.tolist():
        if peak - last_peak > window:
            events.append({"t_center": float(times[peak]), "envelope_amplitude": float(env[peak])})
            last_peak = peak
    return events


def _window_maxima(x: np.ndarray, window: int, centers: np.ndarray) -> np.ndarray:
    """max(x[i - window : i + window + 1]) for each interior i of ``centers``.

    In linear time (van Herk / Gil-Werman): x is cut into runs of
    2 window + 1 samples, and each neighbourhood, which spans at most two
    runs, is the larger of one run's suffix maximum and the next run's
    prefix maximum. Both are accumulated in one padded copy of x.
    """
    size = 2 * window + 1
    runs = np.full(-(-len(x) // size) * size, -np.inf)
    runs[: len(x)] = x
    flat, runs = runs, runs.reshape(-1, size)
    backward = runs[:, ::-1]
    np.maximum.accumulate(backward, axis=1, out=backward)
    suffix = flat[centers - window]
    flat[: len(x)] = x
    np.maximum.accumulate(runs, axis=1, out=runs)
    return np.maximum(suffix, flat[centers + window])
