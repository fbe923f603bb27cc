"""Command-line front end.

    djcm simulate --preset coherent_bare_sqrt_n --output run.csv
    djcm simulate --config scenario.json [--preset NAME] [--output PATH]
                  [--format csv|json] [--oracle]
                  [--counter-rotating-diagnostic]
    djcm list-presets
    djcm revivals --input run.csv

Exit codes: 0 success, 2 validation error, 3 oracle deviation exceeded
(or oracle integration failure), 4 I/O error. No environment variables
are consulted.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    ConfigError,
    IntegrationFailureError,
    InvalidNonlinearityError,
    InvalidParameterError,
    NumericalConsistencyError,
    OutputError,
    PhysicsValidationError,
    PresetLookupError,
)
from .scenario import (
    ORACLE_DEVIATION_LIMIT,
    available_presets,
    config_from_dict,
    emit,
    iter_scenario,
    measure_revivals,
    merge_config,
    preset_dict,
    read_csv_series,
)

_VALIDATION_ERRORS = (
    ConfigError,
    PhysicsValidationError,
    InvalidParameterError,
    InvalidNonlinearityError,
    PresetLookupError,
    NumericalConsistencyError,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="djcm",
        description="Deformed multi-photon Jaynes-Cummings time-series simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario and emit a time series")
    sim.add_argument("--config", help="path to a JSON scenario document")
    sim.add_argument("--preset", help="preset name used as the base document")
    sim.add_argument("--output", help="output path (overrides output.path)")
    sim.add_argument("--format", choices=("csv", "json"), help="output format override")
    sim.add_argument(
        "--oracle",
        action="store_true",
        help="also integrate the amplitude equations numerically and compare",
    )
    sim.add_argument(
        "--counter-rotating-diagnostic",
        action="store_true",
        help="report the deviation of the pre-RWA integration (diagnostic only)",
    )

    sub.add_parser("list-presets", help="print the available preset names")

    rev = sub.add_parser("revivals", help="detect revival events in an emitted CSV")
    rev.add_argument("--input", required=True, help="CSV produced by simulate")
    return parser


def _simulate(args) -> int:
    if not args.config and not args.preset:
        raise ConfigError("simulate needs --config and/or --preset")
    doc = {}
    if args.preset:
        doc = preset_dict(args.preset)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise OutputError(f"cannot read config {args.config!r}: {exc}") from exc
        try:
            user_doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {args.config!r}: {exc}") from exc
        if not isinstance(user_doc, dict):
            raise ConfigError("scenario document must be a JSON object")
        doc = merge_config(doc, user_doc) if doc else user_doc

    if args.output:
        doc = merge_config(doc, {"output": {"path": args.output}})
    if args.format:
        doc = merge_config(doc, {"output": {"format": args.format}})
    options = {}
    if args.oracle:
        options["oracle_check"] = True
    if args.counter_rotating_diagnostic:
        options["counter_rotating_diagnostic"] = True
    if options:
        doc = merge_config(doc, {"options": options})

    config = config_from_dict(doc, preset_name=args.preset)
    if config.output_path is None:
        raise ConfigError("no output path (set output.path or pass --output)")

    # plan -> observables -> bytes, one block at a time
    stream = iter_scenario(config)
    emit(stream, config.output_format, config.output_path, stream.metadata)
    print(f"wrote {config.samples} records to {config.output_path}")

    resolved = stream.metadata["resolved"]
    if config.counter_rotating_diagnostic:
        print(
            "counter-rotating diagnostic: max amplitude deviation "
            f"{resolved['max_counter_rotating_deviation']:.3e} (not gated)"
        )
    if config.oracle_check:
        dev = resolved["max_oracle_deviation"]
        print(f"oracle check: max amplitude deviation {dev:.3e}")
        if dev > ORACLE_DEVIATION_LIMIT:
            print(
                f"oracle deviation exceeds {ORACLE_DEVIATION_LIMIT:.0e}",
                file=sys.stderr,
            )
            return 3
    return 0


def _revivals(args) -> int:
    # every cell is parsed and checked; only t and W are kept
    events = measure_revivals(read_csv_series(args.input, ("t", "W")))
    print(json.dumps(events, indent=1))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _simulate(args)
        if args.command == "list-presets":
            for name in available_presets():
                print(name)
            return 0
        if args.command == "revivals":
            return _revivals(args)
        parser.error(f"unknown command {args.command!r}")
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationFailureError as exc:
        print(f"oracle integration failure: {exc}", file=sys.stderr)
        return 3
    except (OutputError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
