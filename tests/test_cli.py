import json
import os
import resource
import subprocess
import sys

import pytest

import djcm
from djcm import cli
from djcm.cli import main
from djcm.scenario import CSV_COLUMNS, measure_revivals, read_csv_series

CHEAP = {
    "params": {"k": 1, "gamma": 1.0, "mu": 0.1},
    "nonlinearity": "sqrt_n",
    "field": {"kind": "coherent", "nbar": 0.5},
    "time": {"t_end": 5.0, "samples": 120},
}


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def simulate_in_subprocess(tmp_path, doc, fmt, address_space=None):
    """``djcm simulate`` of doc into tmp_path/never.<fmt>, run by a fresh interpreter."""
    out_path = tmp_path / f"never.{fmt}"
    src = os.path.dirname(os.path.dirname(djcm.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["simulate", "--config", write_config(tmp_path, doc), "--output", str(out_path)]
    argv += ["--format", fmt]

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "djcm.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        preexec_fn=limit if address_space else None,
    )


def test_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "coherent_bare_identity" in out
    assert out == sorted(out)


def test_simulate_with_config(tmp_path, capsys):
    out_path = tmp_path / "run.csv"
    code = main(
        ["simulate", "--config", write_config(tmp_path, CHEAP), "--output", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 121
    assert "wrote 120 records" in capsys.readouterr().out


def test_simulate_preset_with_overrides(tmp_path):
    out_path = tmp_path / "p.json"
    overrides = {"time": {"t_end": 2.0, "samples": 40}, "field": {"nbar": 0.3}}
    code = main(
        [
            "simulate",
            "--preset",
            "coherent_bare_sqrt_n",
            "--config",
            write_config(tmp_path, overrides),
            "--output",
            str(out_path),
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["metadata"]["preset"] == "coherent_bare_sqrt_n"
    assert doc["metadata"]["field"]["nbar"] == 0.3
    assert doc["metadata"]["time"]["samples"] == 40
    assert len(doc["records"]) == 40


def test_simulate_oracle_flag(tmp_path, capsys):
    out_path = tmp_path / "o.csv"
    code = main(
        [
            "simulate",
            "--config",
            write_config(tmp_path, CHEAP),
            "--output",
            str(out_path),
            "--oracle",
        ]
    )
    assert code == 0
    assert "oracle check: max amplitude deviation" in capsys.readouterr().out


def test_simulate_oracle_deviation_above_the_limit_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "ORACLE_DEVIATION_LIMIT", 1e-30)
    out_path = tmp_path / "o.csv"
    argv = ["simulate", "--config", write_config(tmp_path, CHEAP), "--output", str(out_path)]
    code = main(argv + ["--oracle"])
    assert code == 3
    captured = capsys.readouterr()
    assert "oracle check: max amplitude deviation" in captured.out
    assert captured.err == "oracle deviation exceeds 1e-30\n"
    # the deviation is known once the last block is written: the file stays
    assert len(out_path.read_text().splitlines()) == 1 + CHEAP["time"]["samples"]


def test_simulate_integration_failure_exits_3(tmp_path, capsys):
    doc = json.loads(json.dumps(CHEAP))
    doc["params"]["detuning"] = 1e9
    doc["field"]["nbar"] = 0.0
    doc["time"] = {"t_end": 10.0, "samples": 2}
    code = main(
        [
            "simulate",
            "--config",
            write_config(tmp_path, doc),
            "--output",
            str(tmp_path / "x.csv"),
            "--oracle",
        ]
    )
    assert code == 3
    assert "integration failure" in capsys.readouterr().err
    # the rows were on their way to the file when the oracle failed
    assert sorted(os.listdir(tmp_path)) == ["scenario.json"]


def test_validation_errors_exit_2(tmp_path, capsys):
    # physics constraint
    doc = json.loads(json.dumps(CHEAP))
    doc["params"]["beta1"] = 0.3
    assert main(
        ["simulate", "--config", write_config(tmp_path, doc), "--output", "x.csv"]
    ) == 2
    assert "Stark" in capsys.readouterr().err
    # malformed JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["simulate", "--config", str(bad), "--output", "x.csv"]) == 2
    # unknown preset
    assert main(["simulate", "--preset", "nope", "--output", "x.csv"]) == 2
    # no config at all
    assert main(["simulate", "--output", "x.csv"]) == 2
    # no output path
    assert main(["simulate", "--config", write_config(tmp_path, CHEAP)]) == 2


@pytest.mark.parametrize(
    "override",
    [
        {"params": {"mu": float("nan")}},
        {"params": {"chi": float("inf")}},
        {"field": {"kind": "thermal", "temperature": "hot", "frequency": 1.0}},
        {"field": {"kind": "thermal", "temperature": [1], "frequency": 1.0}},
        {"field": {"kind": "thermal", "temperature": 1.0, "frequency": "x"}},
        {"nonlinearity": {"table": ["x"]}},
        {"nonlinearity": {"table": [1.0, float("nan")]}},
    ],
)
def test_non_finite_or_mistyped_numbers_exit_2(tmp_path, capsys, override):
    doc = {**CHEAP, **override}  # each override replaces a whole section
    out_path = tmp_path / "never.csv"
    code = main(["simulate", "--config", write_config(tmp_path, doc), "--output", str(out_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out_path.exists()


def test_too_short_inline_table_exits_2_naming_the_missing_entry(tmp_path, capsys):
    # nbar 25 needs f(n) far beyond the table's two entries; the coefficient
    # table's build refuses it before any file is opened
    doc = {
        **CHEAP,
        "nonlinearity": {"table": [1.0, 2.0]},
        "field": {"kind": "coherent", "nbar": 25.0},
    }
    out_path = tmp_path / "never.csv"
    code = main(["simulate", "--config", write_config(tmp_path, doc), "--output", str(out_path)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "f(3)" in err[0]
    assert sorted(os.listdir(tmp_path)) == ["scenario.json"]


@pytest.mark.parametrize(
    "chi, samples, fmt",
    [
        (1e200, 120, "csv"),
        # under 16 samples each time is its own anchor, where exp of such
        # arguments stays finite but means nothing
        (1e200, 10, "json"),
        (1e200, 50, "json"),
        (1e20, 10, "json"),
        (1e20, 50, "json"),
    ],
)
def test_phase_overflow_exits_2_with_one_stderr_line(tmp_path, chi, samples, fmt):
    # a fresh interpreter, so numpy's RuntimeWarnings would reach stderr
    doc = {
        **CHEAP,
        "params": {**CHEAP["params"], "chi": chi},
        "time": {**CHEAP["time"], "samples": samples},
    }
    proc = simulate_in_subprocess(tmp_path, doc, fmt)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: phase overflow"), proc.stderr
    assert sorted(os.listdir(tmp_path)) == ["scenario.json"]


@pytest.mark.parametrize(
    "override, message",
    [
        ({"field": {"kind": "coherent", "nbar": 1e300}}, "4194304 Fock levels"),
        ({"field": {"kind": "squeezed", "nbar": 1e300}}, "4194304 Fock levels"),
        ({"field": {"kind": "thermal", "nbar": 1e300}}, "4194304 Fock levels"),
        ({"params": {"k": 1e9}}, "4194304 Fock levels"),
        ({"time": {"t_end": 5.0, "samples": 1e300}}, "2^53 samples"),
    ],
)
def test_sizes_past_the_limits_exit_2(tmp_path, override, message):
    # in a fresh interpreter with 2 GiB of address space and a timeout, so
    # a size that is not refused fails the test, not the machine
    proc = simulate_in_subprocess(tmp_path, {**CHEAP, **override}, "csv", address_space=2 << 30)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]
    assert sorted(os.listdir(tmp_path)) == ["scenario.json"]


def test_unwritable_output_exits_4(tmp_path):
    code = main(
        [
            "simulate",
            "--config",
            write_config(tmp_path, CHEAP),
            "--output",
            "/nonexistent-dir/deep/out.csv",
        ]
    )
    assert code == 4


def test_revivals_subcommand(tmp_path, capsys):
    out_path = tmp_path / "series.csv"
    doc = json.loads(json.dumps(CHEAP))
    doc["field"]["nbar"] = 9.0
    doc["nonlinearity"] = "identity"
    doc["time"] = {"t_end": 45.0, "samples": 1500}
    assert main(
        ["simulate", "--config", write_config(tmp_path, doc), "--output", str(out_path)]
    ) == 0
    capsys.readouterr()
    assert main(["revivals", "--input", str(out_path)]) == 0
    events = json.loads(capsys.readouterr().out)
    assert isinstance(events, list)
    for ev in events:
        assert set(ev) == {"t_center", "envelope_amplitude"}


def test_revivals_of_a_multi_block_csv_match_the_library(tmp_path, capsys):
    # 3000 rows: the CLI reads t and W in three blocks, the library all columns
    out_path = tmp_path / "series.csv"
    doc = json.loads(json.dumps(CHEAP))
    doc["field"]["nbar"] = 9.0
    doc["nonlinearity"] = "identity"
    doc["time"] = {"t_end": 45.0, "samples": 3000}
    assert main(
        ["simulate", "--config", write_config(tmp_path, doc), "--output", str(out_path)]
    ) == 0
    capsys.readouterr()
    assert main(["revivals", "--input", str(out_path)]) == 0
    events = measure_revivals(read_csv_series(str(out_path)))
    assert events
    assert capsys.readouterr().out == json.dumps(events, indent=1) + "\n"


@pytest.mark.parametrize("column, cell", [("W", "nan"), ("t", "inf")])
def test_revivals_refuses_non_finite_cells(tmp_path, capsys, column, cell):
    out_path = tmp_path / "series.csv"
    doc = json.loads(json.dumps(CHEAP))
    doc["time"] = {"t_end": 45.0, "samples": 1500}
    assert main(
        ["simulate", "--config", write_config(tmp_path, doc), "--output", str(out_path)]
    ) == 0
    lines = out_path.read_text().splitlines()
    cells = lines[701].split(",")  # sample 700
    cells[CSV_COLUMNS.index(column)] = cell
    lines[701] = ",".join(cells)
    out_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["revivals", "--input", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error:") and "sample 700 " in captured.err


def test_revivals_on_entropies_beyond_exp_range_print_no_warning(tmp_path):
    out_path = tmp_path / "series.csv"
    doc = json.loads(json.dumps(CHEAP))
    doc["time"] = {"t_end": 45.0, "samples": 1500}
    assert main(
        ["simulate", "--config", write_config(tmp_path, doc), "--output", str(out_path)]
    ) == 0
    lines = out_path.read_text().splitlines()
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        for name in ("H_x", "H_y", "H_z"):
            cells[CSV_COLUMNS.index(name)] = "1.7976931348623157e+308"
        lines[i] = ",".join(cells)
    out_path.write_text("\n".join(lines) + "\n")
    # a fresh interpreter, whose warnings would go to stderr
    src = os.path.dirname(os.path.dirname(djcm.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "djcm.cli", "revivals", "--input", str(out_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert isinstance(json.loads(done.stdout), list)


def test_revivals_missing_file(capsys):
    assert main(["revivals", "--input", "/no/such/file.csv"]) == 4


@pytest.mark.parametrize(
    "bad_row",
    [
        "0.1,0.9,0.95,0.05,0.0,0.0,oops,0.1,0.1,0.0,0.0,1.0",  # a cell that is not a number
        "0.1,0.9,0.95",  # a ragged row
    ],
)
def test_revivals_malformed_csv_exits_4(tmp_path, capsys, bad_row):
    out_path = tmp_path / "series.csv"
    assert main(
        ["simulate", "--config", write_config(tmp_path, CHEAP), "--output", str(out_path)]
    ) == 0
    lines = out_path.read_text().splitlines()
    lines[50] = bad_row  # file line 51
    out_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["revivals", "--input", str(out_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("I/O error") and "malformed row at line 51:" in err


def test_bad_usage_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--format", "yaml", "--preset", "coherent_bare_identity"])
    assert err.value.code == 2


def test_importing_djcm_loads_no_scipy():
    # scipy is a test-only dependency: importing it would cost every CLI
    # call about 0.3 s and 25 MiB
    src = os.path.dirname(os.path.dirname(djcm.__file__))
    code = "import sys, djcm, djcm.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
