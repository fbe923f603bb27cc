"""Property test: any scenario document exits 0, 2 or 4, and exit 0 means finite output.

Documents are drawn around the valid shape, with out-of-domain, extreme,
non-finite and mistyped values in every numeric field. The grid and the
field are bounded (samples <= 5000, nbar <= 30, tail_eps from a fixed
set) so that each example stays quick; memory does not grow with
``samples`` (tests/test_streaming.py pins that). No oracle option is
drawn: the reference integration's cost is not bounded by these limits.
The CSV's first 256 rows must hold each cell as repr writes it; the
fuzzed extreme parameters reach extreme exponents. The draws are
derandomized, so every run checks the same documents; the
module is skipped where hypothesis (the ``test`` extra) is not installed.
"""

import json
import math
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from djcm.cli import main  # noqa: E402

EXTREMES = [0.0, -0.0, -1.0, 1e-300, 1e-12, 0.5, 3.0, 1e12, 1e200, 1e300, -1e300]
# in-domain values for most draws, so that a good share of documents run
PLAIN = st.floats(min_value=0.0, max_value=5.0)
NUMBERS = st.one_of(
    PLAIN,
    PLAIN,
    PLAIN,
    st.sampled_from(EXTREMES),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-3, max_value=12),
)
MISTYPED = st.sampled_from(["x", None, [1.0], {"a": 1}, True])


def _optional_keys(fields):
    """A dict holding any subset of the given key -> value strategies."""
    return st.fixed_dictionaries({}, optional=fields)


PARAMS = _optional_keys(
    {
        "k": st.one_of(st.integers(min_value=1, max_value=10), NUMBERS),
        "gamma": NUMBERS,
        "mu": NUMBERS,
        "detuning": NUMBERS,
        "chi": NUMBERS,
        "beta1": NUMBERS,
        "beta2": NUMBERS,
        "nu": NUMBERS,
    }
)
NONLINEARITY = st.one_of(
    st.sampled_from(["identity", "sqrt_n", "cubic"]),
    st.fixed_dictionaries({"table": st.lists(NUMBERS, max_size=6)}),
    MISTYPED,
)
FIELD = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["coherent", "squeezed", "thermal", "coherent", "fock"]),
        "nbar": st.one_of(
            st.floats(min_value=0.0, max_value=30.0),
            st.floats(min_value=0.0, max_value=30.0),
            st.sampled_from([0.0, 1e-300, -1.0, 30.0]),
            MISTYPED,
        ),
    },
    optional={"tail_eps": st.sampled_from([1e-12, 1e-6, 0.5, 0.0, -1.0, 2.0, math.nan])},
)
TIME = _optional_keys(
    {
        "t_end": NUMBERS,
        "samples": st.one_of(st.integers(min_value=-1, max_value=5000), MISTYPED),
    }
).map(lambda time: {"samples": 120, **time})  # never the 2000-sample default
DOCUMENTS = st.fixed_dictionaries(
    {"params": PARAMS, "field": FIELD, "time": TIME},
    optional={"nonlinearity": NONLINEARITY},
)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,  # the same 60 documents on every run
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(doc=DOCUMENTS, fmt=st.sampled_from(["csv", "json"]))
def test_any_document_exits_cleanly_with_finite_output(doc, fmt):
    with tempfile.TemporaryDirectory() as work:
        config = os.path.join(work, "scenario.json")
        out = os.path.join(work, f"run.{fmt}")
        with open(config, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        code = main(["simulate", "--config", config, "--output", out, "--format", fmt])
        assert code in (0, 2, 4), doc
        if code != 0:
            return
        if fmt == "csv":
            with open(out, encoding="utf-8") as handle:
                rows = handle.read().splitlines()[1:257]
            cells = ",".join(rows).split(",")
            assert cells == [repr(float(cell)) for cell in cells], doc
            values = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        else:
            with open(out, encoding="utf-8") as handle:
                records = json.load(handle)["records"]
            values = np.array([list(row.values()) for row in records], dtype=float)
        assert len(values) == doc["time"]["samples"], doc
        assert np.all(np.isfinite(values)), doc
