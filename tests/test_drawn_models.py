"""Property test: drawn in-domain models keep every documented contract, on both routes.

Documents are drawn inside the model's domain and built through
``config_from_dict``: k from 1 to 4, with Stark terms at k = 2; Kerr
terms, detuning, and mu from {0, 1e-9, 0.3, 2, 50}; f(n) the identity,
sqrt_n or an inline table of 40-120 entries; the three field kinds with
nbar up to 25; 17-800 samples and t_end up to 1e4. A model the program
refuses, as documented, is skipped: a table shorter than the
truncation (InvalidNonlinearityError) or a phase argument of 2^52 or
more (PhysicsValidationError). On every other run ``run_scenario``'s
columns, which the density sink reduces, must keep:

- W = rho_ee - rho_gg and norm = rho_ee + rho_gg, exactly (the columns
  are built so);
- |norm - captured_mass| <= NORM_DRIFT;
- |rho_eg|^2 <= rho_ee rho_gg, the density's positivity, up to
  POSITIVITY eps norm^2 for the rounding of the three sums;
- dH_x dH_y >= 4/dH_z, the entropic uncertainty relation, up to a
  relative UNCERTAINTY eps for the rounding of the entropies;
- the amplitude route, ``records_from_series(closed_form_series(...))``
  (:func:`_assert_routes_agree`). This checks the density sink's split
  of the doublets into per-cell and separable ones beyond the 45 presets.

The draws are derandomized, so every run checks the same models; the
module is skipped where hypothesis (the ``test`` extra) is not installed.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from djcm.dynamics import closed_form_series  # noqa: E402
from djcm.errors import InvalidNonlinearityError, PhysicsValidationError  # noqa: E402
from djcm.observables import records_from_series  # noqa: E402
from djcm.scenario import CSV_COLUMNS, config_from_dict, run_scenario  # noqa: E402

EPS = float(np.finfo(float).eps)
# largest |norm - captured_mass|: 1.3e-15, measured over 400 such draws
NORM_DRIFT = 1.3e-15
POSITIVITY = 8.0
UNCERTAINTY = 64.0
# tools/emit_all.py's limits on a column's change: 0 for t, 2e-15 for the
# populations and H_z, 1e-10 for the others
POPULATION_COLUMNS = ("W", "rho_ee", "rho_gg", "H_z", "norm")
LIMITS = {c: 0.0 if c == "t" else 2e-15 if c in POPULATION_COLUMNS else 1e-10 for c in CSV_COLUMNS}
# each route's phases lie within 8 eps (1 + |w| t_end) of the direct ones
PHASE = 8.0

MU = st.sampled_from([0.0, 1e-9, 0.3, 2.0, 50.0])
STARK = st.floats(min_value=-0.2, max_value=0.2)


@st.composite
def documents(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    params = {
        "k": k,
        "gamma": draw(st.floats(min_value=0.1, max_value=2.0)),
        "mu": draw(MU),
        "detuning": draw(st.sampled_from([0.0, 0.0, -1.5, 5.0])),
        "chi": draw(st.sampled_from([0.0, 0.0, 0.03, 0.2])),
    }
    if k == 2 and draw(st.booleans()):
        params["beta1"], params["beta2"] = draw(STARK), draw(STARK)
    nonlinearity = draw(
        st.one_of(
            st.sampled_from(["identity", "sqrt_n"]),
            st.lists(st.floats(min_value=0.2, max_value=2.0), min_size=40, max_size=120).map(
                lambda table: {"table": table}
            ),
        )
    )
    field = {
        "kind": draw(st.sampled_from(["coherent", "squeezed", "thermal"])),
        "nbar": draw(st.floats(min_value=0.0, max_value=25.0)),
    }
    time = {
        "samples": draw(st.integers(min_value=17, max_value=800)),
        "t_end": draw(
            st.one_of(st.floats(min_value=0.1, max_value=50.0), st.sampled_from([1e3, 1e4]))
        ),
    }
    return {"params": params, "nonlinearity": nonlinearity, "field": field, "time": time}


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,  # the same models on every run
    suppress_health_check=[HealthCheck.too_slow],
)
@given(doc=documents())
def test_drawn_models_keep_every_documented_contract(doc):
    cfg = config_from_dict(doc)
    dist = cfg.build_distribution()
    try:
        result = run_scenario(cfg)
    except (InvalidNonlinearityError, PhysicsValidationError):
        return  # refused, as documented
    records = result.records
    ee, gg, norm = records["rho_ee"], records["rho_gg"], records["norm"]
    assert np.array_equal(records["W"], ee - gg), doc
    assert np.array_equal(norm, ee + gg), doc
    assert np.max(np.abs(norm - dist.captured_mass)) <= NORM_DRIFT, doc
    eg2 = records["re_rho_eg"] ** 2 + records["im_rho_eg"] ** 2
    assert np.all(eg2 <= ee * gg + POSITIVITY * EPS * norm**2), doc
    product, bound = records["dH_x"] * records["dH_y"], 4.0 / records["dH_z"]
    assert np.all(product >= bound * (1.0 - UNCERTAINTY * EPS)), doc
    times = cfg.grid()[:]
    excited, ground = closed_form_series(cfg.params, cfg.nonlinearity, dist, times)
    amplitudes = records_from_series(times, excited, ground, cfg.params.k)
    _assert_routes_agree(records, amplitudes, result.metadata["resolved"], doc)


def _moved(p, change):
    """|1 + ln p| |change|: to first order, how far a change of p moves the entropy term -p ln p.

    p is clipped to [0, 1], as the entropies clip it. Where the change is
    0 so is the move; where p is 0 and the change is not, the slope and
    the move are infinite.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.abs(1.0 + np.log(np.clip(p, 0.0, 1.0)))
        return np.where(change == 0.0, 0.0, slope * change)


def _assert_routes_agree(density, amplitude, resolved, doc):
    """The density route's columns against the amplitude route's, each within its bound.

    Bounds, per row: t exactly; rho_ee and rho_gg within LIMITS; W and
    norm, a difference and a sum of those two, within twice that;
    rho_eg within LIMITS plus twice one route's phase error,
    PHASE eps (1 + max_phase_argument), on a sum of terms whose moduli add
    up to at most 1. The entropies H = h2(p, q), and E_x, E_y built
    from them, move with their arguments: to first order by
    |dh2/dp| |change of p| + |dh2/dq| |change of q|, the changes being
    the routes' own, plus LIMITS for their own rounding.
    """
    change = {c: np.abs(density[c] - amplitude[c]) for c in CSV_COLUMNS}
    bound = {c: np.full(len(change[c]), LIMITS[c]) for c in CSV_COLUMNS}
    bound["W"] = bound["norm"] = 2.0 * bound["rho_ee"]
    phase = 2.0 * PHASE * EPS * (1.0 + resolved["max_phase_argument"])
    bound["re_rho_eg"] += phase
    bound["im_rho_eg"] += phase
    # each outcome's probability, and its change
    px, py = 0.5 + density["re_rho_eg"], 0.5 - density["im_rho_eg"]
    bound["H_x"] += _moved(px, change["re_rho_eg"]) + _moved(1.0 - px, change["re_rho_eg"])
    bound["H_y"] += _moved(py, change["im_rho_eg"]) + _moved(1.0 - py, change["im_rho_eg"])
    ee, gg = density["rho_ee"], density["rho_gg"]
    bound["H_z"] += _moved(ee, change["rho_ee"]) + _moved(gg, change["rho_gg"])
    # E = exp(H) - 2 exp(-H_z/2) moves by exp(H) |change of H| + exp(-H_z/2) |change of H_z|
    for axis in ("x", "y"):
        dh = np.maximum(density[f"dH_{axis}"], amplitude[f"dH_{axis}"])
        bound[f"E_{axis}"] += dh * bound[f"H_{axis}"] + bound["H_z"]
    for column in CSV_COLUMNS:
        worst = int(np.argmax(change[column] - bound[column]))
        assert change[column][worst] <= bound[column][worst], (
            column, float(change[column][worst]), float(bound[column][worst]), doc
        )


@pytest.mark.xfail(
    strict=True,
    reason="on a grid with fine tables the rotation's correction 1 - d^2/2 - i d has modulus "
    "1 + d^4/8, and |d| ~ eps |Omega| t_end reaches tenths of a radian near the phase limit",
)
def test_norm_holds_near_the_phase_limit():
    # a drawn model with max_phase_argument 2.1e15: the norm drifts by 1.1e-12
    # on its 268-sample grid, by 3.3e-16 on 15 samples, where each time is its
    # own anchor and d = 0
    doc = {
        "params": {"k": 4, "gamma": 1.7497611964514772},
        "nonlinearity": "sqrt_n",
        "field": {"kind": "thermal", "nbar": 24.257108872059852},
        "time": {"samples": 268, "t_end": 1e4},
    }
    cfg = config_from_dict(doc)
    result = run_scenario(cfg)
    assert 2.0**50 < result.metadata["resolved"]["max_phase_argument"] < 2.0**52
    drift = np.abs(result.records["norm"] - cfg.build_distribution().captured_mass)
    assert np.max(drift) <= NORM_DRIFT
