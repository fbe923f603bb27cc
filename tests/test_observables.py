import math

import numpy as np
import pytest

from djcm.dynamics import (
    AmplitudeState,
    ClosedFormPlan,
    DensitySink,
    ModelParams,
    closed_form_series,
)
from djcm.errors import NumericalConsistencyError
from djcm.field_states import coherent_distribution, squeezed_distribution
from djcm.nonlinearity import Nonlinearity
from djcm.observables import (
    SERIES_COLUMNS,
    ObservableSeries,
    ReducedAtomDensity,
    atomic_inversion_closed,
    records_from_series,
    series_from_density,
)
from djcm.scenario import available_presets, preset, run_scenario

LN2 = math.log(2.0)
F_ID = Nonlinearity.identity()
F_SQ = Nonlinearity.sqrt_n()


def closed_state(params, f, dist, t):
    """The closed form at one time: a one-sample grid, its time its own anchor."""
    exc, gnd = closed_form_series(params, f, dist, [t])
    return AmplitudeState(time=float(t), excited=exc[0], ground=gnd[0], k=params.k)


def record(state: AmplitudeState):
    """The observables of one state, as one row of records_from_series."""
    return records_from_series(
        np.array([state.time]), state.excited[None, :], state.ground[None, :], state.k
    )[0]


def density_record(rho: ReducedAtomDensity):
    """The observables of one reduced density, as one row of series_from_density."""
    return series_from_density(
        np.zeros(1),
        np.array([rho.rho_ee], dtype=float),
        np.array([rho.rho_gg], dtype=float),
        np.array([rho.rho_eg], dtype=complex),
    )[0]


def entropies(rho: ReducedAtomDensity):
    r = density_record(rho)
    return r.H_x, r.H_y, r.H_z


def squeezing(rho: ReducedAtomDensity):
    r = density_record(rho)
    return r.E_x, r.E_y


def dense_partial_trace(state: AmplitudeState):
    """Field-trace oracle: build the joint pure state as an explicit
    (field) x (atom) array and trace the field index by matrix algebra."""
    n_levels = len(state.excited) + state.k
    psi = np.zeros((n_levels, 2), dtype=complex)
    for n, amp in enumerate(state.excited):
        psi[n, 0] += amp
    for n, amp in enumerate(state.ground):
        psi[n + state.k, 1] += amp
    rho_atom = np.einsum("na,nb->ab", psi, np.conj(psi))
    return rho_atom


# ---------------------------------------------------------------------------
# atomic inversion
# ---------------------------------------------------------------------------


def test_inversion_initial_excited():
    p = ModelParams(k=1, gamma=1.0, mu=0.1)
    d = coherent_distribution(25.0)
    st = closed_state(p, F_SQ, d, 0.0)
    assert record(st).W == pytest.approx(d.captured_mass, abs=1e-13)


def test_inversion_vacuum_cosine():
    p = ModelParams(k=1, gamma=1.0, mu=0.0)
    d = coherent_distribution(0.0)
    for t in (0.0, 0.9, 3.3, 12.0):
        st = closed_state(p, F_ID, d, t)
        assert record(st).W == pytest.approx(math.cos(t), abs=1e-12)
        assert atomic_inversion_closed(p, F_ID, d, t) == pytest.approx(math.cos(t), abs=1e-12)


def test_inversion_closed_at_t0_is_mass():
    p = ModelParams(k=2, gamma=1.0, mu=0.1)
    d = squeezed_distribution(5.0)
    assert atomic_inversion_closed(p, F_SQ, d, 0.0) == pytest.approx(
        d.captured_mass, abs=1e-14
    )


@pytest.mark.parametrize(
    "params,f,nbar,builder",
    [
        (ModelParams(k=1, gamma=1.0, mu=0.1), F_SQ, 25.0, coherent_distribution),
        (
            ModelParams(k=2, gamma=0.7, mu=0.1, detuning=2.0, chi=0.03, beta1=0.1, beta2=0.1),
            F_SQ,
            3.0,
            squeezed_distribution,
        ),
        (ModelParams(k=3, gamma=1.0, mu=0.0), F_ID, 1.0, coherent_distribution),
    ],
)
def test_population_route_equals_amplitude_route(params, f, nbar, builder):
    # Eq-of-motion populations vs direct amplitude sums must agree to 1e-10
    d = builder(nbar)
    times = np.linspace(0.0, 40.0, 97)
    exc, gnd = closed_form_series(params, f, d, times)
    w_amp = np.sum(np.abs(exc) ** 2, axis=1) - np.sum(np.abs(gnd) ** 2, axis=1)
    for i, t in enumerate(times):
        assert atomic_inversion_closed(params, f, d, t) == pytest.approx(
            w_amp[i], abs=1e-10
        )


# ---------------------------------------------------------------------------
# reduced density matrix
# ---------------------------------------------------------------------------


def test_reduced_density_initial():
    p = ModelParams(k=1, gamma=1.0)
    d = coherent_distribution(2.0)
    rho = record(closed_state(p, F_ID, d, 0.0)).rho
    assert rho.rho_ee == pytest.approx(d.captured_mass, abs=1e-13)
    assert rho.rho_gg == 0.0
    assert rho.rho_eg == 0.0


def test_reduced_density_vacuum_half_flip():
    # single populated doublet: at Omega t = pi/4 the populations balance
    # and rho_eg stays 0 because level 1 has no excited amplitude
    p = ModelParams(k=1, gamma=1.0, mu=0.0)
    d = coherent_distribution(0.0)
    st = closed_state(p, F_ID, d, math.pi / 2.0)
    rho = record(st).rho
    assert rho.rho_ee == pytest.approx(0.5, abs=1e-12)
    assert rho.rho_gg == pytest.approx(0.5, abs=1e-12)
    assert rho.rho_eg == 0.0


def test_reduced_density_pairing_on_hand_built_state():
    # two-level-field example with every amplitude distinct: the coherence
    # must pair equal total photon number, exc[n+k] with gnd[n]
    exc = np.array([0.1 + 0.2j, 0.3 - 0.1j, 0.05 + 0.4j])
    gnd = np.array([0.2 - 0.3j, 0.15 + 0.25j, 0.1 + 0.0j])
    st = AmplitudeState(time=0.0, excited=exc, ground=gnd, k=1)
    rho = record(st).rho
    expected = exc[1] * np.conj(gnd[0]) + exc[2] * np.conj(gnd[1])
    assert rho.rho_eg == pytest.approx(expected, abs=1e-15)
    # the wrong (field-off-diagonal) pairing would give a different number
    wrong = np.sum(exc * np.conj(gnd))
    assert abs(expected - wrong) > 1e-3


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reduced_density_matches_dense_partial_trace(k):
    params = ModelParams(
        k=k,
        gamma=1.0,
        mu=0.1,
        chi=0.02,
        beta1=0.1 if k == 2 else 0.0,
        beta2=0.1 if k == 2 else 0.0,
    )
    d = coherent_distribution(1.0)
    for t in (0.4, 2.7, 9.1):
        st = closed_state(params, F_SQ, d, t)
        rho = record(st).rho
        dense = dense_partial_trace(st)
        assert rho.rho_ee == pytest.approx(dense[0, 0].real, abs=1e-13)
        assert rho.rho_gg == pytest.approx(dense[1, 1].real, abs=1e-13)
        assert rho.rho_eg == pytest.approx(dense[0, 1], abs=1e-13)
        # positivity of the 2x2 reduced matrix
        assert abs(rho.rho_eg) ** 2 <= rho.rho_ee * rho.rho_gg + 1e-12


def test_rho_eg_pinned_against_rk_trace():
    # independent route: RK4 of the rotating-wave equations (the oracle),
    # then the dense field trace; pins rho_eg without the closed form
    from djcm.dynamics import evolve_ode_oracle

    params = ModelParams(k=1, gamma=1.0, mu=0.1)
    d = coherent_distribution(1.0)
    t_grid = np.array([0.0, 0.35])
    st = evolve_ode_oracle(params, F_SQ, d, t_grid)[-1]
    dense = dense_partial_trace(st)
    rho = record(closed_state(params, F_SQ, d, 0.35)).rho
    assert rho.rho_eg == pytest.approx(dense[0, 1], abs=1e-9)


# ---------------------------------------------------------------------------
# entropies and squeezing factors
# ---------------------------------------------------------------------------


def test_entropies_pure_excited():
    rho = ReducedAtomDensity(1.0, 0.0, 0.0)
    hx, hy, hz = entropies(rho)
    assert hx == pytest.approx(LN2, rel=1e-15)
    assert hy == pytest.approx(LN2, rel=1e-15)
    assert hz == 0.0
    ex, ey = squeezing(rho)
    assert ex == pytest.approx(0.0, abs=1e-14)
    assert ey == pytest.approx(0.0, abs=1e-14)


def test_entropies_sigma_x_eigenstate():
    rho = ReducedAtomDensity(0.5, 0.5, 0.5)
    hx, hy, hz = entropies(rho)
    assert hx == 0.0
    assert hy == pytest.approx(LN2, rel=1e-15)
    assert hz == pytest.approx(LN2, rel=1e-15)
    ex, ey = squeezing(rho)
    assert ex == pytest.approx(1.0 - math.sqrt(2.0), rel=1e-14)
    assert ey == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-14)


def test_entropies_maximally_mixed():
    rho = ReducedAtomDensity(0.5, 0.5, 0.0)
    ex, ey = squeezing(rho)
    assert ex == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-14)
    assert ey == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-14)


def test_entropies_pinned_case():
    # rho_eg = (1+i)/(2 sqrt 2) * 0.9; reference values from a scalar
    # high-precision evaluation
    rho = ReducedAtomDensity(0.5, 0.5, (1.0 + 1.0j) / (2.0 * math.sqrt(2.0)) * 0.9)
    hx, hy, hz = entropies(rho)
    assert hx == pytest.approx(0.47411489595408113, rel=1e-12)
    assert hy == pytest.approx(0.47411489595408113, rel=1e-12)
    assert hz == pytest.approx(LN2, rel=1e-15)
    ex, _ = squeezing(rho)
    assert ex == pytest.approx(0.19237800492134236, rel=1e-12)


def test_probability_clamp_and_error():
    # slightly out of range from roundoff: clamped
    rho = ReducedAtomDensity(1.0 + 5e-10, -5e-10, 0.0)
    hx, hy, hz = entropies(rho)
    assert hz == 0.0
    # beyond roundoff slack: logic error
    with pytest.raises(NumericalConsistencyError):
        entropies(ReducedAtomDensity(1.0 + 1e-8, 0.0, 0.0))
    with pytest.raises(NumericalConsistencyError):
        entropies(ReducedAtomDensity(0.5, 0.5, 0.6 + 0.0j))


@pytest.mark.parametrize(
    "rho",
    [
        ReducedAtomDensity(math.nan, 0.5, 0.0),
        ReducedAtomDensity(0.5, math.nan, 0.0),
        ReducedAtomDensity(0.5, 0.5, complex(math.nan, 0.0)),
        ReducedAtomDensity(0.5, 0.5, complex(0.0, math.nan)),
    ],
)
def test_nan_probabilities_rejected(rho):
    # NaN fails every comparison, so a plain range check would let it through
    with pytest.raises(NumericalConsistencyError):
        entropies(rho)


def test_uncertainty_relation_random_states():
    # delta H_x delta H_y >= 4 / delta H_z for arbitrary valid qubit states
    rng = np.random.default_rng(42)
    for _ in range(300):
        # random mixed state via Bloch vector inside the unit ball
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 1.0) ** (1 / 3) / np.linalg.norm(v)
        rho = ReducedAtomDensity(
            0.5 * (1.0 + v[2]), 0.5 * (1.0 - v[2]), 0.5 * (v[0] + 1j * v[1])
        )
        hx, hy, hz = entropies(rho)
        assert math.exp(hx) * math.exp(hy) >= 4.0 / math.exp(hz) - 1e-9
        for h in (hx, hy, hz):
            assert -1e-12 <= h <= LN2 + 1e-12


def test_records_from_series_and_free_phase():
    params = ModelParams(k=2, gamma=1.0, mu=0.1, nu=1.5)
    d = coherent_distribution(1.0)
    times = np.linspace(0.0, 5.0, 11)
    exc, gnd = closed_form_series(params, F_SQ, d, times)
    plain = records_from_series(times, exc, gnd, params.k)
    phased = records_from_series(times, exc, gnd, params.k, coherence_phase=params.nu * params.k)
    # the free-evolution phase only rotates the coherence
    assert np.array_equal(phased["W"], plain["W"])
    assert np.array_equal(phased["H_z"], plain["H_z"])
    rho0 = plain["re_rho_eg"] + 1j * plain["im_rho_eg"]
    rho1 = phased["re_rho_eg"] + 1j * phased["im_rho_eg"]
    assert np.max(np.abs(np.abs(rho1) - np.abs(rho0))) <= 1e-15
    expected = rho0 * np.exp(-1j * params.nu * params.k * times)
    assert np.max(np.abs(rho1 - expected)) <= 1e-15
    # series invariants
    assert np.max(np.abs(plain["W"] - (plain["rho_ee"] - plain["rho_gg"]))) <= 1e-10
    assert np.all(plain["dH_x"] * plain["dH_y"] >= 4.0 / plain["dH_z"] - 1e-9)
    assert np.max(np.abs(plain["norm"] - d.captured_mass)) <= 1e-10


def test_series_row_views_match_columns():
    params = ModelParams(k=2, gamma=1.0, mu=0.1, nu=1.5)
    d = coherent_distribution(1.0)
    times = np.linspace(0.0, 5.0, 11)
    exc, gnd = closed_form_series(params, F_SQ, d, times)
    series = records_from_series(times, exc, gnd, params.k, coherence_phase=3.0)
    rows = list(series)
    assert len(rows) == len(series) == len(times)
    for i, row in enumerate(rows):
        assert row == series[i] == series[i - len(series)]
        assert row.time == series["t"][i]
        assert row.rho.rho_ee == series["rho_ee"][i]
        assert row.rho.rho_eg == complex(series["re_rho_eg"][i], series["im_rho_eg"][i])
        for name in ("W", "H_x", "H_y", "H_z", "dH_x", "dH_y", "dH_z", "E_x", "E_y", "norm"):
            assert getattr(row, name) == series[name][i]
    with pytest.raises(IndexError):
        series[len(series)]
    with pytest.raises(TypeError):
        series[1:3]
    with pytest.raises(ValueError):
        series["W"][0] = 0.0  # columns are read-only views
    assert times.flags.writeable  # ... of arrays the caller still owns


def test_series_concatenate_and_shape_check():
    rng = np.random.default_rng(3)
    parts = [
        ObservableSeries({name: rng.normal(size=n) for name in SERIES_COLUMNS})
        for n in (4, 1, 3)
    ]
    joined = ObservableSeries.concatenate(parts)
    assert len(joined) == 8
    for name in SERIES_COLUMNS:
        assert np.array_equal(joined[name], np.concatenate([p[name] for p in parts]))
    ragged = {name: np.zeros(3) for name in SERIES_COLUMNS}
    ragged["E_y"] = np.zeros(2)
    with pytest.raises(ValueError):
        ObservableSeries(ragged)


def test_series_concatenate_takes_a_generator_of_blocks():
    # each column walks the blocks: a generator is spent only once
    cfg = preset("coherent_bare_identity_k2")
    plan = ClosedFormPlan(cfg.params, cfg.nonlinearity, cfg.build_distribution(), cfg.grid())
    joined = ObservableSeries.concatenate(
        series_from_density(plan.times[start : start + len(ee)], ee, gg, eg)
        for start, (ee, gg, eg) in plan.blocks(DensitySink(plan))
    )
    whole = run_scenario(cfg).records
    assert len(joined) == cfg.samples
    for name in SERIES_COLUMNS:
        assert joined[name].tobytes() == whole[name].tobytes(), name


def test_observable_record_single_state():
    params = ModelParams(k=1, gamma=1.0, mu=0.0)
    d = coherent_distribution(0.0)
    rec = record(closed_state(params, F_ID, d, 0.0))
    assert rec.W == pytest.approx(1.0, abs=1e-12)
    assert rec.E_x == pytest.approx(0.0, abs=1e-11)
    assert rec.E_y == pytest.approx(0.0, abs=1e-11)
    assert rec.H_z == pytest.approx(0.0, abs=1e-11)


# ---------------------------------------------------------------------------
# the initial phases: c_n(0) = +sqrt(p_n) is a choice that rho_eg sees
# ---------------------------------------------------------------------------


def _preset_series(name, initial_amplitudes=None):
    """The preset's observables on 400 samples up to t = 50, from the given c_n(0)."""
    cfg = preset(name)
    dist = cfg.build_distribution()
    times = np.linspace(0.0, 50.0, 400)
    exc, gnd = closed_form_series(
        cfg.params, cfg.nonlinearity, dist, times, initial_amplitudes=initial_amplitudes
    )
    return dist, records_from_series(times, exc, gnd, cfg.params.k)


def _density_series(cfg, dist, initial_amplitudes=None):
    """The config's observables on its grid through the closed form's density sink."""
    plan = ClosedFormPlan(cfg.params, cfg.nonlinearity, dist, cfg.grid(), initial_amplitudes)
    return ObservableSeries.concatenate(
        [
            series_from_density(plan.times[start : start + len(ee)], ee, gg, eg)
            for start, (ee, gg, eg) in plan.blocks(DensitySink(plan))
        ]
    )


@pytest.mark.parametrize("name", [name for name in available_presets() if "squeezed" in name])
def test_squeezed_presets_are_the_theta_pi_squeezed_vacuum(name):
    # S(r e^{i theta})|0> has amplitudes proportional to (-e^{i theta} tanh r)^m
    # on level 2m: every sign is + at theta = pi, the presets' c_n(0) =
    # +sqrt(p_n); theta = 0, S(r)|0> with S(r) = exp(r (a^2 - a+^2) / 2),
    # carries (-1)^m. At even k every pair (2m, 2m + k) then takes
    # (-1)^(k/2); at odd k no pair is active.
    cfg = preset(name)
    dist = cfg.build_distribution()
    level = np.arange(dist.n_cut + 1)
    theta_pi = _density_series(cfg, dist)
    theta_zero = _density_series(cfg, dist, np.sqrt(dist.probabilities) * (-1.0) ** (level // 2))
    coherence = ("re_rho_eg", "im_rho_eg")
    # symmetric under rho_eg -> -rho_eg, up to rounding
    entropies = ("H_x", "H_y", "E_x", "E_y", "dH_x", "dH_y")
    if cfg.params.k == 2:
        assert np.max(np.abs(theta_pi["re_rho_eg"])) > 0.1
        for column in coherence:
            assert np.array_equal(theta_zero[column], -theta_pi[column])
        for column in entropies:
            assert np.max(np.abs(theta_zero[column] - theta_pi[column])) <= 1e-15
    for column in theta_pi.columns:
        if cfg.params.k != 2 or column not in coherence + entropies:
            assert theta_zero[column].tobytes() == theta_pi[column].tobytes(), column


def test_initial_phases_move_the_coherence_but_not_the_inversion():
    dist, ours = _preset_series("coherent_bare_identity")
    phases = np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, dist.n_cut + 1)
    _, phased = _preset_series(
        "coherent_bare_identity", np.sqrt(dist.probabilities) * np.exp(1j * phases)
    )
    assert np.max(np.abs(phased["W"] - ours["W"])) <= 1e-15
    assert np.max(np.abs(phased["re_rho_eg"] - ours["re_rho_eg"])) > 0.1
