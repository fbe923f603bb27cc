import math
from collections import Counter

import numpy as np
import pytest
from scipy.special import gammaln

from djcm import oracle
from djcm.dynamics import (
    AmplitudeSink,
    AmplitudeState,
    ClosedFormPlan,
    CoefficientTable,
    ModelParams,
    UniformGrid,
    _BLOCK_ROWS,
    _DOUBLET_CHUNK,
    _Scratch,
    _uniform_step,
    closed_form_series,
    evolve_ode_oracle,
    max_amplitude_deviation,
    ode_oracle_blocks,
)
from djcm.errors import (
    IntegrationFailureError,
    InvalidParameterError,
    PhysicsValidationError,
)
from djcm.field_states import (
    coherent_distribution,
    squeezed_distribution,
    thermal_distribution,
)
from djcm.model import initial_excited_amplitudes
from djcm.nonlinearity import Nonlinearity
from djcm.oracle import _PairBatch
from djcm.scenario import preset

F_ID = Nonlinearity.identity()
F_SQ = Nonlinearity.sqrt_n()


def closed_states(params, f, dist, t_grid, initial_amplitudes=None):
    exc, gnd = closed_form_series(params, f, dist, t_grid, initial_amplitudes)
    return [
        AmplitudeState(time=float(t), excited=exc[i], ground=gnd[i], k=params.k)
        for i, t in enumerate(t_grid)
    ]


def closed_state(params, f, dist, t, initial_amplitudes=None):
    """The closed form at one time: a one-sample grid, its time its own anchor."""
    return closed_states(params, f, dist, [t], initial_amplitudes)[0]


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_stark_requires_two_photon():
    with pytest.raises(PhysicsValidationError, match="k=2"):
        ModelParams(k=1, beta1=0.3)
    with pytest.raises(PhysicsValidationError, match="k=2"):
        ModelParams(k=3, beta2=0.1)
    # legal for k=2
    p = ModelParams(k=2, beta1=0.1, beta2=0.1)
    assert p.beta1 == 0.1


def test_params_domain_checks():
    with pytest.raises(PhysicsValidationError):
        ModelParams(k=0)
    with pytest.raises(PhysicsValidationError):
        ModelParams(gamma=0.0)
    with pytest.raises(PhysicsValidationError):
        ModelParams(mu=-0.1)
    with pytest.raises(PhysicsValidationError):
        ModelParams(nu=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name", ["k", "gamma", "mu", "detuning", "chi", "beta1", "beta2", "nu"]
)
def test_params_reject_non_finite(name, value):
    # k=2 so the Stark coefficients pass the k check and reach the finite check
    with pytest.raises(PhysicsValidationError, match=f"^{name} must be"):
        ModelParams(**{"k": 2, name: value})


# ---------------------------------------------------------------------------
# mode coefficients
# ---------------------------------------------------------------------------


def test_vacuum_rabi_coefficients():
    p = ModelParams(k=1, gamma=0.7, mu=0.0)
    co = CoefficientTable(p, F_ID, 0)
    assert co.R1[0] == 0.0 and co.R2[0] == 0.0 and co.Rn[0] == 0.0
    assert co.alpha[0] == pytest.approx(0.7, rel=1e-14)
    assert co.phi[0] == 0.0
    assert co.Omega[0] == pytest.approx(0.35, rel=1e-14)


def test_detuning_only_survives():
    p = ModelParams(k=1, gamma=1.0, detuning=0.37)
    co = CoefficientTable(p, F_ID, 17)
    for n in (0, 3, 17):
        assert co.Rn[n] == pytest.approx(0.37, abs=1e-15)


def test_sqrt_alpha_collapses_to_factorial_ratio():
    # [sqrt(n)]! = sqrt(n!) makes alpha_n = gamma (n+k)!/n!
    p = ModelParams(k=1, gamma=2.5)
    assert CoefficientTable(p, F_SQ, 3).alpha[3] == pytest.approx(10.0, rel=1e-12)


def test_mode_coefficients_pinned_case():
    # direct substitution, high-precision reference values
    p = ModelParams(k=2, gamma=1.0, mu=0.0, chi=0.01, beta1=0.1, beta2=0.1)
    co = CoefficientTable(p, F_SQ, 2)
    assert co.R1[2] == pytest.approx(0.44, rel=1e-12)
    assert co.R2[2] == pytest.approx(3.04, rel=1e-12)
    assert co.Rn[2] == pytest.approx(-2.6, rel=1e-12)
    assert co.alpha[2] == pytest.approx(12.0, rel=1e-12)
    assert co.phi[2] == pytest.approx(1.74, rel=1e-12)
    assert co.Omega[2] == pytest.approx(6.139218191268331, rel=1e-12)


def test_rn_is_difference_and_omega_definition():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = ModelParams(
            k=2,
            gamma=float(rng.uniform(0.1, 3.0)),
            mu=float(rng.uniform(0.0, 1.0)),
            detuning=float(rng.uniform(-2.0, 2.0)),
            chi=float(rng.uniform(-0.05, 0.05)),
            beta1=float(rng.uniform(-0.2, 0.2)),
            beta2=float(rng.uniform(-0.2, 0.2)),
        )
        n = int(rng.integers(0, 40))
        co = CoefficientTable(p, F_SQ, n)
        assert co.Rn[n] == co.R1[n] - co.R2[n]
        assert co.Omega[n] == pytest.approx(
            0.5 * math.hypot(co.Rn[n] - p.mu, co.alpha[n]), rel=1e-14
        )
        assert co.Omega[n] >= abs(co.alpha[n]) / 2.0


def test_linear_limit_recovers_reference_formulas():
    # f = 1: alpha_n = gamma sqrt((n+k)!/n!), Kerr terms lose their f factors
    rng = np.random.default_rng(11)
    for k in (1, 2, 3, 4):
        p = ModelParams(
            k=k,
            gamma=1.3,
            mu=0.1,
            detuning=0.7,
            chi=0.02,
            beta1=0.05 if k == 2 else 0.0,
            beta2=0.08 if k == 2 else 0.0,
        )
        for n in rng.integers(0, 51, size=8):
            n = int(n)
            co = CoefficientTable(p, F_ID, n)
            alpha_ref = 1.3 * math.exp(0.5 * (gammaln(n + k + 1) - gammaln(n + 1)))
            r1_ref = 0.35 + n * p.beta2 + 0.02 * n * (n - 1)
            r2_ref = -0.35 + (n + k) * p.beta1 + 0.02 * (n + k) * (n + k - 1)
            assert co.alpha[n] == pytest.approx(alpha_ref, rel=1e-12)
            assert co.R1[n] == pytest.approx(r1_ref, rel=1e-12, abs=1e-12)
            assert co.R2[n] == pytest.approx(r2_ref, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# closed-form evolution
# ---------------------------------------------------------------------------


def test_identity_at_t0():
    p = ModelParams(k=1, gamma=1.0, mu=0.1)
    d = coherent_distribution(2.0)
    st = closed_state(p, F_SQ, d, 0.0)
    assert np.array_equal(st.excited, np.sqrt(d.probabilities).astype(complex))
    assert np.all(st.ground == 0.0)


def test_vacuum_rabi_population():
    p = ModelParams(k=1, gamma=1.0, mu=0.0)
    d = coherent_distribution(0.0)
    for t in (0.3, 1.1, 2.9, 7.7):
        st = closed_state(p, F_ID, d, t)
        assert abs(st.excited[0]) ** 2 == pytest.approx(math.cos(t / 2.0) ** 2, abs=1e-14)


def test_negative_time_rejected():
    p = ModelParams()
    d = coherent_distribution(0.0)
    with pytest.raises(InvalidParameterError):
        closed_form_series(p, F_ID, d, [-0.1])


@pytest.mark.parametrize(
    "params,f,dist",
    [
        (ModelParams(k=1, gamma=1.0, mu=0.1), F_ID, coherent_distribution(25.0)),
        (ModelParams(k=1, gamma=1.0, mu=0.1), F_SQ, squeezed_distribution(5.0)),
        (
            ModelParams(k=2, gamma=0.8, mu=0.1, detuning=1.0, chi=0.03, beta1=0.1, beta2=0.1),
            F_SQ,
            thermal_distribution(2.0),
        ),
    ],
)
def test_per_doublet_unitarity(params, f, dist):
    t = np.linspace(0.0, 50.0, 123)
    exc, gnd = closed_form_series(params, f, dist, t)
    resid = np.abs(np.abs(exc) ** 2 + np.abs(gnd) ** 2 - dist.probabilities[None, :])
    assert resid.max() <= 1e-12


def test_norm_equals_captured_mass():
    p = ModelParams(k=2, gamma=1.0, mu=0.1)
    d = coherent_distribution(3.0)
    for t in (0.0, 4.2, 31.0):
        st = closed_state(p, F_SQ, d, t)
        total = np.sum(np.abs(st.excited) ** 2) + np.sum(np.abs(st.ground) ** 2)
        assert total == pytest.approx(d.captured_mass, abs=1e-10)


def test_amplitude_magnitudes_ignore_phase_constants():
    # |c| depends only on Omega, Rn - mu and alpha; the phi_n + mu/2 phase
    # factor has unit magnitude
    p = ModelParams(k=2, gamma=1.2, mu=0.3, chi=0.02, beta1=0.07, beta2=0.11)
    d = coherent_distribution(2.0)
    t = 5.3
    st = closed_state(p, F_SQ, d, t)
    from djcm.dynamics import _sin_over_omega

    co = CoefficientTable(p, F_SQ, d.n_cut)
    c0 = np.sqrt(d.probabilities)
    s = _sin_over_omega(co.Omega, t)
    mag_e = c0 * np.hypot(np.cos(co.Omega * t), 0.5 * (co.Rn - p.mu) * s)
    mag_g = c0 * 0.5 * co.alpha * np.abs(s)
    assert np.abs(st.excited) == pytest.approx(mag_e, abs=1e-14)
    assert np.abs(st.ground) == pytest.approx(mag_g, abs=1e-14)


def test_degenerate_rabi_frequency_continuity():
    # drive Omega_0 -> 0 with a table deformation f(1) = eps at mu = Rn
    d = coherent_distribution(0.0)
    t = 3.0
    mu = 0.4

    def excited_amp(eps):
        f = Nonlinearity.from_table([eps] + [1.0] * (d.n_cut + 2))
        p = ModelParams(k=1, gamma=1.0, mu=mu, detuning=mu)
        return closed_state(p, f, d, t).excited[0]

    # analytic limit: pure phase rotation of the initial amplitude
    limit = np.exp(-1j * (0.0 + 0.5 * mu) * t)
    for eps in (1e-5, 1e-7, 1e-9):
        assert abs(excited_amp(eps) - limit) <= 2.0 * eps * t + 1e-13


def test_sin_over_omega_takes_series_on_every_small_row():
    from djcm.dynamics import _sin_over_omega

    omega = np.array([0.0, 1e-9, 2.0])
    t = np.linspace(0.0, 50.0, 300)[:, None]
    s = _sin_over_omega(omega, t)
    # Omega = 0 has the limit t on every row, not 0/1
    assert np.array_equal(s[:, 0], t[:, 0])
    x = omega[1] * t[:, 0]
    assert np.array_equal(s[:, 1], t[:, 0] * (1.0 - x * x / 6.0 + x**4 / 120.0))
    assert np.array_equal(s[:, 2], np.sin(omega[2] * t[:, 0]) / omega[2])
    # a scalar time, as the population route passes it, gives the same row
    assert np.array_equal(_sin_over_omega(omega, float(t[7, 0])), s[7])


def test_custom_initial_amplitudes_supported():
    p = ModelParams(k=1, gamma=1.0, mu=0.1)
    d = coherent_distribution(1.0)
    rng = np.random.default_rng(3)
    c0 = np.sqrt(d.probabilities) * np.exp(1j * rng.uniform(0, 2 * np.pi, d.n_cut + 1))
    t = np.linspace(0.0, 10.0, 21)
    ref = closed_states(p, F_SQ, d, t, initial_amplitudes=c0)
    states = evolve_ode_oracle(p, F_SQ, d, t, initial_amplitudes=c0)
    assert max_amplitude_deviation(states, ref) <= 1e-8
    # magnitudes are insensitive to the initial per-level phases
    plain = closed_states(p, F_SQ, d, t)
    assert np.abs(ref[-1].excited) == pytest.approx(np.abs(plain[-1].excited), abs=1e-13)


def test_table_deformation_starts_at_one():
    # a table holds f(1..N) only, for f = 1/sqrt(n), which is infinite at
    # n = 0: f(0)^2 would only ever multiply n(n-1) or n at n = 0, so no
    # f(0) reaches R1, R2 or Omega
    d = coherent_distribution(2.0)
    f = Nonlinearity.from_table([1.0 / math.sqrt(n) for n in range(1, d.n_cut + 2)])
    p = ModelParams(k=1, gamma=1.0, mu=0.1, detuning=0.2, chi=0.02)
    co = CoefficientTable(p, f, d.n_cut)
    for name in ("R1", "R2", "Rn", "phi", "alpha", "Omega"):
        assert np.all(np.isfinite(getattr(co, name))), name
    t = np.linspace(0.0, 5.0, 21)
    ref = closed_states(p, f, d, t)
    assert all(np.all(np.isfinite(st.excited)) and np.all(np.isfinite(st.ground)) for st in ref)
    states = evolve_ode_oracle(p, f, d, t)
    assert max_amplitude_deviation(states, ref) <= 1e-8


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
@pytest.mark.parametrize("run", [closed_form_series, evolve_ode_oracle])
def test_non_finite_initial_amplitude_rejected(bad, run):
    p = ModelParams(k=1, mu=0.1)
    d = coherent_distribution(4.0)
    c0 = np.sqrt(d.probabilities).astype(complex)
    c0[3] = bad
    with pytest.raises(InvalidParameterError, match="^initial amplitude of level 3 is not finite"):
        run(p, F_ID, d, np.linspace(0.0, 1.0, 5), initial_amplitudes=c0)


def test_initial_amplitudes_shape_checked():
    p = ModelParams(k=1)
    d = coherent_distribution(1.0)
    with pytest.raises(InvalidParameterError):
        closed_form_series(p, F_ID, d, [1.0], initial_amplitudes=np.ones(3, complex))


# ---------------------------------------------------------------------------
# ODE oracle
# ---------------------------------------------------------------------------


def test_oracle_matches_closed_form_all_terms():
    # every coefficient exercised: k=2, sqrt deformation, Kerr, both Stark
    # coefficients, detuning, modulated coupling; full scaled-time horizon
    p = ModelParams(k=2, gamma=1.0, mu=0.1, detuning=0.3, chi=0.01, beta1=0.1, beta2=0.1)
    d = coherent_distribution(1.0)
    t = np.linspace(0.0, 50.0, 101)
    states = evolve_ode_oracle(p, F_SQ, d, t)
    assert max_amplitude_deviation(states, closed_states(p, F_SQ, d, t)) <= 1e-8


@pytest.mark.parametrize(
    "k,dist_builder,nbar",
    [(3, thermal_distribution, 0.1), (4, coherent_distribution, 0.1)],
)
def test_oracle_matches_closed_form_high_k(k, dist_builder, nbar):
    p = ModelParams(k=k, gamma=1.0, mu=0.1)
    d = dist_builder(nbar)
    t = np.linspace(0.0, 2.0, 41)
    states = evolve_ode_oracle(p, F_SQ, d, t)
    assert max_amplitude_deviation(states, closed_states(p, F_SQ, d, t)) <= 1e-8


def test_oracle_squeezed_field():
    p = ModelParams(k=2, gamma=1.0, mu=0.1, chi=0.02, beta1=0.1, beta2=0.1)
    d = squeezed_distribution(0.1)
    t = np.linspace(0.0, 50.0, 101)
    states = evolve_ode_oracle(p, F_SQ, d, t)
    assert max_amplitude_deviation(states, closed_states(p, F_SQ, d, t)) <= 1e-8


def test_counter_rotating_deviation_scales_down():
    # on k-photon resonance mu = R_0 the kept term is static and the
    # discarded one rotates at mu + R_0; its imprint shrinks as ~alpha/(mu+R_0)
    d = coherent_distribution(0.0)
    devs = {}
    for drive in (20.0, 80.0):
        p = ModelParams(k=1, gamma=1.0, mu=drive, detuning=drive)
        t = np.linspace(0.0, 30.0, 61)
        states = evolve_ode_oracle(p, F_ID, d, t, include_counter_rotating=True)
        devs[drive] = max_amplitude_deviation(states, closed_states(p, F_ID, d, t))
    assert devs[20.0] < 0.1
    assert devs[80.0] < devs[20.0]
    # scale check: deviation is of order alpha/(mu+R), not orders off
    assert devs[20.0] > 1.0 / 40.0 * 0.2


def test_rwa_flag_off_is_default_equation():
    # with mu = 0 and Rn = 0 the counter-rotating and rotating terms merge,
    # so the pre-RWA system is cos(0 t)-driven with doubled coupling
    p = ModelParams(k=1, gamma=1.0, mu=0.0)
    d = coherent_distribution(0.0)
    t = np.linspace(0.0, 6.0, 31)
    states = evolve_ode_oracle(p, F_ID, d, t, include_counter_rotating=True)
    # doubled coupling: population cos^2(gamma t) instead of cos^2(gamma t / 2)
    for st in states:
        assert abs(st.excited[0]) ** 2 == pytest.approx(math.cos(st.time) ** 2, abs=1e-8)


def test_tiny_coupling_keeps_amplitudes_constant():
    p = ModelParams(k=1, gamma=1e-12, mu=0.1)
    d = coherent_distribution(1.0)
    t = np.linspace(0.0, 20.0, 11)
    exc, gnd = closed_form_series(p, F_SQ, d, t)
    assert np.max(np.abs(np.abs(exc) - np.sqrt(d.probabilities)[None, :])) <= 1e-10
    assert np.max(np.abs(gnd)) <= 1e-10


def test_oracle_carries_frozen_doublets_exactly():
    # amplitudes at or below tol/(2 sqrt 2) are not integrated; they keep
    # their initial value times the diagonal phase at every grid time
    p = ModelParams(k=1, gamma=1.0, mu=0.3, detuning=0.2)
    d = coherent_distribution(1.0)
    c0 = np.sqrt(d.probabilities).astype(complex)
    c0[[1, 4]] = [3e-11, 2e-11j]
    t = np.linspace(0.0, 2.0, 9)
    states = evolve_ode_oracle(p, F_ID, d, t, initial_amplitudes=c0)
    r1 = CoefficientTable(p, F_ID, d.n_cut).R1
    for s in states:
        for n in (1, 4):
            assert s.excited[n] == c0[n] * np.exp(-1j * r1[n] * s.time)
            assert s.ground[n] == 0.0
    assert max_amplitude_deviation(states, closed_states(p, F_ID, d, t, c0)) <= 1e-8


def test_oracle_grid_validation():
    p = ModelParams()
    d = coherent_distribution(0.0)
    with pytest.raises(InvalidParameterError):
        evolve_ode_oracle(p, F_ID, d, [1.0, 2.0])
    with pytest.raises(InvalidParameterError):
        evolve_ode_oracle(p, F_ID, d, [0.0, 2.0, 1.0])


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
@pytest.mark.parametrize("counter_rotating", [False, True])
def test_oracle_refuses_a_tol_that_is_not_finite_and_positive(tol, counter_rotating):
    # no two refinements agree within such a tol: refused before any step
    d = coherent_distribution(0.5)
    with pytest.raises(InvalidParameterError, match="tol must be finite and > 0"):
        evolve_ode_oracle(ModelParams(), F_ID, d, [0.0, 1.0], counter_rotating, tol=tol)


def test_integration_failure_reports_doublet_and_time():
    # detuning of 1e9 needs more than 2^24 steps for the first 10-unit segment
    p = ModelParams(k=1, gamma=1.0, mu=0.0, detuning=1e9)
    d = coherent_distribution(0.0)
    with pytest.raises(IntegrationFailureError) as err:
        evolve_ode_oracle(p, F_ID, d, [0.0, 10.0])
    assert err.value.n == 0
    assert err.value.t == pytest.approx(10.0)


def test_refinement_past_2_to_the_24_steps_reports_doublet_and_time():
    # the first step counts are at most 2^23, so on this preset's first
    # segment the refinement loop, not the check before it, passes 2^24
    cfg = preset("squeezed_bare_sqrt_n_k4")
    times = cfg.grid()[:2]
    with pytest.raises(IntegrationFailureError, match="exceeded 2\\^24") as err:
        evolve_ode_oracle(cfg.params, cfg.nonlinearity, cfg.build_distribution(), times)
    assert err.value.n == 28
    assert err.value.t == times[1] == 0.02501250625312656


def test_refinement_failure_names_the_first_segment_of_its_length():
    # 39 segments of a few lengths, each integrated once: the failure still
    # names the first segment, as an integration per segment would
    cfg = preset("squeezed_bare_sqrt_n_k4")
    times = cfg.grid()[:40]
    assert len(set(np.diff(times))) < 39
    with pytest.raises(IntegrationFailureError, match="exceeded 2\\^24") as err:
        evolve_ode_oracle(cfg.params, cfg.nonlinearity, cfg.build_distribution(), times)
    assert err.value.n == 28
    assert err.value.t == times[1] == 0.02501250625312656


# ---------------------------------------------------------------------------
# table-driven phases on uniform grids
# ---------------------------------------------------------------------------

EPS = float(np.finfo(float).eps)
KERR_SQRT_N_PRESETS = ["coherent_kerr_sqrt_n", "squeezed_kerr_sqrt_n", "thermal_kerr_sqrt_n"]


def _uniform_grids():
    yield "oracle", np.linspace(0.0, 0.01, 33), None
    yield "grid", np.linspace(0.0, 50.0, 2000), None
    # the long grid on a spread of columns that keeps the work small
    yield "long", np.linspace(0.0, 200.0, 50000), 32


@pytest.mark.parametrize("name", KERR_SQRT_N_PRESETS)
def test_phase_table_matches_direct_on_uniform_grids(name):
    cfg = preset(name)
    dist = cfg.build_distribution()
    active = np.nonzero(dist.probabilities)[0]
    mu = cfg.params.mu
    for label, times, n_cols in _uniform_grids():
        cols = active
        if n_cols is not None:
            cols = active[np.unique(np.linspace(0, len(active) - 1, n_cols).astype(int))]
        c0 = np.zeros(dist.n_cut + 1, dtype=complex)
        c0[cols] = 1.0  # unit amplitudes, so the tables carry no c0
        plan = ClosedFormPlan(cfg.params, cfg.nonlinearity, dist, times, initial_amplitudes=c0)
        assert plan.step is not None, label
        sink = AmplitudeSink(plan)
        work = _Scratch(*plan.scratch_shape(sink))
        alpha = plan.coefficients.alpha[plan.active]
        for start in range(0, len(times), _BLOCK_ROWS):
            n = min(_BLOCK_ROWS, len(times) - start)
            t = plan._table_times(start, n)
            tn = t[:n]
            t_end = tn[-1, 0]
            for chunk in plan.chunks:
                rot = plan._rotation(chunk, t, work)
                excited_phase, ground_phase = sink.phases(chunk, t, n, work)
                # the Rabi rotation, moved onto the direct argument itself
                w = plan.rabi[chunk.span]
                direct = np.exp(-1j * w * tn)
                err = np.abs(rot[:n] - direct)
                assert np.all(err <= 8.0 * EPS * (1.0 + np.abs(w) * t_end)), (label, start, "rabi")
                modest = np.abs(w) * t_end <= 1e7
                assert np.all(err[:, modest] <= 8.0 * EPS), (label, start, "rabi")
                w = plan.ground_rate[chunk.mine]
                direct = np.exp(-1j * w * tn)
                table = ground_phase / (-0.5j * alpha[chunk.mine])
                bound = 8.0 * EPS * (1.0 + np.abs(w) * t_end)
                assert np.all(np.abs(table - direct) <= bound), (label, start, "ground")
                # the excited-state phase against the direct path's
                # exp(-i w t) * exp(-i mu t)
                direct = np.exp(-1j * w * tn) * np.exp(-1j * mu * tn)
                bound = 8.0 * EPS * (1.0 + (np.abs(w) + mu) * t_end)
                assert np.all(np.abs(excited_phase - direct) <= bound), (label, start, "excited")


def _positions(cols) -> np.ndarray:
    """The indices a chunk's slice or index array selects."""
    if isinstance(cols, slice):
        return np.arange(cols.start, cols.stop, cols.step or 1)
    return np.asarray(cols)


@pytest.mark.parametrize("name", ["squeezed_bare_sqrt_n_k4", "coherent_kerr_sqrt_n"])
def test_chunk_ranges_tile_the_active_doublets_and_pairs(name):
    cfg = preset(name)
    dist = cfg.build_distribution()
    plan = ClosedFormPlan(cfg.params, cfg.nonlinearity, dist, cfg.grid())
    own = np.concatenate([_positions(c.mine) for c in plan.chunks])
    assert np.array_equal(own, np.arange(plan.active_doublets))
    pairs = np.concatenate([_positions(c.pairs) for c in plan.chunks])
    assert np.array_equal(pairs, np.arange(len(plan.pair_lo)))
    crossing = 0
    for c in plan.chunks:
        assert c.own == c.mine.stop - c.mine.start <= _DOUBLET_CHUNK
        assert c.span.start == c.mine.start and c.span.stop >= c.mine.stop
        assert np.array_equal(_positions(c.cols), plan.active[c.mine])
        width = c.span.stop - c.span.start
        lo, hi = _positions(c.lo), _positions(c.hi)
        assert np.all((0 <= lo) & (lo < c.own)) and np.all((0 <= hi) & (hi < width))
        assert np.array_equal(lo + c.span.start, plan.pair_lo[c.pairs])
        assert np.array_equal(hi + c.span.start, plan.pair_hi[c.pairs])
        crossing += np.count_nonzero(hi >= c.own)
    # each pair is (n, n + k), both members active
    gaps = plan.active[plan.pair_hi] - plan.active[plan.pair_lo]
    assert np.all(gaps == cfg.params.k)
    if name == "squeezed_bare_sqrt_n_k4":
        assert plan.active_doublets == 656 and len(plan.chunks) > 1 and crossing > 0


def _closed_form_direct(params, f, dist, times):
    """The closed form evaluated cell by cell with cos, sin and exp: the reference."""
    co = CoefficientTable(params, f, dist.n_cut)
    c0 = np.sqrt(dist.probabilities).astype(complex)
    active = np.nonzero(c0 != 0.0)[0]
    omega, rn = co.Omega[active], co.Rn[active]
    alpha, phi, c0a = co.alpha[active], co.phi[active], c0[active]
    mu = params.mu
    t = np.asarray(times, dtype=float)[:, None]
    x = omega * t
    cosx = np.cos(x)
    s = np.sin(x) / np.where(omega > 0.0, omega, 1.0)
    small = np.abs(x) < 1e-4
    xs = x[small]
    s[small] = np.broadcast_to(t, x.shape)[small] * (1.0 - xs * xs / 6.0 + xs**4 / 120.0)
    envelope = cosx - 0.5j * (rn - mu) * s
    phase_g = np.exp(-1j * ((phi - 0.5 * mu) * t))
    phase_e = phase_g * np.exp(-1j * mu * t)
    excited = np.zeros((len(t), len(c0)), dtype=complex)
    ground = np.zeros_like(excited)
    excited[:, active] = c0a * envelope * phase_e
    ground[:, active] = (-0.5j * alpha) * s * c0a * phase_g
    return excited, ground


@pytest.mark.parametrize("name", KERR_SQRT_N_PRESETS)
def test_non_uniform_and_short_grids_have_groups_of_one_time(name):
    cfg = preset(name)
    dist = cfg.build_distribution()
    uneven = np.geomspace(1e-3, 50.0, 300)
    uneven[0] = 0.0
    grids = (uneven, np.array([37.25]), np.linspace(0.0, 50.0, 2), np.linspace(0.0, 50.0, 15))
    for times in grids:
        assert _uniform_step(times) is None
        plan = ClosedFormPlan(cfg.params, cfg.nonlinearity, dist, times)
        assert plan.group == 1
        # each time its own anchor: the phases are those of fl(w t) itself,
        # through exp where the reference takes cos and sin
        exc, gnd = closed_form_series(cfg.params, cfg.nonlinearity, dist, times)
        ref_e, ref_g = _closed_form_direct(cfg.params, cfg.nonlinearity, dist, times)
        assert np.all(np.abs(exc - ref_e) <= 2.0 * EPS), len(times)
        assert np.all(np.abs(gnd - ref_g) <= 2.0 * EPS), len(times)


def test_uniform_step_rejects_other_grids():
    grid = np.linspace(0.0, 50.0, 2000)
    assert _uniform_step(grid) == pytest.approx(50.0 / 1999, rel=1e-15)
    assert _uniform_step(grid[:15]) is None  # too short to pay for a table
    assert _uniform_step(grid[::-1].copy()) is None
    bent = grid.copy()
    bent[1000] += 1e-9
    assert _uniform_step(bent) is None


# ---------------------------------------------------------------------------
# RK4 oracle sweep (power form and step loop) against direct-exp stepping
# ---------------------------------------------------------------------------


def _direct_exp_sweep(batch, m):
    """Stage-by-stage RK4 over the 4-entry propagator, couplings by exp.

    ``m`` is one step count for all pairs or one per pair; each pair takes
    its own m steps and then keeps its entries.
    """
    p = len(batch.t0)
    m = np.broadcast_to(m, (p,))
    m00, m11 = np.ones(p, dtype=complex), np.ones(p, dtype=complex)
    m01, m10 = np.zeros(p, dtype=complex), np.zeros(p, dtype=complex)
    h = batch.dt / m
    hh = 0.5 * h
    for j in range(int(m.max(initial=0))):
        stepping = j < m
        ta = batch.t0 + j * h
        a = batch.coupling(ta)
        b = batch.coupling(ta + hh)
        c = batch.coupling(ta + h)
        k1 = (a[0] * m10, a[0] * m11, a[1] * m00, a[1] * m01)
        u = (m00 + hh * k1[0], m01 + hh * k1[1], m10 + hh * k1[2], m11 + hh * k1[3])
        k2 = (b[0] * u[2], b[0] * u[3], b[1] * u[0], b[1] * u[1])
        u = (m00 + hh * k2[0], m01 + hh * k2[1], m10 + hh * k2[2], m11 + hh * k2[3])
        k3 = (b[0] * u[2], b[0] * u[3], b[1] * u[0], b[1] * u[1])
        u = (m00 + h * k3[0], m01 + h * k3[1], m10 + h * k3[2], m11 + h * k3[3])
        k4 = (c[0] * u[2], c[0] * u[3], c[1] * u[0], c[1] * u[1])
        m00, m01, m10, m11 = (
            np.where(stepping, entry + h / 6.0 * (q1 + 2.0 * (q2 + q3) + q4), entry)
            for entry, q1, q2, q3, q4 in zip((m00, m01, m10, m11), k1, k2, k3, k4)
        )
    return np.stack([m00, m01, m10, m11])


def _four_entries(u, v):
    """The rows u, v, -conj v, conj u of a sweep's (u, v), as _direct_exp_sweep's."""
    return np.stack([u, v, -np.conj(v), np.conj(u)])


@pytest.mark.parametrize("counter_rotating", [False, True])
@pytest.mark.parametrize("m", [300, 1000, 4096])
def test_sweep_recurrence_matches_direct_exp(counter_rotating, m):
    # 300 and 1000 exercise the powering's odd-bit products; 4096 is a
    # step count of the oracle's own power-of-two ladder
    # alpha reaches 182, so w*h stays below the 0.75 the oracle starts from
    params = ModelParams(k=2, gamma=1.0, mu=0.7, detuning=0.3, beta1=0.05, beta2=0.08)
    co = CoefficientTable(params, F_SQ, 12)
    segments = 3
    n = len(co.alpha)
    batch = _PairBatch(
        np.repeat([0.0, 0.5, 1.0], n),
        np.full(segments * n, 0.5),
        np.tile(co.alpha, segments),
        np.tile(co.Rn, segments),
        np.ones(segments * n),
        params.mu,
        counter_rotating,
    )
    got = _four_entries(*batch.sweep(m))
    ref = _direct_exp_sweep(batch, m)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("counter_rotating", [False, True])
def test_sweep_of_each_pair_alone_is_its_column_of_the_batch(counter_rotating):
    # a Kerr tier, so the step loop multiplies complex couplings; 300 steps
    # pass a direct re-anchoring of the phases. Numpy rounds a complex
    # product of one element computed in place differently, so one-pair
    # batches pin that no product overwrites its operands.
    params = ModelParams(k=1, gamma=1.0, mu=0.1, chi=0.03)
    co = CoefficientTable(params, F_SQ, 12)
    n = len(co.alpha)
    t0 = np.linspace(0.0, 2.0, n)
    batch = _PairBatch(
        t0, np.full(n, 0.05), co.alpha, co.Rn, np.ones(n), params.mu, counter_rotating
    )
    whole = np.stack(batch.sweep(300))
    for i in range(n):
        one = batch.take(np.array([i]))
        fresh = _PairBatch(
            t0[i : i + 1], np.full(1, 0.05), co.alpha[i : i + 1], co.Rn[i : i + 1],
            np.ones(1), params.mu, counter_rotating,
        )
        column = whole[:, i : i + 1].tobytes()
        alone = np.stack(one.sweep(300)).tobytes()
        assert alone == np.stack(fresh.sweep(300)).tobytes() == column


def test_oracle_with_direct_exp_sweep_takes_same_steps_and_states(monkeypatch):
    # criterion 2's preset at the window its step-cost model picks
    cfg = preset("coherent_bare_sqrt_n_k2")
    dist = cfg.build_distribution()
    t_grid = np.linspace(0.0, 0.1, 33)

    sweep = _PairBatch.sweep

    def run(four_entries):
        calls, entries = [], []

        def recorded(batch, m):
            calls.append((np.broadcast_to(m, len(batch.t0)).tolist(), len(batch.t0)))
            entries.append(four_entries(batch, m))
            return entries[-1][:2]  # the oracle builds -conj v and conj u itself

        monkeypatch.setattr(_PairBatch, "sweep", recorded)
        states = evolve_ode_oracle(cfg.params, cfg.nonlinearity, dist, t_grid, tol=1e-10)
        return calls, entries, states

    calls, entries, states = run(lambda batch, m: _four_entries(*sweep(batch, m)))
    ref_calls, ref_entries, ref_states = run(_direct_exp_sweep)
    assert calls == ref_calls
    for got, ref in zip(entries, ref_entries, strict=True):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert max_amplitude_deviation(states, ref_states) <= 1e-12


def _pairs_per_block(monkeypatch, cfg, times, counter_rotating):
    """(t0, dt, alpha) of each pair the oracle integrates, a Counter per block.

    A pair is counted at its first sweep, the one at its smallest step
    count: a refinement sweeps the same pairs again, at twice the steps.
    """
    calls = []
    sweep = _PairBatch.sweep

    def recorded(batch, m):
        steps = np.broadcast_to(m, len(batch.t0)).tolist()
        calls.extend(zip(zip(batch.t0, batch.dt, batch.alpha), steps))
        return sweep(batch, m)

    monkeypatch.setattr(_PairBatch, "sweep", recorded)
    dist = cfg.build_distribution()
    per_block = []
    # a block is integrated when it is drawn
    for _ in ode_oracle_blocks(cfg.params, cfg.nonlinearity, dist, times, counter_rotating):
        first = {}
        for pair, m in calls:
            first[pair] = min(first.get(pair, m), m)
        per_block.append(Counter(pair for pair, m in calls if m == first[pair]))
        calls.clear()
    return per_block


def _segments(times, block):
    """Start times and lengths of the segments that end on a block's rows."""
    b0 = block * _BLOCK_ROWS
    tb = times[max(b0, 1) - 1 : b0 + _BLOCK_ROWS]
    return tb[:-1], np.diff(tb)


def _live_doublets(cfg):
    c0 = initial_excited_amplitudes(cfg.build_distribution())
    return int(np.count_nonzero(math.sqrt(2.0) * np.abs(c0) > 0.5e-10))


def test_rotating_wave_oracle_integrates_each_segment_length_once_per_block(monkeypatch):
    cfg = preset("coherent_bare_identity")
    times = UniformGrid(50.0, 2000)[:]
    live = _live_doublets(cfg)
    per_block = _pairs_per_block(monkeypatch, cfg, times, False)
    assert len(per_block) == 8
    for block, pairs in enumerate(per_block):
        _, dt = _segments(times, block)
        lengths = set(dt)
        assert 1 < len(lengths) < len(dt)  # rounding leaves a few distinct lengths
        assert sum(pairs.values()) == len(lengths) * live
        assert {d for _, d, _ in pairs} == lengths


def test_counter_rotating_oracle_integrates_every_segment(monkeypatch):
    # the coupling's two frequencies make each segment's propagator depend on its start
    cfg = preset("coherent_bare_identity")
    times = UniformGrid(50.0, 2000)[:]
    live = _live_doublets(cfg)
    for block, pairs in enumerate(_pairs_per_block(monkeypatch, cfg, times, True)):
        t0, dt = _segments(times, block)
        assert sum(pairs.values()) == len(dt) * live
        assert {(t, d) for t, d, _ in pairs} == set(zip(t0, dt))


def test_segments_of_distinct_lengths_are_integrated_one_by_one(monkeypatch):
    cfg = preset("coherent_bare_identity")
    times = 0.01 * (1.01 ** np.arange(300) - 1.0)
    assert len(set(np.diff(times))) == 299
    live = _live_doublets(cfg)
    for block, pairs in enumerate(_pairs_per_block(monkeypatch, cfg, times, False)):
        _, dt = _segments(times, block)
        assert sum(pairs.values()) == len(dt) * live
        assert {d for _, d, _ in pairs} == set(dt)


@pytest.mark.parametrize("counter_rotating", [False, True])
def test_sweep_with_a_step_count_per_pair_is_each_count_swept_alone(counter_rotating):
    # 2 to 2^12 steps, ascending; 3, 5 and 1000 have digits that other
    # counts lack, so a powering round multiplies into pairs that are not
    # side by side. Each group swept alone with its one count gives the
    # same bytes, pair by pair.
    params = ModelParams(k=2, gamma=1.0, mu=0.7, detuning=0.3, beta1=0.05, beta2=0.08)
    co = CoefficientTable(params, F_SQ, 12)
    n = len(co.alpha)
    counts = [2, 3, 4, 5, 64, 1000, 4096]
    per_pair = np.repeat(counts, n)
    pairs = len(per_pair)
    batch = _PairBatch(
        np.linspace(0.0, 2.0, pairs), np.full(pairs, 0.5), np.tile(co.alpha, len(counts)),
        np.tile(co.Rn, len(counts)), np.ones(pairs), params.mu, counter_rotating,
    )
    whole = np.stack(batch.sweep(per_pair))
    for i, m in enumerate(counts):
        group = np.arange(i * n, (i + 1) * n)
        alone = np.stack(batch.take(group).sweep(m))
        assert alone.tobytes() == whole[:, group].tobytes()


def _suite_window(name):
    """(config, distribution, grid) of the acceptance suite's oracle window for a preset."""
    import test_acceptance as suite

    cfg = preset(name)
    window, dist = suite.choose_oracle_window(cfg)
    return cfg, dist, np.linspace(0.0, window, suite.ORACLE_SEGMENTS + 1), suite.ORACLE_TOL


def test_thermal_suite_window_takes_one_power_sweep_per_refinement_level(monkeypatch):
    # 7 segment lengths of about 700 live doublets: two batches, the whole
    # batch at each refinement level in one binary powering
    cfg, dist, grid, tol = _suite_window("thermal_bare_sqrt_n_k2")
    sweeps, batches = [], []
    power_sweep, refine = _PairBatch._power_sweep, oracle._refine

    def counted_sweep(batch, m):
        sweeps.append(len(batch.t0))
        return power_sweep(batch, m)

    def counted_refine(batch, m0, *args):
        batches.append(len(batch.t0))
        return refine(batch, m0, *args)

    monkeypatch.setattr(_PairBatch, "_power_sweep", counted_sweep)
    monkeypatch.setattr(oracle, "_refine", counted_refine)
    evolve_ode_oracle(cfg.params, cfg.nonlinearity, dist, grid, tol=tol)
    assert len(set(np.diff(grid))) == 7
    assert len(batches) == 2
    assert len(sweeps) <= 14


def test_each_pair_accepts_the_step_count_of_its_own_refinement(monkeypatch):
    # every pair's sweeps are its first count, doubled until a count agrees
    # with the one before it within tol, and that count is where the pair
    # refined alone stops
    cfg, dist, grid, tol = _suite_window("coherent_bare_sqrt_n_k2")
    swept = {}
    sweep = _PairBatch.sweep

    def recorded(batch, m):
        for i, steps in enumerate(np.broadcast_to(m, len(batch.t0)).tolist()):
            key = (batch.t0[i], batch.dt[i], batch.alpha[i])
            swept.setdefault(key, (batch.take(np.array([i])), []))[1].append(steps)
        return sweep(batch, m)

    monkeypatch.setattr(_PairBatch, "sweep", recorded)
    evolve_ode_oracle(cfg.params, cfg.nonlinearity, dist, grid, tol=tol)
    monkeypatch.setattr(_PairBatch, "sweep", sweep)
    assert len(swept) == len(set(np.diff(grid))) * _live_doublets(cfg)
    for one, counts in swept.values():
        m = counts[0]
        u_c, v_c = (x.copy() for x in one.sweep(m))
        while True:
            m *= 2
            u_f, v_f = one.sweep(m)
            if np.maximum(np.abs(u_f - u_c), np.abs(v_f - v_c)) * one.weight <= tol:
                break
            u_c, v_c = u_f.copy(), v_f.copy()
        assert counts == [counts[0] << j for j in range(len(counts))]
        assert counts[-1] == m


# every segment length distinct
_GEOMETRIC = 0.01 * (1.01 ** np.arange(300) - 1.0)
# each length twice in a row, so that a chunk of two segments meets one new
# length; in multiples of 2^-12, so that the sums are exact
_PAIRED = np.concatenate([[0.0], np.cumsum(np.repeat(np.arange(1, 151) * 2.0**-12, 2))])


@pytest.mark.parametrize("times", [_GEOMETRIC, _PAIRED], ids=["geometric", "paired"])
def test_a_block_integrates_its_next_lengths_together_within_the_buffers(monkeypatch, times):
    # more distinct lengths per block than one batch holds: each batch takes
    # the next lengths not yet integrated, as many as the buffers hold, each
    # length once per block, and the blocks are those of an uncapped run
    cfg = preset("coherent_bare_identity")
    dist = cfg.build_distribution()
    live = _live_doublets(cfg)
    batches, per_block = [], []

    def blocks():
        out = []
        for excited, ground in ode_oracle_blocks(cfg.params, cfg.nonlinearity, dist, times):
            out.append(excited.tobytes() + ground.tobytes())
            per_block.append(batches[:])  # a block is integrated when it is drawn
            batches.clear()
        return out

    monkeypatch.setattr(oracle, "_MAX_PAIRS", 10**7)
    uncapped = blocks()
    per_block.clear()
    monkeypatch.setattr(oracle, "_MAX_PAIRS", 2 * live)
    refine = oracle._refine

    def recorded(batch, m0, tol, out, pair_info):
        batches.append((len(batch.t0), out.shape[1], out.base.shape[1]))
        return refine(batch, m0, tol, out, pair_info)

    monkeypatch.setattr(oracle, "_refine", recorded)
    assert blocks() == uncapped
    assert len(per_block) == 2
    for block, widths in enumerate(per_block):
        # two lengths a batch, the block's last batch the rest, in the buffers
        assert all(n == fits <= buffer == 2 * live for n, fits, buffer in widths)
        count = len(set(_segments(times, block)[1]))
        assert [n for n, _, _ in widths] == [2 * live] * (count // 2) + [live] * (count % 2)
    for block, pairs in enumerate(_pairs_per_block(monkeypatch, cfg, times, False)):
        _, dt = _segments(times, block)
        assert len(set(dt)) > 2
        assert len(pairs) == len(set(dt)) * live
        assert set(pairs.values()) == {1}
