import math
import time

import numpy as np
import pytest

from djcm.errors import InvalidParameterError
from djcm.field_states import (
    choose_truncation,
    coherent_distribution,
    squeezed_distribution,
    thermal_distribution,
    thermal_nbar_from_temperature,
)

ALL_BUILDERS = [coherent_distribution, squeezed_distribution, thermal_distribution]


def test_coherent_vacuum():
    d = coherent_distribution(0.0)
    assert d.probabilities[0] == 1.0
    assert np.all(d.probabilities[1:] == 0.0)
    assert d.n_cut == 11


def test_coherent_ground_weight():
    d = coherent_distribution(1.0)
    assert d.probabilities[0] == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_coherent_mode_weight_nbar25():
    # Poisson pmf at its mode, arbitrary-precision reference value
    d = coherent_distribution(25.0)
    assert d.probabilities[25] == pytest.approx(0.079522951468065446, rel=1e-12)


def test_squeezed_vacuum_limit():
    d = squeezed_distribution(0.0)
    assert d.probabilities[0] == 1.0
    assert np.all(d.probabilities[1:] == 0.0)


def test_squeezed_weights_nbar1():
    # (1+nbar)^(-1/2) at n=0; tanh^2 r * 2!/(4 cosh r) at n=2 with sinh^2 r = 1
    d = squeezed_distribution(1.0)
    assert d.probabilities[0] == pytest.approx(0.7071067811865475, rel=1e-12)
    assert d.probabilities[2] == pytest.approx(0.17677669529663688, rel=1e-12)


@pytest.mark.parametrize("nbar", [0.5, 1.0, 5.0, 25.0])
def test_squeezed_odd_levels_exactly_zero(nbar):
    d = squeezed_distribution(nbar)
    assert np.all(d.probabilities[1::2] == 0.0)


def test_squeezed_forms_agree():
    # the (1+nbar)^(n+1/2) form equals the tanh/cosh form with sinh^2 r = nbar
    nbar = 7.0
    r = math.asinh(math.sqrt(nbar))
    d = squeezed_distribution(nbar)
    for m in range(0, 12):
        expected = (
            math.tanh(r) ** (2 * m)
            * math.factorial(2 * m)
            / ((2**m * math.factorial(m)) ** 2 * math.cosh(r))
        )
        assert d.probabilities[2 * m] == pytest.approx(expected, rel=1e-12)


def test_thermal_weights():
    d = thermal_distribution(1.0)
    assert d.probabilities[0] == pytest.approx(0.5, rel=1e-15)
    assert d.probabilities[1] == pytest.approx(0.25, rel=1e-15)
    assert thermal_distribution(25.0).probabilities[0] == pytest.approx(1.0 / 26.0, rel=1e-15)


@pytest.mark.parametrize("nbar", [0.5, 1.0, 5.0, 25.0])
def test_thermal_ratio_exact(nbar):
    d = thermal_distribution(nbar)
    ratio = nbar / (1.0 + nbar)
    assert np.all(d.probabilities[1:] == d.probabilities[:-1] * ratio)


def test_thermal_nbar_from_temperature():
    # hbar nu / kB T = ln 2 gives exactly one quantum
    assert thermal_nbar_from_temperature(math.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-12)
    # series oracle: 1/(e^0.01 - 1)
    assert thermal_nbar_from_temperature(0.01, 1.0) == pytest.approx(
        99.50083333194445, rel=1e-12
    )
    # zero-temperature limit
    assert thermal_nbar_from_temperature(1e6, 1.0) == 0.0


def test_thermal_nbar_invalid_args():
    with pytest.raises(InvalidParameterError):
        thermal_nbar_from_temperature(-1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        thermal_nbar_from_temperature(1.0, 0.0)


def test_choose_truncation_frozen_values():
    # vacuum: N=0 plus k+10 padding
    assert choose_truncation("coherent", 0.0, 1e-12, 1) == 11
    # geometric tail: smallest N with cumulative >= 1-1e-12 is 39 (mpmath)
    assert choose_truncation("thermal", 1.0, 1e-12, 1) == 50
    # Poisson nbar=25: smallest such N is 68 (mpmath), plus 2+10
    assert choose_truncation("coherent", 25.0, 1e-12, 2) == 80


@pytest.mark.parametrize("nbar", [1000.0, 5000.0])
def test_coherent_truncation_passes_underflow_below_the_mode(nbar):
    # e^{-nbar} nbar^n / n! underflows to 0 on the first 64-level block
    d = coherent_distribution(nbar)
    assert d.n_cut > nbar
    assert d.captured_mass >= 1.0 - d.tail_eps


def test_unreachable_tail_still_raises_past_the_mode():
    with pytest.raises(InvalidParameterError, match="unreachable"):
        choose_truncation("coherent", 1000.0, 1e-300, 1)


@pytest.mark.parametrize("kind", ["coherent", "squeezed", "thermal"])
def test_extreme_nbar_is_refused_at_once(kind):
    # no 64-level block sums to 0 past the mode, which is never passed
    start = time.perf_counter()
    with pytest.raises(InvalidParameterError, match="more than 4194304 Fock levels"):
        choose_truncation(kind, 1e300, 1e-12, 1)
    assert time.perf_counter() - start < 1.0


def test_truncation_holds_at_most_2_22_levels():
    # the vacuum needs N = 0, so N_cut + 1 = k + 11 levels
    assert choose_truncation("coherent", 0.0, 1e-12, 2**22 - 11) == 2**22 - 1
    for k in (2**22 - 10, 10**9):
        with pytest.raises(InvalidParameterError, match="more than 4194304 Fock levels"):
            choose_truncation("coherent", 0.0, 1e-12, k)
    # the largest field accepted so far still fits
    assert choose_truncation("thermal", 1e5, 1e-12, 1) == 2576556


def test_choose_truncation_invalid():
    with pytest.raises(InvalidParameterError):
        choose_truncation("coherent", -1.0, 1e-12, 1)
    with pytest.raises(InvalidParameterError):
        choose_truncation("coherent", 1.0, 0.0, 1)
    with pytest.raises(InvalidParameterError):
        choose_truncation("coherent", 1.0, 1e-12, 0)
    with pytest.raises(InvalidParameterError):
        choose_truncation("binomial", 1.0, 1e-12, 1)


@pytest.mark.parametrize("builder", ALL_BUILDERS)
@pytest.mark.parametrize("nbar", [0.5, 1.0, 5.0, 25.0])
def test_normalization_tail(builder, nbar):
    eps = 1e-12
    d = builder(nbar, eps)
    assert 1.0 - d.captured_mass <= eps
    assert np.all(d.probabilities >= 0.0)


@pytest.mark.parametrize("builder", ALL_BUILDERS)
@pytest.mark.parametrize("nbar", [0.5, 1.0, 5.0, 25.0])
def test_mean_recovery(builder, nbar):
    eps = 1e-12
    d = builder(nbar, eps)
    bound = nbar * 10.0 * eps + eps * d.n_cut
    assert abs(d.mean() - nbar) <= bound


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_negative_nbar_rejected(builder):
    with pytest.raises(InvalidParameterError):
        builder(-0.5)


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_bad_tail_eps_rejected(builder):
    with pytest.raises(InvalidParameterError):
        builder(1.0, tail_eps=0.0)
    with pytest.raises(InvalidParameterError):
        builder(1.0, tail_eps=1.5)


def test_probabilities_read_only():
    d = coherent_distribution(1.0)
    with pytest.raises(ValueError):
        d.probabilities[0] = 0.5
