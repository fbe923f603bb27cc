"""ln j! from djcm.factorials against scipy.special.gammaln, bit for bit."""

import math

import numpy as np
import pytest

from djcm.factorials import log_factorials

gammaln = pytest.importorskip("scipy.special").gammaln


def _assert_same_bits(j):
    j = np.asarray(j, dtype=np.int64)
    assert log_factorials(j).tobytes() == gammaln(j + 1.0).tobytes()


def test_every_integer_argument_up_to_two_million():
    _assert_same_bits(np.arange(2_000_000))  # gammaln(1) .. gammaln(2e6)


def test_random_integer_arguments_up_to_1e15():
    _assert_same_bits(np.random.default_rng(2014).integers(0, 10**15, 10**6))


@pytest.mark.parametrize("x", [12, 13, 999, 1000, 1001, 10**8, 10**8 + 1])
def test_branch_edges(x):
    # Cephes switches from the product to Stirling at 13, shortens the
    # series at 1000 and drops it above 1e8; x is gammaln's argument.
    _assert_same_bits([x - 2, x - 1, x])


def test_shape_and_small_values():
    out = log_factorials([[0, 1], [2, 12]])
    assert out.shape == (2, 2)
    assert out[0].tolist() == [0.0, 0.0] and out[1, 0] == math.log(2.0)
    assert log_factorials(np.arange(0)).shape == (0,)
