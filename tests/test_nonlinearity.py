import math
import warnings

import numpy as np
import pytest

from djcm.dynamics import CoefficientTable, ModelParams
from djcm.errors import InvalidNonlinearityError
from djcm.nonlinearity import Nonlinearity


def log_factorial(f, n_max):
    return f.tables(n_max)[1]


def f_ratio(f, n, k):
    """[f(n+k)]! / [f(n)]! = f(n+1)...f(n+k), from the log table."""
    lf = log_factorial(f, n + k)
    return math.exp(lf[n + k] - lf[n])


def test_identity_tables_constant():
    f2, lf = Nonlinearity.identity().tables(7)
    assert f2[7] == 1.0
    assert np.array_equal(np.diff(lf), np.zeros(7))  # ln f(n) = 0


def test_sqrt_tables():
    f2, lf = Nonlinearity.sqrt_n().tables(4)
    assert f2[4] == 4.0
    assert lf[4] - lf[3] == pytest.approx(math.log(2.0), rel=1e-15)
    assert f2[0] == 0.0


def test_f_factorial_log_identity_zero():
    f = Nonlinearity.identity()
    assert np.array_equal(log_factorial(f, 10), np.zeros(11))
    assert log_factorial(f, 0)[0] == 0.0


def test_f_factorial_log_sqrt():
    # [sqrt(n)]! = sqrt(n!), so ln at n=3 is ln(6)/2
    f = Nonlinearity.sqrt_n()
    assert log_factorial(f, 3)[3] == pytest.approx(0.5 * math.log(6.0), rel=1e-14)
    assert log_factorial(f, 0)[0] == 0.0


def test_f_ratio_examples():
    assert f_ratio(Nonlinearity.identity(), 5, 2) == 1.0
    f = Nonlinearity.sqrt_n()
    assert f_ratio(f, 3, 1) == pytest.approx(2.0, rel=1e-13)
    assert f_ratio(f, 2, 2) == pytest.approx(math.sqrt(12.0), rel=1e-13)


@pytest.mark.parametrize("kind", ["sqrt_n", "table"])
def test_f_ratio_matches_direct_product(kind):
    rng = np.random.default_rng(20240817)
    if kind == "sqrt_n":
        f = Nonlinearity.sqrt_n()
        fn = math.sqrt
    else:
        values = rng.uniform(0.2, 3.0, size=60)
        f = Nonlinearity.from_table(values)
        fn = lambda n: values[n - 1]
    for n in range(0, 51):
        for k in (1, 2, 3, 4):
            direct = 1.0
            for j in range(n + 1, n + k + 1):
                direct *= fn(j)
            assert f_ratio(f, n, k) == pytest.approx(direct, rel=1e-12)


def test_log_table_increments_match_f():
    f = Nonlinearity.sqrt_n()
    table = log_factorial(f, 40)
    for n in range(40):
        assert table[n + 1] - table[n] == pytest.approx(
            math.log(math.sqrt(n + 1)), rel=1e-13, abs=1e-15
        )
    assert table[0] == 0.0
    # each level's log is math.log's, summed in order
    values = np.random.default_rng(5).uniform(0.1, 10.0, size=300)
    assert log_factorial(Nonlinearity.from_table(values), 300).tolist() == np.cumsum(
        [0.0] + [math.log(v) for v in values]
    ).tolist()


def test_table_monotone_for_f_ge_one():
    f = Nonlinearity.from_table(np.linspace(1.0, 4.0, 30))
    table = log_factorial(f, 30)
    assert np.all(np.diff(table) >= 0.0)


@pytest.mark.parametrize("bad", [-1.0, 0.0, -0.0, math.inf, -math.inf, math.nan])
def test_table_entry_not_finite_and_positive_rejected_when_made(bad):
    # every entry, also beyond the levels any run reads
    with pytest.raises(InvalidNonlinearityError, match=r"f\(3\)"):
        Nonlinearity.from_table([1.0, 2.0, bad])
    with pytest.raises(InvalidNonlinearityError, match=r"f\(500\)"):
        Nonlinearity.from_table([1.0] * 499 + [bad])


def test_table_must_be_non_empty_and_only_tables_hold_values():
    with pytest.raises(InvalidNonlinearityError):
        Nonlinearity.from_table([])
    with pytest.raises(InvalidNonlinearityError):
        Nonlinearity("sqrt_n", (2.0,))
    with pytest.raises(InvalidNonlinearityError):
        Nonlinearity("custom", (2.0,))


def test_inline_table_too_short():
    f = Nonlinearity.from_table([1.0, 2.0])
    assert f.values == (1.0, 2.0)
    assert f.tables(2)[0][2] == 4.0
    with pytest.raises(InvalidNonlinearityError, match=r"need f\(3\)"):
        f.tables(3)


def test_from_name():
    assert Nonlinearity.from_name("identity").kind == "identity"
    assert Nonlinearity.from_name("sqrt_n").kind == "sqrt_n"
    with pytest.raises(InvalidNonlinearityError):
        Nonlinearity.from_name("cubic")


def test_f_squared_table():
    # entry 0 is 0 whatever f(0): it only ever multiplies n(n-1) or n at n = 0
    f2, _ = Nonlinearity.identity().tables(5)
    assert np.array_equal(f2, [0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    f2, _ = Nonlinearity.sqrt_n().tables(5)
    assert np.array_equal(f2, np.arange(6, dtype=float))
    # a table starts at f(1), and is squared as rounded products v * v

    def f(n):
        return 1.0 / math.sqrt(n)  # ZeroDivisionError at n = 0

    f2, lf = Nonlinearity.from_table([f(n) for n in range(1, 7)]).tables(6)
    assert f2.tolist() == [0.0] + [f(n) * f(n) for n in range(1, 7)]
    assert lf[0] == 0.0
    assert lf[6] == pytest.approx(-0.5 * math.log(720.0), rel=1e-14)


def test_oversized_table_entry_squares_to_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f2, lf = Nonlinearity.from_table([2.0, 1e200, 1e154]).tables(3)
    assert f2.tolist() == [0.0, 4.0, math.inf, 1e154 * 1e154]
    assert math.isfinite(lf[3])


def test_nonlinearity_is_immutable():
    f = Nonlinearity.sqrt_n()
    with pytest.raises(AttributeError):
        f.kind = "identity"
    with pytest.raises(AttributeError):
        f.values = (1.0,)
    table = Nonlinearity.from_table([1.0, 2.0])
    assert table.values == (1.0, 2.0) and isinstance(table.values, tuple)
    f2, lf = f.tables(8)
    with pytest.raises(ValueError):
        f2[3] = 1.0
    with pytest.raises(ValueError):
        lf[3] = 1.0
    # a fresh table every call: nothing a caller holds is shared
    assert f.tables(8)[0] is not f2


@pytest.mark.parametrize(
    "f",
    [Nonlinearity.sqrt_n(), Nonlinearity.from_table(np.linspace(0.5, 3.0, 500))],
    ids=["sqrt_n", "table"],
)
def test_shared_instance_gives_the_same_tables_in_any_order(f):
    params = ModelParams(k=2, gamma=1.0, mu=0.1, detuning=0.3, chi=0.01, beta1=0.1, beta2=0.2)
    names = ("R1", "R2", "Rn", "phi", "alpha", "Omega")
    first, wide, again = (CoefficientTable(params, f, n_max) for n_max in (40, 400, 40))
    for name in names:
        a = getattr(first, name)
        assert getattr(again, name).tobytes() == a.tobytes(), name
        assert getattr(wide, name)[:41].tobytes() == a.tobytes(), name
