import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslift.summation import (
    CHUNK_SIZE,
    DDContext,
    DoubleContext,
    compensated_sum,
    get_context,
    neumaier_sum,
)

finite = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


@settings(max_examples=100, deadline=None)
@given(st.lists(finite, max_size=600))
def test_compensated_sum_error_bound(xs):
    # compare against the exact rational sum
    exact = float(sum((Fraction(x) for x in xs), Fraction(0)))
    got = compensated_sum(xs)
    eps = 2.220446049250313e-16
    bound = 4 * eps * sum(abs(x) for x in xs) + 1e-300
    assert abs(got - exact) <= bound


def test_neumaier_classic_cancellation():
    # 1 + huge - huge must survive compensation
    assert neumaier_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert math.fsum([1.0, 1e100, 1.0, -1e100]) == 2.0


def test_empty_and_single():
    assert compensated_sum([]) == 0.0
    assert compensated_sum([3.5]) == 3.5


def test_complex_terms():
    zs = [complex(0.1, -0.2)] * 10
    got = compensated_sum(zs)
    assert isinstance(got, complex)
    assert abs(got - complex(1.0, -2.0)) < 1e-14


def test_chunk_sums_are_summed_in_index_order():
    # the documented reduction: each CHUNK_SIZE chunk, then the chunk sums
    rng = random.Random(7)
    xs = [rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8)
          for _ in range(5 * CHUNK_SIZE + 17)]
    chunks = [xs[i:i + CHUNK_SIZE] for i in range(0, len(xs), CHUNK_SIZE)]
    assert compensated_sum(xs) == neumaier_sum([neumaier_sum(c) for c in chunks])
    dd = get_context("dd")
    terms = [dd.real(Fraction(1, k)) for k in range(1, 4 * CHUNK_SIZE)]
    want = dd.real(0)
    for start in range(0, len(terms), CHUNK_SIZE):
        acc = dd.real(0)
        for t in terms[start:start + CHUNK_SIZE]:
            acc = acc + t
        want = want + acc
    assert str(dd.sum(terms)) == str(want)


def test_get_context_and_defaults():
    d = get_context("double")
    assert isinstance(d, DoubleContext)
    assert d.default_tol == 1e-10
    dd = get_context("dd")
    assert isinstance(dd, DDContext)
    assert dd.default_tol == 1e-20
    with pytest.raises(ValueError):
        get_context("quad")


def test_double_context_ops():
    d = get_context("double")
    assert d.real(Fraction(1, 2)) == 0.5
    z = d.to_complex(Fraction(1, 4), Fraction(-1, 8))
    assert z == complex(0.25, -0.125)
    assert d.abs(d.exp(d.to_complex(0, d.pi))) == pytest.approx(1.0)


def test_dd_context_is_much_more_precise_than_double():
    dd = get_context("dd")
    third = dd.real(Fraction(1, 3))
    err = abs(third * 3 - 1)
    assert float(err) < 1e-30
    # exp at 106 bits matches mpmath's own high-precision value
    import mpmath

    with mpmath.workprec(200):
        ref = mpmath.exp(mpmath.mpf(1) / 3)
    got = dd.exp(dd.real(Fraction(1, 3)))
    assert abs(float(got - ref)) < 1e-30


def test_ratio_rounds_the_exact_fraction_once():
    # wide and unreduced numerators and denominators: converting each to the
    # context's float type first would round twice
    rng = random.Random(5)
    double, dd = get_context("double"), get_context("dd")
    for _ in range(300):
        common = rng.randint(1, 2 ** rng.randint(1, 90))
        num = common * rng.randint(-2 ** 150, 2 ** 150)
        den = common * rng.randint(1, 2 ** rng.randint(1, 150))
        exact = Fraction(num, den)
        assert double.ratio(num, den) == float(exact)
        assert dd.ratio(num, den) == dd.real(exact)
