"""The spec memo: a ThetaSpec built again from an equal (tau, D, k, xi) in
the same process takes its derived fields from ``theta._spec_parts``."""

import re
from fractions import Fraction

import pytest

from test_golden import GOLDEN, JOBS, lines_digest
from toruslift import theta
from toruslift.errors import InadmissibleSpec
from toruslift.exact import RatMat
from toruslift.theta import ThetaSpec, theta_dk

HALF = Fraction(1, 2)
DERIVED = ("char", "xi_lin", "a_form", "q_form", "p_vec", "_z_free")


def parts(spec):
    return tuple(getattr(spec, name) for name in DERIVED)


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_golden_jobs_run_twice_in_one_process(order):
    # the second pass builds every spec from the memo; no byte may move
    names = sorted(JOBS, reverse=order == "reversed")
    theta._spec_parts.cache_clear()
    for _ in range(2):
        for name in names:
            assert lines_digest(JOBS[name]) == GOLDEN[name], name
    info = theta._spec_parts.cache_info()
    assert info.hits >= info.misses > 0


def test_an_equal_datum_shares_the_derived_fields():
    theta._spec_parts.cache_clear()
    args = (RatMat([[HALF]]), RatMat([[1]]), RatMat([[3]]))
    first = ThetaSpec(*args, (1,), (1,), tol=1e-12)
    # equal values in other spellings, another tol and radius cap
    again = ThetaSpec(RatMat([[Fraction(2, 4)]]), RatMat([[1]]), RatMat([[3]]),
                      [Fraction(1)], (1.0,), tol=1e-9, max_radius=7)
    assert all(a is b for a, b in zip(parts(first), parts(again)))
    assert (again.tol, again.max_radius) == (1e-9, 7)
    assert theta._spec_parts.cache_info()[:2] == (1, 1)
    # the shared forms are tuples all the way down
    for form in first._z_free[:2]:
        assert type(form[1]) is tuple and all(type(r) is tuple for r in form[1])
        assert type(form[2]) is tuple


def test_derived_specs_leave_the_memoised_spec_unchanged():
    theta._spec_parts.cache_clear()
    args = (RatMat([[HALF, 0], [0, HALF]]), RatMat.identity(2),
            RatMat([[2, 1], [1, 2]]))
    spec = ThetaSpec(*args, (1, 0), (1, 1))
    before = parts(spec)
    snapshot = repr(before)
    derived = [spec.with_char((0, 1)), spec.bar(), spec.bar().with_char((1, 1))]
    z = [(Fraction(1, 5), Fraction(1, 10)), (Fraction(-3, 10), Fraction(0))]
    for other in derived:
        theta_dk(other, z)
    assert all(a is b for a, b in zip(parts(spec), before))
    assert repr(parts(spec)) == snapshot
    rebuilt = ThetaSpec(*args, (1, 0), (1, 1))
    assert all(a is b for a, b in zip(parts(rebuilt), before))
    # and the derived specs equal fresh builds of their data
    fresh = ThetaSpec(*args, (0, 1), (1, 1))
    assert parts(derived[0]) == parts(fresh)
    conj = ThetaSpec(-args[0], *args[1:], (1, 1), (1, 1))
    assert parts(derived[2]) == parts(conj)


@pytest.mark.parametrize("args, message", [
    ((RatMat([[1]]), RatMat([[1]]), RatMat([[0]]), (0,)),
     "slope matrix must be nonsingular"),
    ((RatMat([[0]]), RatMat([[1]]), RatMat([[-1]]), (0,)),
     "Im(tau) D is not positive definite"),
    ((RatMat([[0]]), RatMat([[1]]), RatMat([[2]]), (HALF,)),
     "characteristic must have integer entries"),
    ((RatMat([[0]]), RatMat([[1]]), RatMat([[2]]), (0,), (2,)),
     "xi_lin must be a 0/1 vector of length n"),
])
def test_an_inadmissible_spec_raises_on_every_call(args, message):
    theta._spec_parts.cache_clear()
    for _ in range(3):
        with pytest.raises(InadmissibleSpec, match=f"^{re.escape(message)}$"):
            ThetaSpec(*args)
    info = theta._spec_parts.cache_info()
    assert (info.hits, info.currsize) == (0, 0)


def test_the_memo_is_bounded():
    assert theta._spec_parts.cache_info().maxsize == 512
