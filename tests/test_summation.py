import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslift.summation import DDContext, DoubleContext, exp_pi, get_context

finite = st.floats(
    min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False
)
INF, NAN = float("inf"), float("nan")


def _rounded(num: int, den: int, bits: int = 106) -> Fraction:
    """num / den rounded half-even to ``bits`` significant bits, in plain
    integer arithmetic: q = num 2^-e / den with q of exactly ``bits`` bits,
    then the remainder decides the last bit."""
    if num == 0:
        return Fraction(0)
    sign = -1 if (num < 0) != (den < 0) else 1
    num, den = abs(num), abs(den)
    e = num.bit_length() - den.bit_length() - bits
    while True:
        a, b = (num << -e, den) if e < 0 else (num, den << e)
        q, r = divmod(a, b)
        if q.bit_length() > bits:
            e += 1
        elif q.bit_length() < bits:
            e -= 1
        else:
            break
    if 2 * r > b or (2 * r == b and q & 1):
        q += 1
    return sign * q * Fraction(2) ** e


def _exact(x) -> Fraction:
    """The exact value of a finite mpf, read from its raw tuple."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


def _dd_rounded(exact: Fraction) -> Fraction:
    return _rounded(exact.numerator, exact.denominator)


def _dd_terms(rng, count, complex_terms):
    """Seeded mpf/mpc terms: 106-bit mantissas of either sign, exponents
    spread over 400 bits, so partial sums cancel and lose bits."""
    dd = get_context("dd")

    def part():
        man = rng.choice((-1, 1)) * rng.getrandbits(106)
        e = rng.randint(-300, 100)
        return dd.ratio(man << max(e, 0), 1 << max(-e, 0))

    if complex_terms:
        return [dd._mp.mpc(part(), part()) for _ in range(count)]
    return [part() for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(finite, finite), max_size=60))
def test_double_sum_is_the_correctly_rounded_exact_sum(pairs):
    got = get_context("double").sum([complex(re, im) for re, im in pairs])
    want_re = float(sum((Fraction(re) for re, _ in pairs), Fraction(0)))
    want_im = float(sum((Fraction(im) for _, im in pairs), Fraction(0)))
    assert (got.real.hex(), got.imag.hex()) == (want_re.hex(), want_im.hex())


@pytest.mark.parametrize("complex_terms", [False, True])
def test_dd_sum_is_the_exact_sum_rounded_once(complex_terms):
    dd = get_context("dd")
    rng = random.Random(11)
    for count in (2, 3, 17, 200):
        terms = _dd_terms(rng, count, complex_terms)
        got = dd.sum(terms)
        if complex_terms:
            assert isinstance(got, dd._mp.mpc)
            assert _exact(got.real) == _dd_rounded(sum(_exact(t.real) for t in terms))
            assert _exact(got.imag) == _dd_rounded(sum(_exact(t.imag) for t in terms))
        else:
            assert isinstance(got, dd._mp.mpf)
            assert _exact(got) == _dd_rounded(sum(_exact(t) for t in terms))


def test_dd_sum_takes_real_and_complex_terms_together():
    dd = get_context("dd")
    got = dd.sum([dd.real(1), dd.to_complex(Fraction(1, 2), 3), dd.real(-2)])
    assert isinstance(got, dd._mp.mpc)
    assert (_exact(got.real), _exact(got.imag)) == (Fraction(-1, 2), 3)


def test_sum_does_not_depend_on_term_order():
    rng = random.Random(3)
    double, dd = get_context("double"), get_context("dd")
    zs = [complex(rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8),
                  rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8))
          for _ in range(1000)]
    ws = _dd_terms(rng, 300, True)
    want_double = double.sum(zs)
    want_dd = dd.sum(ws)
    for _ in range(3):
        rng.shuffle(zs)
        rng.shuffle(ws)
        got = double.sum(zs)
        assert (got.real.hex(), got.imag.hex()) == (
            want_double.real.hex(), want_double.imag.hex())
        assert dd.sum(ws)._mpc_ == want_dd._mpc_


def test_cancellation_keeps_the_small_terms():
    # 1 + huge - huge: a sum rounded once keeps both ones
    xs = [1.0, 1e100, 1.0, -1e100]
    assert get_context("double").sum(xs) == 2
    dd = get_context("dd")
    assert dd.sum([dd.real(x) for x in xs]) == 2


def test_empty_and_single():
    double, dd = get_context("double"), get_context("dd")
    assert double.sum([]) == 0
    assert double.sum([3.5]) == 3.5
    assert double.sum([complex(0.1, -0.3)]) == complex(0.1, -0.3)
    assert dd.sum([]) == 0
    third = dd.real(Fraction(1, 3))
    assert dd.sum([third])._mpf_ == third._mpf_
    z = dd.to_complex(Fraction(1, 3), Fraction(-1, 7))
    assert dd.sum([z])._mpc_ == z._mpc_


def test_complex_terms():
    zs = [complex(0.1, -0.2)] * 10
    got = get_context("double").sum(zs)
    assert isinstance(got, complex)
    assert got == complex(1.0, -2.0)  # ten times the doubles nearest 0.1, -0.2


def test_double_sum_of_non_finite_terms():
    double = get_context("double")
    assert double.sum([1.0, complex(INF, 2), 3.0]) == complex(INF, 2)
    got = double.sum([complex(1, NAN), 2.0])
    assert got.real == 3 and math.isnan(got.imag)
    with pytest.raises(ValueError):
        double.sum([INF, 1.0, -INF])


def test_dd_sum_of_non_finite_terms():
    dd = get_context("dd")
    one, inf, nan = dd.real(1), dd.real(INF), dd.real(NAN)
    assert dd.sum([one, inf, one]) == inf
    assert dd.sum([one, -inf]) == -inf
    assert mpmath.isnan(dd.sum([inf, one, -inf]))
    assert mpmath.isnan(dd.sum([nan, one]))
    got = dd.sum([dd._mp.mpc(1, inf), dd._mp.mpc(2, 1)])
    assert got.real == 3 and got.imag == inf


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
        assert _exact(dd.ratio(num, den)) == _rounded(num, den)
        assert _exact(dd.real(exact)) == _rounded(num, den)
    for _ in range(300):
        num = rng.choice((-1, 1)) * rng.randrange(2 ** 149, 2 ** 150)
        den = rng.randrange(2 ** 139, 2 ** 140)
        assert _exact(dd.ratio(num, den)) == _rounded(num, den)
        assert _exact(dd.real(Fraction(num, den))) == _rounded(num, den)


def _bits(z):
    if hasattr(z, "_mpc_"):
        return z._mpc_
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("name", ["double", "dd"])
def test_exp_pi_is_each_inline_exponent_it_replaced(name):
    # the four inline forms exp_pi replaced: the mu2_base prefactor (negated
    # decay), the trivialization factor and the quasi-periodicity factor
    # (turns reduced by Fraction arithmetic) and the shift phase (no decay)
    ctx = get_context(name)

    def inline(decay, turns):
        return ctx.exp(ctx.to_complex(ctx.pi * ctx.real(decay),
                                      2 * ctx.pi * ctx.real(turns % 1)))

    def prefactor(decay, turns):
        red = Fraction(turns.numerator % turns.denominator, turns.denominator)
        return ctx.exp(ctx.to_complex(-ctx.pi * ctx.real(decay),
                                      2 * ctx.pi * ctx.real(red)))

    def phase(turns):
        return ctx.exp(ctx.to_complex(0, 2 * ctx.pi * ctx.real(turns % 1)))

    rng = random.Random(1313)
    for i in range(400):
        den = rng.randint(1, 10 ** rng.randint(1, 12))
        decay = Fraction(rng.randint(-40 * den, 40 * den), den) if i % 4 else \
            Fraction(0)
        turns = Fraction(rng.randint(-5 * den, 5 * den), rng.randint(1, 10 ** 6))
        assert _bits(exp_pi(ctx, decay, turns)) == _bits(inline(decay, turns))
        assert _bits(exp_pi(ctx, -decay, turns)) == \
            _bits(prefactor(decay, turns))
        assert _bits(exp_pi(ctx, 0, turns)) == _bits(phase(turns))
