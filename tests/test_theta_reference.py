"""The theta layer's fast paths against test-local copies of the code they
replaced.

* The radius walk screens shells in doubles and tests the rest in libmp
  intervals; :func:`interval_walk` is the walk that tested every shell in
  intervals.  Both must give the same certificate, bit for bit, or raise
  the same error.
* A :class:`ThetaSpec` builds its integer forms from the integer
  numerators of its matrices; :func:`fraction_forms` and
  :func:`fraction_spec_data` are the Fraction computations they replaced.
  Both must give the same integers, and every rejection the same class and
  message.
"""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    mpi_add, mpi_div, mpi_exp, mpi_mul, mpi_neg, mpi_pow, mpi_sub, to_float,
)

from fractionforms import ref_centered_form, ref_int_form
import toruslift.runner as runner_module
import toruslift.theta as theta_module
from toruslift.brane import admissible_d, xi_bits
from toruslift.config import parse_config
from toruslift.errors import InadmissibleSpec, TruncationBudgetExceeded
from toruslift.exact import RatMat, ratvec, vec_add, vec_dot
from toruslift.runner import run
from toruslift.theta import (
    ThetaSpec,
    _exact_z,
    _theta_certificate,
    min_eigenvalue_bound,
    theta_dk,
    truncation_radius,
)

_PREC = theta_module._PREC
_PI = theta_module._PI
_int_interval = theta_module._int_interval
_interval = theta_module._interval
radius_search = theta_module._radius_search.__wrapped__  # not memoised


# --- the radius walk -----------------------------------------------------------


def interval_shells(lam, dim, c1, c0, shift):
    """(start, ratio(s), tail(s)) of the walk that tests every shell in
    intervals: the first radius tried and the upper endpoints, as doubles,
    of the shell ratio and of twice the shell bound at shell s."""
    neg_lam = mpi_neg(_interval(lam), _PREC)
    c1_iv, c0_iv, shift_iv = _interval(c1), _interval(c0), _interval(shift)
    one, two = _int_interval(1), _int_interval(2)
    count0, power = _int_interval(2 * dim), _int_interval(dim - 1)

    def tail(s):
        s_iv = _int_interval(s)
        gap = mpi_sub(s_iv, shift_iv, _PREC)
        quad = mpi_mul(mpi_mul(neg_lam, gap, _PREC), gap, _PREC)
        expo = mpi_add(quad, mpi_mul(c1_iv, s_iv, _PREC), _PREC)
        expo = mpi_mul(_PI, mpi_add(expo, c0_iv, _PREC), _PREC)
        count = mpi_pow(_int_interval(2 * s + 1), power, _PREC)
        count = mpi_mul(count0, count, _PREC)
        bound = mpi_mul(count, mpi_exp(expo, _PREC), _PREC)
        return to_float(mpi_mul(two, bound, _PREC)[1])

    def ratio(s):
        gap = mpi_sub(_int_interval(s), shift_iv, _PREC)
        count_ratio = mpi_div(_int_interval(2 * s + 3),
                              _int_interval(2 * s + 1), _PREC)
        count_ratio = mpi_pow(count_ratio, power, _PREC)
        slope = mpi_add(mpi_mul(two, gap, _PREC), one, _PREC)
        expo = mpi_add(mpi_mul(neg_lam, slope, _PREC), c1_iv, _PREC)
        expo = mpi_mul(_PI, expo, _PREC)
        return to_float(mpi_mul(count_ratio, mpi_exp(expo, _PREC), _PREC)[1])

    return max(0, math.ceil(to_float(shift_iv[1]))), ratio, tail


def interval_walk(lam, dim, c1, c0, shift, tol, max_radius):
    """The radius walk as it was before the float screen: every shell is
    tested in outward-rounded libmp intervals."""
    start, ratio, tail = interval_shells(lam, dim, c1, c0, shift)
    for m_try in range(start, max_radius + 1):
        s1 = m_try + 1
        if ratio(s1) > 0.5:
            continue
        bound = tail(s1)
        if bound <= tol:
            return theta_module.TruncationCertificate(
                radius=m_try, tail_bound=bound, lambda_min=lam)
    raise TruncationBudgetExceeded(
        f"no certified radius <= {max_radius} reaches tail {tol:g}")


def outcome(search, args):
    """(radius, tail_bound.hex(), lambda_min) of a walk, or its error."""
    try:
        cert = search(*args)
    except TruncationBudgetExceeded as exc:
        return "raised", str(exc)
    return cert.radius, cert.tail_bound.hex(), cert.lambda_min


def assert_walks_agree(args):
    want = outcome(interval_walk, args)
    assert outcome(radius_search, args) == want, args
    return want


def fractions(lo, hi, dens=(1, 2, 3, 7, 10, 64, 1000, 2 ** 20, 3 ** 13,
                            2 ** 53)):
    """Rationals in [lo, hi] over assorted denominators."""
    return st.builds(
        lambda den, t: Fraction(math.floor((lo + t * (hi - lo)) * den), den),
        st.sampled_from(dens), st.floats(0, 1))


lambdas = st.one_of(
    fractions(Fraction(1, 1000), 50).filter(lambda x: x > 0),
    # ~90-bit numerators, as min_eigenvalue_bound returns for real Grams
    st.builds(lambda m, e: Fraction(m | 1 << 89, 1 << e),
              st.integers(0, 2 ** 89), st.integers(80, 100)),
)
walk_inputs = st.tuples(
    lambdas,
    st.integers(1, 4),
    fractions(0, 300),                      # c1
    fractions(-2000, 2000),                 # c0
    fractions(0, 60),                       # shift
    st.floats(3, 30).map(lambda e: 10.0 ** -e),
    st.sampled_from((1, 3, 12, 60, 200)),   # max_radius
)


@settings(max_examples=400, deadline=None)
@given(walk_inputs)
def test_screened_walk_matches_the_interval_walk(args):
    assert_walks_agree(args)


@settings(max_examples=150, deadline=None)
@given(walk_inputs, st.integers(-2 ** 10, 2 ** 10))
def test_screen_near_the_tolerance(args, step):
    # tol within 2^-18 of the tail bound of the shell the walk stops on, or
    # of the shell before it: the screen sees a margin at or below its own
    # and must leave the decision to the intervals
    lam, dim, c1, c0, shift, _, _ = args
    start, ratio, tail = interval_shells(lam, dim, c1, c0, shift)
    for s in range(start + 1, start + 9):
        bound = tail(s)
        if bound == 0 or math.isinf(bound):
            continue
        tol = bound * (1 + step * 2.0 ** -28)
        assert_walks_agree((lam, dim, c1, c0, shift, tol, s + 1))


@settings(max_examples=200, deadline=None)
@given(walk_inputs)
def test_screen_skips_only_failing_shells(args):
    lam, dim, c1, c0, shift, tol, _ = args
    fails = theta_module._float_screen(lam, dim, c1, c0, shift, tol)
    start, ratio, tail = interval_shells(lam, dim, c1, c0, shift)
    for s in range(start + 1, start + 31):
        if fails(s):
            assert ratio(s) > 0.5 or tail(s) > tol, (args, s)


def test_walks_agree_at_the_radius_cap():
    rng = random.Random(5)
    raised = 0
    for _ in range(200):
        args = (Fraction(rng.randint(100, 4000), 1000),
                rng.randint(1, 4), Fraction(rng.randint(0, 20), 7),
                Fraction(rng.randint(-50, 100), 3),
                Fraction(rng.randint(0, 10), 4),
                10.0 ** -rng.uniform(3, 30), rng.randint(0, 8))
        raised += assert_walks_agree(args)[0] == "raised"
    assert 20 < raised < 180


def test_walks_agree_on_tolerances_next_to_each_tail_bound():
    rng = random.Random(17)
    for _ in range(60):
        lam = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 5))
        dim, shift = rng.randint(1, 4), Fraction(rng.randint(0, 30), 10)
        c1 = Fraction(rng.randint(0, 100), rng.choice((1, 7, 2 ** 53)))
        c0 = Fraction(rng.randint(-300, 300), rng.choice((1, 3)))
        start, _, tail = interval_shells(lam, dim, c1, c0, shift)
        for s in range(start + 1, start + 6):
            bound = tail(s)
            if not 0 < bound < math.inf:
                continue
            for tol in (math.nextafter(bound, 0), bound,
                        math.nextafter(bound, math.inf),
                        bound * (1 - 2.0 ** -18), bound * (1 + 2.0 ** -18)):
                assert_walks_agree((lam, dim, c1, c0, shift, tol, 60))


def test_the_screen_leaves_out_of_range_inputs_to_the_intervals():
    huge = Fraction(10 ** 400)
    fails = theta_module._float_screen(huge, 2, Fraction(0), Fraction(0),
                                       Fraction(0), 1e-12)
    assert not any(fails(s) for s in range(1, 5))
    for tol in (0.0, 5e-324, math.nan):
        fails = theta_module._float_screen(Fraction(1), 1, Fraction(0),
                                           Fraction(0), Fraction(0), tol)
        assert not any(fails(s) for s in range(1, 5))
    # an exponent far past the double range: the tail bound overflows to
    # inf in the estimate, which then decides nothing
    args = (Fraction(1, 10 ** 6), 4, Fraction(10 ** 250), Fraction(0),
            Fraction(0), 1e-12, 3)
    assert assert_walks_agree(args)[0] == "raised"


def workload_like_misses():
    """The exact inputs of the radius searches of theta jobs and pair sums
    like the benchmark's: n = 1 and n = 2 specs, points in [-1/2, 1/2]^2,
    tol 1e-12 and 1e-20."""
    rng = random.Random(2024)
    recorded = []

    def record(*args):
        recorded.append(args)
        return radius_search(*args)

    def point(n):
        return [(Fraction(rng.randint(-50, 50), 100),
                 Fraction(rng.randint(-50, 50), 100)) for _ in range(n)]

    slopes = ([[1, 0], [0, 1]], [[2, 1], [1, 2]], [[2, -1], [-1, 2]],
              [[2, 0], [0, 1]])
    original = theta_module._radius_search
    theta_module._radius_search = record
    try:
        for _ in range(40):
            d = rng.randint(1, 3)
            spec = ThetaSpec(
                RatMat([[rng.choice((0, Fraction(1, 2), Fraction(-1, 3)))]]),
                RatMat([[rng.choice((1, Fraction(3, 4)))]]), RatMat([[d]]),
                (rng.randrange(d),), (rng.randint(0, 1),))
            certificate(spec, point(1), rng.choice((1e-12, 1e-20)))
            c = rng.choice((0, Fraction(1, 2), Fraction(-1, 2)))
            spec2 = ThetaSpec(RatMat([[c, 0], [0, c]]), RatMat.identity(2),
                              RatMat(rng.choice(slopes)),
                              (rng.randint(0, 1), rng.randint(0, 1)))
            certificate(spec2, point(2), rng.choice((1e-12, 1e-20)))
            tau = complex(rng.choice((0, 0.5)), rng.choice((1, 0.75)))
            theta_module.gaussian_theta_lhs(
                tau, complex(*map(float, point(1)[0])),
                complex(*map(float, point(1)[0])), 1e-12)
    finally:
        theta_module._radius_search = original
    return recorded


def test_intervals_run_at_one_shell_on_workload_like_misses(monkeypatch):
    # each interval shell test evaluates the ratio and, when that passes,
    # the tail: one exponential each
    calls = []
    monkeypatch.setattr(theta_module, "mpi_exp",
                        lambda *a: calls.append(1) or mpi_exp(*a))
    misses = workload_like_misses()
    assert len(misses) == 120
    for args in misses:
        calls.clear()
        cert = radius_search(*args)
        assert len(calls) == 2, args
        assert cert == interval_walk(*args)


# --- the spec's forms --------------------------------------------------------


def fraction_spec_data(tau_re, tau_im, d_mat, char=(), xi_lin=()):
    """The derived data of a spec as it was computed by Fraction algebra:
    (a_form, char, xi_lin, q_form, p_vec), or the error it raised."""
    a_form = admissible_d(tau_re, tau_im, d_mat, error=InadmissibleSpec)
    n = d_mat.nrows
    char = tuple(int(c) for c in char) or (0,) * n
    if len(char) != n:
        raise InadmissibleSpec(f"characteristic must have length {n}")
    xi_lin = xi_bits(xi_lin, n, InadmissibleSpec)
    return (a_form, char, xi_lin, tau_im @ d_mat,
            d_mat.inv() @ ratvec(char))


def fraction_forms(spec, z):
    """The decay and turns forms as they were computed through Fraction
    vectors and the Fraction form references."""
    half, p = Fraction(1, 2), spec.p_vec
    a = spec.a_form
    re_mat, re_lin, re_const = ref_centered_form(spec.tau_re @ spec.d_mat, p)
    t_mat = [[half * (x + (a[i, j] if j > i else 0))
              for j, x in enumerate(row)] for i, row in enumerate(re_mat)]
    z_re, z_im = ratvec(re for re, _ in z), ratvec(im for _, im in z)
    t_lin = tuple(half * (x + b + y) + w for x, b, y, w in zip(
        re_lin, spec.xi_lin, a.T @ p, spec.d_mat.T @ z_re))
    t_const = half * re_const - vec_dot(spec.char, z_re)
    q_mat, q_lin, q_const = ref_centered_form(spec.q_form, p)
    q_lin = vec_add(q_lin, spec.d_mat.T @ tuple(2 * x for x in z_im))
    q_const -= 2 * vec_dot(spec.char, z_im)
    return (ref_int_form(q_mat, q_lin, q_const),
            ref_int_form(t_mat, t_lin, t_const))


def certificate(spec, z, tol):
    """The certificate of ``theta_dk`` at z, from the pairing of Im z that
    it shares with the forms."""
    return _theta_certificate(spec, spec._pairings(im for _, im in z), tol)


def fraction_certificate(spec, z, tol):
    im_z = ratvec(im for _, im in z)
    lin = 2 * sum(abs(c) for c in (spec.d_mat.T @ im_z))
    const = 2 * vec_dot(ratvec(spec.char), im_z)
    shift = max((abs(c) for c in spec.p_vec), default=Fraction(0))
    return truncation_radius(spec.q_form, linear_bound=lin, tol=tol,
                             center_shift=shift, constant_exponent=const,
                             max_radius=spec.max_radius)


DENS = (1, 2, 3, 5, 7, 10, 12, 64, 1000, 2 ** 20, 3 ** 7)


def seeded_spec_inputs(rng, n):
    """(tau_re, tau_im, D, k, xi) with Im(tau) D = S symmetric positive
    definite and Re(tau) D = M with M - M^T integral, both rational, so
    that tau = (M + i S) D^{-1} is admissible; Re(tau) is never zero."""
    while True:
        d_mat = RatMat([[rng.randint(-3, 3) for _ in range(n)]
                        for _ in range(n)])
        if d_mat.det() != 0:
            break
    low = RatMat([[rng.randint(-2, 2) if j < i else rng.randint(1, 3) * (i == j)
                   for j in range(n)] for i in range(n)])
    s_mat = (low @ low.T) * Fraction(rng.randint(1, 9), rng.choice(DENS))
    sym = [[Fraction(rng.randint(-9, 9), rng.choice(DENS)) for _ in range(n)]
           for _ in range(n)]
    m_mat = RatMat([[sym[min(i, j)][max(i, j)] + rng.randint(-2, 2)
                     for j in range(n)] for i in range(n)])
    if m_mat.is_zero():
        m_mat = RatMat.identity(n) * Fraction(1, 3)
    d_inv = d_mat.inv()
    char = tuple(rng.randint(-4, 4) for _ in range(n))
    xi = tuple(rng.randint(0, 1) for _ in range(n))
    return m_mat @ d_inv, s_mat @ d_inv, d_mat, char, xi


def seeded_points(rng, n, count):
    points = []
    for _ in range(count):
        points.append([(Fraction(rng.randint(-60, 60), rng.choice(DENS)),
                        Fraction(rng.randint(-60, 60), rng.choice(DENS)))
                       for _ in range(n)])
    # floats enter exactly, over powers of two
    points.append(_exact_z([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                            for _ in range(n)], n))
    return points


def derived(spec):
    return (spec.a_form, spec.char, spec.xi_lin, spec.q_form, spec.p_vec)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_forms_are_the_fraction_forms(n):
    rng = random.Random(100 + n)
    for _ in range(25):
        inputs = seeded_spec_inputs(rng, n)
        spec = ThetaSpec(*inputs, tol=1e-12)
        assert derived(spec) == fraction_spec_data(*inputs)
        other = tuple(rng.randint(-5, 5) for _ in range(n))
        shifted, conjugate = spec.with_char(other), spec.bar()
        assert derived(shifted) == fraction_spec_data(
            inputs[0], inputs[1], inputs[2], other, inputs[4])
        assert derived(conjugate) == fraction_spec_data(
            -inputs[0], *inputs[1:])
        assert conjugate == ThetaSpec(-inputs[0], *inputs[1:], tol=1e-12)
        assert shifted == ThetaSpec(*inputs[:3], other, inputs[4], tol=1e-12)
        for z in seeded_points(rng, n, 3):
            for s in (spec, shifted, conjugate):
                assert s.forms(z) == fraction_forms(s, z)
                assert outcome(certificate, (s, z, 1e-12)) == \
                    outcome(fraction_certificate, (s, z, 1e-12))


def test_forms_of_the_zero_characteristic_and_the_zero_point():
    spec = ThetaSpec(RatMat([[Fraction(1, 2)]]), RatMat([[1]]), RatMat([[2]]))
    z = [(Fraction(0), Fraction(0))]
    assert spec.forms(z) == fraction_forms(spec, z)
    assert spec.forms(z)[1] == (2, [[1]], [0], 0)  # m^2 / 2


HALF = Fraction(1, 2)
REJECTIONS = {
    "D shape": (RatMat([[0]]), RatMat([[1]]), RatMat.identity(2), (), ()),
    "tau shape": (RatMat([[0]]), RatMat.identity(2), RatMat.identity(2),
                  (), ()),
    "D not integral": (RatMat([[0]]), RatMat([[1]]), RatMat([[HALF]]), (), ()),
    "D singular": (RatMat([[0]]), RatMat([[1]]), RatMat([[0]]), (), ()),
    "not symmetric": (RatMat.zeros(2, 2), RatMat.identity(2),
                      RatMat([[2, 1], [0, 3]]), (), ()),
    "not positive": (RatMat([[0]]), RatMat([[-1]]), RatMat([[1]]), (), ()),
    "A not integral": (RatMat([[0, HALF], [HALF, 0]]), RatMat.identity(2),
                       RatMat([[2, 1], [1, 1]]), (), ()),
    "char length": (RatMat([[0]]), RatMat([[1]]), RatMat([[1]]), (1, 2), ()),
    "xi not 0/1": (RatMat([[0]]), RatMat([[1]]), RatMat([[1]]), (0,), (2,)),
    "xi length": (RatMat.zeros(2, 2), RatMat.identity(2), RatMat.identity(2),
                  (0, 0), (1,)),
    "D first": (RatMat([[0]]), RatMat([[1]]), RatMat([[0]]), (1, 2), (2,)),
    "char before xi": (RatMat([[0]]), RatMat([[1]]), RatMat([[1]]), (1, 2),
                       (2,)),
}


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return info.type, str(info.value)


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_rejections_keep_their_class_and_message(case):
    args = REJECTIONS[case]
    want = raised(lambda: fraction_spec_data(*args))
    assert want[0] is InadmissibleSpec
    assert raised(lambda: ThetaSpec(*args)) == want


@pytest.mark.parametrize("char", [(1, 2), (), (0, 0, 0)])
def test_with_char_rejections_keep_their_class_and_message(char):
    spec = ThetaSpec(RatMat([[Fraction(1, 3), 0], [0, Fraction(1, 3)]]),
                     RatMat.identity(2), RatMat([[2, 1], [1, 2]]), (1, 0))
    args = (spec.tau_re, spec.tau_im, spec.d_mat, char, spec.xi_lin)
    try:
        want = fraction_spec_data(*args)
    except InadmissibleSpec as exc:
        assert raised(lambda: spec.with_char(char)) == \
            (InadmissibleSpec, str(exc))
    else:
        assert derived(spec.with_char(char)) == want
    assert spec.char == (1, 0)  # the spec itself is unchanged


# --- admissibility: one check per spec -------------------------------------------


def count_checks(monkeypatch):
    # a spec built earlier in the process is memoised and checks nothing:
    # start from an empty memo, as a new process does
    theta_module._spec_parts.cache_clear()
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return admissible_d(*args, **kwargs)

    monkeypatch.setattr(theta_module, "admissible_d", counted)
    monkeypatch.setattr(runner_module, "admissible_d", counted)
    return calls


def test_derived_specs_are_not_checked_again(monkeypatch):
    spec = ThetaSpec(RatMat([[HALF]]), RatMat([[1]]), RatMat([[2]]), (1,))
    calls = count_checks(monkeypatch)
    spec.with_char((0,)).bar().with_char((3,))
    theta_module.theta_bar_dk(spec, [0.1 + 0.2j])
    theta_module.verify_characteristic_shift(spec, [0.1j], [1])
    assert calls == []


USUB = """
[torus]
n = 1
tau = 1/2+i

[task usub]
d = {d}
points = 1/5 -1/10 0 1/4
"""


def usub_job(d, xi):
    """A usub job; xi is set after parsing, as a library caller may."""
    config = parse_config(USUB.format(d=d))
    (task,) = config.tasks
    params = tuple(sorted({**dict(task.params), "xi": xi}.items()))
    return dataclasses.replace(
        config, tasks=(dataclasses.replace(task, params=params),))


def test_a_usub_job_checks_d_once(monkeypatch):
    calls = count_checks(monkeypatch)
    (record,) = run(usub_job(2, (1,)))
    assert record.status == "pass"
    assert len(calls) == 1


@pytest.mark.parametrize("d, xi, error", [
    (-1, (0,), "InadmissibleD: Im(tau) D is not positive definite"),
    (2, (2,), "InadmissibleSpec: xi_lin must be a 0/1 vector of length n"),
    (-1, (2,), "InadmissibleD: Im(tau) D is not positive definite"),
])
def test_usub_rejections_name_their_class(d, xi, error):
    (record,) = run(usub_job(d, xi))
    assert (record.status, record.detail) == ("error", error)


def test_theta_values_are_unchanged_on_fraction_forms(monkeypatch):
    # the certified value computed from the reference forms is the same
    # value, bit for bit
    rng = random.Random(9)
    for n in (1, 2):
        for _ in range(4):
            spec = ThetaSpec(*seeded_spec_inputs(rng, n), tol=1e-12)
            while min_eigenvalue_bound(spec.q_form) < Fraction(1, 4):
                spec = ThetaSpec(*seeded_spec_inputs(rng, n), tol=1e-12)
            z = [(Fraction(rng.randint(-1, 1), rng.choice(DENS)),
                  Fraction(rng.randint(-1, 1), rng.choice(DENS)))
                 for _ in range(n)]
            got = theta_dk(spec, z)
            monkeypatch.setattr(ThetaSpec, "_forms",
                                lambda s, z, im: fraction_forms(s, z))
            want = theta_dk(spec, z)
            monkeypatch.undo()
            assert (got.value, got.certificate) == (want.value,
                                                    want.certificate)
