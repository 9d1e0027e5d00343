"""The theta layer's fast paths against test-local copies of the code they
replaced.

* The radius search starts at the step that a double-precision estimate
  of the bound proposes (:func:`toruslift.theta._step_guess`, the screen)
  and decides every step it looks at in libmp intervals;
  :func:`interval_walk` is the same search started at step 0.  Both must
  give the same certificate, bit for bit, or raise the same error, as the
  guess only decides where the search starts.
* A :class:`ThetaSpec` builds its integer forms from the integer
  numerators of its matrices; :func:`fraction_forms` and
  :func:`fraction_spec_data` are the Fraction computations they replaced.
  Both must give the same integers, every rejection the same class and
  message, and the certificate the same set as one composed in Fraction
  algebra.
"""

import dataclasses
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    min_eigenvalue_bound,
    theta_dk,
    truncation_radius,
)

_PREC = theta_module._PREC
_PI = theta_module._PI
_interval = theta_module._interval
STEPS, SHARE = theta_module._STEPS, theta_module.TAIL_SHARE
radius_search = theta_module._ellipsoid.__wrapped__  # not memoised


# --- the radius search -----------------------------------------------------------


def interval_steps(gram, excess):
    """(top, bound) of the search that tests every step in intervals: the
    last step tried for a radius cap of 40 and the interval bound of step
    k (None where the theorem's condition is not shown)."""
    lam = min_eigenvalue_bound(gram)
    rho = mpmath.libmp.mpi_sqrt(
        mpmath.libmp.mpi_mul(_PI, _interval(lam), _PREC), _PREC)[0]
    return lam, rho, theta_module._theorem2(gram.nrows, rho, excess)


def interval_walk(gram, tol, excess, max_radius):
    """The search without the guess: the least step whose interval bound
    is at most TAIL_SHARE * tol, found by galloping and bisection from step
    0 over every step up to the cap, in intervals."""
    lam, _, bound = interval_steps(gram, excess)
    top = math.floor(STEPS * (max_radius + 1) ** 2
                     * min(gram[i, i] for i in range(gram.nrows)))
    target = tol * SHARE

    def fails(k):
        tail = bound(k)
        return tail is None or not tail <= target

    k = 1 + theta_module._last_true(fails, 0, top + 1)
    if k > top or fails(k):
        raise TruncationBudgetExceeded(
            f"no certified radius <= {max_radius} reaches tail {tol:g}")
    return Fraction(k, STEPS), bound(k), lam


def outcome(search, args):
    """(T, tail_bound.hex(), lambda_min) of a search, or its error."""
    try:
        offset, tail, lam = search(*args)
    except TruncationBudgetExceeded as exc:
        return "raised", str(exc)
    return offset, tail.hex(), lam


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


def _gram(dim, scale, shear):
    """scale (L L^T) for the unit lower-triangular L with ``shear`` below
    the diagonal: positive definite, and skewed for large shears."""
    low = [[1 if i == j else shear if j < i else 0 for j in range(dim)]
           for i in range(dim)]
    return RatMat([[sum(low[i][t] * low[j][t] for t in range(dim))
                    for j in range(dim)] for i in range(dim)]) * scale


grams = st.one_of(
    st.builds(_gram, st.integers(1, 4), fractions(Fraction(1, 100), 50)
              .filter(lambda x: x > 0), st.integers(-2, 2)),
    # ~90-bit entries: wide numerators and denominators for the intervals
    st.builds(lambda dim, m, e: RatMat.identity(dim) * Fraction(m | 1 << 89,
                                                                1 << e),
              st.integers(1, 4), st.integers(0, 2 ** 89),
              st.integers(80, 100)),
)
walk_inputs = st.tuples(
    grams,
    st.floats(2, 30).map(lambda e: 10.0 ** -e),
    st.integers(0, 4000).map(lambda k: Fraction(k, 16)),  # excess
    st.sampled_from((1, 3, 12, 40, 200)),                  # max_radius
)


@settings(max_examples=400, deadline=None)
@given(walk_inputs)
def test_screened_walk_matches_the_interval_walk(args):
    assert_walks_agree(args)


def stop_step(args):
    """The step the search stops on, or None when it raises."""
    got = outcome(interval_walk, args)
    return None if got[0] == "raised" else int(got[0] * STEPS)


@settings(max_examples=150, deadline=None)
@given(walk_inputs, st.integers(-2 ** 10, 2 ** 10))
def test_screen_near_the_tolerance(args, step):
    # tol within 2^-18 of the tail bound of the step the search stops on,
    # or of the step before it: the double-precision guess may land on
    # either side, and the intervals must decide the same step
    gram, tol, excess, cap = args
    k = stop_step(args)
    if k is None:
        return
    _, _, bound = interval_steps(gram, excess)
    for s in (k - 1, k):
        tail = bound(s)
        if tail is None or tail == 0 or math.isinf(tail):
            continue
        near = tail / SHARE * (1 + step * 2.0 ** -28)
        assert_walks_agree((gram, near, excess, cap))


@settings(max_examples=200, deadline=None)
@given(walk_inputs)
def test_screen_skips_only_failing_shells(args):
    # the search tests only a few steps in intervals and decides the rest
    # by monotonicity: every step below the one it stops on fails in
    # intervals and every step from it up to the cap passes
    gram, tol, excess, cap = args
    _, _, bound = interval_steps(gram, excess)
    top = math.floor(STEPS * (cap + 1) ** 2
                     * min(gram[i, i] for i in range(gram.nrows)))
    k = stop_step(args)
    stop = top + 1 if k is None else k
    for s in set(range(0, 30)) | set(range(max(0, stop - 30), stop + 30)):
        if s > top:
            continue
        tail = bound(s)
        passes = tail is not None and tail <= tol * SHARE
        assert passes == (s >= stop), (args, s)


def test_walks_agree_at_the_radius_cap():
    rng = random.Random(5)
    raised = 0
    for _ in range(200):
        gram = _gram(rng.randint(1, 4), Fraction(rng.randint(100, 4000),
                                                 1000), rng.randint(-1, 1))
        args = (gram, 10.0 ** -rng.uniform(3, 30),
                Fraction(rng.randint(0, 800), 16), rng.randint(0, 8))
        raised += assert_walks_agree(args)[0] == "raised"
    assert 20 < raised < 180


def test_walks_agree_on_tolerances_next_to_each_tail_bound():
    rng = random.Random(17)
    for _ in range(60):
        gram = _gram(rng.randint(1, 4),
                     Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 5)),
                     rng.randint(-2, 2))
        excess = Fraction(rng.randint(0, 300), 16)
        k = stop_step((gram, 1e-12, excess, 40))
        if k is None:
            continue
        _, _, bound = interval_steps(gram, excess)
        for s in range(max(1, k - 3), k + 3):
            tail = bound(s)
            if tail is None or not 0 < tail < math.inf:
                continue
            tail /= SHARE
            for tol in (math.nextafter(tail, 0), tail,
                        math.nextafter(tail, math.inf),
                        tail * (1 - 2.0 ** -18), tail * (1 + 2.0 ** -18)):
                assert_walks_agree((gram, tol, excess, 40))


def test_the_screen_leaves_out_of_range_inputs_to_the_intervals():
    # a rho or tol of zero makes the doubles raise, and the guess is step
    # 0; a subnormal rho, a subnormal tol or a nan still proposes a step
    # below the cap, where the intervals take over
    guess = theta_module._step_guess
    assert guess(2, 0.0, Fraction(0), 1e-12, 200) == 0
    assert guess(1, 1.0, Fraction(0), 0.0, 200) == 0
    for rho, tol in ((1e-320, 1e-12), (1.0, 5e-324), (1.0, math.nan)):
        assert 0 <= guess(1, rho, Fraction(0), tol, 200) < 200
    # an excess far past any tail: both searches raise at the cap
    args = (RatMat.identity(4), 1e-12, Fraction(10 ** 250), 3)
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
    original = theta_module._ellipsoid
    theta_module._ellipsoid = record
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
        theta_module._ellipsoid = original
    return recorded


def test_intervals_run_at_one_shell_on_workload_like_misses(monkeypatch):
    # the guess is right on every miss: the intervals test the step it
    # proposes, which fails, and the next one, which passes
    calls = []
    theorem2 = theta_module._theorem2

    def counted(*args):
        bound = theorem2(*args)
        return lambda k: calls.append(k) or bound(k)

    misses = workload_like_misses()
    assert len(misses) == 120
    monkeypatch.setattr(theta_module, "_theorem2", counted)
    for args in misses:
        calls.clear()
        got = radius_search(*args)
        k = int(got[0] * STEPS)
        assert calls == [k - 1, k], args
        assert got == interval_walk(*args)


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
    """The certificate of ``theta_dk`` at z, read off its decay form."""
    return truncation_radius(spec.q_form, tol, decay=spec.forms(z)[0],
                             max_radius=spec.max_radius)


def fraction_certificate(spec, z, tol):
    """The certificate composed in Fraction algebra from the series data:
    the decay's minimum mu and centre w0 = p - (Im(tau) D)^{-1} D^T Im z,
    the search at mu rounded down to 1/16, and the box floor(|w0_i| +
    sqrt(T (Q^{-1})_ii)) at 60 digits."""
    im_z = ratvec(im for _, im in z)
    q_inv = spec.q_form.inv()
    shift = q_inv @ (spec.d_mat.T @ im_z)
    centre = tuple(p - s for p, s in zip(spec.p_vec, shift))
    # decay = <S w, w> + 2 <D^T Im z, w> for w = m - p, least at w = -shift
    mu = -vec_dot(spec.d_mat.T @ im_z, shift)
    excess = Fraction(max(0, math.ceil(-16 * mu)), 16)
    offset, tail, lam = theta_module._ellipsoid(spec.q_form, float(tol),
                                                excess, spec.max_radius)
    with mpmath.workdps(60):
        box = tuple(int(mpmath.floor(
            abs(mpmath.mpf(c.numerator) / c.denominator) + mpmath.sqrt(
                mpmath.mpf((offset * q_inv[i, i]).numerator)
                / (offset * q_inv[i, i]).denominator)))
            for i, c in enumerate(centre))
    if max(box) > spec.max_radius:
        raise TruncationBudgetExceeded(
            f"the certified box has radius {max(box)} > {spec.max_radius} "
            f"at tail {tol:g}")
    return theta_module.TruncationCertificate(max(box), tail, lam,
                                              mu + offset, box)


def certificate_outcome(build, args):
    try:
        return build(*args)
    except TruncationBudgetExceeded as exc:
        return "raised", str(exc)


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
                assert certificate_outcome(certificate, (s, z, 1e-12)) == \
                    certificate_outcome(fraction_certificate, (s, z, 1e-12))


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
            monkeypatch.setattr(ThetaSpec, "forms",
                                lambda s, z: fraction_forms(s, z))
            want = theta_dk(spec, z)
            monkeypatch.undo()
            assert (got.value, got.certificate) == (want.value,
                                                    want.certificate)
