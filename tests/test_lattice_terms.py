"""Bit-for-bit equivalence of the line-walk kernel ``theta.lattice_sum``.

``mu2_double``, ``mu2_base`` and the theta sum are each one
``lattice_sum``.  Its value must equal, bit for bit, ``ctx.sum`` of the
terms of a per-point ``Fraction`` loop that forms each exponent exactly and
rounds it once.  Those loops are copied here as references, together with
the filtered-cube shell enumeration they walked.  The kernel's values are
captured where each site receives them.  The term evaluators of both
contexts are checked against ``cmath.exp`` and ``mp.exp`` term by term, and
the decay band's fallback is shown to run where a part of the sum is zero
or nearly zero.
"""

import cmath
import math
import random
from fractions import Fraction
from itertools import product

import pytest

from toruslift import floer, theta
from toruslift.brane import _mod1
from toruslift.exact import RatMat, ratvec, vec_add, vec_dot, vec_sub
from toruslift.floer import DoublePoint, _double_gram, mu2_base, mu2_double
from toruslift.lattice import cosets
from toruslift.summation import get_context
from toruslift.theta import (
    ThetaSpec,
    int_form,
    iter_shell,
    lattice_sum,
    spec_n1,
    theta_dk,
)

F = Fraction

# admissible (Re tau, Im tau, D): Re tau != 0 and non-diagonal D, some with
# an odd pairing form A (a quadratic sign structure)
SLOPES = (
    (RatMat([[F(1, 2)]]), RatMat([[1]]), RatMat([[3]])),
    (RatMat([[F(-1, 3)]]), RatMat([[F(3, 4)]]), RatMat([[2]])),
    (RatMat([[0, 1], [0, 0]]), RatMat.identity(2), RatMat([[2, 1], [1, 1]])),
    (RatMat([[1, 1], [0, 1]]), RatMat.identity(2), RatMat([[2, 1], [1, 1]])),
    (RatMat.identity(2) * F(1, 2), RatMat.identity(2),
     RatMat([[2, 1], [1, 2]])),
    (RatMat.zeros(2, 2), RatMat.identity(2), RatMat([[2, 0], [0, 1]])),
)
BIG_PRIMES = (1000003, 999983, 998244353)


def cube_shell(dim, s):
    """The shell as the filtered cube it used to be."""
    if s == 0:
        return [(0,) * dim]
    return [m for m in product(range(-s, s + 1), repeat=dim)
            if max(abs(c) for c in m) == s]


def cube_ball(dim, radius):
    return [m for s in range(radius + 1) for m in cube_shell(dim, s)]


def xi_raw(a_rows, bits, m):
    n = len(bits)
    return (sum(a_rows[i][j] * m[i] * m[j]
                for i in range(n) for j in range(i + 1, n))
            + sum(b * c for b, c in zip(bits, m)))


def old_theta_terms(spec, z, ctx, radius):
    """The theta terms with z taken exactly: every exponent is one Fraction,
    rounded once."""
    p = spec.p_vec
    a = spec.a_form
    re_q = spec.tau_re @ spec.d_mat
    im_q = spec.q_form
    z_re = ratvec(re for re, _ in z)
    z_im = ratvec(im for _, im in z)
    terms = []
    for m in cube_ball(spec.n, radius):
        w = tuple(Fraction(mi) - pi_ for mi, pi_ in zip(m, p))
        g = spec.d_mat @ w  # = D m - k
        turns = (
            Fraction(xi_raw(a.num, spec.xi_lin, m) % 2, 2)
            + vec_dot(p, a @ m) / 2
            + vec_dot(re_q @ w, w) / 2
            + vec_dot(g, z_re)
        ) % 1
        decay = vec_dot(im_q @ w, w) + 2 * vec_dot(g, z_im)
        terms.append(ctx.exp(ctx.to_complex(
            -ctx.pi * ctx.real(decay), 2 * ctx.pi * ctx.real(turns))))
    return terms


def old_base_terms(tau_re, tau_im, d_mat, k, r, phi, bits, ctx, radius):
    a_form = tau_re @ d_mat - d_mat.T @ tau_re.T
    p = d_mat.solve(ratvec(k))
    z_re = vec_sub(tau_re.T @ r, phi)
    z_im = tau_im.T @ r
    q_form = tau_im @ d_mat
    re_q = tau_re @ d_mat
    terms = []
    for m in cube_ball(d_mat.nrows, radius):
        w = vec_sub(ratvec(m), p)
        turns = (
            Fraction(xi_raw(a_form.num, bits, m) % 2, 2)
            + vec_dot(p, a_form @ m) / 2
            + vec_dot(re_q @ w, w) / 2
            + vec_dot(d_mat @ w, z_re)
        )
        decay = vec_dot(q_form @ w, w) + 2 * vec_dot(d_mat @ w, z_im)
        terms.append(ctx.exp(ctx.to_complex(
            -ctx.pi * ctx.real(decay),
            2 * ctx.pi * ctx.real(_mod1(turns)),
        )))
    return terms


def old_double_terms(tau_re, tau_im, d_mat, k, l, pt, bits, ctx, radius):
    a_form = tau_re @ d_mat - d_mat.T @ tau_re.T
    n = d_mat.nrows
    dim = 2 * n
    p = d_mat.solve(ratvec(k))
    q = d_mat.T.solve(vec_add(a_form @ p, ratvec(l)))
    cm = vec_sub(pt.r, p)
    cn = vec_sub(pt.theta_hat, q)
    gram = _double_gram(tau_re, tau_im, d_mat)
    center = tuple(cm) + tuple(cn)
    g_den, g_int = gram.den, gram.num
    d_lin = tuple(2 * x for x in (gram @ center))
    d_const = vec_dot(gram @ center, center)
    d_den = math.lcm(g_den, *(x.denominator for x in d_lin),
                     d_const.denominator)
    d_lin_i = [int(x * d_den) for x in d_lin]
    d_const_i = int(d_const * d_den)
    g_scale = d_den // g_den
    d_int = d_mat.to_int_rows()
    a_int = a_form.to_int_rows()
    half = Fraction(1, 2)
    t_lin_m = tuple(
        -half * x - y - z - half * u + half * v
        for x, y, z, u, v in zip(
            d_mat.T @ cn, a_form.T @ pt.kappa, d_mat.T @ pt.phi,
            a_form @ pt.r, a_form.T @ p,
        )
    )
    t_lin_n = tuple(
        -half * x + y for x, y in zip(d_mat @ cm, d_mat @ pt.kappa)
    )
    t_const = (
        -half * vec_dot(cn, d_mat @ cm)
        + vec_dot(cn, d_mat @ pt.kappa)
        - vec_dot(cm, vec_add(a_form.T @ pt.kappa, d_mat.T @ pt.phi))
        + half * vec_dot(p, a_form @ pt.r)
    )
    t_den = math.lcm(2, *(x.denominator for x in t_lin_m + t_lin_n),
                     t_const.denominator)
    t_lin_i = [int(x * t_den) for x in t_lin_m + t_lin_n]
    t_const_i = int(t_const * t_den)
    t_half = t_den // 2
    terms = []
    for w in cube_ball(dim, radius):
        quad = 0
        for i in range(dim):
            if w[i]:
                quad += w[i] * sum(g_int[i][j] * w[j] for j in range(dim))
        dec_num = quad * g_scale + d_const_i
        xi_cross = 0
        for i in range(n):
            if w[i]:
                xi_cross += w[i] * sum(a_int[i][j] * w[j]
                                       for j in range(i + 1, n))
                xi_cross += bits[i] * w[i]
            xi_cross -= w[n + i] * sum(d_int[i][j] * w[j] for j in range(n))
        t_num = xi_cross * t_half + t_const_i
        for i in range(dim):
            if w[i]:
                dec_num += d_lin_i[i] * w[i]
                t_num += t_lin_i[i] * w[i]
        terms.append(ctx.exp(ctx.to_complex(
            -ctx.pi * ctx.real(Fraction(dec_num, d_den)),
            2 * ctx.pi * ctx.real(Fraction(t_num % t_den, t_den)),
        )))
    return terms


def exact_bits(value):
    """The exact bits of a double complex or of an mpc."""
    got = getattr(value, "_mpc_", None)
    return got if got is not None else (value.real.hex(), value.imag.hex())


def ref_sum(terms, context):
    return exact_bits(get_context(context).sum(terms))


@pytest.fixture
def captured(monkeypatch):
    """Bits of the values ``lattice_sum`` returns, in call order."""
    got = []

    def record(*args):
        value = lattice_sum(*args)
        got.append(exact_bits(value))
        return value

    monkeypatch.setattr(theta, "lattice_sum", record)
    monkeypatch.setattr(floer, "lattice_sum", record)
    return got


def _rational(rng, big):
    den = rng.choice(BIG_PRIMES) if big else rng.randint(1, 12)
    return F(rng.randint(-den, den), 2 * den)


def _case(seed):
    """Seeded inputs: a coset representative k (nonzero where D has one),
    sign bits, and a sampler of rational n-vectors in [-1/2, 1/2], with
    denominators near 10^6 and 10^9 for half of the seeds."""
    rng = random.Random(seed)
    tau_re, tau_im, d_mat = SLOPES[seed % len(SLOPES)]
    n = d_mat.nrows
    k_reps = cosets(d_mat)
    k = k_reps[rng.randrange(1, len(k_reps))] if len(k_reps) > 1 else k_reps[0]
    bits = tuple(rng.randint(0, 1) for _ in range(n))
    big = seed // len(SLOPES) % 2 == 1

    def vec():
        return [_rational(rng, big) for _ in range(n)]

    return rng, tau_re, tau_im, d_mat, k, bits, vec


CASES = [(seed, context) for seed in range(12) for context in ("double", "dd")]
TOL = {"double": 1e-12, "dd": 1e-20}


@pytest.mark.parametrize("seed,context", CASES)
def test_theta_terms_match_the_fraction_loop(captured, seed, context):
    rng, tau_re, tau_im, d_mat, k, bits, vec = _case(seed)
    # a characteristic outside the coset representatives: p = D^{-1} k > 1
    k = tuple(c + int(x) for c, x in zip(k, d_mat @ ([1] * d_mat.nrows)))
    spec = ThetaSpec(tau_re, tau_im, d_mat, k, bits, tol=TOL[context])
    z = list(zip(vec(), vec()))
    value = theta_dk(spec, z, context=context)
    ref = old_theta_terms(spec, z, get_context(context),
                          value.certificate.radius)
    assert captured[-1] == ref_sum(ref, context)


@pytest.mark.parametrize("seed,context", CASES)
def test_base_product_terms_match_the_fraction_loop(captured, seed, context):
    _, tau_re, tau_im, d_mat, k, bits, vec = _case(seed)
    r, phi = vec(), vec()
    value = mu2_base(tau_re, tau_im, d_mat, k, r, phi, xi_lin=bits,
                     tol=TOL[context], context=context)
    ref = old_base_terms(tau_re, tau_im, d_mat, k, ratvec(r), ratvec(phi),
                         bits, get_context(context), value.certificate.radius)
    assert captured[-1] == ref_sum(ref, context)


# the unimodular 4-D sums have radius 7 (50,625 terms) at any tolerance; in
# dd the reference loop would take most of a minute on each, so only double
# runs them
DOUBLED_CASES = [(seed, context) for seed, context in CASES
                 if context == "double"
                 or SLOPES[seed % len(SLOPES)][2].det() != 1]


@pytest.mark.parametrize("seed,context", DOUBLED_CASES)
def test_doubled_product_terms_match_the_fraction_loop(captured, seed,
                                                       context):
    rng, tau_re, tau_im, d_mat, k, bits, vec = _case(seed)
    l_reps = cosets(d_mat.T)
    l = l_reps[rng.randrange(len(l_reps))]
    pt = DoublePoint(vec(), vec(), vec(), vec())
    # 4-D sums: a loose tolerance keeps the reference loop (and dd) short
    tol = TOL[context] if d_mat.nrows == 1 else 1e-3
    value = mu2_double(tau_re, tau_im, d_mat, k, l, pt, xi_lin=bits,
                       tol=tol, context=context)
    ref = old_double_terms(tau_re, tau_im, d_mat, k, l, pt, bits,
                           get_context(context), value.certificate.radius)
    assert captured[-1] == ref_sum(ref, context)


def test_doubled_product_terms_match_on_an_enlarged_ball(captured):
    _, tau_re, tau_im, d_mat, k, bits, vec = _case(10)
    args = (tau_re, tau_im, d_mat, k, (0, 0),
            DoublePoint(vec(), vec(), vec(), vec()))
    radius = mu2_double(*args, xi_lin=bits, tol=1e-3).certificate.radius + 2
    mu2_double(*args, xi_lin=bits, tol=1e-3, radius=radius)
    ref = old_double_terms(*args, bits, get_context("double"), radius)
    assert len(ref) == (2 * radius + 1) ** 4
    assert captured[-1] == ref_sum(ref, "double")


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_iter_shell_matches_the_filtered_cube(dim):
    for s in range(6):
        assert list(iter_shell(dim, s)) == cube_shell(dim, s)


@pytest.mark.parametrize("seed,context", CASES)
def test_base_product_is_the_theta_series_times_its_prefactor(seed, context):
    _, tau_re, tau_im, d_mat, k, bits, vec = _case(seed)
    r, phi = ratvec(vec()), ratvec(vec())
    got = mu2_base(tau_re, tau_im, d_mat, k, r, phi, xi_lin=bits,
                   tol=TOL[context], context=context)
    spec = ThetaSpec(tau_re, tau_im, d_mat, k, bits, tol=TOL[context])
    z = list(zip(vec_sub(tau_re.T @ r, phi), tau_im.T @ r))
    series = theta_dk(spec, z, context=context)
    ctx = get_context(context)
    # e^{pi i <tau D r, r>} e^{-2 pi i <D r, phi>}, each exponent exact
    turns = _mod1(vec_dot((tau_re @ d_mat) @ r, r) / 2
                  - vec_dot(d_mat @ r, phi))
    decay = vec_dot((tau_im @ d_mat) @ r, r)
    prefactor = ctx.exp(ctx.to_complex(-ctx.pi * ctx.real(decay),
                                       2 * ctx.pi * ctx.real(turns)))
    assert got.value == series.value * prefactor
    assert got.certificate == series.certificate


# -- the term evaluators ---------------------------------------------------------

def one_term(context, dv, d_den, tv, t_den):
    """The kernel's value on the single point of a radius-0 line: decay
    dv / d_den and turns tv / t_den.  One term is its own rounded sum, up to
    the sign of a zero part, which no sum keeps."""
    return lattice_sum(get_context(context), 1, 0, (d_den, [[1]], [0], dv),
                       (t_den, [[0]], [0], tv))


def exp_term(context, dv, d_den, tv, t_den):
    """The term as ``cmath.exp`` (double) or ``mp.exp`` (dd) computes it,
    as a one-term sum."""
    ctx = get_context(context)
    return ctx.sum([ctx.exp(ctx.to_complex(
        -ctx.pi * ctx.ratio(dv, d_den),
        2 * ctx.pi * ctx.ratio(tv % t_den, t_den)))])


def evaluator_inputs(seed, count):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        d_den = rng.choice((1, 3, 16, 1000003, rng.randint(1, 10 ** 12)))
        t_den = rng.choice((1, 2, 12, 998244353, rng.randint(1, 10 ** 12)))
        decay = rng.choice((F(rng.randint(-40, 40), 7),
                            F(rng.randint(-10 ** 6, 10 ** 9), 10 ** 6)))
        dv = round(decay * d_den)
        tv = rng.randint(-3 * t_den, 3 * t_den)
        cases.append((dv, d_den, tv, t_den))
    # decay 0, turns 0 (the two special branches of mpc_exp), both, and
    # turns that are whole numbers of circles
    cases += [(0, 5, 3, 7), (0, 1, 0, 1), (17, 4, 0, 9), (-17, 4, 18, 9),
              (0, 3, -6, 3)]
    return cases


@pytest.mark.parametrize("context", ["double", "dd"])
def test_term_evaluator_matches_exp_term_by_term(context):
    for case in evaluator_inputs(5, 300 if context == "double" else 120):
        assert exact_bits(one_term(context, *case)) == \
            exact_bits(exp_term(context, *case)), case


def test_double_evaluator_takes_cmath_exp_above_its_rescaling_threshold():
    # -pi decay above log(DBL_MAX / 4) ~ 708.4: cmath.exp rescales there,
    # and the kernel calls it; below 708 the kernel's own product is used
    for decay in (F(-22537, 100), F(-2254, 10), F(-2259, 10), F(-2250, 10)):
        case = (decay.numerator, decay.denominator, 5, 11)
        assert exact_bits(one_term("double", *case)) == \
            exact_bits(exp_term("double", *case))
    # and overflows as cmath.exp does
    with pytest.raises(OverflowError):
        exp_term("double", -226, 1, 1, 3)
    with pytest.raises(OverflowError):
        one_term("double", -226, 1, 1, 3)


def random_forms(rng, dim):
    """A positive-definite decay form and a turns form, with rational
    coefficients over random denominators."""
    while True:
        rows = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(dim)]
                for _ in range(dim)]
        gram = RatMat(rows).T @ RatMat(rows) + RatMat.identity(dim) * F(1, 5)
        if gram.is_positive_definite():
            break
    lin = [F(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(dim)]
    decay = int_form(gram.rows, lin, F(rng.randint(-20, 20), rng.randint(1, 7)))
    t_mat = [[F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(dim)]
             for _ in range(dim)]
    t_lin = [F(rng.randint(-9, 9), rng.randint(1, 13)) for _ in range(dim)]
    turns = int_form(t_mat, t_lin, F(rng.randint(-9, 9), rng.randint(1, 5)))
    return decay, turns


def form_value(form, w):
    den, quad, lin, const = form
    dim = len(w)
    num = const + sum(l * x for l, x in zip(lin, w))
    num += sum(quad[i][j] * w[i] * w[j] for i in range(dim)
               for j in range(i, dim))
    return num, den


def per_point_terms(ctx, dim, radius, decay, turns):
    terms = []
    for w in product(range(-radius, radius + 1), repeat=dim):
        dv, d_den = form_value(decay, w)
        tv, t_den = form_value(turns, w)
        terms.append(ctx.exp(ctx.to_complex(
            -ctx.pi * ctx.ratio(dv, d_den),
            2 * ctx.pi * ctx.ratio(tv % t_den, t_den))))
    return terms


@pytest.mark.parametrize("context", ["double", "dd"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lattice_sum_is_the_rounded_sum_of_every_cube_term(context, dim):
    rng = random.Random(100 * dim + len(context))
    ctx = get_context(context)
    for _ in range(6 if context == "double" else 2):
        decay, turns = random_forms(rng, dim)
        radius = rng.randint(0, {1: 12, 2: 6, 3: 3}[dim])
        got = lattice_sum(ctx, dim, radius, decay, turns)
        ref = per_point_terms(ctx, dim, radius, decay, turns)
        assert exact_bits(got) == ref_sum(ref, context)


# -- the decay band and its fallback ---------------------------------------------

@pytest.fixture
def fallbacks(monkeypatch):
    """Calls of the kernel's fallback, which adds the deferred points."""
    calls = []
    original = theta._add_deferred

    def counted(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(theta, "_add_deferred", counted)
    return calls


REAL_SPECS = [
    # tau = i, z = 0, k = 0, no signs: every turn is 0, so every imaginary
    # part is exactly zero
    (spec_n1(1j, d=1, k=0, xi=0, tol=1e-12), [0j]),
    # the sign (-1)^m: turns m / 2, sin(pi) ~ 1.2e-16, so the imaginary part
    # is nearly zero
    (spec_n1(1j, d=1, k=0, xi=1, tol=1e-12), [0j]),
]


@pytest.mark.parametrize("context", ["double", "dd"])
@pytest.mark.parametrize("case", range(len(REAL_SPECS)))
def test_a_zero_or_nearly_zero_part_runs_the_fallback(fallbacks, case,
                                                      context):
    spec, z = REAL_SPECS[case]
    # enlarge the ball so that points beyond the band exist
    value = theta_dk(spec, z, context=context, radius=12).value
    assert fallbacks == [12]
    zz = [(F(0), F(0))]
    ref = old_theta_terms(spec, zz, get_context(context), 12)
    assert exact_bits(value) == ref_sum(ref, context)
    assert abs(complex(value).imag) < 1e-15


@pytest.mark.parametrize("context", ["double", "dd"])
def test_the_band_decides_a_complex_sum_without_the_fallback(fallbacks,
                                                              context):
    spec = spec_n1(0.5 + 1j, d=3, k=1, xi=1, tol=1e-12)
    z = [(F(1, 5), F(3, 10))]
    value = theta_dk(spec, z, context=context, radius=12).value
    assert fallbacks == []
    ref = old_theta_terms(spec, z, get_context(context), 12)
    assert exact_bits(value) == ref_sum(ref, context)


@pytest.mark.parametrize("context", ["double", "dd"])
def test_points_outside_the_band_have_decay_above_T(monkeypatch, context):
    # a zero turns form makes every imaginary part exactly 0, so each sum
    # falls back and hands its bands to _add_deferred: every point left out
    # of a band must have decay above T, or B would not bound it
    rng = random.Random(7)
    ctx = get_context(context)
    seen = []
    original = theta._add_deferred

    def check(add, radius, bands):
        bands = list(bands)
        seen.append(len(bands))
        p, q = t_band.numerator, t_band.denominator
        for da, db, _, _, lo, hi in bands:
            assert -radius <= lo <= radius + 1 and lo - 1 <= hi <= radius
            for t in range(-radius, radius + 1):
                if not lo <= t <= hi:
                    assert q * (da + t * (db + d_cc * t)) > p * d_den
        return original(add, radius, bands)

    monkeypatch.setattr(theta, "_add_deferred", check)
    for dim, radius in [(1, 30), (2, 9), (3, 4)] * (3 if context == "double"
                                                    else 1):
        decay, _ = random_forms(rng, dim)
        # shrink the Gram so that bands hold many points, yet not the cube
        d_den, d_cc = decay[0] * 4, decay[1][-1][-1]
        decay = (d_den,) + decay[1:]
        t_band, _ = theta._decay_band(ctx.prec, (2 * radius + 1) ** dim)
        turns = int_form([[0] * dim for _ in range(dim)], [0] * dim, 0)
        got = lattice_sum(ctx, dim, radius, decay, turns)
        ref = per_point_terms(ctx, dim, radius, decay, turns)
        assert exact_bits(got) == ref_sum(ref, context)
    assert len(seen) == (9 if context == "double" else 3)
