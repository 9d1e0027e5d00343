"""Term-level equivalence of the integer shell kernel.

``mu2_double``, ``mu2_base`` and the theta sum produce their terms through
``theta.lattice_terms``.  Each term must equal, bit for bit and in the same
order, the term of a per-point ``Fraction`` loop that forms each exponent
exactly and rounds it once.  Those loops are copied here as references,
together with the filtered-cube shell enumeration they walked.  The terms
are captured where each site hands them to ``ctx.sum``.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from toruslift.brane import _mod1
from toruslift.exact import RatMat, ratvec, vec_add, vec_dot, vec_sub
from toruslift.floer import DoublePoint, _double_gram, mu2_base, mu2_double
from toruslift.lattice import cosets
from toruslift.summation import get_context
from toruslift.theta import ThetaSpec, iter_shell, theta_dk

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


@pytest.fixture
def captured(monkeypatch):
    """Term lists handed to either context's ``sum``, in call order."""
    got = []
    for name in ("double", "dd"):
        ctx = get_context(name)

        def record(terms, orig=ctx.sum):
            got.append(list(terms))
            return orig(terms)

        monkeypatch.setattr(ctx, "sum", record)
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
    assert captured[-1] == ref


@pytest.mark.parametrize("seed,context", CASES)
def test_base_product_terms_match_the_fraction_loop(captured, seed, context):
    _, tau_re, tau_im, d_mat, k, bits, vec = _case(seed)
    r, phi = vec(), vec()
    value = mu2_base(tau_re, tau_im, d_mat, k, r, phi, xi_lin=bits,
                     tol=TOL[context], context=context)
    ref = old_base_terms(tau_re, tau_im, d_mat, k, ratvec(r), ratvec(phi),
                         bits, get_context(context), value.certificate.radius)
    assert captured[-1] == ref


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
    assert captured[-1] == ref


def test_doubled_product_terms_match_on_an_enlarged_ball(captured):
    _, tau_re, tau_im, d_mat, k, bits, vec = _case(10)
    args = (tau_re, tau_im, d_mat, k, (0, 0),
            DoublePoint(vec(), vec(), vec(), vec()))
    radius = mu2_double(*args, xi_lin=bits, tol=1e-3).certificate.radius + 2
    mu2_double(*args, xi_lin=bits, tol=1e-3, radius=radius)
    ref = old_double_terms(*args, bits, get_context("double"), radius)
    assert len(ref) == (2 * radius + 1) ** 4
    assert captured[-1] == ref


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
