"""Multidimensional theta series with certified truncation.

The central object is the lattice sum attached to an admissible slope matrix
D, an integer characteristic k and a sign structure xi:

    sum over m in Z^n of
        (-1)^xi(m) e^{pi i <D^{-1}k, A m>} e^{pi i <tau D (m-p), m-p>}
        e^{2 pi i <D m - k, z>}

with A = Re(tau) D - D^T Re(tau)^T (an integer matrix by admissibility) and
p = D^{-1} k.  Every evaluation carries a :class:`TruncationCertificate`:
terms are enumerated over sup-norm shells, and the discarded tail is
dominated shell by shell by

    (shell count) * e^{pi (-lambda_min (s - s0)^2 + c1 s + c0)},

where lambda_min is an exact rational lower bound for the least eigenvalue
of the Gaussian Gram form and c1, c0 are exact rational bounds on the linear
and constant exponent parts.  lambda_min is the largest multiple of
(least diagonal entry) / 2^80 below the least eigenvalue: a 140-bit
eigenvalue estimate proposes it and exact Sylvester tests over Q confirm it,
so it is exactly what an 80-step bisection would return.  It is memoised
per Gram matrix.  The shell series is itself bounded by a geometric series,
and the comparison arithmetic runs on outward-rounded 53-bit mpmath.libmp
interval tuples, so the reported tail bound is rigorous, if deliberately
crude.  A double-precision screen skips the shells that must fail the
interval test, by more than its own rounding error; the intervals decide
every other shell, so the certificate is that of the all-interval walk.
The radius search is memoised on its exact inputs in a bounded cache;
errors are not cached.  The tail bound covers truncation only: the
floating-point rounding of the summed terms is not included.

A :class:`ThetaSpec` is checked and prepared once, when it is built: the
pairing form A, the decay Gram, the center p = D^{-1} k, the integer
decay and turns forms at z = 0 (from the integer numerators of the
matrices) and the center shift of the certificate.  Per evaluation point
z only the integer pairings of z with D and k are added, and each form is
reduced once.

Every certified sum of the package -- the theta series, the periodized
Gaussian pair sums below and the product sums of :mod:`toruslift.floer` --
is one call of the integer kernel :func:`lattice_sum`.  The decay exponent
and the phase (sign structure, characteristic coupling, Re(tau) quadratic
part, evaluation point z taken exactly) are integer forms in the lattice
vector over one denominator each; the phase is reduced mod 1 exactly and
each is rounded once.  The sum is the exact sum of the terms rounded once,
so it does not depend on the order of the walk.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from operator import mul
from typing import Iterator, Optional, Sequence

import mpmath
from mpmath.libmp import (
    from_int, mpf_pi, mpi_add, mpi_div, mpi_exp, mpi_mul, mpi_neg, mpi_pow,
    mpi_sub, round_ceiling, round_floor, to_float,
)

from .brane import _xi_of, admissible_d, xi_bits
from .config import DEFAULT_MAX_RADIUS
from .errors import (
    InadmissibleSpec,
    NotPositiveDefinite,
    TruncationBudgetExceeded,
)
from .exact import RatMat, _int_vec, exact_int, int_entries, rat, vec_dot
from .summation import exp_pi, get_context

# -- lattice enumeration ------------------------------------------------------

def iter_shell(dim: int, s: int) -> Iterator[tuple]:
    """Lattice points with sup norm exactly ``s``, in lexicographic order:
    each prefix of dim - 1 coordinates completed by its last coordinates,
    all of [-s, s] once the prefix reaches s, else only -s and s."""
    for prefix in product(range(-s, s + 1), repeat=dim - 1):
        full = not s or s in prefix or -s in prefix
        for t in range(-s, s + 1) if full else (-s, s):
            yield prefix + (t,)


def iter_ball(dim: int, radius: int) -> Iterator[tuple]:
    """Shells 0..radius: the cube :func:`lattice_sum` walks.  The package
    does not call it; ``perfbench/trace.py`` wraps it by name."""
    for s in range(radius + 1):
        yield from iter_shell(dim, s)


# -- the affine-quadratic lattice-sum kernel ----------------------------------

def _span(lo: int, hi: int) -> range:
    """lo, lo + 1, ..., hi: the order in which the walk takes a prefix
    coordinate.  No value depends on it (every sum is rounded once)."""
    return range(lo, hi + 1)


def _lines(radius: int, d_quad, t_quad, da, dl, ta, tl, band=None, k=0):
    """(da, db, ta, tb) of each line of the last coordinate t through the
    cube [-radius, radius]^dim (dim >= 2), along which the decay and turns
    numerators are da + t (db + d_cc t) and ta + t (tb + t_cc t).
    Coordinates before k are folded into da, ta and the coefficients dl,
    tl, never stored.

    With ``band`` = (q, c, d_cc), only the lines whose band (the t with
    q A(t) - c <= 0, A the decay numerator) can hold a point, that is the
    lines on which that quadratic in t has a real root (Fincke and Pohst's
    pruning, at the last prefix coordinate u).  Its discriminant is a
    quadratic in u with leading coefficient -q^2 (4 d_cc d_uu - d_ut^2),
    negative when the trailing 2 x 2 block of the decay is positive
    definite, so those lines lie in one u-interval.  For integers
    |a u - b| <= sqrt(e) holds exactly when |a u - b| <= isqrt(e), so one
    ``math.isqrt`` finds the interval exactly."""
    dq, tq = d_quad[k], t_quad[k]
    lo, hi = -radius, radius
    if len(dl) > 2:
        for x in _span(lo, hi):
            yield from _lines(
                radius, d_quad, t_quad,
                da + x * (dl[0] + dq[k] * x),
                [l + w * x for l, w in zip(dl[1:], dq[k + 1:])],
                ta + x * (tl[0] + tq[k] * x),
                [l + w * x for l, w in zip(tl[1:], tq[k + 1:])], band, k + 1)
        return
    (dl0, dl1), (tl0, tl1) = dl, tl
    duu, dut, tuu, tut = dq[k], dq[k + 1], tq[k], tq[k + 1]
    if band:
        q, c, d_cc = band
        a = q * (4 * d_cc * duu - dut * dut)
        if a > 0:
            # a line's discriminant is q (-a u^2 + 2 b u + e0) with
            # e0 = q dl1^2 - 4 d_cc (q da - c), >= 0 exactly when
            # (a u - b)^2 <= e = b^2 + a e0
            b = q * (dl1 * dut - 2 * d_cc * dl0)
            e = b * b + a * (q * dl1 * dl1 - 4 * d_cc * (q * da - c))
            if e < 0:
                return
            root = math.isqrt(e)
            lo, hi = max(lo, -((root - b) // a)), min(hi, (b + root) // a)
    for x in _span(lo, hi):
        yield (da + x * (dl0 + duu * x), dl1 + dut * x,
               ta + x * (tl0 + tuu * x), tl1 + tut * x)


# B <= 2^-(prec + _BAND_MARGIN), see _decay_band
_BAND_MARGIN = 10


@lru_cache(maxsize=64)
def _decay_band(prec: int, points: int) -> tuple:
    """T, a dyadic just above ((prec + margin) ln 2 + ln(4 points)) / pi
    for the margin ``_BAND_MARGIN``, and a raw 53-bit upper bound of
    e^{-pi T}: the bound B = 4 n e^{-pi T} of :func:`lattice_sum` is then
    at most 2^-(prec + margin).

    No value depends on the margin, which only trades kept terms against
    fallbacks: the rounding test fails about when B reaches the distance
    of a part's sum to a rounding boundary.  The margin is the one that
    evaluated about the fewest terms (kept plus fallback) on the recorded
    sums of the three benchmark workloads and of the golden jobs, in double
    and in dd.  On the 397 recorded ``products`` sums margin 24 evaluated
    451,904 terms with 4 fallbacks, margin 10 373,139 with 5, margin 8
    367,485 with 9 and margin 4 614,916 with 82; margin 10 keeps every
    set's fallback count within one of margin 24's."""
    t = Fraction(math.ceil(16 * ((prec + _BAND_MARGIN) * math.log(2)
                                 + math.log(4 * points)) / math.pi), 16)
    return t, mpi_exp(mpi_mul(mpi_neg(_PI), _interval(t), _PREC), _PREC)[1]


def lattice_sum(ctx, dim: int, radius: int, decay, turns):
    """``ctx.sum`` of the terms ``exp_pi(ctx, -decay(w), turns(w))`` over
    the cube [-radius, radius]^dim (shells 0..radius), bit for bit: the
    one kernel of every certified sum.
    ``decay`` (positive definite) and ``turns`` are affine-quadratic forms
    in w, (den, quad, lin, const): integer numerators over one denominator,
    quad upper-triangular (quad[i][j], i <= j, the coefficient of w_i w_j),
    in the normal form den > 0 and gcd(den, all numerators) = 1 that
    :func:`_add_linear` returns.

    Each line first sums its band of decay at most T (:func:`_decay_band`),
    and lines whose band quadratic has no real root are not walked
    (:func:`_lines`).  The n deferred terms add up to at most
    B = 4 n e^{-pi T} per part, if ``exp`` is within a factor 2 and
    |cos|, |sin| <= 1.  If the kept sum minus B and plus B round alike,
    rounding being monotone, the whole cube's sum rounds to that value
    (Ziv's rounding test); else the whole cube is summed afresh.  So the
    value is the rounded sum of the cube for any T, and T only decides how
    often the fallback runs."""
    d_den, d_quad, d_lin, d_const = decay
    t_den, t_quad, t_lin, t_const = turns
    d_cc = d_quad[-1][-1]
    forms = (d_den, d_cc, t_den, t_quad[-1][-1])
    add, close = ctx.line_terms(*forms)
    deferred = (2 * radius + 1) ** dim
    limit, e_up = _decay_band(ctx.prec, deferred)
    q, c = limit.denominator, limit.numerator * d_den
    a2 = 2 * q * d_cc
    a4, isqrt = 2 * a2, math.isqrt

    def lines(band=None):
        if dim == 1:
            return [(d_const, d_lin[0], t_const, t_lin[0])]
        return _lines(radius, d_quad, t_quad, d_const, d_lin, t_const, t_lin,
                      band)

    for da, db, ta, tb in lines((q, c, d_cc)):
        # the band [lo, hi] holds the roots of q (da + t (db + d_cc t)) - c,
        # widened by math.isqrt
        b = q * db
        disc = b * b - a4 * (q * da - c)
        if disc >= 0:
            root = isqrt(disc) + 1
            lo, hi = -((b + root) // a2), (root - b) // a2
            if lo < -radius:
                lo = -radius
            if hi > radius:
                hi = radius
            if lo <= hi:
                add(range(lo, hi + 1), da, db, ta, tb)
                deferred -= hi + 1 - lo
    if deferred:
        value = close((deferred, e_up))
        if value is not None:
            return value
        add, close = ctx.line_terms(*forms)
        for line in lines():
            add(range(-radius, radius + 1), *line)
    return close()


# -- certified truncation -----------------------------------------------------

LAMBDA_BITS = 80  # lambda_min is resolved to (least diagonal entry) / 2^80

_GUESS_MP = mpmath.mp.clone()
_GUESS_MP.prec = 140


def _eigen_guess(s_mat: RatMat, unit: Fraction) -> int:
    """ceil(lambda / unit) - 1 from a 140-bit estimate of the least
    eigenvalue lambda; only a proposal, confirmed exactly by the caller."""
    mp = _GUESS_MP
    a = mp.matrix([[mp.mpf(x.numerator) / x.denominator for x in row]
                   for row in s_mat.rows])
    lam = min(mp.eigsy(a, eigvals_only=True))
    return int(mp.ceil(lam * unit.denominator / unit.numerator)) - 1


def _last_true(pred, guess: int, top: int) -> int:
    """Largest k in [0, top) with pred(k), for a predicate that is true up
    to some point and false after it, with pred(0) true and pred(top) false
    (neither is evaluated).  Starts at ``guess``: a right guess costs two
    calls of pred; otherwise it gallops outward and bisects the bracket."""

    def holds(k):
        return k == 0 or (k < top and pred(k))

    k = min(max(guess, 0), top - 1)
    if holds(k):
        lo, hi = k, k + 1
        while holds(hi):
            lo, hi = hi, min(top, 3 * hi - 2 * lo)
    else:
        lo, hi = k - 1, k
        while not holds(lo):
            lo, hi = max(0, 3 * lo - 2 * hi), lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


@lru_cache(maxsize=256)
def min_eigenvalue_bound(s_mat: RatMat) -> Fraction:
    """Exact rational lower bound for the least eigenvalue lambda of a
    symmetric positive-definite rational matrix S.

    With h the least diagonal entry (h >= lambda) and u = h / 2^LAMBDA_BITS,
    the bound is k u for the largest k with S - k u I positive definite,
    i.e. k = ceil(lambda / u) - 1: the value a LAMBDA_BITS-step bisection of
    [0, h] ends on.  A 140-bit eigenvalue estimate proposes k and exact
    Sylvester tests prove it (S - k u I positive definite, S - (k+1) u I
    not); a wrong proposal is corrected by the same exact test.  Results
    are memoised per Gram; errors are not, and are raised on every call.
    """
    if s_mat.T != s_mat:
        raise NotPositiveDefinite("Gaussian form is not symmetric")
    if not s_mat.is_positive_definite():
        raise NotPositiveDefinite("Gaussian form is not positive definite")
    n = s_mat.nrows
    top = 1 << LAMBDA_BITS
    unit = min(s_mat[i, i] for i in range(n)) / top
    eye = RatMat.identity(n)

    def below_lambda(k):
        return (s_mat - eye * (k * unit)).is_positive_definite()

    k = _last_true(below_lambda, _eigen_guess(s_mat, unit), top)
    if k == 0:
        raise NotPositiveDefinite(
            f"least eigenvalue is below 2^-{LAMBDA_BITS} of the least "
            "diagonal entry; the form is too close to singular to certify"
        )
    return k * unit


@dataclass(frozen=True)
class TruncationCertificate:
    """Certified shell radius: summing sup-norm shells 0..radius leaves a
    tail of absolute value at most ``tail_bound`` (below the working tol)."""

    radius: int
    tail_bound: float
    lambda_min: Fraction


_PREC = 53  # interval endpoint precision in bits, as in mpmath.iv
_PI = (mpf_pi(_PREC, round_floor), mpf_pi(_PREC, round_ceiling))


def _int_interval(n: int) -> tuple:
    """An integer as an outward-rounded 53-bit libmp interval, as
    ``mpmath.iv.mpf(n)`` embeds it: wide integers are rounded outward."""
    return from_int(n, _PREC, round_floor), from_int(n, _PREC, round_ceiling)


def _interval(x: Fraction) -> tuple:
    """A rational as the interval quotient of its numerator and denominator."""
    return mpi_div(_int_interval(x.numerator), _int_interval(x.denominator),
                   _PREC)


def truncation_radius(
    q_form: RatMat,
    linear_bound=Fraction(0),
    tol: float = 1e-10,
    *,
    center_shift=Fraction(0),
    constant_exponent=Fraction(0),
    max_radius: int = DEFAULT_MAX_RADIUS,
) -> TruncationCertificate:
    """Smallest certified shell radius for a Gaussian-type lattice series.

    Terms are assumed bounded by ``e^{pi(-Q(m-p) + c1 |m|_inf + c0)}`` with
    ``linear_bound`` = c1, ``constant_exponent`` = c0 (both exact rational
    coefficients of pi) and ``|p|_inf <= center_shift``.  Returns the least
    M <= max_radius whose tail over shells s > M is at most ``tol``; the
    tail is bounded by twice the first omitted shell bound once consecutive
    shell bounds decay by a factor of at least two.
    """
    return _radius_search(
        min_eigenvalue_bound(q_form), q_form.nrows, Fraction(linear_bound),
        Fraction(constant_exponent), Fraction(center_shift), float(tol),
        int(max_radius))


# The float screen of the radius walk.  An estimate is computed in doubles
# in the log domain, with at most about 12 roundings of relative error
# 2^-53 on any path and the platform log taken as faithful, so it is within
# 2^-48 of the exact value times the sum of the magnitudes of its terms
# (the same expression with every term taken positive); the screen charges
# 2^-40 of that sum, and a shell is skipped only when the estimate clears
# the interval test by _SCREEN_MARGIN more than that.
_SCREEN_MARGIN = 2.0 ** -20
_SCREEN_ERROR = 2.0 ** -40


def _float_screen(lam: Fraction, dim: int, c1: Fraction, c0: Fraction,
                  shift: Fraction, tol: float):
    """fails(s): True only if shell s must fail the interval test of
    :func:`_radius_search`, because double estimates show its tail bound
    (twice the shell bound) above ``tol`` or its shell ratio above 1/2 by
    more than their own rounding error.  False decides nothing: the
    intervals test the shell.  Inputs out of double range screen nothing;
    an overflow inside makes an estimate or its error bound inf or NaN,
    which screens nothing either."""
    try:
        lam_f, c1_f, c0_f, shift_f = map(float, (lam, c1, c0, shift))
    except OverflowError:
        return lambda s: False
    if dim < 1 or not tol >= sys.float_info.min:  # zero, subnormal, NaN tol
        return lambda s: False
    pi, log_count0 = math.pi, math.log(4 * dim)
    log_tol, log_half = math.log(tol), math.log(0.5)

    def fails(s: int) -> bool:
        # the estimates below with every term positive (gap as s + |shift|)
        # bound their magnitude sums
        gap, gap_abs = s - shift_f, s + abs(shift_f)
        # log of 2 * 2 dim (2s+1)^(dim-1) e^{pi (-lambda gap^2 + c1 s + c0)}
        log_count = log_count0 + (dim - 1) * math.log(2 * s + 1)
        est = log_count + pi * (c1_f * s + c0_f - lam_f * gap * gap)
        size = log_count + abs(log_tol) + pi * (
            abs(lam_f) * gap_abs * gap_abs + abs(c1_f) * s + abs(c0_f))
        if est - log_tol > _SCREEN_MARGIN + _SCREEN_ERROR * size:
            return True
        # log of ((2s+3)/(2s+1))^(dim-1) e^{pi (-lambda (2 gap + 1) + c1)}
        log_ratio = (dim - 1) * math.log1p(2 / (2 * s + 1))
        est = log_ratio + pi * (c1_f - lam_f * (2 * gap + 1))
        size = log_ratio - log_half + pi * (
            abs(lam_f) * (2 * gap_abs + 1) + abs(c1_f))
        return est - log_half > _SCREEN_MARGIN + _SCREEN_ERROR * size

    return fails


@lru_cache(maxsize=1024)
def _radius_search(lam: Fraction, dim: int, c1: Fraction, c0: Fraction,
                   shift: Fraction, tol: float,
                   max_radius: int) -> TruncationCertificate:
    """The shell walk of :func:`truncation_radius`, memoised on its exact
    inputs; errors are not cached.  :func:`_float_screen` skips the shells
    that must fail; every other shell is tested in outward-rounded libmp
    intervals, and the certificate is the interval bound of the shell the
    walk stops on, as if every shell had been tested in intervals."""
    neg_lam = mpi_neg(_interval(lam), _PREC)
    c1_iv, c0_iv, shift_iv = _interval(c1), _interval(c0), _interval(shift)
    one, two = _int_interval(1), _int_interval(2)
    count0, power = _int_interval(2 * dim), _int_interval(dim - 1)
    screen = _float_screen(lam, dim, c1, c0, shift, tol)

    def shell_bound(s: int):
        # the walk calls this at s >= ceil(shift) + 1, where gap >= 1
        s_iv = _int_interval(s)
        gap = mpi_sub(s_iv, shift_iv, _PREC)
        # pi (-lambda gap^2 + c1 s + c0); shell count 2 dim (2s+1)^(dim-1)
        quad = mpi_mul(mpi_mul(neg_lam, gap, _PREC), gap, _PREC)
        expo = mpi_add(quad, mpi_mul(c1_iv, s_iv, _PREC), _PREC)
        expo = mpi_mul(_PI, mpi_add(expo, c0_iv, _PREC), _PREC)
        count = mpi_pow(_int_interval(2 * s + 1), power, _PREC)
        count = mpi_mul(count0, count, _PREC)
        return mpi_mul(count, mpi_exp(expo, _PREC), _PREC)

    def ratio_bound(s: int):
        # shell_bound(s+1)/shell_bound(s) without division: ((2s+3)/(2s+1))
        # ^(dim-1) e^{pi (-lambda (2 gap + 1) + c1)}, valid and monotone
        # decreasing for s >= center_shift
        gap = mpi_sub(_int_interval(s), shift_iv, _PREC)
        count_ratio = mpi_div(_int_interval(2 * s + 3),
                              _int_interval(2 * s + 1), _PREC)
        count_ratio = mpi_pow(count_ratio, power, _PREC)
        slope = mpi_add(mpi_mul(two, gap, _PREC), one, _PREC)
        expo = mpi_add(mpi_mul(neg_lam, slope, _PREC), c1_iv, _PREC)
        expo = mpi_mul(_PI, expo, _PREC)
        return mpi_mul(count_ratio, mpi_exp(expo, _PREC), _PREC)

    for m_try in range(max(0, math.ceil(to_float(shift_iv[1]))),
                       max_radius + 1):
        s1 = m_try + 1
        if screen(s1) or to_float(ratio_bound(s1)[1]) > 0.5:
            continue
        tail = to_float(mpi_mul(two, shell_bound(s1), _PREC)[1])
        if tail <= tol:
            return TruncationCertificate(
                radius=m_try, tail_bound=tail, lambda_min=lam)
    raise TruncationBudgetExceeded(
        f"no certified radius <= {max_radius} reaches tail {tol:g}"
    )


# -- the theta spec -----------------------------------------------------------

def _centred(rows, den: int, p, p_den: int) -> tuple:
    """<M (m - c), m - c> for M = ``rows`` / ``den`` and c = ``p`` /
    ``p_den`` (integer numerators), as a form of :func:`lattice_sum` over
    the denominator den p_den^2, not yet reduced; :func:`_add_linear`
    reduces it.  With these two every lattice-sum form is built."""
    dim, sq = len(p), p_den * p_den
    quad = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        quad[i][i] = rows[i][i] * sq
        for j in range(i + 1, dim):
            quad[i][j] = (rows[i][j] + rows[j][i]) * sq
    mp = [sum(map(mul, row, p)) for row in rows]
    lin = [-(x + sum(map(mul, col, p))) * p_den
           for x, col in zip(mp, zip(*rows))]
    return den * sq, quad, lin, sum(map(mul, p, mp))


def _add_linear(form: tuple, lin, const: int, den: int) -> tuple:
    """``form`` (as :func:`_centred` gives it) plus lin . m + const, with
    ``lin`` and ``const`` integer numerators over ``den``, scaled once to
    the least common denominator and reduced to the normal form of
    :func:`lattice_sum`: the one set of integers of that polynomial."""
    f_den, f_quad, f_lin, f_const = form
    common = lcm(f_den, den)
    a, b = common // f_den, common // den
    lin = [a * x + b * y for x, y in zip(f_lin, lin)]
    const = a * f_const + b * const
    g = gcd(common, const, *lin, a * gcd(*(x for row in f_quad for x in row)))
    return (common // g, [[a * x // g for x in row] for row in f_quad],
            [x // g for x in lin], const // g)


@dataclass(frozen=True)
class ThetaSpec:
    """Admissible data (tau, D, k, xi) for one theta series.

    ``tol`` of None defers to the numeric context default (1e-10 in double,
    1e-20 in dd).  Admissibility is checked on construction by
    :func:`toruslift.brane.admissible_d`, raising InadmissibleSpec; the
    pairing form A it returns is kept as ``a_form``, with the decay Gram
    ``q_form`` = Im(tau) D and the center ``p_vec`` = D^{-1} k.
    :meth:`with_char` and :meth:`bar` derive specs from a checked one
    without checking D again.

    A spec computes once, when it is built or derived, the parts of the
    series data that do not depend on z: the integer decay and turns forms
    at z = 0 and the center shift max |p_i| of the certificate.  Per z,
    :meth:`forms` and the certificate add only the pairings of z with D and
    k, in integers.
    """

    tau_re: RatMat
    tau_im: RatMat
    d_mat: RatMat
    char: tuple = ()
    xi_lin: tuple = ()
    tol: Optional[float] = None
    max_radius: int = DEFAULT_MAX_RADIUS
    a_form: RatMat = field(init=False, repr=False, compare=False)
    q_form: RatMat = field(init=False, repr=False, compare=False)
    p_vec: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a_form", admissible_d(
            self.tau_re, self.tau_im, self.d_mat, error=InadmissibleSpec))
        self._set_char(self.char)
        object.__setattr__(self, "xi_lin",
                           xi_bits(self.xi_lin, self.n, InadmissibleSpec))
        object.__setattr__(self, "q_form", self.tau_im @ self.d_mat)
        self._set_z_free()

    def _set_char(self, char) -> None:
        n = self.n
        char = tuple(map(exact_int, char)) or (0,) * n
        if len(char) != n:
            raise InadmissibleSpec(f"characteristic must have length {n}")
        if None in char:
            raise InadmissibleSpec("characteristic must have integer entries")
        object.__setattr__(self, "char", char)
        object.__setattr__(self, "p_vec", self.d_mat.solve(char))

    def _set_z_free(self) -> None:
        """``_z_free`` = (decay, turns, shift): the :meth:`forms` at z = 0
        as :func:`_centred` numerators, and max |p_i|."""
        p, p_den = _int_vec(self.p_vec)
        decay = _centred(self.q_form.num, self.q_form.den, p, p_den)
        # turns = [<Re(tau) D w, w> + sum_{i<j} A_ij m_i m_j + xi . m
        #          + <A^T p, m>] / 2, over twice the denominator
        rd = [[sum(map(mul, row, col)) for col in zip(*self.d_mat.num)]
              for row in self.tau_re.num]
        den, quad, lin, const = _centred(rd, self.tau_re.den, p, p_den)
        a_rows = self.a_form.num
        for i, row in enumerate(quad):
            for j in range(i + 1, len(row)):
                row[j] += a_rows[i][j] * den
        lin = [x + (b * p_den + sum(map(mul, col, p))) * (den // p_den)
               for x, b, col in zip(lin, self.xi_lin, zip(*a_rows))]
        shift = Fraction(max(map(abs, p), default=0), p_den)
        object.__setattr__(self, "_z_free",
                           (decay, (2 * den, quad, lin, const), shift))

    @property
    def n(self) -> int:
        return self.d_mat.nrows

    def xi_value(self, m) -> int:
        # integer numerators: admissible_d checked that A is integral
        return _xi_of(self.a_form.num, self.xi_lin,
                      int_entries(m, "lattice vector"))

    def _pairings(self, part) -> tuple:
        """(D^T v, <k, v>, den) in integers, for the vector v = ``part``
        as integer numerators over one denominator den."""
        v, den = _int_vec(part)
        return ([sum(map(mul, col, v)) for col in zip(*self.d_mat.num)],
                sum(map(mul, self.char, v)), den)

    def forms(self, z) -> tuple:
        """Integer decay and turns forms of the series terms at an exact z
        (a sequence of (Re, Im) rational pairs), in m, with w = m - p:
        decay = <Im(tau) D w, w> + 2 <D w, Im z> and turns = xi(m)/2 +
        <p, A m>/2 + <Re(tau) D w, w>/2 + <D w, Re z>, each reduced once
        by :func:`_add_linear`.  <D w, v> = <D^T v, m> - <k, v> since
        D p = k."""
        return self._forms(z, self._pairings(im for _, im in z))

    def _forms(self, z, im) -> tuple:
        """:meth:`forms`, given the :meth:`_pairings` ``im`` of Im z."""
        decay, turns, _ = self._z_free
        d_re, k_re, re_den = self._pairings(re for re, _ in z)
        d_im, k_im, im_den = im
        return (_add_linear(decay, [2 * x for x in d_im], -2 * k_im, im_den),
                _add_linear(turns, d_re, -k_re, re_den))

    def with_char(self, char) -> "ThetaSpec":
        """The spec of characteristic ``char``: D, A and the decay Gram are
        kept; the characteristic is checked and the center solved again."""
        spec = copy.copy(self)
        spec._set_char(char)
        spec._set_z_free()
        return spec

    def bar(self) -> "ThetaSpec":
        """Spec of the conjugate series (modulus -conj(tau); same D, k, xi):
        A changes sign, the decay Gram and the center stay."""
        spec = copy.copy(self)
        object.__setattr__(spec, "tau_re", -self.tau_re)
        object.__setattr__(spec, "a_form", -self.a_form)
        spec._set_z_free()
        return spec


def spec_n1(tau: complex, d: int = 1, k: int = 0, xi: int = 0,
            tol: Optional[float] = None,
            max_radius: int = DEFAULT_MAX_RADIUS) -> ThetaSpec:
    """One-variable spec; float components of tau embed exactly into Q."""
    return ThetaSpec(
        RatMat([[rat(tau.real)]]),
        RatMat([[rat(tau.imag)]]),
        RatMat([[d]]),
        (k,),
        (xi,),
        tol,
        max_radius,
    )


@dataclass(frozen=True)
class CertifiedValue:
    value: complex
    certificate: TruncationCertificate
    context: str = "double"

    def __complex__(self):
        return complex(self.value)


# -- theta evaluation ---------------------------------------------------------

def _resolved_tol(tol, ctx) -> float:
    return ctx.default_tol if tol is None else float(tol)


def _exact_z(z, n: int):
    """Evaluation points as exact (Re, Im) rational pairs.

    Accepts explicit (re, im) pairs, int and Fraction entries (both taken
    exactly) and other numbers through ``complex`` (a float exactly).
    Pairs keep lattice-exact shifts like z + tau^T h representable without
    a rounding step through machine doubles.
    """
    out = []
    for w in z:
        if isinstance(w, tuple):
            re, im = w
        elif isinstance(w, (int, Fraction)):
            re, im = w, 0
        else:
            w = complex(w)
            re, im = w.real, w.imag
        out.append((rat(re), rat(im)))
    if len(out) != n:
        raise InadmissibleSpec(f"z must have length {n}")
    return out


def _theta_certificate(spec: ThetaSpec, im, tol: float) -> TruncationCertificate:
    # |e^{2 pi i <Dm - k, z>}| = e^{pi(-2<m, D^T Im z> + 2<k, Im z>)}, with
    # im = (D^T Im z, <k, Im z>, den) from ThetaSpec._pairings
    d_im, k_im, den = im
    return truncation_radius(
        spec.q_form,
        linear_bound=Fraction(2 * sum(map(abs, d_im)), den),
        tol=tol,
        center_shift=spec._z_free[2],
        constant_exponent=Fraction(2 * k_im, den),
        max_radius=spec.max_radius,
    )


def theta_dk(spec: ThetaSpec, z: Sequence[complex], *,
             context: str = "double") -> CertifiedValue:
    """Certified evaluation of the theta series at a complex n-vector z,
    taken exactly (:func:`_exact_z`) into the forms of
    :meth:`ThetaSpec.forms`.  The truncation error is below the
    certificate's tail bound (rounding is not part of it).  The forms and
    the certificate share one pairing of Im z with D and k.
    """
    ctx = get_context(context)
    zz = _exact_z(z, spec.n)
    im = spec._pairings(im for _, im in zz)
    cert = _theta_certificate(spec, im, _resolved_tol(spec.tol, ctx))
    value = lattice_sum(ctx, spec.n, cert.radius, *spec._forms(zz, im))
    return CertifiedValue(value, cert, context)


def theta_bar_dk(spec: ThetaSpec, z, **kw) -> CertifiedValue:
    """The conjugate-modulus series (modulus -conj(tau)) at z."""
    return theta_dk(spec.bar(), z, **kw)


# -- quasi-periodicity and characteristic shift -------------------------------

def verify_quasi_periodicity(spec: ThetaSpec, z, h, *,
                             context: str = "double") -> float:
    """Residual of the transformation law under z -> z + tau^T h:
    the shifted value against (-1)^xi(h) e^{-pi i <tau D h, h>}
    e^{-2 pi i <D h, z>} times the value at z."""
    ctx = get_context(context)
    zz = _exact_z(z, spec.n)
    hh = int_entries(h, "lattice shift")
    z_shift = [(re + xr, im + xi_) for (re, im), xr, xi_ in
               zip(zz, spec.tau_re.T @ hh, spec.tau_im.T @ hh)]
    lhs = theta_dk(spec, z_shift, context=context).value
    dh = spec.d_mat @ hh
    re_quad = vec_dot(spec.tau_re @ dh, hh)  # Re <tau D h, h>, exact
    im_quad = vec_dot(spec.tau_im @ dh, hh)
    # the factor's exponent pi decay + 2 pi i turns, each part one exact
    # rational rounded once
    decay = im_quad + 2 * vec_dot(dh, [im for _, im in zz])
    turns = (Fraction(spec.xi_value(hh), 2) - re_quad / 2
             - vec_dot(dh, [re for re, _ in zz]))
    rhs = exp_pi(ctx, decay, turns) * theta_dk(spec, zz, context=context).value
    return float(ctx.abs(lhs - rhs))


def verify_characteristic_shift(spec: ThetaSpec, z, s, *,
                                context: str = "double") -> float:
    """Residual of the shift law k -> k + D s against the explicit phase
    (-1)^xi(s) e^{pi i <A s, D^{-1} k>}."""
    ctx = get_context(context)
    ss = int_entries(s, "characteristic shift")
    shifted = spec.with_char(
        tuple(k + int(c) for k, c in zip(spec.char, spec.d_mat @ ss))
    )
    lhs = theta_dk(shifted, z, context=context).value
    turns = (Fraction(spec.xi_value(ss), 2)
             + vec_dot(spec.a_form @ ss, spec.p_vec) / 2)
    rhs = exp_pi(ctx, 0, turns) * theta_dk(spec, z, context=context).value
    return float(ctx.abs(lhs - rhs))


# -- the periodized Gaussian double sums --------------------------------------

def _tau_parts(tau: complex):
    b, a = rat(tau.real), rat(tau.imag)
    if a <= 0:
        raise NotPositiveDefinite("Im(tau) must be positive")
    return b, a


def _pair_gram(tau: complex) -> RatMat:
    """Gram of (m + n tau)(m + n conj(tau)) / (2a) in the (m, n) variables."""
    b, a = _tau_parts(tau)
    mod2 = b * b + a * a
    half = Fraction(1, 2)
    return RatMat([[half / a, half * b / a], [half * b / a, half * mod2 / a]])


def _pair_linear_coeff(tau: complex, points) -> Fraction:
    """Rational c1 with |linear exponent| <= pi c1 s for the double sums:
    uses |m + n tau| <= s (1 + |tau|) and |tau| <= (1 + |tau|^2)/2."""
    b, a = _tau_parts(tau)
    tau_up = 1 + (1 + b * b + a * a) / 2
    tot = sum(abs(rat(p.real)) + abs(rat(p.imag)) for p in points)
    return tot * tau_up / a


def _double_sum(forms, tau: complex, lin_coeff, tol: float, max_radius: int,
                ctx):
    """A pair sum's forms summed over the certified (m, n) shells."""
    cert = truncation_radius(_pair_gram(tau), linear_bound=lin_coeff,
                             tol=tol, max_radius=max_radius)
    return lattice_sum(ctx, 2, cert.radius, *forms), cert


def gaussian_theta_lhs(tau: complex, u: complex, v: complex,
                       tol: Optional[float] = None, *,
                       context: str = "double",
                       max_radius: int = DEFAULT_MAX_RADIUS) -> CertifiedValue:
    """Certified value of the periodized Gaussian double sum

        sum_{m,n} e^{-pi/(2a) (n^2 tau conj(tau) + m^2 + 2 tau m n)}
                  e^{-pi/a (m + n conj(tau)) u} e^{pi/a (m + n tau) v}
        * e^{-pi/(2a) u^2} e^{pi/a u v} e^{-pi/(2a) v^2}.

    The prefactor is folded into each term's exact forms.  The certificate
    is that of the sum without it, at tol e^{-pi max(c, 0)} for a prefactor
    of modulus e^{pi c}, so the returned value's tail is below tol.
    """
    ctx = get_context(context)
    tol = _resolved_tol(tol, ctx)
    b, a = _tau_parts(tau)
    lin = _pair_linear_coeff(tau, [u, v])
    ur, ui = rat(u.real), rat(u.imag)
    vr, vi = rat(v.real), rat(v.imag)
    dr, di = ur - vr, ui - vi
    # constant prefactor magnitude, exact in Q: Re(-u^2 - v^2 + 2uv) / (2a)
    pref_coeff = -(dr * dr - di * di) / (2 * a)
    tol_eff = tol * math.exp(
        -max(to_float(_interval(pref_coeff)[1]), 0.0) * math.pi)

    def form(rows, den, *coeffs):
        # rows / den, plus the exact linear and constant coefficients
        num, num_den = _int_vec(coeffs)
        return _add_linear(_centred(rows, den, (0, 0), 1), num[:2], num[2],
                           num_den)

    # the Gram part, the sign (-1)^{mn} as the turn mn/2, and
    # -(1/a) (m + n conj(tau)) u + (1/a) (m + n tau) v - (u - v)^2 / (2a)
    gram = _pair_gram(tau)
    forms = (form(gram.num, gram.den, dr / a, b * dr / a + ui + vi,
                  -pref_coeff),
             form(((0, 1), (0, 0)), 2, -di / (2 * a),
                  (a * (ur + vr) - b * di) / (2 * a), -dr * di / (2 * a)))
    value, cert = _double_sum(forms, tau, lin, tol_eff, max_radius, ctx)
    return CertifiedValue(value, cert, context)


def verify_identity_1(tau: complex, z: complex, tol: Optional[float] = None,
                      *, context: str = "double",
                      max_radius: int = DEFAULT_MAX_RADIUS) -> float:
    """Residual between the signed periodized Gaussian and sqrt(2a)
    (conjugate series at 0) (series at z).  Its shifted-Gaussian form,
    sum e^{-pi/(2a)(z+m)^2 - pi/a n conj(tau) (z+m) - pi/(2a) n^2 |tau|^2},
    is the same sum term by term (:func:`gaussian_theta_lhs` at v = 0)."""
    ctx = get_context(context)
    tol = _resolved_tol(tol, ctx)
    first = gaussian_theta_lhs(tau, z, 0j, tol, context=context,
                               max_radius=max_radius).value
    base = spec_n1(tau, tol=tol, max_radius=max_radius)
    theta_z = theta_dk(base, [z], context=context).value
    bar_0 = theta_bar_dk(base, [0], context=context).value
    _, a = _tau_parts(tau)
    product_form = ctx.sqrt(ctx.real(2 * a)) * bar_0 * theta_z
    return float(ctx.abs(first - product_form))


def verify_identity_2(tau: complex, u: complex, v: complex,
                      tol: Optional[float] = None, *,
                      context: str = "double",
                      max_radius: int = DEFAULT_MAX_RADIUS) -> float:
    """Residual of the factorization of the periodized Gaussian double sum
    into sqrt(2a) (series at u) (conjugate series at v)."""
    ctx = get_context(context)
    tol = _resolved_tol(tol, ctx)
    lhs = gaussian_theta_lhs(tau, u, v, tol, context=context,
                             max_radius=max_radius)
    base = spec_n1(tau, tol=tol, max_radius=max_radius)
    theta_u = theta_dk(base, [u], context=context).value
    bar_v = theta_bar_dk(base, [v], context=context).value
    _, a = _tau_parts(tau)
    rhs = ctx.sqrt(ctx.real(2 * a)) * theta_u * bar_v
    return float(ctx.abs(lhs.value - rhs))
