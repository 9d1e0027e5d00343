"""Multidimensional theta series with certified truncation.

The central object is the lattice sum attached to an admissible slope matrix
D, an integer characteristic k and a sign structure xi:

    sum over m in Z^n of
        (-1)^xi(m) e^{pi i <D^{-1}k, A m>} e^{pi i <tau D (m-p), m-p>}
        e^{2 pi i <D m - k, z>}

with A = Re(tau) D - D^T Re(tau)^T (an integer matrix by admissibility) and
p = D^{-1} k.  Every evaluation carries a :class:`TruncationCertificate`
that reads the decay form it sums: it keeps exactly the lattice points of
pi (decay(w) - mu) <= R^2, mu the decay's exact minimum over R^n, and the
terms left out add up to at most

    e^{-pi mu} (g/2) (2/rho)^g Gamma(g/2, (R - rho/2)^2)

for R >= sqrt(g/2) + rho/2 (Theorem 2 of Deconinck, Heil, Bobenko, van
Hoeij and Schmies, "Computing Riemann theta functions", Math. Comp. 73,
2004), in dimension g.  rho = sqrt(pi lambda_min) bounds the shortest
vector of the lattice from below; lambda_min is an exact rational lower
bound for the least eigenvalue of the Gram, the largest multiple of (least
diagonal entry) / 2^80 below it: a 140-bit eigenvalue estimate proposes it
and exact Sylvester tests over Q confirm it.  It is memoised per Gram.  R
is the least one on a grid of R^2 / pi whose bound, evaluated in
outward-rounded 53-bit mpmath.libmp intervals, is at most TAIL_SHARE * tol;
a double-precision estimate proposes it.  The bound
depends only on the Gram, tol and max(0, -mu), so the search is memoised
on the Gram, tol and max(0, -mu) rounded up to a sixteenth.  The tail bound
covers truncation only: the floating-point rounding of the summed terms is
not included.

A :class:`ThetaSpec` is checked and prepared once, when it is built: the
pairing form A, the decay Gram, the center p = D^{-1} k and the integer
decay and turns forms at z = 0 (from the integer numerators of the
matrices).  Per evaluation point z only the integer pairings of z with D
and k are added, and each form is reduced once.  A spec built again from
an equal datum in the same process takes these parts from the bounded memo
:func:`_spec_parts`.

Every certified sum of the package -- the theta series, the periodized
Gaussian pair sums below and the product sums of :mod:`toruslift.floer` --
is one call of the integer kernel :func:`lattice_sum`.  The decay exponent
and the phase (sign structure, characteristic coupling, Re(tau) quadratic
part, evaluation point z taken exactly) are integer forms in the lattice
vector over one denominator each; the phase is reduced mod 1 exactly and
each is rounded once.  The sum is the exact sum of the kept terms rounded
once, so it does not depend on the order of the walk.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from operator import mul
from typing import Iterator, Optional, Sequence

import mpmath
from mpmath.libmp import (
    from_int, mpf_lt, mpf_pi, mpi_add, mpi_div, mpi_exp, mpi_mul, mpi_neg,
    mpi_pow, mpi_sqrt, mpi_sub, round_ceiling, round_floor, to_float,
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


def _lines(box, d_quad, t_quad, da, dl, ta, tl, band, k=0):
    """(da, db, ta, tb) of each line of the last coordinate t through the
    box |w_i| <= box[i] (dim >= 2), along which the decay and turns
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
    lo, hi = -box[k], box[k]
    if len(dl) > 2:
        for x in _span(lo, hi):
            yield from _lines(
                box, d_quad, t_quad,
                da + x * (dl[0] + dq[k] * x),
                [l + w * x for l, w in zip(dl[1:], dq[k + 1:])],
                ta + x * (tl[0] + tq[k] * x),
                [l + w * x for l, w in zip(tl[1:], tq[k + 1:])], band, k + 1)
        return
    (dl0, dl1), (tl0, tl1) = dl, tl
    duu, dut, tuu, tut = dq[k], dq[k + 1], tq[k], tq[k + 1]
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


def lattice_sum(ctx, box, limit: Fraction, decay, turns):
    """``ctx.sum`` of the terms ``exp_pi(ctx, -decay(w), turns(w))`` over
    the lattice points w of the box |w_i| <= box[i] with decay(w) <=
    ``limit``, bit for bit: the one kernel of every certified sum.
    ``decay`` (positive definite) and ``turns`` are affine-quadratic forms
    in w, (den, quad, lin, const): integer numerators over one denominator,
    quad upper-triangular (quad[i][j], i <= j, the coefficient of w_i w_j),
    in the normal form den > 0 and gcd(den, all numerators) = 1 that
    :func:`_add_linear` returns.

    Each line of the last coordinate t keeps its band, the t with
    q A(t) <= c for A the decay numerator and ``limit`` = c / (q den):
    |2 q d_cc t + q db| <= isqrt(disc) decides it exactly.  Lines whose
    band quadratic has no real root are not walked (:func:`_lines`).  The
    sum is the exact sum of the kept terms rounded once, so it does not
    depend on the order of the walk."""
    d_den, d_quad, d_lin, d_const = decay
    t_den, t_quad, t_lin, t_const = turns
    d_cc = d_quad[-1][-1]
    add, close = ctx.line_terms(d_den, d_cc, t_den, t_quad[-1][-1])
    q, c = limit.denominator, limit.numerator * d_den
    a2 = 2 * q * d_cc
    a4, isqrt, top = 2 * a2, math.isqrt, box[-1]
    if len(box) == 1:
        lines = [(d_const, d_lin[0], t_const, t_lin[0])]
    else:
        lines = _lines(box, d_quad, t_quad, d_const, d_lin, t_const, t_lin,
                       (q, c, d_cc))
    for da, db, ta, tb in lines:
        # the band [lo, hi]: the integer t with |a2 t + b| <= sqrt(disc)
        b = q * db
        disc = b * b - a4 * (q * da - c)
        if disc >= 0:
            root = isqrt(disc)
            lo, hi = -((b + root) // a2), (root - b) // a2
            if lo < -top:
                lo = -top
            if hi > top:
                hi = top
            if lo <= hi:
                add(range(lo, hi + 1), da, db, ta, tb)
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
    """The set a certified sum keeps: the lattice points w of the box |w_i|
    <= ``box[i]`` with decay(w) <= ``limit`` = mu + T, the ellipsoid
    pi (decay(w) - mu) <= R^2 = pi T around the decay's minimum mu over
    R^n, which the box contains.  The terms left out add up to at most
    ``tail_bound`` (rounding is not part of it).  ``radius`` is max box[i];
    ``lambda_min`` gave the shortest-vector bound."""

    radius: int
    tail_bound: float
    lambda_min: Fraction
    limit: Fraction
    box: tuple


_PREC = 53  # interval endpoint precision in bits, as in mpmath.iv
_PI = (mpf_pi(_PREC, round_floor), mpf_pi(_PREC, round_ceiling))

# the share of tol spent on truncation; a power of two, so share * tol is
# exact
TAIL_SHARE = 0.25
# T = R^2 / pi runs over multiples of 1 / _STEPS, and max(0, -mu) is
# rounded up to a multiple of 1 / _EXCESS_STEPS for the memo key
_STEPS = 64
_EXCESS_STEPS = 16


def _int_interval(n: int) -> tuple:
    """An integer as an outward-rounded 53-bit libmp interval, as
    ``mpmath.iv.mpf(n)`` embeds it: wide integers are rounded outward."""
    return from_int(n, _PREC, round_floor), from_int(n, _PREC, round_ceiling)


def _interval(x: Fraction) -> tuple:
    """A rational as the interval quotient of its numerator and denominator."""
    return mpi_div(_int_interval(x.numerator), _int_interval(x.denominator),
                   _PREC)


_TWO = _int_interval(2)
_FOUR_OVER_PI = mpi_div(_int_interval(4), _PI, _PREC)


def _upper_gamma(g: int, x: tuple) -> tuple:
    """Gamma(g/2, x) for an interval x > 0, in libmp intervals: e^{-x} G
    with G(1) = 1, G(s + 1) = s G(s) + x^s, and G(1/2) between 2 / (sqrt x
    + sqrt(x + 2)) and 2 / (sqrt x + sqrt(x + 4/pi)) (Abramowitz and Stegun
    7.1.13, as Gamma(1/2, x) = sqrt(pi) erfc(sqrt x))."""
    root = mpi_sqrt(x, _PREC)
    if g % 2:
        low = mpi_div(_TWO, mpi_add(root, mpi_sqrt(mpi_add(x, _TWO, _PREC),
                                                   _PREC), _PREC), _PREC)
        high = mpi_div(_TWO, mpi_add(root, mpi_sqrt(
            mpi_add(x, _FOUR_OVER_PI, _PREC), _PREC), _PREC), _PREC)
        acc, power = (low[0], high[1]), root
    else:
        acc, power = _int_interval(1), x
    for j in range(2 - g % 2, g - 1, 2):  # s = j/2 = 1/2 or 1, ..., g/2 - 1
        acc = mpi_add(mpi_mul(acc, _interval(Fraction(j, 2)), _PREC), power,
                      _PREC)
        power = mpi_mul(power, x, _PREC)
    return mpi_mul(acc, mpi_exp(mpi_neg(x, _PREC), _PREC), _PREC)


def _theorem2(g: int, rho, excess: Fraction):
    """bound(k): Theorem 2's tail bound e^{pi excess} (g/2) (2/rho)^g
    Gamma(g/2, (R - rho/2)^2) at R^2 = pi k / _STEPS, the upper endpoint of
    its libmp interval rounded up to a double, or None where R >= sqrt(g/2)
    + rho/2 is not shown.  ``rho`` is an mpf at most the shortest vector
    length."""
    point = (rho, rho)
    half_rho = mpi_div(point, _TWO, _PREC)
    factor = mpi_mul(mpi_exp(mpi_mul(_PI, _interval(excess), _PREC), _PREC),
                     _interval(Fraction(g, 2)), _PREC)
    factor = mpi_mul(factor, mpi_pow(mpi_div(_TWO, point, _PREC),
                                     _int_interval(g), _PREC), _PREC)
    floor = mpi_sqrt(_interval(Fraction(g, 2)), _PREC)[1]

    def bound(k: int):
        r = mpi_sqrt(mpi_mul(_PI, _interval(Fraction(k, _STEPS)), _PREC),
                     _PREC)
        y = mpi_sub(r, half_rho, _PREC)
        if mpf_lt(y[0], floor):
            return None
        tail = mpi_mul(factor, _upper_gamma(g, mpi_mul(y, y, _PREC)), _PREC)
        return to_float(tail[1], rnd=round_ceiling)

    return bound


def _step_guess(g: int, rho: float, excess: Fraction, target: float,
                top: int) -> int:
    """The last step below ``top`` whose Theorem 2 bound, estimated in
    doubles, exceeds ``target``: only a proposal, where the interval search
    of :func:`_ellipsoid` starts, as :func:`_eigen_guess` is for
    :func:`min_eigenvalue_bound`.  0 where the doubles raise."""
    floor = math.sqrt(g / 2)

    def fails(k: int) -> bool:
        y = math.sqrt(math.pi * k / _STEPS) - rho / 2
        if y < floor:
            return True
        x = y * y
        if g % 2:
            acc, power = 2 / (y + math.sqrt(x + 4 / math.pi)), y
        else:
            acc, power = 1.0, x
        for j in range(2 - g % 2, g - 1, 2):
            acc = acc * j / 2 + power
            power *= x
        return log_factor - x + math.log(acc) > log_target

    try:
        log_factor = (math.pi * float(excess) + math.log(g / 2)
                      + g * math.log(2 / rho))
        log_target = math.log(target)
        return _last_true(fails, 0, top)
    except (ArithmeticError, ValueError):  # 0, subnormal or huge inputs
        return 0


@lru_cache(maxsize=1024)
def _ellipsoid(q_form: RatMat, tol: float, excess: Fraction,
               max_radius: int) -> tuple:
    """(T, tail bound, lambda_min) for the Gram ``q_form`` and a decay
    minimum mu >= -``excess``: T = k / _STEPS for the least k whose
    :func:`_theorem2` bound is at most TAIL_SHARE * tol, with rho =
    sqrt(pi lambda_min) rounded down.  :func:`_last_true` finds the last
    step that fails in intervals (step 0, R = 0, always fails), starting at
    :func:`_step_guess`: a right guess costs two interval bounds, and no
    guess changes the result.  No T above (max_radius + 1)^2 times the least
    diagonal entry is tried, as every box would exceed the cap there.
    Memoised on its inputs; errors are not cached."""
    lam = min_eigenvalue_bound(q_form)
    g = q_form.nrows
    rho = mpi_sqrt(mpi_mul(_PI, _interval(lam), _PREC), _PREC)[0]
    top = math.floor(_STEPS * (max_radius + 1) ** 2
                     * min(q_form[i, i] for i in range(g)))
    target = tol * TAIL_SHARE
    bound = lru_cache(maxsize=None)(_theorem2(g, rho, excess))

    def fails(k: int) -> bool:
        tail = bound(k)
        return tail is None or not tail <= target

    guess = _step_guess(g, to_float(rho), excess, target, top + 1)
    k = 1 + _last_true(fails, guess, top + 1)
    if k <= top and not fails(k):
        return Fraction(k, _STEPS), bound(k), lam
    raise TruncationBudgetExceeded(
        f"no certified radius <= {max_radius} reaches tail {tol:g}")


@lru_cache(maxsize=256)
def _inverse(gram: tuple) -> tuple:
    """The inverse of a primitive symmetric integer matrix as (integer
    rows, denominator), memoised per Gram."""
    inv = RatMat(gram).inv()
    return inv.num, inv.den


def _centre(decay) -> tuple:
    """(mu, v, s, diag) of a :func:`lattice_sum` decay form (den, quad,
    lin, const): with P the symmetric integer matrix of 2 x its quadratic
    part, decay(w) = mu + (w - w0)^T P (w - w0) / (2 den) for the centre
    w0 = -P^{-1} lin = -v / s, and diag / s is the diagonal of P^{-1}.
    mu = (const - lin^T P^{-1} lin / 2) / den is exact."""
    den, quad, lin, const = decay
    n = len(lin)
    p = [[quad[min(i, j)][max(i, j)] * (1 + (i == j)) for j in range(n)]
         for i in range(n)]
    g = gcd(*(x for row in p for x in row))
    inv, e = _inverse(tuple(tuple(x // g for x in row) for row in p))
    v = [sum(map(mul, row, lin)) for row in inv]
    s = e * g
    mu = Fraction(2 * s * const - sum(map(mul, lin, v)), 2 * s * den)
    return mu, v, s, [inv[i][i] for i in range(n)]


def _box(v, s: int, diag, den: int, offset: Fraction) -> tuple:
    """floor(|w0_i| + sqrt(offset (Q^{-1})_ii)) per coordinate, exactly, for
    w0 = -v / s and Q^{-1} = 2 den diag / s: the box of the ellipsoid
    decay - mu <= offset."""
    box = []
    for a, d in zip(map(abs, v), diag):
        # h^2 = num / dnm, and r is the largest integer with r s - a <= s h
        num, dnm = 2 * den * d * offset.numerator, s * offset.denominator
        r = (a + math.isqrt(num * s * s // dnm) + 1) // s
        while r * s > a and (r * s - a) ** 2 * dnm > num * s * s:
            r -= 1
        box.append(r)
    return tuple(box)


def truncation_radius(q_form: RatMat, tol: float = 1e-10, *, decay,
                      max_radius: int = DEFAULT_MAX_RADIUS
                      ) -> TruncationCertificate:
    """The certified kept set of a Gaussian-type lattice sum.

    ``decay`` is the sum's decay form as :func:`lattice_sum` takes it,
    whose quadratic part must be w^T ``q_form`` w (checked on the integer
    numerators; ValueError otherwise).  Its exact minimum mu over R^n and
    centre come from :func:`_centre`, and T = R^2 / pi from the memo
    :func:`_ellipsoid`, keyed on the Gram, tol and mu rounded down to a
    multiple of 1/16 (as max(0, -mu) rounded up).  The terms of decay(w) >
    mu + T add up to at most the returned tail bound, which is at most
    TAIL_SHARE * tol.  Raises TruncationBudgetExceeded when the box of the
    kept set has a radius above ``max_radius``."""
    max_radius = int(max_radius)
    min_eigenvalue_bound(q_form)  # rejects a Gram that is not definite
    den, quad, n = decay[0], decay[1], q_form.nrows
    # quad[i][j] / den is Q_ii on the diagonal and 2 Q_ij above it
    if len(decay[2]) != n or not all(
            quad[i][j] * q_form.den == (2 - (i == j)) * den * q_form.num[i][j]
            for i in range(n) for j in range(i, n)):
        raise ValueError("the decay's quadratic part is not q_form")
    mu, v, s, diag = _centre(decay)
    excess = Fraction(max(0, math.ceil(-mu * _EXCESS_STEPS)), _EXCESS_STEPS)
    offset, tail, lam = _ellipsoid(q_form, float(tol), excess, max_radius)
    box = _box(v, s, diag, den, offset)
    radius = max(box)
    if radius > max_radius:
        raise TruncationBudgetExceeded(
            f"the certified box has radius {radius} > {max_radius} at tail "
            f"{tol:g}")
    return TruncationCertificate(radius, tail, lam, mu + offset, box)


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
    at z = 0.  Per z, :meth:`forms` adds only the pairings of z with D and
    k, in integers.  A spec built again from an equal (tau, D, k, xi) in
    the same process takes these parts from the bounded memo
    :func:`_spec_parts`, which shares them between specs: they are
    immutable (tuples, RatMats and ints).
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
        self._set_parts(_spec_parts(
            self.tau_re, self.tau_im, self.d_mat, _entries(self.char),
            _entries(self.xi_lin or ())))

    def _set_parts(self, parts) -> None:
        for name, value in zip(_SPEC_PARTS, parts):
            object.__setattr__(self, name, value)

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
        decay, turns = self._z_free
        d_re, k_re, re_den = self._pairings(re for re, _ in z)
        d_im, k_im, im_den = self._pairings(im for _, im in z)
        return (_add_linear(decay, [2 * x for x in d_im], -2 * k_im, im_den),
                _add_linear(turns, d_re, -k_re, re_den))

    def with_char(self, char) -> "ThetaSpec":
        """The spec of characteristic ``char``: D, A and the decay Gram are
        kept; the characteristic is checked and the center solved again."""
        spec = copy.copy(self)
        spec._set_parts(_derive(self.d_mat, self.a_form, self.q_form,
                                self.tau_re @ self.d_mat, _entries(char),
                                self.xi_lin))
        return spec

    def bar(self) -> "ThetaSpec":
        """Spec of the conjugate series (modulus -conj(tau); same D, k, xi):
        A changes sign, the decay Gram and the center stay."""
        spec = copy.copy(self)
        tau_re = -self.tau_re
        object.__setattr__(spec, "tau_re", tau_re)
        spec._set_parts(_derive(self.d_mat, -self.a_form, self.q_form,
                                tau_re @ self.d_mat, self.char, self.xi_lin))
        return spec


# the fields of a ThetaSpec that _derive sets, in its order
_SPEC_PARTS = ("char", "xi_lin", "a_form", "q_form", "p_vec", "_z_free")


def _entries(xs) -> tuple:
    """A characteristic or sign vector as a memo key: its entries as ints
    where they are exact integers, else None (which the checks reject)."""
    return tuple(map(exact_int, xs))


@lru_cache(maxsize=512)
def _spec_parts(tau_re: RatMat, tau_im: RatMat, d_mat: RatMat, char: tuple,
                xi_lin: tuple) -> tuple:
    """The derived fields of a ThetaSpec built from the series datum (tau,
    D, k, xi), with k and xi as :func:`_entries` gives them: D is checked
    by :func:`toruslift.brane.admissible_d`, which hands over the products
    Im(tau) D and Re(tau) D it forms, then :func:`_derive` checks k and xi.
    Memoised on the datum; errors are not cached."""
    a_form, q_form, rd = admissible_d(tau_re, tau_im, d_mat,
                                      error=InadmissibleSpec,
                                      with_products=True)
    return _derive(d_mat, a_form, q_form, rd, char, xi_lin)


def _derive(d_mat: RatMat, a_form: RatMat, q_form: RatMat, rd: RatMat, char,
            xi_lin) -> tuple:
    """The fields :data:`_SPEC_PARTS` of the spec of an admissible D with
    pairing form A = ``a_form``, Im(tau) D = ``q_form`` and Re(tau) D =
    ``rd``: k and xi checked, the center p = D^{-1} k and ``_z_free`` =
    (decay, turns), the forms of :meth:`ThetaSpec.forms` at z = 0 as
    :func:`_centred` numerators."""
    n = d_mat.nrows
    char = char or (0,) * n
    if len(char) != n:
        raise InadmissibleSpec(f"characteristic must have length {n}")
    if None in char:
        raise InadmissibleSpec("characteristic must have integer entries")
    xi_lin = xi_bits(xi_lin, n, InadmissibleSpec)
    p_vec = d_mat.solve(char)
    p, p_den = _int_vec(p_vec)
    decay = _centred(q_form.num, q_form.den, p, p_den)
    # turns = [<Re(tau) D w, w> + sum_{i<j} A_ij m_i m_j + xi . m
    #          + <A^T p, m>] / 2, over twice the denominator
    den, quad, lin, const = _centred(rd.num, rd.den, p, p_den)
    a_rows = a_form.num
    for i, row in enumerate(quad):
        for j in range(i + 1, len(row)):
            row[j] += a_rows[i][j] * den
    lin = [x + (b * p_den + sum(map(mul, col, p))) * (den // p_den)
           for x, b, col in zip(lin, xi_lin, zip(*a_rows))]
    z_free = (_frozen(decay), _frozen((2 * den, quad, lin, const)))
    return char, xi_lin, a_form, q_form, p_vec, z_free


def _frozen(form: tuple) -> tuple:
    """A :func:`_centred` form with its rows and vector as tuples, so
    that specs can share it."""
    den, quad, lin, const = form
    return den, tuple(map(tuple, quad)), tuple(lin), const


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


def theta_dk(spec: ThetaSpec, z: Sequence[complex], *,
             context: str = "double") -> CertifiedValue:
    """Certified evaluation of the theta series at a complex n-vector z,
    taken exactly (:func:`_exact_z`) into the forms of
    :meth:`ThetaSpec.forms`.  The certificate reads the decay form it sums:
    the truncation error is below its tail bound (rounding is not part of
    it).
    """
    ctx = get_context(context)
    decay, turns = spec.forms(_exact_z(z, spec.n))
    cert = truncation_radius(spec.q_form, _resolved_tol(spec.tol, ctx),
                             decay=decay, max_radius=spec.max_radius)
    value = lattice_sum(ctx, cert.box, cert.limit, decay, turns)
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


def _double_sum(forms, tau: complex, tol: float, max_radius: int, ctx):
    """A pair sum's forms summed over their certified ellipsoid."""
    cert = truncation_radius(_pair_gram(tau), tol, decay=forms[0],
                             max_radius=max_radius)
    return lattice_sum(ctx, cert.box, cert.limit, *forms), cert


def gaussian_theta_lhs(tau: complex, u: complex, v: complex,
                       tol: Optional[float] = None, *,
                       context: str = "double",
                       max_radius: int = DEFAULT_MAX_RADIUS) -> CertifiedValue:
    """Certified value of the periodized Gaussian double sum

        sum_{m,n} e^{-pi/(2a) (n^2 tau conj(tau) + m^2 + 2 tau m n)}
                  e^{-pi/a (m + n conj(tau)) u} e^{pi/a (m + n tau) v}
        * e^{-pi/(2a) u^2} e^{pi/a u v} e^{-pi/(2a) v^2}.

    The prefactor is folded into each term's exact forms, so the
    certificate, which reads the decay form, covers it.
    """
    ctx = get_context(context)
    tol = _resolved_tol(tol, ctx)
    b, a = _tau_parts(tau)
    ur, ui = rat(u.real), rat(u.imag)
    vr, vi = rat(v.real), rat(v.imag)
    dr, di = ur - vr, ui - vi
    # constant prefactor magnitude, exact in Q: Re(-u^2 - v^2 + 2uv) / (2a)
    pref_coeff = -(dr * dr - di * di) / (2 * a)

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
    value, cert = _double_sum(forms, tau, tol, max_radius, ctx)
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
