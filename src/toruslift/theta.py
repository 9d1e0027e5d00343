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
and the comparison arithmetic runs in interval mode (mpmath.iv), so the
reported tail bound is rigorous, if deliberately crude.  It bounds the
truncation error only: the floating-point rounding of the summed terms is
not included.

Series terms keep exact rational phase bookkeeping: every phase contribution
that is rational in the inputs (sign structure, characteristic coupling, the
Re(tau) quadratic part) accumulates as a Fraction and is reduced mod 1
before any float is produced.  Terms are consumed in the canonical order
(shells, lexicographic inside a shell) by the deterministic compensated
summation from :mod:`toruslift.summation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from typing import Iterator, Optional, Sequence

import mpmath

from .errors import (
    InadmissibleSpec,
    NotPositiveDefinite,
    TruncationBudgetExceeded,
)
from .exact import RatMat, rat, ratvec, vec_dot
from .summation import get_context

DEFAULT_MAX_RADIUS = 40

_iv = mpmath.iv


def _iv_num(x):
    """Exact embedding of a rational/integer/float into an interval scalar."""
    if isinstance(x, Fraction):
        return _iv.mpf(x.numerator) / _iv.mpf(x.denominator)
    return _iv.mpf(x)


# -- lattice enumeration ------------------------------------------------------

def iter_shell(dim: int, s: int) -> Iterator[tuple]:
    """Lattice points with sup norm exactly ``s``, in lexicographic order."""
    if s == 0:
        yield (0,) * dim
        return
    for m in product(range(-s, s + 1), repeat=dim):
        if max(abs(c) for c in m) == s:
            yield m


def iter_ball(dim: int, radius: int) -> Iterator[tuple]:
    """Canonical term order: shells 0..radius, lexicographic inside each."""
    for s in range(radius + 1):
        yield from iter_shell(dim, s)


def shell_count(dim: int, s: int) -> int:
    if s == 0:
        return 1
    return (2 * s + 1) ** dim - (2 * s - 1) ** dim


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
    lam = min_eigenvalue_bound(q_form)
    dim = q_form.nrows
    lam_iv = _iv_num(lam)
    c1_iv = _iv_num(linear_bound)
    c0_iv = _iv_num(constant_exponent)
    shift_iv = _iv_num(center_shift)
    pi_iv = _iv.pi

    def shell_bound(s: int):
        gap = _iv_num(s) - shift_iv
        if float(gap.a) < 0:
            gap = _iv.mpf(0)
        expo = pi_iv * (-lam_iv * gap * gap + c1_iv * _iv_num(s) + c0_iv)
        count = _iv_num(2 * dim) * _iv_num(2 * s + 1) ** (dim - 1)
        return count * _iv.exp(expo)

    def ratio_bound(s: int):
        # shell_bound(s+1)/shell_bound(s), computed without division; valid
        # and monotone decreasing for s >= center_shift
        gap = _iv_num(s) - shift_iv
        count_ratio = (_iv_num(2 * s + 3) / _iv_num(2 * s + 1)) ** (dim - 1)
        expo = pi_iv * (-lam_iv * (2 * gap + 1) + c1_iv)
        return count_ratio * _iv.exp(expo)

    start = max(0, math.ceil(float(shift_iv.b)))
    for m_try in range(start, max_radius + 1):
        s1 = m_try + 1
        if float(ratio_bound(s1).b) > 0.5:
            continue
        tail = 2 * shell_bound(s1)
        if float(tail.b) <= tol:
            return TruncationCertificate(
                radius=m_try, tail_bound=float(tail.b), lambda_min=lam
            )
    raise TruncationBudgetExceeded(
        f"no certified radius <= {max_radius} reaches tail {tol:g}"
    )


# -- the theta spec -----------------------------------------------------------

@dataclass(frozen=True)
class ThetaSpec:
    """Admissible data (tau, D, k, xi) for one theta series.

    ``tol`` of None defers to the numeric context default (1e-10 in double,
    1e-20 in dd).  Admissibility is checked on construction.
    """

    tau_re: RatMat
    tau_im: RatMat
    d_mat: RatMat
    char: tuple = ()
    xi_lin: tuple = ()
    tol: Optional[float] = None
    max_radius: int = DEFAULT_MAX_RADIUS

    def __post_init__(self):
        n = self.d_mat.nrows
        if self.tau_re.shape != (n, n) or self.tau_im.shape != (n, n):
            raise InadmissibleSpec("tau blocks must match the rank of D")
        if not self.d_mat.is_integer() or self.d_mat.det() == 0:
            raise InadmissibleSpec("D must be integer and nonsingular")
        qf = self.tau_im @ self.d_mat
        if qf.T != qf or not qf.is_positive_definite():
            raise InadmissibleSpec("Im(tau) D must be symmetric positive definite")
        if not self.a_form.is_integer():
            raise InadmissibleSpec(
                "Re(tau) D - D^T Re(tau)^T must be an integer matrix"
            )
        char = tuple(int(c) for c in self.char) or (0,) * n
        if len(char) != n:
            raise InadmissibleSpec(f"characteristic must have length {n}")
        object.__setattr__(self, "char", char)
        bits = tuple(int(b) for b in self.xi_lin) or (0,) * n
        if len(bits) != n or any(b not in (0, 1) for b in bits):
            raise InadmissibleSpec("xi_lin must be a 0/1 vector of length n")
        object.__setattr__(self, "xi_lin", bits)

    @property
    def n(self) -> int:
        return self.d_mat.nrows

    @cached_property
    def a_form(self) -> RatMat:
        return self.tau_re @ self.d_mat - self.d_mat.T @ self.tau_re.T

    @property
    def q_form(self) -> RatMat:
        """Gram of the decay form: Im(tau) D."""
        return self.tau_im @ self.d_mat

    @property
    def p_vec(self) -> tuple:
        return self.d_mat.solve(ratvec(self.char))

    def xi_value(self, m) -> int:
        a = self.a_form.num  # integer numerators: __post_init__ checked it
        mm = [int(c) for c in m]
        total = sum(
            a[i][j] * mm[i] * mm[j]
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )
        total += sum(b * c for b, c in zip(self.xi_lin, mm))
        return total % 2

    def with_char(self, char) -> "ThetaSpec":
        return ThetaSpec(self.tau_re, self.tau_im, self.d_mat, tuple(char),
                         self.xi_lin, self.tol, self.max_radius)

    def bar(self) -> "ThetaSpec":
        """Spec of the conjugate series (modulus -conj(tau); same D, k, xi)."""
        return ThetaSpec(-self.tau_re, self.tau_im, self.d_mat, self.char,
                         self.xi_lin, self.tol, self.max_radius)


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

    Accepts complex/real entries or explicit (re, im) pairs; the latter keep
    lattice-exact shifts like z + tau^T h representable without a rounding
    step through machine doubles.
    """
    out = []
    for w in z:
        if isinstance(w, tuple):
            re, im = w
            out.append((rat(re), rat(im)))
        else:
            ww = complex(w)
            out.append((rat(ww.real), rat(ww.imag)))
    if len(out) != n:
        raise InadmissibleSpec(f"z must have length {n}")
    return out


def _theta_certificate(spec: ThetaSpec, z, tol: float) -> TruncationCertificate:
    im_z = ratvec(im for _, im in z)
    # |e^{2 pi i <Dm - k, z>}| = e^{pi(-2<m, D^T Im z> + 2<k, Im z>)}
    lin = 2 * sum(abs(c) for c in (spec.d_mat.T @ im_z))
    const = 2 * vec_dot(ratvec(spec.char), im_z)
    shift = max((abs(c) for c in spec.p_vec), default=Fraction(0))
    return truncation_radius(
        spec.q_form,
        linear_bound=lin,
        tol=tol,
        center_shift=shift,
        constant_exponent=const,
        max_radius=spec.max_radius,
    )


def _theta_sum(spec: ThetaSpec, z, ctx, radius: int, partitions: int = 1):
    """Sum the series over shells 0..radius in canonical order."""
    p = spec.p_vec
    a = spec.a_form
    re_q = spec.tau_re @ spec.d_mat
    im_q = spec.q_form
    z_re = [ctx.real(re) for re, _ in z]
    z_im = [ctx.real(im) for _, im in z]
    two_pi = 2 * ctx.pi
    terms = []
    for m in iter_ball(spec.n, radius):
        w = tuple(Fraction(mi) - pi_ for mi, pi_ in zip(m, p))
        turns = (
            Fraction(spec.xi_value(m), 2)
            + vec_dot(p, a @ m) / 2
            + vec_dot(re_q @ w, w) / 2
        ) % 1
        g = tuple(int(ci) - ki for ci, ki in zip(spec.d_mat @ m, spec.char))
        real_exp = -ctx.pi * ctx.real(vec_dot(im_q @ w, w))
        angle = two_pi * ctx.real(turns)
        for gi, xr, xi_ in zip(g, z_re, z_im):
            real_exp = real_exp - two_pi * (gi * xi_)
            angle = angle + two_pi * (gi * xr)
        terms.append(ctx.exp(ctx.to_complex(real_exp, angle)))
    return ctx.sum(terms, partitions)


def theta_dk(spec: ThetaSpec, z: Sequence[complex], *, context: str = "double",
             partitions: int = 1, radius: Optional[int] = None) -> CertifiedValue:
    """Certified evaluation of the theta series at a complex n-vector z.

    The absolute truncation error is bounded by the certificate's tail
    bound, itself below the working tolerance; rounding in the summed terms
    is not part of that bound.  ``radius`` can enlarge the
    summed ball beyond the certified shell count (self-consistency checks);
    it is clamped from below by the certified radius.
    """
    ctx = get_context(context)
    zz = _exact_z(z, spec.n)
    tol = _resolved_tol(spec.tol, ctx)
    cert = _theta_certificate(spec, zz, tol)
    use = cert.radius if radius is None else max(radius, cert.radius)
    value = _theta_sum(spec, zz, ctx, use, partitions)
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
    hh = [int(c) for c in h]
    shift_re = spec.tau_re.T @ hh
    shift_im = spec.tau_im.T @ hh
    z_shift = [
        (re + xr, im + xi_)
        for (re, im), xr, xi_ in zip(zz, shift_re, shift_im)
    ]
    lhs = theta_dk(spec, z_shift, context=context).value
    dh = spec.d_mat @ hh
    re_quad = vec_dot(spec.tau_re @ dh, hh)  # Re <tau D h, h>, exact
    im_quad = vec_dot(spec.tau_im @ dh, hh)
    turns = (Fraction(spec.xi_value(hh), 2) - re_quad / 2) % 1
    exp_re = ctx.pi * ctx.real(im_quad)
    angle = 2 * ctx.pi * ctx.real(turns)
    for gi, (re, im) in zip(dh, zz):
        exp_re = exp_re + 2 * ctx.pi * ctx.real(int(gi) * im)
        angle = angle - 2 * ctx.pi * ctx.real(int(gi) * re)
    rhs = ctx.exp(ctx.to_complex(exp_re, angle)) \
        * theta_dk(spec, zz, context=context).value
    return float(ctx.abs(lhs - rhs))


def verify_characteristic_shift(spec: ThetaSpec, z, s, *,
                                context: str = "double") -> float:
    """Residual of the shift law k -> k + D s against the explicit phase
    (-1)^xi(s) e^{pi i <A s, D^{-1} k>}."""
    ctx = get_context(context)
    ss = [int(c) for c in s]
    shifted = spec.with_char(
        tuple(k + int(c) for k, c in zip(spec.char, spec.d_mat @ ss))
    )
    lhs = theta_dk(shifted, z, context=context).value
    turns = (
        Fraction(spec.xi_value(ss), 2) + vec_dot(spec.a_form @ ss, spec.p_vec) / 2
    ) % 1
    phase = ctx.exp(ctx.to_complex(0, 2 * ctx.pi * ctx.real(turns)))
    rhs = phase * theta_dk(spec, z, context=context).value
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


def _double_sum(term, tau: complex, lin_coeff, tol: float, max_radius: int,
                ctx, partitions: int, const_exponent=Fraction(0)):
    cert = truncation_radius(
        _pair_gram(tau),
        linear_bound=lin_coeff,
        tol=tol,
        constant_exponent=const_exponent,
        max_radius=max_radius,
    )
    terms = [term(m, n) for m, n in iter_ball(2, cert.radius)]
    return ctx.sum(terms, partitions), cert


def gaussian_theta_lhs(tau: complex, u: complex, v: complex,
                       tol: Optional[float] = None, *,
                       context: str = "double",
                       max_radius: int = DEFAULT_MAX_RADIUS,
                       partitions: int = 1) -> CertifiedValue:
    """Certified value of the periodized Gaussian double sum

        sum_{m,n} e^{-pi/(2a) (n^2 tau conj(tau) + m^2 + 2 tau m n)}
                  e^{-pi/a (m + n conj(tau)) u} e^{pi/a (m + n tau) v}
        * e^{-pi/(2a) u^2} e^{pi/a u v} e^{-pi/(2a) v^2}.
    """
    ctx = get_context(context)
    tol = _resolved_tol(tol, ctx)
    b, a = _tau_parts(tau)
    lin = _pair_linear_coeff(tau, [u, v])
    # constant prefactor magnitude, exact in Q: Re(-u^2 - v^2 + 2uv) / (2a)
    ur, ui = rat(u.real), rat(u.imag)
    vr, vi = rat(v.real), rat(v.imag)
    pref_coeff = (
        -(ur * ur - ui * ui) - (vr * vr - vi * vi) + 2 * (ur * vr - ui * vi)
    ) / (2 * a)
    tol_eff = tol * math.exp(-max(float(_iv_num(pref_coeff).b), 0.0) * math.pi)
    inv_a = ctx.real(Fraction(1, 1) / a)
    half_pi_a = ctx.pi * inv_a / 2
    tau_c = ctx.to_complex(b, a)
    tau_cc = ctx.to_complex(b, -a)
    mod2 = ctx.real(b * b + a * a)
    uu = ctx.to_complex(u.real, u.imag)
    vv = ctx.to_complex(v.real, v.imag)

    def term(m, n):
        quad = mod2 * (n * n) + (m * m) + 2 * tau_c * (m * n)
        return ctx.exp(
            -half_pi_a * quad
            - 2 * half_pi_a * ((m + n * tau_cc) * uu)
            + 2 * half_pi_a * ((m + n * tau_c) * vv)
        )

    value, cert = _double_sum(term, tau, lin, tol_eff, max_radius, ctx,
                              partitions)
    prefactor = ctx.exp(
        -half_pi_a * (uu * uu) + 2 * half_pi_a * (uu * vv)
        - half_pi_a * (vv * vv)
    )
    return CertifiedValue(value * prefactor, cert, context)


def _identity1_first(tau: complex, z: complex, tol: float, ctx,
                     max_radius: int, partitions: int):
    """Signed periodized Gaussian with the e^{-pi/(2a) z^2} prefactor."""
    b, a = _tau_parts(tau)
    lin = _pair_linear_coeff(tau, [z])
    zr, zi = rat(z.real), rat(z.imag)
    pref_coeff = -(zr * zr - zi * zi) / (2 * a)
    tol_eff = tol * math.exp(-max(float(_iv_num(pref_coeff).b), 0.0) * math.pi)
    inv_a = ctx.real(Fraction(1, 1) / a)
    half_pi_a = ctx.pi * inv_a / 2
    b_real = ctx.real(b)
    tau_cc = ctx.to_complex(b, -a)
    zz = ctx.to_complex(z.real, z.imag)
    mod2 = ctx.real(b * b + a * a)

    def term(m, n):
        # (m + n tau)(m + n conj(tau)) = m^2 + 2 Re(tau) m n + |tau|^2 n^2
        sgn = -1 if (m * n) % 2 else 1
        quad = (m * m) + 2 * b_real * (m * n) + mod2 * (n * n)
        return sgn * ctx.exp(-half_pi_a * quad
                             - 2 * half_pi_a * ((m + n * tau_cc) * zz))

    value, _ = _double_sum(term, tau, lin, tol_eff, max_radius, ctx,
                           partitions)
    return value * ctx.exp(-half_pi_a * zz * zz)


def _identity1_middle(tau: complex, z: complex, tol: float, ctx,
                      max_radius: int, partitions: int):
    """Shifted-Gaussian form: sum over e^{-pi/(2a)(z+m)^2}
    e^{-pi/a n conj(tau) (z+m)} e^{-pi/(2a) n^2 |tau|^2}."""
    b, a = _tau_parts(tau)
    lin = _pair_linear_coeff(tau, [z])
    zr, zi = rat(z.real), rat(z.imag)
    const = abs(zr * zr - zi * zi) / (2 * a)  # from the constant z^2 part
    inv_a = ctx.real(Fraction(1, 1) / a)
    half_pi_a = ctx.pi * inv_a / 2
    tau_cc = ctx.to_complex(b, -a)
    zz = ctx.to_complex(z.real, z.imag)
    mod2 = ctx.real(b * b + a * a)

    def term(m, n):
        w = zz + m
        return ctx.exp(-half_pi_a * (w * w) - 2 * half_pi_a * (n * tau_cc * w)
                       - half_pi_a * mod2 * (n * n))

    value, _ = _double_sum(term, tau, lin, tol, max_radius, ctx, partitions,
                           const_exponent=const)
    return value


def verify_identity_1(tau: complex, z: complex, tol: Optional[float] = None,
                      *, context: str = "double",
                      max_radius: int = DEFAULT_MAX_RADIUS,
                      partitions: int = 1) -> float:
    """Three-way residual between the signed periodized Gaussian, its
    shifted-Gaussian form, and sqrt(2a) (conjugate series at 0) (series at z).
    """
    ctx = get_context(context)
    tol = _resolved_tol(tol, ctx)
    first = _identity1_first(tau, z, tol, ctx, max_radius, partitions)
    middle = _identity1_middle(tau, z, tol, ctx, max_radius, partitions)
    base = spec_n1(tau, tol=tol, max_radius=max_radius)
    theta_z = theta_dk(base, [z], context=context, partitions=partitions).value
    bar_0 = theta_bar_dk(base, [0], context=context, partitions=partitions).value
    _, a = _tau_parts(tau)
    product_form = ctx.sqrt(ctx.real(2 * a)) * bar_0 * theta_z
    return max(
        float(ctx.abs(first - product_form)),
        float(ctx.abs(middle - product_form)),
        float(ctx.abs(first - middle)),
    )


def verify_identity_2(tau: complex, u: complex, v: complex,
                      tol: Optional[float] = None, *,
                      context: str = "double",
                      max_radius: int = DEFAULT_MAX_RADIUS,
                      partitions: int = 1) -> float:
    """Residual of the factorization of the periodized Gaussian double sum
    into sqrt(2a) (series at u) (conjugate series at v)."""
    ctx = get_context(context)
    tol = _resolved_tol(tol, ctx)
    lhs = gaussian_theta_lhs(tau, u, v, tol, context=context,
                             max_radius=max_radius, partitions=partitions)
    base = spec_n1(tau, tol=tol, max_radius=max_radius)
    theta_u = theta_dk(base, [u], context=context, partitions=partitions).value
    bar_v = theta_bar_dk(base, [v], context=context, partitions=partitions).value
    _, a = _tau_parts(tau)
    rhs = ctx.sqrt(ctx.real(2 * a)) * theta_u * bar_v
    return float(ctx.abs(lhs.value - rhs))
