"""Correctly rounded summation and the two floating backends.

Every certified sum of the package is the exact sum of its terms rounded
once per part to the context's precision, so it does not depend on the
order of the terms.  Each context also evaluates the terms of
:func:`toruslift.theta.lattice_sum` (``line_terms``), bit for bit as
``ctx.exp(ctx.to_complex(...))`` would.

Two numeric contexts are provided:

* ``double`` - Python floats / complex (IEEE binary64), default tol 1e-10;
  sums are ``math.fsum`` (Shewchuk's exact partials) on the real and on
  the imaginary parts;
* ``dd`` - double-double-equivalent precision, realized as mpmath arithmetic
  at 106 bits (the width of a binary64 pair), default tol 1e-20; sums add
  the terms' mantissas exactly as integers on a common exponent and round
  once to 106 bits.
"""

from __future__ import annotations

import cmath
import math
import operator
from array import array
from fractions import Fraction
from functools import partial, reduce
from typing import Sequence

import mpmath
from mpmath.libmp import (
    fzero, from_man_exp, from_rational, mpf_add, mpf_cos_sin, mpf_exp,
    mpf_mul, mpf_neg, round_nearest, to_float,
)

_REAL = operator.attrgetter("real")
_IMAG = operator.attrgetter("imag")


class DoubleContext:
    """IEEE binary64 backend (plain floats, cmath)."""

    name = "double"
    prec = 53
    default_tol = 1e-10

    # CPython rounds a Fraction and an int quotient correctly
    real = staticmethod(float)
    ratio = staticmethod(operator.truediv)
    # the package exponentiates complex exponents and takes real roots only
    exp = staticmethod(cmath.exp)
    sqrt = staticmethod(math.sqrt)
    pi = math.pi
    abs = staticmethod(abs)

    def to_complex(self, re, im=0) -> complex:
        return complex(float(re), float(im))

    def sum(self, terms: Sequence) -> complex:
        """The exact sum of the terms, each part correctly rounded.  An
        infinite or nan part propagates; inf + -inf in one part raises
        ValueError, and an exact finite sum too large for a float raises
        OverflowError."""
        return complex(math.fsum(map(_REAL, terms)), math.fsum(map(_IMAG, terms)))

    def line_terms(self, d_den: int, d_cc: int, t_den: int, t_cc: int):
        """``add(ts, da, db, ta, tb)`` adds the terms at t in ``ts`` of decay
        (da + t (db + d_cc t)) / d_den and turns (ta + t (tb + t_cc t)) /
        t_den; ``close`` rounds their sum (:func:`_decided`)."""
        re, im = array("d"), array("d")
        push_re, push_im = re.append, im.append
        neg_pi, two_pi = -math.pi, 2 * math.pi
        exp, cos, sin = math.exp, math.cos, math.sin
        large = 708.0  # below log(DBL_MAX / 4), cmath.exp is exp(x) cis(y)
        phases = {}

        def add(ts, da, db, ta, tb):
            for t in ts:
                x = neg_pi * ((da + t * (db + d_cc * t)) / d_den)
                k = (ta + t * (tb + t_cc * t)) % t_den
                try:
                    c, s = phases[k]
                except KeyError:
                    y = two_pi * (k / t_den)
                    c, s = phases[k] = cos(y), sin(y)
                if x > large:
                    z = cmath.exp(complex(x, two_pi * (k / t_den)))
                    e, c, s = 1.0, z.real, z.imag  # 1.0 * v is v
                else:
                    e = exp(x)
                push_re(e * c)
                push_im(e * s)

        def close(bound=None):
            if bound is None:
                return complex(math.fsum(re), math.fsum(im))
            b = math.nextafter(4 * bound[0] * to_float(bound[1]), math.inf)
            try:
                parts = _decided((re, im), -b, b, math.fsum)
            except (ValueError, OverflowError):
                return None
            if parts and all(map(math.isfinite, parts)):
                return complex(*parts)
            return None

        return add, close


def _decided(accs, low, high, rounded):
    """The rounded sums of ``accs`` if adding any value in [low, high] to
    each leaves them unchanged (rounding is monotone, so it suffices that
    acc + low and acc + high round alike), else None."""
    parts = []
    for acc in accs:
        acc.append(low)
        lo = rounded(acc)
        acc[-1] = high
        hi = rounded(acc)
        acc.pop()
        if lo != hi:
            return None
        parts.append(lo)
    return parts


def _rounded_sum(parts: list, prec: int) -> tuple:
    """The exact sum of raw mpf tuples (sign, man, exp, bc), rounded once
    to ``prec`` bits.  A special value (zero mantissa, nonzero exponent:
    inf or nan) decides the sum the way IEEE addition does."""
    low = min((p[2] for p in parts), default=0)
    total = 0
    for sign, man, exp, _ in parts:
        if not man:
            if exp:
                return reduce(mpf_add, [p for p in parts if not p[1] and p[2]])
        elif sign:
            total -= man << (exp - low)
        else:
            total += man << (exp - low)
    return from_man_exp(total, low, prec, round_nearest)


class DDContext:
    """106-bit backend via mpmath (double-double equivalent width)."""

    name = "dd"
    prec = 106
    default_tol = 1e-20

    def __init__(self):
        ctx = mpmath.mp.clone()
        ctx.prec = self.prec
        self._mp = ctx
        self.exp, self.sqrt, self.abs = ctx.exp, ctx.sqrt, ctx.fabs

    def real(self, x):
        if isinstance(x, Fraction):
            return self.ratio(x.numerator, x.denominator)
        return self._mp.mpf(x)

    def ratio(self, num: int, den: int):
        """num / den for integers, rounded once to 106 bits."""
        return self._mp.make_mpf(from_rational(num, den, self.prec, round_nearest))

    def line_terms(self, d_den: int, d_cc: int, t_den: int, t_cc: int):
        """:meth:`DoubleContext.line_terms` on raw libmp tuples, with the
        three branches of ``libmpc.mpc_exp`` (cos and sin at 4 guard bits
        tabulated) and the parts summed as :meth:`sum` sums them."""
        prec, rnd = self.prec, round_nearest
        neg_pi, two_pi = (-self.pi)._mpf_, (2 * self.pi)._mpf_
        re, im = [], []
        push_re, push_im = re.append, im.append
        phases = {}

        def angle(k):
            return mpf_mul(two_pi, from_rational(k, t_den, prec, rnd), prec, rnd)

        def add(ts, da, db, ta, tb):
            for t in ts:
                dv = da + t * (db + d_cc * t)
                k = (ta + t * (tb + t_cc * t)) % t_den
                a = mpf_mul(neg_pi, from_rational(dv, d_den, prec, rnd),
                            prec, rnd)
                if not dv:
                    c, s = mpf_cos_sin(angle(k), prec, rnd)
                elif not k:
                    c, s = mpf_exp(a, prec, rnd), fzero
                else:
                    try:
                        cw, sw = phases[k]
                    except KeyError:
                        cw, sw = phases[k] = mpf_cos_sin(angle(k), prec + 4,
                                                         rnd)
                    mag = mpf_exp(a, prec + 4, rnd)
                    c = mpf_mul(mag, cw, prec, rnd)
                    s = mpf_mul(mag, sw, prec, rnd)
                push_re(c)
                push_im(s)

        rounded = partial(_rounded_sum, prec=prec)

        def close(bound=None):
            if bound is None:
                return self.make(rounded(re), rounded(im))
            _, man, exp, _ = bound[1]
            b = from_man_exp(4 * bound[0] * man, exp)
            parts = _decided((re, im), mpf_neg(b), b, rounded)
            # no term is inf or nan: mpf_exp does not overflow
            return parts and self.make(*parts)

        return add, close

    def make(self, re: tuple, im: tuple):
        return self._mp.make_mpc((re, im))

    def to_complex(self, re, im=0):
        return self._mp.mpc(self.real(re), self.real(im))

    @property
    def pi(self):
        return +self._mp.pi

    def sum(self, terms: Sequence):
        """The exact sum of mpf/mpc terms, each part rounded once to 106
        bits: an mpc if any term is complex, else an mpf."""
        re, im = [], []
        for t in terms:
            z = getattr(t, "_mpc_", None)
            if z is None:
                re.append(t._mpf_)
            else:
                re.append(z[0])
                im.append(z[1])
        total = _rounded_sum(re, self.prec)
        if not im:
            return self._mp.make_mpf(total)
        return self.make(total, _rounded_sum(im, self.prec))


_CONTEXTS = {"double": DoubleContext(), "dd": DDContext()}


def get_context(name: str):
    try:
        return _CONTEXTS[name]
    except KeyError:
        raise ValueError(f"unknown precision {name!r}; expected 'double' or 'dd'") from None
