"""Correctly rounded summation and the two floating backends.

Every certified sum of the package is reduced with one rounding per part:
the exact sum of the terms is rounded once to the context's precision.  A
correctly rounded sum has one right answer for a given set of terms, so the
result does not depend on the order in which the terms are produced.

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
from fractions import Fraction
from functools import reduce
from typing import Sequence

import mpmath
from mpmath.libmp import from_man_exp, from_rational, mpf_add, round_nearest

_REAL = operator.attrgetter("real")
_IMAG = operator.attrgetter("imag")


class DoubleContext:
    """IEEE binary64 backend (plain floats, cmath)."""

    name = "double"
    default_tol = 1e-10

    def real(self, x) -> float:
        return float(x)  # correctly rounded for a Fraction by CPython

    # ratio(num, den) = num / den for integers: CPython rounds int division
    # correctly, so this is float(Fraction(num, den))
    ratio = staticmethod(operator.truediv)

    def to_complex(self, re, im=0) -> complex:
        return complex(float(re), float(im))

    def exp(self, z):
        if isinstance(z, complex):
            return cmath.exp(z)
        return math.exp(z)

    def sqrt(self, x):
        if isinstance(x, complex):
            return cmath.sqrt(x)
        return math.sqrt(x)

    @property
    def pi(self) -> float:
        return math.pi

    def abs(self, z) -> float:
        return abs(z)

    def sum(self, terms: Sequence) -> complex:
        """The exact sum of the terms, each part correctly rounded.  An
        infinite or nan part propagates; inf + -inf in one part raises
        ValueError, and an exact finite sum too large for a float raises
        OverflowError."""
        return complex(math.fsum(map(_REAL, terms)), math.fsum(map(_IMAG, terms)))


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

    def real(self, x):
        if isinstance(x, Fraction):
            return self.ratio(x.numerator, x.denominator)
        return self._mp.mpf(x)

    def ratio(self, num: int, den: int):
        """num / den for integers, rounded once to 106 bits."""
        return self._mp.make_mpf(from_rational(num, den, self.prec, round_nearest))

    def to_complex(self, re, im=0):
        return self._mp.mpc(self.real(re), self.real(im))

    def exp(self, z):
        return self._mp.exp(z)

    def sqrt(self, x):
        return self._mp.sqrt(x)

    @property
    def pi(self):
        return +self._mp.pi

    def abs(self, z):
        return self._mp.fabs(z)

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
        return self._mp.make_mpc((total, _rounded_sum(im, self.prec)))


_CONTEXTS = {"double": DoubleContext(), "dd": DDContext()}


def get_context(name: str):
    try:
        return _CONTEXTS[name]
    except KeyError:
        raise ValueError(f"unknown precision {name!r}; expected 'double' or 'dd'") from None
