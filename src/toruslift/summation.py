"""Deterministic compensated summation and the two floating backends.

Accumulation order is part of this library's contract: series terms are
produced in a canonical order (sup-norm shells, lexicographic inside each
shell) and reduced with Neumaier-compensated chunk sums of a fixed size,
whose results are then summed in index order.

Two numeric contexts are provided:

* ``double`` - Python floats / complex (IEEE binary64), default tol 1e-10;
* ``dd`` - double-double-equivalent precision, realized as mpmath arithmetic
  at 106 bits (the width of a binary64 pair), default tol 1e-20.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

import mpmath

CHUNK_SIZE = 256


def neumaier_sum(values: Iterable[float]) -> float:
    """Compensated sequential sum (Neumaier's improved Kahan scheme)."""
    s = 0.0
    comp = 0.0
    for x in values:
        t = s + x
        if abs(s) >= abs(x):
            comp += (s - t) + x
        else:
            comp += (x - t) + s
        s = t
    return s + comp


def _chunks(seq: Sequence, size: int):
    for start in range(0, len(seq), size):
        yield seq[start : start + size]


def compensated_sum(values: Sequence):
    """Deterministic chunked compensated sum of real or complex floats:
    each chunk of ``CHUNK_SIZE`` terms is summed, then the chunk sums are
    summed in index order."""
    values = list(values)
    if not values:
        return 0.0
    if any(isinstance(v, complex) for v in values):
        sums = [
            complex(
                neumaier_sum(v.real if isinstance(v, complex) else v for v in ch),
                neumaier_sum(v.imag if isinstance(v, complex) else 0.0 for v in ch),
            )
            for ch in _chunks(values, CHUNK_SIZE)
        ]
        return complex(
            neumaier_sum(s.real for s in sums), neumaier_sum(s.imag for s in sums)
        )
    return neumaier_sum([neumaier_sum(ch) for ch in _chunks(values, CHUNK_SIZE)])


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

    def sum(self, terms: Sequence):
        return compensated_sum(terms)


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
            return self._mp.mpf(x.numerator) / self._mp.mpf(x.denominator)
        return self._mp.mpf(x)

    def ratio(self, num: int, den: int):
        """num / den for integers, through the normalised Fraction: mpf(num)
        / mpf(den) rounds an operand wider than 106 bits, so the result
        would otherwise depend on how the ratio is written."""
        return self.real(Fraction(num, den))

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
        # mpmath addition at fixed precision is deterministic in any given
        # order; keep the exact same chunked order as the double backend.
        acc = self._mp.mpf(0)
        for ch in _chunks(list(terms), CHUNK_SIZE):
            chunk_acc = self._mp.mpf(0)
            for t in ch:
                chunk_acc = chunk_acc + t
            acc = acc + chunk_acc
        return acc


_CONTEXTS = {"double": DoubleContext(), "dd": DDContext()}


def get_context(name: str):
    try:
        return _CONTEXTS[name]
    except KeyError:
        raise ValueError(f"unknown precision {name!r}; expected 'double' or 'dd'") from None
