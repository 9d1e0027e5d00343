"""Exact rational linear algebra over the integers.

The whole structural layer of the library (symplectic forms, brane supports,
lattice reductions, admissibility and positivity certificates) is computed
here without any floating point.  Matrices are immutable; every operation
returns a new value.  Vectors are plain tuples of Fractions.

A :class:`RatMat` is stored as one integer numerator matrix over one
positive common denominator, ``M = N / den``, in normal form: the gcd of
``den`` and every entry of ``N`` is 1, so a zero matrix has ``den == 1``
and an integer matrix is exactly one with ``den == 1``.  Every operation
normalises its result, so two equal matrices have equal ``(N, den)`` and
``==``/``hash`` are plain tuple comparisons (matrices serve as cache keys).
Arithmetic runs on the integer numerators; ``det``, ``inv``, ``rank``,
``kernel`` and the positivity test use fraction-free (Bareiss)
elimination, whose divisions are exact.  Entries read back through
``m[i, j]``, ``row``, ``col`` and ``rows`` are Fractions.

Callers that know a result's denominator in advance (the torus forms, the
doubled torus, brane canonicalisation and lifts) work on the numerators
directly: :func:`int_matmul` multiplies numerator matrices and
``RatMat._make`` normalises the result once.

Floats are accepted as inputs and converted *exactly* (every binary float is
a rational), so positivity tests on float-valued data are still rigorous.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Sequence


def rat(x) -> Fraction:
    """Exact conversion to Fraction. Floats convert via their exact binary value."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


def ratvec(xs: Iterable) -> tuple[Fraction, ...]:
    return tuple(rat(x) for x in xs)


def vec_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    # accumulate over a common denominator; one normalization at the end
    num = 0
    den = 1
    for x, y in zip(a, b, strict=True):
        xn = x.numerator
        if not xn:
            continue
        yn = y.numerator
        if not yn:
            continue
        d = x.denominator * y.denominator
        if d == 1:
            num += xn * yn * den
        else:
            num = num * d + xn * yn * den
            den *= d
    return Fraction(num, den)


def exact_int(x) -> int | None:
    """x as an int when it is an exact integer (an int, or a Fraction or
    float of integral value), else None: nothing is truncated."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else None
    if isinstance(x, float) and x.is_integer():
        return int(x)
    return None


def int_entries(xs, what: str) -> tuple[int, ...]:
    """The entries of ``xs`` as ints (:func:`exact_int`); a non-integral
    entry raises ValueError naming ``what`` instead of being truncated."""
    out = tuple(map(exact_int, xs))
    if None in out:
        raise ValueError(f"{what} must have integer entries")
    return out


def int_matmul(a, b) -> tuple[tuple[int, ...], ...]:
    """Product of two integer matrices given as tuples of rows.  Each row
    of the product adds up the rows of ``b`` that the row of ``a`` weights,
    skipping zero weights: the structural matrices are mostly zeros."""
    zero = (0,) * len(b[0]) if b else ()
    out = []
    for r in a:
        acc = zero
        for x, brow in zip(r, b):
            if x:
                if acc is zero:
                    acc = brow if x == 1 else [x * y for y in brow]
                else:
                    acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(tuple(acc))
    return tuple(out)


def _int_vec(xs) -> tuple[tuple[int, ...], int]:
    """(numerators, common denominator) of a vector of exact scalars."""
    v = [x if type(x) is int or type(x) is Fraction else rat(x) for x in xs]
    den = lcm(*[x.denominator for x in v])
    return tuple([x.numerator * (den // x.denominator) for x in v]), den


def _bareiss(a: list[list[int]], ncols: int, full: bool) -> tuple[list[int], int, int]:
    """Fraction-free elimination of the integer rows ``a`` in place, over
    the first ``ncols`` columns.

    Returns (pivot columns, last pivot, sign of the row permutation).  Row
    ``i`` of the result holds pivot ``i`` at its pivot column; every pivot
    equals the leading minor of the pivot rows and columns, and each update
    ``(p * x - f * y) // prev`` divides exactly (Bareiss).  With ``full``
    the pivot columns are cleared above the pivots too (Gauss-Jordan), and
    every pivot then equals the last one.
    """
    nr = len(a)
    pivots: list[int] = []
    prev = 1
    sign = 1
    row = 0
    for c in range(ncols):
        if row == nr:
            break
        for piv in range(row, nr):
            if a[piv][c]:
                break
        else:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
            sign = -sign
        prow = a[row]
        p = prow[c]
        for r in range(0 if full else row + 1, nr):
            if r == row:
                continue
            cur = a[r]
            f = cur[c]
            if f:
                a[r] = [(p * x - f * y) // prev for x, y in zip(cur, prow)]
            elif prev != p:
                a[r] = [p * x // prev for x in cur]
        pivots.append(c)
        prev = p
        row += 1
    return pivots, prev, sign


class RatMat:
    """Immutable rational matrix: an integer numerator matrix over one
    positive common denominator, kept in normal form.

    >>> m = RatMat([[1, 2], [3, 4]])
    >>> m.det()
    Fraction(-2, 1)
    >>> (m @ m.inv()) == RatMat.identity(2)
    True
    """

    __slots__ = ("num", "den")

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(r) for r in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        if all(type(x) is int for r in rows for x in r):
            self.num, self.den = rows, 1
            return
        fr = [[rat(x) for x in r] for r in rows]
        # with every entry in lowest terms, the lcm of the denominators
        # leaves numerators whose gcd with it is 1: already normal
        den = lcm(*(x.denominator for r in fr for x in r))
        self.num = tuple(tuple(x.numerator * (den // x.denominator) for x in r)
                         for r in fr)
        self.den = den

    @classmethod
    def _make(cls, num: tuple, den: int) -> "RatMat":
        """Normalise (num, den), den != 0, and wrap it; ``num`` is a
        rectangular tuple of tuples of integers."""
        if den < 0:
            num, den = tuple([tuple([-x for x in r]) for r in num]), -den
        if den != 1:
            g = gcd(den, *chain.from_iterable(num))
            if g != 1:
                num = tuple([tuple([x // g for x in r]) for r in num])
                den //= g
        return cls._raw(num, den)

    @classmethod
    def _raw(cls, num: tuple, den: int) -> "RatMat":
        # internal: (num, den) is already a tuple of tuples in normal form
        m = object.__new__(cls)
        m.num = num
        m.den = den
        return m

    # -- construction -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "RatMat":
        return cls._raw(
            tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1
        )

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RatMat":
        return cls._raw(tuple((0,) * ncols for _ in range(nrows)), 1)

    @classmethod
    def diag(cls, entries: Iterable) -> "RatMat":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Iterable[Iterable]) -> "RatMat":
        cols = [list(c) for c in cols]
        if not cols:
            return cls([])
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

    # -- shape / access -----------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.num)

    @property
    def ncols(self) -> int:
        return len(self.num[0]) if self.num else 0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in r) for r in self.num)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    def row(self, i: int) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(x, den) for x in self.num[i])

    def col(self, j: int) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(r[j], den) for r in self.num)

    def columns(self) -> list[tuple[Fraction, ...]]:
        return [self.col(j) for j in range(self.ncols)]

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "RatMat":
        num = self.num
        return RatMat._make(tuple(tuple(num[i][j] for j in cols) for i in rows),
                            self.den)

    # -- algebra -------------------------------------------------------

    def _aligned(self, other: "RatMat"):
        # numerators of self and other over their common denominator
        self._check_same_shape(other)
        da, db = self.den, other.den
        if da == db:
            return self.num, other.num, da
        den = lcm(da, db)
        fa, fb = den // da, den // db
        a = self.num if fa == 1 else [[fa * x for x in r] for r in self.num]
        b = other.num if fb == 1 else [[fb * x for x in r] for r in other.num]
        return a, b, den

    def __add__(self, other: "RatMat") -> "RatMat":
        a, b, den = self._aligned(other)
        return RatMat._make(
            tuple(tuple(map(add, r1, r2)) for r1, r2 in zip(a, b)), den
        )

    def __sub__(self, other: "RatMat") -> "RatMat":
        a, b, den = self._aligned(other)
        return RatMat._make(
            tuple(tuple(map(sub, r1, r2)) for r1, r2 in zip(a, b)), den
        )

    def __neg__(self) -> "RatMat":
        return RatMat._raw(tuple(tuple(-x for x in r) for r in self.num), self.den)

    def __mul__(self, scalar) -> "RatMat":
        c = rat(scalar)
        p = c.numerator
        return RatMat._make(tuple(tuple(p * x for x in r) for r in self.num),
                            self.den * c.denominator)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, RatMat):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
            return RatMat._make(int_matmul(self.num, other.num),
                                self.den * other.den)
        # vector: sequence of scalars -> tuple of Fractions
        v, vden = _int_vec(other)
        if self.ncols != len(v):
            raise ValueError(f"shape mismatch {self.shape} @ vector[{len(v)}]")
        den = self.den * vden
        return tuple(Fraction(sum(map(mul, r, v)), den) for r in self.num)

    @property
    def T(self) -> "RatMat":
        return RatMat._raw(tuple(zip(*self.num)), self.den)

    def _check_same_shape(self, other: "RatMat"):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    # -- predicates ----------------------------------------------------

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.num)

    def is_integer(self) -> bool:
        return self.den == 1

    def is_symmetric(self) -> bool:
        return self.is_square() and self.num == tuple(zip(*self.num))

    def is_antisymmetric(self) -> bool:
        return self.is_square() and self.num == tuple(
            tuple(-x for x in c) for c in zip(*self.num))

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatMat) and self.den == other.den
                and self.num == other.num)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return f"RatMat[{body}]"

    # -- conversions ---------------------------------------------------

    def to_int_rows(self) -> list[list[int]]:
        if self.den != 1:
            raise ValueError("matrix has non-integer entries")
        return [list(r) for r in self.num]

    # -- elimination-based operations -----------------------------------

    def det(self) -> Fraction:
        if not self.is_square():
            raise ValueError("det of non-square matrix")
        n = self.nrows
        a = [list(r) for r in self.num]
        pivots, last, sign = _bareiss(a, n, full=False)
        if len(pivots) < n:
            return Fraction(0)
        return Fraction(sign * last, self.den ** n)

    def inv(self) -> "RatMat":
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        a = []
        for i, r in enumerate(self.num):
            e = [0] * n
            e[i] = 1
            a.append([*r, *e])
        pivots, last, _ = _bareiss(a, n, full=True)
        if len(pivots) < n:
            raise ZeroDivisionError("matrix is singular")
        # N [I | 0] -> [p I | p N^-1] with p the last pivot; M^-1 = den N^-1
        den = self.den
        return RatMat._make(tuple([tuple([den * x for x in r[n:]]) for r in a]),
                            last)

    def solve(self, rhs: Sequence) -> tuple[Fraction, ...]:
        """Solve self @ x = rhs for square invertible self, by one
        fraction-free elimination of the numerators [N | den v] for
        rhs = v / vden: it ends on [p I | p den N^-1 v], and
        x = den N^-1 v / vden."""
        if not self.is_square():
            raise ValueError("solve with a non-square matrix")
        n = self.nrows
        v, vden = _int_vec(rhs)
        if len(v) != n:
            raise ValueError(f"shape mismatch {self.shape} @ vector[{len(v)}]")
        a = [list(r) + [self.den * x] for r, x in zip(self.num, v)]
        pivots, last, _ = _bareiss(a, n, full=True)
        if len(pivots) < n:
            raise ZeroDivisionError("matrix is singular")
        return tuple(Fraction(r[n], last * vden) for r in a)

    def rank(self) -> int:
        a = [list(r) for r in self.num]
        return len(_bareiss(a, self.ncols, full=False)[0])

    def kernel(self) -> "RatMat":
        """Columns spanning the rational kernel {x : self @ x = 0}.

        Column k has a 1 at the k-th free column of the reduced row echelon
        form and minus that form's entries at the pivot columns.
        """
        nc = self.ncols
        a = [list(r) for r in self.num]
        pivots, last, _ = _bareiss(a, nc, full=True)
        free = [c for c in range(nc) if c not in pivots]
        if not free:
            return RatMat([[] for _ in range(nc)])
        # reduced row echelon form = a / last on the pivot rows
        k = [[0] * len(free) for _ in range(nc)]
        for j, fc in enumerate(free):
            k[fc][j] = last
            for prow, pc in enumerate(pivots):
                k[pc][j] = -a[prow][fc]
        return RatMat._make(tuple(map(tuple, k)), last)

    def is_positive_definite(self) -> bool:
        """Sylvester test; requires a symmetric matrix.

        One Bareiss pass without row exchanges: the k-th pivot is the k-th
        leading minor of the numerator matrix (of the same sign as that of
        the matrix), and the pass stops at the first one that is <= 0.
        """
        if not self.is_symmetric():
            raise ValueError("positive-definiteness test needs a symmetric matrix")
        a = [list(r) for r in self.num]
        n = len(a)
        prev = 1
        for c in range(n):
            prow = a[c]
            p = prow[c]
            if p <= 0:
                return False
            for r in range(c + 1, n):
                cur = a[r]
                f = cur[c]
                a[r] = [(p * x - f * y) // prev for x, y in zip(cur, prow)]
            prev = p
        return True


def _scaled_blocks(mats):
    # numerators of every block over the lcm of their denominators; blocks
    # in normal form stay in normal form together over that lcm
    den = lcm(*(m.den for m in mats))
    return [m.num if m.den == den else
            tuple(tuple(den // m.den * x for x in r) for r in m.num)
            for m in mats], den


def hstack(*mats: RatMat) -> RatMat:
    rows = mats[0].nrows
    if any(m.nrows != rows for m in mats):
        raise ValueError("hstack: row counts differ")
    blocks, den = _scaled_blocks(mats)
    return RatMat._raw(tuple(sum(rs, ()) for rs in zip(*blocks)), den)


def vstack(*mats: RatMat) -> RatMat:
    cols = mats[0].ncols
    if any(m.ncols != cols for m in mats):
        raise ValueError("vstack: column counts differ")
    blocks, den = _scaled_blocks(mats)
    return RatMat._raw(sum(blocks, ()), den)
