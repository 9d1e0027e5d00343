"""Integer lattice normal forms with unimodular witnesses.

Row Hermite form ``H = U @ M``, column Hermite form ``H = M @ V`` and Smith
form ``S = U @ M @ V`` all return their transforms, and ``|det U| = |det V|
= 1`` always holds (checked cheaply in tests, relied on everywhere).
:func:`row_hnf` is the one integer elimination: the column form is its
transpose, the Smith form alternates the two, the kernels and solvers read
the Smith form, and the coset box is the column form's diagonal.

Built on :class:`toruslift.exact.RatMat`; inputs must have integer entries.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from .errors import SingularModulus
from .exact import RatMat, int_entries

__all__ = [
    "row_hnf",
    "column_hnf",
    "smith",
    "int_kernel",
    "saturate_columns",
    "cosets",
    "coset_reduce",
    "solve_integer_system",
]


def row_hnf(m: RatMat) -> tuple[RatMat, RatMat]:
    """Row Hermite normal form.

    Returns (H, U) with H = U @ M, U unimodular.  Pivots are positive,
    entries below a pivot are zero and entries above it are reduced into
    [0, pivot).  Pivot selection is deterministic (smallest |value|, first
    on ties), so the output is a canonical form of the row span.
    """
    nr, nc = m.nrows, m.ncols
    # rows of [M | I]: one pass over a row updates H and U together
    a = []
    for i, r in enumerate(m.to_int_rows()):
        e = [0] * nr
        e[i] = 1
        a.append(r + e)
    row = 0
    for col in range(nc):
        if row == nr:
            break
        # eliminate below (row, col) by repeated division
        while True:
            nz = [i for i in range(row, nr) if a[i][col]]
            if not nz:
                break
            piv = nz[0]
            if len(nz) > 1:
                # min keeps the first of equal keys: the lowest row wins ties
                piv = min(nz, key=lambda i: abs(a[i][col]))
            if piv != row:
                a[row], a[piv] = a[piv], a[row]
            if len(nz) == 1:
                break
            prow = a[row]
            p = prow[col]
            done = True
            for i in nz:
                if i == piv:
                    continue
                if i == row:
                    i = piv  # the row swapped out of the pivot position
                q = -(a[i][col] // p)
                a[i] = cur = [y + q * z for y, z in zip(a[i], prow)]
                if cur[col]:
                    done = False
            if done:
                break
        if not nz:
            continue
        prow = a[row]
        if prow[col] < 0:
            a[row] = prow = [-x for x in prow]
        p = prow[col]
        for i in range(row):
            q = -(a[i][col] // p)
            if q:
                a[i] = [y + q * z for y, z in zip(a[i], prow)]
        row += 1
    # every row is an integer list: wrap without re-scanning
    return (RatMat._raw(tuple([tuple(r[:nc]) for r in a]), 1),
            RatMat._raw(tuple([tuple(r[nc:]) for r in a]), 1))


def column_hnf(m: RatMat) -> tuple[RatMat, RatMat]:
    """Column Hermite normal form: (H, V) with H = M @ V."""
    if not m.ncols:
        # M.T would lose the row count of a matrix with no columns
        return m, RatMat.identity(0)
    h_t, u = row_hnf(m.T)
    return h_t.T, u.T


def smith(m: RatMat) -> tuple[RatMat, RatMat, RatMat]:
    """Smith normal form.

    Returns (S, U, V) with S = U @ M @ V diagonal, s_1 | s_2 | ... >= 0.
    Row and column Hermite forms alternate until the matrix is diagonal
    (Kannan and Bachem, SIAM J. Comput. 8 (1979)).  Where s_i does not
    divide a later s_j, column j is added to column i, and the next pass
    puts gcd(s_i, s_j) in place of s_i.
    """
    nc = m.ncols
    s, u, v = m, RatMat.identity(m.nrows), RatMat.identity(nc)
    while True:
        s, w = row_hnf(s)
        u = w @ u
        s, w = column_hnf(s)
        v = v @ w
        a = s.to_int_rows()
        if any(x for i, r in enumerate(a) for j, x in enumerate(r) if i != j):
            continue
        d = [a[i][i] for i in range(min(len(a), nc))]
        # zeros trail the positive pivots, and 0 % s_i == 0
        fix = next(((i, j) for i in range(len(d)) for j in range(i + 1, len(d))
                    if d[i] and d[j] % d[i]), None)
        if fix is None:
            return s, u, v
        i, j = fix
        add = RatMat([[int(r == c or (r, c) == (j, i)) for c in range(nc)]
                      for r in range(nc)])
        s, v = s @ add, v @ add


def int_kernel(m: RatMat) -> RatMat:
    """Basis (columns) of the integer kernel {x in Z^c : M x = 0}.

    The basis is primitive: it also spans the rational kernel, so it is a
    basis of the saturated kernel lattice.
    """
    s, _, v = smith(m)
    n = min(s.nrows, s.ncols)
    r = sum(1 for i in range(n) if s[i, i] != 0)
    cols = [v.col(j) for j in range(r, v.ncols)]
    if not cols:
        return RatMat([[] for _ in range(m.ncols)])
    return RatMat.from_columns(cols)


def saturate_columns(m: RatMat) -> RatMat:
    """Basis of the saturation span_Q(columns of M) ∩ Z^r, as columns."""
    s, u, _ = smith(m)
    n = min(s.nrows, s.ncols)
    r = sum(1 for i in range(n) if s[i, i] != 0)
    p = u.inv()
    cols = [p.col(j) for j in range(r)]
    if not cols:
        return RatMat([[] for _ in range(m.nrows)])
    return RatMat.from_columns(cols)


@lru_cache(maxsize=256)
def _coset_data(m: RatMat):
    if not m.is_square():
        raise SingularModulus("coset enumeration needs a square integer matrix")
    d = m.det()
    if d == 0:
        raise SingularModulus("coset enumeration needs a nonsingular matrix")
    h, _ = column_hnf(m)
    # h is lower triangular with positive diagonal (full rank square case)
    h = tuple(map(tuple, h.to_int_rows()))  # immutable: the value is cached
    diag = [h[i][i] for i in range(len(h))]
    return h, diag


def coset_reduce(m: RatMat, x) -> tuple[int, ...]:
    """Canonical representative of integer vector x in Z^n / (M Z^n)."""
    h, _ = _coset_data(m)
    n = len(h)
    y = list(int_entries(x, "coset vector"))
    for i in range(n):
        q = y[i] // h[i][i]
        if q:
            for r in range(i, n):
                y[r] -= q * h[r][i]
    return tuple(y)


def cosets(m: RatMat) -> list[tuple[int, ...]]:
    """Canonical representatives of Z^n / (M Z^n), lexicographically sorted.

    The count is |det M|; raises SingularModulus when det M = 0.  Under the
    lower triangular column Hermite form H every point of the box
    0 <= y_i < h_ii is its own :func:`coset_reduce` representative.
    """
    _, diag = _coset_data(m)
    return list(product(*(range(d) for d in diag)))


def solve_integer_system(a: RatMat, w) -> tuple[Fraction, ...]:
    """One rational solution x of A x = w (A integer), via the Smith form.

    Raises ValueError when the system is inconsistent.
    """
    s, u, v = smith(a)
    rhs = u @ tuple(Fraction(x) if not isinstance(x, Fraction) else x for x in w)
    n = min(s.nrows, s.ncols)
    y = [Fraction(0)] * s.ncols
    for i in range(s.nrows):
        si = s[i, i] if i < n else Fraction(0)
        if si != 0:
            y[i] = rhs[i] / si
        elif rhs[i] != 0:
            raise ValueError("inconsistent integer linear system")
    return v @ y
