"""Correctness references written apart from toruslift.

Nothing here imports the package under test.  Three references:

* ``theta_reference`` -- a direct sum of the theta series

      sum_m (-1)^xi(m) e^{pi i <D^{-1}k, A m>} e^{pi i <tau D (m-p), m-p>}
            e^{2 pi i <D m - k, z>},   A = Re(tau) D - D^T Re(tau)^T,
      p = D^{-1} k,   xi(m) = sum_{i<j} A_ij m_i m_j + xi_lin . m,

  with every exponent formed exactly in rationals and one 128-bit mpmath
  exponential per term, summed shell by shell until the shells stop
  contributing at 2^-110 of the absolute series;
* ``lift_failures`` -- exact checks of a lifted brane: W^T Omega W = 0,
  J^2 = -I, J^T Omega J = Omega, rank [W | JW] = rank W = half the doubled
  dimension, and the base block of W spanning the brane's support, with
  Omega and J also rebuilt from the period matrix;
* ``diagram_constant`` -- sqrt(det(2 Im tau D)) times the conjugate series
  at 0, from ``theta_reference``.

The exact checks run on integer matrices over one common denominator
(``Q``), which is Fraction arithmetic without a Fraction per entry.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import mpmath

_MP = mpmath.mp.clone()
_MP.prec = 128
_STOP = mpmath.mpf(2) ** -110


# -- small exact matrices -------------------------------------------------------------


class Q:
    """A rational matrix as integer rows over one positive denominator."""

    __slots__ = ("rows", "den")

    def __init__(self, rows, den=1):
        self.rows = [list(r) for r in rows]
        self.den = den

    @classmethod
    def of(cls, entries):
        """From rows of ints/Fractions (anything Fraction accepts)."""
        fr = [[Fraction(x) for x in r] for r in entries]
        den = math.lcm(1, *(x.denominator for r in fr for x in r))
        return cls([[int(x * den) for x in r] for r in fr], den)

    @property
    def shape(self):
        return len(self.rows), len(self.rows[0]) if self.rows else 0

    def __matmul__(self, other):
        cols = list(zip(*other.rows))
        return Q([[sum(a * b for a, b in zip(r, c) if a) for c in cols]
                  for r in self.rows], self.den * other.den)

    def __neg__(self):
        return Q([[-x for x in r] for r in self.rows], self.den)

    @property
    def T(self):
        return Q(list(zip(*self.rows)), self.den)

    def __eq__(self, other):
        return self.shape == other.shape and all(
            a * other.den == b * self.den
            for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))

    def is_zero(self):
        return not any(x for r in self.rows for x in r)

    def rank(self):
        """Rank over Q by fraction-free (Bareiss) elimination."""
        a = [r[:] for r in self.rows]
        nr, nc = self.shape
        rank, prev = 0, 1
        for col in range(nc):
            piv = next((i for i in range(rank, nr) if a[i][col]), None)
            if piv is None:
                continue
            a[rank], a[piv] = a[piv], a[rank]
            for i in range(rank + 1, nr):
                a[i] = [(a[rank][col] * a[i][j] - a[i][col] * a[rank][j]) // prev
                        for j in range(nc)]
            prev = a[rank][col]
            rank += 1
            if rank == nr:
                break
        return rank

    def block(self, rows, cols):
        return Q([[self.rows[i][j] for j in cols] for i in rows], self.den)


def hcat(*mats):
    den = math.lcm(*(m.den for m in mats))
    rows = [[] for _ in mats[0].rows]
    for m in mats:
        f = den // m.den
        for out, r in zip(rows, m.rows):
            out.extend(x * f for x in r)
    return Q(rows, den)


def vcat(*mats):
    den = math.lcm(*(m.den for m in mats))
    return Q([[x * (den // m.den) for x in r] for m in mats for r in m.rows],
             den)


def identity(n):
    return Q([[int(i == j) for j in range(n)] for i in range(n)])


def fr_inverse(rows):
    """Inverse of a nonsingular rational matrix by Gauss-Jordan over Fraction."""
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [r[n:] for r in a]


# -- the doubled torus from the period matrix -------------------------------------------


def doubled_forms(tau_re, tau_im):
    """(Omega, J) of the doubled torus, from the defining formulas

        Omega = 1/2 S^T diag(omega, -omega^{-1}) S,
        J     = S^{-1} [[0, omega^{-1}], [-omega, 0]] S,
        S     = [[I, 0], [-B, I]],

    with omega = [[0, Im tau], [-Im tau^T, 0]] and B = [[0, Re tau],
    [-Re tau^T, 0]]."""
    n = len(tau_re)
    z = [[0] * n for _ in range(n)]
    omega = [list(a) + list(b) for a, b in zip(z, tau_im)] + \
            [list(a) + list(b) for a, b in zip(
                [[-tau_im[j][i] for j in range(n)] for i in range(n)], z)]
    b_form = [list(a) + list(b) for a, b in zip(z, tau_re)] + \
             [list(a) + list(b) for a, b in zip(
                 [[-tau_re[j][i] for j in range(n)] for i in range(n)], z)]
    w = Q.of(omega)
    winv = Q.of(fr_inverse(omega))
    b = Q.of(b_form)
    dim = 2 * n
    eye, zero = identity(dim), Q([[0] * dim for _ in range(dim)])
    shear = vcat(hcat(eye, zero), hcat(-b, eye))
    shear_inv = vcat(hcat(eye, zero), hcat(b, eye))
    mid = vcat(hcat(w, zero), hcat(zero, -winv))
    big_omega = shear.T @ mid @ shear
    big_omega.den *= 2
    j0 = vcat(hcat(zero, winv), hcat(-w, zero))
    return big_omega, shear_inv @ j0 @ shear


@lru_cache(maxsize=16)
def _torus_checks(tau):
    """Reference (Omega, J) for a period pair and the failed identities."""
    omega, j = doubled_forms(*tau)
    dim = omega.shape[0]
    failures = []
    if not (j @ j) == -identity(dim):
        failures.append("J^2 != -I")
    if not (j.T @ omega @ j) == omega:
        failures.append("J^T Omega J != Omega")
    return omega, j, tuple(failures)


def lift_failures(tau, support, lifted_support, lifted_omega, lifted_j):
    """Exact checks of one lift; returns the list of failed properties.

    ``tau`` is the job's (Re, Im) period pair as nested tuples, ``support``
    the base brane's support basis (columns), and the rest the lifted
    brane's support W and its torus' Omega and J, all as rows of rationals.
    Omega and J must equal the forms rebuilt from tau, which satisfy
    J^2 = -I and J^T Omega J = Omega (checked once per period pair)."""
    omega, j, failures = _torus_checks(tau)
    failures = list(failures)
    if not Q.of(lifted_omega) == omega:
        failures.append("Omega differs from the period-matrix formula")
    if not Q.of(lifted_j) == j:
        failures.append("J differs from the period-matrix formula")
    dim = omega.shape[0]
    w = Q.of(lifted_support)
    if not (w.T @ omega @ w).is_zero():
        failures.append("W^T Omega W != 0")
    rank_w = w.rank()
    if rank_w != dim // 2 or w.shape[1] != dim // 2:
        failures.append(f"rank W = {rank_w}, expected {dim // 2}")
    if hcat(w, j @ w).rank() != rank_w:
        failures.append("rank [W | JW] != rank W")
    base = w.block(range(dim // 2), range(w.shape[1]))
    u = Q.of(support)
    rank_u = u.rank()
    if base.rank() != rank_u or hcat(base, u).rank() != rank_u:
        failures.append("base block of W does not span the brane support")
    return failures


# -- theta series -------------------------------------------------------------------------


def _mpq(x):
    x = Fraction(x)
    return _MP.mpf(x.numerator) / x.denominator


def _solve(rows, vec):
    inv = fr_inverse(rows)
    return [sum(a * Fraction(b) for a, b in zip(r, vec)) for r in inv]


def _shell(n, s):
    if s == 0:
        yield (0,) * n
        return
    for m in product(range(-s, s + 1), repeat=n):
        if max(abs(c) for c in m) == s:
            yield m


def _scaled(values):
    """Integers and one common denominator for a list of rationals."""
    fr = [Fraction(v) for v in values]
    den = math.lcm(1, *(v.denominator for v in fr))
    return [int(v * den) for v in fr], den


def theta_reference(tau_re, tau_im, d, k, xi, z, min_radius=0):
    """Direct high-precision theta sum; returns (value, sum of |terms|).

    All arguments are exact: tau_re, tau_im and d as rows of rationals, k
    and xi as integer vectors and z as (Re, Im) rational pairs.  Each term's
    exponent pi (x + i y) is formed exactly, on integers over fixed
    denominators, from w = m - p, g = D m - k and the formula above.
    Shells are added until one beyond ``min_radius`` contributes less than
    2^-110 of the absolute series (the terms decay like a Gaussian, so the
    shells left out add less than that again)."""
    n = len(d)
    fr = lambda rows: [[Fraction(x) for x in r] for r in rows]
    re, im, dm = fr(tau_re), fr(tau_im), fr(d)
    mul = lambda a, b: [[sum(a[i][t] * b[t][j] for t in range(n))
                         for j in range(n)] for i in range(n)]
    tr = lambda a: [list(r) for r in zip(*a)]
    a_form = [[x - y for x, y in zip(r1, r2)]
              for r1, r2 in zip(mul(re, dm), mul(tr(dm), tr(re)))]
    if any(x.denominator != 1 for r in a_form for x in r):
        raise ValueError("inadmissible: A is not integral")
    a_int = [[int(x) for x in r] for r in a_form]
    d_int = [[int(x) for x in r] for r in dm]
    big_p, dp = _scaled(_solve(dm, k))
    re_q, dq_re = _scaled(x for r in mul(re, dm) for x in r)
    im_q, dq_im = _scaled(x for r in mul(im, dm) for x in r)
    zz, dz = _scaled([a for a, _ in z] + [b for _, b in z])
    z_re, z_im = zz[:n], zz[n:]
    # x = -<Im(tau) D w, w> - 2 <g, Im z>,
    # y = xi(m) + <p, A m> + <Re(tau) D w, w> + 2 <g, Re z>, over dx and dy
    dx = math.lcm(dp * dp * dq_im, dz)
    dy = math.lcm(dp, dp * dp * dq_re, dz)
    fx_q, fx_z = dx // (dp * dp * dq_im), 2 * (dx // dz)
    fy_p, fy_q, fy_z = dy // dp, dy // (dp * dp * dq_re), 2 * (dy // dz)
    ctx = _MP
    pi = ctx.pi
    total = ctx.mpc(0)
    abs_total = ctx.mpf(0)
    s = 0
    while True:
        shell_abs = ctx.mpf(0)
        for m in _shell(n, s):
            w = [mi * dp - bp for mi, bp in zip(m, big_p)]
            g = [sum(d_int[i][j] * m[j] for j in range(n)) - k[i]
                 for i in range(n)]
            quad_re = sum(w[i] * re_q[i * n + j] * w[j]
                          for i in range(n) for j in range(n))
            quad_im = sum(w[i] * im_q[i * n + j] * w[j]
                          for i in range(n) for j in range(n))
            sign = sum(a_int[i][j] * m[i] * m[j]
                       for i in range(n) for j in range(i + 1, n))
            sign += sum(b * c for b, c in zip(xi, m))
            p_am = sum(bp * a_int[i][j] * m[j] for i, bp in enumerate(big_p)
                       for j in range(n))
            x = -quad_im * fx_q - fx_z * sum(a * b for a, b in zip(g, z_im))
            y = (sign * dy + p_am * fy_p + quad_re * fy_q
                 + fy_z * sum(a * b for a, b in zip(g, z_re)))
            mag = ctx.exp(pi * ctx.mpf(x) / dx)
            total += mag * ctx.expjpi(ctx.mpf(y) / dy)
            shell_abs += mag
        abs_total += shell_abs
        if s > min_radius and shell_abs <= _STOP * abs_total:
            return total, abs_total
        s += 1
        if s > min_radius + 200:
            raise RuntimeError("reference theta sum did not converge")


def theta_error(value, ref):
    """|value - ref| in 128-bit arithmetic, for a value that is a complex
    or an mpmath number of any working precision (a dd value keeps all its
    106 bits)."""
    return _MP.fabs(_MP.mpc(value) - ref)


def diagram_constant(tau_re, tau_im, d, xi, char=None):
    """sqrt(det(2 Im tau D)) times the conjugate series (modulus
    -conj(tau), same D and xi, characteristic ``char`` or 0) at z = 0.

    Returns (constant, sqrt(det(2 Im tau D)), the root times the sum of
    |terms|)."""
    n = len(d)
    char = char or (0,) * n
    neg_re = [[-Fraction(x) for x in r] for r in tau_re]
    value, abs_sum = theta_reference(neg_re, tau_im, d, char, xi,
                                     [(0, 0)] * n)
    two_q = [[2 * sum(Fraction(tau_im[i][t]) * Fraction(d[t][j])
                      for t in range(n)) for j in range(n)] for i in range(n)]
    det = two_q[0][0] if n == 1 else \
        two_q[0][0] * two_q[1][1] - two_q[0][1] * two_q[1][0]
    root = _MP.sqrt(abs(_mpq(det)))
    return root * value, root, root * abs_sum
