"""Fraction references of the lattice-sum forms, shared by the tests.

The package builds every form that ``theta.lattice_sum`` takes from integer
numerators, with ``theta._centred`` and ``theta._add_linear``.  These
references build the same polynomials through Fraction algebra, as the
package once did.  :func:`ref_int_form` scales a polynomial to integer
numerators over the least common denominator of its coefficients, which
is the normal form the kernel takes (den > 0 and gcd(den, all numerators)
= 1), so a builder and its reference must give equal integers.
"""

import math
from fractions import Fraction

from toruslift.exact import hstack, vec_add, vec_dot, vstack


def ref_int_form(mat, lin, const):
    """m -> m^T M m + lin . m + const, with rational coefficients and M
    square but not necessarily symmetric, as (den, quad, lin, const):
    integer numerators over the least common denominator, quad[i][j]
    (i <= j) the coefficient of m_i m_j."""
    dim = len(lin)
    quad = [[Fraction(0)] * dim for _ in range(dim)]
    for i, row in enumerate(mat):
        for j, x in enumerate(row):
            quad[min(i, j)][max(i, j)] += x
    const = Fraction(const)
    den = math.lcm(*(x.denominator for x in [*sum(quad, []), *lin, const]))
    return (den, [[int(x * den) for x in row] for row in quad],
            [int(x * den) for x in lin], int(const * den))


def ref_centered_form(mat, center):
    """(rows, lin, const) of <M (m - c), m - c> for a RatMat M and a
    Fraction vector c, the arguments of :func:`ref_int_form`."""
    mc = mat @ center
    lin = tuple(-x for x in vec_add(mc, mat.T @ center))
    return mat.rows, lin, vec_dot(center, mc)


def ref_double_gram(spec):
    """The decay Gram of the doubled product sums of ``spec``, from RatMat
    blocks: with X = Im(tau)^{-1} D^T,
    G = 1/2 [[Re(tau) X Re(tau)^T + Im(tau) X Im(tau)^T, Re(tau) X],
             [X Re(tau)^T, X]]."""
    tau_re, tau_im = spec.tau_re, spec.tau_im
    x_mat = tau_im.inv() @ spec.d_mat.T
    c_mat = tau_re @ x_mat @ tau_re.T + tau_im @ x_mat @ tau_im.T
    cross = x_mat @ spec.tau_re.T
    gram = vstack(hstack(c_mat, cross.T), hstack(cross, x_mat))
    return gram * Fraction(1, 2)
