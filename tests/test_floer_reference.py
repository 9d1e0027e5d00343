"""The doubled product forms against a test-local copy of the code they
replaced.

``floer._double_forms`` builds the decay and turns forms of ``mu2_double``
from integer parts kept once per (tau, D) and integer linear and constant
parts per call.  :func:`fraction_double_forms` is the computation it
replaced: the doubled Gram from ``RatMat`` blocks, the Fraction
references of ``fractionforms`` for the decay, and Fraction vectors for the
turns.  Both must give the same integers, the same Gram and the same center
shift.
"""

import random
from fractions import Fraction

import pytest

from fractionforms import ref_centered_form, ref_double_gram, ref_int_form
from toruslift import floer
from toruslift.exact import RatMat, ratvec, vec_add, vec_dot, vec_sub
from toruslift.floer import DoublePoint, mu2_double
from toruslift.lattice import cosets
from toruslift.theta import ThetaSpec

F = Fraction


def fraction_double_forms(spec, l, pt):
    """(gram, shift, decay, turns) as mu2_double computed them through
    RatMat blocks, the Fraction form references and Fraction vectors."""
    n = spec.n
    d_mat, a_form, p = spec.d_mat, spec.a_form, spec.p_vec
    q = d_mat.T.solve(vec_add(a_form @ p, ratvec(l)))
    cm = vec_sub(pt.r, p)
    cn = vec_sub(pt.theta_hat, q)
    gram = ref_double_gram(spec)
    shift = max((abs(c) for c in cm + cn), default=Fraction(0))
    decay = ref_int_form(*ref_centered_form(gram, tuple(-x for x in cm + cn)))
    half = Fraction(1, 2)
    t_mat = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        t_mat[i][i + 1:n] = [half * x for x in a_form.num[i][i + 1:]]
        t_mat[n + i][:n] = [-half * x for x in d_mat.num[i]]
    t_lin = tuple(
        half * (b - x - u + v) - y - z for b, x, y, z, u, v in zip(
            spec.xi_lin, d_mat.T @ cn, a_form.T @ pt.kappa, d_mat.T @ pt.phi,
            a_form @ pt.r, a_form.T @ p)
    ) + tuple(y - half * x for x, y in zip(d_mat @ cm, d_mat @ pt.kappa))
    t_const = (
        -half * vec_dot(cn, d_mat @ cm)
        + vec_dot(cn, d_mat @ pt.kappa)
        - vec_dot(cm, vec_add(a_form.T @ pt.kappa, d_mat.T @ pt.phi))
        + half * vec_dot(p, a_form @ pt.r)
    )
    return gram, shift, decay, ref_int_form(t_mat, t_lin, t_const)


# (Re tau, Im tau, D): n = 1 and 2; D = I, diagonal and unimodular; Re tau
# != 0, some with an odd pairing form A
SPECS = [
    (RatMat([[0]]), RatMat([[1]]), RatMat([[1]])),
    (RatMat([[F(1, 2)]]), RatMat([[1]]), RatMat([[3]])),
    (RatMat([[F(-1, 3)]]), RatMat([[F(3, 4)]]), RatMat([[2]])),
    (RatMat.zeros(2, 2), RatMat.identity(2), RatMat.identity(2)),
    (RatMat.zeros(2, 2), RatMat.identity(2), RatMat([[2, 0], [0, 1]])),
    (RatMat.zeros(2, 2), RatMat.identity(2) * 2, RatMat([[1, 0], [0, 3]])),
    (RatMat.zeros(2, 2), RatMat.identity(2), RatMat([[2, 1], [1, 1]])),
    (RatMat([[0, 1], [0, 0]]), RatMat.identity(2), RatMat([[2, 1], [1, 1]])),
    (RatMat([[1, 1], [0, 1]]), RatMat.identity(2), RatMat([[2, 1], [1, 1]])),
    (RatMat.identity(2) * F(1, 2), RatMat.identity(2),
     RatMat([[2, 1], [1, 2]])),
    (RatMat([[F(1, 3), 0], [0, F(-1, 5)]]), RatMat([[2, 0], [0, F(1, 2)]]),
     RatMat([[1, 0], [0, 4]])),
]
DENS = (1, 2, 20, 7, 1000003, 998244353)


def _point(rng, n):
    def vec():
        out = []
        for _ in range(n):
            den = rng.choice(DENS)
            out.append(F(rng.randint(-2 * den, 2 * den), den))
        return out

    return DoublePoint(vec(), vec(), vec(), vec())


def _specs(case, rng):
    """The spec of a case at each coset characteristic and an integer
    characteristic outside the coset box, and the conjugate of each."""
    tau_re, tau_im, d_mat = SPECS[case]
    n = d_mat.nrows
    bits = tuple(rng.randint(0, 1) for _ in range(n))
    base = ThetaSpec(tau_re, tau_im, d_mat, (0,) * n, bits)
    chars = cosets(d_mat) + [tuple(rng.randint(-5, 5) for _ in range(n))]
    derived = [base.with_char(k) for k in chars]
    return [base] + derived + [s.bar() for s in derived]


@pytest.mark.parametrize("case", range(len(SPECS)))
def test_double_forms_are_the_fraction_forms(case):
    rng = random.Random(case)
    for spec in _specs(case, rng):
        n = spec.n
        ls = cosets(spec.d_mat.T) + [tuple(rng.randint(-4, 4)
                                           for _ in range(n))]
        for l in ls:
            for pt in [DoublePoint.zero(n)] + [_point(rng, n)
                                               for _ in range(3)]:
                got = floer._double_forms(spec, l, pt)
                want = fraction_double_forms(spec, l, pt)
                assert got == want, (spec, l, pt)
                gram, shift, decay, turns = got
                assert (gram.num, gram.den) == (want[0].num, want[0].den)
                assert type(shift) is Fraction
                for form in (decay, turns):
                    assert all(type(x) is int for x in
                               (form[0], *form[2], form[3],
                                *(y for row in form[1] for y in row)))


def test_double_forms_are_built_once_per_modulus_and_slope():
    spec = ThetaSpec(*SPECS[8], (0, 0), (1, 0))
    floer._doubled.cache_clear()
    pt = _point(random.Random(3), 2)
    for l in [(0, 0), (1, -2)]:
        floer._double_forms(spec, l, pt)
        floer._double_forms(spec.with_char((1, 1)), l, pt)
    assert floer._doubled.cache_info().misses == 1
    floer._double_forms(spec.bar(), (0, 0), pt)
    assert floer._doubled.cache_info().misses == 2


@pytest.mark.parametrize("l", [(F(1, 2), 0), (1.9, 0), (0, "1")])
def test_a_dual_characteristic_is_not_truncated(l):
    spec = ThetaSpec(*SPECS[3], (0, 0))
    with pytest.raises(ValueError,
                       match="dual characteristic must have integer entries"):
        mu2_double(spec, l, DoublePoint.zero(2))


def test_integral_dual_characteristics_of_any_exact_type():
    spec = ThetaSpec(*SPECS[4], (1, 0), tol=1e-6)
    pt = _point(random.Random(5), 2)
    want = mu2_double(spec, (1, 0), pt).value
    for l in [(F(1), F(0)), (1.0, 0.0), (True, False)]:
        assert mu2_double(spec, l, pt).value == want
