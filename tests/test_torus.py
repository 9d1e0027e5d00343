from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toruslift.errors import (
    DualityAssumptionViolated,
    InadmissibleD,
    NotSplit,
    SingularModulus,
)
from toruslift import torus as torus_module
from toruslift.exact import RatMat, hstack, vstack
from toruslift.torus import (
    Torus,
    double_torus,
    dual_torus,
    mirror_chern,
    mirror_of_double,
)

fracs = st.fractions(min_value=-2, max_value=2, max_denominator=3)


def rat_matrices(n):
    return st.lists(
        st.lists(fracs, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(RatMat)


def split_tori(n):
    return st.tuples(
        rat_matrices(n), rat_matrices(n).filter(lambda m: m.det() != 0)
    ).map(lambda p: Torus.from_period(p[0], p[1]))


def test_from_period_gram_layout():
    re = RatMat([[0, 1], [0, 0]])
    im = RatMat([[2, 1], [0, 1]])
    t = Torus.from_period(re, im)
    z = RatMat.zeros(2, 2)
    assert t.omega == vstack(hstack(z, im), hstack(-im.T, z))
    assert t.b_field == vstack(hstack(z, re), hstack(-re.T, z))
    assert t.dim == 4 and t.n == 2 and t.is_split


def test_period_of_raw_torus_raises():
    t = Torus(RatMat([[0, 1], [-1, 0]]))
    with pytest.raises(NotSplit):
        t.period()


def test_degenerate_omega_rejected():
    with pytest.raises(SingularModulus):
        Torus.from_period(RatMat([[0]]), RatMat([[0]]))


@settings(max_examples=40, deadline=None)
@given(split_tori(2))
def test_omega_inv_split_fast_path(t):
    assert t.omega_inv() == t.omega.inv()


def test_dual_period_mismatch_is_a_typed_error(monkeypatch):
    # a dual period whose block forms disagree with the dual forms must
    # raise, not assert (python -O strips asserts)
    monkeypatch.setattr(torus_module, "_complex_inv",
                        lambda re, im: (RatMat([[0]]), RatMat([[1]])))
    with pytest.raises(DualityAssumptionViolated):
        dual_torus(Torus.from_period(RatMat([[0]]), RatMat([[1]])))


@settings(max_examples=30, deadline=None)
@given(split_tori(2))
def test_dual_is_an_involution(t):
    try:
        d = dual_torus(t)
    except DualityAssumptionViolated:
        assume(False)
    dd = dual_torus(d)
    assert dd == t
    assert d.is_split


def test_dual_period_one_dim():
    # tau = 1 + i maps to -1/tau = (-1 + i)/2
    t = Torus.from_period(RatMat([[1]]), RatMat([[1]]))
    d = dual_torus(t)
    re, im = d.period()
    assert re == RatMat([[Fraction(-1, 2)]])
    assert im == RatMat([[Fraction(1, 2)]])
    # the square torus is self-dual
    sq = Torus.from_period(RatMat([[0]]), RatMat([[1]]))
    assert dual_torus(sq) == sq


def test_dual_violation_detected():
    # B with omega + B omega^{-1} B = 0 (the coisotropic curvature of the
    # standard four-torus example used as a background form)
    omega = Torus.from_period(RatMat.zeros(2, 2), RatMat.identity(2)).omega
    b = RatMat([
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, -1, 0, 0],
        [1, 0, 0, 0],
    ])
    with pytest.raises(DualityAssumptionViolated):
        dual_torus(Torus(omega, b))


@settings(max_examples=30, deadline=None)
@given(split_tori(2))
def test_double_invariants(t):
    d = double_torus(t)
    omega, j = d.omega, d.j_mat
    big = RatMat.identity(8)
    assert j @ j == -big
    assert j.T @ omega @ j == omega
    assert omega.is_antisymmetric()
    assert omega.det() != 0
    assert d.sigma0 == Fraction(1, 2) * vstack(
        hstack(RatMat.zeros(4, 4), RatMat.identity(4)),
        hstack(-RatMat.identity(4), RatMat.zeros(4, 4)),
    )
    assert d.b_field == d.sigma0
    assert d.flipped().b_field == -d.sigma0
    assert d.flipped().flipped() == d


def test_double_agrees_with_raw_form_construction():
    # the split-period fast path must match the generic B-field route
    t = Torus.from_period(RatMat([[0, 1], [1, 2]]), RatMat([[2, 1], [0, 1]]))
    raw = Torus(t.omega, t.b_field)
    ds, dr = double_torus(t), double_torus(raw)
    assert ds.omega == dr.omega
    assert ds.j_mat == dr.j_mat


def test_double_coordinate_expansion_one_dim():
    # tau = 1 + 2i: in coordinates (r, theta, r_hat, theta_hat),
    # 2*Omega = (|tau|^2/a) dr^dtheta - (b/a)(dr^dr_hat + dtheta^dtheta_hat)
    #           + (1/a) dr_hat^dtheta_hat
    t = Torus.from_period(RatMat([[1]]), RatMat([[2]]))
    two_omega = 2 * double_torus(t).omega
    expected = RatMat([
        [0, Fraction(5, 2), Fraction(-1, 2), 0],
        [Fraction(-5, 2), 0, 0, Fraction(-1, 2)],
        [Fraction(1, 2), 0, 0, Fraction(1, 2)],
        [0, Fraction(1, 2), Fraction(-1, 2), 0],
    ])
    assert two_omega == expected


def test_double_is_cached():
    t = Torus.from_period(RatMat([[0]]), RatMat([[1]]))
    assert double_torus(t) is double_torus(t)


def test_mirror_point_with_v_zero():
    t = Torus.from_period(RatMat([[1]]), RatMat([[2]]))
    mc = mirror_of_double(t)
    r, phi = (Fraction(1, 3),), (Fraction(1, 5),)
    r_, phi_, theta_hat, kappa = mc.point_with_v_zero(r, phi)
    re_v, im_v = mc.v_coord(kappa, theta_hat, phi_)
    assert all(x == 0 for x in re_v) and all(x == 0 for x in im_v)
    # u = tau^T (r - kappa) - phi at this point
    re_u, im_u = mc.u_coord(r_, kappa, phi_)
    assert re_u == (Fraction(1, 3) - Fraction(1, 5),)
    assert im_u == (Fraction(2, 3),)


def test_mirror_factor_periods():
    mc = mirror_of_double(Torus.from_period(RatMat([[1]]), RatMat([[2]])))
    assert mc.tau_u == (RatMat([[1]]), RatMat([[2]]))
    assert mc.tau_v == (RatMat([[-1]]), RatMat([[2]]))  # -conj(tau)


def test_mirror_chern_example():
    t = Torus.from_period(
        RatMat([[0, Fraction(1, 2)], [0, 0]]), RatMat.identity(2)
    )
    d = RatMat([[1, 0], [0, 2]])
    gram = mirror_chern(d, t)
    assert gram == RatMat([
        [0, 1, 1, 0],
        [-1, 0, 0, 2],
        [-1, 0, 0, 0],
        [0, -2, 0, 0],
    ])


def test_mirror_chern_nonintegral_rejected():
    # A = Re(tau)D - D^T Re(tau)^T is integral here, but the mirror block
    # Re(tau)D^T - D Re(tau)^T is not: the two differ by tr(Re) (D^T - D).
    re = RatMat([[Fraction(1, 2), 0], [0, 0]])
    im = RatMat([[1, 1], [2, 1]])  # Im(tau) D symmetric for this D
    d = RatMat([[1, 2], [1, 1]])
    with pytest.raises(InadmissibleD):
        mirror_chern(d, Torus.from_period(re, im))
