import cmath
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslift import floer
from toruslift.brane import (
    Brane,
    admissible_d,
    lift,
    t4_space_filling_brane,
    zero_section_brane,
)
from toruslift.errors import (
    InadmissibleD,
    InvalidBrane,
    JNotPreserving,
    NonTransversal,
    TruncationBudgetExceeded,
    UnsupportedTriple,
)
from toruslift.exact import RatMat
from toruslift.floer import (
    DoublePoint,
    FloerBasisElement,
    FloerVector,
    intersections,
    mirror_coordinates,
    mu2_base,
    mu2_double,
    mu2_u,
    project_u,
    trivialization_factor,
    u_part_basis,
    u_part_self,
    verify_main_diagram,
    verify_usub,
)
from toruslift.lattice import coset_reduce
from toruslift.summation import get_context
from toruslift.theta import (ThetaSpec, gaussian_theta_lhs, lattice_sum,
                             theta_bar_dk, theta_dk)
from toruslift.torus import MirrorCoords, Torus, double_torus

Z1 = RatMat([[0]])
I1 = RatMat.identity(1)
HALF1 = RatMat([[Fraction(1, 2)]])
D2 = RatMat([[2]])
D3 = RatMat([[3]])
Z2 = RatMat.zeros(2, 2)
I2 = RatMat.identity(2)
RE2 = RatMat([[0, 1], [0, 0]])  # tau = [[i, 1], [0, i]]
D21 = RatMat([[2, 1], [1, 1]])  # determinant one, not diagonal
DD2 = RatMat([[2, 0], [0, 1]])

SQ1 = Torus.from_period(Z1, I1)
SQ2 = Torus.from_period(Z2, I2)

F = Fraction

FROZEN_BASE = 1.0864348112133080  # base product at tau=i, D=1, k=0, r=phi=0

# Reference values for the doubled coefficient sum, from a direct matrix-form
# box sum over |(m, n)|_inf <= 13 at 45 decimal digits (stable under radius
# enlargement to all printed places).  Inputs are exact rationals, so every
# context evaluates the same mathematical quantity.
DOUBLED_CASES = {
    "n1_halfmod": dict(
        tau_re=HALF1, tau_im=I1, d_mat=D2, k=(1,), l=(1,), xi=(1,),
        pt=DoublePoint((F(1, 5),), (F(3, 10),), (F(-1, 10),), (F(1, 5),)),
        re="-0.56232704289372852361187606661212799",
        im="0.194688296615421479701286574755006533",
    ),
    "n2_pairing": dict(
        tau_re=RE2, tau_im=I2, d_mat=DD2, k=(1, 0), l=(0, 1), xi=(1, 0),
        pt=DoublePoint((F(1, 5), F(-1, 10)), (F(3, 10), 0),
                       (F(-1, 10), F(1, 5)), (F(1, 5), F(1, 10))),
        re="0.875221465172392457287506546624546591",
        im="0.790006812075587861873514903392668164",
    ),
}

USUB_POINTS_1 = (
    DoublePoint((F(1, 5),), (F(3, 10),), (F(-1, 10),), (F(1, 5),)),
    DoublePoint((F(-2, 5),), (F(1, 4),), (F(1, 2),), (F(-3, 10),)),
    DoublePoint((F(7, 20),), (F(-1, 5),), (F(3, 20),), (F(1, 10),)),
)

USUB_POINTS_2 = (
    DoublePoint((F(1, 5), F(-1, 10)), (F(3, 10), 0),
                (F(-1, 10), F(1, 5)), (F(1, 5), F(1, 10))),
    DoublePoint((F(-1, 4), F(1, 5)), (F(1, 10), F(-2, 5)),
                (F(1, 4), 0), (0, F(-3, 10))),
)


def doubled_value(name, tol=None, **kwargs):
    c = DOUBLED_CASES[name]
    spec = ThetaSpec(c["tau_re"], c["tau_im"], c["d_mat"], c["k"], c["xi"], tol)
    return mu2_double(spec, c["l"], c["pt"], **kwargs)


def doubled_oracle(name):
    c = DOUBLED_CASES[name]
    return mpmath.mpc(mpmath.mpf(c["re"]), mpmath.mpf(c["im"]))


# --- intersection points ------------------------------------------------------


def test_base_intersections_are_exact():
    pts = intersections(Z1, D3)
    assert len(pts) == 3
    for e in pts:
        assert e.l is None
        assert len(e.point) == 2
        # the point solves (D' - D) r = k exactly
        assert (D3 @ e.point[:1])[0] == e.k[0]
    # a unimodular difference still meets in one point
    assert len(intersections(Z2, D21)) == 1


def test_doubled_intersections_satisfy_the_defining_relation():
    pts = intersections(Z2, DD2, tau_re=RE2, doubled=True)
    assert len(pts) == 4  # det^2
    a_form = RE2 @ DD2 - DD2.T @ RE2.T
    for e in pts:
        assert e.l is not None
        assert len(e.point) == 8
        p, q = e.point[:2], e.point[6:]
        assert tuple(DD2 @ p) == tuple(F(c) for c in e.k)
        lhs = DD2.T @ q
        rhs = tuple(a + b for a, b in zip(a_form @ p, e.l))
        assert tuple(lhs) == tuple(F(c) for c in rhs)


def test_intersections_rejections():
    with pytest.raises(NonTransversal):
        intersections(D2, D2)
    with pytest.raises(InadmissibleD):
        intersections(Z1, RatMat([[Fraction(1, 2)]]))
    with pytest.raises(ValueError):
        intersections(Z1, D2, doubled=True)


def test_doubled_intersections_share_the_pairing_form_message():
    # Re(tau) = [[0, 1/2], [0, 0]] and Delta = I give A = [[0, 1/2], [-1/2, 0]]
    tau_re = RatMat([[0, F(1, 2)], [0, 0]])
    with pytest.raises(InadmissibleD) as shared:
        admissible_d(tau_re, I2, I2)
    with pytest.raises(InadmissibleD) as got:
        intersections(Z2, I2, tau_re=tau_re, doubled=True)
    assert str(got.value) == str(shared.value) == (
        "Re(tau) D - D^T Re(tau)^T is not an integer matrix")


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 2),
    data=st.data(),
)
def test_intersection_counts_match_the_determinant(n, data):
    entries = st.integers(-3, 3)
    rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    delta = RatMat(rows)
    det = int(delta.det())
    if det == 0:
        with pytest.raises(NonTransversal):
            intersections(RatMat.zeros(n, n), delta)
        return
    base = intersections(RatMat.zeros(n, n), delta)
    assert len(base) == abs(det)
    doubled = intersections(RatMat.zeros(n, n), delta,
                            tau_re=RatMat.zeros(n, n), doubled=True)
    assert len(doubled) == det * det


# --- evaluation points and mirror coordinates ---------------------------------


def test_double_point_validation():
    with pytest.raises(ValueError):
        DoublePoint((F(1, 2),), (0, 0), (0,), (0,))
    pt = DoublePoint.zero(2)
    assert pt.n == 2
    assert pt.r == (F(0), F(0))


def test_v_zero_section_of_mirror_coordinates():
    r, phi = (F(1, 5),), (F(3, 10),)
    pt = DoublePoint(*MirrorCoords(HALF1, I1).point_with_v_zero(r, phi))
    u, v = mirror_coordinates(HALF1, I1, pt)
    assert v == [(F(0), F(0))]
    # u reduces to the base coordinate tau^T r - phi
    assert u == [(HALF1[0, 0] * r[0] - phi[0], r[0])]


# --- the base product sum ------------------------------------------------------


def test_base_product_reference_value():
    got = mu2_base(ThetaSpec(Z1, I1, I1, (0,), tol=1e-12), (0,), (0,))
    assert abs(complex(got) - FROZEN_BASE) < 1e-10


def test_base_product_factorizes_through_the_series():
    """The sum equals exp(pi i <tau D r, r> - 2 pi i <D r, phi>) times the
    holomorphic series at tau^T r - phi."""
    spec = ThetaSpec(HALF1, I1, D2, (1,), tol=1e-12)
    grid = [
        ((F(0),), (F(0),)),
        ((F(1, 5),), (F(3, 10),)),
        ((F(-3, 10),), (F(2, 5),)),
        ((F(1, 2),), (F(-1, 4),)),
        ((F(9, 20),), (F(1, 10),)),
    ]
    for r, phi in grid:
        got = complex(mu2_base(spec, r, phi))
        z = [(HALF1[0, 0] * r[0] - phi[0], r[0])]
        theta = complex(theta_dk(spec, z))
        # tau D = 1 + 2i at n = 1
        quad = float(r[0] * r[0])
        pref = cmath.exp(-2 * math.pi * quad + 1j * math.pi
                         * (quad - 4 * float(r[0] * phi[0])))
        assert abs(got - pref * theta) < 1e-12


@pytest.mark.parametrize("xi", [(), (1, 0)])
def test_base_product_integer_shift_transfer(xi):
    # shifting r by a lattice vector multiplies the value by the sign
    # (-1)^xi(h) and the half-integer pairing phase e^{pi i <A r, h>}
    r = (F(1, 5), F(-3, 10))
    phi = (F(1, 10), F(2, 5))
    h = (0, 1)
    k = (1, 0)
    a_form = RE2 @ I2 - I2.T @ RE2.T
    v0 = complex(mu2_base(ThetaSpec(RE2, I2, I2, k, xi, tol=1e-12), r, phi))
    shifted = tuple(a + b for a, b in zip(r, h))
    v1 = complex(mu2_base(ThetaSpec(RE2, I2, I2, k, xi, tol=1e-12), shifted,
                          phi))
    xi_h = sum(int(a_form[i, j]) * h[i] * h[j]
               for i in range(2) for j in range(i + 1, 2))
    if xi:
        xi_h += sum(b * c for b, c in zip(xi, h))
    angle = math.pi * float(sum(a * b for a, b in zip(a_form @ r, h)))
    predicted = (-1) ** (xi_h % 2) * cmath.exp(1j * angle)
    assert abs(v1 / v0 - predicted) < 1e-13


def test_base_product_characteristic_shift():
    # k -> k + D s changes the value by the same constant as the series:
    # (-1)^xi(s) e^{pi i <A s, D^{-1} k>}; the prefactor does not depend on k
    r = (F(1, 5), F(-3, 10))
    phi = (F(1, 10), F(2, 5))
    k, s = (1, 0), (0, 1)
    a_form = RE2 @ I2 - I2.T @ RE2.T
    v0 = complex(mu2_base(ThetaSpec(RE2, I2, I2, k, tol=1e-12), r, phi))
    ks = tuple(a + b for a, b in zip(k, s))
    v1 = complex(mu2_base(ThetaSpec(RE2, I2, I2, ks, tol=1e-12), r, phi))
    angle = math.pi * float(sum(a * b for a, b in zip(a_form @ s, k)))
    assert abs(v1 / v0 - cmath.exp(1j * angle)) < 1e-13


# --- the doubled product sum ----------------------------------------------------


@pytest.mark.parametrize("name", sorted(DOUBLED_CASES))
def test_doubled_sum_against_box_oracle_double(name):
    got = complex(doubled_value(name, tol=1e-12))
    with mpmath.workdps(40):
        diff = abs(mpmath.mpc(got.real, got.imag) - doubled_oracle(name))
        assert diff < 5e-13


@pytest.mark.parametrize("name", sorted(DOUBLED_CASES))
def test_doubled_sum_against_box_oracle_dd(name):
    got = doubled_value(name, context="dd").value
    with mpmath.workdps(40):
        assert abs(got - doubled_oracle(name)) < 1e-28


def test_doubled_sum_matches_the_periodized_gaussian():
    # at the origin with D = 1 the single doubled coefficient is the
    # two-variable Gaussian sum evaluated at u = v = 0
    s00 = mu2_double(ThetaSpec(Z1, I1, I1, (0,), tol=1e-12), (0,),
                     DoublePoint.zero(1))
    g = gaussian_theta_lhs(1j, 0.0, 0.0, tol=1e-12)
    assert abs(complex(s00) - complex(g)) < 1e-14


def test_doubled_sum_radius_enlargement_stays_in_budget():
    c = DOUBLED_CASES["n1_halfmod"]
    spec = ThetaSpec(c["tau_re"], c["tau_im"], c["d_mat"], c["k"], c["xi"],
                     1e-10)
    base = mu2_double(spec, c["l"], c["pt"])
    _, _, decay, turns = floer._double_forms(spec, c["l"], c["pt"])
    wide = lattice_sum(get_context("double"), 2, base.certificate.radius + 2,
                       decay, turns)
    assert abs(complex(base) - complex(wide)) < base.certificate.tail_bound


def test_trivialization_factor_is_one_at_the_origin():
    assert complex(trivialization_factor(ThetaSpec(Z1, I1, D2),
                                         DoublePoint.zero(1))) == 1.0
    assert complex(trivialization_factor(ThetaSpec(RE2, I2, DD2),
                                         DoublePoint.zero(2))) == 1.0


# --- the fiber-summed factorization ---------------------------------------------


@pytest.mark.parametrize("d", [I1, D2, D3])
def test_factorization_on_the_line(d):
    worst = verify_usub(ThetaSpec(Z1, I1, d, (0,), tol=1e-9), USUB_POINTS_1)
    assert worst < 1e-8


def test_factorization_rank_two():
    worst = verify_usub(ThetaSpec(Z2, I2, D21, (0, 0), tol=1e-9),
                        USUB_POINTS_2)
    assert worst < 1e-8


def test_factorization_with_pairing_and_signs():
    worst = verify_usub(ThetaSpec(RE2, I2, DD2, (1, 0), (1, 0), tol=1e-9),
                        USUB_POINTS_2[:1])
    assert worst < 1e-8


def test_factorization_half_modulus():
    worst = verify_usub(ThetaSpec(HALF1, I1, D2, (1,), tol=1e-9),
                        USUB_POINTS_1[:2])
    assert worst < 1e-8


def test_factorization_is_stable_under_characteristic_shift():
    # k and k + D s index the same coset, and both sides of the identity
    # pick up the same constant
    for k in ((1,), (4,)):
        assert verify_usub(ThetaSpec(Z1, I1, D3, k, tol=1e-9),
                           USUB_POINTS_1[:2]) < 1e-8


# --- the u-part space -----------------------------------------------------------


def test_u_part_basis_shapes():
    space = u_part_basis(Z1, Z1, D2)
    assert space.dimension == 2
    assert len(space.elements) == 4
    for vec in space.vectors:
        support = [e.k for e, c in zip(vec.basis, vec.coeffs) if c != 0]
        assert len(support) == 2  # one generator per l, fixed k
        assert len(set(support)) == 1
    unimodular = u_part_basis(Z2, Z2, D21)
    assert unimodular.dimension == 1
    assert len(unimodular.elements) == 1
    with pytest.raises(NonTransversal):
        u_part_basis(Z1, D2, D2)


def test_projector_averages_within_each_coset():
    space = u_part_basis(Z1, Z1, D2)
    vec = FloerVector(space.elements, (1.0, 2.0, 3.0, 4.0))
    proj = project_u(space, vec)
    # averaged coefficients are constant along each k-group
    groups = {}
    for e, c in zip(proj.basis, proj.coeffs):
        groups.setdefault(e.k, set()).add(c)
    assert all(len(v) == 1 for v in groups.values())
    again = project_u(space, proj)
    assert all(abs(a - b) < 1e-15 for a, b in zip(again.coeffs, proj.coeffs))
    s_before = sum(vec.coeffs)
    s_after = sum(proj.coeffs)
    assert abs(s_before - s_after) < 1e-15


def test_projector_is_identity_for_a_unimodular_difference():
    space = u_part_basis(Z2, Z2, D21)
    vec = FloerVector(space.elements, (2.5 - 1j,))
    assert project_u(space, vec).coeffs == vec.coeffs


def test_floer_vectors_keep_context_values():
    dd = get_context("dd")
    space = u_part_basis(Z1, Z1, D2)
    coeffs = tuple(dd.to_complex(F(1, 3) * j, F(-1, 7)) for j in range(4))
    vec = FloerVector(space.elements, coeffs)
    assert vec.coeffs == coeffs
    proj = project_u(space, vec)
    assert all(hasattr(c, "_mpc_") for c in proj.coeffs)
    # coset 0 holds the first two elements: the average of 0 and 1/3, at
    # 106 bits (halving is exact)
    assert proj.coeffs[0] == dd.to_complex(F(1, 6), F(-1, 7))


def test_projector_sums_each_coset_correctly_rounded():
    # coset 0 of D = 3 holds the first three generators; a running sum from
    # 0j loses the 1.0 between 1e16 and -1e16 and returns 0j
    space = u_part_basis(Z1, Z1, D3)
    assert [e.k for e in space.elements[:3]] == [(0,)] * 3
    coeffs = (1e16, 1.0, -1e16) + (0.0,) * 6
    proj = project_u(space, FloerVector(space.elements, coeffs))
    assert proj.coeffs[:3] == (complex(1 / 3),) * 3
    assert proj.coeffs[3:] == (0j,) * 6
    dd = get_context("dd")
    mixed = (dd.real(1e16), 1.0, -1e16) + (0,) * 6
    proj = project_u(space, FloerVector(space.elements, mixed))
    assert all(hasattr(c, "_mpc_") for c in proj.coeffs)
    assert proj.coeffs[0] == dd.to_complex(Fraction(1, 3))


def test_projector_rejects_foreign_vectors():
    space = u_part_basis(Z1, Z1, D2)
    other = u_part_basis(Z1, Z1, D3)
    with pytest.raises(ValueError):
        project_u(space, other.vectors[0])


# --- the averaged product -------------------------------------------------------


def test_averaged_product_reproduces_the_factorization():
    # with a unimodular slope there is one doubled generator, and the single
    # output coefficient is the closed product of the two series
    space = u_part_basis(Z1, Z1, I1)
    pt = USUB_POINTS_1[0]
    out = mu2_u(ThetaSpec(Z1, I1, I1, tol=1e-12), pt, space.vectors[0])
    assert len(out.coeffs) == 1
    target = out.basis[0]
    assert target.k == (0,) and target.l == (0,)
    assert target.point == tuple(pt.r) + (F(0), F(0)) + tuple(pt.theta_hat)
    spec = ThetaSpec(Z1, I1, I1, (0,), tol=1e-12)
    u, v = mirror_coordinates(Z1, I1, pt)
    closed = (math.sqrt(2.0)
              * complex(theta_dk(spec, u))
              * complex(theta_bar_dk(spec, v))
              * complex(trivialization_factor(spec, pt)))
    assert abs(complex(out.coeffs[0]) - closed) < 1e-10


def test_averaged_product_is_linear():
    space = u_part_basis(Z1, Z1, D2)
    pt = USUB_POINTS_1[1]
    v0, v1 = space.vectors
    c0 = mu2_u(ThetaSpec(Z1, I1, D2, tol=1e-12), pt, v0).coeffs[0]
    c1 = mu2_u(ThetaSpec(Z1, I1, D2, tol=1e-12), pt, v1).coeffs[0]
    mixed = v0.scaled(2.0) + v1.scaled(3j)
    got = mu2_u(ThetaSpec(Z1, I1, D2, tol=1e-12), pt, mixed).coeffs[0]
    assert abs(got - (2.0 * c0 + 3j * c1)) < 1e-12
    scaled = mu2_u(ThetaSpec(Z1, I1, D2, tol=1e-12), pt, v0, x=2j).coeffs[0]
    assert abs(scaled - 2j * c0) < 1e-12


def test_averaged_product_argument_errors():
    space = u_part_basis(Z1, Z1, D2)
    pt = DoublePoint.zero(1)
    with pytest.raises(UnsupportedTriple):
        mu2_u(ThetaSpec(Z1, I1, D2), D3, space.vectors[0])
    with pytest.raises(TypeError):
        mu2_u(ThetaSpec(Z1, I1, D2), 0.5, space.vectors[0])
    base_elem = intersections(Z1, D2)[0]
    with pytest.raises(ValueError):
        mu2_u(ThetaSpec(Z1, I1, D2), pt, FloerVector((base_elem,), (1.0,)))


# --- the commuting-square check -------------------------------------------------


DIAGRAM_GRID = [
    ((F(1, 5),), (F(1, 10),)),
    ((F(-3, 10),), (F(2, 5),)),
    ((F(1, 4),), (F(-1, 5),)),
]


def test_main_diagram_unimodular():
    report = verify_main_diagram(ThetaSpec(Z1, I1, I1, tol=1e-10), [(0,)],
                                 DIAGRAM_GRID)
    assert report.passed
    assert report.skipped == 0
    assert report.spread <= 1e-9
    assert abs(report.rho[0] - report.predicted) / abs(report.predicted) <= 1e-9


def test_main_diagram_determinant_two():
    report = verify_main_diagram(ThetaSpec(HALF1, I1, D2, tol=1e-10),
                                 [(0,), (1,)], DIAGRAM_GRID)
    assert report.passed
    assert len(report.rho) == 6
    assert report.max_error <= 1e-9


def test_main_diagram_skips_zeros_of_the_signed_series():
    """With an odd sign character the base product vanishes at the symmetric
    point r = phi = 0 for the nonzero coset; that sample must be skipped,
    not divided through."""
    grid = [((F(0),), (F(0),))] + DIAGRAM_GRID
    report = verify_main_diagram(ThetaSpec(Z1, I1, D2, xi_lin=(1,), tol=1e-10),
                                 [(0,), (1,)], grid)
    assert report.passed
    assert report.skipped == 1
    assert len(report.rho) == 7


def test_main_diagram_negative_control():
    # comparing against the conjugate series with the wrong characteristic
    # must fail loudly while the measured ratios stay constant
    report = verify_main_diagram(ThetaSpec(Z1, I1, D2, (1,), tol=1e-10),
                                 [(0,), (1,)], DIAGRAM_GRID)
    assert not report.passed
    assert report.spread <= 1e-9
    assert report.max_error > 0.1


def test_main_diagram_in_dd_keeps_the_working_precision():
    # the ratios, their mean and the residuals stay 106-bit values; rounding
    # them to complex first left a spread near 1e-16 against a 1e-19 budget
    report = verify_main_diagram(ThetaSpec(HALF1, I1, D2), [(0,), (1,)],
                                 DIAGRAM_GRID, context="dd")
    assert report.passed
    assert report.spread <= 1e-19 and report.max_error <= 1e-19
    assert isinstance(report.predicted, complex)
    assert all(isinstance(rho, complex) for rho in report.rho)


def _bits(z):
    """The exact bits of a context value: the raw mpc tuple, or the hex
    forms of a complex's parts (which tell -0.0 from 0.0)."""
    if hasattr(z, "_mpc_"):
        return z._mpc_
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("context", ["double", "dd"])
@pytest.mark.parametrize("tau_re, d_mat, k_list", [
    (HALF1, D2, [(0,), (1,), (3,)]),
    (HALF1, D3, [(0,), (-1,), (2,)]),
    (RE2, DD2, [(0, 0), (1, 0), (-1, 2)]),
])
def test_diagram_numerator_is_the_averaged_product(monkeypatch, context,
                                                   tau_re, d_mat, k_list):
    # the diagram sums the dual cosets itself; its numerator must still be
    # the averaged product of the u-part vector of the reduced coset
    seen = []
    fiber_sum = floer._fiber_sum

    def recorded(*args, **kw):
        value = fiber_sum(*args, **kw)
        seen.append((args[0].char, args[1], value))
        return value

    monkeypatch.setattr(floer, "_fiber_sum", recorded)
    n = d_mat.nrows
    tau_im = RatMat.identity(n)
    grid = [(r * n, phi * n) for r, phi in DIAGRAM_GRID[:2]]
    verify_main_diagram(ThetaSpec(tau_re, tau_im, d_mat, tol=1e-10), k_list,
                        grid, context=context)
    assert len(seen) == len(k_list) * len(grid)
    space = u_part_basis(tau_re, RatMat.zeros(n, n), d_mat)
    for kk, pt, value in seen:
        vec, = [v for v in space.vectors
                if any(c and e.k == kk for e, c in zip(v.basis, v.coeffs))]
        out = mu2_u(ThetaSpec(tau_re, tau_im, d_mat, tol=1e-10), pt, vec,
                    context=context).coeffs[0]
        assert _bits(out) == _bits(value)
        assert hasattr(out, "_mpc_") == (context == "dd")
    assert {kk for kk, _, _ in seen} == {
        coset_reduce(d_mat, k) for k in k_list}


def test_product_checks_honour_max_radius():
    # a cap below the certified radius must surface as the certificate's
    # error, not be ignored
    with pytest.raises(TruncationBudgetExceeded):
        verify_usub(ThetaSpec(Z1, I1, D2, (1,), tol=1e-9, max_radius=1),
                    USUB_POINTS_1[:1])
    with pytest.raises(TruncationBudgetExceeded):
        verify_main_diagram(ThetaSpec(Z1, I1, D2, tol=1e-10, max_radius=1),
                            [(0,), (1,)], DIAGRAM_GRID)


def test_main_diagram_needs_a_regular_sample():
    with pytest.raises(ValueError):
        verify_main_diagram(ThetaSpec(Z1, I1, D2, xi_lin=(1,), tol=1e-10),
                            [(1,)], [((F(0),), (F(0),))])


# --- the anti-holomorphic splitting ----------------------------------------------


def test_u_part_self_dimensions():
    for brane, expected in (
        (lift(zero_section_brane(SQ1)), (1, 1)),
        (lift(zero_section_brane(SQ2)), (1, 2, 1)),
        (lift(t4_space_filling_brane()), (1, 2, 1)),
    ):
        res = u_part_self(brane)
        assert res.dims == expected
        assert len(res.basis) == len(expected) - 1
        m = res.j_restricted
        assert m @ m == RatMat.identity(m.nrows) * (-1)


def test_u_part_self_rejections():
    with pytest.raises(InvalidBrane):
        u_part_self(zero_section_brane(SQ1))
    plane = Brane(double_torus(SQ1), RatMat([[1, 0], [0, 1], [0, 0], [0, 0]]))
    with pytest.raises(JNotPreserving):
        u_part_self(plane)


# --- vector plumbing -------------------------------------------------------------


def test_floer_vector_arithmetic_guards():
    e = FloerBasisElement((F(0), F(0)), (0,))
    f = FloerBasisElement((F(1, 2), F(0)), (1,))
    with pytest.raises(ValueError):
        FloerVector((e,), (1.0, 2.0))
    with pytest.raises(ValueError):
        FloerVector((e,), (1.0,)) + FloerVector((f,), (1.0,))
    v = FloerVector((e, f), (1.0, 2j)).scaled(2.0)
    assert v.coeffs == (2.0 + 0j, 4j)
