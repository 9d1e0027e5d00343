import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branefamilies import coisotropic_sample, graph_slopes, t4_brane
from toruslift import brane as brane_module
from toruslift.brane import (
    Brane,
    admissible_d,
    fiber_brane,
    full_torus_brane,
    graph_brane,
    t4_space_filling_brane,
    lift,
    twist_brane,
    validate_coisotropic,
    validate_lagrangian,
    verify_lift_complex,
    verify_lift_lagrangian,
    zero_section_brane,
)
from toruslift.errors import (
    InadmissibleD,
    InadmissibleSpec,
    InvalidBrane,
    InvalidXi,
    JNotPreserving,
    TorusLiftError,
)
from toruslift.exact import RatMat, hstack, vstack
from toruslift.floer import DoublePoint, mu2_double, u_part_self
from toruslift.lattice import int_kernel, smith, solve_integer_system
from toruslift.theta import ThetaSpec
from toruslift.torus import Torus, double_torus

SQ1 = Torus.from_period(RatMat([[0]]), RatMat([[1]]))
SQ2 = Torus.from_period(RatMat.zeros(2, 2), RatMat.identity(2))
# a two-dimensional modulus with nonzero real part: tau = [[i, 1], [0, i]]
RE21 = RatMat([[0, 1], [0, 0]])
T21 = Torus.from_period(RE21, RatMat.identity(2))
# tau = [[i, 1/2], [0, i]]: the pairing form A of D = I is not integral
HALF = Torus.from_period(RatMat([[0, Fraction(1, 2)], [0, 0]]), RatMat.identity(2))


# --- admissibility ----------------------------------------------------------


def test_admissible_d_returns_integral_a():
    a = admissible_d(*T21.period(), RatMat.identity(2))
    assert a == RatMat([[0, 1], [-1, 0]])
    # n = 1 slope matrices never produce a quadratic part
    assert admissible_d(*SQ1.period(), RatMat([[3]])) == RatMat([[0]])


def test_admissible_d_rejections():
    with pytest.raises(InadmissibleD):
        admissible_d(*SQ1.period(), RatMat([[Fraction(1, 2)]]))  # not integer
    with pytest.raises(InadmissibleD):
        admissible_d(*SQ1.period(), RatMat([[0]]))  # singular
    with pytest.raises(InadmissibleD):
        admissible_d(*SQ2.period(), RatMat([[1, 1], [0, 1]]))  # Im(tau)D not symmetric
    with pytest.raises(InadmissibleD):
        admissible_d(*SQ1.period(), RatMat([[-1]]))  # not positive
    admissible_d(*SQ1.period(), RatMat([[-1]]), require_positive=False)
    with pytest.raises(InadmissibleD):
        admissible_d(*HALF.period(), RatMat.identity(2))  # quadratic part not integral


# (modulus, slope matrix, the message every entry point shares), one per
# condition of admissible_d
FAILING_SLOPES = {
    "shape": (SQ1, RatMat.identity(2), "slope matrix must be 1x1, got (2, 2)"),
    "integer": (SQ1, RatMat([[Fraction(1, 2)]]),
                "slope matrix must have integer entries"),
    "singular": (SQ1, RatMat([[0]]), "slope matrix must be nonsingular"),
    "symmetric": (SQ2, RatMat([[1, 1], [0, 1]]), "Im(tau) D is not symmetric"),
    "positive": (SQ1, RatMat([[-1]]), "Im(tau) D is not positive definite"),
    "integral-a": (HALF, RatMat.identity(2),
                   "Re(tau) D - D^T Re(tau)^T is not an integer matrix"),
}

ENTRY_POINTS = {
    "graph_brane": (InadmissibleD, graph_brane),
    "ThetaSpec": (InadmissibleSpec, lambda t, d: ThetaSpec(*t.period(), d)),
    "mu2_double": (InadmissibleSpec, lambda t, d: mu2_double(
        ThetaSpec(*t.period(), d, (0,) * d.nrows), (0,) * d.nrows,
        DoublePoint.zero(d.nrows))),
}


@pytest.mark.parametrize("condition", sorted(FAILING_SLOPES))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_share_one_admissibility_check(entry, condition):
    torus, d, message = FAILING_SLOPES[condition]
    error, call = ENTRY_POINTS[entry]
    with pytest.raises(TorusLiftError) as info:
        call(torus, d)
    assert info.type is error
    assert str(info.value) == message


# --- construction and canonical form ---------------------------------------


def test_support_validation():
    with pytest.raises(InvalidBrane, match="does not generate a saturated lattice"):
        Brane(SQ1, RatMat([[2], [0]]))  # not primitive
    with pytest.raises(InvalidBrane, match="columns are linearly dependent"):
        Brane(SQ2, RatMat([[1, 2], [0, 0], [1, 2], [0, 0]]))  # dependent
    with pytest.raises(InvalidBrane, match="must have integer entries"):
        Brane(SQ1, RatMat([[Fraction(1, 2)], [0]]))


def test_curvature_integrality_enforced():
    n = RatMat([[0, Fraction(1, 3)], [0, 0]])
    with pytest.raises(InvalidBrane):
        full_torus_brane(SQ1, n)


def test_xi_bits_validated():
    with pytest.raises(InvalidXi):
        Brane(SQ1, RatMat([[1], [0]]), xi_lin=(2,))


@pytest.mark.parametrize("bits", [
    (Fraction(1, 2), 1.9), (0, 1.9), (Fraction(1, 2), 1), (0.5, 0), ("1", 0),
    (None, 1), (1, float("nan")), (float("inf"), 0),
])
def test_sign_bits_are_exact_integers_not_truncated(bits):
    # a non-integral sign bit is rejected, not truncated to an int
    with pytest.raises(InvalidXi,
                       match="xi_lin must be a 0/1 vector on the support"):
        zero_section_brane(SQ2, xi_lin=bits)


def test_integral_sign_bits_of_any_exact_type():
    want = zero_section_brane(SQ2, xi_lin=(0, 1))
    for bits in [(Fraction(0), Fraction(1)), (0.0, 1.0), (False, True)]:
        got = zero_section_brane(SQ2, xi_lin=bits)
        assert got == want
        assert all(type(b) is int for b in got.xi_lin)


@pytest.mark.parametrize("m", [(Fraction(1, 2), 0), (1.9, 0), (0, 0.5),
                               ("1", 0), (None, 1), (float("nan"), 0)])
def test_lattice_vectors_are_exact_integers_not_truncated(m):
    # on the zero section of tau = i I with sign bits (1, 1), (1/2, 0) was
    # taken as (0, 0) and (1.9, 0) as (1, 0); each is rejected instead
    b = zero_section_brane(SQ2, xi_lin=(1, 1))
    message = "lattice vector must have integer entries"
    with pytest.raises(ValueError, match=message):
        b.xi_value(m)
    if m in [(Fraction(1, 2), 0), (1.9, 0), (0, 0.5)]:  # rationals
        with pytest.raises(ValueError, match=message):
            b.holonomy_turns(m)
        with pytest.raises(ValueError, match=message):
            b.transition_turns(m, (0, 0))


def test_integral_lattice_vectors_of_any_exact_type():
    b = zero_section_brane(SQ2, xi_lin=(1, 1))
    for m in [(Fraction(1), Fraction(0)), (1.0, 0.0), (True, False)]:
        assert b.xi_value(m) == b.xi_value((1, 0)) == 1
        assert b.holonomy_turns(m) == b.holonomy_turns((1, 0))


def test_offset_reduction_along_support():
    # graph support [1; -2]: the r-entry is a pivot and gets slid to zero,
    # dragging the theta-entry along the support direction
    b = Brane(SQ1, RatMat([[1], [-2]]), offset=(Fraction(1, 3), Fraction(1, 5)))
    assert b.offset == (Fraction(0), Fraction(13, 15))


def test_offset_is_a_complete_invariant_of_the_subtorus():
    # support (2, 3): the pivot 2 leaves half-steps along the support that
    # no pivot-row rule sees; (1/2, 0) + (2, 3)/4 = (1, 3/4) ~ (0, 3/4)
    support = RatMat([[2], [3]])
    a = Brane(SQ1, support, offset=(Fraction(1, 2), 0))
    b = Brane(SQ1, support, offset=(0, Fraction(3, 4)))
    assert a.offset == b.offset == (Fraction(1, 2), Fraction(1, 2))
    assert a == b and a.same_support(b) and hash(a) == hash(b)
    # any offset x + H t + v (t rational, v integer) names the same subtorus;
    # without curvature the flat part does not move, so the branes are equal
    rng = random.Random(1212)
    for torus in (SQ1, SQ2) * 20:
        dim2 = torus.dim
        d = rng.randint(1, dim2)
        cols = RatMat([[rng.randint(-3, 3) for _ in range(d)]
                       for _ in range(dim2)])
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
             for _ in range(dim2)]
        try:
            base = Brane(torus, cols, offset=x)
        except InvalidBrane:
            continue
        for _ in range(5):
            t = [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                 for _ in range(d)]
            moved = [xi + hi + rng.randint(-3, 3)
                     for xi, hi in zip(x, cols @ t)]
            other = Brane(torus, cols, offset=moved)
            assert other.same_support(base) and other == base


def test_redescription_equality():
    # same geometric brane-with-connection described in two charts:
    # offset moved by U c, flat part moved by F c
    n_mat = RatMat([[0, 1], [0, 0]])
    f = n_mat.T - n_mat
    phi = (Fraction(1, 5), Fraction(1, 7))
    off = (Fraction(1, 3), Fraction(1, 4))
    c = (Fraction(2, 3), Fraction(1, 2))
    b1 = full_torus_brane(SQ1, n_mat, phi=phi, offset=off)
    b2 = full_torus_brane(
        SQ1,
        n_mat,
        phi=tuple(p + q for p, q in zip(phi, f @ c)),
        offset=tuple(o + x for o, x in zip(off, c)),
    )
    assert b1 == b2
    assert hash(b1) == hash(b2)

    d = RatMat([[2, 1], [1, 1]])
    t = Torus.from_period(RE21, d.T)
    g1 = graph_brane(t, d, phi=(Fraction(1, 3), 0))
    u = g1.support
    cc = (Fraction(1, 2), Fraction(1, 3))
    g2 = Brane(
        t,
        u,
        offset=u @ cc,
        conn_quad=g1.conn_quad,
        conn_flat=tuple(p + q for p, q in zip(g1.conn_flat, g1.f_gram @ cc)),
    )
    assert g1 == g2


def test_graph_support_already_canonical():
    d = RatMat([[2, 1], [1, 1]])
    t = Torus.from_period(RE21, d.T)
    g = graph_brane(t, d)
    assert g.support == vstack(RatMat.identity(2), -d)
    assert g.f_gram == admissible_d(*t.period(), d)


# --- sign structure and holonomy --------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-3, 3),
    st.tuples(st.integers(0, 1), st.integers(0, 1)),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
)
def test_xi_cocycle(f01, bits, m, mp):
    n_mat = RatMat([[0, -f01], [0, 0]])
    b = full_torus_brane(SQ1, n_mat, xi_lin=bits)
    left = (b.xi_value([m[0] + mp[0], m[1] + mp[1]]) - b.xi_value(m) - b.xi_value(mp)) % 2
    pairing = (f01 * (m[0] * mp[1] + m[1] * mp[0])) % 2
    assert left == pairing


def test_transition_matches_normative_equation():
    # s(r + m) = (-1)^{xi(m)} e^{pi i <m, A r>} s(r) for graph branes
    g = graph_brane(T21, RatMat.identity(2), xi_lin=(1, 0))
    a = RatMat([[0, 1], [-1, 0]])
    for m in [(1, 0), (0, 1), (1, 1), (2, -1)]:
        for r in [(0, 0), (Fraction(1, 3), Fraction(1, 7))]:
            expect = Fraction(g.xi_value(m), 2) + Fraction(1, 2) * sum(
                mi * x for mi, x in zip(m, a @ r)
            )
            assert (g.transition_turns(m, r) - expect) % 1 == 0


def test_holonomy_values():
    f = fiber_brane(SQ1, [Fraction(1, 3)], phi=[Fraction(1, 4)])
    assert f.holonomy_turns([1]) == Fraction(3, 4)  # e^{-2 pi i phi}
    assert abs(f.holonomy([1]) - complex(0, -1)) < 1e-15

    g = graph_brane(SQ1, RatMat([[1]]), xi_lin=(1,))
    assert g.holonomy_turns([1]) == Fraction(1, 2)  # the bare sign (-1)
    assert zero_section_brane(SQ2).holonomy_turns([1, 0]) == 0


def test_holonomy_base_dependence_and_cocycle():
    b = t4_brane(random.Random(7))
    f = b.f_gram
    base = (Fraction(1, 3), Fraction(1, 5), 0, Fraction(2, 7))
    for gam in [(1, 0, 0, 0), (0, 1, -1, 2), (1, 1, 1, 1)]:
        shift = sum(bi * x for bi, x in zip(base, f @ gam))
        assert (b.holonomy_turns(gam, base) - b.holonomy_turns(gam) - shift) % 1 == 0
    # base shifts by lattice vectors never change the holonomy
    moved = tuple(x + m for x, m in zip(base, (1, -2, 0, 3)))
    assert (b.holonomy_turns((1, 1, 1, 1), moved)
            - b.holonomy_turns((1, 1, 1, 1), base)) % 1 == 0
    # composing loops picks up the curvature flux sign of the triangle
    g1, g2 = (1, 0, 2, 0), (0, 1, 0, -1)
    tot = tuple(a + c for a, c in zip(g1, g2))
    lhs = b.holonomy_turns(tot, base)
    rhs = b.holonomy_turns(g1, tuple(x + y for x, y in zip(base, g2)))
    rhs = rhs + b.holonomy_turns(g2, base)
    flux = sum(x * y for x, y in zip(g2, f @ g1))
    assert (lhs - rhs - Fraction(flux, 2)) % 1 == 0
    # stripping the sign leaves a character: multiplicative at a fixed base
    twisted = lambda g: (
        b.holonomy_turns(g, base) - Fraction(b.xi_value(g), 2)
    ) % 1
    assert (twisted(tot) - twisted(g1) - twisted(g2)) % 1 == 0


# --- validators --------------------------------------------------------------


def test_lagrangian_validators():
    assert validate_lagrangian(zero_section_brane(SQ2)).passed
    assert validate_lagrangian(fiber_brane(SQ2, [0, 0])).passed
    d = RatMat([[2, 1], [1, 1]])
    assert validate_lagrangian(graph_brane(Torus.from_period(RE21, d.T), d)).passed


def test_lagrangian_failures_are_reported():
    rep = validate_lagrangian(full_torus_brane(SQ2, RatMat.zeros(4, 4)))
    assert not rep.passed
    assert any("dimension" in f for f in rep.failures)
    # graph support with the correct slope but the wrong curvature
    d = RatMat.identity(2)
    bad = Brane(T21, vstack(RatMat.identity(2), -d))  # N = 0, but A != 0
    rep = validate_lagrangian(bad)
    assert not rep.passed and any("curvature" in f for f in rep.failures)
    # a non-Lagrangian plane in T^4
    skew = Brane(SQ2, RatMat([[1, 0], [0, 0], [0, 1], [1, 0]]))
    assert not validate_lagrangian(skew).passed


def test_t4_space_filling_certifies():
    b = t4_space_filling_brane()
    f = b.f_gram
    assert f == RatMat([
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, -1, 0, 0],
        [1, 0, 0, 0],
    ])
    w = b.torus.omega
    assert (w + f @ w.inv() @ f).is_zero()
    assert validate_coisotropic(b).passed
    assert not validate_lagrangian(b).passed


def test_coisotropic_negatives():
    rep = validate_coisotropic(full_torus_brane(SQ2, RatMat.zeros(4, 4)))
    assert not rep.passed
    # break det G = 1 + ps
    n = RatMat([
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ])
    assert not validate_coisotropic(full_torus_brane(SQ2, n)).passed
    # an isotropic line has a 3-dimensional symplectic complement
    line = Brane(SQ2, RatMat.from_columns([(1, 0, 0, 0)]))
    rep = validate_coisotropic(line)
    assert not rep.passed and any("complement" in f for f in rep.failures)


def test_lagrangians_pass_coisotropic_degenerately():
    assert validate_coisotropic(zero_section_brane(SQ2)).passed
    assert validate_coisotropic(fiber_brane(SQ2, [0, 0])).passed


# --- lifts -------------------------------------------------------------------


def test_zero_section_lift_is_literal():
    lb = lift(zero_section_brane(SQ1))
    expected = Brane(
        double_torus(SQ1), RatMat([[1, 0], [0, 0], [0, 0], [0, 1]])
    )
    assert lb.same_support(expected)
    assert lb.conn_flat == (0, 0) and lb.xi_lin == (0, 0)


def test_fiber_lift_is_literal():
    z, phi = Fraction(1, 3), Fraction(1, 4)
    lb = lift(fiber_brane(SQ1, [z], phi=[phi]))
    expected = Brane(
        double_torus(SQ1),
        RatMat([[0, 0], [1, 0], [0, 1], [0, 0]]),
        offset=(z, 0, 0, -phi),
    )
    assert lb.same_support(expected)


def test_graph_lift_is_literal():
    # {theta = -D r, r_hat - D^T theta_hat = -A r} with x_hat offset -phi
    for d_rows, phi in [
        ([[2]], (Fraction(1, 5),)),
        ([[2, 1], [1, 1]], (0, Fraction(1, 3))),
    ]:
        d = RatMat(d_rows)
        n = d.nrows
        t = Torus.from_period(RE21.submatrix(range(n), range(n)), d.T)
        a = admissible_d(*t.period(), d)
        g = graph_brane(t, d, phi=phi)
        lb = lift(g)
        w_exp = vstack(
            hstack(RatMat.identity(n), RatMat.zeros(n, n)),
            hstack(-d, RatMat.zeros(n, n)),
            hstack(-a, d.T),
            hstack(RatMat.zeros(n, n), RatMat.identity(n)),
        )
        off = (0,) * (2 * n) + tuple(-p for p in phi) + (0,) * n
        expected = Brane(double_torus(t), w_exp, offset=off)
        assert lb.same_support(expected)
        assert verify_lift_lagrangian(lb) and verify_lift_complex(lb)


def test_xi_flip_translates_lift_by_half_lattice():
    d = RatMat([[2, 1], [1, 1]])
    t = Torus.from_period(RE21, d.T)
    l0 = lift(graph_brane(t, d))
    l1 = lift(graph_brane(t, d, xi_lin=(1, 0)))
    assert l0.support == l1.support
    assert l0.offset != l1.offset
    # twice the translation is a lattice + support direction, i.e. trivial
    doubled_off = tuple(2 * b - a for a, b in zip(l0.offset, l1.offset))
    again = Brane(l0.torus, l0.support, offset=doubled_off)
    assert again.offset == l0.offset


def test_lift_requires_a_certified_brane():
    with pytest.raises(InvalidBrane):
        lift(full_torus_brane(SQ2, RatMat.zeros(4, 4)))
    lb = lift(zero_section_brane(SQ1))
    with pytest.raises(InvalidBrane):
        lift(lb)  # already on a doubled torus


def _count_coisotropic_checks(monkeypatch):
    calls = []

    def counted(brane):
        calls.append(brane)
        return validate_coisotropic(brane)

    monkeypatch.setattr(brane_module, "validate_coisotropic", counted)
    return calls


def test_lift_checks_coisotropy_only_when_not_lagrangian(monkeypatch):
    calls = _count_coisotropic_checks(monkeypatch)
    d = RatMat([[2, 1], [1, 1]])
    lift(graph_brane(Torus.from_period(RE21, d.T), d))
    lift(fiber_brane(SQ2, (Fraction(1, 3), 0)))
    assert calls == []
    t4 = t4_space_filling_brane()
    lift(t4)
    assert calls == [t4]


def test_lift_names_both_failure_sets(monkeypatch):
    calls = _count_coisotropic_checks(monkeypatch)
    flat = full_torus_brane(SQ2, RatMat.zeros(4, 4))
    lag = validate_lagrangian(flat).failures
    coi = validate_coisotropic(flat).failures
    assert lag and coi
    with pytest.raises(InvalidBrane) as err:
        lift(flat)
    assert len(calls) == 1
    message = str(err.value)
    assert "lagrangian: " + "; ".join(lag) in message
    assert "coisotropic: " + "; ".join(coi) in message


def test_lift_rejects_a_mismatched_double(monkeypatch):
    # the flipped double carries the opposite background form, so the
    # lifted curvature check must fail with a typed error, also under -O
    monkeypatch.setattr(brane_module, "double_torus",
                        lambda t: double_torus(t).flipped())
    with pytest.raises(InvalidBrane, match="lifted curvature"):
        lift(t4_space_filling_brane())


def test_lift_negative_controls():
    doubled = double_torus(SQ2)
    # swap a theta_hat tangent direction for r_hat: stays middle-dimensional
    # but is no longer J-invariant
    w_bad_j = RatMat.from_columns([
        (1, 0, 0, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1, 0, 0, 0),
    ])
    bad = Brane(doubled, w_bad_j)
    assert not verify_lift_complex(bad)
    # two dual directions paired by omega^{-1}: not Omega-isotropic
    w_bad_omega = RatMat.from_columns([
        (1, 0, 0, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 1, 0),
    ])
    assert not verify_lift_lagrangian(Brane(doubled, w_bad_omega))
    # wrong dimension
    small = Brane(doubled, RatMat.from_columns([(1, 0, 0, 0, 0, 0, 0, 0)]))
    assert not verify_lift_lagrangian(small)


def test_lift_certification_sample():
    branes = [t4_space_filling_brane()]
    branes += coisotropic_sample(30, 20, seed=11)
    for d in graph_slopes(1, 3):
        t = Torus.from_period(RatMat([[0]]), d.T)
        branes.append(graph_brane(t, d))
    rng = random.Random(3)
    for _ in range(10):
        t = SQ2 if rng.random() < 0.5 else T21
        pos = [Fraction(rng.randint(0, 5), 6) for _ in range(2)]
        phi = [Fraction(rng.randint(0, 5), 6) for _ in range(2)]
        branes.append(fiber_brane(t, pos, phi=phi))
    for b in branes:
        lb = lift(b)
        assert 2 * lb.dim == lb.torus.dim
        assert verify_lift_lagrangian(lb), b
        assert verify_lift_complex(lb), b


# --- the background twist ----------------------------------------------------


def test_twist_flips_background_and_curvature():
    d = RatMat([[2, 1], [1, 1]])
    t = Torus.from_period(RE21, d.T)
    lb = lift(graph_brane(t, d, phi=(Fraction(1, 3), 0)))
    tw = twist_brane(lb)
    assert tw.torus == lb.torus.flipped()
    assert tw.support == lb.support
    assert tw.f_gram == -lb.f_gram
    assert validate_lagrangian(tw).passed
    # twisting twice shifts the curvature by four times the restricted pairing
    tw2 = twist_brane(tw)
    sigma_res = lb.support.T @ lb.torus.sigma0 @ lb.support
    assert tw2.f_gram - lb.f_gram == 4 * sigma_res
    assert tw2.torus == lb.torus


def test_twist_trivial_on_base_section_lift():
    lb = lift(zero_section_brane(SQ2))
    tw = twist_brane(lb)
    assert tw.conn_quad == lb.conn_quad
    assert tw.conn_flat == lb.conn_flat


def test_twist_needs_doubled_torus():
    with pytest.raises(InvalidBrane):
        twist_brane(zero_section_brane(SQ2))


# --- one completion per brane ------------------------------------------------
#
# Test-local copy of the earlier completion: the Smith form S = P U^T Q of
# the canonical support gives the particular solutions Q[:, :d] P and the
# annihilator Q[:, d:], and span membership was a rank test.  The brane's
# stored completion must reproduce every result it fed.


def _ref_completion(u):
    dim2, d = u.shape
    s, p_uni, q_uni = smith(u.T)
    assert all(s[i, i] == 1 for i in range(d))
    return (q_uni.submatrix(range(dim2), range(d)) @ p_uni,
            q_uni.submatrix(range(dim2), range(d, dim2)))


def _ref_in_span(u, x):
    return hstack(u, x).rank() == u.ncols


def _ref_lift(brane):
    u, f = brane.support, brane.f_gram
    dim2, d = u.shape
    left, kernel = _ref_completion(u)
    k = kernel.ncols
    w = vstack(hstack(u, RatMat.zeros(dim2, k)), hstack(left @ f.T, kernel))
    rho = tuple(Fraction(b, 2) - p for b, p in zip(brane.xi_lin, brane.conn_flat))
    n_lift = hstack(brane.conn_quad, RatMat.zeros(d, k))
    if k:
        n_lift = vstack(n_lift, RatMat.zeros(k, d + k))
    return Brane(double_torus(brane.torus), w,
                 offset=brane.offset + left @ rho, conn_quad=n_lift,
                 conn_flat=brane.conn_flat + (0,) * k,
                 xi_lin=brane.xi_lin + (0,) * k)


def _ref_validate_coisotropic(brane):
    torus, u = brane.torus, brane.support
    failures = []
    ann = int_kernel(u.T)
    omega_inv = torus.omega.inv()
    if ann.ncols and not _ref_in_span(u, omega_inv @ ann):
        failures.append("symplectic complement of the support is not tangent to it")
    g = u.T @ torus.omega @ u
    h = brane.f_gram + u.T @ torus.b_field @ u
    iso = g.kernel()
    if iso.ncols and not (iso.T @ h).is_zero():
        failures.append("F + B does not vanish on the isotropic directions")
    gram_inv = (u.T @ u).inv()
    v_amb = -(omega_inv @ u @ gram_inv @ h.T)
    if not _ref_in_span(u, v_amb):
        failures.append("transverse endomorphism does not preserve the support")
    else:
        c = gram_inv @ (u.T @ v_amb)
        if not (g + c.T @ h).is_zero():
            failures.append("transverse square condition fails on the support")
    return tuple(failures)


def _ref_j_restricted(lifted):
    w = lifted.support
    jw = lifted.torus.j_mat @ w
    try:
        return RatMat.from_columns(solve_integer_system(w, jw.col(j))
                                   for j in range(jw.ncols))
    except ValueError:
        return None


def _criterion_1_branes(graph_sample):
    # criterion 1's families, with a seeded sample of its n = 2 graph branes
    branes = [t4_space_filling_brane()]
    slopes = graph_slopes(1, 3) + random.Random(5).sample(graph_slopes(2, 3),
                                                          graph_sample)
    for d in slopes:
        n = d.nrows
        branes.append(graph_brane(Torus.from_period(RatMat.zeros(n, n), d.T), d))
    rng = random.Random(17)
    for n in (1, 2):
        torus = Torus.from_period(RatMat.zeros(n, n), RatMat.identity(n))
        for _ in range(5):
            pos = [Fraction(rng.randint(0, 9), 10) for _ in range(n)]
            phi = [Fraction(rng.randint(0, 9), 10) for _ in range(n)]
            branes.append(fiber_brane(torus, pos, phi=phi))
    return branes + coisotropic_sample(60, 45, seed=4)


def _sheared_graph_branes(count, seed):
    # graph branes on tori with Re(tau) != 0, with sign bits and a flat part
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((1, 2))
        d = rng.choice(graph_slopes(n, 2))
        re = RatMat([[Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
                      for _ in range(n)] for _ in range(n)])
        if re.is_zero():
            continue
        try:
            out.append(graph_brane(
                Torus.from_period(re, d.T), d,
                xi_lin=[rng.randint(0, 1) for _ in range(n)],
                phi=[Fraction(rng.randint(0, 5), 6) for _ in range(n)]))
        except InadmissibleD:
            continue
    return out


def _coisotropic_negative_branes():
    # the branes of test_coisotropic_negatives
    return [
        full_torus_brane(SQ2, RatMat.zeros(4, 4)),
        full_torus_brane(SQ2, RatMat([[0, 0, 0, 1], [0, 0, 1, 0],
                                      [0, 0, 0, 0], [0, 0, 0, 0]])),
        Brane(SQ2, RatMat.from_columns([(1, 0, 0, 0)])),
    ]


def _random_supported_branes(torus, count, seed):
    # saturated integer supports of every rank, some unsaturated or
    # dependent draws skipped, with random integral curvature
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, torus.dim)
        cols = [[rng.randint(-2, 2) for _ in range(torus.dim)] for _ in range(d)]
        quad = RatMat([[rng.randint(-1, 1) if i < j else 0 for j in range(d)]
                       for i in range(d)])
        try:
            out.append(Brane(torus, RatMat.from_columns(cols), conn_quad=quad))
        except InvalidBrane:
            continue
    return out


def _assert_completion(brane):
    c, h = brane.completion, brane.support
    d = brane.dim
    assert abs(c.det()) == 1
    assert h.T @ c == hstack(RatMat.identity(d), RatMat.zeros(d, c.ncols - d))


def test_completion_matches_smith_reference():
    base = (_criterion_1_branes(250) + _sheared_graph_branes(40, seed=8)
            + _coisotropic_negative_branes()
            + _random_supported_branes(SQ2, 40, seed=2)
            + _random_supported_branes(T21, 40, seed=3))
    lifted_count = 0
    for b in base:
        _assert_completion(b)
        assert tuple(validate_coisotropic(b).failures) == \
            _ref_validate_coisotropic(b), b
        try:
            lb = lift(b)
        except InvalidBrane:
            assert _ref_validate_coisotropic(b) and validate_lagrangian(b).failures
            continue
        lifted_count += 1
        ref = _ref_lift(b)
        assert lb == ref and hash(lb) == hash(ref), b
        assert lb.conn_quad == ref.conn_quad and lb.f_gram == ref.f_gram
        _assert_completion(lb)
        assert verify_lift_complex(lb)
        assert u_part_self(lb).j_restricted == _ref_j_restricted(lb)
    assert lifted_count >= 400


def test_span_tests_match_rank_reference():
    # supports on a doubled torus, J-invariant or not: verify_lift_complex
    # and u_part_self must agree with the rank test
    doubled = double_torus(T21)
    branes = _random_supported_branes(doubled, 60, seed=6)
    branes += [lift(b) for b in _sheared_graph_branes(10, seed=9)]
    preserved = 0
    for b in branes:
        _assert_completion(b)
        jw = b.torus.j_mat @ b.support
        expected = _ref_in_span(b.support, jw)
        assert verify_lift_complex(b) == expected
        ref = _ref_j_restricted(b)
        assert (ref is not None) == expected
        if expected:
            preserved += 1
            assert u_part_self(b).j_restricted == ref
        else:
            with pytest.raises(JNotPreserving):
                u_part_self(b)
    assert 10 <= preserved < len(branes)


def test_lift_and_checks_run_no_smith(monkeypatch):
    # the brane's one row Hermite form serves every consumer: patch every
    # module binding of the Smith form to raise, and run them all
    def no_smith(m):
        raise RuntimeError("smith called")

    for name, module in list(sys.modules.items()):
        if name.startswith("toruslift") and getattr(module, "smith", None) is smith:
            monkeypatch.setattr(module, "smith", no_smith)
    with pytest.raises(RuntimeError):
        int_kernel(RatMat([[1, 1]]))  # the patch reaches lattice itself
    branes = [t4_space_filling_brane(), t4_brane(random.Random(1)),
              fiber_brane(SQ2, (Fraction(1, 3), 0), phi=(0, Fraction(1, 2)))]
    branes += _sheared_graph_branes(4, seed=10)
    branes += coisotropic_sample(0, 2, seed=12)
    for b in branes:
        validate_coisotropic(b)
        lb = lift(b)
        assert verify_lift_lagrangian(lb) and verify_lift_complex(lb)
        assert u_part_self(lb).dims[0] == 1
    failures = validate_coisotropic(_coisotropic_negative_branes()[2]).failures
    assert any("complement" in f for f in failures)


@pytest.mark.parametrize("support, message", [
    (RatMat([[2, 0], [0, 1], [0, 0], [0, 0]]),
     "does not generate a saturated lattice"),
    (RatMat([[1, 2], [0, 0], [1, 2], [0, 0]]), "columns are linearly dependent"),
])
@pytest.mark.parametrize("malformed", [
    {"conn_quad": RatMat.zeros(3, 3)},
    {"conn_quad": RatMat([[0, Fraction(1, 3)], [0, 0]])},
    {"offset": (0, 0)},
    {"conn_flat": (0,)},
    {"xi_lin": (2, 0)},
])
def test_support_check_runs_before_connection_checks(support, message, malformed):
    with pytest.raises(InvalidBrane, match=message):
        Brane(SQ2, support, **malformed)
