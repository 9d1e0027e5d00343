"""The periodized Gaussian pair sums on exact integer forms.

``gaussian_theta_lhs`` builds each term's exponent as integer decay and
turns forms in (m, n) and sums them with the lattice-sum kernel.  The
references here evaluate the same terms as complex-float closures over
the points of ``iter_ball`` that the same certificate keeps; the two must
agree to rounding on the runner's default grids.  Identity 1's shifted-Gaussian form is the
same sum written differently, so it is checked against the periodized
Gaussian at v = 0.  The forms themselves are pinned, bit for bit, to a
Fraction reference.
"""

import random
from fractions import Fraction

import pytest

from fractionforms import ref_int_form
from toruslift import theta
from toruslift.exact import rat
from toruslift.runner import _TAU_DEFAULT, _UV_DEFAULT, _Z_DEFAULT
from toruslift.summation import get_context
from toruslift.theta import (
    _pair_gram,
    gaussian_theta_lhs,
    iter_ball,
    lattice_sum,
    truncation_radius,
)

REL = {"double": 1e-13, "dd": 1e-28}


def closure_sum(term, tau, u, v, ctx):
    """The closure's terms at the points of ``iter_ball`` that the pair
    sum's certificate keeps: decay, from the Fraction forms, at most its
    limit."""
    decay = fraction_pair_forms(tau, u, v)[0]
    cert = truncation_radius(_pair_gram(tau), ctx.default_tol, decay=decay)
    den, quad, lin, const = decay

    def kept(m, n):
        num = (quad[0][0] * m * m + quad[0][1] * m * n + quad[1][1] * n * n
               + lin[0] * m + lin[1] * n + const)
        return Fraction(num, den) <= cert.limit

    return ctx.sum([term(m, n) for m, n in iter_ball(2, cert.radius)
                    if kept(m, n)])


def closure_lhs(tau, u, v, ctx):
    b, a = rat(tau.real), rat(tau.imag)
    half_pi_a = ctx.pi * ctx.real(1 / a) / 2
    tau_c, tau_cc = ctx.to_complex(b, a), ctx.to_complex(b, -a)
    mod2 = ctx.real(b * b + a * a)
    uu, vv = ctx.to_complex(u.real, u.imag), ctx.to_complex(v.real, v.imag)

    def term(m, n):
        quad = mod2 * (n * n) + (m * m) + 2 * tau_c * (m * n)
        return ctx.exp(-half_pi_a * quad
                       - 2 * half_pi_a * ((m + n * tau_cc) * uu)
                       + 2 * half_pi_a * ((m + n * tau_c) * vv))

    value = closure_sum(term, tau, u, v, ctx)
    return value * ctx.exp(-half_pi_a * (uu * uu) + 2 * half_pi_a * (uu * vv)
                           - half_pi_a * (vv * vv))


def closure_first(tau, z, ctx):
    b, a = rat(tau.real), rat(tau.imag)
    half_pi_a = ctx.pi * ctx.real(1 / a) / 2
    b_real, tau_cc = ctx.real(b), ctx.to_complex(b, -a)
    zz = ctx.to_complex(z.real, z.imag)
    mod2 = ctx.real(b * b + a * a)

    def term(m, n):
        sgn = -1 if (m * n) % 2 else 1
        quad = (m * m) + 2 * b_real * (m * n) + mod2 * (n * n)
        return sgn * ctx.exp(-half_pi_a * quad
                             - 2 * half_pi_a * ((m + n * tau_cc) * zz))

    value = closure_sum(term, tau, z, 0j, ctx)
    return value * ctx.exp(-half_pi_a * zz * zz)


def closure_middle(tau, z, ctx):
    b, a = rat(tau.real), rat(tau.imag)
    half_pi_a = ctx.pi * ctx.real(1 / a) / 2
    tau_cc = ctx.to_complex(b, -a)
    zz = ctx.to_complex(z.real, z.imag)
    mod2 = ctx.real(b * b + a * a)

    def term(m, n):
        w = zz + m
        return ctx.exp(-half_pi_a * (w * w) - 2 * half_pi_a * (n * tau_cc * w)
                       - half_pi_a * mod2 * (n * n))

    return closure_sum(term, tau, z, 0j, ctx)


def assert_close(got, ref, context):
    ctx = get_context(context)
    assert ctx.abs(got - ref) <= REL[context] * ctx.abs(ref)


@pytest.mark.parametrize("context", ["double", "dd"])
@pytest.mark.parametrize("tau", _TAU_DEFAULT)
def test_gaussian_lhs_matches_the_float_closure(tau, context):
    ctx = get_context(context)
    for u, v in _UV_DEFAULT:
        got = gaussian_theta_lhs(tau, u, v, context=context).value
        assert_close(got, closure_lhs(tau, u, v, ctx), context)


@pytest.mark.parametrize("context", ["double", "dd"])
@pytest.mark.parametrize("tau", _TAU_DEFAULT)
def test_identity1_forms_match_the_float_closures(tau, context):
    ctx = get_context(context)
    for z in _Z_DEFAULT:
        first = gaussian_theta_lhs(tau, z, 0j, context=context).value
        assert_close(first, closure_first(tau, z, ctx), context)
        assert_close(first, closure_middle(tau, z, ctx), context)


def fraction_pair_forms(tau, u, v):
    """The decay and turns forms of the pair sum at (tau, u, v), through
    Fraction coefficients: the Gram of (m + n tau)(m + n conj(tau)) / (2a),
    the sign (-1)^{mn} as the turn mn/2, and the real and imaginary parts
    of -(1/a) (m + n conj(tau)) u + (1/a) (m + n tau) v - (u - v)^2 / (2a)
    over -pi and 2 pi."""
    b, a = rat(tau.real), rat(tau.imag)
    ur, ui, vr, vi = map(rat, (u.real, u.imag, v.real, v.imag))
    dr, di = ur - vr, ui - vi
    half = Fraction(1, 2)
    gram = [[half / a, half * b / a],
            [half * b / a, half * (b * b + a * a) / a]]
    decay = ref_int_form(gram, (dr / a, b * dr / a + ui + vi),
                         (dr * dr - di * di) / (2 * a))
    turns = ref_int_form([[0, half], [0, 0]],
                         (-di / (2 * a), (a * (ur + vr) - b * di) / (2 * a)),
                         -dr * di / (2 * a))
    return decay, turns


def test_pair_sum_forms_are_the_fraction_forms(monkeypatch):
    # the forms the kernel receives are the reference's integers, on seeded
    # tau (a quarter with Re tau = 0), u and v
    seen = []

    def record(ctx, box, limit, decay, turns):
        seen.append((decay, turns))
        return lattice_sum(ctx, box, limit, decay, turns)

    monkeypatch.setattr(theta, "lattice_sum", record)
    rng = random.Random(20)
    for i in range(80):
        tau = complex(0.0 if i % 4 == 0 else rng.uniform(-0.6, 0.6),
                      rng.uniform(0.8, 1.5))
        u, v = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for _ in range(2))
        gaussian_theta_lhs(tau, u, v, 1e-8)
        assert seen == [fraction_pair_forms(tau, u, v)], (tau, u, v)
        seen.clear()
