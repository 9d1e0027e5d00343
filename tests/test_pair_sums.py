"""The periodized Gaussian pair sums on exact integer forms.

``gaussian_theta_lhs`` builds each term's exponent as integer decay and
turns forms in (m, n) and sums them with the lattice-sum kernel.  The
references here evaluate the same terms as complex-float closures over
``iter_ball``, with the same certificates; the two must agree to rounding
on the runner's default grids.  Identity 1's shifted-Gaussian form is the
same sum written differently, so it is checked against the periodized
Gaussian at v = 0.
"""

import math
from fractions import Fraction

import pytest
from mpmath.libmp import to_float

from toruslift.exact import rat
from toruslift.runner import _TAU_DEFAULT, _UV_DEFAULT, _Z_DEFAULT
from toruslift.summation import get_context
from toruslift.theta import (
    _interval,
    _pair_gram,
    _pair_linear_coeff,
    gaussian_theta_lhs,
    iter_ball,
    truncation_radius,
)

REL = {"double": 1e-13, "dd": 1e-28}


def closure_sum(term, tau, lin, tol, ctx, const=Fraction(0)):
    cert = truncation_radius(_pair_gram(tau), linear_bound=lin, tol=tol,
                             constant_exponent=const)
    return ctx.sum([term(m, n) for m, n in iter_ball(2, cert.radius)])


def tol_eff(tol, pref_coeff):
    return tol * math.exp(-max(to_float(_interval(pref_coeff)[1]), 0.0)
                          * math.pi)


def closure_lhs(tau, u, v, ctx):
    tol = ctx.default_tol
    b, a = rat(tau.real), rat(tau.imag)
    ur, ui = rat(u.real), rat(u.imag)
    vr, vi = rat(v.real), rat(v.imag)
    pref = (-(ur * ur - ui * ui) - (vr * vr - vi * vi)
            + 2 * (ur * vr - ui * vi)) / (2 * a)
    half_pi_a = ctx.pi * ctx.real(1 / a) / 2
    tau_c, tau_cc = ctx.to_complex(b, a), ctx.to_complex(b, -a)
    mod2 = ctx.real(b * b + a * a)
    uu, vv = ctx.to_complex(u.real, u.imag), ctx.to_complex(v.real, v.imag)

    def term(m, n):
        quad = mod2 * (n * n) + (m * m) + 2 * tau_c * (m * n)
        return ctx.exp(-half_pi_a * quad
                       - 2 * half_pi_a * ((m + n * tau_cc) * uu)
                       + 2 * half_pi_a * ((m + n * tau_c) * vv))

    value = closure_sum(term, tau, _pair_linear_coeff(tau, [u, v]),
                        tol_eff(tol, pref), ctx)
    return value * ctx.exp(-half_pi_a * (uu * uu) + 2 * half_pi_a * (uu * vv)
                           - half_pi_a * (vv * vv))


def closure_first(tau, z, ctx):
    tol = ctx.default_tol
    b, a = rat(tau.real), rat(tau.imag)
    zr, zi = rat(z.real), rat(z.imag)
    half_pi_a = ctx.pi * ctx.real(1 / a) / 2
    b_real, tau_cc = ctx.real(b), ctx.to_complex(b, -a)
    zz = ctx.to_complex(z.real, z.imag)
    mod2 = ctx.real(b * b + a * a)

    def term(m, n):
        sgn = -1 if (m * n) % 2 else 1
        quad = (m * m) + 2 * b_real * (m * n) + mod2 * (n * n)
        return sgn * ctx.exp(-half_pi_a * quad
                             - 2 * half_pi_a * ((m + n * tau_cc) * zz))

    value = closure_sum(term, tau, _pair_linear_coeff(tau, [z]),
                        tol_eff(tol, -(zr * zr - zi * zi) / (2 * a)), ctx)
    return value * ctx.exp(-half_pi_a * zz * zz)


def closure_middle(tau, z, ctx):
    b, a = rat(tau.real), rat(tau.imag)
    zr, zi = rat(z.real), rat(z.imag)
    half_pi_a = ctx.pi * ctx.real(1 / a) / 2
    tau_cc = ctx.to_complex(b, -a)
    zz = ctx.to_complex(z.real, z.imag)
    mod2 = ctx.real(b * b + a * a)

    def term(m, n):
        w = zz + m
        return ctx.exp(-half_pi_a * (w * w) - 2 * half_pi_a * (n * tau_cc * w)
                       - half_pi_a * mod2 * (n * n))

    return closure_sum(term, tau, _pair_linear_coeff(tau, [z]),
                       ctx.default_tol, ctx,
                       const=abs(zr * zr - zi * zi) / (2 * a))


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
