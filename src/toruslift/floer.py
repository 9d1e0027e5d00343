"""Intersection bases, certified product sums, and the u-part subspace.

The objects here live on a split torus T^{2n} with modulus tau (an n x n
complex matrix given by exact rational real/imaginary parts) and on its
twisted double.  Graph branes are indexed by integer slope matrices D with
Im(tau) D symmetric positive definite and A := Re(tau) D - D^T Re(tau)^T
integral, checked by :func:`toruslift.brane.admissible_d` (which raises
InadmissibleD); transversal pairs of graphs reduce, after tensoring, to the
pair (zero-section, graph of the difference map).

Key quantities:

* ``mu2_base``    -- the coefficient of the short generator in the triangle
  product on the base torus, a certified n-dimensional lattice sum.
* ``mu2_double``  -- the corresponding coefficient on the doubled torus, a
  certified 2n-dimensional lattice sum indexed by a pair of coset classes.
* ``u_part_basis``/``project_u`` -- the span of the fiber-summed generators
  and the averaging projector onto it.
* ``verify_usub`` -- checks that the fiber-summed double sum factors into
  sqrt(det(2 Im tau D)) theta(u) conj-theta(v) times an explicit
  trivialization factor, with the mirror coordinates

      u = tau^T (r - kappa) - phi,      v = -conj(tau)^T kappa - theta_hat - phi.

* ``u_part_self`` -- splits the complexified tangent space of a lifted brane
  under the doubled complex structure and reports the anti-holomorphic
  exterior-power dimensions.

Both product sums are the one integer kernel of the package,
:func:`toruslift.theta.lattice_sum`: ``mu2_base`` is the theta series at
z = tau^T r - phi (:func:`toruslift.theta.theta_dk`) times a prefactor, and
``mu2_double`` builds its own forms, with the phase in exact "turns"
(fractions of a full circle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .brane import (Brane, _as_frac_vec, _mod1, admissible_d, pairing_form,
                    xi_bits)
from .errors import (
    InadmissibleD,
    InadmissibleSpec,
    InvalidBrane,
    JNotPreserving,
    NonTransversal,
    UnsupportedTriple,
)
from .exact import RatMat, hstack, ratvec, vec_add, vec_dot, vec_sub, vstack
from .lattice import coset_reduce, cosets, int_kernel, solve_integer_system
from .summation import get_context
from .theta import (
    DEFAULT_MAX_RADIUS,
    CertifiedValue,
    ThetaSpec,
    _resolved_tol,
    centered_form,
    int_form,
    lattice_sum,
    theta_bar_dk,
    theta_dk,
    truncation_radius,
)
from .torus import DoubledTorus, MirrorCoords


def _int_vec(v, n: int, name: str) -> tuple:
    out = tuple(int(c) for c in v)
    if len(out) != n:
        raise ValueError(f"{name} must have length {n}")
    return out


# -- intersection bases --------------------------------------------------------


@dataclass(frozen=True)
class FloerBasisElement:
    """One intersection point with its coset indices.

    ``point`` is exact-rational, length 2n on the base torus and 4n on the
    double (coordinate order r, theta, r-hat, theta-hat); ``l`` is None for
    base points.
    """

    point: tuple
    k: tuple
    l: Optional[tuple] = None


@dataclass(frozen=True)
class FloerVector:
    basis: tuple
    coeffs: tuple

    def __post_init__(self):
        if len(self.basis) != len(self.coeffs):
            raise ValueError("coefficient and basis lengths differ")
        object.__setattr__(self, "basis", tuple(self.basis))
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    def scaled(self, factor) -> "FloerVector":
        return FloerVector(self.basis, tuple(factor * c for c in self.coeffs))

    def __add__(self, other: "FloerVector") -> "FloerVector":
        if self.basis != other.basis:
            raise ValueError("vectors live on different bases")
        return FloerVector(
            self.basis, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )


def intersections(d_from: RatMat, d_to: RatMat, *, tau_re: Optional[RatMat] = None,
                  doubled: bool = False) -> list:
    """Intersection points of two graph branes, via the difference map.

    Pairs of graphs are tensor-reduced to (zero-section, graph of
    ``d_to - d_from``); on the base there is one point r = Delta^{-1} k per
    coset k, on the double additionally theta-hat = (Delta^T)^{-1}(A k' + l)
    with k' = Delta^{-1} k.  Raises NonTransversal when the difference map
    is singular.
    """
    delta = d_to - d_from
    if not delta.is_integer():
        raise InadmissibleD("slope matrices must have integer entries")
    if delta.det() == 0:
        raise NonTransversal("the difference of the slope matrices is singular")
    n = delta.nrows
    delta_inv = delta.inv()
    zero = (Fraction(0),) * n
    out = []
    if not doubled:
        for k in cosets(delta):
            p = delta_inv @ k
            out.append(FloerBasisElement(tuple(p) + zero, k))
        return out
    if tau_re is None:
        raise ValueError("doubled intersections need the real part of the modulus")
    a_form = pairing_form(tau_re, delta)
    dt_inv = delta.T.inv()
    for k in cosets(delta):
        p = delta_inv @ k
        ap = a_form @ p
        for l in cosets(delta.T):
            q = dt_inv @ vec_add(ap, ratvec(l))
            point = tuple(p) + zero + zero + tuple(q)
            out.append(FloerBasisElement(point, k, l))
    return out


# -- evaluation data on the double ---------------------------------------------


@dataclass(frozen=True)
class DoublePoint:
    """Evaluation data (r, phi, theta_hat, kappa) for the doubled products.

    r and phi locate the fiber brane on the base (position and flat
    connection), theta_hat and kappa the corresponding data in the dual
    directions.  All entries are exact rationals.
    """

    r: tuple
    phi: tuple
    theta_hat: tuple
    kappa: tuple

    def __post_init__(self):
        object.__setattr__(self, "r", ratvec(self.r))
        object.__setattr__(self, "phi", ratvec(self.phi))
        object.__setattr__(self, "theta_hat", ratvec(self.theta_hat))
        object.__setattr__(self, "kappa", ratvec(self.kappa))
        n = len(self.r)
        for name in ("phi", "theta_hat", "kappa"):
            if len(getattr(self, name)) != n:
                raise ValueError("point components must all have length n")

    @property
    def n(self) -> int:
        return len(self.r)

    @classmethod
    def zero(cls, n: int) -> "DoublePoint":
        z = (0,) * n
        return cls(z, z, z, z)


def mirror_coordinates(tau_re: RatMat, tau_im: RatMat,
                       pt: DoublePoint) -> tuple:
    """The holomorphic coordinates (u, v) of an evaluation point, as exact
    (Re, Im) rational pairs accepted by the theta evaluators."""
    mc = MirrorCoords(tau_re, tau_im)
    u_re, u_im = mc.u_coord(pt.r, pt.kappa, pt.phi)
    v_re, v_im = mc.v_coord(pt.kappa, pt.theta_hat, pt.phi)
    return list(zip(u_re, u_im)), list(zip(v_re, v_im))


# -- the base product sum ------------------------------------------------------


def mu2_base(tau_re: RatMat, tau_im: RatMat, d_mat: RatMat, k, r, phi, *,
             xi_lin=(), tol: Optional[float] = None, context: str = "double",
             max_radius: int = DEFAULT_MAX_RADIUS) -> CertifiedValue:
    """Coefficient of the short generator in the base triangle product.

    The sum runs over the lattice of triangle classes:

        sum_m (-1)^xi(m) e^{pi i <p, A m>} e^{pi i <tau D (m-p), m-p>}
              e^{2 pi i <D m - k, tau^T r - phi>}

    times the prefactor e^{pi i <tau D r, r>} e^{-2 pi i <D r, phi>}, with
    p = D^{-1} k: the theta series of (tau, D, k, xi) at z = tau^T r - phi.
    The result carries the truncation certificate of the sum; the prefactor
    has modulus at most one, so the tail bound still applies.
    """
    admissible_d(tau_re, tau_im, d_mat)
    n = d_mat.nrows
    ctx = get_context(context)
    tol_f = _resolved_tol(tol, ctx)
    k = _int_vec(k, n, "characteristic")
    r = _as_frac_vec(r, n, "fiber position")
    phi = _as_frac_vec(phi, n, "flat connection")
    try:  # D and k are checked above, so only the sign bits can fail here
        spec = ThetaSpec(tau_re, tau_im, d_mat, k, xi_lin, tol_f, max_radius)
    except InadmissibleSpec as err:
        raise ValueError(str(err)) from None
    z = list(zip(vec_sub(tau_re.T @ r, phi), tau_im.T @ r))
    total = theta_dk(spec, z, context=context)

    pref_turns = _mod1(vec_dot((tau_re @ d_mat) @ r, r) / 2
                       - vec_dot(d_mat @ r, phi))
    pref_decay = vec_dot(spec.q_form @ r, r)
    prefactor = ctx.exp(ctx.to_complex(
        -ctx.pi * ctx.real(pref_decay), 2 * ctx.pi * ctx.real(pref_turns)
    ))
    return CertifiedValue(total.value * prefactor, total.certificate, context)


# -- the doubled product sum ---------------------------------------------------


def _decay_blocks(tau_re: RatMat, tau_im: RatMat, d_mat: RatMat) -> tuple:
    """X = Im(tau)^{-1} D^T and C = Re(tau) X Re(tau)^T + Im(tau) X Im(tau)^T,
    the blocks of the doubled decay Gram and of the trivialization factor."""
    x_mat = tau_im.inv() @ d_mat.T
    return x_mat, tau_re @ x_mat @ tau_re.T + tau_im @ x_mat @ tau_im.T


def _root_det(ctx, tau_im: RatMat, d_mat: RatMat):
    """sqrt|det(2 Im tau D)|, the factorization constant, in ``ctx``."""
    return ctx.sqrt(ctx.real(abs((2 * (tau_im @ d_mat)).det())))


def _double_gram(tau_re: RatMat, tau_im: RatMat, d_mat: RatMat) -> RatMat:
    """Decay Gram of the doubled sum.

    With X = Im(tau)^{-1} D^T (symmetric positive definite), the real decay
    part of the exponent is -pi (w+c)^T G (w+c) on w = (m, n), where

        G = 1/2 [[Re(tau) X Re(tau)^T + Im(tau) X Im(tau)^T,  Re(tau) X],
                 [X Re(tau)^T,                                X        ]].

    The imaginary quadratic parts collapse: the only cross term is
    Im <X tau^T m', n'> = <D m', n'> because X Im(tau)^T = D exactly.
    """
    x_mat, c_mat = _decay_blocks(tau_re, tau_im, d_mat)
    cross = x_mat @ tau_re.T
    gram = vstack(hstack(c_mat, cross.T), hstack(cross, x_mat))
    return gram * Fraction(1, 2)


def mu2_double(tau_re: RatMat, tau_im: RatMat, d_mat: RatMat, k, l,
               pt: DoublePoint, *, xi_lin=(), tol: Optional[float] = None,
               context: str = "double", radius: Optional[int] = None,
               max_radius: int = DEFAULT_MAX_RADIUS) -> CertifiedValue:
    """One doubled product coefficient: the certified (m, n) lattice sum
    attached to the coset pair (k, l) and the evaluation point.

    Phase bookkeeping (exact rational turns): the doubled-structure cross
    term -<D m', n'>/2, the connection pairing <D^T n', kappa> - <A m',
    kappa> - <D m', phi>, and the sign/transport factors xi(m)/2 -
    <m - p, A r>/2 + <p, A m>/2, with m' = m + (r-p), n' = n + (that-q).

    Decay and phase are integer forms in w = (m, n), summed by
    :func:`toruslift.theta.lattice_sum`.
    """
    a_form = admissible_d(tau_re, tau_im, d_mat)
    n = d_mat.nrows
    if pt.n != n:
        raise ValueError(f"evaluation point must have n = {n}")
    ctx = get_context(context)
    tol_f = _resolved_tol(tol, ctx)
    k = _int_vec(k, n, "characteristic")
    l = _int_vec(l, n, "dual characteristic")
    bits = xi_bits(xi_lin, n, ValueError)

    p = d_mat.solve(ratvec(k))
    q = d_mat.T.solve(vec_add(a_form @ p, ratvec(l)))
    cm = vec_sub(pt.r, p)
    cn = vec_sub(pt.theta_hat, q)

    gram = _double_gram(tau_re, tau_im, d_mat)
    shift = max((abs(c) for c in cm + cn), default=Fraction(0))
    cert = truncation_radius(gram, tol=tol_f, center_shift=shift,
                             max_radius=max_radius)
    use = cert.radius if radius is None else max(radius, cert.radius)

    # decay(w) = <G (w + c), w + c>
    decay = int_form(*centered_form(gram, tuple(-x for x in cm + cn)))
    # turns(w) = [xi_raw(m) - <D m, n>] / 2 + lin_m . m + lin_n . n + const
    half = Fraction(1, 2)
    t_mat = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):  # A and D are integral: their numerators are entries
        t_mat[i][i + 1:n] = [half * x for x in a_form.num[i][i + 1:]]
        t_mat[n + i][:n] = [-half * x for x in d_mat.num[i]]
    t_lin = tuple(
        half * (b - x - u + v) - y - z for b, x, y, z, u, v in zip(
            bits, d_mat.T @ cn, a_form.T @ pt.kappa, d_mat.T @ pt.phi,
            a_form @ pt.r, a_form.T @ p)
    ) + tuple(y - half * x for x, y in zip(d_mat @ cm, d_mat @ pt.kappa))
    t_const = (
        -half * vec_dot(cn, d_mat @ cm)
        + vec_dot(cn, d_mat @ pt.kappa)
        - vec_dot(cm, vec_add(a_form.T @ pt.kappa, d_mat.T @ pt.phi))
        + half * vec_dot(p, a_form @ pt.r)
    )
    turns = int_form(t_mat, t_lin, t_const)
    return CertifiedValue(lattice_sum(ctx, 2 * n, use, decay, turns), cert,
                          context)


def trivialization_factor(tau_re: RatMat, tau_im: RatMat, d_mat: RatMat,
                          pt: DoublePoint, *, context: str = "double"):
    """The explicit factor relating the doubled product normalization to the
    holomorphic theta normalization (never dropped, always reported):

        e^{pi/2 <X(u-v), u-v>}
        e^{-pi/2 <X that, that> - pi/2 <conj(tau) X tau^T r, r> - pi <X tau^T r, that>}
        e^{-2 pi i <D r, phi> + 2 pi i <D^T that - A r, kappa>}
    """
    a_form = admissible_d(tau_re, tau_im, d_mat)
    ctx = get_context(context)
    x_mat, c_mat = _decay_blocks(tau_re, tau_im, d_mat)
    that = pt.theta_hat

    # u - v = tau^T r + theta_hat - 2 i Im(tau)^T kappa, exactly
    uv_re = vec_add(tau_re.T @ pt.r, that)
    uv_im = vec_sub(tau_im.T @ pt.r,
                    tuple(2 * c for c in (tau_im.T @ pt.kappa)))
    # complex bilinear <X w, w> for w = wr + i wi
    quad_re = vec_dot(x_mat @ uv_re, uv_re) - vec_dot(x_mat @ uv_im, uv_im)
    quad_im = 2 * vec_dot(x_mat @ uv_re, uv_im)

    decay = (
        Fraction(1, 2) * quad_re
        - Fraction(1, 2) * vec_dot(x_mat @ that, that)
        - Fraction(1, 2) * vec_dot(c_mat @ pt.r, pt.r)
        - vec_dot(x_mat @ (tau_re.T @ pt.r), that)
    )
    turns = (
        Fraction(1, 4) * quad_im
        - vec_dot(d_mat @ pt.r, that) / 2
        - vec_dot(d_mat @ pt.r, pt.phi)
        + vec_dot(vec_sub(d_mat.T @ that, a_form @ pt.r), pt.kappa)
    )
    return ctx.exp(ctx.to_complex(
        ctx.pi * ctx.real(decay), 2 * ctx.pi * ctx.real(_mod1(turns))
    ))


# -- the u-part subspace -------------------------------------------------------


@dataclass(frozen=True)
class UPartSpace:
    """Span of the fiber-summed generators for a transversal graph pair."""

    delta: RatMat
    elements: tuple
    vectors: tuple

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def u_part_basis(tau_re: RatMat, d_from: RatMat, d_to: RatMat) -> UPartSpace:
    """Basis {sum_l s_{k,l}}_k over the doubled intersection points."""
    elements = tuple(intersections(d_from, d_to, tau_re=tau_re, doubled=True))
    k_reps = []
    for e in elements:
        if e.k not in k_reps:
            k_reps.append(e.k)
    vectors = tuple(
        FloerVector(elements,
                    tuple(1.0 if e.k == k else 0.0 for e in elements))
        for k in k_reps
    )
    delta = d_to - d_from
    if len(vectors) != abs(int(delta.det())):
        raise NonTransversal("basis size does not match the difference determinant")
    return UPartSpace(delta, elements, vectors)


def project_u(space: UPartSpace, vec: FloerVector) -> FloerVector:
    """The averaging projector s_j x s'_h -> s_j x (sum_l s'_l)/det."""
    if vec.basis != space.elements:
        raise ValueError("vector is not expressed in the space's basis")
    det = abs(int(space.delta.det()))
    sums = {}
    for e, c in zip(vec.basis, vec.coeffs):
        sums[e.k] = sums.get(e.k, 0j) + c
    coeffs = tuple(sums[e.k] / det for e in vec.basis)
    return FloerVector(vec.basis, coeffs)


def mu2_u(tau_re: RatMat, tau_im: RatMat, d_mat: RatMat, third, vec: FloerVector,
          *, x=None, xi_lin=(), tol: Optional[float] = None,
          context: str = "double",
          max_radius: int = DEFAULT_MAX_RADIUS) -> FloerVector:
    """Averaged triangle product against the doubled fiber brane.

    ``third`` is the fiber-brane evaluation data (a DoublePoint); a slope
    matrix in that slot means a triple of three graph branes, which has no
    product formula here and raises UnsupportedTriple.  ``vec`` is a vector
    over the doubled (k, l) intersection basis; ``x`` optionally scales the
    long generator (a one-element FloerVector or a complex number).

    The image lands on the single short generator, where the averaging
    projector is the identity, so the output is always in the u-part.
    """
    if isinstance(third, RatMat):
        raise UnsupportedTriple(
            "products of three graph branes have no closed sum here; the "
            "third brane must be a fiber"
        )
    if not isinstance(third, DoublePoint):
        raise TypeError("third must be a DoublePoint or a slope matrix")
    scale = 1.0 + 0j
    if x is not None:
        scale = complex(x.coeffs[0]) if isinstance(x, FloerVector) else complex(x)
    n = d_mat.nrows
    total = 0j
    for e, c in zip(vec.basis, vec.coeffs):
        if c == 0:
            continue
        if e.l is None:
            raise ValueError("vector must be over doubled intersection points")
        val = mu2_double(tau_re, tau_im, d_mat, e.k, e.l, third,
                         xi_lin=xi_lin, tol=tol, context=context,
                         max_radius=max_radius)
        total += c * complex(val)
    zero = (Fraction(0),) * n
    target = FloerBasisElement(
        tuple(third.r) + zero + zero + tuple(third.theta_hat),
        (0,) * n, (0,) * n,
    )
    return FloerVector((target,), (scale * total,))


# -- the factorization and diagram checks --------------------------------------


def verify_usub(tau_re: RatMat, tau_im: RatMat, d_mat: RatMat, k,
                points: Sequence, *, xi_lin=(), tol: Optional[float] = None,
                context: str = "double",
                max_radius: int = DEFAULT_MAX_RADIUS) -> float:
    """Max residual of the fiber-summed factorization over the sample points:

        sum_l s_{k,l} = sqrt(det(2 Im tau D)) theta_{D,k}(u)
                        conj-theta_{D,0}(v) * trivialization factor.

    (The constant is one factor sqrt(2) per dimension: det(2 Im tau D) =
    2^n det(Im tau D).)
    """
    admissible_d(tau_re, tau_im, d_mat)
    n = d_mat.nrows
    ctx = get_context(context)
    tol_f = _resolved_tol(tol, ctx)
    k = _int_vec(k, n, "characteristic")
    l_reps = cosets(d_mat.T)
    spec = ThetaSpec(tau_re, tau_im, d_mat, k, xi_lin, tol_f, max_radius)
    spec0 = spec.with_char((0,) * n)
    root = _root_det(ctx, tau_im, d_mat)
    worst = 0.0
    for pt in points:
        lhs = ctx.sum([mu2_double(tau_re, tau_im, d_mat, k, l, pt,
                                  xi_lin=xi_lin, tol=tol_f, context=context,
                                  max_radius=max_radius).value
                       for l in l_reps])
        u, v = mirror_coordinates(tau_re, tau_im, pt)
        rhs = (root
               * theta_dk(spec, u, context=context).value
               * theta_bar_dk(spec0, v, context=context).value
               * trivialization_factor(tau_re, tau_im, d_mat, pt,
                                       context=context))
        worst = max(worst, float(ctx.abs(lhs - rhs)))
    return worst


@dataclass(frozen=True)
class DiagramReport:
    """Constancy data for the ratio of doubled to base product coefficients.

    ``skipped`` counts grid samples where the base product vanishes (the
    ratio is undefined there; a signed series with an odd characteristic is
    identically zero at symmetric points, so such grid points are legal).
    """

    rho: tuple
    predicted: complex
    spread: float
    max_error: float
    tolerance: float
    passed: bool
    skipped: int = 0


def verify_main_diagram(tau_re: RatMat, tau_im: RatMat, d_mat: RatMat,
                        k_list, z_grid, *, xi_lin=(),
                        tol: Optional[float] = None, context: str = "double",
                        reference_char=None,
                        max_radius: int = DEFAULT_MAX_RADIUS) -> DiagramReport:
    """Check that base and doubled products agree through the fiber-summed
    identification.

    For each coset k and base point (r, phi), the doubled product of the
    fiber-summed generator is evaluated at the point with kappa = 0 and
    theta_hat = -phi (the unique real solution of v = 0, where the mirror
    coordinate u equals the base coordinate tau^T r - phi), and divided by
    the base product.  The ratio must be one constant across all (k, z):
    sqrt(det(2 Im tau D)) times the conjugate series at 0, whose
    characteristic can be overridden for negative controls.
    """
    admissible_d(tau_re, tau_im, d_mat)
    n = d_mat.nrows
    ctx = get_context(context)
    tol_f = _resolved_tol(tol, ctx)
    space = u_part_basis(tau_re, RatMat.zeros(n, n), d_mat)
    ratios = []
    skipped = 0
    for k in [_int_vec(k, n, "characteristic") for k in k_list]:
        kk = coset_reduce(d_mat, k)
        vec = next(v for v in space.vectors
                   if any(c != 0 and e.k == kk
                          for e, c in zip(v.basis, v.coeffs)))
        for (r, phi) in z_grid:
            r = _as_frac_vec(r, n, "fiber position")
            phi = _as_frac_vec(phi, n, "flat connection")
            pt = DoublePoint(*MirrorCoords(tau_re, tau_im).point_with_v_zero(r, phi))
            den = mu2_base(tau_re, tau_im, d_mat, k, r, phi, xi_lin=xi_lin,
                           tol=tol_f, context=context, max_radius=max_radius)
            if abs(complex(den)) <= tol_f ** 0.5:
                skipped += 1
                continue
            num = mu2_u(tau_re, tau_im, d_mat, pt, vec, xi_lin=xi_lin,
                        tol=tol_f, context=context, max_radius=max_radius)
            ratios.append(complex(num.coeffs[0]) / complex(den))
    if not ratios:
        raise ValueError(
            "the base product vanishes at every grid point; the ratio is "
            "undefined (choose non-symmetric sample points)"
        )
    ref = _int_vec(reference_char, n, "reference characteristic") \
        if reference_char is not None else (0,) * n
    spec = ThetaSpec(tau_re, tau_im, d_mat, ref, xi_lin, tol_f, max_radius)
    root = _root_det(ctx, tau_im, d_mat)
    predicted = complex(
        root * theta_bar_dk(spec, [0] * n, context=context).value
    )
    mean = sum(ratios) / len(ratios)
    spread = max(abs(rho - mean) for rho in ratios) / abs(mean)
    max_error = max(abs(rho - predicted) for rho in ratios) / abs(predicted)
    budget = 10 * tol_f
    return DiagramReport(tuple(ratios), predicted, spread, max_error,
                         tol_f, spread <= budget and max_error <= budget,
                         skipped)


# -- self-Hom dimensions of a lifted brane --------------------------------------


@dataclass(frozen=True)
class UPartSelf:
    """Anti-holomorphic splitting data of a lifted brane's tangent space."""

    dims: tuple
    basis: tuple
    j_restricted: RatMat


def u_part_self(brane: Brane) -> UPartSelf:
    """Split the complexified tangent space of a lifted brane under the
    doubled complex structure and return exterior-power dimensions.

    The restriction M of J to the support solves W M = J W exactly; a
    failure means J does not preserve the tangent space (JNotPreserving).
    The anti-holomorphic covectors form the kernel of M^T + i on
    coefficients, computed as the rational kernel of the realified block
    system; its complex dimension n gives degree dimensions C(n, q).
    """
    torus = brane.torus
    if not isinstance(torus, DoubledTorus):
        raise InvalidBrane("the u-part splitting needs a brane on a doubled torus")
    w = brane.support
    jw = torus.j_mat @ w
    cols = []
    for j in range(jw.ncols):
        try:
            cols.append(solve_integer_system(w, jw.col(j)))
        except ValueError:
            raise JNotPreserving(
                "the doubled complex structure does not preserve the tangent "
                "space of this brane"
            )
    m_res = RatMat.from_columns(cols)

    # realified kernel of (M^T + i I): vectors x + i y with
    # M^T x = y and M^T y = -x
    k = m_res.nrows
    mt = m_res.T
    rows = []
    for i in range(k):
        rows.append([mt[i, j] for j in range(k)]
                    + [0 if j != i else -1 for j in range(k)])
    for i in range(k):
        rows.append([0 if j != i else 1 for j in range(k)]
                    + [mt[i, j] for j in range(k)])
    real_sys = RatMat(rows)
    kern = int_kernel(real_sys * real_sys.den)
    if kern.ncols % 2 != 0:
        raise JNotPreserving("the realified eigenspace has odd dimension")
    dim_c = kern.ncols // 2

    # pick a complex basis: greedily take kernel columns that stay
    # independent over C (realified rank grows by two per new vector)
    chosen = []
    taken_cols = []
    for j in range(kern.ncols):
        x = [kern[i, j] for i in range(k)]
        y = [kern[i + k, j] for i in range(k)]
        trial = taken_cols + [tuple(x) + tuple(y),
                              tuple(-c for c in y) + tuple(x)]
        if RatMat.from_columns(trial).rank() == len(trial):
            taken_cols = trial
            chosen.append(tuple(complex(float(a), float(b))
                                for a, b in zip(x, y)))
        if len(chosen) == dim_c:
            break
    dims = tuple(math.comb(dim_c, q) for q in range(dim_c + 1))
    return UPartSelf(dims, tuple(chosen), m_res)
