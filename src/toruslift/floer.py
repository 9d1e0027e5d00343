"""Intersection bases, certified product sums, and the u-part subspace.

The objects here live on a split torus T^{2n} with modulus tau (an n x n
complex matrix given by exact rational real/imaginary parts) and on its
twisted double.  Graph branes are indexed by integer slope matrices D with
Im(tau) D symmetric positive definite and A := Re(tau) D - D^T Re(tau)^T
integral; transversal pairs of graphs reduce, after tensoring, to the pair
(zero-section, graph of the difference map).

The products take their series datum (tau, D, k, xi) as one
:class:`toruslift.theta.ThetaSpec`, checked once when it is built (raising
InadmissibleSpec), with A, Im(tau) D and p = D^{-1} k kept on it: the
characteristic k is ``spec.char``, and the sums read their tolerance and
radius cap from ``spec.tol`` and ``spec.max_radius``.

Key quantities:

* ``mu2_base``    -- the coefficient of the short generator in the triangle
  product on the base torus, a certified n-dimensional lattice sum.
* ``mu2_double``  -- the corresponding coefficient on the doubled torus, a
  certified 2n-dimensional lattice sum indexed by a pair of coset classes.
* ``u_part_basis``/``project_u``/``mu2_u`` -- the span of the fiber-summed
  generators, the averaging projector onto it, and its product with the
  doubled fiber brane.
* ``verify_usub`` -- checks that the fiber-summed double sum factors into
  sqrt(det(2 Im tau D)) theta(u) conj-theta(v) times an explicit
  trivialization factor, with the mirror coordinates

      u = tau^T (r - kappa) - phi,      v = -conj(tau)^T kappa - theta_hat - phi.

* ``verify_main_diagram`` -- checks that the doubled product of the
  fiber-summed generator, divided by the base product, is one constant,
  predicted from the conjugate series of ``spec`` at 0.
* ``u_part_self`` -- splits the complexified tangent space of a lifted brane
  under the doubled complex structure and reports the anti-holomorphic
  exterior-power dimensions.

Both checks take the fiber sum over the dual cosets l in Z^n / D^T Z^n
from one correctly rounded ``ctx.sum``.  The layer keeps context values
(mpmath at 106 bits in ``dd``) and rounds them to ``complex`` and
``float`` only for the report; its explicit factors are exact exponents
evaluated by :func:`toruslift.summation.exp_pi`.

Both product sums are the one integer kernel of the package,
:func:`toruslift.theta.lattice_sum`: ``mu2_base`` is the theta series at
z = tau^T r - phi (:func:`toruslift.theta.theta_dk`) times a prefactor, and
``mu2_double`` builds its forms with the builders of the theta series,
:func:`toruslift.theta._centred` and :func:`toruslift.theta._add_linear`,
with the phase in exact "turns" (fractions of a full circle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul
from typing import Optional, Sequence

from .brane import Brane, _as_frac_vec, pairing_form
from .errors import (
    InadmissibleD,
    InvalidBrane,
    JNotPreserving,
    NonTransversal,
    UnsupportedTriple,
)
from .exact import (RatMat, _int_vec, hstack, int_entries, ratvec, vec_add,
                    vec_dot, vec_sub, vstack)
from .lattice import coset_reduce, cosets
from .summation import exp_pi, get_context
from .theta import (
    CertifiedValue,
    ThetaSpec,
    _add_linear,
    _centred,
    _resolved_tol,
    lattice_sum,
    theta_bar_dk,
    theta_dk,
    truncation_radius,
)
from .torus import DoubledTorus, MirrorCoords


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
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

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


def mu2_base(spec: ThetaSpec, r, phi, *,
             context: str = "double") -> CertifiedValue:
    """Coefficient of the short generator in the base triangle product.

    The sum runs over the lattice of triangle classes:

        sum_m (-1)^xi(m) e^{pi i <p, A m>} e^{pi i <tau D (m-p), m-p>}
              e^{2 pi i <D m - k, tau^T r - phi>}

    times the prefactor e^{pi i <tau D r, r>} e^{-2 pi i <D r, phi>}, with
    p = D^{-1} k: the theta series of ``spec`` at z = tau^T r - phi.
    The result carries the truncation certificate of the sum; the prefactor
    has modulus at most one, so the tail bound still applies.
    """
    tau_re, d_mat = spec.tau_re, spec.d_mat
    r = _as_frac_vec(r, spec.n, "fiber position")
    phi = _as_frac_vec(phi, spec.n, "flat connection")
    z = list(zip(vec_sub(tau_re.T @ r, phi), spec.tau_im.T @ r))
    total = theta_dk(spec, z, context=context)

    prefactor = exp_pi(get_context(context), -vec_dot(spec.q_form @ r, r),
                       vec_dot((tau_re @ d_mat) @ r, r) / 2
                       - vec_dot(d_mat @ r, phi))
    return CertifiedValue(total.value * prefactor, total.certificate, context)


# -- the doubled product sum ---------------------------------------------------


@lru_cache(maxsize=64)
def _doubled(tau_re: RatMat, tau_im: RatMat, d_mat: RatMat,
             a_form: RatMat) -> tuple:
    """The parts of the doubled product sums that depend on (tau, D) alone,
    built once: X = Im(tau)^{-1} D^T (symmetric positive definite), C =
    Re(tau) X Re(tau)^T + Im(tau) X Im(tau)^T, the decay Gram G = 1/2
    [[C, Re(tau) X], [X Re(tau)^T, X]], the turns quad over 2, the integer
    rows of D, D^T, A and A^T, and D^{-T} as (integer rows, denominator).
    The real decay part of the exponent is -pi <G (w+c), w+c> on w = (m,
    n); the imaginary quadratic parts collapse, as the only cross term is
    Im <X tau^T m', n'> = <D m', n'> because X Im(tau)^T = D exactly."""
    x_mat = tau_im.inv() @ d_mat.T
    c_mat = tau_re @ x_mat @ tau_re.T + tau_im @ x_mat @ tau_im.T
    cross = x_mat @ tau_re.T
    gram = vstack(hstack(c_mat, cross.T), hstack(cross, x_mat)) * Fraction(1, 2)
    # the turns quad: the sign structure sum_{i<j} A_ij m_i m_j and the
    # doubled-structure cross term -<D m, n>
    n, d, a = d_mat.nrows, d_mat.num, a_form.num
    t_quad = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        t_quad[i][i + 1:n] = a[i][i + 1:]
        for j in range(n):
            t_quad[j][n + i] = -d[i][j]
    d_inv_t = d_mat.T.inv()
    return (x_mat, c_mat, gram, tuple(map(tuple, t_quad)),
            (d, tuple(zip(*d)), a, tuple(zip(*a))),
            (d_inv_t.num, d_inv_t.den))


def _blocks(spec: ThetaSpec) -> tuple:
    return _doubled(spec.tau_re, spec.tau_im, spec.d_mat, spec.a_form)


def _root_det(ctx, spec: ThetaSpec):
    """sqrt|det(2 Im tau D)|, the factorization constant, in ``ctx``."""
    return ctx.sqrt(ctx.real(abs((2 * spec.q_form).det())))


def _mv(rows, v) -> list:
    return [sum(map(mul, row, v)) for row in rows]


def _double_forms(spec: ThetaSpec, l, pt: DoublePoint) -> tuple:
    """(gram, shift, decay, turns) of :func:`mu2_double` at the dual
    characteristic ``l`` (integers) and the point: the Gram G of
    :func:`_doubled`, the certificate's center shift max |c_i| and the
    forms of :func:`toruslift.theta.lattice_sum`, formed in integers over
    one denominator E of r, phi, theta-hat, kappa, p and q = D^{-T} (A p +
    l).  The decay is G centred at -c (:func:`toruslift.theta._centred`),
    the turns the quad of :func:`_doubled` plus the linear and constant
    parts; :func:`toruslift.theta._add_linear` reduces each."""
    _, _, gram, t_quad, (d, d_t, a, a_t), (dti, dti_den) = _blocks(spec)
    n = spec.n
    p, p_den = _int_vec(spec.p_vec)
    q_den = dti_den * p_den  # q = dti (A p + l) / q_den
    q = _mv(dti, [x + p_den * y for x, y in zip(_mv(a, p), l)])
    point, pt_den = _int_vec(pt.r + pt.phi + pt.theta_hat + pt.kappa)
    e = math.lcm(pt_den, q_den)
    point = [x * (e // pt_den) for x in point]
    r, phi, that, kappa = (point[i * n:(i + 1) * n] for i in range(4))
    p = [x * (e // p_den) for x in p]
    cm = [x - y for x, y in zip(r, p)]
    cn = [x - y * (e // q_den) for x, y in zip(that, q)]

    # decay(w) = <G (w + c), w + c>, c = (cm, cn) / e
    c = cm + cn
    decay = _add_linear(_centred(gram.num, gram.den, [-x for x in c], e),
                        [0] * (2 * n), 0, 1)
    # turns(w) = [xi_raw(m) - <D m, n>] / 2 + lin . w + const; over 2 e the
    # linear parts are
    #   m: xi e - D^T cn - A r + A^T p - 2 A^T kappa - 2 D^T phi
    #   n: 2 D kappa - D cm
    # and over 2 e^2 the constant is
    #   -<cn, D cm> + 2 <cn, D kappa> - 2 <cm, A^T kappa + D^T phi> + <p, A r>
    ar, at_kappa, dt_phi = _mv(a, r), _mv(a_t, kappa), _mv(d_t, phi)
    d_cm, d_kappa = _mv(d, cm), _mv(d, kappa)
    lin = [b * e - x - y + z - 2 * (u + v) for b, x, y, z, u, v in zip(
        spec.xi_lin, _mv(d_t, cn), ar, _mv(a_t, p), at_kappa, dt_phi)]
    lin += [2 * x - y for x, y in zip(d_kappa, d_cm)]
    const = (sum(map(mul, cn, [2 * x - y for x, y in zip(d_kappa, d_cm)]))
             - 2 * sum(map(mul, cm, map(add, at_kappa, dt_phi)))
             + sum(map(mul, p, ar)))
    turns = _add_linear((2, t_quad, [0] * (2 * n), 0),
                        [e * x for x in lin], const, 2 * e * e)
    return gram, Fraction(max(map(abs, c), default=0), e), decay, turns


def mu2_double(spec: ThetaSpec, l, pt: DoublePoint, *,
               context: str = "double") -> CertifiedValue:
    """One doubled product coefficient: the certified (m, n) lattice sum
    attached to the coset pair (k, l), k = ``spec.char``, and the
    evaluation point.

    Phase bookkeeping (exact rational turns): the doubled-structure cross
    term -<D m', n'>/2, the connection pairing <D^T n', kappa> - <A m',
    kappa> - <D m', phi>, and the sign/transport factors xi(m)/2 -
    <m - p, A r>/2 + <p, A m>/2, with m' = m + (r-p), n' = n + (that-q).

    Decay and phase are integer forms in w = (m, n) (:func:`_double_forms`),
    summed by :func:`toruslift.theta.lattice_sum`.
    """
    n = spec.n
    if pt.n != n:
        raise ValueError(f"evaluation point must have n = {n}")
    l = int_entries(l, "dual characteristic")
    if len(l) != n:
        raise ValueError(f"dual characteristic must have length {n}")
    ctx = get_context(context)
    gram, shift, decay, turns = _double_forms(spec, l, pt)
    cert = truncation_radius(gram, tol=_resolved_tol(spec.tol, ctx),
                             center_shift=shift, max_radius=spec.max_radius)
    return CertifiedValue(lattice_sum(ctx, 2 * n, cert.radius, decay, turns),
                          cert, context)


def trivialization_factor(spec: ThetaSpec, pt: DoublePoint, *,
                          context: str = "double"):
    """The explicit factor relating the doubled product normalization to the
    holomorphic theta normalization (never dropped, always reported):

        e^{pi/2 <X(u-v), u-v>}
        e^{-pi/2 <X that, that> - pi/2 <conj(tau) X tau^T r, r> - pi <X tau^T r, that>}
        e^{-2 pi i <D r, phi> + 2 pi i <D^T that - A r, kappa>}
    """
    tau_re, tau_im, d_mat = spec.tau_re, spec.tau_im, spec.d_mat
    x_mat, c_mat = _blocks(spec)[:2]
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
        + vec_dot(vec_sub(d_mat.T @ that, spec.a_form @ pt.r), pt.kappa)
    )
    return exp_pi(get_context(context), decay, turns)


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
    """The averaging projector s_j x s'_h -> s_j x (sum_l s'_l)/det.

    Each coset's coefficients are summed once by ``ctx.sum`` of their
    context (``dd`` when any coefficient is an mpmath value, else
    ``double``) and divided by det once.
    """
    if vec.basis != space.elements:
        raise ValueError("vector is not expressed in the space's basis")
    det = abs(int(space.delta.det()))
    ctx = get_context("dd" if any(hasattr(c, "_mpf_") or hasattr(c, "_mpc_")
                                  for c in vec.coeffs) else "double")
    groups = {}
    for e, c in zip(vec.basis, vec.coeffs):
        groups.setdefault(e.k, []).append(ctx.to_complex(c.real, c.imag))
    means = {k: ctx.sum(terms) / det for k, terms in groups.items()}
    return FloerVector(vec.basis, tuple(means[e.k] for e in vec.basis))


def mu2_u(spec: ThetaSpec, third, vec: FloerVector, x=None, *,
          context: str = "double") -> FloerVector:
    """Averaged triangle product against the doubled fiber brane.

    ``third`` is the fiber-brane evaluation data (a DoublePoint); a slope
    matrix in that slot means a triple of three graph branes, which has no
    product formula here and raises UnsupportedTriple.  ``vec`` is a vector
    over the doubled (k, l) intersection basis, each element summed with
    the characteristic of its k (``spec.with_char``); ``x`` optionally
    scales the long generator (a one-element FloerVector or a number).  The
    products c * mu2_double are reduced by ``ctx.sum`` and stay context
    values.

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
    terms = []
    for e, c in zip(vec.basis, vec.coeffs):
        if c == 0:
            continue
        if e.l is None:
            raise ValueError("vector must be over doubled intersection points")
        terms.append(c * mu2_double(spec.with_char(e.k), e.l, third,
                                    context=context).value)
    total = get_context(context).sum(terms)
    if x is not None:
        total = (x.coeffs[0] if isinstance(x, FloerVector) else x) * total
    zero = (Fraction(0),) * spec.n
    target = FloerBasisElement(third.r + zero + zero + third.theta_hat,
                               (0,) * spec.n, (0,) * spec.n)
    return FloerVector((target,), (total,))


# -- the factorization and diagram checks --------------------------------------


def _fiber_sum(spec: ThetaSpec, pt: DoublePoint, *, context: str):
    """sum_l s_{k,l}: the doubled products of coset k = ``spec.char`` over
    the dual cosets l in Z^n / D^T Z^n, one correctly rounded ``ctx.sum``."""
    return get_context(context).sum([
        mu2_double(spec, l, pt, context=context).value
        for l in cosets(spec.d_mat.T)])


def verify_usub(spec: ThetaSpec, points: Sequence, *,
                context: str = "double") -> float:
    """Max residual of the fiber-summed factorization over the sample points:

        sum_l s_{k,l} = sqrt(det(2 Im tau D)) theta_{D,k}(u)
                        conj-theta_{D,0}(v) * trivialization factor.

    (The constant is one factor sqrt(2) per dimension: det(2 Im tau D) =
    2^n det(Im tau D).)
    """
    ctx = get_context(context)
    spec0 = spec.with_char((0,) * spec.n)
    root = _root_det(ctx, spec)
    worst = 0.0
    for pt in points:
        lhs = _fiber_sum(spec, pt, context=context)
        u, v = mirror_coordinates(spec.tau_re, spec.tau_im, pt)
        rhs = (root
               * theta_dk(spec, u, context=context).value
               * theta_bar_dk(spec0, v, context=context).value
               * trivialization_factor(spec, pt, context=context))
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


def verify_main_diagram(spec: ThetaSpec, k_list, z_grid, *,
                        context: str = "double") -> DiagramReport:
    """Check that base and doubled products agree through the fiber-summed
    identification.

    For each coset k and base point (r, phi), the doubled product of the
    fiber-summed generator is evaluated at the point with kappa = 0 and
    theta_hat = -phi (the unique real solution of v = 0, where the mirror
    coordinate u equals the base coordinate tau^T r - phi), and divided by
    the base product.  The ratio must be one constant across all (k, z):
    sqrt(det(2 Im tau D)) times the conjugate series of ``spec`` at 0, whose
    characteristic ``spec.char`` is 0 but for negative controls.  The
    numerator is the fiber sum of verify_usub for the reduced coset, and
    ratios, mean and residuals stay context values until the report.
    """
    n = spec.n
    ctx = get_context(context)
    tol = _resolved_tol(spec.tol, ctx)
    mirror = MirrorCoords(spec.tau_re, spec.tau_im)
    ratios = []
    skipped = 0
    for base in [spec.with_char(k) for k in k_list]:
        fiber = base.with_char(coset_reduce(spec.d_mat, base.char))
        for (r, phi) in z_grid:
            den = mu2_base(base, r, phi, context=context)
            if abs(complex(den)) <= tol ** 0.5:
                skipped += 1
                continue
            pt = DoublePoint(*mirror.point_with_v_zero(r, phi))
            ratios.append(_fiber_sum(fiber, pt, context=context) / den.value)
    if not ratios:
        raise ValueError(
            "the base product vanishes at every grid point; the ratio is "
            "undefined (choose non-symmetric sample points)"
        )
    predicted = (_root_det(ctx, spec)
                 * theta_bar_dk(spec, [0] * n, context=context).value)
    mean = sum(ratios) / len(ratios)
    spread = float(max(ctx.abs(rho - mean) for rho in ratios) / ctx.abs(mean))
    max_error = float(max(ctx.abs(rho - predicted) for rho in ratios)
                      / ctx.abs(predicted))
    budget = 10 * tol
    return DiagramReport(tuple(map(complex, ratios)), complex(predicted),
                         spread, max_error, tol,
                         spread <= budget and max_error <= budget, skipped)


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

    The restriction M of J to the support solves W M = J W exactly and is
    read off the brane's support coordinates; a failure means J does not
    preserve the tangent space (JNotPreserving).  Since J^2 = -Id, M^2 = -I,
    so the anti-holomorphic covectors, the kernel of M^T + i, are the
    vectors x + i M^T x; its complex dimension n = k/2 on a k-dimensional
    tangent space gives degree dimensions C(n, q).
    """
    torus = brane.torus
    if not isinstance(torus, DoubledTorus):
        raise InvalidBrane("the u-part splitting needs a brane on a doubled torus")
    m_res = brane.coordinates(torus.j_mat @ brane.support)
    if m_res is None:
        raise JNotPreserving(
            "the doubled complex structure does not preserve the tangent "
            "space of this brane"
        )
    k = m_res.nrows
    dim_c = k // 2

    # pick a complex basis: greedily take x = e_j, i.e. the vectors
    # e_j + i (row j of M), that stay independent over C (the realified
    # rank grows by two per new vector)
    chosen = []
    taken_cols = []
    for j in range(k):
        x = tuple(int(i == j) for i in range(k))
        y = m_res.row(j)
        trial = taken_cols + [x + y, tuple(-c for c in y) + x]
        if RatMat.from_columns(trial).rank() == len(trial):
            taken_cols = trial
            chosen.append(tuple(complex(float(a), float(b))
                                for a, b in zip(x, y)))
        if len(chosen) == dim_c:
            break
    dims = tuple(math.comb(dim_c, q) for q in range(dim_c + 1))
    return UPartSelf(dims, tuple(chosen), m_res)
