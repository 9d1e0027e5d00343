"""Linear symplectic tori with B-fields, their duals and doubles.

Conventions (fixed across the whole library):

* A 2-form beta is stored as its antisymmetric Gram matrix G with
  ``beta(u, v) = u^T G v`` in the coordinate basis of the covering space.
* A split torus of complex dimension n carries coordinates
  ``(r_1..r_n, theta_1..theta_n)`` and a period matrix ``tau = Re + i Im``
  (n x n, exact rational parts, det Im != 0); the associated forms are

      omega = [[0, Im tau], [-Im tau^T, 0]],
      B     = [[0, Re tau], [-Re tau^T, 0]].

* The doubled torus T x T^dual has coordinates (x, x_hat) where x_hat are
  the dual-basis coordinates; with shear = [[I, 0], [-B, I]]:

      Omega  = 1/2 shear^T [[omega, 0], [0, -omega^{-1}]] shear
      J      = shear^{-1} [[0, omega^{-1}], [-omega, 0]] shear
      sigma0 = 1/2 [[0, I], [-I, 0]]

  The shear direction is calibrated so that graph branes with nonzero
  B-field lift to exact Lagrangians (see brane.py); in coordinates for a
  one-dimensional base this expands to

      2 Omega = (|tau|^2/a) dr^dtheta - (b/a)(dr^dr_hat + dtheta^dtheta_hat)
                + (1/a) dr_hat^dtheta_hat,   tau = b + ia.

  J^2 = -Id and J^T Omega J = Omega hold exactly (property-tested).

* A torus inverts omega once, in the one elimination that also finds a
  degenerate omega (SingularModulus), and keeps the inverse for
  ``omega_inv()``.  ``Torus.from_period`` and ``double_torus`` assemble
  their block forms on the integer numerators over one denominator, and
  normalise each result once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import DualityAssumptionViolated, NotSplit, SingularModulus
from .exact import RatMat, hstack, int_matmul, ratvec, vstack


def _check_two_form(g: RatMat, dim: int, what: str) -> None:
    if g.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got {g.shape}")
    if not g.is_antisymmetric():
        raise ValueError(f"{what} must be antisymmetric")


class Torus:
    """Torus R^{2n}/Z^{2n} with a constant symplectic form and B-field."""

    def __init__(self, omega: RatMat, b_field: RatMat | None = None, _period=None):
        dim = omega.nrows
        if dim % 2:
            raise ValueError("torus dimension must be even")
        _check_two_form(omega, dim, "omega")
        # the one elimination of omega: it finds omega degenerate or
        # inverts it, and the inverse is kept for omega_inv()
        try:
            self._omega_inv = omega.inv()
        except ZeroDivisionError:
            raise SingularModulus("omega is degenerate") from None
        if b_field is None:
            b_field = RatMat.zeros(dim, dim)
        _check_two_form(b_field, dim, "B-field")
        self.omega = omega
        self.b_field = b_field
        self.dim = dim
        self.n = dim // 2
        self._period = _period  # (re, im) when split

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_period(cls, tau_re: RatMat, tau_im: RatMat) -> "Torus":
        n = tau_re.nrows
        if tau_re.shape != (n, n) or tau_im.shape != (n, n):
            raise ValueError("period matrix blocks must be square, same size")
        return cls(_split_form(tau_im), _split_form(tau_re),
                   _period=(tau_re, tau_im))

    # -- split accessors -------------------------------------------------

    @property
    def is_split(self) -> bool:
        return self._period is not None

    def period(self) -> tuple[RatMat, RatMat]:
        """(Re tau, Im tau); raises NotSplit for a torus built from raw forms."""
        if self._period is None:
            raise NotSplit("torus was not constructed from a period matrix")
        return self._period

    # -- misc -------------------------------------------------------------

    def omega_inv(self) -> RatMat:
        """omega^{-1}, computed once when the torus is built."""
        return self._omega_inv

    def __repr__(self) -> str:
        return f"Torus(dim={self.dim}, split={self.is_split})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Torus)
            and self.omega == other.omega
            and self.b_field == other.b_field
        )

    def __hash__(self):
        return hash((self.omega, self.b_field))


def _split_form(m: RatMat) -> RatMat:
    """[[0, M], [-M^T, 0]] on the numerators of M: the same denominator,
    and the same entries up to sign, so the result is in normal form."""
    z = (0,) * m.nrows
    return RatMat._raw(
        tuple(z + r for r in m.num)
        + tuple(tuple(-x for x in c) + z for c in zip(*m.num)), m.den)


def _complex_inv(re: RatMat, im: RatMat) -> tuple[RatMat, RatMat]:
    """Exact inverse of the complex matrix re + i im, as a (re, im) pair."""
    n = re.nrows
    big = vstack(hstack(re, -im), hstack(im, re))
    try:
        binv = big.inv()
    except ZeroDivisionError:
        raise SingularModulus("complex matrix is singular") from None
    p = binv.submatrix(range(n), range(n))
    q = binv.submatrix(range(n, 2 * n), range(n))
    return p, q


def dual_torus(t: Torus) -> Torus:
    """The B-field twisted dual torus.

    On forms: omega* = -(omega + B omega^{-1} B)^{-1} and
    B* = (omega + B omega^{-1} B)^{-1} B omega^{-1}.  Applying the map twice
    returns the original torus.  When the composite omega + B omega^{-1} B
    is singular the dual does not exist (DualityAssumptionViolated).

    For a split torus this is the period map tau -> -(tau^T)^{-1}, and the
    result is split again.
    """
    w, b, winv = t.omega, t.b_field, t.omega_inv()
    m = w + b @ winv @ b
    try:
        minv = m.inv()
    except ZeroDivisionError:
        raise DualityAssumptionViolated(
            "omega + B omega^{-1} B is singular; twisted dual undefined"
        ) from None
    omega_star = -minv
    b_star = minv @ b @ winv
    period = None
    if t.is_split:
        re, im = t.period()
        p, q = _complex_inv(re.T, im.T)
        period = (-p, -q)
    out = Torus(omega_star, b_star, _period=period)
    if period is not None:
        # the block forms derived from the dual period must agree exactly
        check = Torus.from_period(*period)
        if check.omega != omega_star or check.b_field != b_star:
            raise DualityAssumptionViolated(
                "the dual period does not reproduce the dual forms")
    return out


@dataclass(frozen=True)
class DoubledTorus:
    """T x T^dual with its symplectic form, background 2-form and J."""

    base: Torus
    omega: RatMat
    sigma0: RatMat
    j_mat: RatMat
    sigma_sign: int = 1

    @property
    def dim(self) -> int:
        return 2 * self.base.dim

    @property
    def b_field(self) -> RatMat:
        return self.sigma0 if self.sigma_sign == 1 else -self.sigma0

    def flipped(self) -> "DoubledTorus":
        """Same torus with the sign of the background 2-form reversed."""
        return DoubledTorus(
            self.base, self.omega, self.sigma0, self.j_mat, -self.sigma_sign
        )


@lru_cache(maxsize=64)
def double_torus(t: Torus) -> DoubledTorus:
    # Closed-form blocks of (1/2) shear^T diag(omega, -omega^{-1}) shear and
    # shear^{-1} J0 shear with shear = [[I, 0], [-B, I]]; with P = omega^{-1}B
    # and Q = B P these are
    #   2 Omega = [[omega + Q, -P^T], [P, -omega^{-1}]]
    #   J       = [[-P, omega^{-1}], [-(omega + Q), P^T]]
    # for every torus, split or not (J^2 = -Id and J^T Omega J = Omega are
    # property-tested, not re-checked).  The blocks are assembled on integer
    # numerators over one denominator: P = pn / (di db), Q = qn / (di db^2)
    # for omega^{-1} = wi / di and B = bn / db.  J's block rows are those of
    # 2 Omega negated and swapped.
    dim = t.dim
    winv, b, w = t.omega_inv(), t.b_field, t.omega
    di, db = winv.den, b.den
    pn = int_matmul(winv.num, b.num)
    qn = int_matmul(b.num, pn)
    den = lcm(w.den, di * db * db)
    fw, fq, fp, fi = den // w.den, den // (di * db * db), den // (di * db), den // di
    top = tuple(tuple(fw * x + fq * y for x, y in zip(r, s))
                + tuple(-fp * x for x in c)
                for r, s, c in zip(w.num, qn, zip(*pn)))
    bottom = tuple(tuple(fp * x for x in r) + tuple(-fi * x for x in s)
                   for r, s in zip(pn, winv.num))
    omega = RatMat._make(top + bottom, 2 * den)
    j = RatMat._make(tuple(tuple(-x for x in r) for r in bottom + top), den)
    # sigma0 = 1/2 [[0, I], [-I, 0]] is in normal form over 2
    eye = RatMat.identity(dim).num
    zero = (0,) * dim
    sigma0 = RatMat._raw(tuple(zero + r for r in eye)
                         + tuple(tuple(-x for x in r) + zero for r in eye), 2)
    return DoubledTorus(t, omega, sigma0, j)


@dataclass(frozen=True)
class MirrorCoords:
    """Mirror description of the doubled torus: two period-(tau, -conj tau)
    factors with affine coordinate maps from brane/fiber data."""

    tau_re: RatMat
    tau_im: RatMat

    def u_coord(self, r, kappa, phi) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """u = tau^T (r - kappa) - phi, returned as (Re u, Im u)."""
        r, kappa, phi = ratvec(r), ratvec(kappa), ratvec(phi)
        d = tuple(a - b for a, b in zip(r, kappa))
        re = tuple(x - p for x, p in zip(self.tau_re.T @ d, phi))
        im = self.tau_im.T @ d
        return re, im

    def v_coord(self, kappa, theta_hat, phi) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """v = -conj(tau)^T kappa - theta_hat - phi, as (Re v, Im v)."""
        kappa, theta_hat, phi = ratvec(kappa), ratvec(theta_hat), ratvec(phi)
        re = tuple(
            -x - th - p
            for x, th, p in zip(self.tau_re.T @ kappa, theta_hat, phi)
        )
        im = self.tau_im.T @ kappa
        return re, im

    def point_with_v_zero(self, r, phi):
        """The (r, phi, theta_hat, kappa) sample with kappa = 0, v = 0."""
        phi = ratvec(phi)
        return (ratvec(r), phi, tuple(-p for p in phi), tuple(Fraction(0) for _ in phi))
