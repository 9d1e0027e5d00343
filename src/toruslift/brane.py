"""Linear branes: subtori with unitary connections and a sign structure.

A brane on a torus of real dimension 2N is stored as

* ``support``  -- integer 2N x d matrix whose columns generate a saturated
  rank-d sublattice (the tangent directions of the subtorus),
* ``offset``   -- a rational base point of the subtorus,
* ``conn_quad``-- rational d x d matrix N giving the connection 1-form
  ``2 pi i (t^T N dt + phi^T dt)`` in support coordinates t
  (a point of the subtorus is offset + support @ t),
* ``conn_flat``-- the flat part phi (rational d-vector, kept mod 1),
* ``xi_lin``   -- sign bits on the support generators.

The constructor puts the support in column Hermite form H and takes the
row Hermite form of H once: it must be [I; 0] (independent columns, a
saturated lattice), and its transform gives the unimodular completion C
with H^T C = [I | 0] kept as ``completion``.  ``coordinates``, the
validators, ``lift`` and ``floer.u_part_self`` all read C; none of them
runs a Smith form, an integer solve or a rank test against the support.

Past the two Hermite forms, the constructor and ``lift`` work on integer
numerators over one known denominator: the offset and the flat part are
canonicalised in one pass (one Fraction per output entry), the connection
is transported as V^T N V over N's denominator, and the lift's tangent
basis, connection and dual offset are assembled from the completion's
integer rows.  Sign bits must be exact integers 0 or 1 (an int, or a
Fraction or float of that value); anything else raises InvalidXi.

The curvature Gram F = N^T - N must have integer entries.  The sign
function on the whole support lattice is

    xi(m) = sum_{i<j} F_ij m_i m_j + xi_lin . m   (mod 2),

which satisfies xi(m+m') - xi(m) - xi(m') = F(m, m') mod 2 for every pair;
different admissible sign functions for the same F differ by a linear
functional mod 2, and flipping bits translates the lift of the brane by a
half-lattice covector.

Conventions (locked by the convention tests in tests/test_brane.py):

* transition over a lattice shift m:
      e_m(t) = (-1)^xi(m) exp(-2 pi i (m^T N t + 1/2 m^T N m)),
  so a graph brane over slope matrix D with N = -A/2 transports sections by
  (-1)^xi(m) e^{pi i <m, A r>}.
* holonomy of the straight loop with direction gamma based at t0:
      hol = (-1)^xi(gamma) exp(2 pi i (t0^T F gamma - phi . gamma)).
* the lift of a brane pairs each ambient dual coordinate x_hat against the
  support loops through x = offset + support @ t by
      support^T x_hat = xi_lin / 2 - phi + F^T t  (mod 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul

from .errors import InadmissibleD, InvalidBrane, InvalidXi
from .exact import (RatMat, _int_vec, exact_int, int_entries, int_matmul,
                    ratvec, vec_add, vec_dot, vstack)
from .lattice import column_hnf, row_hnf
from .torus import DoubledTorus, Torus, double_torus


def admissible_d(tau_re: RatMat, tau_im: RatMat, d: RatMat, *,
                 error=InadmissibleD, require_positive: bool = True,
                 with_products: bool = False):
    """Check a slope matrix against the modulus tau = tau_re + i tau_im and
    return the pairing form A = Re(tau)D - D^T Re(tau)^T; with
    ``with_products``, return (A, Im(tau) D, Re(tau) D), the products the
    check forms.

    Requirements: D integer and nonsingular, Im(tau) D symmetric (equal to
    D^T Im(tau)^T) and, unless ``require_positive`` is disabled, positive
    definite; A must be an integer matrix.  This is the one admissibility
    check of the package: graph branes, the product sums and theta specs
    all call it.  Raises ``error`` naming the first failed condition.
    """
    n = tau_im.nrows
    if d.shape != (n, n):
        raise error(f"slope matrix must be {n}x{n}, got {d.shape}")
    if tau_re.shape != (n, n) or tau_im.shape != (n, n):
        raise error(f"tau blocks must be {n}x{n}")
    if not d.is_integer():
        raise error("slope matrix must have integer entries")
    if d.det() == 0:
        raise error("slope matrix must be nonsingular")
    prod = tau_im @ d
    if prod != prod.T:
        raise error("Im(tau) D is not symmetric")
    if require_positive and not prod.is_positive_definite():
        raise error("Im(tau) D is not positive definite")
    rd = tau_re @ d
    a = _pairing(rd, error)
    return (a, prod, rd) if with_products else a


def pairing_form(tau_re: RatMat, d: RatMat, *, error=InadmissibleD) -> RatMat:
    """The pairing form A = Re(tau)D - D^T Re(tau)^T, checked integral:
    the last condition of :func:`admissible_d`, with its message."""
    return _pairing(tau_re @ d, error)


def _pairing(rd: RatMat, error) -> RatMat:
    a = rd - rd.T  # D^T Re(tau)^T is (Re(tau) D)^T
    if not a.is_integer():
        raise error("Re(tau) D - D^T Re(tau)^T is not an integer matrix")
    return a


def xi_bits(xi_lin, n: int, error=InvalidXi,
            where: str = "of length n") -> tuple:
    """Sign bits as n zeros and ones, all zeros for None or (); else raises
    ``error``, chosen by the caller as for :func:`admissible_d`."""
    bits = tuple(map(exact_int, xi_lin or ())) or (0,) * n
    if len(bits) != n or any(b not in (0, 1) for b in bits):
        raise error(f"xi_lin must be a 0/1 vector {where}")
    return bits


def _as_frac_vec(v, length, what):
    vec = ratvec(v)
    if len(vec) != length:
        raise ValueError(f"{what} must have length {length}, got {len(vec)}")
    return vec


def _as_int_vec(v, length, what):
    """:func:`_as_frac_vec` as (integer numerators, common denominator)."""
    vec, den = _int_vec(v)
    if len(vec) != length:
        raise ValueError(f"{what} must have length {length}, got {len(vec)}")
    return vec, den


def _curvature(nn, nd):
    """Integer rows of F = N^T - N for N = nn / nd, or None when F is not
    integral."""
    f = [[y - x for x, y in zip(r, c)] for r, c in zip(nn, zip(*nn))]
    if nd == 1:
        return f
    if any(x % nd for x in chain.from_iterable(f)):
        return None
    return [[x // nd for x in r] for r in f]


def _mod1(x: Fraction) -> Fraction:
    return Fraction(x.numerator % x.denominator, x.denominator)


class Brane:
    """A linear brane; the constructor canonicalizes the support basis.

    The support is rewritten in column Hermite normal form and the offset
    is reduced modulo 1 and modulo the support directions, so two branes
    with the same underlying subtorus compare equal on their supports.
    The connection data is transported along with the basis change.
    """

    def __init__(self, torus, support: RatMat, offset=None, conn_quad=None,
                 conn_flat=None, xi_lin=None):
        if not isinstance(torus, (Torus, DoubledTorus)):
            raise TypeError("torus must be a Torus or DoubledTorus")
        dim2 = torus.dim
        if support.nrows != dim2:
            raise ValueError(
                f"support must have {dim2} rows for this torus, got {support.nrows}"
            )
        d = support.ncols
        if d == 0 or d > dim2:
            raise InvalidBrane(f"support rank {d} is out of range 1..{dim2}")
        if not support.is_integer():
            raise InvalidBrane("support basis must have integer entries")
        # canonical basis H = support @ V (column Hermite form), then the
        # row Hermite form R = U @ H: a zero on R's diagonal means dependent
        # columns, an entry above 1 an unsaturated lattice; otherwise
        # R = [I; 0] and C = U^T is a unimodular completion, H^T C = [I | 0]
        hnf, v = column_hnf(support)
        r, u_rows = row_hnf(hnf)
        diag = [r.num[i][i] for i in range(d)]
        if 0 in diag:
            raise InvalidBrane("support basis columns are linearly dependent")
        if any(x != 1 for x in diag):
            raise InvalidBrane("support basis does not generate a saturated lattice")

        xn, xden = _as_int_vec(offset if offset is not None else [0] * dim2,
                               dim2, "offset")
        n_mat = conn_quad if conn_quad is not None else RatMat.zeros(d, d)
        if n_mat.shape != (d, d):
            raise ValueError(f"conn_quad must be {d}x{d}, got {n_mat.shape}")
        pn, pden = _as_int_vec(conn_flat if conn_flat is not None else [0] * d,
                               d, "conn_flat")
        bits = xi_bits(xi_lin, d, where="on the support generators")

        # N = nn / nd; the curvature F = N^T - N must be integral
        nn, nd = n_mat.num, n_mat.den
        f_rows = _curvature(nn, nd)
        if f_rows is None:
            raise InvalidBrane("curvature N^T - N is not integral on the lattice")

        # connection data transported to the canonical basis, on integer
        # numerators: N' = V^T N V over nd, F' = N'^T - N', phi' = V^T phi
        # over pden
        vt = tuple(zip(*v.num))
        n_new = int_matmul(vt, int_matmul(nn, v.num))
        f_new = _curvature(n_new, nd)
        bits_new = tuple(_xi_of(f_rows, bits, col) for col in vt)

        # canonical offset: reduce x mod 1 and slide by shift = C[:, :d]^T x
        # to C^T x = (0, C[:, d:]^T x), complete invariants mod 1.  Moving
        # the chart origin by -H @ shift re-bases phi -> phi - F @ shift
        # (forced by invariance of the holonomy of every lattice loop).
        # x = xn / xden, so shift = sn / xden; one Fraction per output entry.
        xn = [x % xden for x in xn]
        sn = [sum(map(mul, r, xn)) for r in u_rows.num[:d]]
        self.offset = tuple(Fraction((x - sum(map(mul, h, sn))) % xden, xden)
                            for x, h in zip(xn, hnf.num))
        # phi' - F' shift over lcm(pden, xden), reduced mod 1
        den = lcm(pden, xden)
        fp, fx = den // pden, den // xden
        self.conn_flat = tuple(
            Fraction((fp * sum(map(mul, c, pn)) - fx * sum(map(mul, f, sn)))
                     % den, den)
            for c, f in zip(vt, f_new))

        self.torus = torus
        self.support = hnf
        self.conn_quad = RatMat._make(n_new, nd)
        self.xi_lin = bits_new
        self.f_gram = RatMat._raw(tuple(map(tuple, f_new)), 1)
        self.completion = u_rows.T

    # -- basic structure ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self.support.ncols

    def coordinates(self, x: RatMat) -> RatMat | None:
        """Support coordinates M with ``support @ M == x``, or None when a
        column of x leaves the rational span of the support.  The first d
        columns of the completion, transposed, are a left inverse of the
        support, so this runs no elimination."""
        m = self._int_coordinates(x.num)
        return None if m is None else RatMat._make(m, x.den)

    def _int_coordinates(self, x):
        """:meth:`coordinates` on the integer numerators ``x`` of X: the
        numerators of M over X's denominator, or None."""
        m = int_matmul(tuple(zip(*self.completion.num))[:self.dim], x)
        return m if int_matmul(self.support.num, m) == x else None

    def __eq__(self, other):
        if not isinstance(other, Brane):
            return NotImplemented
        return (
            self.torus == other.torus
            and self.support == other.support
            and self.offset == other.offset
            and self.conn_quad == other.conn_quad
            and self.conn_flat == other.conn_flat
            and self.xi_lin == other.xi_lin
        )

    def __hash__(self):
        return hash((self.support, self.offset, self.conn_flat, self.xi_lin))

    def same_support(self, other: "Brane") -> bool:
        """Set equality of the underlying subtori (basis + offset are canonical)."""
        return (
            self.torus == other.torus
            and self.support == other.support
            and self.offset == other.offset
        )

    def __repr__(self):
        return (f"Brane(dim={self.dim}, support={self.support!r}, "
                f"offset={self.offset!r})")

    # -- sign structure and holonomy ----------------------------------------

    def xi_value(self, m) -> int:
        return _xi_of(self.f_gram.to_int_rows(), self.xi_lin,
                      int_entries(m, "lattice vector"))

    def transition_turns(self, m, t) -> Fraction:
        """Exact phase (in turns, mod 1) of the transition over lattice shift m
        at support coordinate t; the unit-modulus transition value is
        (-1)^xi(m) exp(-2 pi i (m^T N t + m^T N m / 2))."""
        m = ratvec(m)
        t = ratvec(t)
        quad = vec_dot(m, self.conn_quad @ t) + Fraction(1, 2) * vec_dot(
            m, self.conn_quad @ m
        )
        return _mod1(Fraction(self.xi_value(m), 2) - quad)

    def holonomy_turns(self, gamma, base=None) -> Fraction:
        """Exact holonomy phase (turns, mod 1) of the straight lattice loop
        gamma based at support coordinate ``base`` (default 0, which is the
        chart origin, i.e. the offset point)."""
        gamma = ratvec(gamma)
        base = ratvec(base) if base is not None else tuple(
            Fraction(0) for _ in range(self.dim)
        )
        lin = vec_dot(base, self.f_gram @ gamma) - vec_dot(self.conn_flat, gamma)
        return _mod1(Fraction(self.xi_value(gamma), 2) + lin)

    def holonomy(self, gamma, base=None) -> complex:
        import cmath

        return cmath.exp(2j * cmath.pi * float(self.holonomy_turns(gamma, base)))


def _xi_of(f_rows, bits, m) -> int:
    """xi(m) for the integer curvature rows ``f_rows`` and sign bits."""
    nz = [i for i, x in enumerate(m) if x]
    quad = 0
    for a, i in enumerate(nz):
        fi, mi = f_rows[i], m[i]
        for j in nz[a + 1:]:
            quad += fi[j] * mi * m[j]
    lin = sum(bits[i] * m[i] for i in nz)
    return (quad + lin) % 2


# -- constructors ------------------------------------------------------------


def graph_brane(torus: Torus, d_mat: RatMat, xi_lin=None, phi=None) -> Brane:
    """Brane supported on {theta = -D r} with the curvature matching the
    restricted background 2-form; requires an admissible slope matrix."""
    a = admissible_d(*torus.period(), d_mat)
    # support [I; -D] on the integer rows of D (admissible_d checked them)
    support = RatMat._raw(RatMat.identity(d_mat.nrows).num
                          + tuple(tuple(-x for x in r) for r in d_mat.num), 1)
    conn_quad = Fraction(-1, 2) * a
    return Brane(torus, support, conn_quad=conn_quad, conn_flat=phi, xi_lin=xi_lin)


def zero_section_brane(torus: Torus, phi=None, xi_lin=None) -> Brane:
    """The brane supported on {theta = 0}, the graph brane of slope zero,
    with flat connection ``phi`` and sign bits ``xi_lin`` on its support
    generators (both trivial by default)."""
    if not torus.is_split:
        raise InvalidBrane("the zero section needs a split torus")
    n = torus.dim // 2
    support = vstack(RatMat.identity(n), RatMat.zeros(n, n))
    return Brane(torus, support, conn_flat=phi, xi_lin=xi_lin)


def fiber_brane(torus: Torus, position, phi=None) -> Brane:
    """Brane supported on a fiber {r = position} x T_theta with a flat
    connection 2 pi i phi . d theta."""
    if not torus.is_split:
        raise InvalidBrane("fiber branes need a split torus")
    n = torus.dim // 2
    support = vstack(RatMat.zeros(n, n), RatMat.identity(n))
    position = _as_frac_vec(position, n, "position")
    offset = position + tuple(Fraction(0) for _ in range(n))
    return Brane(torus, support, offset=offset, conn_flat=phi)


def full_torus_brane(torus, conn_quad: RatMat, phi=None, xi_lin=None,
                     offset=None) -> Brane:
    """Space-filling brane with a given connection matrix."""
    support = RatMat.identity(torus.dim)
    return Brane(torus, support, offset=offset, conn_quad=conn_quad,
                 conn_flat=phi, xi_lin=xi_lin)


# -- validation --------------------------------------------------------------


@dataclass(frozen=True)
class BraneReport:
    passed: bool
    failures: tuple

    def __bool__(self):
        return self.passed


def _report(failures) -> BraneReport:
    return BraneReport(not failures, tuple(failures))


def _restricted(u: RatMat, g: RatMat):
    """Numerators of the restriction U^T G U of a form G to the integer
    support U, over G's denominator."""
    return int_matmul(int_matmul(tuple(zip(*u.num)), g.num), u.num)


def validate_lagrangian(brane: Brane) -> BraneReport:
    """Exact check: middle dimension, vanishing restricted symplectic form,
    curvature opposite to the restricted background 2-form."""
    torus = brane.torus
    u = brane.support
    failures = []
    if brane.dim * 2 != torus.dim:
        failures.append(
            f"dimension {brane.dim} is not half the torus dimension {torus.dim}"
        )
    if any(map(any, _restricted(u, torus.omega))):
        failures.append("symplectic form does not vanish on the support")
    # -U^T B U = F with F integral: the numerators over B's denominator
    # are -den F
    b = torus.b_field
    if any(x != -b.den * y for r, fr in zip(_restricted(u, b), brane.f_gram.num)
           for x, y in zip(r, fr)):
        failures.append(
            "curvature does not equal the negated restriction of the B-field"
        )
    return _report(failures)


def validate_coisotropic(brane: Brane) -> BraneReport:
    """Exact check that the brane is coisotropic with compatible curvature.

    The support must contain its own symplectic complement.  Then, with G
    the restricted symplectic Gram and H = F + B restricted: (1) H vanishes
    on the null directions of G, and (2) the square condition G + c^T H = 0
    where c expresses the transverse endomorphism in support coordinates;
    the endomorphism must also preserve the support.
    """
    torus = brane.torus
    u = brane.support
    failures = []
    # coisotropy proper: the symplectic complement of the support, spanned
    # by omega^{-1} applied to the annihilator C[:, d:] of the support, must
    # be tangent to it
    ann = brane.completion.submatrix(range(torus.dim), range(brane.dim, torus.dim))
    omega_inv = torus.omega_inv()
    if ann.ncols and brane.coordinates(omega_inv @ ann) is None:
        failures.append("symplectic complement of the support is not tangent to it")
    g = u.T @ torus.omega @ u
    h = brane.f_gram + u.T @ torus.b_field @ u
    iso = g.kernel()  # columns: null directions of the restricted form
    if iso.ncols and not (iso.T @ h).is_zero():
        failures.append("F + B does not vanish on the isotropic directions")
    # transverse square: the endomorphism's ambient image must stay tangent
    # to the support; its support coordinates c enter the square condition
    e_amb = u @ (u.T @ u).inv() @ h.T
    c = brane.coordinates(-(omega_inv @ e_amb))
    if c is None:
        failures.append("transverse endomorphism does not preserve the support")
    elif not (g + c.T @ h).is_zero():
        failures.append("transverse square condition fails on the support")
    return _report(failures)


# -- lifting -----------------------------------------------------------------


def lift(brane: Brane) -> Brane:
    """Lift a validated brane to the doubled torus.

    The support tangent consists of pairs (u, f) with u tangent to the brane
    and f pairing against support vectors through the curvature; the dual
    offset solves the holonomy-matching equation on the generators.  The
    connection is pulled back along the projection to the base torus.
    """
    torus = brane.torus
    if not isinstance(torus, Torus):
        raise InvalidBrane("only branes on a base torus can be lifted")
    # a Lagrangian brane is coisotropic; check that only when it is not
    lag = validate_lagrangian(brane)
    if not lag.passed:
        coi = validate_coisotropic(brane)
        if not coi.passed:
            raise InvalidBrane(
                "brane passes neither validation; lagrangian: "
                + "; ".join(lag.failures)
                + " / coisotropic: "
                + "; ".join(coi.failures)
            )
    doubled = double_torus(torus)
    u = brane.support.num
    dim2 = torus.dim
    d = brane.dim
    f = brane.f_gram.num

    # Tangent lattice of the lift: {(U m, b) : U^T b = F^T m} plus the dual
    # directions annihilating the support U.  The brane's completion C has
    # U^T C = [I | 0], so C[:, :d] gives integral particular solutions and
    # C[:, d:] is a basis of the annihilator: the block basis generates the
    # full lattice.  U, C and F are integer matrices: W = [[U, 0], [B, C[:, d:]]]
    # is built on their numerators, with B = C[:, :d] F^T.
    c = brane.completion.num
    c_left = [r[:d] for r in c]
    f_t = tuple(zip(*f))
    bmat = int_matmul(c_left, f_t)
    u_t = tuple(zip(*u))
    if int_matmul(u_t, bmat) != f_t:
        raise InvalidBrane("lifted tangent block B does not solve U^T B = F^T")
    k = dim2 - d
    zero_k = (0,) * k
    w = RatMat._raw(tuple(r + zero_k for r in u)
                    + tuple(b + r[d:] for b, r in zip(bmat, c)), 1)

    # dual offset x_hat = C[:, :d] rho, rho = xi/2 - phi = rn / rden
    pn, pden = _int_vec(brane.conn_flat)
    rden = lcm(2, pden)
    rn = [bit * (rden // 2) - x * (rden // pden)
          for bit, x in zip(brane.xi_lin, pn)]
    xhat = [sum(map(mul, r, rn)) for r in c_left]
    if [sum(map(mul, col, xhat)) for col in u_t] != rn:
        raise InvalidBrane("dual offset does not solve U^T x_hat = rho")
    offset = brane.offset + tuple(Fraction(x, rden) for x in xhat)

    # the projection of the lift tangent onto the brane support is [I | 0]
    # in this basis, so the connection data extends by zero on the kernel.
    nq = brane.conn_quad
    n_lift = RatMat._raw(tuple(r + zero_k for r in nq.num)
                         + ((0,) * dim2,) * k, nq.den)
    phi_lift = brane.conn_flat + (Fraction(0),) * k
    xi_lift = brane.xi_lin + (0,) * k
    lifted = Brane(doubled, w, offset=offset, conn_quad=n_lift,
                   conn_flat=phi_lift, xi_lin=xi_lift)
    # pulled-back curvature must agree with the brane condition in the
    # double: the background form is s sigma0 with sigma0 = 1/2 [[0, I],
    # [-I, 0]], so W^T sigma0 W = 1/2 (M - M^T) with M = W_x^T W_xhat, and
    # F = -s W^T sigma0 W reads 2 F = s (M^T - M) on integers
    ws = lifted.support.num
    m = int_matmul(tuple(zip(*ws[:dim2])), ws[dim2:])
    sign = doubled.sigma_sign
    if any(2 * x != sign * (b - a)
           for fr, r, mc in zip(lifted.f_gram.num, m, zip(*m))
           for x, a, b in zip(fr, r, mc)):
        raise InvalidBrane(
            "lifted curvature does not match the doubled background form")
    return lifted


def verify_lift_lagrangian(lifted: Brane) -> bool:
    """True iff the lift has half dimension and the doubled symplectic form
    restricts to exactly zero on it."""
    torus = lifted.torus
    if not isinstance(torus, DoubledTorus):
        raise TypeError("expected a brane on a doubled torus")
    if 2 * lifted.dim != torus.dim:
        return False
    return not any(map(any, _restricted(lifted.support, torus.omega)))


def verify_lift_complex(lifted: Brane) -> bool:
    """True iff the doubled complex structure maps the lift tangent space
    onto itself (exact span test on the support coordinates)."""
    torus = lifted.torus
    if not isinstance(torus, DoubledTorus):
        raise TypeError("expected a brane on a doubled torus")
    # the span test reads only numerators: J W over J's denominator
    return lifted._int_coordinates(
        int_matmul(torus.j_mat.num, lifted.support.num)) is not None


# -- the B-twist -------------------------------------------------------------


def twist_brane(lifted: Brane) -> Brane:
    """Tensor the connection with the canonical connection whose curvature is
    twice the pairing 2-form; the result lives on the doubled torus with the
    background 2-form sign reversed.  Twisting twice shifts the curvature by
    four times the restricted pairing form (the square is not the identity).
    """
    torus = lifted.torus
    if not isinstance(torus, DoubledTorus):
        raise InvalidBrane("the twist acts on branes on a doubled torus")
    half = torus.dim // 2
    w = lifted.support
    w_x = w.submatrix(range(half), range(w.ncols))
    w_hat = w.submatrix(range(half, torus.dim), range(w.ncols))
    o_x = lifted.offset[:half]
    n_new = lifted.conn_quad - w_x.T @ w_hat
    phi_new = vec_add(lifted.conn_flat, tuple(-x for x in (w_hat.T @ o_x)))
    return Brane(
        torus.flipped(),
        w,
        offset=lifted.offset,
        conn_quad=n_new,
        conn_flat=phi_new,
        xi_lin=lifted.xi_lin,
    )


# -- worked example ----------------------------------------------------------


def t4_space_filling_brane() -> Brane:
    """The standard four-torus space-filling brane with connection
    d + 2 pi i (r1 d theta2 - r2 d theta1)."""
    torus = Torus.from_period(RatMat.zeros(2, 2), RatMat.identity(2))
    n_mat = RatMat([
        [0, 0, 0, 1],
        [0, 0, -1, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ])
    return full_torus_brane(torus, n_mat)
