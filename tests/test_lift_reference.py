"""The integer lift path against reference copies of its RatMat formulation.

The torus forms, omega^{-1}, ``double_torus``, the brane constructor,
``lift`` and the validators it runs are computed on integer numerators over
one known denominator.  The copies below compute the same objects the way
the package computed them before, with RatMat block algebra (``hstack`` and
``vstack`` temporaries, products that normalise every intermediate, one
Fraction per intermediate vector entry) and the Hermite forms they ran on.
Each test builds an object both ways and asserts equal values with
identical ``(num, den)`` normal forms, or the same error class and message.
"""

import random
from fractions import Fraction

import pytest

import branefamilies
from branefamilies import graph_slopes
from toruslift.brane import (
    Brane,
    admissible_d,
    fiber_brane,
    full_torus_brane,
    graph_brane,
    lift,
    validate_coisotropic,
    validate_lagrangian,
    verify_lift_complex,
    verify_lift_lagrangian,
)
from toruslift.errors import (
    DualityAssumptionViolated,
    InvalidBrane,
    InvalidXi,
    SingularModulus,
)
from toruslift.exact import RatMat, hstack, int_matmul, ratvec, vec_sub, vstack
from toruslift.lattice import column_hnf, row_hnf
from toruslift.torus import (
    DoubledTorus,
    Torus,
    _complex_inv,
    double_torus,
    dual_torus,
)

DENS = (1, 2, 3, 5, 7, 12, 64, 1000, 3 ** 7, 2 ** 19 + 1, 2 ** 20)


# --- reference copies -------------------------------------------------------------


def ref_row_hnf(m):
    a = m.to_int_rows()
    nr, nc = len(a), len(a[0]) if a else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def addmul(dst, src, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    row = 0
    for col in range(nc):
        if row == nr:
            break
        while True:
            nz = [i for i in range(row, nr) if a[i][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: (abs(a[i][col]), i))
            if piv != row:
                swap(row, piv)
            done = True
            for i in range(row + 1, nr):
                if a[i][col] != 0:
                    q = -(a[i][col] // a[row][col])
                    addmul(i, row, q)
                    if a[i][col] != 0:
                        done = False
            if done:
                break
        if row < nr and a[row][col] != 0:
            if a[row][col] < 0:
                negate(row)
            for i in range(row):
                q = -(a[i][col] // a[row][col])
                if q:
                    addmul(i, row, q)
            row += 1
    return RatMat(a), RatMat(u)


def ref_column_hnf(m):
    if not m.ncols:
        return m, RatMat.identity(0)
    h_t, u = ref_row_hnf(m.T)
    return h_t.T, u.T


def ref_check_two_form(g, dim, what):
    if g.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got {g.shape}")
    if not (g.is_square() and g == -g.T):
        raise ValueError(f"{what} must be antisymmetric")


def ref_torus_forms(omega, b_field=None):
    """The checks of the torus constructor; returns (omega, B, omega^-1)."""
    dim = omega.nrows
    if dim % 2:
        raise ValueError("torus dimension must be even")
    ref_check_two_form(omega, dim, "omega")
    if omega.det() == 0:
        raise SingularModulus("omega is degenerate")
    if b_field is None:
        b_field = RatMat.zeros(dim, dim)
    ref_check_two_form(b_field, dim, "B-field")
    return omega, b_field, omega.inv()


def ref_from_period(tau_re, tau_im):
    n = tau_re.nrows
    if tau_re.shape != (n, n) or tau_im.shape != (n, n):
        raise ValueError("period matrix blocks must be square, same size")
    z = RatMat.zeros(n, n)
    omega = vstack(hstack(z, tau_im), hstack(-tau_im.T, z))
    b = vstack(hstack(z, tau_re), hstack(-tau_re.T, z))
    return ref_torus_forms(omega, b)


def ref_double_torus(t):
    dim = t.dim
    eye = RatMat.identity(dim)
    winv = t.omega.inv()
    p = winv @ t.b_field
    q = t.b_field @ p
    half = Fraction(1, 2)
    omega = half * vstack(hstack(t.omega + q, -p.T), hstack(p, -winv))
    j = vstack(hstack(-p, winv), hstack(-(t.omega + q), p.T))
    sigma0 = half * vstack(
        hstack(RatMat.zeros(dim, dim), eye), hstack(-eye, RatMat.zeros(dim, dim)))
    return DoubledTorus(t, omega, sigma0, j)


def ref_dual_torus(t):
    w, b = t.omega, t.b_field
    m = w + b @ w.inv() @ b
    if m.det() == 0:
        raise DualityAssumptionViolated(
            "omega + B omega^{-1} B is singular; twisted dual undefined")
    minv = m.inv()
    omega_star, b_star = -minv, minv @ b @ w.inv()
    ref_torus_forms(omega_star, b_star)
    if t.is_split:
        re, im = t.period()
        p, q = _complex_inv(re.T, im.T)
        check = ref_from_period(-p, -q)
        if check[0] != omega_star or check[1] != b_star:
            raise DualityAssumptionViolated(
                "the dual period does not reproduce the dual forms")
    return omega_star, b_star


def ref_mod1(x):
    return Fraction(x.numerator % x.denominator, x.denominator)


def ref_frac_vec(v, length, what):
    vec = ratvec(v)
    if len(vec) != length:
        raise ValueError(f"{what} must have length {length}, got {len(vec)}")
    return vec


def ref_xi_of(f_rows, bits, m):
    d = len(m)
    quad = 0
    for i in range(d):
        for j in range(i + 1, d):
            quad += f_rows[i][j] * m[i] * m[j]
    return (quad + sum(b * mi for b, mi in zip(bits, m))) % 2


class RefBrane:
    def __init__(self, torus, support, offset=None, conn_quad=None,
                 conn_flat=None, xi_lin=None):
        if not isinstance(torus, (Torus, DoubledTorus)):
            raise TypeError("torus must be a Torus or DoubledTorus")
        dim2 = torus.dim
        if support.nrows != dim2:
            raise ValueError(
                f"support must have {dim2} rows for this torus, got {support.nrows}")
        d = support.ncols
        if d == 0 or d > dim2:
            raise InvalidBrane(f"support rank {d} is out of range 1..{dim2}")
        if not support.is_integer():
            raise InvalidBrane("support basis must have integer entries")
        hnf, v = ref_column_hnf(support)
        r, u_rows = ref_row_hnf(hnf)
        diag = [r.num[i][i] for i in range(d)]
        if 0 in diag:
            raise InvalidBrane("support basis columns are linearly dependent")
        if any(x != 1 for x in diag):
            raise InvalidBrane("support basis does not generate a saturated lattice")
        offset = ref_frac_vec(offset if offset is not None else [0] * dim2,
                              dim2, "offset")
        n_mat = conn_quad if conn_quad is not None else RatMat.zeros(d, d)
        if n_mat.shape != (d, d):
            raise ValueError(f"conn_quad must be {d}x{d}, got {n_mat.shape}")
        phi = ref_frac_vec(conn_flat if conn_flat is not None else [0] * d,
                           d, "conn_flat")
        bits = tuple(int(b) for b in xi_lin or ()) or (0,) * d
        if len(bits) != d or any(b not in (0, 1) for b in bits):
            raise InvalidXi("xi_lin must be a 0/1 vector on the support generators")
        f_old = n_mat.T - n_mat
        if not f_old.is_integer():
            raise InvalidBrane("curvature N^T - N is not integral on the lattice")
        n_new = v.T @ n_mat @ v
        phi_new = v.T @ phi
        f_rows = f_old.to_int_rows()
        bits_new = tuple(ref_xi_of(f_rows, bits, col) for col in v.T.num)
        f_new = n_new.T - n_new
        off = tuple(ref_mod1(x) for x in offset)
        shift = u_rows.submatrix(range(d), range(dim2)) @ off
        off = tuple(ref_mod1(x - m) for x, m in zip(off, hnf @ shift))
        phi_new = vec_sub(phi_new, f_new @ shift)
        self.torus = torus
        self.support = hnf
        self.offset = off
        self.conn_quad = n_new
        self.conn_flat = tuple(ref_mod1(x) for x in phi_new)
        self.xi_lin = bits_new
        self.f_gram = f_new
        self.completion = u_rows.T

    @property
    def dim(self):
        return self.support.ncols

    def coordinates(self, x):
        c = self.completion
        m = c.submatrix(range(c.nrows), range(self.dim)).T @ x
        return m if self.support @ m == x else None


def ref_validate_lagrangian(brane):
    torus, u, failures = brane.torus, brane.support, []
    if brane.dim * 2 != torus.dim:
        failures.append(
            f"dimension {brane.dim} is not half the torus dimension {torus.dim}")
    if not (u.T @ torus.omega @ u).is_zero():
        failures.append("symplectic form does not vanish on the support")
    if brane.f_gram != -(u.T @ torus.b_field @ u):
        failures.append(
            "curvature does not equal the negated restriction of the B-field")
    return failures


def ref_validate_coisotropic(brane):
    torus, u, failures = brane.torus, brane.support, []
    ann = brane.completion.submatrix(range(torus.dim), range(brane.dim, torus.dim))
    omega_inv = torus.omega.inv()
    if ann.ncols and brane.coordinates(omega_inv @ ann) is None:
        failures.append("symplectic complement of the support is not tangent to it")
    g = u.T @ torus.omega @ u
    h = brane.f_gram + u.T @ torus.b_field @ u
    iso = g.kernel()
    if iso.ncols and not (iso.T @ h).is_zero():
        failures.append("F + B does not vanish on the isotropic directions")
    e_amb = u @ (u.T @ u).inv() @ h.T
    c = brane.coordinates(-(omega_inv @ e_amb))
    if c is None:
        failures.append("transverse endomorphism does not preserve the support")
    elif not (g + c.T @ h).is_zero():
        failures.append("transverse square condition fails on the support")
    return failures


def ref_lift(brane):
    torus = brane.torus
    if not isinstance(torus, Torus):
        raise InvalidBrane("only branes on a base torus can be lifted")
    lag = ref_validate_lagrangian(brane)
    if lag:
        coi = ref_validate_coisotropic(brane)
        if coi:
            raise InvalidBrane(
                "brane passes neither validation; lagrangian: " + "; ".join(lag)
                + " / coisotropic: " + "; ".join(coi))
    doubled = ref_double_torus(torus)
    u, dim2, d, f = brane.support, torus.dim, brane.dim, brane.f_gram
    c = brane.completion
    c_left = c.submatrix(range(dim2), range(d))
    kernel = c.submatrix(range(dim2), range(d, dim2))
    bmat = c_left @ f.T
    if u.T @ bmat != f.T:
        raise InvalidBrane("lifted tangent block B does not solve U^T B = F^T")
    w = vstack(hstack(u, RatMat.zeros(dim2, kernel.ncols)), hstack(bmat, kernel))
    rho = tuple(Fraction(bit, 2) - ph
                for bit, ph in zip(brane.xi_lin, brane.conn_flat))
    xhat = c_left @ rho
    if u.T @ xhat != rho:
        raise InvalidBrane("dual offset does not solve U^T x_hat = rho")
    k = kernel.ncols
    n_lift = hstack(brane.conn_quad, RatMat.zeros(d, k))
    if k:
        n_lift = vstack(n_lift, RatMat.zeros(k, d + k))
    lifted = RefBrane(doubled, w, offset=brane.offset + tuple(xhat),
                      conn_quad=n_lift,
                      conn_flat=brane.conn_flat + (Fraction(0),) * k,
                      xi_lin=brane.xi_lin + (0,) * k)
    if lifted.f_gram != -(lifted.support.T @ doubled.b_field @ lifted.support):
        raise InvalidBrane("lifted curvature does not match the doubled background form")
    return lifted


def ref_verify_lift_lagrangian(lifted):
    w = lifted.support
    return 2 * lifted.dim == lifted.torus.dim and (w.T @ lifted.torus.omega @ w).is_zero()


def ref_verify_lift_complex(lifted):
    return lifted.coordinates(lifted.torus.j_mat @ lifted.support) is not None


# --- comparisons ------------------------------------------------------------------


def same_mat(a, b):
    assert a == b
    assert (a.num, a.den) == (b.num, b.den)


def same_vec(a, b):
    assert a == b
    assert all(type(x) is type(y) for x, y in zip(a, b))


def assert_same_double(new, ref):
    for name in ("omega", "sigma0", "j_mat"):
        same_mat(getattr(new, name), getattr(ref, name))
    assert new.base == ref.base
    assert new.sigma_sign == ref.sigma_sign


def assert_same_brane(new, ref):
    for name in ("support", "completion", "f_gram", "conn_quad"):
        same_mat(getattr(new, name), getattr(ref, name))
    for name in ("offset", "conn_flat", "xi_lin"):
        same_vec(getattr(new, name), getattr(ref, name))
    if isinstance(new.torus, DoubledTorus):
        assert_same_double(new.torus, ref.torus)
    else:
        assert new.torus is ref.torus


def assert_same_torus(new, omega, b_field, omega_inv):
    same_mat(new.omega, omega)
    same_mat(new.b_field, b_field)
    same_mat(new.omega_inv(), omega_inv)


def check_brane(torus, support, **kwargs):
    """Build, validate and lift one brane both ways; returns the new brane."""
    new, ref = Brane(torus, support, **kwargs), RefBrane(torus, support, **kwargs)
    assert_same_brane(new, ref)
    assert validate_lagrangian(new).failures == tuple(ref_validate_lagrangian(ref))
    assert validate_coisotropic(new).failures == tuple(ref_validate_coisotropic(ref))
    assert_same_double(double_torus(torus), ref_double_torus(torus))
    new_lift, ref_lifted = lift(new), ref_lift(ref)
    assert_same_brane(new_lift, ref_lifted)
    assert verify_lift_lagrangian(new_lift) is ref_verify_lift_lagrangian(ref_lifted)
    assert verify_lift_complex(new_lift) is ref_verify_lift_complex(ref_lifted)
    assert verify_lift_lagrangian(new_lift) and verify_lift_complex(new_lift)
    return new


def rand_frac(rng, lo=-2, hi=2):
    den = rng.choice(DENS)
    return Fraction(rng.randint(lo * den, hi * den), den)


def graph_inputs(rng, torus, d_mat):
    """graph_brane's Brane arguments, as it built them with RatMat blocks."""
    n = d_mat.nrows
    a = admissible_d(*torus.period(), d_mat)
    support = vstack(RatMat.identity(n), -d_mat)
    phi = tuple(rand_frac(rng) for _ in range(n))
    xi = tuple(rng.randint(0, 1) for _ in range(n))
    return support, dict(conn_quad=Fraction(-1, 2) * a, conn_flat=phi,
                         xi_lin=xi)


def check_graph(rng, torus, d_mat):
    support, kwargs = graph_inputs(rng, torus, d_mat)
    new = check_brane(torus, support, **kwargs)
    assert_same_brane(graph_brane(torus, d_mat, xi_lin=kwargs["xi_lin"],
                                  phi=kwargs["conn_flat"]), new)


def admissible_modulus(rng, n):
    """(tau_re, tau_im, D) with Re(tau) != 0: Im(tau) D = S symmetric
    positive definite and Re(tau) D = M with M - M^T integral."""
    while True:
        d_mat = RatMat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if d_mat.det() != 0:
            break
    low = RatMat([[rng.randint(-2, 2) if j < i else rng.randint(1, 3) * (i == j)
                   for j in range(n)] for i in range(n)])
    s_mat = (low @ low.T) * Fraction(rng.randint(1, 9), rng.choice(DENS))
    sym = [[Fraction(rng.randint(-9, 9), rng.choice(DENS)) for _ in range(n)]
           for _ in range(n)]
    m_mat = RatMat([[sym[min(i, j)][max(i, j)] + rng.randint(-2, 2)
                     for j in range(n)] for i in range(n)])
    if m_mat.is_zero():
        m_mat = RatMat.identity(n) * Fraction(1, 3)
    d_inv = d_mat.inv()
    return m_mat @ d_inv, s_mat @ d_inv, d_mat


# --- equivalence ------------------------------------------------------------------


def test_int_matmul_is_the_matrix_product():
    rng = random.Random(3)
    for _ in range(300):
        r, k, c = rng.randint(1, 8), rng.randint(0, 8), rng.randint(1, 8)
        a = [[rng.choice((0, 0, 1, -1, rng.randint(-50, 50))) for _ in range(k)]
             for _ in range(r)]
        b = [[rng.choice((0, 0, 1, -1, rng.randint(-50, 50))) for _ in range(c)]
             for _ in range(k)]
        want = tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k))
                           for j in range(c)) for i in range(r))
        got = int_matmul(tuple(map(tuple, a)), tuple(map(tuple, b)))
        assert got == (want if k else tuple(() for _ in range(r)))


def test_hermite_forms_match_the_reference():
    rng = random.Random(11)
    for _ in range(2000):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        m = RatMat([[rng.randint(-6, 6) if rng.random() < 0.5 else 0
                     for _ in range(c)] for _ in range(r)])
        for new, ref in ((row_hnf(m), ref_row_hnf(m)),
                         (column_hnf(m), ref_column_hnf(m))):
            for x, y in zip(new, ref):
                same_mat(x, y)


def test_every_graph_slope_on_an_imaginary_modulus():
    # all 2,112 nonsingular 2 x 2 slopes with |entries| <= 3 on tau = i D^T,
    # and the n = 1 slopes
    rng = random.Random(2024)
    slopes = graph_slopes(1, 3) + graph_slopes(2, 3)
    assert len(slopes) == 6 + 2112
    for d_mat in slopes:
        n = d_mat.nrows
        tau = (RatMat.zeros(n, n), d_mat.T)
        torus = Torus.from_period(*tau)
        assert_same_torus(torus, *ref_from_period(*tau))
        check_graph(rng, torus, d_mat)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_graph_branes_with_a_real_part(n):
    rng = random.Random(40 + n)
    for _ in range(30):
        tau_re, tau_im, d_mat = admissible_modulus(rng, n)
        assert not tau_re.is_zero()
        torus = Torus.from_period(tau_re, tau_im)
        assert_same_torus(torus, *ref_from_period(tau_re, tau_im))
        check_graph(rng, torus, d_mat)


def family_inputs(make, count, seed):
    """The Brane arguments of ``count`` members of a branefamilies family."""
    rng, calls = random.Random(seed), []
    real = branefamilies.Brane
    branefamilies.Brane = lambda *args, **kwargs: calls.append((args, kwargs))
    try:
        for _ in range(count):
            make(rng)
    finally:
        branefamilies.Brane = real
    return calls


@pytest.mark.parametrize("make, count", [(branefamilies.t4_brane, 60),
                                         (branefamilies.t6_brane, 45)])
def test_coisotropic_families(make, count):
    for args, kwargs in family_inputs(make, count, seed=4):
        new = check_brane(*args, **kwargs)
        assert validate_coisotropic(new)


def test_coisotropic_branes_with_large_denominators():
    rng = random.Random(8)
    torus = Torus.from_period(RatMat.zeros(2, 2), RatMat.identity(2))
    for args, kwargs in family_inputs(branefamilies.t4_brane, 20, seed=9):
        kwargs["offset"] = [rand_frac(rng, -3, 3) for _ in range(4)]
        kwargs["conn_flat"] = [rand_frac(rng, -3, 3) for _ in range(4)]
        check_brane(torus, *args[1:], **kwargs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fiber_branes(n):
    rng = random.Random(70 + n)
    for _ in range(20):
        tau_re, tau_im, _ = admissible_modulus(rng, n)
        torus = Torus.from_period(tau_re, tau_im)
        position = [rand_frac(rng) for _ in range(n)]
        phi = [rand_frac(rng) for _ in range(n)]
        support = vstack(RatMat.zeros(n, n), RatMat.identity(n))
        new = check_brane(torus, support,
                          offset=tuple(position) + (Fraction(0),) * n,
                          conn_flat=phi)
        assert_same_brane(fiber_brane(torus, position, phi=phi), new)


def unimodular(rng, dim):
    s = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(3 * dim):
        i, j = rng.sample(range(dim), 2)
        q = rng.randint(-2, 2)
        s[i] = [x + q * y for x, y in zip(s[i], s[j])]
    return RatMat(s)


def non_split_lagrangian(rng, n):
    """A torus built from raw forms, with B != 0, and the Brane arguments of
    a Lagrangian brane on it: omega = c S^T omega0 S, B = S^T B0 S with an
    integer top-left block X of B0, support S^{-1}[I; 0] and N = X/2 + a
    symmetric part, so that F = N^T - N = -U^T B U."""
    s = unimodular(rng, 2 * n)
    eye, zero = RatMat.identity(n), RatMat.zeros(n, n)
    omega0 = vstack(hstack(zero, eye), hstack(-eye, zero))
    omega = (s.T @ omega0 @ s) * Fraction(rng.randint(1, 9), rng.choice(DENS))
    x = RatMat([[0] * n for _ in range(n)])
    y = RatMat([[rand_frac(rng) for _ in range(n)] for _ in range(n)])
    if y.is_zero():
        y = RatMat.identity(n) * Fraction(1, 3)
    z = RatMat([[0] * n for _ in range(n)])
    if n > 1:
        up = [[rng.randint(-3, 3) if j > i else 0 for j in range(n)]
              for i in range(n)]
        x = RatMat(up) - RatMat(up).T
        zu = [[rand_frac(rng) if j > i else 0 for j in range(n)] for i in range(n)]
        z = RatMat(zu) - RatMat(zu).T
    b0 = vstack(hstack(x, y), hstack(-y.T, z))
    torus = Torus(omega, s.T @ b0 @ s)
    support = s.inv().submatrix(range(2 * n), range(n))
    sym = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            sym[i][j] = sym[j][i] = rand_frac(rng)
    kwargs = dict(offset=[rand_frac(rng) for _ in range(2 * n)],
                  conn_quad=x * Fraction(1, 2) + RatMat(sym),
                  conn_flat=[rand_frac(rng) for _ in range(n)],
                  xi_lin=[rng.randint(0, 1) for _ in range(n)])
    return torus, support, kwargs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_non_split_tori_with_a_b_field(n):
    rng = random.Random(90 + n)
    for _ in range(25):
        torus, support, kwargs = non_split_lagrangian(rng, n)
        assert not torus.is_split and not torus.b_field.is_zero()
        assert_same_torus(torus, *ref_torus_forms(torus.omega, torus.b_field))
        check_brane(torus, support, **kwargs)
        try:
            want = ref_dual_torus(torus)
        except DualityAssumptionViolated as exc:
            assert raised(lambda: dual_torus(torus)) == (type(exc), str(exc))
        else:
            dual = dual_torus(torus)
            same_mat(dual.omega, want[0])
            same_mat(dual.b_field, want[1])


def test_dual_tori_of_split_moduli():
    rng = random.Random(5)
    for _ in range(30):
        tau_re, tau_im, _ = admissible_modulus(rng, 2)
        torus = Torus.from_period(tau_re, tau_im)
        dual = dual_torus(torus)
        omega, b_field = ref_dual_torus(torus)
        assert_same_torus(dual, omega, b_field, omega.inv())


def test_random_supports_with_large_denominators():
    # the constructor alone, on random supports of every rank, including
    # dependent and unsaturated ones, on a base and a doubled torus
    rng = random.Random(12)
    base = Torus.from_period(RatMat([[Fraction(1, 3), 0], [1, 0]]),
                             RatMat([[2, 1], [1, 1]]))
    for torus in (base, double_torus(base)):
        dim2 = torus.dim
        for _ in range(150):
            d = rng.randint(1, dim2)
            support = RatMat([[rng.choice((0, 0, 1, -1, rng.randint(-3, 3)))
                               for _ in range(d)] for _ in range(dim2)])
            f = [[0] * d for _ in range(d)]
            for i in range(d):
                for j in range(i + 1, d):
                    f[i][j] = rng.randint(-3, 3)
                    f[j][i] = -f[i][j]
            sym = [[Fraction(0)] * d for _ in range(d)]
            for i in range(d):
                for j in range(i, d):
                    sym[i][j] = sym[j][i] = rand_frac(rng)
            kwargs = dict(
                offset=[rand_frac(rng, -5, 5) for _ in range(dim2)],
                conn_quad=RatMat(f) * Fraction(-1, 2) + RatMat(sym),
                conn_flat=[rand_frac(rng, -5, 5) for _ in range(d)],
                xi_lin=[rng.randint(0, 1) for _ in range(d)])
            try:
                ref = RefBrane(torus, support, **kwargs)
            except InvalidBrane as exc:
                assert raised(lambda: Brane(torus, support, **kwargs)) == \
                    (InvalidBrane, str(exc))
                continue
            new = Brane(torus, support, **kwargs)
            assert_same_brane(new, ref)
            x = RatMat([[rand_frac(rng) for _ in range(2)] for _ in range(dim2)])
            for probe in (x, support @ RatMat([[rand_frac(rng) for _ in range(2)]
                                               for _ in range(d)])):
                got, want = new.coordinates(probe), ref.coordinates(probe)
                assert (got is None) == (want is None)
                if want is not None:
                    same_mat(got, want)


def test_lift_checks_on_tampered_lifts():
    # verify_lift_* are as strict as before: random half-dimensional
    # supports on doubled tori pass and fail exactly where the references do
    rng = random.Random(6)
    outcomes = set()
    for tau_re, tau_im in ((RatMat.zeros(2, 2), RatMat.identity(2)),
                           (RatMat([[0, 1], [0, 0]]), RatMat([[2, 1], [1, 1]]))):
        doubled = double_torus(Torus.from_period(tau_re, tau_im))
        for _ in range(80):
            cols = rng.sample(range(8), 4)
            support = RatMat([[int(i == c) + (rng.random() < 0.15) * rng.randint(-1, 1)
                               for c in cols] for i in range(8)])
            try:
                ref = RefBrane(doubled, support)
            except InvalidBrane:
                continue
            new = Brane(doubled, support)
            got = (verify_lift_lagrangian(new), verify_lift_complex(new))
            assert got == (ref_verify_lift_lagrangian(ref),
                           ref_verify_lift_complex(ref))
            outcomes.add(got)
    assert len(outcomes) >= 3


# --- rejections -------------------------------------------------------------------


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return info.type, str(info.value)


SQ2 = (RatMat.zeros(2, 2), RatMat.identity(2))
J2 = RatMat([[0, 1], [-1, 0]])
# B with omega + B omega^{-1} B = 0 on the standard four-torus
DUAL_B = RatMat([[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]])


def _torus_cases():
    yield "degenerate omega", (RatMat.zeros(2, 2),)
    yield "rank-2 omega on T^4", (vstack(hstack(J2, RatMat.zeros(2, 2)),
                                         RatMat.zeros(2, 4)),)
    yield "omega not antisymmetric", (RatMat([[1, 1], [-1, 0]]),)
    yield "omega wrong shape", (RatMat([[0, 1, 0], [-1, 0, 0]]),)
    yield "odd dimension", (RatMat.zeros(3, 3),)
    yield "B not antisymmetric", (J2, RatMat([[0, 1], [1, 0]]))
    yield "B wrong shape", (J2, RatMat.zeros(4, 4))


@pytest.mark.parametrize("case, args", list(_torus_cases()))
def test_torus_rejections_keep_their_class_and_message(case, args):
    want = raised(lambda: ref_torus_forms(*args))
    assert raised(lambda: Torus(*args)) == want


@pytest.mark.parametrize("tau", [
    (RatMat.zeros(2, 2), RatMat([[1, 2], [2, 4]])),  # singular Im(tau)
    (RatMat.zeros(2, 2), RatMat.zeros(2, 2)),
    (RatMat.zeros(1, 1), RatMat.identity(2)),  # mismatched blocks
])
def test_period_rejections_keep_their_class_and_message(tau):
    assert raised(lambda: Torus.from_period(*tau)) == \
        raised(lambda: ref_from_period(*tau))


def test_degenerate_omega_is_found_by_the_inversion():
    assert raised(lambda: Torus(RatMat.zeros(2, 2))) == \
        (SingularModulus, "omega is degenerate")


SQ2_TORUS = Torus.from_period(*SQ2)
SUPPORT = vstack(RatMat.identity(2), RatMat.zeros(2, 2))
BRANE_CASES = {
    "dependent support": (SQ2_TORUS, RatMat([[1, 2], [1, 2], [0, 0], [0, 0]]), {}),
    "unsaturated support": (SQ2_TORUS, RatMat([[2, 0], [0, 1], [0, 0], [0, 0]]), {}),
    "non-integer support": (SQ2_TORUS, SUPPORT * Fraction(1, 2), {}),
    "support rows": (SQ2_TORUS, RatMat.identity(2), {}),
    "support rank": (SQ2_TORUS, RatMat.zeros(4, 5), {}),
    "non-integral curvature": (SQ2_TORUS, SUPPORT,
                               {"conn_quad": RatMat([[0, Fraction(1, 2)], [0, 0]])}),
    "conn_quad shape": (SQ2_TORUS, SUPPORT, {"conn_quad": RatMat.zeros(3, 3)}),
    "conn_flat length": (SQ2_TORUS, SUPPORT, {"conn_flat": [0, 0, 0]}),
    "offset length": (SQ2_TORUS, SUPPORT, {"offset": [0, 0]}),
    "xi not 0/1": (SQ2_TORUS, SUPPORT, {"xi_lin": [0, 2]}),
    "xi length": (SQ2_TORUS, SUPPORT, {"xi_lin": [1]}),
    "not a torus": (None, SUPPORT, {}),
}


@pytest.mark.parametrize("case", sorted(BRANE_CASES))
def test_brane_rejections_keep_their_class_and_message(case):
    torus, support, kwargs = BRANE_CASES[case]
    want = raised(lambda: RefBrane(torus, support, **kwargs))
    assert raised(lambda: Brane(torus, support, **kwargs)) == want


def _lift_cases():
    sq = SQ2_TORUS
    # a lifted brane lives on a doubled torus, which cannot be lifted again
    yield "doubled torus", (double_torus(sq),
                            vstack(RatMat.identity(4), RatMat.zeros(4, 4)), {})
    # the full torus without curvature is neither Lagrangian nor coisotropic
    yield "neither validation", (sq, RatMat.identity(4), {})
    # a line in T^4 is isotropic, not Lagrangian or coisotropic
    yield "isotropic line", (sq, RatMat([[1], [0], [0], [0]]), {})
    # the graph of D = I where Re(tau) != 0 restricts B to a nonzero form,
    # and no curvature cancels it
    t21 = Torus.from_period(RatMat([[0, 1], [0, 0]]), RatMat.identity(2))
    yield "uncancelled B-field", (t21, vstack(RatMat.identity(2),
                                              -RatMat.identity(2)), {})


@pytest.mark.parametrize("case, args", list(_lift_cases()))
def test_lift_rejections_keep_their_class_and_message(case, args):
    torus, support, kwargs = args
    want = raised(lambda: ref_lift(RefBrane(torus, support, **kwargs)))
    assert want[0] is InvalidBrane
    assert raised(lambda: lift(Brane(torus, support, **kwargs))) == want


def doubled_left_completion(brane):
    """The brane with the left block of its completion doubled, so that
    U^T C[:, :d] = 2 I: a broken completion for lift's own checks."""
    d = brane.dim
    brane.completion = RatMat._raw(
        tuple(tuple(2 * x if j < d else x for j, x in enumerate(r))
              for r in brane.completion.num), 1)
    return brane


@pytest.mark.parametrize("check, message", [
    ("B", "lifted tangent block B does not solve U^T B = F^T"),
    ("offset", "dual offset does not solve U^T x_hat = rho"),
    ("curvature", "lifted curvature does not match the doubled background form"),
])
def test_lift_internal_checks_keep_their_messages(monkeypatch, check, message):
    # each consistency check inside lift still raises its typed error
    from toruslift import brane as brane_module

    if check == "B":
        # F != 0, so B = 2 C[:, :d] F^T misses F^T; skip the validation,
        # which reads the completion too
        brane = doubled_left_completion(full_torus_brane(
            SQ2_TORUS, RatMat([[0, 0, 0, 1], [0, 0, -1, 0],
                               [0, 0, 0, 0], [0, 0, 0, 0]])))
        monkeypatch.setattr(brane_module, "validate_lagrangian",
                            lambda b: brane_module.BraneReport(True, ()))
    elif check == "offset":
        # F = 0 passes the B check; rho = -1/3 != 0 fails the offset's
        brane = doubled_left_completion(
            Brane(SQ2_TORUS, SUPPORT, conn_flat=[Fraction(1, 3), 0]))
    else:
        brane = full_torus_brane(SQ2_TORUS, RatMat([[0, 0, 0, 1], [0, 0, -1, 0],
                                                   [0, 0, 0, 0], [0, 0, 0, 0]]))
        monkeypatch.setattr(brane_module, "double_torus",
                            lambda t: double_torus(t).flipped())
    with pytest.raises(InvalidBrane) as info:
        lift(brane)
    assert str(info.value) == message


def test_duality_violation_keeps_its_class_and_message():
    torus = Torus(Torus.from_period(*SQ2).omega, DUAL_B)
    want = raised(lambda: ref_dual_torus(torus))
    assert want[0] is DualityAssumptionViolated
    assert raised(lambda: dual_torus(torus)) == want
