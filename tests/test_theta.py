import math
import random
from fractions import Fraction
from itertools import product
from operator import mul

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractionforms import ref_double_gram, ref_int_form
from toruslift.errors import (
    InadmissibleSpec,
    NotPositiveDefinite,
    TruncationBudgetExceeded,
)
import toruslift.floer as floer_module
import toruslift.theta as theta_module
from toruslift.exact import RatMat
from toruslift.summation import get_context
from toruslift.theta import (
    ThetaSpec,
    _exact_z,
    gaussian_theta_lhs,
    iter_ball,
    iter_shell,
    lattice_sum,
    min_eigenvalue_bound,
    spec_n1,
    theta_bar_dk,
    theta_dk,
    truncation_radius,
    verify_characteristic_shift,
    verify_identity_1,
    verify_identity_2,
    verify_quasi_periodicity,
)

TAU_GRID = (1j, 0.5 + 1j, -0.3 + 0.7j)
Z_GRID = (0.0, 0.2, 0.3 + 0.4j, -0.45 + 0.1j, 0.11 - 0.23j)
UV_GRID = ((0.1, 0.0), (0.0, 0.0), (0.2 + 0.1j, -0.1), (0.3, 0.3), (-0.2j, 0.15))

# Reference values from a direct box sum over |m|_inf <= 14 at 50 decimal
# digits.  The evaluation points are the binary doubles written below, so
# the comparisons are exact up to each context's truncation + rounding.
FROZEN_BASE = 1.0864348112133080  # theta at tau=i, D=1, k=0, z=0
FROZEN_HALFCHAR = "0.415760602596027032314507136284743925"

ORACLE_CASES = {
    "n1_generic": (
        "0.123700080236925285941821015121390955",
        "0.318353212419998702973570493908669849",
    ),
    "n1_xi": (
        "-0.136968016099197662803906805293759748",
        "0.0575545121223549700746452126384044029",
    ),
    "n2_split": (
        "-0.923464212212239049845799816226436849",
        "-0.318748645274759381454649508478676",
    ),
    "n2_re": (
        "1.00904463674351579256278701822371058",
        "-0.374121629406417965904878375258642307",
    ),
}


def generic_spec(tol=None):
    # n=1, half-integer Re(tau), nontrivial characteristic
    return ThetaSpec(
        RatMat([[Fraction(1, 2)]]), RatMat([[1]]), RatMat([[2]]), (1,), tol=tol
    )


def xi_spec(tol=None):
    return ThetaSpec(
        RatMat([[Fraction(1, 2)]]), RatMat([[1]]), RatMat([[3]]), (2,), (1,),
        tol=tol,
    )


def split_spec2(tol=None):
    return ThetaSpec(
        RatMat.zeros(2, 2), RatMat.identity(2), RatMat([[2, 1], [1, 1]]),
        (1, 0), (1, 0), tol=tol,
    )


def re_spec2(tol=None):
    # Re(tau) = [[0,1],[0,0]] pairs with D = [[2,1],[1,1]] to an integral
    # antisymmetric form [[0,1],[-1,0]], so the sign structure is quadratic.
    return ThetaSpec(
        RatMat([[0, 1], [0, 0]]), RatMat.identity(2), RatMat([[2, 1], [1, 1]]),
        (1, 0), (0, 1), tol=tol,
    )


ORACLE_SPECS = {
    "n1_generic": (generic_spec, [0.13 - 0.07j]),
    "n1_xi": (xi_spec, [-0.2 + 0.11j]),
    "n2_split": (split_spec2, [0.1 + 0.2j, -0.3 + 0.1j]),
    "n2_re": (re_spec2, [0.1 + 0.2j, -0.3 + 0.1j]),
}

Z2 = [0.1 + 0.2j, -0.3 + 0.1j]


def oracle_mpc(name):
    with mpmath.workdps(40):
        re, im = ORACLE_CASES[name]
        return mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im))


# --- shell enumeration --------------------------------------------------------


def test_shell_counts():
    for dim in (1, 2, 3):
        assert list(iter_shell(dim, 0)) == [(0,) * dim]
        for s in (1, 2, 3):
            pts = list(iter_shell(dim, s))
            assert len(pts) == (2 * s + 1) ** dim - (2 * s - 1) ** dim
            assert all(max(abs(c) for c in p) == s for p in pts)
    # shells partition the ball
    assert len(list(iter_ball(2, 3))) == 7 * 7


def test_shell_order_is_lexicographic():
    pts = list(iter_shell(2, 1))
    assert pts == sorted(pts)
    ball = list(iter_ball(1, 2))
    assert ball == [(0,), (-1,), (1,), (-2,), (2,)]


# --- certified truncation -----------------------------------------------------


def centred_radius(gram, tol):
    """The certificate of the sum of e^{-pi <gram w, w>}."""
    return truncation_radius(gram, tol,
                             decay=ref_int_form(gram.rows, [0] * gram.nrows, 0))


def test_truncation_radius_unit_gram():
    cert = centred_radius(RatMat([[1]]), tol=1e-12)
    assert cert.radius <= 4
    assert 0 < cert.tail_bound <= 1e-12
    assert 0.9 < cert.lambda_min <= 1


def test_truncation_radius_loose_tolerance():
    cert = centred_radius(RatMat([[1]]), tol=1.0)
    assert cert.radius == 0


def test_truncation_rejects_degenerate_gram():
    with pytest.raises(NotPositiveDefinite):
        centred_radius(RatMat([[1, 1], [1, 1]]), tol=1e-10)
    with pytest.raises(NotPositiveDefinite):
        centred_radius(RatMat([[0]]), tol=1e-10)
    with pytest.raises(NotPositiveDefinite):
        min_eigenvalue_bound(RatMat([[0, 1], [1, 0]]))


def test_truncation_budget_exceeded_for_flat_gram():
    with pytest.raises(TruncationBudgetExceeded):
        centred_radius(RatMat([[Fraction(1, 10000)]]), tol=1e-30)


def test_linear_term_enlarges_radius():
    # (m - 3)^2 - 9: the box follows the centre 3, and the minimum -9 scales
    # the tail by e^{9 pi}, so the ellipsoid grows too
    plain = centred_radius(RatMat([[1]]), tol=1e-12)
    pushed = truncation_radius(RatMat([[1]]), tol=1e-12,
                               decay=(1, [[1]], [-6], 0))
    assert pushed.radius > plain.radius + 3
    assert pushed.limit > plain.limit - 9
    assert pushed.tail_bound <= 1e-12 / 4


def test_a_decay_of_another_gram_is_rejected():
    # the ellipsoid's radius comes from q_form and its box from the decay,
    # so a decay whose quadratic part is not q_form would certify nothing
    gram = RatMat([[3, 1], [1, 2]])
    assert truncation_radius(gram, 1e-12, decay=(2, [[6, 4], [0, 4]],
                                                 [1, -3], 5)).radius >= 1
    for decay in ((2, [[6, 2], [0, 4]], [1, -3], 5),  # off-diagonal halved
                  (1, [[6, 4], [0, 4]], [1, -3], 5),  # twice the Gram
                  (2, [[6, 4], [0, 4]], [1], 5)):      # wrong dimension
        with pytest.raises(ValueError, match="quadratic part"):
            truncation_radius(gram, 1e-12, decay=decay)


def test_min_eigenvalue_bound_is_a_lower_bound():
    # pivots 2 and 3/2; the least eigenvalue is 1, and the lattice minimum
    # is 2, at (1, 0), (0, 1) and (1, -1)
    lam = min_eigenvalue_bound(RatMat([[2, 1], [1, 2]]))
    assert lam == Fraction(3, 2)
    assert_pivot_bound(RatMat([[2, 1], [1, 2]]))


# --- lambda_min is the Gram's least LDL^T pivot ------------------------------


def ldl_pivots(gram: RatMat) -> list:
    """Reference: the pivots d of gram = L diag(d) L^T, by Fraction
    elimination."""
    a = [list(r) for r in gram.rows]
    n = len(a)
    for k in range(n):
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [a[k][k] for k in range(n)]


def least_eigenvalue(gram: RatMat):
    """The least eigenvalue of a symmetric Gram at 200 bits."""
    mp = MP200
    a = mp.matrix([[mp.mpf(x.numerator) / x.denominator for x in row]
                   for row in gram.rows])
    return min(mp.eigsy(a, eigvals_only=True))


def covering_radii(gram: RatMat) -> list:
    """floor(sqrt(h (Q^{-1})_ii)), h the least diagonal entry: the box of
    these radii holds every v with v^T Q v <= h, so every shortest
    vector."""
    h = min(gram[i, i] for i in range(gram.nrows))
    inv = gram.inv()
    return [math.isqrt(math.floor(h * inv[i, i])) for i in range(gram.nrows)]


def covering_box(gram: RatMat) -> list:
    """The nonzero integer vectors of the covering box."""
    return [v for v in product(*(range(-r, r + 1)
                                 for r in covering_radii(gram))) if any(v)]


def lattice_minimum(gram: RatMat) -> Fraction:
    """min v^T Q v over the nonzero integer vectors v, exactly."""
    num = gram.num
    return min(Fraction(sum(x * sum(map(mul, row, v))
                            for x, row in zip(v, num)), gram.den)
               for v in covering_box(gram))


def assert_pivot_bound(gram: RatMat) -> Fraction:
    """The bound is the least LDL^T pivot, at most the lattice minimum and
    at least the least eigenvalue (up to the 200-bit estimate's error)."""
    lam = min_eigenvalue_bound(gram)
    assert lam == min(ldl_pivots(gram))
    assert lam <= lattice_minimum(gram)
    assert MP200.mpf(lam.numerator) / lam.denominator >= (
        least_eigenvalue(gram) * (1 - MP200.mpf(2) ** -150))
    return lam


def _scaled_gram(entries, scale):
    """B^T B / scale for the square integer matrix B of ``entries``."""
    n = math.isqrt(len(entries))
    b = [entries[i * n:(i + 1) * n] for i in range(n)]
    return RatMat([[Fraction(sum(r[i] * r[j] for r in b), scale)
                    for j in range(n)] for i in range(n)])


pivot_grams = st.sampled_from((1, 2, 4)).flatmap(
    lambda n: st.builds(_scaled_gram,
                        st.lists(st.integers(-3, 3), min_size=n * n,
                                 max_size=n * n),
                        st.sampled_from((1, 2, 3, 7)))).filter(
    # definite, with a covering box small enough to walk
    lambda g: g.is_positive_definite() and math.prod(
        2 * r + 1 for r in covering_radii(g)) <= 20000)


@settings(max_examples=80, deadline=None)
@given(pivot_grams)
def test_min_eigenvalue_bound_is_the_least_pivot(gram):
    assert_pivot_bound(gram)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 2, 4)).flatmap(lambda n: st.lists(
    st.fractions(Fraction(1, 9), 20, max_denominator=9), min_size=n,
    max_size=n)))
def test_min_eigenvalue_bound_of_a_diagonal_gram_is_its_minimum(diagonal):
    # the pivots are the diagonal entries, and the least of them is the
    # value at a unit vector: the bound is the lattice minimum itself
    gram = RatMat.diag(diagonal)
    assert min_eigenvalue_bound(gram) == lattice_minimum(gram) == min(diagonal)
    assert_pivot_bound(gram)


def seeded_grams(seed: int, dim: int, count: int):
    """B^T B for random rational B with dim - 1 to dim + 1 rows, so some
    Grams are singular."""
    rng = random.Random(seed)
    for _ in range(count):
        rows = [[Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))
                 for _ in range(dim)]
                for _ in range(rng.randint(max(1, dim - 1), dim + 1))]
        yield RatMat([[sum(r[i] * r[j] for r in rows) for j in range(dim)]
                      for i in range(dim)])


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_min_eigenvalue_bound_on_seeded_grams(dim):
    singular = 0
    for gram in seeded_grams(100 + dim, dim, 20):
        if gram.is_positive_definite():
            assert_pivot_bound(gram)
        else:
            singular += 1
            with pytest.raises(NotPositiveDefinite):
                min_eigenvalue_bound(gram)
    assert dim == 1 or singular > 0


def edge_grams():
    doubled = ref_double_gram(ThetaSpec(RatMat([[0, 1], [0, 0]]),
                                        RatMat.identity(2),
                                        RatMat([[2, 0], [0, 1]])))
    return {
        "diag(1,5)": RatMat.diag([1, 5]),  # lambda is the least diagonal entry
        "[[2,1],[1,2]]": RatMat([[2, 1], [1, 2]]),  # lambda = 1, pivot 3/2
        "doubled 4-D": doubled,
        "scalar": RatMat([[Fraction(3, 7)]]),
    }


@pytest.mark.parametrize("name", sorted(edge_grams()))
def test_min_eigenvalue_bound_edge_cases(name):
    assert_pivot_bound(edge_grams()[name])


def test_min_eigenvalue_bound_is_memoised_per_gram():
    min_eigenvalue_bound.cache_clear()
    first = min_eigenvalue_bound(RatMat([[3, 1], [1, 2]]))
    again = min_eigenvalue_bound(RatMat([[3, 1], [1, 2]]))
    assert again is first
    assert min_eigenvalue_bound.cache_info().hits == 1


@pytest.mark.parametrize("rows", [
    [[1, 1], [1, 1]],  # singular
    [[0, 1], [1, 0]],  # indefinite
    [[1, 2], [0, 1]],  # not symmetric
])
def test_non_certifiable_gram_raises_on_every_call(rows):
    gram = RatMat(rows)
    for _ in range(3):
        with pytest.raises(NotPositiveDefinite):
            min_eigenvalue_bound(gram)


def test_a_near_singular_gram_certifies_up_to_the_radius_cap():
    # definite, with least pivot 2^-90: rho' is about 2^-44, so no radius
    # within the cap reaches the tail
    gram = RatMat([[1, 1], [1, 1 + Fraction(1, 2 ** 90)]])
    assert min_eigenvalue_bound(gram) == Fraction(1, 2 ** 90)
    for _ in range(2):
        with pytest.raises(TruncationBudgetExceeded):
            centred_radius(gram, tol=1e-10)


# --- the radius search against Theorem 2 at 200 bits -----------------------------

MP200 = mpmath.mp.clone()
MP200.prec = 200


def package_rho(lam):
    """The rho the package takes: sqrt(pi lambda_min) in 53-bit libmp
    intervals, rounded down."""
    lib = mpmath.libmp
    pi = (lib.mpf_pi(53, lib.round_floor), lib.mpf_pi(53, lib.round_ceiling))
    lam_iv = lib.mpi_div(
        (lib.from_int(lam.numerator, 53, lib.round_floor),
         lib.from_int(lam.numerator, 53, lib.round_ceiling)),
        (lib.from_int(lam.denominator, 53, lib.round_floor),
         lib.from_int(lam.denominator, 53, lib.round_ceiling)), 53)
    return MP200.make_mpf(lib.mpi_sqrt(lib.mpi_mul(pi, lam_iv, 53), 53)[0])


def theorem2(lam, dim, excess, k):
    """Theorem 2's bound e^{pi excess} (g/2) (2/rho)^g Gamma(g/2, (R -
    rho/2)^2) at R^2 = pi k / 64, at 200 bits with mpmath.gammainc, or None
    where R < sqrt(g/2) + rho/2."""
    mp = MP200
    rho = package_rho(lam)
    y = mp.sqrt(mp.pi * mp.mpf(k) / theta_module._STEPS) - rho / 2
    if y < mp.sqrt(mp.mpf(dim) / 2):
        return None
    return (mp.exp(mp.pi * mp.mpf(excess.numerator) / excess.denominator)
            * mp.mpf(dim) / 2 * (2 / rho) ** dim
            * mp.gammainc(mp.mpf(dim) / 2, y * y))


def assert_least_certified(gram, tol, excess, offset, tail, lam):
    """The step k = offset * 64 passes Theorem 2 at 200 bits with the
    returned tail bound above its value by at most 3 % (the interval's
    bound on erfc), and step k - 1 fails it, or passes only within that
    3 %."""
    target = tol * theta_module.TAIL_SHARE
    k = offset * theta_module._STEPS
    assert k.denominator == 1 and lam == min_eigenvalue_bound(gram)
    value = theorem2(lam, gram.nrows, excess, int(k))
    assert value is not None and value <= tail <= target
    assert tail <= value * 1.03
    before = theorem2(lam, gram.nrows, excess, int(k) - 1)
    assert before is None or before > target / 1.03


def seeded_search_inputs(seed, count):
    """(gram, tol, excess, max_radius) tuples: Grams of dimension 1 to 4,
    also scaled identities with ~90-bit entries, excess 0 to 30, tol 1e-2
    to 1e-30, and small radius caps."""
    rng = random.Random(seed)
    grams = [g for dim in (1, 2, 3, 4) for g in seeded_grams(seed + dim, dim, 6)
             if g.is_positive_definite()]
    for _ in range(count):
        if rng.random() < 0.7:
            gram = rng.choice(grams)
        else:
            gram = RatMat.identity(rng.randint(1, 4)) * Fraction(
                rng.getrandbits(90) | 1 << 89, 1 << rng.randint(86, 96))
        excess = Fraction(rng.randint(0, 480), 16)
        tol = 10.0 ** -rng.uniform(2, 30)
        yield gram, tol, excess, rng.choice((3, 12, 40, 40))


def test_radius_search_matches_the_iv_walk():
    # every search result is the least step that Theorem 2, evaluated at
    # 200 bits, certifies; a search that raises has no step left below its
    # cap
    search = theta_module._ellipsoid.__wrapped__
    exceeded = 0
    for gram, tol, excess, cap in seeded_search_inputs(7, 300):
        try:
            offset, tail, lam = search(gram, tol, excess, cap)
        except TruncationBudgetExceeded:
            exceeded += 1
            top = theta_module._STEPS * (cap + 1) ** 2 * min(
                gram[i, i] for i in range(gram.nrows))
            value = theorem2(min_eigenvalue_bound(gram), gram.nrows, excess,
                             math.floor(top))
            assert value is None or value > tol * theta_module.TAIL_SHARE
            continue
        assert_least_certified(gram, tol, excess, offset, tail, lam)
    assert 0 < exceeded < 300


def fraction_minimum(decay):
    """(mu, centre) of a kernel decay form through Fraction algebra: the
    symmetric Gram S of its quadratic part, the centre -S^{-1} lin / 2 and
    the form's value there."""
    den, quad, lin, const = decay
    n = len(lin)
    gram = RatMat([[Fraction(quad[min(i, j)][max(i, j)], den)
                    / (1 + (i != j)) for j in range(n)] for i in range(n)])
    centre = gram.solve([Fraction(-x, 2 * den) for x in lin])
    value = Fraction(const, den) + sum(Fraction(x, den) * c
                                       for x, c in zip(lin, centre))
    value += sum(gram[i, j] * centre[i] * centre[j]
                 for i in range(n) for j in range(n))
    return value, centre, gram


def assert_certificate_reads_its_form(q_form, tol, decay, cert):
    """The certificate of ``decay``: mu and the centre from Fraction
    algebra, the excess mu rounded down to 1/16, the least certified step,
    and the box floor(|c_i| + sqrt(T (Q^{-1})_ii)) at 60 digits."""
    mu, centre, gram = fraction_minimum(decay)
    assert gram == q_form
    excess = Fraction(max(0, math.ceil(-16 * mu)), 16)
    offset = cert.limit - mu
    assert_least_certified(q_form, tol, excess, offset, cert.tail_bound,
                           cert.lambda_min)
    inv = q_form.inv()
    with mpmath.workdps(60):
        box = tuple(int(mpmath.floor(
            abs(mpmath.mpf(c.numerator) / c.denominator) + mpmath.sqrt(
                mpmath.mpf((offset * inv[i, i]).numerator)
                / (offset * inv[i, i]).denominator)))
            for i, c in enumerate(centre))
    assert cert.box == box and cert.radius == max(box)


def test_certificates_of_every_caller_match_the_iv_walk(monkeypatch):
    # theta series, doubled products and pair sums pass their own decay
    # forms; each certificate must be the one its form defines
    seen = []
    original = theta_module.truncation_radius

    def record(q_form, tol, *, decay, max_radius):
        cert = original(q_form, tol, decay=decay, max_radius=max_radius)
        seen.append((q_form, tol, decay, cert))
        return cert

    monkeypatch.setattr(theta_module, "truncation_radius", record)
    monkeypatch.setattr(floer_module, "truncation_radius", record)
    spec = ThetaSpec(RatMat([[0, 1], [0, 0]]), RatMat.identity(2),
                     RatMat([[2, 1], [1, 1]]), (1, 0), (0, 1), tol=1e-12)
    theta_dk(spec, [0.1 + 0.2j, -0.3 + 0.1j])
    theta_dk(spec, [0.1 + 0.2j, -0.3 + 0.1j], context="dd")
    gaussian_theta_lhs(0.5 + 1j, 0.3 + 0.2j, -0.1, tol=1e-12)
    floer_module.mu2_double(spec.with_char((0, 0)), (0, 0),
                            floer_module.DoublePoint(
                                (Fraction(1, 5), Fraction(-1, 10)),
                                (Fraction(3, 10), 0), (Fraction(-1, 10), 0),
                                (Fraction(1, 5), Fraction(1, 10))))
    assert len(seen) == 4
    for q_form, tol, decay, cert in seen:
        assert_certificate_reads_its_form(q_form, tol, decay, cert)


def test_radius_search_is_memoised_on_exact_inputs():
    theta_module._ellipsoid.cache_clear()
    first = centred_radius(RatMat([[3, 1], [1, 2]]), 1e-12)
    again = centred_radius(RatMat([[3, 1], [1, 2]]), 1e-12)
    # another centre (1/5, -1/10) and the minimum 9/10 >= 0: the same search
    moved = truncation_radius(RatMat([[3, 1], [1, 2]]), 1e-12,
                              decay=(1, [[3, 2], [0, 2]], [-1, 0], 1))
    assert again == first and moved.lambda_min == first.lambda_min
    info = theta_module._ellipsoid.cache_info()
    assert (info.hits, info.misses) == (2, 1)
    assert info.maxsize is not None  # bounded


def test_budget_exceeded_raises_on_every_call():
    theta_module._ellipsoid.cache_clear()
    for _ in range(3):
        with pytest.raises(TruncationBudgetExceeded):
            centred_radius(RatMat([[Fraction(1, 10000)]]), tol=1e-30)
    info = theta_module._ellipsoid.cache_info()
    assert (info.hits, info.currsize) == (0, 0)


def test_pair_sum_tolerance_is_the_iv_upper_endpoint(monkeypatch):
    # _interval gives mpmath.iv's endpoints; the pair sums pass the job's
    # tol itself, whatever the prefactor, which their decay form carries
    rng = random.Random(11)
    for _ in range(200):
        c = theta_module.rat(rng.uniform(-3, 3)) / rng.choice((1, 3, 7))
        want = float((mpmath.iv.mpf(c.numerator)
                      / mpmath.iv.mpf(c.denominator)).b)
        assert mpmath.libmp.to_float(theta_module._interval(c)[1]) == want
    seen = []
    original = theta_module.truncation_radius

    def record(q_form, tol, **kw):
        seen.append(tol)
        return original(q_form, tol, **kw)

    monkeypatch.setattr(theta_module, "truncation_radius", record)
    for tau, u, v in [(1j, 0.3 + 0.2j, -0.1), (0.5 + 1j, 0.7j, 0.2 - 0.4j),
                      (1j, 2.0, -1.5)]:
        cert = gaussian_theta_lhs(tau, u, v, 1e-12).certificate
        assert seen.pop() == 1e-12
        assert cert.tail_bound <= 1e-12 * theta_module.TAIL_SHARE


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_interval_gamma_encloses_mpmath_gammainc(g):
    # Gamma(g/2, x) at 200 bits lies in the package's interval, which is
    # tight: within a few ulps for even g, and for odd g, from the bound on
    # erfc, within 10 % at x < 5 and 3 % beyond, where the searches stop
    for x in [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(7, 3), 5,
              Fraction(40, 3), 30, Fraction(2001, 8), 700, 5000]:
        x = Fraction(x)
        lo, hi = theta_module._upper_gamma(g, theta_module._interval(x))
        want = MP200.gammainc(MP200.mpf(g) / 2,
                              MP200.mpf(x.numerator) / x.denominator)
        assert MP200.make_mpf(lo) <= want <= MP200.make_mpf(hi), (g, x)
        slack = (1.1 if x < 5 else 1.03) if g % 2 else 1 + 1e-12
        assert MP200.make_mpf(hi) <= want * slack


# --- spec admissibility -------------------------------------------------------


def test_spec_rejections():
    one = RatMat([[1]])
    with pytest.raises(InadmissibleSpec):
        ThetaSpec(RatMat.zeros(2, 2), RatMat.identity(2), one)
    with pytest.raises(InadmissibleSpec, match="tau blocks must be 2x2"):
        ThetaSpec(RatMat([[0]]), RatMat.identity(2), RatMat.identity(2))
    with pytest.raises(InadmissibleSpec):
        ThetaSpec(RatMat([[0]]), one, RatMat([[Fraction(1, 2)]]))
    with pytest.raises(InadmissibleSpec):
        ThetaSpec(RatMat([[0]]), one, RatMat([[0]]))
    with pytest.raises(InadmissibleSpec):
        ThetaSpec(RatMat([[0]]), RatMat([[-1]]), one)  # Im(tau) D not pd
    with pytest.raises(InadmissibleSpec):  # Im(tau) D not symmetric
        ThetaSpec(RatMat.zeros(2, 2), RatMat.identity(2), RatMat([[2, 1], [0, 3]]))
    with pytest.raises(InadmissibleSpec):  # pairing form not integral
        ThetaSpec(
            RatMat([[0, Fraction(1, 2)], [Fraction(1, 2), 0]]),
            RatMat.identity(2), RatMat([[2, 1], [1, 1]]),
        )
    with pytest.raises(InadmissibleSpec):
        ThetaSpec(RatMat([[0]]), one, one, (1, 2))  # characteristic length
    with pytest.raises(InadmissibleSpec):
        ThetaSpec(RatMat([[0]]), one, one, (0,), (2,))  # sign bits not 0/1


ONE = RatMat([[1]])


@pytest.mark.parametrize("entry", ["char", "xi", "with_char"])
@pytest.mark.parametrize("value", [Fraction(1, 2), 1.9, 0.5, "1", None,
                                   float("nan")])
def test_spec_entries_are_exact_integers_not_truncated(entry, value):
    # a non-integral characteristic or sign bit is rejected, not truncated
    def build():
        if entry == "char":
            return ThetaSpec(RatMat([[0]]), ONE, RatMat([[2]]), (value,))
        if entry == "xi":
            return ThetaSpec(RatMat([[0]]), ONE, RatMat([[2]]), (1,), (value,))
        return ThetaSpec(RatMat([[0]]), ONE, RatMat([[2]]), (1,)).with_char(
            (value,))

    message = ("xi_lin must be a 0/1 vector" if entry == "xi"
               else "characteristic must have integer entries")
    with pytest.raises(InadmissibleSpec, match=message):
        build()


def test_spec_entries_of_any_exact_integral_type():
    want = ThetaSpec(RatMat([[0]]), ONE, RatMat([[2]]), (1,), (1,))
    for char, xi in [((Fraction(1),), (Fraction(1),)), ((1.0,), (1.0,)),
                     ((True,), (True,))]:
        got = ThetaSpec(RatMat([[0]]), ONE, RatMat([[2]]), char, xi)
        assert got == want and got.p_vec == want.p_vec
        assert type(got.char[0]) is int and type(got.xi_lin[0]) is int
    shifted = want.with_char((Fraction(-3),))
    assert shifted.char == (-3,) and type(shifted.char[0]) is int


@pytest.mark.parametrize("m", [(Fraction(1, 2), 0), (1.9, 0), (0, "1")])
def test_spec_lattice_vectors_are_exact_integers_not_truncated(m):
    sp = re_spec2()
    with pytest.raises(ValueError,
                       match="lattice vector must have integer entries"):
        sp.xi_value(m)
    assert sp.xi_value((Fraction(1), 1.0)) == sp.xi_value((1, 1))


@pytest.mark.parametrize("shift", [(Fraction(1, 2),), (1.9,), ("1",)])
def test_transformation_shifts_are_exact_integers_not_truncated(shift):
    sp = generic_spec()
    with pytest.raises(ValueError,
                       match="lattice shift must have integer entries"):
        verify_quasi_periodicity(sp, [0.3 + 0.4j], shift)
    with pytest.raises(ValueError,
                       match="characteristic shift must have integer entries"):
        verify_characteristic_shift(sp, [0.13 - 0.07j], shift)


def test_integral_transformation_shifts_of_any_exact_type():
    sp = generic_spec()
    for shift in [(Fraction(1),), (1.0,), (True,)]:
        assert verify_quasi_periodicity(sp, [0.3 + 0.4j], shift) == \
            verify_quasi_periodicity(sp, [0.3 + 0.4j], (1,))
        assert verify_characteristic_shift(sp, [0.13 - 0.07j], shift) == \
            verify_characteristic_shift(sp, [0.13 - 0.07j], (1,))


def value_bits(value):
    if hasattr(value, "_mpc_"):
        return value._mpc_
    return value.real.hex(), value.imag.hex()


@pytest.mark.parametrize("context", ["double", "dd"])
def test_int_and_fraction_entries_of_z_are_taken_exactly(context):
    # an int or Fraction entry x is the point (x, 0) itself, not x rounded
    # to a double first
    sp = spec_n1(0.5 + 1j, tol=1e-25)
    for x in (Fraction(1, 3), Fraction(-7, 10), 2 ** 60 + 1):
        entry = theta_dk(sp, [x], context=context)
        pair = theta_dk(sp, [(x, 0)], context=context)
        assert value_bits(entry.value) == value_bits(pair.value), x
        assert verify_quasi_periodicity(sp, [x], (1,), context=context) == \
            verify_quasi_periodicity(sp, [(x, 0)], (1,), context=context)


def test_spec_defaults_and_derived_data():
    sp = generic_spec()
    assert sp.xi_lin == (0,)
    assert sp.p_vec == (Fraction(1, 2),)
    assert sp.q_form == RatMat([[2]])
    assert sp.p_vec is sp.p_vec and sp.q_form is sp.q_form  # computed once
    assert sp.a_form.is_zero()
    sp2 = re_spec2()
    assert sp2.a_form == RatMat([[0, 1], [-1, 0]])
    # quadratic part A_{12} m_1 m_2 plus the linear bit on m_2
    assert sp2.xi_value((1, 1)) == 0
    assert sp2.xi_value((1, 0)) == 0
    assert sp2.xi_value((0, 1)) == 1
    assert sp2.with_char((0, 2)).char == (0, 2)
    assert sp2.bar().tau_re == -sp2.tau_re


# --- frozen values ------------------------------------------------------------


def test_base_value_matches_frozen_constant():
    sp = spec_n1(1j, tol=1e-13)
    v = theta_dk(sp, [0])
    assert abs(complex(v) - FROZEN_BASE) < 1e-12
    assert v.certificate.tail_bound <= 1e-13


def test_half_characteristic_value_two_ways():
    # classical one-variable series with characteristic 1/2:
    # sum over m of e^{2 pi i tau (m - 1/2)^2} at tau = i
    classical = 2 * sum(math.exp(-2 * math.pi * (j + 0.5) ** 2) for j in range(8))
    sp = spec_n1(1j, d=2, k=1, tol=1e-13)
    got = complex(theta_dk(sp, [0]))
    assert abs(got - classical) < 1e-13
    assert abs(got - float(mpmath.mpf(FROZEN_HALFCHAR))) < 1e-13
    assert abs(got.imag) < 1e-15


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_values_against_box_sum_double(name):
    build, z = ORACLE_SPECS[name]
    got = complex(theta_dk(build(tol=1e-12), z))
    assert abs(got - complex(oracle_mpc(name))) < 5e-13


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_values_against_box_sum_dd(name):
    build, z = ORACLE_SPECS[name]
    got = theta_dk(build(), z, context="dd").value
    with mpmath.workdps(40):
        diff = abs(mpmath.mpc(got.real, got.imag) - oracle_mpc(name))
        assert diff < 1e-19


def test_enlarged_radius_stays_within_tail_bound():
    sp = generic_spec()
    z = [0.13 - 0.07j]
    base = theta_dk(sp, z)
    cert = base.certificate
    wide = lattice_sum(get_context("double"), (2 * cert.radius + 3,),
                       cert.limit + 10, *sp.forms(_exact_z(z, sp.n)))
    assert abs(complex(base) - complex(wide)) < cert.tail_bound


def test_double_and_dd_agree():
    for name in ("n1_generic", "n2_split"):
        build, z = ORACLE_SPECS[name]
        vd = complex(theta_dk(build(), z))
        vq = theta_dk(build(), z, context="dd").value
        assert abs(vd - complex(float(vq.real), float(vq.imag))) < 1e-10


def test_integer_shift_invariance():
    sp = generic_spec()
    a = complex(theta_dk(sp, [0.13 - 0.07j]))
    b = complex(theta_dk(sp, [1.13 - 0.07j]))
    assert abs(a - b) < 1e-13
    sp2 = split_spec2()
    c = complex(theta_dk(sp2, Z2))
    d = complex(theta_dk(sp2, [Z2[0] + 1, Z2[1]]))
    assert abs(c - d) < 1e-13


def test_point_length_is_checked():
    with pytest.raises(InadmissibleSpec):
        theta_dk(generic_spec(), [0.1, 0.2])


def test_error_scales_with_tolerance():
    # kept sets are discrete, so compare decades that cross a step of the
    # set (m = +-1 enters below tol 1, m = +-2 below 1e-2, m = +-3 below
    # 1e-8); the error stays below the certified tail bound, and that below
    # the tolerance, at every level
    with mpmath.workdps(40):
        oracle = mpmath.mpf("1.08643481121330801457531612151022346")
    errors = {}
    for tol in (1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-12):
        v = theta_dk(spec_n1(1j, tol=tol), [0], context="dd")
        assert v.certificate.tail_bound <= tol
        with mpmath.workdps(40):
            errors[tol] = abs(mpmath.mpc(v.value.real, v.value.imag)
                              - oracle)
        assert errors[tol] <= v.certificate.tail_bound
    assert errors[1.0] / errors[1e-2] >= 10
    assert errors[1e-2] / errors[1e-4] >= 10
    assert errors[1e-8] / errors[1e-12] >= 10


# --- transformation laws ------------------------------------------------------


def test_shift_law_reference_point():
    sp = spec_n1(1j)
    assert verify_quasi_periodicity(sp, [0.3 + 0.4j], [1]) < 1e-10


def test_shift_law_trivial_for_zero():
    sp = generic_spec()
    assert verify_quasi_periodicity(sp, [0.13 - 0.07j], [0]) == 0.0


def test_shift_law_contract_at_explicit_tolerance():
    sp = spec_n1(0.5 + 1j, d=2, k=1, tol=1e-8)
    assert verify_quasi_periodicity(sp, [0.3 + 0.4j], [1]) <= 10 * 1e-8


def test_shift_law_dd_large_determinants():
    for tau in (1j, 0.5 + 1j):
        for d in (1, 2, 3, 6):
            sp = spec_n1(tau, d=d, k=d // 2, xi=d % 2)
            r = verify_quasi_periodicity(sp, [0.3 + 0.4j], [1], context="dd")
            assert r < 1e-12, (tau, d, r)


def test_shift_law_rank_two_generators():
    for sp in (split_spec2(), re_spec2()):
        for h in ([1, 0], [0, 1], [1, 1]):
            assert verify_quasi_periodicity(sp, Z2, h, context="dd") < 1e-12


def test_characteristic_shift_law():
    sp = generic_spec()
    assert verify_characteristic_shift(sp, [0.13 - 0.07j], [1]) < 1e-10
    assert verify_characteristic_shift(sp, [0.13 - 0.07j], [2]) < 1e-10
    # rank two with a nontrivial phase from the integral pairing form
    for s in ([1, 0], [0, 1], [1, 1]):
        assert verify_characteristic_shift(re_spec2(), Z2, s, context="dd") < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    tau=st.sampled_from(TAU_GRID),
    d=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=0, max_value=2),
    xi=st.integers(min_value=0, max_value=1),
    h=st.integers(min_value=-1, max_value=1),
    z=st.sampled_from(Z_GRID),
)
def test_shift_law_property(tau, d, k, xi, h, z):
    sp = spec_n1(tau, d=d, k=k % d, xi=xi)
    assert verify_quasi_periodicity(sp, [z], [h], context="dd") < 1e-10


# --- the periodized Gaussian identities ----------------------------------------


def test_identity_one_on_grid():
    for tau in TAU_GRID:
        for z in Z_GRID:
            assert verify_identity_1(tau, z, tol=1e-12) < 1e-10, (tau, z)


def test_identity_two_on_grid():
    for tau in TAU_GRID:
        for u, v in UV_GRID:
            assert verify_identity_2(tau, u, v, tol=1e-12) < 1e-10, (tau, u, v)


def test_gaussian_sum_factorizes_at_origin():
    # at tau=i, u=v=0 the double sum collapses to sqrt(2) times the square
    # of the plain one-variable sum
    one_var = sum(math.exp(-math.pi * l * l) for l in range(-6, 7))
    got = complex(gaussian_theta_lhs(1j, 0.0, 0.0, tol=1e-12))
    assert abs(got - math.sqrt(2) * one_var**2) < 1e-10
    assert abs(got.imag) < 1e-12


def test_gaussian_sum_is_real_for_real_arguments():
    got = complex(gaussian_theta_lhs(1j, 0.25, -0.4, tol=1e-12))
    assert abs(got.imag) < 1e-11


def test_gaussian_sum_budget_guard():
    # the box follows the Gaussian's centre near m = -u, past the radius cap
    # of 40 at u = 60
    assert gaussian_theta_lhs(1j, 25.0, 0.0, tol=1e-10).certificate.radius \
        <= 40
    with pytest.raises(TruncationBudgetExceeded):
        gaussian_theta_lhs(1j, 60.0, 0.0, tol=1e-10)


def test_identity_two_symmetric_diagonal():
    # u = v makes both sides real positive at purely imaginary tau
    got = complex(gaussian_theta_lhs(1j, 0.3, 0.3, tol=1e-12))
    assert got.real > 0
    assert abs(got.imag) < 1e-11


@settings(max_examples=20, deadline=None)
@given(
    tau=st.sampled_from((1j, 0.5 + 1j)),
    u=st.integers(min_value=-8, max_value=8),
    v=st.integers(min_value=-8, max_value=8),
)
def test_identity_two_property(tau, u, v):
    assert verify_identity_2(tau, u / 20, v / 20, tol=1e-11) < 1e-9
