import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslift.exact import (RatMat, _leading_minors, hstack, rat, ratvec,
                             vec_dot, vstack)

rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=7
) | st.integers(min_value=-9, max_value=9)


def square_matrices(n, elems=rationals):
    return st.lists(
        st.lists(elems, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(RatMat)


def test_rat_is_exact_on_floats():
    assert rat(0.5) == Fraction(1, 2)
    assert rat(0.1) == Fraction(0.1)  # the exact binary value, not 1/10
    assert rat(0.1) != Fraction(1, 10)
    assert rat("3/7") == Fraction(3, 7)


def test_basic_shapes_and_access():
    m = RatMat([[1, 2, 3], [4, 5, 6]])
    assert m.shape == (2, 3)
    assert m[1, 2] == 6
    assert m.col(1) == (2, 5)
    assert m.T.shape == (3, 2)
    assert m.T.T == m


def test_matmul_matrix_and_vector():
    a = RatMat([[1, 2], [3, 4]])
    assert a @ (1, 1) == (3, 7)
    assert (a @ a) == RatMat([[7, 10], [15, 22]])
    with pytest.raises(ValueError):
        a @ RatMat([[1, 2, 3]])


def test_det_known_values():
    assert RatMat([[2]]).det() == 2
    assert RatMat([[1, 2], [3, 4]]).det() == -2
    assert RatMat([[0, 1], [1, 0]]).det() == -1
    # Hilbert 3x3 determinant is 1/2160
    h = RatMat([[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)])
    assert h.det() == Fraction(1, 2160)


def test_inverse_of_hilbert_is_exact():
    n = 4
    h = RatMat([[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)])
    assert h @ h.inv() == RatMat.identity(n)


@settings(max_examples=60, deadline=None)
@given(square_matrices(3), square_matrices(3))
def test_det_is_multiplicative(a, b):
    assert (a @ b).det() == a.det() * b.det()


@settings(max_examples=60, deadline=None)
@given(square_matrices(3))
def test_inverse_round_trip_or_zero_det(m):
    if m.det() == 0:
        with pytest.raises(ZeroDivisionError):
            m.inv()
    else:
        assert m.inv() @ m == RatMat.identity(3)
        assert m.solve((1, 2, 3)) == (m.inv() @ (1, 2, 3))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(rationals, min_size=4, max_size=4), min_size=2, max_size=5
    ).map(RatMat)
)
def test_rank_nullity_and_kernel(m):
    k = m.kernel()
    assert m.rank() + k.ncols == m.ncols
    for j in range(k.ncols):
        assert all(x == 0 for x in (m @ k.col(j)))


def test_leading_minors_and_positive_definite():
    g = RatMat([[2, 1], [1, 1]])
    assert [g.submatrix(range(k), range(k)).det() for k in (1, 2)] == [2, 1]
    assert g.is_positive_definite()
    assert not RatMat([[1, 2], [2, 1]]).is_positive_definite()
    with pytest.raises(ValueError):
        RatMat([[0, 1], [0, 0]]).is_positive_definite()


def test_symmetry_predicates():
    assert RatMat([[0, 1], [-1, 0]]).is_antisymmetric()
    assert RatMat([[2, 1], [1, 3]]).is_symmetric()
    assert not RatMat([[1, 1], [-1, 0]]).is_antisymmetric()


def test_stacking():
    a = RatMat([[1, 2]])
    b = RatMat([[3, 4]])
    assert vstack(a, b) == RatMat([[1, 2], [3, 4]])
    assert hstack(a.T, b.T) == RatMat([[1, 3], [2, 4]])


def test_vec_helpers():
    assert vec_dot(ratvec([1, 2]), ratvec([3, 4])) == 11
    assert ratvec(["1/2", 1]) == (Fraction(1, 2), Fraction(1))


# --- the integer-numerator representation against a Fraction reference ------


def _ref_mul(a, b):
    return [[sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in zip(*b)]
            for r in a]


def _ref_echelon(a, full):
    """Gaussian elimination over Fractions: (rows, pivot columns)."""
    a = [list(r) for r in a]
    nr, nc = len(a), len(a[0]) if a else 0
    pivots, row = [], 0
    for c in range(nc):
        piv = next((r for r in range(row, nr) if a[r][c] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        a[row] = [x / a[row][c] for x in a[row]]
        for r in range(nr) if full else range(row + 1, nr):
            if r != row and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(c)
        row += 1
    return a, pivots


def _ref_det(a):
    det = Fraction(1)
    b = [list(r) for r in a]
    for c in range(len(b)):
        piv = next((r for r in range(c, len(b)) if b[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            b[c], b[piv] = b[piv], b[c]
            det = -det
        for r in range(c + 1, len(b)):
            f = b[r][c] / b[c][c]
            b[r] = [x - f * y for x, y in zip(b[r], b[c])]
        det *= b[c][c]
    return det


def _ref_inv(a):
    n = len(a)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(a)]
    red, pivots = _ref_echelon(aug, True)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError
    return [r[n:] for r in red]


def _ref_kernel_columns(a, nc):
    red, pivots = _ref_echelon(a, True)
    cols = []
    for fc in (c for c in range(nc) if c not in pivots):
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for prow, pc in enumerate(pivots):
            v[pc] = -red[prow][fc]
        cols.append(tuple(v))
    return cols


def _ref_positive_definite(a):
    return all(_ref_det([r[:k] for r in a[:k]]) > 0
               for k in range(1, len(a) + 1))


def _entry(rng):
    # ints, Fractions with mixed and negative denominators, exact floats
    # and strings, all as RatMat accepts them
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(-9, 9)
    if kind == 1:
        return Fraction(rng.randint(-9, 9), rng.choice((-6, -4, -3, 1, 2, 5, 7)))
    if kind == 2:
        return Fraction(rng.randint(-30, 30), rng.choice((-35, 12, 15)))
    if kind == 3:
        return rng.choice((0.5, -0.25, 0.1, 3.0))
    return rng.choice(("-3/7", "5/6", "2"))


def _rand(rng, nr, nc):
    """A random matrix and its reference rows, built from the same entries."""
    entries = [[_entry(rng) for _ in range(nc)] for _ in range(nr)]
    return RatMat(entries), [[Fraction(x) for x in r] for r in entries]


def _product(rng, nr, rank, nc):
    """A matrix of rank at most ``rank`` and its reference rows."""
    if not rank:
        return RatMat.zeros(nr, nc), [[Fraction(0)] * nc for _ in range(nr)]
    (a, ra), (b, rb) = _rand(rng, nr, rank), _rand(rng, rank, nc)
    return a @ b, _ref_mul(ra, rb)


def _square_cases(seed):
    rng = random.Random(seed)
    for n in range(0, 9):
        yield _rand(rng, n, n)
        if n:
            yield _product(rng, n, rng.randrange(n), n)  # singular
            m, ref = _rand(rng, n, n)
            rows = list(m.rows)
            rows[-1] = rows[0]  # repeated row
            yield RatMat(rows), ref[:-1] + ref[:1]


def _assert_normal(m):
    assert m.den > 0
    assert math.gcd(m.den, *(x for r in m.num for x in r)) == 1
    assert all(type(x) is int for r in m.num for x in r)


def _same(m, ref_rows):
    assert m.rows == tuple(tuple(r) for r in ref_rows)
    _assert_normal(m)


@pytest.mark.parametrize("seed", range(4))
def test_arithmetic_matches_fraction_reference(seed):
    rng = random.Random(100 + seed)
    for nr in range(0, 9):
        for nc in (0, 1, rng.randint(2, 8)):
            if nr == 0 and nc:
                continue  # a matrix without rows has no columns either
            (a, ra), (b, rb) = _rand(rng, nr, nc), _rand(rng, nr, nc)
            _same(a, ra)
            _same(a + b, [[x + y for x, y in zip(p, q)] for p, q in zip(ra, rb)])
            _same(a - b, [[x - y for x, y in zip(p, q)] for p, q in zip(ra, rb)])
            _same(-a, [[-x for x in r] for r in ra])
            c = rng.choice((0, 3, Fraction(-5, 6), 0.75, "-2/9"))
            _same(a * c, [[x * Fraction(c) for x in r] for r in ra])
            _same(c * a, [[x * Fraction(c) for x in r] for r in ra])
            if nc:
                _same(a.T, [list(col) for col in zip(*ra)])
            other, rother = _rand(rng, nc, rng.randint(1, 8))
            if nc:
                _same(a @ other, _ref_mul(ra, rother))
            v = [_entry(rng) for _ in range(nc)]
            assert a @ v == tuple(
                sum((x * Fraction(y) for x, y in zip(r, v)), Fraction(0))
                for r in ra)
            assert a @ iter(v) == a @ v  # any iterable of scalars
            assert a.is_integer() == all(x.denominator == 1 for r in ra for x in r)
            assert a.is_zero() == all(x == 0 for r in ra for x in r)
            assert (a - a).is_zero()


@pytest.mark.parametrize("seed", range(3))
def test_det_inv_rank_kernel_match_fraction_reference(seed):
    for m, ref in _square_cases(200 + seed):
        _same(m, ref)
        assert m.det() == _ref_det(ref)
        if m.det() == 0:
            with pytest.raises(ZeroDivisionError):
                m.inv()
        else:
            inv = m.inv()
            _same(inv, _ref_inv(ref))
            assert m @ inv == RatMat.identity(m.nrows)
        assert m.rank() == len(_ref_echelon(ref, False)[1])
        kern = m.kernel()
        expected = _ref_kernel_columns(ref, m.ncols)
        assert kern.columns() == expected
        _assert_normal(kern)


@pytest.mark.parametrize("seed", range(3))
def test_rank_and_kernel_of_rectangular_matrices(seed):
    rng = random.Random(300 + seed)
    for _ in range(30):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        m, ref = _product(rng, nr, rng.randint(0, min(nr, nc)), nc)
        _same(m, ref)
        assert m.rank() == len(_ref_echelon(ref, False)[1])
        expected = _ref_kernel_columns(ref, nc)
        assert m.kernel().columns() == expected


def test_zero_width_and_empty_matrices():
    wide0 = RatMat([[] for _ in range(3)])
    assert wide0.shape == (3, 0)
    assert wide0.rank() == 0
    assert wide0.kernel().shape == (0, 0)
    assert wide0.T.shape == (0, 0)
    assert wide0 @ () == (Fraction(0),) * 3
    assert wide0 + wide0 == wide0
    assert hstack(wide0, RatMat.identity(3)) == RatMat.identity(3)
    empty = RatMat([])
    assert empty.shape == (0, 0)
    assert empty.det() == 1
    assert empty.inv() == empty
    assert empty.is_positive_definite()
    assert RatMat.zeros(3, 3).kernel() == RatMat.identity(3)


@pytest.mark.parametrize("seed", range(3))
def test_positive_definite_matches_leading_minors(seed):
    rng = random.Random(400 + seed)
    for n in range(1, 9):
        b, rb = _rand(rng, n, n)
        rbt = [list(c) for c in zip(*rb)]
        low, rlow = _rand(rng, rng.randint(1, n - 1), n) if n > 1 else (
            RatMat([[0]]), [[Fraction(0)]])
        rlowt = [list(c) for c in zip(*rlow)]
        cases = [
            (b.T @ b, _ref_mul(rbt, rb)),               # PSD, mostly PD
            (low.T @ low, _ref_mul(rlowt, rlow)),       # PSD singular
            (b + b.T, [[x + y for x, y in zip(p, q)] for p, q in zip(rb, rbt)]),
        ]
        assert cases[1][0].det() == 0
        for m, ref in cases:
            _same(m, ref)
            assert m.is_positive_definite() == _ref_positive_definite(ref)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-6, 6), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_leading_minors_stop_at_the_first_non_positive(rows):
    # the one pass behind is_positive_definite and the certificates' pivot
    # bound: the leading minors of the symmetric part, up to and including
    # the first one <= 0, and the verdict is that they are all positive
    n = len(rows)
    sym = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    ref = [[Fraction(x) for x in r] for r in sym]
    want = []
    for k in range(1, n + 1):
        want.append(_ref_det([r[:k] for r in ref[:k]]))
        if want[-1] <= 0:
            break
    assert _leading_minors(sym) == want
    assert RatMat(sym).is_positive_definite() == _ref_positive_definite(ref)
    assert RatMat(sym).is_positive_definite() == all(d > 0 for d in want)


def test_positive_definite_edge_cases():
    # PSD but singular: leading minors 1, 0
    assert not RatMat([[1, 1], [1, 1]]).is_positive_definite()
    # leading minors stay positive until the last one
    g = RatMat([[2, 1, 1], [1, 2, 1], [1, 1, Fraction(1, 2)]])
    assert [g.submatrix(range(k), range(k)).det() > 0
            for k in (1, 2, 3)] == [True, True, False]
    assert not g.is_positive_definite()
    h = RatMat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    assert not h.is_positive_definite()
    assert (2 * RatMat.identity(4) - h).is_positive_definite()
    assert RatMat([[Fraction(1, 3), Fraction(1, 7)],
                   [Fraction(1, 7), Fraction(1, 5)]]).is_positive_definite()
    with pytest.raises(ValueError):
        RatMat([[1, 2], [3, 4]]).is_positive_definite()


def test_canonical_form_is_equal_and_hash_equal():
    pairs = [
        ((RatMat([[1, 2]]) * Fraction(1, 2)) * 2, RatMat([[1, 2]])),
        (RatMat([[Fraction(2, 4), Fraction(-3, -6)]]), RatMat([[0.5, "1/2"]])),
        (RatMat([[Fraction(1, -3)]]) + RatMat([[Fraction(1, 3)]]), RatMat([[0]])),
        (RatMat([[Fraction(6, 4), 3]]) @ RatMat([[2], [Fraction(-1, 3)]]),
         RatMat([[2]])),
        (RatMat.diag([Fraction(1, 2), 2]).inv(), RatMat([[2, 0], [0, 0.5]])),
    ]
    a = RatMat([[Fraction(1, 2), Fraction(2, 3)], [Fraction(-5, 7), 3]])
    pairs += [
        (a - a, RatMat.zeros(2, 2)),
        (a.inv().inv(), a),
        (a.T.T, a),
        (a @ RatMat.identity(2), a),
        (vstack(a.submatrix([0], [0, 1]), a.submatrix([1], [0, 1])), a),
    ]
    for x, y in pairs:
        assert x == y
        assert hash(x) == hash(y)
        assert (x.num, x.den) == (y.num, y.den)
        _assert_normal(x)
    assert (a - a).den == 1
    assert a != RatMat([[1, 2], [3, 4]])
