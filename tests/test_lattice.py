import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslift.errors import SingularModulus
from toruslift.exact import RatMat
from toruslift.lattice import (
    column_hnf,
    coset_reduce,
    cosets,
    int_kernel,
    row_hnf,
    saturate_columns,
    smith,
    solve_integer_system,
)

ints = st.integers(min_value=-12, max_value=12)


def int_matrices(nr, nc):
    return st.lists(
        st.lists(ints, min_size=nc, max_size=nc), min_size=nr, max_size=nr
    ).map(RatMat)


@settings(max_examples=80, deadline=None)
@given(int_matrices(3, 4))
def test_row_hnf_witness_and_shape(m):
    h, u = row_hnf(m)
    assert u @ m == h
    assert abs(u.det()) == 1
    assert h.is_integer()
    # echelon: pivot columns strictly increase, pivots positive,
    # zeros below, reduced above
    prev = -1
    for i in range(h.nrows):
        row = h.row(i)
        nz = [j for j, x in enumerate(row) if x != 0]
        if not nz:
            continue
        p = nz[0]
        assert p > prev
        prev = p
        assert row[p] > 0
        for r in range(i + 1, h.nrows):
            assert h[r, p] == 0
        for r in range(i):
            assert 0 <= h[r, p] < row[p]


@settings(max_examples=80, deadline=None)
@given(int_matrices(3, 3))
def test_smith_witnesses_and_divisibility(m):
    s, u, v = smith(m)
    assert u @ m @ v == s
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    diag = [s[i, i] for i in range(3)]
    assert all(s[i, j] == 0 for i in range(3) for j in range(3) if i != j)
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    # product of elementary divisors = |det|
    assert diag[0] * diag[1] * diag[2] == abs(m.det())


def test_smith_known_example():
    s, _, _ = smith(RatMat([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
    assert [int(s[i, i]) for i in range(3)] == [2, 2, 156]


SHAPES = [(1, 5), (2, 4), (4, 2), (5, 3), (3, 3)]


def _minor_gcd(m, k):
    g = 0
    for rows in combinations(range(m.nrows), k):
        for cols in combinations(range(m.ncols), k):
            g = math.gcd(g, int(m.submatrix(rows, cols).det()))
    return g


def _check_smith(m):
    s, u, v = smith(m)
    assert u @ m @ v == s
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    assert s.shape == m.shape
    assert all(s[i, j] == 0 for i in range(s.nrows) for j in range(s.ncols)
               if i != j)
    diag = [s[i, i] for i in range(min(m.shape))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b == 0 if a == 0 else b % a == 0
    # d_1 ... d_k is the gcd of the k x k minors, whatever the algorithm
    for k in range(1, len(diag) + 1):
        assert math.prod(diag[:k]) == _minor_gcd(m, k)


def _smith_inputs(shape):
    nr, nc = shape
    r = max(min(shape) - 1, 1)
    low_rank = st.tuples(int_matrices(nr, r), int_matrices(r, nc)).map(
        lambda ab: ab[0] @ ab[1])
    return st.one_of(int_matrices(nr, nc), low_rank,
                     st.just(RatMat.zeros(nr, nc)))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SHAPES).flatmap(_smith_inputs))
def test_smith_on_rectangular_and_rank_deficient_matrices(m):
    _check_smith(m)


@pytest.mark.parametrize("shape", SHAPES)
def test_smith_of_zero_and_rank_one_matrices(shape):
    nr, nc = shape
    _check_smith(RatMat.zeros(nr, nc))
    rng = random.Random(nr * 10 + nc)
    col = [rng.randint(-6, 6) or 1 for _ in range(nr)]
    row = [rng.randint(-6, 6) or 1 for _ in range(nc)]
    _check_smith(RatMat([[4 * a * b for b in row] for a in col]))


@pytest.mark.parametrize("nrows", [1, 2, 3])
def test_normal_forms_of_matrices_without_columns(nrows):
    m = RatMat([[] for _ in range(nrows)])
    h, v = column_hnf(m)
    assert (h.shape, v.shape) == ((nrows, 0), (0, 0))
    assert m @ v == h
    s, u, v = smith(m)
    assert (s.shape, u.shape, v.shape) == ((nrows, 0), (nrows, nrows), (0, 0))
    assert u @ m @ v == s
    assert u == RatMat.identity(nrows)


def test_cosets_are_the_hermite_box():
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        m = RatMat([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        if m.det() == 0:
            continue
        h, _ = column_hnf(m)
        box = list(product(*(range(int(h[i, i])) for i in range(3))))
        assert cosets(m) == box
        assert box == sorted({coset_reduce(m, p) for p in box})
        checked += 1


@settings(max_examples=80, deadline=None)
@given(int_matrices(4, 2))
def test_int_kernel_annihilates_and_is_saturated(m):
    k = int_kernel(m.T)  # kernel of a 2x4 map
    for j in range(k.ncols):
        col = k.col(j)
        assert all(x == 0 for x in (m.T @ col))
    assert k.ncols == 4 - m.T.rank()
    if k.ncols:
        s, _, _ = smith(k)
        assert all(s[i, i] == 1 for i in range(k.ncols))


@settings(max_examples=60, deadline=None)
@given(int_matrices(4, 3))
def test_saturation_contains_and_spans(m):
    sat = saturate_columns(m)
    assert sat.ncols == m.rank()
    # every original column is an integer combination of the basis
    for j in range(m.ncols):
        if sat.ncols == 0:
            assert all(x == 0 for x in m.col(j))
            continue
        sol = solve_integer_system(sat, m.col(j))
        assert all(x.denominator == 1 for x in sol)
    # and the basis itself is saturated (all elementary divisors 1)
    if sat.ncols:
        s, _, _ = smith(sat)
        assert all(s[i, i] == 1 for i in range(sat.ncols))


@settings(max_examples=60, deadline=None)
@given(int_matrices(2, 2).filter(lambda m: m.det() != 0))
def test_cosets_count_and_canonicity(m):
    reps = cosets(m)
    assert len(reps) == abs(int(m.det()))
    assert reps == sorted(reps)
    assert len(set(reps)) == len(reps)
    for r in reps:
        assert coset_reduce(m, r) == r
    # shifting by a column of M does not change the representative
    c0 = tuple(int(x) for x in m.col(0))
    for r in reps[:3]:
        shifted = tuple(a + b for a, b in zip(r, c0))
        assert coset_reduce(m, shifted) == r


def test_cosets_diag_example():
    reps = cosets(RatMat([[2, 0], [0, 3]]))
    assert len(reps) == 6
    assert reps == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


@pytest.mark.parametrize("x", [(Fraction(3, 2),), (1.9,), ("1",), (None,)])
def test_coset_vectors_are_exact_integers_not_truncated(x):
    # (3/2,) was taken as (1,), a representative of another coset
    with pytest.raises(ValueError,
                       match="coset vector must have integer entries"):
        coset_reduce(RatMat([[2]]), x)
    for whole in [(Fraction(3),), (3.0,)]:
        assert coset_reduce(RatMat([[2]]), whole) == (1,)


def test_cosets_singular_raises():
    with pytest.raises(SingularModulus):
        cosets(RatMat([[1, 1], [1, 1]]))


def test_solve_integer_system_inconsistent_raises():
    with pytest.raises(ValueError):
        solve_integer_system(RatMat([[1], [1]]), (0, 1))


@settings(max_examples=60, deadline=None)
@given(int_matrices(3, 3), st.lists(ints, min_size=3, max_size=3))
def test_solve_integer_system_solves(m, w):
    rhs = m @ tuple(w)
    x = solve_integer_system(m, rhs)
    assert (m @ x) == rhs


def test_column_hnf_is_column_operations():
    m = RatMat([[4, 6], [2, 2]])
    h, v = column_hnf(m)
    assert m @ v == h
    assert abs(v.det()) == 1
    assert abs(h.det()) == abs(m.det())


def test_hnf_determinant_preserved_up_to_sign():
    m = RatMat([[3, 1], [1, 3]])
    h, _ = row_hnf(m)
    assert abs(h.det()) == abs(m.det()) == 8
    assert math.prod(int(h[i, i]) for i in range(2)) == 8
