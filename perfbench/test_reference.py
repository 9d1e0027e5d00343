"""Tests of the benchmark's own references (run: python3 -m pytest perfbench).

The theta reference is checked against mpmath.jtheta for n = 1 and, for
n = 2, against products of n = 1 series where the lattice splits; the
exact lift checks are checked on forms built by hand and on broken lifts.
"""

import random
from fractions import Fraction as F

import mpmath
import pytest

from reference import (
    Q,
    diagram_constant,
    doubled_forms,
    lift_failures,
    theta_reference,
)

mp = mpmath.mp.clone()
mp.prec = 128


def _mpq(x):
    return mp.mpf(F(x).numerator) / F(x).denominator


def jtheta_series(tau, d, k, xi, z):
    """sum_m (-1)^(xi m) e^{pi i tau d (m - k/d)^2} e^{2 pi i (d m - k) z}
    through jtheta(3): with a = -k/d, tau' = d tau and z' = d z + xi/2 it is
    e^{-pi i xi a} e^{pi i tau' a^2 + 2 pi i a z'} theta_3(pi (z' + a tau'),
    e^{pi i tau'})."""
    tau_c = mp.mpc(_mpq(tau[0]), _mpq(tau[1]))
    z_c = mp.mpc(_mpq(z[0]), _mpq(z[1]))
    a = _mpq(F(-k, d))
    tau_p = d * tau_c
    z_p = d * z_c + mp.mpf(xi) / 2
    pref = mp.exp(mp.pi * 1j * (-xi * a + tau_p * a * a + 2 * a * z_p))
    return pref * mp.jtheta(3, mp.pi * (z_p + a * tau_p),
                            mp.exp(mp.pi * 1j * tau_p))


N1_CASES = [
    ((F(0), F(1)), 1, 0, 0, (F(1, 5), F(3, 10))),
    ((F(1, 2), F(1)), 3, 1, 1, (F(1, 5), F(3, 10))),
    ((F(-1, 3), F(3, 4)), 2, 1, 0, (F(-9, 20), F(1, 10))),
    ((F(1, 4), F(3, 4)), 3, 2, 1, (F(2, 5), F(-1, 2))),
    ((F(0), F(2)), 2, 0, 1, (F(0), F(0))),
]


@pytest.mark.parametrize("tau, d, k, xi, z", N1_CASES)
def test_theta_reference_matches_jtheta(tau, d, k, xi, z):
    value, abs_sum = theta_reference(((tau[0],),), ((tau[1],),), ((d,),),
                                     (k,), (xi,), [z])
    expected = jtheta_series(tau, d, k, xi, z)
    assert abs(value - expected) <= mp.mpf(2) ** -100 * abs_sum


def test_theta_reference_splits_for_diagonal_n2():
    re, im = (F(1, 2), F(-1, 3)), (F(1), F(3, 4))
    d, k, xi = (2, 3), (1, 2), (1, 0)
    z = [(F(1, 5), F(1, 10)), (F(-1, 4), F(1, 5))]
    value, abs_sum = theta_reference(
        ((re[0], 0), (0, re[1])), ((im[0], 0), (0, im[1])),
        ((d[0], 0), (0, d[1])), k, xi, z)
    parts = [theta_reference(((re[i],),), ((im[i],),), ((d[i],),), (k[i],),
                             (xi[i],), [z[i]])[0] for i in range(2)]
    assert abs(value - parts[0] * parts[1]) <= mp.mpf(2) ** -100 * abs_sum


def test_theta_reference_rejects_nonintegral_pairing():
    with pytest.raises(ValueError):
        theta_reference(((F(1, 3), 0), (0, 0)), ((1, 0), (0, 1)),
                        ((1, 1), (0, 1)), (0, 0), (0, 0), [(0, 0), (0, 0)])


def test_diagram_constant_n1():
    # sqrt(2 a d) times the conjugate series at 0 (tau -> -conj tau)
    value, root, _ = diagram_constant(((F(1, 2),),), ((F(1),),), ((3,),), (1,))
    assert abs(root - mp.sqrt(6)) <= mp.mpf(2) ** -120
    expected = mp.sqrt(6) * jtheta_series((F(-1, 2), F(1)), 3, 0, 1, (0, 0))
    assert abs(value - expected) <= mp.mpf(2) ** -100


def test_rank_matches_fraction_elimination():
    rng = random.Random(7)
    for _ in range(200):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nc)]
                for _ in range(nr)]
        if rng.random() < 0.5 and nr > 1:
            rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1 % nr])]
        a = [r[:] for r in rows]
        rank = 0
        for col in range(nc):
            piv = next((i for i in range(rank, nr) if a[i][col]), None)
            if piv is None:
                continue
            a[rank], a[piv] = a[piv], a[rank]
            for i in range(nr):
                if i != rank and a[i][col]:
                    f = a[i][col] / a[rank][col]
                    a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
            rank += 1
        assert Q.of(rows).rank() == rank


@pytest.mark.parametrize("tau", [
    (((0,),), ((1,),)),
    (((F(1, 2),),), ((F(3, 4),),)),
    (((F(1, 2), 1), (0, F(-1, 3))), ((2, -1), (1, 3))),
])
def test_doubled_forms_are_compatible(tau):
    omega, j = doubled_forms(*tau)
    dim = omega.shape[0]
    eye = Q([[int(i == k) for k in range(dim)] for i in range(dim)])
    assert j @ j == -eye
    assert j.T @ omega @ j == omega
    assert omega.T == -omega


def _graph_lift_rows(d):
    """Hand-built lift of the graph brane {theta = -D r} on tau = i D^T with
    zero curvature: W = [[U, 0], [0, K]], U = [I; -D], K spanning ann(U)."""
    u = [[1, 0], [0, 1], [-d[0][0], -d[0][1]], [-d[1][0], -d[1][1]]]
    # ann(U) = {x : U^T x = 0}: x = (D^T y, y)
    k = [[d[0][0], d[1][0]], [d[0][1], d[1][1]], [1, 0], [0, 1]]
    w = [ur + [0, 0] for ur in u] + [[0, 0] + kr for kr in k]
    return u, w


def test_lift_failures_accepts_hand_built_graph_lift_and_flags_breakage():
    d = ((2, 1), (-1, 3))
    tau = (((0, 0), (0, 0)), tuple(zip(*d)))
    omega, j = doubled_forms(*tau)
    as_rows = lambda q: [[F(x, q.den) for x in r] for r in q.rows]
    u, w = _graph_lift_rows(d)
    assert lift_failures(tau, u, w, as_rows(omega), as_rows(j)) == []
    bent = [r[:] for r in w]
    bent[0][2] = 1
    assert "W^T Omega W != 0" in lift_failures(tau, u, bent, as_rows(omega),
                                               as_rows(j))
    other = (((0, 0), (0, 0)), ((1, 0), (0, 1)))
    assert lift_failures(other, u, w, as_rows(omega), as_rows(j))[:1] == [
        "Omega differs from the period-matrix formula"]
