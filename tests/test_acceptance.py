"""Acceptance gate: one test per shipped guarantee.

Each test prints a single line

    [criterion N] <name>: PASS|FAIL (<elapsed>s) <detail>

and enforces the documented residual bound and runtime budget.  All sample
families are deterministic (fixed seeds or full enumerations).
"""

import hashlib
import math
import random
import time
from fractions import Fraction

from branefamilies import coisotropic_sample, graph_slopes

from toruslift.brane import (
    fiber_brane,
    graph_brane,
    t4_space_filling_brane,
    lift,
    verify_lift_complex,
    verify_lift_lagrangian,
    zero_section_brane,
)
from toruslift.config import parse_config
from toruslift.exact import RatMat
from toruslift.floer import (
    intersections,
    u_part_self,
    verify_main_diagram,
    verify_usub,
)
from toruslift.report import emit_report
from toruslift.runner import run
from toruslift.theta import (
    ThetaSpec,
    verify_characteristic_shift,
    verify_identity_1,
    verify_identity_2,
    verify_quasi_periodicity,
)
from toruslift.torus import Torus

F = Fraction
Z1 = RatMat([[0]])
I1 = RatMat.identity(1)
Z2 = RatMat.zeros(2, 2)
I2 = RatMat.identity(2)

TAU_GRID = (1j, 0.5 + 1j, -0.3 + 0.7j)
Z_GRID = (0j, 0.2 + 0j, 0.3 + 0.4j, -0.45 + 0.1j, 0.11 - 0.23j)
UV_GRID = ((0.1 + 0j, 0j), (0j, 0j), (0.2 + 0.1j, -0.1 + 0j),
           (0.3 + 0j, 0.3 + 0j), (-0.2j, 0.15 + 0j))


def _line(idx, name, passed, elapsed, detail=""):
    status = "PASS" if passed else "FAIL"
    tail = f" {detail}" if detail else ""
    print(f"[criterion {idx}] {name}: {status} ({elapsed:.2f}s){tail}")


def _sample_points(seed, count, width):
    rng = random.Random(seed)
    return [tuple(F(rng.randint(-9, 9), 20) for _ in range(width))
            for _ in range(count)]


def test_criterion_1_lift_certification():
    start = time.perf_counter()
    branes = [t4_space_filling_brane()]
    for n in (1, 2):
        for d in graph_slopes(n, 3):
            torus = Torus.from_period(RatMat.zeros(n, n), d.T)
            branes.append(graph_brane(torus, d))
    rng = random.Random(17)
    for n in (1, 2):
        torus = Torus.from_period(RatMat.zeros(n, n), RatMat.identity(n))
        for _ in range(5):
            pos = [F(rng.randint(0, 9), 10) for _ in range(n)]
            phi = [F(rng.randint(0, 9), 10) for _ in range(n)]
            branes.append(fiber_brane(torus, pos, phi=phi))
    branes += coisotropic_sample(60, 45, seed=4)  # >= 100 random coisotropic

    bad = 0
    for brane in branes:
        lifted = lift(brane)
        if not (verify_lift_lagrangian(lifted) and verify_lift_complex(lifted)):
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 10.0
    _line(1, "lift certification", ok, elapsed,
          f"{len(branes)} branes, {bad} failures, exact")
    assert bad == 0
    assert elapsed < 10.0


def test_criterion_2_first_series_identity():
    start = time.perf_counter()
    worst = max(verify_identity_1(tau, z, tol=1e-12)
                for tau in TAU_GRID for z in Z_GRID)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    _line(2, "first series identity", ok, elapsed,
          f"worst residual {worst:.2e} over {len(TAU_GRID) * len(Z_GRID)} samples")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_3_factorized_series_identity():
    start = time.perf_counter()
    worst = max(verify_identity_2(tau, u, v, tol=1e-12)
                for tau in TAU_GRID for (u, v) in UV_GRID)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    _line(3, "factorized series identity", ok, elapsed,
          f"worst residual {worst:.2e} over {len(TAU_GRID) * len(UV_GRID)} samples")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_4_transformation_laws():
    start = time.perf_counter()
    specs = []
    for d in range(1, 7):  # n = 1, determinants 1..6
        specs.append(ThetaSpec(Z1, I1, RatMat([[d]]), (1 % d,)))
    specs.append(ThetaSpec(RatMat([[F(1, 2)]]), I1, RatMat([[2]]), (1,), (1,)))
    for rows in ([[1, 0], [0, 1]], [[2, 1], [1, 1]], [[1, 0], [0, 2]],
                 [[2, 1], [1, 2]], [[2, 0], [0, 2]], [[1, 0], [0, 5]],
                 [[2, 0], [0, 3]]):
        specs.append(ThetaSpec(Z2, I2, RatMat(rows), (1, 0)))
    skew = RatMat([[2, 1], [0, 3]])  # det 6, not symmetric
    specs.append(ThetaSpec(Z2, skew.T, skew, (1, 0)))
    specs.append(ThetaSpec(RatMat([[0, 1], [0, 0]]), I2, I2, (1, 0), (1, 0)))

    worst = 0.0
    checks = 0
    for spec in specs:
        n = spec.n
        generators = [tuple(1 if i == j else 0 for j in range(n))
                      for i in range(n)]
        z_points = ([(F(1, 5), F(-1, 10))] * n, [(F(-3, 10), F(2, 5))] * n)
        for z in z_points:
            for gen in generators:
                worst = max(
                    worst,
                    verify_quasi_periodicity(spec, z, gen, context="dd"),
                    verify_characteristic_shift(spec, z, gen, context="dd"),
                )
                checks += 2
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10
    _line(4, "shift and characteristic laws", ok, elapsed,
          f"worst residual {worst:.2e} over {checks} checks, dd precision")
    assert worst < 1e-10


def test_criterion_5_intersection_counts():
    start = time.perf_counter()
    wrong = 0
    total = 0
    for n, bound, doubled_bound in ((1, 3, 3), (2, 3, 2)):
        zero = RatMat.zeros(n, n)
        for d in graph_slopes(n, bound):
            det = abs(int(d.det()))
            total += 1
            if len(intersections(zero, d)) != det:
                wrong += 1
        for d in graph_slopes(n, doubled_bound):
            det = abs(int(d.det()))
            total += 1
            if len(intersections(zero, d, tau_re=zero, doubled=True)) != det * det:
                wrong += 1
    elapsed = time.perf_counter() - start
    ok = wrong == 0
    _line(5, "intersection counts", ok, elapsed,
          f"{total} slope matrices, {wrong} mismatches, exact")
    assert wrong == 0


def test_criterion_6_fiber_summed_factorization():
    start = time.perf_counter()
    from toruslift.floer import DoublePoint

    worst = 0.0
    for d in (1, 2, 3):
        rows = _sample_points(600 + d, 5, 4)
        points = [DoublePoint((r[0],), (r[1],), (r[2],), (r[3],))
                  for r in rows]
        worst = max(worst, verify_usub(Z1, I1, RatMat([[d]]), (0,), points,
                                       tol=1e-9))
    rows = _sample_points(62, 5, 8)
    points = [DoublePoint(r[:2], r[2:4], r[4:6], r[6:]) for r in rows]
    worst = max(worst, verify_usub(Z2, I2, RatMat([[2, 1], [1, 1]]), (0, 0),
                                   points, tol=1e-9))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 30.0
    _line(6, "fiber-summed factorization", ok, elapsed,
          f"worst residual {worst:.2e}, trivialization explicit")
    assert worst < 1e-8
    assert elapsed < 30.0


def test_criterion_7_diagram_constant():
    start = time.perf_counter()
    grid = [(row[:1], row[1:]) for row in _sample_points(700, 5, 2)]
    worst_spread = 0.0
    worst_err = 0.0
    for d in (1, 2):
        k_list = [(k,) for k in range(d)]
        report = verify_main_diagram(Z1, I1, RatMat([[d]]), k_list, grid,
                                     tol=1e-10)
        worst_spread = max(worst_spread, report.spread)
        worst_err = max(worst_err, report.max_error)
    elapsed = time.perf_counter() - start
    ok = worst_spread <= 1e-8 and worst_err <= 1e-8 and elapsed < 30.0
    _line(7, "commuting-diagram constant", ok, elapsed,
          f"relative spread {worst_spread:.2e}, prediction error {worst_err:.2e}")
    assert worst_spread <= 1e-8
    assert worst_err <= 1e-8
    assert elapsed < 30.0


def test_criterion_8_self_hom_dimensions():
    start = time.perf_counter()
    sq1 = Torus.from_period(Z1, I1)
    sq2 = Torus.from_period(Z2, I2)
    results = {
        "line n=1": u_part_self(lift(zero_section_brane(sq1))).dims,
        "line n=2": u_part_self(lift(zero_section_brane(sq2))).dims,
        "coisotropic example": u_part_self(lift(t4_space_filling_brane())).dims,
    }
    expected = {
        "line n=1": tuple(math.comb(1, q) for q in range(2)),
        "line n=2": tuple(math.comb(2, q) for q in range(3)),
        "coisotropic example": (1, 2, 1),
    }
    elapsed = time.perf_counter() - start
    ok = results == expected
    _line(8, "self-Hom dimensions", ok, elapsed,
          " ".join(f"{k}={v}" for k, v in results.items()))
    assert results == expected


DETERMINISM_JOB = """
[torus]
n = 1
tau = i

[task theta]
d = 2
k = 1

[task usub]
d = 2
k = 1

[task diagram]
d = 2

[numeric]
tol = 1e-10
"""

# sha256 of DETERMINISM_JOB's ``lines`` report (test_golden.py reads it here)
DETERMINISM_DIGEST = (
    "205dbc74f25ba5668f4c242ef9366c72d6487b2f4e2cd0595c3b5e3c5f833d10")


def test_criterion_9_report_determinism():
    start = time.perf_counter()
    texts = [emit_report(run(parse_config(DETERMINISM_JOB)), "lines")
             for _ in range(2)]
    elapsed = time.perf_counter() - start
    digests = [hashlib.sha256(t.encode("utf-8")).hexdigest() for t in texts]
    ok = digests == [DETERMINISM_DIGEST] * 2
    _line(9, "report determinism", ok, elapsed,
          "2 runs byte-identical and equal to the stored digest")
    assert texts[0] == texts[1]  # identical reruns
    assert digests[0] == DETERMINISM_DIGEST  # the stored report
