"""Theta values against the benchmark's 128-bit direct sum.

``perfbench/reference.py`` sums the theta series without importing the
package: every exponent exact, one 128-bit exponential per term.  It is
loaded by path, as test_trace_targets loads ``trace.py``.  Each value
``theta_dk`` returns must lie within its certified tail bound plus the
benchmark's rounding allowance, a multiple of the absolute series sum.
"""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from toruslift.exact import RatMat
from toruslift.lattice import cosets
from toruslift.theta import ThetaSpec, theta_dk

REFERENCE_PATH = (Path(__file__).resolve().parents[1] / "perfbench"
                  / "reference.py")


def _load_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference",
                                                  REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load_reference()

F = Fraction
ALLOW = {"double": 2.0 ** -40, "dd": 2.0 ** -90}
TOL = {"double": 1e-12, "dd": 1e-20}
SLOPES = {
    1: ((RatMat([[F(1, 2)]]), RatMat([[1]]), RatMat([[3]])),
        (RatMat([[F(-1, 3)]]), RatMat([[F(3, 4)]]), RatMat([[2]]))),
    2: ((RatMat([[1, 1], [0, 1]]), RatMat.identity(2),
         RatMat([[2, 1], [1, 1]])),
        (RatMat.identity(2) * F(1, 2), RatMat.identity(2),
         RatMat([[2, 1], [1, 2]]))),
}
# n=1, tau = 1/2 + i, D = 3, k = 1, xi = 1, z = 1/5 + 3/10 i
FOUND = (SLOPES[1][0], (1,), (1,), [(F(1, 5), F(3, 10))])


def seeded(n, seed):
    rng = random.Random(seed)
    tau_re, tau_im, d_mat = SLOPES[n][seed % 2]
    k = rng.choice(cosets(d_mat))
    xi = tuple(rng.randint(0, 1) for _ in range(n))
    z = [(F(rng.randint(-10, 10), 20), F(rng.randint(-10, 10), 20))
         for _ in range(n)]
    return (tau_re, tau_im, d_mat), k, xi, z


CASES = ([("found", FOUND)]
         + [(f"n1-{s}", seeded(1, s)) for s in range(10)]
         + [(f"n2-{s}", seeded(2, s)) for s in range(4)])


@pytest.mark.parametrize("context", ["double", "dd"])
@pytest.mark.parametrize("name,case", CASES, ids=[c[0] for c in CASES])
def test_theta_value_is_within_tail_and_rounding_allowance(name, case,
                                                           context):
    (tau_re, tau_im, d_mat), k, xi, z = case
    got = theta_dk(ThetaSpec(tau_re, tau_im, d_mat, k, xi, TOL[context]), z,
                   context=context)
    ref, abs_sum = reference.theta_reference(
        tau_re.rows, tau_im.rows, d_mat.rows, k, xi, z)
    error = reference.theta_error(got.value, ref)
    assert error <= got.certificate.tail_bound + ALLOW[context] * abs_sum
