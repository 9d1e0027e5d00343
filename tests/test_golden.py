"""Stored digests of the byte-stable ``lines`` report.

Comparing runs with each other cannot see a change that moves every run
the same way.  These tests pin the sha256 of the ``lines`` text of a few
fixed jobs instead; criterion 9's job and digest live in test_acceptance.
A change that alters a single reported byte (a value, a radius, a tail
bound) fails here and has to say why and record the new digest.
"""

import hashlib
from itertools import product

import mpmath
import pytest

from test_acceptance import DETERMINISM_DIGEST, DETERMINISM_JOB
from toruslift import floer, theta
from toruslift.config import parse_config
from toruslift.report import emit_report
from toruslift.runner import run
from toruslift.summation import get_context

THETA_N1 = """
[torus]
n = 1
tau = 1/2+i

[task theta]
d = 3
k = 1
xi = 1
z = 1/5+3/10i

[numeric]
tol = %s
precision = %s
"""

THETA_N2 = """
[torus]
n = 2
tau = i 0 ; 0 i

[task theta]
d = 2 1 ; 1 1
k = 1 0
z = 1/5+1/10i -3/10

[numeric]
tol = %s
precision = %s
"""

IDENTITY2 = """
[torus]
n = 1
tau = i

[task identity2]
tau_grid = 1/4+3/4i -3/10+7/10i
uv_grid = 1/10+9/20i 3/20-1/4i ; 0 1/5

[numeric]
tol = 1e-12
"""

USUB_N2 = """
[torus]
n = 2
tau = i 0 ; 0 i

[task usub]
d = 1 0 ; 0 1
k = 0 0
points = 1/5 -1/10 0 1/4 3/20 0 -1/5 1/10 ; 0 1/2 1/10 -3/20 1/4 1/5 0 -1/20

[numeric]
tol = 1e-9
"""

# product paths: the n=2 base sum (diagram, also run in dd), a doubled sum
# with two dual cosets and a sign bit, an n=1 doubled sum with Re(tau) != 0 in dd, and an
# n=2 theta series with Re(tau) != 0, a non-diagonal D and k != 0
DIAGRAM_N2 = """
[torus]
n = 2
tau = i 0 ; 0 i

[task diagram]
d = 1 0 ; 0 1
k_list = 0 0
xi = 1 1
grid = 1/5 -3/10 1/10 2/5 ; -2/5 1/4 -1/20 -1/5

[numeric]
tol = 1e-9
"""

# the diagram's first job whose fiber sum has three dual cosets
DIAGRAM_N1_D3 = """
[torus]
n = 1
tau = 1/2+i

[task diagram]
d = 3
k_list = 0 ; 1 ; 2
xi = 1
grid = 1/5 1/10 ; -3/10 2/5 ; 1/4 -1/5

[numeric]
tol = 1e-12
"""

USUB_N2_DIAG21 = """
[torus]
n = 2
tau = i 0 ; 0 i

[task usub]
d = 2 0 ; 0 1
k = 1 0
xi = 1 0
points = 7/10 -1/5 3/10 -1/4 1/5 1/10 -1/10 1/8

[numeric]
tol = 1e-9
"""

USUB_N1_DD = """
[torus]
n = 1
tau = 1/2+i

[task usub]
d = 3
k = 1
xi = 1
points = 2/5 -1/5 1/10 1/4

[numeric]
tol = 1e-20
precision = dd
"""

THETA_N2_RE = """
[torus]
n = 2
tau = 1/2+i 0 ; 0 1/2+i

[task theta]
d = 2 1 ; 1 2
k = 1 0
xi = 0 1
z = 1/5+1/10i -3/10+1/20i

[numeric]
tol = 1e-12
"""

# exact-layer jobs: a graph brane on a torus with a B-field, a fiber, a
# space-filling coisotropic T^4 brane and a flat T^4 brane that fails both
# validations (its lift is an error record)
GRAPH_TORUS = """
[torus]
n = 2
tau = 1/2+2i 3i ; i 1/2+i

[brane L]
kind = graph
d = 2 1 ; 3 1
phi = 1/4 -2/3
xi = 1 0
"""

T4_TORUS = """
[torus]
n = 2
tau = i 0 ; 0 i
"""

T4_BRANE = """
[brane C]
kind = coisotropic
n_mat = 0 1 2 3/2 ; -1 1 -5/2 -3/2 ; 0 5/2 -1/2 1/2 ; 1/2 1/2 1/2 0
offset = -1/4 1 3/4 1
phi = 0 -1/4 3/4 3/4
xi = 0 1 0 1
"""

FLAT_BRANE = """
[brane Z]
kind = coisotropic
n_mat = 0 0 0 0 ; 0 0 0 0 ; 0 0 0 0 ; 0 0 0 0
"""

FIBER_BRANE = """
[brane P]
kind = fiber
position = 1/3 -1/10
phi = -1/2 1/4
"""

# inadmissible slope matrices: each report is one error record whose detail
# names the first failed condition of brane.admissible_d and the caller's
# error class
THETA_ASYMMETRIC = """
[torus]
n = 2
tau = i 0 ; 0 i

[task theta]
d = 1 1 ; 0 1
z = 1/5+1/10i -3/10
"""

USUB_NOT_POSITIVE = """
[torus]
n = 1
tau = i

[task usub]
d = -1
points = 1/5 -1/10 0 1/4
"""

DIAGRAM_NOT_POSITIVE = """
[torus]
n = 1
tau = i

[task diagram]
d = -1
grid = 1/5 -1/10
"""

GRAPH_NONINTEGRAL_A = """
[torus]
n = 2
tau = i 1/2 ; 0 i

[brane L]
kind = graph
d = 1 0 ; 0 1
"""


def _tasks(kind, *branes):
    return "".join(f"\n[task {kind}]\nbrane = {b}\n" for b in branes)


JOBS = {
    "determinism": DETERMINISM_JOB,
    "theta-n1-double": THETA_N1 % ("1e-12", "double"),
    "theta-n1-dd": THETA_N1 % ("1e-20", "dd"),
    "theta-n2-double": THETA_N2 % ("1e-12", "double"),
    "theta-n2-dd": THETA_N2 % ("1e-20", "dd"),
    "identity2": IDENTITY2,
    "usub-n2": USUB_N2,
    "diagram-n2": DIAGRAM_N2,
    "diagram-n2-dd": DIAGRAM_N2.replace("tol = 1e-9", "precision = dd"),
    "diagram-n1-d3": DIAGRAM_N1_D3,
    "usub-n2-diag21": USUB_N2_DIAG21,
    "usub-n1-dd": USUB_N1_DD,
    "theta-n2-re": THETA_N2_RE,
    "lift-graph": GRAPH_TORUS + _tasks("lift", "L"),
    "lift-fiber": T4_TORUS + FIBER_BRANE + _tasks("lift", "P"),
    "lift-t4": T4_TORUS + T4_BRANE + FLAT_BRANE + _tasks("lift", "C", "Z"),
    "validate-graph": GRAPH_TORUS + _tasks("validate", "L"),
    "validate-coisotropic":
        T4_TORUS + T4_BRANE + FLAT_BRANE + _tasks("validate", "C", "Z"),
    "twist-graph": GRAPH_TORUS + _tasks("twist", "L"),
    "upart-self-t4": T4_TORUS + T4_BRANE + _tasks("upart-self", "C"),
    "theta-asymmetric": THETA_ASYMMETRIC,
    "usub-not-positive": USUB_NOT_POSITIVE,
    "diagram-not-positive": DIAGRAM_NOT_POSITIVE,
    "lift-graph-nonintegral-a": GRAPH_NONINTEGRAL_A + _tasks("lift", "L"),
}

# sha256 of each job's ``lines`` report
GOLDEN = {
    "determinism": DETERMINISM_DIGEST,
    "identity2":
        "27953755207bdac562a4f566d66b44816393d36433f24c7bea11318939aae054",
    "theta-n1-dd":
        "5c4871bafba5e27579b503c1bac91585f6be98c7a7f330a0d973e737fb265dac",
    "theta-n1-double":
        "e83ab1aa1520d56a661a97957c872be00b81235add97a1e719d14c88ebba03f2",
    "theta-n2-dd":
        "d844a83c4ad1fe06835b80d96b661c5de38f59f1a5c8646538dca67f022df927",
    "theta-n2-double":
        "be94687092b6c544d93f0adb4f27b973a487d3edd4f35a60114f718d829d6073",
    "usub-n2":
        "45e8ebb62122087f86da5fe5e1811d9f5b2ba8fb2565f23a5e1edb47385dd0d6",
    "diagram-n2":
        "6acc519db4590e4e1debe1d9794e794a3043faa48e3d5b4160dfb4865f70522c",
    "diagram-n2-dd":
        "9ca0109f872ca0dc6d5773c4383a3ffe2d9038f4add586be81e654cc189b2e1e",
    "diagram-n1-d3":
        "be84ad87def54d5e4cf1318dd0a257e212dc891b55371e506fba90d80c22b315",
    "usub-n2-diag21":
        "e5d3d13e96320c7ee7bb908be0a6e6e518235c250b337041c209a7a1bb0b4a62",
    "usub-n1-dd":
        "abff98fd4c0c5393e9ad0ffffed8ea77445bdd816e2d590df2f62d200b52d889",
    "theta-n2-re":
        "b6ff4b470c78d44ee23ae29fc297b424569202d0cd5e08a23dd8b4f6fc28a0c4",
    "lift-fiber":
        "fe0a3deaa1936f4c957a3d129227fe28440cc6e918093b1f525db59a259b2594",
    "lift-graph":
        "44ba13aef8c09957b47f28c5cd921eaec01410b7335af3c777e4092efa613214",
    "lift-t4":
        "fc0bca0d3bbfc3a83333aab107023a5e50dc76975554415fa680383d52824e69",
    "twist-graph":
        "cdb3c19c98234298435bc1ca01d2844aac3fe694aca3db9ba7c7aab1859b9fb3",
    "upart-self-t4":
        "5c535c4429410e028ecfc6c32a4481a46b2888fc1b1a989c166d16d91de81d7d",
    "validate-coisotropic":
        "7a12312626939c860ea8c2dedbf26b11232538c50d7248a42312dfc233fc7cd9",
    "validate-graph":
        "d6b8f7b3514652c615ac563cddd7ac44726f8cf3480150354b6b36ffaba7a97e",
    "theta-asymmetric":
        "2dd433d0c8514e37a4fa73d61be6d8b59f2e64ec55886cc29e18bfee13f79865",
    "usub-not-positive":
        "a604d985171641a654d0bd7efe05774c2e440e190a53e91ddfbbb41bbd972541",
    "diagram-not-positive":
        "01976660332714f5acb0a3806ea8b1d65dc14051e46d44ab31a3ec624841838b",
    "lift-graph-nonintegral-a":
        "2ad38115a6f01356c4c771ab202c35d71ff11168575eed3ad9b5a6a40a101dd6",
}


def lines_digest(text: str) -> str:
    report = emit_report(run(parse_config(text)), "lines")
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(JOBS))
def test_lines_report_matches_stored_digest(name):
    got = lines_digest(JOBS[name])
    assert got == GOLDEN[name], f"job {name!r}: lines digest is {got}"


@pytest.mark.parametrize("name", sorted(JOBS))
def test_lines_report_does_not_depend_on_term_order(name, monkeypatch):
    # every sum is rounded once from its exact value, so walking the cube in
    # the reverse order must not move a byte: every prefix coordinate, the
    # pruned last one included, runs from its top down, and each line from
    # its top
    walked, spans, boxes = [], [], []
    span, lattice_sum = theta._span, theta.lattice_sum

    def reversed_span(lo, hi):
        spans.append((lo, hi, boxes[-1]))
        return span(lo, hi)[::-1]

    def recorded_sum(ctx, box, *args):
        boxes.append(box)
        return lattice_sum(ctx, box, *args)

    monkeypatch.setattr(theta, "_span", reversed_span)
    monkeypatch.setattr(theta, "lattice_sum", recorded_sum)
    monkeypatch.setattr(floer, "lattice_sum", recorded_sum)
    for ctx in (get_context("double"), get_context("dd")):
        def line_terms(*forms, original=type(ctx).line_terms, ctx=ctx):
            add, close = original(ctx, *forms)

            def add_reversed(ts, *line):
                walked.append(ts[::-1])
                return add(ts[::-1], *line)

            return add_reversed, close

        monkeypatch.setattr(ctx, "line_terms", line_terms)
    got = lines_digest(JOBS[name])
    assert got == GOLDEN[name], f"job {name!r}: a reversed walk gives {got}"
    # the jobs without a lattice sum: exact algebra, or an error first
    summed = not name.startswith(("lift", "validate", "twist", "upart")) \
        and name not in ("theta-asymmetric", "usub-not-positive",
                         "diagram-not-positive")
    assert any(len(ts) > 1 for ts in walked) == summed
    # the jobs with a sum over two or more dimensions walk prefixes, and
    # their last prefix coordinate is pruned to a part of the box, but for
    # two jobs whose 2-D sums are centred near 0: there the box is the
    # ellipsoid's own extent
    prefixed = summed and not name.startswith("theta-n1")
    assert any(lo < hi for lo, hi, _ in spans) == prefixed
    pruned = any(lo != -hi or hi not in box for lo, hi, box in spans)
    assert pruned == (prefixed and name not in ("identity2", "usub-n1-dd"))


@pytest.mark.parametrize("name", sorted(JOBS))
def test_lines_report_does_not_depend_on_coset_order(name, monkeypatch):
    # the usub left side is one correctly rounded sum over the dual cosets,
    # so walking them in the reverse order must not move a byte
    original = floer.cosets
    monkeypatch.setattr(floer, "cosets", lambda m: original(m)[::-1])
    got = lines_digest(JOBS[name])
    assert got == GOLDEN[name], f"job {name!r}: reversed cosets give {got}"


# every certified sum of the jobs with one, against a 200-bit evaluation
SUMMED = [name for name in sorted(JOBS) if not name.startswith(
    ("lift", "validate", "twist", "upart")) and name not in (
    "theta-asymmetric", "usub-not-positive", "diagram-not-positive")]
MP200 = mpmath.mp.clone()
MP200.prec = 200
# the reference keeps the points of decay up to limit + WIDEN: each point
# it leaves out is below e^{-pi (limit + 8)}, some 1e-11 of the largest
# term the certified sum leaves out
WIDEN = 8
ROUNDING = {"double": 2.0 ** -40, "dd": 2.0 ** -90}


def reference_sum(box, limit, decay, turns):
    """(sum, sum of |terms|) at 200 bits over the points of the box two
    wider than ``box`` whose decay is at most limit + WIDEN, each exponent
    formed exactly."""
    mp = MP200
    (d_den, d_quad, d_lin, d_const), (t_den, t_quad, t_lin, t_const) = \
        decay, turns
    dim = len(box)
    top = (limit + WIDEN) * d_den
    total, size = mp.mpc(0), mp.mpf(0)
    for w in product(*(range(-b - 2, b + 3) for b in box)):
        dv = d_const + sum(x * y for x, y in zip(d_lin, w)) + sum(
            d_quad[i][j] * w[i] * w[j] for i in range(dim)
            for j in range(i, dim))
        if dv > top:
            continue
        tv = t_const + sum(x * y for x, y in zip(t_lin, w)) + sum(
            t_quad[i][j] * w[i] * w[j] for i in range(dim)
            for j in range(i, dim))
        mag = mp.exp(-mp.pi * mp.mpf(dv) / d_den)
        total += mag * mp.expjpi(2 * mp.mpf(tv % t_den) / t_den)
        size += mag
    return total, size


@pytest.mark.parametrize("name", SUMMED)
def test_every_sum_lies_within_its_tail_bound(name, monkeypatch):
    # each value of each certified sum of the job, double or dd, is within
    # its certificate's tail bound (plus a rounding allowance) of the sum
    # at 200 bits
    sums, certs = [], []
    truncation_radius, lattice_sum = theta.truncation_radius, \
        theta.lattice_sum

    def certified(*args, **kwargs):
        certs.append(truncation_radius(*args, **kwargs))
        return certs[-1]

    def summed(ctx, box, limit, decay, turns):
        value = lattice_sum(ctx, box, limit, decay, turns)
        assert (certs[-1].box, certs[-1].limit) == (tuple(box), limit)
        sums.append((ctx.name, certs[-1], decay, turns, value))
        return value

    for module in (theta, floer):
        monkeypatch.setattr(module, "truncation_radius", certified)
        monkeypatch.setattr(module, "lattice_sum", summed)
    lines_digest(JOBS[name])
    assert sums
    for context, cert, decay, turns, value in sums:
        ref, size = reference_sum(cert.box, cert.limit, decay, turns)
        error = abs(MP200.mpc(value) - ref)
        assert error <= cert.tail_bound + ROUNDING[context] * size, (
            name, context, float(error), cert.tail_bound)
