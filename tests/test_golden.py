"""Stored digests of the byte-stable ``lines`` report.

Comparing runs with each other cannot see a change that moves every run
the same way.  These tests pin the sha256 of the ``lines`` text of a few
fixed jobs instead; criterion 9's job and digest live in test_acceptance.
A change that alters a single reported byte (a value, a radius, a tail
bound) fails here and has to say why and record the new digest.
"""

import hashlib

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
        "f68cd844116ebe9d45a3bac22b997e63c111b159b73317db6786ee975a4c797b",
    "theta-n1-dd":
        "b39afcb3780103956fb5a19ab1178b9bb352a9b624659fbec53a6d99f42e23a8",
    "theta-n1-double":
        "22967319b0388165721d02f127d3085aa697fac11bbb8c32ff6d3749793bfe3f",
    "theta-n2-dd":
        "f3a32dd36ae98c1e5ea02c626eb5e48c4c1a1ebf5757de2e1b14dd13867b774f",
    "theta-n2-double":
        "64f39958cce0ac500e8a13851867c393a5762db302ce84f74e450c06b94b6b68",
    "usub-n2":
        "4b46058f19b37dc42547c46bc86c76e2cfb89299640da5c235830e5d185bff57",
    "diagram-n2":
        "5a57533fe4c06d92791c1e4152a4dd219aa1d12bf15f105e1bbf62abff19794d",
    "diagram-n2-dd":
        "48aacfeb0e55f0da1d668750c9e026c47647a443a909fcfd33b9e60397018ab5",
    "diagram-n1-d3":
        "bf3d692b9b7775b75e6aa30e3e8b9e8a84197a1d937e9ee37aa620531125697d",
    "usub-n2-diag21":
        "e2d43f2b522423dde0731f540b9ec3ff405d1ef5a9abcafe09006a590090a893",
    "usub-n1-dd":
        "cd42975b09ad473efbd100a2571453faff2b862cab93efb5b35d9d58a31f2117",
    "theta-n2-re":
        "e237420833cd194d35f619cc084d24693bc60720da4da9484e73f0968f0f22aa",
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
    walked, spans, radii = [], [], []
    span, lattice_sum = theta._span, theta.lattice_sum

    def reversed_span(lo, hi):
        spans.append((lo, hi, radii[-1]))
        return span(lo, hi)[::-1]

    def recorded_sum(ctx, dim, radius, *forms):
        radii.append(radius)
        return lattice_sum(ctx, dim, radius, *forms)

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
    # their last prefix coordinate is pruned to a part of the span, but for
    # two jobs whose small doubled n = 1 sums have bands over the whole cube
    prefixed = summed and not name.startswith("theta-n1")
    assert any(lo < hi for lo, hi, _ in spans) == prefixed
    pruned = any((lo, hi) != (-r, r) for lo, hi, r in spans)
    assert pruned == (prefixed and name not in ("determinism", "usub-n1-dd"))


@pytest.mark.parametrize("name", sorted(JOBS))
def test_lines_report_does_not_depend_on_coset_order(name, monkeypatch):
    # the usub left side is one correctly rounded sum over the dual cosets,
    # so walking them in the reverse order must not move a byte
    original = floer.cosets
    monkeypatch.setattr(floer, "cosets", lambda m: original(m)[::-1])
    got = lines_digest(JOBS[name])
    assert got == GOLDEN[name], f"job {name!r}: reversed cosets give {got}"
