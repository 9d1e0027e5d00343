"""Seeded job generators for the three benchmark workloads.

An operation is one single-task toruslift config job.  A workload hands out
*rounds*: lists with the same make-up (the same job kinds, in the same
order) every time, whose parameters are drawn from a seeded generator.  A
run executes whole rounds, so every run attempts the same mix whatever its
seed and length.  The population of each job kind is chosen so that its
cost varies little from draw to draw: the seed changes phases, shifts and
evaluation points, not the size of the sums.

Warm-up jobs come from a fixed seed and from a population disjoint from
the timed one (other tori, other Gram matrices), so warming up fills no
program cache with an input that is about to be timed.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from itertools import product

WORKLOADS = ("lift", "theta", "products")



@dataclass
class Op:
    """One job: its label (job kind within the workload), config text and
    the facts the checker needs to judge the output."""

    label: str
    task: str
    text: str
    facts: dict = field(default_factory=dict)


# -- config text ------------------------------------------------------------------


def fmt_rat(x) -> str:
    return str(F(x))


def fmt_cplx(re, im) -> str:
    re, im = F(re), F(im)
    if im == 0:
        return fmt_rat(re)
    tail = "i" if im == 1 else "-i" if im == -1 else f"{fmt_rat(im)}i"
    if re == 0:
        return tail
    return f"{fmt_rat(re)}{tail}" if tail.startswith("-") else f"{fmt_rat(re)}+{tail}"


def fmt_vec(v) -> str:
    return " ".join(fmt_rat(x) for x in v)


def fmt_mat(rows) -> str:
    return " ; ".join(fmt_vec(r) for r in rows)


def fmt_cmat(re_rows, im_rows) -> str:
    return " ; ".join(" ".join(fmt_cplx(a, b) for a, b in zip(ra, ri))
                      for ra, ri in zip(re_rows, im_rows))


def fmt_cvec(pairs) -> str:
    return " ".join(fmt_cplx(a, b) for a, b in pairs)


def _torus(re_rows, im_rows) -> str:
    return f"[torus]\nn = {len(re_rows)}\ntau = {fmt_cmat(re_rows, im_rows)}\n"


def _numeric(tol, precision="double") -> str:
    return f"[numeric]\ntol = {tol!r}\nprecision = {precision}\n"


def _section(header, **keys) -> str:
    body = "".join(f"{k} = {v}\n" for k, v in keys.items())
    return f"[{header}]\n{body}"


def zeros(n):
    return tuple(tuple(0 for _ in range(n)) for _ in range(n))


def eye(n, scale=1):
    return tuple(tuple(F(scale) if i == j else 0 for j in range(n))
                 for i in range(n))


def transpose(rows):
    return tuple(zip(*rows))


def _frac(rng, lo, hi, den=20):
    """A rational with denominator ``den`` in [lo, hi] (endpoints included)."""
    return F(rng.randint(round(lo * den), round(hi * den)), den)


def _bits(rng, n):
    return tuple(rng.randint(0, 1) for _ in range(n))


# -- lift: exact algebra only ---------------------------------------------------------

# every nonsingular integer 2x2 slope with |entries| <= 3
GRAPH_SLOPES = tuple(
    ((a, b), (c, d)) for a, b, c, d in product(range(-3, 4), repeat=4)
    if a * d - b * c != 0
)


def t4_curvature(rng, scale=1):
    """F = [[pJ, G], [-G^T, sJ]] with J = [[0, 1], [-1, 0]], tr G = 0 and
    det G = 1 + ps: the closed-form family of space-filling coisotropic
    branes on T^4 with tau = i I (scaled by ``scale`` for tau = scale i I)."""
    p, s, a = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)
    b = rng.choice((1, -1))
    c = -(a * a + 1 + p * s) // b
    rows = ((0, p, a, b), (-p, 0, c, -a), (-a, -c, 0, s), (-b, a, -s, 0))
    return tuple(tuple(scale * x for x in r) for r in rows)


def connection_for(f, rng):
    """A connection matrix N with N^T - N = F: -F/2 plus a symmetric part."""
    d = len(f)
    sym = [[F(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            sym[i][j] = sym[j][i] = F(rng.randint(-2, 2), 2)
    return tuple(tuple(F(-f[i][j], 2) + sym[i][j] for j in range(d))
                 for i in range(d))


class LiftWorkload:
    """Rounds of 15 jobs: 11 lifts (6 graph, 3 coisotropic T^4, 2 fiber),
    2 validates, 1 twist and 1 upart-self.

    Graph branes take their slope D from a seeded cyclic order of all 2,112
    nonsingular slopes with |entries| <= 3, each on its own torus tau = i D^T,
    so no graph torus repeats until the cycle wraps (far past the 64-entry
    double_torus cache).  Coisotropic and fiber branes all sit on tau = i I.
    """

    def __init__(self, seed, warmup=False):
        self.rng = random.Random(f"lift:{seed}")
        self.warmup = warmup
        slopes = list(GRAPH_SLOPES)
        self.rng.shuffle(slopes)
        self.slopes = slopes
        self.pos = 0

    def _slope(self):
        d = self.slopes[self.pos % len(self.slopes)]
        self.pos += 1
        if self.warmup:
            # an entry of 4 keeps warm-up tori out of the timed population
            return ((4, d[0][1]), (0, d[1][1] or 1))
        return d

    def _base_scale(self):
        return 2 if self.warmup else 1

    def _graph(self, task):
        rng = self.rng
        d = self._slope()
        text = (_torus(zeros(2), transpose(d))
                + _section("brane L", kind="graph", d=fmt_mat(d),
                           phi=fmt_vec(_frac(rng, -1, 1, 4) for _ in range(2)),
                           xi=fmt_vec(_bits(rng, 2)))
                + _section(f"task {task}", brane="L"))
        return Op(f"{task}.graph", task, text,
                  {"n": 2, "tau": (zeros(2), transpose(d))})

    def _coisotropic(self, task):
        rng = self.rng
        scale = self._base_scale()
        f = t4_curvature(rng, scale)
        n_mat = connection_for(f, rng)
        text = (_torus(zeros(2), eye(2, scale))
                + _section("brane C", kind="coisotropic", n_mat=fmt_mat(n_mat),
                           offset=fmt_vec(_frac(rng, -1, 1, 4) for _ in range(4)),
                           phi=fmt_vec(_frac(rng, -1, 1, 4) for _ in range(4)),
                           xi=fmt_vec(_bits(rng, 4)))
                + _section(f"task {task}", brane="C"))
        return Op(f"{task}.coisotropic", task, text,
                  {"n": 2, "tau": (zeros(2), eye(2, scale))})

    def _fiber(self, task):
        rng = self.rng
        scale = self._base_scale()
        text = (_torus(zeros(2), eye(2, scale))
                + _section("brane P", kind="fiber",
                           position=fmt_vec(_frac(rng, 0, 1) for _ in range(2)),
                           phi=fmt_vec(_frac(rng, -1, 1, 4) for _ in range(2)))
                + _section(f"task {task}", brane="P"))
        return Op(f"{task}.fiber", task, text,
                  {"n": 2, "tau": (zeros(2), eye(2, scale))})

    def round(self):
        return ([self._graph("lift") for _ in range(6)]
                + [self._coisotropic("lift") for _ in range(3)]
                + [self._fiber("lift") for _ in range(2)]
                + [self._graph("validate"), self._coisotropic("validate"),
                   self._graph("twist"), self._coisotropic("upart-self")])


# -- theta: small certified sums --------------------------------------------------------

N1_RE = (F(0), F(1, 2), F(-1, 3), F(1, 4))
N1_IM = (F(1), F(3, 4))
N2_RE = (F(0), F(1, 2), F(-1, 2))
# symmetric positive-definite slopes with least eigenvalue 1 on Im tau = I
N2_D = (((1, 0), (0, 1)), ((2, 1), (1, 2)), ((2, -1), (-1, 2)),
        ((2, 0), (0, 1)), ((1, 0), (0, 2)))
# n=1 warm-up Grams 5/2 d stay clear of the timed Grams Im(tau) d
WARMUP_IM = F(5, 2)
# fresh Grams: d = 1 on Im tau = 1 + j/10007, one j per job from a seeded
# cyclic order, so no Gram repeats within a run or meets another job's
FRESH_IM = tuple(1 + F(j, 10007) for j in range(1, 10007))
TOL_DOUBLE = 1e-12
TOL_DD = 1e-20


class ThetaWorkload:
    """Rounds of 18 jobs: 16 theta jobs (three n=1 specs and one n=2 spec
    at three seeded points each in double; two n=1 specs on fresh Grams at
    one point each in double; one more n=1 and one more n=2 spec at one
    point in dd) and one single-sample identity1 and identity2.  The median
    job is an n=1 theta job.

    Timed n=1 Grams are Im(tau) d with Im tau in {1, 3/4} and d in {1,2,3},
    or the fresh Grams above; timed n=2 Grams are the five slopes above on
    Im tau = I.  Warm-up uses Im tau = 5/2 (n=1) and 2 I (n=2), so its
    Grams never occur in timed jobs.
    """

    def __init__(self, seed, warmup=False):
        self.rng = random.Random(f"theta:{seed}")
        self.warmup = warmup
        fresh = list(FRESH_IM)
        self.rng.shuffle(fresh)
        self.fresh = fresh
        self.pos = 0

    def _fresh_im(self):
        im = self.fresh[self.pos % len(self.fresh)]
        self.pos += 1
        return im

    def _spec(self, n, fresh=False):
        rng = self.rng
        if fresh:
            im = WARMUP_IM if self.warmup else self._fresh_im()
            return {"tau": (((rng.choice(N1_RE),),), ((im,),)),
                    "d": ((1,),), "k": (0,), "xi": _bits(rng, 1)}
        if n == 1:
            im = WARMUP_IM if self.warmup else rng.choice(N1_IM)
            d = rng.randint(1, 3)
            return {"tau": (((rng.choice(N1_RE),),), ((im,),)),
                    "d": ((d,),), "k": (rng.randint(0, d - 1),),
                    "xi": _bits(rng, 1)}
        c = rng.choice(N2_RE)
        d = rng.choice(N2_D)
        return {"tau": (eye(2, c) if c else zeros(2),
                        eye(2, 2 if self.warmup else 1)),
                "d": d, "k": _bits(rng, 2), "xi": _bits(rng, 2)}

    def _point(self, n):
        rng = self.rng
        return tuple((_frac(rng, -0.5, 0.5), _frac(rng, -0.5, 0.5))
                     for _ in range(n))

    def _theta(self, spec, precision, kind=None):
        z = self._point(len(spec["d"]))
        tol = TOL_DD if precision == "dd" else TOL_DOUBLE
        text = (_torus(*spec["tau"])
                + _section("task theta", d=fmt_mat(spec["d"]),
                           k=fmt_vec(spec["k"]), xi=fmt_vec(spec["xi"]),
                           z=fmt_cvec(z))
                + _numeric(tol, precision))
        facts = dict(spec, z=z, precision=precision)
        label = f"theta.n{len(spec['d'])}.{kind or precision}"
        return Op(label, "theta", text, facts)

    def _tau1(self):
        rng = self.rng
        im = WARMUP_IM if self.warmup else rng.choice(N1_IM)
        return rng.choice(N1_RE), im

    def _identity(self, which):
        b, a = self._tau1()
        if which == 1:
            grid = _section("task identity1", tau_grid=fmt_cplx(b, a),
                            z_grid=fmt_cvec(self._point(1)))
        else:
            u, v = self._point(1)[0], self._point(1)[0]
            grid = _section("task identity2", tau_grid=fmt_cplx(b, a),
                            uv_grid=fmt_cvec((u, v)))
        text = _torus(((0,),), ((1,),)) + grid + _numeric(TOL_DOUBLE)
        return Op(f"identity{which}", f"identity{which}", text, {})

    def round(self):
        ops = []
        for n in (1, 1, 1, 2):
            spec = self._spec(n)
            ops += [self._theta(spec, "double") for _ in range(3)]
        ops += [self._theta(self._spec(1, fresh=True), "double", "fresh")
                for _ in range(2)]
        for n in (1, 2):
            ops.append(self._theta(self._spec(n), "dd"))
        ops += [self._identity(1), self._identity(2)]
        return ops


# -- products: doubled Floer product sums -------------------------------------------------

PRODUCT_TOL = 1e-9
# radius-stable boxes: every centre shift of the doubled sums stays <= 9/20,
# where the certified radius does not change at tol 1e-9 (4 for D = I and
# diag(2, 1), 7 for the unimodular slopes), so the seed moves phases and
# sample points but not term counts
N2_DIAGONAL_D = {"I": ((1, 0), (0, 1)), "diag21": ((2, 0), (0, 1)),
                 "diag12": ((1, 0), (0, 2))}
# det 1, least eigenvalue (3 - sqrt 5)/2: one coset, 15^4 = 50,625 terms
N2_UNIMODULAR_D = (((1, 1), (1, 2)), ((2, 1), (1, 1)),
                   ((1, -1), (-1, 2)), ((2, -1), (-1, 1)))
N1_PRODUCT_RE = (F(0), F(1, 2), F(-1, 3))
# warm-up slope outside the timed d in {1, 2, 3}, so no coset table is shared
WARMUP_D = 4


class ProductsWorkload:
    """Rounds of 11 jobs: seven n=2 jobs on tau = i I (usub on a unimodular
    D once, on D = I four times, on diag(2,1) or diag(1,2) once; one diagram
    on D = I) and four n=1 jobs (usub with d = 1, 2, 3 and one diagram with
    d in {2, 3}).  The median job is a D = I usub.

    For diagonal D the characteristic centres p = D^{-1} k and the dual
    centres q = D^{-T} l are known in closed form; unimodular D has the
    single coset k = l = 0.  The sample points keep every centre shift
    within 9/20.  Warm-up runs only n=1 jobs with d = 4 on tau = 2i, which
    no timed job uses.
    """

    def __init__(self, seed, warmup=False):
        self.rng = random.Random(f"products:{seed}")
        self.warmup = warmup

    def _n2_point(self, d, k):
        """(r, phi, theta_hat, kappa) for diagonal D (or unimodular D with
        k = 0) with |r - p| <= 9/20 and |theta_hat - q| <= 9/20 for every
        dual coset q."""
        rng = self.rng
        r, th = [], []
        for i in range(2):
            di = d[i][i] if d[0][1] == d[1][0] == 0 else 1
            r.append(F(k[i], di) + _frac(rng, -0.45, 0.45))
            # q_i runs over {0, 1/di, ..., (di-1)/di}
            th.append(_frac(rng, (di - 1) / di - 0.45, 0.45))
        phi = [_frac(rng, -0.5, 0.5) for _ in range(2)]
        kappa = [_frac(rng, -0.25, 0.25) for _ in range(2)]
        return r + phi + th + kappa

    def _usub2(self, key):
        rng = self.rng
        if key == "unimodular":
            d, k = rng.choice(N2_UNIMODULAR_D), (0, 0)
        else:
            d = N2_DIAGONAL_D[key]
            k = tuple(rng.randint(0, d[i][i] - 1) for i in range(2))
        xi = _bits(rng, 2)
        point = self._n2_point(d, k)
        text = (_torus(zeros(2), eye(2))
                + _section("task usub", d=fmt_mat(d), k=fmt_vec(k),
                           xi=fmt_vec(xi), points=fmt_vec(point))
                + _numeric(PRODUCT_TOL))
        return Op(f"usub.n2.{key}", "usub", text, {})

    def _diagram2(self):
        rng = self.rng
        d = N2_DIAGONAL_D["I"]
        xi = _bits(rng, 2)
        grid = [[_frac(rng, -0.45, 0.45) for _ in range(4)] for _ in range(2)]
        text = (_torus(zeros(2), eye(2))
                + _section("task diagram", d=fmt_mat(d), k_list="0 0",
                           xi=fmt_vec(xi), grid=fmt_mat(grid))
                + _numeric(PRODUCT_TOL))
        return Op("diagram.n2", "diagram", text,
                  {"tau": (zeros(2), eye(2)), "d": d, "xi": xi,
                   "tol": PRODUCT_TOL})

    def _tau1(self):
        im = F(2) if self.warmup else F(1)
        return ((self.rng.choice(N1_PRODUCT_RE),),), ((im,),)

    def _usub1(self, d):
        rng = self.rng
        tau = self._tau1()
        k = rng.randint(0, d - 1)
        point = [_frac(rng, -0.45, 0.45) for _ in range(4)]
        text = (_torus(*tau)
                + _section("task usub", d=str(d), k=str(k),
                           xi=str(rng.randint(0, 1)), points=fmt_vec(point))
                + _numeric(PRODUCT_TOL))
        return Op(f"usub.n1.d{d}", "usub", text, {})

    def _diagram1(self):
        rng = self.rng
        tau = self._tau1()
        d = WARMUP_D if self.warmup else rng.randint(2, 3)
        xi = (rng.randint(0, 1),)
        grid = [[_frac(rng, -0.45, 0.45) for _ in range(2)] for _ in range(2)]
        text = (_torus(*tau)
                + _section("task diagram", d=str(d),
                           k_list=str(rng.randint(0, d - 1)), xi=fmt_vec(xi),
                           grid=fmt_mat(grid))
                + _numeric(PRODUCT_TOL))
        return Op("diagram.n1", "diagram", text,
                  {"tau": tau, "d": ((d,),), "xi": xi, "tol": PRODUCT_TOL})

    def round(self):
        if self.warmup:
            return [self._usub1(WARMUP_D), self._diagram1()]
        return ([self._usub2("unimodular")]
                + [self._usub2("I") for _ in range(4)]
                + [self._usub2(self.rng.choice(("diag21", "diag12"))),
                   self._diagram2()]
                + [self._usub1(d) for d in (1, 2, 3)]
                + [self._diagram1()])


def make(workload, seed, warmup=False):
    cls = {"lift": LiftWorkload, "theta": ThetaWorkload,
           "products": ProductsWorkload}[workload]
    return cls(seed, warmup)
