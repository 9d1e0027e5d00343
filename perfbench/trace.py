"""Span tracing of toruslift's layers, installed from outside the package.

``install`` wraps each layer's public functions and replaces every module
binding of the original (``from .x import f`` copies included), so calls
made inside the package are traced too.  A span records its name, start,
end, parent span and operation; spans stay in memory and are written out
when the run ends.  A span's self time is its duration minus its child
spans' durations.  ``metrics`` turns the spans into the per-layer figures
named in BENCHMARK.json.
"""

import json
import sys
from time import perf_counter

# span name -> (module, attribute); DoubleContext/DDContext.sum are methods
TARGETS = {
    "brane.lift": ("toruslift.brane", "lift"),
    "brane.validate_lagrangian": ("toruslift.brane", "validate_lagrangian"),
    "brane.validate_coisotropic": ("toruslift.brane", "validate_coisotropic"),
    "brane.verify_lift_lagrangian": ("toruslift.brane", "verify_lift_lagrangian"),
    "brane.verify_lift_complex": ("toruslift.brane", "verify_lift_complex"),
    "brane.twist_brane": ("toruslift.brane", "twist_brane"),
    "torus.double_torus": ("toruslift.torus", "double_torus"),
    "lattice.row_hnf": ("toruslift.lattice", "row_hnf"),
    "lattice.column_hnf": ("toruslift.lattice", "column_hnf"),
    "lattice.smith": ("toruslift.lattice", "smith"),
    "lattice.int_kernel": ("toruslift.lattice", "int_kernel"),
    "lattice.saturate_columns": ("toruslift.lattice", "saturate_columns"),
    "lattice.cosets": ("toruslift.lattice", "cosets"),
    "lattice.coset_reduce": ("toruslift.lattice", "coset_reduce"),
    "lattice.solve_integer_system": ("toruslift.lattice", "solve_integer_system"),
    "theta.truncation_radius": ("toruslift.theta", "truncation_radius"),
    "theta.min_eigenvalue_bound": ("toruslift.theta", "min_eigenvalue_bound"),
    "theta.theta_dk": ("toruslift.theta", "theta_dk"),
    "theta.pair_sum": ("toruslift.theta", "_double_sum"),
    "theta.gaussian_theta_lhs": ("toruslift.theta", "gaussian_theta_lhs"),
    "theta.verify_identity_1": ("toruslift.theta", "verify_identity_1"),
    "theta.verify_identity_2": ("toruslift.theta", "verify_identity_2"),
    "floer.mu2_double": ("toruslift.floer", "mu2_double"),
    "floer.mu2_base": ("toruslift.floer", "mu2_base"),
    "floer.verify_usub": ("toruslift.floer", "verify_usub"),
    "floer.verify_main_diagram": ("toruslift.floer", "verify_main_diagram"),
    "floer.u_part_self": ("toruslift.floer", "u_part_self"),
    "config.parse_config": ("toruslift.config", "parse_config"),
    "runner.run": ("toruslift.runner", "run"),
    "report.emit_report": ("toruslift.report", "emit_report"),
}
SUM_METHODS = {"summation.sum.double": "DoubleContext",
               "summation.sum.dd": "DDContext"}

NAME, START, END, PARENT, OP, INFO = range(6)


def points_examined(dim, radius):
    """Points iter_ball generates before its shell filter: every shell s >= 1
    walks the whole (2s+1)^dim cube."""
    return 1 + sum((2 * s + 1) ** dim for s in range(1, radius + 1))


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.points = 0
        self.counted = 0

    def wrap(self, name, fn, info=None, pre=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            before = pre() if pre else None
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if info:
                rec[INFO] = info(args, kwargs, out, before)
            return out

        return traced

    def count_ball(self, fn):
        def counted(dim, radius):
            self.counted += 1
            self.points += points_examined(dim, radius)
            return fn(dim, radius)

        return counted

    def root(self, name):
        """Open a span for one operation; returns its closer."""
        self.op += 1
        rec = [name, 0.0, 0.0, -1, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()

        def close():
            rec[END] = perf_counter()
            self.stack.pop()

        return close


def _rebind(orig, new):
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("toruslift") and mod is not None:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)


def _cert_info(args, kwargs, out, before):
    gram = args[0] if args else kwargs["q_form"]
    key = tuple(gram[i, j] for i in range(gram.nrows) for j in range(gram.ncols))
    return (key, out.radius)


def install(tracer):
    """Wrap every target and count iter_ball's points, in place."""
    import importlib

    for name, (mod_name, attr) in TARGETS.items():
        orig = getattr(importlib.import_module(mod_name), attr)
        info = pre = None
        if name == "theta.truncation_radius":
            info = _cert_info
        elif name == "theta.theta_dk":
            info = lambda a, k, out, b: k.get("context", "double")
        elif name == "torus.double_torus":
            pre = lambda f=orig: f.cache_info().misses
            info = lambda a, k, out, b, f=orig: f.cache_info().misses > b
        _rebind(orig, tracer.wrap(name, orig, info=info, pre=pre))

    summation = importlib.import_module("toruslift.summation")
    for name, cls_name in SUM_METHODS.items():
        cls = getattr(summation, cls_name)
        cls.sum = tracer.wrap(name, cls.sum,
                              info=lambda a, k, out, b: len(a[1]))

    theta = importlib.import_module("toruslift.theta")
    _rebind(theta.iter_ball, tracer.count_ball(theta.iter_ball))


def calibrate(reps=20000):
    """Seconds the tracer adds per span and per counted call, measured by
    timing a wrapped no-op against the bare no-op."""

    def noop(*args, **kwargs):
        return None

    def ball(dim, radius):
        return None

    probe = Tracer()
    wrapped = probe.wrap("calibration", noop)
    counted = probe.count_ball(ball)
    best = []
    for fn, args in ((noop, ()), (wrapped, ()), (ball, (1, 0)), (counted, (1, 0))):
        times = []
        for _ in range(5):
            t = perf_counter()
            for _ in range(reps):
                fn(*args)
            times.append((perf_counter() - t) / reps)
            probe.spans.clear()
        best.append(min(times))
    return max(best[1] - best[0], 0.0), max(best[3] - best[2], 0.0)


def self_times(spans):
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def metrics(tracer, ops, span_cost, count_cost):
    """Per-layer figures from the recorded spans (see BENCHMARK.json)."""
    spans = tracer.spans
    own = self_times(spans)
    dur = [r[END] - r[START] for r in spans]

    def sel(*names):
        return [i for i, r in enumerate(spans) if r[NAME] in names]

    def per(total, count, scale):
        return total / count * scale if count else 0.0

    # terms each sum site's reduction calls received, by parent span
    terms_under = [0] * len(spans)
    sums = sel(*SUM_METHODS)
    for i in sums:
        p = spans[i][PARENT]
        if p >= 0:
            terms_under[p] += spans[i][INFO] or 0

    def site_us(idx):
        terms = sum(terms_under[i] for i in idx)
        return per(sum(own[i] for i in idx), terms, 1e6)

    lift = sel("brane.lift")
    validate = sel("brane.validate_lagrangian", "brane.validate_coisotropic")
    verify = sel("brane.verify_lift_lagrangian", "brane.verify_lift_complex")
    dtorus = sel("torus.double_torus")
    lattice = [i for i, r in enumerate(spans) if r[NAME].startswith("lattice.")]
    certs = sel("theta.truncation_radius")
    seen, repeats, radii = set(), 0, []
    for i in certs:
        if spans[i][INFO] is None:
            continue
        key, radius = spans[i][INFO]
        repeats += key in seen
        seen.add(key)
        radii.append(radius)
    theta_dk = sel("theta.theta_dk")
    sums_double = sel("summation.sum.double")
    sums_dd = sel("summation.sum.dd")
    terms = lambda idx: sum(spans[i][INFO] or 0 for i in idx)
    roots = sel("cli.main")
    return {
        "brane.lift.calls": len(lift),
        "brane.lift.ms_per_call": per(sum(dur[i] for i in lift), len(lift), 1e3),
        "brane.validate.ms_per_call": per(sum(dur[i] for i in validate),
                                          len(validate), 1e3),
        "brane.verify.ms_per_call": per(sum(dur[i] for i in verify),
                                        len(verify), 1e3),
        "torus.double_torus.misses": sum(1 for i in dtorus if spans[i][INFO]),
        "torus.double_torus.self_s": sum(own[i] for i in dtorus),
        "lattice.self_s": sum(own[i] for i in lattice),
        "theta.certificate.calls": len(certs),
        "theta.certificate.repeat_calls": repeats,
        "theta.certificate.ms_per_call": per(sum(dur[i] for i in certs),
                                             len(certs), 1e3),
        "theta.certificate.radius_mean": per(sum(radii), len(radii), 1),
        "theta.bisection.self_s": sum(own[i] for i in
                                      sel("theta.min_eigenvalue_bound")),
        "terms.count": terms(sums),
        "lattice.points_examined": tracer.points,
        "theta.theta_dk.us_per_term.double": site_us(
            [i for i in theta_dk if spans[i][INFO] == "double"]),
        "theta.theta_dk.us_per_term.dd": site_us(
            [i for i in theta_dk if spans[i][INFO] == "dd"]),
        "theta.pair_sums.us_per_term": site_us(sel("theta.pair_sum")),
        "floer.mu2_double.us_per_term": site_us(sel("floer.mu2_double")),
        "floer.mu2_base.us_per_term": site_us(sel("floer.mu2_base")),
        "summation.sum.calls": len(sums),
        "summation.sum.ns_per_term.double": per(
            sum(own[i] for i in sums_double), terms(sums_double), 1e9),
        "summation.sum.ns_per_term.dd": per(
            sum(own[i] for i in sums_dd), terms(sums_dd), 1e9),
        "config.parse_config.ms_per_op": per(
            sum(dur[i] for i in sel("config.parse_config")), ops, 1e3),
        "report.emit_report.ms_per_op": per(
            sum(dur[i] for i in sel("report.emit_report")), ops, 1e3),
        "cli.main.self_ms_per_op": per(sum(own[i] for i in roots), ops, 1e3),
        "trace.overhead_s": (len(spans) - len(roots)) * span_cost
        + tracer.counted * count_cost,
    }


def write(tracer, path):
    with open(path, "w", encoding="utf-8") as out:
        for rec in tracer.spans:
            out.write(json.dumps(rec[:5], separators=(",", ":")) + "\n")
