"""One benchmark process: set up, run whole rounds of one workload until
the timed operations have taken ``--seconds``, check the outputs, and
print one JSON line.

Set-up runs from process start (``--t0``, a CLOCK_MONOTONIC stamp the
parent takes just before starting this process) to the first timed
operation: the import of toruslift and mpmath, generating the first round
and a warm-up on jobs outside the timed population.  With ``--setup-only``
the process stops there.  With ``--trace 1`` the timed rounds run with the
layer tracer installed and the per-layer figures are printed instead.
"""

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from reference import (diagram_constant, lift_failures, theta_error,  # noqa: E402
                       theta_reference)

# rounding allowances on top of the certified tail bound, as multiples of
# the absolute series sum |t_m|: 2^-40 in double (thousands of ulps) and
# 2^-90 in dd, judged on the full 106-bit value theta_dk returned
ALLOW_DOUBLE = 2.0 ** -40
ALLOW_DD = 2.0 ** -90


def load_program():
    """Import toruslift from this checkout's src/, and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import toruslift.cli
        import toruslift.runner
    except ImportError as exc:
        raise SystemExit(f"cannot import toruslift from {src}: {exc}")
    if src not in Path(toruslift.cli.__file__).resolve().parents:
        raise SystemExit(f"toruslift was imported from outside {src}")
    return toruslift.cli, toruslift.runner


class Capture:
    """Keeps what the runner's lift and theta_dk returned during one
    operation, so the checker can examine the lifted brane itself and the
    theta value at its full working precision (the `lines` report prints
    doubles, which would hide a dd job computed in double)."""

    def __init__(self, runner):
        self.lifts, self.thetas = [], []
        lift, theta_dk = runner.lift, runner.theta_dk

        def captured_lift(brane):
            out = lift(brane)
            self.lifts.append((brane, out))
            return out

        def captured_theta_dk(*args, **kwargs):
            out = theta_dk(*args, **kwargs)
            self.thetas.append(out)
            return out

        runner.lift, runner.theta_dk = captured_lift, captured_theta_dk

    def clear(self):
        self.lifts.clear()
        self.thetas.clear()


def _rows(mat):
    return [[mat[i, j] for j in range(mat.ncols)] for i in range(mat.nrows)]


def _close(got, ref, bound):
    return abs(complex(got[0], got[1]) - complex(ref)) <= bound


def check(op, record, capture):
    """Problems with one passing operation's output (empty when correct)."""
    problems = []
    values = record["values"]
    for res in record["residuals"]:
        if not res["value"] <= res["tol"]:
            problems.append(f"residual {res['name']} = {res['value']} > {res['tol']}")
    facts = op.facts
    if op.task in ("lift", "twist", "upart-self"):
        if len(capture.lifts) != 1:
            problems.append(f"expected one lift, saw {len(capture.lifts)}")
        for brane, lifted in capture.lifts:
            problems += lift_failures(
                facts["tau"], _rows(brane.support), _rows(lifted.support),
                _rows(lifted.torus.omega), _rows(lifted.torus.j_mat))
    if op.task == "lift":
        n = facts["n"]
        if values["ambient_dim"] != 4 * n or values["rank"] != 2 * n:
            problems.append(f"lift shape {values['ambient_dim']}/{values['rank']}")
    elif op.task in ("validate", "twist"):
        if values["failures"]:
            problems.append(f"{op.task} failures {values['failures']}")
        if op.task == "twist" and values["background_sign"] != -1:
            problems.append("twist kept the background sign")
    elif op.task == "upart-self":
        if values["dims"] != [1, 2, 1]:
            problems.append(f"upart-self dims {values['dims']}")
    elif op.task == "theta":
        if len(capture.thetas) != 1:
            return problems + [f"expected one theta_dk, saw {len(capture.thetas)}"]
        got = capture.thetas[0]
        if complex(*values["value"]) != complex(got):
            problems.append(f"reported {values['value']} is not the value "
                            f"computed, {complex(got)}")
        if got.context != facts["precision"]:
            problems.append(f"{facts['precision']} job ran in {got.context}")
        ref, abs_sum = theta_reference(*facts["tau"], facts["d"], facts["k"],
                                       facts["xi"], facts["z"],
                                       min_radius=got.certificate.radius)
        allow = (ALLOW_DD if facts["precision"] == "dd" else ALLOW_DOUBLE) * abs_sum
        bound = got.certificate.tail_bound + allow
        error = theta_error(got.value, ref)
        if not error <= bound:
            problems.append(
                f"theta {complex(got)} vs reference {complex(ref)}: error "
                f"{float(error):.3g} > tail {float(got.certificate.tail_bound):.3g}"
                f" + allowance {float(allow):.3g}")
    elif op.task == "diagram":
        # the program's conjugate series is certified to the job's tol
        ref, root, abs_sum = diagram_constant(*facts["tau"], facts["d"],
                                              facts["xi"])
        bound = facts["tol"] * float(root) + ALLOW_DOUBLE * float(abs_sum)
        if not _close(values["predicted"], ref, bound):
            problems.append(f"diagram predicted {values['predicted']} vs "
                            f"reference {complex(ref)}")
    return problems


def run_op(cli, path, op, tracer=None):
    path.write_text(op.text, encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        close = tracer.root("cli.main") if tracer else None
        start = perf_counter()
        rc = cli.main(["--config", str(path)])
        elapsed = perf_counter() - start
        if close:
            close()
    return rc, buf.getvalue(), elapsed


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli, runner = load_program()
    OUT.mkdir(exist_ok=True)
    job = OUT / f"job-{args.workload}.cfg"
    gen = workloads.make(args.workload, args.seed)
    pending = gen.round()
    for op in workloads.make(args.workload, "warm-up", warmup=True).round():
        rc, text, _ = run_op(cli, job, op)
        if rc != 0:
            raise SystemExit(f"warm-up job {op.label} failed: {text.strip()}")
    tracer = None
    if args.trace:
        import trace

        span_cost, count_cost = trace.calibrate()
        tracer = trace.Tracer()
        trace.install(tracer)
    capture = Capture(runner)
    setup_s = perf_counter() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # checks run outside the clock, and only while their total time stays
    # within the timed operations' total: every operation is checked as
    # long as a check costs less than the operation, and a faster program
    # gets a paced sample checked instead of a run too long to finish
    busy, times, attempted, failures, wrong = 0.0, [], 0, [], []
    checked, check_s = 0, 0.0
    while busy < args.seconds:
        for op in pending:
            capture.clear()
            rc, text, elapsed = run_op(cli, job, op, tracer)
            attempted += 1
            busy += elapsed
            if rc != 0:
                failures.append(f"{op.label} failed: {text.strip()[:300]}")
                continue
            times.append(elapsed)
            if check_s <= busy:
                start = perf_counter()
                found = check(op, json.loads(text), capture)
                check_s += perf_counter() - start
                checked += 1
                wrong += [f"{op.label}: {p}" for p in found]
        pending = gen.round()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"attempted": attempted, "failed": len(failures),
              "correct": not wrong, "checked": checked,
              "problems": failures[:10] + wrong[:10]}
    if tracer is None:
        result["metrics"] = {
            "ops_per_s": len(times) / busy,
            "op_p50_ms": statistics.median(times) * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        result["metrics"] = trace.metrics(tracer, attempted, span_cost,
                                          count_cost)
        trace.write(tracer, OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
