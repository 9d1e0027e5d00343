"""Benchmark entry point for toruslift.

    python3 perfbench/run.py --workload lift|theta|products --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh
single-threaded worker process (perfbench/worker.py) that imports
toruslift from this checkout's src/, warms up, runs whole rounds of
single-task config jobs through toruslift.cli.main until the jobs have
taken S seconds, and checks every output against the references in
perfbench/reference.py.  The last line of standard output is one JSON
object: correct, attempted, failed, and the end-to-end metrics (trace 0)
or the per-layer metrics of a traced run (trace 1).

setup_s is the median over the worker and SETUP_PROBES extra processes that
stop at the first timed job, half of them started before the worker and
half after it, since one process start is a single noisy sample.

A run that has not ended DEADLINE_S + 2 x --seconds after it started is
stopped and exits 1 without a result: the worker's checks never take
longer in total than its timed operations, so this leaves a margin of
DEADLINE_S for set-up.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 8
DEADLINE_S = 110


def units(kind):
    """Metric name -> unit for "end_to_end" or "per_layer" in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def worker(args, extra, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    cmd += ["--t0", repr(perf_counter())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=max(deadline - perf_counter(), 1))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "toruslift" / "cli.py").is_file():
        print(f"error: no toruslift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S + 2 * args.seconds
    probes = 0 if args.trace else SETUP_PROBES // 2

    def setups():
        return [worker(args, ["--setup-only"], deadline)["setup_s"]
                for _ in range(probes)]

    try:
        before = setups()
        out = worker(args, [], deadline)
        after = setups()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"checked {out['checked']} of {out['attempted']} operations",
          file=sys.stderr)
    for problem in out["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    metrics = out["metrics"]
    if not args.trace:
        setups = before + [metrics["setup_s"]] + after
        metrics["setup_s"] = statistics.median(setups)
    kind = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units(kind).items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
