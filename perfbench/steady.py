"""Steadiness check for the benchmark.

    python3 perfbench/steady.py

For each workload in BENCHMARK.json, runs two sets of RUNS untraced runs
of ``run_seconds`` each, interleaved (A1 B1 B2 A2 A3 B3 ...), each run
with its own seed (set A: 1..RUNS, set B: 1001..1000+RUNS).  For every
end-to-end metric it prints each set's median and quartiles and a verdict
against the bound in BENCHMARK.json:

* spread: (Q3 - Q1) / median of each set, which must stay within the bound
  and is called steady below a third of it;
* shift: how much worse set B's median is than set A's, within the bound;
* failed share: failed / attempted, which must be identical in both sets.

Then one traced run per workload prints the per-layer figures, including
trace.overhead_s.  Everything is also written to perfbench/out/steady.json.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def verdict(metric, a, b):
    bound = metric["bound"]
    worse = (b["median"] - a["median"]) / a["median"]
    if metric["better"] == "higher":
        worse = -worse
    notes = []
    for tag, s in (("A", a), ("B", b)):
        if s["spread"] > bound:
            notes.append(f"spread {tag} over bound")
        elif s["spread"] > bound / 3:
            notes.append(f"spread {tag} over bound/3")
    if worse > bound:
        notes.append("B worse than A beyond bound")
    return worse, "; ".join(notes) or "ok"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(RUNS):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for tag in order:
                seed = i + 1 if tag == "A" else 1001 + i
                out = run(workload, seed, seconds)
                if not out["correct"]:
                    raise SystemExit(f"{workload} seed {seed}: incorrect output")
                sets[tag].append(out)
        entry = {"metrics": {}, "failed_share": {},
                 "runs": {tag: [{k: v["value"] for k, v in o["metrics"].items()}
                                for o in outs] for tag, outs in sets.items()}}
        print(f"\n== {workload}: {RUNS} + {RUNS} runs of "
              f"{seconds:g} s")
        for tag, outs in sets.items():
            share = [o["failed"] / o["attempted"] for o in outs]
            entry["failed_share"][tag] = share
            print(f"  set {tag}: attempted {min(o['attempted'] for o in outs)}"
                  f"..{max(o['attempted'] for o in outs)}, failed share "
                  f"{sorted(set(share))}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = summary([o["metrics"][name]["value"] for o in sets["A"]])
            b = summary([o["metrics"][name]["value"] for o in sets["B"]])
            worse, note = verdict(metric, a, b)
            entry["metrics"][name] = {"A": a, "B": b, "worse": worse,
                                      "verdict": note}
            print(f"  {name:12s} A {a['median']:10.4f} [{a['q1']:.4f}, "
                  f"{a['q3']:.4f}] spread {a['spread']:6.2%} | B "
                  f"{b['median']:10.4f} [{b['q1']:.4f}, {b['q3']:.4f}] spread "
                  f"{b['spread']:6.2%} | B worse by {worse:+.2%} "
                  f"(bound {metric['bound']:.0%}): {note}")
        if set(entry["failed_share"]["A"]) != set(entry["failed_share"]["B"]):
            print("  failed shares differ between the sets")
        traced = run(workload, 1, seconds, trace=1)
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["trace"] = layer
        print(f"  traced run (seed 1): {traced['attempted']} ops")
        for name, value in layer.items():
            print(f"    {name:36s} {value:.6g}")
        # each lift calls double_torus once, so misses/lifts is the share
        # of lifts whose torus is not cached
        if layer["brane.lift.calls"]:
            print(f"    lifts whose torus was cached: {1 - layer['torus.double_torus.misses'] / layer['brane.lift.calls']:.1%}")
        if layer["theta.certificate.calls"]:
            print(f"    certificate calls whose Gram repeats: {layer['theta.certificate.repeat_calls'] / layer['theta.certificate.calls']:.1%}")
        report["workloads"][workload] = entry
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
