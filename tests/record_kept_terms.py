"""Count the terms the lattice-sum kernel evaluates on ``products`` jobs.

    PYTHONPATH=<src of a checkout> python3 tests/record_kept_terms.py [ROUNDS]

runs ROUNDS (default 6) rounds of the ``products`` benchmark workload
(``perfbench/workloads.py``, seed 1) through ``toruslift.runner.run`` and
prints, per dimension of the summed lattice, the number of sums, the terms
they evaluated and the terms per sum, as one JSON line.  A term is counted
each time a line of the kernel hands it to the context's term evaluator,
so a sum that is summed twice (a kernel with a fallback) counts twice.
The kernel's signature is not used, so the script counts the terms of
older checkouts too.
"""

import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from toruslift import floer, theta  # noqa: E402
from toruslift.config import parse_config  # noqa: E402
from toruslift.runner import run  # noqa: E402
from toruslift.summation import get_context  # noqa: E402


def main(rounds: int) -> dict:
    sums, terms = Counter(), Counter()
    current = []
    kernel = theta.lattice_sum

    def counted_sum(ctx, *args):
        dim = len(args[-2][2])  # the decay form's linear part
        sums[dim] += 1
        current.append(dim)
        try:
            return kernel(ctx, *args)
        finally:
            current.pop()

    for ctx in (get_context("double"), get_context("dd")):
        line_terms = type(ctx).line_terms

        def counted_terms(*forms, ctx=ctx, line_terms=line_terms):
            add, close = line_terms(ctx, *forms)

            def counted_add(ts, *line):
                terms[current[-1]] += len(ts)
                return add(ts, *line)

            return counted_add, close

        ctx.line_terms = counted_terms
    theta.lattice_sum = floer.lattice_sum = counted_sum
    gen = workloads.make("products", 1)
    for _ in range(rounds):
        for op in gen.round():
            run(parse_config(op.text))
    return {str(dim): {"sums": sums[dim], "terms": terms[dim],
                       "terms_per_sum": terms[dim] / sums[dim]}
            for dim in sorted(sums)}


if __name__ == "__main__":
    print(json.dumps(main(int(sys.argv[1]) if len(sys.argv) > 1 else 6)))
