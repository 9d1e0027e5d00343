"""Record the config parser's outcome on a fixed corpus of config texts.

    PYTHONPATH=<src of the reference checkout> python3 tests/record_config_parity.py

writes ``tests/data/config_parity.json``: for each text, either the
``echo_config`` bytes of the parsed job or the error it raised (class,
message, line, column).  The corpus is the jobs of one round of each
benchmark workload (``perfbench/workloads.py``) at seeds 1 and 2, its
warm-up round, the malformed task values of ``tests/test_config.py`` and
seeded one-token and one-line corruptions of the workload jobs.
``tests/test_config_parity.py`` checks the current parser against it.
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "data" / "config_parity.json"

# replacements for one value token: outside the grammar, or inside it in
# an unusual spelling (sign, leading zeros, exponent, bare decimal point)
BAD_TOKENS = ("x", "k", "t", "i1", "1/0", "0/0", "1//2", "1/2/3", "1/-2",
              "1/+2", "+/2", "--1", "+-1", "1.2.3", "1e", "e1", ".", "1.e",
              "1e+", "1e-3/2", "2ii", "1+2", "1++2i", "0x10", "1,5", "(1)",
              "nan", "inf", "+", "-", "/", "i/2", "3/4ii", "1_0", "1/1_0",
              "1e1_0", "١", "1٢", "½", "１", "1.5e-3x")
ODD_TOKENS = ("+1", "-0", "007", "1.", ".5", "-.5", "1.e2", "2.5E+1",
              "1e-03", "+1/3", "-12/08", "0.000", "3e0", "-i", "+i", "i",
              "1/2-i", "-0.5+2.5e1i", "+1e-3-1e-3i", "00/1")
LINE_EDITS = ("drop_equals", "unknown_key", "duplicate_key", "drop_token",
              "bad_header", "extra_semicolon", "empty_value", "leading_space",
              "trailing_comment")


def _outcome(parse_config, echo_config, text):
    try:
        return {"echo": echo_config(parse_config(text))}
    except Exception as exc:  # every failure is recorded, whatever its class
        return {"error": [type(exc).__name__, str(exc),
                          getattr(exc, "line", None),
                          getattr(exc, "column", None)]}


def _value_lines(text):
    lines = text.split("\n")
    return [i for i, line in enumerate(lines)
            if "=" in line and not line.lstrip().startswith(("[", "#"))]


def _corrupt_token(rng, text, tokens):
    lines = text.split("\n")
    i = rng.choice(_value_lines(text))
    key, _, value = lines[i].partition("=")
    parts = value.split(" ")
    slots = [j for j, p in enumerate(parts) if p and p != ";"]
    parts[rng.choice(slots)] = rng.choice(tokens)
    lines[i] = key + "=" + " ".join(parts)
    return "\n".join(lines)


def _corrupt_line(rng, text, edit):
    lines = text.split("\n")
    i = rng.choice(_value_lines(text))
    key, _, value = lines[i].partition("=")
    if edit == "drop_equals":
        lines[i] = key + value
    elif edit == "unknown_key":
        lines[i] = "bogus =" + value
    elif edit == "duplicate_key":
        lines.insert(i, lines[i])
    elif edit == "drop_token":
        parts = value.split()
        if len(parts) > 1:
            del parts[rng.randrange(len(parts))]
        lines[i] = key + "= " + " ".join(parts)
    elif edit == "bad_header":
        heads = [j for j, line in enumerate(lines) if line.startswith("[")]
        j = rng.choice(heads)
        lines[j] = rng.choice(("[Torus]", "[task]", "[brane]", "[numeric x]",
                               "[task nope]", "[torus", "[brane a b]"))
    elif edit == "extra_semicolon":
        lines[i] = key + "=" + value + " ;"
    elif edit == "empty_value":
        lines[i] = key + "="
    elif edit == "leading_space":
        lines[i] = "   " + lines[i]
    elif edit == "trailing_comment":
        lines[i] = lines[i] + "   # note = 1/2"
    return "\n".join(lines)


def corpus():
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    sys.path.insert(0, str(HERE))
    import workloads
    from test_config import MALFORMED_TASKS

    jobs = []
    for name in workloads.WORKLOADS:
        for seed in (1, 2):
            gen = workloads.make(name, seed)
            jobs += [op.text for op in gen.round()]
        jobs += [op.text for op in workloads.make(name, "warm-up",
                                                  warmup=True).round()]
    jobs = list(dict.fromkeys(jobs))
    texts = list(jobs)
    texts += [f"[task {kind}]\n{line}\n\n[torus]\nn = 1\ntau = i\n"
              for kind, line, _ in MALFORMED_TASKS.values()]
    rng = random.Random(22)
    for job in jobs:
        texts.append(_corrupt_token(rng, job, BAD_TOKENS))
        texts.append(_corrupt_token(rng, job, ODD_TOKENS))
        texts.append(_corrupt_line(rng, job, rng.choice(LINE_EDITS)))
    return list(dict.fromkeys(texts))


def main():
    from toruslift.config import echo_config, parse_config

    cases = [dict(text=t, **_outcome(parse_config, echo_config, t))
             for t in corpus()]
    OUT.write_text(json.dumps(cases, indent=0, ensure_ascii=True) + "\n",
                   encoding="utf-8")
    errors = sum("error" in c for c in cases)
    print(f"{len(cases)} texts, {errors} errors -> {OUT}")


if __name__ == "__main__":
    main()
