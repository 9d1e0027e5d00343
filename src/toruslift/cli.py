"""Command-line entry point: run the tasks declared in a config file.

Exit codes: 0 when every task passes, 1 when any task fails or errors,
2 when the configuration itself cannot be read, parsed, or validated.
"""

import argparse
import dataclasses
import sys
from functools import lru_cache

from .config import PRECISIONS, parse_config
from .errors import ParseError, ValidationError
from .report import FORMATS, emit_report
from .runner import run


# built once per process: argparse returns a fresh namespace on every parse
_PARSER = argparse.ArgumentParser(
    prog="toruslift",
    description="Run brane/theta verification tasks from a config file.",
)
_PARSER.add_argument("--config", required=True, metavar="PATH",
                     help="job configuration file")
_PARSER.add_argument("--tol", type=float, default=None,
                     help="override the truncation tolerance")
_PARSER.add_argument("--max-radius", type=int, default=None,
                     help="override the lattice summation radius cap")
_PARSER.add_argument("--precision", choices=PRECISIONS, default=None,
                     help="override the working precision")
_PARSER.add_argument("--out", metavar="PATH", default=None,
                     help="write the report here instead of stdout")
_PARSER.add_argument("--format", choices=tuple(FORMATS),
                     default="lines", help="report format")


@lru_cache(maxsize=64)
def _options(argv: tuple) -> dict:
    """The parsed options of one argv, memoised for batches that repeat
    it.  Usage errors and --help exit in argparse, uncached, every call."""
    return vars(_PARSER.parse_args(argv))


def main(argv=None) -> int:
    argv = tuple(sys.argv[1:] if argv is None else argv)
    args = argparse.Namespace(**_options(argv))  # a fresh namespace per call
    try:
        with open(args.config, encoding="utf-8") as handle:
            config = parse_config(handle.read())
        overrides = {key: getattr(args, key)
                     for key in ("tol", "max_radius", "precision")
                     if getattr(args, key) is not None}
        if overrides:
            # replace() re-runs NumericPolicy's own check on the overrides
            numeric = dataclasses.replace(config.numeric, **overrides)
            config = dataclasses.replace(config, numeric=numeric)
    except (OSError, ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    records = run(config)
    text = emit_report(records, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(r.status == "pass" for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
