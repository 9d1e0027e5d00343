"""The benchmark's span tracer names package functions by (module, attribute).

A refactor that renames or moves one of them would make the traced
benchmark run fail only when it is run.  This test loads
``perfbench/trace.py`` by path (without installing anything) and checks
that every name it wraps still resolves.
"""

import importlib
import importlib.util
from pathlib import Path

TRACE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def _load_trace():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trace = _load_trace()


def test_every_traced_name_resolves():
    names = list(trace.TARGETS.values()) + [("toruslift.theta", "iter_ball")]
    names += [("toruslift.summation", f"{cls}.sum")
              for cls in trace.SUM_METHODS.values()]
    missing = []
    for mod_name, path in names:
        obj = importlib.import_module(mod_name)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{mod_name}.{path}")
    assert missing == []
