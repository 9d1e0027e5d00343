"""The benchmark's span tracer names package functions by (module, attribute).

A refactor that renames or moves one of them would make the traced
benchmark run fail only when it is run.  This test loads
``perfbench/trace.py`` by path (without installing anything) and checks
that every name it wraps still resolves.
"""

import importlib
import importlib.util
import inspect
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


def test_traced_certificate_sees_every_call(monkeypatch):
    # trace._cert_info reads the Gram from args[0] or kwargs["q_form"] and
    # the radius from the result; the memo sits below the public name, so
    # the traced span counts repeated certificates too
    theta = importlib.import_module("toruslift.theta")
    params = list(inspect.signature(theta.truncation_radius).parameters)
    assert params[0] == "q_form"
    assert not hasattr(theta.truncation_radius, "cache_info")

    tracer = trace.Tracer()
    wrapped = tracer.wrap("theta.truncation_radius", theta.truncation_radius,
                          info=trace._cert_info)
    monkeypatch.setattr(theta, "truncation_radius", wrapped)
    spec = theta.spec_n1(0.5 + 1j, d=3, k=1, xi=1, tol=1e-12)
    hits = theta._radius_search.cache_info().hits
    for _ in range(3):
        theta.theta_dk(spec, [0.2 + 0.1j])
    assert theta._radius_search.cache_info().hits >= hits + 2
    wrapped(q_form=spec.q_form, tol=1e-12)
    infos = [span[trace.INFO] for span in tracer.spans]
    assert len(infos) == 4
    gram = (spec.q_form[0, 0],)
    radius = theta.theta_dk(spec, [0.2 + 0.1j]).certificate.radius
    assert infos[:3] == [(gram, radius)] * 3
    assert infos[3][0] == gram and isinstance(infos[3][1], int)
