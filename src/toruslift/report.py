"""Report rendering.

Two formats:

``lines``
    One JSON object per record, fixed key order
    (task, kind, status, residuals, values, detail), compact separators.
    Wall times are deliberately excluded, so the output is byte-identical
    across runs of the same config at the same precision.

``summary``
    A human-readable table, including wall times and a totals line.
"""

import json


def _record_object(rec) -> dict:
    return {
        "task": rec.task,
        "kind": rec.kind,
        "status": rec.status,
        "residuals": [{"name": name, "value": value, "tol": tol}
                      for name, value, tol in rec.residuals],
        "values": dict(rec.values),
        "detail": rec.detail,
    }


def _lines(records) -> str:
    return "".join(
        json.dumps(_record_object(r), separators=(",", ":")) + "\n"
        for r in records
    )


def _summary(records) -> str:
    header = ("task", "status", "worst residual", "tolerance", "time")
    rows = []
    notes = []
    for rec in records:
        if rec.residuals:
            # show a failing residual when there is one, else the largest
            name, value, tol = max(rec.residuals,
                                   key=lambda r: (r[1] > r[2], r[1]))
            worst, shown_tol = f"{value:.3e} ({name})", f"{tol:.1e}"
        else:
            worst, shown_tol = "-", "-"
        rows.append((rec.task, rec.status, worst, shown_tol,
                     f"{rec.seconds:.3f}s"))
        if rec.detail:
            notes.append(f"  {rec.task}: {rec.detail}")
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    out = [fmt.format(*header), fmt.format(*("-" * w for w in widths))]
    out += [fmt.format(*row) for row in rows]
    out += notes
    counts = {s: sum(1 for r in records if r.status == s)
              for s in ("pass", "fail", "error")}
    out.append(f"{len(records)} task{'s' if len(records) != 1 else ''}: "
               f"{counts['pass']} pass, {counts['fail']} fail, "
               f"{counts['error']} error")
    return "\n".join(out) + "\n"


FORMATS = {"lines": _lines, "summary": _summary}


def emit_report(records, format: str = "lines") -> str:
    """Render records; ``lines`` is the machine-readable determinism
    contract, ``summary`` the human view."""
    if format not in FORMATS:
        raise ValueError(f"unknown report format {format!r}")
    return FORMATS[format](records)
