"""Job configuration for the command-line verifier.

The format is a sectioned key=value text; ``#`` starts a comment, blank
lines are ignored, and every value is written exactly (rationals as
``p/q``, complex numbers as ``a+bi`` with rational parts), so a config
round-trips through :func:`echo_config` without loss.

::

    [torus]
    n = 1
    tau = i                 # complex n x n matrix, rows split by ';'
    # non-split tori instead declare omega and b (2n x 2n rationals)

    [brane L0]
    kind = graph            # graph | fiber | coisotropic
    d = 0

    [task usub]
    d = 2
    k = 1

    [numeric]
    tol = 1e-9
    precision = double      # double | dd

Matrices are rows of whitespace-separated entries joined by ``;``;
vectors are a single row.  Tasks run in declaration order; the same task
kind may appear several times.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import ParseError, ValidationError
from .exact import RatMat

BRANE_KINDS = ("graph", "fiber", "coisotropic")
TASK_KINDS = ("validate", "lift", "theta", "identity1", "identity2",
              "usub", "diagram", "upart-self", "twist")
PRECISIONS = ("double", "dd")
# default cap on the certified summation radius, for config jobs and library calls
DEFAULT_MAX_RADIUS = 40

_HEADER = re.compile(r"^\[([a-z][a-z0-9-]*)(?:\s+([A-Za-z_][A-Za-z0-9_-]*))?\]$")
_KEYVAL = re.compile(r"^([a-z][a-z0-9_]*)\s*=\s*(\S.*?)\s*$")

_TORUS_KEYS = {"n": "int", "tau": "cmat", "omega": "rmat", "b": "rmat"}
_BRANE_KEYS = {"kind": "word", "d": "rmat", "n_mat": "rmat",
               "position": "rvec", "phi": "rvec", "offset": "rvec",
               "xi": "ivec"}
_NUMERIC_KEYS = {"tol": "float", "max_radius": "int", "precision": "word"}
_TASK_KEYS = {
    "validate": {"brane": "word"},
    "lift": {"brane": "word"},
    "theta": {"d": "rmat", "k": "ivec", "xi": "ivec", "z": "cvec"},
    "identity1": {"tau_grid": "cvec", "z_grid": "cvec"},
    "identity2": {"tau_grid": "cvec", "uv_grid": "crows"},
    "usub": {"d": "rmat", "k": "ivec", "xi": "ivec", "points": "rrows"},
    "diagram": {"d": "rmat", "k_list": "irows", "grid": "rrows",
                "reference_char": "ivec", "xi": "ivec"},
    "upart-self": {"brane": "word", "expected": "ivec"},
    "twist": {"brane": "word"},
}
for _keys in _TASK_KEYS.values():
    _keys["tolerance"] = "float"


@dataclass(frozen=True)
class TorusConfig:
    n: int
    tau: Optional[tuple] = None       # (re, im) RatMat pair when split
    omega: Optional[RatMat] = None
    b_field: Optional[RatMat] = None


@dataclass(frozen=True)
class BraneConfig:
    name: str
    kind: str
    d: Optional[RatMat] = None
    n_mat: Optional[RatMat] = None
    position: Optional[tuple] = None
    phi: Optional[tuple] = None
    offset: Optional[tuple] = None
    xi: Optional[tuple] = None


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    index: int                        # 1-based ordinal among tasks of this kind
    params: tuple = ()                # (key, value) pairs, sorted by key

    @property
    def id(self) -> str:
        return f"{self.kind}-{self.index}"

    def get(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class NumericPolicy:
    tol: Optional[float] = None       # None defers to the context default
    max_radius: int = DEFAULT_MAX_RADIUS
    precision: str = "double"

    def __post_init__(self):
        # the one check, run by the parser and by dataclasses.replace alike
        _require(self.precision in PRECISIONS,
                 f"precision must be one of {'/'.join(PRECISIONS)}")
        _require(self.max_radius >= 1, "max_radius must be at least 1")
        _require(self.tol is None or self.tol > 0, "tol must be positive")


@dataclass(frozen=True)
class JobConfig:
    torus: TorusConfig
    branes: tuple = ()
    tasks: tuple = ()
    numeric: NumericPolicy = field(default_factory=NumericPolicy)

    def brane(self, name: str) -> BraneConfig:
        for b in self.branes:
            if b.name == name:
                return b
        raise KeyError(name)


# --- token-level parsing ------------------------------------------------------


def _fail(message, line, raw=None, token=None):
    column = None
    if raw is not None and token is not None:
        pos = raw.find(token)
        if pos >= 0:
            column = pos + 1
    raise ParseError(message, line, column)


def _rat(tok, line, raw):
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        _fail(f"not a rational number: {tok!r}", line, raw, tok)


def _int(tok, line, raw):
    try:
        return int(tok, 10)
    except ValueError:
        _fail(f"not an integer: {tok!r}", line, raw, tok)


def _float(tok, line, raw):
    try:
        return float(tok)
    except ValueError:
        _fail(f"not a number: {tok!r}", line, raw, tok)


def _complex(tok, line, raw):
    """Parse ``a``, ``bi`` or ``a+bi`` with exact rational parts."""
    if not tok.endswith("i"):
        return (_rat(tok, line, raw), Fraction(0))
    body = tok[:-1]
    split = 0
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "+-/":
            split = pos
            break
    re_part, im_part = body[:split], body[split:]
    if im_part in ("", "+"):
        im = Fraction(1)
    elif im_part == "-":
        im = Fraction(-1)
    else:
        im = _rat(im_part, line, raw)
    re = _rat(re_part, line, raw) if re_part else Fraction(0)
    return (re, im)


def _rows(value):
    return [row.split() for row in value.split(";")]


def _parse_value(vtype, value, line, raw):
    if vtype == "word":
        if len(value.split()) != 1:
            _fail(f"expected a single word, got {value!r}", line, raw, value)
        return value
    if vtype == "int":
        return _int(value, line, raw)
    if vtype == "float":
        return _float(value, line, raw)
    if vtype == "rvec":
        return tuple(_rat(t, line, raw) for t in value.split())
    if vtype == "ivec":
        return tuple(_int(t, line, raw) for t in value.split())
    if vtype == "cvec":
        return tuple(_complex(t, line, raw) for t in value.split())
    if vtype in ("rmat", "cmat", "rrows", "irows", "crows"):
        rows = _rows(value)
        width = len(rows[0])
        if any(len(r) != width for r in rows) or width == 0:
            _fail("matrix rows have unequal lengths", line, raw)
        if vtype == "rrows":
            return tuple(tuple(_rat(t, line, raw) for t in r) for r in rows)
        if vtype == "irows":
            return tuple(tuple(_int(t, line, raw) for t in r) for r in rows)
        if vtype == "crows":
            return tuple(tuple(_complex(t, line, raw) for t in r) for r in rows)
        if vtype == "rmat":
            return RatMat([[_rat(t, line, raw) for t in r] for r in rows])
        parsed = [[_complex(t, line, raw) for t in r] for r in rows]
        re = RatMat([[c[0] for c in r] for r in parsed])
        im = RatMat([[c[1] for c in r] for r in parsed])
        return (re, im)
    raise AssertionError(f"unhandled value type {vtype}")


# --- section assembly ----------------------------------------------------------


def _require(condition, message):
    if not condition:
        raise ValidationError(message)


def _check_shape(mat, shape, what):
    _require(mat.shape == shape,
             f"{what} must be {shape[0]}x{shape[1]}, got "
             f"{mat.shape[0]}x{mat.shape[1]}")


def _build_torus(fields) -> TorusConfig:
    _require("n" in fields, "the torus section must declare n")
    n = fields["n"]
    _require(n >= 1, "torus dimension n must be positive")
    has_tau = "tau" in fields
    has_form = "omega" in fields or "b" in fields
    _require(has_tau != has_form,
             "the torus is declared either by tau or by omega/b, not both")
    if has_tau:
        re, im = fields["tau"]
        _check_shape(re, (n, n), "tau")
        return TorusConfig(n, tau=(re, im))
    _require("omega" in fields, "a non-split torus must declare omega")
    omega = fields["omega"]
    _check_shape(omega, (2 * n, 2 * n), "omega")
    b = fields.get("b", RatMat.zeros(2 * n, 2 * n))
    _check_shape(b, (2 * n, 2 * n), "b")
    return TorusConfig(n, omega=omega, b_field=b)


def _build_brane(name, fields, n) -> BraneConfig:
    _require("kind" in fields, f"brane {name}: kind is required")
    kind = fields["kind"]
    _require(kind in BRANE_KINDS,
             f"brane {name}: unknown kind {kind!r}")
    out = {"name": name, "kind": kind}
    if kind == "graph":
        _require("d" in fields, f"brane {name}: graph branes need d")
        _check_shape(fields["d"], (n, n), f"brane {name}: d")
        out["d"] = fields["d"]
        rank = n
    elif kind == "fiber":
        _require("position" in fields,
                 f"brane {name}: fiber branes need position")
        _require(len(fields["position"]) == n,
                 f"brane {name}: position must have length {n}")
        out["position"] = fields["position"]
        rank = n
    else:
        _require("n_mat" in fields,
                 f"brane {name}: coisotropic branes need n_mat")
        _check_shape(fields["n_mat"], (2 * n, 2 * n), f"brane {name}: n_mat")
        out["n_mat"] = fields["n_mat"]
        rank = 2 * n
    for extra in ("d", "n_mat", "position"):
        if extra in fields and extra not in out:
            raise ValidationError(
                f"brane {name}: key {extra} does not apply to kind {kind}")
    if "phi" in fields:
        _require(len(fields["phi"]) == rank,
                 f"brane {name}: phi must have length {rank}")
        out["phi"] = fields["phi"]
    if "offset" in fields:
        _require(kind == "coisotropic",
                 f"brane {name}: only coisotropic branes take an offset")
        _require(len(fields["offset"]) == 2 * n,
                 f"brane {name}: offset must have length {2 * n}")
        out["offset"] = fields["offset"]
    if "xi" in fields:
        _require(kind != "fiber", f"brane {name}: fiber branes carry no xi")
        bits = fields["xi"]
        _require(len(bits) == rank and all(b in (0, 1) for b in bits),
                 f"brane {name}: xi must be a 0/1 vector of length {rank}")
        out["xi"] = bits
    return BraneConfig(**out)


def parse_config(text: str) -> JobConfig:
    """Parse and validate a job configuration."""
    sections = []          # (kind, name, header_line, fields{key: (value, line)})
    current = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            m = _HEADER.match(line)
            if not m:
                _fail(f"malformed section header {line!r}", lineno, rawline,
                      line)
            kind, name = m.group(1), m.group(2)
            if kind in ("torus", "numeric"):
                if name is not None:
                    _fail(f"section [{kind}] takes no name", lineno, rawline,
                          name)
                if any(s[0] == kind for s in sections):
                    _fail(f"duplicate [{kind}] section", lineno, rawline, kind)
            elif kind == "brane":
                if name is None:
                    _fail("brane sections need a name: [brane NAME]", lineno,
                          rawline, kind)
                if any(s[0] == "brane" and s[1] == name for s in sections):
                    _fail(f"brane {name!r} is declared twice", lineno,
                          rawline, name)
            elif kind == "task":
                if name is None or name not in TASK_KINDS:
                    _fail(
                        f"task sections need a kind out of "
                        f"{', '.join(TASK_KINDS)}", lineno, rawline, kind)
            else:
                _fail(f"unknown section kind {kind!r}", lineno, rawline, kind)
            current = (kind, name, lineno, {})
            sections.append(current)
            continue
        m = _KEYVAL.match(line)
        if not m:
            _fail(f"expected 'key = value', got {line!r}", lineno, rawline,
                  line)
        if current is None:
            _fail("key=value before any section header", lineno, rawline,
                  line)
        key, value = m.group(1), m.group(2)
        kind = current[0]
        schema = {"torus": _TORUS_KEYS, "brane": _BRANE_KEYS,
                  "numeric": _NUMERIC_KEYS}.get(kind) or _TASK_KEYS[current[1]]
        if key not in schema:
            _fail(f"unknown key {key!r} in [{kind}{' ' + current[1] if current[1] else ''}]",
                  lineno, rawline, key)
        if key in current[3]:
            _fail(f"duplicate key {key!r}", lineno, rawline, key)
        current[3][key] = _parse_value(schema[key], value, lineno, rawline)

    torus_fields = next((s[3] for s in sections if s[0] == "torus"), None)
    _require(torus_fields is not None, "a [torus] section is required")
    torus = _build_torus(torus_fields)

    branes = tuple(_build_brane(s[1], s[3], torus.n)
                   for s in sections if s[0] == "brane")
    numeric_fields = next((s[3] for s in sections if s[0] == "numeric"), {})
    numeric = NumericPolicy(**numeric_fields)

    tasks = []
    counts = {}
    declared = {b.name for b in branes}
    for s in sections:
        if s[0] != "task":
            continue
        kind, fields = s[1], s[3]
        counts[kind] = counts.get(kind, 0) + 1
        ref = fields.get("brane")
        if ref is not None:
            _require(ref in declared,
                     f"task {kind}: brane {ref!r} is not declared")
        if "xi" in fields:
            _require(all(b in (0, 1) for b in fields["xi"]),
                     f"task {kind}: xi must be a 0/1 vector")
        tasks.append(TaskSpec(kind, counts[kind],
                              tuple(sorted(fields.items()))))
    return JobConfig(torus, branes, tuple(tasks), numeric)


# --- serialization ---------------------------------------------------------------


def _fmt_rat(x: Fraction) -> str:
    return str(x)


def _fmt_complex(c) -> str:
    re, im = c
    if im == 0:
        return _fmt_rat(re)
    if im == 1:
        tail = "i"
    elif im == -1:
        tail = "-i"
    else:
        tail = f"{_fmt_rat(im)}i"
    if re == 0:
        return tail
    if tail.startswith("-"):
        return f"{_fmt_rat(re)}{tail}"
    return f"{_fmt_rat(re)}+{tail}"


def _fmt_value(vtype, value) -> str:
    if vtype == "word":
        return value
    if vtype == "int":
        return str(value)
    if vtype == "float":
        return repr(value)
    if vtype == "rvec":
        return " ".join(_fmt_rat(x) for x in value)
    if vtype == "ivec":
        return " ".join(str(x) for x in value)
    if vtype == "cvec":
        return " ".join(_fmt_complex(c) for c in value)
    if vtype == "rmat":
        return " ; ".join(" ".join(_fmt_rat(value[i, j])
                                   for j in range(value.ncols))
                          for i in range(value.nrows))
    if vtype == "cmat":
        re, im = value
        return " ; ".join(
            " ".join(_fmt_complex((re[i, j], im[i, j]))
                     for j in range(re.ncols))
            for i in range(re.nrows))
    if vtype == "rrows":
        return " ; ".join(" ".join(_fmt_rat(x) for x in r) for r in value)
    if vtype == "irows":
        return " ; ".join(" ".join(str(x) for x in r) for r in value)
    if vtype == "crows":
        return " ; ".join(" ".join(_fmt_complex(c) for c in r)
                          for r in value)
    raise AssertionError(f"unhandled value type {vtype}")


def echo_config(config: JobConfig) -> str:
    """Serialize a JobConfig back to config text; parsing the result yields
    an equal JobConfig."""
    out = ["[torus]", f"n = {config.torus.n}"]
    if config.torus.tau is not None:
        out.append(f"tau = {_fmt_value('cmat', config.torus.tau)}")
    else:
        out.append(f"omega = {_fmt_value('rmat', config.torus.omega)}")
        out.append(f"b = {_fmt_value('rmat', config.torus.b_field)}")
    for b in config.branes:
        out += ["", f"[brane {b.name}]", f"kind = {b.kind}"]
        for key in ("d", "n_mat", "position", "phi", "offset", "xi"):
            value = getattr(b, key)
            if value is not None:
                out.append(f"{key} = {_fmt_value(_BRANE_KEYS[key], value)}")
    for t in config.tasks:
        out += ["", f"[task {t.kind}]"]
        for key, value in t.params:
            out.append(f"{key} = {_fmt_value(_TASK_KEYS[t.kind][key], value)}")
    num = config.numeric
    out += ["", "[numeric]"]
    if num.tol is not None:
        out.append(f"tol = {num.tol!r}")
    out.append(f"max_radius = {num.max_radius}")
    out.append(f"precision = {num.precision}")
    return "\n".join(out) + "\n"
