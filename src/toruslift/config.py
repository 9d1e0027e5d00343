"""Job configuration for the command-line verifier.

The format is a sectioned key=value text; ``#`` starts a comment, blank
lines are ignored, and every value is written exactly (rationals as
``p/q`` or decimals such as ``0.25`` and ``1e-3``, complex numbers as
``a+bi`` with rational parts), so a config round-trips through
:func:`echo_config` without loss.

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

Each section has one key table from key to value type; the torus, brane
and numeric tables are the fields of :class:`TorusConfig`,
:class:`BraneConfig` and :class:`NumericPolicy`.  Each value type has one
(parse, format) codec: ``word``, ``int`` and ``float`` are scalars, and
every other type names an element (``r`` rational, ``i`` integer, ``c``
complex) in a container (``vec`` one row, ``rows`` rows, ``rmat`` a
:class:`RatMat`, ``cmat`` its (Re, Im) pair).  Parsing, validation and
:func:`echo_config` all read these tables.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import ParseError, ValidationError
from .exact import RatMat
from .summation import PRECISIONS

# each brane kind and the one key that places it
BRANE_KINDS = {"graph": "d", "fiber": "position", "coisotropic": "n_mat"}
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
# each task key's shape in the torus dimension n, the same in every task
# kind: the entries of a vector, the entries of each row of a row list, the
# side of a square matrix; parse_config checks them once n is known
_TASK_SHAPES = {"d": "n", "k": "n", "xi": "n", "z": "n",
                "reference_char": "n", "k_list": "n", "grid": "2n",
                "points": "4n", "uv_grid": "2"}
TASK_KINDS = tuple(_TASK_KEYS)
_SECTION_KEYS = {"torus": _TORUS_KEYS, "brane": _BRANE_KEYS,
                 "numeric": _NUMERIC_KEYS}


@dataclass(frozen=True)
class TorusConfig:
    n: int
    tau: Optional[tuple] = None       # (re, im) RatMat pair when split
    omega: Optional[RatMat] = None
    b: Optional[RatMat] = None        # the B-field; zero when not declared


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
        return dict(self.params).get(key, default)


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


# --- value codecs ----------------------------------------------------------------


def _fail(message, line, raw=None, token=None):
    pos = raw.find(token) if raw is not None and token is not None else -1
    raise ParseError(message, line, pos + 1 if pos >= 0 else None)


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


def _word(tok, line, raw):
    if len(tok.split()) != 1:
        _fail(f"expected a single word, got {tok!r}", line, raw, tok)
    return tok


_UNITS = {"": Fraction(1), "+": Fraction(1), "-": Fraction(-1)}


def _complex(tok, line, raw):
    """Parse ``a``, ``bi`` or ``a+bi`` with exact rational parts."""
    if not tok.endswith("i"):
        return (_rat(tok, line, raw), Fraction(0))
    body = tok[:-1]
    split = 0
    # the parts split at the last sign that starts a number, which is not
    # a sign after another sign, a '/' or an exponent's e (1e-3i)
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "+-/eE":
            split = pos
            break
    re_part, im_part = body[:split], body[split:]
    im = _UNITS[im_part] if im_part in _UNITS else _rat(im_part, line, raw)
    return (_rat(re_part, line, raw) if re_part else Fraction(0), im)


def _fmt_complex(c) -> str:
    re, im = c
    if im == 0:
        return str(re)
    tail = {1: "i", -1: "-i"}.get(im, f"{im}i")
    if re == 0:
        return tail
    return f"{re}{tail}" if tail[0] == "-" else f"{re}+{tail}"


# (parse, format) per scalar type, and per element of the container types
_SCALARS = {"word": (_word, str), "int": (_int, str), "float": (_float, repr)}
_ELEMENTS = {"r": (_rat, str), "i": (_int, str), "c": (_complex, _fmt_complex)}


def _parse_value(vtype, value, line, raw):
    scalar = _SCALARS.get(vtype)
    if scalar is not None:
        return scalar[0](value, line, raw)
    parse = _ELEMENTS[vtype[0]][0]
    if vtype.endswith("vec"):
        return tuple(parse(t, line, raw) for t in value.split())
    rows = [row.split() for row in value.split(";")]
    width = len(rows[0])
    if any(len(r) != width for r in rows) or width == 0:
        _fail("matrix rows have unequal lengths", line, raw)
    rows = [[parse(t, line, raw) for t in r] for r in rows]
    if vtype == "rmat":
        return RatMat(rows)
    if vtype == "cmat":
        return (RatMat([[c[0] for c in r] for r in rows]),
                RatMat([[c[1] for c in r] for r in rows]))
    return tuple(map(tuple, rows))


def _fmt_value(vtype, value) -> str:
    scalar = _SCALARS.get(vtype)
    if scalar is not None:
        return scalar[1](value)
    fmt = _ELEMENTS[vtype[0]][1]
    if vtype.endswith("vec"):
        return " ".join(map(fmt, value))
    if vtype == "rmat":
        value = value.rows
    elif vtype == "cmat":
        value = [zip(*parts) for parts in zip(value[0].rows, value[1].rows)]
    return " ; ".join(" ".join(map(fmt, row)) for row in value)


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
        _check_shape(fields["tau"][0], (n, n), "tau")
    else:
        _require("omega" in fields, "a non-split torus must declare omega")
        fields.setdefault("b", RatMat.zeros(2 * n, 2 * n))
        for key in ("omega", "b"):
            _check_shape(fields[key], (2 * n, 2 * n), key)
    return TorusConfig(**fields)


def _build_brane(name, fields, n) -> BraneConfig:
    _require("kind" in fields, f"brane {name}: kind is required")
    kind = fields["kind"]
    _require(kind in BRANE_KINDS,
             f"brane {name}: unknown kind {kind!r}")
    place = BRANE_KINDS[kind]
    rank = 2 * n if kind == "coisotropic" else n
    _require(place in fields, f"brane {name}: {kind} branes need {place}")
    if place == "position":
        _require(len(fields[place]) == n,
                 f"brane {name}: position must have length {n}")
    else:
        _check_shape(fields[place], (rank, rank), f"brane {name}: {place}")
    for key in _BRANE_KEYS:
        if key in fields and key != place and key in BRANE_KINDS.values():
            raise ValidationError(
                f"brane {name}: key {key} does not apply to kind {kind}")
    if "phi" in fields:
        _require(len(fields["phi"]) == rank,
                 f"brane {name}: phi must have length {rank}")
    if "offset" in fields:
        _require(kind == "coisotropic",
                 f"brane {name}: only coisotropic branes take an offset")
        _require(len(fields["offset"]) == 2 * n,
                 f"brane {name}: offset must have length {2 * n}")
    if "xi" in fields:
        _require(kind != "fiber", f"brane {name}: fiber branes carry no xi")
        bits = fields["xi"]
        _require(len(bits) == rank and all(b in (0, 1) for b in bits),
                 f"brane {name}: xi must be a 0/1 vector of length {rank}")
    return BraneConfig(name, **fields)


def _check_task_shape(kind, key, value, n, line, raw):
    shape = _TASK_SHAPES.get(key)
    if shape is None:
        return
    width = int(shape.rstrip("n") or 1) * (n if shape.endswith("n") else 1)
    vtype = _TASK_KEYS[kind][key]
    if vtype == "rmat":
        if value.shape != (width, width):
            _fail(f"task {kind}: {key} must be {width}x{width}, got "
                  f"{value.nrows}x{value.ncols}", line, raw, key)
        return
    what = key if vtype.endswith("vec") else f"{key} rows"
    got = len(value if vtype.endswith("vec") else value[0])
    if got != width:
        need = shape if shape == str(width) else f"{shape} = {width}"
        _fail(f"task {kind}: {what} must have {need} entries, got {got}", line,
              raw, key)


def parse_config(text: str) -> JobConfig:
    """Parse and validate a job configuration."""
    sections = []  # (kind, name, header_line, {key: value}, {key: (line, raw)})
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
            current = (kind, name, lineno, {}, {})
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
        schema = _SECTION_KEYS.get(kind) or _TASK_KEYS[current[1]]
        if key not in schema:
            _fail(f"unknown key {key!r} in [{kind}{' ' + current[1] if current[1] else ''}]",
                  lineno, rawline, key)
        if key in current[3]:
            _fail(f"duplicate key {key!r}", lineno, rawline, key)
        current[3][key] = _parse_value(schema[key], value, lineno, rawline)
        current[4][key] = (lineno, rawline)

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
        for key, value in fields.items():
            _check_task_shape(kind, key, value, torus.n, *s[4][key])
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


def _echo_section(header, schema, pairs) -> str:
    return "\n".join([header] + [f"{key} = {_fmt_value(schema[key], value)}"
                                 for key, value in pairs if value is not None])


def _echo_record(header, schema, record) -> str:
    # a record's fields are its section's keys, echoed in the table's order
    return _echo_section(header, schema,
                         ((key, getattr(record, key)) for key in schema))


def echo_config(config: JobConfig) -> str:
    """Serialize a JobConfig back to config text; parsing the result yields
    an equal JobConfig."""
    out = [_echo_record("[torus]", _TORUS_KEYS, config.torus)]
    out += [_echo_record(f"[brane {b.name}]", _BRANE_KEYS, b)
            for b in config.branes]
    out += [_echo_section(f"[task {t.kind}]", _TASK_KEYS[t.kind], t.params)
            for t in config.tasks]
    out.append(_echo_record("[numeric]", _NUMERIC_KEYS, config.numeric))
    return "\n\n".join(out) + "\n"
