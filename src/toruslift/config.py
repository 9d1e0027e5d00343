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

:func:`parse_config` reads the lines once; each value is parsed in one
pass over its split tokens by the grammar below (``int()`` on ASCII
digits; no ``Fraction(str)``), and a matrix is built on its integer
numerators.  A token outside the grammar is reported at its own column.
"""

import re
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from itertools import islice
from math import lcm
from typing import Optional

from .errors import ParseError, ValidationError
from .exact import RatMat
from .summation import PRECISIONS

# each brane kind and the one key that places it
BRANE_KINDS = {"graph": "d", "fiber": "position", "coisotropic": "n_mat"}
# the keys that place a brane, one per kind
_PLACING_KEYS = frozenset(BRANE_KINDS.values())
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
# (factor, whether it multiplies n) of each shape
_TASK_WIDTHS = {key: (int(shape.rstrip("n") or 1), shape.endswith("n"))
                for key, shape in _TASK_SHAPES.items()}
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
        for name, value in self.params:
            if name == key:
                return value
        return default


_PRECISION_MESSAGE = f"precision must be one of {'/'.join(PRECISIONS)}"


@dataclass(frozen=True)
class NumericPolicy:
    tol: Optional[float] = None       # None defers to the context default
    max_radius: int = DEFAULT_MAX_RADIUS
    precision: str = "double"

    def __post_init__(self):
        # the one check, run by the parser and by dataclasses.replace alike
        _require(self.precision in PRECISIONS, _PRECISION_MESSAGE)
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
#
# The token grammar: an integer is an optional sign and ASCII digits; a
# rational is an optional sign, then ASCII digits, ``p/q`` or a decimal
# (``d.d``, ``d.`` or ``.d``) with an optional exponent ``e[+-]d`` or
# ``E[+-]d``; a complex token is ``a``, ``bi`` or ``a+bi`` with rational
# parts.  A rational's digits plus the size of its exponent may not exceed
# the digit limit of ``int()`` (``sys.get_int_max_str_digits()``, 4300 by
# default), so that no token builds a huge power of ten.  A token parser
# returns None outside the grammar; only then is the error, with the
# column of the offending text, worked out.

_SIGNS = ("+", "-")


class _BadValue(Exception):
    """A value outside the grammar: (message, offset of the offending text
    in the value); the parser adds the line and the column."""


# int() has no digit limit before Python 3.11, or when it is switched off
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _fail(message, line, raw=None, token=None):
    pos = raw.find(token) if raw is not None and token is not None else -1
    raise ParseError(message, line, pos + 1 if pos >= 0 else None)


@lru_cache(maxsize=512)
def _ratio(tok):
    """(p, q), q > 0, with p/q the value of the rational token ``tok``
    (not reduced), or None.  Memoised, as are the other token parsers: a
    config's tokens (0, 1, i, 1/2, ...) recur within a matrix and from
    job to job."""
    if not tok.isascii():
        return None
    body = tok[1:] if tok[:1] in _SIGNS else tok
    try:
        if body.isdigit():
            p, q = int(body), 1
        elif "/" in body:
            p, _, q = body.partition("/")
            if not (p.isdigit() and q.isdigit()):
                return None
            p, q = int(p), int(q)
            if not q:
                return None
        else:
            mant, e, exp = body.lower().partition("e")
            whole, _, frac = mant.partition(".")
            if not (whole + frac).isdigit():
                return None
            scale = -len(frac)
            if e:
                if not (exp[1:] if exp[:1] in _SIGNS else exp).isdigit():
                    return None
                scale += int(exp)
                if len(whole + frac) + abs(scale) > _DIGIT_LIMIT:
                    return None
            p, q = int(whole + frac), 1
            if scale >= 0:
                p *= 10 ** scale
            else:
                q = 10 ** -scale
    except ValueError:  # more digits than int() converts
        return None
    return (-p, q) if tok[0] == "-" else (p, q)


@lru_cache(maxsize=512)
def _integer(tok):
    body = tok[1:] if tok[:1] in _SIGNS else tok
    if not (body.isascii() and body.isdigit()):
        return None
    try:
        return int(tok)
    except ValueError:  # more digits than int() converts
        return None


def _float(tok):
    try:
        return float(tok)
    except ValueError:
        return None


def _word(tok):
    return tok if len(tok.split()) == 1 else None


def _complex_parts(tok):
    """(real part, imaginary part, offset of the imaginary part) of a
    complex token; the imaginary part is None without a trailing ``i``."""
    if not tok.endswith("i"):
        return tok, None, 0
    body = tok[:-1]
    # the parts split at the last sign that starts a number, which is not
    # a sign after another sign, a '/' or an exponent's e (1e-3i)
    split = max(body.rfind("+"), body.rfind("-"))
    while split > 0 and body[split - 1] in "+-/eE":
        split = max(body.rfind("+", 0, split), body.rfind("-", 0, split))
    split = max(split, 0)
    return body[:split], body[split:], split


_UNITS = {"": (1, 1), "+": (1, 1), "-": (-1, 1)}
_ZERO = (0, 1)


def _cratio(tok):
    """(real, imaginary) ratios of a complex token, or None."""
    re_part, im_part, _ = _complex_parts(tok)
    if im_part is None:
        re = _ratio(re_part)
        return None if re is None else (re, _ZERO)
    im = _UNITS.get(im_part) or _ratio(im_part)
    re = _ratio(re_part) if re_part else _ZERO
    return None if re is None or im is None else (re, im)


def _not_rational(part, offset=0):
    return f"not a rational number: {part!r}", offset


def _complex_error(tok):
    # the imaginary part is judged first
    re_part, im_part, split = _complex_parts(tok)
    if im_part is not None and im_part not in _UNITS and _ratio(im_part) is None:
        return _not_rational(im_part, split)
    return _not_rational(re_part)


def _frac(pq) -> Fraction:
    p, q = pq
    return Fraction(p) if q == 1 else Fraction(p, q)


@lru_cache(maxsize=512)
def _rational(tok):
    """The Fraction of a rational token, or None."""
    pq = _ratio(tok)
    return None if pq is None else _frac(pq)


@lru_cache(maxsize=512)
def _complex(tok):
    """The (Re, Im) Fraction pair of a complex token, or None."""
    c = _cratio(tok)
    return None if c is None else (_frac(c[0]), _frac(c[1]))


def _rat_matrix(data, width: int) -> RatMat:
    """The RatMat of the ratios ``data``, row by row of ``width``, built on
    its numerators over their least common denominator."""
    nums, dens = zip(*data)
    den = lcm(*dens)
    if den != 1:
        nums = [p * (den // q) for p, q in data]
    if width == len(nums):
        return RatMat._make((tuple(nums),), den)
    return RatMat._make(tuple([tuple(nums[i:i + width])
                               for i in range(0, len(nums), width)]), den)


def _fmt_complex(c) -> str:
    re, im = c
    if im == 0:
        return str(re)
    tail = {1: "i", -1: "-i"}.get(im, f"{im}i")
    if re == 0:
        return tail
    return f"{re}{tail}" if tail[0] == "-" else f"{re}+{tail}"


def _not_integer(tok):
    return f"not an integer: {tok!r}", 0


# (parse -> value or None, error (message, offset), format) per scalar type
_SCALARS = {
    "word": (_word, lambda tok: (f"expected a single word, got {tok!r}", 0),
             str),
    "int": (_integer, _not_integer, str),
    "float": (_float, lambda tok: (f"not a number: {tok!r}", 0), repr),
}
# per element of the container types: (parse -> element of a vec or rows
# value or None, error (message, offset in the token), parse -> ratios of a
# matrix entry or None, format)
_ELEMENTS = {
    "r": (_rational, _not_rational, _ratio, str),
    "i": (_integer, _not_integer, None, str),
    "c": (_complex, _complex_error, _cratio, _fmt_complex),
}


def _parser(vtype):
    """The parser of one value type: value text -> value, raising
    _BadValue.  A container's tokens are split once and parsed in one
    pass; a matrix is built on its integer numerators."""
    if vtype in _SCALARS:
        parse, explain, _ = _SCALARS[vtype]

        def parse_scalar(value):
            out = parse(value)
            if out is None:
                raise _BadValue(*explain(value))
            return out
        return parse_scalar
    parse, explain, entry, _ = _ELEMENTS[vtype[0]]
    vec = vtype.endswith("vec")
    if vtype.endswith("mat"):
        parse = entry

    def parse_container(value):
        if vec:
            tokens = value.split()
        else:
            rows = value.split(";")
            tokens = rows[0].split()
            width = len(tokens)
            for row in rows[1:]:
                row = row.split()
                if len(row) != width:
                    width = 0
                    break
                tokens += row
            if not width:
                raise _BadValue("matrix rows have unequal lengths", None)
        data = list(map(parse, tokens))
        if None in data:
            i = data.index(None)
            spans = re.finditer(r"\S+" if vec else r"[^\s;]+", value)
            message, inner = explain(tokens[i])
            raise _BadValue(message, next(islice(spans, i, None)).start()
                            + inner)
        if vec:
            return tuple(data)
        if vtype == "rmat":
            return _rat_matrix(data, width)
        if vtype == "cmat":
            real, imag = zip(*data)
            return _rat_matrix(real, width), _rat_matrix(imag, width)
        return tuple([tuple(data[i:i + width])
                      for i in range(0, len(data), width)])
    return parse_container


# one parser per value type of the key tables
_PARSERS = {vtype: _parser(vtype)
            for keys in (*_SECTION_KEYS.values(), *_TASK_KEYS.values())
            for vtype in keys.values()}


@lru_cache(maxsize=256)
def _value(vtype, value):
    """The value of type ``vtype`` written as ``value``, memoised on the
    text like the tokens: a batch of jobs repeats its tori, slopes and
    numeric policy, and every value is immutable.  Errors are not cached."""
    return _PARSERS[vtype](value)


def _fmt_value(vtype, value) -> str:
    scalar = _SCALARS.get(vtype)
    if scalar is not None:
        return scalar[-1](value)
    fmt = _ELEMENTS[vtype[0]][-1]
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
    if mat.shape != shape:
        raise ValidationError(f"{what} must be {shape[0]}x{shape[1]}, got "
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
    # messages are formed only when a check fails
    def fail(message):
        raise ValidationError(f"brane {name}: {message}")

    if "kind" not in fields:
        fail("kind is required")
    kind = fields["kind"]
    if kind not in BRANE_KINDS:
        fail(f"unknown kind {kind!r}")
    place = BRANE_KINDS[kind]
    rank = 2 * n if kind == "coisotropic" else n
    if place not in fields:
        fail(f"{kind} branes need {place}")
    if place == "position":
        if len(fields[place]) != n:
            fail(f"position must have length {n}")
    else:
        shape = fields[place].shape
        if shape != (rank, rank):
            fail(f"{place} must be {rank}x{rank}, got {shape[0]}x{shape[1]}")
    if len(_PLACING_KEYS.intersection(fields)) > 1:
        key = next(key for key in _BRANE_KEYS
                   if key in fields and key != place and key in _PLACING_KEYS)
        fail(f"key {key} does not apply to kind {kind}")
    if "phi" in fields and len(fields["phi"]) != rank:
        fail(f"phi must have length {rank}")
    if "offset" in fields:
        if kind != "coisotropic":
            fail("only coisotropic branes take an offset")
        if len(fields["offset"]) != 2 * n:
            fail(f"offset must have length {2 * n}")
    if "xi" in fields:
        if kind == "fiber":
            fail("fiber branes carry no xi")
        bits = fields["xi"]
        if len(bits) != rank or any(b not in (0, 1) for b in bits):
            fail(f"xi must be a 0/1 vector of length {rank}")
    return BraneConfig(name, **fields)


def _check_task_shape(kind, key, value, n, line, raw):
    """ParseError at the key's line unless a task value has its shape in
    the torus dimension n (:data:`_TASK_SHAPES`)."""
    factor, per_n = _TASK_WIDTHS[key]
    width = factor * n if per_n else factor
    vtype = _TASK_KEYS[kind][key]
    if vtype == "rmat":
        if value.shape != (width, width):
            _fail(f"task {kind}: {key} must be {width}x{width}, got "
                  f"{value.nrows}x{value.ncols}", line, raw, key)
        return
    vec = vtype.endswith("vec")
    got = len(value if vec else value[0])
    if got != width:
        shape = _TASK_SHAPES[key]
        what = key if vec else f"{key} rows"
        need = shape if shape == str(width) else f"{shape} = {width}"
        _fail(f"task {kind}: {what} must have {need} entries, got {got}", line,
              raw, key)


def _header(line, lineno, rawline, seen) -> tuple:
    """The (kind, name) of a section header line, added to ``seen``, the
    torus and numeric kinds and the brane names declared before it.  A
    fault is reported at the column of the header's own kind or name."""
    m = _HEADER.match(line)
    if not m:
        _fail(f"malformed section header {line!r}", lineno, rawline, line)
    kind, name = m.group(1), m.group(2)
    lead = len(rawline) - len(rawline.lstrip())

    def fail(message, group):  # group 1 is the kind, 2 the name
        raise ParseError(message, lineno, lead + m.start(group) + 1)

    if kind in ("torus", "numeric"):
        if name is not None:
            fail(f"section [{kind}] takes no name", 2)
        if kind in seen:
            fail(f"duplicate [{kind}] section", 1)
        seen.add(kind)
    elif kind == "brane":
        if name is None:
            fail("brane sections need a name: [brane NAME]", 1)
        if ("brane", name) in seen:
            fail(f"brane {name!r} is declared twice", 2)
        seen.add(("brane", name))
    elif kind == "task":
        if name is None or name not in TASK_KINDS:
            fail(f"task sections need a kind out of {', '.join(TASK_KINDS)}",
                 1)
    else:
        fail(f"unknown section kind {kind!r}", 1)
    return kind, name


def _key_error(line, lineno, rawline, section) -> None:
    """Raise the error of a line that is not a ``key = value`` line of the
    table of ``section`` ((kind, name), or None before any header)."""
    m = _KEYVAL.match(line)
    if not m:
        _fail(f"expected 'key = value', got {line!r}", lineno, rawline, line)
    if section is None:
        _fail("key=value before any section header", lineno, rawline, line)
    kind, name = section
    _fail(f"unknown key {m.group(1)!r} in [{kind}{' ' + name if name else ''}]",
          lineno, rawline, m.group(1))


def parse_config(text: str) -> JobConfig:
    """Parse and validate a job configuration: one pass over the lines,
    which parses each value in one pass over its tokens, then the checks
    that need the whole job, in the order of the sections."""
    lines = text.splitlines()
    torus_fields, numeric_fields = None, {}
    branes, tasks = [], []  # (name, fields); (kind, fields, {key: line})
    seen = set()
    section, schema, fields, at = None, {}, None, None
    for lineno, rawline in enumerate(lines, start=1):
        line = (rawline.split("#", 1)[0] if "#" in rawline else rawline).strip()
        if not line:
            continue
        if line[0] == "[":
            section = kind, name = _header(line, lineno, rawline, seen)
            fields, at = {}, {}
            if kind == "task":
                schema = _TASK_KEYS[name]
                tasks.append((name, fields, at))
            else:
                schema = _SECTION_KEYS[kind]
                if kind == "brane":
                    branes.append((name, fields))
                elif kind == "torus":
                    torus_fields = fields
                else:
                    numeric_fields = fields
            continue
        # a line of the table is key, '=', a value; everything else falls
        # to _key_error, which names the fault as _KEYVAL sees it
        head, _, tail = line.partition("=")
        key = head.rstrip()
        value = tail.lstrip()
        vtype = schema.get(key) if value else None
        if vtype is None:
            _key_error(line, lineno, rawline, section)
        if key in fields:
            _fail(f"duplicate key {key!r}", lineno, rawline, key)
        try:
            fields[key] = _value(vtype, value)
        except _BadValue as bad:
            message, offset = bad.args
            if offset is not None:  # the column of the offending text
                offset += (len(rawline) - len(rawline.lstrip()) + len(line)
                           - len(value) + 1)
            raise ParseError(message, lineno, offset) from None
        at[key] = lineno

    _require(torus_fields is not None, "a [torus] section is required")
    torus = _build_torus(torus_fields)
    n = torus.n
    branes = tuple([_build_brane(name, fields, n) for name, fields in branes])
    numeric = NumericPolicy(**numeric_fields)

    declared = {b.name for b in branes}
    counts = dict.fromkeys(TASK_KINDS, 0)
    specs = []
    for kind, fields, at in tasks:
        for key, value in fields.items():
            if key in _TASK_SHAPES:
                line = at[key]
                _check_task_shape(kind, key, value, n, line, lines[line - 1])
        counts[kind] += 1
        ref = fields.get("brane")
        if ref is not None:
            _require(ref in declared,
                     f"task {kind}: brane {ref!r} is not declared")
        if "xi" in fields and any(b not in (0, 1) for b in fields["xi"]):
            raise ValidationError(f"task {kind}: xi must be a 0/1 vector")
        specs.append(TaskSpec(kind, counts[kind], tuple(sorted(fields.items()))))
    return JobConfig(torus, branes, tuple(specs), numeric)


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
