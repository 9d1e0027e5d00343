"""The one-pass config parser: its token grammar, its error columns, and
its outcomes on a recorded corpus.

``tests/data/config_parity.json`` holds what the earlier parser, which
read each rational token with ``Fraction(str)`` and each integer with
``int(tok, 10)``, gave on the jobs of the three benchmark workloads and on
seeded corruptions of them (``tests/record_config_parity.py``): the
``echo_config`` bytes of the job, or the error class, message, line and
column.  The parser must give the same on every text but two kinds, the
only outcomes that changed:

* a token outside the grammar of README's "Config format" (an underscore
  or a digit that is not ASCII) is now rejected with the "not a rational
  number" or "not an integer" ParseError; ``Fraction`` read "1_0" as 10
  on Python 3.11 but not on 3.10, and "١" as 1 everywhere;
* a bad value token that also occurs earlier in its line is reported at
  its own column, not at the earlier occurrence.
"""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslift import config
from toruslift.config import echo_config, parse_config
from toruslift.errors import ParseError

CASES = json.loads((Path(__file__).parent / "data" / "config_parity.json")
                   .read_text(encoding="utf-8"))


def outcome(text):
    try:
        return {"echo": echo_config(parse_config(text))}
    except Exception as exc:  # every failure is compared, whatever its class
        return {"error": [type(exc).__name__, str(exc),
                          getattr(exc, "line", None),
                          getattr(exc, "column", None)]}


def off_grammar(token):
    return "_" in token or not token.isascii()


def grammar_change(text, got):
    """The recorded parser took a token that the grammar rejects, and the
    parser now names that token, at its own column."""
    if "error" not in got:
        return False
    cls, message, line, column = got["error"]
    m = re.search(r"not (a rational number|an integer): '(.*)'$", message)
    raw = text.splitlines()[line - 1]
    return (cls == "ParseError" and m is not None and off_grammar(m.group(2))
            and raw[column - 1:].startswith(m.group(2)))


def column_change(text, want, got):
    """The same error, moved from an earlier occurrence of the token's text
    to the token itself."""
    if "error" not in want or "error" not in got:
        return False
    (cls, message, line, column), (cls2, message2, line2, column2) = \
        want["error"], got["error"]
    if (cls, line, message.split(": ", 1)[1]) != \
            (cls2, line2, message2.split(": ", 1)[1]):
        return False
    token = re.search(r": '(.*)'$", message).group(1)
    raw = text.splitlines()[line - 1]
    return (column < column2 and raw[column - 1:].startswith(token)
            and raw[column2 - 1:].startswith(token))


def test_recorded_outcomes_are_kept():
    changed = {"grammar": 0, "column": 0}
    for case in CASES:
        want = {key: value for key, value in case.items() if key != "text"}
        got = outcome(case["text"])
        if got == want:
            continue
        if grammar_change(case["text"], got):
            changed["grammar"] += 1
        elif column_change(case["text"], want, got):
            changed["column"] += 1
        else:
            pytest.fail(f"{case['text']!r}: recorded {want}, got {got}")
    assert len(CASES) > 400
    assert sum("echo" in case for case in CASES) > 150
    # the corpus exercises both changes, and nothing else moved
    assert changed["grammar"] > 5 and changed["column"] > 0, changed


def test_recorded_jobs_parse_to_exact_types():
    # integers stay ints and rationals are Fractions, whatever a value's
    # spelling; parsing the echo gives an equal job
    for case in CASES:
        if "echo" not in outcome(case["text"]):
            continue
        cfg = parse_config(case["text"])
        assert parse_config(case["echo"]) == cfg
        for task in cfg.tasks:
            for key, value in task.params:
                vtype = config._TASK_KEYS[task.kind][key]
                if vtype in ("ivec", "irows"):
                    flat = value if vtype == "ivec" else sum(value, ())
                    assert all(type(x) is int for x in flat)
                elif vtype in ("rvec", "rrows", "cvec", "crows"):
                    flat = value if vtype.endswith("vec") else sum(value, ())
                    parts = flat if vtype[0] == "r" else sum(flat, ())
                    assert all(type(x) is Fraction for x in parts)


# --- the error column is the token's own -----------------------------------------

THETA = "[torus]\nn = 1\ntau = i\n[task theta]\n"


@pytest.mark.parametrize("text, message", [
    (THETA + "k = 1 k", "line 5, column 7: not an integer: 'k'"),
    (THETA + "xi = x", "line 5, column 6: not an integer: 'x'"),
    ("[torus]\nn = 1\ntau = i\n[numeric]\ntol = t",
     "line 5, column 7: not a number: 't'"),
    (THETA + "z = 1+xi", "line 5, column 6: not a rational number: '+x'"),
    (THETA + "  d = 2 ; d", "line 5, column 11: not a rational number: 'd'"),
    (THETA + "d = x1  # x1", "line 5, column 5: not a rational number: 'x1'"),
])
def test_a_bad_token_is_reported_at_its_own_column(text, message):
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert str(err.value) == message


# --- the token grammar -------------------------------------------------------------


@pytest.mark.parametrize("line, message", [
    ("z = 1_0", "not a rational number: '1_0'"),
    ("z = 1/1_0", "not a rational number: '1/1_0'"),
    ("z = 1e1_0", "not a rational number: '1e1_0'"),
    ("z = ١", "not a rational number: '١'"),
    ("z = 1٢+i", "not a rational number: '1٢'"),
    ("z = １i", "not a rational number: '１'"),
    ("k = 1_0", "not an integer: '1_0'"),
    ("xi = ١", "not an integer: '١'"),
    ("k = +１", "not an integer: '+１'"),
])
def test_tokens_outside_the_grammar_are_rejected(line, message):
    with pytest.raises(ParseError) as err:
        parse_config(THETA + line)
    column = line.index("=") + 3
    assert str(err.value) == f"line 5, column {column}: {message}"


def test_integer_scalars_follow_the_grammar():
    with pytest.raises(ParseError, match=r"column 5: not an integer: '1_0'"):
        parse_config("[torus]\nn = 1_0\ntau = i\n")


SIGN = st.sampled_from(["", "+", "-"])
DIGITS = st.text("0123456789", min_size=1, max_size=8)


@st.composite
def rational_tokens(draw):
    """Tokens of the README grammar: integers, p/q, and decimals with an
    optional exponent."""
    form = draw(st.sampled_from(["integer", "ratio", "decimal", "exponent"]))
    if form == "integer":
        body = draw(DIGITS)
    elif form == "ratio":
        body = draw(DIGITS) + "/" + draw(DIGITS.filter(lambda d: int(d) > 0))
    else:
        whole = draw(st.text("0123456789", max_size=5))
        frac = draw(st.text("0123456789", max_size=5))
        if not whole + frac:
            whole = "0"
        body = whole + draw(st.sampled_from([".", ""])) + frac
        if form == "exponent" or "." not in body:
            body += (draw(st.sampled_from("eE")) + draw(SIGN)
                     + draw(st.text("0123456789", min_size=1, max_size=2)))
    return draw(SIGN) + body


@settings(max_examples=400, deadline=None)
@given(rational_tokens())
def test_grammar_tokens_parse_as_fraction_reads_them(tok):
    want = Fraction(tok)
    assert config._rational(tok) == want
    p, q = config._ratio(tok)
    assert q > 0 and Fraction(p, q) == want


@settings(max_examples=400, deadline=None)
@given(SIGN, DIGITS)
def test_integer_tokens_parse_as_int_reads_them(sign, digits):
    assert config._integer(sign + digits) == int(sign + digits)
    assert type(config._integer(sign + digits)) is int


def small_exponents(text):
    # Fraction("1e99999999") builds 10**99999999; keep exponents short
    return text.filter(lambda t: not re.search(r"[eE][+-]?\d{4}", t))


TEXT = small_exponents(st.text("0123456789+-/.eE_ xi١１", max_size=10))


@settings(max_examples=600, deadline=None)
@given(TEXT)
def test_the_grammar_is_what_fraction_reads_without_underscores_or_other_digits(tok):
    try:
        want = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        want = None
    if off_grammar(tok) or tok != tok.strip():
        want = None
    assert config._rational(tok) == want


@settings(max_examples=600, deadline=None)
@given(TEXT)
def test_integers_are_what_int_reads_without_underscores_or_other_digits(tok):
    try:
        want = int(tok, 10)
    except ValueError:
        want = None
    if off_grammar(tok) or tok != tok.strip():
        want = None
    assert config._integer(tok) == want


def fraction_complex(tok):
    """A complex token as the earlier parser read it: the parts split at
    the last sign that starts a number, each part by ``Fraction``."""
    if not tok.endswith("i"):
        return Fraction(tok), Fraction(0)
    body, split = tok[:-1], 0
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "+-/eE":
            split = pos
            break
    re_part, im_part = body[:split], body[split:]
    units = {"": 1, "+": 1, "-": -1}
    im = Fraction(units[im_part]) if im_part in units else Fraction(im_part)
    return Fraction(re_part) if re_part else Fraction(0), im


@settings(max_examples=600, deadline=None)
@given(small_exponents(st.text("0123456789+-/.eEi", max_size=12)))
def test_complex_tokens_split_and_parse_as_before(tok):
    try:
        want = fraction_complex(tok)
    except (ValueError, ZeroDivisionError):
        want = None
    assert config._complex(tok) == want
