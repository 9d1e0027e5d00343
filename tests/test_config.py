"""The job format's codecs and key tables: every value type parses and
echoes through one codec, and echo walks the key tables in their order."""

from fractions import Fraction as F

import pytest

from test_cli import FULL_JOB
from toruslift import cli, config, runner
from toruslift.config import _fmt_value, _parse_value, echo_config, parse_config
from toruslift.errors import ParseError

# one key of every value type, each written in canonical form, so the echo
# of the parsed job is the text itself
ALL_TYPES_JOB = """\
[torus]
n = 2
tau = i -1/2 ; 0 3/2-i

[brane C]
kind = coisotropic
n_mat = 0 0 1 0 ; 0 0 0 1 ; -1 0 0 0 ; 0 -1 0 0
phi = -1/3 0 1/2 0
offset = 0 -7/5 0 0
xi = 1 0 0 1

[brane F]
kind = fiber
position = -1/5 0

[task validate]
brane = C

[task theta]
d = 2 -1 ; -1 2
k = 0 -1
xi = 1 0
z = 0 -1/2+i

[task identity1]
tau_grid = i -i 0 -1/2+i 1/3-2/5i
z_grid = 0 -1/2 2i -i

[task identity2]
tolerance = 1e-09
uv_grid = 1/10 0 ; 0 -i ; 1/5+1/10i -1/10

[task usub]
points = 1/20 -1/4 0 0 0 0 0 1 ; -9/20 1/2 1 -3 0 0 0 0

[task diagram]
d = 2 0 ; 0 1
grid = 0 0 0 0 ; -1/2 1/2 1/4 -1/4
k_list = 0 0 ; 1 0 ; -1 -2
reference_char = 0 1

[task upart-self]
brane = C
expected = 1 2 1

[numeric]
tol = 2.5e-11
max_radius = 7
precision = dd
"""

# echo texts recorded before the codec table replaced the per-type chains
FULL_JOB_ECHO = """\
[torus]
n = 1
tau = i

[brane L0]
kind = graph
d = 0

[brane F]
kind = fiber
position = 1/5

[task validate]
brane = L0

[task validate]
brane = F

[task lift]
brane = L0

[task theta]
d = 2
k = 1

[task identity1]

[task identity2]

[task usub]
d = 2
k = 1

[task diagram]
d = 2

[task upart-self]
brane = L0
expected = 1 1

[task twist]
brane = L0

[numeric]
tol = 1e-10
max_radius = 40
precision = double
"""

NON_SPLIT = """
[torus]
n = 1
omega = 0 2 ; -2 0
b = 0 1/2 ; -1/2 0
"""

NON_SPLIT_ECHO = """\
[torus]
n = 1
omega = 0 2 ; -2 0
b = 0 1/2 ; -1/2 0

[numeric]
max_radius = 40
precision = double
"""


def test_echo_text_is_pinned():
    assert echo_config(parse_config(FULL_JOB)) == FULL_JOB_ECHO
    assert echo_config(parse_config(NON_SPLIT)) == NON_SPLIT_ECHO
    # b defaults to zero and is echoed
    bare = parse_config("[torus]\nn = 1\nomega = 0 1 ; -1 0")
    assert "\nb = 0 0 ; 0 0\n" in echo_config(bare)


def test_every_value_type_round_trips_through_echo():
    cfg = parse_config(ALL_TYPES_JOB)
    types = {vtype for keys in (config._TORUS_KEYS, config._BRANE_KEYS,
                                config._NUMERIC_KEYS, *config._TASK_KEYS.values())
             for vtype in keys.values()}
    used = {config._TASK_KEYS[t.kind][key] for t in cfg.tasks for key, _ in t.params}
    used |= {"int", "cmat", "word", "rmat", "rvec", "ivec", "float"}
    assert used == types and len(types) == 11
    assert echo_config(cfg) == ALL_TYPES_JOB
    assert parse_config(echo_config(cfg)) == cfg


@pytest.mark.parametrize("vtype, text", [
    ("word", "dd"),
    ("int", "-3"),
    ("int", "0"),
    ("float", "1e-10"),
    ("float", "0.5"),
    ("rvec", "-1/2 0 7"),
    ("ivec", "0 -1 1"),
    ("cvec", "i -i 0 2 -1/2i 3/4+i -3/4-i 7-2/9i"),
    ("rmat", "-1/2 0 ; 0 -3"),
    ("cmat", "i 0 ; -1/3 -1+2i"),
    ("rrows", "0 -1/5 ; 1/3 1"),
    ("irows", "0 0 ; -1 2"),
    ("crows", "i -i ; 0 1-1/2i"),
])
def test_codec_round_trip(vtype, text):
    # each text is canonical: it is its own echo
    value = _parse_value(vtype, text, 1, text)
    assert _fmt_value(vtype, value) == text
    assert _parse_value(vtype, _fmt_value(vtype, value), 1, text) == value


@pytest.mark.parametrize("token, canonical", [
    ("i", "i"), ("+i", "i"), ("-i", "-i"), ("0", "0"), ("-0", "0"),
    ("0+i", "i"), ("0-2i", "-2i"), ("0+5/3i", "5/3i"), ("2+0i", "2"),
    ("0.25-0.5i", "1/4-1/2i"),
    ("1e-3", "1/1000"),
])
def test_complex_tokens_echo_canonically(token, canonical):
    assert _fmt_value("cvec", _parse_value("cvec", token, 1, token)) == canonical


@pytest.mark.parametrize("token, pair", [
    ("1e-3i", (F(0), F(1, 1000))),
    ("2+1e-3i", (F(2), F(1, 1000))),
    ("1E-2i", (F(0), F(1, 100))),
    ("1e+3i", (F(0), F(1000))),
    ("-1e-3-1e-3i", (F(-1, 1000), F(-1, 1000))),
    ("1e-3-2i", (F(1, 1000), F(-2))),
    ("2.5e1+1i", (F(25), F(1))),
    ("1e-3", (F(1, 1000), F(0))),
])
def test_exponents_parse_in_either_part_of_a_complex_token(token, pair):
    cfg = parse_config(f"[torus]\nn = 1\ntau = i\n[task identity1]\n"
                       f"tau_grid = {token}")
    assert cfg.tasks[0].get("tau_grid") == (pair,)


@pytest.mark.parametrize("vtype", ["rmat", "cmat", "rrows", "irows", "crows"])
@pytest.mark.parametrize("text", ["1 0 ; 1", "1 ; 1 0", "; 1", "1 ;"])
def test_ragged_rows_are_rejected(vtype, text):
    with pytest.raises(ParseError) as err:
        _parse_value(vtype, text, 4, f"k = {text}")
    assert str(err.value) == "line 4: matrix rows have unequal lengths"


# one malformed value per task key that has a shape in n, on an n = 1
# torus: (task kind, the key's line, the message)
MALFORMED_TASKS = {
    "d": ("usub", "d = 1 0 ; 0 1", "task usub: d must be 1x1, got 2x2"),
    "k": ("theta", "k = 1 2", "task theta: k must have n = 1 entries, got 2"),
    "xi": ("diagram", "xi = 0 1",
           "task diagram: xi must have n = 1 entries, got 2"),
    "z": ("theta", "z = i 0", "task theta: z must have n = 1 entries, got 2"),
    "reference_char": ("diagram", "reference_char = 0 0",
                       "task diagram: reference_char must have n = 1 "
                       "entries, got 2"),
    "k_list": ("diagram", "k_list = 0 0 ; 1 0",
               "task diagram: k_list rows must have n = 1 entries, got 2"),
    "grid": ("diagram", "grid = 0 0 0",
             "task diagram: grid rows must have 2n = 2 entries, got 3"),
    "points": ("usub", "points = 0 0 0",
               "task usub: points rows must have 4n = 4 entries, got 3"),
    "uv_grid": ("identity2", "uv_grid = 0 0 0",
                "task identity2: uv_grid rows must have 2 entries, got 3"),
}


@pytest.mark.parametrize("key", sorted(MALFORMED_TASKS))
def test_task_values_are_checked_against_the_torus_dimension(key, tmp_path,
                                                             capsys):
    kind, line, message = MALFORMED_TASKS[key]
    text = f"[task {kind}]\n{line}\n\n[torus]\nn = 1\ntau = i\n"
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert str(err.value) == f"line 2, column 1: {message}"
    # the CLI reports it as a config error before any task runs
    path = tmp_path / "job.cfg"
    path.write_text(text)
    assert cli.main(["--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {err.value}\n"


def test_every_shaped_task_key_has_a_malformed_case():
    assert config._TASK_SHAPES.keys() == MALFORMED_TASKS.keys()


def test_task_kinds_are_the_runner_tasks():
    assert set(runner._TASKS) == set(config.TASK_KINDS)
    assert config.TASK_KINDS == tuple(config._TASK_KEYS)


def test_brane_kinds_name_a_placing_key_of_the_brane_table():
    assert set(config.BRANE_KINDS.values()) <= set(config._BRANE_KEYS)
    assert set(config._BRANE_KEYS) == set(config.BraneConfig.__dataclass_fields__) - {"name"}
    assert set(config._TORUS_KEYS) == set(config.TorusConfig.__dataclass_fields__)
    assert set(config._NUMERIC_KEYS) == set(config.NumericPolicy.__dataclass_fields__)


def test_precisions_and_formats_come_from_their_registries():
    from toruslift import cli, report, summation

    assert config.PRECISIONS == tuple(summation._CONTEXTS) == ("double", "dd")
    choices = {a.dest: a.choices for a in cli._PARSER._actions}
    assert choices["precision"] == config.PRECISIONS
    assert choices["format"] == tuple(report.FORMATS) == ("lines", "summary")
    with pytest.raises(ValueError, match="^unknown precision 'qd'; expected "
                       "'double' or 'dd'$"):
        summation.get_context("qd")
    with pytest.raises(ValueError, match="^unknown report format 'csv'$"):
        report.emit_report([], "csv")
