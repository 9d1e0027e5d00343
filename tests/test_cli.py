import json
from fractions import Fraction

import pytest

from toruslift.cli import main
from toruslift.config import (
    JobConfig,
    NumericPolicy,
    TaskSpec,
    echo_config,
    parse_config,
)
from toruslift.errors import ParseError, ValidationError
from toruslift.report import emit_report
from toruslift.runner import ReportRecord, run

MINIMAL = """
[torus]
n = 1
tau = i

[task theta]
"""

FULL_JOB = """
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
"""

FULL_IDS = ["validate-1", "validate-2", "lift-1", "theta-1", "identity1-1",
            "identity2-1", "usub-1", "diagram-1", "upart-self-1", "twist-1"]


@pytest.fixture(scope="module")
def full_records():
    return run(parse_config(FULL_JOB))


# --- parsing -------------------------------------------------------------------


def test_minimal_config_parses():
    cfg = parse_config(MINIMAL)
    assert cfg.torus.n == 1
    assert cfg.torus.tau[1][0, 0] == 1
    assert [t.id for t in cfg.tasks] == ["theta-1"]
    assert cfg.numeric == NumericPolicy()


def test_complex_token_forms():
    cfg = parse_config("""
[torus]
n = 1
tau = i
[task identity1]
tau_grid = i -i 2 3i 1/2-3/10i -1/2+i 0
""")
    grid = cfg.tasks[0].get("tau_grid")
    F = Fraction
    assert grid == ((F(0), F(1)), (F(0), F(-1)), (F(2), F(0)), (F(0), F(3)),
                    (F(1, 2), F(-3, 10)), (F(-1, 2), F(1)), (F(0), F(0)))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_config("[torus]\nn = 1\ntau = i\nwhat is this")
    assert err.value.line == 4
    with pytest.raises(ParseError) as err:
        parse_config("[torus]\nn = 1\ntau = j")
    assert err.value.line == 3
    assert err.value.column == 7
    with pytest.raises(ParseError):
        parse_config("key = 1")  # before any section
    with pytest.raises(ParseError):
        parse_config("[task bogus]")
    with pytest.raises(ParseError):
        parse_config("[torus]\nn = 1\nn = 2")
    with pytest.raises(ParseError):
        parse_config("[torus]\nrho = 1")  # unknown key


def test_shape_violations_are_validation_errors():
    with pytest.raises(ValidationError):
        parse_config("[torus]\nn = 1\ntau = i i")
    with pytest.raises(ValidationError) as err:
        parse_config("[torus]\nn = 1\ntau = i\n"
                      "[brane X]\nkind = graph\nd = 1 0 ; 0 1")
    assert "X" in str(err.value)
    with pytest.raises(ValidationError):
        parse_config("[torus]\nn = 1\ntau = i\n"
                      "[brane X]\nkind = graph\nd = 1\nxi = 0 1")
    with pytest.raises(ValidationError):
        parse_config("[torus]\nn = 1")  # neither tau nor omega


def test_undeclared_brane_reference_is_named():
    with pytest.raises(ValidationError) as err:
        parse_config("[torus]\nn = 1\ntau = i\n[task lift]\nbrane = ghost")
    assert "ghost" in str(err.value)


def test_duplicate_sections_rejected():
    with pytest.raises(ParseError):
        parse_config("[torus]\nn = 1\ntau = i\n[torus]\nn = 2")
    with pytest.raises(ParseError):
        parse_config("[torus]\nn = 1\ntau = i\n"
                      "[brane A]\nkind = fiber\nposition = 0\n"
                      "[brane A]\nkind = fiber\nposition = 0")


def test_config_round_trips_through_echo():
    cfg = parse_config(FULL_JOB)
    echoed = echo_config(cfg)
    again = parse_config(echoed)
    assert again == cfg
    assert echo_config(again) == echoed  # echo is a fixed point


def test_round_trip_preserves_non_split_torus():
    cfg = parse_config("""
[torus]
n = 1
omega = 0 2 ; -2 0
b = 0 1/2 ; -1/2 0
""")
    assert parse_config(echo_config(cfg)) == cfg


# --- the runner -----------------------------------------------------------------


def test_full_job_passes(full_records):
    assert [r.status for r in full_records] == ["pass"] * 10
    # declaration order is preserved, with per-kind ordinals
    assert [r.task for r in full_records] == FULL_IDS


def test_pass_records_respect_their_tolerances(full_records):
    for rec in full_records:
        assert rec.status == "pass"
        for _, value, tol in rec.residuals:
            assert value <= tol


def test_identity2_task_meets_the_documented_bound(full_records):
    rec = next(r for r in full_records if r.kind == "identity2")
    (name, worst, tol), = rec.residuals
    assert worst < 1e-10


def test_default_xi_is_echoed(full_records):
    rec = next(r for r in full_records if r.kind == "validate")
    assert dict(rec.values)["xi"] == [0]


def test_diagram_with_wrong_constant_fails_with_measured_values():
    cfg = parse_config("[torus]\nn = 1\ntau = i\n"
                       "[task diagram]\nd = 2\nreference_char = 1")
    (rec,) = run(cfg)
    assert rec.status == "fail"
    values = dict(rec.values)
    assert len(values["rho"]) == 10  # 2 cosets x 5 grid points
    by_name = {name: (value, tol) for name, value, tol in rec.residuals}
    assert by_name["constancy"][0] <= by_name["constancy"][1]
    assert by_name["prediction"][0] > by_name["prediction"][1]


def test_runner_never_aborts_the_batch():
    cfg = parse_config("""
[torus]
n = 1
omega = 0 1 ; -1 0

[task usub]

[task theta]
""")
    records = run(cfg)
    assert [r.status for r in records] == ["error", "error"]
    assert "split" in records[0].detail
    # a later good task still runs after an earlier error; the parser
    # rejects a short points row, so the task is built as a library caller
    # would, and the runner's own check turns it into an error record
    cfg2 = parse_config("[torus]\nn = 1\ntau = i\n[task theta]")
    short = TaskSpec("usub", 1, (("points", ((Fraction(1, 5), Fraction(0)),)),))
    records = run(JobConfig(cfg2.torus, tasks=(short,) + cfg2.tasks))
    assert records[0].status == "error"
    assert records[1].status == "pass"


def test_theta_task_reports_certificate():
    cfg = parse_config("[torus]\nn = 1\ntau = i\n[task theta]\nd = 2\nk = 1")
    (rec,) = run(cfg)
    values = dict(rec.values)
    assert abs(values["value"][0] - 0.4157606025960270) < 1e-12
    assert values["tail_bound"] < 1e-10
    assert values["radius"] >= 1


# --- reports ---------------------------------------------------------------------


def test_empty_records_give_empty_lines():
    assert emit_report([], "lines") == ""


def test_lines_schema_and_determinism(full_records):
    text = emit_report(full_records, "lines")
    lines = text.splitlines()
    assert len(lines) == 10
    first = json.loads(lines[0])
    assert list(first) == ["task", "kind", "status", "residuals", "values",
                           "detail"]
    assert first["task"] == "validate-1"
    assert first["status"] == "pass"
    assert first["residuals"][0]["tol"] == 0.0
    # byte-identical across a re-run of the same config
    again = run(parse_config(FULL_JOB))
    assert emit_report(again, "lines") == text


def test_summary_table(full_records):
    text = emit_report(full_records, "summary")
    assert "10 tasks: 10 pass, 0 fail, 0 error" in text
    assert "usub-1" in text
    with pytest.raises(ValueError):
        emit_report(full_records, "csv")


# --- the command line -------------------------------------------------------------


def test_cli_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(MINIMAL)
    assert main(["--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["kind"] == "theta"

    out_path = tmp_path / "report.jsonl"
    assert main(["--config", str(cfg), "--out", str(out_path),
                 "--precision", "dd"]) == 0
    capsys.readouterr()
    record = json.loads(out_path.read_text())
    assert record["values"]["tail_bound"] < 1e-20  # the override took effect


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("[torus]\nn = 1\ntau = i i\n")
    assert main(["--config", str(bad)]) == 2
    capsys.readouterr()

    failing = tmp_path / "fail.cfg"
    failing.write_text("[torus]\nn = 1\ntau = i\n"
                       "[task diagram]\nd = 2\nreference_char = 1\n")
    assert main(["--config", str(failing)]) == 1
    capsys.readouterr()

    good = tmp_path / "ok.cfg"
    good.write_text(MINIMAL)
    assert main(["--config", str(good), "--tol", "-3"]) == 2
    capsys.readouterr()


def test_numeric_overrides_go_through_the_config_check(tmp_path, capsys):
    # an override and the same value in [numeric] fail with one message
    for key, flag, value, message in (
            ("max_radius", "--max-radius", "0", "max_radius must be at least 1"),
            ("tol", "--tol", "-3", "tol must be positive")):
        in_file = tmp_path / f"{key}.cfg"
        in_file.write_text(MINIMAL + f"\n[numeric]\n{key} = {value}\n")
        assert main(["--config", str(in_file)]) == 2
        from_file = capsys.readouterr().err
        good = tmp_path / "ok.cfg"
        good.write_text(MINIMAL)
        assert main(["--config", str(good), flag, value]) == 2
        assert capsys.readouterr().err == from_file == f"config error: {message}\n"


def test_removed_partitions_key_is_a_config_error(tmp_path, capsys):
    # summation order is fixed, so [numeric] has no partitions key
    text = MINIMAL + "\n[numeric]\npartitions = 2\n"
    with pytest.raises(ParseError, match="unknown key 'partitions' in"
                                         r" \[numeric\]"):
        parse_config(text)
    cfg = tmp_path / "job.cfg"
    cfg.write_text(text)
    assert main(["--config", str(cfg)]) == 2
    assert "unknown key 'partitions'" in capsys.readouterr().err


def test_cli_summary_format(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(MINIMAL)
    assert main(["--config", str(cfg), "--format", "summary"]) == 0
    out = capsys.readouterr().out
    assert "1 task: 1 pass, 0 fail, 0 error" in out


def test_consecutive_calls_share_no_parser_state(tmp_path, capsys):
    # the parser is built once per process; flags given to one call must
    # not leak into the next
    cfg = tmp_path / "job.cfg"
    cfg.write_text(MINIMAL)
    out_path = tmp_path / "report.txt"
    assert main(["--config", str(cfg), "--format", "summary", "--out",
                 str(out_path), "--precision", "dd"]) == 0
    assert "1 task: 1 pass" in out_path.read_text()
    assert capsys.readouterr().out == ""
    assert main(["--config", str(cfg)]) == 0
    record = json.loads(capsys.readouterr().out)  # lines, to stdout
    assert record["kind"] == "theta"
    assert record["values"]["tail_bound"] > 1e-20  # back in double


def test_max_radius_caps_every_certified_task(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("[torus]\nn = 2\ntau = i 0 ; 0 i\n"
                   "[task theta]\n"
                   "[task usub]\nd = 1 0 ; 0 1\n"
                   "points = 1/5 -1/10 0 1/4 3/20 0 -1/5 1/10\n"
                   "[numeric]\ntol = 1e-9\n")
    assert main(["--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["--config", str(cfg), "--max-radius", "1"]) == 1
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["kind"] for r in records] == ["theta", "usub"]
    for record in records:
        assert record["status"] == "error"
        assert record["detail"].startswith("TruncationBudgetExceeded")
