"""README's examples run as written: the example job of "Config format"
parses, round-trips through ``echo_config`` and passes every task, and
each Python block runs."""

import re
from pathlib import Path

from toruslift.config import echo_config, parse_config
from toruslift.runner import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def blocks(lang=""):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def example_job():
    (job,) = [b for b in blocks() if b.startswith("# one torus per job")]
    return job


def test_the_example_job_round_trips_and_passes_every_task():
    config = parse_config(example_job())
    assert parse_config(echo_config(config)) == config
    kinds = {task.kind for task in config.tasks}
    assert kinds == {"validate", "lift", "theta", "identity1", "identity2",
                     "usub", "diagram", "upart-self", "twist"}
    records = run(config)
    assert len(records) == len(config.tasks)
    assert [(r.task, r.status, r.detail) for r in records
            if r.status != "pass"] == []


def test_the_python_blocks_run():
    code = blocks("python")
    assert len(code) == 2
    for block in code:
        exec(compile(block, "README.md", "exec"), {})
