import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from polysieve import cli, commands

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    if demo.startswith("03_"):
        assert "sum_b N(a,b) == N(a) for all a: True" in proc.stdout


def _readme_commands():
    """Every `polysieve ...` line of the README's command-line code block."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line.*?```\n(.*?)```", text, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("polysieve ")]


def test_readme_lists_commands():
    assert len(_readme_commands()) >= 12


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_runs(line, capsys):
    assert cli.main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


def _keys(obj):
    """Every dict key in obj, through dicts, lists and tuples."""
    if isinstance(obj, dict):
        yield from obj
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _keys(v)


def test_readme_commands_cover_every_subcommand():
    assert {shlex.split(line)[1] for line in _readme_commands()} == set(commands._HANDLERS)


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_report_keys_are_str(line):
    # report_json encodes keys as they stand, so an int key from a handler would sort
    # against str keys and fail, or reach the JSON as the encoder spells it
    report = cli.run_experiment(cli.parse_config(shlex.split(line)[1:]))
    assert [key for key in _keys(report.to_dict()) if not isinstance(key, str)] == []
