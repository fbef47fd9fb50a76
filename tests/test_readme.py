"""The Quick start in README.md prints its stated values, and its command
lines run and print valid JSON."""

import json
import re
import shlex
from pathlib import Path

import pytest

from spinboson.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("spinboson ")]


def test_readme_has_commands():
    assert len(_readme_commands()) >= 6


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_prints_json(line, capsys):
    argv = shlex.split(line)[1:] + ["--format", "json"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["command"] == argv[0]


def test_readme_quick_start(capsys):
    text = README.read_text()
    section = text[text.index("## Quick start"):]
    exec(re.search(r"```python\n(.*?)```", section, re.S).group(1), {})
    trace, verify = capsys.readouterr().out.splitlines()
    assert trace == "119.670"
    assert verify.split()[0] == "120.0"
