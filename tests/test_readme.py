"""Each ```python block of README.md runs to completion, each `uclab`
line of its ```bash blocks parses with the CLI's own parser, and its two
tables name the subcommands that take each flag and the list keys each
subcommand reads one value of."""

import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from uclab.cli import _COMMANDS, build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)
UCLAB_LINES = [
    line for block in re.findall(r"^```bash\n(.*?)^```", README,
                                 flags=re.DOTALL | re.MULTILINE)
    for line in block.splitlines() if line.startswith("uclab ")
]
# (flags, subcommands) columns of each row of the flag table
FLAG_ROWS = re.findall(r"^\| (`--.*?) \| .*? \| (.*?) \|$", README, flags=re.MULTILINE)
# (subcommand, list keys) columns of each row of the one-value table
ONE_VALUE_ROWS = re.findall(r"^\| `([a-z][a-z-]*)` \| (.*?) \|$", README, flags=re.MULTILINE)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_exits_zero(code, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_documents_every_subcommand():
    assert {line.split()[1] for line in UCLAB_LINES} == set(_COMMANDS)


@pytest.mark.parametrize("line", UCLAB_LINES, ids=lambda line: line.split()[1])
def test_readme_command_line_parses(line):
    # parse_args exits 2 on a flag the subcommand does not take
    build_parser().parse_args(shlex.split(line, comments=True)[1:])


def test_readme_flag_table_names_the_subcommands_that_take_each_flag():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    takes: dict = {}
    for name, sp in sub.choices.items():
        for flag in (f for a in sp._actions for f in a.option_strings):
            if flag.startswith("--") and flag != "--help":
                takes.setdefault(flag, set()).add(name)
    table = {}
    for flags, where in FLAG_ROWS:
        named = set(re.findall(r"`([\w-]+)`", where))
        commands = set(_COMMANDS) - named if where.startswith("all") else named
        table.update({flag: commands for flag in re.findall(r"`(--[\w-]+)", flags)})
    assert table == takes


def test_readme_one_value_table_is_the_commands_table():
    # the keys before any parenthesis; verify reads every value of each
    table = {name: set(re.findall(r"`(\w+)`", keys.split("(")[0]))
             for name, keys in ONE_VALUE_ROWS}
    assert table == {name: set(one_value) for name, (_, _, one_value) in _COMMANDS.items()
                     if name != "verify"}
