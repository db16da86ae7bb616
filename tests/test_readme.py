"""Each ```python block of README.md runs to completion, and each `uclab`
line of its ```bash blocks parses with the CLI's own parser."""

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
