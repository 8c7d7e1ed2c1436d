"""The README's Python and shell examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from multibias.biases import NAMED_BIAS_SETS
from multibias.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, re.DOTALL)
SH = "".join(re.findall(r"```sh\n(.*?)```", TEXT, re.DOTALL))
# each "$ multibias ..." command, with its "\" continuations, and the output under it
EXAMPLES = re.findall(
    r"^\$ (multibias (?:[^\n]*\\\n)*[^\n]*)\n(.*?)(?=^\$ |\Z)",
    SH,
    re.DOTALL | re.MULTILINE,
)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS)
def test_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {})


def test_readme_has_shell_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize(
    "command, shown", EXAMPLES, ids=[command.split()[1] for command, _ in EXAMPLES]
)
def test_shell_example_prints_what_is_shown(command, shown, capsys):
    argv = shlex.split(command.replace("\\\n", " "))[1:]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == shown.rstrip("\n").splitlines()


def test_structure_table_is_the_named_bias_sets():
    rows = re.findall(r"^  \| `(\w+)` \| `([^`]+)` \|$", TEXT, re.MULTILINE)
    assert rows == list(NAMED_BIAS_SETS.items())
