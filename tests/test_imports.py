"""numpy, the oracle and csv load only where they are used.

Each check that depends on what is loaded runs in a fresh interpreter, since
this test process has long since imported all three.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import multibias
from multibias.cli import _STRUCTURE_NAMES
from multibias.oracle import STRUCTURES

SRC = Path(__file__).resolve().parent.parent / "src"
BOUND = ["bound", "--biases", "confounding", "--param", "RRAUc=2", "--param", "RRUcY=3"]


def _fresh(code: str) -> list[str]:
    """The words a fresh interpreter running ``code`` prints last, on its last line."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def _main_then_loaded(argv: list[str]) -> list[str]:
    """The exit code, then whether numpy, the oracle and csv are loaded."""
    return _fresh(
        "import sys, multibias.cli; "
        f"rc = multibias.cli.main({argv!r}); "
        "print(rc, *(m in sys.modules for m in ('numpy', 'multibias.oracle', 'csv')))"
    )


@pytest.mark.parametrize(
    "argv",
    [
        BOUND,
        BOUND + ["--format", "json"],
        ["evalue", "--biases", "confounding + selection", "--est", "3.9", "--lo", "1.8"],
        ["evalue", "--biases", "confounding", "--est", "0.5", "--measure", "OR"]
        + ["--hi", "0.9", "--true", "0.8", "--format", "json"],
        ["summary", "--biases", "confounding + misclassification(outcome)", "--latex"],
    ],
)
def test_one_shot_commands_do_not_load_numpy(argv):
    assert _main_then_loaded(argv) == ["0", "False", "False", "False"]


def test_verify_loads_the_oracle_but_not_numpy():
    argv = ["verify", "--structure", "result1", "--worlds", "2"]
    assert _main_then_loaded(argv) == ["0", "False", "True", "False"]


@pytest.mark.parametrize(
    "argv, csv",
    [
        (["grid", "--biases", "confounding", "--vary", "RRAUc=1:3:0.5"]
         + ["--vary", "RRUcY=2,4", "--format", "csv"], "True"),
        (["curve", "--bias-sets", "confounding, selection", "--points", "3"], "False"),
        (["curve", "--bias-sets", "confounding", "--points", "3", "--format", "csv"], "True"),
    ],
)
def test_array_commands_load_numpy_and_succeed(argv, csv):
    assert _main_then_loaded(argv) == ["0", "True", "False", csv]


def test_importing_the_package_loads_neither_numpy_nor_the_oracle():
    code = (
        "import sys, multibias; "
        "print(*(m in sys.modules for m in ('numpy', 'multibias.oracle', 'csv')))"
    )
    assert _fresh(code) == ["False", "False", "False"]


def test_first_oracle_name_binds_all_of_them():
    code = (
        "import sys, multibias; multibias.STRUCTURES; "
        "print('numpy' in sys.modules, all(vars(multibias)[n] is getattr(multibias.oracle, n) "
        "for n in multibias._ORACLE_NAMES))"
    )
    assert _fresh(code) == ["False", "True"]


def test_star_import_gives_every_public_name():
    code = (
        "import multibias; names = {}; exec('from multibias import *', names); "
        "print(len(multibias.__all__), sorted(set(multibias.__all__) - set(names)))"
    )
    assert _fresh(code) == [str(len(multibias.__all__)), "[]"]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        multibias.no_such_name  # noqa: B018


def test_cli_structure_names_are_the_oracle_structures():
    assert _STRUCTURE_NAMES == tuple(sorted(STRUCTURES))
