"""Each submodule, numpy, json and csv load only where they are used.

Each check that depends on what is loaded runs in a fresh interpreter, since
this test process has long since imported all of them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import multibias

SRC = Path(__file__).resolve().parent.parent / "src"
BOUND = ["bound", "--biases", "confounding", "--param", "RRAUc=2", "--param", "RRUcY=3"]
EVALUE = ["evalue", "--biases", "confounding + selection", "--est", "3.9", "--lo", "1.8"]
GRID = ["grid", "--biases", "confounding", "--vary", "RRAUc=1:3:0.5", "--vary", "RRUcY=2,4"]
CURVE = ["curve", "--bias-sets", "confounding, selection", "--points", "3"]
# what a command may load beyond biases and errors, which every command needs
OPTIONAL = ("multibias.bounds", "multibias.evalues", "multibias.oracle", "numpy", "json", "csv")


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


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (BOUND, ["multibias.bounds"]),
        (BOUND + ["--format", "json"], ["multibias.bounds", "json"]),
        (EVALUE, ["multibias.evalues"]),
        (["evalue", "--biases", "confounding", "--est", "0.5", "--measure", "OR"]
         + ["--hi", "0.9", "--true", "0.8", "--format", "json"], ["multibias.evalues", "json"]),
        (["summary", "--biases", "confounding + misclassification(outcome)", "--latex"], []),
        (GRID, ["multibias.bounds", "numpy"]),
        (GRID + ["--format", "csv"], ["multibias.bounds", "numpy", "csv"]),
        (GRID + ["--format", "json"], ["multibias.bounds", "numpy", "json"]),
        (CURVE, ["multibias.evalues", "numpy"]),
        (CURVE + ["--format", "csv"], ["multibias.evalues", "numpy", "csv"]),
        (["verify", "--structure", "result1", "--worlds", "2"],
         ["multibias.bounds", "multibias.oracle", "json"]),
        (["--help"], []),
        (BOUND[:1] + ["--help"], []),
    ],
)
def test_each_command_loads_only_what_it_uses(argv, loaded):
    code = (
        "import sys, multibias.cli; "
        f"rc = multibias.cli.main({argv!r}); "
        f"print(rc, *(m for m in {OPTIONAL!r} if m in sys.modules))"
    )
    assert _fresh(code) == ["0", *loaded]


def test_importing_the_package_loads_only_its_errors():
    code = (
        "import sys, multibias; "
        "print(*(m for m in sys.modules if m.startswith('multibias.')), "
        f"*(m for m in {OPTIONAL!r} if m in sys.modules))"
    )
    assert _fresh(code) == ["multibias.errors"]


@pytest.mark.parametrize("module", multibias._PUBLIC)
def test_first_name_of_a_module_binds_all_of_its_names(module):
    names = multibias._PUBLIC[module]
    code = (
        f"import sys, multibias; multibias.{names[0]}; m = sys.modules['multibias.{module}']; "
        f"print(all(vars(multibias)[n] is getattr(m, n) for n in {names!r}), "
        "'numpy' in sys.modules, *sorted(n for n in multibias.__all__ if n in vars(multibias) "
        f"and n not in {names + multibias._PUBLIC['errors']!r}))"
    )
    assert _fresh(code) == ["True", "False"]


def test_dir_lists_every_public_name_before_any_is_used():
    code = (
        "import sys, multibias; names = dir(multibias); "
        "print(sorted(set(multibias.__all__) - set(names)), "
        "*(m for m in sys.modules if m.startswith('multibias.')))"
    )
    assert _fresh(code) == ["[]", "multibias.errors"]


def test_star_import_gives_every_public_name():
    code = (
        "import multibias; names = {}; exec('from multibias import *', names); "
        "print(len(multibias.__all__), sorted(set(multibias.__all__) - set(names)))"
    )
    assert _fresh(code) == [str(len(multibias.__all__)), "[]"]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        multibias.no_such_name  # noqa: B018
