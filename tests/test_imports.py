"""Each submodule, numpy, json and csv load only where they are used, and a
one-shot call loads no module beyond a fixed list.

Each check that depends on what is loaded runs in a fresh interpreter, since
this test process has long since imported all of them.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import multibias
import multibias.cli

SRC = Path(__file__).resolve().parent.parent / "src"
BOUND = ["bound", "--biases", "confounding", "--param", "RRAUc=2", "--param", "RRUcY=3"]
EVALUE = ["evalue", "--biases", "confounding + selection", "--est", "3.9", "--lo", "1.8"]
GRID = ["grid", "--biases", "confounding", "--vary", "RRAUc=1:3:0.5", "--vary", "RRUcY=2,4"]
CURVE = ["curve", "--bias-sets", "confounding, selection", "--points", "3"]
# the polynomials above, (6, 3), (2, 1) and (4, 2), have closed forms; these
# have (3, 1), which Newton's method solves
NEWTON_BIASES = "confounding + misclassification(outcome)"
NEWTON_EVALUE = ["evalue", "--biases", NEWTON_BIASES, "--est", "3.9"]
NEWTON_CURVE = ["curve", "--bias-sets", NEWTON_BIASES, "--points", "3"]
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
        (GRID, ["multibias.bounds"]),
        (GRID + ["--format", "csv"], ["multibias.bounds", "csv"]),
        (GRID + ["--format", "json"], ["multibias.bounds", "json"]),
        (CURVE, ["multibias.evalues"]),
        (CURVE + ["--format", "csv"], ["multibias.evalues", "csv"]),
        (CURVE + ["--format", "json"], ["multibias.evalues", "json"]),
        (NEWTON_EVALUE, ["multibias.evalues"]),
        (NEWTON_CURVE, ["multibias.evalues"]),
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


# every module a one-shot bound, evalue or summary call may add to a fresh
# interpreter, in any of its formats, on CPython 3.10 to 3.13 (the union of
# what each loads); a new import in the package fails
# test_a_one_shot_call_loads_only_the_allowed_modules and lands here with a
# CHANGES.md line
ONE_SHOT_ALLOWED = frozenset(
    """
    __future__ _ast _bz2 _collections _compression _functools _json _locale _lzma _opcode
    _opcode_metadata _operator _sre _tokenize _typing _weakrefset argparse ast bz2
    collections collections.abc contextlib copy copyreg dataclasses dis enum errno fnmatch
    functools gettext importlib importlib._bootstrap importlib._bootstrap_external
    importlib.machinery inspect itertools json json.decoder json.encoder json.scanner
    keyword linecache locale lzma math multibias multibias.biases multibias.bounds
    multibias.cli multibias.errors multibias.evalues opcode operator re re._casefix
    re._compiler re._constants re._parser reprlib shutil sre_compile sre_constants
    sre_parse token tokenize types typing typing.io typing.re warnings weakref zlib
    """.split()
)


@pytest.mark.parametrize(
    "argv",
    [
        argv + fmt
        for argv in (BOUND, EVALUE, NEWTON_EVALUE)
        for fmt in ([], ["--format", "json"])
    ]
    + [["summary", "--biases", NEWTON_BIASES], ["summary", "--biases", NEWTON_BIASES, "--latex"]],
)
def test_a_one_shot_call_loads_only_the_allowed_modules(argv):
    # counted from just before the CLI's import, so what site loads at start
    # (a .pth file may load certifi, say) is not the call's
    code = (
        "import sys; before = set(sys.modules); import multibias.cli; "
        f"rc = multibias.cli.main({argv!r}); print(rc, *sorted(set(sys.modules) - before))"
    )
    rc, *added = _fresh(code)
    assert rc == "0"
    assert sorted(set(added) - ONE_SHOT_ALLOWED) == []


def test_no_command_loads_numpy():
    # every subcommand, in every format it has, in one interpreter that
    # cannot import numpy, so that none needs it
    parser = multibias.cli._build_parser()
    (sub,) = (a for a in parser._actions if a.dest == "command")
    argvs = {"bound": [BOUND], "evalue": [EVALUE, NEWTON_EVALUE]}
    argvs |= {"summary": [["summary", "--biases", "selection"]], "grid": [GRID]}
    argvs |= {"curve": [CURVE, NEWTON_CURVE], "verify": [["verify", "--structure", "result3"]]}
    assert set(argvs) == set(sub.choices)
    runs = []
    for command, argv_list in argvs.items():
        (fmt,) = [a for a in sub.choices[command]._actions if a.dest == "format"] or [None]
        for argv in argv_list:
            runs += [argv + ["--format", f] for f in fmt.choices] if fmt else [argv]
    code = (
        "import io, sys; sys.modules['numpy'] = None; import multibias.cli; "
        "sys.stdout = io.StringIO(); "
        f"codes = [multibias.cli.main(argv) for argv in {runs!r}]; sys.stdout = sys.__stdout__; "
        "print(len(codes), set(codes))"
    )
    assert _fresh(code) == [str(len(runs)), "{0}"]


def test_the_library_needs_numpy_only_for_grid_table_and_evalue_curve():
    # numpy is the arrays extra: with it missing, the scalar API and the
    # oracle still run, and grid_table and evalue_curve name the extra
    code = textwrap.dedent(
        """
        import sys
        sys.modules["numpy"] = None
        import multibias as mb
        bs = mb.build_bias_set([mb.confounding(), mb.selection()])
        values = dict.fromkeys(bs.parameter_names(), 2.0)
        mb.g(2, 3)
        mb.multi_bound(bs, values)
        mb.adjust_estimate(bs, values, 2.0, 1.5, 3.0)
        mb.multi_evalue(bs, mb.odds_ratio(2.0, 1.5, 3.0), 1.2)
        mb.solve_polynomial(mb.evalue_polynomial(bs), 4.0)
        config, structure = mb.STRUCTURES["result1"]
        mb.verify_bound(mb.generate_world(config, 0), structure)
        conf = mb.build_bias_set([mb.confounding()])
        errors = set()
        grid = lambda: mb.grid_table(conf, [("RRAUc", [2.0]), ("RRUcY", [2.0])])
        for call in (grid, lambda: mb.evalue_curve([conf], [2.0])):
            try:
                call()
            except ImportError as exc:
                errors.add(str(exc))
        print(*errors)
        """
    )
    assert " ".join(_fresh(code)) == "grid_table and evalue_curve need numpy (multibias[arrays])"


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
