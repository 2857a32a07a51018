"""The numpy-free counting module and the lazy package around it.

`bounds` holds the paper's counting and imports only errors, exactmath and
the standard library; the package and the CLI import modules on first use,
so the `bounds` command runs with numpy absent.
"""

import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import crosspeaks
from crosspeaks import bounds, codes, family, harness, oracles, verify

SRC = str(pathlib.Path(crosspeaks.__file__).resolve().parents[1])

# every name bounds took over, by the module that defined it before
MOVED = {
    harness: ("choose_parameters", "ParameterChoice", "query_lower_bound", "QueryBound",
              "success_upper_bound", "_reaches", "_least_q", "_exact_code_floor",
              "EXACT_TERM_BUDGET"),
    codes: ("gv_floor",),
    family: ("inner_seed_distance", "separation_floor", "separation_holds"),
    oracles: ("answer_space_size",),
}


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """code run by a fresh interpreter that finds this package first."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True)


_BOUNDS_RUN = ("import sys\n"
               "{block}"
               "from crosspeaks.cli import main\n"
               "raise SystemExit(main(['bounds', *sys.argv[1:]]))\n")


@pytest.mark.parametrize("d", [64, 1024])
def test_bounds_runs_with_numpy_blocked(d):
    argv = ("--d", str(d), "--epsilon", "1/8")
    blocked = _python(_BOUNDS_RUN.format(block="sys.modules['numpy'] = None\n"), *argv)
    normal = _python(_BOUNDS_RUN.format(block=""), *argv)
    assert blocked.stdout == normal.stdout
    found = re.search(r"regime=(\w+)\nq_floor=(\d+)", blocked.stdout)
    pin = verify.QUERY_FLOORS[(d, Fraction(1, 8), Fraction(1, 2))]
    assert (int(found.group(2)), found.group(1)) == pin


def test_package_and_cli_imports_leave_numpy_out():
    # the verify parser's seed default comes from the package, not verify
    out = _python("import sys, crosspeaks\n"
                  "print('numpy' in sys.modules)\n"
                  "import crosspeaks.cli\n"
                  "print('numpy' in sys.modules)\n"
                  "print(crosspeaks.cli.build_parser().parse_args(['verify']).seed)\n"
                  "import crosspeaks.bounds\n"
                  "print(sorted(m for m in sys.modules if m.startswith('crosspeaks')))").stdout
    assert out.splitlines() == [
        "False", "False", str(verify.DEFAULT_SEED),
        "['crosspeaks', 'crosspeaks.bounds', 'crosspeaks.cli', 'crosspeaks.errors', "
        "'crosspeaks.exactmath']"]


@pytest.mark.parametrize("module", list(MOVED), ids=lambda m: m.__name__)
def test_moved_names_are_the_bounds_objects(module):
    for name in MOVED[module]:
        assert getattr(module, name) is getattr(bounds, name), name


def test_every_public_name_resolves():
    listed = dir(crosspeaks)
    for name in crosspeaks.__all__:
        assert getattr(crosspeaks, name) is not None, name
        assert name in listed, name
    assert crosspeaks.query_lower_bound is bounds.query_lower_bound
    assert crosspeaks.harness is harness
    assert crosspeaks.DEFAULT_SEED == verify.DEFAULT_SEED
    with pytest.raises(AttributeError):
        crosspeaks.no_such_name
