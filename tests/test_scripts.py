"""The scripts that no test imports must still parse.

``benchmarks/*.py`` and ``tools/*.py`` are run by hand, and ``tools/*.sh``
by ``sh``, so a syntax error in one of them would pass every other test.
Each Python script is byte-compiled into the test's temporary directory,
and each shell script is read by ``sh -n``, which parses without running.
"""

import py_compile
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYTHON_SCRIPTS = sorted([*ROOT.glob("benchmarks/*.py"), *ROOT.glob("tools/*.py")])
SHELL_SCRIPTS = sorted(ROOT.glob("tools/*.sh"))


def _name(path):
    return path.relative_to(ROOT).as_posix()


def test_scripts_are_found():
    # an empty glob would leave the tests below with nothing to check
    names = {_name(path) for path in PYTHON_SCRIPTS + SHELL_SCRIPTS}
    assert {"benchmarks/scale.py", "tools/reach.py", "tools/cli_fixtures.sh",
            "tools/same_bytes.sh"} <= names


@pytest.mark.parametrize("path", PYTHON_SCRIPTS, ids=_name)
def test_python_script_compiles(path, tmp_path):
    py_compile.compile(str(path), cfile=str(tmp_path / "script.pyc"), doraise=True)


@pytest.mark.parametrize("path", SHELL_SCRIPTS, ids=_name)
def test_shell_script_parses(path):
    proc = subprocess.run(["sh", "-n", str(path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
