"""``benchmarks/*.py`` and ``tools/*.py`` parse, and ``reach`` reads a
module right: no test imports the scripts, so a syntax error would pass."""

import py_compile
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYTHON_SCRIPTS = sorted([*ROOT.glob("benchmarks/*.py"), *ROOT.glob("tools/*.py")])


def _name(path):
    return path.relative_to(ROOT).as_posix()


def test_scripts_are_found():
    # an empty glob would leave the tests below with nothing to check
    assert {"benchmarks/scale.py", "tools/reach.py", "tools/cli_fixtures.py"} <= {
        _name(path) for path in PYTHON_SCRIPTS}


@pytest.mark.parametrize("path", PYTHON_SCRIPTS, ids=_name)
def test_python_script_compiles(path, tmp_path):
    py_compile.compile(str(path), cfile=str(tmp_path / "script.pyc"), doraise=True)


def test_reach_skips_the_blocks_that_end_in_a_raise(tmp_path):
    module = tmp_path / "module.py"
    module.write_text('"""Doc."""\ndef f(x):\n    if x:\n        message = f"bad {x}"\n'
                      '        raise ValueError(message)\n    return 0\n\n\n'
                      'def g():\n    return 1\n')
    reach = runpy.run_path(str(ROOT / "tools" / "reach.py"))
    reach["_ran"].update((str(module), line) for line in (2, 3, 6, 9))
    assert reach["unreached"](module) == [(10, "return 1")]
