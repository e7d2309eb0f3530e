"""Print the statements of ``src/hdcaps`` that no caller reaches.

    python3 tools/reach.py

Run from any directory; the checkout is the one that holds this file.
It traces every line that runs in ``src/hdcaps`` while it runs the CLI
fixture set of ``tools/cli_fixtures.py`` (every subcommand once),
``python -m hdcaps`` with no arguments (the usage), and perfbench's
set-up of each workload with one operation of each in perfbench's own
timed loop (two ``TrainLoop`` steps, one extract and one evaluate pass).

Then, per module, it prints the statements that never ran as
``LINE: source``. The statements of a block that ends in a ``raise``,
nested ones too, build an error: the tests reach those, not a run that
succeeds, so they are skipped. A fallback set in a block with no
``raise``, such as ``train_classifier``'s ``n_epochs = 0``, is listed. A
statement counts as run when any of its lines ran, so a ``def`` that ran
at import is not listed, while the statements of a body never called are.
What the runs write goes to a temporary directory that is removed at the
end. It took 6.4–7.3 s on a 2-core Xeon.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hdcaps"
PERFBENCH = ROOT / "perfbench"
PERFBENCH_SEED = 1

_PREFIX = str(PACKAGE) + os.sep
_ran = set()  # (file name, line number) of every line that ran


def _trace_lines(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    # only frames of the package get a line tracer
    if frame.f_code.co_filename.startswith(_PREFIX):
        return _trace_lines
    return None


def run_usage() -> None:
    """``python -m hdcaps`` with no arguments: usage on stderr, exit 1."""
    argv, sys.argv = sys.argv, ["hdcaps"]
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            runpy.run_module("hdcaps", run_name="__main__")
    except SystemExit as exc:
        if exc.code != 1:
            sys.exit(f"reach: python -m hdcaps exited {exc.code}, not 1")
    finally:
        sys.argv = argv


def run_perfbench(tmp: str) -> None:
    """Each workload's set-up, then one operation through ``measure_ops``."""
    import run

    for workload in run.workloads.WORKLOADS:
        directory = os.path.join(tmp, workload)
        run.workloads.setup(workload, PERFBENCH_SEED, directory)
        ctx = run.prepare(workload, PERFBENCH_SEED, directory)
        outcome = run.Outcome()
        # a budget of 0 s runs exactly one operation
        run.measure_ops(workload, ctx, 0.0, outcome)
        if outcome.failed:
            sys.exit(f"reach: perfbench {workload} operation failed")


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def unreached(path: Path) -> list:
    """(line, source) of each statement of the module at path that never ran."""
    source = path.read_text()
    lines = source.splitlines()
    ran = {line for name, line in _ran if name == str(path)}
    tree = ast.parse(source)
    errors = set()  # every statement, nested ones too, of a block that ends in a raise
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if isinstance(block, list) and block and isinstance(block[-1], ast.Raise):
                errors.update(id(inner) for stmt in block for inner in ast.walk(stmt))
    missed = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or id(node) in errors
                or isinstance(node, ast.Global) or _is_docstring(node)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        if not ran.intersection(range(first, node.end_lineno + 1)):
            missed.append((node.lineno, lines[node.lineno - 1].strip()))
    return sorted(missed)


def main() -> int:
    sys.dont_write_bytecode = True  # no __pycache__ outside the temporary directory
    sys.path[:0] = [str(PERFBENCH), str(ROOT / "src")]
    sys.settrace(_trace_calls)
    try:
        with tempfile.TemporaryDirectory(prefix="hdcaps-reach-") as tmp:
            # perfbench first: it pins one BLAS thread before numpy loads
            run_perfbench(tmp)
            import cli_fixtures

            cli_fixtures.run(ROOT, os.path.join(tmp, "cli"))
            run_usage()
    finally:
        sys.settrace(None)
    import hdcaps

    if Path(hdcaps.__file__).resolve().parent != PACKAGE:
        sys.exit(f"reach: traced {hdcaps.__file__}, not the sources under {PACKAGE}")
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = unreached(path)
        total += len(missed)
        print(f"{path.name}: {len(missed)} statements never ran")
        for line, text in missed:
            print(f"  {line}: {text}")
    print(f"total: {total} statements never ran, blocks ending in a raise not counted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
