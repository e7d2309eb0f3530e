"""Print the statements of ``src/hdcaps`` that no caller reaches.

    python3 tools/reach.py

Run from any directory; the checkout is the one that holds this file.
It traces every line that runs in ``src/hdcaps`` while this process runs:

  * every ``cli.main`` subcommand on a small ``gen-synth`` scene: train,
    extract, eval (once with ``--labels``), baseline raw / pca / le and
    gradcheck, the last through ``python -m hdcaps``;
  * perfbench's set-up of each workload, then one operation of each in
    perfbench's own timed loop: two ``TrainLoop`` steps (the warm-up
    and the measured one), one extract pass and one evaluate pass.

Then, per module, it prints the statements that never ran as
``LINE: source``. ``raise`` statements are skipped: an error path is
reached by the tests, not by a run that succeeds. A statement counts as
run when any of its lines ran, so a ``def`` that ran at import is not
listed, while the statements of a body that was never called are.
Everything the runs write goes to a temporary directory that is removed
at the end; stdout of the runs is dropped. It took 2.2 s on a 2-core
Xeon.
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


def _cli(*argv: str) -> None:
    from hdcaps import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        sys.exit(f"reach: hdcaps {' '.join(argv)} exited {code}")


def run_cli(tmp: str) -> None:
    """Every subcommand once on a 12 x 12 scene with 16 bands."""
    scene, ckpt = os.path.join(tmp, "scene"), os.path.join(tmp, "ckpt")
    feats, config = os.path.join(tmp, "features.hdcf"), os.path.join(tmp, "train.cfg")
    with open(config, "w") as fh:
        fh.write("# one epoch\n\nepochs=1\n")
    _cli("gen-synth", "--out", scene, "--size", "12x12", "--bands", "16",
         "--classes", "3", "--seed", "0")
    _cli("train", "--data", scene, "--out", ckpt, "--config", config)
    _cli("extract", "--model", ckpt, "--data", scene, "--out", feats)
    _cli("eval", "--features", feats, "--report", os.path.join(tmp, "eval.json"))
    _cli("eval", "--features", feats, "--labels", os.path.join(scene, "labels.dten"))
    # pca and le below the band count
    for method in ("raw", "pca", "le"):
        _cli("baseline", "--data", scene, "--method", method, "--dim", "8",
             "--report", os.path.join(tmp, f"baseline-{method}.json"))
    argv = sys.argv
    sys.argv = ["hdcaps", "gradcheck", "--seed", "0", "--samples", "1"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_module("hdcaps", run_name="__main__")
    except SystemExit as exc:
        if exc.code != 0:
            sys.exit(f"reach: python -m hdcaps gradcheck exited {exc.code}")
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
    missed = []
    for node in ast.walk(ast.parse(source)):
        if (not isinstance(node, ast.stmt) or isinstance(node, (ast.Raise, ast.Global))
                or _is_docstring(node)):
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
            run_cli(tmp)
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
    print(f"total: {total} statements never ran, raise statements not counted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
