"""Locate the checkout the benchmark runs in and the hdcaps sources in it."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def add_to_path() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; exit with code 2
    when the checkout holds no hdcaps sources."""
    if not (SRC / "hdcaps" / "__init__.py").is_file():
        print(f"error: no hdcaps sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def work_root() -> str:
    """Scratch space inside the checkout for set-up outputs."""
    WORK.mkdir(exist_ok=True)
    return str(WORK)
