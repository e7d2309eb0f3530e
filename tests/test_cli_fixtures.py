"""The CLI fixture set of ``tools/cli_fixtures.py`` has the committed digests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = ROOT / "tests" / "cli_fixture_digests.json"


def test_cli_fixture_set_has_the_committed_digests(tmp_path):
    subprocess.run([sys.executable, str(ROOT / "tools" / "cli_fixtures.py"), str(ROOT),
                    str(tmp_path)], env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, check=True)
    made = json.loads((tmp_path / "digests.json").read_text())
    want = json.loads(COMMITTED.read_text())
    # the bytes hold only for the numpy, scipy and BLAS build that made them
    if made["build"] != want["build"]:
        pytest.skip(f"digests recorded on {want['build']}, this is {made['build']}")
    new, old = made["files"], want["files"]
    moved = sorted(name for name in new.keys() & old.keys() if new[name] != old[name])
    missing, added = sorted(old.keys() - new.keys()), sorted(new.keys() - old.keys())
    assert not (moved or missing or added), (
        f"moved {moved}, missing {missing}, added {added}; if that is meant, copy "
        f"{tmp_path / 'digests.json'} over {COMMITTED} and name each file in CHANGES.md")
