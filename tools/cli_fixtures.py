"""Write the CLI fixture set of the checkout SRC, and its digests, into OUT.

    python3 tools/cli_fixtures.py SRC OUT

Runs COMMANDS in this process through ``hdcaps.cli.main`` from SRC/src,
in OUT, so that the outputs hold relative paths; NAME's stdout goes to
NAME.stdout. OUT/digests.json holds the SHA-256 of every other file and
the numpy, scipy and BLAS build the bytes hold for, which
tests/test_cli_fixtures.py compares with tests/cli_fixture_digests.json.
To compare with a commit REF checked out by ``git worktree add --detach
/tmp/ref REF``:

    python3 tools/cli_fixtures.py /tmp/ref /tmp/ref-set
    python3 tools/cli_fixtures.py . /tmp/tree-set
    diff -r /tmp/ref-set /tmp/tree-set
"""

import contextlib
import ctypes
import glob
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import scipy

COMMANDS = {  # train0 trains 0 epochs, so its log holds only the header
    "gen-synth": "gen-synth --out scene --size 40x45 --bands 144 --classes 5 --seed 3",
    "train": "train --data scene --out ckpt --config train.cfg",
    "train0": "train --data scene --out ckpt0 --config train0.cfg",
    "extract": "extract --model ckpt --data scene --out features.hdcf",
    "eval": "eval --features features.hdcf --report eval.json",
    "eval-labels": "eval --features features.hdcf --labels scene/labels.dten "
                   "--report eval-labels.json",
    **{f"baseline-{m}": f"baseline --data scene --method {m} --report baseline-{m}.json"
       for m in ("raw", "pca", "le")},
    "gradcheck": "gradcheck --seed 0",
}


def build() -> dict:
    """The numpy, scipy and BLAS build, with the core OpenBLAS picked at load."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    found = {"numpy": np.__version__, "scipy": scipy.__version__,
             "blas": f"{blas.get('name')} {blas.get('version')}", "blas_core": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                found["blas_core"] = fn().decode()
    return found


def run(src, out) -> None:
    """Write the fixture set of the checkout src, and its digests, into out."""
    sys.path.insert(0, os.path.join(os.path.abspath(src), "src"))
    from hdcaps import cli

    os.makedirs(out, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(out)
    try:
        Path("train.cfg").write_text("# two epochs\n\nepochs=2\n")
        Path("train0.cfg").write_text("epochs=0\n")
        for name, command in COMMANDS.items():
            with open(f"{name}.stdout", "w") as fh, contextlib.redirect_stdout(fh):
                code = cli.main(command.split())
            if code != 0:
                sys.exit(f"cli_fixtures: hdcaps {command} exited {code}")
        files = {path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(Path().rglob("*"))
                 if path.is_file() and path.name != "digests.json"}
        Path("digests.json").write_text(
            json.dumps({"build": build(), "files": files}, indent=1) + "\n")
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} SRC OUT")
    run(*sys.argv[1:])
