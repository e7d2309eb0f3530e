"""Time every CLI stage on a scene of real size and record its peak RSS.

    python3 benchmarks/scale.py

Run from any directory; the checkout is the one that holds this file,
and each stage runs ``python -m hdcaps`` from its ``src``. The scene has
the shape of the 2013 GRSS Data Fusion Contest's Houston scene:
``gen_synthetic(349, 1905, 15, 144)`` at rng 7, with labels kept only
where ``default_rng(8).uniform`` over the extent is below 0.028 (18 534
labeled pixels). Its float32 spectra take 365 MB. It is generated under
a temporary directory that is removed at the end; nothing is downloaded.

The stages, each in its own child process, in this order: the scene
generation, ``baseline --method raw``, ``baseline --method le``,
``train`` at ``epochs=1``, ``extract`` and ``eval``. The wall time and
the child's peak RSS (``ru_maxrss`` from ``os.wait4``) of each go to
``BENCH_scale.json`` at the root of the checkout, with each stage's
stdout and the SHA-256 of the extracted feature file, so that two
checkouts' files show whether their features are byte-identical. Peak
RSS is in MB of 2**20 bytes. OpenBLAS runs on one thread.

Generation peaks near 1.2 GB (float64 spectra and their float32 copy);
the whole run takes about a minute on a 2-core Xeon. Tier-1 does not
run it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_scale.json"
SHAPE = (349, 1905, 15, 144)  # height, width, classes, bands
SCENE_RNG, LABEL_RNG, LABEL_SHARE = 7, 8, 0.028

GENERATE = f"""
import sys
import numpy as np
from hdcaps import dataio
hsi, elevation, labels = dataio.gen_synthetic(*{SHAPE}, np.random.default_rng({SCENE_RNG}))
labels[np.random.default_rng({LABEL_RNG}).uniform(size=labels.shape) >= {LABEL_SHARE}] = 0
dataio.write_scene(sys.argv[1], hsi, elevation, labels)
print(f"labeled={{int((labels > 0).sum())}}")
"""

STAGES = [
    ("baseline raw", ["baseline", "--data", "scene", "--method", "raw",
                      "--report", "baseline-raw.json"]),
    ("baseline le", ["baseline", "--data", "scene", "--method", "le",
                     "--report", "baseline-le.json"]),
    ("train", ["train", "--data", "scene", "--out", "ckpt", "--config", "train.cfg"]),
    ("extract", ["extract", "--model", "ckpt", "--data", "scene",
                 "--out", "features.hdcf"]),
    ("eval", ["eval", "--features", "features.hdcf", "--report", "eval.json"]),
]


def run(name: str, argv: list, cwd: str) -> dict:
    """Run argv in cwd as a child and return its record; a child that
    fails ends the run with its stderr."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    if child.returncode != 0:
        sys.exit(f"scale: {name} exited {child.returncode}: {stderr.strip()}")
    record = {"stage": name, "wall_s": round(wall, 2),
              "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
              "stdout": stdout.strip()}
    print(f"{name:14s} {record['wall_s']:7.2f} s {record['peak_rss_mb']:8.1f} MB",
          flush=True)
    return record


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="hdcaps-scale-") as work:
        with open(os.path.join(work, "train.cfg"), "w") as fh:
            fh.write("epochs=1\n")
        records = [run("generate", [sys.executable, "-c", GENERATE, "scene"], work)]
        records += [run(name, [sys.executable, "-m", "hdcaps", *args], work)
                    for name, args in STAGES]
        digest = hashlib.sha256(Path(work, "features.hdcf").read_bytes()).hexdigest()
    report = {
        "scene": {"height": SHAPE[0], "width": SHAPE[1], "classes": SHAPE[2],
                  "bands": SHAPE[3], "scene_rng": SCENE_RNG, "label_rng": LABEL_RNG,
                  "label_share": LABEL_SHARE},
        "stages": records,
        "features_sha256": digest,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
    }
    with open(OUT, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
