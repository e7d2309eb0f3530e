"""Output checks against reference values stored with the benchmark.

Each run's seed changes its inputs, so the stored references belong to
one fixed problem, rebuilt in every run from ``REFERENCE_SEED`` through
the same stage functions the workload measures:

* ``train``: the total loss of the first ``TRAIN_STEPS`` steps of the
  ``train`` workload at the reference seed, each to relative 1e-6;
* ``extract``: the extract stage on a 30 x 30 scene; the sum of absolute
  feature values to relative 1e-6, and sampled feature rows to a maximum
  relative error (largest absolute difference over the largest reference
  magnitude) of 1e-6;
* ``evaluate``: OA, AA and kappa of the probe stage on those features
  and of the baseline stage on that scene, each to absolute 1e-3.

Every compared value is one operation; a mismatch is one failure.
Regenerate the stored values with ``python3 perfbench/checks.py --write``
after a change that is meant to alter them, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import source

source.add_to_path()

import numpy as np  # noqa: E402

import workloads  # noqa: E402

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 0
REFERENCE_SCENE = (30, 30, 15, 144)
TRAIN_STEPS = 3
SAMPLE_ROWS = 8

REL_TOL = 1e-6
METRIC_ABS_TOL = 1e-3


def compute(workload: str, workdir: str) -> dict:
    """Outputs of the fixed reference problem for one workload."""
    seed = REFERENCE_SEED
    os.makedirs(workdir, exist_ok=True)
    if workload == "train":
        workloads.setup("train", seed, workdir)
        loop = workloads.TrainLoop(workdir, seed)
        return {"step_total": [loop.step().total for _ in range(TRAIN_STEPS)]}
    p = workloads.inputs(workdir)
    workloads.make_scene(p["scene"], REFERENCE_SCENE, workloads.stream(seed, workloads.SCENE_RNG))
    workloads.make_checkpoint(p["checkpoint"], REFERENCE_SCENE[3], seed)
    feats, _ = workloads.extract_stage(p["scene"], p["checkpoint"], p["features"])
    if workload == "extract":
        rows = np.linspace(0, feats.shape[0] - 1, SAMPLE_ROWS).astype(int)
        return {"abs_sum": float(np.abs(feats).sum()),
                "rows": rows.tolist(),
                "sample": feats[rows].tolist()}
    probe = workloads.probe_stage(p["features"], seed)
    baseline = workloads.baseline_stage(p["scene"], seed)
    return {f"{stage}_{key}": result[key]
            for stage, result in (("probe", probe), ("baseline", baseline))
            for key in ("oa", "aa", "kappa")}


def compare(workload: str, got: dict, ref: dict) -> list[tuple[str, bool, str]]:
    """(value name, matches, detail) for every compared value."""
    out = []
    if workload == "train":
        for i, (g, r) in enumerate(zip(got["step_total"], ref["step_total"], strict=True)):
            err = abs(g - r) / abs(r)
            out.append((f"step_total[{i}]", err <= REL_TOL, f"{g!r} vs {r!r}, rel {err:.2e}"))
    elif workload == "extract":
        g, r = got["abs_sum"], ref["abs_sum"]
        err = abs(g - r) / abs(r)
        out.append(("abs_sum", err <= REL_TOL, f"{g!r} vs {r!r}, rel {err:.2e}"))
        gs, rs = np.asarray(got["sample"]), np.asarray(ref["sample"])
        if got["rows"] != ref["rows"] or gs.shape != rs.shape:
            out.append(("sample", False, "sampled rows differ in position or shape"))
        else:
            err = float(np.max(np.abs(gs - rs)) / np.max(np.abs(rs)))
            out.append(("sample", err <= REL_TOL, f"max rel err {err:.2e}"))
    else:
        for key, r in ref.items():
            g = got[key]
            out.append((key, abs(g - r) <= METRIC_ABS_TOL, f"{g!r} vs {r!r}"))
    return out


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def verify(workload: str, workdir: str, reference: dict | None = None,
           outputs: dict | None = None) -> tuple[int, int, list[str]]:
    """Run the reference problem and compare. Returns (attempted, failed,
    messages); an exception counts as one failed operation."""
    try:
        ref = (reference or load_reference())[workload]
        got = outputs if outputs is not None else compute(workload, workdir)
        results = compare(workload, got, ref)
    except Exception as exc:  # noqa: BLE001 - any error is a failed check
        return 1, 1, [f"{workload} reference check raised {type(exc).__name__}: {exc}"]
    failed = [f"{workload} {name}: {detail}" for name, ok, detail in results if not ok]
    return len(results), len(failed), failed


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print("usage: python3 perfbench/checks.py --write", file=sys.stderr)
        return 2
    ref = {}
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=source.work_root()) as tmp:
            ref[workload] = compute(workload, tmp)
    tmp_path = str(REFERENCE_PATH) + ".tmp"
    with open(tmp_path, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    os.replace(tmp_path, REFERENCE_PATH)
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
