"""Self-test of the output checks: a corrupted value must fail.

For each workload this computes the reference problem's outputs, checks
that they match the stored references (failed share 0), then corrupts
one value by more than its tolerance and checks that the same
``checks.verify`` the benchmark uses reports a failure (failed share
above 0). Exits 0 when every check behaves, 1 otherwise.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import shutil
import sys
import tempfile

import source

source.add_to_path()

import checks  # noqa: E402
import workloads  # noqa: E402


def corrupt(workload: str, outputs: dict) -> dict:
    """A copy of outputs with one value moved just past its tolerance."""
    bad = copy.deepcopy(outputs)
    if workload == "train":
        bad["step_total"][1] *= 1.0 + 10 * checks.REL_TOL
    elif workload == "extract":
        scale = max(abs(v) for row in bad["sample"] for v in row)
        bad["sample"][3][7] += 10 * checks.REL_TOL * scale
    else:
        bad["probe_oa"] += 2 * checks.METRIC_ABS_TOL
    return bad


def main() -> int:
    reference = checks.load_reference()
    ok = True
    for workload in workloads.WORKLOADS:
        tmp = tempfile.mkdtemp(dir=source.work_root())
        try:
            outputs = checks.compute(workload, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        for label, values, want_failure in (("clean", outputs, False),
                                            ("corrupted", corrupt(workload, outputs), True)):
            attempted, failed, messages = checks.verify(workload, "", reference, values)
            behaved = (failed > 0) == want_failure
            ok &= behaved
            print(f"{workload:<8} {label:<9} failed_share {failed / attempted:.3f} "
                  f"({failed} of {attempted}) {'ok' if behaved else 'WRONG'}")
            for message in messages:
                print(f"    {message}")
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
