"""Pipeline benchmark for hdcaps: ``train``, ``extract`` and ``evaluate``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

The seed generates every input (see ``workloads.py`` for what each
workload runs and why). A run sets up its inputs ``SETUP_REPEATS`` times,
each time in a fresh process, then measures the workload's stage in this
process for ``--seconds`` seconds, checks its outputs, and prints a
human-readable report followed, as the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, the same on every
workload: ``setup_s`` (median set-up time), ``peak_rss_mb`` (peak
resident set of the measuring process) and ``quiet_patches_per_s``, the
throughput of the workload's operation (one train step, one extract
pass, one evaluate pass) on a quiet host.

The shared 2-core host the benchmark was tuned on switches at random
between a quiet state and a contended one in which the same code runs
1.2-2x slower. The contended state comes both in flickers of tens of
milliseconds and in stretches of a minute or more, so the mean or median
time of a run mostly says how long the host was contended. Hence the
operation is split into the timed calls of ``PIECES``, most of them
0.1 s or shorter, which often fall in a quiet flicker. Each call keeps
the fastest time in the run of any call of the same piece on arguments
of the same shapes and parameters, the untimed rest keeps its own
fastest time, and the operation's best time is the sum over its calls
and its rest. On ``evaluate`` that is not enough: its time is mostly
interpreter-bound Pegasos loops, which the contended state slows about
2x, and a run spent wholly in a contended stretch read 1.6-1.9x slow.
Its throughput is therefore also scaled by the best time of
``calibration_op``, a loop of the same kind with no hdcaps code, timed
after every operation, over that op's quiet time. ``train`` and
``extract``, mostly numpy on larger arrays, slow less, and the op would
over-correct them, so they are not scaled. The numpy BLAS runs one
thread, so no BLAS thread waits on another that the host has
descheduled.

The report above the JSON line adds the unscaled best throughput, the
calibration op's time, the best time of each piece and the workload's own
figures: step or batch latency percentiles with their sample counts, the
final training loss, the probe and baseline times and accuracy, and the
failed share.

``--trace 1`` measures the same stage untraced for half the time and
under the tracer of ``layertrace.py`` for the other half, and reports the
per-layer metrics: self time per train step on ``train`` and per stage
pass elsewhere, work counts, and the tracing overhead (traced minus
untraced median op time). Layers a workload never calls report 0.

Every operation counts as attempted; an exception, an output that fails
its check, or a reference value that does not match (``checks.py``)
counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# one BLAS thread: on a small shared host a second thread waits on the
# first whenever a neighbour takes its core (set before numpy loads)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import source  # noqa: E402

source.add_to_path()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402
from hdcaps import dataio, evaluation, kernels, model, training  # noqa: E402
# bound before any tracer is installed, so output checks stay out of the trace
from hdcaps.dataio import read_features  # noqa: E402
from hdcaps.config import TrainConfig  # noqa: E402

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

_now = time.perf_counter


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


class Outcome:
    """Operation times and failure counts of one measured phase."""

    def __init__(self):
        self.op_s = []
        self.attempted = 0
        self.failed = 0
        self.patches = 0
        self.extra = {}
        self.calib_s = []
        self.ok_ops = []  # (seconds, patches, {piece: [(argument key, seconds)]}) of passed ops

    def record(self, seconds, patches, ok, what="", calls=None):
        self.op_s.append(seconds)
        self.attempted += 1
        self.patches += patches
        if ok:
            self.ok_ops.append((seconds, patches, calls or {}))
        else:
            self.failed += 1
            print(f"failed: {what}", file=sys.stderr)

    def best_parts(self):
        """Best time of one operation, by part. A timed call's best time is
        the fastest of all calls in the run of the same piece with the same
        argument key (``_arg_key``); the rest of the operation (its time
        minus its timed calls) keeps its own fastest time. Returns {piece
        or "rest": seconds}, summed over the calls of one operation."""
        fastest = {}
        rest = float("inf")
        for seconds, _, calls in self.ok_ops:
            timed = 0.0
            for name, entries in calls.items():
                for shapes, t in entries:
                    key = (name, shapes)
                    fastest[key] = min(fastest.get(key, t), t)
                    timed += t
            rest = min(rest, seconds - timed)
        parts = {name: sum(fastest[(name, shapes)] for shapes, _ in entries)
                 for name, entries in self.ok_ops[0][2].items()}
        parts["rest"] = rest
        return parts

    def best_patches_per_s(self):
        """Patches of one operation over its best time."""
        if not self.ok_ops:
            return 0.0
        return self.ok_ops[0][1] / sum(self.best_parts().values())


def run_op(fn):
    """Call fn; returns (seconds, result or None, error text or '')."""
    t0 = _now()
    try:
        result = fn()
    except Exception:  # noqa: BLE001 - a raising op is a failed op, the run goes on
        return _now() - t0, None, traceback.format_exc()
    return _now() - t0, result, ""


def _arg_key(arg):
    """What sets a call's work apart, per positional argument: an array's
    shape, or which parameter dict it is (the two branches' decoders take
    same-shaped arrays but do different work)."""
    if hasattr(arg, "shape"):
        return arg.shape
    return id(arg) if isinstance(arg, dict) else None


@contextlib.contextmanager
def timed_calls(module, attr, sink):
    """Append (key of the positional arguments, seconds) of every call of
    module.attr to sink."""
    original = getattr(module, attr)

    def timed(*args, **kwargs):
        t0 = _now()
        try:
            return original(*args, **kwargs)
        finally:
            seconds = _now() - t0
            sink.append((tuple(_arg_key(a) for a in args), seconds))

    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, original)


# workloads ---------------------------------------------------------------

# The calls timed inside each workload's operation, as (module whose
# attribute the callers look up, attribute). None runs inside another, so
# their times and the rest of the operation add up to the operation.
PIECES = {
    "train": [(model, "sample_rotations"), (model, "extract_preliminary_batch"),
              (model, "encode_batch"), (model, "aggregate"), (model, "decode"),
              (model, "loss_equivariance"), (model, "loss_invariance"), (model, "loss_kl"),
              (model, "reconstruction_loss"), (training, "backward"), (training, "adam_step")],
    "extract": [(model, "load_checkpoint"), (dataio, "read_scene"), (dataio, "extract_patches"),
                (model, "decompose_batch"), (evaluation, "fuse_features"),
                (dataio, "write_features")],
    "evaluate": [(dataio, "read_features"), (dataio, "stratified_split"),
                 (evaluation, "train_classifier"), (evaluation, "predict"),
                 (evaluation, "confusion_matrix"), (dataio, "read_scene"),
                 (dataio, "extract_patches"), (evaluation, "raw_patch_features"),
                 (evaluation, "laplacian_eigenmaps")],
}


def train_op(ctx):
    """One train step; the check is a finite loss."""
    loop = ctx["loop"]

    def check(report):
        return loop.batch, bool(np.isfinite(report.total)), f"non-finite loss {report.total}"

    return loop.step, check


def extract_op(ctx):
    """One pass of the extract stage, checked by :func:`check_extract`."""
    p = ctx["inputs"]

    def run():
        return workloads.extract_stage(p["scene"], p["checkpoint"], p["features"])

    def check(result):
        ok, why = check_extract(ctx, *result)
        return len(result[1]), ok, why

    return run, check


def check_extract(ctx, feats, patches):
    """Finite features of the right shape, written exactly, same every pass."""
    n = len(patches)
    if feats.shape != (n, 4 * TrainConfig().C) or not np.all(np.isfinite(feats)):
        return False, f"features have shape {feats.shape} or are not finite"
    rows, cols, labels, stored = read_features(ctx["inputs"]["features"])
    if not (np.array_equal(stored, feats.astype(np.float32))
            and np.array_equal(rows, patches.rows) and np.array_equal(cols, patches.cols)
            and np.array_equal(labels, patches.labels)):
        return False, "written feature file differs from the computed features"
    first = ctx.setdefault("first_features", feats)
    if not np.array_equal(first, feats):
        return False, "features differ between passes of the same inputs"
    return True, ""


def evaluate_op(ctx):
    """The probe stage then the baseline stage, each checked by
    :func:`check_evaluate`."""
    p, seed, extra = ctx["inputs"], ctx["seed"], ctx["extra"]

    def run():
        t0 = _now()
        probe = workloads.probe_stage(p["features"], seed)
        t1 = _now()
        base = workloads.baseline_stage(p["baseline_scene"], seed)
        extra.setdefault("probe_s", []).append(t1 - t0)
        extra.setdefault("baseline_le_s", []).append(_now() - t1)
        extra.setdefault("probe_oa", []).append(probe["oa"])
        return probe, base

    def check(result):
        checked = [check_evaluate(ctx, name, r) for name, r in zip(("probe", "baseline"), result)]
        return (ctx["n_pixels"], all(ok for ok, _ in checked),
                "; ".join(why for _, why in checked))

    return run, check


def check_evaluate(ctx, name, result):
    """Metrics in range, consistent with the confusion matrix, same every pass."""
    mat = result["confusion"]
    oa, aa, kappa = result["oa"], result["aa"], result["kappa"]
    if not (0.0 <= oa <= 1.0 and 0.0 <= aa <= 1.0 and -1.0 <= kappa <= 1.0):
        return False, f"{name} metrics out of range: {oa}, {aa}, {kappa}"
    if abs(oa - np.trace(mat) / mat.sum()) > 1e-12:
        return False, f"{name} OA disagrees with its confusion matrix"
    first = ctx.setdefault(f"first_{name}", (oa, aa, kappa))
    if first != (oa, aa, kappa):
        return False, f"{name} metrics differ between passes of the same inputs"
    return True, ""


OPS = {"train": train_op, "extract": extract_op, "evaluate": evaluate_op}


# Workloads whose throughput is scaled by the calibration op (see the
# module docstring), and that op's best time on a quiet host: a 2-core
# Xeon with OpenBLAS 0.3.31 and Python 3.11.
SCALED = ("evaluate",)
CALIBRATION_QUIET_S = 0.040
_CAL_ROWS = np.random.default_rng(0).standard_normal((64, 201))


def calibration_op():
    """Fixed interpreter-bound work with no hdcaps code, of the kind the
    evaluate workload's classifier does: one small-vector update per
    row of a fixed matrix, in a Python loop."""
    w = np.zeros(_CAL_ROWS.shape[1])
    total = np.zeros_like(w)
    for i in range(16000):
        x = _CAL_ROWS[i % _CAL_ROWS.shape[0]]
        if x @ w < 1.0:
            w += 0.01 * x
        w *= 0.999
        total += w
    return float(np.linalg.norm(total))


def measure_ops(workload, ctx, seconds, outcome):
    """Run the workload's operation in a closed loop for `seconds`, timing
    its pieces; check each result outside the timed part."""
    ctx["extra"] = outcome.extra
    run, check = OPS[workload](ctx)
    start = _now()
    while True:
        if workload != "train":
            gc.collect()  # a pass stands for one CLI run: start it without the last one's garbage
        calls = {}
        with contextlib.ExitStack() as stack:
            for module, attr in PIECES[workload]:
                sink = calls.setdefault(f"{module.__name__}.{attr}", [])
                stack.enter_context(timed_calls(module, attr, sink))
            dt, result, err = run_op(run)
        if result is None:
            outcome.record(dt, 0, False, err)
        else:
            outcome.record(dt, *check(result), calls)
        if workload in SCALED:
            t0 = _now()
            calibration_op()
            outcome.calib_s.append(_now() - t0)
        if _now() - start >= seconds:
            return


def prepare(workload, seed, inputs_dir):
    """Load what the measured stage needs beyond its input files."""
    ctx = {"seed": seed, "inputs": workloads.inputs(inputs_dir)}
    if workload == "train":
        ctx["loop"] = workloads.TrainLoop(inputs_dir, seed)
        ctx["loop"].step()  # warm-up: first-call costs are not per-step costs
    elif workload == "evaluate":
        rows = read_features(ctx["inputs"]["features"])[0]
        height, width = workloads.BASELINE_SCENE[:2]
        ctx["n_pixels"] = rows.shape[0] + height * width
    return ctx


# set-up ------------------------------------------------------------------

def run_setups(workload, seed, work):
    """Set up SETUP_REPEATS times, each in a fresh process. Returns the
    wall times and the directory of the first set-up."""
    times = []
    dirs = []
    for i in range(SETUP_REPEATS):
        directory = os.path.join(work, f"setup{i}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--setup-into", directory]
        t0 = _now()
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S)
        times.append(_now() - t0)
        dirs.append(directory)
    for directory in dirs[1:]:
        shutil.rmtree(directory)
    return times, dirs[0]


# reports -----------------------------------------------------------------

def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_enabled": kernels.NUMBA_ENABLED,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def op_summary(workload, outcome):
    """The workload's own figures, for the report above the JSON line."""
    lines = []

    def pct(name, values, unit, scale):
        n = len(values)
        lines.append(f"{name}_p50 {percentile(values, 50) * scale:.3f} {unit} (n={n})")
        lines.append(f"{name}_p90 {percentile(values, 90) * scale:.3f} {unit} (n={n})")

    if workload == "train":
        pct("train_step_ms", outcome.op_s, "ms", 1e3)
        lines.append(f"train_patches_per_s {outcome.patches / sum(outcome.op_s):.2f} patches/s")
    elif workload == "extract":
        batch_s = [t for _, _, calls in outcome.ok_ops
                   for _, t in calls["hdcaps.model.decompose_batch"]]
        pct("extract_batch_ms", batch_s, "ms", 1e3)
        lines.append(f"extract_stage_s_p50 {percentile(outcome.op_s, 50):.3f} s "
                     f"(n={len(outcome.op_s)})")
        lines.append(f"extract_patches_per_s {outcome.patches / sum(outcome.op_s):.2f} patches/s")
    else:
        for name in ("probe_s", "baseline_le_s"):
            values = outcome.extra[name]
            lines.append(f"{name}_p50 {percentile(values, 50):.3f} s (n={len(values)})")
        if outcome.extra.get("probe_oa"):
            lines.append(f"probe_oa {outcome.extra['probe_oa'][-1]:.4f}")
    return lines


def train_loss_line(ctx):
    """Mean total loss of the last complete epoch (the last partial one if
    no epoch completed)."""
    epochs = ctx["loop"].epoch_totals
    complete = epochs[:-1] if len(epochs) > 1 else epochs
    return (f"train_loss_final {statistics.fmean(complete[-1]):.6f} "
            f"(epoch {len(complete) - 1}, {len(complete[-1])} steps)")


# main --------------------------------------------------------------------

def measure(workload, seed, seconds, trace_on, inputs_dir):
    """Measure the stage. Returns (report lines, Outcome, metrics)."""
    ctx = prepare(workload, seed, inputs_dir)
    gc.collect()
    outcome = Outcome()
    lines = []
    if not trace_on:
        measure_ops(workload, ctx, seconds, outcome)
        best = outcome.best_patches_per_s()
        scale = 1.0
        if workload in SCALED:
            calibration_s = min(outcome.calib_s)
            scale = calibration_s / CALIBRATION_QUIET_S
        metrics = {"peak_rss_mb": (peak_rss_mb(), "MB"),
                   "quiet_patches_per_s": (best * scale, "patches/s")}
        lines.append(f"patches_per_s {outcome.patches / sum(outcome.op_s):.2f} patches/s "
                     f"over the run (n={len(outcome.op_s)})")
        lines += op_summary(workload, outcome)
        if outcome.ok_ops:
            lines.append("best time per operation by piece: " + ", ".join(
                f"{name} {t * 1e3:.2f} ms" for name, t in outcome.best_parts().items()))
        lines.append(f"best_patches_per_s {best:.2f} patches/s unscaled, scale {scale:.4f}")
        if workload in SCALED:
            lines.append(f"calibration op best {calibration_s * 1e3:.3f} ms "
                         f"(n={len(outcome.calib_s)})")
        if workload == "train":
            lines.append(train_loss_line(ctx))
        return lines, outcome, metrics

    measure_ops(workload, ctx, seconds / 2, outcome)
    untraced_p50 = percentile(outcome.op_s, 50)
    traced = Outcome()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        measure_ops(workload, ctx, seconds / 2, traced)
    finally:
        tracer.uninstall()
    units = len(traced.op_s)
    traced_p50 = percentile(traced.op_s, 50)
    metrics = tracer.per_layer(units)
    metrics["trace.overhead_ms"] = ((traced_p50 - untraced_p50) * 1e3, "ms")
    unit = "train step" if workload == "train" else "stage pass"
    lines.append(f"per-layer table, self time per {unit} over {units} traced units:")
    lines += tracer.table(units)
    layer_sum = sum(tracer.self_s.values()) * 1e3 / units
    lines.append(f"accounting: sum of self times {layer_sum:.3f} ms per {unit}; traced mean "
                 f"{statistics.fmean(traced.op_s) * 1e3:.3f} ms, traced p50 "
                 f"{traced_p50 * 1e3:.3f} ms, untraced p50 {untraced_p50 * 1e3:.3f} ms "
                 f"(n={len(outcome.op_s)}), overhead {(traced_p50 - untraced_p50) * 1e3:.3f} ms")
    outcome.attempted += traced.attempted
    outcome.failed += traced.failed
    return lines, outcome, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_into:
        workloads.setup(args.workload, args.seed, args.setup_into)
        return 0
    if args.seconds is None or args.seconds <= 0:
        parser.error("--seconds must be given and positive")

    work = tempfile.mkdtemp(dir=source.work_root())
    try:
        setup_times, inputs_dir = run_setups(args.workload, args.seed, work)
        lines, outcome, metrics = measure(args.workload, args.seed, args.seconds,
                                          bool(args.trace), inputs_dir)
        ref_dir = os.path.join(work, "reference")
        attempted, failed, messages = checks.verify(args.workload, ref_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in messages:
        print(f"failed: {message}", file=sys.stderr)
    attempted += outcome.attempted
    failed += outcome.failed
    if not args.trace:
        metrics = {"setup_s": (statistics.median(setup_times), "s"), **metrics}

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("env " + json.dumps(environment()))
    print(f"setup_s runs: {' '.join(f'{t:.3f}' for t in setup_times)}")
    for line in lines:
        print(line)
    print(f"failed_share {failed / attempted:.4f} ({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
