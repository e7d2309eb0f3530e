"""Per-layer tracer that wraps hdcaps functions from outside the package.

Each layer is a public function looked up through a module attribute by
its callers (for example ``hdcaps.model.encode_batch``, which
``forward_batch`` and ``decompose_batch`` resolve at call time). The
tracer replaces those attributes with wrappers that record a span per
call; a span's self time is its duration minus the durations of the
spans nested inside it, so the self times of all spans under one train
step add up to that step.

Backward time is charged to the layer that built the graph nodes. When a
wrapped call returns, the tracer walks the graph from the call's output
tensors back to its input tensors and wraps the ``_backward`` closure of
every node the call created. ``autodiff.backward`` then runs those
wrapped closures as spans of kind ``bwd`` under the layer's name, and
whatever backward time no closure covers (the topological sort, the
loop) stays as the self time of ``autodiff.backward``.

Garbage-collector pauses are measured through ``gc.callbacks`` and, for
``laplacian_eigenmaps``, the peak of traced allocations through
``tracemalloc``.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from hdcaps.autodiff import Tensor

_now = time.perf_counter

# (module whose attribute callers look up, attribute, layer name)
TARGETS = [
    ("hdcaps.training", "train_step", "training.train_step"),
    ("hdcaps.training", "forward_batch", "model.forward_batch"),
    ("hdcaps.training", "backward", "autodiff.backward"),
    ("hdcaps.training", "adam_step", "training.adam_step"),
    ("hdcaps.model", "extract_preliminary_batch", "capsule_block.extract_preliminary_batch"),
    ("hdcaps.model", "encode_batch", "encoder.encode_batch"),
    ("hdcaps.model", "aggregate", "encoder.aggregate"),
    ("hdcaps.model", "decode", "decoder.decode"),
    ("hdcaps.model", "sample_rotations", "geometry.sample_rotations"),
    ("hdcaps.model", "loss_equivariance", "losses.loss_equivariance"),
    ("hdcaps.model", "loss_invariance", "losses.loss_invariance"),
    ("hdcaps.model", "loss_kl", "losses.loss_kl"),
    ("hdcaps.model", "reconstruction_loss", "losses.reconstruction_loss"),
    ("hdcaps.kernels", "chamfer_forward", "kernels.chamfer_forward"),
    ("hdcaps.kernels", "chamfer_backward", "kernels.chamfer_backward"),
    ("hdcaps.model", "load_checkpoint", "model.load_checkpoint"),
    ("hdcaps.model", "fused_features", "model.fused_features"),
    ("hdcaps.model", "decompose_batch", "model.decompose_batch"),
    ("hdcaps.evaluation", "fuse_features", "evaluation.fuse_features"),
    ("hdcaps.dataio", "read_scene", "dataio.read_scene"),
    ("hdcaps.dataio", "extract_patches", "dataio.extract_patches"),
    ("hdcaps.dataio", "write_features", "dataio.write_features"),
    ("hdcaps.dataio", "read_features", "dataio.read_features"),
    ("hdcaps.dataio", "stratified_split", "dataio.stratified_split"),
    ("hdcaps.evaluation", "evaluate_split", "evaluation.evaluate_split"),
    ("hdcaps.evaluation", "train_classifier", "evaluation.train_classifier"),
    ("hdcaps.evaluation", "predict", "evaluation.predict"),
    ("hdcaps.evaluation", "confusion_matrix", "evaluation.confusion_matrix"),
    ("hdcaps.evaluation", "raw_patch_features", "evaluation.raw_patch_features"),
    ("hdcaps.evaluation", "laplacian_eigenmaps", "evaluation.laplacian_eigenmaps"),
]

# Layers that build autodiff nodes; they report forward and backward
# self time and a call count. All other layers report one self time.
AUTODIFF_LAYERS = [
    "capsule_block.extract_preliminary_batch",
    "encoder.encode_batch",
    "encoder.aggregate",
    "decoder.decode",
    "losses.loss_equivariance",
    "losses.loss_invariance",
    "losses.loss_kl",
    "losses.reconstruction_loss",
]

BOOKKEEPING = "trace.bookkeeping"


def _tensors(obj):
    """Tensors in a return value or argument: bare, or inside tuples/lists."""
    if isinstance(obj, Tensor):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _tensors(item)


class _Charged:
    """A node's backward closure, run as a ``bwd`` span of its layer."""

    __slots__ = ("fn", "layer", "tracer")

    def __init__(self, fn, layer, tracer):
        self.fn = fn
        self.layer = layer
        self.tracer = tracer

    def __call__(self):
        tracer = self.tracer
        tracer.closures_run += 1
        frame = tracer._enter()
        try:
            self.fn()
        finally:
            tracer._exit(frame, self.layer, "bwd")


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`.

    ``self_s[(layer, kind)]`` holds summed self time in seconds,
    ``incl_s`` the summed span durations and ``calls`` the number of
    spans; ``counts`` holds work counters (chamfer pairs and bytes,
    classifier updates, peak bytes).
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.chamfer_shapes = defaultdict(lambda: [0, 0.0])  # shape -> [calls, s]
        self.closures_built = 0
        self.closures_run = 0
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_start = None
        self._stack = []
        self._saved = []

    # spans -------------------------------------------------------------
    def _enter(self):
        frame = [_now(), 0.0]  # start, time covered by nested spans
        self._stack.append(frame)
        return frame

    def _exit(self, frame, layer, kind):
        dur = _now() - frame[0]
        self._stack.pop()
        self.self_s[(layer, kind)] += dur - frame[1]
        self.incl_s[(layer, kind)] += dur
        self.calls[(layer, kind)] += 1
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    def _claim(self, out, inputs, layer):
        """Charge the backward closures of nodes this call created to layer."""
        stack = list(_tensors(out))
        while stack:
            node = stack.pop()
            bw = node._backward
            if id(node) in inputs or bw is None or isinstance(bw, _Charged):
                continue
            node._backward = _Charged(bw, layer, self)
            self.closures_built += 1
            stack.extend(node._parents)

    # wrappers ----------------------------------------------------------
    def _wrap(self, fn, layer):
        counter = _COUNTERS.get(layer)
        signature = inspect.signature(fn) if counter else None
        measure_memory = layer == "evaluation.laplacian_eigenmaps"
        record_shape = layer == "kernels.chamfer_forward"

        def traced(*args, **kwargs):
            # the tracer's own work before and after the call is a span of
            # its own, so it inflates no layer's self time
            book = self._enter()
            inputs = {id(t) for a in args for t in _tensors(a)}
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments)
            self._exit(book, BOOKKEEPING, "fwd")
            if measure_memory:
                tracemalloc.start()
            frame = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = self._exit(frame, layer, "fwd")
                if measure_memory:
                    self.counts[layer + ".peak_bytes"] += tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            book = self._enter()
            if record_shape:
                entry = self.chamfer_shapes[args[0].shape[:2] + args[1].shape[1:]]
                entry[0] += 1
                entry[1] += dur
            self._claim(out, inputs, layer)
            self._exit(book, BOOKKEEPING, "fwd")
            return out

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = _now()
        elif self._gc_start is not None:
            self.gc_pause_s += _now() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def install(self):
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # report ------------------------------------------------------------
    def per_layer(self, units: int) -> dict:
        """Per-layer metrics, each divided by the number of traced units
        (train steps, or stage passes). Layers that never ran report 0."""
        ms = 1e3 / units

        def self_ms(layer, kind="fwd"):
            return self.self_s.get((layer, kind), 0.0) * ms

        out = {}
        for layer in AUTODIFF_LAYERS:
            out[layer + ".fwd_ms"] = (self_ms(layer), "ms")
            out[layer + ".bwd_ms"] = (self_ms(layer, "bwd"), "ms")
            out[layer + ".calls"] = (self.calls.get((layer, "fwd"), 0) / units, "count")
        simple = [layer for _, _, layer in TARGETS
                  if layer not in AUTODIFF_LAYERS and layer != "autodiff.backward"]
        for layer in simple:
            out[layer + ".ms"] = (self_ms(layer), "ms")
        out["model.forward_batch.bwd_ms"] = (self_ms("model.forward_batch", "bwd"), "ms")
        out["autodiff.backward.ms"] = (
            self.incl_s.get(("autodiff.backward", "fwd"), 0.0) * ms, "ms")
        out["autodiff.backward.unattributed_ms"] = (self_ms("autodiff.backward"), "ms")
        out["autodiff.graph_nodes"] = (self.closures_built / units, "count")
        unused = 1.0 - self.closures_run / self.closures_built if self.closures_built else 0.0
        out["autodiff.closures_unused_share"] = (unused, "share")
        out["kernels.chamfer.pairs"] = (self.counts["kernels.chamfer.pairs"] / units, "count")
        out["kernels.chamfer.bytes"] = (self.counts["kernels.chamfer.bytes"] / units, "bytes")
        out["evaluation.train_classifier.updates"] = (
            self.counts["evaluation.train_classifier.updates"] / units, "count")
        out["evaluation.laplacian_eigenmaps.peak_bytes"] = (
            self.counts["evaluation.laplacian_eigenmaps.peak_bytes"] / units, "bytes")
        out["gc.collections"] = (self.gc_collections / units, "count")
        out["gc.pause_ms"] = (self.gc_pause_s * ms, "ms")
        out[BOOKKEEPING + "_ms"] = (self_ms(BOOKKEEPING), "ms")
        return out

    def table(self, units: int) -> list[str]:
        """Human-readable rows: every span kind with its self time per unit."""
        rows = sorted(self.self_s.items(), key=lambda kv: -kv[1])
        lines = [f"{'layer':<44} {'kind':<4} {'self ms/unit':>12} {'calls/unit':>10}"]
        for (layer, kind), secs in rows:
            lines.append(f"{layer:<44} {kind:<4} {secs * 1e3 / units:>12.3f} "
                         f"{self.calls[(layer, kind)] / units:>10.2f}")
        for (b, n, m, d), (calls, secs) in sorted(self.chamfer_shapes.items()):
            lines.append(f"chamfer_forward ({b}, {n}, {d}) vs ({b}, {m}, {d}): "
                         f"{calls / units:.2f} calls/unit, {secs * 1e3 / calls:.3f} ms/call")
        return lines


def _count_chamfer(tracer, a):
    p, q = np.asarray(a["p"]), np.asarray(a["q"])
    bsz, n, d = p.shape
    m = q.shape[1]
    tracer.counts["kernels.chamfer.pairs"] += bsz * n * m
    # the numpy kernel materializes the (B, n, m, D) float64 difference tensor
    tracer.counts["kernels.chamfer.bytes"] += bsz * n * m * d * 8


def _count_classifier(tracer, a):
    n_classes = np.unique(np.asarray(a["labels"])).shape[0]
    n_rows = np.asarray(a["feats"]).shape[0]
    tracer.counts["evaluation.train_classifier.updates"] += n_classes * a["epochs"] * n_rows


_COUNTERS = {
    "kernels.chamfer_forward": _count_chamfer,
    "evaluation.train_classifier": _count_classifier,
}
