"""Span tracing of dynamark's public functions, from outside the package.

``Tracer.install()`` replaces each traced function by a timing wrapper
in every ``dynamark`` module namespace (and module-level dict) that
holds it, so calls through ``ad.conv2d``, ``from .audio import bssl``
or ``cli.COMMANDS`` are all seen.  Autodiff ops also wrap the
``_backward`` closure of the node they return, so the backward pass is
timed per op kind.  Spans (name, start, end, parent) are kept in memory
and written out when the run ends.

Self time is a span's duration minus the time its direct children
cover.  ``autodiff.attention`` is reported inclusive of the matmul,
softmax and elementwise ops it is built from; every other op kind is
reported as self time.  ``elementwise`` covers every remaining
primitive: arithmetic, activations, reductions, gathers and reshapes.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

MODULE_FUNCTIONS = {
    "audio": ("decode_and_prepare", "stft_power", "bssl", "log_mel", "save_features"),
    "dataset": ("make_segments",),
    "objectives": ("multitask_loss",),
    "trainer": ("predict_frames", "evaluate_recordings", "load_checkpoint"),
    "postprocess": ("build_event_report",),
    "metrics": ("event_f1", "dynamics_macro_f1"),
    "cli": ("cmd_extract", "cmd_annotate", "cmd_eval", "write_manifest"),
}
METHODS = {
    ("network", "DynamicsModel", "encode"): "network.encode",
    ("network", "DynamicsModel", "mmoe"): "network.mmoe",
    ("trainer", "AdamW", "step"): "trainer.adamw_step",
}
OP_KINDS = ("conv2d", "conv1d", "conv_transpose1d", "linear", "matmul", "softmax",
            "attention", "batchnorm2d", "layernorm", "maxpool1d")
ELEMENTWISE = ("add", "sub", "mul", "scale", "mul_const", "neg", "tsum", "tmean", "relu",
               "sigmoid", "softplus", "tlog", "texp", "log_softmax", "take", "reshape",
               "transpose", "narrow", "concat")
OP_CATEGORY = {**{name: name for name in OP_KINDS}, **{name: "elementwise" for name in ELEMENTWISE}}
CATEGORIES = OP_KINDS + ("elementwise",)
INCLUSIVE = ("attention",)


def _gemm_flops(name: str, args, out) -> tuple[float, float]:
    """Forward and backward multiply-add flops of conv2d and matmul."""
    if name == "conv2d":
        x, w = args[0].data, args[1].data
        bsz, cin, h, wd = x.shape
        cout, _, k, _ = w.shape
        fwd = 2.0 * bsz * h * wd * cout * cin * k * k
        return fwd, fwd * (2 if args[0]._needs else 1)
    if name == "matmul":
        fwd = 2.0 * out.data.size * args[0].data.shape[-1]
        return fwd, 2 * fwd
    return 0.0, 0.0


def _buffer(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def graph_stats(loss) -> tuple[int, int]:
    """Node count and bytes held by the graph behind ``loss``.

    Bytes are the distinct buffers of every node's output plus the
    arrays captured by its backward closure.
    """
    seen: set[int] = set()
    buffers: dict[int, int] = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        held = [node.data]
        back = getattr(node._backward, "__wrapped__", node._backward)
        for cell in getattr(back, "__closure__", None) or ():
            try:
                value = cell.cell_contents
            except ValueError:
                continue
            values = value if isinstance(value, (list, tuple)) else (value,)
            for v in values:
                held.append(v if isinstance(v, np.ndarray) else getattr(v, "data", None))
        for arr in held:
            if isinstance(arr, np.ndarray):
                base = _buffer(arr)
                buffers[id(base)] = base.nbytes
        stack.extend(node._parents)
    return len(seen), sum(buffers.values())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, enclosing op kinds]
        self.calls: Counter = Counter()
        self.flops: Counter = Counter()
        self.graphs: list[tuple[int, int]] = []
        self._open: list[int] = []
        self._ops: list[str] = []
        self._patches: list[tuple[object, object, object]] = []

    # -- spans -----------------------------------------------------------

    def begin(self, name: str, enclosing=()) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1,
                           enclosing])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_op(self, op: str, fn):
        kind = OP_CATEGORY[op]
        fwd_name = f"autodiff.{kind}.fwd"
        bwd_name = f"autodiff.{kind}.bwd"

        def wrapper(*args, **kwargs):
            enclosing = tuple(self._ops)
            self._ops.append(kind)
            idx = self.begin(fwd_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
                self._ops.pop()
            self.calls[kind] += 1
            fwd_flops, bwd_flops = _gemm_flops(op, args, out)
            self.flops[kind] += fwd_flops
            back = out._backward
            if back is not None and not hasattr(back, "__wrapped__"):
                out._backward = self._timed_backward(bwd_name, kind, enclosing, back, bwd_flops)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_backward(self, name, kind, enclosing, back, flops):
        def wrapper(g, grads):
            idx = self.begin(name, enclosing)
            try:
                back(g, grads)
            finally:
                self.end(idx)
            self.flops[kind] += flops

        wrapper.__wrapped__ = back
        return wrapper

    def _timed_backward_entry(self, fn):
        timed = self._timed("autodiff.backward", fn)

        def wrapper(loss):
            self.graphs.append(graph_stats(loss))
            return timed(loss)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dynamark" or mod_name.startswith("dynamark.")):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((namespace, key, value))
                    namespace[key] = replacement
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._patches.append((value, dkey, dvalue))
                            value[dkey] = replacement

    def install(self) -> "Tracer":
        modules = {name: importlib.import_module(f"dynamark.{name}")
                   for name in ("audio", "autodiff", "network", "objectives", "dataset",
                                "trainer", "postprocess", "metrics", "cli")}
        for mod_name, names in MODULE_FUNCTIONS.items():
            for name in names:
                fn = getattr(modules[mod_name], name)
                self._replace_everywhere(fn, self._timed(f"{mod_name}.{name}", fn))
        ad = modules["autodiff"]
        for op in OP_CATEGORY:
            fn = getattr(ad, op)
            self._replace_everywhere(fn, self._timed_op(op, fn))
        self._replace_everywhere(ad.backward, self._timed_backward_entry(ad.backward))
        for (mod_name, cls_name, meth), span_name in METHODS.items():
            cls = getattr(modules[mod_name], cls_name)
            fn = cls.__dict__[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._timed(span_name, fn))
        return self

    def uninstall(self) -> None:
        for target, key, value in reversed(self._patches):
            if isinstance(target, type):
                setattr(target, key, value)
            else:
                target[key] = value
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> np.ndarray:
        dur = np.array([s[2] - s[1] for s in self.spans])
        covered = np.zeros(len(self.spans))
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                covered[s[3]] += d
        return dur - covered

    def summary(self) -> dict[str, dict]:
        """Per span name: inclusive seconds and self seconds."""
        own = self.self_times()
        out: dict[str, dict] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0})
        for s, self_s in zip(self.spans, own):
            entry = out[s[0]]
            entry["s"] += s[2] - s[1]
            entry["self_s"] += self_s
            for kind in s[4]:
                if kind in INCLUSIVE and s[0].endswith(".bwd"):
                    out[f"autodiff.{kind}.bwd"]["s"] += s[2] - s[1]
        return dict(out)

    def coverage(self) -> float:
        """Share of the benchmark's root spans' (``bench.*``) time that
        child spans account for."""
        own = self.self_times()
        roots = [i for i, s in enumerate(self.spans) if s[3] < 0 and s[0].startswith("bench.")]
        total = sum(self.spans[i][2] - self.spans[i][1] for i in roots)
        return 1.0 - sum(own[i] for i in roots) / total if total else 0.0

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer figures per unit of work (pass, step or epoch)."""
        summary = self.summary()
        get = lambda name, key="s": summary.get(name, {}).get(key, 0.0) / n_ops
        metrics = {}
        for mod_name, names in MODULE_FUNCTIONS.items():
            for name in names:
                metrics[f"{mod_name}.{name}.s"] = get(f"{mod_name}.{name}")
        for span_name in METHODS.values():
            metrics[f"{span_name}.s"] = get(span_name)
        for kind in CATEGORIES:
            key = "s" if kind in INCLUSIVE else "self_s"
            metrics[f"autodiff.{kind}.fwd_s"] = get(f"autodiff.{kind}.fwd", key)
            metrics[f"autodiff.{kind}.bwd_s"] = get(f"autodiff.{kind}.bwd", key)
            metrics[f"autodiff.{kind}.calls"] = self.calls[kind] / n_ops
        metrics["autodiff.conv2d.flops"] = self.flops["conv2d"] / n_ops
        metrics["autodiff.matmul.flops"] = self.flops["matmul"] / n_ops
        metrics["autodiff.backward.s"] = get("autodiff.backward")
        metrics["autodiff.backward.overhead_s"] = get("autodiff.backward", "self_s")
        nodes = [n for n, _ in self.graphs]
        nbytes = [b for _, b in self.graphs]
        metrics["autodiff.graph_nodes"] = float(np.mean(nodes)) if nodes else 0.0
        metrics["autodiff.graph_bytes"] = float(np.mean(nbytes)) if nbytes else 0.0
        return metrics

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": [s[:4] for s in self.spans]}, fh)
