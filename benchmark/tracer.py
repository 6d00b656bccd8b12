"""Outside-in tracing of sbtrack's public functions.

`Tracer.install` replaces public functions of the sbtrack modules with
wrappers that record one span per call: name, start, end, parent span and
the frame or step id current at the call.  Every module attribute bound to
a wrapped function is replaced, so a caller that imported a function by
name (``training.predict_box`` next to ``tracking.predict_box``) is traced
too.  Nothing under ``src/`` changes; `Tracer.uninstall` puts the original
functions back.  A function that no longer exists under its traced name
raises AttributeError at install time, so a rename cannot silently zero a
layer.

Spans stay in memory; `summarize` turns them into per-name inclusive and
self time (duration minus the time covered by child spans).
"""

from __future__ import annotations

import csv
import gzip
import inspect
import time
from array import array
from collections import Counter

import numpy as np

ENGINE_GROUPS = ("linear", "matmul", "conv2d", "depthwise_conv2d", "depthwise_xcorr",
                 "layer_norm", "softmax_last_dim", "gelu", "transpose", "elementwise")
CONTRACTIONS = ENGINE_GROUPS[:5]

_CONSTRUCTORS = ("tensor", "parameter")

BLOCK_FUNCS = ("patch_embed", "eoc_block", "eoc_attention", "mlp_cond_pe", "head_forward",
               "tokens_of", "map_of")
MODEL_FUNCS = ("forward", "run_backbone", "run_heads")
TRACKING_FUNCS = ("crop_region", "predict_box")
TRAINING_FUNCS = ("cls_loss", "reg_loss_terms", "total_loss", "clip_global_norm", "adamw_step",
                  "make_training_examples")


def engine_ops(engine) -> list[str]:
    """Public tensor ops: functions in `engine.__all__` declared to return a
    Tensor, other than the constructors."""
    ops = []
    for name in engine.__all__:
        fn = getattr(engine, name)
        if (name not in _CONSTRUCTORS and inspect.isfunction(fn)
                and inspect.signature(fn).return_annotation in ("Tensor", engine.Tensor)):
            ops.append(name)
    return ops


def op_group(op: str) -> str:
    return op if op in ENGINE_GROUPS else "elementwise"


def rebind(modules, original, replacement) -> list[tuple]:
    """Point every attribute of `modules` that is `original` at `replacement`.

    Returns the undo list for `restore`.
    """
    undo = []
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _shape(a) -> tuple:
    return np.shape(getattr(a, "data", a))


def op_flops(group: str, args, kwargs, out_size: int) -> int:
    """Forward multiply-add FLOPs (2 per MAC) from operand shapes."""
    if group == "linear":
        return 2 * out_size * _shape(_arg(args, kwargs, 1, "weight"))[0]
    if group == "matmul":
        return 2 * out_size * _shape(_arg(args, kwargs, 0, "a"))[-1]
    if group == "conv2d":
        _, c_in, kh, kw = _shape(_arg(args, kwargs, 1, "weight"))
        return 2 * out_size * c_in * kh * kw
    if group == "depthwise_conv2d":
        return 2 * out_size * _shape(_arg(args, kwargs, 1, "weight"))[-1] ** 2
    if group == "depthwise_xcorr":
        _, hz, wz = _shape(_arg(args, kwargs, 0, "template"))
        return 2 * out_size * hz * wz
    return 0


class Tracer:
    """Span recorder plus engine op counters for one traced window."""

    def __init__(self, sb, stage_of: dict):
        self.sb = sb
        self.stage_of = stage_of  # AttnConfig -> 1-based stage index
        # one entry per span, kept in flat arrays so the garbage collector
        # has no per-span objects to scan
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # index of the enclosing span, -1 at top level
        self.items = array("q")  # frame or step id current at the call
        self.item = 0
        self.flops: Counter = Counter()
        self.out_bytes: Counter = Counter()
        self.graph_nodes = 0
        self._open: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name, namer=None, on_out=None):
        names, starts, ends, parents, items = (self.names, self.starts, self.ends, self.parents,
                                               self.items)
        stack, clock = self._open, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name if namer is None else namer(args, kwargs))
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_out is not None:
                on_out(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _op_counter(self, group):
        flops, out_bytes = self.flops, self.out_bytes

        def count(args, kwargs, out):
            out_bytes[group] += out.data.nbytes
            if group in CONTRACTIONS:
                flops[group] += op_flops(group, args, kwargs, out.data.size)
            if out.requires_grad:
                self.graph_nodes += 1

        return count

    def _targets(self):
        sb = self.sb
        eg, bl, md = sb.engine, sb.blocks, sb.model
        yield eg, "backward", "engine.backward", None, None
        for op in engine_ops(eg):
            yield eg, op, f"engine.{op}", None, self._op_counter(op_group(op))
        stage_of = self.stage_of
        for fname in BLOCK_FUNCS:
            namer = None
            if fname == "eoc_block":
                namer = lambda a, k: f"blocks.stage{stage_of.get(_arg(a, k, 3, 'cfg'), 0)}"
            elif fname == "eoc_attention":
                namer = lambda a, k: f"blocks.eoc_attention.{_arg(a, k, 2, 'mode')}"
            yield bl, fname, f"blocks.{fname}", namer, None
        grad_enabled = eg._grad_enabled
        for fname in MODEL_FUNCS:
            namer = None
            if fname == "forward":
                # a forward pass that records a graph belongs to a training step
                namer = lambda a, k: "training.forward" if grad_enabled() else "model.forward"
            yield md, fname, f"model.{fname}", namer, None
        for fname in TRACKING_FUNCS:
            yield sb.tracking, fname, f"tracking.{fname}", None, None
        for fname in TRAINING_FUNCS:
            yield sb.training, fname, f"training.{fname}", None, None
        yield sb.weights, "load_weights", "weights.load_weights", None, None
        yield sb.scenes, "make_suite", "scenes.make_suite", None, None

    def install(self) -> None:
        modules = self.sb.modules
        for mod, fname, name, namer, on_out in self._targets():
            original = getattr(mod, fname)
            self._undo += rebind(modules, original, self._span(original, name, namer, on_out))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    # -- results ---------------------------------------------------------------

    def summarize(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds; plus top-level time."""
        spans = list(zip(self.names, self.starts, self.ends, self.parents))
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        incl: Counter = Counter()
        self_s: Counter = Counter()
        top = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - child[i]
            if parent < 0:
                top += dur
        return {"calls": calls, "incl": incl, "self": self_s, "top_level_s": top}


def write_spans(path, windows: dict) -> None:
    """Write the spans of each named window's Tracer to a gzip CSV; times are
    microseconds from the window's first span."""
    with gzip.open(path, "wt", newline="", encoding="ascii") as fh:
        w = csv.writer(fh)
        w.writerow(("window", "index", "name", "start_us", "end_us", "parent", "item"))
        for window, tr in windows.items():
            t0 = tr.starts[0] if tr.names else 0.0
            for i, (name, start, end, parent, item) in enumerate(
                    zip(tr.names, tr.starts, tr.ends, tr.parents, tr.items)):
                w.writerow((window, i, name, round((start - t0) * 1e6, 3),
                            round((end - t0) * 1e6, 3), parent, item))
