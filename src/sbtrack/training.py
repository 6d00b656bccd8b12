"""Losses, target assignment, optimizer, and the fine-tuning loop.

Every cell of the output grid whose center falls inside the ground-truth
box is a positive; positives regress normalized left/top/right/bottom
distances.  The total objective is

    12 * BCE(foreground) + 5 * (1 - GIoU) + 7 * L1

with the box terms averaged over positive cells only and all losses
mean-reduced, so the weights stay comparable across grid sizes.  The box
terms need only the distances: predicted and target boxes share the cell
center as anchor, and GIoU is invariant to translation and scale, so
widths, heights and overlaps come straight from sums of l/t/r/b (as in the
IoU loss of FCOS) with no decoding into absolute edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import engine as eg
from . import model as md
from .boxes import Box, _real, iou
from .engine import Tensor, no_grad
from .tracking import CropMeta, crop_region, predict_box

__all__ = [
    "TrainConfig",
    "TargetMap",
    "assign_targets",
    "cls_loss",
    "reg_loss_terms",
    "total_loss",
    "adamw_step",
    "clip_global_norm",
    "TrainExample",
    "make_training_examples",
    "TrainLog",
    "train",
]

_PROB_CLAMP = 1e-7
# pair sampling in make_training_examples
_FRAME_GAP = 6  # search frame within this many frames of the template frame
_CENTER_JITTER = 0.12  # search crop centre moved by up to this fraction of its side, per axis
_FLIP_PROB = 0.5
_BRIGHTNESS = 0.15  # pair-wide brightness factor drawn from 1 +- this
# AdamW's moment decay rates and the term that keeps its step finite
_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    lr_head: float = 1e-3
    lr_backbone: float = 1e-4
    weight_decay: float = 1e-4
    batch: int = 4
    steps: int = 300
    decay_steps: tuple[int, ...] = ()  # lr drops by 10x at each
    seed: int = 0
    clip_norm: float = 10.0  # bound on the global gradient norm; inf: no clipping
    probe_every: int = 25

    def __post_init__(self):
        if type(self.decay_steps) is not tuple:
            raise ValueError(f"decay_steps must be a tuple, got {self.decay_steps!r}")
        for name in ("batch", "steps", "seed", "probe_every", "decay_steps"):
            value = getattr(self, name)
            if any(type(v) is not int for v in (value if name == "decay_steps" else (value,))):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if any(v < 0 for v in self.decay_steps):
            raise ValueError(f"decay_steps must be >= 0, got {self.decay_steps!r}")
        for name in ("lr_head", "lr_backbone", "weight_decay"):
            value = getattr(self, name)
            if not (_real(value) and math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite real >= 0, got {value!r}")
        if self.lr_backbone > self.lr_head:
            raise ValueError("backbone lr must not exceed head lr")
        if self.batch < 1 or self.steps < 0:
            raise ValueError("batch must be >= 1 and steps >= 0")
        if not (_real(self.clip_norm) and self.clip_norm > 0):
            raise ValueError(f"clip_norm must be > 0 (inf for no clipping) and a real, not a bool; "
                             f"got {self.clip_norm!r}")
        if self.probe_every < 1:
            raise ValueError(f"probe_every must be >= 1, got {self.probe_every}")


# -- target assignment -----------------------------------------------------------


@dataclass
class TargetMap:
    labels: np.ndarray  # [hs, ws] in {0, 1}
    reg: np.ndarray  # [4, hs, ws] normalized l/t/r/b distances


def assign_targets(gt_box: Box, grid: tuple[int, int], crop_size: float) -> TargetMap:
    """Label cells positive when their center lies inside the box (given in
    search-crop pixels); regression targets are the distances from the cell
    center to the four box edges, normalized by half the crop size (so a
    value of 1 reaches a full crop away and typical boxes sit mid-range)."""
    hs, ws = grid
    cx = (np.arange(ws) + 0.5) * (crop_size / ws)
    cy = (np.arange(hs) + 0.5) * (crop_size / hs)
    inside_x = (cx >= gt_box.x1) & (cx <= gt_box.x2)
    inside_y = (cy >= gt_box.y1) & (cy <= gt_box.y2)
    labels = (inside_y[:, None] & inside_x[None, :]).astype(np.float32)
    reg = np.stack([
        np.broadcast_to(cx[None, :], (hs, ws)) - gt_box.x1,
        np.broadcast_to(cy[:, None], (hs, ws)) - gt_box.y1,
        gt_box.x2 - np.broadcast_to(cx[None, :], (hs, ws)),
        gt_box.y2 - np.broadcast_to(cy[:, None], (hs, ws)),
    ]).astype(np.float32) / (crop_size / 2.0)
    return TargetMap(labels=labels, reg=reg)


# -- losses -----------------------------------------------------------------------


def cls_loss(p: Tensor, labels: np.ndarray) -> Tensor:
    """Mean binary cross-entropy; probabilities clamped away from 0 and 1."""
    flat = eg.reshape(p, (-1,))
    y = eg.tensor(np.asarray(labels, dtype=flat.dtype).reshape(-1), dtype=flat.dtype)
    pc = eg.clip(flat, _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    pos = eg.mul(y, eg.log(pc))
    neg = eg.mul(eg.sub(1.0, y), eg.log(eg.sub(1.0, pc)))
    return eg.mul(eg.mean_(eg.add(pos, neg)), -1.0)


def _area(d: Tensor) -> Tensor:
    """Per-cell area (l + r) * (t + b) of a [4, hs, ws] l/t/r/b map.

    Each side is clamped at 0.  A masked cell can hold a target lying
    outside its box (negative distances); the clamp keeps its intersection
    at 0 and so its union > 0, so no `NaN * 0` from `inter / union` can
    reach the loss.
    """
    hs, ws = d.shape[1:]
    sides = eg.relu(eg.sum_(eg.reshape(d, (2, 2, hs, ws)), axis=0))  # [l + r, t + b]
    return eg.mul(sides[0], sides[1])


def reg_loss_terms(pred: Tensor, target: np.ndarray, mask: np.ndarray,
                   ) -> tuple[Tensor, Tensor]:
    """(1 - GIoU) and L1 terms averaged over positive cells.

    `pred` is the [4, hs, ws] sigmoid output; `target` the matching
    normalized distances; `mask` the positive-cell indicator.  With no
    positives both terms are defined as exact zeros.
    """
    n_pos = float(np.sum(mask))
    if n_pos == 0:
        zero = eg.tensor(np.zeros((), dtype=pred.dtype), dtype=pred.dtype)
        return zero, zero
    m = eg.tensor(np.asarray(mask, dtype=pred.dtype), dtype=pred.dtype)
    tgt = eg.tensor(np.asarray(target, dtype=pred.dtype), dtype=pred.dtype)

    inter = _area(eg.minimum(pred, tgt))
    union = eg.sub(eg.add(_area(pred), _area(tgt)), inter)
    enclose = _area(eg.maximum(pred, tgt))
    giou_map = eg.sub(eg.div(inter, union), eg.div(eg.sub(enclose, union), enclose))

    giou_term = eg.mul(eg.sum_(eg.mul(eg.sub(1.0, giou_map), m)), 1.0 / n_pos)
    diff = eg.mean_(eg.abs_(eg.sub(pred, tgt)), axis=0)  # mean over l/t/r/b
    l1_term = eg.mul(eg.sum_(eg.mul(diff, m)), 1.0 / n_pos)
    return giou_term, l1_term


def total_loss(cls_term, giou_term, l1_term) -> Tensor:
    """12 * BCE + 5 * (1 - GIoU) + 7 * L1; a term may be a number."""
    return eg.add(eg.add(eg.mul(cls_term, 12.0), eg.mul(giou_term, 5.0)), eg.mul(l1_term, 7.0))


# -- optimizer ---------------------------------------------------------------------


def adamw_step(params: list[Tensor], state: dict, lr: float, weight_decay: float) -> list[Tensor]:
    """One decoupled-weight-decay Adam update of each parameter from its
    `grad` (None counts as zero), in place.

    `state` persists across calls; pass the same dict each step.  A zero
    gradient at t=1 reduces to pure decay: w <- w * (1 - lr * wd).
    """
    if not state:
        state["t"] = 0
        state["m"] = [np.zeros_like(p.data) for p in params]
        state["v"] = [np.zeros_like(p.data) for p in params]
    state["t"] += 1
    t = state["t"]
    b1, b2 = _ADAM_BETAS
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for p, m, v in zip(params, state["m"], state["v"]):
        g = np.zeros_like(p.data) if p.grad is None else p.grad
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        p.data -= lr * ((m / c1) / (np.sqrt(v / c2) + _ADAM_EPS) + weight_decay * p.data)
    return params


def clip_global_norm(params: list[Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most `max_norm`, and
    return the norm before scaling.  `max_norm` must be a real > 0 that is
    not a bool, as `TrainConfig.clip_norm`; inf means no clipping, and any
    other bound raises `ValueError`."""
    if not (_real(max_norm) and max_norm > 0):
        raise ValueError(f"max_norm must be > 0 (inf for no clipping) and a real, not a bool; "
                         f"got {max_norm!r}")
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


# -- datasets ---------------------------------------------------------------------


@dataclass
class TrainExample:
    template: np.ndarray  # [3, t, t]
    search: np.ndarray  # [3, s, s]
    gt: Box  # in search-crop pixels


def make_training_examples(sequences, count: int, template_size: int, search_size: int,
                           rng) -> list[TrainExample]:
    """Sample (template, search, box) triples from sequences.

    Template: factor-2 crop at the ground truth of one frame.  Search:
    factor-4 crop of a nearby frame, centered on a jittered box so the
    target is not always dead center.  Horizontal flip and brightness
    jitter are applied to the pair as a whole.
    """
    if not sequences:
        raise ValueError("make_training_examples needs at least one sequence; the sequence list is empty")
    examples = []
    for _ in range(count):
        seq = sequences[int(rng.integers(len(sequences)))]
        n = len(seq.frames)
        i = int(rng.integers(n))
        j = int(np.clip(i + rng.integers(-_FRAME_GAP, _FRAME_GAP + 1), 0, n - 1))
        template, _ = crop_region(seq.frames[i], seq.gt[i], 2.0, template_size)
        ref = seq.gt[j]
        side = 4.0 * float(np.sqrt(ref.w * ref.h))
        dx, dy = rng.uniform(-_CENTER_JITTER, _CENTER_JITTER, size=2) * side
        search, meta = crop_region(seq.frames[j], ref.shifted(dx, dy), 4.0, search_size)
        gt = meta.to_crop(seq.gt[j])
        if rng.random() < _FLIP_PROB:
            template = template[:, :, ::-1].copy()
            search = search[:, :, ::-1].copy()
            gt = Box(search_size - gt.x2, gt.y1, search_size - gt.x1, gt.y2)
        factor = 1.0 + rng.uniform(-_BRIGHTNESS, _BRIGHTNESS)
        template = np.clip(template * factor, 0.0, 1.0).astype(np.float32)
        search = np.clip(search * factor, 0.0, 1.0).astype(np.float32)
        examples.append(TrainExample(template=template, search=search, gt=gt))
    return examples


# -- training loop ------------------------------------------------------------------


@dataclass
class TrainLog:
    columns = ("step", "loss_cls", "loss_giou", "loss_l1", "loss_total", "lr", "probe_iou")
    rows: list[tuple] = field(default_factory=list)

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [r[idx] for r in self.rows]


def _probe_iou(model, probe: list[TrainExample]) -> float:
    meta = CropMeta.identity(model.config.search_size)
    vals = []
    with no_grad():
        for ex in probe:
            cls, reg = md.forward(model, ex.template, ex.search)
            vals.append(iou(predict_box(cls, reg, meta), ex.gt))
    return float(np.mean(vals)) if vals else 0.0


def train(model, dataset: list[TrainExample], tc: TrainConfig,
          probe: list[TrainExample]) -> TrainLog:
    """Fine-tune on (template, search, box) triples.

    Gradients accumulate over the batch one pair at a time, get clipped at
    a global norm, and feed decoupled-Adam updates with separate learning
    rates for the prediction heads and the backbone.  The learning rate
    drops by 10x at each step listed in `tc.decay_steps`.  Every
    `tc.probe_every` steps the mean IoU of greedy decodes on a held-out
    probe batch is logged (carried forward in between).  A step whose
    gradient is not finite raises `ValueError` naming the step and the first
    such parameter, before any parameter is updated.
    """
    if not dataset:
        raise ValueError("empty training set")
    rng = np.random.default_rng(tc.seed)
    head_params = [t for n, t in model.params.items() if n.startswith("head.")]
    back_params = [t for n, t in model.params.items() if not n.startswith("head.")]
    all_params = head_params + back_params
    head_state: dict = {}
    back_state: dict = {}
    grid = model.config.search_grid()
    targets = [assign_targets(ex.gt, grid, float(model.config.search_size)) for ex in dataset]

    log = TrainLog()
    probe_val = _probe_iou(model, probe)
    decay = 0
    for step in range(tc.steps):
        decay += tc.decay_steps.count(step)
        lr_scale = 0.1**decay
        idx = rng.integers(len(dataset), size=tc.batch)
        eg.zero_grads(all_params)
        acc = np.zeros(4)
        for i in idx:
            ex, tm = dataset[i], targets[i]
            cls, reg = md.forward(model, ex.template, ex.search)
            c_term = cls_loss(cls, tm.labels)
            g_term, l1_term = reg_loss_terms(reg, tm.reg, tm.labels)
            loss = total_loss(c_term, g_term, l1_term)
            eg.mul(loss, 1.0 / tc.batch).backward()
            acc += (c_term.item(), g_term.item(), l1_term.item(), loss.item())
        acc /= tc.batch
        norm = clip_global_norm(all_params, tc.clip_norm)
        if not np.isfinite(norm):
            bad = next((n for n, t in model.params.items()
                        if t.grad is not None and not np.isfinite(t.grad).all()), None)
            raise ValueError(f"step {step}: gradient of {bad} is not finite (global norm {norm}); "
                             f"no parameter was updated")
        adamw_step(head_params, head_state, lr=tc.lr_head * lr_scale, weight_decay=tc.weight_decay)
        adamw_step(back_params, back_state, lr=tc.lr_backbone * lr_scale,
                   weight_decay=tc.weight_decay)
        if (step + 1) % tc.probe_every == 0 or step + 1 == tc.steps:
            probe_val = _probe_iou(model, probe)
        log.rows.append((step, acc[0], acc[1], acc[2], acc[3], tc.lr_head * lr_scale, probe_val))
    return log
