"""Crop geometry, box decoding, the frame-by-frame tracker, and metrics.

Template crops use a context factor of 2, search crops a factor of 4: the
crop is a square of side factor * sqrt(w*h) centered on the reference box,
bilinearly resized to the network input size.  The tracker keeps the first
frame's template fixed and re-centers the search crop on the previous
prediction each frame, with no windowing or penalty on the score map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model as md
from .boxes import Box, _real, iou
from .engine import ShapeError, no_grad
from .scenes import Sequence

__all__ = [
    "CropMeta",
    "crop_region",
    "predict_box",
    "run_tracker",
    "Metrics",
    "compute_metrics",
    "evaluate_sequences",
]


@dataclass(frozen=True)
class CropMeta:
    """Affine map between frame pixels and crop pixels, plus frame bounds."""

    cx: float
    cy: float
    side: float
    out_size: int
    frame_h: int
    frame_w: int

    @property
    def scale(self) -> float:
        return self.out_size / self.side

    @staticmethod
    def identity(size: int) -> "CropMeta":
        return CropMeta(cx=size / 2, cy=size / 2, side=float(size), out_size=size,
                        frame_h=size, frame_w=size)

    def to_crop(self, b: Box) -> Box:
        x0 = self.cx - self.side / 2
        y0 = self.cy - self.side / 2
        return Box((b.x1 - x0) * self.scale, (b.y1 - y0) * self.scale,
                   (b.x2 - x0) * self.scale, (b.y2 - y0) * self.scale)

    def to_frame(self, x1: float, y1: float, x2: float, y2: float,
                 ) -> tuple[float, float, float, float]:
        """Crop-pixel edges to frame-pixel edges, as plain floats: decoded
        edges need not make a valid `Box` before they are clamped."""
        x0 = self.cx - self.side / 2
        y0 = self.cy - self.side / 2
        return (x1 / self.scale + x0, y1 / self.scale + y0,
                x2 / self.scale + x0, y2 / self.scale + y0)


def _axis_samples(center: float, side: float, out_size: int) -> np.ndarray:
    # geometric position of each output pixel center, as array coordinates
    return center - side / 2 + (np.arange(out_size) + 0.5) * (side / out_size) - 0.5


def _lerp_rows(a: np.ndarray, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linear interpolation of `a` [c, n, m] along axis 1 at the
    non-decreasing array coordinates `samples`: [c, len(samples), m].

    A tap outside 0..n-1 is not read and adds nothing.  Also returns, per
    sample, the weight of its taps inside and whether both taps are inside.
    """
    n = a.shape[1]
    i0 = np.floor(samples).astype(int)
    frac = (samples - i0).astype(a.dtype)
    out = np.zeros((a.shape[0], samples.size, a.shape[2]), a.dtype)
    weight = np.zeros(samples.size, a.dtype)
    for idx, wt in ((i0, 1 - frac), (i0 + 1, frac)):
        run = slice(np.searchsorted(idx, 0), np.searchsorted(idx, n))  # idx is sorted
        out[:, run] += a[:, idx[run]] * wt[run, None]
        weight[run] += wt[run]
    return out, weight, (i0 >= 0) & (i0 + 1 < n)


def _bilinear(frame: np.ndarray, ys: np.ndarray, xs: np.ndarray, fill: np.ndarray) -> np.ndarray:
    """Bilinear samples of `frame` [c, h, w] on the grid ys x xs, one axis at
    a time: between the two frame rows of each ys, then between the two
    columns of each xs.  The row pass reads only the frame columns the xs
    taps span, so the cost is O(c * len(ys) * (span + len(xs))), whatever
    the frame size.

    The weight of the taps outside the frame goes to the per-channel `fill`
    value, which only samples with such a tap see.  So a non-finite pixel
    reaches the samples whose taps read it and, through `fill`, the samples
    with a tap outside the frame."""
    w = frame.shape[2]
    x0 = min(max(int(np.floor(xs[0])), 0), w)  # the frame columns that xs taps
    x1 = min(max(int(np.floor(xs[-1])) + 2, x0), w)
    rows, wy, full_y = _lerp_rows(frame[:, :, x0:x1], ys)
    cols, wx, full_x = _lerp_rows(np.ascontiguousarray(rows.transpose(0, 2, 1)), xs - x0)
    edge = ~(full_y[:, None] & full_x)
    out = np.where(edge, fill[:, None, None] * (1 - np.outer(wy, wx)), 0)
    out += cols.transpose(0, 2, 1)
    return out


def crop_region(frame: np.ndarray, box: Box, factor: float, out_size: int,
                ) -> tuple[np.ndarray, CropMeta]:
    """Square context crop around `box`, resized to out_size.

    Side is factor * sqrt(w * h); out-of-frame area is filled with the
    per-channel frame mean.  The returned meta inverts the mapping.
    `frame` must be [c, h, w] with h, w >= 1, `factor` a finite real > 0
    that is not a bool, `out_size` an int >= 1.
    """
    frame = np.asarray(frame)
    if frame.ndim != 3 or min(frame.shape[1:]) < 1:
        raise ShapeError(f"frame must be [c, h, w] with h, w >= 1, got shape {frame.shape}")
    if not (_real(factor) and math.isfinite(factor) and factor > 0):
        raise ValueError(f"factor must be a finite real > 0, not a bool; got {factor!r}")
    if type(out_size) is not int or out_size < 1:
        raise ValueError(f"out_size must be an int >= 1, got {out_size!r}")
    side = factor * float(np.sqrt(box.w * box.h))
    meta = CropMeta(cx=box.cx, cy=box.cy, side=side, out_size=out_size,
                    frame_h=frame.shape[1], frame_w=frame.shape[2])
    fill = frame.mean(axis=(1, 2))
    ys = _axis_samples(box.cy, side, out_size)
    xs = _axis_samples(box.cx, side, out_size)
    return _bilinear(frame, ys, xs, fill), meta


def predict_box(cls_map, reg_map, meta: CropMeta, previous: Box | None = None) -> Box:
    """Decode the peak of the foreground map into a frame-coordinate box.

    Argmax is row-major (first cell wins ties); the four regression values
    at that cell are left/top/right/bottom distances in half-crop units
    (0.5 spans a quarter crop each way).  The result is clamped to the
    frame with at least 1 px extent, also when the distances are zero.

    A foreground map with any non-finite value, or non-finite regression
    values at the peak, decode to nothing: the result is then `previous`,
    and without one this raises ValueError.  A foreground map that is not
    [hs, ws] or [1, hs, ws], or a regression map that is not [4, hs, ws] for
    it, raises ShapeError, whatever the values.
    """
    cls = np.asarray(cls_map.data if hasattr(cls_map, "data") else cls_map)
    reg = np.asarray(reg_map.data if hasattr(reg_map, "data") else reg_map)
    if cls.ndim == 3 and cls.shape[0] == 1:
        cls = cls[0]
    if cls.ndim != 2:
        raise ShapeError(f"foreground map {cls.shape} is not [hs, ws] or [1, hs, ws]")
    hs, ws = cls.shape
    if reg.shape != (4, hs, ws):
        raise ShapeError(f"regression map {reg.shape} does not match foreground map {cls.shape}")
    flat_idx = int(np.argmax(cls))
    i, j = divmod(flat_idx, ws)
    dists = reg[:, i, j]
    if not (np.isfinite(cls).all() and np.isfinite(dists).all()):
        if previous is None:
            raise ValueError("non-finite network output")
        return previous
    cx = (j + 0.5) / ws * meta.out_size
    cy = (i + 0.5) / hs * meta.out_size
    left, top, right, bottom = (float(v) * meta.out_size / 2.0 for v in dists)
    x1, y1, x2, y2 = meta.to_frame(cx - left, cy - top, cx + right, cy + bottom)
    x1 = float(np.clip(x1, 0.0, meta.frame_w - 1.0))
    y1 = float(np.clip(y1, 0.0, meta.frame_h - 1.0))
    x2 = float(np.clip(x2, x1 + 1.0, meta.frame_w))
    y2 = float(np.clip(y2, y1 + 1.0, meta.frame_h))
    return Box(x1, y1, x2, y2)


def run_tracker(model, seq: Sequence) -> list[Box]:
    """Track a sequence: fixed template from frame 0, search re-centered on
    the previous prediction.  Returns one box per frame (frame 0 echoes the
    given box).  A frame whose network output is not finite keeps the
    previous box.

    The template runs alone up to its first CA block once per sequence
    (`md.template_prefix`), and every frame's `md.forward` resumes it from
    there; the outputs are the same as passing the template image to every
    `md.forward`."""
    cfg = model.config
    template, _ = crop_region(seq.frames[0], seq.gt[0], 2.0, cfg.template_size)
    boxes = [seq.gt[0]]
    with no_grad():
        prefix = md.template_prefix(model, template)
        for frame in seq.frames[1:]:
            search, meta = crop_region(frame, boxes[-1], 4.0, cfg.search_size)
            cls, reg = md.forward(model, prefix, search)
            boxes.append(predict_box(cls, reg, meta, previous=boxes[-1]))
    return boxes


@dataclass(frozen=True)
class Metrics:
    """Average overlap plus success rates at 0.5 and 0.75 IoU."""

    ao: float
    sr50: float
    sr75: float


def compute_metrics(pred: list[Box], gt: list[Box]) -> Metrics:
    if len(pred) != len(gt) or not pred:
        raise ValueError(f"need equal non-empty box lists, got {len(pred)} vs {len(gt)}")
    overlaps = np.array([iou(p, g) for p, g in zip(pred, gt)], dtype=np.float64)
    return Metrics(ao=float(overlaps.mean()),
                   sr50=float((overlaps >= 0.5).mean()),
                   sr75=float((overlaps >= 0.75).mean()))


def evaluate_sequences(model, sequences: list[Sequence]) -> list[Metrics]:
    """Per-sequence metrics over tracked frames (frame 0 is given, not scored)."""
    out = []
    for seq in sequences:
        boxes = run_tracker(model, seq)
        out.append(compute_metrics(boxes[1:], seq.gt[1:]))
    return out
