"""Crop geometry, box decoding, the frame-by-frame tracker, and metrics.

Template crops use a context factor of 2, search crops a factor of 4: the
crop is a square of side factor * sqrt(w*h) centered on the reference box,
bilinearly resized to the network input size.  The tracker keeps the first
frame's template fixed and re-centers the search crop on the previous
prediction each frame, with no windowing or penalty on the score map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as md
from .boxes import Box, iou
from .engine import no_grad
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

    def to_frame(self, b: Box) -> Box:
        x0 = self.cx - self.side / 2
        y0 = self.cy - self.side / 2
        return Box(b.x1 / self.scale + x0, b.y1 / self.scale + y0,
                   b.x2 / self.scale + x0, b.y2 / self.scale + y0)


def _axis_samples(center: float, side: float, out_size: int) -> np.ndarray:
    # geometric position of each output pixel center, as array coordinates
    return center - side / 2 + (np.arange(out_size) + 0.5) * (side / out_size) - 0.5


def _bilinear(frame: np.ndarray, ys: np.ndarray, xs: np.ndarray, fill: np.ndarray) -> np.ndarray:
    h, w = frame.shape[1:]
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    wy = (ys - y0).astype(frame.dtype)
    wx = (xs - x0).astype(frame.dtype)
    out = np.zeros((frame.shape[0], ys.size, xs.size), dtype=frame.dtype)
    for dy, wys in ((0, 1 - wy), (1, wy)):
        yi = y0 + dy
        vy = (yi >= 0) & (yi < h)
        yc = np.clip(yi, 0, h - 1)
        for dx, wxs in ((0, 1 - wx), (1, wx)):
            xi = x0 + dx
            vx = (xi >= 0) & (xi < w)
            xc = np.clip(xi, 0, w - 1)
            patch = frame[:, yc[:, None], xc[None, :]]
            patch = np.where((vy[:, None] & vx[None, :])[None], patch, fill[:, None, None])
            out += wys[:, None] * wxs[None, :] * patch
    return out


def crop_region(frame: np.ndarray, box: Box, factor: float, out_size: int,
                ) -> tuple[np.ndarray, CropMeta]:
    """Square context crop around `box`, resized to out_size.

    Side is factor * sqrt(w * h); out-of-frame area is filled with the
    per-channel frame mean.  The returned meta inverts the mapping.
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    frame = np.asarray(frame)
    side = factor * float(np.sqrt(box.w * box.h))
    meta = CropMeta(cx=box.cx, cy=box.cy, side=side, out_size=out_size,
                    frame_h=frame.shape[1], frame_w=frame.shape[2])
    fill = frame.mean(axis=(1, 2))
    ys = _axis_samples(box.cy, side, out_size)
    xs = _axis_samples(box.cx, side, out_size)
    return _bilinear(frame, ys, xs, fill), meta


def predict_box(cls_map, reg_map, meta: CropMeta) -> Box:
    """Decode the peak of the foreground map into a frame-coordinate box.

    Argmax is row-major (first cell wins ties); the four regression values
    at that cell are left/top/right/bottom distances in half-crop units
    (0.5 spans a quarter crop each way).  The result is clamped to the
    frame with at least 1 px extent.
    """
    cls = np.asarray(cls_map.data if hasattr(cls_map, "data") else cls_map)
    reg = np.asarray(reg_map.data if hasattr(reg_map, "data") else reg_map)
    if cls.ndim == 3:
        cls = cls[0]
    hs, ws = cls.shape
    flat_idx = int(np.argmax(cls))
    i, j = divmod(flat_idx, ws)
    cx = (j + 0.5) / ws * meta.out_size
    cy = (i + 0.5) / hs * meta.out_size
    left, top, right, bottom = (float(v) * meta.out_size / 2.0 for v in reg[:, i, j])
    crop_box = Box(cx - left, cy - top, cx + right, cy + bottom)
    b = meta.to_frame(crop_box)
    x1 = float(np.clip(b.x1, 0.0, meta.frame_w - 1.0))
    y1 = float(np.clip(b.y1, 0.0, meta.frame_h - 1.0))
    x2 = float(np.clip(b.x2, x1 + 1.0, meta.frame_w))
    y2 = float(np.clip(b.y2, y1 + 1.0, meta.frame_h))
    return Box(x1, y1, x2, y2)


def run_tracker(model, seq: Sequence, collect_maps: bool = False):
    """Track a sequence: fixed template from frame 0, search re-centered on
    the previous prediction.  Returns one box per frame (frame 0 echoes the
    given box); with collect_maps also the per-frame foreground maps."""
    cfg = model.config
    template, _ = crop_region(seq.frames[0], seq.gt[0], 2.0, cfg.template_size)
    boxes = [seq.gt[0]]
    maps = []
    with no_grad():
        for frame in seq.frames[1:]:
            search, meta = crop_region(frame, boxes[-1], 4.0, cfg.search_size)
            cls, reg = md.forward(model, template, search)
            boxes.append(predict_box(cls, reg, meta))
            if collect_maps:
                maps.append(cls.data[0].copy())
    return (boxes, maps) if collect_maps else boxes


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
