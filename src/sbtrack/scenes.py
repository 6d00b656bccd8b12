"""Synthetic tracking sequences: textured shapes moving over textured clutter.

One target per sequence plus k distractors.  "easy" distractors differ from
the target in shape; "hard" ones share the shape and differ only in texture,
so a tracker has to match appearance against the template rather than find
"the blob".  Everything is deterministic given (config, seed).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

import numpy as np

from .boxes import Box

__all__ = [
    "SceneConfig",
    "Sequence",
    "generate_sequence",
    "make_suite",
    "TrackingSuite",
    "write_ppm",
    "read_ppm",
    "write_pgm",
    "write_sequence",
    "read_sequence",
]

_SHAPES = ("rectangle", "ellipse", "triangle")
_MARGIN = 4  # px between an actor's box and the frame edge


@dataclass(frozen=True)
class SceneConfig:
    frame_size: int = 128
    length: int = 30
    target_size: tuple[int, int] = (18, 30)  # min/max box side in px
    distractors: int = 1
    similarity: str = "hard"  # easy: different shape | hard: same shape, new texture
    speed: tuple[float, float] = (0.5, 2.0)  # per-frame drift, px
    motion_sigma: float = 1.0  # per-frame jitter, px
    occlusion: bool = False  # allow distractors to cross the target

    def __post_init__(self):
        if self.distractors < 0:
            raise ValueError("distractor count must be >= 0")
        if self.similarity not in ("easy", "hard"):
            raise ValueError(f"similarity must be easy/hard, got {self.similarity!r}")
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        if not 1 <= self.target_size[0] <= self.target_size[1]:
            raise ValueError(f"target_size needs 1 <= min <= max, got {self.target_size}")
        if self.frame_size < self.target_size[1] + 2 * _MARGIN:
            raise ValueError(f"frame_size {self.frame_size} < max target side + 2 * {_MARGIN} px margin")
        if not 0 <= self.speed[0] <= self.speed[1]:
            raise ValueError(f"speed needs 0 <= min <= max, got {self.speed}")
        if self.motion_sigma < 0:
            raise ValueError(f"motion_sigma must be >= 0, got {self.motion_sigma}")


@dataclass
class Sequence:
    frames: list[np.ndarray]  # [3, H, W] float32 in [0, 1]
    gt: list[Box]
    distractors: list[list[Box]]
    seed: int = 0

    def __post_init__(self):
        if not (len(self.frames) == len(self.gt) == len(self.distractors)):
            raise ValueError("frames, gt and distractor lists must align")


def _texture(rng, h, w):
    """Random stripe/checker texture on a local grid, values in [0, 1]."""
    kind = rng.choice(["stripes", "checker", "spots"])
    base = rng.uniform(0.15, 0.85, size=3)
    other = np.clip(base + rng.choice([-1, 1]) * rng.uniform(0.35, 0.6, size=3), 0, 1)
    yy, xx = np.mgrid[0:h, 0:w]
    if kind == "stripes":
        angle = rng.uniform(0, np.pi)
        period = rng.uniform(3.0, 7.0)
        phase = (np.cos(angle) * xx + np.sin(angle) * yy) / period
        mask = (np.floor(phase) % 2).astype(bool)
    elif kind == "checker":
        cell = rng.integers(2, 5)
        mask = (((xx // cell) + (yy // cell)) % 2).astype(bool)
    else:
        period = rng.integers(4, 7)
        mask = ((xx % period < 2) & (yy % period < 2))
    tex = np.where(mask[None], other[:, None, None], base[:, None, None])
    return tex.astype(np.float32)


def _shape_mask(kind, h, w):
    yy, xx = np.mgrid[0:h, 0:w]
    if kind == "rectangle":
        return np.ones((h, w), dtype=bool)
    if kind == "ellipse":
        cy, cx = (h - 1) / 2, (w - 1) / 2
        return ((yy - cy) / (h / 2)) ** 2 + ((xx - cx) / (w / 2)) ** 2 <= 1.0
    if kind == "triangle":
        # apex centered on the top edge, base along the bottom
        rel = np.abs(xx - (w - 1) / 2) / (w / 2)
        return rel <= (yy + 1) / h
    raise ValueError(f"unknown shape {kind!r}")


def _background(rng, size):
    coarse = rng.uniform(0.2, 0.8, size=(3, 5, 5)).astype(np.float32)
    idx = np.linspace(0, 4, size)
    i0 = np.clip(idx.astype(int), 0, 3)
    frac = (idx - i0).astype(np.float32)
    rows = coarse[:, i0, :] * (1 - frac[None, :, None]) + coarse[:, i0 + 1, :] * frac[None, :, None]
    cols = rows[:, :, i0] * (1 - frac[None, None, :]) + rows[:, :, i0 + 1] * frac[None, None, :]
    noise = rng.normal(0, 0.02, size=(3, size, size)).astype(np.float32)
    return np.clip(cols + noise, 0, 1)


@dataclass
class _Actor:
    shape: str
    texture: np.ndarray  # [3, h, w]
    mask: np.ndarray  # [h, w]
    pos: np.ndarray  # center, float (x, y)
    vel: np.ndarray

    @property
    def size(self) -> tuple[int, int]:
        return self.mask.shape

    def box(self) -> Box:
        h, w = self.mask.shape
        return Box(self.pos[0] - w / 2, self.pos[1] - h / 2,
                   self.pos[0] + w / 2, self.pos[1] + h / 2)


def _spawn(rng, cfg, shape):
    h = int(rng.integers(cfg.target_size[0], cfg.target_size[1] + 1))
    w = int(rng.integers(cfg.target_size[0], cfg.target_size[1] + 1))
    lo_x, hi_x = _MARGIN + w / 2, cfg.frame_size - _MARGIN - w / 2
    lo_y, hi_y = _MARGIN + h / 2, cfg.frame_size - _MARGIN - h / 2
    pos = np.array([rng.uniform(lo_x, hi_x), rng.uniform(lo_y, hi_y)])
    speed = rng.uniform(*cfg.speed)
    angle = rng.uniform(0, 2 * np.pi)
    vel = speed * np.array([np.cos(angle), np.sin(angle)])
    return _Actor(shape=shape, texture=_texture(rng, h, w), mask=_shape_mask(shape, h, w),
                  pos=pos, vel=vel)


def _advance(actor, rng, cfg):
    actor.pos = actor.pos + actor.vel + rng.normal(0, cfg.motion_sigma, size=2)
    h, w = actor.size
    lo = np.array([_MARGIN + w / 2, _MARGIN + h / 2])
    hi = np.array([cfg.frame_size - _MARGIN - w / 2, cfg.frame_size - _MARGIN - h / 2])
    for ax in (0, 1):
        if actor.pos[ax] < lo[ax]:
            actor.pos[ax] = lo[ax] + (lo[ax] - actor.pos[ax])
            actor.vel[ax] = -actor.vel[ax]
        if actor.pos[ax] > hi[ax]:
            actor.pos[ax] = hi[ax] - (actor.pos[ax] - hi[ax])
            actor.vel[ax] = -actor.vel[ax]
        actor.pos[ax] = float(np.clip(actor.pos[ax], lo[ax], hi[ax]))


def _paint(frame, actor):
    h, w = actor.size
    x0 = int(round(actor.pos[0] - w / 2))
    y0 = int(round(actor.pos[1] - h / 2))
    size = frame.shape[1]
    xs0, ys0 = max(x0, 0), max(y0, 0)
    xs1, ys1 = min(x0 + w, size), min(y0 + h, size)
    if xs1 <= xs0 or ys1 <= ys0:
        return
    sub = actor.mask[ys0 - y0 : ys1 - y0, xs0 - x0 : xs1 - x0]
    tex = actor.texture[:, ys0 - y0 : ys1 - y0, xs0 - x0 : xs1 - x0]
    region = frame[:, ys0:ys1, xs0:xs1]
    frame[:, ys0:ys1, xs0:xs1] = np.where(sub[None], tex, region)


def _push_apart(actor, target, min_gap=2.0):
    """Move a distractor off the target when occlusion is disabled: along the
    axis of least overlap, to `min_gap` past the target's edge on the side of
    the distractor's centre.  The push may leave it partly outside the frame."""
    tb, db = target.box(), actor.box()
    overlap_x = min(tb.x2, db.x2) - max(tb.x1, db.x1) + min_gap
    overlap_y = min(tb.y2, db.y2) - max(tb.y1, db.y1) + min_gap
    if overlap_x <= 0 or overlap_y <= 0:
        return
    if overlap_x < overlap_y:
        actor.pos[0] += tb.x2 - db.x1 + min_gap if db.cx >= tb.cx else -(db.x2 - tb.x1 + min_gap)
    else:
        actor.pos[1] += tb.y2 - db.y1 + min_gap if db.cy >= tb.cy else -(db.y2 - tb.y1 + min_gap)


def generate_sequence(cfg: SceneConfig, seed: int) -> Sequence:
    rng = np.random.default_rng(seed)
    background = _background(rng, cfg.frame_size)
    target = _spawn(rng, cfg, shape=str(rng.choice(_SHAPES)))
    distractors = []
    for _ in range(cfg.distractors):
        if cfg.similarity == "hard":
            shape = target.shape
        else:
            shape = str(rng.choice([s for s in _SHAPES if s != target.shape]))
        distractors.append(_spawn(rng, cfg, shape=shape))

    frames, gt, dist_boxes = [], [], []
    for t in range(cfg.length):
        if t > 0:
            _advance(target, rng, cfg)
            for d in distractors:
                _advance(d, rng, cfg)
        if not cfg.occlusion:
            for d in distractors:
                _push_apart(d, target)
        frame = background.copy()
        for d in distractors:
            _paint(frame, d)
        _paint(frame, target)
        frames.append(frame)
        gt.append(target.box())
        dist_boxes.append([d.box() for d in distractors])
    return Sequence(frames=frames, gt=gt, distractors=dist_boxes, seed=seed)


@dataclass
class TrackingSuite:
    """A train/eval split of generated sequences."""

    train: list[Sequence] = field(default_factory=list)
    eval: list[Sequence] = field(default_factory=list)
    config: SceneConfig = field(default_factory=SceneConfig)


_EVAL_OFFSET = 10_000


def make_suite(cfg: SceneConfig, n_train: int, n_eval: int, seed: int = 0) -> TrackingSuite:
    """Train sequence i has seed `seed + i`, eval sequence i `seed + 10000 + i`."""
    if n_train > _EVAL_OFFSET:
        raise ValueError(f"n_train {n_train} > {_EVAL_OFFSET} would share seeds with the eval split")
    train = [generate_sequence(cfg, seed + i) for i in range(n_train)]
    eval_ = [generate_sequence(cfg, seed + _EVAL_OFFSET + i) for i in range(n_eval)]
    return TrackingSuite(train=train, eval=eval_, config=cfg)


# -- disk formats ---------------------------------------------------------------


def write_ppm(img: np.ndarray, path) -> None:
    """Binary P6, one byte per channel; img [3, H, W] in [0, 1]."""
    arr = np.clip(np.asarray(img) * 255.0 + 0.5, 0, 255).astype(np.uint8)
    c, h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.transpose(1, 2, 0).tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    m = re.match(rb"P6\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if not m:
        raise ValueError(f"{path}: not a binary PPM")
    w, h, maxval = (int(g) for g in m.groups())
    if not 1 <= maxval <= 255:
        raise ValueError(f"{path}: maxval {maxval} outside 1..255 (one byte per sample)")
    if len(data) - m.end() < w * h * 3:
        raise ValueError(f"{path}: {len(data) - m.end()} bytes of pixel data, {w}x{h} needs {w * h * 3}")
    pixels = np.frombuffer(data[m.end() :], dtype=np.uint8, count=w * h * 3)
    return (pixels.reshape(h, w, 3).transpose(2, 0, 1) / float(maxval)).astype(np.float32)


def write_pgm(img: np.ndarray, path) -> None:
    """Binary P5 grayscale; img [H, W], rescaled to full range."""
    arr = np.asarray(img, dtype=np.float64)
    span = arr.max() - arr.min()
    if span > 0:
        arr = (arr - arr.min()) / span
    out = np.clip(arr * 255.0 + 0.5, 0, 255).astype(np.uint8)
    h, w = out.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(out.tobytes())


def write_sequence(seq: Sequence, directory) -> None:
    """Numbered PPM frames plus groundtruth.txt with x,y,w,h per line."""
    os.makedirs(directory, exist_ok=True)
    for i, frame in enumerate(seq.frames):
        write_ppm(frame, os.path.join(directory, f"{i:06d}.ppm"))
    with open(os.path.join(directory, "groundtruth.txt"), "w", encoding="ascii") as fh:
        for b in seq.gt:
            x, y, w, h = b.to_xywh()
            fh.write(f"{x:.2f},{y:.2f},{w:.2f},{h:.2f}\n")
    if any(seq.distractors):
        with open(os.path.join(directory, "distractors.txt"), "w", encoding="ascii") as fh:
            for boxes in seq.distractors:
                cells = []
                for b in boxes:
                    x, y, w, h = b.to_xywh()
                    cells.append(f"{x:.2f},{y:.2f},{w:.2f},{h:.2f}")
                fh.write(";".join(cells) + "\n")


def _read_box(cell: str, where: str) -> Box:
    """One "x,y,w,h" cell of a box file; `where` ("file:line") heads any error."""
    try:
        vals = [float(v) for v in cell.split(",")]
        if len(vals) != 4 or not np.isfinite(vals).all():
            raise ValueError(f"expected 4 finite numbers, got {len(vals)} values")
        return Box.from_xywh(*vals)
    except ValueError as exc:
        raise ValueError(f"{where}: bad box {cell!r}: {exc}") from None


def read_sequence(directory) -> Sequence:
    """Read what `write_sequence` writes.  Frames of differing sizes and box
    lines with the wrong count, a non-number or a degenerate box raise
    `ValueError` naming the file (and the line)."""
    names = sorted(n for n in os.listdir(directory) if n.endswith(".ppm"))
    if not names:
        raise ValueError(f"{directory}: no PPM frames found")
    frames = [read_ppm(os.path.join(directory, n)) for n in names]
    for n, f in zip(names, frames):
        if f.shape != frames[0].shape:
            raise ValueError(f"{os.path.join(directory, n)}: frame is {f.shape[2]}x{f.shape[1]}, "
                             f"but {names[0]} is {frames[0].shape[2]}x{frames[0].shape[1]}")
    gt = []
    gt_path = os.path.join(directory, "groundtruth.txt")
    with open(gt_path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                gt.append(_read_box(line.strip(), f"{gt_path}:{lineno}"))
    if len(gt) != len(frames):
        raise ValueError(f"{directory}: {len(frames)} frames but {len(gt)} boxes")
    dist_path = os.path.join(directory, "distractors.txt")
    distractors: list[list[Box]] = [[] for _ in frames]
    if os.path.exists(dist_path):
        with open(dist_path, "r", encoding="ascii") as fh:
            for i, line in enumerate(fh):
                if i >= len(frames):
                    break
                cells = [c for c in line.strip().split(";") if c]
                distractors[i] = [_read_box(c, f"{dist_path}:{i + 1}") for c in cells]
    return Sequence(frames=frames, gt=gt, distractors=distractors)
