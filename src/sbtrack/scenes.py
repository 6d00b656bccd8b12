"""Synthetic tracking sequences: textured shapes moving over textured clutter.

One target per sequence plus k distractors.  "easy" distractors differ from
the target in shape; "hard" ones share the shape and differ only in texture,
so a tracker has to match appearance against the template rather than find
"the blob".  Distractors never cover the target: each frame pushes any
distractor that comes near the target clear of it.

Everything is deterministic given (config, seed): `generate_sequence`
rebuilds every frame and box bit for bit, so a `(SceneConfig, seed)` pair is
the stored form of a sequence, and there is no sequence disk format.  A
generated sequence keeps its background, each actor's mask and texture (all
read-only) and the boxes; a frame is painted from them each time it is read.
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass

import numpy as np

from .boxes import Box, _check_ints, _real
from .engine import ShapeError

__all__ = [
    "SceneConfig",
    "Sequence",
    "generate_sequence",
    "make_suite",
    "TrackingSuite",
    "write_pgm",
]

_SHAPES = ("rectangle", "ellipse", "triangle")
_MARGIN = 4  # px between an actor's box and the frame edge
_GAP = 2.0  # px every distractor keeps clear of the target


@dataclass(frozen=True)
class SceneConfig:
    frame_size: int = 128
    length: int = 30
    target_size: tuple[int, int] = (18, 30)  # min/max box side in px
    distractors: int = 1
    similarity: str = "hard"  # easy: different shape | hard: same shape, new texture
    speed: tuple[float, float] = (0.5, 2.0)  # per-frame drift, px
    motion_sigma: float = 1.0  # per-frame jitter, px

    def __post_init__(self):
        for name in ("target_size", "speed"):
            value = getattr(self, name)
            if type(value) is not tuple or len(value) != 2:
                raise ValueError(f"{name} must be a (min, max) tuple, got {value!r}")
        _check_ints(vars(self), ("frame_size", "length", "distractors"), ("target_size",), ValueError)
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
        if not (all(_real(v) and math.isfinite(v) for v in self.speed)
                and 0 <= self.speed[0] <= self.speed[1]):
            raise ValueError(f"speed needs finite reals 0 <= min <= max, got {self.speed!r}")
        if not (_real(self.motion_sigma) and math.isfinite(self.motion_sigma) and self.motion_sigma >= 0):
            raise ValueError(f"motion_sigma must be a finite real >= 0, got {self.motion_sigma!r}")


@dataclass
class Sequence:
    """Frames with their target and distractor boxes.

    `frames` is any sequence of [3, H, W] float32 arrays in [0, 1].  A
    generated sequence renders each frame when it is read (slices too, one
    frame per read), and every read returns a fresh writable array.
    """

    frames: abc.Sequence
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


def _paint(frame, mask, texture, x0, y0):
    """Paint `texture` [3, h, w] where `mask` [h, w] is set, its top-left
    pixel at column x0, row y0 of `frame`; the part outside is cut off."""
    h, w = mask.shape
    size = frame.shape[1]
    xs0, ys0 = max(x0, 0), max(y0, 0)
    xs1, ys1 = min(x0 + w, size), min(y0 + h, size)
    if xs1 <= xs0 or ys1 <= ys0:
        return
    sub = mask[ys0 - y0 : ys1 - y0, xs0 - x0 : xs1 - x0]
    tex = texture[:, ys0 - y0 : ys1 - y0, xs0 - x0 : xs1 - x0]
    region = frame[:, ys0:ys1, xs0:xs1]
    frame[:, ys0:ys1, xs0:xs1] = np.where(sub[None], tex, region)


class _Frames(abc.Sequence):
    """The frames of a generated sequence, painted on each read: a copy of
    the background, then each sprite (mask, texture) at the rounded
    top-left corner of its box in that frame."""

    def __init__(self, background, sprites, boxes):
        self._background = background
        self._sprites = sprites
        self._boxes = boxes  # per frame, one box per sprite

    def __len__(self):
        return len(self._boxes)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return _Frames(self._background, self._sprites, self._boxes[t])
        boxes = self._boxes[t]
        frame = self._background.copy()
        for (mask, texture), box in zip(self._sprites, boxes):
            _paint(frame, mask, texture, int(round(box.x1)), int(round(box.y1)))
        return frame


def _push_apart(actor, target):
    """Move a distractor that comes within `_GAP` px of the target off
    it: along the axis of least overlap, to `_GAP` past the target's edge
    on the side of the distractor's centre.  The push may leave it partly
    outside the frame."""
    tb, db = target.box(), actor.box()
    overlap_x = min(tb.x2, db.x2) - max(tb.x1, db.x1) + _GAP
    overlap_y = min(tb.y2, db.y2) - max(tb.y1, db.y1) + _GAP
    if overlap_x <= 0 or overlap_y <= 0:
        return
    if overlap_x < overlap_y:
        actor.pos[0] += tb.x2 - db.x1 + _GAP if db.cx >= tb.cx else -(db.x2 - tb.x1 + _GAP)
    else:
        actor.pos[1] += tb.y2 - db.y1 + _GAP if db.cy >= tb.cy else -(db.y2 - tb.y1 + _GAP)


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

    gt, dist_boxes = [], []
    for t in range(cfg.length):
        if t > 0:
            _advance(target, rng, cfg)
            for d in distractors:
                _advance(d, rng, cfg)
        for d in distractors:
            _push_apart(d, target)
        gt.append(target.box())
        dist_boxes.append([d.box() for d in distractors])
    sprites = [(a.mask, a.texture) for a in (*distractors, target)]
    for array in (background, *(x for sprite in sprites for x in sprite)):
        array.flags.writeable = False
    frames = _Frames(background, sprites, [[*ds, b] for ds, b in zip(dist_boxes, gt)])
    return Sequence(frames=frames, gt=gt, distractors=dist_boxes, seed=seed)


@dataclass
class TrackingSuite:
    """A train/eval split of generated sequences."""

    train: list[Sequence]
    eval: list[Sequence]


_EVAL_OFFSET = 10_000


def make_suite(cfg: SceneConfig, n_train: int, n_eval: int, seed: int) -> TrackingSuite:
    """Train sequence i has seed `seed + i`, eval sequence i `seed + 10000 + i`."""
    counts = {"n_train": n_train, "n_eval": n_eval, "seed": seed}
    _check_ints(counts, tuple(counts), (), ValueError)
    for name, n in counts.items():
        if n < 0:
            raise ValueError(f"{name} must be >= 0, got {n}")
    if n_train > _EVAL_OFFSET:
        raise ValueError(f"n_train {n_train} > {_EVAL_OFFSET} would share seeds with the eval split")
    train = [generate_sequence(cfg, seed + i) for i in range(n_train)]
    eval_ = [generate_sequence(cfg, seed + _EVAL_OFFSET + i) for i in range(n_eval)]
    return TrackingSuite(train=train, eval=eval_)


def write_pgm(img: np.ndarray, path) -> None:
    """Binary P5 grayscale; img [H, W], its finite pixels rescaled to full
    range.  Non-finite pixels (NaN, +-inf) are written as 0."""
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"write_pgm needs a 2-d image, got shape {arr.shape}")
    finite = np.isfinite(arr)
    arr = np.where(finite, arr, 0.0)
    lo, hi = (arr[finite].min(), arr[finite].max()) if finite.any() else (0.0, 0.0)
    if hi > lo:
        arr = (arr - lo) / (hi - lo)
    out = np.where(finite, np.clip(arr * 255.0 + 0.5, 0, 255), 0).astype(np.uint8)
    h, w = out.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(out.tobytes())
