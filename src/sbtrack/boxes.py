"""Axis-aligned boxes and overlap measures."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


def _real(v) -> bool:
    """Whether `v` is a real number other than a bool, which `numbers.Real`
    admits: the rule of the package's real-valued settings."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


@dataclass(frozen=True)
class Box:
    """Finite corners in pixels, x1 < x2 and y1 < y2 enforced."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (-math.inf < self.x1 < self.x2 < math.inf and -math.inf < self.y1 < self.y2 < math.inf):
            raise ValueError(f"degenerate box {(self.x1, self.y1, self.x2, self.y2)}")

    @property
    def w(self) -> float:
        return self.x2 - self.x1

    @property
    def h(self) -> float:
        return self.y2 - self.y1

    @property
    def cx(self) -> float:
        return 0.5 * (self.x1 + self.x2)

    @property
    def cy(self) -> float:
        return 0.5 * (self.y1 + self.y2)

    @property
    def area(self) -> float:
        return self.w * self.h

    def shifted(self, dx: float, dy: float) -> "Box":
        return Box(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)


def intersection_area(a: Box, b: Box) -> float:
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0 or ih <= 0:
        return 0.0
    return iw * ih


def iou(a: Box, b: Box) -> float:
    inter = intersection_area(a, b)
    union = a.area + b.area - inter
    return inter / union
