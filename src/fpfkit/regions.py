"""Axis-aligned boxes and box-union regions over a design space.

Cells produced by partitioning are half-open, [lo, hi) on every axis, except
that a face lying on the enclosing space's upper boundary is closed so the
boxes of a partition tile the space exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with strictly positive extent on every axis."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have the same length")
        for a, b in zip(self.lo, self.hi):
            if not a < b:
                raise ValueError(f"degenerate box: lo={self.lo}, hi={self.hi}")

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        v = 1.0
        for a, b in zip(self.lo, self.hi):
            v *= b - a
        return v

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (np.asarray(self.lo) + np.asarray(self.hi))

    def intersect(self, other: "Box") -> "Box | None":
        """Intersection box, or None when the overlap has zero volume."""
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(a >= b for a, b in zip(lo, hi)):
            return None
        return Box(lo, hi)


@dataclass(frozen=True)
class RegionIndicator:
    """Union of disjoint axis-aligned boxes inside a design space.

    ``space_upper`` carries the design space's upper bounds so that membership
    uses the same boundary closure convention as partition cells.
    """

    boxes: tuple[Box, ...]
    space_upper: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.boxes:
            raise ValueError("region needs at least one box")
        ndim = self.boxes[0].ndim
        if any(b.ndim != ndim for b in self.boxes):
            raise ValueError("all region boxes must share a dimension")
        if len(self.space_upper) != ndim:
            raise ValueError("space_upper dimension mismatch")

    @property
    def ndim(self) -> int:
        return self.boxes[0].ndim

    @property
    def volume(self) -> float:
        return sum(b.volume for b in self.boxes)

    @cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Box corners (n_boxes, ndim) as strict upper limits: a face on the
        space's upper bound moves up one ulp, so ``x < limit`` there means
        ``x <= hi``."""
        lo = np.array([b.lo for b in self.boxes])
        hi = np.array([b.hi for b in self.boxes])
        closed = hi == np.asarray(self.space_upper)
        return lo, np.where(closed, np.nextafter(hi, np.inf), hi)

    def contains(self, phi: np.ndarray):
        """Membership of one point (bool) or of each row of an (n, ndim)
        array (bool array). Boxes are half-open, closed on the space's upper
        face."""
        lo, limit = self._bounds
        x = np.asarray(phi, dtype=float)[..., None, :]
        found = ((lo <= x) & (x < limit)).all(axis=-1).any(axis=-1)
        return bool(found) if found.ndim == 0 else found

    def bounding_box(self) -> Box:
        lo = tuple(min(b.lo[d] for b in self.boxes) for d in range(self.ndim))
        hi = tuple(max(b.hi[d] for b in self.boxes) for d in range(self.ndim))
        return Box(lo, hi)

    def intersect_box(self, box: Box) -> tuple[Box, ...]:
        """Pieces of ``box`` overlapping the region (disjoint by construction)."""
        pieces = []
        for b in self.boxes:
            cut = b.intersect(box)
            if cut is not None:
                pieces.append(cut)
        return tuple(pieces)
