"""Box-union regions over a design space, held as arrays of box corners.

A box array has shape (n_boxes, 2, d): row ``[lo, hi]`` per box. Cells
produced by partitioning are half-open, [lo, hi) on every axis, except that a
face lying on the enclosing space's upper boundary is closed so the boxes of
a partition tile the space exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def box_volumes(boxes: np.ndarray) -> np.ndarray:
    """Volumes of a (..., 2, d) box array, the extents multiplied in axis
    order."""
    return np.prod(boxes[..., 1, :] - boxes[..., 0, :], axis=-1)


@dataclass(frozen=True, eq=False)
class RegionIndicator:
    """Union of disjoint axis-aligned boxes inside a design space.

    ``boxes`` is a read-only (n_boxes, 2, d) array of ``[lo, hi]`` rows with
    lo < hi on every axis. ``space_upper`` carries the design space's upper
    bounds so that membership uses the same boundary closure convention as
    partition cells.
    """

    boxes: np.ndarray
    space_upper: tuple[float, ...]

    def __post_init__(self) -> None:
        boxes = np.array(self.boxes, dtype=float)
        if boxes.ndim != 3 or boxes.shape[1] != 2 or boxes.shape[0] == 0:
            raise ValueError(f"region needs an (n_boxes >= 1, 2, d) array, got {boxes.shape}")
        if not np.all(boxes[:, 0] < boxes[:, 1]):
            raise ValueError("degenerate box: every region box needs lo < hi on every axis")
        if len(self.space_upper) != boxes.shape[2]:
            raise ValueError("space_upper dimension mismatch")
        boxes.flags.writeable = False
        object.__setattr__(self, "boxes", boxes)

    @property
    def ndim(self) -> int:
        return self.boxes.shape[2]

    @cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Box corners (n_boxes, ndim) as strict upper limits: a face on the
        space's upper bound moves up one ulp, so ``x < limit`` there means
        ``x <= hi``."""
        lo, hi = self.boxes[:, 0].copy(), self.boxes[:, 1]
        closed = hi == np.asarray(self.space_upper)
        return lo, np.where(closed, np.nextafter(hi, np.inf), hi)

    def _hits(self, phi: np.ndarray) -> np.ndarray:
        """(n, n_boxes) membership of each row of ``phi`` (n, ndim) in each box."""
        x = np.asarray(phi, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.ndim:
            raise ValueError(f"expected phi of shape (n, {self.ndim}), got {x.shape}")
        lo, limit = self._bounds
        x = x[:, None, :]
        return ((lo <= x) & (x < limit)).all(axis=-1)

    def contains(self, phi: np.ndarray) -> np.ndarray:
        """Membership ``(n,)`` of each row of an (n, ndim) array. Boxes are
        half-open, closed on the space's upper face."""
        return self._hits(phi).any(axis=-1)

    def locate(self, phi: np.ndarray) -> np.ndarray:
        """Index of the box holding each row of an (n, ndim) array, with
        ``contains``'s faces; -1 outside the region."""
        hits = self._hits(phi)
        return np.where(hits.any(axis=-1), hits.argmax(axis=-1), -1)

    def bounding_box(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Corners ``(lo, hi)`` of the smallest box holding the region."""
        lo = self.boxes[:, 0].min(axis=0)
        hi = self.boxes[:, 1].max(axis=0)
        return tuple(lo.tolist()), tuple(hi.tolist())

    def clip(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Clip m boxes with corners ``lo``, ``hi`` (m, d) to the region.

        Returns the index among the m boxes of each piece of overlap and the
        pieces as a (p, 2, d) box array, ordered by box, then by region box.
        An overlap of zero volume (a shared face) is not a piece.
        """
        cut_lo = np.maximum(self.boxes[:, 0], np.asarray(lo, dtype=float)[:, None])
        cut_hi = np.minimum(self.boxes[:, 1], np.asarray(hi, dtype=float)[:, None])
        keep = (cut_lo < cut_hi).all(axis=-1)
        return np.nonzero(keep)[0], np.stack([cut_lo[keep], cut_hi[keep]], axis=1)
