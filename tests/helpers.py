"""Reference helpers that only the tests use."""

from __future__ import annotations

import numpy as np

from fpfkit.model import DesignSpace
from fpfkit.regions import Box


def disjoint_volume_check(boxes: tuple[Box, ...], tol: float = 1e-9) -> bool:
    """True when no pair of boxes overlaps with positive volume."""
    for i, a in enumerate(boxes):
        for b in boxes[i + 1 :]:
            cut = a.intersect(b)
            if cut is not None and cut.volume > tol:
                return False
    return True


def box_contains(box: Box, x: np.ndarray, upper: tuple[float, ...]) -> bool:
    """Per-point membership reference: half-open, closed where a face sits on
    the space's upper bound ``upper``."""
    for d in range(box.ndim):
        if x[d] < box.lo[d] or x[d] > box.hi[d]:
            return False
        if x[d] == box.hi[d] and box.hi[d] != upper[d]:
            return False
    return True


def design_prior_density(space: DesignSpace, phi: np.ndarray) -> float:
    """Uniform artificial prior p(phi): 1/volume inside the box, 0 outside."""
    return 1.0 / space.volume if space.contains(np.asarray(phi, dtype=float)) else 0.0
