"""Smooth FPF surfaces: kernel ridge regression on the log of the composite
density at partition cell centers, with analytic gradients.

The composite density is piecewise constant. Support points are the centers
of the high-density cells split off at each level (and of the final low
region's covering cells), valued by the composite density there. A squared
exponential kernel fit to the log values gives a smooth positive surface
whose exponential is rescaled to the FPF.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .model import DesignSpace
from .pipeline import RegionChainResult, compose_density


@dataclass(frozen=True)
class SupportPoint:
    """Cell-center sample of the composite log-density.

    ``weight`` is the cell's share of the conditional failure mass (level
    weight times cell mass); cells holding more samples carry more reliable
    values.
    """

    location: np.ndarray
    log_density: float
    level: int
    weight: float


def extract_support_points(chain: RegionChainResult) -> tuple[SupportPoint, ...]:
    """Support points from every level's high cells plus the final low cells.

    One point per cell, placed at the center of its largest rectangular piece
    and valued by the composite density there (always positive thanks to the
    additive mass prior). One point per cell, not per piece: pieces of a cell
    share its density, and duplicated values next to each other would let
    cross-validation of the surface fit leak.
    """
    cells = []
    for level in chain.levels:
        last = level.index == chain.levels[-1].index
        for cell, is_low in zip(level.cells, level.low_mask):
            if not is_low or last:
                largest = max(cell.pieces, key=lambda piece: piece.volume)
                cells.append((level, cell, largest.center))
    values = compose_density(chain.levels, np.array([c for _, _, c in cells]))
    if np.any(values <= 0.0):
        center = cells[int(np.argmax(values <= 0.0))][2]
        raise AssertionError(f"composite density non-positive at cell center {center}")
    return tuple(
        SupportPoint(center, math.log(value), level.index, level.weight * cell.mass)
        for (level, cell, center), value in zip(cells, values.tolist())
    )


@dataclass(frozen=True)
class RegressionSurface:
    """Fitted kernel ridge surface over log-density values.

    predict(phi) = y_mean + sum_i coef_i * k(phi, x_i) with the squared
    exponential kernel k(a, b) = signal_var * exp(-0.5 sum_d ((a_d-b_d)/l_d)^2).
    """

    x: np.ndarray
    coef: np.ndarray
    length_scales: np.ndarray
    signal_var: float
    noise_floor: float
    y_mean: float

    def _kvec(self, phi: np.ndarray) -> np.ndarray:
        r = (self.x - phi[None, :]) / self.length_scales[None, :]
        return self.signal_var * np.exp(-0.5 * np.sum(r * r, axis=1))

    def predict(self, phi: np.ndarray) -> float:
        phi = np.asarray(phi, dtype=float)
        return float(self.y_mean + self._kvec(phi) @ self.coef)

    def predict_batch(self, phis: np.ndarray) -> np.ndarray:
        phis = np.asarray(phis, dtype=float)
        return np.array([self.predict(p) for p in phis])

    def gradient(self, phi: np.ndarray) -> np.ndarray:
        """Analytic gradient of predict at phi."""
        phi = np.asarray(phi, dtype=float)
        k = self._kvec(phi)
        return ((self.x - phi[None, :]) / self.length_scales[None, :] ** 2).T @ (
            k * self.coef
        )


def _loo_sse(
    k: np.ndarray, y: np.ndarray, lam: float, weights: np.ndarray | None = None
) -> float:
    """Leave-one-out squared error of kernel ridge via the closed form.

    ``weights`` scale each point's squared residual; unweighted otherwise.
    """
    a = k + lam * np.eye(k.shape[0])
    try:
        c = cho_factor(a)
    except np.linalg.LinAlgError:
        return math.inf
    inv = cho_solve(c, np.eye(k.shape[0]))
    coef = inv @ y
    diag = np.diag(inv)
    if np.any(diag <= 0):
        return math.inf
    sq = (coef / diag) ** 2
    if weights is not None:
        sq = weights * sq
    return float(np.sum(sq))


_MULT_GRID = np.logspace(-1.0, 1.0, 13)
_NOISE_FRACTIONS = (1e-2, 3e-2, 1e-1, 3e-1)


def fit_surface(
    points: tuple[SupportPoint, ...],
    noise_floor: float = 1e-4,
    length_scales: np.ndarray | None = None,
) -> RegressionSurface:
    """Fit the log-density surface.

    With ``length_scales`` unset, per-dimension multipliers of the support
    spread and the ridge noise are chosen by minimizing the mass-weighted
    leave-one-out squared error: a shared-multiplier grid scan followed by one
    coordinate-descent sweep over the dimensions. Weighting by cell mass keeps
    the sparsely populated deep-tail cells from driving the fit toward
    oversmoothing. Duplicate locations with conflicting values are a fit
    error.
    """
    if not points:
        raise ValueError("cannot fit a surface to zero support points")
    if noise_floor <= 0:
        raise ValueError("noise_floor must be positive")
    x = np.array([p.location for p in points], dtype=float)
    y = np.array([p.log_density for p in points], dtype=float)
    w = np.array([p.weight for p in points], dtype=float)

    seen: dict[tuple, float] = {}
    keep: list[int] = []
    for i, loc in enumerate(map(tuple, x)):
        if loc in seen:
            if seen[loc] != y[i]:
                raise ValueError(
                    f"conflicting support values at duplicate location {loc}: "
                    f"{seen[loc]!r} vs {y[i]!r}"
                )
            continue
        seen[loc] = y[i]
        keep.append(i)
    x = x[keep]
    y = y[keep]
    w = w[keep]
    n, d = x.shape
    if np.any(w < 0) or w.sum() <= 0:
        raise ValueError("support weights must be non-negative with positive sum")
    w = w / w.sum()

    y_mean = float(np.mean(y))
    yc = y - y_mean
    signal = float(np.var(yc))
    if signal <= 0:
        signal = 1.0

    base = np.std(x, axis=0)
    spread = np.max(x, axis=0) - np.min(x, axis=0)
    base = np.where(base > 0, base, spread / math.sqrt(12.0))
    base = np.where(base > 0, base, 1.0)

    noise = noise_floor
    if length_scales is None:
        if n < 3:
            scales = base
        else:
            noise_grid = [max(noise_floor, f * signal) for f in _NOISE_FRACTIONS]
            r = x[:, None, :] - x[None, :, :]

            def score(mults: np.ndarray) -> tuple[float, float]:
                k = signal * np.exp(
                    -0.5 * np.sum((r / (base * mults)) ** 2, axis=2)
                )
                best = (math.inf, noise_grid[0])
                for lam in noise_grid:
                    sse = _loo_sse(k, yc, lam, w)
                    if sse < best[0]:
                        best = (sse, lam)
                return best

            best_sse = math.inf
            mults = np.ones(d)
            for m in _MULT_GRID:
                sse, lam = score(np.full(d, m))
                if sse < best_sse:
                    best_sse, mults, noise = sse, np.full(d, m), lam
            for axis in range(d):
                for m in _MULT_GRID:
                    cand = mults.copy()
                    cand[axis] = m
                    sse, lam = score(cand)
                    if sse < best_sse:
                        best_sse, mults, noise = sse, cand, lam
            scales = base * mults
    else:
        scales = np.asarray(length_scales, dtype=float)
        if scales.shape != (d,) or np.any(scales <= 0):
            raise ValueError("length_scales must be positive with one entry per axis")

    r = x[:, None, :] - x[None, :, :]
    k = signal * np.exp(-0.5 * np.sum((r / scales) ** 2, axis=2))
    c = cho_factor(k + noise * np.eye(n))
    coef = cho_solve(c, yc)
    return RegressionSurface(x, coef, scales, signal, noise, y_mean)


@dataclass(frozen=True)
class SmoothedFPF:
    """Scaled smooth FPF: exp(surface) * P(F) / p(phi)."""

    surface: RegressionSurface
    pf: float
    space: DesignSpace

    @property
    def scale(self) -> float:
        return self.pf * self.space.volume

    def __call__(self, phi: np.ndarray):
        phi = np.asarray(phi, dtype=float)
        if phi.ndim == 2:
            return np.array([self(p) for p in phi])
        return math.exp(self.surface.predict(phi)) * self.scale

    def gradient(self, phi: np.ndarray) -> np.ndarray:
        return self(phi) * self.surface.gradient(np.asarray(phi, dtype=float))


def smoothed_fpf(
    chain: RegionChainResult,
    space: DesignSpace,
    noise_floor: float = 1e-4,
    length_scales: np.ndarray | None = None,
) -> SmoothedFPF:
    """Fit the smooth FPF surface for a finished region chain."""
    surface = fit_surface(
        extract_support_points(chain), noise_floor=noise_floor, length_scales=length_scales
    )
    return SmoothedFPF(surface, chain.pf, space)


def fpf_gradient(smoothed: SmoothedFPF, phi: np.ndarray) -> np.ndarray:
    """Gradient of the scaled smooth FPF at phi.

    Outside the design box raises; exactly on the boundary the value is an
    analytic one-sided extrapolation and a warning flags it.
    """
    phi = np.asarray(phi, dtype=float)
    space = smoothed.space
    if not space.contains(phi):
        raise ValueError(f"design point {phi} outside the design space")
    if np.any(phi == space.lower) or np.any(phi == space.upper):
        warnings.warn(
            "gradient requested on the design boundary; value is one-sided",
            stacklevel=2,
        )
    return smoothed.gradient(phi)
