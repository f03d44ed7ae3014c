"""Smooth FPF surfaces: kernel ridge regression on the log of the composite
density at partition cell centers, with analytic gradients.

The composite density is piecewise constant. Support points are the centers
of the high-density cells split off at each level (and of the final low
region's covering cells), valued by the composite density there. A squared
exponential kernel fit to the log values gives a smooth positive surface
whose exponential is rescaled to the FPF.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import DesignSpace
from .pipeline import RegionChainResult, compose_density
from .regions import box_volumes


@dataclass(frozen=True)
class SupportPoints:
    """Cell-center samples of the composite log-density, one row per cell.

    ``x`` (n, d) holds the centers; ``log_density``, ``level`` and ``weight``
    (n,) their values, levels and weights. A weight is the cell's share of
    the conditional failure mass (level weight times cell mass); cells
    holding more samples carry more reliable values.
    """

    x: np.ndarray
    log_density: np.ndarray
    level: np.ndarray
    weight: np.ndarray

    def __len__(self) -> int:
        return len(self.weight)


def extract_support_points(chain: RegionChainResult) -> SupportPoints:
    """Support points from every level's high cells plus the final low cells.

    One point per cell, placed at the center of its largest rectangular piece
    and valued by the composite density there (always positive thanks to the
    additive mass prior). One point per cell, not per piece: pieces of a cell
    share its density, and duplicated values next to each other would let
    cross-validation of the surface fit leak.
    """
    centers, levels, weights = [], [], []
    for level in chain.levels:
        # each cell's first largest piece: pieces by cell, then by descending volume
        order = np.lexsort((-box_volumes(level.pieces), level.piece_cell))
        first = order[np.searchsorted(level.piece_cell, np.arange(level.masses.size))]
        keep = ~level.low_mask | (level is chain.levels[-1])
        centers.append(0.5 * (level.pieces[first, 0] + level.pieces[first, 1])[keep])
        levels.append(np.full(np.count_nonzero(keep), level.index))
        weights.append(level.weight * level.masses[keep])
    x = np.concatenate(centers)
    values = compose_density(chain, x)
    if np.any(values <= 0.0):
        raise AssertionError(
            f"composite density non-positive at cell center {x[np.argmax(values <= 0.0)]}"
        )
    # math.log per value: np.log differs from it in the last bit for some
    log_density = np.fromiter(map(math.log, values.tolist()), float, len(values))
    return SupportPoints(x, log_density, np.concatenate(levels), np.concatenate(weights))


def _kernel(diff: np.ndarray, scales: np.ndarray, signal: float) -> np.ndarray:
    """Squared exponential kernel over the last axis of point differences:
    signal * exp(-0.5 sum_d (diff_d / l_d)^2)."""
    r = diff / scales
    return signal * np.exp(-0.5 * (r * r).sum(axis=-1))


@dataclass(frozen=True)
class RegressionSurface:
    """Fitted kernel ridge surface over log-density values.

    predict(phi) = y_mean + sum_i coef_i * k(phi, x_i) with the squared
    exponential kernel k(a, b) = signal_var * exp(-0.5 sum_d ((a_d-b_d)/l_d)^2).
    ``predict`` and ``gradient`` take rows ``(n, d)``.
    """

    x: np.ndarray
    coef: np.ndarray
    length_scales: np.ndarray
    signal_var: float
    noise_floor: float
    y_mean: float

    def predict(self, phi: np.ndarray) -> np.ndarray:
        """Surface values ``(n,)`` at rows ``(n, d)``."""
        phi = np.asarray(phi, dtype=float)
        k = _kernel(self.x - phi[:, None, :], self.length_scales, self.signal_var)
        # a (1, n) @ (n,) product per row is one dot product, the same sum a
        # lone point's ``k @ coef`` takes; an (m, n) @ (n,) product is not
        return self.y_mean + (k[:, None, :] @ self.coef)[:, 0]

    def gradient(self, phi: np.ndarray) -> np.ndarray:
        """Analytic gradient ``(n, d)`` of predict at rows ``(n, d)``."""
        phi = np.asarray(phi, dtype=float)
        diff = self.x - phi[:, None, :]
        k = _kernel(diff, self.length_scales, self.signal_var)
        weighted = (diff / self.length_scales**2).swapaxes(-1, -2)
        return np.matmul(weighted, (k * self.coef)[..., None])[..., 0]


def _eig(k: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """The eigendecomposition K = Q diag(w) Q^T of a kernel matrix as
    ``(w, Q, Q * Q, Q^T y)``; one serves the ridge solve of every noise."""
    w, q = np.linalg.eigh(k)
    return w, q, q * q, q.T @ y


def _ridge(eig: tuple[np.ndarray, ...], lam: float):
    """Coefficients (K + lam I)^-1 y and the diagonal of (K + lam I)^-1 from
    ``_eig(K, y)``; None when K + lam I is not numerically positive definite."""
    w, q, q2, qty = eig
    shifted = w + lam
    if shifted[0] <= shifted[-1] * w.size * np.finfo(float).eps:
        return None
    return q @ (qty / shifted), q2 @ (1.0 / shifted)


def _loo_sse(eig: tuple[np.ndarray, ...], lam: float, weights: np.ndarray) -> float:
    """Leave-one-out squared error of kernel ridge via the closed form, each
    point's squared residual scaled by its weight."""
    solved = _ridge(eig, lam)
    if solved is None:
        return math.inf
    coef, diag = solved
    return float(np.sum(weights * (coef / diag) ** 2))


_MULT_GRID = np.logspace(-1.0, 1.0, 13)
_NOISE_FRACTIONS = (1e-2, 3e-2, 1e-1, 3e-1)
# the smallest ridge noise a fit takes
NOISE_FLOOR = 1e-4


def fit_surface(points: SupportPoints) -> RegressionSurface:
    """Fit the log-density surface.

    Per-dimension multipliers of the support spread and the ridge noise are
    chosen by minimizing the mass-weighted leave-one-out squared error: a
    shared-multiplier grid scan followed by one coordinate-descent sweep over
    the dimensions. Weighting by cell mass keeps the sparsely populated
    deep-tail cells from driving the fit toward oversmoothing. Fewer than
    three support points take the spread itself and ``NOISE_FLOOR``.
    Duplicate locations with conflicting values are a fit error.
    """
    if not points:
        raise ValueError("cannot fit a surface to zero support points")
    x, y, w = points.x, points.log_density, points.weight

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

    r = x[:, None, :] - x[None, :, :]
    noise = NOISE_FLOOR
    scales = base
    eig = None  # the chosen kernel's decomposition, once the search has made it
    if n >= 3:
        noise_grid = [max(NOISE_FLOOR, f * signal) for f in _NOISE_FRACTIONS]
        # the sweep meets vectors the scan or an earlier axis scored, and a
        # repeat never scores strictly lower, so each is scored once and a new
        # best is always the vector ``score`` decomposed last
        last = None

        @functools.cache
        def score(mults: tuple) -> tuple[float, float]:
            nonlocal last
            last = _eig(_kernel(r, base * np.array(mults), signal), yc)
            best = (math.inf, noise_grid[0])
            for lam in noise_grid:
                sse = _loo_sse(last, lam, w)
                if sse < best[0]:
                    best = (sse, lam)
            return best

        best_sse = math.inf
        mults = (1.0,) * d
        for m in _MULT_GRID:
            sse, lam = score((m,) * d)
            if sse < best_sse:
                best_sse, mults, noise, eig = sse, (m,) * d, lam, last
        for axis in range(d):
            for m in _MULT_GRID:
                cand = mults[:axis] + (m,) + mults[axis + 1:]
                sse, lam = score(cand)
                if sse < best_sse:
                    best_sse, mults, noise, eig = sse, cand, lam, last
        scales = base * np.array(mults)

    if eig is None:
        eig = _eig(_kernel(r, scales, signal), yc)
    solved = _ridge(eig, noise)
    if solved is None:
        raise np.linalg.LinAlgError("kernel matrix plus ridge is not positive definite")
    coef = solved[0]
    return RegressionSurface(x, coef, scales, signal, noise, y_mean)


@dataclass(frozen=True)
class SmoothedFPF:
    """Scaled smooth FPF ``(n,)`` at rows ``(n, d)``: exp(surface) * P(F) / p(phi)."""

    surface: RegressionSurface
    pf: float
    space: DesignSpace

    @property
    def scale(self) -> float:
        return self.pf * self.space.volume

    def __call__(self, phi: np.ndarray) -> np.ndarray:
        log_value = self.surface.predict(phi)
        # math.exp per value: np.exp differs from it in the last bit for some
        return np.fromiter(map(math.exp, log_value), float, len(log_value)) * self.scale

    def gradient(self, phi: np.ndarray) -> np.ndarray:
        """Gradient ``(n, d)`` of the scaled smooth FPF at rows ``(n, d)``.

        Any row outside the design box raises; on the boundary the value is
        an analytic one-sided extrapolation, flagged by one warning per call.
        """
        phi = np.asarray(phi, dtype=float)
        outside = phi[~self.space.contains(phi)]
        if len(outside):
            raise ValueError(f"design point {outside[0]} outside the design space")
        if np.any(phi == self.space.lower) or np.any(phi == self.space.upper):
            warnings.warn(
                "gradient requested on the design boundary; value is one-sided",
                stacklevel=2,
            )
        return self(phi)[:, None] * self.surface.gradient(phi)
