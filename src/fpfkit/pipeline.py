"""Iterative construction of a failure probability function (FPF).

The failure probability as a function of the design point phi follows from
Bayes' rule in the augmented space,

    FPF(phi) = p(phi | F) * P(F) / p(phi),

with p(phi) the uniform artificial prior. A pilot run estimates P(F) and
yields failure samples over the whole design box D_0. Each level k then
density-estimates p(phi | F, D_k) on D_k, splits off the lowest-density cells
whose mass accumulates to a target ratio (default 0.1) into the next region
D_{k+1}, repopulates D_{k+1} with region-conditional chains, and recurses.
Level estimates are glued by the deepest-level rule: at phi, the composite
conditional density is the estimate of the deepest D_k containing phi times
the level weight P(D_k | F) = prod_{j<k} P_j* of realized split ratios. The
recursion stops once the FPF value at the current threshold falls below the
smallest failure probability of interest, or at the iteration cap.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bsp import PiecewiseConstantDensity, bsp_estimate
from .errors import ConvergenceError, DegenerateThresholdError, RegionPopulationError
from .model import DesignSpace, LimitStateModel, RandomVariableSpec, SampleSet
from .regions import RegionIndicator, box_volumes
from .reliability import FailureEstimate, direct_mcs, populate_region, subset_simulation
from .streams import Streams

logger = logging.getLogger(__name__)


def threshold_from_ratio(
    masses: np.ndarray, densities: np.ndarray, ratio: float
) -> tuple[float, float, np.ndarray]:
    """Density threshold splitting off the lowest-density mass ``ratio``.

    Cells are accumulated in ascending density order until the running mass
    first reaches ``ratio``; equal-density ties are grouped so the retained
    set is exactly {cells with density < p*}. Returns (p*, realized ratio,
    low-cell mask) where p* is the density of the first excluded cell.
    """
    masses = np.asarray(masses, dtype=float)
    densities = np.asarray(densities, dtype=float)
    if masses.shape != densities.shape or masses.ndim != 1:
        raise ValueError("masses and densities must be 1-d and aligned")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    if masses.size < 2 or np.all(densities == densities[0]):
        raise DegenerateThresholdError(
            "cannot place a density threshold: fewer than two distinct densities"
        )
    order = np.argsort(densities, kind="stable")
    cum = np.cumsum(masses[order])
    k = int(np.searchsorted(cum, ratio - 1e-15))
    if k >= masses.size:
        k = masses.size - 1
    # group ties so the cut falls between distinct density values
    while k + 1 < masses.size and densities[order[k + 1]] == densities[order[k]]:
        k += 1
    if k + 1 >= masses.size:
        raise DegenerateThresholdError(
            "density threshold would retain every cell (ties up to the maximum)"
        )
    p_star = float(densities[order[k + 1]])
    low = np.zeros(masses.size, dtype=bool)
    low[order[: k + 1]] = True
    realized = float(np.sum(masses[low]))
    return p_star, realized, low


@dataclass(frozen=True, eq=False)
class PartitionLevel:
    """Level k of the region chain: estimate on D_k and its split.

    The estimate's leaves clipped to D_k are the level's cells. Cell ``c`` is
    the union of the pieces ``pieces[piece_cell == c]`` (a (p, 2, d) box
    array, cells in leaf order); ``volumes``, ``masses``, ``densities`` and
    ``low_mask`` hold one value per cell.
    """

    index: int
    region: RegionIndicator
    raw: PiecewiseConstantDensity
    captured: float
    pieces: np.ndarray
    piece_cell: np.ndarray
    volumes: np.ndarray
    masses: np.ndarray
    densities: np.ndarray
    threshold: float
    ratio: float
    weight: float
    high_region: RegionIndicator
    low_region: RegionIndicator
    low_mask: np.ndarray
    samples: SampleSet


def build_level(
    index: int,
    region: RegionIndicator,
    raw: PiecewiseConstantDensity,
    weight: float,
    mass_ratio: float,
    samples: SampleSet,
) -> PartitionLevel:
    """Restrict a raw estimate to its region and split it by density.

    Leaf mass is apportioned to the in-region overlap (uniform within the
    leaf) and renormalized; leaves without overlap are dropped (zero mass).
    The low/high regions are unions of cell pieces, so together they tile the
    level's region exactly.
    """
    leaves = raw.partition.boxes
    piece_leaf, pieces = region.clip(leaves[:, 0], leaves[:, 1])
    kept, piece_cell = np.unique(piece_leaf, return_inverse=True)
    overlaps = np.bincount(piece_cell, weights=box_volumes(pieces))
    leaf_volumes = box_volumes(leaves[kept])
    contributions = raw.masses[kept] * (overlaps / leaf_volumes)
    captured = float(np.sum(contributions))
    if captured <= 0.0:
        raise RuntimeError("level estimate captured no mass inside its region")
    masses = contributions / captured
    densities = raw.masses[kept] / leaf_volumes / captured
    err = abs(float(np.sum(masses)) - 1.0)
    if err > 1e-12:
        raise AssertionError(f"restricted cell masses sum to 1 +/- {err:.3e}")
    p_star, realized, low = threshold_from_ratio(masses, densities, mass_ratio)
    low_piece = low[piece_cell]
    upper = region.space_upper
    return PartitionLevel(
        index=index,
        region=region,
        raw=raw,
        captured=captured,
        pieces=pieces,
        piece_cell=piece_cell,
        volumes=overlaps,
        masses=masses,
        densities=densities,
        threshold=p_star,
        ratio=realized,
        weight=weight,
        high_region=RegionIndicator(pieces[~low_piece], upper),
        low_region=RegionIndicator(pieces[low_piece], upper),
        low_mask=low,
        samples=samples,
    )


@dataclass(frozen=True)
class RegionChainResult:
    """Full output of the iterative scheme."""

    levels: tuple[PartitionLevel, ...]
    pf: float
    pilot: FailureEstimate
    stopping: str
    evaluations: dict[str, int]

    @property
    def n_iterations(self) -> int:
        return len(self.levels) - 1

    @property
    def ratios(self) -> tuple[float, ...]:
        return tuple(level.ratio for level in self.levels)

    @property
    def weights(self) -> tuple[float, ...]:
        """P(D_k | F) of every level's region, then of the final low region."""
        last = self.levels[-1]
        return tuple(level.weight for level in self.levels) + (last.weight * last.ratio,)

    @property
    def regions(self) -> tuple[RegionIndicator, ...]:
        """S_1 .. S_{n_it+1} plus the final low region: n_it + 2 regions."""
        highs = tuple(level.high_region for level in self.levels)
        return highs + (self.levels[-1].low_region,)

    @cached_property
    def composite(self) -> tuple[RegionIndicator, np.ndarray]:
        """The composite conditional density p(phi | F) as one table: the
        pieces of ``regions``, in order, as one region, and the density on
        each. A piece of level k carries its cell's density times the level
        weight; by the deepest-level rule the pieces tile D_0."""
        last = self.levels[-1]
        split = [(level, ~level.low_mask) for level in self.levels] + [(last, last.low_mask)]
        cells = [level.piece_cell[keep[level.piece_cell]] for level, keep in split]
        values = [level.densities[c] * level.weight for (level, _), c in zip(split, cells)]
        boxes = np.concatenate([region.boxes for region in self.regions])
        return RegionIndicator(boxes, last.region.space_upper), np.concatenate(values)


def compose_density(chain: RegionChainResult, phi: np.ndarray) -> np.ndarray:
    """Composite conditional density p(phi | F) ``(n,)`` at rows ``(n, d)``:
    the value of the composite table's piece holding each row, 0 outside the
    design space."""
    table, values = chain.composite
    piece = table.locate(phi)
    return np.where(piece >= 0, values[piece], 0.0)


@dataclass(frozen=True)
class FPFApproximation:
    """The piecewise-constant FPF of a finished region chain."""

    chain: RegionChainResult
    space: DesignSpace

    def fpf(self, phi: np.ndarray) -> np.ndarray:
        """FPF ``(n,)`` at rows ``(n, d)``: p(phi | F) * P(F) / p(phi)."""
        return compose_density(self.chain, phi) * self.chain.pf * self.space.volume


@dataclass(frozen=True)
class BSPParams:
    max_leaves: int = 64


@dataclass(frozen=True)
class SubsetParams:
    max_levels: int = 8


@dataclass(frozen=True)
class PipelineConfig:
    """Budgets and estimator settings for one run."""

    pilot_budget: int = 8000
    iteration_budget: int = 8000
    max_iterations: int = 4
    mass_ratio: float = 0.1
    pf_floor: float = 1e-4
    bsp: BSPParams = field(default_factory=BSPParams)
    subset: SubsetParams = field(default_factory=SubsetParams)

    def __post_init__(self) -> None:
        if self.pilot_budget <= 0 or self.iteration_budget <= 0:
            raise ValueError("budgets must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if not 0.0 < self.mass_ratio < 1.0:
            raise ValueError("mass_ratio must lie in (0, 1)")
        if self.pf_floor <= 0:
            raise ValueError("pf_floor must be positive")


def _check_composite_normalization(chain: RegionChainResult) -> float:
    """Cell-sum telescoping: sum_k w_k*(high mass)_k + w_last*(low mass)_last."""
    total = 0.0
    for level in chain.levels:
        total += level.weight * float(np.sum(level.masses[~level.low_mask]))
    last = chain.levels[-1]
    return total + last.weight * float(np.sum(last.masses[last.low_mask]))


def run_pipeline(
    model: LimitStateModel,
    space: DesignSpace,
    specs: tuple[RandomVariableSpec, ...],
    config: PipelineConfig,
    streams: Streams,
) -> tuple[RegionChainResult, FPFApproximation]:
    """Run pilot + iterations and return the chain with its FPF evaluator.

    The pilot is direct Monte Carlo, escalating to subset simulation when it
    observes fewer than 2·d failures, too few to seed the first density
    estimate. Each iteration estimates the current region's conditional
    density, splits off the low-density mass, and repopulates the new region
    with MMH chains of ``iteration_budget`` steps in all (``populate_region``
    plans them). Per-stage evaluation counts are taken from the model's
    counter and reported in the result.
    """
    evals: dict[str, int] = {}
    mark = model.n_evaluations
    pilot = direct_mcs(model, space, specs, config.pilot_budget, streams.generator())
    if len(pilot.samples) < 2 * space.ndim:
        logger.info(
            "pilot saw %d failures; escalating to subset simulation", len(pilot.samples)
        )
        pilot = subset_simulation(
            model,
            space,
            specs,
            config.pilot_budget,
            streams,
            max_levels=config.subset.max_levels,
        )
    if pilot.pf == 0.0 or not pilot.samples:
        raise ConvergenceError(
            "pilot stage found no failures even under subset simulation",
            partial=pilot,
        )
    evals["pilot"] = model.n_evaluations - mark
    pf = pilot.pf
    samples = pilot.samples
    if len(samples) < 2 * space.ndim:
        raise ConvergenceError(
            f"pilot produced only {len(samples)} failure samples; "
            "increase the pilot budget",
            partial=pilot,
        )

    region = space.region()
    weight = 1.0
    levels: list[PartitionLevel] = []
    stopping = "iteration-cap"
    prior = 1.0 / space.volume

    for k in range(config.max_iterations + 1):
        lo, hi = region.bounding_box()
        raw = bsp_estimate(
            samples.phi, lo, hi, streams.generator(), max_leaves=config.bsp.max_leaves
        )
        try:
            level = build_level(k, region, raw, weight, config.mass_ratio, samples)
        except DegenerateThresholdError:
            if not levels:
                raise
            logger.warning("level %d estimate is degenerate; stopping the chain", k)
            stopping = "degenerate-threshold"
            break
        levels.append(level)

        fpf_at_threshold = level.threshold * weight * pf / prior
        if fpf_at_threshold < config.pf_floor:
            stopping = "threshold-floor"
            break
        if k == config.max_iterations:
            stopping = "iteration-cap"
            break

        weight *= level.ratio
        region = level.low_region
        mark = model.n_evaluations
        try:
            samples = populate_region(
                samples, region, model, space, specs, config.iteration_budget, streams
            )
        except RegionPopulationError as exc:
            raise RegionPopulationError(
                f"no failure sample inside level-{k + 1} region",
                partial=RegionChainResult(tuple(levels), pf, pilot, "aborted", evals),
            ) from exc
        evals[f"level_{k + 1}"] = model.n_evaluations - mark

    evals["total"] = sum(evals.values())
    chain = RegionChainResult(tuple(levels), pf, pilot, stopping, evals)
    approx = FPFApproximation(chain, space)

    norm = _check_composite_normalization(chain)
    if abs(norm - 1.0) > 1e-10:
        raise AssertionError(
            f"composite density integrates to {norm!r}, off by more than 1e-10"
        )
    vals = approx.fpf(pilot.samples.phi)
    if np.any(vals <= 0.0) or float(np.max(vals)) > 1.05:
        raise RuntimeError(
            "scaled FPF violates (0, 1.05] at pilot failure samples: "
            f"min={float(np.min(vals)):.3e} max={float(np.max(vals)):.3e}"
        )
    return chain, approx
