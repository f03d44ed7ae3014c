"""Design optimization decoupled from reliability analysis: minimize a cost
over the design box subject to FPF(phi) <= allowable, using the cheap fitted
FPF surface instead of fresh limit-state runs."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import InfeasibleProblemError
from .model import DesignSpace

GRID_PER_DIM = 3  # grid starts per axis
N_RANDOM_STARTS = 8  # uniform starts added to the grid
PENALTY = 1e6  # weight of the relative FPF violation
ACTIVE_MARGIN = 0.05  # relative distance to the allowable that counts as active
SLACK = 1e-6  # relative excess over the allowable that still counts as feasible


def objective_mean_area(phi: np.ndarray, wall: float = 2.0) -> float:
    """Mean cross-sectional area of a hollow rectangular section, mm^2.

    phi = (outer width, outer height) at their mean values; ``wall`` is the
    mean wall thickness. Both outer dimensions must exceed twice the wall.
    """
    b, h = float(phi[0]), float(phi[1])
    if b <= 2 * wall or h <= 2 * wall:
        raise ValueError(f"section {b} x {h} too small for wall {wall}")
    return b * h - (b - 2 * wall) * (h - 2 * wall)


@dataclass(frozen=True)
class DesignProblem:
    """Objective + FPF constraint over a design space."""

    objective: object  # callable(phi) -> float
    fpf: object  # callable(phi) -> float
    space: DesignSpace
    allowable: float

    def __post_init__(self) -> None:
        if not 0.0 < self.allowable < 1.0:
            raise ValueError("allowable failure probability must lie in (0, 1)")

    def feasible(self, pf: float) -> bool:
        return pf <= self.allowable * (1.0 + SLACK)


@dataclass(frozen=True)
class StartRecord:
    start: np.ndarray
    phi: np.ndarray
    objective: float
    pf: float
    feasible: bool
    n_iterations: int


@dataclass(frozen=True)
class OptimalDesign:
    phi: np.ndarray
    objective: float
    pf: float
    feasible: bool
    active: bool
    starts: tuple[StartRecord, ...]


def _starts(space: DesignSpace, rng) -> np.ndarray:
    lo, hi = space.lower, space.upper
    margin = 0.02 * (hi - lo)
    axes = [np.linspace(lo[d] + margin[d], hi[d] - margin[d], GRID_PER_DIM) for d in range(space.ndim)]
    grid = np.array(list(itertools.product(*axes)))
    rand = rng.uniform(lo + margin, hi - margin, size=(N_RANDOM_STARTS, space.ndim))
    return np.vstack([grid, rand])


def optimize(
    problem: DesignProblem, seed_seq: np.random.SeedSequence | None = None
) -> OptimalDesign:
    """Multistart Nelder-Mead with an exact penalty and feasibility filter.

    The starts are a ``GRID_PER_DIM`` grid per axis plus ``N_RANDOM_STARTS``
    uniform points, inset 2% from the faces. Each start minimizes
    objective + PENALTY * max(0, pf/allowable - 1) within the box; candidates
    are then filtered by pf <= allowable * (1 + SLACK) and the best feasible
    objective wins (ties broken lexicographically by phi). Raises
    InfeasibleProblemError with the least-violating candidate when no start
    ends feasible. The returned design is flagged ``active`` when its pf sits
    within ``ACTIVE_MARGIN`` (relative) of the allowable.
    """
    rng = np.random.Generator(
        np.random.PCG64(seed_seq if seed_seq is not None else np.random.SeedSequence(0))
    )
    space = problem.space

    def penalized(phi: np.ndarray) -> float:
        pf = float(problem.fpf(phi))
        violation = max(0.0, pf / problem.allowable - 1.0)
        return float(problem.objective(phi)) + PENALTY * violation

    records: list[StartRecord] = []
    for start in _starts(space, rng):
        res = minimize(
            penalized,
            start,
            method="Nelder-Mead",
            bounds=list(space.bounds),
            options={
                "xatol": 1e-6 * float(np.max(space.upper - space.lower)),
                "fatol": 1e-10,
                "maxiter": 2000,
            },
        )
        phi = np.clip(res.x, space.lower, space.upper)
        pf = float(problem.fpf(phi))
        records.append(
            StartRecord(
                start=start,
                phi=phi,
                objective=float(problem.objective(phi)),
                pf=pf,
                feasible=problem.feasible(pf),
                n_iterations=int(res.nit),
            )
        )

    feasible = [r for r in records if r.feasible]
    if not feasible:
        least = min(records, key=lambda r: r.pf)
        raise InfeasibleProblemError(
            f"no feasible design found for allowable {problem.allowable:g}; "
            f"least-violating candidate pf={least.pf:g} at {least.phi}",
            best_candidate=least,
        )
    best = min(feasible, key=lambda r: (r.objective, tuple(r.phi)))
    active = best.pf >= problem.allowable * (1.0 - ACTIVE_MARGIN)
    return OptimalDesign(
        phi=best.phi,
        objective=best.objective,
        pf=best.pf,
        feasible=True,
        active=bool(active),
        starts=tuple(records),
    )
