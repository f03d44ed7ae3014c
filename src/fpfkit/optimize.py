"""Design optimization decoupled from reliability analysis: minimize a cost
over the design box subject to FPF(phi) <= allowable, using the cheap fitted
FPF surface instead of fresh limit-state runs."""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import DesignSpace

GRID_PER_DIM = 3  # grid starts per axis
N_RANDOM_STARTS = 8  # uniform starts added to the grid
PENALTY = 1e6  # weight of the relative FPF violation
ACTIVE_MARGIN = 0.05  # relative distance to the allowable that counts as active
SLACK = 1e-6  # relative excess over the allowable that still counts as feasible


def objective_mean_area(phi: np.ndarray, wall: float = 2.0) -> np.ndarray:
    """Mean cross-sectional area ``(n,)`` of hollow rectangular sections at
    rows ``(n, 2)``, mm^2.

    phi = (outer width, outer height) at their mean values; ``wall`` is the
    mean wall thickness. Both outer dimensions must exceed twice the wall.
    """
    phi = np.asarray(phi, dtype=float)
    b, h = phi[:, 0], phi[:, 1]
    thin = (b <= 2 * wall) | (h <= 2 * wall)
    if thin.any():
        bad = phi[np.argmax(thin)]
        raise ValueError(f"section {bad[0]} x {bad[1]} too small for wall {wall}")
    return b * h - (b - 2 * wall) * (h - 2 * wall)


@dataclass(frozen=True)
class DesignProblem:
    """Objective + FPF constraint over a design space.

    Both callables take design rows ``(n, d)`` and return ``(n,)`` values.
    """

    objective: object  # callable(rows (n, d)) -> (n,)
    fpf: object  # callable(rows (n, d)) -> (n,)
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


def _sorted(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each start's vertices ordered by value, one argsort per row and one
    gather by flat vertex index."""
    n, k = fsim.shape
    flat = np.argsort(fsim, axis=1) + np.arange(0, n * k, k)[:, None]
    return sim.reshape(n * k, -1)[flat], fsim.ravel()[flat]


def _nelder_mead(f, x0, lower, upper, xatol, fatol, maxiter):
    """Bounded Nelder-Mead from every start of ``x0`` (S, d), in lockstep.

    ``f`` maps rows ``(n, d)`` and the start index of each row ``(n,)`` to
    ``(n,)`` values; a row's value may depend only on that row and its start.
    Each start follows the arithmetic of SciPy's
    ``minimize(method="Nelder-Mead", bounds=...)`` with the standard
    coefficients (reflection 1, expansion 2, contraction 0.5, shrink 0.5):
    the same initial simplex, clips and vertex order, and the same
    ``xatol``/``fatol``/``maxiter`` stop, so a start ends where SciPy would
    end it. All starts still iterating share one ``f`` call for the
    reflections, one for the expansions and contractions, and one for the
    shrinks. Returns the best vertex ``(S, d)`` and the iteration count
    ``(S,)``, counted as SciPy counts ``nit``.
    """
    x0 = np.clip(np.asarray(x0, dtype=float), lower, upper)
    n_starts, d = x0.shape
    sim = np.repeat(x0[:, None, :], d + 1, axis=1)
    axis = np.arange(d)
    start = sim[:, axis + 1, axis]
    # vertex k + 1 moves coordinate k by 5%, or to 0.00025 from zero
    sim[:, axis + 1, axis] = np.where(start != 0, 1.05 * start, 0.00025)
    # a vertex pushed above the upper face is reflected back inside, then clipped
    sim = np.clip(np.where(sim > upper, 2 * upper - sim, sim), lower, upper)
    fsim = f(sim.reshape(-1, d), np.repeat(np.arange(n_starts), d + 1)).reshape(n_starts, d + 1)
    # SciPy sorts the first simplex twice; an unstable sort may reorder ties
    sim, fsim = _sorted(*_sorted(sim, fsim))

    nit = np.ones(n_starts, dtype=int)
    live = np.arange(n_starts)
    while True:
        live = live[nit[live] < maxiter]
        sim_l, f_l = sim[live], fsim[live]
        converged = (np.abs(sim_l[:, 1:] - sim_l[:, :1]).max(axis=(1, 2)) <= xatol) & (
            np.abs(f_l[:, :1] - f_l[:, 1:]).max(axis=1) <= fatol
        )
        live, sim_l, f_l = live[~converged], sim_l[~converged], f_l[~converged]
        if not len(live):
            break

        xbar = np.add.reduce(sim_l[:, :-1], 1) / d
        worst = sim_l[:, -1]
        xr = np.clip(2 * xbar - worst, lower, upper)
        fxr = f(xr, live)
        expand = fxr < f_l[:, 0]
        contract = ~expand & ~(fxr < f_l[:, -2])
        outside = contract & (fxr < f_l[:, -1])
        # the expansion and both contractions share one call; xr/fxr then
        # hold each start's replacement for its worst vertex
        step = np.flatnonzero(expand | contract)
        shrink = np.zeros(len(live), dtype=bool)
        if len(step):
            xb, xw = xbar[step], worst[step]
            cand = np.where(
                expand[step, None],
                3 * xb - 2 * xw,
                np.where(outside[step, None], 1.5 * xb - 0.5 * xw, 0.5 * xb + 0.5 * xw),
            )
            cand = np.clip(cand, lower, upper)
            fc = f(cand, live[step])
            take = np.where(
                expand[step],
                fc < fxr[step],
                np.where(outside[step], fc <= fxr[step], fc < f_l[step, -1]),
            )
            xr[step[take]], fxr[step[take]] = cand[take], fc[take]
            shrink[step[~take & ~expand[step]]] = True

        keep = ~shrink
        sim_l[keep, -1], f_l[keep, -1] = xr[keep], fxr[keep]
        if shrink.any():
            best = sim_l[shrink, :1]
            moved = np.clip(best + 0.5 * (sim_l[shrink, 1:] - best), lower, upper)
            sim_l[shrink, 1:] = moved
            f_l[shrink, 1:] = f(moved.reshape(-1, d), np.repeat(live[shrink], d)).reshape(-1, d)

        nit[live] += 1
        sim[live], fsim[live] = _sorted(sim_l, f_l)
    return sim[:, 0], nit


def _penalized(objective, fpf, allowables: np.ndarray):
    """Row form of objective + PENALTY * max(0, pf/allowable - 1), where row
    ``i`` of a call for starts ``start`` takes ``allowables[start[i]]``."""

    def penalized(phi: np.ndarray, start: np.ndarray) -> np.ndarray:
        excess = fpf(phi) / allowables[start] - 1.0
        return objective(phi) + PENALTY * np.where(excess > 0.0, excess, 0.0)

    return penalized


def optimize(
    problems: Sequence[DesignProblem],
    seed_seqs: Sequence[np.random.SeedSequence],
) -> tuple[OptimalDesign, ...]:
    """Multistart Nelder-Mead with an exact penalty and feasibility filter,
    one ``OptimalDesign`` per problem; the problems share their objective,
    FPF and space and differ in the allowable.

    Problem ``k`` draws its starts from ``seed_seqs[k]``: a ``GRID_PER_DIM``
    grid per axis plus ``N_RANDOM_STARTS`` uniform points, inset 2% from the
    faces. Each start minimizes objective + PENALTY * max(0, pf/allowable - 1)
    within the box. The starts of all problems advance together
    (``_nelder_mead``), so the objective and the FPF are called on rows of
    candidates, not one point at a time; each row's arithmetic is its own,
    so a problem's result equals a search of it alone. Candidates with
    pf <= allowable * (1 + SLACK) are feasible and the best feasible
    objective wins (ties broken lexicographically by phi); with none, the
    least-violating candidate comes back flagged ``feasible=False``. A feasible design is flagged ``active``
    when its pf sits within ``ACTIVE_MARGIN`` (relative) of the allowable.
    """
    problems = tuple(problems)
    if not problems or len(seed_seqs) != len(problems):
        raise ValueError("optimize needs one or more problems, with one seed sequence each")
    objective, fpf, space = problems[0].objective, problems[0].fpf, problems[0].space
    if any(p.objective is not objective or p.fpf is not fpf or p.space != space for p in problems):
        raise ValueError("problems searched together must share objective, fpf and space")
    rngs = [np.random.Generator(np.random.PCG64(seq)) for seq in seed_seqs]
    starts = np.vstack([_starts(space, rng) for rng in rngs])
    n = len(starts) // len(problems)
    x, nit = _nelder_mead(
        _penalized(objective, fpf, np.repeat([p.allowable for p in problems], n)),
        starts,
        space.lower,
        space.upper,
        xatol=1e-6 * float(np.max(space.upper - space.lower)),
        fatol=1e-10,
        maxiter=2000,
    )
    phis = np.clip(x, space.lower, space.upper)
    values = zip(starts, phis, objective(phis).tolist(), fpf(phis).tolist(), nit.tolist())
    designs = []
    for problem in problems:
        records = tuple(
            StartRecord(start, phi, obj, pf, problem.feasible(pf), it)
            for start, phi, obj, pf, it in itertools.islice(values, n)
        )
        feasible = [r for r in records if r.feasible]
        if feasible:
            best = min(feasible, key=lambda r: (r.objective, tuple(r.phi)))
        else:
            best = min(records, key=lambda r: r.pf)
        active = best.feasible and best.pf >= problem.allowable * (1.0 - ACTIVE_MARGIN)
        designs.append(
            OptimalDesign(best.phi, best.objective, best.pf, best.feasible, active, records)
        )
    return tuple(designs)
