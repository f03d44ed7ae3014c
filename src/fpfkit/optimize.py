"""Design optimization decoupled from reliability analysis: minimize a cost
over the design box subject to FPF(phi) <= allowable, using the cheap fitted
FPF surface instead of fresh limit-state runs."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import DesignSpace

GRID_PER_DIM = 3  # grid starts per axis
N_RANDOM_STARTS = 8  # uniform starts added to the grid
PENALTY = 1e6  # weight of the relative FPF violation
ACTIVE_MARGIN = 0.05  # relative distance to the allowable that counts as active
SLACK = 1e-6  # relative excess over the allowable that still counts as feasible


@dataclass(frozen=True)
class Optima:
    """Every start's search under every allowable, as arrays: allowable ``k``
    searched ``S`` starts in ``d`` design axes.

    ``start`` and ``phi`` hold the start and end points ``(k, S, d)``;
    ``objective``, ``pf`` and ``n_iterations`` the values at the end points
    ``(k, S)``; feasibility, the reported column and activity derive from
    them.
    """

    allowable: np.ndarray  # (k,)
    start: np.ndarray
    phi: np.ndarray
    objective: np.ndarray
    pf: np.ndarray
    n_iterations: np.ndarray

    @property
    def feasible(self) -> np.ndarray:
        """``(k, S)``: end points with pf <= allowable * (1 + SLACK)."""
        return self.pf <= self.allowable[:, None] * (1.0 + SLACK)

    @property
    def best(self) -> np.ndarray:
        """``(k,)``: each allowable's reported column, the least objective among
        its feasible end points, ties broken lexicographically by phi; with
        none feasible, the first with the least pf."""
        feasible = self.feasible
        # lexsort's last key sorts first: feasible, objective, then phi_1..phi_d
        order = np.lexsort((*np.moveaxis(self.phi, -1, 0)[::-1], self.objective, ~feasible))
        return np.where(feasible.any(axis=1), order[:, 0], np.argmin(self.pf, axis=1))

    @property
    def active(self) -> np.ndarray:
        """``(k,)``: the reported end point is feasible and its pf lies within
        ``ACTIVE_MARGIN`` (relative) of the allowable."""
        at = np.arange(len(self.allowable)), self.best
        return self.feasible[at] & (self.pf[at] >= self.allowable * (1.0 - ACTIVE_MARGIN))


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


def optimize(objective, fpf, space: DesignSpace, allowables, rngs) -> Optima:
    """Multistart Nelder-Mead with an exact penalty and feasibility filter
    under each of ``allowables`` ``(k,)``.

    ``objective`` and ``fpf`` take design rows ``(n, d)`` and return ``(n,)``
    values. Allowable ``k`` draws its starts from ``rngs[k]``: a
    ``GRID_PER_DIM`` grid per axis plus ``N_RANDOM_STARTS`` uniform points,
    inset 2% from the faces. Each start minimizes objective + PENALTY *
    max(0, pf/allowable - 1) within the box. The starts of all allowables
    advance together (``_nelder_mead``), so the objective and the FPF are
    called on rows of candidates, not one point at a time; each row's
    arithmetic is its own, so an allowable's result equals a search of it
    alone.
    """
    allowables = np.asarray(allowables, dtype=float)
    if not len(allowables) or len(rngs) != len(allowables):
        raise ValueError("optimize needs one or more allowables, with one generator each")
    if not np.all((0.0 < allowables) & (allowables < 1.0)):
        raise ValueError("allowable failure probability must lie in (0, 1)")
    start = np.stack([_starts(space, rng) for rng in rngs])
    k, n, d = start.shape
    x, nit = _nelder_mead(
        _penalized(objective, fpf, np.repeat(allowables, n)),
        start.reshape(k * n, d),
        space.lower,
        space.upper,
        xatol=1e-6 * float(np.max(space.upper - space.lower)),
        fatol=1e-10,
        maxiter=2000,
    )
    flat = np.clip(x, space.lower, space.upper)
    return Optima(
        allowables, start, flat.reshape(k, n, d), objective(flat).reshape(k, n),
        fpf(flat).reshape(k, n), nit.reshape(k, n),
    )
