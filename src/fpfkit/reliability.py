"""Failure probability estimators and conditional samplers on the augmented
space: direct Monte Carlo, subset simulation, and component-wise
Metropolis-Hastings chains for repopulating failure regions.

Chains operate on (phi, u) coordinates, where theta_j = mu_j(phi) +
sigma_j(phi) * u_j and the u_j are independent standard normals. In these
coordinates the augmented prior is an exact product (uniform design prior
times standard normals), so the component-wise accept rule is exact even when
theta's parameters follow design coordinates: a design component is accepted
iff it stays inside the design box (constant prior), a u component is
accepted with the standard-normal density ratio, and the assembled candidate
is then rejected as a whole unless it satisfies the conditioning event.

Subset simulation (margin <= tau in the whole design box) and region
population (failure in a level region, after a burn-in) run their chains
through one driver, ``_chains``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, RegionPopulationError
from .model import (
    DesignSpace,
    LimitStateModel,
    RandomVariableSpec,
    SampleSet,
    resolve_parameters,
    sample_theta,
)
from .regions import RegionIndicator
from .streams import Streams

logger = logging.getLogger(__name__)

_BATCH = 4096
# region population: discarded steps at the start of each chain, and the most
# chains started per region
BURN_IN = 10
MAX_CHAINS = 100
# subset simulation: the conditional probability of each intermediate level
P0 = 0.1


@dataclass(frozen=True)
class FailureEstimate:
    """Estimated failure probability with its sampling c.o.v. and the failure
    samples that produced it."""

    pf: float
    cov: float
    n_evaluations: int
    samples: SampleSet
    method: str
    n_levels: int = 1


def direct_mcs(
    model: LimitStateModel,
    space: DesignSpace,
    specs: tuple[RandomVariableSpec, ...],
    n: int,
    rng: np.random.Generator,
) -> FailureEstimate:
    """Direct Monte Carlo over the augmented space.

    pf_hat = n_fail / n with c.o.v. sqrt((1 - pf) / (n * pf)). Zero observed
    failures return pf = 0 with an infinite c.o.v.; ``run_pipeline`` switches
    to subset simulation below 2·d failures.
    """
    if n <= 0:
        raise ValueError("sample count must be positive")
    failures: list[SampleSet] = []
    done = 0
    while done < n:
        m = min(_BATCH, n - done)
        phis = space.sample(rng, m)
        thetas = sample_theta(specs, model, phis, rng)
        perf, failed = model.evaluate_batch(phis, thetas)
        failures.append(SampleSet(phis[failed], thetas[failed], perf[failed]))
        done += m
    samples = SampleSet.concat(failures)
    pf = len(samples) / n
    if pf == 0.0:
        return FailureEstimate(0.0, math.inf, n, samples, "direct-mcs")
    cov = math.sqrt((1.0 - pf) / (n * pf))
    return FailureEstimate(pf, cov, n, samples, "direct-mcs")


def mmh_chain(
    seeds: SampleSet,
    region: RegionIndicator,
    model: LimitStateModel,
    space: DesignSpace,
    specs: tuple[RandomVariableSpec, ...],
    scales_phi: np.ndarray,
    scales_u: np.ndarray,
    draws: np.ndarray,
    tau: float = 0.0,
) -> SampleSet:
    """Lockstep component-wise MMH chains, one per seed row.

    Chain c consumes only ``draws[c]``, of shape (n_steps, d_phi + 2 d_u):
    per step, one uniform per design coordinate, then a (proposal, accept)
    pair per u coordinate. It targets p(phi, theta | margin <= tau, phi in
    region); subset simulation passes the whole design box as ``region``
    (``DesignSpace.region``), so only the margin conditions. Each step
    proposes every design coordinate (uniform half-widths ``scales_phi``,
    kept inside the design box) and every u coordinate (half-widths
    ``scales_u``, standard-normal ratio accept). Candidates that moved, lie
    in ``region`` and have a valid theta are evaluated in one batch; the rest
    repeat their state, as do those whose margin exceeds ``tau``. Returns the
    states as (len(seeds), n_steps) leading axes; repeats are genuine output.
    """
    if len(draws) != len(seeds):
        raise ValueError("mmh_chain needs one row of draws per seed")
    if not np.all(model.margin(seeds.performance) <= tau):
        raise ValueError(f"chain seed must be a failure sample (margin <= {tau})")
    if not np.all(region.contains(seeds.phi)):
        raise ValueError("chain seed lies outside the target region")

    phi = seeds.phi.copy()
    theta = seeds.theta.copy()
    perf = np.array(seeds.performance, dtype=float)
    mus, sigmas = resolve_parameters(specs, phi)
    u = (theta - mus) / sigmas
    m, d_phi = phi.shape
    n_steps = draws.shape[1]
    if draws.shape[2:] != (d_phi + 2 * u.shape[1],):
        raise ValueError("mmh_chain draws must have d_phi + 2 * d_u columns per step")
    lower, upper = space.lower, space.upper
    out = SampleSet(
        np.empty((m, n_steps, d_phi)),
        np.empty((m, n_steps, theta.shape[1])),
        np.empty((m, n_steps)),
    )
    # every step's proposal offsets, for the whole block at once
    steps_phi = scales_phi * (2.0 * draws[..., :d_phi] - 1.0)
    steps_u = scales_u * (2.0 * draws[..., d_phi::2] - 1.0)
    accept_u = draws[..., d_phi + 1 :: 2]
    for t in range(n_steps):
        prop = phi + steps_phi[:, t]
        cand_phi = np.where((lower <= prop) & (prop <= upper), prop, phi)
        prop = u + steps_u[:, t]
        take = accept_u[:, t] < np.exp(-0.5 * (prop * prop - u * u))
        cand_u = np.where(take, prop, u)
        moved = (cand_phi != phi).any(axis=1) | (cand_u != u).any(axis=1)
        moved &= region.contains(cand_phi)
        rows = np.flatnonzero(moved)
        cand_phi, cand_u = cand_phi[rows], cand_u[rows]
        mu, sigma = resolve_parameters(specs, cand_phi)
        cand_theta = mu + sigma * cand_u
        ok = model.theta_valid_batch(cand_phi, cand_theta)
        if not ok.all():
            rows, cand_phi, cand_u, cand_theta = rows[ok], cand_phi[ok], cand_u[ok], cand_theta[ok]
        if len(rows):
            cand_perf, _ = model.evaluate_batch(cand_phi, cand_theta)
            acc = model.margin(cand_perf) <= tau
            rows = rows[acc]
            phi[rows] = cand_phi[acc]
            u[rows] = cand_u[acc]
            theta[rows] = cand_theta[acc]
            perf[rows] = cand_perf[acc]
        out.phi[:, t] = phi
        out.theta[:, t] = theta
        out.performance[:, t] = perf
    return out


def _chains(
    pool: SampleSet,
    starts: np.ndarray,
    region: RegionIndicator,
    model: LimitStateModel,
    space: DesignSpace,
    specs: tuple[RandomVariableSpec, ...],
    n_steps: int,
    streams: Streams,
    tau: float = 0.0,
) -> SampleSet:
    """``n_steps`` of ``mmh_chain`` from each row ``pool[starts]``, each chain
    on its own child stream. Proposal half-widths are the pool's std per
    (phi, u) coordinate, with fallbacks for a degenerate spread (5% of
    the design width for phi, 1.0 for u)."""
    mus, sigmas = resolve_parameters(specs, pool.phi)
    scales_phi = np.std(pool.phi, axis=0)
    bad = ~(scales_phi > 0)
    scales_phi[bad] = 0.05 * (space.upper - space.lower)[bad]
    scales_u = np.std((pool.theta - mus) / sigmas, axis=0)
    scales_u[~(scales_u > 0)] = 1.0
    width = pool.phi.shape[1] + 2 * pool.theta.shape[1]
    draws = streams.uniforms(len(starts), (n_steps, width))
    return mmh_chain(
        pool[starts], region, model, space, specs, scales_phi, scales_u, draws, tau=tau
    )


def _distinct_states(phi: np.ndarray) -> int:
    """Distinct design rows within each chain, summed over chains.

    ``phi`` is (chains, steps, d). One lexsort over (chain, phi) rows puts
    equal rows of a chain next to each other.
    """
    m, n, d = phi.shape
    if m * n == 0:
        return 0
    rows = phi.reshape(m * n, d)
    chain = np.repeat(np.arange(m), n)
    order = np.lexsort((*rows.T, chain))
    rows, chain = rows[order], chain[order]
    new = (chain[1:] != chain[:-1]) | (rows[1:] != rows[:-1]).any(axis=1)
    return 1 + int(np.count_nonzero(new))


def populate_region(
    prev: SampleSet,
    region: RegionIndicator,
    model: LimitStateModel,
    space: DesignSpace,
    specs: tuple[RandomVariableSpec, ...],
    budget: int,
    streams: Streams,
) -> SampleSet:
    """Repopulate ``region`` with chains of ``budget`` steps in all.

    The in-region samples of ``prev`` are the seeds and lead the output, in
    order. ``n_chains = min(seeds, MAX_CHAINS)`` chains start from
    evenly strided seeds and take ``budget // n_chains`` steps each; their
    states after ``BURN_IN`` steps follow in chain order. No seed in
    ``region`` raises ``RegionPopulationError``; steps per chain not above
    the burn-in raise ``ConvergenceError``.
    """
    seeds = prev[region.contains(prev.phi)]
    if not len(seeds):
        raise RegionPopulationError(
            "no failure sample falls inside the target region; "
            "increase the previous-stage budget",
            partial=prev,
        )
    n_chains = min(len(seeds), MAX_CHAINS)
    steps = budget // n_chains
    if steps <= BURN_IN:
        raise ConvergenceError(
            "iteration budget cannot cover chain burn-in; raise iteration_budget"
        )
    starts = (np.arange(n_chains) * len(seeds)) // n_chains
    states = _chains(seeds, starts, region, model, space, specs, steps, streams)[:, BURN_IN:]
    total = states.performance.size
    distinct = _distinct_states(states.phi)
    if total and distinct / total < 0.05:
        logger.warning(
            "stuck chains while populating region: %.1f%% distinct states "
            "(proposal scales may have collapsed)",
            100.0 * distinct / total,
        )
    return SampleSet.concat([seeds, states.flatten()])


def subset_simulation(
    model: LimitStateModel,
    space: DesignSpace,
    specs: tuple[RandomVariableSpec, ...],
    n_per_level: int,
    p0: float,
    streams: Streams,
    max_levels: int = 8,
) -> FailureEstimate:
    """Subset simulation with percentile intermediate levels.

    Standard construction: each level keeps the n*p0 states with the smallest
    failure margins, sets the next threshold at that percentile, and regrows
    the population with conditional MMH chains from those seeds; the estimate
    is p0^m times the final-level failure fraction. The reported c.o.v. uses
    the independent-level approximation (chain correlation ignored), which
    understates mildly; it is a diagnostic, not a certified bound.
    """
    if n_per_level <= 0:
        raise ValueError("n_per_level must be positive")
    if not 0.0 < p0 < 1.0:
        raise ValueError("p0 must lie in (0, 1)")
    n0 = n_per_level * p0
    if abs(n0 - round(n0)) > 1e-9 or round(n0) < 2:
        raise ValueError("n_per_level * p0 must be an integer >= 2")
    n0 = int(round(n0))
    if n_per_level % n0:
        # each level regrows n_per_level states as n0 chains of equal length,
        # and the estimate p0**m counts on keeping exactly that share
        raise ValueError("n_per_level must be a multiple of n_per_level * p0")

    rng = streams.generator()
    n_evals_start = model.n_evaluations

    phis = space.sample(rng, n_per_level)
    thetas = sample_theta(specs, model, phis, rng)
    perf, _ = model.evaluate_batch(phis, thetas)
    pop = SampleSet(phis, thetas, perf)

    level = 0
    while True:
        margins = model.margin(pop.performance)
        failed = margins <= 0.0
        frac_fail = float(np.count_nonzero(failed)) / n_per_level
        order = np.argsort(margins, kind="stable")
        tau = float(margins[order[n0 - 1]])
        if tau <= 0.0:
            pf = (p0**level) * frac_fail
            terms = level * (1.0 - p0) / (n_per_level * p0)
            if frac_fail > 0:
                terms += (1.0 - frac_fail) / (n_per_level * frac_fail)
            cov = math.sqrt(terms) if pf > 0 else math.inf
            return FailureEstimate(
                pf,
                cov,
                model.n_evaluations - n_evals_start,
                pop[failed],
                "subset-simulation",
                n_levels=level + 1,
            )
        level += 1
        if level >= max_levels:
            raise ConvergenceError(
                f"subset simulation exceeded {max_levels} levels",
                partial={"levels": level, "threshold": tau},
            )

        seeds = pop[order[:n0]]
        states = _chains(
            seeds, np.arange(n0), space.region(), model, space, specs,
            n_per_level // n0 - 1, streams, tau=tau,
        )
        pop = SampleSet.concat([seeds[:, None], states], axis=1).flatten()
