import math

import numpy as np
import pytest

from fpfkit.benchmarks import (
    BoxBeamModel,
    ToyModel,
    beam_design_space,
    beam_variable_specs,
    toy_design_space,
    toy_variable_specs,
)
from fpfkit.errors import ConvergenceError, RegionPopulationError
from fpfkit.model import DesignSpace, SampleSet, sample_theta
from fpfkit.regions import RegionIndicator
from fpfkit.reliability import (
    ChainParams,
    _distinct_states,
    direct_mcs,
    mmh_chain,
    populate_region,
    subset_simulation,
)
from fpfkit.streams import Streams
from helpers import reference_chain_draws, toy_pf_exact


def _toy():
    return ToyModel(), toy_design_space(), toy_variable_specs()


def test_direct_mcs_matches_exact_toy_probability():
    model, space, specs = _toy()
    est = direct_mcs(model, space, specs, 40000, np.random.default_rng(1))
    exact = toy_pf_exact()
    sigma = math.sqrt(exact * (1 - exact) / 40000)
    assert abs(est.pf - exact) < 4 * sigma
    assert est.method == "direct-mcs"
    assert est.n_evaluations == 40000
    assert model.n_evaluations == 40000


def test_direct_mcs_cov_formula_and_samples():
    model, space, specs = _toy()
    est = direct_mcs(model, space, specs, 5000, np.random.default_rng(2))
    assert est.cov == pytest.approx(math.sqrt((1 - est.pf) / (5000 * est.pf)))
    assert len(est.samples) == round(est.pf * 5000)
    first = est.samples[:50]
    assert np.all(model.margin(first.performance) <= 0.0)
    assert np.all(first.theta[:, 0] >= first.phi[:, 0])  # toy failure event
    assert space.contains(first.phi).all()


def test_direct_mcs_flags_escalation_on_zero_failures():
    model, space, specs = _toy()
    # design box far in the tail: failures are essentially unreachable
    est = direct_mcs(model, DesignSpace(((8.0, 9.0),)), specs, 2000, np.random.default_rng(3))
    assert est.pf == 0.0
    assert len(est.samples) == 0
    assert est.cov == math.inf


def test_direct_mcs_validates_budget():
    model, space, specs = _toy()
    with pytest.raises(ValueError):
        direct_mcs(model, space, specs, 0, np.random.default_rng(0))


def test_mmh_chain_emits_failed_in_region_states():
    model, space, specs = _toy()
    pilot = direct_mcs(model, space, specs, 2000, np.random.default_rng(4))
    region = RegionIndicator([[[1.0], [4.0]]], (4.0,))
    seed = pilot.samples[region.contains(pilot.samples.phi)][:1]
    states = mmh_chain(
        seed, region, model, space, specs,
        np.array([0.5]), np.array([0.8]),
        reference_chain_draws([np.random.default_rng(5)], 300, 3),
    )[0]
    assert len(states) == 300
    assert np.all(model.margin(states.performance) <= 0.0)
    assert np.all(region.contains(states.phi))
    assert np.all(states.theta[:, 0] >= states.phi[:, 0])
    # the chain moves
    assert len(np.unique(states.phi[:, 0])) > 30


def test_mmh_chain_rejects_bad_seeds():
    model, space, specs = _toy()
    pilot = direct_mcs(model, space, specs, 2000, np.random.default_rng(4))
    region = RegionIndicator([[[3.5], [4.0]]], (4.0,))
    ok = pilot.samples[:1]
    not_failed = SampleSet(ok.phi, ok.theta, np.array([0.5]))
    draws = reference_chain_draws([np.random.default_rng(0)], 10, 3)
    with pytest.raises(ValueError, match="failure"):
        mmh_chain(not_failed, region, model, space, specs,
                  np.array([0.5]), np.array([0.8]), draws)
    outside = pilot.samples[~region.contains(pilot.samples.phi)][:1]
    with pytest.raises(ValueError, match="region"):
        mmh_chain(outside, region, model, space, specs,
                  np.array([0.5]), np.array([0.8]), draws)
    with pytest.raises(ValueError, match="draws per seed"):
        mmh_chain(ok, space.region(), model, space, specs,
                  np.array([0.5]), np.array([0.8]), np.empty((0, 10, 3)))
    with pytest.raises(ValueError, match="columns"):
        mmh_chain(ok, space.region(), model, space, specs,
                  np.array([0.5]), np.array([0.8]), np.empty((1, 10, 4)))


class CountingToy(ToyModel):
    """Toy model that records the row count of every evaluate_batch call."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[int] = []

    def evaluate_batch(self, phis, thetas):
        self.calls.append(len(phis))
        return super().evaluate_batch(phis, thetas)


def _lowest_margins(model, space, specs, n, k, seed):
    """The k of n prior draws with the smallest margins, and the k-th margin."""
    rng = np.random.default_rng(seed)
    phis = space.sample(rng, n)
    thetas = sample_theta(specs, model, phis, rng)
    perf, _ = model.evaluate_batch(phis, thetas)
    order = np.argsort(model.margin(perf), kind="stable")[:k]
    return SampleSet(phis[order], thetas[order], perf[order]), float(model.margin(perf[order[-1]]))


@pytest.mark.parametrize("case", ["toy-region", "toy-threshold", "beam-threshold"])
def test_lockstep_chains_match_chains_run_one_at_a_time(case):
    if case.startswith("toy"):
        model, space, specs = _toy()
    else:
        model = BoxBeamModel(band=(1000.0, 1100.0))
        space, specs = beam_design_space(), beam_variable_specs()
    if case == "toy-region":
        region, tau = RegionIndicator([[[1.0], [4.0]]], (4.0,)), 0.0
        pilot = direct_mcs(model, space, specs, 2000, np.random.default_rng(4))
        seeds = pilot.samples[region.contains(pilot.samples.phi)][:6]
    else:
        region = space.region()
        seeds, tau = _lowest_margins(model, space, specs, 300, 6, 4)
    scales_phi = 0.1 * (space.upper - space.lower)
    scales_u = np.full(len(specs), 0.8)
    streams = np.random.SeedSequence(3).spawn(len(seeds))
    width = space.ndim + 2 * len(specs)

    def rngs():
        return [np.random.Generator(np.random.PCG64(s)) for s in streams]

    together = mmh_chain(seeds, region, model, space, specs, scales_phi, scales_u,
                         reference_chain_draws(rngs(), 40, width), tau=tau)
    assert together.phi.shape == (len(seeds), 40, space.ndim)
    assert together.performance.shape == (len(seeds), 40)
    for i, rng in enumerate(rngs()):
        alone = mmh_chain(seeds[i : i + 1], region, model, space, specs,
                          scales_phi, scales_u, reference_chain_draws([rng], 40, width),
                          tau=tau)
        assert np.array_equal(together.phi[i], alone.phi[0])
        assert np.array_equal(together.theta[i], alone.theta[0])
        assert np.array_equal(together.performance[i], alone.performance[0])
    assert np.all(model.margin(together.performance) <= tau)
    assert len(np.unique(together.phi.reshape(-1, space.ndim), axis=0)) > len(seeds)


def test_mmh_chain_never_evaluates_or_emits_an_invalid_theta():
    class CappedTheta(ToyModel):
        def theta_valid_batch(self, phis, thetas):
            return thetas[:, 0] < 2.5

        def evaluate_batch(self, phis, thetas):
            assert np.all(thetas[:, 0] < 2.5)
            return super().evaluate_batch(phis, thetas)

    _, space, specs = _toy()
    model = CappedTheta()
    region = RegionIndicator([[[1.0], [4.0]]], (4.0,))
    pilot = direct_mcs(model, space, specs, 2000, np.random.default_rng(4))
    seeds = pilot.samples[region.contains(pilot.samples.phi)][:4]
    streams = np.random.SeedSequence(9).spawn(len(seeds))
    states = mmh_chain(
        seeds, region, model, space, specs, np.array([0.5]), np.array([1.5]),
        reference_chain_draws(
            [np.random.Generator(np.random.PCG64(s)) for s in streams], 200, 3
        ),
    )
    assert np.all(states.theta[..., 0] < 2.5)
    assert np.any(states.theta[..., 0] > 2.0)  # the chains reach the cap


def test_mmh_chain_evaluates_only_candidates_inside_the_region():
    class InRegionOnly(ToyModel):
        def evaluate_batch(self, phis, thetas):
            assert np.all(region.contains(phis))
            return super().evaluate_batch(phis, thetas)

    _, space, specs = _toy()
    model = InRegionOnly()
    region = RegionIndicator([[[1.0], [1.6]], [[2.5], [3.0]]], (4.0,))
    pilot = direct_mcs(ToyModel(), space, specs, 2000, np.random.default_rng(4))
    seeds = pilot.samples[region.contains(pilot.samples.phi)][:6]
    streams = np.random.SeedSequence(3).spawn(len(seeds))
    states = mmh_chain(
        seeds, region, model, space, specs, np.array([0.8]), np.array([1.0]),
        reference_chain_draws(
            [np.random.Generator(np.random.PCG64(s)) for s in streams], 100, 3
        ),
    )
    assert np.all(region.contains(states.phi.reshape(-1, 1)))
    assert 0 < model.n_evaluations < states.performance.size


def test_populate_region_makes_at_most_one_model_call_per_step():
    _, space, specs = _toy()
    model = CountingToy()
    pilot = direct_mcs(model, space, specs, 3000, np.random.default_rng(6))
    region = RegionIndicator([[[1.5], [4.0]]], (4.0,))
    n_seeds = int(np.count_nonzero(region.contains(pilot.samples.phi)))
    params = ChainParams()
    n_chains = min(n_seeds, params.max_chains)
    assert n_chains > 1
    before = model.n_evaluations
    model.calls.clear()
    populate_region(pilot.samples, region, model, space, specs, 1000, params,
                    Streams(np.random.SeedSequence(7)))
    assert 0 < len(model.calls) <= 1000 // n_chains
    assert sum(model.calls) == model.n_evaluations - before


def test_subset_simulation_makes_at_most_one_model_call_per_step():
    _, _, specs = _toy()
    model = CountingToy()
    est = subset_simulation(model, DesignSpace(((3.0, 4.0),)), specs, 2000, 0.1,
                            Streams(np.random.SeedSequence(10)))
    steps_per_level = 2000 // 200 - 1
    assert est.n_levels >= 3
    assert model.calls[0] == 2000
    assert len(model.calls) <= 1 + (est.n_levels - 1) * steps_per_level
    assert sum(model.calls) == est.n_evaluations


def test_populate_region_reaches_target_and_keeps_seeds():
    model, space, specs = _toy()
    pilot = direct_mcs(model, space, specs, 3000, np.random.default_rng(6))
    region = RegionIndicator([[[1.5], [4.0]]], (4.0,))
    seeds = pilot.samples[region.contains(pilot.samples.phi)]
    params = ChainParams()
    n_chains = min(len(seeds), params.max_chains)
    assert 1 < n_chains and 1000 // n_chains > params.burn_in
    out = populate_region(
        pilot.samples, region, model, space, specs, 1000,
        params, Streams(np.random.SeedSequence(7)),
    )
    # every chain takes budget // n_chains steps and drops its burn-in
    assert len(out) == len(seeds) + n_chains * (1000 // n_chains - params.burn_in)
    # retained seeds lead the output, in order
    assert np.array_equal(out.phi[: len(seeds)], seeds.phi)
    assert np.all(model.margin(out.performance) <= 0.0)
    assert np.all(region.contains(out.phi))


def test_populate_region_is_deterministic():
    model, space, specs = _toy()
    pilot = direct_mcs(model, space, specs, 3000, np.random.default_rng(6))
    region = RegionIndicator([[[1.5], [4.0]]], (4.0,))
    a = populate_region(pilot.samples, region, ToyModel(), space, specs, 400,
                        ChainParams(), Streams(np.random.SeedSequence(7)))
    b = populate_region(pilot.samples, region, ToyModel(), space, specs, 400,
                        ChainParams(), Streams(np.random.SeedSequence(7)))
    assert len(a) == len(b)
    assert np.array_equal(a.phi, b.phi) and np.array_equal(a.theta, b.theta)


def test_populate_region_refuses_a_budget_that_cannot_cover_the_burn_in():
    model, space, specs = _toy()
    pilot = direct_mcs(model, space, specs, 3000, np.random.default_rng(6))
    region = RegionIndicator([[[1.5], [4.0]]], (4.0,))
    n_chains = int(np.count_nonzero(region.contains(pilot.samples.phi)))
    assert 1 < n_chains < ChainParams().max_chains
    # 11 steps per chain run past a burn-in of 10; 10 steps do not
    params = ChainParams(burn_in=10)
    out = populate_region(pilot.samples, region, model, space, specs, 11 * n_chains + 1,
                          params, Streams(np.random.SeedSequence(0)))
    assert len(out) == 2 * n_chains
    before = model.n_evaluations
    with pytest.raises(ConvergenceError, match="burn-in"):
        populate_region(pilot.samples, region, model, space, specs, 11 * n_chains - 1,
                        params, Streams(np.random.SeedSequence(0)))
    assert model.n_evaluations == before


def test_populate_region_requires_a_seed_inside():
    model, space, specs = _toy()
    pilot = direct_mcs(model, space, specs, 500, np.random.default_rng(8))
    region = RegionIndicator([[[3.99], [4.0]]], (4.0,))
    assert not region.contains(pilot.samples.phi).any()
    with pytest.raises(RegionPopulationError) as exc:
        populate_region(pilot.samples, region, model, space, specs, 100,
                        ChainParams(), Streams(np.random.SeedSequence(0)))
    assert exc.value.partial is pilot.samples


def test_subset_simulation_estimates_a_rare_toy_probability():
    """Design box [3, 4]: P(F) = 3.75e-4, far beyond a 2000-draw pilot."""
    model, _, specs = _toy()
    space = DesignSpace(((3.0, 4.0),))
    est = subset_simulation(model, space, specs, 2000, 0.1,
                            Streams(np.random.SeedSequence(10)))
    exact = toy_pf_exact(3.0, 4.0)
    assert est.method == "subset-simulation"
    assert est.n_levels >= 3
    assert 0.5 * exact < est.pf < 2.0 * exact
    assert 0.0 < est.cov < 1.0
    assert est.n_evaluations == model.n_evaluations
    assert np.all(model.margin(est.samples.performance) <= 0.0)


def test_subset_simulation_agrees_with_direct_mcs_when_failures_are_common():
    model, space, specs = _toy()
    est = subset_simulation(model, space, specs, 4000, 0.1,
                            Streams(np.random.SeedSequence(11)))
    assert est.n_levels == 1  # fails at level zero already
    assert est.pf == pytest.approx(toy_pf_exact(), rel=0.15)


def test_subset_simulation_validates_inputs():
    model, space, specs = _toy()
    with pytest.raises(ValueError):
        subset_simulation(model, space, specs, 0, 0.1, Streams(np.random.SeedSequence(0)))
    with pytest.raises(ValueError):
        subset_simulation(model, space, specs, 1000, 1.5, Streams(np.random.SeedSequence(0)))
    with pytest.raises(ValueError, match="integer"):
        subset_simulation(model, space, specs, 1001, 0.1, Streams(np.random.SeedSequence(0)))


@pytest.mark.parametrize("p0", [0.3, 0.4])
def test_subset_simulation_rejects_a_level_that_is_not_whole_chains(p0):
    """8000 * 0.3 = 2400 seeds cannot regrow 8000 states in equal chains."""
    model, space, specs = _toy()
    with pytest.raises(ValueError, match="multiple"):
        subset_simulation(model, space, specs, 8000, p0, Streams(np.random.SeedSequence(0)))
    assert model.n_evaluations == 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_distinct_states_match_a_per_chain_unique(d):
    rng = np.random.default_rng(d)
    pool = rng.random((5, d))
    # few distinct rows, so rows repeat inside chains and across chains
    phi = pool[rng.integers(0, len(pool), size=(7, 12))]
    phi[3] = pool[0]  # one stuck chain
    expected = sum(len(np.unique(p, axis=0)) for p in phi)
    assert _distinct_states(phi) == expected
    assert _distinct_states(phi[:, 1:]) == sum(len(np.unique(p, axis=0)) for p in phi[:, 1:])
    assert _distinct_states(phi[:0]) == 0


def test_subset_simulation_gives_up_beyond_max_levels():
    model, _, specs = _toy()
    space = DesignSpace(((8.0, 9.0),))  # pf ~ 1e-16, unreachable in 3 levels
    with pytest.raises(ConvergenceError):
        subset_simulation(model, space, specs, 1000, 0.1,
                          Streams(np.random.SeedSequence(12)), max_levels=3)


def test_chain_params_validation():
    with pytest.raises(ValueError):
        ChainParams(burn_in=-1)
    with pytest.raises(ValueError):
        ChainParams(max_chains=0)
    with pytest.raises(ValueError):
        ChainParams(scale_factor=0.0)
