import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpfkit import pipeline
from fpfkit.benchmarks import ToyModel, toy_variable_specs
from fpfkit.bsp import bsp_estimate
from fpfkit.config import load_config
from fpfkit.errors import ConvergenceError, DegenerateThresholdError, RegionPopulationError
from fpfkit.model import DesignSpace
from fpfkit.pipeline import (
    BSPParams,
    FPFApproximation,
    PipelineConfig,
    RegionChainResult,
    build_level,
    compose_density,
    run_pipeline,
    threshold_from_ratio,
)
from fpfkit.regions import RegionIndicator, box_volumes
from helpers import (
    disjoint_volume_check,
    reference_compose_density,
    reference_level_cells,
    reference_pdf,
    toy_pf_exact,
)
from fpfkit.reliability import BURN_IN, direct_mcs
from fpfkit.runner import run_command
from fpfkit.streams import Streams
from tests.conftest import REPO_ROOT


def test_threshold_splits_off_the_lowest_density_mass():
    masses = np.array([0.4, 0.3, 0.15, 0.1, 0.05])
    densities = np.array([5.0, 3.0, 2.0, 1.0, 0.5])
    p_star, realized, low = threshold_from_ratio(masses, densities, 0.1)
    # cells at density 0.5 and 1.0 accumulate 0.15, first reaching 0.1
    assert p_star == 2.0
    assert realized == pytest.approx(0.15)
    assert low.tolist() == [False, False, False, True, True]


def test_threshold_groups_density_ties():
    masses = np.array([0.05, 0.05, 0.2, 0.7])
    densities = np.array([1.0, 1.0, 2.0, 3.0])
    p_star, realized, low = threshold_from_ratio(masses, densities, 0.1)
    assert p_star == 2.0
    assert realized == pytest.approx(0.1)
    assert low.tolist() == [True, True, False, False]


def test_threshold_validation():
    with pytest.raises(ValueError):
        threshold_from_ratio(np.array([1.0, 0.0]), np.array([1.0]), 0.1)
    with pytest.raises(ValueError):
        threshold_from_ratio(np.array([0.5, 0.5]), np.array([1.0, 2.0]), 1.0)
    with pytest.raises(DegenerateThresholdError, match="distinct"):
        threshold_from_ratio(np.array([1.0]), np.array([2.0]), 0.1)
    with pytest.raises(DegenerateThresholdError, match="distinct"):
        threshold_from_ratio(np.array([0.5, 0.5]), np.array([2.0, 2.0]), 0.1)
    # the running mass reaches the ratio only at the very last cell
    with pytest.raises(DegenerateThresholdError, match="every cell"):
        threshold_from_ratio(np.array([0.02, 0.98]), np.array([1.0, 2.0]), 0.1)


@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=12),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.05, max_value=0.5),
)
def test_threshold_invariants_on_random_inputs(raw_masses, seed, ratio):
    """Low cells sit strictly below the threshold, the rest at or above it,
    and the split mass reaches the requested ratio."""
    masses = np.array(raw_masses)
    masses = masses / masses.sum()
    densities = np.round(np.random.default_rng(seed).uniform(0.5, 4.0, masses.size), 2)
    try:
        p_star, realized, low = threshold_from_ratio(masses, densities, ratio)
    except DegenerateThresholdError:
        return
    assert low.any() and not low.all()
    assert densities[low].max() < p_star
    assert densities[~low].min() == p_star
    assert realized == pytest.approx(float(masses[low].sum()))
    assert realized >= ratio - 1e-12


def test_level_weights_are_cumulative_products(toy_case):
    # P(D_k | F): a leading 1, then the running product of the split ratios
    chain = toy_case.chain
    want = [1.0]
    for ratio in chain.ratios:
        want.append(want[-1] * ratio)
    assert list(chain.weights) == want
    assert len(chain.weights) == len(chain.levels) + 1


def _synthetic_level():
    rng = np.random.default_rng(42)
    pts = np.clip(rng.normal(0.35, 0.2, size=(600, 2)), 0.0, 0.999)
    raw = bsp_estimate(pts, (0.0, 0.0), (1.0, 1.0), np.random.default_rng(5))
    region = RegionIndicator(
        [[[0.0, 0.0], [0.6, 1.0]], [[0.6, 0.0], [1.0, 0.5]]], (1.0, 1.0)
    )
    return build_level(0, region, raw, 1.0, 0.1, ()), raw, region


def test_build_level_restricts_and_renormalizes():
    level, raw, region = _synthetic_level()
    assert abs(sum(level.masses.tolist()) - 1.0) < 1e-12
    assert 0.0 < level.captured <= 1.0
    n_cells = level.masses.size
    assert level.pieces.shape[1:] == (2, 2)
    assert level.piece_cell.tolist() == sorted(level.piece_cell.tolist())
    assert set(level.piece_cell.tolist()) == set(range(n_cells))
    for c in range(n_cells):
        pieces = level.pieces[level.piece_cell == c]
        assert disjoint_volume_check(pieces)
        assert level.volumes[c] == pytest.approx(box_volumes(pieces).sum())
    # each piece lies inside one region box: clipping returns it unchanged
    piece_leaf, clipped = region.clip(level.pieces[:, 0], level.pieces[:, 1])
    assert piece_leaf.tolist() == list(range(len(level.pieces)))
    assert np.array_equal(clipped, level.pieces)
    # cell densities are the raw leaf densities scaled by captured mass
    for c in range(n_cells):
        first = level.pieces[np.argmax(level.piece_cell == c)]
        probe = 0.5 * (first[0] + first[1])
        density = level.densities[c]
        assert density == pytest.approx(reference_pdf(raw, probe) / level.captured, rel=1e-12)


def test_build_level_split_tiles_the_region():
    level, _, region = _synthetic_level()
    vol = box_volumes(level.low_region.boxes).sum() + box_volumes(level.high_region.boxes).sum()
    assert vol == pytest.approx(box_volumes(region.boxes).sum(), rel=1e-12)
    assert disjoint_volume_check(
        np.concatenate([level.low_region.boxes, level.high_region.boxes])
    )
    assert level.ratio == pytest.approx(level.masses[level.low_mask].sum())
    assert 0.0 < level.ratio < 1.0
    # low cells are exactly those below the threshold density
    assert level.low_mask.tolist() == (level.densities < level.threshold).tolist()


def test_build_level_needs_overlap():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.0, 1.0, size=(100, 2))
    raw = bsp_estimate(pts, (0.0, 0.0), (1.0, 1.0), np.random.default_rng(1))
    far = RegionIndicator([[[2.0, 2.0], [3.0, 3.0]]], (3.0, 3.0))
    with pytest.raises(RuntimeError, match="captured"):
        build_level(0, far, raw, 1.0, 0.1, ())


def _assert_levels_match_the_clipping_reference(case):
    for level in case.chain.levels:
        ref = reference_level_cells(level.region, level.raw, case.config.pipeline.mass_ratio)
        assert level.pieces.tolist() == ref.pieces.tolist()
        assert level.piece_cell.tolist() == ref.piece_cell.tolist()
        assert level.volumes.tolist() == ref.volumes.tolist()
        assert level.masses.tolist() == ref.masses.tolist()
        assert level.densities.tolist() == ref.densities.tolist()
        assert level.low_mask.tolist() == ref.low_mask.tolist()
        assert level.low_region.boxes.tolist() == ref.low_boxes.tolist()
        assert level.high_region.boxes.tolist() == ref.high_boxes.tolist()


@pytest.mark.parametrize("case_name", ["toy_case", "beam_case"])
def test_build_level_matches_the_per_leaf_clipping_reference(case_name, request):
    """Every level's cells and split regions equal, value for value, those of
    clipping each leaf against each region box one pair at a time."""
    _assert_levels_match_the_clipping_reference(request.getfixturevalue(case_name))


def test_toy_rare_build_level_matches_the_per_leaf_clipping_reference(toy_rare_case):
    _assert_levels_match_the_clipping_reference(toy_rare_case)


def test_toy_chain_bookkeeping(toy_case):
    chain = toy_case.chain
    assert [level.index for level in chain.levels] == list(range(len(chain.levels)))
    # each level continues exactly from the previous level's low region
    for prev, nxt in zip(chain.levels, chain.levels[1:]):
        assert nxt.region is prev.low_region
    for level, w in zip(chain.levels, chain.weights):
        assert level.weight == pytest.approx(w)
    # evaluation ledger: pilot + one entry per iteration + total
    keys = set(chain.evaluations)
    expect = {"pilot", "total"} | {f"level_{k + 1}" for k in range(chain.n_iterations)}
    assert keys == expect
    assert chain.evaluations["total"] == sum(
        v for k, v in chain.evaluations.items() if k != "total"
    )
    assert toy_case.model.n_evaluations == chain.evaluations["total"]
    assert len(chain.regions) == chain.n_iterations + 2


def test_composite_density_uses_the_deepest_level(toy_case):
    chain = toy_case.chain
    deepest = chain.levels[-1]
    phi = 0.5 * (deepest.pieces[0, 0] + deepest.pieces[0, 1])
    assert compose_density(chain, [phi])[0] == pytest.approx(
        deepest.weight * reference_pdf(deepest.raw, phi) / deepest.captured
    )
    # a point of the first level's high region never reaches deeper levels
    first = chain.levels[0]
    high = first.pieces[~first.low_mask[first.piece_cell]][0]
    phi0 = 0.5 * (high[0] + high[1])
    assert compose_density(chain, [phi0])[0] == pytest.approx(
        reference_pdf(first.raw, phi0) / first.captured
    )
    assert compose_density(chain, np.array([[99.0]])).tolist() == [0.0]


@pytest.mark.parametrize("case_name", ["toy_case", "beam_case"])
def test_the_composite_table_tiles_the_space_and_integrates_to_one(case_name, request):
    """The table holds the pieces ``regions`` lists; they tile the design
    space, and value times volume sums to the composite mass."""
    case = request.getfixturevalue(case_name)
    table, values = case.chain.composite
    assert len(table.boxes) == sum(len(region.boxes) for region in case.chain.regions)
    assert disjoint_volume_check(table.boxes)
    volumes = box_volumes(table.boxes)
    assert volumes.sum() == pytest.approx(case.space.volume, rel=1e-12)
    assert float(np.sum(values * volumes)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("case_name", ["toy_case", "beam_case"])
def test_batch_composite_density_matches_the_per_point_reference(case_name, request):
    """Rows through the batch lookup equal the point-by-point deepest-level
    rule bit for bit, on cut faces and on the domain's upper face too."""
    case = request.getfixturevalue(case_name)
    levels = case.chain.levels
    probes = [case.space.upper, case.space.lower]
    for level in levels:
        for lo, hi in level.raw.partition.boxes:
            probes += [lo, hi, 0.5 * (lo + hi)]
        probes += list(level.pieces[:, 0]) + list(level.pieces[:, 1])
    upper_face = np.array(probes, dtype=float)
    upper_face[:, 0] = case.space.upper[0]
    rng = np.random.default_rng(0)
    widths = case.space.upper - case.space.lower
    inside = case.space.lower + widths * rng.uniform(-0.05, 1.05, size=(500, case.space.ndim))
    rows = np.vstack([np.array(probes, dtype=float), upper_face, inside])
    want = [reference_compose_density(levels, x) for x in rows]
    assert compose_density(case.chain, rows).tolist() == want


def test_fpf_approximation_scales_and_vectorizes(toy_case):
    approx = toy_case.approx
    chain = toy_case.chain
    space = toy_case.space
    phis = np.linspace(0.2, 3.8, 7)[:, None]
    vals = approx.fpf(phis)
    assert vals.shape == (7,)
    for phi, v in zip(phis, vals):
        dens = compose_density(chain, phi[None, :])[0]
        assert v == pytest.approx(dens * chain.pf * space.volume)
        assert approx.fpf(phi[None, :])[0] == pytest.approx(v)
    assert np.all(vals > 0.0)


def test_pipeline_escalates_pilot_to_subset_simulation():
    """Rare-event toy box: the pilot sees no failures and switches over."""
    model = ToyModel()
    space = DesignSpace(((3.0, 4.0),))
    cfg = PipelineConfig(pilot_budget=2000, iteration_budget=2000, max_iterations=2)
    chain, approx = run_pipeline(
        model, space, toy_variable_specs(), cfg, Streams(np.random.SeedSequence(4))
    )
    assert chain.pilot.method == "subset-simulation"
    exact = float(toy_pf_exact(3.0, 4.0))
    assert 0.5 * exact < chain.pf < 2.0 * exact
    assert chain.stopping in ("threshold-floor", "iteration-cap")
    assert approx.fpf(np.array([[3.0]]))[0] > 0.0


def test_pipeline_escalates_a_pilot_with_a_single_failure():
    """One pilot failure cannot seed a density estimate (2·d are needed), so
    the run switches to subset simulation instead of aborting."""
    model = ToyModel()
    space = DesignSpace(((3.0, 4.0),))
    specs = toy_variable_specs()
    streams = Streams(np.random.SeedSequence(5))
    pilot = direct_mcs(model, space, specs, 2000, Streams(np.random.SeedSequence(5)).generator())
    assert len(pilot.samples) == 1
    cfg = PipelineConfig(pilot_budget=2000, iteration_budget=2000, max_iterations=2)
    chain, approx = run_pipeline(model, space, specs, cfg, streams)
    assert chain.pilot.method == "subset-simulation"
    assert len(chain.pilot.samples) >= 2
    exact = float(toy_pf_exact(3.0, 4.0))
    assert 0.5 * exact < chain.pf < 2.0 * exact
    assert approx.fpf(np.array([[3.0]]))[0] > 0.0


@pytest.mark.parametrize(
    "seed",
    [
        1900002,  # wraps a repeated chain state in leaves a few ulps wide
        3500000,  # the pilot sees exactly one failure
    ],
)
def test_toy_rare_runs_that_once_crashed_finish_under_subset_simulation(tmp_path, seed):
    config = load_config(REPO_ROOT / "bench" / "toy_rare.yaml").with_seed(seed)
    manifest = run_command(config, tmp_path, base_dir=REPO_ROOT / "bench")
    assert manifest["chain"]["pilot_method"] == "subset-simulation"


def test_pipeline_raises_when_even_subset_finds_nothing():
    model = ToyModel()
    space = DesignSpace(((8.0, 9.0),))
    cfg = PipelineConfig(pilot_budget=1000, iteration_budget=1000, max_iterations=1)
    with pytest.raises(ConvergenceError):
        run_pipeline(model, space, toy_variable_specs(), cfg, Streams(np.random.SeedSequence(0)))


def test_pipeline_rejects_degenerate_first_level():
    """A single-leaf estimate carries no density contrast to split on."""
    model = ToyModel()
    space = DesignSpace(((0.0, 4.0),))
    cfg = PipelineConfig(
        pilot_budget=500, iteration_budget=500, max_iterations=1,
        bsp=BSPParams(max_leaves=1),
    )
    with pytest.raises(DegenerateThresholdError):
        run_pipeline(model, space, toy_variable_specs(), cfg, Streams(np.random.SeedSequence(1)))


def test_pipeline_requires_budget_beyond_burn_in():
    model = ToyModel()
    space = DesignSpace(((0.0, 4.0),))
    cfg = PipelineConfig(pilot_budget=500, iteration_budget=5, max_iterations=1)
    assert cfg.iteration_budget <= BURN_IN
    with pytest.raises(ConvergenceError, match="burn-in"):
        run_pipeline(model, space, toy_variable_specs(), cfg, Streams(np.random.SeedSequence(1)))


def test_pipeline_aborts_with_the_levels_built_when_a_region_has_no_seed(monkeypatch):
    """The real ``populate_region`` finds no seed for level 2, so the run
    stops with levels 0 and 1 in an "aborted" result."""
    real = pipeline.populate_region
    regions = []

    def no_seed_at_level_2(prev, region, *args):
        regions.append(region)
        return real(prev[:0] if len(regions) == 2 else prev, region, *args)

    monkeypatch.setattr(pipeline, "populate_region", no_seed_at_level_2)
    cfg = PipelineConfig(
        pilot_budget=2000, iteration_budget=2000, max_iterations=3, pf_floor=1e-12
    )
    with pytest.raises(RegionPopulationError, match="level-2") as exc:
        run_pipeline(ToyModel(), DesignSpace(((0.0, 4.0),)), toy_variable_specs(), cfg,
                     Streams(np.random.SeedSequence(3)))
    partial = exc.value.partial
    assert isinstance(partial, RegionChainResult)
    assert partial.stopping == "aborted"
    assert [level.index for level in partial.levels] == [0, 1]
    assert partial.levels[1].region is regions[0]
    assert partial.levels[1].low_region is regions[1]
    assert set(partial.evaluations) == {"pilot", "level_1"}
    assert isinstance(exc.value.__cause__, RegionPopulationError)


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(pilot_budget=0)
    with pytest.raises(ValueError):
        PipelineConfig(max_iterations=-1)
    with pytest.raises(ValueError):
        PipelineConfig(mass_ratio=1.0)
    with pytest.raises(ValueError):
        PipelineConfig(pf_floor=0.0)
