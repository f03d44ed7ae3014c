"""Whole-workflow acceptance checks.

Covers the estimator's hand-computed score values, accuracy of both FPF
surfaces against analytic and brute-force references inside fixed evaluation
budgets, chain structure and normalization, sampler stationarity, analytic
gradients, and byte-level reproducibility of the artifact tree.
"""

import csv
import math

import numpy as np
import pytest
from scipy import stats

from fpfkit.artifacts import load_oracle_csv
from fpfkit.benchmarks import (
    ToyModel,
    analytic_toy_fpf,
    toy_design_space,
    toy_variable_specs,
)
from fpfkit.optimize import optimize
from fpfkit.pipeline import compose_density
from fpfkit.reliability import _chains, direct_mcs
from fpfkit.runner import compare_command, run_command
from fpfkit.streams import Streams
from helpers import log_partition_score, propose_cut, root_partition
from tests.conftest import CONFIG_DIR

from fpfkit.config import load_config


# ------------------------------------------------------ estimator hand values ---


def test_partition_scores_match_hand_computed_values():
    # two points on the unit interval, alpha = 0.5, beta = 1: the uncut
    # domain scores e^-1 and the midpoint cut scores e^-2 / 2
    points = np.array([[0.25], [0.75]])
    root = root_partition(points, (0.0,), (1.0,))
    assert math.exp(log_partition_score(root, alpha=0.5, beta=1.0)) == pytest.approx(
        math.exp(-1.0), abs=1e-9
    )
    cut = propose_cut(root, 0, 0)
    assert math.exp(log_partition_score(cut, alpha=0.5, beta=1.0)) == pytest.approx(
        0.5 * math.exp(-2.0), abs=1e-9
    )


# ------------------------------------------------------------- toy benchmark ---


def test_toy_run_tracks_the_analytic_curve_within_budget(toy_case):
    assert toy_case.chain.evaluations["total"] <= 40000

    resolution = toy_case.config.output.fpf_grid_resolution
    phis = np.linspace(0.0, 4.0, resolution)
    exact = analytic_toy_fpf(phis[:, None])
    judged = exact >= 1e-4
    assert judged.sum() >= 10

    composite = toy_case.approx.fpf(phis[:, None])
    smoothed = toy_case.smoothed(phis[:, None])
    for name, values in (("composite", composite), ("smoothed", smoothed)):
        assert np.all(values[judged] > 0), name
        err = np.abs(np.log10(values[judged] / exact[judged]))
        assert err.max() <= 0.3, f"{name} off by {err.max():.3f} decades"


@pytest.mark.parametrize("allowable", [1e-1, 1e-2, 1e-3])
def test_toy_optima_sit_near_the_analytic_boundary(toy_case, allowable):
    # minimizing phi subject to FPF(phi) <= allowable has the analytic
    # solution isf(allowable); the fitted surface must land within 0.15
    found = optimize(
        lambda phi: np.sum(phi, axis=-1), toy_case.smoothed, toy_case.space, [allowable],
        [np.random.default_rng(np.random.SeedSequence(7))],
    )
    (best,) = found.best
    assert found.feasible[0, best]
    assert abs(found.phi[0, best, 0] - stats.norm.isf(allowable)) <= 0.15


# ------------------------------------------------------------ beam benchmark ---


def test_beam_run_stays_inside_its_budget_and_structure(beam_case):
    chain = beam_case.chain
    assert chain.evaluations["total"] <= 40000
    assert 2 <= chain.n_iterations <= 4
    assert len(chain.regions) == chain.n_iterations + 2
    assert chain.stopping in (
        "iteration-cap", "threshold-floor", "degenerate-threshold",
    )
    assert 0.0 < chain.pf < 1.0


def test_beam_oracle_is_brute_force_scale_and_matches_the_run(
    beam_oracle_dir, beam_run_dir, tmp_path
):
    oracle = load_oracle_csv(beam_oracle_dir / "oracle.csv")
    assert oracle.total_evaluations >= 5e7  # one run, fifty million evaluations
    assert np.all(oracle.n >= 1e5)

    passed, summary = compare_command(beam_run_dir, beam_oracle_dir / "oracle.csv", tmp_path)
    assert passed
    assert summary["n_judged"] >= 50
    assert summary["fraction_within"] >= 0.9


def _read_optima(run_dir):
    with open(run_dir / "optima.csv", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "expects optimal heights to shrink as the allowable tightens, a "
        "pattern the mean-area objective cannot produce: area grows with "
        "height at a fixed wall thickness, and a tighter allowable only "
        "pushes the feasible heights upward"
    ),
)
def test_beam_optimal_heights_shrink_as_the_allowable_tightens(beam_run_dir):
    rows = _read_optima(beam_run_dir)
    allowables = [float(r["allowable"]) for r in rows]
    assert allowables == sorted(allowables, reverse=True)
    widths = [float(r["phi_1"]) for r in rows]
    heights = [float(r["phi_2"]) for r in rows]
    assert widths == pytest.approx([30.0] * len(rows), abs=1e-6)
    assert all(b > a for a, b in zip(heights[1:], heights))  # strictly decreasing


def test_beam_optimal_heights_climb_as_the_allowable_tightens(beam_run_dir):
    rows = _read_optima(beam_run_dir)
    allowables = [float(r["allowable"]) for r in rows]
    assert allowables == sorted(allowables, reverse=True)
    widths = [float(r["phi_1"]) for r in rows]
    heights = [float(r["phi_2"]) for r in rows]
    assert widths == pytest.approx([30.0] * len(rows), abs=1e-6)
    assert all(b > a for a, b in zip(heights, heights[1:]))  # strictly increasing
    assert all(r["feasible"] == "1" and r["active"] == "1" for r in rows)


# ----------------------------------------------------------- normalization ---


@pytest.mark.parametrize("case_name", ["toy_case", "beam_case"])
def test_levels_normalize_and_the_composite_integrates_to_one(case_name, request):
    case = request.getfixturevalue(case_name)
    levels = case.chain.levels
    for level in levels:
        assert abs(level.raw.masses.sum() - 1.0) <= 1e-12
        assert abs(sum(level.masses.tolist()) - 1.0) <= 1e-12

    # re-derive the total probability by integrating the composite density
    # piece by piece: it is constant on each retained rectangular piece
    total = 0.0
    last_index = levels[-1].index
    for level in levels:
        for piece, cell in zip(level.pieces, level.piece_cell):
            if level.low_mask[cell] and level.index != last_index:
                continue
            value = compose_density(case.chain, [0.5 * (piece[0] + piece[1])])[0]
            total += value * float(np.prod(piece[1] - piece[0]))
    assert total == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------------- chain stationarity ---


def test_chain_states_reach_the_conditional_failure_distribution():
    """A long conditional chain seeded from pilot failures must produce
    theta draws whose conditional CDF transform is uniform (KS at 1%)."""
    model = ToyModel()
    space = toy_design_space()
    specs = toy_variable_specs()
    streams = Streams(np.random.SeedSequence(2024))

    pilot = direct_mcs(model, space, specs, 4000, streams.generator())
    seeds = pilot.samples
    assert len(seeds) > 300

    # proposal scales from every pilot failure, one chain from the first
    states = _chains(
        seeds, np.arange(1), space.region(), model, space, specs, 210000, streams
    )[0]
    kept = states[10000::20]
    assert len(kept) == 10000

    kp = kept.phi[:, 0]
    kt = kept.theta[:, 0]
    # theta | phi is a normal truncated to [phi, inf), so this transform is
    # uniform on (0, 1) at stationarity
    u = (stats.norm.cdf(kt) - stats.norm.cdf(kp)) / stats.norm.sf(kp)
    assert np.all((u >= 0) & (u <= 1))
    result = stats.kstest(u, "uniform")
    assert result.pvalue >= 0.01


# ----------------------------------------------------------------- gradients ---


@pytest.mark.parametrize(
    "case_name,step,seed",
    [("toy_case", 1e-4, 101), ("beam_case", 1e-3, 202)],
)
def test_smoothed_gradients_match_finite_differences(case_name, step, seed, request):
    case = request.getfixturevalue(case_name)
    smoothed = case.smoothed
    space = case.space
    rng = np.random.default_rng(seed)
    margin = 0.01 * (space.upper - space.lower)
    points = rng.uniform(
        space.lower + margin, space.upper - margin, size=(100, space.ndim)
    )
    gradients = smoothed.gradient(points)
    fds = np.empty_like(gradients)
    for d in range(space.ndim):
        e = np.zeros(space.ndim)
        e[d] = step
        fds[:, d] = (smoothed(points + e) - smoothed(points - e)) / (2 * step)
    for analytic, fd in zip(gradients, fds):
        tol = 1e-4 * max(np.linalg.norm(analytic), 1e-12)
        assert np.linalg.norm(fd - analytic) <= tol


# ------------------------------------------------------------ reproducibility ---


def test_fixed_seed_runs_reproduce_byte_identical_artifacts(
    toy_run_dir, tmp_path
):
    rerun = tmp_path / "rerun"
    run_command(load_config(CONFIG_DIR / "toy.yaml"), rerun, base_dir=CONFIG_DIR)

    first = {
        str(p.relative_to(toy_run_dir)): p
        for p in sorted(toy_run_dir.rglob("*")) if p.is_file()
    }
    second = {
        str(p.relative_to(rerun)): p
        for p in sorted(rerun.rglob("*")) if p.is_file()
    }
    assert set(first) == set(second)
    assert "manifest.json" in first
    for rel in first:
        assert first[rel].read_bytes() == second[rel].read_bytes(), rel
