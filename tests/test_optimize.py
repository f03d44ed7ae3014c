"""Tests for the decoupled design optimizer and its mean-area objective."""

import numpy as np
import pytest
from scipy.stats import norm

from fpfkit.benchmarks import analytic_toy_fpf
from fpfkit.errors import InfeasibleProblemError
from fpfkit.model import DesignSpace
from fpfkit.optimize import (
    DesignProblem,
    OptimalDesign,
    StartRecord,
    objective_mean_area,
    optimize,
)


def _toy_problem(allowable: float) -> DesignProblem:
    space = DesignSpace(((0.0, 4.0),))
    return DesignProblem(
        objective=lambda phi: float(phi[0]),
        fpf=lambda phi: float(analytic_toy_fpf(phi[0])),
        space=space,
        allowable=allowable,
    )


# ------------------------------------------------------------- objective ---


def test_mean_area_of_a_hollow_section():
    assert objective_mean_area(np.array([40.0, 40.0])) == pytest.approx(304.0)
    assert objective_mean_area(np.array([30.0, 30.0])) == pytest.approx(224.0)
    # 10x20 with wall 1: 200 - 8*18
    assert objective_mean_area(np.array([10.0, 20.0]), wall=1.0) == pytest.approx(56.0)


def test_mean_area_rejects_sections_thinner_than_the_walls():
    with pytest.raises(ValueError, match="too small"):
        objective_mean_area(np.array([4.0, 10.0]))
    with pytest.raises(ValueError, match="too small"):
        objective_mean_area(np.array([10.0, 3.0]))


# --------------------------------------------------------------- problem ---


def test_problem_validation():
    space = DesignSpace(((0.0, 4.0),))
    for allowable in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError, match="allowable"):
            DesignProblem(lambda p: 0.0, lambda p: 0.0, space, allowable)


def test_feasibility_allows_the_stated_slack():
    problem = _toy_problem(0.01)
    assert problem.feasible(0.01)
    assert problem.feasible(0.01 * (1.0 + 1e-6))
    assert not problem.feasible(0.01 * (1.0 + 2e-6))


# -------------------------------------------------------------- 1-d runs ---


@pytest.mark.parametrize("allowable", [0.1, 0.01])
def test_minimum_design_sits_on_the_constraint_boundary(allowable):
    # objective increases in phi while the failure probability decreases, so
    # the optimum is the smallest phi meeting the allowable
    design = optimize(_toy_problem(allowable), np.random.SeedSequence(3))
    assert isinstance(design, OptimalDesign)
    assert design.phi[0] == pytest.approx(norm.isf(allowable), abs=1e-6)
    assert design.pf == pytest.approx(allowable, rel=1e-6)
    assert design.feasible
    assert design.active
    assert len(design.starts) == 11  # 3 grid + 8 random starts in 1-d


def test_starts_keep_a_margin_from_the_box_faces():
    design = optimize(_toy_problem(0.1), np.random.SeedSequence(3))
    starts = np.array([record.start[0] for record in design.starts])
    assert starts.min() >= 0.08
    assert starts.max() <= 3.92
    for record in design.starts:
        assert isinstance(record, StartRecord)
        assert record.n_iterations > 0


def test_optimize_is_deterministic_for_a_fixed_seed():
    first = optimize(_toy_problem(0.1), np.random.SeedSequence(3))
    second = optimize(_toy_problem(0.1), np.random.SeedSequence(3))
    assert np.array_equal(first.phi, second.phi)
    assert first.pf == second.pf
    default = optimize(_toy_problem(0.1))
    seeded = optimize(_toy_problem(0.1), np.random.SeedSequence(0))
    assert np.array_equal(default.phi, seeded.phi)


def test_loose_allowable_leaves_the_constraint_inactive():
    design = optimize(_toy_problem(0.9), np.random.SeedSequence(3))
    assert design.phi[0] == pytest.approx(0.0, abs=1e-6)
    assert design.pf == pytest.approx(0.5, rel=1e-9)
    assert design.feasible
    assert not design.active


def test_infeasible_problem_reports_the_least_violating_candidate():
    # the smallest attainable pf on [0, 4] is sf(4), far above 1e-6
    with pytest.raises(InfeasibleProblemError, match="no feasible design") as exc:
        optimize(_toy_problem(1e-6), np.random.SeedSequence(3))
    candidate = exc.value.best_candidate
    assert candidate.pf == pytest.approx(norm.sf(4.0), rel=1e-9)
    assert candidate.phi[0] == pytest.approx(4.0, abs=1e-9)
    assert not candidate.feasible


# -------------------------------------------------------------- 2-d runs ---


@pytest.mark.parametrize("allowable", [1e-2, 1e-3])
def test_area_minimization_drives_width_down_and_height_to_the_limit(allowable):
    # fpf depends on height only, so the width falls to its lower bound and
    # the height stops where the constraint becomes active
    space = DesignSpace(((30.0, 50.0), (30.0, 50.0)))
    problem = DesignProblem(
        objective=objective_mean_area,
        fpf=lambda phi: float(norm.sf(phi[1] - 30.0)),
        space=space,
        allowable=allowable,
    )
    design = optimize(problem, np.random.SeedSequence(9))
    assert design.phi[0] == pytest.approx(30.0, abs=1e-9)
    assert design.phi[1] == pytest.approx(30.0 + norm.isf(allowable), abs=1e-6)
    assert design.active
    assert len(design.starts) == 17  # 3x3 grid + 8 random starts
    assert design.objective == pytest.approx(
        objective_mean_area(design.phi), rel=1e-15
    )
