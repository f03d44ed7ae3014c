"""Tests for the decoupled design optimizer and its mean-area objective."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import norm

from fpfkit.benchmarks import analytic_toy_fpf, objective_mean_area
from fpfkit.config import load_config
from fpfkit.model import DesignSpace
from fpfkit.optimize import Optima, _nelder_mead, _penalized, _starts, optimize
from fpfkit.runner import _objective_for, run_command

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
CONFIG_DIR = SRC_DIR.parent / "configs"


def _toy(allowables, seed: int = 3) -> Optima:
    """minimize phi on [0, 4] under the toy's exact FPF, one stream per
    allowable"""
    return optimize(
        lambda phi: phi[:, 0], analytic_toy_fpf, DesignSpace(((0.0, 4.0),)), allowables,
        [np.random.default_rng(seed) for _ in allowables],
    )


def _reported(found: Optima, k: int = 0) -> dict:
    """Allowable ``k``'s reported end point, checked against the selection
    rule one start at a time: the least (objective, phi) among the feasible
    end points, else the first with the least pf."""
    starts = range(found.phi.shape[1])
    feasible = [j for j in starts if found.feasible[k, j]]
    if feasible:
        want = min(feasible, key=lambda j: (found.objective[k, j], tuple(found.phi[k, j])))
    else:
        want = min(starts, key=lambda j: found.pf[k, j])
    assert found.best[k] == want
    return {
        "phi": found.phi[k, want], "objective": found.objective[k, want],
        "pf": found.pf[k, want], "feasible": found.feasible[k, want],
        "active": found.active[k],
    }


# ------------------------------------------------------------- objective ---


def test_mean_area_of_a_hollow_section():
    areas = objective_mean_area(np.array([[40.0, 40.0], [30.0, 30.0]]))
    assert areas.tolist() == pytest.approx([304.0, 224.0])
    # 10x20 with wall 1: 200 - 8*18
    assert objective_mean_area(np.array([[10.0, 20.0]]), wall=1.0) == pytest.approx([56.0])


def test_mean_area_rejects_sections_thinner_than_the_walls():
    with pytest.raises(ValueError, match="too small"):
        objective_mean_area(np.array([[4.0, 10.0]]))
    with pytest.raises(ValueError, match="too small"):
        objective_mean_area(np.array([[10.0, 3.0]]))
    with pytest.raises(ValueError, match="3.0 x 10.0 too small"):
        objective_mean_area(np.array([[10.0, 10.0], [3.0, 10.0]]))


# ----------------------------------------------------------- allowables ---


def test_problem_validation():
    for allowable in (0.0, 1.0, 1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="allowable failure probability"):
            _toy([0.1, allowable])


def test_feasibility_allows_the_stated_slack():
    pf = np.array([[0.01, 0.01 * (1.0 + 1e-6), 0.01 * (1.0 + 2e-6)]])
    found = Optima(
        np.array([0.01]), np.zeros((1, 3, 1)), np.zeros((1, 3, 1)), np.zeros((1, 3)), pf,
        np.ones((1, 3), dtype=int),
    )
    assert found.feasible.tolist() == [[True, True, False]]


# -------------------------------------------------------------- 1-d runs ---


@pytest.mark.parametrize("allowable", [0.1, 0.01])
def test_minimum_design_sits_on_the_constraint_boundary(allowable):
    # objective increases in phi while the failure probability decreases, so
    # the optimum is the smallest phi meeting the allowable
    found = _toy([allowable])
    assert isinstance(found, Optima)
    # 3 grid + 8 random starts in 1-d
    assert found.start.shape == found.phi.shape == (1, 11, 1)
    assert found.objective.shape == found.pf.shape == found.n_iterations.shape == (1, 11)
    design = _reported(found)
    assert design["phi"][0] == pytest.approx(norm.isf(allowable), abs=1e-6)
    assert design["pf"] == pytest.approx(allowable, rel=1e-6)
    assert design["feasible"]
    assert design["active"]


def test_starts_keep_a_margin_from_the_box_faces():
    found = _toy([0.1])
    assert found.start.min() >= 0.08
    assert found.start.max() <= 3.92
    assert np.all(found.n_iterations > 0)


def test_optimize_is_deterministic_for_a_fixed_seed():
    first, second = _toy([0.1]), _toy([0.1])
    assert np.array_equal(first.phi, second.phi)
    assert np.array_equal(first.pf, second.pf)


def test_loose_allowable_leaves_the_constraint_inactive():
    design = _reported(_toy([0.9]))
    assert design["phi"][0] == pytest.approx(0.0, abs=1e-6)
    assert design["pf"] == pytest.approx(0.5, rel=1e-9)
    assert design["feasible"]
    assert not design["active"]


def test_infeasible_problem_reports_the_least_violating_candidate():
    # the smallest attainable pf on [0, 4] is sf(4), far above 1e-6
    found = _toy([1e-6])
    design = _reported(found)
    assert design["pf"] == pytest.approx(norm.sf(4.0), rel=1e-9)
    assert design["phi"][0] == pytest.approx(4.0, abs=1e-9)
    assert not design["feasible"]
    assert not design["active"]
    assert not found.feasible.any()
    assert design["pf"] == found.pf.min()


# ------------------------------------------------------- selection rule ---


def _phi_1_under(fpf, allowable: float) -> Optima:
    """minimize phi_1 on [1, 2] x [0, 1]: the objective ignores phi_2, so
    the starts end with equal phi_1 wherever phi_2 stops"""
    return optimize(
        lambda phi: phi[:, 0], fpf, DesignSpace(((1.0, 2.0), (0.0, 1.0))), [allowable],
        [np.random.default_rng(4)],
    )


def test_equal_objectives_report_the_lexicographically_smallest_phi():
    # an FPF below the allowable everywhere puts every phi_1 at its bound
    found = _phi_1_under(lambda phi: np.full(len(phi), 1e-3), 1e-2)
    assert found.feasible.all()
    assert np.all(found.objective == 1.0)
    assert len(np.unique(found.phi[0, :, 1])) > 1  # the ties differ in phi_2
    phi = _reported(found)["phi"]
    assert tuple(phi.tolist()) == min(map(tuple, found.phi[0].tolist()))
    assert found.best[0] > 0  # not merely the first start


def test_an_allowable_no_start_meets_reports_its_first_least_pf_start():
    # pf ties at every end point, so the first start is reported
    found = _phi_1_under(lambda phi: np.full(len(phi), 0.5), 1e-2)
    assert not found.feasible.any()
    assert found.best.tolist() == [0]
    assert not _reported(found)["active"]
    # pf 2e-6 below phi_2 = 0.5 and 1e-6 above: the first start above is reported
    found = _phi_1_under(lambda phi: np.where(phi[:, 1] < 0.5, 2e-6, 1e-6), 1e-7)
    above = np.flatnonzero(found.phi[0, :, 1] >= 0.5)
    assert 0 < above[0] and len(above) > 1
    assert found.best.tolist() == [above[0]]
    assert not _reported(found)["feasible"]


# -------------------------------------------------------------- 2-d runs ---


@pytest.mark.parametrize("allowable", [1e-2, 1e-3])
def test_area_minimization_drives_width_down_and_height_to_the_limit(allowable):
    # fpf depends on height only, so the width falls to its lower bound and
    # the height stops where the constraint becomes active
    found = optimize(
        objective_mean_area, lambda phi: norm.sf(phi[:, 1] - 30.0),
        DesignSpace(((30.0, 50.0), (30.0, 50.0))), [allowable], [np.random.default_rng(9)],
    )
    design = _reported(found)
    assert design["phi"][0] == pytest.approx(30.0, abs=1e-9)
    assert design["phi"][1] == pytest.approx(30.0 + norm.isf(allowable), abs=1e-6)
    assert design["active"]
    assert found.phi.shape == (1, 17, 2)  # 3x3 grid + 8 random starts
    assert design["objective"] == pytest.approx(
        objective_mean_area(design["phi"][None, :])[0], rel=1e-15
    )


# ----------------------------------------------- many allowables at once ---


def _assert_together_equals_alone(case, mixed):
    """One search over a case's allowables equals one search per allowable;
    ``mixed`` puts allowables no start can meet between the config's."""
    objective = _objective_for(case.model)
    allowables = list(case.config.optimization.allowable)
    reachable = [True] * len(allowables)
    if mixed:
        # 1e-9 of the least FPF at the starts lies far below the FPF
        # anywhere on the box, so no start can end feasible
        least_fpf = float(case.smoothed(_starts(case.space, np.random.default_rng(0))).min())
        allowables = [1e-9 * least_fpf, allowables[0], 1e-12 * least_fpf, allowables[-1]]
        reachable = [False, True, False, True]
    seqs = np.random.SeedSequence(5).spawn(len(allowables))

    def search(allowables, seqs):
        rngs = [np.random.default_rng(seq) for seq in seqs]
        return optimize(objective, case.smoothed, case.space, allowables, rngs)

    together = search(allowables, seqs)
    assert together.phi.shape[0] == len(allowables)
    for k, (allowable, seq, feasible) in enumerate(zip(allowables, seqs, reachable)):
        alone = search([allowable], [seq])
        for name in ("start", "phi", "objective", "pf", "n_iterations", "feasible"):
            assert getattr(together, name)[k].tolist() == getattr(alone, name)[0].tolist(), name
        assert (together.best[k], together.active[k]) == (alone.best[0], alone.active[0])
        design = _reported(together, k)
        assert design["feasible"] == feasible
        if not feasible:
            assert not design["active"]
            assert design["pf"] == together.pf[k].min()


@pytest.mark.parametrize("mixed", [False, True], ids=["config", "mixed"])
def test_searching_toy_problems_together_equals_searching_each_alone(toy_case, mixed):
    _assert_together_equals_alone(toy_case, mixed)


@pytest.mark.parametrize("mixed", [False, True], ids=["config", "mixed"])
def test_searching_beam_problems_together_equals_searching_each_alone(beam_case, mixed):
    _assert_together_equals_alone(beam_case, mixed)


@pytest.mark.parametrize("mixed", [False, True], ids=["config", "mixed"])
def test_searching_toy_rare_problems_together_equals_searching_each_alone(toy_rare_case, mixed):
    _assert_together_equals_alone(toy_rare_case, mixed)


def test_problems_searched_together_share_objective_fpf_and_space():
    # one objective, FPF and space serve every allowable; each needs its own
    # generator
    with pytest.raises(ValueError, match="one generator each"):
        optimize(
            lambda phi: phi[:, 0], analytic_toy_fpf, DesignSpace(((0.0, 4.0),)), [0.1],
            [np.random.default_rng(0), np.random.default_rng(1)],
        )
    with pytest.raises(ValueError, match="one or more allowables"):
        _toy([])


def test_a_run_searches_all_its_allowables_in_one_nelder_mead_call(
    toy_run_dir, tmp_path, monkeypatch
):
    optimize_module = importlib.import_module("fpfkit.optimize")
    calls = []
    inner = optimize_module._nelder_mead

    def counted(f, x0, *args, **kwargs):
        calls.append(len(x0))
        return inner(f, x0, *args, **kwargs)

    monkeypatch.setattr(optimize_module, "_nelder_mead", counted)
    config = load_config(CONFIG_DIR / "toy.yaml")
    assert len(config.optimization.allowable) == 3
    run_command(config, tmp_path, base_dir=CONFIG_DIR)
    assert calls == [3 * 11]  # 3 allowables x (3 grid + 8 random starts)
    assert (tmp_path / "optima.csv").read_bytes() == (toy_run_dir / "optima.csv").read_bytes()


# ------------------------------------------- lockstep port against SciPy ---


def _assert_port_matches_scipy(f, starts, lower, upper, xatol, fatol=1e-10, maxiter=2000):
    """Every start ends at SciPy's bounded Nelder-Mead ``x`` and ``nit`` on
    its own function ``f(rows, start index)``, compared with ``==``; returns
    the port's iteration counts."""
    x, nit = _nelder_mead(f, starts, lower, upper, xatol, fatol, maxiter)
    assert x.shape == starts.shape and nit.shape == (len(starts),)
    for i, start in enumerate(starts):
        res = minimize(
            lambda point: float(f(point[None, :], np.array([i]))[0]),
            start,
            method="Nelder-Mead",
            bounds=list(zip(lower, upper)),
            options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter},
        )
        assert x[i].tolist() == res.x.tolist(), f"start {i}"
        assert nit[i] == res.nit, f"start {i}"
    return nit


def _assert_surface_optima_match_scipy(case, seed):
    # the same starts under every allowable of the config, all in one search
    objective = _objective_for(case.model)
    space = case.space
    allowables = case.config.optimization.allowable
    starts = _starts(space, np.random.default_rng(seed))
    _assert_port_matches_scipy(
        _penalized(objective, case.smoothed, np.repeat(allowables, len(starts))),
        np.vstack([starts] * len(allowables)), space.lower, space.upper,
        xatol=1e-6 * float(np.max(space.upper - space.lower)),
    )


def test_port_matches_scipy_on_the_toy_surface(toy_case):
    _assert_surface_optima_match_scipy(toy_case, 11)


def test_port_matches_scipy_on_the_beam_surface(beam_case):
    _assert_surface_optima_match_scipy(beam_case, 12)


def test_port_matches_scipy_on_the_toy_rare_surface(toy_rare_case):
    _assert_surface_optima_match_scipy(toy_rare_case, 13)


def _bowl(center):
    center = np.asarray(center, dtype=float)
    return lambda rows, start: ((rows - center) ** 2).sum(axis=1)


def test_port_matches_scipy_when_the_initial_simplex_leaves_the_box():
    # 1.05 * start lies above the upper face, so that vertex is reflected
    lower, upper = np.array([0.0, 0.0]), np.array([10.0, 10.0])
    starts = np.array([[9.8, 9.9], [9.7, 2.0], [1.0, 9.99]])
    assert np.all((1.05 * starts > upper).any(axis=1))
    _assert_port_matches_scipy(_bowl([9.0, 8.0]), starts, lower, upper, xatol=1e-8)


def test_port_matches_scipy_from_a_zero_coordinate():
    # a zero coordinate is stepped to 0.00025 instead of scaled by 1.05
    lower, upper = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    starts = np.array([[0.0, 0.5], [0.3, 0.0], [0.0, 0.0]])
    _assert_port_matches_scipy(_bowl([0.2, -0.4]), starts, lower, upper, xatol=1e-8)


def test_port_matches_scipy_through_shrink_steps():
    # a rippled bowl defeats the contractions; with one start in 2-d, a call
    # on exactly two rows can only be a shrink
    def rippled(rows, start):
        calls.append(len(rows))
        return (rows**2).sum(axis=1) + 0.3 * np.sin(40.0 * rows).sum(axis=1)

    calls = []
    lower, upper = np.array([-2.0, -2.0]), np.array([2.0, 2.0])
    for start in ([1.3, -0.7], [0.4, 1.9], [-1.5, -1.1]):
        _assert_port_matches_scipy(rippled, np.array([start]), lower, upper, xatol=1e-9)
    assert 2 in calls


def test_port_matches_scipy_on_tied_values():
    # a staircase makes many vertices tie, so the vertex order after each
    # sort must be SciPy's too
    def stairs(rows, start):
        return np.floor(4.0 * np.abs(rows - 0.3)).sum(axis=1)

    lower, upper = np.array([-1.0, -1.0, -1.0]), np.array([2.0, 2.0, 2.0])
    starts = np.array([[1.5, -0.5, 0.9], [0.0, 1.2, -0.8], [1.9, 1.9, 1.9]])
    _assert_port_matches_scipy(stairs, starts, lower, upper, xatol=1e-8)


def test_port_stops_at_maxiter_as_scipy_does():
    def rosenbrock(rows, start):
        x, y = rows[:, 0], rows[:, 1]
        return (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2

    lower, upper = np.array([-2.0, -2.0]), np.array([2.0, 2.0])
    starts = np.array([[-1.2, 1.0], [0.5, -1.5], [1.9, 1.9]])
    nit = _assert_port_matches_scipy(
        rosenbrock, starts, lower, upper, xatol=1e-12, fatol=1e-14, maxiter=7
    )
    assert nit.tolist() == [7, 7, 7]


def test_the_command_line_does_not_import_scipy_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    probe = "import sys, fpfkit.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
