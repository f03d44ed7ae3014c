import threading

import numpy as np
import pytest

from fpfkit.benchmarks import BoxBeamModel, ToyModel
from fpfkit.errors import FpfkitError
from fpfkit.model import (
    DesignSpace,
    LimitStateModel,
    RandomVariableSpec,
    resolve_parameters,
    sample_theta,
)
from helpers import design_prior_density, reference_sample_theta


class LineModel(LimitStateModel):
    """Failure when theta_0 exceeds 1."""

    name = "line"

    def performance_batch(self, phis, thetas):
        return 1.0 - thetas[:, 0]

    def margin(self, performance):
        return performance


def test_design_space_properties():
    s = DesignSpace(((0.0, 2.0), (1.0, 3.0)))
    assert s.ndim == 2
    assert s.volume == 4.0
    assert np.array_equal(s.lower, [0.0, 1.0])
    assert np.array_equal(s.upper, [2.0, 3.0])
    rows = np.array([[0.0, 3.0], [2.1, 2.0], [1.0, 1.0], [np.nan, 2.0]])
    assert s.contains(rows).tolist() == [True, False, True, False]
    assert s.contains(np.empty((0, 2))).shape == (0,)


def test_design_space_validation():
    with pytest.raises(ValueError):
        DesignSpace(())
    with pytest.raises(ValueError):
        DesignSpace(((1.0, 1.0),))
    with pytest.raises(ValueError):
        DesignSpace(((0.0, 1.0),)).contains(np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match=r"shape \(n, 1\)"):
        DesignSpace(((0.0, 1.0),)).contains(np.array([0.5]))
    with pytest.raises(ValueError):
        DesignSpace(((0.0, 1.0),)).contains(np.zeros((2, 2)))


def test_design_space_sampling_stays_inside():
    s = DesignSpace(((-1.0, 1.0), (10.0, 20.0)))
    rng = np.random.default_rng(3)
    pts = s.sample(rng, 500)
    assert pts.shape == (500, 2)
    assert np.all(pts >= s.lower) and np.all(pts <= s.upper)
    # same seed, same draw
    again = s.sample(np.random.default_rng(3), 500)
    assert np.array_equal(pts, again)


def test_design_prior_density_is_reciprocal_volume():
    s = DesignSpace(((0.0, 2.0), (1.0, 3.0)))
    assert design_prior_density(s, np.array([1.0, 2.0])) == 0.25
    assert design_prior_density(s, np.array([5.0, 2.0])) == 0.0


def test_variable_spec_requires_exactly_one_mean_and_spread():
    with pytest.raises(ValueError, match="mean"):
        RandomVariableSpec("x", std=1.0)
    with pytest.raises(ValueError, match="mean"):
        RandomVariableSpec("x", mean=1.0, mean_design=0, std=1.0)
    with pytest.raises(ValueError, match="std"):
        RandomVariableSpec("x", mean=1.0)
    with pytest.raises(ValueError, match="std"):
        RandomVariableSpec("x", mean=1.0, std=1.0, cov=0.1)
    with pytest.raises(ValueError):
        RandomVariableSpec("x", mean=1.0, std=-1.0)
    # cov scales the design coordinate the mean follows; a fixed mean follows none
    with pytest.raises(ValueError, match="cov"):
        RandomVariableSpec("x", mean=1.0, cov=0.1)


def test_variable_spec_resolution():
    def one_row(spec, phi):
        mu, sigma = resolve_parameters((spec,), np.array([phi]))
        return float(mu[0, 0]), float(sigma[0, 0])

    fixed = RandomVariableSpec("a", mean=3.0, std=0.5)
    assert one_row(fixed, [9.9]) == (3.0, 0.5)
    tied = RandomVariableSpec("b", mean_design=1, cov=0.05)
    assert one_row(tied, [10.0, 20.0]) == (20.0, 1.0)


def test_resolve_parameters_stacks_per_design_row():
    specs = (
        RandomVariableSpec("a", mean_design=1, cov=0.05),
        RandomVariableSpec("b", mean=3.0, std=0.5),
    )
    mus, sigmas = resolve_parameters(specs, np.array([[10.0, 20.0], [10.0, 30.0]]))
    assert mus.tolist() == [[20.0, 3.0], [30.0, 3.0]]
    assert sigmas.tolist() == [[1.0, 0.5], [1.5, 0.5]]


def test_resolved_std_must_stay_positive():
    tied = RandomVariableSpec("b", mean_design=0, cov=0.05)
    with pytest.raises(ValueError):
        resolve_parameters((tied,), np.array([[-1.0]]))
    with pytest.raises(ValueError):
        resolve_parameters((tied,), np.array([[1.0], [0.0]]))


def test_evaluation_counter_and_failure_flag():
    m = LineModel()
    assert m.n_evaluations == 0
    perf, failed = m.evaluate_batch(np.zeros((3, 1)), np.array([[0.0], [1.0], [2.0]]))
    assert m.n_evaluations == 3
    assert perf.tolist() == [1.0, 0.0, -1.0]
    # margin <= 0 is failure, so the boundary case fails
    assert failed.tolist() == [False, True, True]
    p, f = m.evaluate_batch(np.zeros((1, 1)), np.array([[5.0]]))
    assert (p.tolist(), f.tolist()) == ([-4.0], [True])
    assert m.n_evaluations == 4


@pytest.mark.parametrize(
    "model,phis,thetas",
    [
        (ToyModel(), [[1.0], [np.nan]], [[0.5], [0.5]]),
        (
            BoxBeamModel(band=(700.0, 900.0)),
            [[40.0, 40.0], [40.0, 40.0]],
            [[40.0, 40.0, 2.0, 7800.0, 210.0], [40.0, 40.0, 2.0, np.nan, 210.0]],
        ),
    ],
)
def test_non_finite_performance_is_an_error_not_a_safe_outcome(model, phis, thetas):
    with pytest.raises(FpfkitError, match=rf"model '{model.name}'.*nan") as exc:
        model.evaluate_batch(np.array(phis), np.array(thetas))
    assert str(np.array(phis)[1].tolist()) in str(exc.value)
    assert str(np.array(thetas)[1].tolist()) in str(exc.value)


def test_evaluation_counter_is_thread_safe():
    m = LineModel()
    phis = np.zeros((200, 1))
    thetas = np.zeros((200, 1))

    def work():
        for _ in range(25):
            m.evaluate_batch(phis, thetas)

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert m.n_evaluations == 4 * 25 * 200


def test_batch_length_mismatch_rejected():
    with pytest.raises(ValueError):
        LineModel().evaluate_batch(np.zeros((2, 1)), np.zeros((3, 1)))


class PositiveThetaModel(LineModel):
    def theta_valid_batch(self, phis, thetas):
        return thetas[:, 0] > 0


def test_sample_theta_redraws_invalid_rows():
    specs = (RandomVariableSpec("t", mean=0.5, std=1.0),)
    model = PositiveThetaModel()
    rng = np.random.default_rng(5)
    phis = np.zeros((400, 1))
    thetas = sample_theta(specs, model, phis, rng)
    assert thetas.shape == (400, 1)
    assert np.all(thetas[:, 0] > 0)
    # redraws happen before evaluation, so the counter is untouched
    assert model.n_evaluations == 0


def test_sample_theta_equals_generator_normal_draws_with_redraws():
    # per-row (n, k) parameters; rows whose theta_0 is not positive are redrawn
    specs = (
        RandomVariableSpec("t", mean_design=0, std=1.0),
        RandomVariableSpec("u", mean_design=1, cov=0.1),
    )
    phis = np.random.default_rng(1).uniform(0.0, 2.0, size=(3000, 2))
    model = PositiveThetaModel()
    got = sample_theta(specs, model, phis, np.random.default_rng(8))
    want = reference_sample_theta(specs, model, phis, np.random.default_rng(8))
    assert np.array_equal(got, want)
    first = np.random.default_rng(8).normal(*resolve_parameters(specs, phis))
    assert np.any(first[:, 0] <= 0) and np.all(got[:, 0] > 0)
    # without rejections too
    got = sample_theta(specs, LineModel(), phis, np.random.default_rng(9))
    want = reference_sample_theta(specs, LineModel(), phis, np.random.default_rng(9))
    assert np.array_equal(got, want)


class NegativeThetaModel(LineModel):
    """Rejects theta_0 >= 0 and keeps the rows of every validity call."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def theta_valid_batch(self, phis, thetas):
        self.seen.append(thetas.copy())
        return thetas[:, 0] < 0


def test_sample_theta_checks_only_the_rows_it_redrew():
    specs = (RandomVariableSpec("t", mean=0.0, std=1.0),)
    phis = np.zeros((1000, 1))
    model = NegativeThetaModel()
    got = sample_theta(specs, model, phis, np.random.default_rng(12))
    want = reference_sample_theta(specs, NegativeThetaModel(), phis, np.random.default_rng(12))
    assert (got == want).all()
    # the first call sees every row; each later one only the rows the call
    # before it rejected, freshly drawn
    assert len(model.seen) > 2
    rows = np.arange(phis.shape[0])
    for seen in model.seen:
        assert seen.shape == (rows.size, 1)
        ok = seen[:, 0] < 0
        assert (got[rows[ok]] == seen[ok]).all()
        rows = rows[~ok]
    assert rows.size == 0


def test_sample_theta_gives_up_on_impossible_validity():
    class Impossible(LineModel):
        def theta_valid_batch(self, phis, thetas):
            return np.zeros(thetas.shape[0], dtype=bool)

    specs = (RandomVariableSpec("t", mean=0.0, std=1.0),)
    with pytest.raises(RuntimeError, match="redraw"):
        sample_theta(specs, Impossible(), np.zeros((2, 1)), np.random.default_rng(0))
