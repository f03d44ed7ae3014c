"""Tests for the benchmark limit states and the brute-force grid oracle."""

import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad
from scipy.stats import norm

from fpfkit import benchmarks
from fpfkit.benchmarks import (
    LAMBDA_1,
    BoxBeamModel,
    FPFGridOracle,
    TableModel,
    ToyModel,
    analytic_toy_fpf,
    beam_design_space,
    beam_frequency,
    beam_section,
    beam_variable_specs,
    grid_dmcs_oracle,
    grid_points,
    table_variable_specs,
    toy_design_space,
    toy_variable_specs,
)
from fpfkit.model import sample_theta
from helpers import reference_beam_frequency, reference_point_estimate, toy_pf_exact


# ------------------------------------------------------------ beam physics ---


def test_first_mode_constant_solves_its_defining_equation():
    # lambda_1 is the first root of cos(x) * cosh(x) = -1
    assert math.cos(LAMBDA_1) * math.cosh(LAMBDA_1) == pytest.approx(-1.0, abs=1e-14)


def test_hollow_section_properties():
    area, inertia = beam_section(40.0, 40.0, 2.0)
    assert area == pytest.approx(304.0, rel=1e-15)
    assert inertia == pytest.approx(73365.33333333333, rel=1e-15)


def test_section_properties_vectorize():
    area, inertia = beam_section(np.array([40.0, 50.0]), np.array([40.0, 50.0]), 2.0)
    assert np.allclose(area, [304.0, 384.0])
    a40, i40 = beam_section(40.0, 40.0, 2.0)
    assert inertia[0] == i40


def test_section_rejects_walls_thicker_than_the_outline():
    with pytest.raises(ValueError, match="twice the wall"):
        beam_section(4.0, 40.0, 2.0)
    with pytest.raises(ValueError, match="twice the wall"):
        beam_section(np.array([40.0, 3.0]), 40.0, 2.0)


def test_beam_frequency_reference_values():
    assert beam_frequency(40.0, 40.0, 2.0, 7800.0, 210.0) == pytest.approx(
        1133.6571864651792, rel=1e-13
    )
    assert beam_frequency(30.0, 30.0, 2.0, 7800.0, 210.0) == pytest.approx(
        836.2970662217771, rel=1e-13
    )
    assert beam_frequency(50.0, 50.0, 2.0, 7800.0, 210.0) == pytest.approx(
        1431.249561921072, rel=1e-13
    )


def test_beam_frequency_scaling_laws(monkeypatch):
    # omega ~ sqrt(E), ~ 1/sqrt(rho), ~ 1/L^2
    base = beam_frequency(40.0, 40.0, 2.0, 7800.0, 210.0)
    assert beam_frequency(40.0, 40.0, 2.0, 7800.0, 840.0) == pytest.approx(2 * base)
    assert beam_frequency(40.0, 40.0, 2.0, 4 * 7800.0, 210.0) == pytest.approx(
        base / 2
    )
    monkeypatch.setattr(benchmarks, "LENGTH_MM", 2 * benchmarks.LENGTH_MM)
    assert beam_frequency(40.0, 40.0, 2.0, 7800.0, 210.0) == pytest.approx(base / 4)


@pytest.mark.parametrize(
    "phi", [(30.0, 30.0), (30.0, 50.0), (50.0, 30.0), (50.0, 50.0), (40.0, 40.0)]
)
def test_beam_frequency_equals_the_allocating_reference(phi):
    model = BoxBeamModel(band=(700.0, 900.0))
    phis = np.broadcast_to(np.array(phi), (65536, 2))
    thetas = sample_theta(beam_variable_specs(), model, phis, np.random.default_rng(4))
    got = beam_frequency(*thetas.T)
    assert got.shape == (65536,)
    assert np.array_equal(got, reference_beam_frequency(*thetas.T))
    assert np.array_equal(model.performance_batch(phis, thetas), got)
    # the column layout the oracle uses gives the same doubles
    columns = np.ascontiguousarray(thetas.T)
    assert np.array_equal(model.performance_batch(phis, columns.T), got)


def test_beam_frequency_of_scalars_and_mixed_shapes():
    args = (40.0, 35.0, 2.0, 7800.0, 210.0)
    got = beam_frequency(*args)
    assert isinstance(got, np.float64)
    assert got == reference_beam_frequency(*args)
    heights = np.array([[31.0, 40.0], [45.0, 49.5]])
    moduli = np.array([200.0, 220.0])
    got = beam_frequency(40.0, heights, 2.0, 7800.0, moduli)
    assert got.shape == (2, 2)
    assert np.array_equal(got, reference_beam_frequency(40.0, heights, 2.0, 7800.0, moduli))
    area, inertia = beam_section(40.0, 40.0, 2.0)
    assert isinstance(area, np.float64) and isinstance(inertia, np.float64)


def test_beam_frequency_increases_with_height():
    freqs = beam_frequency(40.0, np.array([35.0, 40.0, 45.0]), 2.0, 7800.0, 210.0)
    assert np.all(np.diff(freqs) > 0)


# ---------------------------------------------------------------- beam model ---


def test_beam_failure_band_membership():
    model = BoxBeamModel(band=(700.0, 900.0))
    theta_lo = np.array([[30.0, 30.0, 2.0, 7800.0, 210.0]])
    theta_hi = np.array([[50.0, 50.0, 2.0, 7800.0, 210.0]])
    perf_lo, failed_lo = model.evaluate_batch(np.array([[30.0, 30.0]]), theta_lo)
    perf_hi, failed_hi = model.evaluate_batch(np.array([[50.0, 50.0]]), theta_hi)
    assert perf_lo[0] == pytest.approx(836.2970662217771, rel=1e-13)
    assert model.margin(perf_lo)[0] == pytest.approx(836.2970662217771 - 900.0)
    assert failed_lo[0]
    assert model.margin(perf_hi)[0] == pytest.approx(1431.249561921072 - 900.0)
    assert not failed_hi[0]


def test_beam_band_edges_count_as_failures():
    model = BoxBeamModel(band=(700.0, 900.0))
    margins = model.margin(np.array([700.0, 900.0, 800.0, 950.0]))
    assert margins.tolist() == [0.0, 0.0, -100.0, 50.0]


def test_beam_theta_validity():
    model = BoxBeamModel(band=(700.0, 900.0))
    phi = np.array([40.0, 40.0])
    good = np.array([40.0, 40.0, 2.0, 7800.0, 210.0])
    assert model.theta_valid_batch(phi[None, :], good[None, :]).tolist() == [True]
    bad = np.array([
        [3.9, 40.0, 2.0, 7800.0, 210.0],
        [40.0, 4.0, 2.0, 7800.0, 210.0],
        [40.0, 40.0, -0.1, 7800.0, 210.0],
        [40.0, 40.0, 2.0, 0.0, 210.0],
        [40.0, 40.0, 2.0, 7800.0, -1.0],
    ])
    assert model.theta_valid_batch(np.broadcast_to(phi, (5, 2)), bad).tolist() == [False] * 5
    batch = np.vstack([good, np.array([3.9, 40.0, 2.0, 7800.0, 210.0])])
    flags = model.theta_valid_batch(np.broadcast_to(phi, (2, 2)), batch)
    assert flags.tolist() == [True, False]


def test_beam_constructor_validation():
    with pytest.raises(ValueError, match="band"):
        BoxBeamModel(band=(900.0, 700.0))
    with pytest.raises(TypeError):
        BoxBeamModel()


def test_beam_problem_setup():
    assert beam_design_space().bounds == ((30.0, 50.0), (30.0, 50.0))
    specs = beam_variable_specs()
    assert [s.name for s in specs] == ["b", "h", "t", "rho", "E"]
    assert specs[0].mean_design == 0 and specs[1].mean_design == 1
    assert specs[0].cov == 0.02


# ----------------------------------------------------------------- toy model ---


def test_toy_fpf_is_the_normal_survival_function():
    # Phi(-phi) has relative condition number about phi^2 in phi, so two
    # accurate routes part by a few eps * phi^2 far in the tail
    phi = np.linspace(-8.0, 37.0, 45001)
    want = special.ndtr(-phi)
    got = analytic_toy_fpf(phi[:, None])
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - want) <= 4 * eps * (1.0 + phi**2) * want)
    assert analytic_toy_fpf(np.zeros((1, 1))).tolist() == [0.5]


def test_toy_augmented_failure_probability():
    assert toy_pf_exact() == pytest.approx(0.09973378378575007, rel=1e-14)
    assert toy_pf_exact(3.0, 4.0) == pytest.approx(0.00037500905861532157, rel=1e-12)
    # independent check: numerically average Phi(-t) over the box
    numeric = quad(norm.sf, 0.0, 4.0)[0] / 4.0
    assert toy_pf_exact() == pytest.approx(numeric, rel=1e-10)


def test_toy_problem_setup():
    assert toy_design_space().bounds == ((0.0, 4.0),)
    (spec,) = toy_variable_specs()
    assert spec.mean == 0.0 and spec.std == 1.0


# ---------------------------------------------------------------- table model ---


def _small_table():
    axes = (np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0]))
    pf = np.array([[0.5, 0.4], [0.3, 0.2], [0.1, 0.05]])
    return TableModel(axes, pf), axes, pf


def test_table_reproduces_its_nodes_and_interpolates_between():
    model, axes, pf = _small_table()
    for i, a in enumerate(axes[0]):
        for j, b in enumerate(axes[1]):
            assert model.table_fpf(np.array([a, b]))[0] == pytest.approx(pf[i, j])
    assert model.table_fpf(np.array([0.5, 0.5]))[0] == pytest.approx(
        (0.5 + 0.4 + 0.3 + 0.2) / 4
    )
    assert model.design_space().bounds == ((0.0, 2.0), (0.0, 1.0))


def test_table_failure_rate_matches_the_tabulated_probability():
    model, _, _ = _small_table()
    rng = np.random.default_rng(11)
    n = 20000
    thetas = rng.normal(0.0, 1.0, size=(n, 1))
    phis = np.broadcast_to(np.array([1.0, 0.0]), (n, 2))
    _, failed = model.evaluate_batch(phis, thetas)
    target = 0.3
    assert abs(failed.mean() - target) < 4 * math.sqrt(target * (1 - target) / n)


def test_table_validation():
    axes = (np.array([0.0, 1.0]),)
    with pytest.raises(ValueError, match="lie in"):
        TableModel(axes, np.array([0.5, 1.2]))
    with pytest.raises(ValueError, match="shape"):
        TableModel(axes, np.array([0.5, 0.4, 0.3]))
    (spec,) = table_variable_specs()
    assert spec.mean == 0.0 and spec.std == 1.0


# ----------------------------------------------------------------- grid oracle ---


def test_grid_points_cover_the_box_lexicographically():
    from fpfkit.model import DesignSpace

    line = grid_points(DesignSpace(((0.0, 4.0),)), 5)
    assert np.array_equal(line, np.array([[0.0], [1.0], [2.0], [3.0], [4.0]]))
    plane = grid_points(DesignSpace(((0.0, 1.0), (10.0, 20.0))), 3)
    assert np.array_equal(
        plane[:4],
        np.array([[0.0, 10.0], [0.0, 15.0], [0.0, 20.0], [0.5, 10.0]]),
    )
    assert len(plane) == 9


def test_toy_grid_oracle_tracks_the_analytic_curve():
    model = ToyModel()
    oracle = grid_dmcs_oracle(
        model, toy_design_space(), toy_variable_specs(), 5, 4000,
        np.random.SeedSequence(17),
    )
    assert isinstance(oracle, FPFGridOracle)
    assert oracle.total_evaluations == 20000
    assert model.n_evaluations == 20000
    assert np.all(oracle.n == 4000)
    exact = norm.sf(oracle.points[:, 0])
    for i in range(4):  # keep to points with at least a few expected failures
        sigma = math.sqrt(exact[i] * (1 - exact[i]) / 4000)
        assert abs(oracle.pf[i] - exact[i]) < 4 * sigma
    for p, c in zip(oracle.pf, oracle.cov):
        if p > 0:
            assert c == pytest.approx(math.sqrt((1 - p) / (4000 * p)))
        else:
            assert math.isinf(c)


def test_grid_oracle_is_independent_of_worker_count():
    kwargs = dict(
        space=toy_design_space(), specs=toy_variable_specs(),
        resolution=5, n_per_point=4000, seed_seq=np.random.SeedSequence(17),
    )
    serial = grid_dmcs_oracle(ToyModel(), **kwargs)
    kwargs["seed_seq"] = np.random.SeedSequence(17)
    threaded = grid_dmcs_oracle(ToyModel(), workers=3, **kwargs)
    assert np.array_equal(serial.pf, threaded.pf)
    assert np.array_equal(serial.cov, threaded.cov)


class _PickyToy(ToyModel):
    """Rejects about a sixth of the draws, so the oracle redraws."""

    def theta_valid_batch(self, phis, thetas):
        return thetas[:, 0] < 1.0


class _RareToy(ToyModel):
    """Keeps about 5% of the draws, so most of a point's stream is rejected."""

    def theta_valid_batch(self, phis, thetas):
        return thetas[:, 0] > 1.645


@pytest.mark.parametrize(
    "model, space, specs",
    [
        (BoxBeamModel(band=(700.0, 900.0)), beam_design_space(), beam_variable_specs()),
        (_PickyToy(), toy_design_space(), toy_variable_specs()),
        (_RareToy(), toy_design_space(), toy_variable_specs()),
    ],
    ids=["beam", "redrawn-toy", "rare-toy"],
)
def test_grid_oracle_equals_the_allocating_reference(model, space, specs):
    # samples per point, against the reference's 65,536-row batches: one
    # batch and part of another; one 16,384-row block and part of another;
    # two batches and part of a third
    for n in (70000, 20000, 140000):
        oracle = grid_dmcs_oracle(model, space, specs, 3, n, np.random.SeedSequence(23))
        seqs = np.random.SeedSequence(23).spawn(len(oracle.points))
        for i, phi in enumerate(oracle.points):
            pf, cov = reference_point_estimate(model, specs, phi, n, seqs[i])
            assert (oracle.pf[i], oracle.cov[i]) == (pf, cov)


class _CountingPickyToy(ToyModel):
    """Rejects about one draw in 160 and records the rows it is given: of
    every validity check, and of every evaluation at each design point."""

    def __init__(self) -> None:
        super().__init__()
        self.checked: list[int] = []
        self.evaluated: dict[float, list[int]] = {}

    def theta_valid_batch(self, phis, thetas):
        self.checked.append(len(thetas))
        return thetas[:, 0] < 2.5

    def evaluate_batch(self, phis, thetas):
        self.evaluated.setdefault(float(phis[0, 0]), []).append(len(phis))
        return super().evaluate_batch(phis, thetas)


@pytest.mark.parametrize("n", [5000, 20000, 70000])
def test_grid_oracle_works_in_blocks_of_16384_rows(n):
    model = _CountingPickyToy()
    oracle = grid_dmcs_oracle(
        model, toy_design_space(), toy_variable_specs(), 3, n, np.random.SeedSequence(29)
    )
    assert max(model.checked) <= 16384
    assert sorted(model.evaluated) == oracle.points[:, 0].tolist()
    for rows in model.evaluated.values():
        assert max(rows) <= 16384
        assert sum(rows) == n


class _NeverValidToy(_CountingPickyToy):
    def theta_valid_batch(self, phis, thetas):
        self.checked.append(len(thetas))
        return np.zeros(len(thetas), dtype=bool)


@pytest.mark.parametrize("n", [300, 20000])
def test_grid_oracle_gives_up_after_100_draws_per_requested_row(n):
    model = _NeverValidToy()
    with pytest.raises(RuntimeError, match="theta redraw limit exceeded"):
        grid_dmcs_oracle(
            model, toy_design_space(), toy_variable_specs(), 2, n, np.random.SeedSequence(3)
        )
    # each of the two points draws its budget of 100 * n rows, up to the one
    # block that would overdraw it, and then raises
    assert max(model.checked) <= 16384
    assert 100 * n - 16384 < sum(model.checked) / 2 <= 100 * n
    assert not model.evaluated  # a block with no valid row is not evaluated


def test_beam_grid_oracle_is_independent_of_worker_count():
    kwargs = dict(
        space=beam_design_space(), specs=beam_variable_specs(),
        resolution=3, n_per_point=70000,
    )
    serial = grid_dmcs_oracle(
        BoxBeamModel(band=(700.0, 900.0)), seed_seq=np.random.SeedSequence(5), **kwargs
    )
    threaded = grid_dmcs_oracle(
        BoxBeamModel(band=(700.0, 900.0)), seed_seq=np.random.SeedSequence(5),
        workers=2, **kwargs,
    )
    assert np.array_equal(serial.pf, threaded.pf)
    assert np.array_equal(serial.cov, threaded.cov)


def test_grid_oracle_validation():
    with pytest.raises(ValueError, match="resolution"):
        grid_dmcs_oracle(
            ToyModel(), toy_design_space(), toy_variable_specs(), 1, 100,
            np.random.SeedSequence(0),
        )
    with pytest.raises(ValueError, match="n_per_point"):
        grid_dmcs_oracle(
            ToyModel(), toy_design_space(), toy_variable_specs(), 3, 0,
            np.random.SeedSequence(0),
        )
