"""Tests for support-point extraction, the kernel ridge surface, and the
scaled smooth FPF wrapper."""

import math
import warnings

import numpy as np
import pytest

from fpfkit.benchmarks import grid_points
from fpfkit.model import DesignSpace
from fpfkit import smoothing
from fpfkit.pipeline import compose_density
from fpfkit.smoothing import (
    SupportPoints,
    _eig,
    _loo_sse,
    extract_support_points,
    fit_surface,
)
from helpers import (
    reference_fit_surface,
    reference_predict,
    reference_smoothed,
    reference_smoothed_gradient,
    reference_surface_gradient,
)


def _support(x, y, level=0, weight=1.0) -> SupportPoints:
    """Support rows ``x`` (n, d) valued ``y``, with one level and weight or
    one of each per row."""
    x = np.asarray(x, dtype=float)
    shape = (len(x),)
    return SupportPoints(
        x,
        np.asarray(y, dtype=float),
        np.broadcast_to(level, shape),
        np.broadcast_to(np.asarray(weight, dtype=float), shape),
    )


def _line_points(xs, f, weight=1.0):
    return _support(np.asarray(xs, dtype=float)[:, None], [f(x) for x in xs], weight=weight)


# ------------------------------------------------------- support points ---


def test_support_points_cover_high_cells_plus_final_low_region(toy_case):
    chain = toy_case.chain
    points = extract_support_points(chain)

    expected = []
    for level in chain.levels:
        last = level.index == chain.levels[-1].index
        for c, is_low in enumerate(level.low_mask):
            if not is_low or last:
                expected.append((level, c))
    assert len(points) == len(expected)

    composite = compose_density(chain, points.x)
    for i, (level, c) in enumerate(expected):
        pieces = level.pieces[level.piece_cell == c]
        largest = max(pieces, key=lambda piece: float(np.prod(piece[1] - piece[0])))
        assert np.array_equal(points.x[i], 0.5 * (largest[0] + largest[1]))
        assert points.level[i] == level.index
        assert points.weight[i] == pytest.approx(level.weight * level.masses[c])
        assert points.weight[i] > 0
        assert math.isfinite(points.log_density[i])
        assert math.exp(points.log_density[i]) == pytest.approx(composite[i], rel=1e-12)


def _assert_one_row_per_covered_cell(chain):
    # the high cells of every level, plus the last level's low cells
    points = extract_support_points(chain)
    n_cells = sum(int(np.count_nonzero(~level.low_mask)) for level in chain.levels)
    n_cells += int(np.count_nonzero(chain.levels[-1].low_mask))
    assert len(points) == n_cells
    assert points.x.shape == (n_cells, chain.levels[0].pieces.shape[2])
    for column in (points.log_density, points.level, points.weight):
        assert column.shape == (n_cells,)
    assert points.level.dtype.kind == "i"


@pytest.mark.parametrize("case_name", ["toy_case", "beam_case"])
def test_support_points_are_one_row_per_covered_cell(case_name, request):
    _assert_one_row_per_covered_cell(request.getfixturevalue(case_name).chain)


def test_toy_rare_support_points_are_one_row_per_covered_cell(toy_rare_case):
    _assert_one_row_per_covered_cell(toy_rare_case.chain)


def test_support_point_weights_sum_to_the_retained_mass(toy_case):
    # every level contributes weight * (high mass); the last adds its low mass
    points = extract_support_points(toy_case.chain)
    total = sum(points.weight.tolist())
    assert total == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------- surface fit ---


def test_fit_interpolates_a_smooth_function_with_explicit_scales():
    xs = np.linspace(0.0, 2.0, 25)
    f = lambda x: 1.0 + 0.5 * math.sin(3.0 * x)
    surface = fit_surface(
        _line_points(xs, f), noise_floor=1e-9, length_scales=np.array([0.5])
    )
    assert np.array_equal(surface.length_scales, np.array([0.5]))
    assert surface.noise_floor == 1e-9
    for x, value in zip(xs, surface.predict(xs[:, None])):
        assert value == pytest.approx(f(x), abs=1e-4)
    mids = (xs[:-1] + xs[1:]) / 2
    for x, value in zip(mids, surface.predict(mids[:, None])):
        assert value == pytest.approx(f(x), abs=1e-4)


def test_predict_batch_matches_scalar_predict():
    xs = np.linspace(0.0, 1.0, 8)
    surface = fit_surface(
        _line_points(xs, lambda x: x * x), noise_floor=1e-6,
        length_scales=np.array([0.3]),
    )
    phis = np.array([[0.1], [0.55], [0.9]])
    batch = surface.predict(phis)
    assert batch.shape == (3,)
    for value, phi in zip(batch, phis):
        assert value == surface.predict(phi[None, :])[0]


def test_surface_gradient_matches_central_differences_1d():
    xs = np.linspace(0.0, 2.0, 25)
    f = lambda x: 1.0 + 0.5 * math.sin(3.0 * x)
    surface = fit_surface(
        _line_points(xs, f), noise_floor=1e-9, length_scales=np.array([0.5])
    )
    h = 1e-5
    xs = np.array([[0.3], [0.9], [1.4], [1.7]])
    fds = (surface.predict(xs + h) - surface.predict(xs - h)) / (2 * h)
    for analytic, fd in zip(surface.gradient(xs)[:, 0], fds):
        assert analytic == pytest.approx(fd, abs=1e-6)


def test_surface_gradient_matches_central_differences_2d():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, size=(30, 2))
    f = lambda p: math.sin(2 * p[0]) + 0.5 * p[1] ** 2
    surface = fit_surface(
        _support(x, [f(xi) for xi in x]), noise_floor=1e-8, length_scales=np.array([0.4, 0.4])
    )
    h = 1e-5
    rows = rng.uniform(0.1, 0.9, size=(5, 2))
    fds = np.column_stack(
        [(surface.predict(rows + h * e) - surface.predict(rows - h * e)) / (2 * h) for e in np.eye(2)]
    )
    for analytic, fd in zip(surface.gradient(rows), fds):
        assert np.allclose(analytic, fd, atol=1e-6)


def test_auto_length_scales_track_a_linear_trend():
    xs = np.linspace(0.0, 1.0, 12)
    f = lambda x: 2.0 * x - 0.5
    points = _support(xs[:, None], f(xs), weight=0.5 + xs)
    surface = fit_surface(points, noise_floor=1e-6)
    assert surface.length_scales.shape == (1,)
    assert surface.length_scales[0] > 0
    probes = np.concatenate([xs, (xs[:-1] + xs[1:]) / 2])
    for x, value in zip(probes, surface.predict(probes[:, None])):
        assert value == pytest.approx(f(x), abs=0.1)


def test_two_support_points_fall_back_to_the_sample_spread():
    points = _support([[0.0], [1.0]], [0.0, 1.0])
    surface = fit_surface(points, noise_floor=1e-4)
    assert np.array_equal(surface.length_scales, np.array([0.5]))
    assert surface.predict(np.array([[0.5]]))[0] == pytest.approx(0.5, abs=1e-3)


def test_duplicate_locations_collapse_when_values_agree():
    xs = np.linspace(0.0, 1.0, 6)
    x = np.append(xs, xs[2])
    points = _support(x[:, None], x, level=[0] * 6 + [1], weight=[1.0] * 6 + [0.3])
    surface = fit_surface(points, noise_floor=1e-6, length_scales=np.array([0.4]))
    assert len(surface.x) == len(xs)


def test_conflicting_duplicate_values_are_rejected():
    points = _support([[0.5], [0.5], [0.9]], [1.0, 2.0, 0.0], level=[0, 1, 0])
    with pytest.raises(ValueError, match="conflicting"):
        fit_surface(points, noise_floor=1e-6)


def test_fit_surface_validation():
    with pytest.raises(ValueError, match="zero support points"):
        fit_surface(_support(np.empty((0, 1)), []))
    points = _line_points(np.linspace(0, 1, 5), lambda x: x)
    with pytest.raises(ValueError, match="noise_floor"):
        fit_surface(points, noise_floor=0.0)
    with pytest.raises(ValueError, match="length_scales"):
        fit_surface(points, length_scales=np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="length_scales"):
        fit_surface(points, length_scales=np.array([-0.5]))


def _assert_fit_matches_the_cholesky_scan(case):
    points = extract_support_points(case.chain)
    surface = fit_surface(points)
    reference = reference_fit_surface(points)
    assert np.array_equal(surface.x, reference.x)
    assert np.array_equal(surface.length_scales, reference.length_scales)
    assert surface.noise_floor == reference.noise_floor
    assert (surface.signal_var, surface.y_mean) == (reference.signal_var, reference.y_mean)
    scale = np.max(np.abs(reference.coef))
    assert np.max(np.abs(surface.coef - reference.coef)) <= 1e-9 * scale


def test_toy_fit_picks_what_the_cholesky_scan_picks(toy_case):
    _assert_fit_matches_the_cholesky_scan(toy_case)


def test_beam_fit_picks_what_the_cholesky_scan_picks(beam_case):
    _assert_fit_matches_the_cholesky_scan(beam_case)


def test_toy_rare_fit_picks_what_the_cholesky_scan_picks(toy_rare_case):
    _assert_fit_matches_the_cholesky_scan(toy_rare_case)


def test_a_1d_fit_scores_each_multiplier_once(monkeypatch):
    # in 1-D the coordinate sweep meets only the scan's 13 multipliers, so
    # the 13 scores and the final solve take one eigendecomposition each
    calls = []

    def counted(k, y):
        calls.append(k.shape)
        return _eig(k, y)

    monkeypatch.setattr(smoothing, "_eig", counted)
    fit_surface(_line_points(np.linspace(0.0, 1.0, 9), lambda x: x * x))
    assert calls == [(9, 9)] * 14


def test_a_ridge_that_is_not_positive_definite_scores_inf():
    y = np.array([1.0, -2.0, 0.5])
    eig = _eig(np.diag([1.0, 0.5, -0.25]), y)
    assert _loo_sse(eig, 0.1, np.full(3, 1 / 3)) == math.inf
    assert math.isfinite(_loo_sse(eig, 0.3, np.full(3, 1 / 3)))


def test_a_fit_that_is_not_positive_definite_raises():
    # an all-ones kernel is singular, and a ridge of 1e-300 does not lift it
    points = _line_points(np.linspace(0, 1, 6), lambda x: x)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        fit_surface(points, noise_floor=1e-300, length_scales=np.array([1e9]))


# ---------------------------------------------------------- smoothed FPF ---


def test_smoothed_fpf_scales_the_exponentiated_surface(toy_case):
    smoothed = toy_case.smoothed
    assert smoothed.scale == pytest.approx(
        toy_case.chain.pf * toy_case.space.volume
    )
    phi = np.array([[1.5]])
    expected = math.exp(smoothed.surface.predict(phi)[0]) * smoothed.scale
    assert smoothed(phi)[0] == pytest.approx(expected, rel=1e-15)
    assert smoothed(phi)[0] > 0


def test_smoothed_fpf_accepts_batches(toy_case):
    smoothed = toy_case.smoothed
    phis = np.array([[0.5], [1.5], [2.5], [3.5]])
    batch = smoothed(phis)
    assert batch.shape == (4,)
    for value, phi in zip(batch, phis):
        assert value == smoothed(phi[None, :])[0]


def test_smoothed_fpf_gradient_chains_through_the_exponential(toy_case):
    smoothed = toy_case.smoothed
    phi = np.array([[2.0]])
    expected = smoothed(phi)[:, None] * smoothed.surface.gradient(phi)
    assert np.array_equal(smoothed.gradient(phi), expected)


# ------------------------------------------------- rows against points ---


def _probe_rows(space: DesignSpace) -> np.ndarray:
    """Grid rows over the closed box (faces and corners included) plus
    random interior points."""
    rng = np.random.default_rng(3)
    inner = rng.uniform(space.lower, space.upper, size=(200, space.ndim))
    return np.vstack([grid_points(space, 9), inner])


@pytest.mark.parametrize("case_name", ["toy_case", "beam_case"])
def test_row_surface_equals_the_per_point_reference(case_name, request):
    smoothed = request.getfixturevalue(case_name).smoothed
    surface = smoothed.surface
    rows = _probe_rows(smoothed.space)
    assert np.any(rows == smoothed.space.lower) and np.any(rows == smoothed.space.upper)
    values = surface.predict(rows)
    grads = surface.gradient(rows)
    fpf = smoothed(rows)
    with pytest.warns(UserWarning, match="one-sided"):
        fpf_grads = smoothed.gradient(rows)
    assert values.shape == fpf.shape == (len(rows),)
    assert grads.shape == fpf_grads.shape == rows.shape
    assert np.array_equal(values, [reference_predict(surface, p) for p in rows])
    assert np.array_equal(grads, [reference_surface_gradient(surface, p) for p in rows])
    assert np.array_equal(fpf, [reference_smoothed(smoothed, p) for p in rows])
    assert np.array_equal(
        fpf_grads, [reference_smoothed_gradient(smoothed, p) for p in rows]
    )


# -------------------------------------------------------- gradient guard ---


def test_gradient_outside_the_design_space_is_rejected(toy_case):
    with pytest.raises(ValueError, match="outside"):
        toy_case.smoothed.gradient(np.array([[5.0]]))


def test_gradient_on_the_boundary_warns_one_sided(toy_case):
    with pytest.warns(UserWarning, match="one-sided"):
        grad = toy_case.smoothed.gradient(np.array([[0.0]]))
    assert grad.shape == (1, 1)


def test_gradient_in_the_interior_is_warning_free(toy_case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grad = toy_case.smoothed.gradient(np.array([[2.0]]))
    assert grad.shape == (1, 1)
    assert math.isfinite(grad[0, 0])


def test_gradient_rows_with_one_outside_row_are_rejected(toy_case):
    rows = np.array([[1.0], [2.0], [-0.5], [3.0]])
    with pytest.raises(ValueError, match=r"\[-0\.5\] outside"):
        toy_case.smoothed.gradient(rows)


def test_gradient_face_rows_warn_once_per_call(toy_case):
    rows = np.array([[0.0], [1.0], [4.0], [0.0], [2.5]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        grads = toy_case.smoothed.gradient(rows)
    assert [str(w.message) for w in caught] == [
        "gradient requested on the design boundary; value is one-sided"
    ]
    assert caught[0].category is UserWarning
    assert grads.shape == (5, 1)


def test_gradient_interior_rows_are_warning_free(toy_case):
    rows = np.array([[0.5], [2.0], [3.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grads = toy_case.smoothed.gradient(rows)
    assert grads.shape == (3, 1)
    assert np.all(np.isfinite(grads))
