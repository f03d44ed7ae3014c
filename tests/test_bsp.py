import math
import threading

import numpy as np
import pytest
from scipy import special

import fpfkit.bsp as bsp
from fpfkit.artifacts import density_record
from fpfkit.bsp import bsp_estimate
from fpfkit.regions import RegionIndicator, box_volumes
from helpers import (
    log_partition_score,
    propose_cut,
    reference_bsp_estimate,
    reference_locate,
    reference_pdf,
    root_partition,
)

TWO_POINTS = np.array([[0.25], [0.75]])


def test_single_leaf_score_hand_value():
    """Two points on the unit interval, no cuts, alpha = 0.5, beta = 1.

    The count and volume terms cancel, leaving exp(score) = e^-1.
    """
    part = root_partition(TWO_POINTS, (0.0,), (1.0,))
    s = log_partition_score(part, alpha=0.5, beta=1.0)
    assert math.exp(s) == pytest.approx(math.exp(-1.0), abs=1e-12)
    # the same leaf through the estimator alone, with no cut allowed
    d = bsp_estimate(
        TWO_POINTS, (0.0,), (1.0,), np.random.default_rng(0), alpha=0.5, beta=1.0, max_leaves=1
    )
    assert d.partition.n_leaves == 1
    assert math.exp(d.log_score) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_one_leaf_score_equals_the_reference_bit_for_bit():
    # the estimator scores its one-leaf start in closed form; the reference
    # sums every term, and both must agree to the bit, zero's sign included
    rng = np.random.default_rng(5)
    cases = [(1, (0.0,), (1.0,)), (1, (0.0, 2.0), (1.0, 3.0)), (2, (0.0,), (1.0,))]
    for _ in range(200):
        d = int(rng.integers(1, 4))
        lo = rng.uniform(-5.0, 5.0, d)
        cases.append((int(rng.integers(1, 50)), tuple(lo), tuple(lo + rng.uniform(1e-3, 10.0, d))))
    for n, lo, hi in cases:
        points = rng.uniform(lo, hi, (n, len(lo)))
        for beta in (None, 0.0, 1.7):
            got = bsp_estimate(points, lo, hi, rng, beta=beta, max_leaves=1).log_score
            want_beta = (math.log(n) if n > 1 else 0.0) if beta is None else beta
            want = log_partition_score(root_partition(points, lo, hi), 0.5, want_beta)
            assert repr(got) == repr(want), (n, lo, hi, beta)


def test_midpoint_cut_score_hand_value():
    """Splitting the same data at the midpoint gives exp(score) = e^-2 / 2."""
    part = propose_cut(root_partition(TWO_POINTS, (0.0,), (1.0,)), 0, 0)
    s = log_partition_score(part, alpha=0.5, beta=1.0)
    assert math.exp(s) == pytest.approx(0.5 * math.exp(-2.0), abs=1e-12)


def test_root_partition_structure():
    pts = np.array([[0.1, 0.2], [0.9, 0.8], [0.5, 0.5]])
    part = root_partition(pts, (0.0, 0.0), (1.0, 1.0))
    assert part.n_leaves == 1
    assert part.n_samples == 3
    leaf = part.leaves[0]
    assert (leaf.lo, leaf.hi) == ((0.0, 0.0), (1.0, 1.0))
    assert leaf.n == 3
    # cached strictly-below-midpoint counts, per axis: the 0.5 coordinates
    # sit on the midpoint and count as not-below
    assert leaf.n_below == (1, 1)


def test_root_partition_rejects_outside_points():
    with pytest.raises(ValueError, match="outside"):
        root_partition(np.array([[1.5]]), (0.0,), (1.0,))
    with pytest.raises(ValueError):
        root_partition(np.array([[0.5, 0.5]]), (0.0,), (1.0,))


def test_propose_cut_splits_at_midpoint():
    pts = np.array([[0.1], [0.2], [0.8]])
    cut = propose_cut(root_partition(pts, (0.0,), (1.0,)), 0, 0)
    assert cut.n_leaves == 2
    low, high = cut.leaves
    assert (low.lo, low.hi) == ((0.0,), (0.5,))
    assert (high.lo, high.hi) == ((0.5,), (1.0,))
    assert (low.n, high.n) == (2, 1)
    assert cut.root.position == 0.5


def test_point_on_cut_goes_to_high_child():
    pts = np.array([[0.5], [0.25]])
    cut = propose_cut(root_partition(pts, (0.0,), (1.0,)), 0, 0)
    assert [leaf.n for leaf in cut.leaves] == [1, 1]
    assert reference_locate(cut.as_partition(), np.array([0.5])) == 1


def test_propose_cut_leaves_parent_untouched():
    part = root_partition(TWO_POINTS, (0.0,), (1.0,))
    propose_cut(part, 0, 0)
    assert part.n_leaves == 1
    with pytest.raises(IndexError):
        propose_cut(part, 5, 0)
    with pytest.raises(IndexError):
        propose_cut(part, 0, 3)


def test_locate_walks_to_the_right_leaf():
    pts = np.array([[0.1, 0.1], [0.9, 0.9]])
    part = propose_cut(root_partition(pts, (0.0, 0.0), (1.0, 1.0)), 0, 1).as_partition()
    probes = np.array([[0.3, 0.2], [0.3, 0.8], [1.5, 0.5]])
    assert [reference_locate(part, x) for x in probes] == [0, 1, None]
    assert RegionIndicator(part.boxes, part.hi).locate(probes).tolist() == [0, 1, -1]


def test_posterior_mean_masses():
    # 3 points split 2/1 with alpha = 0.5: (2.5/4, 1.5/4)
    pts = np.array([[0.1], [0.2], [0.8]])
    rng = np.random.default_rng(0)
    d = bsp_estimate(pts, (0.0,), (1.0,), rng, alpha=0.5, max_leaves=2)
    assert d.partition.n_leaves <= 2
    if d.partition.n_leaves == 2:
        counts = d.partition.counts.tolist()
        expect = [(n + 0.5) / (3 + 2 * 0.5) for n in counts]
        assert np.allclose(d.masses, expect, atol=1e-15)


def test_masses_sum_to_one_and_pdf_integrates():
    rng = np.random.default_rng(21)
    for seed in (1, 2, 3):
        pts = np.clip(rng.normal(0.4, 0.15, size=(300, 2)), 0.0, 0.999)
        d = bsp_estimate(pts, (0.0, 0.0), (1.0, 1.0), np.random.default_rng(seed))
        assert abs(float(np.sum(d.masses)) - 1.0) < 1e-12
        # the leaves tile the domain, so integrating mass/volume leaf by leaf
        # recovers the leaf masses
        boxes = d.partition.boxes
        assert RegionIndicator(boxes, d.partition.hi).contains(pts).all()
        assert box_volumes(boxes).sum() == pytest.approx(1.0, rel=1e-12)
        integral = sum(
            reference_pdf(d, lo + 1e-9 * (hi - lo)) * volume
            for (lo, hi), volume in zip(boxes, box_volumes(boxes))
        )
        assert integral == pytest.approx(1.0, abs=1e-9)


def test_estimate_is_deterministic_for_a_seeded_generator():
    pts = np.clip(np.random.default_rng(9).normal(0.3, 0.1, size=(400, 2)), 0.0, 0.999)
    a = bsp_estimate(pts, (0.0, 0.0), (1.0, 1.0), np.random.Generator(np.random.PCG64(77)))
    b = bsp_estimate(pts, (0.0, 0.0), (1.0, 1.0), np.random.Generator(np.random.PCG64(77)))
    assert a.partition.n_leaves == b.partition.n_leaves
    assert np.array_equal(a.masses, b.masses)
    assert a.log_score == b.log_score


def test_estimate_concentrates_on_a_gaussian_blob():
    rng = np.random.default_rng(14)
    pts = np.clip(rng.normal(0.3, 0.08, size=(500, 2)), 0.0, 0.999)
    d = bsp_estimate(pts, (0.0, 0.0), (1.0, 1.0), np.random.default_rng(14))
    assert reference_pdf(d, np.array([0.3, 0.3])) > 10.0 * reference_pdf(d, np.array([0.95, 0.95]))


def test_max_leaves_caps_growth():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.0, 1.0, size=(1000, 2))
    d = bsp_estimate(pts, (0.0, 0.0), (1.0, 1.0), np.random.default_rng(2), max_leaves=8)
    assert d.partition.n_leaves <= 8


def test_score_depends_only_on_the_leaf_set():
    """Cut order must not matter: both routes to the quadrant partition of
    the square carry the same score."""
    pts = np.array([[0.1, 0.1], [0.2, 0.9], [0.6, 0.4], [0.9, 0.9]])
    base = root_partition(pts, (0.0, 0.0), (1.0, 1.0))
    a = propose_cut(propose_cut(base, 0, 0), 0, 1)  # x first, then y on both
    a = propose_cut(a, 2, 1)
    b = propose_cut(propose_cut(base, 0, 1), 0, 0)  # y first, then x on both
    b = propose_cut(b, 2, 0)
    cells_a = sorted((leaf.lo, leaf.hi, leaf.n) for leaf in a.leaves)
    cells_b = sorted((leaf.lo, leaf.hi, leaf.n) for leaf in b.leaves)
    assert cells_a == cells_b
    sa = log_partition_score(a, 0.5, 1.0)
    sb = log_partition_score(b, 0.5, 1.0)
    assert sa == pytest.approx(sb, abs=1e-12)


def test_estimate_rejects_zero_samples():
    with pytest.raises(ValueError):
        bsp_estimate(np.zeros((0, 1)), (0.0,), (1.0,), np.random.default_rng(0))


def test_estimate_rejects_points_outside_or_off_the_domain():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="outside the partition domain"):
        bsp_estimate(np.array([[0.5], [1.5]]), (0.0,), (1.0,), rng)
    with pytest.raises(ValueError, match="outside the partition domain"):
        bsp_estimate(np.array([[0.5], [-0.1]]), (0.0,), (1.0,), rng)
    with pytest.raises(ValueError, match=r"must be \(n, d\) matching the domain"):
        bsp_estimate(np.array([[0.5, 0.5]]), (0.0,), (1.0,), rng)
    with pytest.raises(ValueError, match=r"must be \(n, d\) matching the domain"):
        bsp_estimate(np.array([[0.5]]), (0.0, 0.0), (1.0, 1.0), rng)
    with pytest.raises(ValueError, match=r"must be \(n, d\) matching the domain"):
        bsp_estimate(np.array([0.25, 0.5]), (0.0,), (1.0,), rng)  # rows only
    with pytest.raises(ValueError, match="samples must be finite"):
        bsp_estimate(np.array([[0.5, np.nan]]), (0.0, 0.0), (1.0, 1.0), rng)
    with pytest.raises(ValueError, match="samples must be finite"):
        bsp_estimate(np.array([[0.5], [np.inf]]), (0.0,), (np.inf,), rng)


def test_estimate_rejects_non_finite_settings():
    rng = np.random.default_rng(0)
    for alpha in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            bsp_estimate(TWO_POINTS, (0.0,), (1.0,), rng, alpha=alpha)
    for beta in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="beta must be finite"):
            bsp_estimate(TWO_POINTS, (0.0,), (1.0,), rng, beta=beta)


@pytest.mark.parametrize("alpha", [0.001, 0.1, 0.5, 1.0, 2.5])
def test_log_gamma_table_agrees_with_scipy(alpha):
    # the search's table of log Gamma(k + alpha); relative to the value far
    # from the zeros of log Gamma at 1 and 2, absolute near them
    x = np.arange(10**5 + 1) + alpha
    want = special.loggamma(x)
    got = bsp._lgamma(x)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_score_validation():
    part = root_partition(TWO_POINTS, (0.0,), (1.0,))
    with pytest.raises(ValueError):
        log_partition_score(part, alpha=0.0, beta=1.0)


# ------------------------------------------- lockstep search vs reference ---


def _assert_same_estimate(got, want):
    assert got.log_score == want.log_score
    assert np.array_equal(got.masses, want.masses)
    assert np.array_equal(got.partition.boxes, want.partition.boxes)
    assert np.array_equal(got.partition.counts, want.partition.counts)
    assert density_record(got)["tree"] == density_record(want)["tree"]


def _blob(seed, n, dim):
    pts = np.random.default_rng(seed).normal(0.35, 0.12, size=(n, dim))
    return np.clip(pts, 0.0, 0.999)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 5, 77])
def test_lockstep_search_matches_the_per_particle_reference(dim, seed):
    pts = _blob(seed, 400, dim)
    box = ((0.0,) * dim, (1.0,) * dim)
    got = bsp_estimate(pts, *box, np.random.default_rng(seed + 1))
    want = reference_bsp_estimate(pts, *box, np.random.default_rng(seed + 1))
    _assert_same_estimate(got, want)


def _half_open_counts(partition, pts):
    """Points in each leaf's box [lo, hi), closed where the box's upper face
    lies on the domain's: a point on a cut counts in the high child only."""
    top = np.asarray(partition.hi)
    counts = []
    for lo, hi in partition.boxes:
        below = (pts < hi) | ((pts == hi) & (hi == top))
        counts.append(int(np.all((lo <= pts) & below, axis=1).sum()))
    return counts


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_points_on_cut_midpoints_go_to_the_high_child(dim):
    # a blob on the 1/64 lattice: its points sit on the midpoints of the
    # first six halvings of [0, 1)
    pts = np.minimum(np.round(_blob(dim, 500, dim) * 64.0), 63.0) / 64.0
    box = ((0.0,) * dim, (1.0,) * dim)
    got = bsp_estimate(pts, *box, np.random.default_rng(dim + 1))
    want = reference_bsp_estimate(pts, *box, np.random.default_rng(dim + 1))
    _assert_same_estimate(got, want)
    cuts = got.partition.nodes[got.partition.nodes["leaf"] < 0]
    positions = set(zip(cuts["axis"].tolist(), cuts["position"].tolist()))
    assert any(np.any(pts[:, axis] == position) for axis, position in positions)
    assert _half_open_counts(got.partition, pts) == got.partition.counts.tolist()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lockstep_search_matches_the_reference_on_repeated_points(dim):
    pts = _blob(dim, 300, dim)
    pts = np.vstack([pts, np.repeat(pts[:1], 150, axis=0), np.full((60, dim), 0.25)])
    box = ((0.0,) * dim, (1.0,) * dim)
    # a repeated point is never separated from its copies, so the search
    # keeps cutting towards it: a cap keeps the reference quick
    got = bsp_estimate(pts, *box, np.random.default_rng(dim), max_leaves=20)
    want = reference_bsp_estimate(pts, *box, np.random.default_rng(dim), max_leaves=20)
    _assert_same_estimate(got, want)
    assert _half_open_counts(got.partition, pts) == got.partition.counts.tolist()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_domain_a_few_ulps_wide_matches_the_reference(dim):
    """The last axis spans four ulps, so its second halving rounds onto a
    leaf end and may not be cut. Points sit on that axis's every float, on
    the domain's upper face and on the 1/64 lattice of the other axes."""
    eps = np.finfo(float).eps
    rng = np.random.default_rng(dim)
    pts = np.minimum(np.round(_blob(dim + 30, 400, dim) * 64.0), 64.0) / 64.0
    pts[:, -1] = 1.0 + eps * rng.integers(0, 5, size=pts.shape[0])
    pts[:40, 0] = 1.0
    lo, hi = (0.0,) * (dim - 1) + (1.0,), (1.0,) * (dim - 1) + (1.0 + 4 * eps,)
    got = bsp_estimate(pts, lo, hi, np.random.default_rng(dim + 2))
    want = reference_bsp_estimate(pts, lo, hi, np.random.default_rng(dim + 2))
    _assert_same_estimate(got, want)
    widths = got.partition.boxes[:, 1] - got.partition.boxes[:, 0]
    assert np.all(widths > 0.0)
    assert _half_open_counts(got.partition, pts) == got.partition.counts.tolist()
    if dim == 1:
        # four one-ulp leaves leave no particle a cut
        assert got.partition.n_leaves <= 4


@pytest.mark.parametrize("dim, max_leaves", [(1, 64), (2, 128)])
def test_a_repeated_point_is_never_wrapped_in_a_zero_width_leaf(dim, max_leaves):
    """36 copies of one point pull the search into halving the leaf around it
    down to a few ulps, where a midpoint rounds onto a leaf end."""
    pts = _blob(dim, 300, dim)
    pts = np.vstack([pts, np.repeat(pts[:1], 36, axis=0)])
    box = ((0.0,) * dim, (1.0,) * dim)
    got = bsp_estimate(pts, *box, np.random.default_rng(dim), max_leaves=max_leaves)
    widths = got.partition.boxes[:, 1] - got.partition.boxes[:, 0]
    assert np.all(widths > 0.0)
    assert widths.min() < 1e-15  # the search did reach the atom's ulps
    assert _half_open_counts(got.partition, pts) == got.partition.counts.tolist()
    if dim == 1:
        want = reference_bsp_estimate(
            pts, *box, np.random.default_rng(dim), max_leaves=max_leaves
        )
        _assert_same_estimate(got, want)


def test_concurrent_searches_return_their_sequential_results():
    jobs = [(_blob(21, 3000, 2), 22), (_blob(23, 2500, 3), 24)]

    def search(pts, seed):
        box = ((0.0,) * pts.shape[1], (1.0,) * pts.shape[1])
        return bsp_estimate(pts, *box, np.random.default_rng(seed))

    sequential = [search(*job) for job in jobs]
    results = [None] * len(jobs)
    start = threading.Barrier(len(jobs))

    def worker(i):
        start.wait(timeout=60)
        results[i] = search(*jobs[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    for got, want in zip(results, sequential):
        _assert_same_estimate(got, want)


def test_lockstep_search_matches_the_reference_at_the_leaf_cap():
    pts = np.random.default_rng(3).uniform(0.0, 1.0, size=(2000, 2))
    pts[:1000] *= 0.2
    got = bsp_estimate(pts, (0.0, 0.0), (1.0, 1.0), np.random.default_rng(3), max_leaves=6)
    want = reference_bsp_estimate(
        pts, (0.0, 0.0), (1.0, 1.0), np.random.default_rng(3), max_leaves=6
    )
    assert got.partition.n_leaves == 6
    _assert_same_estimate(got, want)


def test_lockstep_search_matches_the_reference_across_resampling(monkeypatch):
    resamples = []
    original = bsp._systematic_resample

    def counting(weights, rng):
        resamples.append(weights.size)
        return original(weights, rng)

    monkeypatch.setattr(bsp, "_systematic_resample", counting)
    pts = _blob(11, 600, 2)
    got = bsp_estimate(pts, (0.0, 0.0), (1.0, 1.0), np.random.default_rng(12), n_particles=30)
    want = reference_bsp_estimate(
        pts, (0.0, 0.0), (1.0, 1.0), np.random.default_rng(12), n_particles=30
    )
    assert resamples  # the ensemble did resample
    _assert_same_estimate(got, want)


@pytest.mark.parametrize("dim", [1, 2])
def test_lockstep_search_matches_the_reference_with_one_particle(dim):
    pts = _blob(8, 300, dim)
    box = ((0.0,) * dim, (1.0,) * dim)
    got = bsp_estimate(pts, *box, np.random.default_rng(9), n_particles=1)
    want = reference_bsp_estimate(pts, *box, np.random.default_rng(9), n_particles=1)
    _assert_same_estimate(got, want)


def test_leaf_boxes_locate_rows_like_the_tree_walk_on_faces_and_corners():
    """Looking a row up among the leaf boxes, half-open and closed on the
    domain's upper face, finds the leaf the cut tree routes it to: ties on a
    cut go to the high child, and rows off the domain find no leaf."""
    pts = _blob(4, 500, 2)
    part = bsp_estimate(pts, (0.0, 0.0), (1.0, 1.0), np.random.default_rng(4)).partition
    assert part.n_leaves > 4
    probes = np.vstack(
        [
            part.boxes[:, 0],  # points on cut faces and on the domain's upper face
            part.boxes[:, 1],
            np.random.default_rng(5).uniform(-0.1, 1.1, size=(300, 2)),
            [[1.0, 1.0], [0.0, 1.0], [1.0, 0.5], [np.nan, 0.5]],
        ]
    )
    located = RegionIndicator(part.boxes, part.hi).locate(probes)
    assert [None if i < 0 else i for i in located.tolist()] == [
        reference_locate(part, x) for x in probes
    ]
