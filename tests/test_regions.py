import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpfkit.regions import Box, RegionIndicator
from helpers import box_contains, disjoint_volume_check

UP2 = (10.0, 10.0)


def test_box_geometry():
    b = Box((0.0, 0.0), (2.0, 1.0))
    assert b.ndim == 2
    assert b.volume == 2.0
    assert np.array_equal(b.center, [1.0, 0.5])


def test_box_rejects_degenerate_extent():
    with pytest.raises(ValueError):
        Box((0.0,), (0.0,))
    with pytest.raises(ValueError):
        Box((1.0,), (0.5,))
    with pytest.raises(ValueError):
        Box((0.0, 0.0), (1.0,))


def test_box_membership_is_half_open():
    b = RegionIndicator((Box((0.0, 0.0), (2.0, 1.0)),), UP2)
    assert b.contains(np.array([0.0, 0.0]))
    assert b.contains(np.array([1.9999, 0.9999]))
    # upper faces are open unless they sit on the space boundary
    assert not b.contains(np.array([2.0, 0.5]))
    assert not b.contains(np.array([1.0, 1.0]))
    assert not b.contains(np.array([-0.1, 0.5]))


def test_box_closed_on_space_upper_face():
    assert RegionIndicator((Box((0.0,), (10.0,)),), (10.0,)).contains(np.array([10.0]))
    assert not RegionIndicator((Box((0.0,), (5.0,)),), (10.0,)).contains(np.array([5.0]))


def test_box_intersection():
    a = Box((0.0, 0.0), (2.0, 1.0))
    cut = a.intersect(Box((1.0, 0.5), (3.0, 2.0)))
    assert cut == Box((1.0, 0.5), (2.0, 1.0))
    # shared faces have zero volume and do not count as overlap
    assert a.intersect(Box((2.0, 0.0), (3.0, 1.0))) is None
    assert a.intersect(Box((5.0, 5.0), (6.0, 6.0))) is None


@given(
    st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        min_size=8,
        max_size=8,
    )
)
def test_box_intersection_commutes_and_shrinks(vals):
    """intersect is symmetric and never larger than either operand."""
    lo_a = [min(vals[0], vals[1]), min(vals[2], vals[3])]
    hi_a = [max(vals[0], vals[1]) + 0.1, max(vals[2], vals[3]) + 0.1]
    lo_b = [min(vals[4], vals[5]), min(vals[6], vals[7])]
    hi_b = [max(vals[4], vals[5]) + 0.1, max(vals[6], vals[7]) + 0.1]
    a = Box(tuple(lo_a), tuple(hi_a))
    b = Box(tuple(lo_b), tuple(hi_b))
    ab = a.intersect(b)
    ba = b.intersect(a)
    assert (ab is None) == (ba is None)
    if ab is not None:
        assert ab == ba
        assert ab.volume <= min(a.volume, b.volume) + 1e-12


def test_region_volume_and_bounding_box():
    r = RegionIndicator((Box((0.0,), (1.0,)), Box((3.0,), (4.0,))), (4.0,))
    assert r.volume == 2.0
    assert r.bounding_box() == Box((0.0,), (4.0,))


def test_region_membership_uses_space_closure():
    r = RegionIndicator((Box((0.0,), (1.0,)), Box((3.0,), (4.0,))), (4.0,))
    assert r.contains(np.array([0.5]))
    assert r.contains(np.array([4.0]))  # closed at the space boundary
    assert not r.contains(np.array([1.0]))  # interior face stays open
    assert not r.contains(np.array([2.0]))


def test_region_membership_of_rows_matches_single_points():
    r = RegionIndicator(
        (Box((0.0, 0.0), (1.0, 2.0)), Box((1.0, 1.0), (2.0, 2.0))), (2.0, 2.0)
    )
    rows = np.array(
        [[0.5, 0.5], [1.0, 0.5], [1.0, 1.0], [2.0, 2.0], [0.0, 2.0], [1.5, 0.5], [-0.1, 1.0]]
    )
    mask = r.contains(rows)
    assert mask.dtype == bool and mask.shape == (7,)
    assert mask.tolist() == [True, False, True, True, True, False, False]
    assert mask.tolist() == [r.contains(p) for p in rows]
    assert r.contains(np.empty((0, 2))).shape == (0,)


def test_region_membership_matches_the_per_point_reference():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x, y = rng.uniform(0.2, 0.8, size=2)
        tiles = (Box((0.0, 0.0), (x, y)), Box((x, y), (1.0, 1.0)), Box((0.0, y), (x, 1.0)))
        r = RegionIndicator(tiles, (1.0, 1.0))
        # points on every face and corner as well as interior ones
        edges = np.array([-0.1, 0.0, x, y, 1.0, 1.1])
        grid = np.stack(np.meshgrid(edges, edges), axis=-1).reshape(-1, 2)
        pts = np.vstack([grid, rng.uniform(-0.1, 1.1, size=(40, 2))])
        want = [any(box_contains(b, p, r.space_upper) for b in tiles) for p in pts]
        assert r.contains(pts).tolist() == want


def test_region_intersect_box_returns_disjoint_pieces():
    r = RegionIndicator((Box((0.0,), (1.0,)), Box((3.0,), (4.0,))), (4.0,))
    pieces = r.intersect_box(Box((0.5,), (3.5,)))
    assert pieces == (Box((0.5,), (1.0,)), Box((3.0,), (3.5,)))
    assert disjoint_volume_check(pieces)
    assert r.intersect_box(Box((1.0,), (3.0,))) == ()


def test_region_validation():
    with pytest.raises(ValueError):
        RegionIndicator((), (1.0,))
    with pytest.raises(ValueError):
        RegionIndicator((Box((0.0,), (1.0,)), Box((0.0, 0.0), (1.0, 1.0))), (1.0,))
    with pytest.raises(ValueError):
        RegionIndicator((Box((0.0,), (1.0,)),), (1.0, 1.0))


def test_disjoint_volume_check():
    assert disjoint_volume_check((Box((0.0,), (1.0,)), Box((1.0,), (2.0,))))
    assert not disjoint_volume_check((Box((0.0,), (1.5,)), Box((1.0,), (2.0,))))


def test_random_partitions_stay_disjoint():
    # random split points on [0, 1)^2 arranged as a 2x2 tiling
    rng = np.random.default_rng(11)
    for _ in range(50):
        x, y = rng.uniform(0.2, 0.8, size=2)
        tiles = (
            Box((0.0, 0.0), (x, y)),
            Box((x, 0.0), (1.0, y)),
            Box((0.0, y), (x, 1.0)),
            Box((x, y), (1.0, 1.0)),
        )
        assert disjoint_volume_check(tiles)
        assert abs(sum(t.volume for t in tiles) - 1.0) < 1e-12
        r = RegionIndicator(tiles, (1.0, 1.0))
        for p in rng.uniform(0.0, 1.0, size=(20, 2)):
            assert r.contains(p)
