import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpfkit.regions import RegionIndicator, box_volumes
from helpers import box_contains, disjoint_volume_check

UP2 = (10.0, 10.0)


def test_box_geometry():
    boxes = np.array([[[0.0, 0.0], [2.0, 1.0]], [[1.0, 1.0], [1.5, 4.0]]])
    assert box_volumes(boxes).tolist() == [2.0, 1.5]
    assert box_volumes(boxes[0]) == 2.0
    r = RegionIndicator(boxes, UP2)
    assert r.ndim == 2
    assert r.boxes.shape == (2, 2, 2)
    assert not r.boxes.flags.writeable
    # the region keeps its own copy of the corners
    boxes[0, 0, 0] = -1.0
    assert r.boxes[0, 0, 0] == 0.0


def test_box_rejects_degenerate_extent():
    with pytest.raises(ValueError, match="degenerate"):
        RegionIndicator([[[0.0], [0.0]]], (1.0,))
    with pytest.raises(ValueError, match="degenerate"):
        RegionIndicator([[[1.0], [0.5]]], (1.0,))
    with pytest.raises(ValueError, match="degenerate"):
        RegionIndicator([[[0.0, 0.0], [1.0, 1.0]], [[0.0, 0.5], [1.0, 0.5]]], (1.0, 1.0))
    with pytest.raises(ValueError, match="degenerate"):
        RegionIndicator([[[0.0], [np.nan]]], (1.0,))


def test_box_membership_is_half_open():
    b = RegionIndicator([[[0.0, 0.0], [2.0, 1.0]]], UP2)
    assert b.contains(np.array([[0.0, 0.0], [1.9999, 0.9999]])).all()
    # upper faces are open unless they sit on the space boundary
    assert not b.contains(np.array([[2.0, 0.5], [1.0, 1.0], [-0.1, 0.5]])).any()


def test_box_closed_on_space_upper_face():
    assert RegionIndicator([[[0.0], [10.0]]], (10.0,)).contains(np.array([[10.0]]))[0]
    assert not RegionIndicator([[[0.0], [5.0]]], (10.0,)).contains(np.array([[5.0]]))[0]


def test_box_intersection():
    r = RegionIndicator([[[0.0, 0.0], [2.0, 1.0]]], UP2)
    leaf, pieces = r.clip(np.array([[1.0, 0.5]]), np.array([[3.0, 2.0]]))
    assert leaf.tolist() == [0]
    assert pieces.tolist() == [[[1.0, 0.5], [2.0, 1.0]]]
    # shared faces have zero volume and do not count as overlap
    leaf, pieces = r.clip(np.array([[2.0, 0.0], [5.0, 5.0]]), np.array([[3.0, 1.0], [6.0, 6.0]]))
    assert leaf.shape == (0,)
    assert pieces.shape == (0, 2, 2)


@given(
    st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        min_size=8,
        max_size=8,
    )
)
def test_box_intersection_commutes_and_shrinks(vals):
    """Clipping a by b equals clipping b by a and is never larger than either."""
    lo_a = [min(vals[0], vals[1]), min(vals[2], vals[3])]
    hi_a = [max(vals[0], vals[1]) + 0.1, max(vals[2], vals[3]) + 0.1]
    lo_b = [min(vals[4], vals[5]), min(vals[6], vals[7])]
    hi_b = [max(vals[4], vals[5]) + 0.1, max(vals[6], vals[7]) + 0.1]
    a = np.array([lo_a, hi_a])
    b = np.array([lo_b, hi_b])
    _, ab = RegionIndicator(a[None], UP2).clip(b[None, 0], b[None, 1])
    _, ba = RegionIndicator(b[None], UP2).clip(a[None, 0], a[None, 1])
    assert ab.tolist() == ba.tolist()
    assert len(ab) <= 1
    if len(ab):
        assert box_volumes(ab[0]) <= min(box_volumes(a), box_volumes(b)) + 1e-12


def test_region_volume_and_bounding_box():
    r = RegionIndicator([[[0.0], [1.0]], [[3.0], [4.0]]], (4.0,))
    assert box_volumes(r.boxes).sum() == 2.0
    assert r.bounding_box() == ((0.0,), (4.0,))
    lo, hi = RegionIndicator([[[1.0, 0.0], [2.0, 3.0]], [[0.0, 1.0], [1.0, 2.0]]], UP2).bounding_box()
    assert (lo, hi) == ((0.0, 0.0), (2.0, 3.0))
    assert all(type(v) is float for v in lo + hi)


def test_region_membership_uses_space_closure():
    r = RegionIndicator([[[0.0], [1.0]], [[3.0], [4.0]]], (4.0,))
    # closed at the space boundary 4; the interior face 1 stays open
    assert r.contains(np.array([[0.5], [4.0], [1.0], [2.0]])).tolist() == [
        True, True, False, False
    ]


def test_region_membership_of_rows_matches_single_points():
    r = RegionIndicator([[[0.0, 0.0], [1.0, 2.0]], [[1.0, 1.0], [2.0, 2.0]]], (2.0, 2.0))
    rows = np.array(
        [[0.5, 0.5], [1.0, 0.5], [1.0, 1.0], [2.0, 2.0], [0.0, 2.0], [1.5, 0.5], [-0.1, 1.0]]
    )
    mask = r.contains(rows)
    assert mask.dtype == bool and mask.shape == (7,)
    assert mask.tolist() == [True, False, True, True, True, False, False]
    assert r.contains(np.empty((0, 2))).shape == (0,)


def test_region_membership_rejects_a_dimension_mismatch():
    r = RegionIndicator([[[0.0, 0.0], [1.0, 1.0]]], (1.0, 1.0))
    for bad in (
        np.array([0.5]), np.array([0.5, 0.5]), np.array(0.5), np.zeros((3, 1)),
        np.zeros((3, 3)), np.zeros((3, 1, 2)),
    ):
        with pytest.raises(ValueError, match="shape"):
            r.contains(bad)


def test_region_membership_matches_the_per_point_reference():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x, y = rng.uniform(0.2, 0.8, size=2)
        tiles = np.array(
            [[[0.0, 0.0], [x, y]], [[x, y], [1.0, 1.0]], [[0.0, y], [x, 1.0]]]
        )
        r = RegionIndicator(tiles, (1.0, 1.0))
        # points on every face and corner as well as interior ones
        edges = np.array([-0.1, 0.0, x, y, 1.0, 1.1])
        grid = np.stack(np.meshgrid(edges, edges), axis=-1).reshape(-1, 2)
        pts = np.vstack([grid, rng.uniform(-0.1, 1.1, size=(40, 2))])
        want = [any(box_contains(b, p, r.space_upper) for b in tiles) for p in pts]
        assert r.contains(pts).tolist() == want


def test_region_clip_returns_disjoint_pieces():
    r = RegionIndicator([[[0.0], [1.0]], [[3.0], [4.0]]], (4.0,))
    leaf, pieces = r.clip(np.array([[0.5], [1.0], [-1.0]]), np.array([[3.5], [3.0], [5.0]]))
    # leaf first, then region box; the middle leaf only touches faces
    assert leaf.tolist() == [0, 0, 2, 2]
    assert pieces.tolist() == [[[0.5], [1.0]], [[3.0], [3.5]], [[0.0], [1.0]], [[3.0], [4.0]]]
    assert disjoint_volume_check(pieces[:2])


def test_region_validation():
    with pytest.raises(ValueError):
        RegionIndicator(np.empty((0, 2, 1)), (1.0,))
    with pytest.raises(ValueError):
        RegionIndicator([[0.0, 1.0]], (1.0,))
    with pytest.raises(ValueError):
        RegionIndicator([[[0.0], [1.0], [2.0]]], (2.0,))
    with pytest.raises(ValueError):
        RegionIndicator([[[0.0], [1.0]]], (1.0, 1.0))


def test_disjoint_volume_check():
    assert disjoint_volume_check([[[0.0], [1.0]], [[1.0], [2.0]]])
    assert not disjoint_volume_check([[[0.0], [1.5]], [[1.0], [2.0]]])
    assert disjoint_volume_check([[[0.0, 0.0], [1.0, 1.0]], [[0.5, 1.0], [2.0, 2.0]]])
    assert not disjoint_volume_check([[[0.0, 0.0], [1.0, 1.0]], [[0.5, 0.5], [2.0, 2.0]]])


def test_random_partitions_stay_disjoint():
    # random split points on [0, 1)^2 arranged as a 2x2 tiling
    rng = np.random.default_rng(11)
    for _ in range(50):
        x, y = rng.uniform(0.2, 0.8, size=2)
        tiles = np.array(
            [
                [[0.0, 0.0], [x, y]],
                [[x, 0.0], [1.0, y]],
                [[0.0, y], [x, 1.0]],
                [[x, y], [1.0, 1.0]],
            ]
        )
        assert disjoint_volume_check(tiles)
        assert abs(box_volumes(tiles).sum() - 1.0) < 1e-12
        r = RegionIndicator(tiles, (1.0, 1.0))
        assert r.contains(rng.uniform(0.0, 1.0, size=(20, 2))).all()
        # clipping the whole square returns the tiles themselves, in order
        leaf, pieces = r.clip(np.zeros((1, 2)), np.ones((1, 2)))
        assert leaf.tolist() == [0, 0, 0, 0]
        assert np.array_equal(pieces, tiles)
