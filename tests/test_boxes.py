import math

import numpy as np
import pytest

from bevkit.boxes import Box3D, bottom_points
from reference_cases import reference_bottom_points


class TestBox3D:
    def test_negative_dims_rejected(self):
        with pytest.raises(ValueError):
            Box3D((0.0, 0.0, 0.0), (4.0, -2.0, 1.5), 0.0)

    def test_yaw_wrapped(self):
        box = Box3D((0.0, 0.0, 0.0), (4.0, 2.0, 1.5), yaw=math.pi + 0.25)
        assert box.yaw == pytest.approx(-math.pi + 0.25)

    def test_score_bounds(self):
        with pytest.raises(ValueError):
            Box3D((0.0, 0.0, 0.0), (4.0, 2.0, 1.5), 0.0, score=1.2)
        assert Box3D((0.0, 0.0, 0.0), (4.0, 2.0, 1.5), 0.0, score=0.5).score == 0.5


class TestBottomPoints:
    def test_axis_aligned_footprint(self):
        box = Box3D((0.0, 0.0, 1.0), (4.0, 2.0, 2.0), 0.0)
        anchors = bottom_points([box])
        assert anchors.shape == (1, 5, 3)
        points = anchors[0]
        assert np.array_equal(points[0], (0.0, 0.0, 0.0))
        assert np.all(points[:, 2] == 0.0)
        corners = {(round(x, 9), round(y, 9)) for x, y in points[1:, :2]}
        assert corners == {(2.0, 1.0), (2.0, -1.0), (-2.0, -1.0), (-2.0, 1.0)}

    def test_quarter_turn_swaps_extents(self):
        box = Box3D((0.0, 0.0, 1.0), (4.0, 2.0, 2.0), math.pi / 2)
        corners = bottom_points([box])[0][1:, :2]
        expected = {(1.0, 2.0), (1.0, -2.0), (-1.0, -2.0), (-1.0, 2.0)}
        got = {(round(x, 9), round(y, 9)) for x, y in corners}
        assert got == expected

    def test_zero_height_bottom_center_is_center(self):
        box = Box3D((3.0, -1.0, 0.5), (4.0, 2.0, 0.0), 0.3)
        assert np.array_equal(bottom_points([box])[0][0], (3.0, -1.0, 0.5))

    def test_offsets_translate_with_center(self):
        base = bottom_points([Box3D((0.0, 0.0, 1.0), (4.0, 2.0, 2.0), 0.7)])[0]
        moved = bottom_points([Box3D((5.0, -3.0, 1.0), (4.0, 2.0, 2.0), 0.7)])[0]
        assert np.abs((moved - base) - np.array([5.0, -3.0, 0.0])).max() < 1e-12

    def test_corner_distances_preserved_under_yaw(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            dims = tuple(rng.uniform(0.5, 5.0, size=3))
            yaw = float(rng.uniform(-math.pi, math.pi))
            corners = bottom_points([Box3D((0.0, 0.0, 0.0), dims, yaw)])[0][1:, :2]
            radius = math.hypot(dims[0] / 2.0, dims[1] / 2.0)
            assert np.abs(np.linalg.norm(corners, axis=1) - radius).max() < 1e-9

    def test_no_boxes_no_anchors(self):
        anchors = bottom_points([])
        assert anchors.shape == (0, 5, 3)
        assert anchors.dtype == np.float64

    def test_matches_per_box_reference_bit_for_bit(self):
        # yaw over (-pi, pi] with both ends, extents that are often zero,
        # centres from 1e-3 to 1e6 in magnitude
        rng = np.random.default_rng(24)
        boxes = [Box3D((0.0, 0.0, 0.0), (4.0, 2.0, 1.5), yaw) for yaw in (math.pi, -math.pi, math.nextafter(-math.pi, 0.0))]
        for _ in range(1200):
            scale = 10.0 ** float(rng.integers(-3, 7))
            center = tuple(rng.uniform(-scale, scale, size=3))
            dims = tuple(rng.uniform(0.0, 10.0, size=3) * (rng.random(3) < 0.8))
            boxes.append(Box3D(center, dims, float(rng.uniform(-math.pi, math.pi))))
        expected = np.array([reference_bottom_points(box) for box in boxes])
        got = bottom_points(boxes)
        assert got.shape == expected.shape == (len(boxes), 5, 3)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
