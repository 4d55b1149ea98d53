import math

import numpy as np
import pytest

from bevkit.depth import (
    DATASET_DEPTH_RANGES,
    DepthDecouplingConfig,
    DepthRangeError,
    metric_to_scale_invariant,
    pixel_size,
    resize_intrinsics,
    scale_invariant_to_metric,
)
from bevkit.geometry import CameraModel, Intrinsics, Pose, project_points


def make_intrinsics(fx, fy, width=704, height=256):
    return Intrinsics(fx=fx, fy=fy, px=width / 2, py=height / 2, width=width, height=height)


class TestPixelSize:
    def test_square_pixel_value(self):
        assert pixel_size(make_intrinsics(1000.0, 1000.0)) == pytest.approx(1.41421356e-3, rel=1e-8)

    def test_equal_focals_reduce_to_sqrt2_over_f(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            f = float(rng.uniform(10.0, 5000.0))
            assert pixel_size(make_intrinsics(f, f)) == pytest.approx(math.sqrt(2.0) / f, rel=1e-14)

    def test_three_four_five(self):
        intr = Intrinsics(fx=3.0, fy=4.0, px=0.5, py=0.5, width=1, height=1)
        assert pixel_size(intr) == pytest.approx(5.0 / 12.0, rel=1e-15)

    def test_decreasing_in_each_focal(self):
        base = pixel_size(make_intrinsics(800.0, 600.0))
        assert pixel_size(make_intrinsics(900.0, 600.0)) < base
        assert pixel_size(make_intrinsics(800.0, 700.0)) < base


class TestScaleInvariantConversion:
    def test_reference_camera_is_identity(self):
        intr = make_intrinsics(1000.0, 1000.0)
        cfg = DepthDecouplingConfig(reference_pixel_size=pixel_size(intr))
        assert metric_to_scale_invariant(40.0, intr, cfg) == 40.0

    def test_half_reference_focal_halves_depth(self):
        intr = make_intrinsics(1000.0, 1000.0)
        cfg = DepthDecouplingConfig(reference_pixel_size=math.sqrt(2.0) / 500.0)
        assert metric_to_scale_invariant(40.0, intr, cfg) == pytest.approx(20.0, rel=1e-12)
        assert scale_invariant_to_metric(20.0, intr, cfg) == pytest.approx(40.0, rel=1e-12)

    def test_doubling_focals_halves_scale_invariant_depth(self):
        cfg = DepthDecouplingConfig()
        d1 = metric_to_scale_invariant(30.0, make_intrinsics(700.0, 700.0), cfg)
        d2 = metric_to_scale_invariant(30.0, make_intrinsics(1400.0, 1400.0), cfg)
        assert d2 == pytest.approx(d1 / 2.0, rel=1e-15)

    def test_out_of_range_rejected_not_clamped(self):
        intr = make_intrinsics(1000.0, 1000.0)
        cfg = DepthDecouplingConfig(metric_depth_range=(2.0, 90.0))
        with pytest.raises(DepthRangeError):
            metric_to_scale_invariant(1.5, intr, cfg)
        with pytest.raises(DepthRangeError):
            metric_to_scale_invariant(90.5, intr, cfg)

    def test_non_positive_scale_invariant_rejected(self):
        intr = make_intrinsics(1000.0, 1000.0)
        with pytest.raises(ValueError):
            scale_invariant_to_metric(0.0, intr, DepthDecouplingConfig())

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_scale_invariant_rejected(self, value):
        intr = make_intrinsics(1000.0, 1000.0)
        with pytest.raises(ValueError, match=str(value)):
            scale_invariant_to_metric(value, intr, DepthDecouplingConfig())

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(6)
        cfg = DepthDecouplingConfig()
        lo, hi = cfg.metric_depth_range
        for _ in range(1000):
            intr = make_intrinsics(float(rng.uniform(200.0, 3000.0)), float(rng.uniform(200.0, 3000.0)))
            d_m = float(rng.uniform(lo, hi))
            back = scale_invariant_to_metric(metric_to_scale_invariant(d_m, intr, cfg), intr, cfg)
            assert abs(back - d_m) / d_m < 1e-12

    def test_size_depth_product_focal_invariant(self):
        # a 1.8 m segment at 30 m: (projected pixel height) x (converted depth)
        # must not depend on the focal length
        cfg = DepthDecouplingConfig()
        products = []
        for focal in (400.0, 800.0, 1600.0):
            intr = make_intrinsics(focal, focal)
            pixel_height = intr.fy * 1.8 / 30.0
            products.append(pixel_height * metric_to_scale_invariant(30.0, intr, cfg))
        assert (max(products) - min(products)) / max(products) < 1e-9

    def test_dataset_presets(self):
        assert DATASET_DEPTH_RANGES["nuscenes"] == (2.0, 90.0)
        assert DATASET_DEPTH_RANGES["waymo"] == (1.0, 60.0)
        assert DATASET_DEPTH_RANGES["lyft"] == (1.0, 90.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DepthDecouplingConfig(reference_pixel_size=0.0)
        with pytest.raises(ValueError):
            DepthDecouplingConfig(metric_depth_range=(5.0, 5.0))


class TestResizeIntrinsics:
    def test_identity_rates(self):
        intr = make_intrinsics(800.0, 600.0)
        assert resize_intrinsics(intr, 1.0, 1.0) == intr

    def test_direct_scaling(self):
        intr = Intrinsics(fx=800.0, fy=800.0, px=352.0, py=128.0, width=704, height=256)
        resized = resize_intrinsics(intr, 0.5, 1.0)
        assert resized.fx == 400.0
        assert resized.px == 176.0
        assert resized.width == 352
        assert resized.fy == 800.0
        assert resized.height == 256

    def test_rounding_half_up(self):
        intr = Intrinsics(fx=100.0, fy=100.0, px=1.0, py=1.0, width=5, height=3)
        resized = resize_intrinsics(intr, 0.5, 0.5)
        assert resized.width == 3  # 2.5 rounds up, not to even
        assert resized.height == 2

    def test_projection_consistency(self):
        rng = np.random.default_rng(9)
        intr = make_intrinsics(900.0, 850.0)
        pose = Pose(0.4, -0.05, 0.1, translation=(0.2, -0.3, 1.0))
        cam = CameraModel(intr, pose, "c0")
        for _ in range(50):
            r_x, r_y = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0))
            resized_cam = CameraModel(resize_intrinsics(intr, r_x, r_y), pose, "c1")
            ego = rng.uniform(-1.0, 1.0, size=(1, 3)) * np.array([25.0, 25.0, 3.0])
            (pixel,), (depth,) = project_points(cam, ego)
            if depth <= 0.1:
                continue
            (resized_pixel,), (resized_depth,) = project_points(resized_cam, ego)
            assert resized_depth == depth
            assert resized_pixel[0] == pytest.approx(r_x * pixel[0], rel=1e-9, abs=1e-9)
            assert resized_pixel[1] == pytest.approx(r_y * pixel[1], rel=1e-9, abs=1e-9)

    def test_composition(self):
        intr = make_intrinsics(640.0, 480.0)
        a, b = 0.7, 1.3
        once = resize_intrinsics(intr, a * b, a * b)
        twice = resize_intrinsics(resize_intrinsics(intr, a, a), b, b)
        assert twice.fx == pytest.approx(once.fx, rel=1e-12)
        assert twice.fy == pytest.approx(once.fy, rel=1e-12)
        assert twice.px == pytest.approx(once.px, rel=1e-12)
        assert twice.py == pytest.approx(once.py, rel=1e-12)

    def test_non_positive_rate_rejected(self):
        intr = make_intrinsics(800.0, 600.0)
        with pytest.raises(ValueError):
            resize_intrinsics(intr, 0.0, 1.0)
        with pytest.raises(ValueError):
            resize_intrinsics(intr, 1.0, -0.5)
