import math
import pickle
import re

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from bevkit.geometry import (
    EGO_TO_CAMERA_AXES,
    DEGENERATE_DEPTH_TOL,
    CameraModel,
    Intrinsics,
    Pose,
    ego_to_camera_rotation,
    euler_to_rotation,
    finite_number,
    in_image,
    positive_number,
    project_points,
    shown,
    wrap_angle,
)
from bevkit.augment import PerturbationRange
from bevkit.boxes import Box3D
from bevkit.depth import DepthDecouplingConfig, metric_to_scale_invariant, resize_intrinsics, scale_invariant_to_metric
from bevkit.metrics import MetricConfig, nds_star
from bevkit.ordinal import DATASET_SCHEMES, OrdinalDomainScheme, assign_label, ordinal_loss, ordinal_loss_grad, reverse_gradient
from reference_cases import reference_project_point

INTR = Intrinsics(fx=1000.0, fy=1000.0, px=352.0, py=128.0, width=704, height=256)


def camera_frame_to_ego(pose: Pose, cam_point) -> np.ndarray:
    """Invert the projection chain: ego = R^-1 (q_cam - t)."""
    rotation = ego_to_camera_rotation(pose)
    return rotation.T @ (np.asarray(cam_point, dtype=float) - pose.translation_vector())


def project_one(cam: CameraModel, point) -> tuple[np.ndarray, float]:
    """One point through a one-row project_points: (pixel, depth)."""
    pixels, depths = project_points(cam, np.asarray(point, dtype=float)[None])
    return pixels[0], float(depths[0])


class TestWrapAngle:
    def test_in_range_passes_through_bitwise(self):
        for angle in (0.0, 0.3, -1.2, math.pi, -math.pi + 1e-9):
            assert wrap_angle(angle) == angle

    def test_wraps_out_of_range(self):
        assert wrap_angle(math.pi + 0.5) == pytest.approx(-math.pi + 0.5)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(7.0) == pytest.approx(7.0 - 2.0 * math.pi)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            wrap_angle(float("nan"))


class TestEulerToRotation:
    def test_zero_angles_identity(self):
        assert np.array_equal(euler_to_rotation(0.0, 0.0, 0.0), np.eye(3))

    def test_half_turn_squares_to_identity(self):
        rotation = euler_to_rotation(math.pi, 0.0, 0.0)
        assert np.abs(rotation @ rotation - np.eye(3)).max() < 1e-15

    def test_orthonormal_and_matches_reference(self):
        rotation = euler_to_rotation(0.3, -0.1, 0.05)
        assert np.abs(rotation.T @ rotation - np.eye(3)).max() < 1e-12
        reference = Rotation.from_euler("ZYX", [0.3, -0.1, 0.05]).as_matrix()
        assert np.abs(rotation - reference).max() < 1e-14

    def test_random_against_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            angles = rng.uniform(-math.pi, math.pi, size=3)
            rotation = euler_to_rotation(*angles)
            reference = Rotation.from_euler("ZYX", angles).as_matrix()
            assert np.abs(rotation - reference).max() < 1e-13

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            euler_to_rotation(float("inf"), 0.0, 0.0)

    def test_reference_decomposition_recovers_angles(self):
        # away from gimbal lock the Z-Y-X angles are unique, so scipy's
        # decomposition must return the angles the matrix was built from
        rng = np.random.default_rng(11)
        for _ in range(300):
            yaw = float(rng.uniform(-math.pi, math.pi))
            pitch = float(rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3))
            roll = float(rng.uniform(-math.pi, math.pi))
            back = Rotation.from_matrix(euler_to_rotation(yaw, pitch, roll)).as_euler("ZYX")
            assert np.abs(back - (yaw, pitch, roll)).max() < 1e-9

    @pytest.mark.parametrize("pitch, sign", [(math.pi / 2, -1.0), (-math.pi / 2, 1.0)], ids=["up", "down"])
    def test_gimbal_lock_keeps_one_degree_of_freedom(self, pitch, sign):
        # at pitch = +-pi/2 yaw and roll turn about the same axis, so only
        # yaw - roll (pitch up) or yaw + roll (pitch down) shapes the matrix
        rotation = euler_to_rotation(0.7, pitch, 0.3)
        folded = euler_to_rotation(0.7 + sign * 0.3, pitch, 0.0)
        assert np.abs(rotation - folded).max() < 1e-14
        assert np.abs(rotation.T @ rotation - np.eye(3)).max() < 1e-14
        assert np.linalg.det(rotation) == pytest.approx(1.0, abs=1e-14)


class TestProjectPoint:
    def test_optical_axis_point(self):
        cam = CameraModel(INTR, Pose(0.0, 0.0, 0.0), "c0")
        ego = camera_frame_to_ego(cam.pose, (0.0, 0.0, 10.0))
        pixel, depth = project_one(cam, ego)
        assert pixel == pytest.approx((352.0, 128.0), abs=1e-12)
        assert depth == pytest.approx(10.0, abs=1e-12)

    def test_lateral_offset_scales_by_focal_over_depth(self):
        cam = CameraModel(INTR, Pose(0.0, 0.0, 0.0), "c0")
        ego = camera_frame_to_ego(cam.pose, (1.0, 0.0, 10.0))
        pixel, depth = project_one(cam, ego)
        assert pixel == pytest.approx((452.0, 128.0), abs=1e-9)
        assert depth == pytest.approx(10.0)

    def test_point_behind_camera_flagged_by_sign(self):
        cam = CameraModel(INTR, Pose(0.0, 0.0, 0.0), "c0")
        ego = camera_frame_to_ego(cam.pose, (0.0, 0.0, -5.0))
        _, depth = project_one(cam, ego)
        assert depth < 0.0

    def test_zero_depth_degenerate(self):
        cam = CameraModel(INTR, Pose(0.0, 0.0, 0.0), "c0")
        ego = camera_frame_to_ego(cam.pose, (1.0, 2.0, 0.0))
        pixel, depth = project_one(cam, ego)
        assert abs(depth) <= DEGENERATE_DEPTH_TOL
        assert not np.all(np.isfinite(pixel))

    def test_translation_applied_in_camera_frame(self):
        pose = Pose(0.0, 0.0, 0.0, translation=(3.0, -2.0, 1.0))
        cam = CameraModel(INTR, pose, "c0")
        ego = camera_frame_to_ego(pose, (0.0, 0.0, 15.0))
        pixel, depth = project_one(cam, ego)
        assert pixel == pytest.approx((352.0, 128.0), abs=1e-9)
        assert depth == pytest.approx(15.0)

    def test_linearity_in_camera_frame_depth(self):
        rng = np.random.default_rng(3)
        pose = Pose(0.5, -0.1, 0.2, translation=(0.0, 0.0, 0.0))
        cam = CameraModel(INTR, pose, "c0")
        for _ in range(50):
            cam_point = np.array([rng.uniform(-3, 3), rng.uniform(-1, 1), rng.uniform(5, 40)])
            scale = float(rng.uniform(0.2, 4.0))
            p1, d1 = project_one(cam, camera_frame_to_ego(pose, cam_point))
            p2, d2 = project_one(cam, camera_frame_to_ego(pose, scale * cam_point))
            assert np.abs(p1 - p2).max() < 1e-8
            assert d2 == pytest.approx(scale * d1, rel=1e-12)

    def test_matches_matrix_form(self):
        # independent route: d * (u, v, 1) = K (R Q + t)
        rng = np.random.default_rng(5)
        pose = Pose(1.1, -0.2, 0.15, translation=(0.5, -1.0, 2.0))
        cam = CameraModel(INTR, pose, "c0")
        reference_rotation = EGO_TO_CAMERA_AXES @ Rotation.from_euler("ZYX", [1.1, -0.2, 0.15]).as_matrix().T
        for _ in range(50):
            ego = rng.uniform(-1.0, 1.0, size=3) * np.array([30.0, 30.0, 3.0])
            projected = INTR.matrix() @ (reference_rotation @ ego + np.array(pose.translation))
            if abs(projected[2]) < 1e-6:
                continue
            pixel, depth = project_one(cam, ego)
            assert depth == pytest.approx(projected[2], rel=1e-12)
            assert np.abs(pixel - projected[:2] / projected[2]).max() < 1e-9


class TestProjectPoints:
    def test_rows_equal_one_row_calls_and_per_point_reference_bitwise(self):
        rng = np.random.default_rng(11)
        cam = CameraModel(INTR, Pose(1.1, -0.2, 0.15, translation=(0.5, -1.0, 2.0)), "c0")
        points = rng.uniform(-1.0, 1.0, size=(500, 3)) * np.array([30.0, 30.0, 3.0])
        pixels, depths = project_points(cam, points)
        assert pixels.shape == (500, 2) and depths.shape == (500,)
        for point, pixel, depth in zip(points, pixels, depths):
            for one_pixel, one_depth in (project_one(cam, point), reference_project_point(cam, point)):
                assert one_pixel.tobytes() == pixel.tobytes()
                assert np.float64(one_depth).tobytes() == depth.tobytes()

    def test_camera_plane_row_returned_not_raised(self):
        cam = CameraModel(INTR, Pose(0.0, 0.0, 0.0), "c0")
        ego = [camera_frame_to_ego(cam.pose, (1.0, 2.0, 0.0)), camera_frame_to_ego(cam.pose, (0.0, 0.0, 10.0))]
        pixels, depths = project_points(cam, ego)
        assert depths[0] == 0.0 and not np.all(np.isfinite(pixels[0]))
        assert pixels[1] == pytest.approx((352.0, 128.0), abs=1e-12)

    def test_empty_input(self):
        pixels, depths = project_points(CameraModel(INTR, Pose(0.0, 0.0, 0.0), "c0"), np.empty((0, 3)))
        assert pixels.shape == (0, 2) and depths.shape == (0,)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="n, 3"):
            project_points(CameraModel(INTR, Pose(0.0, 0.0, 0.0), "c0"), [1.0, 2.0, 3.0])


class TestInImage:
    def test_corner_inclusive(self):
        assert in_image(INTR, (0.0, 0.0))

    def test_upper_bounds_exclusive(self):
        assert not in_image(INTR, (704.0, 100.0))
        assert not in_image(INTR, (100.0, 256.0))

    def test_negative_outside(self):
        assert not in_image(INTR, (-0.5, 10.0))

    def test_half_open_box_predicate(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            u = float(rng.uniform(-100.0, 900.0))
            v = float(rng.uniform(-100.0, 400.0))
            expected = 0.0 <= u < 704 and 0.0 <= v < 256
            assert in_image(INTR, (u, v)) == expected

    def test_array_form_is_a_row_mask(self):
        pixels = [(0.0, 0.0), (704.0, 100.0), (100.0, 256.0), (-0.5, 10.0), (703.5, 255.5), (math.nan, 10.0)]
        assert in_image(INTR, pixels).tolist() == [True, False, False, False, True, False]


class TestValidation:
    def test_intrinsics_require_positive_focals(self):
        with pytest.raises(ValueError):
            Intrinsics(fx=0.0, fy=1000.0, px=10.0, py=10.0, width=100, height=100)
        with pytest.raises(ValueError):
            Intrinsics(fx=1000.0, fy=-5.0, px=10.0, py=10.0, width=100, height=100)

    def test_intrinsics_principal_point_inside_image(self):
        with pytest.raises(ValueError):
            Intrinsics(fx=100.0, fy=100.0, px=100.0, py=10.0, width=100, height=100)

    def test_intrinsics_positive_integer_size(self):
        with pytest.raises(ValueError):
            Intrinsics(fx=100.0, fy=100.0, px=10.0, py=10.0, width=0, height=100)

    def test_pose_wraps_angles(self):
        pose = Pose(yaw=4.0, pitch=0.0, roll=0.0)
        assert pose.yaw == pytest.approx(4.0 - 2.0 * math.pi)
        assert Pose(yaw=math.pi, pitch=0.0, roll=0.0).yaw == math.pi

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Intrinsics(fx=True, fy=100.0, px=10.0, py=10.0, width=100, height=100), "fx must be a positive finite number, got True"),
            (lambda: Intrinsics(fx=100.0, fy=100.0, px="10", py=10.0, width=100, height=100), "px must be a finite number, got '10'"),
            (lambda: Intrinsics(fx=100.0, fy=math.inf, px=10.0, py=10.0, width=100, height=100), "fy must be a positive finite number, got inf"),
            (lambda: Pose(yaw="0.5", pitch=0.0, roll=0.0), "yaw must be a finite number, got '0.5'"),
            (lambda: Pose(0.0, 0.0, False), "roll must be a finite number, got False"),
            (lambda: Pose(0.0, 0.0, 0.0, translation=(0.0, True, 0.0)), "translation must be a finite number, got True"),
        ],
        ids=["bool-focal", "string-principal-point", "infinite-focal", "string-yaw", "bool-roll", "bool-translation"],
    )
    def test_camera_numbers_reject_bools_and_strings(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_pose_translation_checked(self):
        with pytest.raises(ValueError):
            Pose(0.0, 0.0, 0.0, translation=(1.0, 2.0))

    def test_camera_id_required(self):
        with pytest.raises(ValueError):
            CameraModel(INTR, Pose(0.0, 0.0, 0.0), "")


LOGITS = [0.5, -0.25, 1.0, 2.0, -1.5, 0.75]

# Each scalar parameter that depth, ordinal and geometry take from a caller:
# its name, a call that passes a value to it alone, and a whole value it accepts.
NUMBER_PARAMETERS = [
    pytest.param("angle", wrap_angle, 4, id="wrap-angle"),
    pytest.param("yaw", lambda v: euler_to_rotation(v, 0.1, 0.2), 1, id="yaw"),
    pytest.param("pitch", lambda v: euler_to_rotation(0.1, v, 0.2), 1, id="pitch"),
    pytest.param("roll", lambda v: euler_to_rotation(0.1, 0.2, v), 1, id="roll"),
    pytest.param("reference_pixel_size", lambda v: DepthDecouplingConfig(reference_pixel_size=v), 1, id="reference-pixel-size"),
    pytest.param("metric_depth_range", lambda v: DepthDecouplingConfig(metric_depth_range=(v, 90.0)), 2, id="depth-min"),
    pytest.param("metric_depth_range", lambda v: DepthDecouplingConfig(metric_depth_range=(2.0, v)), 90, id="depth-max"),
    pytest.param("d_m", lambda v: metric_to_scale_invariant(v, INTR, DepthDecouplingConfig()), 40, id="metric-depth"),
    pytest.param("d", lambda v: scale_invariant_to_metric(v, INTR, DepthDecouplingConfig()), 20, id="scale-invariant-depth"),
    pytest.param("r_x", lambda v: resize_intrinsics(INTR, v, 0.5), 2, id="r-x"),
    pytest.param("r_y", lambda v: resize_intrinsics(INTR, 0.5, v), 2, id="r-y"),
    pytest.param("alpha", lambda v: OrdinalDomainScheme(v, 750.0, 5), 500, id="alpha"),
    pytest.param("beta", lambda v: OrdinalDomainScheme(500.0, v, 5), 750, id="beta"),
    pytest.param("focal", lambda v: assign_label(DATASET_SCHEMES["nuscenes"], v), 600, id="focal"),
    pytest.param("label", lambda v: ordinal_loss(LOGITS, v), 1, id="loss-label"),
    pytest.param("label", lambda v: ordinal_loss_grad(LOGITS, v), 1, id="grad-label"),
    pytest.param("grl_lambda", lambda v: reverse_gradient(LOGITS, v), 2, id="grl-lambda"),
]


# (name in the message, call, sign rule) for each scalar that obeys ``finite_number``'s range rule.
RANGE_SITES = [
    pytest.param("fx", lambda v: Intrinsics(fx=v, fy=100.0, px=1.0, py=1.0, width=2, height=2), "positive", id="fx"),
    pytest.param("fy", lambda v: Intrinsics(fx=100.0, fy=v, px=1.0, py=1.0, width=2, height=2), "positive", id="fy"),
    pytest.param("d_yaw", lambda v: PerturbationRange(d_yaw=v), "non-negative", id="d-yaw"),
    pytest.param("d_pitch", lambda v: PerturbationRange(d_pitch=v), "non-negative", id="d-pitch"),
    pytest.param("d_roll", lambda v: PerturbationRange(d_roll=v), "non-negative", id="d-roll"),
    pytest.param("reference_pixel_size", lambda v: DepthDecouplingConfig(reference_pixel_size=v), "positive", id="c"),
    pytest.param("metric_depth_range", lambda v: DepthDecouplingConfig(metric_depth_range=(v, 90.0)), "positive", id="depth-min"),
    pytest.param("metric_depth_range", lambda v: DepthDecouplingConfig(metric_depth_range=(2.0, v)), "positive", id="depth-max"),
    pytest.param("d", lambda v: scale_invariant_to_metric(v, INTR, DepthDecouplingConfig()), "positive", id="d"),
    pytest.param("r_x", lambda v: resize_intrinsics(INTR, v, 0.5), "positive", id="r-x"),
    pytest.param("r_y", lambda v: resize_intrinsics(INTR, 0.5, v), "positive", id="r-y"),
    pytest.param("alpha", lambda v: OrdinalDomainScheme(v, 750.0, 5), "", id="alpha"),
    pytest.param("beta", lambda v: OrdinalDomainScheme(-750.0, v, 5), "", id="beta"),
    pytest.param("focal", lambda v: assign_label(DATASET_SCHEMES["nuscenes"], v), "positive", id="focal"),
    pytest.param("grl_lambda", lambda v: reverse_gradient(LOGITS, v), "non-negative", id="grl-lambda"),
    pytest.param("distance threshold", lambda v: MetricConfig((0.5, v), 0.5), "positive", id="distance-threshold"),
    pytest.param("range_limit", lambda v: MetricConfig(range_limit=v), "positive", id="range-limit"),
    pytest.param("mATE", lambda v: nds_star(0.5, v, 0.1, 0.1), "non-negative", id="m-ate"),
    pytest.param("mAOE", lambda v: nds_star(0.5, 0.1, 0.1, v), "non-negative", id="m-aoe"),
    pytest.param("center", lambda v: Box3D((1.0, v, 0.0), (1.0, 1.0, 1.0), 0.0), "", id="center"),
    pytest.param("dims", lambda v: Box3D((1.0, 1.0, 0.0), (1.0, 1.0, v), 0.0), "non-negative", id="dims"),
]

# Values each sign rule rejects, besides a bool and a string.
OUT_OF_RANGE = {
    "": [math.nan, math.inf, -math.inf],
    "non-negative": [-1.5, -1e-300, math.nan, math.inf, -math.inf],
    "positive": [0, 0.0, -0.0, -1.5, math.nan, math.inf, -math.inf],
}


class TestNumberRule:
    """``geometry``'s number and range rules hold for every scalar a caller hands the value types and functions."""

    @pytest.mark.parametrize("sign", OUT_OF_RANGE)
    def test_sign_rules(self, sign):
        kind = f"{sign} finite" if sign else "finite"
        for bad in [*OUT_OF_RANGE[sign], True, "1"]:
            with pytest.raises(ValueError) as exc:
                finite_number("x", bad, sign)
            assert str(exc.value) == f"x must be a {kind} number, got {shown(bad)}"
        for good in {"": [-2, 0, 1e308], "non-negative": [0, -0.0, 1e-300, 2], "positive": [1e-300, 3]}[sign]:
            assert finite_number("x", good, sign) == good and type(finite_number("x", good, sign)) is float

    def test_positive_number_is_the_positive_rule(self):
        assert positive_number("x", 2) == 2.0
        with pytest.raises(ValueError, match=r"^x must be a positive finite number, got 0$"):
            positive_number("x", 0)

    @pytest.mark.parametrize("name, call, sign", RANGE_SITES)
    def test_every_site_applies_its_sign_rule(self, name, call, sign):
        kind = f"{sign} finite" if sign else "finite"
        for bad in OUT_OF_RANGE[sign]:
            with pytest.raises(ValueError) as exc:
                call(bad)
            assert str(exc.value) == f"{name} must be a {kind} number, got {shown(bad)}"

    @pytest.mark.parametrize("name, call, whole", NUMBER_PARAMETERS)
    def test_bools_and_strings_rejected_by_name(self, name, call, whole):
        for bad in (True, str(whole)):
            with pytest.raises(ValueError, match=f"^{name} must be .*, got {re.escape(repr(bad))}$"):
                call(bad)

    @pytest.mark.parametrize("name, call, whole", NUMBER_PARAMETERS)
    def test_int_and_float_give_identical_bits(self, name, call, whole):
        assert pickle.dumps(call(whole)) == pickle.dumps(call(float(whole)))

    @pytest.mark.parametrize("call", [ordinal_loss, ordinal_loss_grad], ids=["loss", "grad"])
    def test_fractional_label_rejected_not_truncated(self, call):
        with pytest.raises(ValueError, match=r"^label must be a non-negative integer, got 2\.5$"):
            call(LOGITS, 2.5)
