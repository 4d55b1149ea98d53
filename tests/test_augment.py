import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from bevkit.augment import (
    MIN_PAIRS_FOR_FIT,
    Homography,
    MatchedPairSet,
    PerturbationRange,
    ground_plane_homography,
    augment_camera,
    collect_pairs,
    fit_homography,
    perturb_pose,
    plan_camera,
    _hartley_normalization,
)
from bevkit.boxes import Box3D, bottom_points
from bevkit.cli import _map_forked, main
from bevkit.geometry import CameraModel, Intrinsics, Pose, ego_to_camera_rotation, in_image, project_points
from bevkit.scene import Scene, generate_synthetic_scene, render_pattern_image
from reference_cases import pure_rotation_case, reference_collect_pairs

INTR = Intrinsics(fx=1000.0, fy=1000.0, px=352.0, py=128.0, width=704, height=256)

# A camera at the ego origin looking along ego +x, so an anchor (x, y, z)
# lands at camera (-y, -z, x) and pixel (50 - 100 y / x, 50 - 100 z / x)
# exactly: the image edges u = 0, u = width and v = height are reachable.
EDGE_CAM = CameraModel(Intrinsics(fx=100.0, fy=100.0, px=50.0, py=50.0, width=100, height=100), Pose(0.0, 0.0, 0.0), "edge")


def assert_pairs_match_reference(cam, perturbed, boxes):
    pairs = collect_pairs(cam, perturbed, boxes)
    source, target = reference_collect_pairs(cam, perturbed, boxes)
    assert pairs.source.shape == source.shape and pairs.source.tobytes() == source.tobytes()
    assert pairs.target.shape == target.shape and pairs.target.tobytes() == target.tobytes()
    return pairs


def reference_fit_matrix(source, target):
    """Normalized DLT with a per-pair row loop and the full SVD."""
    t_src = _hartley_normalization(source)
    t_dst = _hartley_normalization(target)
    ones = np.ones((len(source), 1))
    src = np.hstack([source, ones]) @ t_src.T
    dst = np.hstack([target, ones]) @ t_dst.T
    rows = []
    for (x, y, _), (xh, yh, _) in zip(src, dst):
        rows.append([-x, -y, -1.0, 0.0, 0.0, 0.0, xh * x, xh * y, xh])
        rows.append([0.0, 0.0, 0.0, -x, -y, -1.0, yh * x, yh * y, yh])
    _, _, vt = np.linalg.svd(np.array(rows), full_matrices=True)
    return Homography(np.linalg.inv(t_dst) @ vt[-1].reshape(3, 3) @ t_src).matrix


def dehomogenize(matrix: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    pts = np.hstack([pixels, np.ones((pixels.shape[0], 1))]) @ matrix.T
    return pts[:, :2] / pts[:, 2:3]


class TestPerturbPose:
    def test_zero_half_widths_identical_pose(self):
        pose = Pose(0.5, -0.1, 0.2, translation=(1.0, 2.0, 3.0))
        limits = PerturbationRange(0.0, 0.0, 0.0)
        perturbed = perturb_pose(pose, limits, np.random.default_rng(0))
        assert perturbed == pose

    def test_fixed_seed_reproducible(self):
        pose = Pose(0.5, -0.1, 0.2)
        limits = PerturbationRange(0.05, 0.02, 0.03)
        a = perturb_pose(pose, limits, np.random.default_rng(42))
        b = perturb_pose(pose, limits, np.random.default_rng(42))
        assert a == b

    def test_uniform_statistics(self):
        pose = Pose(0.0, 0.0, 0.0)
        limits = PerturbationRange(d_yaw=0.0, d_pitch=0.02, d_roll=0.0)
        rng = np.random.default_rng(123)
        offsets = np.array([perturb_pose(pose, limits, rng).pitch for _ in range(10_000)])
        assert offsets.min() >= -0.02
        assert offsets.max() <= 0.02
        # std of the mean of U(-h, h) is h / sqrt(3 N)
        assert abs(offsets.mean()) < 3.0 * 0.02 / math.sqrt(3.0 * 10_000)

    def test_translation_untouched(self):
        pose = Pose(0.5, -0.1, 0.2, translation=(1.0, -2.0, 0.5))
        perturbed = perturb_pose(pose, PerturbationRange(0.1, 0.1, 0.1), np.random.default_rng(1))
        assert perturbed.translation == pose.translation

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            PerturbationRange(seed=-1)

    def test_negative_half_width_rejected(self):
        with pytest.raises(ValueError):
            PerturbationRange(d_yaw=-0.01)


class TestCollectPairs:
    def make_camera(self):
        return CameraModel(INTR, Pose(0.0, 0.0, 0.0, translation=(0.0, 0.0, 0.0)), "c0")

    def test_zero_perturbation_pairs_identical(self):
        cam = self.make_camera()
        boxes = [Box3D((20.0, 1.0, 0.75), (4.0, 2.0, 1.5), 0.4)]
        pairs = collect_pairs(cam, cam.pose, boxes)
        assert len(pairs) == 5
        assert np.array_equal(pairs.source, pairs.target)

    def test_box_behind_camera_contributes_nothing(self):
        cam = self.make_camera()
        boxes = [Box3D((-20.0, 0.0, 0.75), (4.0, 2.0, 1.5), 0.0)]
        assert len(collect_pairs(cam, cam.pose, boxes)) == 0

    @pytest.mark.parametrize("translation", [(0.0, 0.0, 0.0), (0.0, -1.6, 1.5)], ids=["origin", "offset"])
    def test_counts_match_brute_force(self, translation):
        # independent route: scipy rotation + intrinsic matrix product
        cam = CameraModel(INTR, Pose(0.0, 0.0, 0.0, translation=translation), "c0")
        perturbed = Pose(0.015, -0.008, 0.01, translation=translation)
        boxes = [
            Box3D((18.0, 2.0, 0.75), (4.0, 2.0, 1.5), 0.3),
            Box3D((30.0, -4.0, 0.9), (4.5, 2.0, 1.8), -0.7),
            Box3D((12.0, 6.0, 0.7), (3.8, 1.8, 1.4), 1.2),
            Box3D((9.0, -40.0, 0.75), (4.0, 2.0, 1.5), 0.0),  # far off axis
        ]
        axes = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])

        def brute_project(pose, point):
            rotation = axes @ Rotation.from_euler("ZYX", [pose.yaw, pose.pitch, pose.roll]).as_matrix().T
            cam_point = rotation @ point + np.array(pose.translation)
            projected = INTR.matrix() @ cam_point
            return projected[:2] / projected[2], projected[2]

        expected = []
        for box in boxes:
            for anchor in bottom_points(box):
                q, d = brute_project(cam.pose, anchor)
                q_hat, d_hat = brute_project(perturbed, anchor)
                visible = (
                    d > 0 and d_hat > 0
                    and 0 <= q[0] < 704 and 0 <= q[1] < 256
                    and 0 <= q_hat[0] < 704 and 0 <= q_hat[1] < 256
                )
                if visible:
                    expected.append((q, q_hat))
        pairs = collect_pairs(cam, perturbed, boxes)
        assert len(pairs) == len(expected)
        assert 0 < len(pairs) <= 20
        for (q, q_hat), src, dst in zip(expected, pairs.source, pairs.target):
            assert np.abs(q - src).max() < 1e-9
            assert np.abs(q_hat - dst).max() < 1e-9

    def test_empty_scene_empty_pairs(self):
        cam = self.make_camera()
        pairs = collect_pairs(cam, cam.pose, [])
        assert len(pairs) == 0
        assert pairs.source.shape == pairs.target.shape == (0, 2)

    @pytest.mark.parametrize(
        "boxes, perturbed, kept",
        [
            ([Box3D((0.0, 1.0, 0.0), (0.0, 0.0, 0.0), 0.0)], None, 0),
            ([Box3D((1e-13, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0)], None, 0),
            ([Box3D((0.0, 1.0, 0.0), (0.0, 0.0, 0.0), 0.0)], Pose(0.01, 0.0, 0.0), 0),
            ([Box3D((-10.0, 0.0, 0.0), (2.0, 2.0, 0.0), 0.0)], None, 0),
            # anchors at u = 50, 0, 100, 100, 0: u == width is out, u == 0 is in
            ([Box3D((10.0, 0.0, 0.0), (0.0, 10.0, 0.0), 0.0)], None, 3),
            # v == height is out, v == 0 is in
            ([Box3D((10.0, 0.0, -5.0), (0.0, 0.0, 0.0), 0.0), Box3D((10.0, 0.0, 5.0), (0.0, 0.0, 0.0), 0.0)], None, 5),
            ([Box3D((20.0, 1.0, 0.0), (0.0, 0.0, 0.0), 0.3)], Pose(0.01, -0.005, 0.01), 5),
            ([], None, 0),
        ],
        ids=[
            "on-camera-plane",
            "within-plane-tolerance",
            "on-original-camera-plane-only",
            "behind-camera",
            "u-edges",
            "v-edges",
            "zero-size-box",
            "no-boxes",
        ],
    )
    def test_hand_cases_match_per_anchor_reference_bitwise(self, boxes, perturbed, kept):
        pairs = assert_pairs_match_reference(EDGE_CAM, perturbed or EDGE_CAM.pose, boxes)
        assert len(pairs) == kept

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_boxes=st.integers(0, 40))
    def test_seeded_rigs_match_per_anchor_reference_bitwise(self, seed, n_boxes):
        # a synthetic rig and ground boxes, plus boxes around the rig that
        # straddle camera planes, stand behind cameras or have zero extents
        scene = generate_synthetic_scene(seed, 6, n_boxes)
        rng = np.random.default_rng(seed)
        near = [
            Box3D(
                (*rng.uniform(-6.0, 6.0, size=2), float(rng.uniform(-1.0, 3.0))),
                tuple(float(d) for d in rng.uniform(0.0, 5.0, size=3) * (rng.random(3) > 0.2)),
                float(rng.uniform(-math.pi, math.pi)),
            )
            for _ in range(n_boxes)
        ]
        limits = PerturbationRange(0.3, 0.1, 0.3, seed=seed)
        for index, cam in enumerate(scene.cameras):
            perturbed = perturb_pose(cam.pose, limits, np.random.default_rng([seed, index]))
            assert_pairs_match_reference(cam, perturbed, [*scene.boxes, *near])


class TestMatchedPairSet:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            MatchedPairSet(np.zeros((4, 2)), np.zeros((3, 2)))

    def test_empty_default(self):
        pairs = MatchedPairSet()
        assert len(pairs) == 0


class TestHomographyType:
    def test_gauge_normalized(self):
        h = Homography(5.0 * np.eye(3))
        assert np.linalg.norm(h.matrix) == pytest.approx(1.0, abs=1e-15)
        assert h.matrix[2, 2] > 0

    def test_negative_scale_flipped(self):
        h = Homography(-2.0 * np.eye(3))
        assert h.matrix[2, 2] > 0

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            Homography(np.diag([1.0, 1.0, 0.0]))

    def test_apply_matches_manual_dehomogenization(self):
        rng = np.random.default_rng(8)
        matrix = np.eye(3) + 0.01 * rng.standard_normal((3, 3))
        h = Homography(matrix)
        pixels = rng.uniform(0.0, 500.0, size=(10, 2))
        assert np.abs(h.apply(pixels) - dehomogenize(h.matrix, pixels)).max() < 1e-12

    def test_row_major_layout(self):
        h = Homography(np.arange(1.0, 10.0).reshape(3, 3) + np.eye(3))
        assert h.row_major() == [float(v) for v in h.matrix.reshape(-1)]


class TestFitHomography:
    def known_rotation_map(self, seed=0):
        rng = np.random.default_rng(seed)
        k = INTR.matrix()
        delta = Rotation.from_euler("ZYX", rng.uniform(-0.02, 0.02, size=3)).as_matrix()
        return k @ delta @ np.linalg.inv(k)

    def test_exact_pairs_recover_generating_map(self):
        true_map = self.known_rotation_map(3)
        rng = np.random.default_rng(4)
        source = rng.uniform((50.0, 30.0), (650.0, 220.0), size=(4, 2))
        target = dehomogenize(true_map, source)
        fitted = fit_homography(MatchedPairSet(source, target))
        assert fitted.provenance == "fitted"
        expected = Homography(true_map)
        assert np.linalg.norm(fitted.matrix - expected.matrix) < 1e-6

    def test_many_exact_pairs(self):
        true_map = self.known_rotation_map(5)
        rng = np.random.default_rng(6)
        source = rng.uniform((10.0, 10.0), (690.0, 245.0), size=(25, 2))
        target = dehomogenize(true_map, source)
        fitted = fit_homography(MatchedPairSet(source, target))
        assert np.linalg.norm(fitted.matrix - Homography(true_map).matrix) < 1e-9

    def test_three_pairs_identity_fallback(self):
        pairs = MatchedPairSet(np.zeros((3, 2)), np.ones((3, 2)))
        fallback = fit_homography(pairs)
        assert fallback.provenance == "identity-fallback"
        assert np.array_equal(fallback.matrix * math.sqrt(3.0), np.eye(3))

    def test_collinear_points_degenerate(self):
        source = np.array([[10.0, 10.0], [20.0, 20.0], [30.0, 30.0], [40.0, 40.0]])
        target = source + 5.0
        fallback = fit_homography(MatchedPairSet(source, target))
        assert fallback.provenance == "identity-fallback"
        assert np.array_equal(fallback.matrix * math.sqrt(3.0), np.eye(3))

    def test_matches_full_svd_reference_bit_for_bit(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            count = int(rng.integers(MIN_PAIRS_FOR_FIT, 9)) if seed % 5 == 0 else int(rng.integers(9, 800))
            source = rng.uniform((0.0, 0.0), (1600.0, 900.0), size=(count, 2))
            target = dehomogenize(self.known_rotation_map(seed), source)
            target += rng.normal(0.0, 0.5 * (seed % 2), size=target.shape)
            fitted = fit_homography(MatchedPairSet(source, target))
            assert np.array_equal(fitted.matrix, reference_fit_matrix(source, target)), (seed, count)

    def test_many_collinear_points_degenerate(self):
        line = np.linspace(0.0, 1.0, 40)[:, None]
        source = (10.0, 20.0) + line * (600.0, 150.0)
        target = 2.0 * source + 5.0
        fallback = fit_homography(MatchedPairSet(source, target))
        assert fallback.provenance == "identity-fallback"
        assert np.array_equal(fallback.matrix * math.sqrt(3.0), np.eye(3))

    def test_gauge_invariant_to_homogeneous_scale(self):
        true_map = self.known_rotation_map(9)
        rng = np.random.default_rng(10)
        source = rng.uniform((50.0, 30.0), (650.0, 220.0), size=(8, 2))
        target_a = dehomogenize(true_map, source)
        target_b = dehomogenize(-3.7 * true_map, source)
        fit_a = fit_homography(MatchedPairSet(source, target_a))
        fit_b = fit_homography(MatchedPairSet(source, target_b))
        assert np.abs(fit_a.matrix - fit_b.matrix).max() < 1e-12

    def test_reprojection_residual_pure_rotation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            cam, perturbed, boxes = pure_rotation_case(rng)
            pairs = collect_pairs(cam, perturbed, boxes)
            fitted = fit_homography(pairs)
            residual = np.linalg.norm(fitted.apply(pairs.source) - pairs.target, axis=1)
            assert residual.max() < 1e-6


def camera_at(centre, yaw=0.0, pitch=0.0, roll=0.0):
    """A camera whose centre -R^T t sits at the ego point ``centre``."""
    pose = Pose(yaw, pitch, roll)
    translation = tuple(-(ego_to_camera_rotation(pose) @ np.asarray(centre, dtype=float)))
    return CameraModel(INTR, Pose(yaw, pitch, roll, translation=translation), "c0")


class TestGroundPlaneHomography:
    def test_zero_perturbation_identity(self):
        cam = CameraModel(INTR, Pose(0.3, -0.1, 0.05, translation=(1.0, 0.5, -0.2)), "c0")
        h = ground_plane_homography(cam, cam.pose)
        assert np.abs(h.matrix - np.eye(3) / math.sqrt(3.0)).max() < 1e-12

    def test_pure_rotation_matches_conjugated_rotation(self):
        pose = Pose(1.0, 0.1, -0.05, translation=(0.0, 0.0, 0.0))
        cam = CameraModel(INTR, pose, "c0")
        perturbed = Pose(1.02, 0.09, -0.04, translation=(0.0, 0.0, 0.0))
        rel = ego_to_camera_rotation(perturbed) @ ego_to_camera_rotation(pose).T
        k = INTR.matrix()
        expected = Homography(k @ rel @ np.linalg.inv(k))
        got = ground_plane_homography(cam, perturbed)
        assert np.abs(got.matrix - expected.matrix).max() < 1e-14

    def test_points_on_plane_satisfy_map(self):
        # perturb_pose keeps t, so the centre of a camera 1.4 m above the
        # ground moves: the map is exact on z = 0 and only there
        cam = camera_at((0.3, -0.2, 1.4), yaw=0.1, pitch=0.08, roll=0.02)
        perturbed = Pose(0.13, 0.07, 0.025, translation=cam.pose.translation)
        moved = CameraModel(INTR, perturbed, "c0")
        centre_shift = ego_to_camera_rotation(perturbed).T @ np.array(cam.pose.translation) + np.array((0.3, -0.2, 1.4))
        assert np.linalg.norm(centre_shift) > 1e-3

        h = ground_plane_homography(cam, perturbed)
        rng = np.random.default_rng(12)
        ground = np.column_stack([rng.uniform(5.0, 40.0, 200), rng.uniform(-8.0, 8.0, 200), np.zeros(200)])
        q1, depth1 = project_points(cam, ground)
        q2, depth2 = project_points(moved, ground)
        seen = (depth1 > 0.0) & (depth2 > 0.0) & in_image(INTR, q1)
        assert seen.sum() > 50
        assert np.abs(h.apply(q1[seen]) - q2[seen]).max() < 1e-9

        lifted = ground[seen] + (0.0, 0.0, 1.0)
        assert np.abs(h.apply(project_points(cam, lifted)[0]) - project_points(moved, lifted)[0]).max() > 1e-3

    def test_camera_on_the_plane_has_no_map(self):
        # with zero pitch and roll, t[1] = 0 puts the centre exactly on z = 0:
        # the plane is seen edge-on, and once the centre moves no map of it exists
        cam = CameraModel(INTR, Pose(0.4, 0.0, 0.0, translation=(0.5, 0.0, -2.0)), "c0")
        assert (ego_to_camera_rotation(cam.pose).T @ cam.pose.translation_vector())[2] == 0.0
        assert ground_plane_homography(cam, Pose(0.42, 0.01, 0.0, translation=cam.pose.translation)) is None
        # unperturbed, the centre stays and the map is the identity
        h = ground_plane_homography(cam, cam.pose)
        assert np.abs(h.matrix - np.eye(3) / math.sqrt(3.0)).max() < 1e-12

    def test_camera_next_to_the_plane_has_no_map(self):
        # a micrometre above the ground the map is singular at the
        # gauge-normalized scale: reported as no map, not raised
        cam = camera_at((1.0, 0.5, 1e-6), pitch=0.1)
        assert ground_plane_homography(cam, Pose(0.02, 0.11, 0.01, translation=cam.pose.translation)) is None


class TestOracleEquivalence:
    def test_fitted_matches_closed_form_over_random_cases(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(200):
            cam, perturbed, boxes = pure_rotation_case(rng)
            pairs = collect_pairs(cam, perturbed, boxes)
            assert len(pairs) >= 4
            fitted = fit_homography(pairs)
            closed_form = ground_plane_homography(cam, perturbed)
            worst = max(worst, float(np.linalg.norm(fitted.matrix - closed_form.matrix)))
        assert worst < 1e-6


def augment_each(rig, images, boxes, limits, workers=1):
    """augment_camera for every camera index, split over ``workers`` processes as the augment command runs it."""
    return _map_forked(lambda i: augment_camera(rig[i], images[i], boxes, limits, i), rig, workers)


class TestAugmentScene:
    def make_rig(self, n=3, height=1.6):
        # cameras above the ground, otherwise ground-level anchors all fall
        # on the horizon line and the fit is rightly degenerate
        cams = []
        for i in range(n):
            pose = Pose(2.0 * math.pi * i / n, 0.0, 0.0)
            center = np.array([0.0, 0.0, height])
            pose = Pose(
                pose.yaw, pose.pitch, pose.roll,
                translation=tuple(-(ego_to_camera_rotation(pose) @ center)),
            )
            cams.append(CameraModel(INTR, pose, f"cam_{i}"))
        return cams

    def boxes_for_rig(self):
        boxes = []
        for bearing in np.linspace(-math.pi, math.pi, 9, endpoint=False):
            boxes.append(
                Box3D(
                    (25.0 * math.cos(bearing), 25.0 * math.sin(bearing), 0.75),
                    (4.0, 2.0, 1.5),
                    float(bearing),
                )
            )
        return boxes

    def test_zero_ranges_images_and_poses_unchanged(self):
        rig = self.make_rig()
        images = [render_pattern_image(704, 256, i) for i in range(len(rig))]
        limits = PerturbationRange(0.0, 0.0, 0.0, seed=5)
        views = augment_each(rig, images, self.boxes_for_rig(), limits)
        for cam, image, view in zip(rig, images, views):
            assert np.array_equal(view.image, image)
            assert view.pose == cam.pose

    def test_no_visible_boxes_identity_fallback_only_for_that_camera(self):
        rig = self.make_rig(n=2)
        images = [render_pattern_image(704, 256, i) for i in range(2)]
        # boxes in front of camera 0 only (ego +x), camera 1 looks backward
        boxes = [
            Box3D((20.0, d, 0.75), (4.0, 2.0, 1.5), 0.1 * d)
            for d in (-4.0, 0.0, 4.0)
        ]
        limits = PerturbationRange(0.02, 0.01, 0.02, seed=3)
        views = augment_each(rig, images, boxes, limits)
        assert views[0].homography.provenance == "fitted"
        assert views[0].pose != rig[0].pose
        assert views[1].homography.provenance == "identity-fallback"
        assert views[1].pose == rig[1].pose
        assert np.array_equal(views[1].image, images[1])

    def test_degenerate_camera_falls_back_alone(self):
        rig = self.make_rig(n=2)
        images = [render_pattern_image(704, 256, i) for i in range(2)]
        # camera 0 sees only a zero-size box: its five anchors coincide
        boxes = [Box3D((20.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0)] + [
            Box3D((-20.0, d, 0.75), (4.0, 2.0, 1.5), 0.1 * d) for d in (-4.0, 0.0, 4.0)
        ]
        limits = PerturbationRange(0.02, 0.01, 0.02, seed=3)
        plan = plan_camera(rig[0], boxes, limits, 0)
        assert len(plan.pairs) >= MIN_PAIRS_FOR_FIT
        assert plan.homography.provenance == "identity-fallback"
        views = augment_each(rig, images, boxes, limits)
        assert views[0].homography.provenance == "identity-fallback"
        assert views[0].pose == rig[0].pose
        assert np.array_equal(views[0].image, images[0])
        assert views[1].homography.provenance == "fitted"

    def test_zero_offsets_plan_is_analytic_and_keeps_pairs(self):
        rig = self.make_rig(n=1)
        plan = plan_camera(rig[0], self.boxes_for_rig(), PerturbationRange(0.0, 0.0, 0.0, seed=5), 0)
        assert plan.perturbed == rig[0].pose
        assert plan.homography.provenance == "analytic"
        assert np.array_equal(plan.homography.matrix, Homography(np.eye(3)).matrix)
        assert len(plan.pairs) >= MIN_PAIRS_FOR_FIT

    def test_deterministic_across_runs_and_workers(self):
        rig = self.make_rig(n=6)
        images = [render_pattern_image(704, 256, i) for i in range(6)]
        boxes = self.boxes_for_rig()
        limits = PerturbationRange(0.03, 0.01, 0.02, seed=11)
        runs = [
            augment_each(rig, images, boxes, limits, workers=w)
            for w in (1, 1, 4)
        ]
        for other in runs[1:]:
            for a, b in zip(runs[0], other):
                assert np.array_equal(a.image, b.image)
                assert a.pose == b.pose
                assert np.array_equal(a.homography.matrix, b.homography.matrix)

    def test_mismatched_images_rejected(self, tmp_path, capsys):
        # the augment command reads one raster per camera from the scene's
        # image_paths, so a scene listing fewer paths than cameras is refused
        rig = self.make_rig(n=2)
        with pytest.raises(ValueError, match="got 1 image paths for 2 cameras"):
            Scene("s", rig, [], image_paths=["images/cam_0.pgm"])
        assert main(["gen-scene", "--seed", "3", "--with-images", "--output-dir", str(tmp_path)]) == 0
        scene = json.loads((tmp_path / "scene.json").read_text())
        scene["image_paths"] = scene["image_paths"][:-1]
        (tmp_path / "short.json").write_text(json.dumps(scene))
        capsys.readouterr()
        out = tmp_path / "aug"
        assert main(["augment", "--scene", str(tmp_path / "short.json"), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'short.json'}: got 5 image paths for 6 cameras\n"
        assert not (out / "poses.json").exists()

    def test_scene_runs_augment_camera_per_index(self):
        rig = self.make_rig(n=4)
        images = [render_pattern_image(704, 256, i) for i in range(4)]
        boxes = self.boxes_for_rig()
        limits = PerturbationRange(0.03, 0.01, 0.02, seed=11)
        views = augment_each(rig, images, boxes, limits, workers=2)
        for index, view in enumerate(views):
            alone = augment_camera(rig[index], images[index], boxes, limits, index)
            assert np.array_equal(view.image, alone.image)
            assert view.pose == alone.pose
            assert np.array_equal(view.homography.matrix, alone.homography.matrix)

    @pytest.mark.parametrize("d_yaw", [0.0, 0.02], ids=["zero-offsets", "fitted"])
    @pytest.mark.parametrize("shape", [(50, 100), (256, 703), (50, 100, 3)], ids=["small", "one-column-short", "colour"])
    def test_image_size_must_match_intrinsics(self, d_yaw, shape):
        rig = self.make_rig(n=2)
        images = [render_pattern_image(704, 256, 0), np.zeros(shape, dtype=np.uint8)]
        limits = PerturbationRange(d_yaw, 0.0, 0.0, seed=3)
        message = f"camera 'cam_1': image is {shape[1]}x{shape[0]} but its intrinsics are 704x256"
        with pytest.raises(ValueError, match=message):
            augment_each(rig, images, self.boxes_for_rig(), limits)
        with pytest.raises(ValueError, match=message):
            augment_camera(rig[1], images[1], self.boxes_for_rig(), limits, 1)

