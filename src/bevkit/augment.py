"""Perspective augmentation: pose perturbation, anchor matching, homography.

The augmentation pipeline for one camera:

1. draw a random offset for each pose angle,
2. project the 5 bottom anchor points of every box with the original and
   the perturbed pose, keeping pairs visible in both views,
3. with at least 4 pairs, fit the homography that maps original pixels to
   perturbed pixels (DLT, least squares); with fewer pairs, or pairs that
   leave the fit degenerate, fall back to the identity and leave the image
   untouched,
4. warp the image with the fitted map.

The closed-form plane-induced homography K (R + t n^T / d) K^-1 between
the two camera frames is the oracle used to validate the fitted result;
for a pure rotation (zero relative translation) it is independent of the
plane, so the fitted map is exact for every scene point.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np

from .boxes import Box3D, bottom_points
from .geometry import (
    DEGENERATE_DEPTH_TOL,
    CameraModel,
    Pose,
    ego_to_camera_rotation,
    in_image,
    project_points,
    real_number,
    whole_number,
)
from .warp import warp_image

__all__ = [
    "MIN_PAIRS_FOR_FIT",
    "DegenerateFitError",
    "PerturbationRange",
    "Homography",
    "MatchedPairSet",
    "CameraPlan",
    "AugmentedView",
    "perturb_pose",
    "collect_pairs",
    "fit_homography",
    "analytic_homography",
    "plan_camera",
    "augment_camera",
    "map_cameras",
    "augment_scene",
]

# Below this many correspondences the 8-dof fit is underdetermined and the
# camera falls back to the identity map.
MIN_PAIRS_FOR_FIT = 4

_PROVENANCES = ("fitted", "analytic", "identity-fallback")

_T = TypeVar("_T")


class DegenerateFitError(ValueError):
    """Correspondences do not determine a unique homography."""


@dataclass(frozen=True)
class PerturbationRange:
    """Half-widths (radians) of the uniform angle offsets, plus the RNG seed."""

    d_yaw: float = 0.02
    d_pitch: float = 0.01
    d_roll: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("d_yaw", "d_pitch", "d_roll"):
            value = real_number(name, getattr(self, name))
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be a non-negative half-width, got {value!r}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "seed", whole_number("seed", self.seed, 0))


@dataclass(frozen=True)
class Homography:
    """3x3 projective map between two image planes, q_perturbed ~ H q.

    The stored matrix is gauge-normalized: unit Frobenius norm with the
    last element non-negative, so equal maps compare equal.  ``provenance``
    records how the matrix was obtained: "fitted" (least squares on
    correspondences), "analytic" (closed form from known motion), or
    "identity-fallback" (too few or degenerate correspondences).
    """

    matrix: np.ndarray
    provenance: str = "analytic"

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.shape != (3, 3) or not np.all(np.isfinite(matrix)):
            raise ValueError("homography must be a finite 3x3 matrix")
        norm = float(np.linalg.norm(matrix))
        if norm == 0.0:
            raise ValueError("homography matrix is zero")
        matrix = matrix / norm
        if matrix[2, 2] < 0.0:
            matrix = -matrix
        elif matrix[2, 2] == 0.0:
            anchor = matrix.flat[np.argmax(np.abs(matrix))]
            if anchor < 0.0:
                matrix = -matrix
        if abs(np.linalg.det(matrix)) < 1e-12:
            raise ValueError("homography is singular")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        if self.provenance not in _PROVENANCES:
            raise ValueError(f"provenance must be one of {_PROVENANCES}, got {self.provenance!r}")

    @classmethod
    def identity_fallback(cls) -> "Homography":
        return cls(np.eye(3), provenance="identity-fallback")

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.matrix, np.eye(3) / math.sqrt(3.0)))

    def apply(self, pixels: np.ndarray) -> np.ndarray:
        """Map (n, 2) or (2,) pixels through the homography and dehomogenize."""
        pts = np.atleast_2d(np.asarray(pixels, dtype=float))
        ones = np.ones((pts.shape[0], 1))
        mapped = np.hstack([pts, ones]) @ self.matrix.T
        out = mapped[:, :2] / mapped[:, 2:3]
        return out[0] if np.asarray(pixels).ndim == 1 else out

    def row_major(self) -> list[float]:
        return [float(v) for v in self.matrix.reshape(-1)]


@dataclass(frozen=True)
class MatchedPairSet:
    """Pixel correspondences between the original and perturbed views.

    ``source`` and ``target`` are (n, 2) arrays; row i of each is one kept
    pair (q_i, q_hat_i).  Every stored pixel passed the in-image test with
    positive depth at collection time.
    """

    camera_id: str
    source: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))
    target: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))

    def __post_init__(self) -> None:
        source = np.asarray(self.source, dtype=float).reshape(-1, 2)
        target = np.asarray(self.target, dtype=float).reshape(-1, 2)
        if source.shape != target.shape:
            raise ValueError(f"source/target shape mismatch: {source.shape} vs {target.shape}")
        source.setflags(write=False)
        target.setflags(write=False)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)

    def __len__(self) -> int:
        return self.source.shape[0]


class CameraPlan(NamedTuple):
    """One camera's augmentation decision.

    ``perturbed`` is the drawn pose, ``pairs`` the co-visible anchor pairs
    under it, and ``homography`` the map applied to the image.
    """

    perturbed: Pose
    pairs: MatchedPairSet
    homography: Homography


class AugmentedView(NamedTuple):
    image: np.ndarray
    pose: Pose
    homography: Homography


def perturb_pose(pose: Pose, limits: PerturbationRange, rng: np.random.Generator) -> Pose:
    """Offset each angle by a uniform draw in [-half-width, +half-width].

    Draw order is fixed (yaw, pitch, roll) so a seeded generator gives
    bitwise-reproducible results.  Translation is unchanged.
    """
    d_yaw = float(rng.uniform(-limits.d_yaw, limits.d_yaw))
    d_pitch = float(rng.uniform(-limits.d_pitch, limits.d_pitch))
    d_roll = float(rng.uniform(-limits.d_roll, limits.d_roll))
    return Pose(
        yaw=pose.yaw + d_yaw,
        pitch=pose.pitch + d_pitch,
        roll=pose.roll + d_roll,
        translation=pose.translation,
    )


def collect_pairs(cam: CameraModel, perturbed: Pose, boxes: Sequence[Box3D]) -> MatchedPairSet:
    """Project box bottom anchors with both poses and keep the co-visible pairs.

    A pair survives iff both depths exceed DEGENERATE_DEPTH_TOL (positive
    and off the camera plane) and both pixels land inside the image.  Pairs
    keep the anchor order, box by box.  An empty result is valid (no boxes
    in view).
    """
    anchors = np.array([bottom_points(box) for box in boxes]).reshape(-1, 3)
    pixels, depths = project_points(cam, anchors)
    pixels_hat, depths_hat = project_points(CameraModel(cam.intrinsics, perturbed, cam.camera_id), anchors)
    keep = (
        (depths > DEGENERATE_DEPTH_TOL)
        & (depths_hat > DEGENERATE_DEPTH_TOL)
        & in_image(cam.intrinsics, pixels)
        & in_image(cam.intrinsics, pixels_hat)
    )
    return MatchedPairSet(cam.camera_id, pixels[keep], pixels_hat[keep])


def _hartley_normalization(points: np.ndarray) -> np.ndarray:
    """Similarity transform taking the points to centroid 0, mean radius sqrt(2)."""
    centroid = points.mean(axis=0)
    mean_dist = float(np.linalg.norm(points - centroid, axis=1).mean())
    scale = math.sqrt(2.0) / mean_dist if mean_dist > 0.0 else 1.0
    return np.array(
        [
            [scale, 0.0, -scale * centroid[0]],
            [0.0, scale, -scale * centroid[1]],
            [0.0, 0.0, 1.0],
        ]
    )


def fit_homography(pairs: MatchedPairSet) -> Homography:
    """Least-squares homography from pixel correspondences (normalized DLT).

    Fewer than MIN_PAIRS_FOR_FIT pairs returns the identity fallback.
    Each pair contributes the two independent rows of q_hat x (H q) = 0;
    the solution is the right singular vector of the smallest singular
    value, computed on Hartley-normalized coordinates for conditioning.
    With exact correspondences the generating map is recovered.

    Raises DegenerateFitError when the correspondences leave the 8-dof
    system rank deficient (for example all points collinear).
    """
    if len(pairs) < MIN_PAIRS_FOR_FIT:
        return Homography.identity_fallback()

    t_src = _hartley_normalization(pairs.source)
    t_dst = _hartley_normalization(pairs.target)
    ones = np.ones((len(pairs), 1))
    src = np.hstack([pairs.source, ones]) @ t_src.T
    dst = np.hstack([pairs.target, ones]) @ t_dst.T

    # Rows 2i and 2i + 1 belong to pair i; the third column of src is 1.
    system = np.zeros((2 * len(pairs), 9))
    system[0::2, 0:3] = -src
    system[1::2, 3:6] = -src
    system[0::2, 6:9] = dst[:, 0:1] * src
    system[1::2, 6:9] = dst[:, 1:2] * src

    # Only vt is used, so U stays reduced; V stays full while the system has
    # fewer than 9 rows (4 pairs), where vt[-1] is otherwise not the null vector.
    _, singular, vt = np.linalg.svd(system, full_matrices=len(system) < 9)
    rank = int(np.sum(singular > 1e-9 * singular[0])) if singular[0] > 0.0 else 0
    if rank < 8:
        raise DegenerateFitError(
            f"correspondences for {pairs.camera_id!r} are degenerate: system rank {rank} < 8"
        )
    matrix = np.linalg.inv(t_dst) @ vt[-1].reshape(3, 3) @ t_src
    return Homography(matrix, provenance="fitted")


def relative_camera_motion(original: Pose, perturbed: Pose) -> tuple[np.ndarray, np.ndarray]:
    """(rotation, translation) mapping original-camera coords to perturbed-camera coords."""
    r1 = ego_to_camera_rotation(original)
    r2 = ego_to_camera_rotation(perturbed)
    rotation = r2 @ r1.T
    translation = perturbed.translation_vector() - rotation @ original.translation_vector()
    return rotation, translation


def analytic_homography(
    cam: CameraModel,
    perturbed: Pose,
    plane_normal: Sequence[float] = (0.0, 0.0, 1.0),
    plane_distance: float = 1.0,
) -> Homography:
    """Closed-form homography induced by a plane, H = K (R + t n^T / d) K^-1.

    (R, t) is the relative motion between the original and perturbed
    camera frames; (n, d) describe the plane n . X = d in the original
    camera frame.  When the relative translation is zero (pure rotation)
    the result is independent of the plane and exact for all of space,
    which is what makes it usable as an oracle for fit_homography.
    """
    plane_distance = float(plane_distance)
    if not math.isfinite(plane_distance) or plane_distance <= 0.0:
        raise ValueError(f"plane_distance must be positive, got {plane_distance!r}")
    normal = np.asarray(plane_normal, dtype=float)
    if normal.shape != (3,) or not np.all(np.isfinite(normal)) or np.linalg.norm(normal) == 0.0:
        raise ValueError(f"plane_normal must be a finite non-zero 3-vector, got {plane_normal!r}")

    rotation, translation = relative_camera_motion(cam.pose, perturbed)
    k = cam.intrinsics.matrix()
    core = rotation + np.outer(translation, normal) / plane_distance
    return Homography(k @ core @ np.linalg.inv(k), provenance="analytic")


def plan_camera(
    cam: CameraModel,
    boxes: Sequence[Box3D],
    limits: PerturbationRange,
    camera_index: int,
) -> CameraPlan:
    """Draw one camera's pose and decide the map augmentation applies to it.

    Randomness is keyed by (seed, camera index).  Zero offsets give the
    exact analytic identity.  Otherwise the map is fitted to the anchor
    pairs; with fewer than MIN_PAIRS_FOR_FIT pairs, or with pairs that do
    not determine a homography (for example a zero-size box), the camera
    falls back to the identity.  The pairs are collected in every case.
    """
    rng = np.random.default_rng([limits.seed, camera_index])
    perturbed = perturb_pose(cam.pose, limits, rng)
    pairs = collect_pairs(cam, perturbed, boxes)
    if perturbed == cam.pose:
        homography = Homography(np.eye(3), provenance="analytic")
    else:
        try:
            homography = fit_homography(pairs)
        except DegenerateFitError:
            homography = Homography.identity_fallback()
    return CameraPlan(perturbed, pairs, homography)


def augment_camera(
    cam: CameraModel,
    image: np.ndarray,
    boxes: Sequence[Box3D],
    limits: PerturbationRange,
    camera_index: int,
) -> AugmentedView:
    """Plan one camera and warp its image; the per-camera step of augmentation.

    Only a fitted map warps the image; every other camera keeps its
    original image and pose.  An image whose (height, width) differs from
    the camera's intrinsics is rejected.
    """
    width, height = cam.intrinsics.width, cam.intrinsics.height
    if image.shape[:2] != (height, width):
        raise ValueError(
            f"camera {cam.camera_id!r}: image is {image.shape[1]}x{image.shape[0]}"
            f" but its intrinsics are {width}x{height}"
        )
    plan = plan_camera(cam, boxes, limits, camera_index)
    if plan.homography.provenance != "fitted":
        return AugmentedView(image, cam.pose, plan.homography)
    return AugmentedView(warp_image(image, plan.homography, (width, height)), plan.perturbed, plan.homography)


def map_cameras(step: Callable[[int], _T], count: int, workers: int) -> list[_T]:
    """Run ``step(index)`` for camera indices 0..count-1 on one pool of ``workers`` threads.

    Results come back in camera order.  At most ``workers`` steps run at
    once, so a step that loads and stores its own camera's data bounds the
    memory in use by the worker count.  The first failing step's exception
    propagates; steps not yet started are cancelled.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(step, range(count)))


def augment_scene(
    rig: Sequence[CameraModel],
    images: Sequence[np.ndarray],
    boxes: Sequence[Box3D],
    limits: PerturbationRange,
    workers: int = 1,
) -> list[AugmentedView]:
    """Plan and warp every camera of a rig (see augment_camera).

    Randomness is keyed by (seed, camera index), so results are identical
    across runs and across worker counts.
    """
    if len(rig) != len(images):
        raise ValueError(f"got {len(rig)} cameras but {len(images)} images")
    return map_cameras(lambda i: augment_camera(rig[i], images[i], boxes, limits, i), len(rig), workers)
