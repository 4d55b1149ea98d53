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

The perturbation keeps the camera-frame translation t, so the camera
centre -R^T t moves with the rotation unless t = 0: the motion between
the two views is a rotation plus a translation.  The anchors of boxes
standing on the ground lie on the ego plane z = 0, so the fitted map
equals the closed-form map that plane induces (``ground_plane_homography``),
the oracle the fit is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

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
    "PerturbationRange",
    "Homography",
    "MatchedPairSet",
    "CameraPlan",
    "AugmentedView",
    "perturb_pose",
    "collect_pairs",
    "fit_homography",
    "ground_plane_homography",
    "plan_camera",
    "augment_camera",
]

# Below this many correspondences the 8-dof fit is underdetermined and the
# camera falls back to the identity map.
MIN_PAIRS_FOR_FIT = 4

_PROVENANCES = ("fitted", "analytic", "identity-fallback")


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
    bitwise-reproducible results.  The camera-frame translation t is kept,
    so the camera centre -R^T t in the ego frame moves with the rotation
    (it stays put only for t = 0).
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
    return MatchedPairSet(pixels[keep], pixels_hat[keep])


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

    Each pair contributes the two independent rows of q_hat x (H q) = 0;
    the solution is the right singular vector of the smallest singular
    value, computed on Hartley-normalized coordinates for conditioning.
    With exact correspondences the generating map is recovered.

    Where no unique map exists, the identity fallback is returned: with
    fewer than MIN_PAIRS_FOR_FIT pairs, where the pairs leave the 8-dof
    system rank deficient (for example all points collinear, or the five
    anchors of a zero-size box), and where ``Homography`` rejects the
    solution as singular (for example pairs that all lie within a few
    micrometres of one pixel).  The pair count tells the first case apart.
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
        return Homography.identity_fallback()
    matrix = np.linalg.inv(t_dst) @ vt[-1].reshape(3, 3) @ t_src
    try:
        return Homography(matrix, provenance="fitted")
    except ValueError:
        return Homography.identity_fallback()


def ground_plane_homography(cam: CameraModel, perturbed: Pose) -> Homography | None:
    """Closed-form map the ego ground plane z = 0 induces from the original view to the perturbed one.

    With camera rotations R, R' and centres c = -R^T t, c' = -R'^T t' in
    the ego frame, a point X of the original camera frame is R_rel X + s in
    the perturbed one, where R_rel = R' R^T and s = R' (c - c').  The ground
    plane is n . X = d in the original camera frame, with the downward
    normal n = -R e_z and d the height of c.  The map is
    K (R_rel + s n^T / d) K^-1.  The anchors of boxes standing on the
    ground lie on the plane, so when all do, the map fitted to the anchor
    pairs equals this one.

    With no relative translation (s = 0, as for a camera at the ego
    origin) it is the exact K R_rel K^-1, which holds for all of space.
    Returns None where no map exists, because c lies on the plane while
    the centre moves, and where ``Homography`` rejects the matrix as
    singular (for example a centre a micrometre above the plane, or a
    focal length of 1e21 px).
    """
    rotation = ego_to_camera_rotation(cam.pose)
    rotation_hat = ego_to_camera_rotation(perturbed)
    centre = -rotation.T @ cam.pose.translation_vector()
    shift = rotation_hat @ (centre + rotation_hat.T @ perturbed.translation_vector())
    core = rotation_hat @ rotation.T
    if np.any(shift):
        if centre[2] == 0.0:
            return None
        core = core + np.outer(shift, -rotation[:, 2]) / centre[2]
    k = cam.intrinsics.matrix()
    matrix = k @ core @ np.linalg.inv(k)
    try:
        return Homography(matrix, provenance="analytic")
    except ValueError:
        return None


def plan_camera(
    cam: CameraModel,
    boxes: Sequence[Box3D],
    limits: PerturbationRange,
    camera_index: int,
) -> CameraPlan:
    """Draw one camera's pose and decide the map augmentation applies to it.

    Randomness is keyed by (seed, camera index).  Zero offsets give the
    exact analytic identity.  Otherwise the map is ``fit_homography`` of
    the anchor pairs: the identity fallback wherever they determine no
    map, because there are fewer than MIN_PAIRS_FOR_FIT of them or because
    they are degenerate, as the pair count tells.  The pairs are collected
    in every case.
    """
    rng = np.random.default_rng([limits.seed, camera_index])
    perturbed = perturb_pose(cam.pose, limits, rng)
    pairs = collect_pairs(cam, perturbed, boxes)
    if perturbed == cam.pose:
        return CameraPlan(perturbed, pairs, Homography(np.eye(3), provenance="analytic"))
    return CameraPlan(perturbed, pairs, fit_homography(pairs))


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

