"""Pinhole camera model, Euler-angle conversions, and ego-frame projection.

Coordinate conventions shared by the whole package:

Ego frame (right-handed):
    x forward, y left, z up. Poses and 3D boxes live here.

Camera frame (right-handed, standard computer vision):
    z forward along the optical axis, x right, y down.

Image frame:
    origin at the top-left corner, u rightward, v downward, in pixels.
    A pixel (u, v) is inside an image of size (width, height) iff
    0 <= u < width and 0 <= v < height (half-open box).

A camera orientation is stored as intrinsic Euler angles composed in the
fixed order Z(yaw) @ Y(pitch) @ X(roll), all radians.  The angles describe
the camera body in the ego frame: at (0, 0, 0) the camera looks along
ego +x.  The only place the ego and optical axes meet is the permutation
``EGO_TO_CAMERA_AXES`` below; no other module hardcodes it.

Projection maps an ego point Q to camera coordinates as R @ Q + t, where
R = ego_to_camera_rotation(pose) and t = pose.translation, then through
the intrinsic matrix with homogeneous normalization by the depth.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "EGO_TO_CAMERA_AXES",
    "DEGENERATE_DEPTH_TOL",
    "DegenerateProjectionError",
    "Intrinsics",
    "Pose",
    "CameraModel",
    "EulerAngles",
    "wrap_angle",
    "euler_to_rotation",
    "rotation_to_euler",
    "ego_to_camera_rotation",
    "project_point",
    "project_points",
    "in_image",
]

# Rows are the optical axes expressed in ego-aligned body coordinates:
# camera x (right) = body -y, camera y (down) = body -z, camera z = body +x.
EGO_TO_CAMERA_AXES = np.array(
    [
        [0.0, -1.0, 0.0],
        [0.0, 0.0, -1.0],
        [1.0, 0.0, 0.0],
    ]
)
EGO_TO_CAMERA_AXES.setflags(write=False)

# Camera-frame depth closer to the image plane than this is treated as a
# true plane crossing rather than rounding noise.
DEGENERATE_DEPTH_TOL = 1e-12

_GIMBAL_LOCK_TOL = 1e-12

# Largest entry of |R^T R - I| that rotation_to_euler accepts as a rotation.
_ORTHOGONALITY_TOL = 1e-9


class DegenerateProjectionError(ValueError):
    """Point lies on the camera plane (depth indistinguishable from zero)."""


def wrap_angle(angle: float) -> float:
    """Wrap a finite angle to (-pi, pi]; in-range values pass through unchanged."""
    angle = float(angle)
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    if -math.pi < angle <= math.pi:
        return angle
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def is_real(value) -> bool:
    """The one rule for what a number read from a file is: a ``numbers.Real`` that is not a bool.

    A JSON ``true`` or ``"0.5"`` is not a number; ``5`` and ``2**70`` are.
    """
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def whole_number(name: str, value, minimum: int) -> int:
    """``value`` as an int; bools, fractions and values below ``minimum`` (0 or 1) raise.

    The one rule for seeds, image sizes and counts: ``5.0`` reads as 5, while
    5.7 is rejected rather than truncated.
    """
    if not is_real(value) or value % 1 != 0 or value < minimum:
        kind = "a positive" if minimum == 1 else "a non-negative"
        raise ValueError(f"{name} must be {kind} integer, got {value!r}")
    return int(value)


def real_number(name: str, value) -> float:
    """``value`` as a float if ``is_real``; anything else raises ValueError.

    NaN and infinities pass, so that the caller's range check can name
    them.  An integer too large for a float raises OverflowError.
    """
    if not is_real(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def finite_number(name: str, value) -> float:
    """``value`` as a float if ``is_real`` and finite; anything else raises ValueError."""
    if not is_real(value) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsic parameters plus the image size they refer to.

    fx, fy are focal lengths in pixels, (px, py) the principal point in
    pixels, width/height the image size in whole pixels.
    """

    fx: float
    fy: float
    px: float
    py: float
    width: int
    height: int

    def __post_init__(self) -> None:
        for name in ("fx", "fy", "px", "py"):
            object.__setattr__(self, name, finite_number(name, getattr(self, name)))
        for name in ("width", "height"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name), 1))
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if not (0.0 <= self.px < self.width):
            raise ValueError(f"px={self.px} outside [0, {self.width})")
        if not (0.0 <= self.py < self.height):
            raise ValueError(f"py={self.py} outside [0, {self.height})")

    def matrix(self) -> np.ndarray:
        """3x3 intrinsic matrix K."""
        return np.array(
            [
                [self.fx, 0.0, self.px],
                [0.0, self.fy, self.py],
                [0.0, 0.0, 1.0],
            ]
        )


@dataclass(frozen=True)
class Pose:
    """Camera pose relative to the ego frame.

    Angles are wrapped to (-pi, pi] on construction.  ``translation`` is
    the t of the rigid ego-to-camera map (applied after rotation, so it is
    expressed in the camera frame), in meters.
    """

    yaw: float
    pitch: float
    roll: float
    translation: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        for name in ("yaw", "pitch", "roll"):
            object.__setattr__(self, name, wrap_angle(finite_number(name, getattr(self, name))))
        t = tuple(self.translation)
        if len(t) != 3:
            raise ValueError(f"translation must be 3 finite values, got {self.translation!r}")
        object.__setattr__(self, "translation", tuple(finite_number("translation", v) for v in t))

    def rotation_matrix(self) -> np.ndarray:
        """Body-to-ego rotation built from the stored angles."""
        return euler_to_rotation(self.yaw, self.pitch, self.roll)

    def translation_vector(self) -> np.ndarray:
        return np.array(self.translation)


@dataclass(frozen=True)
class CameraModel:
    intrinsics: Intrinsics
    pose: Pose
    camera_id: str

    def __post_init__(self) -> None:
        if not isinstance(self.camera_id, str) or not self.camera_id:
            raise ValueError(f"camera_id must be a non-empty string, got {self.camera_id!r}")


class EulerAngles(NamedTuple):
    """Decomposed rotation with a flag for the degenerate pitch branch."""

    yaw: float
    pitch: float
    roll: float
    gimbal_locked: bool = False


def euler_to_rotation(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Compose Z(yaw) @ Y(pitch) @ X(roll) into a 3x3 rotation matrix.

    Raises ValueError on non-finite input.  The result satisfies
    R^T R = I and det(R) = 1 up to floating point.
    """
    for name, value in (("yaw", yaw), ("pitch", pitch), ("roll", roll)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


def rotation_to_euler(matrix: np.ndarray) -> EulerAngles:
    """Invert euler_to_rotation, returning the canonical branch.

    Pitch is taken in [-pi/2, pi/2].  When |pitch| is within the lock
    tolerance of pi/2 only yaw - sign(pitch) * roll is observable; the
    decomposition then fixes roll to 0 and sets ``gimbal_locked``.

    Raises ValueError if the input is not a rotation matrix (orthogonal
    within 1e-9 and right-handed).
    """
    R = np.asarray(matrix, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {R.shape}")
    defect = np.abs(R.T @ R - np.eye(3)).max()
    if not np.isfinite(defect) or defect > _ORTHOGONALITY_TOL:
        raise ValueError(f"matrix is not orthogonal (defect {defect:.3e} > {_ORTHOGONALITY_TOL:.1e})")
    if np.linalg.det(R) < 0.0:
        raise ValueError("matrix is a reflection (det < 0), not a rotation")

    sin_pitch = min(1.0, max(-1.0, -float(R[2, 0])))
    pitch = math.asin(sin_pitch)
    if 1.0 - abs(sin_pitch) <= _GIMBAL_LOCK_TOL:
        yaw = math.atan2(-float(R[0, 1]), float(R[1, 1]))
        return EulerAngles(yaw, pitch, 0.0, gimbal_locked=True)
    roll = math.atan2(float(R[2, 1]), float(R[2, 2]))
    yaw = math.atan2(float(R[1, 0]), float(R[0, 0]))
    return EulerAngles(yaw, pitch, roll, gimbal_locked=False)


def ego_to_camera_rotation(pose: Pose) -> np.ndarray:
    """Rotation mapping ego coordinates into the camera optical frame.

    The pose angles orient the camera body in the ego frame, so the
    ego-to-body map is the transpose; the fixed axis permutation then
    takes body axes to optical axes.
    """
    return EGO_TO_CAMERA_AXES @ pose.rotation_matrix().T


def project_points(cam: CameraModel, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project (n, 3) ego-frame points, returning (pixels (n, 2), camera-frame depths (n,)).

    Every row is returned and nothing is raised: a depth may be negative
    (behind the camera) or within DEGENERATE_DEPTH_TOL of zero, where the
    pixel is meaningless or non-finite.  The caller masks.
    """
    q = np.asarray(points, dtype=float)
    if q.ndim != 2 or q.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) array, got shape {q.shape}")
    # The stacked matmul runs the per-vector kernel of ``R @ q`` on each row,
    # so every row rounds exactly as a one-point product would; ``q @ R.T``
    # and einsum change the last bits.
    cam_points = np.matmul(ego_to_camera_rotation(cam.pose), q[..., None])[..., 0] + cam.pose.translation_vector()
    depths = cam_points[:, 2]
    intr = cam.intrinsics
    pixels = np.empty((q.shape[0], 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        pixels[:, 0] = intr.fx * cam_points[:, 0] / depths + intr.px
        pixels[:, 1] = intr.fy * cam_points[:, 1] / depths + intr.py
    return pixels, depths


def project_point(cam: CameraModel, point: Sequence[float]) -> tuple[np.ndarray, float]:
    """Project an ego-frame point, returning (pixel, camera-frame depth).

    The one-row case of project_points.  Depth may be negative (point
    behind the camera); the pixel is still the homogeneous normalization
    and the caller decides visibility.  Raises DegenerateProjectionError
    when |depth| <= DEGENERATE_DEPTH_TOL.
    """
    q = np.asarray(point, dtype=float)
    if q.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {q.shape}")
    pixels, depths = project_points(cam, q[None])
    depth = float(depths[0])
    if abs(depth) <= DEGENERATE_DEPTH_TOL:
        raise DegenerateProjectionError(
            f"point {point!r} projects onto the camera plane of {cam.camera_id} (depth {depth:.3e})"
        )
    return pixels[0], depth


def in_image(intr: Intrinsics, pixels: np.ndarray) -> np.ndarray:
    """Half-open box test, 0 <= u < width and 0 <= v < height, per row of (n, 2) pixels.

    A single (2,) pixel gives a scalar; a NaN coordinate is outside.
    """
    pixels = np.asarray(pixels, dtype=float)
    u, v = pixels[..., 0], pixels[..., 1]
    return (0.0 <= u) & (u < intr.width) & (0.0 <= v) & (v < intr.height)
