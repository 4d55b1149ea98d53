"""Pinhole camera model, Euler-angle rotations, and ego-frame projection.

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

import numpy as np

__all__ = [
    "EGO_TO_CAMERA_AXES",
    "DEGENERATE_DEPTH_TOL",
    "Intrinsics",
    "Pose",
    "CameraModel",
    "wrap_angle",
    "euler_to_rotation",
    "ego_to_camera_rotation",
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

def wrap_angle(angle: float) -> float:
    """Wrap a finite angle to (-pi, pi]; in-range values pass through unchanged."""
    angle = finite_number("angle", angle)
    if -math.pi < angle <= math.pi:
        return angle
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def clip(text: str) -> str:
    """``text`` cut to its first 80 characters plus ``...`` when longer, so an error stays one short line."""
    return text if len(text) <= 80 else text[:80] + "..."


def shown(value) -> str:
    """``repr(value)`` through ``clip``: the one way an error message quotes a value from input."""
    return clip(repr(value))


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
        raise ValueError(f"{name} must be {kind} integer, got {shown(value)}")
    return int(value)


def real_number(name: str, value) -> float:
    """``value`` as a float if ``is_real``; anything else raises ValueError.

    NaN and infinities pass, so that the caller's range check can name
    them.  An integer too large for a float raises OverflowError.
    """
    if not is_real(value):
        raise ValueError(f"{name} must be a number, got {shown(value)}")
    return float(value)


def finite_number(name: str, value, sign: str = "") -> float:
    """``value`` as a float if ``is_real`` and finite; anything else raises ValueError.

    The one range rule for input scalars: ``sign`` "non-negative" also
    rejects a value below 0, and "positive" (``positive_number``) one at or below 0.
    """
    if is_real(value) and math.isfinite(value) and (not sign or value > 0 or value == 0 and sign == "non-negative"):
        return float(value)
    raise ValueError(f"{name} must be a {sign + ' ' if sign else ''}finite number, got {shown(value)}")


def positive_number(name: str, value) -> float:
    """``finite_number`` above 0: focal lengths, scales, distance thresholds and range limits."""
    return finite_number(name, value, "positive")


def is_path(text: str) -> bool:
    """Whether the file system takes ``text`` as a path: it holds no NUL and no surrogate code point."""
    return not any(c == "\0" or "\ud800" <= c <= "\udfff" for c in text)


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
        for name, sign in (("fx", "positive"), ("fy", "positive"), ("px", ""), ("py", "")):
            object.__setattr__(self, name, finite_number(name, getattr(self, name), sign))
        for name in ("width", "height"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name), 1))
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
            raise ValueError(f"translation must be 3 finite values, got {shown(self.translation)}")
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
            raise ValueError(f"camera_id must be a non-empty string, got {shown(self.camera_id)}")
        # the id names the camera's raster, augmented/<camera_id>.pgm
        if self.camera_id in (".", "..") or not is_path(self.camera_id) or any(c in "/\\" for c in self.camera_id):
            raise ValueError(
                f"camera_id must name a file: no '/', '\\', NUL or surrogate, and not '.' or '..', got {shown(self.camera_id)}"
            )


def euler_to_rotation(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Compose Z(yaw) @ Y(pitch) @ X(roll) into a 3x3 rotation matrix.

    Raises ValueError on an angle ``finite_number`` rejects.  The result
    satisfies R^T R = I and det(R) = 1 up to floating point.
    """
    yaw, pitch, roll = finite_number("yaw", yaw), finite_number("pitch", pitch), finite_number("roll", roll)
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


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


def in_image(intr: Intrinsics, pixels: np.ndarray) -> np.ndarray:
    """Half-open box test, 0 <= u < width and 0 <= v < height, per row of (n, 2) pixels.

    A single (2,) pixel gives a scalar; a NaN coordinate is outside.
    """
    pixels = np.asarray(pixels, dtype=float)
    u, v = pixels[..., 0], pixels[..., 1]
    return (0.0 <= u) & (u < intr.width) & (0.0 <= v) & (v < intr.height)
