"""The benchmark's own pinhole geometry, written from the documented conventions.

Ego frame x forward, y left, z up; camera frame x right, y down, z
forward.  A pose's angles compose Z(yaw) Y(pitch) X(roll) as the camera
body in the ego frame, and an ego point Q maps to camera coordinates
R Q + t with R = axes @ body^T.  This module does not import bevkit, so
the output oracles stay independent of the code they check.
"""

from __future__ import annotations

import math

import numpy as np

_AXES = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])


def camera_rotation(yaw: float, pitch: float, roll: float) -> np.ndarray:
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    body = (
        np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
        @ np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
        @ np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    )
    return _AXES @ body.T


def project(intrinsics: dict, pose: dict, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pixels (n, 2) and camera depths (n,) of ego points (n, 3)."""
    rotation = camera_rotation(pose["yaw"], pose["pitch"], pose["roll"])
    cam = points @ rotation.T + np.asarray(pose["t"], dtype=float)
    depth = cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = intrinsics["fx"] * cam[:, 0] / depth + intrinsics["px"]
        v = intrinsics["fy"] * cam[:, 1] / depth + intrinsics["py"]
    return np.column_stack([u, v]), depth


def back_project(matrix: np.ndarray, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Source coordinates H^-1 q of output pixels q = (u, v) under the homography H."""
    inverse = np.linalg.inv(matrix)
    w = inverse[2, 0] * u + inverse[2, 1] * v + inverse[2, 2]
    x = (inverse[0, 0] * u + inverse[0, 1] * v + inverse[0, 2]) / w
    y = (inverse[1, 0] * u + inverse[1, 1] * v + inverse[1, 2]) / w
    return x, y


def in_view(intrinsics: dict, pixels: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Mask of points in front of the camera whose pixel lies in the half-open image box."""
    u, v = pixels[:, 0], pixels[:, 1]
    return (depth > 0.0) & (u >= 0.0) & (u < intrinsics["width"]) & (v >= 0.0) & (v < intrinsics["height"])


def bottom_anchors(boxes: list[dict]) -> np.ndarray:
    """Bottom centre plus the four bottom footprint corners of every box, (5n, 3)."""
    anchors = []
    for box in boxes:
        (x, y, z), (dx, dy, dz), yaw = box["center"], box["dims"], box["yaw"]
        c, s = math.cos(yaw), math.sin(yaw)
        bottom = z - dz / 2.0
        anchors.append((x, y, bottom))
        for lx, ly in ((dx / 2, dy / 2), (dx / 2, -dy / 2), (-dx / 2, -dy / 2), (-dx / 2, dy / 2)):
            anchors.append((x + c * lx - s * ly, y + s * lx + c * ly, bottom))
    return np.array(anchors, dtype=float)
