"""3D bounding boxes in the ego frame and their anchor points."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import finite_number, real_number, shown, wrap_angle

__all__ = ["DEFAULT_CLASS_ID", "Box3D", "bottom_points", "footprint_corners"]

# The class of a box, or of a file's record, that names none.
DEFAULT_CLASS_ID = "vehicle"


@dataclass(frozen=True)
class Box3D:
    """Axis-sized box with center at its geometric center and yaw about ego z.

    dims = (dx, dy, dz): extent along the box's own x axis (length),
    y axis (width), and z (height).  Zero extents are allowed so that
    degenerate anchors (for example flat footprints) stay constructible;
    negative extents are rejected.  ``score`` is an optional detection
    confidence in [0, 1].
    """

    center: tuple[float, float, float]
    dims: tuple[float, float, float]
    yaw: float
    class_id: str = DEFAULT_CLASS_ID
    score: float | None = None

    def __post_init__(self) -> None:
        center = tuple(real_number("center", v) for v in self.center)
        dims = tuple(real_number("dims", v) for v in self.dims)
        if len(center) != 3 or not all(math.isfinite(v) for v in center):
            raise ValueError(f"center must be 3 finite values, got {shown(center)}")
        if len(dims) != 3 or not all(math.isfinite(v) and v >= 0.0 for v in dims):
            raise ValueError(f"dims must be 3 non-negative values, got {shown(dims)}")
        if not isinstance(self.class_id, str):
            raise ValueError(f"class_id must be a string, got {shown(self.class_id)}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "yaw", wrap_angle(finite_number("yaw", self.yaw)))
        if self.score is not None:
            score = real_number("score", self.score)
            if not (0.0 <= score <= 1.0):
                raise ValueError(f"score must be in [0, 1], got {score}")
            object.__setattr__(self, "score", score)


def footprint_corners(box: Box3D) -> np.ndarray:
    """The 4 ground-plane corners of the yaw-rotated footprint, shape (4, 2).

    Corner order is fixed: (+x, +y), (+x, -y), (-x, -y), (-x, +y) in the
    box's own frame before rotation.
    """
    hx, hy = box.dims[0] / 2.0, box.dims[1] / 2.0
    local = np.array([[hx, hy], [hx, -hy], [-hx, -hy], [-hx, hy]])
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array(box.center[:2])


def bottom_points(box: Box3D) -> np.ndarray:
    """The 5 bottom anchor points of a box, shape (5, 3), ego frame.

    Row 0 is the bottom center (center lowered by dz/2); rows 1..4 are the
    bottom corners in the footprint_corners order.
    """
    bottom_z = box.center[2] - box.dims[2] / 2.0
    points = np.empty((5, 3))
    points[0] = (box.center[0], box.center[1], bottom_z)
    points[1:, :2] = footprint_corners(box)
    points[1:, 2] = bottom_z
    return points
