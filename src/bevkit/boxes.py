"""3D bounding boxes in the ego frame and their anchor points."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import finite_number, real_number, shown, wrap_angle

__all__ = ["DEFAULT_CLASS_ID", "Box3D", "bottom_points"]

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
        center = tuple(finite_number("center", v) for v in self.center)
        dims = tuple(finite_number("dims", v, "non-negative") for v in self.dims)
        if len(center) != 3:
            raise ValueError(f"center must be 3 finite values, got {shown(center)}")
        if len(dims) != 3:
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


# The sign of each half extent at the 4 footprint corners, in bottom_points' order.
_CORNER_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]])


def bottom_points(boxes: Sequence[Box3D]) -> np.ndarray:
    """The 5 bottom anchor points of every box, shape (n, 5, 3), ego frame.

    Row 0 of a box is its bottom center (center lowered by dz/2); rows 1..4
    are its bottom corners, (+x, +y), (+x, -y), (-x, -y), (-x, +y) in the
    box's own frame, rotated by yaw.  The corners of all boxes are one
    stacked product of each box's (4, 2) half extents and its transposed
    (2, 2) rotation.
    """
    rows = np.array([(*box.center, *box.dims, math.cos(box.yaw), math.sin(box.yaw)) for box in boxes])
    center, dims, c, s = np.hsplit(rows.reshape(-1, 8), [3, 6, 7])
    rot_t = np.hstack([c, s, -s, c]).reshape(-1, 2, 2)
    points = np.empty((len(center), 5, 3))
    points[:, 0, :2] = center[:, :2]
    points[:, 1:, :2] = (_CORNER_SIGNS * (dims[:, None, :2] / 2.0)) @ rot_t + center[:, None, :2]
    points[:, :, 2] = center[:, 2:] - dims[:, 2:] / 2.0
    return points
