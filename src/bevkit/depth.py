"""Focal-length-decoupled depth conversion and resize-aware intrinsics.

Metric depth entangles the apparent size of an object with the focal
length of the camera that imaged it.  Rescaling by the camera pixel size
s = sqrt(1/fx^2 + 1/fy^2), relative to a reference pixel size c, yields a
depth value consistent with the object's size in the image regardless of
which camera produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Intrinsics, positive_number, real_number

__all__ = [
    "DEFAULT_REFERENCE_FOCAL",
    "DATASET_DEPTH_RANGES",
    "DepthRangeError",
    "DepthDecouplingConfig",
    "pixel_size",
    "metric_to_scale_invariant",
    "scale_invariant_to_metric",
    "resize_intrinsics",
]

DEFAULT_REFERENCE_FOCAL = 707.0

# Valid metric depth span (meters) per dataset tag.
DATASET_DEPTH_RANGES: dict[str, tuple[float, float]] = {
    "nuscenes": (2.0, 90.0),
    "waymo": (1.0, 60.0),
    "lyft": (1.0, 90.0),
}


class DepthRangeError(ValueError):
    """Metric depth outside the configured valid range."""


@dataclass(frozen=True)
class DepthDecouplingConfig:
    """Reference pixel size and the metric depth span conversions accept.

    ``reference_pixel_size`` plays the role of the constant c: the pixel
    size sqrt(2)/f of a square-pixel camera at the reference focal length.
    """

    reference_pixel_size: float = math.sqrt(2.0) / DEFAULT_REFERENCE_FOCAL
    metric_depth_range: tuple[float, float] = DATASET_DEPTH_RANGES["nuscenes"]

    def __post_init__(self) -> None:
        object.__setattr__(self, "reference_pixel_size", positive_number("reference_pixel_size", self.reference_pixel_size))
        lo, hi = (positive_number("metric_depth_range", v) for v in self.metric_depth_range)
        if not lo < hi:
            raise ValueError(f"metric_depth_range must satisfy min < max, got {self.metric_depth_range!r}")
        object.__setattr__(self, "metric_depth_range", (lo, hi))


def pixel_size(intr: Intrinsics) -> float:
    """s = sqrt(1/fx^2 + 1/fy^2); strictly decreasing in each focal length.

    Where a square over- or underflows, s is the hypot of the reciprocals
    (used only there: elsewhere it would move the last bit).  An s too
    large for a float raises ValueError.
    """
    try:
        s = math.sqrt(1.0 / intr.fx**2 + 1.0 / intr.fy**2)
    except (OverflowError, ZeroDivisionError):
        s = math.hypot(1.0 / intr.fx, 1.0 / intr.fy)
    if s == math.inf:
        raise ValueError(f"pixel size sqrt(1/fx^2 + 1/fy^2) overflows at fx={intr.fx}, fy={intr.fy}")
    return s


def metric_to_scale_invariant(d_m: float, intr: Intrinsics, cfg: DepthDecouplingConfig) -> float:
    """Convert metric depth to scale-invariant depth, d = (s / c) * d_m.

    The input must lie inside ``cfg.metric_depth_range``; out-of-range
    depths raise DepthRangeError rather than being clamped, so caller
    bugs surface instead of being masked.  A result too large for a float
    raises ValueError.
    """
    d_m = real_number("d_m", d_m)
    lo, hi = cfg.metric_depth_range
    if not (lo <= d_m <= hi):
        raise DepthRangeError(f"metric depth {d_m} outside [{lo}, {hi}]")
    d = pixel_size(intr) / cfg.reference_pixel_size * d_m
    if d == math.inf:
        raise ValueError(f"scale-invariant depth for metric depth {d_m} overflows a float at fx={intr.fx}, fy={intr.fy}")
    return d


def scale_invariant_to_metric(d: float, intr: Intrinsics, cfg: DepthDecouplingConfig) -> float:
    """Exact inverse of metric_to_scale_invariant: d_m = (c / s) * d.

    A result too large for a float raises ValueError.
    """
    d = positive_number("d", d)
    d_m = cfg.reference_pixel_size / pixel_size(intr) * d
    if d_m == math.inf:
        raise ValueError(f"metric depth for scale-invariant depth {d} overflows a float at fx={intr.fx}, fy={intr.fy}")
    return d_m


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def resize_intrinsics(intr: Intrinsics, r_x: float, r_y: float) -> Intrinsics:
    """Intrinsics after resizing the image by (r_x, r_y).

    Focal lengths and the principal point scale linearly; width and
    height round half-up so the result is platform independent.
    """
    r_x, r_y = positive_number("r_x", r_x), positive_number("r_y", r_y)
    return Intrinsics(
        fx=r_x * intr.fx,
        fy=r_y * intr.fy,
        px=r_x * intr.px,
        py=r_y * intr.py,
        width=_round_half_up(r_x * intr.width),
        height=_round_half_up(r_y * intr.height),
    )
