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

from .geometry import Intrinsics

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
        c = float(self.reference_pixel_size)
        if not math.isfinite(c) or c <= 0.0:
            raise ValueError(f"reference_pixel_size must be positive, got {c!r}")
        object.__setattr__(self, "reference_pixel_size", c)
        lo, hi = (float(v) for v in self.metric_depth_range)
        if not (0.0 < lo < hi) or not math.isfinite(hi):
            raise ValueError(f"metric_depth_range must satisfy 0 < min < max, got {self.metric_depth_range!r}")
        object.__setattr__(self, "metric_depth_range", (lo, hi))


def pixel_size(intr: Intrinsics) -> float:
    """s = sqrt(1/fx^2 + 1/fy^2); strictly decreasing in each focal length."""
    return math.sqrt(1.0 / intr.fx**2 + 1.0 / intr.fy**2)


def metric_to_scale_invariant(d_m: float, intr: Intrinsics, cfg: DepthDecouplingConfig) -> float:
    """Convert metric depth to scale-invariant depth, d = (s / c) * d_m.

    The input must lie inside ``cfg.metric_depth_range``; out-of-range
    depths raise DepthRangeError rather than being clamped, so caller
    bugs surface instead of being masked.
    """
    d_m = float(d_m)
    lo, hi = cfg.metric_depth_range
    if not (lo <= d_m <= hi):
        raise DepthRangeError(f"metric depth {d_m} outside [{lo}, {hi}]")
    return pixel_size(intr) / cfg.reference_pixel_size * d_m


def scale_invariant_to_metric(d: float, intr: Intrinsics, cfg: DepthDecouplingConfig) -> float:
    """Exact inverse of metric_to_scale_invariant: d_m = (c / s) * d."""
    d = float(d)
    if not math.isfinite(d) or d <= 0.0:
        raise ValueError(f"scale-invariant depth must be positive and finite, got {d}")
    return cfg.reference_pixel_size / pixel_size(intr) * d


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def resize_intrinsics(intr: Intrinsics, r_x: float, r_y: float) -> Intrinsics:
    """Intrinsics after resizing the image by (r_x, r_y).

    Focal lengths and the principal point scale linearly; width and
    height round half-up so the result is platform independent.
    """
    r_x, r_y = float(r_x), float(r_y)
    if r_x <= 0.0 or r_y <= 0.0 or not (math.isfinite(r_x) and math.isfinite(r_y)):
        raise ValueError(f"resize rates must be positive, got ({r_x!r}, {r_y!r})")
    return Intrinsics(
        fx=r_x * intr.fx,
        fy=r_y * intr.fy,
        px=r_x * intr.px,
        py=r_y * intr.py,
        width=_round_half_up(r_x * intr.width),
        height=_round_half_up(r_y * intr.height),
    )
