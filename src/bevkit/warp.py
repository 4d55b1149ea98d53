"""Projective image warping by inverse mapping with bilinear sampling."""

from __future__ import annotations

import numpy as np

__all__ = ["warp_image"]

# Output pixels per block of rows.  Bounds the float64 temporaries of one
# block to a few MiB, whatever the frame size.
_BLOCK_PIXELS = 16 * 1600


def _as_matrix(homography) -> np.ndarray:
    matrix = getattr(homography, "matrix", homography)
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (3, 3):
        raise ValueError(f"expected a 3x3 homography, got shape {matrix.shape}")
    return matrix


def warp_image(image: np.ndarray, homography, out_size: tuple[int, int]) -> np.ndarray:
    """Apply a homography to a raster, output pixel q' sampled at H^-1 q'.

    ``image`` is (h, w) or (h, w, channels); ``out_size`` is (width,
    height).  Samples falling outside the source are filled with 0.
    The output is filled one block of rows at a time and only the valid
    samples are widened to float64, so memory stays small at any frame
    size; the bytes equal those of full-frame bilinear sampling.
    Accepts a Homography value or a raw 3x3 array; raises ValueError if
    the matrix is singular.
    """
    matrix = _as_matrix(homography)
    det = np.linalg.det(matrix)
    if not np.isfinite(det) or abs(det) < 1e-15:
        raise ValueError(f"homography is singular (det {det:.3e}); cannot invert for warping")
    inverse = np.linalg.inv(matrix)
    # Rescaling by the last element keeps the identity map exact after the
    # unit-norm gauge (x / x == 1) and does not change the projective map.
    if abs(inverse[2, 2]) > 1e-12:
        inverse = inverse / inverse[2, 2]

    if image.ndim not in (2, 3):
        raise ValueError(f"expected a (h, w) or (h, w, c) raster, got shape {image.shape}")
    out_width, out_height = int(out_size[0]), int(out_size[1])
    if out_width <= 0 or out_height <= 0:
        raise ValueError(f"out_size must be positive, got {out_size!r}")
    src_height, src_width = image.shape[:2]
    channels = image.shape[2:]
    # The source as (h*w,) or (h*w, c): a neighbour is gathered by its flat
    # pixel index, in the source's own dtype.
    source = image.reshape((src_height * src_width,) + channels)
    out = np.zeros((out_height, out_width) + channels, dtype=image.dtype)
    out_pixels = out.reshape((out_height * out_width,) + channels)
    info = np.iinfo(image.dtype) if np.issubdtype(image.dtype, np.integer) else None

    u = np.arange(out_width, dtype=float)
    block_rows = max(1, _BLOCK_PIXELS // out_width)
    for top in range(0, out_height, block_rows):
        v = np.arange(top, min(top + block_rows, out_height), dtype=float)[:, None]
        denom = inverse[2, 0] * u + inverse[2, 1] * v + inverse[2, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = (inverse[0, 0] * u + inverse[0, 1] * v + inverse[0, 2]) / denom
            y = (inverse[1, 0] * u + inverse[1, 1] * v + inverse[1, 2]) / denom

        # NaN and inf fail the bounds tests, so they need no test of their own.
        valid = (
            (np.abs(denom) > 1e-15)
            & (x >= 0.0)
            & (x <= src_width - 1.0)
            & (y >= 0.0)
            & (y <= src_height - 1.0)
        )
        index = np.flatnonzero(valid)
        x = np.take(x, index)
        y = np.take(y, index)

        x0 = np.floor(x).astype(int)
        y0 = np.floor(y).astype(int)
        fx = x - x0
        fy = y - y0
        x1 = np.minimum(x0 + 1, src_width - 1)
        row0 = y0 * src_width
        row1 = np.minimum(y0 + 1, src_height - 1) * src_width
        if channels:
            fx = fx[:, None]
            fy = fy[:, None]

        value = (
            (1.0 - fx) * (1.0 - fy) * np.take(source, row0 + x0, axis=0)
            + fx * (1.0 - fy) * np.take(source, row0 + x1, axis=0)
            + (1.0 - fx) * fy * np.take(source, row1 + x0, axis=0)
            + fx * fy * np.take(source, row1 + x1, axis=0)
        )
        if info is not None:
            value = np.clip(np.rint(value), info.min, info.max)
        out_pixels[top * out_width + index] = value.astype(image.dtype)
    return out
