"""Projective image warping by inverse mapping with bilinear sampling."""

from __future__ import annotations

import numpy as np

from .geometry import whole_number

__all__ = ["warp_image"]

# Output pixels per block of rows.  Bounds the float64 temporaries of one
# block to a few MiB, whatever the frame size.
_BLOCK_PIXELS = 16 * 1600


def warp_image(image: np.ndarray, homography, out_size: tuple[int, int]) -> np.ndarray:
    """Apply a homography to a raster, output pixel q' sampled at H^-1 q'.

    ``image`` is (h, w) or (h, w, channels); ``out_size`` is (width,
    height), two positive whole numbers.  Samples falling outside the
    source are filled with 0.  The output is filled one block of rows at a
    time: every sample of a block is computed, the invalid lanes are masked
    to the source's first pixel for the gathers and set to 0 in the output,
    and the blend runs one channel at a time.  Memory stays small at any
    frame size, and the bytes equal those of full-frame bilinear sampling.
    ``homography`` is a ``Homography``, whose constructor rejects a
    singular map.
    """
    inverse = np.linalg.inv(homography.matrix)
    # Rescaling by the last element keeps the identity map exact after the
    # unit-norm gauge (x / x == 1) and does not change the projective map.
    if abs(inverse[2, 2]) > 1e-12:
        inverse = inverse / inverse[2, 2]

    if image.ndim not in (2, 3):
        raise ValueError(f"expected a (h, w) or (h, w, c) raster, got shape {image.shape}")
    out_width = whole_number("out_size width", out_size[0], 1)
    out_height = whole_number("out_size height", out_size[1], 1)
    src_height, src_width = image.shape[:2]
    channels = image.shape[2] if image.ndim == 3 else 1
    out = np.zeros((out_height, out_width) + image.shape[2:], dtype=image.dtype)
    if image.size == 0:
        return out
    # The source and the output as (pixels, channels): a neighbour is
    # gathered as one row of its flat pixel index, in the source's own dtype.
    source = image.reshape(src_height * src_width, channels)
    out_pixels = out.reshape(out_height * out_width, channels)
    integer = np.issubdtype(image.dtype, np.integer)

    u = np.arange(out_width, dtype=float)
    x_u, y_u, denom_u = inverse[0, 0] * u, inverse[1, 0] * u, inverse[2, 0] * u
    block_rows = max(1, _BLOCK_PIXELS // out_width)
    for top in range(0, out_height, block_rows):
        bottom = min(top + block_rows, out_height)
        v = np.arange(top, bottom, dtype=float)[:, None]
        denom = (denom_u + inverse[2, 1] * v + inverse[2, 2]).ravel()
        with np.errstate(divide="ignore", invalid="ignore"):
            x = (x_u + inverse[0, 1] * v + inverse[0, 2]).ravel() / denom
            y = (y_u + inverse[1, 1] * v + inverse[1, 2]).ravel() / denom

        # NaN and inf fail the bounds tests, so they need no test of their own.
        valid = (
            (np.abs(denom) > 1e-15)
            & (x >= 0.0)
            & (x <= src_width - 1.0)
            & (y >= 0.0)
            & (y <= src_height - 1.0)
        )
        invalid = ~valid
        masked = invalid.any()
        if masked:
            # In-bounds samples of pixel 0, so no NaN reaches a cast and every
            # gather stays in the source; the output lanes are zeroed below.
            x[invalid] = 0.0
            y[invalid] = 0.0

        x0 = np.floor(x).astype(int)
        y0 = np.floor(y).astype(int)
        fx = x - x0
        fy = y - y0
        x1 = np.minimum(x0 + 1, src_width - 1)
        row0 = y0 * src_width
        row1 = np.minimum(y0 + 1, src_height - 1) * src_width
        w00 = (1.0 - fx) * (1.0 - fy)
        w01 = fx * (1.0 - fy)
        w10 = (1.0 - fx) * fy
        w11 = fx * fy
        p00 = np.take(source, row0 + x0, axis=0)
        p01 = np.take(source, row0 + x1, axis=0)
        p10 = np.take(source, row1 + x0, axis=0)
        p11 = np.take(source, row1 + x1, axis=0)

        out_block = out_pixels[top * out_width : bottom * out_width]
        # A non-finite float source may meet a zero weight; the NaN that
        # makes is the full-frame result too, so it is not reported.
        with np.errstate(invalid="ignore"):
            for ch in range(channels):
                # The same products, summed left to right, as the full-frame
                # w00 * p00 + w01 * p01 + w10 * p10 + w11 * p11.
                value = w00 * p00[:, ch]
                value += w01 * p01[:, ch]
                value += w10 * p10[:, ch]
                value += w11 * p11[:, ch]
                if integer:
                    # No clip: the weights are non-negative and sum to 1 within
                    # a few ulp, so a blend of in-range values rounds in range.
                    np.rint(value, out=value)
                out_block[:, ch] = value
        if masked:
            out_block[invalid] = 0
    return out
