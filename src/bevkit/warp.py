"""Projective image warping by inverse mapping with bilinear sampling."""

from __future__ import annotations

import numpy as np

from .geometry import whole_number
from .pnm import raster_channels

__all__ = ["warp_image"]

# Output pixels per block of rows.  Sizes the work arrays of one call (about
# 3 MiB at 16 rows of 1600 pixels), whatever the frame size.
_BLOCK_PIXELS = 16 * 1600


def warp_image(image: np.ndarray, homography, out_size: tuple[int, int]) -> np.ndarray:
    """Apply a homography to a raster, output pixel q' sampled at H^-1 q'.

    ``image`` is an 8-bit gray (h, w) or RGB (h, w, 3) raster, as
    ``pnm.raster_channels`` decides; ``out_size`` is (width, height), two
    positive whole numbers.  Samples falling outside the source are filled
    with 0.  The output is filled one block of rows at a time, in work
    arrays made once per call and rewritten in place by every block.
    Every sample of a block is computed, and the invalid lanes are masked
    to the source's first pixel for the gathers and set to 0 in the
    output.  The blend runs one channel at a time: the channel's four
    neighbours are gathered as contiguous arrays from a flat view of the
    source, and their weighted sum is rounded straight into the output.
    Memory stays small at any frame size, and the bytes equal those of
    full-frame bilinear sampling.  ``homography`` is a ``Homography``,
    whose constructor rejects a singular map.
    """
    inverse = np.linalg.inv(homography.matrix)
    # Rescaling by the last element keeps the identity map exact after the
    # unit-norm gauge (x / x == 1) and does not change the projective map.
    if abs(inverse[2, 2]) > 1e-12:
        inverse = inverse / inverse[2, 2]

    channels = raster_channels(image)
    out_width = whole_number("out_size width", out_size[0], 1)
    out_height = whole_number("out_size height", out_size[1], 1)
    src_height, src_width = image.shape[:2]
    out = np.zeros((out_height, out_width) + image.shape[2:], dtype=np.uint8)
    if image.size == 0:
        return out
    # One flat view of the source (a copy only if it is not contiguous):
    # channel ch of pixel (x, y) is element y * width * channels + x * channels
    # + ch, so each channel's neighbours are gathered as contiguous bytes
    # from the view starting at ch.
    flat = image.reshape(-1)
    out_pixels = out.reshape(out_height * out_width, channels)
    row_stride = src_width * channels

    u = np.arange(out_width, dtype=float)
    x_u, y_u, denom_u = inverse[0, 0] * u, inverse[1, 0] * u, inverse[2, 0] * u
    block_rows = max(1, _BLOCK_PIXELS // out_width)
    # Work arrays of one block, made per call (so library callers may warp
    # on several threads) and reused by every block through out=.
    size = min(block_rows, out_height) * out_width
    floats = np.empty((11, size))
    ints = np.empty((4, size), dtype=np.intp)
    flags = np.empty((2, size), dtype=bool)
    for top in range(0, out_height, block_rows):
        bottom = min(top + block_rows, out_height)
        n = (bottom - top) * out_width
        denom, x, y, x0, y0, w00, w01, w10, w11, value, term = floats[:, :n]
        i00, i01, i10, i11 = ints[:, :n]
        valid, inside = flags[:, :n]
        v = np.arange(top, bottom, dtype=float)[:, None]
        rows = (bottom - top, out_width)
        # (x_u + inverse[0, 1] * v) + inverse[0, 2], in this order: the
        # full-frame sum rounds the same way only when associated alike.
        np.add(denom_u, inverse[2, 1] * v, out=denom.reshape(rows))
        np.add(denom, inverse[2, 2], out=denom)
        np.add(x_u, inverse[0, 1] * v, out=x.reshape(rows))
        np.add(x, inverse[0, 2], out=x)
        np.add(y_u, inverse[1, 1] * v, out=y.reshape(rows))
        np.add(y, inverse[1, 2], out=y)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(x, denom, out=x)
            np.divide(y, denom, out=y)

        # NaN and inf fail the bounds tests, so they need no test of their own.
        np.greater(np.abs(denom, out=denom), 1e-15, out=valid)
        for coordinate, limit in ((x, src_width - 1.0), (y, src_height - 1.0)):
            np.logical_and(valid, np.greater_equal(coordinate, 0.0, out=inside), out=valid)
            np.logical_and(valid, np.less_equal(coordinate, limit, out=inside), out=valid)
        invalid = np.logical_not(valid, out=valid)
        masked = invalid.any()
        if masked:
            # In-bounds samples of pixel 0, so no NaN reaches a cast and every
            # gather stays in the source; the output lanes are zeroed below.
            np.copyto(x, 0.0, where=invalid)
            np.copyto(y, 0.0, where=invalid)

        np.floor(x, out=x0)
        np.floor(y, out=y0)
        fx = np.subtract(x, x0, out=x)
        fy = np.subtract(y, y0, out=y)
        # Flat index of the first neighbour, exact in float64.  The next column
        # and row are one step on, except at the source's last ones; i01 and
        # i10 first hold those steps.
        col0 = np.multiply(x0, channels, out=x0)
        row0 = np.multiply(y0, row_stride, out=y0)
        np.add(row0, col0, out=i00, casting="unsafe")
        np.multiply(np.less(col0, (src_width - 1) * channels, out=inside), channels, out=i01)
        np.multiply(np.less(row0, (src_height - 1) * row_stride, out=inside), row_stride, out=i10)
        np.add(i01, i00, out=i01)
        np.add(i01, i10, out=i11)
        np.add(i10, i00, out=i10)
        # col0 and row0 are spent: their arrays take 1 - fx and 1 - fy.
        one_fx = np.subtract(1.0, fx, out=col0)
        one_fy = np.subtract(1.0, fy, out=row0)
        np.multiply(one_fx, one_fy, out=w00)
        np.multiply(fx, one_fy, out=w01)
        np.multiply(one_fx, fy, out=w10)
        np.multiply(fx, fy, out=w11)

        out_block = out_pixels[top * out_width : bottom * out_width]
        for ch in range(channels):
            channel = flat[ch:]
            # The same products, summed left to right, as the full-frame
            # w00 * p00 + w01 * p01 + w10 * p10 + w11 * p11.
            np.multiply(w00, channel.take(i00), out=value)
            np.add(value, np.multiply(w01, channel.take(i01), out=term), out=value)
            np.add(value, np.multiply(w10, channel.take(i10), out=term), out=value)
            np.add(value, np.multiply(w11, channel.take(i11), out=term), out=value)
            if masked:
                np.copyto(value, 0.0, where=invalid)
            # No clip: the weights are non-negative and sum to 1 within a few
            # ulp, so a blend of bytes rounds to a byte.
            np.rint(value, out=out_block[:, ch], casting="unsafe")
    return out
