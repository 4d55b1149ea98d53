import tracemalloc

import numpy as np
import pytest

import bevkit.warp as warp_module
from bevkit.augment import Homography
from bevkit.scene import render_pattern_image
from bevkit.warp import warp_image

# A NaN that reaches floor or an integer cast fails the suite, not just warns.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def reference_warp(image, homography, out_size):
    """Full-frame bilinear sampling that warp_image must match byte for byte."""
    inverse = np.linalg.inv(np.asarray(getattr(homography, "matrix", homography), dtype=float))
    if abs(inverse[2, 2]) > 1e-12:
        inverse = inverse / inverse[2, 2]
    out_width, out_height = out_size
    src_height, src_width = image.shape[:2]

    u, v = np.meshgrid(np.arange(out_width, dtype=float), np.arange(out_height, dtype=float))
    denom = inverse[2, 0] * u + inverse[2, 1] * v + inverse[2, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (inverse[0, 0] * u + inverse[0, 1] * v + inverse[0, 2]) / denom
        y = (inverse[1, 0] * u + inverse[1, 1] * v + inverse[1, 2]) / denom

    valid = (
        np.isfinite(x)
        & np.isfinite(y)
        & (np.abs(denom) > 1e-15)
        & (x >= 0.0)
        & (x <= src_width - 1.0)
        & (y >= 0.0)
        & (y <= src_height - 1.0)
    )
    x = np.where(valid, x, 0.0)
    y = np.where(valid, y, 0.0)

    x0 = np.floor(x).astype(int)
    y0 = np.floor(y).astype(int)
    fx = x - x0
    fy = y - y0
    x1 = np.minimum(x0 + 1, src_width - 1)
    y1 = np.minimum(y0 + 1, src_height - 1)

    source = image.astype(float)
    if image.ndim == 3:
        fx = fx[..., None]
        fy = fy[..., None]
        valid_mask = valid[..., None]
    else:
        valid_mask = valid

    value = (
        (1.0 - fx) * (1.0 - fy) * source[y0, x0]
        + fx * (1.0 - fy) * source[y0, x1]
        + (1.0 - fx) * fy * source[y1, x0]
        + fx * fy * source[y1, x1]
    )
    value = np.where(valid_mask, value, 0.0)

    if np.issubdtype(image.dtype, np.integer):
        info = np.iinfo(image.dtype)
        return np.clip(np.rint(value), info.min, info.max).astype(image.dtype)
    return value.astype(image.dtype)


def random_raster(rng, height, width, dtype, color):
    shape = (height, width, 3) if color else (height, width)
    if dtype == np.float64:
        return rng.normal(0.0, 100.0, size=shape)
    return rng.integers(0, np.iinfo(dtype).max, size=shape, endpoint=True, dtype=dtype)


def random_map(rng, kind, src_size, out_size):
    """A forward homography of the given kind for a src_size -> out_size warp."""
    src_width, src_height = src_size
    out_width, out_height = out_size
    if kind == "near-identity":
        return np.eye(3) + rng.normal(0.0, [[1e-2, 1e-2, 1.0], [1e-2, 1e-2, 1.0], [1e-5, 1e-5, 0.0]])
    if kind == "leaves-source":
        shift = rng.choice([-1.0, 1.0], size=2) * (np.array([src_width, src_height]) + out_width + out_height)
        return np.array([[1.0, 0.0, shift[0]], [0.0, 1.0, shift[1]], [0.0, 0.0, 1.0]])
    # inverse map whose denominator is zero on a line through the canvas
    u0, v0 = rng.uniform(0.0, out_width), rng.uniform(0.0, out_height)
    a, b = rng.normal(size=2) / max(out_width, out_height)
    inverse = np.eye(3) + rng.normal(0.0, 0.05, size=(3, 3))
    inverse[2] = [a, b, -(a * u0 + b * v0)]
    inverse[:2] *= rng.uniform(0.2, 2.0)
    return np.linalg.inv(inverse)


class TestWarpImage:
    def test_identity_bit_exact(self):
        image = render_pattern_image(64, 48, 0)
        assert np.array_equal(warp_image(image, np.eye(3), (64, 48)), image)

    def test_identity_through_normalized_homography(self):
        image = render_pattern_image(64, 48, 1)
        assert np.array_equal(warp_image(image, Homography(np.eye(3)), (64, 48)), image)

    def test_horizontal_shift(self):
        image = render_pattern_image(80, 40, 2)
        shift = np.array([[1.0, 0.0, 10.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        warped = warp_image(image, shift, (80, 40))
        assert np.array_equal(warped[:, 10:], image[:, :-10])
        assert np.all(warped[:, :10] == 0)

    def test_color_raster_channels_shift_together(self):
        gray = render_pattern_image(60, 30, 3)
        color = np.stack([gray, gray // 2, 255 - gray], axis=-1)
        shift = np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        warped = warp_image(color, shift, (60, 30))
        assert warped.shape == (30, 60, 3)
        assert np.array_equal(warped[:, 5:], color[:, :-5])

    def test_out_of_source_filled_with_zero(self):
        image = np.full((20, 20), 200, dtype=np.uint8)
        shift = np.array([[1.0, 0.0, -30.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.all(warp_image(image, shift, (20, 20)) == 0)

    def test_warp_then_inverse_bounded_by_bilinear_error(self):
        # linear ramp: bilinear interpolation reproduces linear images, so
        # the double warp can only lose rounding, at most 1 level per pass
        height, width = 60, 90
        image = np.add.outer(np.arange(height), 2 * np.arange(width)).astype(np.uint8)
        matrix = np.array(
            [
                [0.998, 0.02, 3.0],
                [-0.02, 0.998, -2.0],
                [1e-5, -1e-5, 1.0],
            ]
        )
        once = warp_image(image, matrix, (width, height))
        back = warp_image(once, np.linalg.inv(matrix), (width, height))

        # doubly valid region: the pixel is interior to the source and its
        # forward image lands interior to the intermediate raster, with a
        # margin so every bilinear neighbor holds real data
        u, v = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
        h = Homography(matrix)
        forward = h.apply(np.stack([u.ravel(), v.ravel()], axis=1)).reshape(height, width, 2)
        margin = 2.0
        valid = (
            (u >= margin)
            & (u <= width - 1 - margin)
            & (v >= margin)
            & (v <= height - 1 - margin)
            & (forward[..., 0] >= margin)
            & (forward[..., 0] <= width - 1 - margin)
            & (forward[..., 1] >= margin)
            & (forward[..., 1] <= height - 1 - margin)
        )
        assert valid.sum() > 0.5 * valid.size
        error = np.abs(back.astype(int) - image.astype(int))[valid]
        assert error.max() <= 2

    def test_singular_matrix_rejected(self):
        image = render_pattern_image(10, 10, 0)
        with pytest.raises(ValueError):
            warp_image(image, np.diag([1.0, 1.0, 0.0]), (10, 10))

    def test_float_raster_supported(self):
        image = np.linspace(0.0, 1.0, 25, dtype=np.float64).reshape(5, 5)
        out = warp_image(image, np.eye(3), (5, 5))
        assert out.dtype == image.dtype
        assert np.array_equal(out, image)

    def test_output_canvas_can_differ_from_source(self):
        image = render_pattern_image(40, 30, 5)
        grown = warp_image(image, np.eye(3), (50, 35))
        assert grown.shape == (35, 50)
        assert np.array_equal(grown[:30, :40], image)
        assert np.all(grown[30:, :] == 0) and np.all(grown[:, 40:] == 0)
        cropped = warp_image(image, np.eye(3), (20, 15))
        assert np.array_equal(cropped, image[:15, :20])

    def test_invalid_out_size_rejected(self):
        image = render_pattern_image(10, 10, 0)
        with pytest.raises(ValueError):
            warp_image(image, np.eye(3), (0, 10))
        # a fraction or a boolean is rejected, not truncated; a string is not a size
        for out_size in ((4.7, 3), (True, 3), ("4", 3), (3, 2.5), (3, False), (-1, 3), (3, None)):
            with pytest.raises(ValueError, match="out_size"):
                warp_image(image, np.eye(3), out_size)

    def test_whole_float_out_size_accepted(self):
        image = render_pattern_image(10, 10, 0)
        assert np.array_equal(warp_image(image, np.eye(3), (4.0, np.int64(3))), image[:3, :4])

    @pytest.mark.parametrize("shape", [(0, 5), (4, 0), (0, 0), (0, 5, 3), (4, 0, 3), (0, 0, 3)])
    def test_empty_source_warps_to_zeros(self, shape):
        image = np.zeros(shape, dtype=np.uint8)
        matrix = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]])
        out = warp_image(image, matrix, (7, 3))
        assert out.shape == (3, 7) + shape[2:]
        assert out.dtype == np.uint8
        assert not out.any()

    @pytest.mark.parametrize("first, last", [(np.nan, np.inf), (-np.inf, np.nan)])
    @pytest.mark.parametrize("kind", ["leaves-source", "horizon"])
    def test_masked_lanes_are_zero_with_non_finite_source(self, monkeypatch, first, last, kind):
        src_width, src_height = 9, 7
        out_width, out_height = 13, 9
        if kind == "leaves-source":
            # every output row samples left of the source first, then inside it
            matrix = np.array([[1.0, 0.0, 3.0], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]])
        else:
            # the inverse map's denominator 1 - u / 6 vanishes on column 6 of
            # every row; the columns right of it map behind the camera
            matrix = np.linalg.inv(np.array([[1.0, 0.0, 0.0], [0.0, 0.7, 0.0], [-1.0 / 6.0, 0.0, 1.0]]))
        # four-row blocks; the canvas height is not a multiple of them
        monkeypatch.setattr(warp_module, "_BLOCK_PIXELS", 4 * out_width)

        rng = np.random.default_rng(3)
        image = rng.normal(0.0, 100.0, size=(src_height, src_width))
        image.flat[0], image.flat[-1] = first, last
        with np.errstate(invalid="ignore"):  # 0 * inf in the full-frame oracle
            expected = reference_warp(image, matrix, (out_width, out_height))
        got = warp_image(image, matrix, (out_width, out_height))

        inverse = np.linalg.inv(matrix)
        inverse = inverse / inverse[2, 2]
        u, v = np.meshgrid(np.arange(out_width, dtype=float), np.arange(out_height, dtype=float))
        denom = inverse[2, 0] * u + inverse[2, 1] * v + inverse[2, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = (inverse[0, 0] * u + inverse[0, 1] * v + inverse[0, 2]) / denom
            y = (inverse[1, 0] * u + inverse[1, 1] * v + inverse[1, 2]) / denom
        valid = (x >= 0.0) & (x <= src_width - 1.0) & (y >= 0.0) & (y <= src_height - 1.0)
        for top in range(0, out_height, 4):
            assert valid[top : top + 4].any() and not valid[top : top + 4].all(), top
        assert np.all(got[~valid] == 0.0)
        assert not np.isfinite(got[valid]).all()
        assert np.array_equal(got, expected, equal_nan=True)

        gray = rng.integers(0, 256, size=(src_height, src_width), dtype=np.uint8)
        color = rng.integers(0, 2**16, size=(src_height, src_width, 3), dtype=np.uint16)
        for source in (gray, color):
            got = warp_image(source, matrix, (out_width, out_height))
            assert not got[~valid].any()
            assert np.array_equal(got, reference_warp(source, matrix, (out_width, out_height)))

    def test_matches_full_frame_reference_byte_for_byte(self, monkeypatch):
        kinds = ("near-identity", "leaves-source", "horizon")
        dtypes = (np.uint8, np.uint16, np.float64)
        cases = 0
        sampled = 0
        for seed in range(120):
            rng = np.random.default_rng(seed)
            kind = kinds[seed % 3]
            dtype = dtypes[(seed // 3) % 3]
            color = bool((seed // 9) % 2)
            src_width, src_height = (int(n) for n in rng.integers(1, 48, size=2))
            canvas = seed % 5
            if canvas == 0:
                out_width, out_height = int(rng.integers(1, 64)), 1
            elif canvas == 1:
                out_width, out_height = 1, int(rng.integers(1, 64))
            elif canvas == 2:  # larger canvas than the source
                out_width, out_height = src_width + int(rng.integers(1, 24)), src_height + int(rng.integers(1, 24))
            else:  # smaller or equal canvas
                out_width, out_height = int(rng.integers(1, src_width + 1)), int(rng.integers(1, src_height + 1))
            # blocks of one row up to the whole canvas; heights are rarely a
            # multiple of the block height
            block_pixels = int(rng.integers(1, 2 * out_width * out_height + 1))
            monkeypatch.setattr(warp_module, "_BLOCK_PIXELS", block_pixels)

            image = random_raster(rng, src_height, src_width, dtype, color)
            matrix = random_map(rng, kind, (src_width, src_height), (out_width, out_height))
            if abs(np.linalg.det(matrix)) < 1e-15:
                continue
            expected = reference_warp(image, matrix, (out_width, out_height))
            got = warp_image(image, matrix, (out_width, out_height))
            context = (seed, kind, dtype, color, (src_width, src_height), (out_width, out_height), block_pixels)
            assert got.dtype == expected.dtype, context
            assert np.array_equal(got, expected), context
            cases += 1
            sampled += int(np.count_nonzero(expected))
        assert cases >= 100
        assert sampled > 0

    def test_default_block_height_matches_reference_at_frame_size(self):
        # 900 rows are not a multiple of the 16-row blocks of a 1600-px canvas
        rng = np.random.default_rng(7)
        image = random_raster(rng, 900, 1600, np.uint8, color=True)
        matrix = np.array([[1.02, 0.03, -12.0], [-0.01, 0.99, 7.0], [2e-5, -1e-5, 1.0]])
        got = warp_image(image, matrix, (1600, 900))
        assert got.dtype == np.uint8
        assert np.array_equal(got, reference_warp(image, matrix, (1600, 900)))

    def test_full_frame_warp_peak_memory_bounded(self):
        image = render_pattern_image(1600, 900, 3)
        image = np.stack([image, image // 2, 255 - image], axis=-1)
        matrix = np.array([[1.02, 0.03, -12.0], [-0.01, 0.99, 7.0], [2e-5, -1e-5, 1.0]])
        tracemalloc.start()
        try:
            warp_image(image, matrix, (1600, 900))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the output alone is 4.1 MiB; a full-frame float64 kernel needs ~265 MiB
        assert peak < 32 * 2**20
