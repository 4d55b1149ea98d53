import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bevkit.pnm
from bevkit.pnm import read_pnm, write_pnm
from bevkit.scene import render_pattern_image


class TestPNM:
    def test_graymap_roundtrip(self, tmp_path):
        image = render_pattern_image(37, 21, 4)
        path = tmp_path / "g.pgm"
        write_pnm(path, image)
        assert np.array_equal(read_pnm(path), image)

    def test_pixmap_roundtrip(self, tmp_path):
        gray = render_pattern_image(16, 9, 1)
        color = np.stack([gray, 255 - gray, gray // 3], axis=-1)
        path = tmp_path / "c.ppm"
        write_pnm(path, color)
        assert np.array_equal(read_pnm(path), color)

    def test_write_is_deterministic(self, tmp_path):
        image = render_pattern_image(10, 10, 0)
        write_pnm(tmp_path / "a.pgm", image)
        write_pnm(tmp_path / "b.pgm", image)
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()

    def test_header_format(self, tmp_path):
        write_pnm(tmp_path / "h.pgm", np.zeros((2, 3), dtype=np.uint8))
        data = (tmp_path / "h.pgm").read_bytes()
        assert data == b"P5\n3 2\n255\n" + b"\x00" * 6

    def test_comments_skipped_on_read(self, tmp_path):
        payload = b"P5\n# a comment\n3 2\n255\n" + bytes(range(6))
        path = tmp_path / "c.pgm"
        path.write_bytes(payload)
        assert read_pnm(path).shape == (2, 3)

    def test_comments_and_whitespace_interleave_between_tokens(self, tmp_path):
        payload = b"P5 \n # one\n\t# two\n 3\n# three\n\n 2 # four\n255\n" + bytes(range(6))
        path = tmp_path / "i.pgm"
        path.write_bytes(payload)
        assert np.array_equal(read_pnm(path), np.arange(6, dtype=np.uint8).reshape(2, 3))

    def test_ascii_magic_rejected(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2\n3 2\n255\n0 1 2 3 4 5\n")
        with pytest.raises(ValueError, match="magic"):
            read_pnm(path)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
        with pytest.raises(ValueError, match="8-bit"):
            read_pnm(path)

    def test_maxval_below_255_rejected(self, tmp_path):
        # read as 8-bit and written back with maxval 255, white would turn 39% grey
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 1\n100\n" + bytes([100, 50]))
        with pytest.raises(ValueError, match="8-bit.*got maxval 100$"):
            read_pnm(path)

    def test_zero_size_rejected(self, tmp_path):
        path = tmp_path / "z.pgm"
        path.write_bytes(b"P5\n0 3\n255\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: invalid size 0x3')}$"):
            read_pnm(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 3)
        with pytest.raises(ValueError, match=re.escape(f"{path}: expected 16 raster bytes, got 3")):
            read_pnm(path)

    @pytest.mark.parametrize("payload", [b"P5\n4 4\n255\n", b"P5\n4 4\n255"], ids=["no-raster", "no-separator"])
    def test_header_only_rejected(self, tmp_path, payload):
        path = tmp_path / "h.pgm"
        path.write_bytes(payload)
        with pytest.raises(ValueError, match=re.escape(f"{path}: expected 16 raster bytes, got 0")):
            read_pnm(path)

    def test_header_cut_off_after_whitespace_fails_fast(self, tmp_path):
        # run in a child with a timeout, so a regex that backtracks without
        # bound fails the test instead of hanging the suite
        path = tmp_path / "spaces.pgm"
        path.write_bytes(b"P5" + b" " * 10_000)
        code = (
            "import sys\nfrom bevkit.pnm import read_pnm\n"
            "try:\n    read_pnm(sys.argv[1])\nexcept ValueError as error:\n    print(error)\n"
        )
        src = str(Path(bevkit.pnm.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-c", code, str(path)], capture_output=True, text=True, env=env, timeout=30, check=True
        )
        assert result.stdout == f"{path}: truncated PNM header\n"

    @pytest.mark.parametrize(
        "header, field, token",
        [
            (b"70x 2 255", "width", "70x"),
            (b"+3 2 255", "width", "+3"),
            (b"3_0 2 255", "width", "3_0"),
            (b"3 \xd9\xa2 255", "height", "\\xd9\\xa2"),
            (b"3 2 2_55", "maxval", "2_55"),
            (b"3 2 +255", "maxval", "+255"),
        ],
        ids=["width-70x", "width-plus", "width-underscore", "height-arabic-indic-two", "maxval-underscore", "maxval-plus"],
    )
    def test_header_number_must_be_decimal_digits(self, tmp_path, header, field, token):
        # int() alone reads +3, 3_0, 2_55 and +255 as numbers
        path = tmp_path / "n.pgm"
        path.write_bytes(b"P5\n" + header + b"\n" + bytes(range(60)))
        with pytest.raises(ValueError) as failure:
            read_pnm(path)
        assert str(failure.value) == f"{path}: PNM {field} is not a decimal number: '{token}'"

    @pytest.mark.parametrize("control", [b"\x1c", b"\x1d", b"\x1e", b"\x1b", b"\x00"], ids=["fs", "gs", "rs", "esc", "nul"])
    def test_control_byte_in_header_token_stays_one_line(self, tmp_path, control):
        # str.splitlines breaks at 0x1c-0x1e; ESC and NUL must not reach a terminal raw
        path = tmp_path / "ctl.pgm"
        path.write_bytes(b"P5\n3 2" + control + b"x 255\n" + bytes(6))
        with pytest.raises(ValueError) as failure:
            read_pnm(path)
        message = str(failure.value)
        assert message == f"{path}: PNM height is not a decimal number: '2\\x{control[0]:02x}x'"
        assert len(message.splitlines()) == 1 and message.isprintable()

    def test_header_number_past_the_digit_limit_names_the_file(self, tmp_path):
        path = tmp_path / "wide.pgm"
        path.write_bytes(b"P5\n" + b"1" * 5000 + b" 2\n255\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: PNM width: ")):
            read_pnm(path)

    @pytest.mark.parametrize("header", [b"P6", b"P6\n3", b"P6\n3 2 \n\t", b"P6\n3 2 # no maxval\n", b"P5\n3 2 #c"])
    def test_truncated_header_names_the_file(self, tmp_path, header):
        path = tmp_path / "cut.ppm"
        path.write_bytes(header)
        with pytest.raises(ValueError) as failure:
            read_pnm(path)
        assert str(failure.value) == f"{path}: truncated PNM header"

    def test_comment_longer_than_4_kib(self, tmp_path):
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P5\n# " + b"x" * 5000 + b"\n3 2\n# and " + b"y" * 5000 + b"\n255\n" + bytes(range(6)))
        assert np.array_equal(read_pnm(path), np.arange(6, dtype=np.uint8).reshape(2, 3))

    def test_trailing_bytes_ignored(self, tmp_path):
        path = tmp_path / "tail.pgm"
        path.write_bytes(b"P5\n3 2\n255\n" + bytes(range(6)) + b"extra")
        assert np.array_equal(read_pnm(path), np.arange(6, dtype=np.uint8).reshape(2, 3))

    @pytest.mark.parametrize("channels", [1, 3])
    def test_read_returns_writable_c_contiguous(self, tmp_path, channels):
        gray = render_pattern_image(16, 9, 2)
        image = gray if channels == 1 else np.stack([gray, 255 - gray, gray // 3], axis=-1)
        path = tmp_path / "w.pnm"
        write_pnm(path, image)
        loaded = read_pnm(path)
        assert loaded.dtype == np.uint8
        assert loaded.flags.writeable
        assert loaded.flags.c_contiguous
        loaded[0, 0] = 255 - loaded[0, 0]
        assert not np.array_equal(loaded, image)

    @pytest.mark.parametrize("view", ["reversed-columns", "transposed", "strided-rows"])
    def test_non_contiguous_view_writes_its_bytes(self, tmp_path, view):
        gray = render_pattern_image(16, 9, 1)
        color = np.stack([gray, 255 - gray, gray // 3], axis=-1)
        image = {"reversed-columns": color[:, ::-1], "transposed": gray.T, "strided-rows": gray[::2]}[view]
        assert not image.flags.c_contiguous
        path = tmp_path / "v.pnm"
        write_pnm(path, image)
        height, width = image.shape[:2]
        magic = b"P5" if image.ndim == 2 else b"P6"
        assert path.read_bytes() == magic + f"\n{width} {height}\n255\n".encode("ascii") + image.tobytes()

    def test_non_uint8_write_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="uint8"):
            write_pnm(tmp_path / "f.pgm", np.zeros((2, 2), dtype=np.float32))
