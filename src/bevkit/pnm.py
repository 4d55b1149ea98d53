"""Binary portable graymap/pixmap (P5/P6) reader and writer, 8-bit only."""

from __future__ import annotations

import os
import re
from pathlib import Path

import numpy as np

from .geometry import clip

__all__ = ["raster_channels", "read_pnm", "write_pnm"]

# Each separator consumes at least one byte, so a header cut off after
# whitespace fails in linear time instead of backtracking exponentially.
# A token never starts with '#': an unterminated comment is not a token.
_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n)*([^\s#]\S*)")

# A quoted header token shows each ASCII control byte as \xNN, the way
# backslashreplace shows the non-ASCII ones: raw, 0x1c-0x1e would break
# the error line and an ESC would reach the terminal.
_CONTROL_ESCAPES = {code: f"\\x{code:02x}" for code in (*range(0x20), 0x7F)}


def _read_header_numbers(path: str | Path, data: bytearray, offset: int) -> tuple[list[int], int]:
    """Width, height and maxval after the magic, and the offset past maxval.

    Each is a token of ASCII decimal digits: ``int`` alone would also read
    ``+704`` and ``7_04`` as 704.
    """
    numbers = []
    for name in ("width", "height", "maxval"):
        match = _TOKEN.match(data, offset)
        if match is None:
            raise ValueError(f"{path}: truncated PNM header")
        token = bytes(match.group(1))
        if not token.isdigit():
            # 81 bytes give clip its 80 characters and its "..."
            text = clip(token[:81].decode("ascii", "backslashreplace").translate(_CONTROL_ESCAPES))
            raise ValueError(f"{path}: PNM {name} is not a decimal number: '{text}'")
        try:
            numbers.append(int(token))
        except ValueError as error:  # more digits than the interpreter converts
            raise ValueError(f"{path}: PNM {name}: {error}") from None
        offset = match.end()
    return numbers, offset


def read_pnm(path: str | Path) -> np.ndarray:
    """Read a binary PGM (P5) as (h, w) or PPM (P6) as (h, w, 3), dtype uint8.

    The file is read once into one buffer of its size, and the returned
    (writable, C-contiguous) array is a view of the raster inside it.
    """
    with open(path, "rb") as handle:
        data = bytearray(os.fstat(handle.fileno()).st_size)
        size = handle.readinto(data)
    magic = bytes(data[:2])
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"{path}: unsupported PNM magic {magic!r} (only binary P5/P6)")
    channels = 1 if magic == b"P5" else 3
    (width, height, maxval), offset = _read_header_numbers(path, data, 2)
    if width <= 0 or height <= 0:
        raise ValueError(f"{path}: invalid size {width}x{height}")
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit rasters with maxval 255 supported, got maxval {maxval}")
    offset += 1  # single whitespace byte after maxval
    expected = width * height * channels
    if size - offset < expected:
        raise ValueError(f"{path}: expected {expected} raster bytes, got {max(size - offset, 0)}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=expected, offset=offset)
    return pixels.reshape((height, width) if channels == 1 else (height, width, 3))


def raster_channels(image: np.ndarray) -> int:
    """1 for a uint8 (h, w) gray raster, 3 for a uint8 (h, w, 3) RGB one; anything else raises ValueError.

    The one rule for what bevkit warps and writes as a raster; ``read_pnm`` returns no other.
    """
    if image.dtype != np.uint8:
        raise ValueError(f"expected uint8 raster, got dtype {image.dtype}")
    if image.ndim == 2:
        return 1
    if image.ndim == 3 and image.shape[2] == 3:
        return 3
    raise ValueError(f"expected (h, w) or (h, w, 3) raster, got shape {image.shape}")


def write_pnm(path: str | Path, image: np.ndarray) -> None:
    """Write a uint8 (h, w) array as P5 or (h, w, 3) as P6: the header, then the raster's buffer."""
    image = np.asarray(image)
    magic = b"P5" if raster_channels(image) == 1 else b"P6"
    height, width = image.shape[:2]
    with open(path, "wb") as handle:
        handle.write(magic + f"\n{width} {height}\n255\n".encode("ascii"))
        handle.write(np.ascontiguousarray(image))
