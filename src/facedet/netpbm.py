"""Binary netpbm I/O: 8-bit PGM (P5) and PPM (P6).

These are the fixture formats for all golden tests, so reads and writes are
bit-exact: the writers emit a canonical single-whitespace header and store
the pixels they are given or refuse them, and the reader accepts arbitrary
whitespace and '#' comments before the raster.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "read_pgm",
    "write_pgm",
    "read_ppm",
    "write_ppm",
    "read_image",
    "read_mask",
    "write_mask",
]


class NetpbmError(ValueError):
    pass


def _parse_header(data: bytes, path: str) -> tuple[bytes, int, int, int, int]:
    """Return (magic, width, height, maxval, raster_offset)."""
    if len(data) < 2:
        raise NetpbmError(f"{path}: truncated file")
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise NetpbmError(f"{path}: unsupported magic {magic!r}")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        # skip whitespace and comments
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit():
            raise NetpbmError(f"{path}: bad header token {token!r}")
        fields.append(int(token))
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise NetpbmError(f"{path}: missing whitespace after maxval")
    pos += 1
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise NetpbmError(f"{path}: bad dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise NetpbmError(f"{path}: only 8-bit rasters supported (maxval {maxval})")
    return magic, width, height, maxval, pos


def _raster(data: bytes, path: str, off: int, shape: tuple[int, ...], maxval: int) -> np.ndarray:
    """The 8-bit raster after the header, checked for length and maxval."""
    size = math.prod(shape)
    if len(data) - off < size:
        raise NetpbmError(f"{path}: truncated raster")
    raster = np.frombuffer(data, dtype=np.uint8, count=size, offset=off).reshape(shape).copy()
    if maxval < 255 and raster.max() > maxval:
        raise NetpbmError(f"{path}: sample {raster.max()} above maxval {maxval}")
    return raster


def _read(path: str, expected: bytes | None) -> np.ndarray:
    """The file, read once and parsed by its magic: (H, W) for P5, (H, W, 3)
    for P6; ``expected`` is the one magic accepted, or None for either."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, w, h, maxval, off = _parse_header(data, str(path))
    if expected is not None and magic != expected:
        raise NetpbmError(f"{path}: expected {expected.decode()}, got {magic!r}")
    return _raster(data, path, off, (h, w) if magic == b"P5" else (h, w, 3), maxval)


def read_pgm(path: str) -> np.ndarray:
    return _read(path, b"P5")


def _write(path: str, img: np.ndarray, magic: str) -> None:
    """Write an array of the right shape as a P5 or P6 file of maxval 255.
    A pixel that its uint8 cast would change (300, -1, 2.7, NaN) is refused;
    uint8 input needs no check."""
    if img.dtype != np.uint8:
        with np.errstate(invalid="ignore"):
            cast = img.astype(np.uint8)
        bad = np.argwhere(cast != img)
        if len(bad):
            at = tuple(bad[0].tolist())
            raise NetpbmError(f"{path}: pixel {img[at].item()!r} at {at} is not an integer in 0..255")
        img = cast
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii") + img.tobytes())


def write_pgm(path: str, img: np.ndarray) -> None:
    img = np.asarray(img)
    if img.ndim != 2:
        raise NetpbmError("PGM writer expects an (H, W) array")
    _write(path, img, "P5")


def read_ppm(path: str) -> np.ndarray:
    return _read(path, b"P6")


def write_ppm(path: str, img: np.ndarray) -> None:
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3:
        raise NetpbmError("PPM writer expects an (H, W, 3) array")
    _write(path, img, "P6")


def read_image(path: str) -> np.ndarray:
    """Read either format by magic; (H, W) for PGM, (H, W, 3) for PPM."""
    return _read(path, None)


def read_mask(path: str) -> np.ndarray:
    """Read a PGM ground-truth mask, mapping any nonzero value to 1."""
    return (read_pgm(path) > 0).astype(np.uint8)


def write_mask(path: str, mask: np.ndarray) -> None:
    """Write a {0,1} mask as a {0,255} PGM."""
    mask = np.asarray(mask)
    write_pgm(path, (mask > 0).astype(np.uint8) * 255)
