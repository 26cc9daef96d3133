"""Raster image primitives: color conversion, preprocessing filters, resizing.

Arrays are indexed [row, col]: grayscale images are (H, W) uint8, RGB
images (H, W, 3) uint8, binary masks (H, W) uint8 in {0, 1}. No function
modifies its input. :func:`to_grayscale` and the skin segmentation
(:func:`facedet.pipeline.segment_image`) convert colours in the bands of
:func:`row_bands`; :func:`resize_boxes` resamples many boxes in one
gather. Only :func:`median_filter` uses scipy, and it imports
``scipy.ndimage`` when called, so detection at the default radius 0 never
loads scipy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "to_grayscale",
    "downscale",
    "median_filter",
    "histogram_equalization",
    "resize_bilinear",
    "resize_boxes",
    "checked_boxes",
    "crop_square",
    "draw_boxes",
]

# pixels per row band of the colour conversions and of skin.sobel_edges
BAND_PIXELS = 16 * 320


def _round_u8(x: np.ndarray) -> np.ndarray:
    # half-up rounding, then clamp into the 8-bit range
    return np.clip(np.floor(np.asarray(x, dtype=np.float64) + 0.5), 0.0, 255.0).astype(np.uint8)


def _require_color(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("expected an (H, W, 3) color image")
    return img


def _require_gray(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("expected a non-empty (H, W) grayscale image")
    return img


def row_bands(height: int, width: int):
    """(first, stop) rows of the bands that cover ``height`` rows of
    ``width`` pixels, ``BAND_PIXELS // width`` rows each (at least one).

    At 16 rows of a 320-pixel image a band's float64 planes are 40 KB,
    small enough that the allocator serves them from memory it already
    holds; only the 8-bit output is image-sized. The colour conversions are
    elementwise, so a band's values are those of the whole image."""
    rows = max(1, BAND_PIXELS // max(width, 1))
    return ((lo, min(lo + rows, height)) for lo in range(0, height, rows))


def _luma(img: np.ndarray):
    """R, G, B as float64 and the unrounded BT.601 luma 0.299 R + 0.587 G + 0.114 B."""
    r, g, b = (img[..., c].astype(np.float64) for c in range(3))
    return r, g, b, 0.299 * r + 0.587 * g + 0.114 * b


def to_grayscale(img: np.ndarray) -> np.ndarray:
    """Full-range BT.601 luma, rounded: the gray plane that
    ``pipeline.segment_image`` returns, from the same expression."""
    img = _require_color(img)
    out = np.empty(img.shape[:2], dtype=np.uint8)
    for lo, hi in row_bands(*out.shape):
        out[lo:hi] = _round_u8(_luma(img[lo:hi])[3])
    return out


def downscale(img: np.ndarray, factor: int) -> np.ndarray:
    """Keep every factor-th row and column, starting at index 0."""
    img = np.asarray(img)
    if factor < 1:
        raise ValueError(f"downscale factor must be >= 1, got {factor}")
    if img.size == 0:
        raise ValueError("cannot downscale an empty image")
    return img[::factor, ::factor].copy()


def median_filter(img: np.ndarray, radius: int) -> np.ndarray:
    """Median over a (2*radius+1)^2 window; borders use edge replication.

    The window size is odd, so the median is a sample value; the filter
    keeps one window of memory, not one copy per pixel.
    """
    img = _require_gray(img)
    if radius < 1:
        raise ValueError(f"median radius must be >= 1, got {radius}")
    from scipy import ndimage  # only a median filter pays for the import; detection's default has none

    return ndimage.median_filter(img, size=2 * radius + 1, mode="nearest")


def histogram_equalization(img: np.ndarray) -> np.ndarray:
    """CDF remap out(v) = round((cdf(v) - cdf_min) / (N - cdf_min) * 255).

    A constant image maps to all zeros (zero numerator by construction).
    """
    img = _require_gray(img)
    hist = np.bincount(img.ravel(), minlength=256)
    cdf = np.cumsum(hist)
    cdf_min = int(cdf[np.flatnonzero(hist)[0]])
    denom = img.size - cdf_min
    if denom == 0:
        return np.zeros_like(img)
    lut = _round_u8((cdf - cdf_min) / denom * 255.0)
    return lut[img]


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample with corner alignment (endpoints map to endpoints)."""
    img = _require_gray(img)
    return resize_boxes(img, [(0, 0, img.shape[1], img.shape[0])], out_h, out_w)[0]


def crop_square(img: np.ndarray, box: tuple[int, int, int, int], size: int) -> np.ndarray:
    """Clamp an (x, y, w, h) box inside the image, crop, and resize to
    size x size unless the crop already is."""
    h, w = img.shape
    x, y, bw, bh = box
    x = max(0, min(x, w - 2))
    y = max(0, min(y, h - 2))
    bw = max(2, min(bw, w - x))
    bh = max(2, min(bh, h - y))
    crop = img[y : y + bh, x : x + bw]
    return crop if crop.shape == (size, size) else resize_bilinear(crop, size, size)


@lru_cache(maxsize=4096)
def _samples(side: int, out: int) -> tuple[np.ndarray, np.ndarray]:
    """Per output position along one axis: the first source index
    (clamped to side - 2) and the fraction toward the next one; read-only,
    since every caller shares them."""
    pos = np.linspace(0.0, side - 1.0, out)
    first = np.minimum(pos.astype(np.int64), side - 2)
    frac = pos - first
    first.flags.writeable = frac.flags.writeable = False
    return first, frac


def checked_boxes(boxes, shape: tuple[int, int], min_side: int, outside: str, small: str) -> np.ndarray:
    """(x, y, w, h) boxes as an (n, 4) int64 array, each inside an image of
    ``shape`` (H, W) with both sides at least ``min_side``. The first bad
    box raises ``outside`` or ``small``, formatted with the ``box`` as a
    tuple and the image ``width`` and ``height``."""
    rows = np.asarray(boxes, dtype=np.int64)
    if rows.size and (rows.ndim != 2 or rows.shape[1] != 4):
        raise ValueError(f"expected (x, y, w, h) box rows, got shape {rows.shape}")
    rows = rows.reshape(-1, 4)
    height, width = shape
    x, y, w, h = rows.T
    out = (x < 0) | (y < 0) | (x + w > width) | (y + h > height)
    bad = np.flatnonzero(out | (w < min_side) | (h < min_side))
    if bad.size:
        message = outside if out[bad[0]] else small
        raise ValueError(message.format(box=tuple(rows[bad[0]].tolist()), width=width, height=height))
    return rows


def resize_boxes(img: np.ndarray, boxes, out_h: int, out_w: int) -> np.ndarray:
    """(n, out_h, out_w) bilinear resamples of the (x, y, w, h) boxes of a
    grayscale image in one gather; box i equals
    ``resize_bilinear(img[y : y + h, x : x + w], out_h, out_w)``.

    The sample positions along an axis depend only on the box side and are
    cached per (side, out); the four neighbors are read with flat indices,
    and the interpolation runs in float64 in the same operation order for
    every box, so batching does not change a single value.
    """
    img = _require_gray(img)
    outside = "resize box {box} outside the {width}x{height} image"
    boxes = checked_boxes(boxes, img.shape, 2, outside, "bilinear resize needs at least a 2x2 source")
    width = img.shape[1]
    xs, ys, ws, hs = boxes.T
    if out_h < 1 or out_w < 1:
        raise ValueError("output dimensions must be positive")
    if not len(boxes):
        return np.zeros((0, out_h, out_w), dtype=np.uint8)
    row, fy = (np.stack(a)[:, :, None] for a in zip(*(_samples(h, out_h) for h in hs.tolist())))
    col, fx = (np.stack(a)[:, None, :] for a in zip(*(_samples(w, out_w) for w in ws.tolist())))
    corner = (row + ys[:, None, None]) * width + (col + xs[:, None, None])
    flat = img.ravel()
    tl, tr, bl, br = (flat[corner + shift].astype(np.float64) for shift in (0, 1, width, width + 1))
    top = tl + (tr - tl) * fx
    bot = bl + (br - bl) * fx
    return _round_u8(top + (bot - top) * fy)


def draw_boxes(
    img: np.ndarray,
    boxes: list[tuple[int, int, int, int]],
    color: tuple[int, int, int] = (255, 0, 0),
) -> np.ndarray:
    """Return a copy of an RGB image with 1-px rectangles drawn on it."""
    out = _require_color(img).copy()
    h, w = out.shape[:2]
    col = np.array(color, dtype=np.uint8)
    for (bx, by, bw, bh) in boxes:
        x0, y0 = max(bx, 0), max(by, 0)
        x1, y1 = min(bx + bw - 1, w - 1), min(by + bh - 1, h - 1)
        if x1 < x0 or y1 < y0:
            continue
        out[y0, x0 : x1 + 1] = col
        out[y1, x0 : x1 + 1] = col
        out[y0 : y1 + 1, x0] = col
        out[y0 : y1 + 1, x1] = col
    return out
