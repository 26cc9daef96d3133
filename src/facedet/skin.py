"""Skin-color search-space reduction.

- :func:`facedet.pipeline.segment_image` tests each pixel's Cb and Cr
  against the config's intervals, then :func:`refine_mask` cuts the skin
  blobs at :func:`sobel_edges` and opens and closes them with 3x3 kernels.
- :func:`skin_ratio` and :func:`region_count` are ``facedet segment``'s
  summary. Only the region count uses scipy, and it imports
  ``scipy.ndimage`` when called: segmentation and the gated scan never
  load scipy.
"""

from __future__ import annotations

import numpy as np

from .images import row_bands

__all__ = ["sobel_edges", "refine_mask", "skin_ratio", "region_count"]


def sobel_edges(gray: np.ndarray, threshold: float = 100.0) -> np.ndarray:
    """Mask of pixels with sqrt(Gx^2 + Gy^2) > threshold; border ring is 0.

    Sobel is separable: each band of :func:`facedet.images.row_bands` runs
    a row pass, then a column pass, over shifted slices with exact integer
    sums, reading one halo row above and one below, so its integer planes
    stay a few tens of KB at any image height."""
    gray = np.asarray(gray)
    if gray.ndim != 2 or gray.shape[0] < 3 or gray.shape[1] < 3:
        raise ValueError("Sobel needs an image of at least 3x3")
    # 8-bit pixels give gx^2 + gy^2 <= 2 * 1020^2 < 2^31
    dtype = np.int32 if gray.dtype.itemsize == 1 else np.int64
    h, w = gray.shape
    out = np.zeros(gray.shape, dtype=np.uint8)
    # output rows lo + 1 .. hi, from input rows lo .. hi + 1 (a halo row each side)
    for lo, hi in row_bands(h - 2, w):
        src = gray[lo : hi + 2].astype(dtype)
        # Sobel = [1, 2, 1] smoothing along one axis times [-1, 0, 1]
        # difference along the other
        smooth_y = src[:-2] + 2 * src[1:-1] + src[2:]
        gx = smooth_y[:, 2:] - smooth_y[:, :-2]
        smooth_x = src[:, :-2] + 2 * src[:, 1:-1] + src[:, 2:]
        gy = smooth_x[2:] - smooth_x[:-2]
        out[lo + 1 : hi + 1, 1:-1] = gx * gx + gy * gy > threshold * threshold
    return out


def _window3(padded: np.ndarray, reduce) -> np.ndarray:
    """3x3 max or min over an array padded by one pixel: the square element
    is separable, so rows, then columns, over shifted slices."""
    rows = reduce(reduce(padded[:-2], padded[1:-1]), padded[2:])
    return reduce(reduce(rows[:, :-2], rows[:, 1:-1]), rows[:, 2:])


def _dilate3(mask: np.ndarray) -> np.ndarray:
    return _window3(np.pad(mask, 1, mode="constant", constant_values=0), np.maximum)


def _erode3(mask: np.ndarray) -> np.ndarray:
    # pad with 1 so erosion is the adjoint of dilation on the full plane;
    # this keeps opening anti-extensive and closing extensive at the borders
    return _window3(np.pad(mask, 1, mode="constant", constant_values=1), np.minimum)


def refine_mask(skin: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Cut skin blobs at strong edges, then open and close."""
    skin = np.asarray(skin)
    edges = np.asarray(edges)
    if skin.shape != edges.shape:
        raise ValueError(f"mask shapes differ: {skin.shape} vs {edges.shape}")
    cut = (skin.astype(bool) & ~edges.astype(bool)).astype(np.uint8)
    # open (erode, dilate), then close (dilate, erode)
    return _erode3(_dilate3(_dilate3(_erode3(cut))))


def skin_ratio(mask: np.ndarray) -> float:
    """Percentage of mask pixels that are 1."""
    mask = np.asarray(mask)
    if mask.size == 0:
        raise ValueError("empty mask")
    return 100.0 * float(np.count_nonzero(mask)) / mask.size


def region_count(mask: np.ndarray, min_area: int) -> int:
    """Number of 8-connected components of mask pixels with >= min_area pixels."""
    if min_area < 1:
        raise ValueError("min_area must be >= 1")
    from scipy import ndimage  # only the region count pays for the import; detection counts none

    labels, _ = ndimage.label(np.asarray(mask) > 0, structure=np.ones((3, 3), dtype=np.uint8))
    return int((np.bincount(labels.ravel())[1:] >= min_area).sum())
