"""Integral images for O(1) axis-aligned and 45-degree-rotated rectangle sums.

The upright variant is the classic summed-area table with a zero top row and
left column: ``grid[y, x]`` holds the sum of all pixels in [0, x) x [0, y).
An optional companion table of squared values supports per-window variance.

The tilted variant serves rectangles rotated by 45 degrees. A tilted
rectangle is parameterised by its top corner (apex) and two arm lengths:
``(x, y, w, h)`` covers the pixel set {(x + i - j, y + i + j) : 0 <= i < w,
0 <= j < h}, i.e. w diagonal steps down-right and h steps down-left.
Rotating coordinates to (u, v) = (x + y, y - x) turns that set into an
axis-aligned box on one colour of the checkerboard lattice, so the
implementation keeps one summed-area table per pixel parity; a tilted sum is
then again four table lookups. Accumulators are int64 throughout: squared
8-bit sums overflow 32 bits already on megapixel images.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["IntegralImage", "IntegralSet", "integral_image", "integral_set"]

UPRIGHT = "upright"
TILTED = "tilted"


@dataclass(frozen=True)
class IntegralImage:
    """Prefix-sum tables over one image, either upright or tilted."""

    variant: str
    width: int
    height: int
    grid: np.ndarray  # upright SAT, or the even-parity diagonal SAT
    grid_odd: np.ndarray | None = None  # tilted only: odd-parity diagonal SAT
    sq: np.ndarray | None = None  # upright only: squared-value SAT, if requested
    voff: int = 0  # tilted only: even shift making y - x non-negative
    # tilted only: the (2, U, V) buffer whose planes hold the even table and
    # (as a leading block) the odd one, so one flat index reaches both
    planes: np.ndarray | None = None


@dataclass(frozen=True)
class IntegralSet:
    """Upright (with squares) plus tilted tables for one image."""

    upright: IntegralImage
    tilted: IntegralImage | None


def _upright_grid(img: np.ndarray, squared: bool) -> np.ndarray:
    """Upright table of an (H, W) image, or of a stack of them (..., H, W)."""
    h, w = img.shape[-2:]
    vals = img.astype(np.int64)
    if squared:
        vals = vals * vals
    grid = np.zeros(img.shape[:-2] + (h + 1, w + 1), dtype=np.int64)
    np.cumsum(vals, axis=-2, out=grid[..., 1:, 1:])
    np.cumsum(grid[..., 1:, 1:], axis=-1, out=grid[..., 1:, 1:])
    return grid


@functools.lru_cache(maxsize=16)
def _tilted_scatter(h: int, w: int) -> tuple[np.ndarray, tuple[int, int, int], tuple[int, int], int]:
    """Where the pixels of an (h, w) image go in the tilted planes: the flat
    index of each pixel (row-major) in the (2, U, V) buffer, that shape, the
    odd table's (rows, cols) and voff. Cached per shape; the index is
    read-only because every caller of the shape shares it."""
    voff = (w - 1) + ((w - 1) & 1)
    umax = (w - 1) + (h - 1)
    vmax = (h - 1) + voff
    ys = np.arange(h)[:, None]
    xs = np.arange(w)
    u = xs + ys
    v = ys - xs + voff  # voff is even, so v has the parity of u
    # parity p's table is the leading ((umax - p) // 2 + 2) x
    # ((vmax - p) // 2 + 2) block of plane p, and a prefix sum inside that
    # block reads nothing outside it; (u >> 1, v >> 1) is the pixel's cell
    # in its parity's table, not counting the zero first row and column
    shape = (2, umax // 2 + 2, vmax // 2 + 2)
    index = (((u & 1) * shape[1] + (u >> 1) + 1) * shape[2] + (v >> 1) + 1).ravel()
    index.flags.writeable = False
    return index, shape, ((umax + 1) // 2 + 1, (vmax + 1) // 2 + 1), voff


def _tilted_grids(img: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(even, odd, voff) tilted tables of an (H, W) image, or of a stack of
    them (..., H, W) with one scatter for the whole stack; both tables
    returned are views of one (..., 2, U, V) buffer (their ``base``)."""
    index, shape, (odd_rows, odd_cols), voff = _tilted_scatter(*img.shape[-2:])
    lead = img.shape[:-2]
    g = np.zeros(lead + shape, dtype=np.int64)
    g.reshape(lead + (-1,))[..., index] = img.reshape(lead + (-1,))
    np.cumsum(g, axis=-2, out=g)
    np.cumsum(g, axis=-1, out=g)
    return g[..., 0, :, :], g[..., 1, :odd_rows, :odd_cols], voff


def integral_image(img: np.ndarray, variant: str = UPRIGHT, with_squares: bool = False) -> IntegralImage:
    img = np.asarray(img)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("expected a non-empty (H, W) image")
    h, w = img.shape
    if variant == UPRIGHT:
        sq = _upright_grid(img, squared=True) if with_squares else None
        return IntegralImage(UPRIGHT, w, h, _upright_grid(img, squared=False), sq=sq)
    if variant == TILTED:
        even, odd, voff = _tilted_grids(img)
        return IntegralImage(TILTED, w, h, even, grid_odd=odd, voff=voff, planes=even.base)
    raise ValueError(f"unknown integral variant {variant!r}")


def integral_set(img: np.ndarray, with_tilted: bool = True) -> IntegralSet:
    upright = integral_image(img, UPRIGHT, with_squares=True)
    tilted = integral_image(img, TILTED) if with_tilted else None
    return IntegralSet(upright, tilted)
