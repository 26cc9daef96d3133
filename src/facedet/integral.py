"""Integral images for O(1) axis-aligned and 45-degree-rotated rectangle sums.

:class:`IntegralSet` holds the tables of an image or of a stack, and only
it knows their layout; :func:`integral_set` builds or refills one, and
:func:`window_sums` and :func:`window_sigma` read every lattice window of
a table at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["IntegralSet", "integral_set", "upright_table", "window_sigma", "window_sums"]


@dataclass(frozen=True)
class IntegralSet:
    """The tables of an (H, W) image or of an (..., H, W) stack, and the
    only code that knows their layout (the scan only inverts a row-major
    upright cell). ``grid[y, x]`` is the sum of the pixels in [0, x) x [0, y),
    with a zero top row and left column; ``sq`` sums the squares, for
    per-window variance; :func:`_tilted_scatter` lays out the planes."""

    grid: np.ndarray  # (..., H + 1, W + 1) upright table
    sq: np.ndarray  # (..., H + 1, W + 1) upright table of the squared pixels
    planes: np.ndarray | None  # (..., 2, U, V) tilted planes, if built
    voff: int  # even shift making y - x + voff non-negative; 0 without planes

    def origins(self, xs: np.ndarray, ys: np.ndarray) -> list[np.ndarray]:
        """The flat cell of each window origin (xs, ys) in one image's upright
        table; with planes, also its cell in the tilted planes and its parity
        q, whose tilted table (``Corners.table`` 1 + q) serves the origin."""
        out = [ys * self.grid.shape[-1] + xs]
        if self.planes is not None:
            # both parities' origins lie in plane 0's numbering; a corner's
            # offset adds its plane and its shift within the parity lattice
            out += [((xs + ys) >> 1) * self.planes.shape[-1] + ((ys - xs + self.voff) >> 1), (xs + ys) & 1]
        return out


def _prefix_sums(table: np.ndarray) -> None:
    """Summed-area sums of the last two axes of an int64 array, in place."""
    np.cumsum(table, axis=-2, out=table)
    np.cumsum(table, axis=-1, out=table)


def _fill(table: np.ndarray, img: np.ndarray, square: bool = False) -> np.ndarray:
    """Write the summed-area table of ``img`` (of its squares if ``square``)
    into the int64 ``table`` of one more row and column: the pixels are cast
    into its interior as ``astype(np.int64)`` casts them, and squared there,
    so no int64 copy of the image is made. Every table accumulates in int64:
    squared 8-bit sums overflow 32 bits already on megapixel images."""
    table[..., 0, :] = 0
    table[..., :, 0] = 0
    inner = table[..., 1:, 1:]
    inner[...] = img
    if square:
        np.multiply(table, table, out=table)  # the zero row and column stay zero
    _prefix_sums(inner)
    return table


def upright_table(img: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """int64 summed-area table of an (H, W) image, or of a stack (..., H, W);
    written into ``out`` of shape (..., H + 1, W + 1) when given."""
    if out is None:
        out = np.empty(img.shape[:-2] + (img.shape[-2] + 1, img.shape[-1] + 1), dtype=np.int64)
    return _fill(out, img)


@functools.lru_cache(maxsize=16)
def _tilted_scatter(h: int, w: int) -> tuple[np.ndarray, tuple[int, int, int], int]:
    """Where the pixels of an (h, w) image go in the tilted planes: the flat
    index of each pixel (row-major) in the (2, U, V) buffer, that shape and
    voff. Cached per shape; the index is read-only because every caller of
    the shape shares it.

    A tilted (45-degree) rectangle (x, y, w, h) is its apex and two arm
    lengths: the pixels {(x + i - j, y + i + j) : 0 <= i < w, 0 <= j < h},
    w diagonal steps down-right and h down-left. In the rotated coordinates
    (u, v) = (x + y, y - x + voff) it is an axis-aligned box on one colour
    of the checkerboard lattice, so each pixel parity p has one summed-area
    table, the leading block of plane p, and a tilted sum is four lookups.
    """
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
    return index, shape, voff


def integral_set(img: np.ndarray, with_tilted: bool = True, out: IntegralSet | None = None) -> IntegralSet:
    """The upright tables, with squares, and optionally the tilted planes of
    an (H, W) image or an (..., H, W) stack of equal-sized images, on one
    code path, built from the image's own pixels without an int64 copy of
    them.

    With ``out``, an earlier result for an image of the same shape and
    ``with_tilted``, the tables are refilled in place and ``out`` is
    returned, as the scan refills the tables its per-shape plan keeps;
    otherwise the arrays are new.
    """
    img = np.asarray(img)
    if img.ndim < 2 or img.size == 0:
        raise ValueError("expected a non-empty (H, W) image or (..., H, W) stack")
    lead, (h, w) = img.shape[:-2], img.shape[-2:]
    index, shape, voff = _tilted_scatter(h, w) if with_tilted else (None, None, 0)
    if out is None:
        grid = lead + (h + 1, w + 1)
        planes = np.empty(lead + shape, dtype=np.int64) if with_tilted else None
        out = IntegralSet(np.empty(grid, dtype=np.int64), np.empty(grid, dtype=np.int64), planes, voff)
    elif out.grid.shape != lead + (h + 1, w + 1) or (out.planes is not None) != with_tilted:
        raise ValueError("the tables to refill were built for another image shape or without the same planes")
    _fill(out.grid, img)
    _fill(out.sq, img, square=True)
    if with_tilted:
        # one scatter for the whole stack, into zeroed planes
        out.planes.fill(0)
        out.planes.reshape(lead + (-1,))[..., index] = img.reshape(lead + (-1,))
        _prefix_sums(out.planes)
    return out


def window_sums(grid: np.ndarray, size: int, step: int) -> np.ndarray:
    """(..., rows, cols) sums of the size x size windows at origins
    step * (j, i), from four strided slices of a summed-area table."""
    h, w = grid.shape[-2] - 1, grid.shape[-1] - 1
    top, bottom = grid[..., : h - size + 1 : step, :], grid[..., size::step, :]
    left = slice(None, w - size + 1, step)
    return bottom[..., size::step] - top[..., size::step] - bottom[..., left] + top[..., left]


def window_sigma(iset: IntegralSet, size: int, step: int) -> np.ndarray:
    """Pixel standard deviation of every lattice window, floored at 1."""
    n = size * size
    total = window_sums(iset.grid, size, step)
    total_sq = window_sums(iset.sq, size, step)
    var = total_sq / n - (total / n) ** 2
    return np.maximum(np.sqrt(np.maximum(var, 0.0)), 1.0)
