"""Two-stage local-binary-pattern descriptor for candidate validation.

- :func:`descriptors` builds the 203-value descriptor of every box of an
  image in one call: the coarse uniform-pattern histogram, then the fine
  histograms of nine blocks, both over :func:`lbp_label_image` labels.
- :func:`validation_feature` is the one-window call.
"""

from __future__ import annotations

import numpy as np

from .images import checked_boxes, resize_boxes

__all__ = [
    "lbp_label_image",
    "uniform_pattern_table",
    "UNIT_BLOCK_WEIGHTS",
    "descriptors",
    "validation_feature",
    "FINE_BLOCK_OFFSETS",
    "DESCRIPTOR_LENGTH",
]

# clockwise ring starting at the top-left neighbor; bit i = 2**i
_NEIGHBOR_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))

FINE_BLOCK_OFFSETS = (0, 4, 8)
DESCRIPTOR_LENGTH = 203
# the default fine-block weights: multiplying by 1.0 changes no bit
UNIT_BLOCK_WEIGHTS = (1.0,) * 9

# the 9 * 36 cells of the fine blocks as flat indices into a 14x14 label
# image, block by block, and the first of the 16 bins of each cell's block
_FINE_CELLS = np.array(
    [(by + r) * 14 + bx + c for by in FINE_BLOCK_OFFSETS for bx in FINE_BLOCK_OFFSETS for r in range(6) for c in range(6)]
)
_FINE_BASE = np.repeat(np.arange(9) * 16, 36)


def lbp_label_image(img: np.ndarray) -> np.ndarray:
    """(..., H-2, W-2) labels of an image, or of a stack along the leading
    axes; the 1-px border has no full neighbourhood. Fixed so tests can be
    exact: the 8 ring neighbours (radius 1) go clockwise from the top-left,
    and bit i, the i-th neighbour's, is set when it is >= the centre (a
    constant image labels as 255 everywhere)."""
    img = np.asarray(img)
    if img.ndim < 2 or img.shape[-2] < 3 or img.shape[-1] < 3:
        raise ValueError("label image needs a source of at least 3x3")
    h, w = img.shape[-2:]
    center = img[..., 1 : h - 1, 1 : w - 1]
    labels = np.zeros(center.shape, dtype=np.uint8)
    ge = np.empty(center.shape, dtype=bool)
    bit_values = ge.view(np.uint8)
    for bit, (dy, dx) in enumerate(_NEIGHBOR_OFFSETS):
        np.greater_equal(img[..., 1 + dy : h - 1 + dy, 1 + dx : w - 1 + dx], center, out=ge)
        np.left_shift(bit_values, bit, out=bit_values)
        labels |= bit_values
    return labels


def _uniform_bins() -> np.ndarray:
    """Label -> coarse bin: the uniform labels (at most two circular 0/1
    transitions) number 0..57 in ascending order, every other label is 58."""
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    uniform = (bits != np.roll(bits, -1, axis=1)).sum(axis=1) <= 2
    table = np.where(uniform, np.cumsum(uniform) - 1, 58).astype(np.uint8)
    table.flags.writeable = False
    return table


_uniform_table = _uniform_bins()


def uniform_pattern_table() -> np.ndarray:
    """Map label [0,255] -> coarse bin [0,58]; read-only, built at import."""
    return _uniform_table


def descriptors(img: np.ndarray, boxes, block_weights=UNIT_BLOCK_WEIGHTS) -> np.ndarray:
    """(n, 203) descriptors of the (x, y, w, h) boxes of a grayscale image,
    each half normalized on its own and built in one pass over all boxes:

    - ``[:, :59]``, coarse: a box's labels counted over the 58 uniform
      patterns ascending, then a catch-all bin, divided by their number.
      One labelling of the boxes' bounding box serves all: a box's labels
      are that label image at its interior, whose pixels' 3x3
      neighbourhoods lie in the box.
    - ``[:, 59:]``, fine: each box resampled to 16x16 in one gather and
      labelled (14x14); nine 6x6 blocks at FINE_BLOCK_OFFSETS (2-px
      overlap) of 16 bins of label // 16 each, counted by one ``bincount``,
      divided by all 9 * 36 labels and scaled by the nine per-block
      ``block_weights`` (default all ones).

    The checks run in this order: the image is (H, W); each box lies in it
    and is at least 3x3, and the first bad box is named; there are nine
    weights, even when there are no boxes. Batching changes no value:
    counts are exact and every division is the per-window one."""
    img = np.asarray(img)
    if img.ndim != 2:
        raise ValueError(f"expected an (H, W) grayscale image, got shape {img.shape}")
    boxes = checked_boxes(boxes, img.shape, 3, "box {box} outside {width}x{height} image", "box {box} smaller than 3x3")
    weights = np.asarray(block_weights, dtype=np.float64)
    if weights.shape != (9,):
        raise ValueError(f"expected 9 fine-block weights, got shape {weights.shape}")
    n = len(boxes)
    out = np.empty((n, DESCRIPTOR_LENGTH))
    if not n:
        return out
    coarse, fine = out[:, :59], out[:, 59:]
    x0, y0 = boxes[:, :2].min(axis=0)
    x1, y1 = (boxes[:, :2] + boxes[:, 2:]).max(axis=0)
    bins = uniform_pattern_table()[lbp_label_image(img[y0:y1, x0:x1])]
    for row, (x, y, w, h) in zip(coarse, (boxes - (x0, y0, 0, 0)).tolist()):
        row[:] = np.bincount(bins[y : y + h - 2, x : x + w - 2].ravel(), minlength=59)
    coarse /= ((boxes[:, 2] - 2) * (boxes[:, 3] - 2))[:, None]
    bands = lbp_label_image(resize_boxes(img, boxes, 16, 16)).reshape(n, 196) >> 4
    keys = bands[:, _FINE_CELLS] + (_FINE_BASE + 144 * np.arange(n)[:, None])
    fine[:] = np.bincount(keys.ravel(), minlength=144 * n).reshape(n, 144)
    fine /= 9 * 36  # every block holds 36 labels
    fine *= np.repeat(weights, 16)
    return out


def validation_feature(window: np.ndarray, block_weights=UNIT_BLOCK_WEIGHTS) -> np.ndarray:
    """The 203-value descriptor of a whole window: :func:`descriptors` of
    the one box that covers it."""
    window = np.asarray(window)
    box = [(0, 0, window.shape[1], window.shape[0])] if window.ndim == 2 else []
    return descriptors(window, box, block_weights)[0]
