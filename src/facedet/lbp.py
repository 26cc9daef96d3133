"""Two-stage local-binary-pattern descriptor for candidate validation.

:func:`descriptors` builds the 203-value descriptor of every box of an
image at once from :func:`coarse_parts` and :func:`fine_parts`, over the
labels of :func:`lbp_label_image`; :func:`validation_feature` is the
one-window case.
"""

from __future__ import annotations

import numpy as np

from .images import checked_boxes, resize_boxes

__all__ = [
    "lbp_label_image",
    "uniform_pattern_table",
    "UNIT_BLOCK_WEIGHTS",
    "coarse_parts",
    "fine_parts",
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


def _gray_and_boxes(img: np.ndarray, boxes) -> tuple[np.ndarray, np.ndarray]:
    """The image as (H, W) and the boxes as (n, 4) int64 (x, y, w, h) rows,
    each inside the image and at least 3x3; the first bad box is named."""
    img = np.asarray(img)
    if img.ndim != 2:
        raise ValueError(f"expected an (H, W) grayscale image, got shape {img.shape}")
    outside = "box {box} outside {width}x{height} image"
    return img, checked_boxes(boxes, img.shape, 3, outside, "box {box} smaller than 3x3")


def coarse_parts(img: np.ndarray, boxes) -> np.ndarray:
    """(n, 59) L1-normalized coarse histograms of the (x, y, w, h) boxes:
    the 58 uniform labels ascending, then a catch-all bin. One labelling of
    their bounding box serves all: a box's labels are that label image
    sliced at its interior, whose pixels' 3x3 neighbourhoods lie in the box."""
    img, boxes = _gray_and_boxes(img, boxes)
    out = np.empty((len(boxes), 59))
    if not len(boxes):
        return out
    x0, y0 = boxes[:, :2].min(axis=0)
    x1, y1 = (boxes[:, :2] + boxes[:, 2:]).max(axis=0)
    bins = uniform_pattern_table()[lbp_label_image(img[y0:y1, x0:x1])]
    for row, (x, y, w, h) in zip(out, (boxes - (x0, y0, 0, 0)).tolist()):
        row[:] = np.bincount(bins[y : y + h - 2, x : x + w - 2].ravel(), minlength=59)
    out /= ((boxes[:, 2] - 2) * (boxes[:, 3] - 2))[:, None]
    return out


def fine_parts(img: np.ndarray, boxes, block_weights=UNIT_BLOCK_WEIGHTS) -> np.ndarray:
    """(n, 144) fine histograms of the boxes, L1-normalized and then scaled
    by nine per-block emphasis weights (default all ones): each box resampled
    to 16x16 and labelled (14x14), nine 6x6 blocks at FINE_BLOCK_OFFSETS
    (2-px overlap), 16 bins of label // 16 each. One resample gathers all
    boxes, one labelling covers the stack and one ``bincount`` every block."""
    weights = np.asarray(block_weights, dtype=np.float64)
    if weights.shape != (9,):
        raise ValueError(f"expected 9 fine-block weights, got shape {weights.shape}")
    img, boxes = _gray_and_boxes(img, boxes)
    n = len(boxes)
    bands = lbp_label_image(resize_boxes(img, boxes, 16, 16)).reshape(n, 196) >> 4
    keys = bands[:, _FINE_CELLS] + (_FINE_BASE + 144 * np.arange(n)[:, None])
    fine = np.bincount(keys.ravel(), minlength=144 * n).reshape(n, 144).astype(np.float64)
    fine /= 9 * 36  # every block holds 36 labels
    fine *= np.repeat(weights, 16)
    return fine


def descriptors(img: np.ndarray, boxes, block_weights=UNIT_BLOCK_WEIGHTS) -> np.ndarray:
    """(n, 203) descriptors of the (x, y, w, h) boxes of a grayscale image,
    the coarse then the fine part, each normalized on its own and each one
    call over all boxes. Batching changes no value: counts are exact and
    every division is the per-window one."""
    return np.concatenate([coarse_parts(img, boxes), fine_parts(img, boxes, block_weights)], axis=1)


def validation_feature(window: np.ndarray, block_weights=UNIT_BLOCK_WEIGHTS) -> np.ndarray:
    """The 203-value descriptor of a whole window: :func:`descriptors` of
    the one box that covers it."""
    window = np.asarray(window)
    box = [(0, 0, window.shape[1], window.shape[0])] if window.ndim == 2 else []
    return descriptors(window, box, block_weights)[0]
