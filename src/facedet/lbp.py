"""Two-stage local-binary-pattern descriptor for candidate validation.

The label operator compares each interior pixel against its 8 ring
neighbors (radius 1). Conventions, fixed so tests can be exact: neighbors
are taken clockwise starting at the top-left, bit i belongs to the i-th
neighbor, and a neighbor >= center sets its bit (so a constant image labels
as 255 everywhere).

The coarse stage is a 59-bin histogram over the whole window: the 58
uniform labels (at most two circular 0/1 transitions) in ascending order,
plus one catch-all bin. The fine stage resamples the window to 16x16,
labels it (14x14), splits it into nine 6x6 blocks with 2-px overlap at
offsets {0, 4, 8}, and keeps a 16-bin histogram of label // 16 per block:
9 * 16 = 144 values. Both parts are L1-normalized independently and
concatenated into the 203-value descriptor; the fine part is then scaled
by nine per-block emphasis weights (default all ones).

One implementation serves all (x, y, w, h) boxes of an image at once; a
single window is the one-box case. The coarse part labels the image once,
over the bounding box of all boxes: a box's labels are that label image
sliced at the box interior, since every interior pixel's 3x3 neighborhood
lies inside the box. The fine part resamples all boxes to 16x16 in one
gather, labels the stack at once and counts all blocks of all boxes with
one offset ``bincount``. The two parts are separate calls, one per stage of
the descriptor. Batching changes no value: counts are exact and every
division is the per-window one.
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
    """(..., H-2, W-2) labels of an image, or of a stack of images along
    the leading axes; the 1-px border has no full neighborhood."""
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
    """(n, 59) normalized coarse histograms of the (x, y, w, h) boxes,
    from one labelling of their bounding box."""
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
    """(n, 144) normalized, block-weighted fine histograms of the
    boxes: one 16x16 resample of all of them, one labelling of the stack
    and one ``bincount`` over all their blocks."""
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
    """(n, 203) descriptors of the (x, y, w, h) boxes of a grayscale image."""
    return np.concatenate([coarse_parts(img, boxes), fine_parts(img, boxes, block_weights)], axis=1)


def validation_feature(window: np.ndarray, block_weights=UNIT_BLOCK_WEIGHTS) -> np.ndarray:
    """The 203-value descriptor of a whole window: normalized coarse part
    then fine part."""
    window = np.asarray(window)
    box = [(0, 0, window.shape[1], window.shape[0])] if window.ndim == 2 else []
    return descriptors(window, box, block_weights)[0]
