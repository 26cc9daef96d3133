"""Skin-color search-space reduction.

Classifies skin pixels by Cb/Cr interval tests, sharpens blob boundaries
with Sobel edges, cleans the mask with 3x3 morphology, and extracts
candidate regions. Sobel and the 3x3 square structuring element are both
separable, so each runs as a row pass then a column pass over shifted slices
(exact int64 sums for Sobel, elementwise max/min for dilation/erosion). Also
provides the pixel-wise segmentation scorer and the fixed published RGB/HSV
rules used as comparison baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = [
    "SkinThresholds",
    "SegmentationMetrics",
    "Region",
    "classify_skin",
    "sobel_edges",
    "morphology",
    "refine_mask",
    "skin_ratio",
    "extract_regions",
    "evaluate_segmentation",
    "segmentation_report",
    "classify_skin_rgb",
    "classify_skin_hsv",
]

@dataclass(frozen=True)
class SkinThresholds:
    """Inclusive Cb/Cr channel bounds for the skin test."""

    cb_min: int = 77
    cb_max: int = 127
    cr_min: int = 133
    cr_max: int = 173

    def __post_init__(self) -> None:
        if self.cb_min > self.cb_max or self.cr_min > self.cr_max:
            raise ValueError("skin threshold intervals must be non-empty")


@dataclass(frozen=True)
class SegmentationMetrics:
    tp: int
    tn: int
    fp: int
    fn: int
    recall: float
    precision: float
    specificity: float
    accuracy: float


@dataclass(frozen=True)
class Region:
    """Bounding box of a connected mask component."""

    x: int
    y: int
    w: int
    h: int
    area: int  # count of mask-1 pixels inside the box
    skin_fraction: float  # area / (w * h)


def classify_skin(ycbcr: np.ndarray, thresholds: SkinThresholds = SkinThresholds()) -> np.ndarray:
    """Mask of pixels whose Cb and Cr both fall inside the skin intervals."""
    ycbcr = np.asarray(ycbcr)
    if ycbcr.ndim != 3 or ycbcr.shape[2] != 3:
        raise ValueError("expected an (H, W, 3) YCbCr image")
    cb = ycbcr[..., 1]
    cr = ycbcr[..., 2]
    mask = (
        (cb >= thresholds.cb_min)
        & (cb <= thresholds.cb_max)
        & (cr >= thresholds.cr_min)
        & (cr <= thresholds.cr_max)
    )
    return mask.astype(np.uint8)


def sobel_edges(gray: np.ndarray, threshold: float = 100.0) -> np.ndarray:
    """Mask of pixels with sqrt(Gx^2 + Gy^2) > threshold; border ring is 0."""
    gray = np.asarray(gray)
    if gray.ndim != 2 or gray.shape[0] < 3 or gray.shape[1] < 3:
        raise ValueError("Sobel needs an image of at least 3x3")
    src = gray.astype(np.int64)
    # Sobel = [1, 2, 1] smoothing along one axis times [-1, 0, 1] difference
    # along the other
    smooth_y = src[:-2] + 2 * src[1:-1] + src[2:]
    gx = smooth_y[:, 2:] - smooth_y[:, :-2]
    smooth_x = src[:, :-2] + 2 * src[:, 1:-1] + src[:, 2:]
    gy = smooth_x[2:] - smooth_x[:-2]
    mag2 = gx * gx + gy * gy
    out = np.zeros(gray.shape, dtype=np.uint8)
    out[1:-1, 1:-1] = (mag2 > threshold * threshold).astype(np.uint8)
    return out


def _window3(padded: np.ndarray, reduce) -> np.ndarray:
    """3x3 max or min over an array padded by one pixel: rows, then columns."""
    rows = reduce(reduce(padded[:-2], padded[1:-1]), padded[2:])
    return reduce(reduce(rows[:, :-2], rows[:, 1:-1]), rows[:, 2:])


def _dilate3(mask: np.ndarray) -> np.ndarray:
    return _window3(np.pad(mask, 1, mode="constant", constant_values=0), np.maximum)


def _erode3(mask: np.ndarray) -> np.ndarray:
    # pad with 1 so erosion is the adjoint of dilation on the full plane;
    # this keeps opening anti-extensive and closing extensive at the borders
    return _window3(np.pad(mask, 1, mode="constant", constant_values=1), np.minimum)


def morphology(mask: np.ndarray, op: str) -> np.ndarray:
    """Binary opening or closing with a 3x3 square structuring element."""
    mask = np.asarray(mask).astype(np.uint8)
    if op == "open":
        return _dilate3(_erode3(mask))
    if op == "close":
        return _erode3(_dilate3(mask))
    raise ValueError(f"unknown morphology op {op!r}")


def refine_mask(skin: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Cut skin blobs at strong edges, then open and close."""
    skin = np.asarray(skin)
    edges = np.asarray(edges)
    if skin.shape != edges.shape:
        raise ValueError(f"mask shapes differ: {skin.shape} vs {edges.shape}")
    cut = (skin.astype(bool) & ~edges.astype(bool)).astype(np.uint8)
    return morphology(morphology(cut, "open"), "close")


def skin_ratio(mask: np.ndarray) -> float:
    """Percentage of mask pixels that are 1."""
    mask = np.asarray(mask)
    if mask.size == 0:
        raise ValueError("empty mask")
    return 100.0 * float(np.count_nonzero(mask)) / mask.size


def extract_regions(mask: np.ndarray, min_area: int = 1) -> list[Region]:
    """Bounding boxes of 8-connected components with >= min_area pixels.

    Sorted by descending box pixel count, ties by (y, x).
    """
    if min_area < 1:
        raise ValueError("min_area must be >= 1")
    mask = (np.asarray(mask) > 0).astype(np.uint8)
    labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=np.uint8))
    regions: list[Region] = []
    if count:
        sizes = np.bincount(labels.ravel())
        for idx, sl in enumerate(ndimage.find_objects(labels), start=1):
            if sizes[idx] < min_area or sl is None:
                continue
            ysl, xsl = sl
            x, y = int(xsl.start), int(ysl.start)
            w, h = int(xsl.stop - xsl.start), int(ysl.stop - ysl.start)
            area = int(np.count_nonzero(mask[ysl, xsl]))
            regions.append(Region(x, y, w, h, area, area / (w * h)))
    regions.sort(key=lambda r: (-r.area, r.y, r.x))
    return regions


def _safe_pct(num: int, den: int) -> float:
    return 100.0 * num / den if den else 0.0


def evaluate_segmentation(pred: np.ndarray, truth: np.ndarray) -> SegmentationMetrics:
    """Pixel-wise confusion counts plus the four derived percentages."""
    pred = np.asarray(pred).astype(bool)
    truth = np.asarray(truth).astype(bool)
    if pred.shape != truth.shape:
        raise ValueError(f"mask shapes differ: {pred.shape} vs {truth.shape}")
    tp = int(np.count_nonzero(pred & truth))
    tn = int(np.count_nonzero(~pred & ~truth))
    fp = int(np.count_nonzero(pred & ~truth))
    fn = int(np.count_nonzero(~pred & truth))
    return SegmentationMetrics(
        tp=tp,
        tn=tn,
        fp=fp,
        fn=fn,
        recall=_safe_pct(tp, tp + fn),
        precision=_safe_pct(tp, tp + fp),
        specificity=_safe_pct(tn, tn + fp),
        accuracy=_safe_pct(tp + tn, tp + tn + fp + fn),
    )


def segmentation_report(rows: list[tuple[str, SegmentationMetrics]]) -> str:
    """Aligned Method / Recall / Precision / Specificity / Accuracy table."""
    header = ["Method", "Recall", "Precision", "Specificity", "Accuracy"]
    table = [header]
    for name, m in rows:
        table.append(
            [name] + [f"{v:.2f}%" for v in (m.recall, m.precision, m.specificity, m.accuracy)]
        )
    widths = [max(len(row[c]) for row in table) for c in range(5)]
    lines = ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip() for row in table]
    return "\n".join(lines)


def classify_skin_rgb(rgb: np.ndarray) -> np.ndarray:
    """Fixed published daylight RGB rule, used only as an eval baseline."""
    rgb = np.asarray(rgb)
    r = rgb[..., 0].astype(np.int64)
    g = rgb[..., 1].astype(np.int64)
    b = rgb[..., 2].astype(np.int64)
    mx = np.maximum(np.maximum(r, g), b)
    mn = np.minimum(np.minimum(r, g), b)
    mask = (
        (r > 95)
        & (g > 40)
        & (b > 20)
        & (mx - mn > 15)
        & (np.abs(r - g) > 15)
        & (r > g)
        & (r > b)
    )
    return mask.astype(np.uint8)


def classify_skin_hsv(rgb: np.ndarray) -> np.ndarray:
    """Fixed published HSV rule (H in [0, 50] deg, S in [0.23, 0.68])."""
    rgb = np.asarray(rgb).astype(np.float64) / 255.0
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    mx = np.maximum(np.maximum(r, g), b)
    mn = np.minimum(np.minimum(r, g), b)
    delta = mx - mn
    hue = np.zeros_like(mx)
    nz = delta > 0
    rm = nz & (mx == r)
    gm = nz & (mx == g) & ~rm
    bm = nz & ~rm & ~gm
    hue[rm] = 60.0 * (((g - b)[rm] / delta[rm]) % 6.0)
    hue[gm] = 60.0 * ((b - r)[gm] / delta[gm] + 2.0)
    hue[bm] = 60.0 * ((r - g)[bm] / delta[bm] + 4.0)
    sat = np.where(mx > 0, delta / np.where(mx > 0, mx, 1.0), 0.0)
    mask = (hue >= 0.0) & (hue <= 50.0) & (sat >= 0.23) & (sat <= 0.68)
    return mask.astype(np.uint8)
