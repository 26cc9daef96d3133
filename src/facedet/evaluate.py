"""Dataset manifests, detection/ground-truth matching, rates and ROC sweeps.

Manifest format, one image per line, whitespace-delimited, '#' comments:

    <image-path> <n> <x y w h> * n

Skin-mask manifests pair image and mask paths: ``<image-path> <mask-path>``;
an image is named by its normalized path, so ``a.ppm`` and ``./a.ppm`` are
one image. Relative paths resolve against the manifest file's directory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .config import content_lines
from .detect import Detections, pairwise_iou

__all__ = [
    "ManifestEntry",
    "ManifestError",
    "load_manifest",
    "match_detections",
    "detection_rate",
    "false_alarm_rate",
    "RocCurve",
    "roc_sweep",
]


class ManifestError(ValueError):
    pass


# box fields stay below this magnitude, so every area is below 2^52 and
# every union below 2^53: pairwise_iou's int64 products cannot overflow and
# its float64 conversions are exact, so its one division equals iou's
BOX_LIMIT = 1 << 26


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    boxes: list[tuple[int, int, int, int]]
    mask_path: str | None = None


def _mask_lines(path: str) -> dict[str, tuple[str, int]]:
    """Normalized image path -> (mask path, line number); an image named
    twice is an error that names both lines."""
    base = os.path.dirname(os.path.abspath(path))
    lines: dict[str, tuple[str, int]] = {}
    for lineno, text in content_lines(path):
        tokens = text.split()
        if len(tokens) != 2:
            raise ManifestError(f"{path}:{lineno}: expected '<image> <mask>'")
        image = os.path.normpath(tokens[0])
        if image in lines:
            raise ManifestError(
                f"{path}:{lineno}: image {tokens[0]!r} already has a mask on line {lines[image][1]}"
            )
        lines[image] = (os.path.join(base, tokens[1]), lineno)
    return lines


def load_manifest(path: str, mask_manifest: str | None = None) -> list[ManifestEntry]:
    """Parse entries in file order; parse errors name the offending line.
    A mask-manifest line whose image is in no entry is an error."""
    masks = _mask_lines(mask_manifest) if mask_manifest else {}
    base = os.path.dirname(os.path.abspath(path))
    entries: list[ManifestEntry] = []
    named: set[str] = set()
    for lineno, text in content_lines(path):
        tokens = text.split()
        if len(tokens) < 2:
            raise ManifestError(f"{path}:{lineno}: expected '<path> <n> ...'")
        name = tokens[0]
        try:
            count = int(tokens[1])
        except ValueError:
            raise ManifestError(f"{path}:{lineno}: bad box count {tokens[1]!r}") from None
        if count < 0 or len(tokens) != 2 + 4 * count:
            raise ManifestError(
                f"{path}:{lineno}: expected {4 * max(count, 0)} box values, "
                f"got {len(tokens) - 2}"
            )
        boxes: list[tuple[int, int, int, int]] = []
        for b in range(count):
            try:
                x, y, w, h = (int(v) for v in tokens[2 + 4 * b : 6 + 4 * b])
            except ValueError:
                raise ManifestError(f"{path}:{lineno}: non-integer box field") from None
            if w <= 0 or h <= 0:
                raise ManifestError(f"{path}:{lineno}: box {b} has non-positive size")
            if max(abs(x), abs(y), w, h) >= BOX_LIMIT:
                raise ManifestError(f"{path}:{lineno}: box {b} has a field of magnitude {BOX_LIMIT} or more")
            boxes.append((x, y, w, h))
        image = os.path.normpath(name)
        named.add(image)
        entries.append(ManifestEntry(os.path.join(base, name), boxes, masks[image][0] if image in masks else None))
    for image, (_, lineno) in masks.items():
        if image not in named:
            raise ManifestError(f"{mask_manifest}:{lineno}: image {image!r} is not in {path}")
    return entries


def _greedy_hits(detections: Detections, truth_boxes, iou_min: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy one-to-one matching by descending score.

    In that order, each detection claims the unmatched truth box with the
    highest IoU (the first on ties) if that IoU reaches ``iou_min``; the
    others are false positives. Equal scores are ordered canonically by box
    coordinates, so permuting the input never changes the result. Returns
    the scores in that order and whether each detection is a hit.
    """
    if not 0.0 < iou_min <= 1.0:
        raise ValueError("iou_min must be in (0, 1]")
    if len(detections) == 0:  # an empty list of rows, too
        return np.zeros(0), np.zeros(0, dtype=bool)
    x, y, w, h = detections.boxes.T
    order = np.lexsort((h, w, y, x, -detections.score))
    ious = pairwise_iou(detections.boxes[order], truth_boxes)
    hit = np.zeros(order.size, dtype=bool)
    matched = np.zeros(ious.shape[1], dtype=bool)
    # a detection below iou_min with every truth box can claim none
    for i in np.flatnonzero((ious >= iou_min).any(axis=1)):
        row = np.where(matched, -1.0, ious[i])
        j = row.argmax()
        if row[j] >= iou_min:
            matched[j] = hit[i] = True
    return detections.score[order], hit


def match_detections(detections: Detections, truth_boxes, iou_min: float = 0.5) -> tuple[int, int, int]:
    """(hits, misses, false positives) of the greedy matching by descending
    score; leftover truths are misses."""
    hits = int(_greedy_hits(detections, truth_boxes, iou_min)[1].sum())
    return hits, len(truth_boxes) - hits, len(detections) - hits


def detection_rate(hits: int, misses: int) -> float:
    """Percentage of ground-truth faces found."""
    if hits + misses <= 0:
        raise ValueError("detection rate undefined without ground-truth faces")
    return 100.0 * hits / (hits + misses)


def false_alarm_rate(false_windows: int, total_windows: int) -> float:
    """False detection windows over total windows."""
    if total_windows <= 0:
        raise ValueError("false alarm rate undefined without windows")
    return false_windows / total_windows


@dataclass(frozen=True)
class RocCurve:
    # (threshold, true-positive rate, false positives per image), sorted by
    # threshold, consecutive duplicate operating points dropped
    points: list[tuple[float, float, float]]


def roc_sweep(per_image: list[tuple[Detections, list]], thresholds) -> RocCurve:
    """Re-threshold scored detections at every threshold.

    ``per_image`` pairs each image's detections with its truth boxes;
    ``thresholds`` must be sorted ascending. Each image is matched once:
    the matching decides each detection from those above it in its order,
    and the detections that reach a threshold are a prefix of that order.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if np.any(thresholds[1:] < thresholds[:-1]):
        raise ValueError("thresholds must be sorted ascending")
    if not per_image:
        raise ValueError("need at least one image")
    total_truth = sum(len(truth) for _, truth in per_image)
    hits = np.zeros(thresholds.size, dtype=np.int64)
    kept = np.zeros_like(hits)
    for detections, truth in per_image:
        scores, hit = _greedy_hits(detections, truth, 0.5)
        # scores descend, so -scores ascend: k detections reach the threshold
        k = np.searchsorted(-scores, -thresholds, side="right")
        hits += np.concatenate([[0], np.cumsum(hit)])[k]
        kept += k
    points: list[tuple[float, float, float]] = []
    for threshold, h, k in zip(thresholds.tolist(), hits.tolist(), kept.tolist()):
        point = (threshold, h / total_truth if total_truth else 0.0, (k - h) / len(per_image))
        if points and points[-1][1:] == point[1:]:
            continue
        points.append(point)
    return RocCurve(points)
