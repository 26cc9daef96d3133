"""Dataset manifests, detection/ground-truth matching, rates, ROC sweeps,
and report rendering.

Manifest format, one image per line, whitespace-delimited, '#' comments:

    <image-path> <n> <x y w h> * n

Skin-mask manifests pair image and mask paths: ``<image-path> <mask-path>``.
Relative paths resolve against the manifest file's directory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .detect import iou

__all__ = [
    "ManifestEntry",
    "DatasetManifest",
    "ManifestError",
    "load_manifest",
    "load_mask_manifest",
    "match_detections",
    "detection_rate",
    "false_alarm_rate",
    "RocCurve",
    "roc_sweep",
    "emit_report",
    "emit_report_csv",
]


class ManifestError(ValueError):
    pass


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    boxes: list[tuple[int, int, int, int]]
    mask_path: str | None = None


@dataclass(frozen=True)
class DatasetManifest:
    entries: list[ManifestEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].strip()


def load_mask_manifest(path: str) -> dict[str, str]:
    """Image-path -> mask-path mapping (paths resolved to the manifest dir).
    An image named twice is an error that names both lines."""
    base = os.path.dirname(os.path.abspath(path))
    mapping: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = _strip_comment(raw)
            if not text:
                continue
            tokens = text.split()
            if len(tokens) != 2:
                raise ManifestError(f"{path}:{lineno}: expected '<image> <mask>'")
            if tokens[0] in first_line:
                raise ManifestError(
                    f"{path}:{lineno}: image {tokens[0]!r} already has a mask on line {first_line[tokens[0]]}"
                )
            first_line[tokens[0]] = lineno
            mapping[tokens[0]] = os.path.join(base, tokens[1])
    return mapping


def load_manifest(path: str, mask_manifest: str | None = None) -> DatasetManifest:
    """Parse entries in file order; parse errors name the offending line."""
    masks = load_mask_manifest(mask_manifest) if mask_manifest else {}
    base = os.path.dirname(os.path.abspath(path))
    entries: list[ManifestEntry] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = _strip_comment(raw)
            if not text:
                continue
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
                boxes.append((x, y, w, h))
            entries.append(
                ManifestEntry(os.path.join(base, name), boxes, masks.get(name))
            )
    return DatasetManifest(entries)


def match_detections(
    detections, truth_boxes: list[tuple[int, int, int, int]], iou_min: float = 0.5
) -> tuple[int, int, int]:
    """Greedy one-to-one matching by descending score.

    Each detection claims the unmatched truth box with the highest IoU if
    that IoU reaches ``iou_min``; leftover detections are false positives,
    leftover truths are misses. Equal scores are ordered canonically by box
    coordinates, so permuting the input never changes the result.
    """
    if not 0.0 < iou_min <= 1.0:
        raise ValueError("iou_min must be in (0, 1]")
    order = sorted(
        range(len(detections)),
        key=lambda i: (-detections[i].score, detections[i].x, detections[i].y,
                       detections[i].w, detections[i].h),
    )
    matched = [False] * len(truth_boxes)
    hits = 0
    false_positives = 0
    for i in order:
        det = detections[i]
        box = (det.x, det.y, det.w, det.h)
        best_iou = 0.0
        best_j = -1
        for j, truth in enumerate(truth_boxes):
            if matched[j]:
                continue
            value = iou(box, truth)
            if value > best_iou:
                best_iou = value
                best_j = j
        if best_j >= 0 and best_iou >= iou_min:
            matched[best_j] = True
            hits += 1
        else:
            false_positives += 1
    return hits, len(truth_boxes) - hits, false_positives


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


def roc_sweep(per_image: list[tuple[list, list]], thresholds) -> RocCurve:
    """Re-threshold scored detections and re-match at every threshold.

    ``per_image`` pairs each image's detections with its truth boxes;
    ``thresholds`` must be sorted ascending.
    """
    thresholds = list(thresholds)
    if any(b < a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be sorted ascending")
    if not per_image:
        raise ValueError("need at least one image")
    total_truth = sum(len(truth) for _, truth in per_image)
    points: list[tuple[float, float, float]] = []
    for threshold in thresholds:
        hits = 0
        false_positives = 0
        for detections, truth in per_image:
            surviving = [d for d in detections if d.score >= threshold]
            h, _, f = match_detections(surviving, truth)
            hits += h
            false_positives += f
        tpr = hits / total_truth if total_truth else 0.0
        fp_per_image = false_positives / len(per_image)
        point = (float(threshold), tpr, fp_per_image)
        if points and points[-1][1:] == point[1:]:
            continue
        points.append(point)
    return RocCurve(points)


_REPORT_HEADER = ["Method", "Hits", "Misses", "False positives", "Detection rate (%)"]


def emit_report(rows: list[tuple[str, int, int, int, float]]) -> str:
    """Aligned text table; the rate column prints as a whole percent, or
    n/a for a NaN rate (no ground-truth faces)."""
    if not rows:
        raise ValueError("need at least one report row")
    table = [_REPORT_HEADER]
    for name, hits, misses, fps, rate in rows:
        shown = "n/a" if np.isnan(rate) else str(int(np.floor(rate + 0.5)))
        table.append([name, str(hits), str(misses), str(fps), shown])
    widths = [max(len(row[c]) for row in table) for c in range(5)]
    lines = []
    for row in table:
        cells = [row[0].ljust(widths[0])] + [row[c].rjust(widths[c]) for c in range(1, 5)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def emit_report_csv(rows: list[tuple[str, int, int, int, float]]) -> str:
    """Same numbers, comma-separated, exact rates (nan without faces)."""
    if not rows:
        raise ValueError("need at least one report row")
    lines = ["method,hits,misses,false_positives,detection_rate"]
    for name, hits, misses, fps, rate in rows:
        lines.append(f"{name},{hits},{misses},{fps},{rate:.9g}")
    return "\n".join(lines)
