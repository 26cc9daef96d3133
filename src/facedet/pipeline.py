"""End-to-end pipeline wiring: preprocess, segment, detect, validate, score.

Everything here is deterministic given (inputs, config): detection boxes
found on a downscaled image are mapped back to original coordinates.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .boost import Cascade, keep_threshold, train_cascade
from .config import PipelineConfig
from .detect import Detections, ScanStats, detect_multiscale_counted, merge_detections, pairwise_iou
from .evaluate import detection_rate, false_alarm_rate, match_detections
from .images import (
    _luma,
    _require_color,
    _round_u8,
    crop_square,
    downscale,
    histogram_equalization,
    median_filter,
    row_bands,
    to_grayscale,
)
from .lbp import DESCRIPTOR_LENGTH, descriptors, validation_feature
from .netpbm import read_image, read_mask, read_pgm
from .skin import refine_mask, sobel_edges
from .svm import LinearSvmModel, train_svm
from .validate import validate_detections

__all__ = [
    "preprocess_gray",
    "SegmentResult",
    "segment_image",
    "read_scene",
    "detect_faces",
    "load_sample_dir",
    "train_cascade_from_config",
    "train_validator_from_crops",
    "crop_square",
    "pick_svm_threshold",
    "bootstrap_validator",
    "evaluate_image",
    "evaluate_images",
    "summarize",
    "report",
]

# false-alarm crops kept as validator negatives by ``bootstrap_validator``
MAX_BOOTSTRAP_NEGATIVES = 900


def preprocess_gray(gray: np.ndarray, config: PipelineConfig) -> np.ndarray:
    out = gray
    if config.downscale > 1:
        out = downscale(out, config.downscale)
    if config.median_radius > 0:
        out = median_filter(out, config.median_radius)
    if config.equalize:
        out = histogram_equalization(out)
    return out


@dataclass(frozen=True)
class SegmentResult:
    """A refined skin mask and the image's gray (Y) plane, equal to
    ``to_grayscale`` of it (the same expression and rounding)."""

    mask: np.ndarray
    gray: np.ndarray


def segment_image(rgb: np.ndarray, config: PipelineConfig) -> SegmentResult:
    """Skin classification and Sobel-edge refinement.

    One pass over the row bands of ``images.row_bands`` rounds each band's
    full-range BT.601 Y into the gray plane and tests its Cb and Cr, rounded
    and clamped the same way, against the config's inclusive intervals
    (``cb_min``..``cb_max``, ``cr_min``..``cr_max``)."""
    rgb = _require_color(rgb)
    gray = np.empty(rgb.shape[:2], dtype=np.uint8)
    skin = np.empty(rgb.shape[:2], dtype=np.uint8)
    for lo, hi in row_bands(*gray.shape):
        r, g, b, y = _luma(rgb[lo:hi])
        gray[lo:hi] = _round_u8(y)
        cb = _round_u8(128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b)
        cr = _round_u8(128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b)
        skin[lo:hi] = (cb >= config.cb_min) & (cb <= config.cb_max) & (cr >= config.cr_min) & (cr <= config.cr_max)
    return SegmentResult(refine_mask(skin, sobel_edges(gray, config.sobel_threshold)), gray)


def read_scene(path: str, config: PipelineConfig, mask_path: str | None = None, gate: bool = True):
    """(image, gray plane, skin gate) of the PGM or PPM at ``path``.

    The gate is the mask file at ``mask_path``, which must match the image
    size; without one, the segmentation of a colour image when ``gate`` is
    true; otherwise None. A colour image's gray plane is its segmentation's
    Y plane, or ``to_grayscale`` of it when nothing segments it.
    """
    img = read_image(path)
    if img.ndim == 2:
        gray, skin = img, None
    elif gate and mask_path is None:
        segmented = segment_image(img, config)
        gray, skin = segmented.gray, segmented.mask
    else:
        gray, skin = to_grayscale(img), None
    if mask_path is not None:
        skin = read_mask(mask_path)
        if skin.shape != gray.shape:
            (h, w), (mask_h, mask_w) = gray.shape, skin.shape
            raise ValueError(f"{mask_path}: skin mask is {mask_w}x{mask_h}, but image {path} is {w}x{h}")
    return img, gray, skin


def detect_faces(
    gray: np.ndarray,
    cascade: Cascade,
    config: PipelineConfig,
    skin: np.ndarray | None = None,
    svm: LinearSvmModel | None = None,
) -> tuple[Detections, ScanStats]:
    """Preprocess, scan, merge, and (with a model) validate.

    ``gray`` and ``skin`` are full-resolution; preprocessing (including any
    downscale) happens here and boxes come back in input coordinates,
    clipped to the input image.
    """
    work = preprocess_gray(gray, config)
    # every factor from the longest side up keeps one pixel per axis; capping
    # it there keeps the int64 box scaling below from overflowing
    factor = min(config.downscale, max(gray.shape))
    gate = skin
    if gate is not None and factor > 1:
        gate = downscale(gate, factor)
    raw, stats = detect_multiscale_counted(
        cascade,
        work,
        skin=gate,
        scale_factor=config.scale_factor,
        step=config.step,
        min_skin_fraction=config.min_skin_fraction,
    )
    merged = merge_detections(raw, config.min_neighbors, config.overlap)
    # clip: the downscaled image keeps ceil(side / factor) pixels, so a box
    # scaled back can overhang the input by up to factor - 1 pixels, and a
    # merged box rounds its mean position and size separately
    height, width = gray.shape
    boxes = merged.boxes * factor
    np.minimum(boxes[:, 2:], (width, height) - boxes[:, :2], out=boxes[:, 2:])
    merged = Detections(boxes, merged.score)
    if svm is not None:
        merged, _ = validate_detections(merged, gray, svm, config.svm_threshold, config.block_weights)
    return merged, stats


def load_sample_dir(path: str, side: int | None = None) -> list[np.ndarray]:
    """All PGM samples in a directory, sorted by filename; with a ``side``,
    each must be a side x side tile (the config's ``base_window``)."""
    names = sorted(n for n in os.listdir(path) if n.endswith(".pgm"))
    if not names:
        raise ValueError(f"{path}: no .pgm samples found")
    samples = []
    for name in names:
        tile = os.path.join(path, name)
        sample = read_pgm(tile)
        if side is not None and sample.shape != (side, side):
            h, w = sample.shape
            raise ValueError(f"{tile}: tile is {w}x{h}, expected {side}x{side} (base_window)")
        samples.append(sample)
    return samples


def train_cascade_from_config(
    pos_samples: list[np.ndarray],
    neg_samples: list[np.ndarray],
    config: PipelineConfig,
    pool: list[np.ndarray] | None = None,
) -> Cascade:
    """``boost.train_cascade`` with its settings taken from ``config``."""
    return train_cascade(
        pos_samples,
        neg_samples,
        n_stages=config.stages,
        target_dr=config.target_dr,
        max_fpr=config.max_fpr,
        max_stumps=config.max_stumps,
        base_window=config.base_window,
        pool=pool,
        feature_subsample=config.feature_subsample,
        seed=config.seed,
    )


def _describe(crops: list[np.ndarray], config: PipelineConfig) -> np.ndarray:
    return np.array([validation_feature(c, config.block_weights) for c in crops]).reshape(-1, DESCRIPTOR_LENGTH)


def _train_validator(rows: np.ndarray, n_pos: int, config: PipelineConfig) -> LinearSvmModel:
    """The SVM on descriptor rows whose first ``n_pos`` are the positives."""
    labels = np.concatenate([np.ones(n_pos), -np.ones(len(rows) - n_pos)])
    return train_svm(rows, labels, reg=config.svm_reg, epochs=config.svm_epochs, seed=config.seed)


def train_validator_from_crops(
    pos_crops: list[np.ndarray], neg_crops: list[np.ndarray], config: PipelineConfig
) -> LinearSvmModel:
    return _train_validator(_describe(pos_crops + neg_crops, config), len(pos_crops), config)


def pick_svm_threshold(
    model: LinearSvmModel,
    pos_crops: list[np.ndarray],
    config: PipelineConfig,
    keep_fraction: float = 0.99,
) -> float:
    """Decision threshold passing at least ``keep_fraction`` of the crops:
    ``boost.keep_threshold`` of their decision values."""
    if not pos_crops:
        raise ValueError("no positive crops to pick the validator threshold from")
    return keep_threshold(model.decision(_describe(pos_crops, config)), keep_fraction)


def bootstrap_validator(scenes, cascade: Cascade, config: PipelineConfig) -> tuple[LinearSvmModel, float]:
    """Validator trained on the cascade's own output over ``scenes``.

    Positives are the ground-truth crops plus the detections that match a
    face (IoU >= 0.5); negatives are the first ``MAX_BOOTSTRAP_NEGATIVES``
    false alarms. The threshold passes 99% of the matched detections. A
    detection's row is the one ``validate_detections`` scores for its box.
    """
    pos_crops, matched, false_alarms = [], [], []
    budget = MAX_BOOTSTRAP_NEGATIVES  # false alarms still wanted; no other is described
    for scene in scenes:
        dets, _ = detect_faces(scene.gray, cascade, config)
        pos_crops.extend(crop_square(scene.gray, box, config.base_window) for box in scene.faces)
        hit = (pairwise_iou(dets.boxes, scene.faces) >= 0.5).any(axis=1)
        kept = hit | (np.cumsum(~hit) <= budget)
        rows, hit = descriptors(scene.gray, dets.boxes[kept], config.block_weights), hit[kept]
        budget -= int((~hit).sum())
        matched.append(rows[hit])
        false_alarms.append(rows[~hit])
    matched = np.concatenate(matched)
    negatives = np.concatenate(false_alarms)
    n_pos = len(pos_crops) + len(matched)
    svm = _train_validator(np.concatenate([_describe(pos_crops, config), matched, negatives]), n_pos, config)
    return svm, keep_threshold(svm.decision(matched), 0.99)


def evaluate_image(
    gray: np.ndarray,
    truth,
    cascade: Cascade,
    config: PipelineConfig,
    svm: LinearSvmModel | None = None,
    skin: np.ndarray | None = None,
):
    """(cascade detections, validated detections, truth, stats) of one image,
    the record ``summarize`` reads; without a model both are equal."""
    dets, stats = detect_faces(gray, cascade, config, skin=skin)
    validated = dets
    if svm is not None:
        validated, _ = validate_detections(dets, gray, svm, config.svm_threshold, config.block_weights)
    return dets, validated, truth, stats


def evaluate_images(
    entries,
    cascade: Cascade,
    config: PipelineConfig,
    svm: LinearSvmModel | None = None,
):
    """``evaluate_image`` of every manifest entry, read by ``read_scene``
    (so a colour image without a mask is gated by its segmentation), in
    manifest order."""
    results = []
    for entry in entries:
        _img, gray, skin = read_scene(entry.path, config, entry.mask_path)
        results.append(evaluate_image(gray, entry.boxes, cascade, config, svm, skin))
    return results


def summarize(results) -> dict:
    """Aggregate hits/misses/false positives at IoU >= 0.5, cascade-only and validated."""
    agg = {
        "cascade": [0, 0, 0],
        "validated": [0, 0, 0],
        "total_windows": 0,
        "evaluated_windows": 0,
        "images": len(results),
    }
    for dets, validated, truth, stats in results:
        for key, dd in (("cascade", dets), ("validated", validated)):
            h, m, f = match_detections(dd, truth)
            agg[key][0] += h
            agg[key][1] += m
            agg[key][2] += f
        agg["total_windows"] += stats.total_windows
        agg["evaluated_windows"] += stats.evaluated_windows
    return agg


def report(summary: dict, validated: bool, csv: bool = False) -> str:
    """The results table of a ``summarize`` dict: the cascade row, and the
    validated row when a validator ran; then, when some window was
    evaluated, each row's false-alarm rate.

    The text table aligns its columns and rounds the detection rate to a
    whole percent; the CSV keeps it exact. Without faces the rate is n/a
    (nan in the CSV).
    """
    rows = [("Adaboost Cascade", *summary["cascade"])]
    if validated:
        rows.append(("Cascade + validation", *summary["validated"]))
    rates = [detection_rate(h, m) if h + m else float("nan") for _, h, m, _ in rows]
    if csv:
        lines = ["method,hits,misses,false_positives,detection_rate"]
        lines += [f"{name},{h},{m},{f},{rate:.9g}" for (name, h, m, f), rate in zip(rows, rates)]
    else:
        table = [["Method", "Hits", "Misses", "False positives", "Detection rate (%)"]]
        for row, rate in zip(rows, rates):
            table.append([*map(str, row), "n/a" if np.isnan(rate) else str(int(np.floor(rate + 0.5)))])
        widths = [max(map(len, column)) for column in zip(*table)]
        lines = ["  ".join([row[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(row[1:], widths[1:])]).rstrip()
                 for row in table]
    windows = summary["evaluated_windows"]
    if windows:
        lines += [f"false_alarm_rate[{name}]={false_alarm_rate(f, windows):.9g}" for name, _h, _m, f in rows]
    return "\n".join(lines)
