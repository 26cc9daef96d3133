"""End-to-end pipeline wiring: preprocess, segment, detect, validate, score.

Everything here is deterministic given (inputs, config): detection boxes
found on a downscaled image are mapped back to original coordinates.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boost import Cascade, train_cascade
from .config import PipelineConfig
from .detect import Detection, ScanStats, detect_multiscale_counted, iou, merge_detections
from .evaluate import DatasetManifest, match_detections
from .images import (
    downscale,
    histogram_equalization,
    median_filter,
    resize_bilinear,
    to_grayscale,
    rgb_to_ycbcr,
)
from .lbp import validation_feature
from .netpbm import read_image, read_mask, read_pgm
from .skin import Region, SkinThresholds, classify_skin, extract_regions, refine_mask, skin_ratio, sobel_edges
from .svm import LinearSvmModel, train_svm
from .validate import validate_detections

__all__ = [
    "preprocess_gray",
    "SegmentResult",
    "segment_image",
    "detect_faces",
    "load_sample_dir",
    "train_cascade_from_config",
    "train_validator_from_crops",
    "crop_square",
    "pick_svm_threshold",
    "bootstrap_validator",
    "evaluate_image",
    "evaluate_images",
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
    """A refined skin mask; its regions and skin ratio are computed on
    first access, since detection reads only the mask."""

    mask: np.ndarray
    min_area: int  # smallest region kept, in pixels

    @cached_property
    def regions(self) -> list[Region]:
        return extract_regions(self.mask, self.min_area)

    @cached_property
    def ratio(self) -> float:
        """Percentage of mask pixels marked skin."""
        return skin_ratio(self.mask)


def segment_image(rgb: np.ndarray, config: PipelineConfig) -> SegmentResult:
    """Skin classification and Sobel-edge refinement; regions on demand."""
    thresholds = SkinThresholds(config.cb_min, config.cb_max, config.cr_min, config.cr_max)
    ycbcr = rgb_to_ycbcr(rgb)
    skin = classify_skin(ycbcr, thresholds)
    # the Y plane is to_grayscale(rgb): the same expression and rounding
    edges = sobel_edges(ycbcr[..., 0], config.sobel_threshold)
    mask = refine_mask(skin, edges)
    return SegmentResult(mask, config.min_area or max(1, round(mask.size * 0.001)))


def detect_faces(
    gray: np.ndarray,
    cascade: Cascade,
    config: PipelineConfig,
    skin: np.ndarray | None = None,
    svm: LinearSvmModel | None = None,
) -> tuple[list[Detection], ScanStats]:
    """Preprocess, scan, merge, and (with a model) validate.

    ``gray`` and ``skin`` are full-resolution; preprocessing (including any
    downscale) happens here and boxes come back in input coordinates,
    clipped to the input image.
    """
    work = preprocess_gray(gray, config)
    factor = config.downscale
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
    merged = [
        Detection(
            d.x * factor,
            d.y * factor,
            min(d.w * factor, width - d.x * factor),
            min(d.h * factor, height - d.y * factor),
            d.score,
            d.scale,
        )
        for d in merged
    ]
    if svm is not None:
        kept, _ = validate_detections(
            merged, gray, svm, config.svm_threshold, config.block_weights
        )
        merged = kept
    return merged, stats


def load_sample_dir(path: str) -> list[np.ndarray]:
    """All PGM samples in a directory, sorted by filename."""
    names = sorted(n for n in os.listdir(path) if n.endswith(".pgm"))
    if not names:
        raise ValueError(f"{path}: no .pgm samples found")
    return [read_pgm(os.path.join(path, n)) for n in names]


def crop_square(img: np.ndarray, box: tuple[int, int, int, int], size: int) -> np.ndarray:
    """Clamp a box inside the image, crop, and resize to size x size."""
    h, w = img.shape
    x, y, bw, bh = box
    x = max(0, min(x, w - 2))
    y = max(0, min(y, h - 2))
    bw = max(2, min(bw, w - x))
    bh = max(2, min(bh, h - y))
    crop = img[y : y + bh, x : x + bw]
    return crop if crop.shape == (size, size) else resize_bilinear(crop, size, size)


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
    return np.array([validation_feature(c, config.block_weights) for c in crops])


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
    """Decision threshold passing at least ``keep_fraction`` of the crops."""
    return _keep_threshold(model, _describe(pos_crops, config), keep_fraction)


def _keep_threshold(model: LinearSvmModel, rows: np.ndarray, keep_fraction: float) -> float:
    """The stage-threshold rule: the k-th lowest decision value of the rows,
    k = ceil((1 - keep) * n), so fewer than k fail."""
    if len(rows) == 0:
        raise ValueError("no positive crops to pick the validator threshold from")
    values = np.sort([float(model.decision(row)) for row in rows])
    k = max(1, int(np.ceil((1.0 - keep_fraction) * len(values))))
    return float(values[k - 1])


def bootstrap_validator(scenes, cascade: Cascade, config: PipelineConfig) -> tuple[LinearSvmModel, float]:
    """Validator trained on the cascade's own output over ``scenes``.

    Positives are the ground-truth crops plus the detections that match a
    face (IoU >= 0.5); negatives are the first ``MAX_BOOTSTRAP_NEGATIVES``
    false alarms. The threshold passes 99% of the matched detections. Every
    crop is described once: the threshold ranks the matched crops' rows.
    """
    pos_crops, matched_crops, fp_crops = [], [], []
    for scene in scenes:
        dets, _ = detect_faces(scene.gray, cascade, config)
        pos_crops.extend(crop_square(scene.gray, box, config.base_window) for box in scene.faces)
        for det in dets:
            box = (det.x, det.y, det.w, det.h)
            crop = crop_square(scene.gray, box, det.w)
            if all(iou(box, t) < 0.5 for t in scene.faces):
                fp_crops.append(crop)
            else:
                matched_crops.append(crop)
    rows = _describe(pos_crops + matched_crops + fp_crops[:MAX_BOOTSTRAP_NEGATIVES], config)
    n_pos = len(pos_crops) + len(matched_crops)
    svm = _train_validator(rows, n_pos, config)
    return svm, _keep_threshold(svm, rows[len(pos_crops) : n_pos], 0.99)


def evaluate_image(
    gray: np.ndarray,
    truth,
    cascade: Cascade,
    config: PipelineConfig,
    svm: LinearSvmModel | None = None,
    skin: np.ndarray | None = None,
):
    """(cascade detections, validated detections, truth, stats) of one image,
    the record ``summarize`` reads; without a model both lists are equal."""
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
    threads: int = 1,
):
    """``evaluate_image`` of every manifest entry, read from disk.

    Aggregation is order-independent; results always come back in manifest
    order regardless of the worker count.
    """
    manifest_entries = entries.entries if isinstance(entries, DatasetManifest) else list(entries)

    def run(entry):
        img = read_image(entry.path)
        gray = to_grayscale(img) if img.ndim == 3 else img
        skin = read_mask(entry.mask_path) if entry.mask_path else None
        return evaluate_image(gray, entry.boxes, cascade, config, svm, skin)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, manifest_entries))
    return [run(e) for e in manifest_entries]


def summarize(results, iou_min: float = 0.5) -> dict:
    """Aggregate hits/misses/false positives for cascade-only and validated."""
    agg = {
        "cascade": [0, 0, 0],
        "validated": [0, 0, 0],
        "total_windows": 0,
        "evaluated_windows": 0,
        "images": len(results),
    }
    for dets, validated, truth, stats in results:
        for key, dd in (("cascade", dets), ("validated", validated)):
            h, m, f = match_detections(dd, truth, iou_min)
            agg[key][0] += h
            agg[key][1] += m
            agg[key][2] += f
        agg["total_windows"] += stats.total_windows
        agg["evaluated_windows"] += stats.evaluated_windows
    return agg
