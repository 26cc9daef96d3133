"""Candidate validation: reject detector windows the texture model dislikes.

The descriptors of all of a scene's candidates are built in one batched
call per part (:mod:`facedet.lbp`). When even the best possible fine-stage
contribution cannot lift a candidate's decision value to the threshold, it
is rejected without its fine part. The fine part lives on a scaled simplex,
so its contribution is bounded above by the largest weighted coefficient;
the early exit therefore never changes the outcome relative to full
evaluation. Each decision value is one 1-D dot product, as
:meth:`LinearSvmModel.decision` computes it: a matrix-vector product over
all candidates may sum in another order and differ in the last bit.
"""

from __future__ import annotations

import numpy as np

from .detect import Detection
from .lbp import UNIT_BLOCK_WEIGHTS, coarse_parts, descriptors, fine_parts, fine_weights
from .svm import LinearSvmModel

__all__ = ["validate_detections", "decision_values"]


def _boxes(detections: list[Detection]) -> list[tuple[int, int, int, int]]:
    return [(d.x, d.y, d.w, d.h) for d in detections]


def _row_decisions(model: LinearSvmModel, rows: np.ndarray) -> list[float]:
    return [float(model.decision(row)) for row in rows]


def validate_detections(
    detections: list[Detection],
    img: np.ndarray,
    model: LinearSvmModel,
    threshold: float = 0.0,
    block_weights=UNIT_BLOCK_WEIGHTS,
) -> tuple[list[Detection], int]:
    """Keep detections whose decision value reaches the threshold.

    Returns (kept detections in input order, rejected count).
    """
    weights = fine_weights(block_weights)
    if not detections:
        return [], 0
    boxes = _boxes(detections)
    coarse = coarse_parts(img, boxes)
    bound = float((model.weights[59:] * weights).max())
    # small slack keeps the early exit outcome-identical to the full
    # evaluation even at floating-point boundary cases
    live = [
        i for i, row in enumerate(coarse)
        if not float(row @ model.weights[:59]) + model.bias + bound < threshold - 1e-9
    ]
    full = np.concatenate([coarse[live], fine_parts(img, [boxes[i] for i in live], block_weights)], axis=1)
    kept = [detections[i] for i, value in zip(live, _row_decisions(model, full)) if value >= threshold]
    return kept, len(detections) - len(kept)


def decision_values(
    detections: list[Detection],
    img: np.ndarray,
    model: LinearSvmModel,
    block_weights=UNIT_BLOCK_WEIGHTS,
) -> np.ndarray:
    """Full decision value per detection (no early exit), for ROC sweeps."""
    return np.array(_row_decisions(model, descriptors(img, _boxes(detections), block_weights)), dtype=np.float64)
