"""Candidate validation: reject detector windows the texture model dislikes.

A candidate is kept when its decision value reaches the threshold; the ROC
sweeps the same values. The descriptors of all of a scene's candidates are
built in one batched call (:func:`facedet.lbp.descriptors`) and scored by
:meth:`LinearSvmModel.decision`, which owns the per-row rule.
"""

from __future__ import annotations

import numpy as np

from .detect import Detections
from .lbp import UNIT_BLOCK_WEIGHTS, descriptors
from .svm import LinearSvmModel

__all__ = ["validate_detections", "decision_values"]


def validate_detections(
    detections: Detections,
    img: np.ndarray,
    model: LinearSvmModel,
    threshold: float = 0.0,
    block_weights=UNIT_BLOCK_WEIGHTS,
) -> tuple[Detections, int]:
    """Keep detections whose decision value reaches the threshold.

    Returns (kept detections in input order, rejected count).
    """
    kept = detections[model.decision(descriptors(img, detections.boxes, block_weights)) >= threshold]
    return kept, len(detections) - len(kept)


def decision_values(
    detections: Detections,
    img: np.ndarray,
    model: LinearSvmModel,
    block_weights=UNIT_BLOCK_WEIGHTS,
) -> np.ndarray:
    """Decision value per detection, for ROC sweeps."""
    return model.decision(descriptors(img, detections.boxes, block_weights))
