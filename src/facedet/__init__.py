"""Trainable face detection: skin-color gating, a boosted Haar cascade, and
local-binary-pattern + linear-SVM false-positive rejection."""

from .boost import (
    Cascade,
    Stage,
    WeakClassifier,
    load_cascade,
    save_cascade,
    train_cascade,
    train_stage,
)
from .config import PipelineConfig, load_config_file
from .detect import Detection, Detections, ScanStats, detect_multiscale_counted, merge_detections, pairwise_iou
from .evaluate import (
    RocCurve,
    detection_rate,
    false_alarm_rate,
    load_manifest,
    match_detections,
    roc_sweep,
)
from .haar import HaarFeature, generate_feature_set
from .images import (
    downscale,
    histogram_equalization,
    median_filter,
    resize_bilinear,
    resize_boxes,
    to_grayscale,
)
from .integral import IntegralSet, integral_set
from .lbp import descriptors, lbp_label_image, uniform_pattern_table, validation_feature
from .skin import (
    Region,
    extract_regions,
    morphology,
    refine_mask,
    skin_ratio,
    sobel_edges,
)
from .svm import LinearSvmModel, load_svm, save_svm, train_svm
from .validate import validate_detections

__version__ = "0.1.0"
