import time
from unittest import mock

import numpy as np
import pytest

from facedet import boost
from facedet.boost import train_cascade
from facedet.detect import iou
from facedet.lbp import validation_feature
from facedet.pipeline import crop_square, detect_faces, pick_svm_threshold
from facedet.svm import train_svm
from facedet.synthetic import build_corpus, experiment_config


@pytest.fixture(scope="session")
def experiment():
    """Corpus, trained models, and per-image detections shared by the
    end-to-end acceptance checks (trained once per session)."""
    started = time.monotonic()
    corpus = build_corpus(seed=7, n_train=300, n_test=100)
    config = experiment_config(seed=7)
    with mock.patch.object(boost, "compile_features", wraps=boost.compile_features) as compiled:
        cascade = train_cascade(
            corpus.pos_tiles,
            corpus.neg_tiles,
            n_stages=config.stages,
            target_dr=config.target_dr,
            max_fpr=config.max_fpr,
            max_stumps=config.max_stumps,
            base_window=config.base_window,
            pool=corpus.pool,
            feature_subsample=config.feature_subsample,
            seed=config.seed,
        )

    # validator data bootstrapped from the training split: positives are
    # ground-truth crops plus the detector's own matched boxes, negatives
    # are whatever it wrongly accepts there
    pos_crops = []
    matched_crops = []
    fp_crops = []
    for scene in corpus.train:
        dets, _ = detect_faces(scene.gray, cascade, config)
        for box in scene.faces:
            pos_crops.append(crop_square(scene.gray, box, 24))
        for det in dets:
            box = (det.x, det.y, det.w, det.h)
            crop = crop_square(scene.gray, box, det.w)
            if all(iou(box, t) < 0.5 for t in scene.faces):
                fp_crops.append(crop)
            else:
                matched_crops.append(crop)
    fp_crops = fp_crops[:900]
    positives = pos_crops + matched_crops
    features = np.stack([validation_feature(c) for c in positives + fp_crops])
    labels = np.concatenate([np.ones(len(positives)), -np.ones(len(fp_crops))])
    svm = train_svm(features, labels, reg=config.svm_reg, epochs=config.svm_epochs, seed=config.seed)
    threshold = pick_svm_threshold(svm, matched_crops, config, keep_fraction=0.99)
    config = config.override(svm_threshold=threshold)

    test_results = []
    for scene in corpus.test:
        dets, stats = detect_faces(scene.gray, cascade, config)
        test_results.append((scene, dets, stats))
    return {
        "corpus": corpus,
        "config": config,
        "cascade": cascade,
        "svm": svm,
        "threshold": threshold,
        "n_fp_crops": len(fp_crops),
        "test_results": test_results,
        "feature_compiles": compiled.call_count,
        "elapsed": time.monotonic() - started,
    }
