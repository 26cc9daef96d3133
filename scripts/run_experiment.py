#!/usr/bin/env python3
"""Scaled-down end-to-end experiment.

Trains a 5-stage cascade on the synthetic corpus, bootstraps the texture
validator from the detector's own training-split output, and reports
cascade-only vs validated accuracy on the test split:

    python3 scripts/run_experiment.py --seed 7 [--models out/]
"""

import argparse
import os
import time

import numpy as np

from facedet.boost import save_cascade
from facedet.detect import iou
from facedet.evaluate import detection_rate, emit_report, false_alarm_rate
from facedet.lbp import validation_feature
from facedet.pipeline import crop_square, detect_faces, pick_svm_threshold, summarize, train_models
from facedet.svm import save_svm, train_svm
from facedet.synthetic import build_corpus, experiment_config
from facedet.validate import validate_detections


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--train", type=int, default=300)
    parser.add_argument("--test", type=int, default=100)
    parser.add_argument("--models", help="directory to save the trained models")
    args = parser.parse_args()

    started = time.monotonic()
    corpus = build_corpus(seed=args.seed, n_train=args.train, n_test=args.test)
    config = experiment_config(seed=args.seed)
    print(
        f"corpus: {len(corpus.train)} train / {len(corpus.test)} test scenes, "
        f"{len(corpus.pos_tiles)} pos / {len(corpus.neg_tiles)} neg tiles"
    )

    cascade, _ = train_models(corpus.pos_tiles, corpus.neg_tiles, config, pool=corpus.pool)
    for i, (dr, fpr) in enumerate(cascade.metadata):
        print(f"stage {i}: stumps={len(cascade.stages[i].stumps)} dr={dr:.4f} fpr={fpr:.4f}")

    # validator bootstrap: ground-truth and matched crops vs mined false alarms
    pos_crops, matched_crops, fp_crops = [], [], []
    for scene in corpus.train:
        dets, _ = detect_faces(scene.gray, cascade, config)
        for box in scene.faces:
            pos_crops.append(crop_square(scene.gray, box, config.base_window))
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
    print(f"validator: {len(positives)} positives, {len(fp_crops)} mined false alarms, "
          f"threshold {threshold:.4f}")

    results = []
    for scene in corpus.test:
        dets, stats = detect_faces(scene.gray, cascade, config)
        kept, _ = validate_detections(dets, scene.gray, svm, threshold, config.block_weights)
        results.append((dets, kept, scene.faces, stats))
    counts = summarize(results)
    windows = counts["evaluated_windows"]

    rows = []
    for name, key in (("Adaboost Cascade", "cascade"), ("Proposed method", "validated")):
        h, m, f = counts[key]
        rows.append((name, h, m, f, detection_rate(h, m)))
    print()
    print(emit_report(rows))
    for name, _h, _m, f, _r in rows:
        print(f"false_alarm_rate[{name}] = {false_alarm_rate(f, windows):.3e}")
    reduction = 100.0 * (counts["cascade"][2] - counts["validated"][2]) / max(counts["cascade"][2], 1)
    print(f"false-positive reduction: {reduction:.1f}%")
    print(f"elapsed: {time.monotonic() - started:.1f}s")

    if args.models:
        os.makedirs(args.models, exist_ok=True)
        save_cascade(cascade, os.path.join(args.models, "cascade.txt"))
        save_svm(svm, os.path.join(args.models, "svm.txt"))
        print(f"models written to {args.models} (validator threshold {threshold:.6g})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
