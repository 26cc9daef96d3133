#!/usr/bin/env python3
"""Scaled-down end-to-end experiment.

Trains a 5-stage cascade on the synthetic corpus, bootstraps the texture
validator from the detector's own training-split output, and reports
cascade-only vs validated accuracy on the test split as ``facedet eval`` does:

    python3 scripts/run_experiment.py --seed 7 [--models out/]
"""

import argparse
import os
import time

from facedet.boost import save_cascade
from facedet.pipeline import report, summarize
from facedet.svm import save_svm
from facedet.synthetic import run_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--train", type=int, default=300)
    parser.add_argument("--test", type=int, default=100)
    parser.add_argument("--models", help="directory to save the trained models")
    args = parser.parse_args()

    started = time.monotonic()
    run = run_experiment(seed=args.seed, n_train=args.train, n_test=args.test)
    corpus, cascade, threshold = run.corpus, run.cascade, run.config.svm_threshold
    print(
        f"corpus: {len(corpus.train)} train / {len(corpus.test)} test scenes, "
        f"{len(corpus.pos_tiles)} pos / {len(corpus.neg_tiles)} neg tiles"
    )
    for i, stage in enumerate(cascade.stages):
        print(f"stage {i}: stumps={len(stage.stumps)} dr={stage.detection_rate:.4f} fpr={stage.false_positive_rate:.4f}")
    print(f"validator threshold {threshold:.4f}")

    counts = summarize(run.results)
    print()
    print(report(counts, validated=True))
    reduction = 100.0 * (counts["cascade"][2] - counts["validated"][2]) / max(counts["cascade"][2], 1)
    print(f"false-positive reduction: {reduction:.1f}%")
    print(f"elapsed: {time.monotonic() - started:.1f}s")

    if args.models:
        os.makedirs(args.models, exist_ok=True)
        save_cascade(cascade, os.path.join(args.models, "cascade.txt"))
        save_svm(run.svm, os.path.join(args.models, "svm.txt"))
        print(f"models written to {args.models} (validator threshold {threshold:.6g})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
