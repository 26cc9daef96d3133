#!/usr/bin/env python3
"""Regenerate perfbench/reference/ from the seed-7 corpus.

    python3 perfbench/make_reference.py

Trains the cascade and validator exactly as the ``train`` workload does,
writes ``cascade.txt`` and ``svm.txt``, and records in ``reference.json``
the validator threshold (as an exact JSON float), the sha256 of each model
and of the validated detections on the seed-7 test scenes, and the quality
counts. Run it only for a declared model change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def write_reference(reference: dict, directory: str) -> None:
    with open(os.path.join(directory, "reference.json"), "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


def main() -> int:
    run.import_program()
    from spans import Tracer
    from workloads import (
        REFERENCE_DIR, REFERENCE_SEED, TrainState, TrainWorkload, detections_text, gray_scenes,
        SCENES, load_reference, pipeline, quality_of, score_models, sha256_text, synthetic,
    )

    workdir = os.path.join(run.OUT_DIR, f"work-reference-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = TrainWorkload()
        corpus = synthetic.build_corpus(seed=REFERENCE_SEED)
        config = synthetic.experiment_config(seed=REFERENCE_SEED)
        state = TrainState(corpus, gray_scenes(REFERENCE_SEED, SCENES), config, workdir, {})
        batch = workload.batch(state, Tracer(), "reference")
        files = workload.model_files(state, batch)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for key in ("cascade", "svm"):
        with open(os.path.join(REFERENCE_DIR, f"{key}.txt"), "w", encoding="ascii") as fh:
            fh.write(files[key])
    reference = {"seed": REFERENCE_SEED, "threshold": batch.outputs[0][2]}
    write_reference(reference, REFERENCE_DIR)

    # detections of the stored models, as the detect workloads load them
    cascade, model, config = load_reference()
    results, _ = score_models(state.scenes, cascade, model, config)
    reference.update({
        "cascade_sha256": sha256_text(files["cascade"]),
        "svm_sha256": sha256_text(files["svm"]),
        "threshold_sha256": sha256_text(files["threshold"]),
        "detections_sha256": sha256_text(detections_text([r[1] for r in results])),
        "quality": quality_of(pipeline.summarize(results)),
    })
    write_reference(reference, REFERENCE_DIR)
    print(json.dumps(reference["quality"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
