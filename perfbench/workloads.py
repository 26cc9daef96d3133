"""The two workloads, their correctness checks and their span hooks.

Every call into facedet goes through a module attribute (``pipeline.
detect_faces``, not a name imported from it), so the traced run's hooks see
the benchmark's own calls as well as the calls between facedet modules.

* ``detect_skin`` runs read -> skin segmentation -> gated detect -> validate
  on 100 seed-generated 320x240 colour scenes with 3 faces each, with the
  stored reference models, then the ``facedet eval --roc`` scoring.
* ``train`` trains the cascade and bootstraps the validator on the seed-7
  reference corpus, whatever the seed: training cost depends strongly on
  the corpus (23-39 s over seeds 1-4 and 7 on a 2-core Xeon), which would
  swamp any change in the code. Afterwards the fresh models detect and
  validate on the seed's 100 grayscale 160x120 test scenes for quality;
  the stored models do the same before and after the training for the
  grayscale per-scene latency.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from facedet import boost, cli, detect, evaluate, images, lbp, netpbm, pipeline, synthetic, validate
from facedet import svm as svm_mod
from spans import Hook, Tracer

REFERENCE_SEED = 7
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
SCENES = 100  # scenes per pass; the reference hashes hold only at this count
MAX_FP_CROPS = 900  # validator negatives, as in scripts/run_experiment.py
MIN_LATENCY_PASSES = 2  # train: per window, before and after the training
CROSS_CHECK_SCENES = 5  # scenes where detect_faces(svm=...) must equal detect + validate
SKIN_SCENE = (320, 240)
SKIN_FACES = 3
# acceptance floors for freshly trained models
FLOOR_CASCADE_DR = 90.0
FLOOR_FP_SHARE = 0.7
FLOOR_DR_COST = 2.0


HOOKS = [
    Hook("facedet.haar", "generate_feature_set", "haar.bank"),
    Hook(
        "facedet.boost", "feature_value_matrix", "boost.feature_matrix",
        lambda a, r: {"cells": len(a["features"]) * len(a["samples"])},
    ),
    Hook("facedet.boost", "train_stage", "boost.train_stage", lambda a, r: {"stumps": len(r.stage.stumps)}),
    Hook("facedet.boost", "_mine_false_positives", "mine", lambda a, r: {"needed": a["needed"]}),
    Hook("facedet.images", "resize_bilinear", "images.resize", span=False),
    Hook("facedet.lbp", "validation_feature", "lbp.descriptor"),
    Hook("facedet.svm", "train_svm", "svm.train"),
    Hook("facedet.netpbm", "read_image", "netpbm.read"),
    Hook("facedet.pipeline", "segment_image", "skin.segment"),
    Hook("facedet.pipeline", "detect_faces", "detect.preprocess"),
    Hook("facedet.integral", "integral_set", "integral.build"),
    Hook(
        "facedet.detect", "detect_multiscale_counted", "detect.scan",
        lambda a, r: {
            "total": r[1].total_windows,
            "evaluated": r[1].evaluated_windows,
            "accepted": r[1].accepted_windows,
        },
    ),
    Hook(
        "facedet.detect", "merge_detections", "detect.merge",
        lambda a, r: {"in": len(a["detections"]), "out": len(r)},
    ),
    Hook(
        "facedet.validate", "validate_detections", "validate",
        lambda a, r: {"candidates": len(a["detections"]), "rejected": r[1]},
    ),
    Hook("facedet.validate", "decision_values", "evaluate.score"),
    Hook("facedet.evaluate", "match_detections", "evaluate.score"),
    Hook("facedet.evaluate", "roc_sweep", "evaluate.score"),
]

# layers whose absence would make a per-layer figure read 0 s by mistake
_DETECT_LAYERS = ("detect.preprocess", "integral.build", "detect.scan", "detect.merge")
REQUIRED_LAYERS = {
    "detect_skin": _DETECT_LAYERS + ("netpbm.read", "skin.segment", "validate", "evaluate.score"),
    "train": _DETECT_LAYERS + (
        "haar.bank", "boost.feature_matrix", "boost.train_stage", "mine", "lbp.descriptor", "svm.train",
    ),
}
REQUIRED_TALLIES = {"train": (("images.resize", "mine"),)}


class Checks:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {'; '.join(problems)}")


@dataclass
class Batch:
    """One unit of timed work: a training, or one pass over the scenes."""

    seconds: float
    outputs: list = field(default_factory=list)
    pass_seconds: float = 0.0  # detect_skin: the scene loop, without the scoring
    latencies: list[float] = field(default_factory=list)
    errors: dict[int, str] = field(default_factory=dict)  # scene index -> exception


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def detections_text(per_scene) -> str:
    return "".join(
        f"{i} {d.x} {d.y} {d.w} {d.h} {d.score:.9g}\n"
        for i, dets in enumerate(per_scene)
        for d in dets
    )


def box_problems(dets, shape) -> list[str]:
    h, w = shape[:2]
    return [
        f"box {(d.x, d.y, d.w, d.h)} outside {w}x{h} image"
        for d in dets
        if d.x < 0 or d.y < 0 or d.w <= 0 or d.h <= 0 or d.x + d.w > w or d.y + d.h > h
    ]


def scene_problems(dets, kept, shape) -> list[str]:
    """Boxes inside the image; validated detections drawn from the cascade's."""
    problems = box_problems(dets, shape) + box_problems(kept, shape)
    if any(k not in dets for k in kept):
        problems.append("validated detection missing from the cascade detections")
    return problems


def quality_of(summary: dict) -> dict:
    """Detection rates and FP reduction from ``pipeline.summarize`` counts."""
    (ch, cm, cf), (vh, vm, vf) = summary["cascade"], summary["validated"]
    return {
        "counts": {"cascade": summary["cascade"], "validated": summary["validated"]},
        "cascade_dr_pct": evaluate.detection_rate(ch, cm),
        "detection_rate_pct": evaluate.detection_rate(vh, vm),
        "false_positives": vf,
        "fp_reduction_pct": 100.0 * (cf - vf) / cf if cf else float("nan"),
    }


def load_reference():
    with open(os.path.join(REFERENCE_DIR, "reference.json"), encoding="ascii") as fh:
        ref = json.load(fh)
    cascade = boost.load_cascade(os.path.join(REFERENCE_DIR, "cascade.txt"))
    model = svm_mod.load_svm(os.path.join(REFERENCE_DIR, "svm.txt"))
    config = synthetic.experiment_config(REFERENCE_SEED).override(svm_threshold=ref["threshold"])
    return cascade, model, config


def gray_scenes(seed: int, n: int) -> list:
    """The seed's grayscale test split; seed 7 gives the acceptance scenes.

    Train scenes are drawn first from the same generator, so they are built
    and dropped; the pool is drawn after the test split and is skipped.
    """
    return synthetic.build_corpus(seed=seed, n_train=3 * n, n_test=n, n_pool=0).test


# -- detection workloads ---------------------------------------------------


@dataclass
class DetectState:
    paths: list[str]
    truths: list[list]
    shapes: list[tuple]
    cascade: boost.Cascade
    svm: svm_mod.LinearSvmModel
    config: object


class DetectWorkload:
    """read -> segment -> gated detect -> validate per scene, closed loop."""

    def setup(self, seed: int, workdir: str, n_scenes: int) -> DetectState:
        paths, truths, shapes = [], [], []
        rng = np.random.default_rng(seed)
        for i in range(n_scenes):
            rgb, scene = synthetic.render_color_scene(rng, *SKIN_SCENE, n_faces=SKIN_FACES)
            paths.append(os.path.join(workdir, f"scene_{i:04d}.ppm"))
            netpbm.write_ppm(paths[-1], rgb)
            truths.append(scene.faces)
            shapes.append(rgb.shape)
        return DetectState(paths, truths, shapes, *load_reference())

    def detect_scene(self, state: DetectState, path: str):
        """What ``facedet detect`` does to a colour image, keeping the
        cascade's detections as well as the validated ones (as ``facedet eval``)."""
        img = netpbm.read_image(path)
        skin = pipeline.segment_image(img, state.config).mask
        gray = images.to_grayscale(img)
        dets, stats = pipeline.detect_faces(gray, state.cascade, state.config, skin=skin)
        kept, _ = validate.validate_detections(
            dets, gray, state.svm, state.config.svm_threshold, state.config.block_weights
        )
        return gray, skin, dets, kept, stats

    def score(self, state: DetectState, results) -> tuple:
        """The ``facedet eval --roc`` scoring: summarize, rescore, sweep."""
        summary = pipeline.summarize(results)
        entries = [SimpleNamespace(path=path) for path in state.paths]
        per_image = cli._rescore(list(zip(results, entries)), state.svm, state.config)
        return summary, evaluate.roc_sweep(per_image, cli._roc_thresholds(per_image)).points

    def batch(self, state: DetectState, tracer: Tracer, label: str) -> Batch:
        started = time.perf_counter()
        out = Batch(0.0)
        for i, path in enumerate(state.paths):
            with tracer.phase("scene", group=f"{label}:{i}"):
                t0 = time.perf_counter()
                try:
                    _gray, _skin, dets, kept, stats = self.detect_scene(state, path)
                except Exception as exc:  # counted as a failed scene
                    out.errors[i] = repr(exc)
                    dets, kept, stats = [], [], detect.ScanStats()
                out.latencies.append(time.perf_counter() - t0)
            out.outputs.append((dets, kept, state.truths[i], stats))
        out.pass_seconds = time.perf_counter() - started
        if not out.errors:
            out.outputs.append(self.score(state, out.outputs))
        out.seconds = time.perf_counter() - started
        return out

    def warmup(self, state: DetectState, checks: Checks, seconds: float) -> None:
        """Untimed first scenes: fill caches, and check that
        ``detect_faces(svm=...)`` (the ``facedet detect`` call) gives what
        the timed path's detect + validate gives."""
        for i, path in enumerate(state.paths[:CROSS_CHECK_SCENES]):
            gray, skin, _dets, kept, _stats = self.detect_scene(state, path)
            direct, _ = pipeline.detect_faces(gray, state.cascade, state.config, skin=skin, svm=state.svm)
            checks.record(f"cross-check scene {i}", [] if direct == kept else
                          ["detect_faces(svm=...) differs from detect + validate"])

    def check(self, state: DetectState, batches: list[Batch], checks: Checks) -> None:
        """The first pass is checked; every later pass must reproduce it."""
        first = batches[0]
        n = len(state.paths)
        for b, batch in enumerate(batches):
            for i, got in enumerate(batch.outputs):
                label = f"pass {b} scene {i}" if i < n else f"pass {b} scoring"
                if i in batch.errors:
                    problems = [batch.errors[i]]
                elif b == 0:
                    problems = scene_problems(got[0], got[1], state.shapes[i]) if i < n else []
                else:
                    problems = [] if got == first.outputs[i] else ["output differs from the first pass"]
                checks.record(label, problems)
            if batch.errors:
                checks.record(f"pass {b} scoring", ["skipped after a failed scene"])

    def finish(self, state: DetectState, timed: list[Batch], seed: int, seconds: float, checks: Checks):
        results = timed[0].outputs[:len(state.paths)]
        fields = {
            "quality": quality_of(pipeline.summarize(results)),
            "detections_sha256": sha256_text(detections_text([r[1] for r in results])),
        }
        return [b.latencies for b in timed], [b.pass_seconds for b in timed], fields["quality"], fields


# -- training workload -----------------------------------------------------


@dataclass
class TrainState:
    corpus: synthetic.Corpus
    scenes: list
    config: object
    workdir: str
    reference: dict
    # grayscale latency passes of the stored models over the test scenes
    passes: list = field(default_factory=list)
    pass_seconds: list = field(default_factory=list)
    reference_results: list | None = None


def bootstrap_validator(corpus, cascade, config, tracer: Tracer, label: str):
    """Validator bootstrap of scripts/run_experiment.py: ground-truth and
    matched crops against the cascade's false alarms on the train split."""
    pos_crops, matched_crops, fp_crops = [], [], []
    for i, scene in enumerate(corpus.train):
        with tracer.phase("bootstrap.scene", group=f"{label}:train{i}"):
            dets, _ = pipeline.detect_faces(scene.gray, cascade, config)
            for box in scene.faces:
                pos_crops.append(pipeline.crop_square(scene.gray, box, config.base_window))
            for det in dets:
                box = (det.x, det.y, det.w, det.h)
                crop = pipeline.crop_square(scene.gray, box, det.w)
                if all(detect.iou(box, t) < 0.5 for t in scene.faces):
                    fp_crops.append(crop)
                else:
                    matched_crops.append(crop)
    fp_crops = fp_crops[:MAX_FP_CROPS]
    positives = pos_crops + matched_crops
    features = np.stack([lbp.validation_feature(c) for c in positives + fp_crops])
    labels = np.concatenate([np.ones(len(positives)), -np.ones(len(fp_crops))])
    model = svm_mod.train_svm(features, labels, reg=config.svm_reg, epochs=config.svm_epochs, seed=config.seed)
    threshold = pipeline.pick_svm_threshold(model, matched_crops, config, keep_fraction=0.99)
    return model, threshold


def score_models(scenes, cascade, model, config):
    """Per scene (cascade detections, validated detections, truth, stats), as
    ``pipeline.evaluate_images`` gives them, with per-scene latency."""
    results, latencies = [], []
    for scene in scenes:
        t0 = time.perf_counter()
        dets, stats = pipeline.detect_faces(scene.gray, cascade, config)
        kept, _ = validate.validate_detections(dets, scene.gray, model, config.svm_threshold, config.block_weights)
        latencies.append(time.perf_counter() - t0)
        results.append((dets, kept, scene.faces, stats))
    return results, latencies


class TrainWorkload:
    """Cascade training plus validator bootstrap, with grayscale latency
    passes around it and a quality pass of the fresh models after it."""

    def setup(self, seed: int, workdir: str, n_scenes: int) -> TrainState:
        corpus = synthetic.build_corpus(
            seed=REFERENCE_SEED, n_train=3 * n_scenes, n_test=n_scenes, n_pool=n_scenes
        )
        with open(os.path.join(REFERENCE_DIR, "reference.json"), encoding="ascii") as fh:
            reference = json.load(fh)
        config = synthetic.experiment_config(seed=REFERENCE_SEED)
        return TrainState(corpus, gray_scenes(seed, n_scenes), config, workdir, reference)

    def batch(self, state: TrainState, tracer: Tracer, label: str) -> Batch:
        config = state.config
        corpus = state.corpus
        started = time.perf_counter()
        with tracer.phase("train.cascade", group=f"{label}:cascade"):
            cascade = boost.train_cascade(
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
        with tracer.phase("train.bootstrap", group=f"{label}:bootstrap"):
            model, threshold = bootstrap_validator(corpus, cascade, config, tracer, label)
        return Batch(time.perf_counter() - started, [(cascade, model, threshold)])

    def warmup(self, state: TrainState, checks: Checks, seconds: float) -> None:
        """The first half of the grayscale latency passes. The second half
        follows the training, so the two windows see different moments of
        a shared machine. Nothing is warmed up for the training itself:
        users pay for it once per run."""
        self.latency_passes(state, seconds / 2, checks)

    def latency_passes(self, state: TrainState, seconds: float, checks: Checks) -> None:
        """Stored reference models over the test scenes, for ``seconds``."""
        cascade, model, config = load_reference()
        started = time.perf_counter()
        window = 0
        while window < MIN_LATENCY_PASSES or time.perf_counter() - started < seconds:
            t0 = time.perf_counter()
            results, latencies = score_models(state.scenes, cascade, model, config)
            state.pass_seconds.append(time.perf_counter() - t0)
            state.passes.append(latencies)
            window += 1
            if state.reference_results is None:
                state.reference_results = results
            else:
                checks.record(f"latency pass {len(state.passes) - 1}", [] if results == state.reference_results
                              else ["output differs from the first pass"])

    def model_files(self, state: TrainState, batch: Batch) -> dict[str, str]:
        cascade, model, threshold = batch.outputs[0]
        cascade_path = os.path.join(state.workdir, "cascade.txt")
        svm_path = os.path.join(state.workdir, "svm.txt")
        boost.save_cascade(cascade, cascade_path)
        svm_mod.save_svm(model, svm_path)
        with open(cascade_path, encoding="ascii") as c, open(svm_path, encoding="ascii") as s:
            return {"cascade": c.read(), "svm": s.read(), "threshold": repr(threshold)}

    def check(self, state: TrainState, batches: list[Batch], checks: Checks) -> None:
        first = self.model_files(state, batches[0])
        for b, batch in enumerate(batches[1:], 1):
            same = self.model_files(state, batch) == first
            checks.record(f"training {b}", [] if same else ["models differ from the first training"])

    def finish(self, state: TrainState, timed: list[Batch], seed: int, seconds: float, checks: Checks):
        """The second half of the latency passes; then the fresh models,
        as written to disk, scored on the test scenes and checked against
        the acceptance floors."""
        self.latency_passes(state, seconds / 2, checks)
        files = self.model_files(state, timed[0])
        cascade = boost.load_cascade(os.path.join(state.workdir, "cascade.txt"))
        model = svm_mod.load_svm(os.path.join(state.workdir, "svm.txt"))
        config = state.config.override(svm_threshold=timed[0].outputs[0][2])
        results, _ = score_models(state.scenes, cascade, model, config)
        for i, ((dets, kept, _truth, _stats), scene) in enumerate(zip(results, state.scenes)):
            checks.record(f"test scene {i}", scene_problems(dets, kept, scene.gray.shape))
        quality = quality_of(pipeline.summarize(results))
        floors = []
        if quality["cascade_dr_pct"] < FLOOR_CASCADE_DR:
            floors.append(f"cascade detection rate {quality['cascade_dr_pct']:.1f}% < {FLOOR_CASCADE_DR}%")
        cascade_fp = quality["counts"]["cascade"][2]
        if quality["false_positives"] > FLOOR_FP_SHARE * cascade_fp:
            floors.append(f"validated FPs {quality['false_positives']} > {FLOOR_FP_SHARE} x {cascade_fp}")
        dr_cost = quality["cascade_dr_pct"] - quality["detection_rate_pct"]
        if dr_cost > FLOOR_DR_COST:
            floors.append(f"validation costs {dr_cost:.1f} pp detection rate > {FLOOR_DR_COST} pp")
        checks.record("acceptance floors", floors)

        ref = state.reference
        fields = {"quality": quality}
        for key in ("cascade", "svm", "threshold"):
            fields[f"{key}_sha256"] = sha256_text(files[key])
        fields["detections_sha256"] = sha256_text(detections_text([r[1] for r in results]))
        if len(state.scenes) == SCENES:
            for key in ("cascade", "svm", "threshold"):
                fields[f"{key}_matches_reference"] = fields[f"{key}_sha256"] == ref[f"{key}_sha256"]
            if seed == REFERENCE_SEED:
                fields["detections_match_reference"] = fields["detections_sha256"] == ref["detections_sha256"]
        return state.passes, state.pass_seconds, quality, fields


WORKLOADS = {
    "detect_skin": DetectWorkload(),
    "train": TrainWorkload(),
}
