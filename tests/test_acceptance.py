"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success)."""

import hashlib
import importlib.util
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from facedet.boost import Cascade, load_cascade, save_cascade, train_stage
from facedet.config import PipelineConfig
from facedet.detect import detect_multiscale_counted, iou
from facedet.evaluate import match_detections, roc_sweep
from facedet.haar import KINDS, enumerate_kind
from facedet.images import resize_bilinear
from facedet.integral import integral_set
from facedet.lbp import descriptors, lbp_label_image, uniform_pattern_table, validation_feature
from facedet.netpbm import write_pgm, write_ppm
from facedet.pipeline import detect_faces, read_scene, summarize
from facedet.svm import load_svm, save_svm
from facedet.synthetic import Experiment, _place, experiment_config, render_color_scene, render_scene
from facedet.validate import decision_values, validate_detections
from facedet.cli import main as cli_main
from oracles import (
    _upright_sums,
    classify_skin_oracle,
    classify_window,
    eval_feature,
    evaluate_segmentation,
    rect_sum,
    rgb_to_ycbcr_oracle,
    scaled_parts,
    segmentation_report,
    tilted_rect_sum,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {description}")


def brute_rect(img, rect):
    x, y, w, h = rect
    return int(img[y : y + h, x : x + w].sum())


def brute_tilted(img, rect):
    x, y, w, h = rect
    return int(sum(int(img[y + i + j, x + i - j]) for i in range(w) for j in range(h)))


def test_criterion_1_integral_oracle():
    with criterion(1, "integral rect sums equal brute force (upright + tilted), < 5 s"):
        rng = np.random.default_rng(101)
        started = time.monotonic()
        for _ in range(1000):
            h = int(rng.integers(1, 17))
            w = int(rng.integers(1, 17))
            img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            iset = integral_set(img)
            rw = int(rng.integers(0, w + 1))
            rh = int(rng.integers(0, h + 1))
            rx = int(rng.integers(0, w - rw + 1))
            ry = int(rng.integers(0, h - rh + 1))
            assert rect_sum(iset, (rx, ry, rw, rh)) == brute_rect(img, (rx, ry, rw, rh))
            for _ in range(40):
                aw = int(rng.integers(1, w + 1))
                ah = int(rng.integers(1, h + 1))
                ax = int(rng.integers(0, w))
                ay = int(rng.integers(0, h))
                fits = (
                    ax - ah + 1 >= 0
                    and ax + aw - 1 <= w - 1
                    and ay + aw + ah - 2 <= h - 1
                )
                if fits:
                    assert tilted_rect_sum(iset, (ax, ay, aw, ah)) == brute_tilted(
                        img, (ax, ay, aw, ah)
                    )
                    break
        assert time.monotonic() - started < 5.0


def test_criterion_2_haar_feature_oracle():
    with criterion(2, "every feature kind equals weighted pixel-loop evaluation"):
        rng = np.random.default_rng(102)
        img = rng.integers(0, 256, size=(48, 48), dtype=np.uint8)
        iset = integral_set(img)
        for kind in KINDS:
            bank = enumerate_kind(kind, 24)
            for _ in range(30):
                feature = bank[int(rng.integers(0, len(bank)))]
                size = int(rng.integers(8, 25))
                x0 = int(rng.integers(0, 48 - size + 1))
                y0 = int(rng.integers(0, 48 - size + 1))
                total = 0
                for px, py, pw, ph, wt in scaled_parts(feature, size):
                    if feature.tilted:
                        total += wt * brute_tilted(img, (x0 + px, y0 + py, pw, ph))
                    else:
                        total += wt * brute_rect(img, (x0 + px, y0 + py, pw, ph))
                plain = eval_feature(feature, iset, x0, y0, size, variance_norm=False)
                assert plain == float(total)
                window = img[y0 : y0 + size, x0 : x0 + size].astype(np.float64)
                sigma = max(float(np.sqrt(window.var())), 1.0)
                normed = eval_feature(feature, iset, x0, y0, size, variance_norm=True)
                assert normed == pytest.approx(total / sigma, rel=1e-9, abs=1e-12)


def test_criterion_3_adaboost_round_identity():
    with criterion(3, "reweighted stump error is 0.5 +- 1e-9, weights sum to 1 +- 1e-12"):
        rng = np.random.default_rng(103)
        rounds_checked = 0
        for trial in range(8):
            values = rng.normal(size=(50, 200))
            labels = np.where(rng.uniform(size=200) + 0.15 * values[trial] > 0.5, 1, -1)
            if abs(int(labels.sum())) == 200:
                labels[0] = -labels[0]
            log = []
            train_stage(
                values, labels, sigma=np.ones(200), features=enumerate_kind("edge2h", 24)[:50],
                target_dr=0.95, max_fpr=0.0, max_stumps=15, round_log=log,
            )
            assert log
            for entry in log:
                assert entry["weight_sum"] == pytest.approx(1.0, abs=1e-12)
                assert entry["post_error"] == pytest.approx(0.5, abs=1e-9)
                rounds_checked += 1
        assert rounds_checked >= 40


def test_criterion_4_descriptor_dimensions():
    with criterion(4, "descriptor is 59 + 9*16 = 203; 58 uniform labels; 14x14 labels"):
        rng = np.random.default_rng(104)
        window = rng.integers(0, 256, size=(31, 31), dtype=np.uint8)
        vec = validation_feature(window)
        assert vec.shape == (203,)
        assert 203 == 59 + 9 * 16
        table = uniform_pattern_table()
        assert int((table < 58).sum()) == 58
        patch = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        assert lbp_label_image(patch).shape == (14, 14)
        # fine blocks at offsets {0, 4, 8} tile the 14-wide label image
        from facedet.lbp import FINE_BLOCK_OFFSETS

        assert FINE_BLOCK_OFFSETS == (0, 4, 8)
        assert descriptors(patch, [(0, 0, 16, 16)])[:, 59:].shape == (1, 144)


def test_criterion_5_segmentation_metric_oracle():
    with criterion(5, "confusion metrics match hand counts on 1000 random masks"):
        rng = np.random.default_rng(105)
        for _ in range(1000):
            h = int(rng.integers(1, 11))
            w = int(rng.integers(1, 11))
            pred = rng.integers(0, 2, size=(h, w), dtype=np.uint8)
            truth = rng.integers(0, 2, size=(h, w), dtype=np.uint8)
            tp = tn = fp = fn = 0
            for yy in range(h):
                for xx in range(w):
                    p, t = bool(pred[yy, xx]), bool(truth[yy, xx])
                    tp += p and t
                    tn += (not p) and (not t)
                    fp += p and not t
                    fn += (not p) and t
            m = evaluate_segmentation(pred, truth)
            assert (m.tp, m.tn, m.fp, m.fn) == (tp, tn, fp, fn)
            assert m.recall == pytest.approx(100 * tp / (tp + fn) if tp + fn else 0.0)
            assert m.precision == pytest.approx(100 * tp / (tp + fp) if tp + fp else 0.0)
            assert m.specificity == pytest.approx(100 * tn / (tn + fp) if tn + fp else 0.0)
            assert m.accuracy == pytest.approx(100 * (tp + tn) / (h * w))
        report = segmentation_report([("Proposed", m)])
        header = report.splitlines()[0]
        for column in ("Recall", "Precision", "Specificity", "Accuracy"):
            assert column in header


def test_criterion_6_scaled_end_to_end(experiment):
    with criterion(6, "5-stage cascade >= 90% DR; validation cuts FPs >= 30% at <= 2 pp"):
        config = experiment["config"]
        svm = experiment["svm"]
        cascade = experiment["cascade"]
        assert len(cascade.stages) == 5
        c_hits = c_misses = c_fps = 0
        v_hits = v_misses = v_fps = 0
        for scene, (dets, *_) in zip(experiment["corpus"].test, experiment["results"]):
            kept, _ = validate_detections(
                dets, scene.gray, svm, config.svm_threshold, config.block_weights
            )
            h, m, f = match_detections(dets, scene.faces, iou_min=0.5)
            c_hits, c_misses, c_fps = c_hits + h, c_misses + m, c_fps + f
            h, m, f = match_detections(kept, scene.faces, iou_min=0.5)
            v_hits, v_misses, v_fps = v_hits + h, v_misses + m, v_fps + f
        cascade_dr = 100.0 * c_hits / (c_hits + c_misses)
        validated_dr = 100.0 * v_hits / (v_hits + v_misses)
        print(
            f"\n  cascade: dr={cascade_dr:.1f}% fps={c_fps} | "
            f"validated: dr={validated_dr:.1f}% fps={v_fps} | "
            f"reduction={100.0 * (c_fps - v_fps) / c_fps:.1f}%"
        )
        assert cascade_dr >= 90.0
        assert c_fps > 0
        assert v_fps <= 0.7 * c_fps
        assert cascade_dr - validated_dr <= 2.0
        assert experiment["elapsed"] < 600.0


def test_criterion_7_skin_gating(experiment):
    with criterion(7, "gating evaluates <= 60% of windows; gated = ungated on skin"):
        cascade = experiment["cascade"]
        config = experiment["config"]
        rng = np.random.default_rng(107)
        evaluated_gated = 0
        evaluated_ungated = 0
        for _ in range(20):
            rgb, scene = render_color_scene(rng)
            mask = classify_skin_oracle(rgb_to_ycbcr_oracle(rgb), PipelineConfig())
            gated, gstats = detect_multiscale_counted(
                cascade,
                scene.gray,
                skin=mask,
                scale_factor=config.scale_factor,
                step=config.step,
                min_skin_fraction=config.min_skin_fraction,
            )
            ungated, ustats = detect_multiscale_counted(
                cascade, scene.gray, scale_factor=config.scale_factor, step=config.step
            )
            evaluated_gated += gstats.evaluated_windows
            evaluated_ungated += ustats.evaluated_windows
            mask_table = integral_set(mask, with_tilted=False).grid
            filtered = [
                d
                for d in ungated
                if _upright_sums(mask_table, d.x, d.y, d.w, d.h) / (d.w * d.h)
                >= config.min_skin_fraction
            ]
            assert list(gated) == filtered
        ratio = evaluated_gated / evaluated_ungated
        print(f"\n  gated evaluation ratio: {ratio:.3f}")
        assert ratio <= 0.60


def test_criterion_8_first_stage_rejection(experiment):
    with criterion(8, "first stage rejects >= 50% held-out negatives, passes >= 99% positives"):
        cascade = experiment["cascade"]
        corpus = experiment["corpus"]
        stage1 = Cascade(cascade.base_window, cascade.stages[:1])
        rng = np.random.default_rng(108)
        held_out = []
        while len(held_out) < 400:
            scene = render_scene(rng, n_faces=0, n_textured=0, n_rings=1)
            for _ in range(5):
                size = int(rng.integers(24, 60))
                box = _place(rng, [], size, 160, 120, margin=0)
                if box is None:
                    continue
                x, y, s, _ = box
                crop = scene.gray[y : y + s, x : x + s]
                held_out.append(crop if s == 24 else resize_bilinear(crop, 24, 24))
        held_out = held_out[:400]
        rejected = sum(
            not classify_window(stage1, integral_set(t), 0, 0, 24)[0] for t in held_out
        )
        passed = sum(
            classify_window(stage1, integral_set(t), 0, 0, 24)[0] for t in corpus.pos_tiles
        )
        rejection = rejected / len(held_out)
        pass_rate = passed / len(corpus.pos_tiles)
        print(f"\n  first-stage rejection={rejection:.1%} positive pass={pass_rate:.2%}")
        assert rejection >= 0.50
        assert pass_rate >= 0.99


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical seeds give byte-identical models and detections"):
        rng = np.random.default_rng(109)
        from facedet.synthetic import face_patch

        pos_dir = tmp_path / "pos"
        neg_dir = tmp_path / "neg"
        pos_dir.mkdir()
        neg_dir.mkdir()
        for i in range(25):
            write_pgm(pos_dir / f"p{i:03d}.pgm", face_patch(rng, 24))
        for i in range(50):
            write_pgm(
                neg_dir / f"n{i:03d}.pgm",
                rng.integers(0, 200, size=(24, 24)).astype(np.uint8),
            )
        scene = rng.integers(0, 120, size=(70, 90)).astype(np.uint8)
        scene[20:44, 30:54] = face_patch(rng, 24)
        img = tmp_path / "scene.pgm"
        write_pgm(img, scene)
        outputs = []
        for run in ("a", "b"):
            model = tmp_path / f"cascade_{run}.txt"
            svm = tmp_path / f"svm_{run}.txt"
            dets = tmp_path / f"dets_{run}.txt"
            assert (
                cli_main(
                    ["train", "--pos", str(pos_dir), "--neg", str(neg_dir), "--out",
                     str(model), "--svm-out", str(svm), "--seed", "3", "--stages", "2",
                     "--feature-subsample", "400", "--max-stumps", "4"]
                )
                == 0
            )
            assert (
                cli_main(
                    ["detect", "--cascade", str(model), "--svm", str(svm), "--image",
                     str(img), "--out", str(dets), "--seed", "3"]
                )
                == 0
            )
            outputs.append(
                (model.read_bytes(), svm.read_bytes(), dets.read_bytes())
            )
        assert outputs[0] == outputs[1]


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "reference.json"


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_fixture_cascade_is_the_benchmark_reference(experiment, tmp_path):
    # the fixture trains and bootstraps on the seed-7 corpus with the
    # arguments the benchmark uses, so its models and validator threshold
    # must be the stored reference
    save_cascade(experiment["cascade"], tmp_path / "cascade.txt")
    save_svm(experiment["svm"], tmp_path / "svm.txt")
    reference = json.loads(REFERENCE.read_text(encoding="ascii"))
    assert sha256_file(tmp_path / "cascade.txt") == reference["cascade_sha256"]
    assert sha256_file(tmp_path / "svm.txt") == reference["svm_sha256"]
    assert experiment["config"].svm_threshold == reference["threshold"]


# sha256 of "scene x y w h score" lines, score as repr(float), of the validated
# detections on the first 10 seed-7 colour scenes with the reference models
COLOUR_PATH_SHA256 = "e036a69ca600c09c296a4c1d3862faa5ec06d4ae9e7eb9e8fa820cce74ae1e6d"


def test_colour_path_detections_are_pinned(tmp_path):
    # what facedet detect does to a colour image: read, segment (skin gate
    # and gray plane), gated scan, merge, validation
    reference = json.loads(REFERENCE.read_text(encoding="ascii"))
    cascade = load_cascade(REFERENCE.parent / "cascade.txt")
    svm = load_svm(REFERENCE.parent / "svm.txt")
    config = experiment_config(reference["seed"]).override(svm_threshold=reference["threshold"])
    rng = np.random.default_rng(reference["seed"])
    lines = []
    for i in range(10):
        rgb, _ = render_color_scene(rng, 320, 240, n_faces=3)
        write_ppm(tmp_path / f"scene_{i}.ppm", rgb)
        _img, gray, skin = read_scene(str(tmp_path / f"scene_{i}.ppm"), config)
        dets, _ = detect_faces(gray, cascade, config, skin=skin, svm=svm)
        lines += [f"{i} {d.x} {d.y} {d.w} {d.h} {d.score!r}\n" for d in dets]
    assert len(lines) == 82
    assert hashlib.sha256("".join(lines).encode("ascii")).hexdigest() == COLOUR_PATH_SHA256


def run_experiment_script(experiment, argv, **replaced):
    """(exit code, mocked run_experiment) of scripts/run_experiment.py's main
    on ``argv``; the session experiment, with ``replaced`` fields, stands in
    for a second training."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_experiment.py"
    spec = importlib.util.spec_from_file_location("run_experiment_script", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    run = Experiment(**{f.name: replaced.get(f.name, experiment[f.name]) for f in fields(Experiment)})
    with mock.patch.object(script, "run_experiment", return_value=run) as runner, \
            mock.patch.object(sys, "argv", ["run_experiment.py", *argv]):
        return script.main(), runner


def test_run_experiment_script_reports_the_experiment(experiment, tmp_path, capsys):
    # the script prints and saves what run_experiment returns
    code, runner = run_experiment_script(experiment, ["--seed", "7", "--models", str(tmp_path)])
    assert code == 0
    runner.assert_called_once_with(seed=7, n_train=300, n_test=100)
    lines = capsys.readouterr().out.splitlines()
    # each stage's stumps and the rates it was trained to
    assert [line for line in lines if line.startswith("stage ")] == [
        "stage 0: stumps=2 dr=0.9960 fpr=0.1864",
        "stage 1: stumps=3 dr=0.9907 fpr=0.0503",
        "stage 2: stumps=4 dr=0.9947 fpr=0.0723",
        "stage 3: stumps=4 dr=0.9960 fpr=0.1814",
        "stage 4: stumps=4 dr=0.9947 fpr=0.1205",
    ]
    counts = summarize(experiment["results"])
    for name, key in (("Adaboost Cascade", "cascade"), ("Cascade + validation", "validated")):
        row = next(line for line in lines if line.startswith(name + " "))
        assert row.split()[-4:-1] == [str(n) for n in counts[key]]  # hits, misses, FPs
    reference = json.loads(REFERENCE.read_text(encoding="ascii"))
    assert sha256_file(tmp_path / "cascade.txt") == reference["cascade_sha256"]
    assert sha256_file(tmp_path / "svm.txt") == reference["svm_sha256"]


def test_run_experiment_script_without_test_scenes_reports_na(experiment, capsys):
    # --test 0 scores no scene: no faces, so both rates are n/a, not a crash
    code, runner = run_experiment_script(experiment, ["--test", "0"], results=[])
    assert code == 0
    runner.assert_called_once_with(seed=7, n_train=300, n_test=0)
    lines = capsys.readouterr().out.splitlines()
    for name in ("Adaboost Cascade", "Cascade + validation"):
        row = next(line for line in lines if line.startswith(name + " "))
        assert row.split()[-4:] == ["0", "0", "0", "n/a"]


def test_training_compiles_its_feature_set_once(experiment):
    # five stages and the positives read one compiled program
    assert len(experiment["cascade"].stages) == 5
    assert experiment["feature_compiles"] == 1


def test_criterion_10_roc_monotonicity(experiment):
    with criterion(10, "ROC sweep has non-increasing TPR and FP/image in threshold"):
        config = experiment["config"]
        svm = experiment["svm"]
        per_image_cascade = []
        per_image_validated = []
        for scene, (dets, *_) in zip(experiment["corpus"].test, experiment["results"]):
            per_image_cascade.append((dets, scene.faces))
            values = decision_values(dets, scene.gray, svm, config.block_weights)
            per_image_validated.append((replace(dets, score=values), scene.faces))
        for per_image in (per_image_cascade, per_image_validated):
            scores = sorted({d.score for dets, _ in per_image for d in dets})
            thresholds = scores[:: max(1, len(scores) // 40)] + [scores[-1] + 1.0]
            curve = roc_sweep(per_image, thresholds)
            tprs = [p[1] for p in curve.points]
            fpis = [p[2] for p in curve.points]
            assert all(a >= b for a, b in zip(tprs, tprs[1:]))
            assert all(a >= b for a, b in zip(fpis, fpis[1:]))
            assert len(curve.points) >= 5
