import contextlib
import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import facedet
from facedet import cli, detect, pipeline, validate

from facedet.boost import Cascade
from facedet.config import PipelineConfig
from facedet.detect import Detection, iou
from facedet.evaluate import match_detections
from facedet.images import crop_square, downscale, histogram_equalization, median_filter, to_grayscale
from facedet.lbp import DESCRIPTOR_LENGTH, descriptors
from facedet.netpbm import read_pgm, write_pgm, write_ppm
from facedet.pipeline import (
    detect_faces,
    evaluate_images,
    pick_svm_threshold,
    preprocess_gray,
    read_scene,
    segment_image,
    summarize,
)
from facedet.skin import extract_regions, skin_ratio
from facedet.svm import LinearSvmModel
from facedet.synthetic import SKIN_MIX, face_patch


class TestPreprocess:
    def test_disabled_by_default(self):
        rng = np.random.default_rng(70)
        img = rng.integers(0, 256, size=(30, 40), dtype=np.uint8)
        assert np.array_equal(preprocess_gray(img, PipelineConfig()), img)

    def test_applies_stages_in_order(self):
        rng = np.random.default_rng(71)
        img = rng.integers(0, 256, size=(40, 40), dtype=np.uint8)
        config = PipelineConfig(downscale=2, median_radius=1, equalize=True)
        expected = histogram_equalization(median_filter(downscale(img, 2), 1))
        assert np.array_equal(preprocess_gray(img, config), expected)


def skin_squares(h, w, squares):
    """An (h, w) blue image with skin-coloured (y, x, side) squares."""
    rgb = np.zeros((h, w, 3), dtype=np.uint8)
    rgb[..., 2] = 200
    for y, x, side in squares:
        for c, mix in enumerate(SKIN_MIX):
            rgb[y : y + side, x : x + side, c] = int(190.0 * mix)
    return rgb


def segment_summary(tmp_path, rgb, *flags):
    """``facedet segment``'s mask of ``rgb`` and its printed summary line."""
    write_ppm(tmp_path / "in.ppm", rgb)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["segment", "--in", str(tmp_path / "in.ppm"), "--out", str(tmp_path / "mask.pgm"), *flags]) == 0
    return read_pgm(tmp_path / "mask.pgm") > 0, out.getvalue()


class TestSegmentImage:
    def test_skin_block_found(self):
        rgb = skin_squares(40, 40, [(10, 8, 20)])
        mask = segment_image(rgb, PipelineConfig()).mask
        assert skin_ratio(mask) > 10.0
        (top,) = extract_regions(mask)
        assert abs(top.x - 8) <= 2 and abs(top.y - 10) <= 2

    def test_min_area_defaults_to_permille(self, tmp_path):
        # 200 x 300 pixels: a thousandth is 60, between the squares' areas
        rgb = skin_squares(200, 300, [(5, 20, 8), (60, 100, 12), (120, 200, 22)])
        mask, printed = segment_summary(tmp_path, rgb)
        assert sorted(r.area for r in extract_regions(mask)) == [36, 100, 400]
        assert printed == f"skin_ratio={skin_ratio(mask):.9g} regions=2\n"
        assert segment_summary(tmp_path, rgb, "--min-area", "1")[1].endswith(" regions=3\n")

    @pytest.mark.parametrize("min_area, areas", [(0, [36, 100, 400]), (1, [36, 100, 400]), (100, [100, 400]), (300, [400])])
    def test_lazy_regions_and_ratio_equal_eager_ones(self, tmp_path, min_area, areas):
        # segmentation computes neither; the segment command computes each once
        rgb = skin_squares(60, 80, [(5, 20, 8), (30, 10, 22), (20, 50, 12)])
        with mock.patch.object(cli, "extract_regions", wraps=extract_regions) as regions, \
                mock.patch.object(cli, "skin_ratio", wraps=skin_ratio) as ratio:
            mask, printed = segment_summary(tmp_path, rgb, "--min-area", str(min_area))
        assert (regions.call_count, ratio.call_count) == (1, 1)
        assert regions.call_args.args[1] == (min_area or max(1, round(mask.size * 0.001)))
        assert sorted(r.area for r in extract_regions(mask, regions.call_args.args[1])) == areas
        assert printed == f"skin_ratio={skin_ratio(mask):.9g} regions={len(areas)}\n"


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scenes")


class TestReadScene:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 40), st.integers(3, 40), st.integers(0, 1 << 30), st.booleans())
    def test_colour_gray_plane_is_to_grayscale(self, scene_dir, h, w, seed, gate):
        rgb = np.random.default_rng(seed).integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        write_ppm(scene_dir / "s.ppm", rgb)
        # gated, the Y plane of the segmentation serves: no second conversion
        with mock.patch.object(pipeline, "to_grayscale", wraps=to_grayscale) as converted:
            img, gray, skin = read_scene(str(scene_dir / "s.ppm"), PipelineConfig(), gate=gate)
        assert converted.call_count == (not gate)
        want = to_grayscale(rgb)
        assert np.array_equal(img, rgb) and gray.dtype == want.dtype and np.array_equal(gray, want)
        if gate:
            assert np.array_equal(skin, segment_image(rgb, PipelineConfig()).mask)
        else:
            assert skin is None

    def test_gate_is_the_mask_file_else_the_segmentation_of_colour(self, scene_dir):
        rgb = np.zeros((30, 40, 3), dtype=np.uint8)
        for c, mix in enumerate(SKIN_MIX):
            rgb[5:25, 5:20, c] = int(190.0 * mix)
        write_ppm(scene_dir / "c.ppm", rgb)
        write_pgm(scene_dir / "g.pgm", to_grayscale(rgb))
        mask = np.zeros((30, 40), dtype=np.uint8)
        mask[:, 30:] = 1
        write_pgm(scene_dir / "m.pgm", mask * 255)
        segmented = segment_image(rgb, PipelineConfig()).mask
        config = PipelineConfig()
        for path, mask_path, gate, want in [
            ("c.ppm", None, True, segmented),
            ("c.ppm", "m.pgm", True, mask),
            ("c.ppm", "m.pgm", False, mask),
            ("c.ppm", None, False, None),
            ("g.pgm", None, True, None),
            ("g.pgm", "m.pgm", True, mask),
        ]:
            mask_path = None if mask_path is None else str(scene_dir / mask_path)
            _img, gray, skin = read_scene(str(scene_dir / path), config, mask_path, gate)
            assert np.array_equal(gray, to_grayscale(rgb))
            assert (skin is None) if want is None else np.array_equal(skin, want)
        write_pgm(scene_dir / "small.pgm", mask[:20])
        with pytest.raises(ValueError, match=r"small\.pgm: skin mask is 40x20, but image .*c\.ppm is 40x30"):
            read_scene(str(scene_dir / "c.ppm"), config, str(scene_dir / "small.pgm"))


class TestDetectFaces:
    def test_downscale_maps_boxes_back(self, experiment):
        cascade = experiment["cascade"]
        scene = experiment["corpus"].test[0]
        config = experiment["config"]
        doubled = np.kron(scene.gray, np.ones((2, 2), dtype=np.uint8))
        dets_work, _ = detect_faces(scene.gray, cascade, config)
        dets_full, _ = detect_faces(doubled, cascade, config.override(downscale=2))
        assert [(d.x, d.y, d.w, d.h) for d in dets_full] == [
            (d.x * 2, d.y * 2, d.w * 2, d.h * 2) for d in dets_work
        ]
        assert [d.score for d in dets_full] == [d.score for d in dets_work]

    def test_downscaled_boxes_stay_inside_the_image(self):
        # 25 px at downscale 3 keeps 9 px, whose 8 px window maps back to
        # 24 px boxes; every one of them must be clipped to the 25 px input
        img = np.zeros((25, 25), dtype=np.uint8)
        config = PipelineConfig().override(base_window=8, downscale=3, step=1)
        dets, _ = detect_faces(img, Cascade(8, []), config)
        assert dets
        for d in dets:
            assert d.x >= 0 and d.y >= 0
            assert d.x + d.w <= 25 and d.y + d.h <= 25
        assert [(d.x, d.y, d.w, d.h) for d in dets] == [(3, 3, 22, 22)]

    def test_training_manifest_smoke(self, experiment):
        # detection rate on the training split itself clears the compounded
        # per-stage target (0.99^5)
        cascade = experiment["cascade"]
        config = experiment["config"]
        hits = misses = 0
        for scene in experiment["corpus"].train[:60]:
            dets, _ = detect_faces(scene.gray, cascade, config)
            h, m, _ = match_detections(dets, scene.faces)
            hits += h
            misses += m
        assert hits / (hits + misses) >= 0.99**5

    def test_validation_never_adds_detections(self, experiment):
        cascade = experiment["cascade"]
        config = experiment["config"]
        svm = experiment["svm"]
        scene = experiment["corpus"].test[1]
        plain, _ = detect_faces(scene.gray, cascade, config)
        validated, _ = detect_faces(scene.gray, cascade, config, svm=svm)
        assert set(validated) <= set(plain)


class TestBenchmarkContract:
    """What perfbench/workloads.py reads of the detections and the parameter
    names its hooks bind: a change to any of them breaks the benchmark."""

    @pytest.fixture(scope="class")
    def outputs(self, experiment):
        config = experiment["config"]
        for scene in experiment["corpus"].test:
            dets, _ = pipeline.detect_faces(scene.gray, experiment["cascade"], config)
            kept, rejected = validate.validate_detections(
                dets, scene.gray, experiment["svm"], config.svm_threshold, config.block_weights
            )
            if rejected and len(kept):
                return dets, kept
        pytest.fail("no test scene where validation keeps some detections and rejects others")

    def test_detections_read_as_rows(self, outputs):
        for dets in outputs:
            rows = list(dets)
            assert len(dets) == len(rows) > 0
            assert all(type(row) is Detection for row in rows)
            assert all(type(v) is int for row in rows for v in (row.x, row.y, row.w, row.h))
            assert all(type(row.score) is float for row in rows)

    def test_equality_is_a_plain_bool_and_rows_are_members(self, outputs):
        dets, kept = outputs
        assert (dets == dets) is True and (dets == kept) is False and (kept == dets[:]) is False
        assert ((dets, kept) == (dets[:], kept[:])) is True
        assert all(row in dets for row in kept) and not all(row in kept for row in dets)

    def test_detect_validate_match_build_no_rows(self, experiment):
        config = experiment["config"]
        scene = experiment["corpus"].test[0]
        with mock.patch.object(detect, "Detection", wraps=Detection) as rows:
            dets, _ = pipeline.detect_faces(scene.gray, experiment["cascade"], config)
            kept, _ = validate.validate_detections(dets, scene.gray, experiment["svm"], config.svm_threshold)
            match_detections(kept, scene.faces)
        assert len(dets) > 0 and rows.call_count == 0


class TestEvaluateImages:
    class Entry:
        def __init__(self, path, boxes):
            self.path = path
            self.boxes = boxes
            self.mask_path = None

    def _entries(self, tmp_path, experiment, count=6):
        from facedet.netpbm import write_pgm

        entries = []
        for i, scene in enumerate(experiment["corpus"].test[:count]):
            path = tmp_path / f"s{i}.pgm"
            write_pgm(path, scene.gray)
            entries.append(self.Entry(str(path), scene.faces))
        return entries

    def test_summary_counts_every_image_and_face(self, tmp_path, experiment):
        entries = self._entries(tmp_path, experiment)
        results = evaluate_images(entries, experiment["cascade"], experiment["config"], svm=experiment["svm"])
        summary = summarize(results)
        assert summary["images"] == len(entries)
        assert summary["cascade"][0] + summary["cascade"][1] == sum(
            len(e.boxes) for e in entries
        )

    def test_cold_cascade_matches_a_warm_one(self, tmp_path, experiment):
        # the scan compiles its corners and its plan into the cascade on first use
        entries = self._entries(tmp_path, experiment, count=8)
        warm = experiment["cascade"]
        config = experiment["config"]
        cold = Cascade(warm.base_window, warm.stages)
        assert evaluate_images(entries, cold, config) == evaluate_images(entries, warm, config)
        assert cold.programs and cold.plan


class TestBootstrapValidator:
    def test_trains_on_the_rows_validation_scores(self, experiment):
        # a detection's training row is the row validate_detections scores
        # for its box; only the ground-truth faces are cropped
        cascade, config, svm = experiment["cascade"], experiment["config"], experiment["svm"]
        scenes = experiment["corpus"].train[:40]
        with mock.patch.object(pipeline, "_train_validator", wraps=pipeline._train_validator) as trained, \
                mock.patch.object(pipeline, "crop_square", wraps=pipeline.crop_square) as crops:
            pipeline.bootstrap_validator(scenes, cascade, config)
        faces = [(scene.gray, box) for scene in scenes for box in scene.faces]
        assert crops.call_count == len(faces)
        scored, hits = [], []

        def described(*args):
            scored.append(descriptors(*args))
            return scored[-1]

        for scene in scenes:
            dets, _ = detect_faces(scene.gray, cascade, config)
            with mock.patch.object(validate, "descriptors", described):
                validate.validate_detections(dets, scene.gray, svm, config.svm_threshold, config.block_weights)
            hits += [any(iou((d.x, d.y, d.w, d.h), face) >= 0.5 for face in scene.faces) for d in dets]
        scored, hits = np.concatenate(scored), np.array(hits, dtype=bool)
        assert hits.any() and (~hits).any()
        rows, n_pos, _ = trained.call_args.args
        face_rows = pipeline._describe([crop_square(gray, box, config.base_window) for gray, box in faces], config)
        expected = np.concatenate([face_rows, scored[hits], scored[~hits][: pipeline.MAX_BOOTSTRAP_NEGATIVES]])
        assert n_pos == len(faces) + hits.sum() and np.array_equal(rows, expected)

    def test_describes_only_the_rows_it_trains_on(self, experiment):
        # on the seed-7 train split the cascade yields 2,424 detections, 530
        # of them faces; only the first MAX_BOOTSTRAP_NEGATIVES false alarms
        # train the SVM, so the others are never described
        cascade, config = experiment["cascade"], experiment["config"]
        original = pipeline.detect_faces
        detected, described = [], []

        def detect_spy(*args, **kwargs):
            detected.append(original(*args, **kwargs))
            return detected[-1]

        def describe_spy(gray, boxes, *args):
            described.append(len(boxes))
            return descriptors(gray, boxes, *args)

        with mock.patch.object(pipeline, "detect_faces", detect_spy), \
                mock.patch.object(pipeline, "descriptors", describe_spy):
            svm, threshold = pipeline.bootstrap_validator(experiment["corpus"].train, cascade, config)
        assert sum(len(dets) for dets, _ in detected) == 2424
        assert pipeline.MAX_BOOTSTRAP_NEGATIVES == 900 and sum(described) == 530 + 900
        assert np.array_equal(svm.weights, experiment["svm"].weights) and svm.bias == experiment["svm"].bias
        assert threshold == config.svm_threshold


class TestPickSvmThreshold:
    def test_keeps_requested_fraction(self, experiment):
        svm = experiment["svm"]
        config = experiment["config"]
        rng = np.random.default_rng(72)
        crops = [face_patch(rng, 24) for _ in range(100)]
        threshold = pick_svm_threshold(svm, crops, config, keep_fraction=0.95)
        from facedet.lbp import validation_feature

        passing = sum(
            float(svm.decision(validation_feature(c, config.block_weights))) >= threshold
            for c in crops
        )
        assert passing >= 95

    def test_no_crops_is_a_one_line_error(self):
        # a bootstrap whose cascade matched no face has no crops to rank
        svm = LinearSvmModel(np.zeros(DESCRIPTOR_LENGTH), 0.0)
        with pytest.raises(ValueError, match="^no positive crops to pick the validator threshold from$"):
            pick_svm_threshold(svm, [], PipelineConfig())


def _run_fresh(script: str) -> str:
    """stdout of ``script`` run in a fresh interpreter that imports this facedet."""
    env = {**os.environ, "PYTHONPATH": str(Path(facedet.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


# the scipy modules a fresh interpreter has loaded, as a sorted list
SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
# which of the two scipy submodules that facedet uses it has loaded
SUBMODULES = "[m for m in ('scipy.ndimage', 'scipy.sparse') if m in sys.modules]"


def test_detection_imports_no_scipy(tmp_path):
    # training builds its feature matrix with scipy.sparse, and only the median
    # filter and the region listing use scipy.ndimage; detection must load no
    # scipy module, since the two imports alone raise peak memory by about 20 and 25 MB
    out = _run_fresh(
        f"""
        import contextlib, io, sys
        import numpy as np
        import facedet
        from facedet import cli, netpbm, pipeline, synthetic
        from facedet.boost import Cascade, Stage, WeakClassifier, save_cascade
        from facedet.haar import HaarFeature
        from facedet.lbp import DESCRIPTOR_LENGTH
        from facedet.svm import LinearSvmModel, save_svm

        rgb, scene = synthetic.render_color_scene(np.random.default_rng(5), 160, 120, n_faces=2)
        config = synthetic.experiment_config(seed=5)
        stumps = [
            (WeakClassifier(HaarFeature("edge2v", 4, 4, 16, 12, 24), 0.0, 1), 1.0),
            (WeakClassifier(HaarFeature("tilted_edge2", 12, 2, 6, 8, 24), 0.0, -1), 1.0),
        ]
        cascade = Cascade(24, [Stage(stumps, 0.5)])
        skin = pipeline.segment_image(rgb, config).mask
        pipeline.detect_faces(scene.gray, cascade, config, skin=skin)
        svm = LinearSvmModel(np.zeros(DESCRIPTOR_LENGTH), 1.0)
        kept, _ = pipeline.detect_faces(scene.gray, cascade, config, skin=skin, svm=svm)

        tmp = {str(tmp_path)!r}
        save_cascade(cascade, tmp + "/cascade.txt")
        save_svm(svm, tmp + "/svm.txt")
        netpbm.write_ppm(tmp + "/scene.ppm", rgb)
        with open(tmp + "/scene.txt", "w") as fh:
            fh.write("scene.ppm " + str(len(scene.faces)) + " " + " ".join(map(str, np.ravel(scene.faces))) + "\\n")
        models = ["--cascade", tmp + "/cascade.txt", "--svm", tmp + "/svm.txt"]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                cli.main(["detect", *models, "--image", tmp + "/scene.ppm", "--out", tmp + "/dets.txt"]),
                cli.main(["eval", *models, "--manifest", tmp + "/scene.txt", "--roc", tmp + "/roc.csv"]),
            ]
        print({SCIPY_MODULES}, len(kept) > 0, codes)
        """
    )
    # the merged boxes of the gated scan reach the validator, and both commands succeed
    assert out.strip() == "[] True [0, 0]"
    assert (tmp_path / "dets.txt").read_text() and (tmp_path / "roc.csv").read_text()


@pytest.mark.parametrize(
    "script, expected",
    [
        pytest.param(
            """
            errors = []
            for call in (lambda: median_filter(img, 0), lambda: median_filter(np.stack([img] * 3, -1), 1),
                         lambda: extract_regions(img, 0)):
                try:
                    call()
                except ValueError as exc:
                    errors.append(str(exc))
            print(errors, {scipy})
            """,
            "['median radius must be >= 1, got 0', 'expected a non-empty (H, W) grayscale image', "
            "'min_area must be >= 1'] []",
            id="input-errors-load-nothing",
        ),
        pytest.param(
            """
            out = median_filter(img, 1)
            loaded = {loaded}
            from scipy import ndimage
            print(np.array_equal(out, ndimage.median_filter(img, size=3, mode="nearest")), loaded)
            """,
            "True ['scipy.ndimage']",
            id="median-filter",
        ),
        pytest.param(
            """
            out = preprocess_gray(img, PipelineConfig(median_radius=1))
            loaded = {loaded}
            from scipy import ndimage
            print(np.array_equal(out, ndimage.median_filter(img, size=3, mode="nearest")), loaded)
            """,
            "True ['scipy.ndimage']",
            id="preprocess-median",
        ),
        pytest.param(
            """
            mask = np.zeros((12, 12), dtype=np.uint8)
            mask[0:2, 0:2] = 1
            mask[5:9, 5:9] = 1
            print(extract_regions(mask, 1) == [Region(5, 5, 4, 4, 16, 1.0), Region(0, 0, 2, 2, 4, 1.0)], {loaded})
            """,
            "True ['scipy.ndimage']",
            id="extract-regions",
        ),
        pytest.param(
            """
            rng = np.random.default_rng(4)
            pos = [rng.integers(150, 256, size=(12, 12), dtype=np.uint8) for _ in range(10)]
            neg = [rng.integers(0, 100, size=(12, 12), dtype=np.uint8) for _ in range(20)]
            cascade = train_cascade(pos, neg, n_stages=1, base_window=12, feature_subsample=50, max_stumps=2)
            print(len(cascade.stages), {loaded})
            """,
            "1 ['scipy.sparse']",
            id="training",
        ),
    ],
)
def test_scipy_loads_with_the_function_that_needs_it(script, expected):
    # each lazy path loads its one scipy submodule, and only after its input checks
    header = """
        import sys
        import numpy as np
        from facedet import PipelineConfig
        from facedet.boost import train_cascade
        from facedet.images import median_filter
        from facedet.pipeline import preprocess_gray
        from facedet.skin import Region, extract_regions

        img = np.random.default_rng(6).integers(0, 256, size=(20, 30), dtype=np.uint8)
        """
    body = textwrap.dedent(script).format(scipy=SCIPY_MODULES, loaded=SUBMODULES)
    out = _run_fresh(textwrap.dedent(header) + body)
    assert out.strip() == expected
