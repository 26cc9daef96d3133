import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facedet.detect import Detection, iou, pairwise_iou
from facedet.evaluate import (
    ManifestError,
    detection_rate,
    false_alarm_rate,
    load_manifest,
    match_detections,
    roc_sweep,
)
from facedet.pipeline import report, summarize
from oracles import as_detections, match_detections_oracle, roc_sweep_oracle


def det(x, y, w, h, score=1.0):
    return Detection(x, y, w, h, score)


# boxes on a coarse lattice and scores from a short list: equal scores,
# identical boxes and truth boxes that several detections reach are common
lattice_rows = st.builds(
    Detection,
    st.integers(0, 3).map(lambda v: 4 * v),
    st.integers(0, 3).map(lambda v: 4 * v),
    st.sampled_from([8, 10, 12]),
    st.sampled_from([8, 10, 12]),
    st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
)
truth_lists = st.lists(
    st.tuples(
        st.integers(0, 3).map(lambda v: 4 * v),
        st.integers(0, 12),
        st.sampled_from([8, 10, 12]),
        st.sampled_from([8, 10, 12]),
    ),
    max_size=4,
)


class TestManifest:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("")
        assert load_manifest(path) == []

    def test_two_box_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("img.pgm 2 10 10 24 24 50 50 30 30\n")
        (entry,) = load_manifest(path)
        assert entry.path.endswith("img.pgm")
        assert entry.boxes == [(10, 10, 24, 24), (50, 50, 30, 30)]

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# header\n\nimg.pgm 1 0 0 8 8  # trailing\n")
        assert len(load_manifest(path)) == 1

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("img.pgm x 1 2 3 4", ":1"),
            ("img.pgm 2 1 2 3 4", ":1"),
            ("img.pgm 1 1 2 3", ":1"),
            ("img.pgm 1 0 0 0 4", ":1"),
            ("img.pgm 1 67108864 0 1 1", ":1"),
            ("img.pgm 1 0 -67108864 1 1", ":1"),
            ("img.pgm 1 0 0 1 67108864", ":1"),
            ("img.pgm 1 0 0 99999999999999999999 1", ":1"),
        ],
    )
    def test_malformed_lines_name_the_line(self, tmp_path, line, fragment):
        path = tmp_path / "m.txt"
        path.write_text(line + "\n")
        with pytest.raises(ManifestError) as err:
            load_manifest(path)
        assert fragment in str(err.value)

    def test_error_reports_correct_line_number(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("a.pgm 0\n# comment\nb.pgm 1 0 0 4\n")
        with pytest.raises(ManifestError) as err:
            load_manifest(path)
        assert ":3" in str(err.value)

    def test_mask_manifest_attaches_paths(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("a.pgm 0\nb.pgm 0\n")
        masks = tmp_path / "masks.txt"
        masks.write_text("a.pgm a_mask.pgm\n")
        loaded = load_manifest(manifest, masks)
        assert loaded[0].mask_path.endswith("a_mask.pgm")
        assert loaded[1].mask_path is None


    def test_mask_manifest_matches_normalized_image_paths(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("scene.ppm 0\n./sub/b.ppm 0\n")
        masks = tmp_path / "masks.txt"
        masks.write_text("./scene.ppm scene_mask.pgm\nsub/../sub/b.ppm b_mask.pgm\n")
        loaded = load_manifest(manifest, masks)
        assert [e.mask_path for e in loaded] == [str(tmp_path / "scene_mask.pgm"), str(tmp_path / "b_mask.pgm")]
        masks.write_text("scene.ppm a_mask.pgm\n./scene.ppm other.pgm\n")
        with pytest.raises(ManifestError) as err:
            load_manifest(manifest, masks)
        assert str(err.value) == f"{masks}:2: image './scene.ppm' already has a mask on line 1"

    def test_mask_manifest_line_naming_no_image_is_an_error(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("a.ppm 0\nb.ppm 0\na.ppm 0\n")
        masks = tmp_path / "masks.txt"
        masks.write_text("a.ppm a_mask.pgm\n# typo\nc.ppm c_mask.pgm\n")
        with pytest.raises(ManifestError) as err:
            load_manifest(manifest, masks)
        assert str(err.value) == f"{masks}:3: image 'c.ppm' is not in {manifest}"
        masks.write_text("a.ppm a_mask.pgm\n")
        loaded = load_manifest(manifest, masks)
        assert [e.mask_path for e in loaded] == [str(tmp_path / "a_mask.pgm"), None, str(tmp_path / "a_mask.pgm")]

    def test_boxes_below_the_field_limit_keep_an_exact_iou(self, tmp_path):
        # below 2^26 every area and union is exact in float64: pairwise_iou equals iou
        path = tmp_path / "m.txt"
        limit = 1 << 26
        path.write_text(f"a.pgm 2 {1 - limit} {1 - limit} {limit - 1} {limit - 1} 0 0 {limit - 1} 1\n")
        (entry,) = load_manifest(path)
        assert pairwise_iou(entry.boxes, entry.boxes).tolist() == [[iou(a, b) for b in entry.boxes] for a in entry.boxes]

    def test_mask_manifest_rejects_a_repeated_image(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("a.pgm 0\nb.pgm 0\n")
        masks = tmp_path / "masks.txt"
        masks.write_text("a.pgm a_mask.pgm\nb.pgm b_mask.pgm\n\na.pgm other.pgm\n")
        with pytest.raises(ManifestError) as err:
            load_manifest(manifest, masks)
        assert str(err.value) == f"{masks}:4: image 'a.pgm' already has a mask on line 1"
        # the mask manifest is checked before the image manifest is read
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "unread.txt", masks)


class TestMatchDetections:
    def test_identical_box_is_a_hit(self):
        assert match_detections(as_detections([det(10, 10, 20, 20)]), [(10, 10, 20, 20)]) == (1, 0, 0)

    def test_disjoint_boxes(self):
        assert match_detections(as_detections([det(0, 0, 10, 10)]), [(40, 40, 10, 10)]) == (0, 1, 1)

    def test_two_detections_one_truth(self):
        truth = [(10, 10, 20, 20)]
        a = det(10, 10, 20, 20, score=2.0)
        b = det(12, 12, 20, 20, score=1.0)
        assert match_detections(as_detections([a, b]), truth) == (1, 0, 1)
        assert match_detections(as_detections([b, a]), truth) == (1, 0, 1)

    def test_iou_threshold_respected(self):
        truth = [(0, 0, 10, 10)]
        shifted = as_detections([det(6, 0, 10, 10)])  # IoU = 40/160 = 0.25
        assert match_detections(shifted, truth, iou_min=0.5) == (0, 1, 1)
        assert match_detections(shifted, truth, iou_min=0.2) == (1, 0, 0)

    def test_hits_plus_misses_equals_truth_count(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            dets = [
                det(int(rng.integers(0, 40)), int(rng.integers(0, 40)), 10, 10, float(rng.normal()))
                for _ in range(int(rng.integers(0, 8)))
            ]
            truth = [
                (int(rng.integers(0, 40)), int(rng.integers(0, 40)), 10, 10)
                for _ in range(int(rng.integers(0, 5)))
            ]
            hits, misses, fps = match_detections(as_detections(dets), truth)
            assert hits + misses == len(truth)
            assert hits + fps == len(dets)

    @given(st.integers(0, 1 << 30))
    @settings(max_examples=40, deadline=None)
    def test_equal_score_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        dets = [
            det(int(rng.integers(0, 30)), int(rng.integers(0, 30)), 12, 12, 1.0)
            for _ in range(6)
        ]
        truth = [
            (int(rng.integers(0, 30)), int(rng.integers(0, 30)), 12, 12) for _ in range(3)
        ]
        reference = match_detections(as_detections(dets), truth)
        for _ in range(5):
            rng.shuffle(dets)
            assert match_detections(as_detections(dets), truth) == reference

    @given(st.lists(lattice_rows, max_size=12), truth_lists, st.sampled_from([0.1, 0.3, 0.5, 1.0]))
    # the first detection has IoU 1/3 with both truth boxes and takes the
    # first: the second detection then finds none left at 0.3
    @example([det(4, 0, 8, 8, 2.0), det(0, 0, 8, 8, 1.0)], [(0, 0, 8, 8), (8, 0, 8, 8)], 0.3)
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_oracle_property(self, rows, truth, iou_min):
        got = match_detections(as_detections(rows), truth, iou_min)
        assert got == match_detections_oracle(rows, truth, iou_min)

    def test_invalid_iou_min(self):
        with pytest.raises(ValueError):
            match_detections(as_detections([]), [], iou_min=0.0)


class TestRates:
    def test_reference_rates(self):
        assert detection_rate(5001, 478) == pytest.approx(91.28, abs=0.005)
        assert detection_rate(5046, 451) == pytest.approx(91.80, abs=0.005)
        assert detection_rate(0, 5) == 0.0

    def test_zero_faces_rejected(self):
        with pytest.raises(ValueError):
            detection_rate(0, 0)

    def test_false_alarm_rate(self):
        assert false_alarm_rate(0, 123) == 0.0
        assert false_alarm_rate(5, 50) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            false_alarm_rate(1, 0)


class TestRocSweep:
    def _per_image(self, rng, images=6):
        out = []
        for _ in range(images):
            truth = [
                (int(rng.integers(0, 40)), int(rng.integers(0, 40)), 12, 12)
                for _ in range(int(rng.integers(1, 3)))
            ]
            dets = []
            for tb in truth:
                if rng.uniform() < 0.8:
                    dets.append(det(tb[0], tb[1], 12, 12, float(rng.normal(2.0))))
            for _ in range(int(rng.integers(0, 3))):
                dets.append(
                    det(int(rng.integers(0, 40)), int(rng.integers(0, 40)), 12, 12,
                        float(rng.normal(0.0)))
                )
            out.append((as_detections(dets), truth))
        return out

    def test_single_threshold_equals_direct_run(self):
        rng = np.random.default_rng(51)
        per_image = self._per_image(rng)
        threshold = 0.5
        curve = roc_sweep(per_image, [threshold])
        hits = fps = total = 0
        for dets, truth in per_image:
            h, _, f = match_detections(dets[dets.score >= threshold], truth)
            hits += h
            fps += f
            total += len(truth)
        assert curve.points == [(threshold, hits / total, fps / len(per_image))]

    def test_threshold_below_all_scores_is_unfiltered_point(self):
        rng = np.random.default_rng(52)
        per_image = self._per_image(rng)
        low = min(d.score for dets, _ in per_image for d in dets) - 1.0
        curve = roc_sweep(per_image, [low])
        hits = fps = total = 0
        for dets, truth in per_image:
            h, _, f = match_detections(dets, truth)
            hits += h
            fps += f
            total += len(truth)
        assert curve.points[0][1] == pytest.approx(hits / total)
        assert curve.points[0][2] == pytest.approx(fps / len(per_image))

    def test_threshold_above_all_scores_is_origin(self):
        rng = np.random.default_rng(53)
        per_image = self._per_image(rng)
        high = max(d.score for dets, _ in per_image for d in dets) + 1.0
        curve = roc_sweep(per_image, [high])
        assert curve.points[-1][1:] == (0.0, 0.0)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(54)
        per_image = self._per_image(rng, images=10)
        scores = sorted(d.score for dets, _ in per_image for d in dets)
        curve = roc_sweep(per_image, scores + [scores[-1] + 1])
        tprs = [p[1] for p in curve.points]
        fpis = [p[2] for p in curve.points]
        assert all(a >= b for a, b in zip(tprs, tprs[1:]))
        assert all(a >= b for a, b in zip(fpis, fpis[1:]))

    def test_deduplicates_identical_operating_points(self):
        per_image = [(as_detections([det(0, 0, 10, 10, 5.0)]), [(0, 0, 10, 10)])]
        curve = roc_sweep(per_image, [0.0, 1.0, 2.0])
        assert len(curve.points) == 1

    @given(
        st.lists(st.tuples(st.lists(lattice_rows, max_size=8), truth_lists), min_size=1, max_size=4),
        st.lists(st.sampled_from([-2.0, -1.0, 0.0, 0.25, 0.5, 1.0, 2.0]), max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_threshold_oracle_property(self, images, thresholds):
        thresholds.sort()
        got = roc_sweep([(as_detections(rows), truth) for rows, truth in images], thresholds)
        assert got == roc_sweep_oracle(images, thresholds)

    def test_unsorted_thresholds_rejected(self):
        with pytest.raises(ValueError):
            roc_sweep([(as_detections([]), [])], [1.0, 0.5])


def counts(cascade, validated=(0, 0, 0)):
    """A ``summarize`` dict of these (hits, misses, false positives) and no evaluated window."""
    return {"cascade": list(cascade), "validated": list(validated), "total_windows": 0, "evaluated_windows": 0}


class TestReports:
    """``pipeline.report``, the results table of ``facedet eval`` and of the experiment script."""

    def test_renders_reference_rows(self):
        text = report(counts((474, 31, 142), (472, 33, 87)), validated=True)
        lines = text.splitlines()
        assert " ".join(lines[1].split()) == "Adaboost Cascade 474 31 142 94"
        assert " ".join(lines[2].split()) == "Cascade + validation 472 33 87 93"
        for col in ("Method", "Hits", "Misses", "False positives", "Detection rate (%)"):
            assert col in lines[0]
        # columns align: every cell of a column ends at the same offset
        assert len({len(line) for line in lines}) == 1

    def test_single_row(self):
        text = report(counts((10, 2, 5)), validated=False)
        assert len(text.splitlines()) == 2
        assert " ".join(text.splitlines()[1].split()) == "Adaboost Cascade 10 2 5 83"

    def test_csv_variant_keeps_exact_rates(self):
        lines = report(counts((5046, 451, 97)), validated=False, csv=True).splitlines()
        assert lines[0] == "method,hits,misses,false_positives,detection_rate"
        assert lines[1].startswith("Adaboost Cascade,5046,451,97,91.795")

    @pytest.mark.parametrize("validated", [False, True])
    @pytest.mark.parametrize("csv", [False, True])
    def test_summary_of_no_images_gives_na_rows(self, validated, csv):
        # a summary always gives one row, and a second with a validator
        lines = report(summarize([]), validated, csv).splitlines()
        assert len(lines) == 2 + validated
        assert all(line.endswith(",nan" if csv else " n/a") for line in lines[1:])
