import re
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from facedet import pipeline
from facedet.cli import _common_flags, main
from facedet.config import PipelineConfig, load_config_file
from facedet.images import to_grayscale
from facedet.netpbm import read_pgm, write_pgm, write_ppm
from facedet.synthetic import SKIN_MIX, build_corpus, face_patch, render_color_scene, write_corpus

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


class TestConfig:
    def test_defaults_are_valid(self):
        config = PipelineConfig()
        assert config.stages == 15
        assert config.target_dr == 0.99
        assert config.base_window == 24

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("stages = 5\nscale_factor = 1.5\nequalize = true\n# comment\n")
        config = load_config_file(path)
        assert config.stages == 5
        assert config.scale_factor == 1.5
        assert config.equalize is True

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("stagez = 5\n")
        with pytest.raises(ValueError) as err:
            load_config_file(path)
        assert "stagez" in str(err.value)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(scale_factor=1.0)
        with pytest.raises(ValueError):
            PipelineConfig(block_weights=(1.0,) * 4)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"svm_threshold": float("nan")},
            {"sobel_threshold": float("inf")},
            {"scale_factor": float("nan")},
            {"svm_reg": float("-inf")},
            {"block_weights": (1.0, 1.0, 1.0, 1.0, float("nan"), 1.0, 1.0, 1.0, 1.0)},
        ],
        ids=["nan-threshold", "inf-sobel", "nan-scale", "neg-inf-reg", "nan-block-weight"],
    )
    def test_non_finite_values_rejected(self, overrides):
        name = next(iter(overrides))
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PipelineConfig(**overrides)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PipelineConfig().override(**overrides)

    def test_non_finite_file_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("block_weights = 1,1,1,1,nan,1,1,1,1\n")
        with pytest.raises(ValueError, match="block_weights must be finite"):
            load_config_file(path)

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("stages = 3\n# more\nstages = 4\n")
        with pytest.raises(ValueError, match=r"run\.cfg:3: config key 'stages' already set on line 1"):
            load_config_file(path)

    @pytest.mark.parametrize(
        "base, line, expected",
        [
            ({"svm_threshold": np.float64(0.5)}, "svm_threshold = 1.5", 1.5),
            ({"stages": np.int64(4)}, "stages = 3", 3),
            ({"sobel_threshold": 50}, "sobel_threshold = 50.5", 50.5),
        ],
        ids=["numpy-float-base", "numpy-int-base", "int-base-of-a-float-field"],
    )
    def test_file_values_take_the_field_type_not_the_base_value_type(self, tmp_path, base, line, expected):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        (name, value), = base.items()
        loaded = getattr(load_config_file(path, PipelineConfig(**base)), name)
        assert loaded == expected and type(loaded) is type(getattr(PipelineConfig(), name))

    def test_block_weights_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("block_weights = 1,1,1,2,2,2,1,1,1\n")
        assert load_config_file(path).block_weights == (1, 1, 1, 2, 2, 2, 1, 1, 1)

    def test_flags_beat_config_file(self, tmp_path, capsys):
        # precedence: defaults < file < flags, observable via --help-run output
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min_area = 7\nsobel_threshold = 50\n")
        blue = np.zeros((40, 40, 3), dtype=np.uint8)
        blue[..., 2] = 200
        img = tmp_path / "b.ppm"
        write_ppm(img, blue)
        from facedet.cli import _build_config
        import argparse

        ns = argparse.Namespace(config=str(cfg), min_area=9, block_weights=None)
        built = _build_config(ns)
        assert built.min_area == 9  # flag wins
        assert built.sobel_threshold == 50  # file wins over default
        assert built.stages == 15  # default survives

    @pytest.mark.parametrize("name", [f.name for f in fields(PipelineConfig)])
    def test_every_field_has_a_flag_that_reaches_the_config(self, name, tmp_path):
        flag = "--" + name.replace("_", "-")
        default = getattr(PipelineConfig(), name)
        if isinstance(default, bool):
            value, args = True, [flag]
        elif isinstance(default, tuple):
            value = tuple(float(v) for v in range(1, 10))
            args = [flag, ",".join(map(str, value))]
        else:
            # default + 1 for integers; halfway to 1 is valid for every float
            value = default + 1 if isinstance(default, int) else (default + 1) / 2
            args = [flag, str(value)]
        assert value != default
        img = tmp_path / "b.ppm"
        write_ppm(img, np.zeros((30, 30, 3), dtype=np.uint8))
        with mock.patch.object(pipeline, "segment_image", wraps=pipeline.segment_image) as segment:
            assert main(["segment", *args, "--in", str(img), "--out", str(tmp_path / "m.pgm")]) == 0
        assert segment.call_args.args[1] == PipelineConfig().override(**{name: value})

    def test_block_weights_flag_parses_nine_values(self):
        from facedet.cli import _build_config
        import argparse

        ns = argparse.Namespace(config=None, block_weights="1,2,3,4,5,6,7,8,9")
        assert _build_config(ns).block_weights == (1, 2, 3, 4, 5, 6, 7, 8, 9)


def skin_disk_image(h=60, w=60, radius=18):
    """Skin-toned disk on an equal-luma blue background: the chroma rule
    sees the disk exactly while the gray image is edge-free."""
    ys, xs = np.indices((h, w))
    disk = (xs - w / 2 + 0.5) ** 2 + (ys - h / 2 + 0.5) ** 2 <= radius**2
    rgb = np.empty((h, w, 3), dtype=np.float64)
    v = 190.0
    background = (129, 129, 235)  # same BT.601 luma as the skin tone below
    for c, mix in enumerate(SKIN_MIX):
        rgb[..., c] = np.where(disk, v * mix, background[c])
    return np.clip(rgb, 0, 255).astype(np.uint8), disk


class TestSegmentCommand:
    def test_disk_ratio_matches_geometry(self, tmp_path, capsys):
        rgb, disk = skin_disk_image()
        img = tmp_path / "disk.ppm"
        out = tmp_path / "mask.pgm"
        write_ppm(img, rgb)
        assert main(["segment", "--in", str(img), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        ratio = float(printed.split("skin_ratio=")[1].split()[0])
        expected = 100.0 * disk.sum() / disk.size
        assert abs(ratio - expected) <= 2.0
        mask = read_pgm(out)
        assert set(np.unique(mask)) <= {0, 255}

    def test_black_image_gives_zero_ratio(self, tmp_path, capsys):
        img = tmp_path / "black.ppm"
        write_ppm(img, np.zeros((40, 40, 3), dtype=np.uint8))
        assert main(["segment", "--in", str(img), "--out", str(tmp_path / "m.pgm")]) == 0
        assert "skin_ratio=0 " in capsys.readouterr().out

    def test_missing_file_exits_2_and_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.ppm"
        code = main(["segment", "--in", str(missing), "--out", str(tmp_path / "m.pgm")])
        assert code == 2
        assert "nope.ppm" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config_text, flags, message",
        [
            ("svm_threshold = nan\n", [], "svm_threshold must be finite, got nan"),
            ("stages = 3\nstages = 4\n", [], "run.cfg:2: config key 'stages' already set on line 1"),
            ("", ["--svm-threshold", "nan"], "svm_threshold must be finite, got nan"),
            ("", ["--block-weights", "1,1,1,1,nan,1,1,1,1"], "block_weights must be finite"),
        ],
        ids=["nan-in-file", "repeated-key", "nan-flag", "nan-block-weights-flag"],
    )
    def test_bad_config_exits_2_with_one_line(self, tmp_path, capsys, config_text, flags, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text)
        code = main(["segment", "--config", str(cfg), *flags, "--in", str(tmp_path / "x.ppm"),
                     "--out", str(tmp_path / "m.pgm")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("facedet: error: ") and message in err

    @pytest.mark.parametrize(
        "config_text, message",
        [
            ("stages = x\n", "bad.cfg:1: stages: expected an integer, got 'x'"),
            ("seed = 1\nmin_area = 2.5\n", "bad.cfg:2: min_area: expected an integer, got '2.5'"),
            ("equalize = maybe\n", "bad.cfg:1: equalize: expected a boolean, got 'maybe'"),
            ("# comment\n\noverlap = lots\n", "bad.cfg:3: overlap: expected a number, got 'lots'"),
            ("block_weights = 1,1,1,1,x,1,1,1,1\n",
             "bad.cfg:1: block_weights: expected comma-separated numbers, got '1,1,1,1,x,1,1,1,1'"),
            ("block_weights = 1,,1\n", "bad.cfg:1: block_weights: expected comma-separated numbers, got '1,,1'"),
            ("svm_threshold =\n", "bad.cfg:1: svm_threshold: expected a number, got ''"),
            # values that parse but fail validation; a cross-field check has no one line
            ("seed = 1\nstages = 0\n", "bad.cfg:2: stages must be >= 1"),
            ("overlap = 1.5\n", "bad.cfg:1: overlap must be in (0, 1)"),
            ("median_radius = 16\n", "bad.cfg:1: median_radius must be in [0, 15]"),
            ("sobel_threshold = inf\n", "bad.cfg:1: sobel_threshold must be finite, got inf"),
            ("cb_min = 200\n", "bad.cfg: cb interval must be non-empty"),
        ],
        ids=["int", "int-from-float", "bool", "float", "tuple", "tuple-empty-item", "empty-value",
             "out-of-range", "out-of-range-float", "out-of-range-median", "not-finite", "cross-field"],
    )
    def test_unparsable_value_names_file_line_and_key(self, tmp_path, capsys, config_text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config_text)
        code = main(["segment", "--config", str(cfg), "--in", str(tmp_path / "x.ppm"),
                     "--out", str(tmp_path / "m.pgm")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"facedet: error: {cfg}:{message.split(':', 1)[1]}\n"

    @pytest.mark.parametrize(
        "weights, message",
        [
            ("1,x,1", "--block-weights: expected comma-separated numbers, got '1,x,1'"),
            ("1,,1", "--block-weights: expected comma-separated numbers, got '1,,1'"),
            ("nan", "block_weights must be finite, got (nan,)"),
        ],
        ids=["not-a-number", "empty-item", "nan"],
    )
    def test_bad_block_weights_flag_exits_2_with_one_line(self, tmp_path, capsys, weights, message):
        code = main(["segment", "--block-weights", weights, "--in", str(tmp_path / "x.ppm"),
                     "--out", str(tmp_path / "m.pgm")])
        assert code == 2
        assert capsys.readouterr().err == f"facedet: error: {message}\n"

    def test_gray_input_rejected(self, tmp_path, capsys):
        img = tmp_path / "g.pgm"
        write_pgm(img, np.zeros((30, 30), dtype=np.uint8))
        assert main(["segment", "--in", str(img), "--out", str(tmp_path / "m.pgm")]) == 2


def build_tiny_corpus(root, rng):
    pos_dir = root / "pos"
    neg_dir = root / "neg"
    pos_dir.mkdir()
    neg_dir.mkdir()
    for i in range(25):
        write_pgm(pos_dir / f"p{i:03d}.pgm", face_patch(rng, 24))
    for i in range(50):
        write_pgm(neg_dir / f"n{i:03d}.pgm", rng.integers(0, 200, size=(24, 24)).astype(np.uint8))
    scene = rng.integers(0, 120, size=(70, 90)).astype(np.uint8)
    scene[20:44, 30:54] = face_patch(rng, 24)
    img = root / "scene.pgm"
    write_pgm(img, scene)
    manifest = root / "test.txt"
    manifest.write_text("scene.pgm 1 30 20 24 24\n")
    return pos_dir, neg_dir, img, manifest


TRAIN_FLAGS = ["--stages", "2", "--feature-subsample", "400", "--max-stumps", "4"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(60)
    pos_dir, neg_dir, img, manifest = build_tiny_corpus(root, rng)
    model = root / "cascade.txt"
    svm = root / "svm.txt"
    code = main(
        ["train", "--pos", str(pos_dir), "--neg", str(neg_dir), "--out", str(model),
         "--svm-out", str(svm), "--seed", "1", *TRAIN_FLAGS]
    )
    assert code == 0
    return {"root": root, "pos": pos_dir, "neg": neg_dir, "img": img,
            "manifest": manifest, "model": model, "svm": svm}


class TestTrainDetectEval:
    def test_train_prints_stage_metadata(self, workspace, capsys):
        another = workspace["root"] / "again.txt"
        code = main(
            ["train", "--pos", str(workspace["pos"]), "--neg", str(workspace["neg"]),
             "--out", str(another), "--seed", "1", *TRAIN_FLAGS]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stage 0: dr=" in out and "fpr=" in out

    def test_train_prints_each_stage_rates_on_the_ci_corpus(self, tmp_path, capsys):
        # the seed-3 corpus and flags of the CI step: its stage lines are the
        # only training output that is not written to a file
        paths = write_corpus(build_corpus(seed=3, n_train=20, n_test=5), str(tmp_path))
        code = main(
            ["train", "--pos", paths["pos"], "--neg", paths["neg"], "--pool", paths["pool"],
             "--out", str(tmp_path / "cascade.txt"), "--stages", "2", "--feature-subsample", "300", "--seed", "3"]
        )
        assert code == 0
        assert capsys.readouterr().out == "stage 0: dr=1 fpr=0.177083333\nstage 1: dr=1 fpr=0.260416667\n"

    @pytest.mark.parametrize(
        "odd, named",
        [("neg/n007.pgm", "neg/n007.pgm"), ("pos/p000.pgm", "pos/p000.pgm"), ("*/*.pgm", "pos/p000.pgm")],
        ids=["negative", "first-positive", "every-tile"],
    )
    def test_tile_of_another_size_is_a_one_line_error(self, workspace, tmp_path, capsys, odd, named):
        # the first tile that is not base_window square is named, whatever the others are
        for kind in ("pos", "neg"):
            (tmp_path / kind).mkdir()
            for tile in workspace[kind].iterdir():
                (tmp_path / kind / tile.name).write_bytes(tile.read_bytes())
        for path in tmp_path.glob(odd):
            write_pgm(path, np.zeros((20, 20), np.uint8))
        code = main(["train", "--pos", str(tmp_path / "pos"), "--neg", str(tmp_path / "neg"),
                     "--out", str(tmp_path / "cascade.txt"), *TRAIN_FLAGS])
        message = f"{tmp_path / named}: tile is 20x20, expected 24x24 (base_window)"
        assert code == 2 and capsys.readouterr().err == f"facedet: error: {message}\n"

    def test_same_seed_is_byte_identical(self, workspace):
        again = workspace["root"] / "rep.txt"
        main(["train", "--pos", str(workspace["pos"]), "--neg", str(workspace["neg"]),
              "--out", str(again), "--seed", "1", *TRAIN_FLAGS])
        assert again.read_bytes() == workspace["model"].read_bytes()

    def test_detect_writes_candidates_and_annotation(self, workspace, capsys):
        out = workspace["root"] / "dets.txt"
        ppm = workspace["root"] / "annotated.ppm"
        code = main(
            ["detect", "--cascade", str(workspace["model"]), "--image", str(workspace["img"]),
             "--out", str(out), "--annotate", str(ppm)]
        )
        assert code == 0
        assert "evaluated_windows=" in capsys.readouterr().out
        for line in out.read_text().splitlines():
            fields = line.split()
            assert len(fields) == 5
            int(fields[0]), float(fields[4])
        assert ppm.exists()

    def test_validation_output_is_subset(self, workspace):
        plain = workspace["root"] / "plain.txt"
        validated = workspace["root"] / "validated.txt"
        main(["detect", "--cascade", str(workspace["model"]), "--image", str(workspace["img"]),
              "--svm", str(workspace["svm"]), "--no-validate", "--out", str(plain)])
        main(["detect", "--cascade", str(workspace["model"]), "--image", str(workspace["img"]),
              "--svm", str(workspace["svm"]), "--out", str(validated)])
        plain_lines = plain.read_text().splitlines()
        validated_lines = validated.read_text().splitlines()
        assert set(validated_lines) <= set(plain_lines)

    def test_no_validate_equals_cascade_only(self, workspace):
        a = workspace["root"] / "a.txt"
        b = workspace["root"] / "b.txt"
        main(["detect", "--cascade", str(workspace["model"]), "--image", str(workspace["img"]),
              "--out", str(a)])
        main(["detect", "--cascade", str(workspace["model"]), "--image", str(workspace["img"]),
              "--svm", str(workspace["svm"]), "--no-validate", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_detect_determinism(self, workspace):
        a = workspace["root"] / "d1.txt"
        b = workspace["root"] / "d2.txt"
        for path in (a, b):
            main(["detect", "--cascade", str(workspace["model"]),
                  "--image", str(workspace["img"]), "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_skinless_color_image_evaluates_no_windows(self, workspace, capsys):
        blue = np.zeros((60, 60, 3), dtype=np.uint8)
        blue[..., 2] = 200
        img = workspace["root"] / "blue.ppm"
        write_ppm(img, blue)
        out = workspace["root"] / "blue_dets.txt"
        code = main(["detect", "--cascade", str(workspace["model"]), "--image", str(img),
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "detections=0" in printed
        assert "evaluated_windows=0" in printed
        assert out.read_text() == ""

    def test_image_smaller_than_window_rejected(self, workspace, capsys):
        tiny = workspace["root"] / "tiny.pgm"
        write_pgm(tiny, np.zeros((10, 10), dtype=np.uint8))
        code = main(["detect", "--cascade", str(workspace["model"]), "--image", str(tiny),
                     "--out", str(workspace["root"] / "t.txt")])
        assert code == 2
        assert "smaller" in capsys.readouterr().err

    @pytest.mark.parametrize("side, code", [(47, 0), (45, 2)])
    def test_downscaled_size_counts_the_pixels_kept(self, workspace, capsys, side, code):
        # --downscale 2 keeps ceil(side / 2) pixels per side: 24 fill the
        # 24px window, 23 do not
        img = workspace["root"] / f"side{side}.pgm"
        write_pgm(img, np.random.default_rng(side).integers(0, 256, size=(side, side), dtype=np.uint8))
        assert main(["detect", "--cascade", str(workspace["model"]), "--image", str(img),
                     "--downscale", "2", "--out", str(workspace["root"] / f"side{side}.txt")]) == code
        out, err = capsys.readouterr()
        if code:
            assert err == f"facedet: error: {img}: preprocessed image 23x23 is smaller than the 24px model window\n"
        else:
            assert "total_windows=1" in out and err == ""

    @pytest.mark.parametrize(
        "flag, huge", [("--scale-factor", "1e308"), ("--step", "99999999999999999999"), ("--step", "1" + "0" * 400)],
        ids=["scale-1e308", "step-1e20", "step-1e400"],
    )
    def test_huge_scale_factor_or_step_scans_as_the_image_side(self, workspace, capsys, flag, huge):
        # the 90 x 70 scene: a factor of 91 stops the pyramid after one level,
        # and a step of 91 places one window per level, as any larger one does
        runs = []
        for value in (huge, "91"):
            out = workspace["root"] / f"huge_{len(runs)}.txt"
            assert main(["detect", "--cascade", str(workspace["model"]), "--image", str(workspace["img"]),
                         flag, value, "--out", str(out)]) == 0
            runs.append((capsys.readouterr(), out.read_bytes()))
        assert runs[0] == runs[1]

    def test_bad_cascade_file_exits_2_with_one_line(self, workspace, capsys):
        bad = workspace["root"] / "bad.txt"
        lines = workspace["model"].read_text().splitlines()
        bad.write_text("\n".join(lines[:-1]) + "\n")  # drop the last stump
        code = main(["detect", "--cascade", str(bad), "--image", str(workspace["img"]),
                     "--out", str(workspace["root"] / "bad_dets.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("facedet: error: ") and "bad.txt" in err

    def test_nan_svm_weight_exits_2_with_one_line(self, workspace, capsys):
        bad = workspace["root"] / "nan_svm.txt"
        lines = workspace["svm"].read_text().splitlines()
        lines[1] = "nan"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["detect", "--cascade", str(workspace["model"]), "--image", str(workspace["img"]),
                     "--svm", str(bad), "--out", str(workspace["root"] / "nan_dets.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("facedet: error: ") and "nan_svm.txt:2: non-finite" in err

    def test_eval_prints_table_and_roc(self, workspace, capsys):
        roc = workspace["root"] / "roc.csv"
        code = main(
            ["eval", "--cascade", str(workspace["model"]), "--svm", str(workspace["svm"]),
             "--manifest", str(workspace["manifest"]), "--roc", str(roc)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Adaboost Cascade" in out
        assert "Cascade + validation" in out
        assert "false_alarm_rate[" in out
        lines = roc.read_text().splitlines()
        assert all(len(l.split(",")) == 3 for l in lines)
        thresholds = [float(l.split(",")[0]) for l in lines]
        assert thresholds == sorted(thresholds)

    def test_eval_csv_variant(self, workspace, capsys):
        code = main(
            ["eval", "--cascade", str(workspace["model"]), "--manifest",
             str(workspace["manifest"]), "--csv"]
        )
        assert code == 0
        assert "method,hits,misses,false_positives,detection_rate" in capsys.readouterr().out

    def test_eval_duplicate_mask_manifest_key_exits_2_with_one_line(self, workspace, capsys):
        masks = workspace["root"] / "masks_dup.txt"
        masks.write_text("scene.pgm a.pgm\n# again\nscene.pgm b.pgm\n")
        code = main(["eval", "--cascade", str(workspace["model"]), "--manifest", str(workspace["manifest"]),
                     "--mask-manifest", str(masks)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"facedet: error: {masks}:3: image 'scene.pgm' already has a mask on line 1\n"
        )

    def test_eval_background_only_manifest_counts_false_alarms(self, workspace, capsys):
        background = workspace["root"] / "background.pgm"
        write_pgm(background, np.random.default_rng(61).integers(0, 256, size=(70, 90), dtype=np.uint8))
        manifest = workspace["root"] / "background.txt"
        manifest.write_text("background.pgm 0\n")
        roc = workspace["root"] / "background_roc.csv"
        flags = ["--cascade", str(workspace["model"]), "--svm", str(workspace["svm"]), "--manifest", str(manifest)]
        assert main(["eval", *flags, "--roc", str(roc)]) == 0
        table = capsys.readouterr().out.splitlines()
        for line, name in zip(table[1:3], ("Adaboost Cascade", "Cascade + validation")):
            hits, misses, _fps, rate = line[len(name):].split()
            assert line.startswith(name) and (hits, misses, rate) == ("0", "0", "n/a")
        assert sum(line.startswith("false_alarm_rate[") for line in table) == 2
        assert roc.read_text() and all(line.split(",")[1] == "0" for line in roc.read_text().splitlines())
        assert main(["eval", *flags, "--csv"]) == 0
        csv = capsys.readouterr().out.splitlines()
        assert csv[1].startswith("Adaboost Cascade,0,0,") and csv[1].endswith(",nan")
        assert csv[2].startswith("Cascade + validation,0,0,") and csv[2].endswith(",nan")

    def test_eval_mask_of_wrong_size_names_both_files(self, workspace, capsys):
        mask = workspace["root"] / "small_mask.pgm"
        write_pgm(mask, np.full((30, 40), 255, dtype=np.uint8))
        masks = workspace["root"] / "masks_small.txt"
        masks.write_text("scene.pgm small_mask.pgm\n")
        code = main(["eval", "--cascade", str(workspace["model"]), "--manifest", str(workspace["manifest"]),
                     "--mask-manifest", str(masks)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"facedet: error: {mask}: skin mask is 40x30, but image {workspace['img']} is 90x70\n"
        )

    def test_eval_finds_a_mask_named_by_another_spelling_of_the_path(self, workspace, capsys):
        # an all-zero mask gates every window away: no windows, no false-alarm rates
        write_pgm(workspace["root"] / "zero_mask.pgm", np.zeros((70, 90), dtype=np.uint8))
        masks = workspace["root"] / "masks_dot.txt"
        masks.write_text("./scene.pgm zero_mask.pgm\n")
        flags = ["--cascade", str(workspace["model"]), "--manifest", str(workspace["manifest"]), "--csv"]
        assert main(["eval", *flags]) == 0
        assert "false_alarm_rate[" in capsys.readouterr().out
        assert main(["eval", *flags, "--mask-manifest", str(masks)]) == 0
        out = capsys.readouterr().out
        assert "false_alarm_rate[" not in out and out.splitlines()[1] == "Adaboost Cascade,0,1,0,0"

    def test_eval_mask_line_naming_no_manifest_image_exits_2_with_one_line(self, workspace, capsys):
        masks = workspace["root"] / "masks_stray.txt"
        masks.write_text("scene.pgm mask.pgm\n/elsewhere/scene.pgm mask.pgm\n")
        code = main(["eval", "--cascade", str(workspace["model"]), "--manifest", str(workspace["manifest"]),
                     "--mask-manifest", str(masks)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"facedet: error: {masks}:2: image '/elsewhere/scene.pgm' is not in {workspace['manifest']}\n"
        )

    def test_eval_box_field_out_of_range_exits_2_with_one_line(self, workspace, capsys):
        manifest = workspace["root"] / "huge_box.txt"
        manifest.write_text("# one face\nscene.pgm 1 4 2 99999999999999999999 24\n")
        for command in (["eval"], ["roc", "--out", str(workspace["root"] / "huge_roc.csv")]):
            code = main([*command, "--cascade", str(workspace["model"]), "--manifest", str(manifest)])
            assert code == 2
            assert capsys.readouterr().err == (
                f"facedet: error: {manifest}:2: box 0 has a field of magnitude 67108864 or more\n"
            )

    def test_roc_subcommand(self, workspace, capsys):
        # roc is eval --roc without --csv: the same report and the same curve file
        flags = ["--cascade", str(workspace["model"]), "--svm", str(workspace["svm"]), "--manifest", str(workspace["manifest"])]
        out, eval_out = workspace["root"] / "roc2.csv", workspace["root"] / "eval_roc2.csv"
        assert main(["roc", *flags, "--out", str(out)]) == 0
        roc_stdout = capsys.readouterr().out
        assert main(["eval", *flags, "--roc", str(eval_out)]) == 0
        assert roc_stdout == capsys.readouterr().out and "Cascade + validation" in roc_stdout
        assert out.read_bytes() == eval_out.read_bytes() and out.read_text()


@pytest.fixture(scope="module")
def color_set(tmp_path_factory):
    """Four colour scenes with faces on a skin-toned half, their manifest, an
    all-ones mask manifest, gray copies with theirs, and the reference models."""
    root = tmp_path_factory.mktemp("color")
    rng = np.random.default_rng(7)
    lines = []
    for i in range(4):
        rgb, scene = render_color_scene(rng, 160, 120, n_faces=2)
        write_ppm(root / f"c{i}.ppm", rgb)
        write_pgm(root / f"c{i}.pgm", to_grayscale(rgb))
        lines.append(f"c{i}.ppm {len(scene.faces)} " + " ".join(f"{x} {y} {w} {h}" for x, y, w, h in scene.faces))
    write_pgm(root / "ones.pgm", np.full((120, 160), 255, dtype=np.uint8))
    (root / "color.txt").write_text("\n".join(lines) + "\n")
    (root / "gray.txt").write_text("\n".join(line.replace(".ppm", ".pgm", 1) for line in lines) + "\n")
    (root / "ones.txt").write_text("".join(f"c{i}.ppm ones.pgm\n" for i in range(4)))
    return root, ["--cascade", str(REFERENCE / "cascade.txt"), "--svm", str(REFERENCE / "svm.txt")]


class TestColorEval:
    def test_eval_scans_each_colour_image_as_detect_does(self, color_set, capsys):
        root, models = color_set
        with mock.patch.object(pipeline, "summarize", wraps=pipeline.summarize) as summarize:
            assert main(["eval", *models, "--manifest", str(root / "color.txt")]) == 0
        (results,) = summarize.call_args.args
        assert sum(len(dets) for dets, *_ in results) > 0
        for i, (dets, validated, _truth, stats) in enumerate(results):
            assert 0 < stats.evaluated_windows < stats.total_windows  # gated by the segmentation
            for flags, want in ((["--no-validate"], dets), ([], validated)):
                out = root / f"d{i}.txt"
                assert main(["detect", *models, *flags, "--image", str(root / f"c{i}.ppm"), "--out", str(out)]) == 0
                assert np.array_equal(np.loadtxt(out, ndmin=2).reshape(-1, 5)[:, :4], want.boxes)
        capsys.readouterr()

    def test_all_ones_masks_give_the_ungated_scan(self, color_set, capsys):
        root, models = color_set
        runs = []
        for manifest in (["color.txt", "--mask-manifest", str(root / "ones.txt")], ["gray.txt"], ["color.txt"]):
            roc = root / "roc.csv"
            assert main(["eval", *models, "--manifest", str(root / manifest[0]), *manifest[1:], "--roc", str(roc)]) == 0
            runs.append((capsys.readouterr().out, roc.read_text()))
        assert runs[0] == runs[1] != runs[2]


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, capsys):
        assert main(["detect", "--bogus"]) == 1

    def test_missing_subcommand_exits_1(self, capsys):
        assert main([]) == 1

    def test_flags_are_those_of_the_hand_written_list(self):
        # every flag takes its name, type and default (None: unset) from its
        # field; the list is the one written by hand before the flags were
        # built from PipelineConfig
        ints = ["seed", "downscale", "median_radius", "cb_min", "cb_max", "cr_min", "cr_max", "min_area", "stages",
                "max_stumps", "base_window", "feature_subsample", "step", "min_neighbors", "svm_epochs"]
        floats = ["sobel_threshold", "target_dr", "max_fpr", "scale_factor", "min_skin_fraction", "overlap",
                  "svm_threshold", "svm_reg"]
        expected = {("--" + name.replace("_", "-"),): (name, kind, "_StoreAction")
                    for names, kind in ((ints, int), (floats, float)) for name in names}
        expected[("--config",)] = ("config", None, "_StoreAction")
        expected[("--block-weights",)] = ("block_weights", None, "_StoreAction")
        expected[("--equalize", "--no-equalize")] = ("equalize", None, "BooleanOptionalAction")
        actions = _common_flags()._actions
        assert {tuple(a.option_strings): (a.dest, a.type, type(a).__name__) for a in actions} == expected
        assert all(a.default is None and not a.required for a in actions)

    def test_help_shows_every_field_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["eval", "--help"])
        text = " ".join(capsys.readouterr().out.split()).split("pipeline configuration:")[1]
        for f in fields(PipelineConfig):
            shown = re.search(r"--" + f.name.replace("_", "-") + r"\b.*?\(default ([^)]*)\)", text).group(1)
            default = getattr(PipelineConfig(), f.name)
            assert shown == (",".join(map(str, default)) if isinstance(default, tuple) else str(default))

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--scale-factor", "--min-skin-fraction", "--svm-threshold", "--config"):
            assert flag in out
        assert "default" in out
