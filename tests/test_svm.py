import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facedet.detect import Detection
from facedet.lbp import validation_feature
from facedet.svm import LinearSvmModel, load_svm, save_svm, svm_objective, train_svm
from facedet.validate import decision_values, validate_detections
from oracles import as_detections, validation_feature_oracle


def toy_features(rng, n=40, dim=8, margin=1.0):
    half = n // 2
    x = rng.normal(size=(n, dim))
    y = np.concatenate([np.ones(half), -np.ones(n - half)])
    x[:, 0] += margin * y
    return x, y


class TestTrainSvm:
    def test_separable_axis_points(self):
        x = np.zeros((2, 203))
        x[0, 3] = 1.0
        x[1, 7] = 1.0
        y = np.array([1.0, -1.0])
        model = train_svm(x, y, reg=1e-2, epochs=40, seed=0)
        assert model.decision(x[0]) > 0 > model.decision(x[1])

    def test_final_objective_never_exceeds_initial(self):
        rng = np.random.default_rng(40)
        for trial in range(5):
            x, y = toy_features(rng, n=30 + trial * 10, margin=0.2)
            reg = 10.0 ** rng.uniform(-4, -1)
            model = train_svm(x, y, reg=reg, epochs=10, seed=trial)
            initial = svm_objective(np.zeros(x.shape[1]), 0.0, x, y, reg)
            final = svm_objective(model.weights, model.bias, x, y, reg)
            assert final <= initial + 1e-12

    def test_duplicated_training_set_same_signs(self):
        rng = np.random.default_rng(41)
        x, y = toy_features(rng, n=40, margin=1.5)
        a = train_svm(x, y, reg=1e-3, epochs=25, seed=3)
        b = train_svm(np.vstack([x, x]), np.concatenate([y, y]), reg=1e-3, epochs=25, seed=3)
        assert np.array_equal(np.sign(a.decision(x)), np.sign(b.decision(x)))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(42)
        x, y = toy_features(rng)
        a = train_svm(x, y, seed=9)
        b = train_svm(x, y, seed=9)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_svm(np.zeros((4, 3)), np.ones(4))

    def test_decision_is_affine_in_features(self):
        rng = np.random.default_rng(44)
        x, y = toy_features(rng)
        model = train_svm(x, y, seed=1)
        v = rng.normal(size=x.shape[1])
        for c in (0.0, 0.5, 2.0, -3.0):
            lhs = model.decision(c * v) - model.bias
            rhs = c * (model.decision(v) - model.bias)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestDecision:
    @given(st.integers(0, 1 << 30), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_stack_equals_each_row_bit_for_bit(self, seed, n):
        # magnitudes over six decades, so that a sum in another order shows
        rng = np.random.default_rng(seed)
        model = LinearSvmModel(rng.normal(size=203) * 10.0 ** rng.uniform(-3, 3, 203), float(rng.normal()))
        stack = rng.normal(size=(n, 203)) * 10.0 ** rng.uniform(-3, 3, (n, 203))
        got = model.decision(stack)
        expected = np.array([model.decision(row) for row in stack], dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == expected.tobytes()


class TestModelFile:
    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(45)
        model = LinearSvmModel(rng.normal(size=203), float(rng.normal()))
        first = tmp_path / "svm.txt"
        second = tmp_path / "svm2.txt"
        save_svm(model, first)
        save_svm(load_svm(first), second)
        assert first.read_bytes() == second.read_bytes()
        loaded = load_svm(first)
        assert loaded.weights.shape == (203,)

    def test_header_and_bias_line(self, tmp_path):
        model = LinearSvmModel(np.zeros(203), 0.25)
        path = tmp_path / "svm.txt"
        save_svm(model, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "SVM v1 203"
        assert lines[-1] == "BIAS 0.25"
        assert len(lines) == 205

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("SVM v1 3\n1\n2\n")
        with pytest.raises(ValueError):
            load_svm(path)

    @pytest.mark.parametrize(
        "index, replacement, message",
        [
            (1, ["nan"], r":2: non-finite number 'nan'"),
            (7, ["inf"], r":8: non-finite number 'inf'"),
            (3, ["0.5x"], r":4: bad number '0\.5x'"),
            (204, ["BIAS nan"], r":205: non-finite number 'nan'"),
            (204, ["BIAS -inf"], r":205: non-finite number '-inf'"),
            (204, ["BIAS x"], r":205: bad number 'x'"),
            (0, ["SVM v1 x"], r":1: bad number 'x'"),
            (0, ["SVM v1 202"], r":1: 202 weights, the descriptor has 203"),
            (5, [], r": truncated after line 204"),
            (2, ["1 2"], r":3: expected one weight"),
            (204, ["0.25"], r":205: expected a BIAS line"),
            (205, ["0"], r":206: trailing line"),
        ],
        ids=[
            "nan-weight", "inf-weight", "bad-weight", "nan-bias", "inf-bias", "bad-bias",
            "bad-count", "wrong-count", "truncated", "two-weights", "missing-bias",
            "trailing-line",
        ],
    )
    def test_invalid_model_names_file_and_line(self, tmp_path, index, replacement, message):
        path = tmp_path / "svm.txt"
        save_svm(LinearSvmModel(np.linspace(-1.0, 1.0, 203), 0.25), path)
        lines = path.read_text().splitlines()
        lines[index : index + 1] = replacement
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(str(path)) + message):
            load_svm(path)

    def test_consistent_file_of_another_length_rejected(self, tmp_path):
        path = tmp_path / "svm204.txt"
        save_svm(LinearSvmModel(np.zeros(204), 0.0), path)
        with pytest.raises(ValueError, match=re.escape(str(path)) + r":1: 204 weights"):
            load_svm(path)


def train_texture_model(rng, n=60):
    """Model separating smooth crops from high-frequency ones."""
    pos, neg = [], []
    for _ in range(n):
        smooth = np.clip(rng.normal(128, 10, size=(24, 24)), 0, 255).astype(np.uint8)
        ys, xs = np.indices((24, 24))
        checker = np.where((xs + ys) % 2 == 0, 40, -40)
        noisy = np.clip(smooth.astype(int) + checker, 0, 255).astype(np.uint8)
        pos.append(smooth)
        neg.append(noisy)
    feats = np.stack([validation_feature(c) for c in pos + neg])
    labels = np.concatenate([np.ones(n), -np.ones(n)])
    return train_svm(feats, labels, reg=1e-3, epochs=20, seed=5), pos, neg


class TestValidateDetections:
    def test_empty_input(self):
        model = LinearSvmModel(np.zeros(203), 0.0)
        kept, rejected = validate_detections(as_detections([]), np.zeros((30, 30), dtype=np.uint8), model)
        assert list(kept) == [] and rejected == 0

    def test_threshold_below_minimum_keeps_all(self):
        rng = np.random.default_rng(46)
        model, _, _ = (None, None, None)
        model, pos, neg = train_texture_model(rng, n=20)
        img = rng.integers(0, 256, size=(60, 60), dtype=np.uint8)
        dets = as_detections(Detection(x, y, 24, 24, 1.0) for x, y in [(0, 0), (20, 20), (36, 30)])
        # decision values are bounded: |w.x| <= |w|_inf * |x|_1 <= max|w| * (1 + max weight)
        floor = -(np.abs(model.weights).sum() + abs(model.bias) + 1.0)
        kept, rejected = validate_detections(dets, img, model, threshold=floor)
        assert kept == dets and rejected == 0

    def test_early_exit_agrees_with_full_evaluation(self):
        rng = np.random.default_rng(47)
        model, pos, neg = train_texture_model(rng, n=30)
        img = rng.integers(0, 256, size=(80, 80), dtype=np.uint8)
        ys, xs = np.indices((80, 80))
        img[:, 40:] = np.clip(
            128 + np.where((xs + ys) % 2 == 0, 40, -40), 0, 255
        ).astype(np.uint8)[:, 40:]
        dets = []
        for _ in range(40):
            x = int(rng.integers(0, 80 - 24))
            y = int(rng.integers(0, 80 - 24))
            dets.append(Detection(x, y, 24, 24, 0.0))
        dets = as_detections(dets)
        for threshold in (-0.5, 0.0, 0.3):
            kept, rejected = validate_detections(dets, img, model, threshold=threshold)
            values = decision_values(dets, img, model)
            expected = [d for d, v in zip(dets, values) if v >= threshold]
            assert list(kept) == expected
            assert rejected == len(dets) - len(expected)

    def test_rejects_out_of_bounds_detection(self):
        model = LinearSvmModel(np.zeros(203), 0.0)
        img = np.zeros((30, 30), dtype=np.uint8)
        with pytest.raises(ValueError):
            validate_detections(as_detections([Detection(20, 20, 24, 24, 0.0)]), img, model)

    def test_separates_textures(self):
        rng = np.random.default_rng(48)
        model, pos, neg = train_texture_model(rng, n=40)
        correct = 0
        for crop in pos[:10]:
            correct += float(model.decision(validation_feature(crop))) > 0
        for crop in neg[:10]:
            correct += float(model.decision(validation_feature(crop))) < 0
        assert correct >= 18


def random_candidates(seed, n=12, side=60):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, size=(side, side)).astype(np.uint8)
    img[:, side // 2 :] //= 8  # a low-contrast half: other label statistics
    dets = []
    for _ in range(n):
        w = int(rng.integers(3, side + 1))
        h = int(rng.integers(3, side + 1))
        dets.append(Detection(int(rng.integers(0, side - w + 1)), int(rng.integers(0, side - h + 1)), w, h, 0.0))
    model = LinearSvmModel(rng.normal(size=203), float(rng.normal()))
    weights = rng.uniform(0.1, 2.0, 9) if rng.random() < 0.5 else None
    return img, as_detections(dets), model, weights


def weight_args(weights):
    """The block weights as a keyword, or none: None draws the default
    unit weights, which the unweighted oracle must match bit for bit."""
    return {} if weights is None else {"block_weights": weights}


class TestBatchedValidation:
    @given(st.integers(0, 1 << 30))
    @settings(max_examples=60, deadline=None)
    def test_decision_values_equal_per_crop_decisions(self, seed):
        img, dets, model, weights = random_candidates(seed)
        got = decision_values(dets, img, model, **weight_args(weights))
        expected = [
            float(model.decision(validation_feature_oracle(img[d.y : d.y + d.h, d.x : d.x + d.w], weights)))
            for d in dets
        ]
        assert got.dtype == np.float64 and got.tolist() == expected

    @given(st.integers(0, 1 << 30), st.data())
    @settings(max_examples=100, deadline=None)
    def test_keeps_exactly_the_full_evaluation_set_at_the_exit_boundary(self, seed, data):
        img, dets, model, weights = random_candidates(seed)
        crops = [validation_feature_oracle(img[d.y : d.y + d.h, d.x : d.x + d.w], weights) for d in dets]
        values = [float(model.decision(c)) for c in crops]
        fine_coeffs = model.weights[59:] * (1.0 if weights is None else np.repeat(weights, 16))
        bounds = [float(c[:59] @ model.weights[:59]) + model.bias + float(fine_coeffs.max()) for c in crops]
        anchor = data.draw(st.sampled_from(values + bounds), label="anchor")
        threshold = data.draw(
            st.sampled_from([anchor, np.nextafter(anchor, -np.inf), np.nextafter(anchor, np.inf),
                             anchor - 1e-9, anchor + 1e-9, anchor + 2e-9, anchor + 1e-3]),
            label="threshold",
        )
        kept, rejected = validate_detections(dets, img, model, threshold, **weight_args(weights))
        expected = [d for d, v in zip(dets, values) if v >= threshold]
        assert list(kept) == expected
        assert rejected == len(dets) - len(expected)

    @pytest.mark.parametrize("weights", [np.ones(3), np.ones(10)])
    def test_rejects_block_weights_of_wrong_shape(self, weights):
        img, dets, model, _ = random_candidates(5)
        with pytest.raises(ValueError, match="expected 9 fine-block weights"):
            validate_detections(dets, img, model, 0.0, weights)
        with pytest.raises(ValueError, match="expected 9 fine-block weights"):
            decision_values(dets, img, model, weights)

    def test_rejects_candidates_below_3x3(self):
        img, _, model, _ = random_candidates(6)
        for call in (decision_values, validate_detections):
            with pytest.raises(ValueError, match="smaller than 3x3"):
                call(as_detections([Detection(0, 0, 2, 9, 0.0)]), img, model)
