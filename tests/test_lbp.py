import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from facedet.images import crop_square
from facedet.lbp import (
    DESCRIPTOR_LENGTH,
    FINE_BLOCK_OFFSETS,
    UNIT_BLOCK_WEIGHTS,
    descriptors,
    lbp_label_image,
    uniform_pattern_table,
    validation_feature,
)
from oracles import coarse_histogram, fine_features, resize_to_16, validation_feature_oracle

NEIGHBORS = ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))

gray_images = arrays(np.uint8, st.tuples(st.integers(3, 12), st.integers(3, 12)))


def label_oracle(img, y, x):
    """Independent bit-by-bit 8-comparison label."""
    label = 0
    for bit, (dy, dx) in enumerate(NEIGHBORS):
        if img[y + dy, x + dx] >= img[y, x]:
            label |= 1 << bit
    return label


def transitions(label):
    bits = [(label >> i) & 1 for i in range(8)]
    return sum(bits[i] != bits[(i + 1) % 8] for i in range(8))


class TestLabelImage:
    def test_constant_image_labels_255(self):
        labels = lbp_label_image(np.full((5, 7), 31, dtype=np.uint8))
        assert labels.shape == (3, 5)
        assert np.all(labels == 255)

    def test_alternating_ring(self):
        # clockwise from top-left: 6,4,6,4,6,4,6,4 around center 5
        img = np.array([[6, 4, 6], [4, 5, 4], [6, 4, 6]], dtype=np.uint8)
        # ring order: TL=6, T=4, TR=6, R=4, BR=6, B=4, BL=6, L=4
        assert lbp_label_image(img)[0, 0] == 0b01010101 == 85

    @given(gray_images)
    @settings(max_examples=60, deadline=None)
    def test_matches_per_pixel_oracle(self, img):
        labels = lbp_label_image(img)
        h, w = img.shape
        for y in range(1, h - 1):
            for x in range(1, w - 1):
                assert labels[y - 1, x - 1] == label_oracle(img, y, x)

    def test_dimensions_lose_one_pixel_border(self):
        labels = lbp_label_image(np.zeros((16, 16), dtype=np.uint8))
        assert labels.shape == (14, 14)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            lbp_label_image(np.zeros((2, 5), dtype=np.uint8))

    @given(gray_images, st.integers(0, 1 << 30))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_monotone_remap(self, img, seed):
        # remap the values present in the image through a random strictly
        # increasing table; per-pixel comparisons are unchanged
        rng = np.random.default_rng(seed)
        present = np.unique(img)
        targets = np.sort(rng.choice(256, size=present.size, replace=False)).astype(np.uint8)
        lut = np.zeros(256, dtype=np.uint8)
        lut[present] = targets
        assert np.array_equal(lbp_label_image(lut[img]), lbp_label_image(img))


class TestUniformTable:
    def test_exactly_58_uniform_labels(self):
        table = uniform_pattern_table()
        assert (table < 58).sum() == 58
        assert table.shape == (256,)
        assert set(np.unique(table)) <= set(range(59))

    def test_matches_transition_count_oracle(self):
        table = uniform_pattern_table()
        uniform_sorted = [l for l in range(256) if transitions(l) <= 2]
        for rank, label in enumerate(uniform_sorted):
            assert table[label] == rank
        for label in range(256):
            if transitions(label) > 2:
                assert table[label] == 58

    def test_flat_labels_are_uniform_alternating_is_not(self):
        table = uniform_pattern_table()
        assert table[0] < 58
        assert table[255] < 58
        assert table[85] == 58


class TestCoarseHistogram:
    def test_constant_source_mass_on_255(self):
        labels = lbp_label_image(np.full((8, 8), 9, dtype=np.uint8))
        hist = coarse_histogram(labels)
        bin255 = uniform_pattern_table()[255]
        assert hist[bin255] == 36
        assert hist.sum() == 36

    @given(gray_images)
    @settings(max_examples=40, deadline=None)
    def test_conservation_and_tally_oracle(self, img):
        labels = lbp_label_image(img)
        hist = coarse_histogram(labels)
        assert hist.sum() == labels.size
        table = uniform_pattern_table()
        expected = np.zeros(59, dtype=np.int64)
        for v in labels.ravel():
            expected[table[v]] += 1
        assert np.array_equal(hist, expected)


class TestFineFeatures:
    def test_constant_patch(self):
        vec = fine_features(np.full((16, 16), 120, dtype=np.uint8))
        assert vec.shape == (144,)
        expected_block = np.zeros(16, dtype=np.int64)
        expected_block[15] = 36  # label 255 // 16
        assert np.array_equal(vec, np.tile(expected_block, 9))

    def test_block_offsets_cover_label_image(self):
        assert FINE_BLOCK_OFFSETS == (0, 4, 8)
        assert FINE_BLOCK_OFFSETS[-1] + 6 == 14

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            fine_features(np.zeros((15, 16), dtype=np.uint8))

    def test_matches_nested_loop_tally(self):
        rng = np.random.default_rng(31)
        patch = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        vec = fine_features(patch)
        labels = lbp_label_image(patch)
        idx = 0
        for by in (0, 4, 8):
            for bx in (0, 4, 8):
                counts = np.zeros(16, dtype=np.int64)
                for yy in range(by, by + 6):
                    for xx in range(bx, bx + 6):
                        counts[labels[yy, xx] // 16] += 1
                assert counts.sum() == 36
                assert np.array_equal(vec[idx * 16 : (idx + 1) * 16], counts)
                idx += 1


class TestValidationFeature:
    def test_length_203(self):
        rng = np.random.default_rng(32)
        window = rng.integers(0, 256, size=(25, 25), dtype=np.uint8)
        assert validation_feature(window).shape == (DESCRIPTOR_LENGTH,)
        assert DESCRIPTOR_LENGTH == 59 + 9 * 16

    def test_parts_sum_to_one_with_unit_weights(self):
        rng = np.random.default_rng(33)
        window = rng.integers(0, 256, size=(19, 19), dtype=np.uint8)
        vec = validation_feature(window)
        assert vec[:59].sum() == pytest.approx(1.0)
        assert vec[59:].sum() == pytest.approx(1.0)
        assert np.all(vec >= 0)

    def test_constant_window_composition(self):
        vec = validation_feature(np.full((20, 20), 200, dtype=np.uint8))
        bin255 = uniform_pattern_table()[255]
        assert vec[bin255] == pytest.approx(1.0)
        fine = vec[59:].reshape(9, 16)
        assert np.all(fine[:, 15] == pytest.approx(1.0 / 9))

    def test_block_weights_scale_fine_part(self):
        rng = np.random.default_rng(34)
        window = rng.integers(0, 256, size=(24, 24), dtype=np.uint8)
        weights = np.arange(1.0, 10.0)
        vec = validation_feature(window, block_weights=weights)
        plain = validation_feature(window)
        assert np.allclose(vec[59:], plain[59:] * np.repeat(weights, 16))
        assert np.allclose(vec[:59], plain[:59])

    def test_deterministic(self):
        rng = np.random.default_rng(35)
        window = rng.integers(0, 256, size=(30, 30), dtype=np.uint8)
        assert np.array_equal(validation_feature(window), validation_feature(window))


class TestResizeTo16:
    def test_identity(self):
        rng = np.random.default_rng(36)
        patch = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        assert np.array_equal(resize_to_16(patch), patch)

    def test_label_image_of_16_patch_is_14x14(self):
        patch = resize_to_16(np.zeros((33, 29), dtype=np.uint8))
        assert lbp_label_image(patch).shape == (14, 14)


@st.composite
def scenes_with_boxes(draw):
    """An image and boxes in it: random ones, boxes touching each border,
    3x3 boxes, boxes with a 1-px margin, duplicates and nested boxes."""
    h = draw(st.integers(3, 40), label="h")
    w = draw(st.integers(3, 40), label="w")
    seed = draw(st.integers(0, 1 << 30), label="seed")
    rng = np.random.default_rng(seed)
    img = rng.integers(0, draw(st.sampled_from([2, 8, 256]), label="levels"), size=(h, w)).astype(np.uint8)
    boxes = []
    for _ in range(draw(st.integers(0, 8), label="boxes")):
        shape = draw(st.sampled_from(["random", "3x3", "full", "margin", "left", "right", "top", "bottom"]))
        bw = 3 if shape == "3x3" else int(rng.integers(3, w + 1))
        bh = 3 if shape == "3x3" else int(rng.integers(3, h + 1))
        x = int(rng.integers(0, w - bw + 1))
        y = int(rng.integers(0, h - bh + 1))
        if shape == "full":
            x, y, bw, bh = 0, 0, w, h
        elif shape == "margin" and w >= 5 and h >= 5:
            x, y, bw, bh = 1, 1, w - 2, h - 2
        elif shape == "left":
            x = 0
        elif shape == "right":
            x = w - bw
        elif shape == "top":
            y = 0
        elif shape == "bottom":
            y = h - bh
        boxes.append((x, y, bw, bh))
    if boxes and draw(st.booleans(), label="duplicate"):
        boxes.append(boxes[draw(st.integers(0, len(boxes) - 1), label="which")])
    if boxes and draw(st.booleans(), label="nested"):
        x, y, bw, bh = boxes[0]
        if bw >= 5 and bh >= 5:
            boxes.append((x + 1, y + 1, bw - 2, bh - 2))
    return img, boxes


class TestBatchedDescriptor:
    @given(scenes_with_boxes(), st.booleans(), st.integers(0, 1 << 30))
    @settings(max_examples=150, deadline=None)
    def test_equals_per_crop_oracle_bit_for_bit(self, scene, weighted, seed):
        img, boxes = scene
        weights = np.random.default_rng(seed).uniform(0.0, 3.0, 9) if weighted else None
        # unweighted: the default unit weights against the unweighted oracle
        kw = {} if weights is None else {"block_weights": weights}
        got = descriptors(img, boxes, **kw)
        assert got.shape == (len(boxes), DESCRIPTOR_LENGTH) and got.dtype == np.float64
        crops = [img[y : y + h, x : x + w] for x, y, w, h in boxes]
        expected = np.array([validation_feature_oracle(crop, weights) for crop in crops]).reshape(-1, DESCRIPTOR_LENGTH)
        # each half on its own: the coarse one from the bounding-box labels,
        # the fine one from the resize gather
        assert np.array_equal(got[:, :59], expected[:, :59])
        assert np.array_equal(got[:, 59:], expected[:, 59:])

    @given(scenes_with_boxes(), st.booleans(), st.integers(0, 1 << 30))
    @settings(max_examples=100, deadline=None)
    def test_square_boxes_equal_their_square_crops(self, scene, weighted, seed):
        # the validator bootstrap describes its detections by box; for a
        # square box inside the image that is the row of its crop
        img, boxes = scene
        square = np.array([(x, y, min(w, h), min(w, h)) for x, y, w, h in boxes]).reshape(-1, 4)
        weights = np.random.default_rng(seed).uniform(0.0, 3.0, 9) if weighted else UNIT_BLOCK_WEIGHTS
        got = descriptors(img, square, weights)
        for row, box in zip(got, square.tolist()):
            assert np.array_equal(row, validation_feature(crop_square(img, box, box[2]), weights))

    @given(arrays(np.uint8, st.tuples(st.integers(3, 30), st.integers(3, 30))), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_validation_feature_is_the_one_box_call(self, window, weighted):
        # unweighted: the default unit weights against the unweighted oracle
        args = (np.linspace(0.5, 2.0, 9),) if weighted else ()
        assert np.array_equal(validation_feature(window, *args), validation_feature_oracle(window, *args))

    def test_labels_of_a_stack_are_per_image_labels(self):
        stack = np.random.default_rng(37).integers(0, 256, size=(4, 7, 9), dtype=np.uint8)
        labels = lbp_label_image(stack)
        assert labels.shape == (4, 5, 7)
        for got, img in zip(labels, stack):
            assert np.array_equal(got, lbp_label_image(img))

    def test_no_boxes(self):
        img = np.zeros((10, 10), dtype=np.uint8)
        assert descriptors(img, []).shape == (0, DESCRIPTOR_LENGTH)

    @pytest.mark.parametrize(
        "box, message",
        [
            ((-1, 0, 5, 5), r"box \(-1, 0, 5, 5\) outside 20x10 image"),
            ((0, 6, 5, 5), r"box \(0, 6, 5, 5\) outside 20x10 image"),
            ((16, 0, 5, 5), r"box \(16, 0, 5, 5\) outside 20x10 image"),
            ((0, 0, 2, 5), r"box \(0, 0, 2, 5\) smaller than 3x3"),
            ((0, 0, 5, 2), r"box \(0, 0, 5, 2\) smaller than 3x3"),
        ],
    )
    def test_rejects_bad_boxes(self, box, message):
        img = np.zeros((10, 20), dtype=np.uint8)
        # as tuples and as the int64 rows of Detections.boxes
        for boxes in ([(0, 0, 5, 5), box], np.array([(0, 0, 5, 5), box])):
            with pytest.raises(ValueError, match=message):
                descriptors(img, boxes)
            # the box is checked before the weights
            with pytest.raises(ValueError, match=message):
                descriptors(img, boxes, np.ones(3))
        if box[:2] == (0, 0):
            # a window of the box's size is described by that very box
            with pytest.raises(ValueError, match=message):
                validation_feature(np.zeros((box[3], box[2]), dtype=np.uint8))

    @pytest.mark.parametrize("weights", [np.ones(3), np.ones(10), np.ones((3, 3))])
    def test_rejects_block_weights_of_wrong_shape(self, weights):
        img = np.zeros((10, 20), dtype=np.uint8)
        for boxes in ([(0, 0, 5, 5)], []):
            # checked also when there is no box to describe
            with pytest.raises(ValueError, match="expected 9 fine-block weights"):
                descriptors(img, boxes, weights)
        with pytest.raises(ValueError, match="expected 9 fine-block weights"):
            validation_feature(img, weights)

    @pytest.mark.parametrize("shape", [(5, 5, 3), (5,)])
    def test_rejects_images_that_are_not_gray(self, shape):
        img = np.zeros(shape, dtype=np.uint8)
        with pytest.raises(ValueError, match=r"expected an \(H, W\) grayscale image"):
            descriptors(img, [])
        with pytest.raises(ValueError, match=r"expected an \(H, W\) grayscale image"):
            validation_feature(img)
