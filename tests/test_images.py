import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from facedet.images import (
    BAND_PIXELS,
    downscale,
    histogram_equalization,
    median_filter,
    resize_bilinear,
    resize_boxes,
    row_bands,
    to_grayscale,
)
from oracles import resize_bilinear_oracle, rgb_to_ycbcr_oracle, to_grayscale_oracle, ycbcr_to_rgb

rgb_images = arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12), st.just(3)))
gray_images = arrays(np.uint8, st.tuples(st.integers(1, 16), st.integers(1, 16)))


def solid(h, w, value, channels=None):
    if channels is None:
        return np.full((h, w), value, dtype=np.uint8)
    return np.full((h, w, len(value)), value, dtype=np.uint8)


class TestGrayscale:
    def test_white(self):
        assert np.all(to_grayscale(solid(3, 3, (255, 255, 255), channels=3)) == 255)

    def test_black(self):
        assert np.all(to_grayscale(solid(3, 3, (0, 0, 0), channels=3)) == 0)

    def test_single_pixel_weighted_sum(self):
        # 0.299*100 + 0.587*50 + 0.114*200 = 82.05 -> 82
        img = np.array([[[100, 50, 200]]], dtype=np.uint8)
        assert to_grayscale(img)[0, 0] == 82

    def test_rejects_gray_input(self):
        with pytest.raises(ValueError):
            to_grayscale(np.zeros((4, 4), dtype=np.uint8))


class TestYCbCr:
    @pytest.mark.parametrize(
        "rgb,expected",
        [
            ((0, 0, 0), (0, 128, 128)),
            ((255, 255, 255), (255, 128, 128)),
            ((255, 0, 0), (76, 85, 255)),
        ],
    )
    def test_reference_pixels(self, rgb, expected):
        out = rgb_to_ycbcr_oracle(np.array([[rgb]], dtype=np.uint8))
        assert tuple(out[0, 0]) == expected

    @given(rgb_images)
    @settings(max_examples=50, deadline=None)
    def test_round_trip_within_two(self, img):
        back = ycbcr_to_rgb(rgb_to_ycbcr_oracle(img))
        assert np.max(np.abs(back.astype(int) - img.astype(int))) <= 2

    @given(rgb_images)
    @example(np.array([[[255, 255, 255]]], dtype=np.uint8))
    @example(np.array([[[0, 0, 0]]], dtype=np.uint8))
    @example(np.array([[[255, 0, 0]]], dtype=np.uint8))
    @example(np.array([[[0, 255, 0]]], dtype=np.uint8))
    @example(np.array([[[0, 0, 255]]], dtype=np.uint8))
    @example(np.array([[[255, 255, 0], [0, 255, 255]], [[255, 0, 255], [1, 254, 128]]], dtype=np.uint8))
    @settings(max_examples=80, deadline=None)
    def test_y_plane_is_grayscale(self, img):
        # segment_image's gray plane, from the same expression, is the Y plane
        assert np.array_equal(rgb_to_ycbcr_oracle(img)[..., 0], to_grayscale(img))


class TestRowBands:
    def test_bands_cover_every_row_once(self):
        for height, width in [(1, 1), (240, 320), (17, 641), (5, BAND_PIXELS + 1), (0, 3)]:
            bands = list(row_bands(height, width))
            stops = [0] + [hi for _, hi in bands]
            assert [lo for lo, _ in bands] == stops[:-1] and stops[-1] == height
            assert all(0 < (hi - lo) * width <= max(BAND_PIXELS, width) for lo, hi in bands)

    @pytest.mark.parametrize("width", [1, 2, 7, 33, 320, 641, BAND_PIXELS + 1])
    @given(
        # height = bands * band + rows: 1, band - 1, band, band + 1, 2 * band + 3
        st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)]),
        st.sampled_from(["contiguous", "rows reversed", "every other column"]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_banded_conversions_equal_the_whole_image_property(self, width, height_in_bands, layout, extremes, seed):
        _, band = next(row_bands(2**31, width))  # rows per band at this width
        bands, rows = height_in_bands
        height = max(1, bands * band + rows)
        rng = np.random.default_rng(seed)
        shape = (height, 2 * width if layout == "every other column" else width, 3)
        img = rng.choice(np.array([0, 255], dtype=np.uint8), shape) if extremes else rng.integers(0, 256, shape, np.uint8)
        img = {"contiguous": img, "rows reversed": img[::-1], "every other column": img[:, ::2]}[layout]
        assert img.shape == (height, width, 3)
        got, want = to_grayscale(img), to_grayscale_oracle(img)
        assert got.dtype == want.dtype == np.uint8
        assert np.array_equal(got, want)


class TestDownscale:
    def test_identity(self):
        img = np.arange(20, dtype=np.uint8).reshape(4, 5)
        assert np.array_equal(downscale(img, 1), img)

    def test_four_by_four_factor_two(self):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        out = downscale(img, 2)
        assert out.shape == (2, 2)
        assert np.array_equal(out, img[np.ix_([0, 2], [0, 2])])

    def test_five_by_five_factor_two(self):
        img = np.arange(25, dtype=np.uint8).reshape(5, 5)
        out = downscale(img, 2)
        assert out.shape == (3, 3)
        assert np.array_equal(out, img[np.ix_([0, 2, 4], [0, 2, 4])])

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            downscale(np.zeros((4, 4), dtype=np.uint8), 0)

    @given(gray_images, st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_composition_samples_product_indices(self, img, a, b):
        assert np.array_equal(downscale(downscale(img, a), b), downscale(img, a * b))


def brute_median(img, radius):
    h, w = img.shape
    out = np.empty_like(img)
    for y in range(h):
        for x in range(w):
            vals = []
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    yy = min(max(y + dy, 0), h - 1)
                    xx = min(max(x + dx, 0), w - 1)
                    vals.append(img[yy, xx])
            vals.sort()
            out[y, x] = vals[len(vals) // 2]
    return out


class TestMedianFilter:
    def test_constant_unchanged(self):
        img = solid(5, 7, 88)
        assert np.array_equal(median_filter(img, 1), img)

    def test_impulse_removed(self):
        img = np.ones((3, 3), dtype=np.uint8)
        img[1, 1] = 255
        assert median_filter(img, 1)[1, 1] == 1

    def test_matches_sort_and_pick_oracle(self):
        rng = np.random.default_rng(11)
        for radius in (1, 2):
            img = rng.integers(0, 256, size=(9, 8), dtype=np.uint8)
            assert np.array_equal(median_filter(img, radius), brute_median(img, radius))

    @given(arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12))), st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_matches_sort_and_pick_oracle_property(self, img, radius):
        # radii beyond the image replicate the edge pixels on every side
        assert np.array_equal(median_filter(img, radius), brute_median(img, radius))

    def test_memory_does_not_grow_with_the_window(self):
        # one (2r + 1)^2 copy per pixel would be 64 * 64 * 61 * 61 bytes
        # (15 MB) and more for the median's sort
        img = np.random.default_rng(12).integers(0, 256, size=(64, 64), dtype=np.uint8)
        tracemalloc.start()
        try:
            median_filter(img, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @given(gray_images)
    @settings(max_examples=30, deadline=None)
    def test_preserves_shape_and_range(self, img):
        out = median_filter(img, 1)
        assert out.shape == img.shape
        assert out.dtype == np.uint8


class TestHistogramEqualization:
    def test_two_equal_levels_unchanged(self):
        img = np.array([[0, 255], [255, 0]], dtype=np.uint8)
        assert np.array_equal(histogram_equalization(img), img)

    def test_constant_maps_to_zero(self):
        assert np.all(histogram_equalization(solid(4, 4, 130)) == 0)

    def test_full_ramp_unchanged(self):
        img = np.arange(256, dtype=np.uint8).reshape(16, 16)
        out = histogram_equalization(img)
        assert np.array_equal(out, img)
        assert np.bincount(out.ravel(), minlength=256).max() <= np.bincount(
            img.ravel(), minlength=256
        ).max()

    @given(gray_images)
    @settings(max_examples=30, deadline=None)
    def test_preserves_shape_and_range(self, img):
        out = histogram_equalization(img)
        assert out.shape == img.shape
        assert out.dtype == np.uint8


class TestResizeBilinear:
    def test_identity_geometry(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        assert np.array_equal(resize_bilinear(img, 16, 16), img)

    def test_constant(self):
        assert np.all(resize_bilinear(solid(32, 32, 77), 16, 16) == 77)

    def test_ramp_endpoints(self):
        img = np.tile(np.arange(32, dtype=np.uint8), (32, 1))
        out = resize_bilinear(img, 16, 16)
        assert abs(int(out[0, 0]) - 0) <= 1
        assert abs(int(out[0, -1]) - 31) <= 1

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            resize_bilinear(np.zeros((1, 4), dtype=np.uint8), 16, 16)

    @given(
        arrays(np.uint8, st.tuples(st.integers(2, 40), st.integers(2, 40))),
        st.integers(1, 30),
        st.integers(1, 30),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_the_np_ix_oracle(self, img, out_h, out_w):
        assert np.array_equal(resize_bilinear(img, out_h, out_w), resize_bilinear_oracle(img, out_h, out_w))


class TestResizeBoxes:
    @given(st.integers(2, 40), st.integers(2, 40), st.integers(1, 24), st.integers(1, 24), st.integers(0, 1 << 30))
    @settings(max_examples=100, deadline=None)
    def test_each_box_equals_the_oracle_on_its_crop(self, h, w, out_h, out_w, seed):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        boxes = [(0, 0, w, h)]
        for _ in range(int(rng.integers(0, 6))):
            bw, bh = int(rng.integers(2, w + 1)), int(rng.integers(2, h + 1))
            boxes.append((int(rng.integers(0, w - bw + 1)), int(rng.integers(0, h - bh + 1)), bw, bh))
        boxes.append(boxes[-1])
        got = resize_boxes(img, boxes, out_h, out_w)
        assert got.shape == (len(boxes), out_h, out_w) and got.dtype == np.uint8
        for out, (x, y, bw, bh) in zip(got, boxes):
            assert np.array_equal(out, resize_bilinear_oracle(img[y : y + bh, x : x + bw], out_h, out_w))

    def test_no_boxes(self):
        assert resize_boxes(np.zeros((5, 5), dtype=np.uint8), [], 4, 3).shape == (0, 4, 3)

    @pytest.mark.parametrize(
        "box, message",
        [((0, 0, 1, 4), "at least a 2x2 source"), ((4, 0, 3, 3), r"resize box \(4, 0, 3, 3\) outside the 6x5 image"),
         ((0, -1, 3, 3), "outside")],
    )
    def test_rejects_bad_boxes(self, box, message):
        # as tuples and as the int64 rows of Detections.boxes
        for boxes in ([box], np.array([box])):
            with pytest.raises(ValueError, match=message):
                resize_boxes(np.zeros((5, 6), dtype=np.uint8), boxes, 4, 4)

    @pytest.mark.parametrize("boxes", [[(0, 0, 3)], np.zeros((2, 5), dtype=np.int64), np.zeros((1, 1, 4))])
    def test_rejects_rows_that_are_not_boxes(self, boxes):
        with pytest.raises(ValueError, match=r"expected \(x, y, w, h\) box rows, got shape"):
            resize_boxes(np.zeros((5, 6), dtype=np.uint8), boxes, 4, 4)
