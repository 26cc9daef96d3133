import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from facedet.config import PipelineConfig
from facedet import images
from facedet.images import BAND_PIXELS, row_bands, to_grayscale
from facedet.pipeline import segment_image
from facedet.skin import (
    Region,
    _dilate3,
    _erode3,
    extract_regions,
    morphology,
    refine_mask,
    skin_ratio,
    sobel_edges,
)
from facedet.synthetic import render_color_scene
from oracles import (
    classify_skin_hsv,
    classify_skin_oracle,
    classify_skin_rgb,
    evaluate_segmentation,
    rgb_to_ycbcr_oracle,
    segmentation_report,
    to_grayscale_oracle,
)

masks = arrays(np.uint8, st.tuples(st.integers(1, 16), st.integers(1, 16)), elements=st.integers(0, 1))

SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.int64)
SOBEL_Y = SOBEL_X.T


def sobel_oracle(gray, threshold):
    """Sobel as a 3x3 correlation over window views."""
    win = np.lib.stride_tricks.sliding_window_view(gray.astype(np.int64), (3, 3))
    gx = np.einsum("ijkl,kl->ij", win, SOBEL_X)
    gy = np.einsum("ijkl,kl->ij", win, SOBEL_Y)
    out = np.zeros(gray.shape, dtype=np.uint8)
    out[1:-1, 1:-1] = (gx * gx + gy * gy > threshold * threshold).astype(np.uint8)
    return out


def dilate_oracle(mask):
    padded = np.pad(mask, 1, mode="constant", constant_values=0)
    return np.lib.stride_tricks.sliding_window_view(padded, (3, 3)).max(axis=(2, 3))


def erode_oracle(mask):
    padded = np.pad(mask, 1, mode="constant", constant_values=1)
    return np.lib.stride_tricks.sliding_window_view(padded, (3, 3)).min(axis=(2, 3))


def ycbcr_pixel(y, cb, cr):
    return np.array([[[y, cb, cr]]], dtype=np.uint8)


# sha256 of the mask bytes, then of the gray bytes, of segment_image over the
# first four seed-7 320x240 colour scenes with three faces (the detect_skin
# benchmark's scenes), at the default config
SEGMENTATION_SHA256 = (
    "0892f2c260fd386eff8bb40138b8d6c274f1964c1dd94eb7e91c2f8cc9537452",
    "f9f2047b2c3ae0fb557610d6017325247e154f90c08755bc4a9907e4fbe4518a",
)

# a skin tone: Cb 108 and Cr 160, inside the default intervals
SKIN_RGB = (200, 140, 120)
SKIN_CB, SKIN_CR = 108, 160

OPEN_BOUNDS = dict(cb_min=0, cb_max=255, cr_min=0, cr_max=255)


class TestClassifySkinOracle:
    def test_inside_both_intervals(self):
        assert classify_skin_oracle(ycbcr_pixel(120, 100, 150), PipelineConfig())[0, 0] == 1

    def test_cb_below_lower_bound(self):
        assert classify_skin_oracle(ycbcr_pixel(120, 50, 150), PipelineConfig())[0, 0] == 0

    def test_matches_per_pixel_interval_oracle(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, size=(9, 11, 3), dtype=np.uint8)
        t = PipelineConfig()
        mask = classify_skin_oracle(img, t)
        for y in range(9):
            for x in range(11):
                _, cb, cr = (int(v) for v in img[y, x])
                inside = t.cb_min <= cb <= t.cb_max and t.cr_min <= cr <= t.cr_max
                assert mask[y, x] == int(inside)

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(cb_min=130, cb_max=120)


class TestSegmentImage:
    @pytest.mark.parametrize(
        "bound, value, inside",
        [
            (bound, value + shift, shift * sign <= 0)
            for bound, value, sign in [
                ("cb_min", SKIN_CB, 1), ("cb_max", SKIN_CB, -1), ("cr_min", SKIN_CR, 1), ("cr_max", SKIN_CR, -1),
            ]
            for shift in (-1, 0, 1)
        ],
    )
    def test_bounds_are_inclusive(self, bound, value, inside):
        # on a uniform image there are no edges, and opening and closing
        # leave an all-ones or all-zeros mask as it is
        rgb = np.full((5, 6, 3), SKIN_RGB, dtype=np.uint8)
        got = segment_image(rgb, PipelineConfig(**{**OPEN_BOUNDS, bound: value}))
        assert got.mask.dtype == np.uint8 and np.all(got.mask == int(inside))
        assert np.array_equal(got.gray, to_grayscale(rgb))

    def test_rejects_gray_input(self):
        with pytest.raises(ValueError):
            segment_image(np.zeros((4, 4), dtype=np.uint8), PipelineConfig())

    @given(arrays(np.uint8, st.tuples(st.integers(3, 8), st.integers(3, 8), st.just(3))),
           st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_thresholds(self, img, widen_cb, widen_cr):
        narrow = segment_image(img, PipelineConfig()).mask
        wide = segment_image(
            img,
            PipelineConfig(
                cb_min=max(0, 77 - widen_cb), cb_max=min(255, 127 + widen_cb),
                cr_min=max(0, 133 - widen_cr), cr_max=min(255, 173 + widen_cr),
            ),
        ).mask
        assert np.all(wide >= narrow)

    @given(
        st.data(),
        st.integers(3, 40),
        # at 320 and 641 pixels a default band is 16 and 7 rows
        st.one_of(st.integers(3, 24), st.sampled_from([320, 641])),
        st.sampled_from([1, 3, None]),
        st.sampled_from(["random", "extremes", "skin"]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 100.0, 1500.0]),
    )
    @settings(max_examples=120, deadline=None)
    def test_one_pass_equals_the_ycbcr_composition_property(self, data, h, w, band_rows, pattern, seed, threshold):
        rng = np.random.default_rng(seed)
        if pattern == "random":
            rgb = rng.integers(0, 256, (h, w, 3), np.uint8)
        elif pattern == "extremes":
            rgb = rng.choice(np.array([0, 255], dtype=np.uint8), (h, w, 3))
        else:
            rgb = np.clip(rng.normal(SKIN_RGB, 30, (h, w, 3)), 0, 255).astype(np.uint8)
        ycbcr = rgb_to_ycbcr_oracle(rgb)
        y, x = data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))
        bounds = {}
        for channel, name in [(1, "cb"), (2, "cr")]:
            pixel = int(ycbcr[y, x, channel])
            edge = st.sampled_from([0, 255, -1, 256, -300, 1000, pixel - 1, pixel, pixel + 1])
            lo, hi = sorted(data.draw(st.one_of(edge, st.integers(-5, 260))) for _ in range(2))
            bounds.update({f"{name}_min": lo, f"{name}_max": hi})
        config = PipelineConfig(sobel_threshold=threshold, **bounds)
        band_pixels = BAND_PIXELS if band_rows is None else band_rows * w
        with mock.patch.object(images, "BAND_PIXELS", band_pixels):
            got = segment_image(rgb, config)
        gray = to_grayscale_oracle(rgb)
        mask = refine_mask(classify_skin_oracle(ycbcr, config), sobel_edges(gray, threshold))
        assert got.gray.dtype == got.mask.dtype == np.uint8
        assert np.array_equal(got.gray, gray) and np.array_equal(got.mask, mask)

    def test_segmentation_bytes_are_pinned(self):
        rng = np.random.default_rng(7)
        mask, gray = hashlib.sha256(), hashlib.sha256()
        for _ in range(4):
            rgb, _ = render_color_scene(rng, 320, 240, n_faces=3)
            segmented = segment_image(rgb, PipelineConfig())
            mask.update(segmented.mask.tobytes())
            gray.update(segmented.gray.tobytes())
        assert (mask.hexdigest(), gray.hexdigest()) == SEGMENTATION_SHA256


class TestSobel:
    def test_constant_image(self):
        assert np.all(sobel_edges(np.full((5, 5), 77, dtype=np.uint8), 100) == 0)

    def test_vertical_step(self):
        img = np.zeros((5, 6), dtype=np.uint8)
        img[:, 3:] = 255
        out = sobel_edges(img, 100)
        expected = np.zeros((5, 6), dtype=np.uint8)
        expected[1:-1, 2:4] = 1  # gradient magnitude 1020 on both step columns
        assert np.array_equal(out, expected)

    def test_huge_threshold_gives_empty_mask(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, size=(10, 10), dtype=np.uint8)
        assert np.all(sobel_edges(img, 1445.0) == 0)

    @given(
        arrays(np.uint8, st.tuples(st.integers(3, 20), st.integers(3, 20))),
        st.floats(0.0, 1500.0, allow_nan=False),
    )
    @example(np.array([[0, 0, 255], [0, 0, 255], [0, 0, 255]], dtype=np.uint8), 100.0)
    @example(np.array([[255, 0, 7], [3, 200, 0], [0, 90, 255]], dtype=np.uint8), 0.0)
    @settings(max_examples=80, deadline=None)
    def test_matches_window_view_oracle(self, img, threshold):
        out = sobel_edges(img, threshold)
        assert out.dtype == np.uint8
        assert np.array_equal(out, sobel_oracle(img, threshold))

    @given(
        st.data(),
        st.integers(3, 40),
        # narrow images are one band; at 320, 641 and BAND_PIXELS // 2 + 1
        # pixels a band is 16, 7 and 1 rows, so taller images cross two and more
        st.one_of(st.integers(3, 24), st.sampled_from([320, 641, BAND_PIXELS // 2 + 1])),
        st.sampled_from(["random", "extremes", "steps", "checkerboard"]),
        st.one_of(st.floats(0.0, 1500.0, allow_nan=False), st.sampled_from([0.0, 1020.0, 1140.0, 1442.0])),
    )
    @settings(max_examples=150, deadline=None)
    def test_int32_magnitude_equals_int64_property(self, data, h, w, pattern, threshold):
        # 8-bit pixels run in int32: |gx|, |gy| <= 1020, so gx^2 + gy^2 stays
        # below 2**31 even where 0 meets 255, and the mask is the int64 one's
        if pattern == "random":
            img = data.draw(arrays(np.uint8, (h, w)), label="image")
        elif pattern == "extremes":
            img = data.draw(arrays(np.uint8, (h, w), elements=st.sampled_from([0, 255])), label="image")
        elif pattern == "steps":
            # 255 beyond a vertical, horizontal or diagonal edge
            y, x = np.mgrid[:h, :w]
            a, b = data.draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1)]), label="normal")
            cut = data.draw(st.integers(-w - h, w + h), label="cut")
            img = np.where(a * x + b * y >= cut, 255, 0).astype(np.uint8)
        else:
            period = data.draw(st.integers(1, 3), label="period")
            y, x = np.mgrid[:h, :w]
            img = np.where((x // period + y // period) % 2 == data.draw(st.integers(0, 1), label="phase"), 255, 0)
            img = img.astype(np.uint8)
        assert np.array_equal(sobel_edges(img, threshold), sobel_oracle(img, threshold))

    def test_rejects_tiny_images(self):
        with pytest.raises(ValueError):
            sobel_edges(np.zeros((2, 5), dtype=np.uint8), 10)

    @pytest.mark.parametrize("width", [3, 320, 641])
    @pytest.mark.parametrize("extra", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_band_seams_match_the_oracle(self, width, extra, dtype):
        # band + 1, + 2 and + 3 rows: the last output row of the first band,
        # the first of the second, and a second band of two rows; each band
        # reads one halo row above and below, and wider pixels take int64
        _, band = next(row_bands(2**31, width))
        rng = np.random.default_rng(band + extra)
        scale = 1 if dtype == np.uint8 else 1000
        img = (rng.choice([0, 255], size=(band + extra, width)) * scale).astype(dtype)
        img[rng.random(img.shape) < 0.5] = rng.integers(0, 256) * scale
        for threshold in (0.0, 100.0, 1020.0 * scale):
            assert np.array_equal(sobel_edges(img, threshold), sobel_oracle(img, threshold))


class TestMorphology:
    def test_open_removes_singleton(self):
        mask = np.zeros((5, 5), dtype=np.uint8)
        mask[2, 2] = 1
        assert np.all(morphology(mask, "open") == 0)

    def test_close_fills_interior_hole(self):
        mask = np.ones((5, 5), dtype=np.uint8)
        mask[2, 2] = 0
        assert np.all(morphology(mask, "close") == 1)

    @given(masks)
    @settings(max_examples=60, deadline=None)
    def test_open_anti_extensive_close_extensive(self, mask):
        opened = morphology(mask, "open")
        closed = morphology(mask, "close")
        assert np.all(opened <= mask)
        assert np.all(mask <= closed)

    @given(masks)
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, mask):
        opened = morphology(mask, "open")
        closed = morphology(mask, "close")
        assert np.array_equal(morphology(opened, "open"), opened)
        assert np.array_equal(morphology(closed, "close"), closed)

    @given(arrays(np.uint8, st.tuples(st.integers(1, 16), st.integers(1, 16))))
    @example(np.array([[1]], dtype=np.uint8))
    @example(np.array([[0]], dtype=np.uint8))
    @example(np.array([[1, 0, 1, 1, 0]], dtype=np.uint8))
    @example(np.array([[0], [1], [1]], dtype=np.uint8))
    @settings(max_examples=80, deadline=None)
    def test_kernels_match_window_view_oracle(self, mask):
        for got, want in ((_dilate3(mask), dilate_oracle(mask)), (_erode3(mask), erode_oracle(mask))):
            assert got.dtype == want.dtype == np.uint8
            assert np.array_equal(got, want)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            morphology(np.zeros((3, 3), dtype=np.uint8), "erode-only")


def count_components(mask):
    """Independent 8-connected flood fill."""
    mask = mask.astype(bool)
    seen = np.zeros_like(mask)
    count = 0
    h, w = mask.shape
    for sy in range(h):
        for sx in range(w):
            if not mask[sy, sx] or seen[sy, sx]:
                continue
            count += 1
            stack = [(sy, sx)]
            seen[sy, sx] = True
            while stack:
                y, x = stack.pop()
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        yy, xx = y + dy, x + dx
                        if 0 <= yy < h and 0 <= xx < w and mask[yy, xx] and not seen[yy, xx]:
                            seen[yy, xx] = True
                            stack.append((yy, xx))
    return count


class TestRefineMask:
    def test_no_edges_equals_close_of_open(self):
        rng = np.random.default_rng(4)
        skin = rng.integers(0, 2, size=(12, 12), dtype=np.uint8)
        edges = np.zeros_like(skin)
        expected = morphology(morphology(skin, "open"), "close")
        assert np.array_equal(refine_mask(skin, edges), expected)

    def test_empty_skin_stays_empty(self):
        skin = np.zeros((8, 8), dtype=np.uint8)
        edges = np.ones_like(skin)
        assert np.all(refine_mask(skin, edges) == 0)

    def test_edge_cuts_bridge_into_two_components(self):
        skin = np.zeros((10, 16), dtype=np.uint8)
        skin[3:7, 1:5] = 1  # left blob, survives opening
        skin[3:7, 11:15] = 1  # right blob
        skin[4:6, 5:11] = 1  # bridge
        edges = np.zeros_like(skin)
        edges[:, 7:9] = 1  # edge line across the bridge
        assert count_components(skin) == 1
        refined = refine_mask(skin, edges)
        assert count_components(refined) == 2

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            refine_mask(np.zeros((4, 4), dtype=np.uint8), np.zeros((5, 4), dtype=np.uint8))


class TestSkinRatio:
    def test_all_ones(self):
        assert skin_ratio(np.ones((4, 4), dtype=np.uint8)) == 100.0

    def test_quarter(self):
        mask = np.zeros((10, 10), dtype=np.uint8)
        mask.ravel()[:25] = 1
        assert skin_ratio(mask) == 25.0

    @given(masks)
    @settings(max_examples=50, deadline=None)
    def test_matches_count_oracle_and_complement(self, mask):
        expected = 100.0 * sum(int(v) for v in mask.ravel()) / mask.size
        assert skin_ratio(mask) == pytest.approx(expected)
        assert skin_ratio(1 - mask) == pytest.approx(100.0 - skin_ratio(mask))


def flood_components(mask):
    """(pixel set, bbox) per 8-connected component, by an independent fill."""
    mask = mask.astype(bool)
    seen = np.zeros_like(mask)
    comps = []
    h, w = mask.shape
    for sy in range(h):
        for sx in range(w):
            if not mask[sy, sx] or seen[sy, sx]:
                continue
            pixels = []
            stack = [(sy, sx)]
            seen[sy, sx] = True
            while stack:
                y, x = stack.pop()
                pixels.append((y, x))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        yy, xx = y + dy, x + dx
                        if 0 <= yy < h and 0 <= xx < w and mask[yy, xx] and not seen[yy, xx]:
                            seen[yy, xx] = True
                            stack.append((yy, xx))
            ys = [p[0] for p in pixels]
            xs = [p[1] for p in pixels]
            comps.append((pixels, (min(xs), min(ys), max(xs) - min(xs) + 1, max(ys) - min(ys) + 1)))
    return comps


class TestExtractRegions:
    def test_empty_mask(self):
        assert extract_regions(np.zeros((6, 6), dtype=np.uint8), 1) == []

    def test_solid_block(self):
        mask = np.zeros((10, 10), dtype=np.uint8)
        mask[3:7, 2:6] = 1
        regions = extract_regions(mask, 1)
        assert regions == [Region(2, 3, 4, 4, 16, 1.0)]

    def test_min_area_filters_small_blob(self):
        mask = np.zeros((10, 12), dtype=np.uint8)
        mask[1:4, 1:5] = 1  # area 12
        mask[7:8, 8:11] = 1  # area 3
        regions = extract_regions(mask, 5)
        assert len(regions) == 1
        assert (regions[0].x, regions[0].y, regions[0].w, regions[0].h) == (1, 1, 4, 3)

    @given(masks, st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_matches_flood_fill_oracle(self, mask, min_area):
        regions = extract_regions(mask, min_area)
        expected = [
            bbox for pixels, bbox in flood_components(mask) if len(pixels) >= min_area
        ]
        assert sorted((r.x, r.y, r.w, r.h) for r in regions) == sorted(expected)
        # every kept component's pixels lie inside its box
        for pixels, bbox in flood_components(mask):
            if len(pixels) < min_area:
                continue
            x, y, w, h = bbox
            assert all(x <= px < x + w and y <= py < y + h for py, px in pixels)

    def test_sorted_by_descending_area(self):
        mask = np.zeros((12, 12), dtype=np.uint8)
        mask[0:2, 0:2] = 1
        mask[5:9, 5:9] = 1
        regions = extract_regions(mask, 1)
        assert [r.area for r in regions] == [16, 4]


class TestEvaluateSegmentation:
    def test_perfect_prediction(self):
        truth = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        m = evaluate_segmentation(truth, truth)
        assert (m.recall, m.precision, m.specificity, m.accuracy) == (100.0, 100.0, 100.0, 100.0)

    def test_hand_counted_case(self):
        # tp=3, fn=1, fp=1, tn=5 over 10 pixels
        pred = np.array([1, 1, 1, 0, 1, 0, 0, 0, 0, 0], dtype=np.uint8).reshape(2, 5)
        truth = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0], dtype=np.uint8).reshape(2, 5)
        m = evaluate_segmentation(pred, truth)
        assert (m.tp, m.fn, m.fp, m.tn) == (3, 1, 1, 5)
        assert m.recall == pytest.approx(75.0)
        assert m.precision == pytest.approx(75.0)
        assert m.specificity == pytest.approx(83.33, abs=0.01)
        assert m.accuracy == pytest.approx(80.0)

    @given(masks, st.integers(0, 1 << 30))
    @settings(max_examples=50, deadline=None)
    def test_counts_sum_and_swap_symmetry(self, truth, seed):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 2, size=truth.shape, dtype=np.uint8)
        m = evaluate_segmentation(pred, truth)
        assert m.tp + m.tn + m.fp + m.fn == truth.size
        swapped = evaluate_segmentation(truth, pred)
        assert (swapped.fp, swapped.fn) == (m.fn, m.fp)
        assert swapped.recall == pytest.approx(m.precision)
        assert swapped.precision == pytest.approx(m.recall)

    def test_report_renders_four_metric_columns(self):
        pred = np.array([[1, 0], [0, 0]], dtype=np.uint8)
        truth = np.array([[1, 1], [0, 0]], dtype=np.uint8)
        text = segmentation_report([("YCbCr", evaluate_segmentation(pred, truth))])
        header = text.splitlines()[0]
        for col in ("Method", "Recall", "Precision", "Specificity", "Accuracy"):
            assert col in header
        assert "YCbCr" in text.splitlines()[1]


class TestBaselineRules:
    def _scene(self):
        # skin block on a blue background, with ground truth
        rgb = np.zeros((20, 20, 3), dtype=np.uint8)
        rgb[:] = (60, 90, 200)
        rgb[5:15, 4:14] = (200, 140, 120)
        truth = np.zeros((20, 20), dtype=np.uint8)
        truth[5:15, 4:14] = 1
        return rgb, rgb_to_ycbcr_oracle(rgb), truth

    def test_rules_fire_on_skin_tone_not_on_blue(self):
        rgb, ycbcr, truth = self._scene()
        for mask in (classify_skin_rgb(rgb), classify_skin_hsv(rgb), classify_skin_oracle(ycbcr, PipelineConfig())):
            assert mask[10, 8] == 1
            assert mask[0, 0] == 0

    def test_comparison_table_over_all_rules(self):
        rgb, ycbcr, truth = self._scene()
        rows = [
            ("RGB", evaluate_segmentation(classify_skin_rgb(rgb), truth)),
            ("HSV", evaluate_segmentation(classify_skin_hsv(rgb), truth)),
            ("YCbCr", evaluate_segmentation(classify_skin_oracle(ycbcr, PipelineConfig()), truth)),
        ]
        text = segmentation_report(rows)
        assert len(text.splitlines()) == 4
        for name, metrics in rows:
            assert metrics.recall == 100.0  # uniform patches classify exactly
