import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facedet.haar import (
    KINDS,
    HaarFeature,
    _placements,
    enumerate_kind,
    fits_window,
    generate_feature_set,
)
from facedet.integral import integral_set
from oracles import enumerate_kind_oracle, eval_feature, scaled_parts, scaled_parts_oracle, window_sigma


def brute_parts_value(img, x0, y0, parts, tilted):
    """Direct weighted pixel-loop evaluation of a rect decomposition."""
    total = 0
    for px, py, pw, ph, wt in parts:
        if tilted:
            for i in range(pw):
                for j in range(ph):
                    total += wt * int(img[y0 + py + i + j, x0 + px + i - j])
        else:
            total += wt * int(img[y0 + py : y0 + py + ph, x0 + px : x0 + px + pw].sum())
    return total


def brute_sigma(img, x0, y0, size):
    window = img[y0 : y0 + size, x0 : x0 + size].astype(np.float64)
    return max(float(np.sqrt(window.var())), 1.0)


class TestEnumeration:
    @pytest.mark.parametrize("window", [8, 11, 16])
    def test_lazy_bank_equals_nested_loop_list(self, window):
        want = [f for kind in KINDS for f in enumerate_kind_oracle(kind, window)]
        bank = generate_feature_set(window)
        assert len(bank) == len(want)
        assert list(bank) == want
        for i in (0, 1, len(want) // 3, len(want) - 1, -1, -len(want)):
            assert bank[i] == want[i]
        assert bank[5:40:7] == want[5:40:7]
        with pytest.raises(IndexError):
            bank[len(want)]

    def test_edge2h_count_matches_nested_loop_oracle(self):
        window = 4
        expected = [
            (x, y, w, h)
            for y in range(window)
            for x in range(window)
            for h in range(1, window - y + 1)
            for w in range(2, window - x + 1, 2)
            if x + w <= window and y + h <= window
        ]
        got = [(f.x, f.y, f.w, f.h) for f in enumerate_kind("edge2h", window)]
        assert sorted(got) == sorted(expected)
        assert len(got) == len(expected)

    def test_deterministic_regeneration(self):
        assert list(generate_feature_set(10)) == list(generate_feature_set(10))

    def test_canonical_order(self):
        bank = generate_feature_set(8)
        kind_rank = {k: i for i, k in enumerate(KINDS)}
        keys = [(kind_rank[f.kind], f.y, f.x, f.h, f.w) for f in bank]
        assert keys == sorted(keys)

    def test_small_window_rejected(self):
        with pytest.raises(ValueError):
            generate_feature_set(7)

    def test_tilted_features_fit_window(self):
        for f in enumerate_kind("tilted_line3", 10):
            assert f.h <= f.x + 1
            assert f.x + f.w <= 10
            assert f.y + f.w + f.h - 2 <= 9


    @pytest.mark.parametrize("kind", KINDS)
    def test_fits_window_accepts_exactly_the_bank(self, kind):
        window = 9
        span = range(-2, window + 2)
        accepted = {
            (x, y, w, h)
            for x in span
            for y in span
            for w in span
            for h in span
            if fits_window(HaarFeature(kind, x, y, w, h, window))
        }
        assert accepted == {(f.x, f.y, f.w, f.h) for f in enumerate_kind(kind, window)}


class TestZeroSum:
    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_on_constant_images(self, kind):
        iset = integral_set(np.full((24, 24), 173, dtype=np.uint8))
        for f in enumerate_kind(kind, 24)[::257]:
            assert eval_feature(f, iset, 0, 0, 24, variance_norm=False) == 0.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_scaled_decomposition_weights_cancel(self, kind):
        rng = np.random.default_rng(1)
        feats = enumerate_kind(kind, 24)
        for f in rng.choice(len(feats), size=30, replace=False):
            feature = feats[int(f)]
            for size in (8, 11, 16, 24, 31, 48):
                assert sum(pw * ph * wt for _, _, pw, ph, wt in scaled_parts(feature, size)) == 0


class TestEvalFeature:
    def test_edge2h_on_half_bright_window(self):
        img = np.zeros((24, 24), dtype=np.uint8)
        img[:, :12] = 255  # left half white
        iset = integral_set(img)
        f = HaarFeature("edge2h", 0, 0, 24, 24, 24)
        assert eval_feature(f, iset, 0, 0, 24, variance_norm=False) == 255.0 * 12 * 24

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_pixel_loop_on_random_windows(self, kind):
        rng = np.random.default_rng(7)
        img = rng.integers(0, 256, size=(40, 40), dtype=np.uint8)
        iset = integral_set(img)
        feats = enumerate_kind(kind, 24)
        for _ in range(40):
            f = feats[int(rng.integers(0, len(feats)))]
            size = int(rng.integers(8, 25))
            x0 = int(rng.integers(0, 40 - size + 1))
            y0 = int(rng.integers(0, 40 - size + 1))
            parts = scaled_parts(f, size)
            expected = brute_parts_value(img, x0, y0, parts, f.tilted)
            got = eval_feature(f, iset, x0, y0, size, variance_norm=False)
            assert got == float(expected)
            normed = eval_feature(f, iset, x0, y0, size, variance_norm=True)
            oracle = expected / brute_sigma(img, x0, y0, size)
            assert normed == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_exhaustive_bank_on_8px_window(self):
        rng = np.random.default_rng(17)
        img = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        iset = integral_set(img)
        for feature in generate_feature_set(8):
            expected = brute_parts_value(img, 0, 0, scaled_parts(feature, 8), feature.tilted)
            assert eval_feature(feature, iset, 0, 0, 8, variance_norm=False) == float(expected)

    def test_tilted_needs_tilted_tables(self):
        img = np.zeros((24, 24), dtype=np.uint8)
        iset = integral_set(img, with_tilted=False)
        f = enumerate_kind("tilted_edge2", 24)[0]
        with pytest.raises(ValueError):
            eval_feature(f, iset, 0, 0, 24)

    def test_window_out_of_bounds_rejected(self):
        iset = integral_set(np.zeros((20, 20), dtype=np.uint8))
        f = HaarFeature("edge2h", 0, 0, 8, 8, 24)
        with pytest.raises(ValueError):
            eval_feature(f, iset, 10, 10, 24)

    def test_window_sigma_matches_numpy_var(self):
        rng = np.random.default_rng(8)
        img = rng.integers(0, 256, size=(30, 30), dtype=np.uint8)
        iset = integral_set(img)
        for _ in range(25):
            size = int(rng.integers(2, 20))
            x0 = int(rng.integers(0, 30 - size))
            y0 = int(rng.integers(0, 30 - size))
            assert window_sigma(iset, x0, y0, size) == pytest.approx(
                brute_sigma(img, x0, y0, size), rel=1e-9
            )


kind_placements = functools.cache(_placements)


class TestScaling:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        window=st.integers(8, 24),
        index=st.integers(0, 2**31),
        sizes=st.lists(st.integers(1, 80), min_size=1, max_size=8),
    )
    def test_equals_scalar_oracle(self, kind, window, index, sizes):
        placements = kind_placements(kind, window)
        x, y, w, h = placements[index % len(placements)].tolist()
        feature = HaarFeature(kind, x, y, w, h, window)
        for size in sizes:
            got = scaled_parts(feature, size)
            assert got == scaled_parts_oracle(feature, size)
            assert all(type(v) is int for part in got for v in part)

    def test_identity_at_base_size(self):
        for kind in KINDS:
            for f in enumerate_kind(kind, 12)[::31]:
                base_parts = scaled_parts(f, 12)
                from facedet.haar import _parts

                assert base_parts == _parts(kind, f.x, f.y, f.w, f.h)

    @pytest.mark.parametrize("kind", KINDS)
    def test_scaled_geometry_stays_inside_window(self, kind):
        rng = np.random.default_rng(3)
        feats = enumerate_kind(kind, 24)
        for fi in rng.choice(len(feats), size=60, replace=False):
            feature = feats[int(fi)]
            for size in (8, 13, 24, 30, 60):
                for px, py, pw, ph, _ in scaled_parts(feature, size):
                    assert pw >= 1 and ph >= 1
                    if feature.tilted:
                        corners = [
                            (px, py),
                            (px + pw - 1, py + pw - 1),
                            (px - ph + 1, py + ph - 1),
                            (px + pw - ph, py + pw + ph - 2),
                        ]
                        assert all(0 <= cx < size and 0 <= cy < size for cx, cy in corners)
                    else:
                        assert 0 <= px and 0 <= py
                        assert px + pw <= size and py + ph <= size
