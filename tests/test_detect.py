from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from facedet import detect
from facedet.boost import Cascade, Stage, WeakClassifier, load_cascade, train_cascade
from facedet.detect import (
    MERGE_ROWS,
    SCAN_ROWS,
    Detection,
    Detections,
    LiveWindows,
    ScanStats,
    detect_multiscale_counted,
    iou,
    merge_detections,
    pairwise_iou,
)
from facedet.haar import KINDS, compile_features, enumerate_kind
from facedet.integral import integral_set
from facedet.synthetic import render_scene
from oracles import _tilted_sums, _upright_sums, as_detections, classify_window, eval_feature, scaled_parts


def scan_count_oracle(shape, base, scale_factor, step):
    """Independent loop over every window the scanner should visit."""
    h, w = shape
    count = 0
    level = 0
    size = base
    while size <= min(w, h):
        step_k = max(1, round(step * size / base))
        ys = list(range(0, h - size + 1, step_k))
        xs = list(range(0, w - size + 1, step_k))
        count += len(xs) * len(ys)
        level += 1
        size = max(size + 1, round(base * scale_factor**level))
    return count


def scan_oracle(
    cascade, img, skin=None, scale_factor=1.25, step=2, min_skin_fraction=0.25, variance_norm=True
):
    """The per-stump scan: index arrays per level, four lookups per rectangle
    per stump, votes added in stump order."""
    h, w = img.shape
    base = cascade.base_window
    iset = integral_set(img)
    skin_table = None if skin is None else integral_set((np.asarray(skin) > 0).astype(np.uint8), False).grid
    stats = ScanStats(stage_windows=[0] * (len(cascade.stages) + 1))
    detections = []
    level = 0
    size = base
    while size <= min(w, h):
        step_k = max(1, round(step * size / base))
        grid_y, grid_x = np.meshgrid(
            np.arange(0, h - size + 1, step_k), np.arange(0, w - size + 1, step_k), indexing="ij"
        )
        xs = grid_x.ravel()
        ys = grid_y.ravel()
        stats.total_windows += xs.size
        if skin_table is not None:
            frac = _upright_sums(skin_table, xs, ys, size, size) / (size * size)
            keep = frac >= min_skin_fraction
            xs = xs[keep]
            ys = ys[keep]
        stats.evaluated_windows += xs.size
        if xs.size:
            margins = np.zeros(xs.size)
            alive = np.ones(xs.size, dtype=bool)
            n = size * size
            total = _upright_sums(iset.grid, xs, ys, size, size)
            total_sq = _upright_sums(iset.sq, xs, ys, size, size)
            sigma = np.maximum(np.sqrt(np.maximum(total_sq / n - (total / n) ** 2, 0.0)), 1.0)
            for k, stage in enumerate(cascade.stages):
                idx = np.flatnonzero(alive)
                stats.stage_windows[k] += idx.size
                if idx.size == 0:
                    break
                sx = xs[idx]
                sy = ys[idx]
                votes = np.zeros(idx.size)
                for wc, alpha in stage.stumps:
                    vals = np.zeros(idx.size, dtype=np.int64)
                    for px, py, pw, ph, wt in scaled_parts(wc.feature, size):
                        if wc.feature.tilted:
                            vals += wt * _tilted_sums(iset, sx + px, sy + py, pw, ph)
                        else:
                            vals += wt * _upright_sums(iset.grid, sx + px, sy + py, pw, ph)
                    vals = vals.astype(np.float64)
                    if variance_norm:
                        vals /= sigma[idx]
                    votes += alpha * (wc.polarity * vals < wc.polarity * wc.threshold)
                stage_margin = votes - stage.threshold
                margins[idx] = stage_margin
                alive[idx] = stage_margin >= 0
            for i in np.flatnonzero(alive):
                detections.append(
                    Detection(int(xs[i]), int(ys[i]), size, size, float(margins[i]))
                )
                stats.accepted_windows += 1
            stats.stage_windows[-1] += int(alive.sum())
        level += 1
        size = max(size + 1, round(base * scale_factor**level))
    return as_detections(detections), stats


_BANKS = {}


def bank(kind, base):
    if (kind, base) not in _BANKS:
        _BANKS[kind, base] = enumerate_kind(kind, base)
    return _BANKS[kind, base]


@st.composite
def cascades(draw, scale=1.0):
    """Small random cascades over every kind; thresholds near typical
    responses on random 8-bit images, so windows both pass and fail. On
    random 0/1 images the responses spread half as wide: scale 0.5."""
    base = draw(st.sampled_from([8, 9, 10]), label="base")
    stages = []
    for _ in range(draw(st.integers(0, 3), label="stages")):
        stumps = []
        for _ in range(draw(st.integers(1, 10), label="stumps")):
            kind = draw(st.sampled_from(KINDS + ("tilted_edge2", "tilted_line3")), label="kind")
            feature = draw(st.sampled_from(bank(kind, base)), label="feature")
            threshold = draw(st.floats(-25.0, 25.0), label="threshold") * scale
            polarity = draw(st.sampled_from([1, -1]), label="polarity")
            alpha = draw(st.floats(0.01, 2.0), label="alpha")
            stumps.append((WeakClassifier(feature, threshold, polarity), alpha))
        total = sum(alpha for _, alpha in stumps)
        stages.append(Stage(stumps, draw(st.floats(0.0, 1.0), label="pass share") * total))
    return Cascade(base, stages)


def edge_skin(h, w):
    """Skin on the last row and column only, and a gate that any skin pixel
    passes: a level evaluates just the windows that reach the image's
    bottom or right edge, so a level whose lattice stops short of both is
    empty, often between levels that are not."""
    skin = np.zeros((h, w), dtype=np.uint8)
    skin[-1, :] = skin[:, -1] = 1
    return skin, 1e-4


def stage_margin_calls(cascade, *args, **kwargs):
    """detect_multiscale_counted, and the stage of every stage evaluation."""
    original = detect._stage_margins
    calls = []

    def spy(plan, k, *rest):
        calls.append(k)
        return original(plan, k, *rest)

    with mock.patch.object(detect, "_stage_margins", spy):
        return detect_multiscale_counted(cascade, *args, **kwargs), calls


def mixed_cascade(features=None):
    """Three stages of base 10 over three stumps: by default two tilted and an upright one."""
    features = features or [bank("tilted_edge2", 10)[40], bank("tilted_line3", 10)[7], bank("edge2h", 10)[3]]
    stages = [
        Stage([(WeakClassifier(f, t, p), a) for f, t, p, a in zip(features, thresholds, (1, -1, 1), (0.5, 1.0, 0.7))], share)
        for thresholds, share in (((0.0, 0.0, 0.0), 0.5), ((0.5, -0.5, 1.0), 0.9), ((-0.5, 0.0, 0.5), 1.0))
    ]
    return Cascade(10, stages)


@pytest.fixture(scope="module")
def toy_cascade():
    rng = np.random.default_rng(21)
    pos, neg = [], []
    for _ in range(40):
        img = rng.integers(0, 70, size=(12, 12))
        img[3:9, 3:9] = rng.integers(180, 250, size=(6, 6))
        pos.append(img.astype(np.uint8))
    for _ in range(80):
        neg.append(rng.integers(0, 200, size=(12, 12)).astype(np.uint8))
    return train_cascade(
        pos, neg, n_stages=3, base_window=12, feature_subsample=300, max_stumps=4, seed=5
    )


def toy_scene(rng, h=60, w=80, spots=2):
    img = rng.integers(0, 60, size=(h, w)).astype(np.uint8)
    boxes = []
    for _ in range(spots):
        x = int(rng.integers(0, w - 14))
        y = int(rng.integers(0, h - 14))
        img[y + 3 : y + 9, x + 3 : x + 9] = 220
        boxes.append((x, y, 12, 12))
    return img, boxes


class TestDetectMultiscale:
    def test_all_zero_skin_mask_evaluates_nothing(self, toy_cascade):
        rng = np.random.default_rng(22)
        img, _ = toy_scene(rng)
        skin = np.zeros_like(img)
        dets, stats = detect_multiscale_counted(toy_cascade, img, skin=skin, min_skin_fraction=0.1)
        assert list(dets) == []
        assert stats.evaluated_windows == 0
        assert stats.total_windows > 0

    def test_window_count_matches_loop_oracle(self, toy_cascade):
        rng = np.random.default_rng(23)
        img, _ = toy_scene(rng, h=47, w=73)
        _, stats = detect_multiscale_counted(toy_cascade, img, scale_factor=1.3, step=3)
        assert stats.total_windows == scan_count_oracle(img.shape, 12, 1.3, 3)
        assert stats.evaluated_windows == stats.total_windows

    def test_all_one_mask_equals_no_mask(self, toy_cascade):
        rng = np.random.default_rng(24)
        img, _ = toy_scene(rng)
        no_mask = detect_multiscale_counted(toy_cascade, img)[0]
        all_one = detect_multiscale_counted(toy_cascade, img, skin=np.ones_like(img))[0]
        assert no_mask == all_one

    def test_agrees_with_per_window_classifier(self, toy_cascade):
        rng = np.random.default_rng(25)
        img, _ = toy_scene(rng, h=40, w=40)
        dets, _ = detect_multiscale_counted(toy_cascade, img, step=4)
        accepted = {(d.x, d.y, d.w) for d in dets}
        iset = integral_set(img)
        level, size = 0, 12
        while size <= 40:
            step_k = max(1, round(4 * size / 12))
            for y in range(0, 40 - size + 1, step_k):
                for x in range(0, 40 - size + 1, step_k):
                    ok, margin = classify_window(toy_cascade, iset, x, y, size)
                    assert ok == ((x, y, size) in accepted)
                    if ok:
                        det = next(d for d in dets if (d.x, d.y, d.w) == (x, y, size))
                        assert det.score == pytest.approx(margin, rel=1e-9, abs=1e-12)
            level += 1
            size = max(size + 1, round(12 * 1.25**level))

    def test_scan_order_is_scale_then_row_major(self, toy_cascade):
        rng = np.random.default_rng(26)
        img, _ = toy_scene(rng, spots=4)
        dets = detect_multiscale_counted(toy_cascade, img)[0]
        keys = [(d.w, d.y, d.x) for d in dets]
        assert keys == sorted(keys)

    def test_empty_cascade_accepts_everything(self):
        cascade = Cascade(12, [])
        img = np.zeros((20, 20), dtype=np.uint8)
        dets, stats = detect_multiscale_counted(cascade, img, step=5)
        assert len(dets) == stats.total_windows
        assert all(d.score == 0.0 for d in dets)

    def test_parameter_validation(self, toy_cascade):
        img = np.zeros((30, 30), dtype=np.uint8)
        with pytest.raises(ValueError):
            detect_multiscale_counted(toy_cascade, img, scale_factor=1.0)
        with pytest.raises(ValueError):
            detect_multiscale_counted(toy_cascade, img, step=0)
        with pytest.raises(ValueError):
            detect_multiscale_counted(toy_cascade, img, skin=np.zeros((4, 4), dtype=np.uint8))


class TestCompiledScan:
    @given(
        st.data(),
        st.booleans(),
        st.integers(5, 40),
        st.integers(5, 40),
        st.integers(1, 4),
        st.sampled_from([1.1, 1.25, 1.5, 2.0]),
        st.sampled_from([1, 3, SCAN_ROWS]),
        st.integers(0, 1 << 30),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_stump_oracle(self, data, binary, h, w, step, scale_factor, block, seed):
        cascade = data.draw(cascades(0.5 if binary else 1.0), label="cascade")
        rng = np.random.default_rng(seed)
        # pixels of 0 and 1 only: the pixel sigma is floored at 1, so the
        # normalised responses are the raw integer ones
        img = rng.integers(0, 2 if binary else 256, size=(h, w)).astype(np.uint8)
        skin = None
        min_skin = 0.25
        gate = data.draw(st.sampled_from([None, "random", "edges"]), label="gate")
        if gate == "random":
            skin = (rng.random((h, w)) < rng.random()).astype(np.uint8)
            min_skin = data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]), label="min skin")
        elif gate == "edges":
            skin, min_skin = edge_skin(h, w)
        args = (skin, scale_factor, step, min_skin)
        with mock.patch.object(detect, "SCAN_ROWS", block):
            got = detect_multiscale_counted(cascade, img, *args)
        assert got == scan_oracle(cascade, img, *args)
        if binary:
            assert got == scan_oracle(cascade, img, *args, variance_norm=False)

    # the default block, and 4096: a block larger than the default and than every level
    @pytest.mark.parametrize("block", sorted({1, 3, SCAN_ROWS, 4096}))
    def test_tilted_cascade_over_gated_levels_with_gaps(self, block):
        # base 10, step 3, scale 1.1 on 31 x 31: the size-k windows reach the
        # last row and column iff (31 - k) % step_k == 0
        h = w = 31
        pattern, level, size = "", 0, 10
        while size <= w:
            pattern += "1" if (w - size) % max(1, round(3 * size / 10)) == 0 else "0"
            level += 1
            size = max(size + 1, round(10 * 1.1**level))
        assert pattern == "1000110101001"
        cascade = mixed_cascade()
        img = np.random.default_rng(37).integers(0, 256, size=(h, w)).astype(np.uint8)
        skin, min_skin = edge_skin(h, w)
        with mock.patch.object(detect, "SCAN_ROWS", block):
            got, calls = stage_margin_calls(cascade, img, skin, 1.1, 3, min_skin)
        want = scan_oracle(cascade, img, skin, 1.1, 3, min_skin)
        assert got == want
        assert want[1].evaluated_windows > 0 and want[1].stage_windows[2] > want[1].accepted_windows > 0
        assert calls == [0, 1, 2]

    def test_each_stage_is_evaluated_once_per_scan(self, toy_cascade):
        img, _ = toy_scene(np.random.default_rng(38), spots=4)
        (dets, stats), calls = stage_margin_calls(toy_cascade, img, step=1)
        assert dets and stats.accepted_windows == len(dets)
        # 8 non-empty levels, 3 stages: one evaluation per stage reached
        assert len({d.w for d in dets}) > 1
        assert calls == list(range(len(toy_cascade.stages)))

    def test_one_cascade_over_images_of_different_widths(self, toy_cascade):
        cascade = Cascade(toy_cascade.base_window, toy_cascade.stages)
        rng = np.random.default_rng(31)
        images = [toy_scene(rng, h=40, w=w)[0] for w in (31, 57, 31, 44)]
        for img in images:
            assert detect_multiscale_counted(cascade, img, step=1) == scan_oracle(cascade, img, step=1)
        assert cascade.programs  # compiled once, reused across the images

    def test_tilted_cascade_over_images_of_different_widths(self):
        rng = np.random.default_rng(32)
        stumps = [
            (WeakClassifier(f, 0.0, 1), 1.0)
            for f in (bank("tilted_edge2", 10)[40], bank("tilted_line3", 10)[7], bank("edge2h", 10)[3])
        ]
        cascade = Cascade(10, [Stage(stumps, 1.5)])
        for w in (23, 36, 23, 17):
            img = rng.integers(0, 256, size=(29, w)).astype(np.uint8)
            assert detect_multiscale_counted(cascade, img, step=1) == scan_oracle(cascade, img, step=1)

    def test_empty_cascade(self):
        cascade = Cascade(12, [])
        img = np.random.default_rng(33).integers(0, 256, size=(25, 31)).astype(np.uint8)
        got = detect_multiscale_counted(cascade, img, step=3)
        assert got == scan_oracle(cascade, img, step=3)
        assert got[1].stage_windows == [got[1].total_windows]

    def test_image_smaller_than_the_window(self, toy_cascade):
        img = np.zeros((11, 40), dtype=np.uint8)
        dets, stats = detect_multiscale_counted(toy_cascade, img)
        assert (dets, stats) == scan_oracle(toy_cascade, img)
        assert stats == ScanStats(stage_windows=[0] * (len(toy_cascade.stages) + 1))

    @pytest.mark.parametrize("gated", [False, True])
    @pytest.mark.parametrize(
        "scale_factor, step",
        [(1e308, 2), (1.25, 10**20), (1e308, 10**400), (81.0, 80), (1.25, 81)],
        ids=["scale-1e308", "step-1e20", "both-huge", "near-the-side", "step-past-the-side"],
    )
    def test_huge_scale_factor_or_step_scans_as_the_image_side(self, toy_cascade, scale_factor, step, gated):
        # a second level wider than the image ends the pyramid, and a step of
        # the image side or more places one window per level: any larger
        # value scans as the side itself, without overflowing on the way
        img, _ = toy_scene(np.random.default_rng(39))
        skin = edge_skin(*img.shape)[0] if gated else None
        side = max(img.shape) + 1
        want = scan_oracle(toy_cascade, img, skin, min(scale_factor, side), min(step, side))
        assert detect_multiscale_counted(toy_cascade, img, skin, scale_factor, step) == want
        assert want[1].total_windows < scan_oracle(toy_cascade, img, skin)[1].total_windows

    def test_upright_cascade_builds_no_tilted_tables(self, toy_cascade):
        assert not any(wc.feature.tilted for s in toy_cascade.stages for wc, _ in s.stumps)
        img = toy_scene(np.random.default_rng(34))[0]
        with mock.patch.object(detect, "integral_set", wraps=detect.integral_set) as build:
            detect_multiscale_counted(toy_cascade, img)
        # one build per scan, into the plan's tables when the shape was scanned before
        build.assert_called_once()
        assert build.call_args.args[0] is img and build.call_args.kwargs["with_tilted"] is False
        ((_, plan),) = toy_cascade.plan.items()
        assert plan.tables.planes is None and len(plan.flats) == 1


def pyramid_sizes(base, limit, scale_factor=1.25):
    """The window sides of a scan's levels, up to ``limit``."""
    sizes = [base]
    while (size := max(sizes[-1] + 1, round(base * scale_factor ** len(sizes)))) <= limit:
        sizes.append(size)
    return sizes


class TestScanPlan:
    @pytest.mark.parametrize("tilted", [False, True])
    def test_one_plan_replaced_on_each_new_shape_and_parameters(self, toy_cascade, tilted):
        model = mixed_cascade() if tilted else toy_cascade
        cascade = Cascade(model.base_window, model.stages)
        rng = np.random.default_rng(40)
        wide, narrow = (rng.integers(0, 256, size=shape).astype(np.uint8) for shape in ((31, 47), (36, 29)))
        runs = [(wide, 1.25, 2), (narrow, 1.25, 2), (wide, 1.25, 2), (wide, 1.5, 1), (wide, 1.5, 1), (narrow, 1.5, 1),
                (narrow, 1.25, 2), (wide, 1.25, 1), (wide, 1.5, 2), (wide, 1.25, 2)]
        previous = None
        for img, scale_factor, step in runs:
            got = detect_multiscale_counted(cascade, img, None, scale_factor, step)
            assert got == scan_oracle(cascade, img, None, scale_factor, step)
            # exactly one plan, for this call's key; a repeated key reuses it
            ((key, plan),) = cascade.plan.items()
            assert key == (img.shape, scale_factor, step)
            if previous is not None:
                assert (plan is previous[1]) == (key == previous[0])
            previous = key, plan

    def test_lone_stump_corners_and_shared_weights(self):
        # the plan reads each stump as compile_features([feature], size) does,
        # stump after stump, and each stage's one weight matrix is the weights
        # times the polarities at every level and parity
        cascade = mixed_cascade()
        img = np.random.default_rng(41).integers(0, 256, size=(30, 40)).astype(np.uint8)
        plan = detect._scan_plan(cascade, img, 1.25, 2)
        stumps = [wc for stage in cascade.stages for wc, _ in stage.stumps]
        for size in plan.sizes.tolist():
            alone = [compile_features([wc.feature], size) for wc in stumps]
            for table, corners in detect._compiled(cascade, size).items():
                want = [(c.plane, c.row, c.col, c.weight) for one in alone for c in one if c.table == table]
                got = corners.plane, corners.row, corners.col, corners.weight
                assert all(np.array_equal(g, np.concatenate(w)) for g, w in zip(got, zip(*want)))
        for stage, reads in zip(cascade.stages, plan.stages):
            for kind, offsets, coef in reads:
                assert offsets.shape[0] == len(plan.sizes) * (1 + kind)
                assert coef.dtype == np.float64 and coef.shape[1] == len(stage.stumps)

    def test_every_bank_stump_keeps_its_weights_at_every_level_and_parity(self):
        # the whole 24-px bank, kind by kind, at the pyramid sizes up to 8x
        # the base: each feature reads its corners in one order with one
        # weight column, so the plan build never refuses a bank feature
        for kind in KINDS:
            features = bank(kind, 24)
            cascade = Cascade(24, [Stage([(WeakClassifier(f, 0.0, 1), 1.0) for f in features], 0.0)])
            base = detect._compiled(cascade, 24)
            tables = {0} if not features[0].tilted else {1, 2}
            assert set(base) == tables
            for size in pyramid_sizes(24, 8 * 24):
                compiled = detect._compiled(cascade, size)
                assert set(compiled) == tables
                for table, corners in compiled.items():
                    want = base[min(table, 1)]
                    assert np.array_equal(corners.feature, want.feature) and np.array_equal(corners.weight, want.weight)
                if size != 24:
                    del cascade.programs[size]  # memory stays one size's compile

    @pytest.mark.parametrize("changed", ["size", "parity"])
    def test_plan_build_refuses_weights_that_vary(self, changed):
        cascade = mixed_cascade()
        original = detect.compile_features

        def varied(features, size):
            out = original(features, size)
            if changed == "parity":
                return [replace(c, weight=-c.weight) if c.table == 2 else c for c in out]
            return [replace(c, weight=2 * c.weight) if size > 10 else c for c in out]

        img = np.random.default_rng(42).integers(0, 256, size=(24, 24)).astype(np.uint8)
        with mock.patch.object(detect, "compile_features", varied):
            with pytest.raises(ValueError, match="stump weights"):
                detect_multiscale_counted(cascade, img)
        assert not cascade.plan


class TestExactProducts:
    @staticmethod
    def with_plan(cascade, img, edit, step=4):
        """A copy of the cascade whose plan for ``img`` is edited."""
        copy = Cascade(cascade.base_window, cascade.stages)
        plan = detect._scan_plan(copy, img, 1.25, step)
        (key,) = copy.plan
        copy.plan[key] = edit(plan)
        return copy

    def test_weight_norm_bounds_every_response(self, toy_cascade):
        rng = np.random.default_rng(36)
        img = rng.integers(0, 256, size=(30, 30)).astype(np.uint8)
        pixel_sum = int(img.astype(np.int64).sum())
        iset = integral_set(img)
        plan = detect._scan_plan(toy_cascade, img, 1.25, 6)
        norms = []
        for stage, reads in zip(toy_cascade.stages, plan.stages):
            # each stump's column L1 norm, summed over the table kinds
            norms.append(sum(np.abs(coef).sum(axis=0) for _, _, coef in reads))
            for wc, norm in zip([wc for wc, _ in stage.stumps], norms[-1]):
                assert norm > 0
                for y in range(0, 19, 6):
                    for x in range(0, 19, 6):
                        response = eval_feature(wc.feature, iset, x, y, 12, variance_norm=False)
                        assert abs(response) <= pixel_sum * norm
        assert plan.weight_l1 == max(np.concatenate(norms))

    def test_products_reaching_2_53_raise(self, toy_cascade):
        img = np.full((16, 32), 128, dtype=np.uint8)  # pixel sum 2**16
        limit = detect.EXACT_LIMIT // 2**16  # pixel sum * limit == 2**53
        below = self.with_plan(toy_cascade, img, lambda p: replace(p, weight_l1=limit - 1))
        assert detect_multiscale_counted(below, img, step=4) == detect_multiscale_counted(toy_cascade, img, step=4)
        at = self.with_plan(toy_cascade, img, lambda p: replace(p, weight_l1=limit))
        with pytest.raises(ValueError, match=r"reaches 2\*\*53"):
            detect_multiscale_counted(at, img, step=4)

    def test_huge_weights_are_refused_not_rounded(self, toy_cascade):
        factor = 2**44

        def scaled(plan):
            stages = [[(t, offsets, coef * factor) for t, offsets, coef in reads] for reads in plan.stages]
            return replace(plan, stages=stages, weight_l1=plan.weight_l1 * factor)

        img = np.full((12, 30), 200, dtype=np.uint8)
        huge = self.with_plan(toy_cascade, img, scaled, step=2)
        with pytest.raises(ValueError, match="would not be exact"):
            detect_multiscale_counted(huge, img)


REFERENCE_CASCADE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "cascade.txt"


class TestWorkspace:
    """The plan's workspace (tables, skin table, float64 tables, index and
    gather blocks) carries nothing from one scan to the next: every scan
    equals the scan of a fresh copy of the cascade, whose plan is empty."""

    @pytest.fixture(params=["reference", "tilted toy"])
    def model(self, request):
        """A cascade, two images of one shape and one of another, and two skin masks."""
        rng = np.random.default_rng(41)
        if request.param == "reference":
            cascade = load_cascade(REFERENCE_CASCADE)
            a, b = (render_scene(rng, n_faces=2).gray for _ in range(2))
        else:
            cascade = mixed_cascade()
            a, b = (rng.integers(0, 256, size=(31, 47)).astype(np.uint8) for _ in range(2))
        other = b[:, : b.shape[1] - 9]  # another shape, and a strided view
        # random skin that most windows pass, and skin on the left half only
        skin = (rng.random(a.shape) < 0.7).astype(np.uint8)
        skin_b = np.zeros_like(skin)
        skin_b[:, : a.shape[1] // 2] = 1
        return cascade, a, b, other, (skin, skin_b)

    @staticmethod
    def assert_scans_equal_fresh_ones(cascade, scans):
        """Each (image, skin) scan of ``cascade``, in order, equals that of a fresh copy."""
        for img, skin in scans:
            got = detect_multiscale_counted(cascade, img, skin)
            fresh = Cascade(cascade.base_window, cascade.stages)
            want = detect_multiscale_counted(fresh, img, skin)
            assert got == want
            assert want[1].evaluated_windows > 0

    def test_same_shape_a_b_a(self, model):
        cascade, a, b, _, (skin, skin_b) = model
        self.assert_scans_equal_fresh_ones(cascade, [(a, skin), (b, skin_b), (a, skin)])
        assert detect_multiscale_counted(cascade, a)[1].accepted_windows > 0

    def test_gated_ungated_gated(self, model):
        cascade, a, _, _, (skin, _) = model
        self.assert_scans_equal_fresh_ones(cascade, [(a, skin), (a, None), (a, skin)])

    def test_first_scan_after_a_shape_change(self, model):
        cascade, a, _, other, (skin, _) = model
        self.assert_scans_equal_fresh_ones(cascade, [(a, skin), (other, None), (a, None), (a, skin)])

    def test_first_scan_after_an_inexact_image_is_refused(self, model):
        cascade, a, _, _, (skin, skin_b) = model
        self.assert_scans_equal_fresh_ones(cascade, [(a, skin)])
        with pytest.raises(ValueError, match=r"reaches 2\*\*53"):
            detect_multiscale_counted(cascade, a.astype(np.int64) << 40, skin_b)
        self.assert_scans_equal_fresh_ones(cascade, [(a, skin), (a, None)])


def prefix(cascade, k):
    """A new Cascade of the first ``k`` stages of ``cascade``: its plan is empty."""
    return Cascade(cascade.base_window, cascade.stages[:k])


class TestLiveWindows:
    """A scan that continues a record of the same image, parameters, gate and
    leading stages runs only the new stages, and returns the full scan."""

    @given(
        st.data(),
        st.integers(5, 40),
        st.integers(5, 40),
        st.integers(1, 4),
        st.sampled_from([1.1, 1.25, 2.0]),
        st.sampled_from([1, 3, SCAN_ROWS]),
        st.sampled_from([None, "random", "edges"]),
        st.integers(0, 1 << 30),
    )
    @settings(max_examples=80, deadline=None)
    def test_prefix_scans_with_one_record_equal_full_scans(self, data, h, w, step, scale_factor, block, gate, seed):
        cascade = data.draw(cascades(), label="cascade")
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        skin, min_skin = None, 0.25
        if gate == "random":
            skin = (rng.random((h, w)) < 0.6).astype(np.uint8)
        elif gate == "edges":
            skin, min_skin = edge_skin(h, w)
        args = (skin, scale_factor, step, min_skin)
        live = LiveWindows()
        with mock.patch.object(detect, "SCAN_ROWS", block):
            for k in range(len(cascade.stages) + 1):
                got, calls = stage_margin_calls(prefix(cascade, k), img, *args, live=live)
                assert got == detect_multiscale_counted(prefix(cascade, k), img, *args)
                # the first scan runs stage 0 (if any, and any window is gated
                # in), each later one its newest stage only
                assert calls == ([k - 1] if k and got[1].stage_windows[k - 1] else [])
                assert live.stages == cascade.stages[:k]

    @pytest.mark.parametrize("block", [1, 3, SCAN_ROWS])
    def test_tilted_cascade_stage_by_stage(self, block):
        cascade = mixed_cascade()
        img = np.random.default_rng(42).integers(0, 256, size=(31, 37)).astype(np.uint8)
        live = LiveWindows()
        with mock.patch.object(detect, "SCAN_ROWS", block):
            for k in range(1, 4):
                got, calls = stage_margin_calls(prefix(cascade, k), img, None, 1.1, 2, live=live)
                assert got == scan_oracle(prefix(cascade, k), img, None, 1.1, 2)
                assert calls == [k - 1]
        assert got[1].stage_windows[2] > got[1].accepted_windows > 0

    def test_same_stages_again_return_the_full_scans_scores(self):
        cascade = mixed_cascade()
        img = np.random.default_rng(43).integers(0, 256, size=(31, 37)).astype(np.uint8)
        live = LiveWindows()
        first = detect_multiscale_counted(cascade, img, step=1, live=live)
        again, calls = stage_margin_calls(cascade, img, step=1, live=live)
        assert calls == []
        assert again == first == detect_multiscale_counted(prefix(cascade, 3), img, step=1)
        assert np.any(again[0].score != 0.0)

    @pytest.mark.parametrize(
        "change", ["shape", "pixels", "step", "scale_factor", "gate", "min skin", "stages", "fewer stages", "base"]
    )
    def test_a_record_of_anything_else_restarts(self, change):
        cascade = mixed_cascade()
        rng = np.random.default_rng(44)
        img = rng.integers(0, 256, size=(31, 37)).astype(np.uint8)
        skin = (rng.random(img.shape) < 0.7).astype(np.uint8)
        first = dict(skin=skin, scale_factor=1.25, step=2, min_skin_fraction=0.25)
        live = LiveWindows()
        detect_multiscale_counted(prefix(cascade, 2), img, live=live, **first)
        then, scanned = dict(first), img
        if change == "shape":
            scanned, then["skin"] = img[:, :30], skin[:, :30]
        elif change == "pixels":
            scanned = img.copy()
            scanned[0, 0] ^= 1
        elif change in ("step", "scale_factor"):
            then[change] = {"step": 3, "scale_factor": 1.5}[change]
        elif change == "gate":
            then["skin"] = None
        elif change == "min skin":
            then["min_skin_fraction"] = 0.5
        stages = cascade.stages
        if change == "stages":
            stages = [stages[1], stages[0], stages[2]]
        elif change == "fewer stages":
            stages = stages[:1]
        base = 11 if change == "base" else 10
        if change == "base":
            # the same stumps in an 11 px window
            stages = [
                Stage([(replace(wc, feature=replace(wc.feature, window=11)), a) for wc, a in s.stumps], s.threshold)
                for s in stages
            ]
        other = Cascade(base, stages)
        got, calls = stage_margin_calls(other, scanned, live=live, **then)
        fresh = Cascade(base, stages)
        assert got == detect_multiscale_counted(fresh, scanned, **then)
        assert calls == list(range(len(stages)))
        assert live.stages == stages

    def test_a_continued_scan_still_refuses_inexact_products(self, toy_cascade):
        img = np.full((16, 32), 128, dtype=np.uint8)  # pixel sum 2**16
        at_limit = detect.EXACT_LIMIT // 2**16
        live = LiveWindows()
        first = detect_multiscale_counted(prefix(toy_cascade, 1), img, step=4, live=live)
        for k in (1, len(toy_cascade.stages)):
            inexact = TestExactProducts.with_plan(prefix(toy_cascade, k), img, lambda p: replace(p, weight_l1=at_limit))
            with pytest.raises(ValueError, match=r"reaches 2\*\*53"):
                detect_multiscale_counted(inexact, img, step=4, live=live)
            assert live.stages == toy_cascade.stages[:1]
        assert first[1].evaluated_windows > 0
        assert detect_multiscale_counted(prefix(toy_cascade, 1), img, step=4, live=live) == first


class ScanCaches(RuleBasedStateMachine):
    """Scans in random order through a cascade's caches (its compiled
    corners, its one plan and the plan's workspace), its prefix cascades'
    caches and one LiveWindows record, while the pixels change in place and
    SCAN_ROWS changes: every scan equals a fresh cascade copy's scan and
    scan_oracle's, boxes, scores and ScanStats."""

    features = None  # mixed_cascade's stumps; a subclass may give others
    # two shapes of one height, and a shape and its transpose
    images = dict(shape=st.sampled_from([(20, 24), (20, 17), (24, 20)]),
                  dtype=st.sampled_from(["uint8", "uint16", "int64"]), seed=st.integers(0, 2**16))

    def __init__(self):
        super().__init__()
        cascade = mixed_cascade(self.features)
        # cascade k has the first k stages; the last is the whole cascade
        self.cascades = [prefix(cascade, k) for k in range(len(cascade.stages))] + [cascade]
        self.record = LiveWindows()
        self.recorded = None  # the gate and parameters of the last scan with the record

    def teardown(self):
        detect.SCAN_ROWS = SCAN_ROWS

    @initialize(**images)
    def first_image(self, shape, dtype, seed):
        self.new_image(shape, dtype, seed)

    @rule(**images)
    def new_image(self, shape, dtype, seed):
        self.img = np.random.default_rng(seed).integers(0, 256, size=shape).astype(dtype)

    @rule(y=st.integers(0, 30), x=st.integers(0, 30))
    def change_pixels(self, y, x):
        # in place: the same array holds other pixels
        self.img[y : y + 6, x : x + 6] = 255 - self.img[y : y + 6, x : x + 6]

    @rule(block=st.sampled_from([1, 3, SCAN_ROWS]))
    def set_scan_rows(self, block):
        detect.SCAN_ROWS = block

    @rule(
        k=st.integers(0, 3),
        gate=st.sampled_from([None, "left", "edges"]),
        scale_factor=st.sampled_from([1.25, 1.5]),
        step=st.sampled_from([1, 2]),
        use_record=st.booleans(),
    )
    def scan(self, k, gate, scale_factor, step, use_record):
        h, w = self.img.shape
        skin, min_skin = None, 0.25
        if gate == "left":
            skin = np.zeros((h, w), dtype=np.uint8)
            skin[:, : w // 2] = 1
        elif gate == "edges":
            skin, min_skin = edge_skin(h, w)
        cascade = self.cascades[k]
        args = (self.img, skin, scale_factor, step, min_skin)
        got = detect_multiscale_counted(cascade, *args, live=self.record if use_record else None)
        assert got == detect_multiscale_counted(Cascade(cascade.base_window, cascade.stages), *args)
        assert got == scan_oracle(cascade, *args)
        if use_record:
            self.recorded = gate, scale_factor, step

    @precondition(lambda self: self.recorded is not None and len(self.record.stages) < 3)
    @rule()
    def continue_record(self):
        # the next stage over the record's image, gate and parameters, unless they changed since
        self.scan(len(self.record.stages) + 1, *self.recorded, use_record=True)

    @rule(k=st.integers(1, 3), use_record=st.booleans())
    def inexact_image(self, k, use_record):
        # 340 or more pixels of at least 2**44: over 2**52 in pixel sum, times a weight norm of 2 or more
        huge = (self.img.astype(np.int64) + 1) << 44
        with pytest.raises(ValueError, match=r"reaches 2\*\*53"):
            detect_multiscale_counted(self.cascades[k], huge, live=self.record if use_record else None)


class UprightScanCaches(ScanCaches):
    features = [bank("edge2h", 10)[3], bank("line3v", 10)[11], bank("center_surround", 10)[5]]


TestScanCachesTilted = ScanCaches.TestCase
TestScanCachesUpright = UprightScanCaches.TestCase
for case in (TestScanCachesTilted, TestScanCachesUpright):
    case.settings = settings(max_examples=25, stateful_step_count=25, deadline=None)


class TestStageAttrition:
    @pytest.mark.parametrize("gated", [False, True])
    def test_counts_fall_from_evaluated_to_accepted(self, toy_cascade, gated):
        rng = np.random.default_rng(35)
        img, _ = toy_scene(rng, spots=4)
        skin = (rng.random(img.shape) < 0.6).astype(np.uint8) if gated else None
        _, stats = detect_multiscale_counted(toy_cascade, img, skin=skin, step=1)
        counts = stats.stage_windows
        assert len(counts) == len(toy_cascade.stages) + 1
        assert counts[0] == stats.evaluated_windows
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == stats.accepted_windows > 0
        assert counts[0] > counts[1]


def graph_components_oracle(dets, overlap):
    """Brute-force pairwise-IoU graph, components by repeated expansion."""
    n = len(dets)
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            bi = (dets[i].x, dets[i].y, dets[i].w, dets[i].h)
            bj = (dets[j].x, dets[j].y, dets[j].w, dets[j].h)
            adj[i][j] = iou(bi, bj) >= overlap
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        comp = {s}
        frontier = [s]
        seen[s] = True
        while frontier:
            i = frontier.pop()
            for j in range(n):
                if adj[i][j] and not seen[j]:
                    seen[j] = True
                    comp.add(j)
                    frontier.append(j)
        comps.append(frozenset(comp))
    return set(comps)


def merge_oracle(detections, min_neighbors=1, overlap=0.3):
    """The nested-loop merge: pairwise iou() in (i, j) order into a union-find."""
    n = len(detections)
    if n == 0:
        return []
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        bi = (detections[i].x, detections[i].y, detections[i].w, detections[i].h)
        for j in range(i + 1, n):
            dj = detections[j]
            if iou(bi, (dj.x, dj.y, dj.w, dj.h)) >= overlap:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(detections[i])
    merged = []
    for root in sorted(groups):
        members = groups[root]
        if len(members) < min_neighbors:
            continue
        mx = int(np.floor(np.mean([d.x for d in members]) + 0.5))
        my = int(np.floor(np.mean([d.y for d in members]) + 0.5))
        mw = int(np.floor(np.mean([d.w for d in members]) + 0.5))
        mh = int(np.floor(np.mean([d.h for d in members]) + 0.5))
        merged.append(Detection(mx, my, mw, mh, max(d.score for d in members)))
    return merged


# mixed sizes on a small field so that many pairs overlap; zero sides give
# pairs with a zero union
boxes = st.builds(
    Detection,
    st.integers(0, 40),
    st.integers(0, 40),
    st.integers(0, 30),
    st.integers(0, 30),
    st.floats(-5.0, 5.0, allow_nan=False),
)


def random_detections(rng, n, field=200):
    sides = rng.integers(8, 60, size=(n, 2))
    return [
        Detection(int(x), int(y), int(w), int(h), float(rng.normal()))
        for (x, y), (w, h) in zip(rng.integers(0, field, size=(n, 2)), sides)
    ]


class TestDetections:
    @pytest.mark.parametrize(
        "boxes, score",
        [
            ([[1, 2, 3, 4], [2, 3, 4, 5]], [0.5]),  # fewer scores than boxes
            ([[1, 2, 3, 4]], [0.5, 0.6]),  # more scores than boxes
            ([[[1, 2, 3, 4]]], [0.5]),  # boxes of rank 3
            ([[1, 2, 3]], [0.5]),  # three box fields
            ([1, 2, 3, 4], [0.5]),  # a box, not a row of boxes
            ([[1, 2, 3, 4]], [[0.5]]),  # scores of rank 2
        ],
    )
    def test_rejects_boxes_and_scores_of_other_shapes(self, boxes, score):
        with pytest.raises(ValueError, match=r"expected \(n, 4\) boxes and \(n,\) scores"):
            Detections(boxes, score)

    def test_rows_slices_and_masks(self):
        dets = Detections([[1, 2, 3, 4], [5, 6, 7, 8]], [0.5, 1.5])
        assert dets.boxes.dtype == np.int64 and dets.score.dtype == np.float64
        assert list(dets) == [Detection(1, 2, 3, 4, 0.5), Detection(5, 6, 7, 8, 1.5)]
        assert dets[1:] == dets[dets.score > 1.0] == Detections([[5, 6, 7, 8]], [1.5])
        assert len(Detections(np.empty((0, 4)), [])) == 0 == len(dets[:0])


class TestMergeDetections:
    def test_single_detection_unchanged(self):
        det = Detection(5, 6, 20, 20, 1.5)
        assert list(merge_detections(as_detections([det]), min_neighbors=1, overlap=0.5)) == [det]

    def test_two_identical_boxes_merge_to_one(self):
        a = Detection(5, 6, 20, 20, 1.0)
        b = Detection(5, 6, 20, 20, 2.0)
        merged = merge_detections(as_detections([a, b]), min_neighbors=2, overlap=0.5)
        assert list(merged) == [Detection(5, 6, 20, 20, 2.0)]

    def test_min_neighbors_drops_small_groups(self):
        a = Detection(0, 0, 10, 10, 1.0)
        b = Detection(50, 50, 10, 10, 1.0)
        assert list(merge_detections(as_detections([a, b]), min_neighbors=2, overlap=0.5)) == []

    def test_grouping_matches_graph_components_oracle(self):
        rng = np.random.default_rng(27)
        for _ in range(25):
            dets = []
            for _ in range(int(rng.integers(2, 16))):
                s = int(rng.integers(8, 20))
                dets.append(
                    Detection(
                        int(rng.integers(0, 40)),
                        int(rng.integers(0, 40)),
                        s,
                        s,
                        float(rng.normal()),
                    )
                )
            overlap = float(rng.uniform(0.15, 0.6))
            merged = merge_detections(as_detections(dets), min_neighbors=1, overlap=overlap)
            assert len(merged) == len(graph_components_oracle(dets, overlap))

    @given(
        st.lists(boxes, min_size=1, max_size=40),
        st.data(),
        st.integers(1, 5),
        st.sampled_from([0.2, 0.3, 1 / 3, 0.5, 0.75]),
        st.sampled_from([1, 3, MERGE_ROWS]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_nested_loop_oracle(self, dets, data, min_neighbors, overlap, block):
        for det in data.draw(st.lists(st.sampled_from(dets), max_size=5), label="duplicates"):
            dets.insert(data.draw(st.integers(0, len(dets)), label="at"), det)
        with mock.patch.object(detect, "MERGE_ROWS", block):
            got = merge_detections(as_detections(dets), min_neighbors, overlap)
        assert list(got) == merge_oracle(dets, min_neighbors, overlap)

    @pytest.mark.parametrize("n", [MERGE_ROWS - 1, MERGE_ROWS, 2 * MERGE_ROWS + 7])
    def test_matches_oracle_around_the_row_block(self, n):
        dets = random_detections(np.random.default_rng(n), n)
        for min_neighbors in (1, 3):
            assert list(merge_detections(as_detections(dets), min_neighbors)) == merge_oracle(dets, min_neighbors)

    @pytest.mark.parametrize("n", [10, 50, 200])
    def test_long_chains_in_scrambled_order(self, n):
        # box p overlaps only boxes p - 1 and p + 1, and the chain's boxes
        # come in random order: labels need many propagation rounds
        rng = np.random.default_rng(n)
        dets = [Detection(4 * int(p), 3, 10, 10, float(rng.normal())) for p in rng.permutation(n)]
        dets += [Detection(4 * n + 20, 3, 10, 10, 0.0)]  # a group of its own
        for min_neighbors in (1, 2, n):
            got = merge_detections(as_detections(dets), min_neighbors, overlap=0.3)
            assert list(got) == merge_oracle(dets, min_neighbors, overlap=0.3)
        assert len(merge_detections(as_detections(dets), 1, overlap=0.3)) == 2

    def test_iou_equal_to_overlap_joins(self):
        a = Detection(0, 0, 10, 10, 1.0)
        b = Detection(5, 0, 10, 10, 2.0)
        assert iou((0, 0, 10, 10), (5, 0, 10, 10)) == 1 / 3
        merged = merge_detections(as_detections([a, b]), min_neighbors=2, overlap=1 / 3)
        assert list(merged) == merge_oracle([a, b], 2, 1 / 3)
        assert len(merged) == 1

    def test_overlap_validation(self):
        with pytest.raises(ValueError):
            merge_detections(as_detections([]), min_neighbors=1, overlap=1.5)


# (x, y, w, h) tuples, zero sides included: pairs with a zero union
corner_boxes = st.tuples(st.integers(-5, 30), st.integers(-5, 30), st.integers(0, 20), st.integers(0, 20))


class TestIou:
    def test_identity_and_symmetry(self):
        rng = np.random.default_rng(28)
        for _ in range(50):
            a = tuple(int(v) for v in rng.integers(0, 20, size=2)) + tuple(
                int(v) for v in rng.integers(1, 15, size=2)
            )
            b = tuple(int(v) for v in rng.integers(0, 20, size=2)) + tuple(
                int(v) for v in rng.integers(1, 15, size=2)
            )
            assert iou(a, a) == 1.0
            assert iou(a, b) == iou(b, a)
            assert 0.0 <= iou(a, b) <= 1.0

    @given(st.lists(corner_boxes, max_size=8), st.lists(corner_boxes, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_pairwise_iou_equals_iou_elementwise_property(self, a, b):
        # each box of a also meets an identical, a nested and two touching boxes
        for x, y, w, h in a:
            b += [(x, y, w, h), (x + 1, y + 1, max(w - 2, 0), max(h - 2, 0)), (x + w, y, w, h), (x, y + h, w, h)]
        got = pairwise_iou(a, b)
        assert got.shape == (len(a), len(b)) and got.dtype == np.float64
        assert got.tolist() == [[iou(p, q) for q in b] for p in a]
