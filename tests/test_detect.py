from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facedet import detect
from facedet.boost import Cascade, classify_window, train_cascade
from facedet.detect import (
    MERGE_ROWS,
    Detection,
    detect_multiscale,
    detect_multiscale_counted,
    iou,
    merge_detections,
)
from facedet.integral import integral_set


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
        assert dets == []
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
        no_mask = detect_multiscale(toy_cascade, img)
        all_one = detect_multiscale(toy_cascade, img, skin=np.ones_like(img))
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
        dets = detect_multiscale(toy_cascade, img)
        keys = [(d.w, d.y, d.x) for d in dets]
        assert keys == sorted(keys)

    def test_empty_cascade_accepts_everything(self):
        cascade = Cascade(12, [], [])
        img = np.zeros((20, 20), dtype=np.uint8)
        dets, stats = detect_multiscale_counted(cascade, img, step=5)
        assert len(dets) == stats.total_windows
        assert all(d.score == 0.0 for d in dets)

    def test_parameter_validation(self, toy_cascade):
        img = np.zeros((30, 30), dtype=np.uint8)
        with pytest.raises(ValueError):
            detect_multiscale(toy_cascade, img, scale_factor=1.0)
        with pytest.raises(ValueError):
            detect_multiscale(toy_cascade, img, step=0)
        with pytest.raises(ValueError):
            detect_multiscale(toy_cascade, img, skin=np.zeros((4, 4), dtype=np.uint8))


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
        merged.append(
            Detection(
                mx, my, mw, mh,
                max(d.score for d in members),
                float(np.mean([d.scale for d in members])),
            )
        )
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
    st.sampled_from([1.0, 1.25, 1.5625, 2.0]),
)


def random_detections(rng, n, field=200):
    sides = rng.integers(8, 60, size=(n, 2))
    return [
        Detection(int(x), int(y), int(w), int(h), float(rng.normal()), float(w) / 24)
        for (x, y), (w, h) in zip(rng.integers(0, field, size=(n, 2)), sides)
    ]


class TestMergeDetections:
    def test_single_detection_unchanged(self):
        det = Detection(5, 6, 20, 20, 1.5, 1.0)
        assert merge_detections([det], min_neighbors=1, overlap=0.5) == [det]

    def test_two_identical_boxes_merge_to_one(self):
        a = Detection(5, 6, 20, 20, 1.0, 1.0)
        b = Detection(5, 6, 20, 20, 2.0, 1.0)
        merged = merge_detections([a, b], min_neighbors=2, overlap=0.5)
        assert len(merged) == 1
        assert (merged[0].x, merged[0].y, merged[0].w, merged[0].h) == (5, 6, 20, 20)
        assert merged[0].score == 2.0

    def test_min_neighbors_drops_small_groups(self):
        a = Detection(0, 0, 10, 10, 1.0, 1.0)
        b = Detection(50, 50, 10, 10, 1.0, 1.0)
        assert merge_detections([a, b], min_neighbors=2, overlap=0.5) == []

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
                        1.0,
                    )
                )
            overlap = float(rng.uniform(0.15, 0.6))
            merged = merge_detections(dets, min_neighbors=1, overlap=overlap)
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
            got = merge_detections(dets, min_neighbors, overlap)
        assert got == merge_oracle(dets, min_neighbors, overlap)

    @pytest.mark.parametrize("n", [MERGE_ROWS - 1, MERGE_ROWS, 2 * MERGE_ROWS + 7])
    def test_matches_oracle_around_the_row_block(self, n):
        dets = random_detections(np.random.default_rng(n), n)
        for min_neighbors in (1, 3):
            assert merge_detections(dets, min_neighbors) == merge_oracle(dets, min_neighbors)

    def test_iou_equal_to_overlap_joins(self):
        a = Detection(0, 0, 10, 10, 1.0, 1.0)
        b = Detection(5, 0, 10, 10, 2.0, 1.0)
        assert iou((0, 0, 10, 10), (5, 0, 10, 10)) == 1 / 3
        merged = merge_detections([a, b], min_neighbors=2, overlap=1 / 3)
        assert merged == merge_oracle([a, b], 2, 1 / 3)
        assert len(merged) == 1

    def test_overlap_validation(self):
        with pytest.raises(ValueError):
            merge_detections([], min_neighbors=1, overlap=1.5)


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
