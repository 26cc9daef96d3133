"""The synthetic scene generator against its first form: placement by grown
boxes equals placement by inflated boxes and IoU, draw for draw, and the
batched tile crop of ``build_corpus`` equals one ``crop_square`` per box.
A written corpus reads back through the loaders the CLI uses."""

import os

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from facedet.evaluate import load_manifest
from facedet.images import crop_square, resize_boxes
from facedet.netpbm import read_pgm
from facedet.pipeline import load_sample_dir
from facedet.synthetic import _place, build_corpus, write_corpus
from oracles import place_oracle


@st.composite
def occupied_boxes(draw):
    """Up to six boxes, some square, some reaching past the image edges."""
    boxes = []
    for _ in range(draw(st.integers(0, 6))):
        x, y = draw(st.integers(-10, 170)), draw(st.integers(-10, 130))
        bw = draw(st.integers(1, 60))
        bh = bw if draw(st.booleans()) else draw(st.integers(1, 60))
        boxes.append((x, y, bw, bh))
    return boxes


class TestPlace:
    @given(
        seed=st.integers(0, 2**32 - 1),
        occupied=occupied_boxes(),
        size=st.integers(1, 48),
        margin=st.integers(0, 5),
        w=st.integers(24, 160),
        h=st.integers(24, 120),
        x_max=st.none() | st.integers(0, 160),
    )
    # the one free spot's grown box touches the occupied box's grown box, or
    # (a 24x30 box grows by 6 and 8) overlaps it by 2 px
    @example(seed=0, occupied=[(36, 0, 24, 24)], size=24, margin=0, w=24, h=24, x_max=None)
    @example(seed=0, occupied=[(0, 38, 24, 30)], size=24, margin=0, w=24, h=24, x_max=None)
    @example(seed=0, occupied=[(0, 36, 24, 30)], size=24, margin=0, w=24, h=24, x_max=None)
    @settings(max_examples=300, deadline=None)
    def test_equals_inflated_iou_placement_draw_for_draw(self, seed, occupied, size, margin, w, h, x_max):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _place(rng, occupied, size, w, h, margin=margin, x_max=x_max)
        assert got == place_oracle(oracle_rng, occupied, size, w, h, margin=margin, x_max=x_max)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


@st.composite
def image_and_boxes(draw):
    """A gray image with sides 2-40 and 1-6 boxes inside it, some square."""
    h, w = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    img = draw(arrays(np.uint8, (h, w)))
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        bw = draw(st.integers(2, w))
        bh = min(bw, h) if draw(st.booleans()) else draw(st.integers(2, h))
        boxes.append((draw(st.integers(0, w - bw)), draw(st.integers(0, h - bh)), bw, bh))
    return img, boxes


class TestTileCrop:
    @given(image_and_boxes())
    # a 24-px box is returned uncropped by crop_square and resampled by resize_boxes
    @example((np.arange(30 * 30, dtype=np.uint8).reshape(30, 30), [(3, 5, 24, 24), (0, 0, 30, 30), (6, 6, 24, 24)]))
    @settings(max_examples=150, deadline=None)
    def test_one_resize_boxes_call_equals_crop_square_per_box(self, case):
        img, boxes = case
        tiles = resize_boxes(img, boxes, 24, 24)
        assert tiles.shape == (len(boxes), 24, 24)
        for tile, box in zip(tiles, boxes):
            assert np.array_equal(tile, crop_square(img, box, 24))


def test_written_corpus_reads_back(tmp_path):
    corpus = build_corpus(seed=3, n_train=3, n_test=2, n_pool=2)
    paths = write_corpus(corpus, str(tmp_path))
    assert sorted(paths) == ["neg", "pool", "pos", "test", "train"]
    for split in ("train", "test"):
        scenes = getattr(corpus, split)
        entries = load_manifest(paths[split])
        assert [os.path.basename(e.path) for e in entries] == [f"{split}_{i:04d}.pgm" for i in range(len(scenes))]
        assert [e.boxes for e in entries] == [scene.faces for scene in scenes]
        for entry, scene in zip(entries, scenes):
            assert read_pgm(entry.path).tobytes() == scene.gray.tobytes()
    for name, images in (("pos", corpus.pos_tiles), ("neg", corpus.neg_tiles), ("pool", corpus.pool)):
        assert sorted(os.listdir(paths[name])) == [f"{name}_{i:04d}.pgm" for i in range(len(images))]
        loaded = load_sample_dir(paths[name])
        assert [(img.shape, img.tobytes()) for img in loaded] == [(img.shape, img.tobytes()) for img in images]
