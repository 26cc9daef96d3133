"""Synthetic corpus generation and the scaled-down end-to-end experiment.

Scenes are cluttered grayscale backgrounds with procedurally drawn "faces"
(a bright oval with dark eye squares and a mouth bar). Two distractor
families populate the backgrounds:

* rings: oval outlines without inner structure, used as easy negatives;
* textured twins: faces overlaid with a +-amp checkerboard. Rectangle sums
  barely notice the checkerboard (it cancels over any box), so the Haar
  cascade sees them as faces, while the pattern rewrites every local
  comparison and makes them stand far apart in descriptor space. They are
  the controlled false-positive source the validator is meant to remove.

The color variant renders a skin-toned left half and a blue right half for
the search-space-gating experiment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .boost import Cascade
from .config import PipelineConfig
from .detect import iou
from .images import _round_u8, resize_boxes, to_grayscale
from .netpbm import write_pgm
from .pipeline import bootstrap_validator, evaluate_image, train_cascade_from_config
from .svm import LinearSvmModel

__all__ = [
    "Scene",
    "face_patch",
    "textured_face_patch",
    "ring_patch",
    "clutter_background",
    "render_scene",
    "render_color_scene",
    "build_corpus",
    "write_corpus",
    "experiment_config",
    "Experiment",
    "run_experiment",
]

CHECKER_AMP = 12


def face_patch(rng: np.random.Generator, size: int = 24) -> np.ndarray:
    """One jittered instance of the fixed face texture."""
    ys, xs = np.indices((size, size), dtype=np.float64)
    cx, cy = size * 0.5 - 0.5, size * 0.54 - 0.5
    rx, ry = size * 0.40, size * 0.46
    img = np.full((size, size), 40.0)
    oval = ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2 <= 1.0
    img[oval] = 205.0
    eye = max(2, round(size * 0.14))
    for ex in (round(size * 0.30) - eye // 2, round(size * 0.70) - eye // 2):
        ey = round(size * 0.38) - eye // 2
        img[ey : ey + eye, ex : ex + eye] = 30.0
    mw, mh = max(2, round(size * 0.34)), max(2, round(size * 0.10))
    mx, my = round(size * 0.5 - mw / 2), round(size * 0.72 - mh / 2)
    img[my : my + mh, mx : mx + mw] = 70.0
    gain = rng.uniform(0.85, 1.15)
    offset = rng.uniform(-18.0, 18.0)
    noise = rng.normal(0.0, 5.0, (size, size))
    return _round_u8(img * gain + offset + noise)


def textured_face_patch(rng: np.random.Generator, size: int = 24) -> np.ndarray:
    """Face plus a checkerboard: a box-sum twin that local patterns expose."""
    base = face_patch(rng, size).astype(np.float64)
    ys, xs = np.indices((size, size))
    checker = np.where((xs + ys) % 2 == 0, CHECKER_AMP, -CHECKER_AMP)
    return _round_u8(base + checker)


def ring_patch(rng: np.random.Generator, size: int = 24) -> np.ndarray:
    """Oval outline distractor with no interior structure."""
    ys, xs = np.indices((size, size), dtype=np.float64)
    cx = cy = size * 0.5 - 0.5
    rx, ry = size * 0.40, size * 0.44
    r2 = ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2
    img = np.full((size, size), 40.0)
    img[(r2 <= 1.0) & (r2 >= 0.62)] = 205.0
    noise = rng.normal(0.0, 5.0, (size, size))
    return _round_u8(img + noise)


def clutter_background(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    ys, xs = np.indices((h, w), dtype=np.float64)
    img = (
        rng.uniform(60.0, 140.0)
        + rng.uniform(-0.3, 0.3) * xs
        + rng.uniform(-0.3, 0.3) * ys
    )
    for _ in range(rng.integers(6, 12)):
        rw = int(rng.integers(10, w // 2))
        rh = int(rng.integers(10, h // 2))
        rx = int(rng.integers(0, w - rw))
        ry = int(rng.integers(0, h - rh))
        img[ry : ry + rh, rx : rx + rw] = rng.uniform(25.0, 225.0)
    return _round_u8(img + rng.normal(0.0, 6.0, (h, w)))


@dataclass(frozen=True)
class Scene:
    gray: np.ndarray
    faces: list[tuple[int, int, int, int]]
    distractors: list[tuple[int, int, int, int]]  # textured twins and rings


def _place(rng, occupied, size, w, h, margin=3, tries=60, x_max=None):
    limit_x = (x_max if x_max is not None else w) - size - margin
    limit_y = h - size - margin
    if limit_x < margin or limit_y < margin:
        return None
    # every box grows by a quarter of its side per axis, and the grown boxes
    # must stay disjoint (touching is fine) so detector clusters of nearby
    # objects cannot bridge into one merge group
    grown = []
    for ox, oy, ow, oh in occupied:
        dw, dh = round(ow / 4), round(oh / 4)
        grown.append((ox - dw, oy - dh, ox + ow + dw, oy + oh + dh))
    d = round(size / 4)
    for _ in range(tries):
        x = int(rng.integers(margin, limit_x + 1))
        y = int(rng.integers(margin, limit_y + 1))
        x0, y0, x1, y1 = x - d, y - d, x + size + d, y + size + d
        if all(x1 <= ox0 or ox1 <= x0 or y1 <= oy0 or oy1 <= y0 for ox0, oy0, ox1, oy1 in grown):
            return (x, y, size, size)
    return None


def _paste(rng, img, occupied, count, size_hi, patch, x_max=None):
    """Place up to ``count`` squares of side in [24, size_hi) clear of
    ``occupied``, paste ``patch(rng, side)`` into each and return their
    boxes; ``occupied`` grows by them, and a square with no room is skipped."""
    placed = []
    for _ in range(count):
        size = int(rng.integers(24, size_hi))
        box = _place(rng, occupied, size, img.shape[1], img.shape[0], x_max=x_max)
        if box is None:
            continue
        x, y, s, _ = box
        img[y : y + s, x : x + s] = patch(rng, s)
        occupied.append(box)
        placed.append(box)
    return placed


def render_scene(
    rng: np.random.Generator,
    w: int = 160,
    h: int = 120,
    n_faces: int = 1,
    n_textured: int = 2,
    n_rings: int = 1,
) -> Scene:
    img = clutter_background(rng, h, w)
    occupied: list[tuple[int, int, int, int]] = []
    faces = _paste(rng, img, occupied, n_faces, 35, face_patch)
    distractors = _paste(rng, img, occupied, n_textured, 35, textured_face_patch)
    distractors += _paste(rng, img, occupied, n_rings, 35, ring_patch)
    return Scene(img, faces, distractors)


SKIN_MIX = (1.0, 0.65, 0.55)  # Cb in ~[102, 125], Cr in ~[133, 171]
NONSKIN_MIX = (0.30, 0.45, 1.0)


def render_color_scene(
    rng: np.random.Generator, w: int = 160, h: int = 120, n_faces: int = 1
) -> tuple[np.ndarray, Scene]:
    """Skin-toned left half, blue right half; faces only on the skin side."""
    img = clutter_background(rng, h, w).astype(np.float64)
    faces = _paste(rng, img, [], n_faces, 33, face_patch, x_max=w // 2)
    v = np.clip(img, 30.0, 235.0)
    rgb = np.empty((h, w, 3), dtype=np.float64)
    half = w // 2
    for c in range(3):
        rgb[:, :half, c] = v[:, :half] * SKIN_MIX[c]
        rgb[:, half:, c] = v[:, half:] * NONSKIN_MIX[c]
    rgb = _round_u8(rgb)
    return rgb, Scene(to_grayscale(rgb), faces, [])


@dataclass(frozen=True)
class Corpus:
    train: list[Scene]
    test: list[Scene]
    pool: list[np.ndarray]  # clutter-only images for hard-negative mining
    pos_tiles: list[np.ndarray]  # base-window face crops from the train split
    neg_tiles: list[np.ndarray]  # base-window non-object crops


def build_corpus(
    seed: int = 7,
    n_train: int = 300,
    n_test: int = 100,
    n_pool: int = 100,
    base_window: int = 24,
) -> Corpus:
    """Train, test and pool scenes, and the base-window tiles of the train
    split, all from one generator seeded with ``seed``.

    The draws run in this order: the train scenes, the test scenes, the
    pool scenes (two rings on clutter, no face), then every tile, scene by
    scene. So ``n_test`` shifts the generator under the tiles and changes
    them. Per train scene the tiles are:

    * five positives per face: the exact box and four jittered ones (offset
      by -2..2 px, side scaled by -10..12 %), so the cascade tolerates the
      scan grid's offset and scale quantization;
    * one negative per size band (sides from ``base_window`` up to
      29, 36, 47, 63, 79 and 96 px), placed clear of the faces and the
      distractors as scene objects are, so big windows are represented too;
    * up to three near-miss negatives per face: windows 1.7-2.5 times its
      side with IoU < 0.2 against it, which teach the cascade to reject
      loose placements and keep merge clusters tight around the true box.

    Every tile box lies inside its scene, and each list is resized to
    ``base_window`` in one :func:`images.resize_boxes` call per scene.
    """
    rng = np.random.default_rng(seed)
    train = [render_scene(rng, n_faces=1, n_textured=2, n_rings=1) for _ in range(n_train)]
    test = [render_scene(rng, n_faces=1, n_textured=2, n_rings=1) for _ in range(n_test)]
    pool = []
    for _ in range(n_pool):
        scene = render_scene(rng, n_faces=0, n_textured=0, n_rings=2)
        pool.append(scene.gray)
    pos_tiles = []
    neg_tiles = []
    for scene in train:
        gh, gw = scene.gray.shape
        pos, neg = [], []
        for (x, y, s, _) in scene.faces:
            pos.append((x, y, s, s))
            for _ in range(4):
                ds = int(round(s * rng.uniform(-0.1, 0.12)))
                js = max(8, s + ds)
                jx = x + int(rng.integers(-2, 3))
                jy = y + int(rng.integers(-2, 3))
                jx = min(max(jx, 0), gw - js)
                jy = min(max(jy, 0), gh - js)
                pos.append((jx, jy, js, js))
        blocked = scene.faces + scene.distractors
        for size_hi in (30, 37, 48, 64, 80, 97):
            size = int(rng.integers(base_window, size_hi))
            box = _place(rng, blocked, size, gw, gh, margin=0)
            if box is not None:
                neg.append(box)
        for (x, y, s, _) in scene.faces:
            for _ in range(3):
                ns = int(round(s * rng.uniform(1.7, 2.5)))
                nx = x + int(rng.integers(-ns // 2, s))
                ny = y + int(rng.integers(-ns // 2, s))
                nx = min(max(nx, 0), gw - ns)
                ny = min(max(ny, 0), gh - ns)
                if ns > min(gw, gh):
                    continue
                cand = (nx, ny, ns, ns)
                if iou(cand, (x, y, s, s)) >= 0.2:
                    continue
                neg.append(cand)
        pos_tiles.extend(resize_boxes(scene.gray, pos, base_window, base_window))
        neg_tiles.extend(resize_boxes(scene.gray, neg, base_window, base_window))
    return Corpus(train, test, pool, pos_tiles, neg_tiles)


def experiment_config(seed: int = 7) -> PipelineConfig:
    """Desk-scale settings: 5 stages over a subsampled feature bank."""
    return PipelineConfig(
        stages=5,
        max_fpr=0.2,
        max_stumps=14,
        feature_subsample=2500,
        seed=seed,
        min_neighbors=5,
        overlap=0.65,
    )


@dataclass(frozen=True)
class Experiment:
    corpus: Corpus
    config: PipelineConfig  # svm_threshold is the bootstrapped threshold
    cascade: Cascade
    svm: LinearSvmModel
    results: list  # per test scene, in the ``pipeline.summarize`` format


def run_experiment(seed: int = 7, n_train: int = 300, n_test: int = 100) -> Experiment:
    """Train the cascade on the corpus tiles, bootstrap the validator from
    its output on the train split, and evaluate both on the test split."""
    corpus = build_corpus(seed=seed, n_train=n_train, n_test=n_test)
    config = experiment_config(seed=seed)
    cascade = train_cascade_from_config(corpus.pos_tiles, corpus.neg_tiles, config, pool=corpus.pool)
    svm, threshold = bootstrap_validator(corpus.train, cascade, config)
    config = config.override(svm_threshold=threshold)
    results = [evaluate_image(s.gray, s.faces, cascade, config, svm) for s in corpus.test]
    return Experiment(corpus, config, cascade, svm, results)


def write_corpus(corpus: Corpus, root: str) -> dict[str, str]:
    """Write scenes, tiles, pool, and manifests under ``root``; returns paths."""
    paths = {}
    for split, scenes in (("train", corpus.train), ("test", corpus.test)):
        split_dir = os.path.join(root, split)
        os.makedirs(split_dir, exist_ok=True)
        lines = []
        for i, scene in enumerate(scenes):
            name = f"{split}_{i:04d}.pgm"
            write_pgm(os.path.join(split_dir, name), scene.gray)
            boxes = " ".join(f"{x} {y} {w} {h}" for x, y, w, h in scene.faces)
            lines.append(f"{name} {len(scene.faces)}" + (f" {boxes}" if boxes else ""))
        manifest = os.path.join(split_dir, f"{split}.txt")
        with open(manifest, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        paths[split] = manifest
    for name, images in (("pos", corpus.pos_tiles), ("neg", corpus.neg_tiles), ("pool", corpus.pool)):
        image_dir = os.path.join(root, name)
        os.makedirs(image_dir, exist_ok=True)
        for i, img in enumerate(images):
            write_pgm(os.path.join(image_dir, f"{name}_{i:04d}.pgm"), img)
        paths[name] = image_dir
    return paths
