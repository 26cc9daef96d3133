"""Skin-gated multi-scale sliding-window detection and box merging.

The merge computes pairwise IoU with numpy broadcasting, in blocks of
``MERGE_ROWS`` boxes so memory stays linear in the box count, and joins the
overlapping pairs with a union-find in row-major pair order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boost import Cascade
from .haar import eval_parts_grid, scaled_parts, window_sigma_grid
from .integral import integral_image, integral_set, _upright_sums

__all__ = ["Detection", "ScanStats", "detect_multiscale", "detect_multiscale_counted", "merge_detections", "iou"]


# boxes per block of the pairwise IoU: a block's (rows, n) temporaries stay
# small however many raw windows a scene yields
MERGE_ROWS = 256


@dataclass(frozen=True)
class Detection:
    x: int
    y: int
    w: int
    h: int
    score: float  # final-stage vote margin (or validator-specific rescoring)
    scale: float  # window side / cascade base window


@dataclass
class ScanStats:
    total_windows: int = 0
    evaluated_windows: int = 0
    accepted_windows: int = 0


def iou(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> float:
    """Intersection over union of two (x, y, w, h) boxes."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def detect_multiscale_counted(
    cascade: Cascade,
    img: np.ndarray,
    skin: np.ndarray | None = None,
    scale_factor: float = 1.25,
    step: int = 2,
    min_skin_fraction: float = 0.25,
    variance_norm: bool = True,
) -> tuple[list[Detection], ScanStats]:
    """Scan all window placements and return accepted ones in scan order.

    Windows grow from the cascade base size by ``scale_factor`` per level;
    the pixel step grows proportionally. With a skin mask, a window is only
    evaluated when its skin fraction reaches ``min_skin_fraction``.
    """
    if scale_factor <= 1.0:
        raise ValueError("scale_factor must be > 1")
    if step < 1:
        raise ValueError("step must be >= 1")
    img = np.asarray(img)
    h, w = img.shape
    base = cascade.base_window
    iset = integral_set(img)
    skin_ii = None
    if skin is not None:
        skin = np.asarray(skin)
        if skin.shape != img.shape:
            raise ValueError("skin mask dimensions must match the image")
        skin_ii = integral_image((skin > 0).astype(np.uint8))
    stats = ScanStats()
    detections: list[Detection] = []
    level = 0
    size = base
    while size <= min(w, h):
        step_k = max(1, round(step * size / base))
        xs0 = np.arange(0, w - size + 1, step_k, dtype=np.int64)
        ys0 = np.arange(0, h - size + 1, step_k, dtype=np.int64)
        grid_y, grid_x = np.meshgrid(ys0, xs0, indexing="ij")
        xs = grid_x.ravel()
        ys = grid_y.ravel()
        stats.total_windows += xs.size
        if skin_ii is not None:
            frac = _upright_sums(skin_ii.grid, xs, ys, size, size) / (size * size)
            keep = frac >= min_skin_fraction
            xs = xs[keep]
            ys = ys[keep]
        stats.evaluated_windows += xs.size
        if xs.size:
            margins = np.zeros(xs.size)
            alive = np.ones(xs.size, dtype=bool)
            sigma = window_sigma_grid(iset, xs, ys, size) if variance_norm else None
            for stage in cascade.stages:
                idx = np.flatnonzero(alive)
                if idx.size == 0:
                    break
                sx = xs[idx]
                sy = ys[idx]
                votes = np.zeros(idx.size)
                for wc, alpha in stage.stumps:
                    parts = scaled_parts(wc.feature, size)
                    vals = eval_parts_grid(iset, parts, wc.feature.tilted, sx, sy).astype(np.float64)
                    if variance_norm:
                        vals /= sigma[idx]
                    votes += alpha * (wc.polarity * vals < wc.polarity * wc.threshold)
                stage_margin = votes - stage.threshold
                margins[idx] = stage_margin
                alive[idx] = stage_margin >= 0
            for i in np.flatnonzero(alive):
                detections.append(
                    Detection(int(xs[i]), int(ys[i]), size, size, float(margins[i]), size / base)
                )
                stats.accepted_windows += 1
        level += 1
        size = max(size + 1, round(base * scale_factor**level))
    return detections, stats


def detect_multiscale(
    cascade: Cascade,
    img: np.ndarray,
    skin: np.ndarray | None = None,
    scale_factor: float = 1.25,
    step: int = 2,
    min_skin_fraction: float = 0.25,
    variance_norm: bool = True,
) -> list[Detection]:
    dets, _ = detect_multiscale_counted(
        cascade, img, skin, scale_factor, step, min_skin_fraction, variance_norm
    )
    return dets


def _overlapping_pairs(detections: list[Detection], overlap: float):
    """Yield every pair i < j with ``iou >= overlap``, in row-major order.

    Same arithmetic as :func:`iou`: integer intersection and union, one
    float64 division, 0.0 where the union is not positive.
    """
    boxes = np.array([(d.x, d.y, d.w, d.h) for d in detections], dtype=np.int64)
    x0, y0 = boxes[:, 0], boxes[:, 1]
    x1, y1 = x0 + boxes[:, 2], y0 + boxes[:, 3]
    area = boxes[:, 2] * boxes[:, 3]
    n = boxes.shape[0]
    for lo in range(0, n, MERGE_ROWS):
        rows = slice(lo, lo + MERGE_ROWS)
        cols = slice(lo, n)  # pairs j < lo were taken by earlier blocks
        ix = np.minimum(x1[rows, None], x1[None, cols]) - np.maximum(x0[rows, None], x0[None, cols])
        iy = np.minimum(y1[rows, None], y1[None, cols]) - np.maximum(y0[rows, None], y0[None, cols])
        inter = np.maximum(ix, 0) * np.maximum(iy, 0)
        union = area[rows, None] + area[None, cols] - inter
        ratio = np.zeros(inter.shape)
        np.divide(inter, union, out=ratio, where=union > 0)
        # block-local (r, c) is the pair (lo + r, lo + c): keep c > r only
        r, c = np.nonzero(np.triu(ratio >= overlap, 1))
        yield from zip((r + lo).tolist(), (c + lo).tolist())


def merge_detections(
    detections: list[Detection], min_neighbors: int = 1, overlap: float = 0.3
) -> list[Detection]:
    """Group boxes whose pairwise IoU reaches ``overlap`` (graph components),
    drop groups smaller than ``min_neighbors``, and emit one averaged box per
    surviving group carrying the best member score."""
    if not 0.0 < overlap < 1.0:
        raise ValueError("overlap must be in (0, 1)")
    n = len(detections)
    if n == 0:
        return []
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in _overlapping_pairs(detections, overlap):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    groups: dict[int, list[Detection]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(detections[i])
    merged: list[Detection] = []
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
                mx,
                my,
                mw,
                mh,
                max(d.score for d in members),
                float(np.mean([d.scale for d in members])),
            )
        )
    return merged
