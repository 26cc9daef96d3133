"""Skin-gated multi-scale sliding-window detection and box merging.

The cascade scan is compiled. For each window size, every stage's stumps
become a program (:func:`facedet.haar.compile_features`), built once per
cascade and size and cached on the cascade: the summed-area-table corners
read, as offsets from a window origin, and a float64 (corners, stumps)
matrix of integer weights that carry each stump's polarity, per table and,
for tilted stumps, per origin parity.

A pyramid level lays its window origins on a regular lattice, so the skin
fraction and the pixel sigma of every window come from four strided slices
of the summed-area tables; only the windows that pass the gate are kept.
A stage then gathers ``flat[origin[:, None] + offsets]`` from float64
copies of the tables, in blocks of ``SCAN_ROWS`` origins, and multiplies
by the weight matrix (a BLAS product). All operands are integers, and no
partial sum exceeds the largest table value (at most the pixel sum) times
the largest column L1 norm of the weights; each image checks that this
bound is below 2**53, so every sum is exact in any order. The responses are
divided by sigma and the votes added in stump order from 0.0, so every
margin is bit-identical to a window-by-window evaluation.

The merge computes pairwise IoU with numpy broadcasting, in blocks of
``MERGE_ROWS`` boxes so memory stays linear in the box count, and joins the
overlapping pairs with a union-find in row-major pair order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boost import Cascade, Stage
from .haar import Corners, compile_features
from .integral import IntegralSet, integral_image, integral_set

__all__ = ["Detection", "ScanStats", "detect_multiscale_counted", "merge_detections", "iou"]


# boxes per block of the pairwise IoU: a block's (rows, n) temporaries stay
# small however many raw windows a scene yields
MERGE_ROWS = 256
# window origins per block of a stage's gather: the (rows, corners)
# temporaries stay in cache however large the image
SCAN_ROWS = 4096
# float64 sums of integers are exact below this
EXACT_LIMIT = 2**53


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
    # windows entering each stage, summed over the levels, then the windows
    # that passed every stage: [evaluated_windows, ..., accepted_windows]
    stage_windows: list[int] = field(default_factory=list)


def iou(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> float:
    """Intersection over union of two (x, y, w, h) boxes."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


@dataclass(frozen=True)
class _StageProgram:
    # the stumps' corners per table, each with its dense float64
    # (corners, stumps) weights times each stump's polarity
    gathers: list[tuple[Corners, np.ndarray]]
    signed_threshold: np.ndarray  # (stumps,) polarity * threshold
    alpha: tuple[float, ...]
    threshold: float
    # largest L1 norm of a stump's weights over all its tables: no response
    # or partial sum exceeds it times the largest table value
    weight_l1: int


def _compile_stage(stage: Stage, size: int) -> _StageProgram:
    # the polarity goes into the weights: an exact response negates
    # exactly, and so does its division by sigma
    polarity = np.array([wc.polarity for wc, _ in stage.stumps], dtype=np.int64)
    coefs = [(c, c.coef() * polarity) for c in compile_features([wc.feature for wc, _ in stage.stumps], size)]
    return _StageProgram(
        [(c, coef.astype(np.float64)) for c, coef in coefs],
        np.array([wc.polarity * wc.threshold for wc, _ in stage.stumps], dtype=np.float64),
        tuple(float(alpha) for _, alpha in stage.stumps),
        stage.threshold,
        int(sum((np.abs(coef).sum(axis=0) for _, coef in coefs), np.zeros_like(polarity)).max(initial=0)),
    )


def _programs(cascade: Cascade, size: int) -> list[_StageProgram]:
    """The cascade's stage programs for one window size, compiled once.

    Concurrent scans may both compile a missing size; they store equal
    programs, so the race costs only the duplicate work.
    """
    programs = cascade.programs.get(size)
    if programs is None:
        programs = [_compile_stage(stage, size) for stage in cascade.stages]
        cascade.programs[size] = programs
    return programs


def _window_sums(grid: np.ndarray, size: int, step: int) -> np.ndarray:
    """(rows, cols) sums of the size x size windows at origins step * (j, i),
    from four strided slices of a summed-area table."""
    h, w = grid.shape[0] - 1, grid.shape[1] - 1
    top = grid[: h - size + 1 : step]
    bottom = grid[size::step]
    return bottom[:, size::step] - top[:, size::step] - bottom[:, : w - size + 1 : step] + top[:, : w - size + 1 : step]


def _window_sigma(iset: IntegralSet, size: int, step: int) -> np.ndarray:
    """Pixel standard deviation of every lattice window, floored at 1."""
    n = size * size
    total = _window_sums(iset.upright.grid, size, step)
    total_sq = _window_sums(iset.upright.sq, size, step)
    var = total_sq / n - (total / n) ** 2
    return np.maximum(np.sqrt(np.maximum(var, 0.0)), 1.0)


class _Level:
    """One pyramid level's gated windows, as origins into each table."""

    def __init__(self, upright: np.ndarray, tilted, xs: np.ndarray, ys: np.ndarray, sigma: np.ndarray | None):
        """``upright`` is the image's float64 summed-area table and
        ``tilted`` None or (float64 tilted planes, voff)."""
        self.sigma = sigma
        # indexed by Corners.table: (table, origins, mask of the windows it serves)
        self.tables = [(upright, ys * upright.shape[1] + xs, None)]
        if tilted is not None:
            planes, voff = tilted
            origins = ((xs + ys) >> 1) * planes.shape[2] + ((ys - xs + voff) >> 1)
            parity = (xs + ys) & 1
            self.tables += [(planes, origins, parity == q) for q in (0, 1)]

    def margins(self, program: _StageProgram, idx: np.ndarray) -> np.ndarray:
        """Vote margins of one stage at the windows ``idx`` (not empty), in
        blocks of SCAN_ROWS windows."""
        return np.concatenate(
            [self._block_margins(program, idx[lo : lo + SCAN_ROWS]) for lo in range(0, idx.size, SCAN_ROWS)]
        )

    def _block_margins(self, program: _StageProgram, rows: np.ndarray) -> np.ndarray:
        responses = np.zeros((rows.size, len(program.alpha)))
        for corners, coef in program.gathers:
            table, origins, mask = self.tables[corners.table]
            sel = slice(None) if mask is None else mask[rows]
            responses[sel] += table.ravel()[origins[rows[sel]][:, None] + corners.offsets(table)] @ coef
        if self.sigma is not None:
            responses /= self.sigma[rows, None]
        hits = responses < program.signed_threshold
        votes = np.zeros(rows.size)
        for alpha, hit in zip(program.alpha, hits.T):
            votes += alpha * hit
        return votes - program.threshold


def _check_exact(programs: list[_StageProgram], pixel_sum: int) -> None:
    """Raise unless every float64 stage product on this image is exact."""
    weight_l1 = max((p.weight_l1 for p in programs), default=0)
    if pixel_sum * weight_l1 >= EXACT_LIMIT:
        raise ValueError(
            f"image pixel sum {pixel_sum} times stump weight norm {weight_l1} "
            "reaches 2**53: float64 stage products would not be exact"
        )


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
    tilted = any(wc.feature.tilted for stage in cascade.stages for wc, _ in stage.stumps)
    iset = integral_set(img, with_tilted=tilted)
    skin_ii = None
    if skin is not None:
        skin = np.asarray(skin)
        if skin.shape != img.shape:
            raise ValueError("skin mask dimensions must match the image")
        skin_ii = integral_image((skin > 0).astype(np.uint8))
    # every table value, upright or tilted, is a sum of pixels; the float64
    # copies, made once per image, are exact below 2**53
    pixel_sum = int(iset.upright.grid[-1, -1])
    upright = iset.upright.grid.astype(np.float64)
    tilted_tables = None if iset.tilted is None else (iset.tilted.planes.astype(np.float64), iset.tilted.voff)
    stats = ScanStats(stage_windows=[0] * (len(cascade.stages) + 1))
    detections: list[Detection] = []
    level = 0
    size = base
    while size <= min(w, h):
        step_k = max(1, round(step * size / base))
        xs0 = np.arange(0, w - size + 1, step_k, dtype=np.int64)
        ys0 = np.arange(0, h - size + 1, step_k, dtype=np.int64)
        stats.total_windows += xs0.size * ys0.size
        if skin_ii is None:
            keep = np.arange(xs0.size * ys0.size)
        else:
            frac = _window_sums(skin_ii.grid, size, step_k) / (size * size)
            keep = np.flatnonzero(frac >= min_skin_fraction)
        stats.evaluated_windows += keep.size
        if keep.size:
            xs = xs0[keep % xs0.size]
            ys = ys0[keep // xs0.size]
            sigma = _window_sigma(iset, size, step_k).ravel()[keep] if variance_norm else None
            windows = _Level(upright, tilted_tables, xs, ys, sigma)
            programs = _programs(cascade, size)
            _check_exact(programs, pixel_sum)
            margins = np.zeros(keep.size)
            idx = np.arange(keep.size)
            for k, program in enumerate(programs):
                stats.stage_windows[k] += idx.size
                if idx.size == 0:
                    break
                margin = windows.margins(program, idx)
                margins[idx] = margin
                idx = idx[margin >= 0]
            stats.stage_windows[-1] += idx.size
            stats.accepted_windows += idx.size
            detections.extend(
                Detection(int(xs[i]), int(ys[i]), size, size, float(margins[i]), size / base)
                for i in idx
            )
        level += 1
        size = max(size + 1, round(base * scale_factor**level))
    return detections, stats


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
