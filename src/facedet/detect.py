"""Skin-gated multi-scale sliding-window detection and box merging.

The cascade scan is compiled. For each window size, every stage's stumps
become a program (:func:`facedet.haar.compile_features`), built once per
cascade and size and cached on the cascade: the summed-area-table corners
read, as offsets from a window origin, and a float64 (corners, stumps)
matrix of integer weights that carry each stump's polarity, per table and,
for tilted stumps, per origin parity.

A pyramid level lays its window origins on a regular lattice, so the skin
fraction and the pixel sigma of every window come from four strided slices
of the summed-area tables; the windows that pass the gate are kept, all
levels in scan order. Each stage then runs once per image: per level, it
gathers ``flat[origin[:, None] + offsets]`` from float64 copies of the
tables at the live windows, in blocks of ``SCAN_ROWS``, and multiplies by
that size's weight matrix (a BLAS product). All operands are integers, and
no partial sum exceeds the largest table value (at most the pixel sum)
times the largest column L1 norm of the weights; each image checks that
this bound is below 2**53, so every sum is exact in any order. Thresholds
and alphas do not depend on the size, so the responses of all levels are
divided by sigma and the votes added in stump order from 0.0 at once:
every margin is bit-identical to a window-by-window evaluation.

Boxes travel as the (n, 4) ``Detections.boxes`` from the scan to the scoring.
The merge runs :func:`pairwise_iou`, the one IoU over box arrays, in blocks
of ``MERGE_ROWS`` boxes so memory stays linear in the box count, labels each
component of overlapping boxes with its smallest index (``np.minimum.at``
along the pairs, and pointer jumping) and averages each group from exact
integer sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boost import Cascade, Stage
from .haar import Corners, compile_features
from .integral import IntegralSet, integral_set, upright_table, window_sigma, window_sums

__all__ = ["Detection", "Detections", "ScanStats", "detect_multiscale_counted", "merge_detections", "iou", "pairwise_iou"]


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


@dataclass(frozen=True, eq=False)
class Detections:
    """Boxes as one (n, 4) int64 array of (x, y, w, h) rows, ``boxes``, and
    their (n,) float64 ``score``, as OpenCV's ``detectMultiScale3`` returns
    them. Iterating gives :class:`Detection` rows of Python numbers; a
    slice, index array or mask gives a Detections."""

    boxes: np.ndarray
    score: np.ndarray

    def __post_init__(self) -> None:
        boxes = np.asarray(self.boxes, dtype=np.int64)
        score = np.asarray(self.score, dtype=np.float64)
        if boxes.ndim != 2 or boxes.shape[1] != 4 or score.shape != boxes.shape[:1]:
            raise ValueError(f"expected (n, 4) boxes and (n,) scores, got shapes {boxes.shape} and {score.shape}")
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "score", score)

    def __len__(self) -> int:
        return len(self.score)

    def __iter__(self):
        return map(Detection, *self.boxes.T.tolist(), self.score.tolist())

    def __getitem__(self, index) -> Detections:
        return Detections(self.boxes[index], self.score[index])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Detections)
            and np.array_equal(self.boxes, other.boxes)
            and np.array_equal(self.score, other.score)
        )


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


def pairwise_iou(a, b) -> np.ndarray:
    """The (len(a), len(b)) IoU of two lists of (x, y, w, h) boxes, with the
    arithmetic of :func:`iou`: integer intersection and union, one float64
    division, 0.0 where the union is not positive."""
    ax, ay, aw, ah = np.asarray(a, dtype=np.int64).reshape(-1, 4).T[:, :, None]
    bx, by, bw, bh = np.asarray(b, dtype=np.int64).reshape(-1, 4).T[:, None, :]
    ix = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
    iy = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
    inter = np.maximum(ix, 0) * np.maximum(iy, 0)
    union = aw * ah + bw * bh - inter
    out = np.zeros(inter.shape)
    np.divide(inter, union, out=out, where=union > 0)
    return out


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
    # each gather's flat corner offsets, by upright table shape: they depend
    # on the tables' widths, so the scan computes them once per image shape
    offsets: dict = field(default_factory=dict, init=False, repr=False, compare=False)


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
    """The cascade's stage programs for one window size, compiled once."""
    programs = cascade.programs.get(size)
    if programs is None:
        programs = [_compile_stage(stage, size) for stage in cascade.stages]
        cascade.programs[size] = programs
    return programs


class _Windows:
    """An image's gated windows over all pyramid levels, in scan order;
    level l holds windows cuts[l]:cuts[l + 1] and its size's programs."""

    def __init__(self, iset: IntegralSet, programs: list, xs: np.ndarray, ys: np.ndarray, counts, sigma):
        """``iset`` holds the image's tables and ``sigma`` the windows' sigma."""
        self.programs = programs
        self.cuts = np.cumsum([0, *counts])
        self.sigma = sigma
        # float64 copies of the tables, made once per image: every table
        # value is a sum of pixels, exact below 2**53
        self.tables = [iset.grid.astype(np.float64)]
        if iset.planes is not None:
            planes = iset.planes.astype(np.float64)
            self.tables += [planes, planes]
        # both indexed by Corners.table: the tables, and (flat table,
        # origins, mask of the windows it serves)
        self.reads = [
            (table.ravel(), cells, mask) for table, (cells, mask) in zip(self.tables, iset.origins(xs, ys))
        ]

    def stage_margins(self, k: int, live: np.ndarray) -> np.ndarray:
        """Vote margins of stage ``k`` at the windows ``live`` (sorted, not
        empty). Each level's slice of ``live`` is gathered and multiplied by
        its size's weights, in blocks of SCAN_ROWS windows; the thresholds
        do not depend on the size, so the stump tests and votes run once."""
        first = self.programs[0][k]
        responses = np.zeros((live.size, len(first.alpha)))
        bounds = np.searchsorted(live, self.cuts).tolist()
        for programs, lo, hi in zip(self.programs, bounds[:-1], bounds[1:]):
            program = programs[k]
            offsets = program.offsets.get(self.tables[0].shape)
            if offsets is None:
                offsets = [corners.offsets(self.tables[corners.table]) for corners, _ in program.gathers]
                program.offsets[self.tables[0].shape] = offsets
            for b in range(lo, hi, SCAN_ROWS):
                rows = live[b : min(b + SCAN_ROWS, hi)]
                block = responses[b : b + rows.size]
                for (corners, coef), offs in zip(program.gathers, offsets):
                    flat, origins, mask = self.reads[corners.table]
                    sel = slice(None) if mask is None else mask[rows]
                    block[sel] += flat[origins[rows[sel]][:, None] + offs] @ coef
        responses /= self.sigma[live, None]
        hits = responses < first.signed_threshold
        votes = np.zeros(live.size)
        for alpha, hit in zip(first.alpha, hits.T):
            votes += alpha * hit
        return votes - first.threshold


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
) -> tuple[Detections, ScanStats]:
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
    skin_table = None
    if skin is not None:
        skin = np.asarray(skin)
        if skin.shape != img.shape:
            raise ValueError("skin mask dimensions must match the image")
        skin_table = upright_table(skin > 0)
    pixel_sum = int(iset.grid[-1, -1])
    stats = ScanStats(stage_windows=[0] * (len(cascade.stages) + 1))
    # the gated windows of every level, in level order
    sizes, programs, xs, ys, sigmas = [], [], [], [], []
    level = 0
    size = base
    while size <= min(w, h):
        step_k = max(1, round(step * size / base))
        xs0 = np.arange(0, w - size + 1, step_k, dtype=np.int64)
        ys0 = np.arange(0, h - size + 1, step_k, dtype=np.int64)
        stats.total_windows += xs0.size * ys0.size
        if skin_table is None:
            keep = np.arange(xs0.size * ys0.size)
        else:
            frac = window_sums(skin_table, size, step_k) / (size * size)
            keep = np.flatnonzero(frac >= min_skin_fraction)
        stats.evaluated_windows += keep.size
        if keep.size:
            programs.append(_programs(cascade, size))
            _check_exact(programs[-1], pixel_sum)
            sizes.append(size)
            xs.append(xs0[keep % xs0.size])
            ys.append(ys0[keep // xs0.size])
            sigmas.append(window_sigma(iset, size, step_k).ravel()[keep])
        level += 1
        size = max(size + 1, round(base * scale_factor**level))
    if not sizes:
        return Detections(np.empty((0, 4)), []), stats
    counts = [x.size for x in xs]
    xs, ys = np.concatenate(xs), np.concatenate(ys)
    windows = _Windows(iset, programs, xs, ys, counts, np.concatenate(sigmas))
    margins = np.zeros(xs.size)
    live = np.arange(xs.size)
    for k in range(len(cascade.stages)):
        stats.stage_windows[k] = live.size
        if live.size == 0:
            break
        margin = windows.stage_margins(k, live)
        margins[live] = margin
        live = live[margin >= 0]
    stats.stage_windows[-1] = stats.accepted_windows = live.size
    sides = np.repeat(sizes, counts)[live]
    return Detections(np.stack([xs[live], ys[live], sides, sides], axis=1), margins[live]), stats


def _overlapping_pairs(boxes: np.ndarray, overlap: float) -> tuple[np.ndarray, np.ndarray]:
    """Every pair i < j of (x, y, w, h) rows with ``iou >= overlap``, as two
    index arrays in row-major pair order."""
    n = boxes.shape[0]
    firsts, seconds = [], []
    for lo in range(0, n, MERGE_ROWS):
        # block-local (r, c) is the pair (lo + r, lo + c): keep c > r only;
        # pairs j < lo were taken by earlier blocks
        r, c = np.nonzero(np.triu(pairwise_iou(boxes[lo : lo + MERGE_ROWS], boxes[lo:]) >= overlap, 1))
        firsts.append(r + lo)
        seconds.append(c + lo)
    return np.concatenate(firsts), np.concatenate(seconds)


def _components(n: int, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The smallest node of each node's component, in the graph of n nodes
    and edges (first[e], second[e]).

    A label is always a node of the same component and never above its
    own: edges lower both ends to their minimum and pointer jumping
    shortens chains, until every edge joins equal labels and every label
    labels itself, which only the component minimum then can.
    """
    label = np.arange(n)
    while True:
        np.minimum.at(label, first, label[second])
        np.minimum.at(label, second, label[first])
        jumped = label[label]
        if np.array_equal(jumped, label) and np.array_equal(label[first], label[second]):
            return label
        label = jumped


def merge_detections(detections: Detections, min_neighbors: int = 1, overlap: float = 0.3) -> Detections:
    """Group boxes whose pairwise IoU reaches ``overlap`` (graph components),
    drop groups smaller than ``min_neighbors``, and emit one averaged box per
    surviving group carrying the best member score (the first on ties, as
    ``max`` picks), groups in the order of their first members.

    Box fields are the members' mean rounded half up, ``floor(sum / count +
    0.5)``, which is ``np.mean`` to the bit because integer sums are exact.
    """
    if not 0.0 < overlap < 1.0:
        raise ValueError("overlap must be in (0, 1)")
    n = len(detections)
    if n == 0:
        return detections
    boxes = detections.boxes
    label = _components(n, *_overlapping_pairs(boxes, overlap))
    # members sorted by group, in index order within each; the groups are
    # the labels that label themselves, in ascending order
    members = np.argsort(label, kind="stable")
    roots = np.flatnonzero(label == np.arange(n))
    sizes = np.bincount(label)[roots]
    starts = np.cumsum(sizes) - sizes
    sums = np.add.reduceat(boxes[members], starts)
    best = np.maximum.reduceat(detections.score[members], starts)
    kept = np.flatnonzero(sizes >= min_neighbors)
    means = np.floor(sums[kept] / sizes[kept, None] + 0.5).astype(np.int64)
    return Detections(means, best[kept])
