"""Skin-gated multi-scale sliding-window detection and box merging.

:func:`detect_multiscale_counted` scans an image with the cascade's plan
for its shape (:func:`_scan_plan`): each stage runs once over the live
windows of every pyramid level, and the accepted windows come back as
:class:`Detections`. :func:`merge_detections` then groups the boxes that
overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .boost import Cascade, Stage
from .haar import Corners, compile_features
from .integral import IntegralSet, integral_set, upright_table, window_sigma, window_sums

__all__ = [
    "Detection",
    "Detections",
    "LiveWindows",
    "ScanStats",
    "detect_multiscale_counted",
    "merge_detections",
    "iou",
    "pairwise_iou",
]


# boxes per block of the pairwise IoU: a block's (rows, n) temporaries stay
# small however many raw windows a scene yields
MERGE_ROWS = 256
# window origins per block of a stage's gather: the plan's (rows, corners)
# index and gather blocks stay small however large the image (448 KB each
# for 28 corners; 4096 rows scanned 320x240 scenes 2-4 % faster on a 2-core
# Xeon but held 0.9 MB more)
SCAN_ROWS = 2048
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
class _ScanPlan:
    """What a scan needs of the cascade, the image shape, ``scale_factor``
    and ``step``: the levels, their window lattices and each stage's reads;
    and the workspace that every scan with the plan refills instead of
    mapping fresh memory.

    A lone stump reads its corners in the same order with the same weights
    at every size and parity (:func:`_compiled` checks it), so one float64
    (corners, stumps) matrix of integer weights times the polarities serves
    every level.
    """

    sizes: np.ndarray  # (levels,) window side
    steps: list[int]  # per level, the lattice step
    starts: list[int]  # per level, its first window; then the window count
    # per table kind (upright; tilted, if any stump is), each window's origin
    # cell and its offsets row: its level, or 2 * level + origin parity
    # (16 bytes a window; 32 with the tilted kind)
    bases: list[tuple[np.ndarray, np.ndarray]]
    # per stage and table kind read: the kind, the flat corner offsets by offsets
    # row, and the float64 (corners, stumps) weights times the polarities
    stages: list[list[tuple[int, np.ndarray, np.ndarray]]]
    weight_l1: int  # largest L1 norm of a stump's weight column
    # the workspace: the image's tables (refilled by integral_set), the skin
    # table (in the memory of the first float64 table), the float64 copies of
    # the tables by kind, and the index and gather blocks of block_rows
    # windows times the widest stage read
    tables: IntegralSet
    skin: np.ndarray
    flats: list[np.ndarray]
    block_rows: int
    index: np.ndarray
    gather: np.ndarray


def _compiled(cascade: Cascade, size: int) -> dict[int, Corners]:
    """By table, the corners the cascade's stumps read at a size-px window,
    stump after stump, each as ``compile_features([feature], size)`` reads it
    alone; once per cascade and size. Raises unless every stump has its
    base-size weights in the same corner order, in both tilted parities."""
    compiled = cascade.programs.get(size)
    if compiled is None:
        compiled = {}
        for c in compile_features([wc.feature for stage in cascade.stages for wc, _ in stage.stumps], size):
            order = np.lexsort((c.corner, c.feature))
            corner = c.corner[order]
            compiled[c.table] = replace(
                c, plane=c.plane[corner], row=c.row[corner], col=c.col[corner], corner=np.arange(order.size),
                feature=c.feature[order], weight=c.weight[order],
            )
        base = compiled if size == cascade.base_window else _compiled(cascade, cascade.base_window)
        # per table (upright, tilted parity 0, parity 1): stumps and weights
        got, want = ([None if c is None else (c.feature.tobytes(), c.weight.tobytes()) for c in map(at.get, range(3))]
                     for at in (compiled, base))
        if got != want or got[1] != got[2]:
            raise ValueError(f"stump weights at {size} px differ from the base size's or between tilted parities")
        cascade.programs[size] = compiled
    return compiled


def _scan_plan(cascade: Cascade, img: np.ndarray, scale_factor: float, step: int) -> _ScanPlan:
    """The cascade's plan for ``img``, ``scale_factor`` and ``step``, with
    the tables of ``img`` in its workspace.

    The cascade keeps one plan, the last scan's. It is refilled for an image
    of its shape at its parameters; any other scan builds a new plan, which
    replaces it.
    """
    key = (img.shape, scale_factor, step)
    plan = cascade.plan.get(key)
    if plan is not None:
        integral_set(img, with_tilted=plan.tables.planes is not None, out=plan.tables)
        return plan
    iset = integral_set(img, with_tilted=any(wc.feature.tilted for stage in cascade.stages for wc, _ in stage.stumps))
    rows, cols = iset.grid.shape
    base = cascade.base_window
    sizes, steps, cells = [], [], []
    size = base
    step = min(step, max(rows, cols))  # one window per level, as any longer step
    while size < min(rows, cols):
        step_k = max(1, round(step * size / base))
        # the level's (rows, cols) lattice of origins, broadcast
        cells.append(iset.origins(np.arange(0, cols - size, step_k), np.arange(0, rows - size, step_k)[:, None]))
        sizes.append(size)
        steps.append(step_k)
        grown = base * scale_factor ** len(sizes)
        if grown >= min(rows, cols):  # the last level, before round() can meet an inf
            break
        size = max(size + 1, round(grown))
    counts = [level[0].size for level in cells]
    level = np.repeat(np.arange(len(sizes)), counts)
    # each origins() part over the lattice, flat; empty if the window exceeds the image
    origin, *tilted = [
        np.concatenate([np.empty(0, dtype=np.int64)] + [c[p].ravel() for c in cells]) for p in range(3 if iset.planes is not None else 1)
    ]
    bases = [(origin, level)] + ([(tilted[0], 2 * level + tilted[1])] if tilted else [])
    # stage k reads stumps first[k]:first[k + 1], which are corners cut[k]:cut[k + 1] of a kind
    first = np.cumsum([0] + [len(stage.stumps) for stage in cascade.stages])
    polarity = np.array([wc.polarity for stage in cascade.stages for wc, _ in stage.stumps], dtype=np.int64)
    stages = [[] for _ in cascade.stages]
    for kind, (ids, table) in enumerate(zip([(0,), (1, 2)], [iset.grid, iset.planes])):
        corners = _compiled(cascade, base).get(ids[0])
        if corners is None:
            continue
        offsets = np.array([_compiled(cascade, size)[t].offsets(table) for size in sizes for t in ids], dtype=np.int64)
        offsets, coef = offsets.reshape(-1, corners.row.size), corners.coef() * polarity
        cut = np.searchsorted(corners.feature, first)
        for k, (lo, hi) in enumerate(zip(cut, cut[1:])):
            if lo < hi:
                stages[k].append((kind, offsets[:, lo:hi].copy(), coef[lo:hi, first[k] : first[k + 1]].astype(np.float64)))
    weight_l1 = max((int(np.abs(coef).sum(axis=0).max()) for reads in stages for _, _, coef in reads), default=0)
    widest = max((offsets.shape[1] for reads in stages for _, offsets, _ in reads), default=0)
    flats = [np.empty(t.size) for t in (iset.grid, iset.planes) if t is not None]
    # the gate reads the skin table before the upright float64 table is
    # filled, so the skin table lives in that table's memory
    skin = flats[0].view(np.int64).reshape(iset.grid.shape)
    cascade.plan.clear()
    plan = cascade.plan[key] = _ScanPlan(
        np.array(sizes), steps, np.cumsum([0, *counts]).tolist(), bases, stages, weight_l1,
        iset, skin, flats, SCAN_ROWS, np.empty(SCAN_ROWS * widest, dtype=np.int64), np.empty(SCAN_ROWS * widest),
    )
    return plan


def _stage_margins(plan: _ScanPlan, k: int, stage: Stage, win: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Margins of ``stage``, the cascade's stage ``k``, at the plan's windows
    ``win`` (not empty) of pixel sigma ``sigma``, from the plan's flat
    float64 tables: per block of ``plan.block_rows`` windows and table kind,
    one gather through the plan's index and gather blocks and one product.

    All operands are integers, and no partial sum exceeds the largest table
    value (at most the pixel sum) times ``plan.weight_l1``; the scan checks
    that this is below 2**53, so every sum is exact in any order. Dividing
    by sigma and adding the votes in stump order from 0.0 makes every margin
    bit-identical to a window-by-window evaluation.
    """
    reads = [(plan.flats[kind], *(a[win] for a in plan.bases[kind]), offsets, coef) for kind, offsets, coef in plan.stages[k]]
    responses = np.zeros((win.size, len(stage.stumps)))
    for lo in range(0, win.size, plan.block_rows):
        block = responses[lo : lo + plan.block_rows]
        for flat, origin, row, offsets, coef in reads:
            shape = (len(block), offsets.shape[1])
            index = plan.index[: shape[0] * shape[1]].reshape(shape)
            # mode="clip" writes straight into out (every index is in range);
            # the default mode would buffer it
            offsets.take(row[lo : lo + plan.block_rows], axis=0, out=index, mode="clip")
            index += origin[lo : lo + plan.block_rows, None]
            block += flat.take(index, out=plan.gather[: index.size].reshape(shape), mode="clip") @ coef
    responses /= sigma[:, None]
    votes = np.zeros(win.size)
    for (wc, alpha), response in zip(stage.stumps, responses.T):
        # the polarity is in the weights
        votes += alpha * (response < wc.polarity * wc.threshold)
    return votes - stage.threshold


@dataclass(eq=False)
class LiveWindows:
    """One image's scan by a cascade prefix, which a scan by a longer cascade
    continues (see :func:`detect_multiscale_counted`).

    It holds the plan indices (the same for every cascade of one base window
    at one shape, ``scale_factor`` and ``step``) of the windows that passed
    every stage in ``stages``, in scan order, with their pixel sigma and
    the margins of the last of those stages, and the ``ScanStats`` of a
    full scan by that prefix. ``key`` names what the lattice and the gate were made from: the
    image's shape and pixels, ``scale_factor``, ``step``, the base window and
    the skin gate. A new record is empty: ``key`` is None.
    """

    key: tuple | None = None
    stages: list[Stage] = field(default_factory=list)
    win: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    sigma: np.ndarray = field(default_factory=lambda: np.empty(0))
    score: np.ndarray = field(default_factory=lambda: np.empty(0))
    stats: ScanStats = field(default_factory=ScanStats)


def detect_multiscale_counted(
    cascade: Cascade,
    img: np.ndarray,
    skin: np.ndarray | None = None,
    scale_factor: float = 1.25,
    step: int = 2,
    min_skin_fraction: float = 0.25,
    live: LiveWindows | None = None,
) -> tuple[Detections, ScanStats]:
    """Scan all window placements and return accepted ones in scan order.

    Windows grow from the cascade base size by ``scale_factor`` per level;
    the pixel step grows proportionally. With a skin mask, a window is only
    evaluated when its skin fraction reaches ``min_skin_fraction``.

    ``live`` carries the scan from call to call: a record of this image,
    these parameters and gate, and stages that begin the cascade's, is
    continued with the cascade's further stages only; any other record is
    emptied and filled by a full scan, of which a scan without a record is
    the case. Either way the record then holds this scan, and the result is
    the full scan's. Training's hard-negative mining keeps one record per
    pool image.
    """
    if scale_factor <= 1.0:
        raise ValueError("scale_factor must be > 1")
    if step < 1:
        raise ValueError("step must be >= 1")
    img = np.asarray(img)
    if skin is not None:
        skin = np.asarray(skin)
        if skin.shape != img.shape:
            raise ValueError("skin mask dimensions must match the image")
    plan = _scan_plan(cascade, img, scale_factor, step)
    iset = plan.tables
    record = LiveWindows() if live is None else live
    key = None
    if live is not None:
        gate = None if skin is None else ((skin > 0).tobytes(), min_skin_fraction)
        key = (img.shape, img.dtype.str, img.tobytes(), scale_factor, step, cascade.base_window, gate)
    if live is None or live.key != key or live.stages != cascade.stages[: len(live.stages)]:
        skin_table = None if skin is None else upright_table(skin > 0, out=plan.skin)
        # the gated windows of every level, in scan order, and their sigma
        win, sigma = [np.empty(0, dtype=np.int64)], [np.empty(0)]
        for size, step_k, start, end in zip(plan.sizes.tolist(), plan.steps, plan.starts, plan.starts[1:]):
            if skin_table is None:
                keep = np.arange(end - start)
            else:
                keep = np.flatnonzero(window_sums(skin_table, size, step_k) / (size * size) >= min_skin_fraction)
            if keep.size:
                win.append(start + keep)
                sigma.append(window_sigma(iset, size, step_k).ravel()[keep])
        win = np.concatenate(win)
        record.key, record.stages, record.win, record.sigma = key, [], win, np.concatenate(sigma)
        record.score = np.zeros(win.size)
        record.stats = ScanStats(plan.starts[-1], win.size, win.size, [win.size])
    stats = record.stats
    pixel_sum = int(iset.grid[-1, -1])
    if stats.evaluated_windows and pixel_sum * plan.weight_l1 >= EXACT_LIMIT:
        raise ValueError(
            f"image pixel sum {pixel_sum} times stump weight norm {plan.weight_l1} "
            "reaches 2**53: float64 stage products would not be exact"
        )
    # every table value is a sum of pixels, exact in float64 below 2**53
    for flat, table in zip(plan.flats, (iset.grid, iset.planes)):
        flat.reshape(table.shape)[...] = table
    # stats.stage_windows[-1] holds the windows entering the next stage
    for k in range(len(record.stages), len(cascade.stages)):
        stage = cascade.stages[k]
        if record.win.size:
            score = _stage_margins(plan, k, stage, record.win, record.sigma)
            passed = score >= 0
            record.win, record.sigma, record.score = record.win[passed], record.sigma[passed], score[passed]
        record.stages.append(stage)
        stats.stage_windows.append(record.win.size)
    stats.accepted_windows = record.win.size
    win = record.win
    (origin, level), *_ = plan.bases
    y, x = np.divmod(origin[win], iset.grid.shape[1])
    sides = plan.sizes[level[win]]
    detections = Detections(np.stack([x, y, sides, sides], axis=1), record.score)
    return detections, replace(stats, stage_windows=list(stats.stage_windows))


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
