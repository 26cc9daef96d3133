"""Extended Haar-like features over integral images.

A :class:`HaarFeature` is one placement of one of seven kinds
(``KIND_SPECS``), whose weighted rectangles :func:`_parts` lists;
:func:`generate_feature_set` is the bank of a window size. Features are
evaluated only as compiled programs (:func:`compile_features`), which the
cascade scan and the training feature matrix both multiply with.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


__all__ = ["HaarFeature", "KINDS", "FeatureBank", "generate_feature_set", "enumerate_kind", "fits_window", "compile_features"]

# kind -> (w unit, h unit, tilted flag): two-rectangle edges, three-rectangle
# lines, a center-surround and two 45-degree-rotated kinds; units are
# enumeration steps and divisibility constraints (arms for the tilted kinds)
KIND_SPECS: dict[str, tuple[int, int, bool]] = {
    "edge2h": (2, 1, False),
    "edge2v": (1, 2, False),
    "line3h": (3, 1, False),
    "line3v": (1, 3, False),
    "center_surround": (3, 3, False),
    "tilted_edge2": (1, 2, True),
    "tilted_line3": (1, 3, True),
}

KINDS = tuple(KIND_SPECS)

Part = tuple[int, int, int, int, int]  # (x, y, w, h, weight)


@dataclass(frozen=True)
class HaarFeature:
    """One feature. Its response is the weighted white-minus-black sum of
    its rectangles' pixel sums over the window's pixel standard deviation
    (floored at 1), which makes stumps invariant to affine brightness
    changes. Upright kinds store their bounding box (x, y, w, h) in
    base-window coordinates, tilted kinds the apex and diagonal arm lengths
    as in :mod:`facedet.integral`."""

    kind: str
    x: int
    y: int
    w: int
    h: int
    window: int  # base window the geometry is expressed in

    @property
    def tilted(self) -> bool:
        return KIND_SPECS[self.kind][2]


def _parts(kind: str, x: int, y: int, w: int, h: int) -> list[Part]:
    """Weighted rectangles whose weights cancel exactly (sum of weight *
    area == 0), so every kind responds 0 on constant input."""
    if kind == "edge2h":
        half = w // 2
        return [(x, y, half, h, 1), (x + half, y, half, h, -1)]
    if kind == "edge2v":
        half = h // 2
        return [(x, y, w, half, 1), (x, y + half, w, half, -1)]
    if kind == "line3h":
        t = w // 3
        return [(x, y, t, h, 1), (x + t, y, t, h, -2), (x + 2 * t, y, t, h, 1)]
    if kind == "line3v":
        t = h // 3
        return [(x, y, w, t, 1), (x, y + t, w, t, -2), (x, y + 2 * t, w, t, 1)]
    if kind == "center_surround":
        tw, th = w // 3, h // 3
        return [(x, y, w, h, 1), (x + tw, y + th, tw, th, -9)]
    if kind == "tilted_edge2":
        half = h // 2
        return [(x, y, w, half, 1), (x - half, y + half, w, half, -1)]
    if kind == "tilted_line3":
        t = h // 3
        return [(x, y, w, t, 1), (x - t, y + t, w, t, -2), (x - 2 * t, y + 2 * t, w, t, 1)]
    raise ValueError(f"unknown feature kind {kind!r}")


def _fits(kind: str, x, y, w, h, window: int):
    """Placement predicate on ints or on broadcast integer arrays."""
    uw, uh, tilted = KIND_SPECS[kind]
    ok = (h >= uh) & (h % uh == 0) & (y >= 0)
    if not tilted:
        return ok & (x >= 0) & (w >= uw) & (w % uw == 0) & (x + w <= window) & (y + h <= window)
    # diamond corners inside the window: h <= x + 1, x + w <= window and
    # (w - 1) + (h - 1) <= window - 1 - y
    return ok & (w >= 1) & (h <= x + 1) & (x + w <= window) & (y + w + h - 1 <= window)


def _placements(kind: str, window: int) -> np.ndarray:
    """(n, 4) int64 (x, y, w, h) of every placement of one kind, ordered by
    (y, x, h, w): the C order of the nonzero cells of a (y, x, h, w) grid."""
    side = np.arange(window)
    y, x, h, w = np.ix_(side, side, side + 1, side + 1)
    iy, ix, ih, iw = np.nonzero(_fits(kind, x, y, w, h, window))
    return np.stack([ix, iy, iw + 1, ih + 1], axis=1)


def enumerate_kind(kind: str, window: int) -> list[HaarFeature]:
    """All placements of one kind that fit a window, ordered by (y, x, h, w)."""
    return [HaarFeature(kind, x, y, w, h, window) for x, y, w, h in _placements(kind, window).tolist()]


def fits_window(feature: HaarFeature) -> bool:
    """Whether the geometry is a placement :func:`enumerate_kind` produces:
    inside the feature's window and divisible by its kind's units."""
    return bool(_fits(feature.kind, feature.x, feature.y, feature.w, feature.h, feature.window))


class FeatureBank(Sequence):
    """The full ordered bank of one window size: kinds in KINDS order,
    placements by (y, x, h, w). It holds the placements as arrays and builds
    a :class:`HaarFeature` only when one is read, so a training that keeps
    a sample of the bank never builds the rest."""

    def __init__(self, window: int):
        self.window = window
        placements = [_placements(kind, window) for kind in KINDS]
        self._kind = np.repeat(np.arange(len(KINDS)), [len(p) for p in placements])
        self._geometry = np.concatenate(placements)

    def __len__(self) -> int:
        return len(self._kind)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        x, y, w, h = self._geometry[index].tolist()
        return HaarFeature(KINDS[self._kind[index]], x, y, w, h, self.window)

    def __iter__(self):
        for kind, (x, y, w, h) in zip(self._kind.tolist(), self._geometry.tolist()):
            yield HaarFeature(KINDS[kind], x, y, w, h, self.window)


def generate_feature_set(base_window: int) -> FeatureBank:
    """The full ordered bank: kinds in KINDS order, placements by (y, x, h, w)."""
    if base_window < 8:
        raise ValueError(f"base window must be >= 8, got {base_window}")
    return FeatureBank(base_window)


def _round(value: np.ndarray) -> np.ndarray:
    return np.rint(value).astype(np.int64)  # half to even, as round()


def _snap(value: np.ndarray, unit: int) -> np.ndarray:
    return unit * np.maximum(1, _round(value / unit))


def _scaled_boxes(kind: str, x, y, w, h, window, size: int):
    """(x, y, w, h) of features of one kind scaled to a size-px window,
    elementwise over int64 arrays (``window`` may be one per feature);
    re-snapped to the kind's units, so the zero sum survives every scale."""
    s = size / window
    uw, uh, tilted = KIND_SPECS[kind]
    if not tilted:
        # the largest multiple of the unit that is not above size
        w = np.minimum(_snap(w * s, uw), size // uw * uw)
        h = np.minimum(_snap(h * s, uh), size // uh * uh)
        x = np.minimum(np.maximum(_round(x * s), 0), size - w)
        y = np.minimum(np.maximum(_round(y * s), 0), size - h)
        return x, y, w, h
    w = np.maximum(1, _round(w * s))
    h = _snap(h * s, uh)
    # shrink until the diamond fits: needs (h-1)+w <= size horizontally
    # and w+h-1 <= size vertically
    while True:
        over = w + h - 1 > size
        if not over.any():
            break
        narrow = over & (w > 1) & ((w >= h) | (h == uh))
        w = w - narrow
        h = h - uh * (over & ~narrow)
    x = np.minimum(np.maximum(_round(x * s), h - 1), size - w)
    y = np.minimum(np.maximum(_round(y * s), 0), size - (w + h - 1))
    return x, y, w, h


@dataclass(frozen=True)
class Corners:
    """The summed-area-table corners that a list of features reads in one
    table, relative to the window origin, and the features' weights on them
    as a sparse (corners, features) int64 matrix of (corner, feature,
    weight) triples, each pair once and no weight zero."""

    table: int  # 0: upright table; 1 + q: tilted planes, for window origins of parity q
    plane: np.ndarray  # (corners,) tilted plane, 0 for the upright table
    row: np.ndarray  # (corners,)
    col: np.ndarray  # (corners,)
    corner: np.ndarray  # (entries,)
    feature: np.ndarray  # (entries,)
    weight: np.ndarray  # (entries,)
    n_features: int

    def offsets(self, table: np.ndarray) -> np.ndarray:
        """Flat offsets into ``table`` (an upright table or tilted planes,
        with or without leading sample axes): they depend on the table's
        width, so they are not part of the program."""
        rows, cols = table.shape[-2:]
        return (self.plane * rows + self.row) * cols + self.col

    def coef(self) -> np.ndarray:
        """The dense (corners, features) weight matrix."""
        out = np.zeros((self.row.size, self.n_features), dtype=np.int64)
        out[self.corner, self.feature] = self.weight
        return out


def compile_features(features: Sequence[HaarFeature], size: int) -> list[Corners]:
    """The features scaled to a size-px window as one program: per table,
    the corners read and the weights on them, so that the responses at a
    window origin are ``flat_table[origin + offsets] @ coef``.

    Tilted features read the tilted planes once per origin parity q, as
    tables 1 and 2: an apex at (x + px, y + py) lies in plane p at cell
    ((x + y) >> 1, (y - x + voff) >> 1) plus (du, dv), exact because
    q + px + py - p and q + py - px - p are even. Weights that cancel on a
    shared corner are dropped.
    """
    geometry = np.array(
        [(KINDS.index(f.kind), f.x, f.y, f.w, f.h, f.window) for f in features], dtype=np.int64
    ).reshape(-1, 6)
    # one (table, plane, row, col, feature, weight) column per corner read
    entries = []
    for k, kind in enumerate(KINDS):
        index = np.flatnonzero(geometry[:, 0] == k)
        if not index.size:
            continue
        box = _scaled_boxes(kind, *geometry[index, 1:5].T, geometry[index, 5], size)
        for px, py, pw, ph, wt in _parts(kind, *box):
            if not KIND_SPECS[kind][2]:
                rects = [(0, 0, py, px, ph, pw)]
            else:
                rects = []
                for q in (0, 1):
                    p = (q + px + py) & 1
                    rects.append((1 + q, p, (q + px + py - p) // 2, (q + py - px - p) // 2, pw, ph))
            for t, plane, row, col, drow, dcol in rects:
                for dr, dc, sign in ((drow, dcol, 1), (0, dcol, -1), (drow, 0, -1), (0, 0, 1)):
                    entries.append(np.stack(np.broadcast_arrays(t, plane, row + dr, col + dc, index, sign * wt)))
    if not entries:
        return []
    table, plane, row, col, feature, weight = np.concatenate(entries, axis=1)
    # a corner as one non-negative key: rows and columns lie in (-2 size, 2 size]
    span = 4 * size + 1
    cell = (plane * span + row + 2 * size) * span + col + 2 * size
    n = len(geometry)
    programs = []
    for t in range(3):
        mine = table == t
        pairs, pair = np.unique(cell[mine] * n + feature[mine], return_inverse=True)
        sums = np.bincount(pair.ravel(), weights=weight[mine], minlength=pairs.size).astype(np.int64)
        pairs, sums = pairs[sums != 0], sums[sums != 0]
        if not pairs.size:
            continue
        cells, corner = np.unique(pairs // n, return_inverse=True)
        programs.append(
            Corners(
                t,
                cells // span**2,
                cells // span % span - 2 * size,
                cells % span - 2 * size,
                corner.ravel(),
                pairs % n,
                sums,
                n,
            )
        )
    return programs
