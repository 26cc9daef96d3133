"""Scalar reference implementations that the tests compare the package with.

The package evaluates Haar features only through compiled programs
(:func:`facedet.haar.compile_features`): in the cascade scan and in the
training feature matrix. It builds the LBP descriptor only in batches, over
an image and its boxes (:func:`facedet.lbp.descriptors`). The functions
here do the same arithmetic one window, one crop, one feature or one
rectangle at a time, as the package first did. The package's stump search
sorts and sweeps in tasks of a few feature rows, in forked workers that
each own a range of the rows; :class:`WholeMatrixStumpSearch` does both
over the whole matrix at once, in one process.
"""

import numpy as np

from facedet.boost import Cascade, Stage, _StumpSearch
from facedet.haar import KIND_SPECS, HaarFeature, _parts, scaled_parts
from facedet.images import _round_u8
from facedet.integral import UPRIGHT, IntegralImage, IntegralSet, integral_set
from facedet.lbp import FINE_BLOCK_OFFSETS, lbp_label_image, uniform_pattern_table


def _check_upright_bounds(ii: IntegralImage, x: int, y: int, w: int, h: int) -> None:
    if w < 0 or h < 0 or x < 0 or y < 0 or x + w > ii.width or y + h > ii.height:
        raise ValueError(f"rect ({x},{y},{w},{h}) outside {ii.width}x{ii.height} image")


def _check_tilted_bounds(ii: IntegralImage, x: int, y: int, w: int, h: int) -> None:
    if w < 0 or h < 0:
        raise ValueError("negative tilted rect arms")
    if w == 0 or h == 0:
        return
    ok = (
        y >= 0
        and x - (h - 1) >= 0
        and x + (w - 1) <= ii.width - 1
        and y + (w - 1) + (h - 1) <= ii.height - 1
    )
    if not ok:
        raise ValueError(f"tilted rect ({x},{y},{w},{h}) outside {ii.width}x{ii.height} image")


def _upright_sums(grid: np.ndarray, x, y, w: int, h: int):
    return grid[y + h, x + w] - grid[y, x + w] - grid[y + h, x] + grid[y, x]


def _tilted_sums(ii: IntegralImage, x, y, w: int, h: int):
    """Tilted sums for scalar or ndarray apex coordinates (fixed arms)."""
    x = np.asarray(x)
    y = np.asarray(y)
    u = x + y
    v = y - x + ii.voff
    parity = u & 1
    out = np.empty(np.broadcast(x, y).shape, dtype=np.int64)
    for p, g in ((0, ii.grid), (1, ii.grid_odd)):
        m = parity == p
        if not np.any(m):
            continue
        u0 = (u[m] - p) // 2
        v0 = (v[m] - p) // 2
        out[m] = g[u0 + w, v0 + h] - g[u0, v0 + h] - g[u0 + w, v0] + g[u0, v0]
    return out


def rect_sum(ii: IntegralImage, rect: tuple[int, int, int, int]) -> int:
    """Exact pixel sum of a rectangle, four lookups for either variant.

    For the tilted variant ``rect`` is (apex_x, apex_y, w_arm, h_arm) as
    described in the module docstring. Zero-area rectangles sum to 0;
    out-of-bounds rectangles are rejected.
    """
    x, y, w, h = (int(v) for v in rect)
    if ii.variant == UPRIGHT:
        _check_upright_bounds(ii, x, y, w, h)
        if w == 0 or h == 0:
            return 0
        return int(_upright_sums(ii.grid, x, y, w, h))
    _check_tilted_bounds(ii, x, y, w, h)
    if w == 0 or h == 0:
        return 0
    return int(_tilted_sums(ii, np.array([x]), np.array([y]), w, h)[0])


def window_sigma(iset: IntegralSet, x: int, y: int, size: int) -> float:
    """Pixel standard deviation of a square window, floored at 1."""
    up = iset.upright
    if up.sq is None:
        raise ValueError("variance normalization requires squared sums")
    n = size * size
    total = int(_upright_sums(up.grid, x, y, size, size))
    total_sq = int(_upright_sums(up.sq, x, y, size, size))
    var = total_sq / n - (total / n) ** 2
    return max(float(np.sqrt(max(var, 0.0))), 1.0)


def eval_feature(
    feature: HaarFeature,
    iset: IntegralSet,
    x: int,
    y: int,
    size: int,
    variance_norm: bool = True,
) -> float:
    """Feature response on the square window at (x, y) of side ``size``."""
    up = iset.upright
    if x < 0 or y < 0 or x + size > up.width or y + size > up.height:
        raise ValueError(f"window ({x},{y},{size}) outside {up.width}x{up.height} image")
    parts = scaled_parts(feature, size)
    if feature.tilted:
        if iset.tilted is None:
            raise ValueError("tilted feature requires a tilted integral image")
        value = 0
        for px, py, pw, ph, wt in parts:
            value += wt * int(
                _tilted_sums(iset.tilted, np.array([x + px]), np.array([y + py]), pw, ph)[0]
            )
    else:
        value = 0
        for px, py, pw, ph, wt in parts:
            value += wt * int(_upright_sums(up.grid, x + px, y + py, pw, ph))
    if not variance_norm:
        return float(value)
    return float(value) / window_sigma(iset, x, y, size)


def stage_score(stage: Stage, iset: IntegralSet, x: int, y: int, size: int, variance_norm: bool = True) -> float:
    total = 0.0
    for wc, alpha in stage.stumps:
        value = eval_feature(wc.feature, iset, x, y, size, variance_norm)
        if wc.polarity * value < wc.polarity * wc.threshold:
            total += alpha
    return total


def classify_window(
    cascade: Cascade, iset: IntegralSet, x: int, y: int, size: int, variance_norm: bool = True
) -> tuple[bool, float]:
    """Run the stages in order with early exit.

    Returns (accepted, margin): the final stage's vote margin when accepted
    (0.0 for an empty cascade), else the failing stage's margin.
    """
    margin = 0.0
    for stage in cascade.stages:
        margin = stage_score(stage, iset, x, y, size, variance_norm) - stage.threshold
        if margin < 0:
            return False, margin
    return True, margin


def train_stump(
    values: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> tuple[float, int, float]:
    """Optimal (threshold, polarity, weighted_error) for one feature column.

    One sorted sweep over the samples; the returned error is at most 0.5
    because both polarities are searched.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=np.float64)
    if values.ndim != 1 or values.shape != labels.shape or values.shape != weights.shape:
        raise ValueError("values, labels, and weights must be equal-length 1-d arrays")
    if not (np.any(labels > 0) and np.any(labels < 0)):
        raise ValueError("need at least one sample of each label")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    weights = weights / weights.sum()
    err, thr, pol = _StumpSearch(values[None, :], labels).best(weights)
    return float(thr[0]), int(pol[0]), float(err[0])


class WholeMatrixStumpSearch:
    """The stump search as first vectorised: the sort and the sweep each
    over the whole (F, N) matrix at once, in one thread, with numpy's
    stable argsort and the errors ``cn + (tp - cp)`` and ``cp + (tn - cn)``
    as written, not rearranged."""

    def __init__(self, values: np.ndarray, labels: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        f, n = values.shape
        self.order = np.argsort(values, axis=1, kind="stable")
        vs = np.take_along_axis(values, self.order, axis=1)
        if np.isnan(vs[:, -1:]).any():  # NaN sorts last
            raise ValueError("feature values must not be NaN")
        valid = np.ones((f, n + 1), dtype=bool)
        np.less(vs[:, :-1], vs[:, 1:], out=valid[:, 1:n])
        self.pos_sorted = (labels > 0)[self.order]
        self.invalid = ~valid
        self.thresholds = np.empty((f, n + 1))
        self.thresholds[:, 0] = vs[:, 0] - 1.0
        self.thresholds[:, 1:n] = 0.5 * (vs[:, :-1] + vs[:, 1:])
        self.thresholds[:, n] = vs[:, -1] + 1.0

    def best(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        f, n = self.order.shape
        ws = weights[self.order]
        wpos = np.where(self.pos_sorted, ws, 0.0)
        wneg = ws - wpos
        cp = np.zeros((f, n + 1))
        cn = np.zeros((f, n + 1))
        np.cumsum(wpos, axis=1, out=cp[:, 1:])
        np.cumsum(wneg, axis=1, out=cn[:, 1:])
        tp = cp[:, -1:]
        tn = cn[:, -1:]
        err_pos = cn + (tp - cp)  # polarity +1: face iff value < threshold
        err_neg = cp + (tn - cn)  # polarity -1: face iff value > threshold
        err_pos[self.invalid] = np.inf
        err_neg[self.invalid] = np.inf
        idx = np.arange(f)
        j_pos = np.argmin(err_pos, axis=1)  # first minimum = smallest threshold
        j_neg = np.argmin(err_neg, axis=1)
        e_pos = err_pos[idx, j_pos]
        e_neg = err_neg[idx, j_neg]
        t_pos = self.thresholds[idx, j_pos]
        t_neg = self.thresholds[idx, j_neg]
        use_neg = (e_neg < e_pos) | ((e_neg == e_pos) & (t_neg < t_pos))
        return np.where(use_neg, e_neg, e_pos), np.where(use_neg, t_neg, t_pos), np.where(use_neg, -1, 1)


def feature_matrix_oracle(features, samples, variance_norm=True):
    """The feature matrix as first written: one integral set per sample and
    a Python loop over the features, four table reads per rectangle."""
    base = samples[0].shape[0]
    n = len(samples)
    up = np.empty((n, base + 1, base + 1), dtype=np.int64)
    sq = np.empty_like(up)
    t_even, t_odd = [], []
    voff = 0
    for i, sample in enumerate(samples):
        iset = integral_set(sample)
        up[i] = iset.upright.grid
        sq[i] = iset.upright.sq
        t_even.append(iset.tilted.grid)
        t_odd.append(iset.tilted.grid_odd)
        voff = iset.tilted.voff
    te = np.stack(t_even)
    to = np.stack(t_odd)
    area = base * base
    total = up[:, base, base].astype(np.float64)
    var = sq[:, base, base] / area - (total / area) ** 2
    sigma = np.maximum(np.sqrt(np.maximum(var, 0.0)), 1.0)
    out = np.empty((len(features), n), dtype=np.float64)
    for fi, feature in enumerate(features):
        acc = np.zeros(n, dtype=np.int64)
        for px, py, pw, ph, wt in scaled_parts(feature, base):
            if feature.tilted:
                p = (px + py) & 1
                grid = te if p == 0 else to
                u0 = (px + py - p) // 2
                v0 = (py - px + voff - p) // 2
                acc += wt * (grid[:, u0 + pw, v0 + ph] - grid[:, u0, v0 + ph] - grid[:, u0 + pw, v0] + grid[:, u0, v0])
            else:
                acc += wt * (up[:, py + ph, px + pw] - up[:, py, px + pw] - up[:, py + ph, px] + up[:, py, px])
        out[fi] = acc
    if variance_norm:
        out /= sigma[None, :]
    return out


def scaled_parts_oracle(feature, size):
    """scaled_parts as first written, one feature at a time in Python ints."""
    def snap(value, unit):
        return unit * max(1, round(value / unit))

    s = size / feature.window
    uw, uh, tilted = KIND_SPECS[feature.kind]
    if not tilted:
        w = snap(feature.w * s, uw)
        h = snap(feature.h * s, uh)
        while w > size:
            w -= uw
        while h > size:
            h -= uh
        x = min(max(round(feature.x * s), 0), size - w)
        y = min(max(round(feature.y * s), 0), size - h)
        return _parts(feature.kind, x, y, w, h)
    w = max(1, round(feature.w * s))
    h = snap(feature.h * s, uh)
    while w + h - 1 > size:
        if w > 1 and (w >= h or h == uh):
            w -= 1
        else:
            h -= uh
    x = min(max(round(feature.x * s), h - 1), size - w)
    y = min(max(round(feature.y * s), 0), size - (w + h - 1))
    return _parts(feature.kind, x, y, w, h)


def enumerate_kind_oracle(kind, window):
    """enumerate_kind as first written: nested loops in (y, x, h, w) order."""
    uw, uh, tilted = KIND_SPECS[kind]
    out = []
    for y in range(window):
        for x in range(window):
            if not tilted:
                for h in range(uh, window - y + 1, uh):
                    for w in range(uw, window - x + 1, uw):
                        out.append(HaarFeature(kind, x, y, w, h, window))
            else:
                for h in range(uh, min(x + 1, window - y) + 1, uh):
                    for w in range(1, min(window - x, window + 1 - y - h) + 1):
                        out.append(HaarFeature(kind, x, y, w, h, window))
    return out


def resize_bilinear_oracle(img, out_h, out_w):
    """Corner-aligned bilinear resize of one whole image, with np.ix_
    gathers from a float64 copy, as first written."""
    img = np.asarray(img)
    h, w = img.shape
    if h < 2 or w < 2:
        raise ValueError("bilinear resize needs at least a 2x2 source")
    ys = np.linspace(0.0, h - 1.0, out_h)
    xs = np.linspace(0.0, w - 1.0, out_w)
    y0 = np.minimum(ys.astype(np.int64), h - 2)
    x0 = np.minimum(xs.astype(np.int64), w - 2)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    src = img.astype(np.float64)
    tl = src[np.ix_(y0, x0)]
    tr = src[np.ix_(y0, x0 + 1)]
    bl = src[np.ix_(y0 + 1, x0)]
    br = src[np.ix_(y0 + 1, x0 + 1)]
    top = tl + (tr - tl) * fx
    bot = bl + (br - bl) * fx
    return _round_u8(top + (bot - top) * fy)


def coarse_histogram(labels):
    """59 bin counts of the label image through the uniform-pattern table."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("empty label image")
    return np.bincount(uniform_pattern_table()[labels].ravel(), minlength=59).astype(np.int64)


def resize_to_16(patch):
    return resize_bilinear_oracle(patch, 16, 16)


def fine_features(patch16):
    """144 counts: nine overlapping 6x6 label blocks, 16 bins of label // 16."""
    patch16 = np.asarray(patch16)
    if patch16.shape != (16, 16):
        raise ValueError(f"fine stage expects a 16x16 patch, got {patch16.shape}")
    bands = lbp_label_image(patch16) // 16  # 14x14 values in [0, 15]
    out = np.empty(144, dtype=np.int64)
    idx = 0
    for by in FINE_BLOCK_OFFSETS:
        for bx in FINE_BLOCK_OFFSETS:
            block = bands[by : by + 6, bx : bx + 6]
            out[idx * 16 : (idx + 1) * 16] = np.bincount(block.ravel(), minlength=16)
            idx += 1
    return out


def validation_feature_oracle(window, block_weights=None):
    """The 203-value descriptor of one crop: it labels, resizes and
    histograms the crop on its own."""
    coarse = coarse_histogram(lbp_label_image(window)).astype(np.float64)
    coarse /= coarse.sum()
    fine = fine_features(resize_to_16(window)).astype(np.float64)
    fine /= fine.sum()
    if block_weights is not None:
        fine = fine * np.repeat(np.asarray(block_weights, dtype=np.float64), 16)
    return np.concatenate([coarse, fine])
