"""Scalar reference implementations that the tests compare the package with.

The package evaluates Haar features only through compiled programs
(:func:`facedet.haar.compile_features`): in the cascade scan and in the
training feature matrix. It builds the LBP descriptor only in batches, over
an image and its boxes (:func:`facedet.lbp.descriptors`). The functions
here do the same arithmetic one window, one crop, one feature or one
rectangle at a time, as the package first did. The package's stump search
sorts and sweeps in blocks of a few feature rows, in forked workers that
each own a range of the rows; :class:`WholeMatrixStumpSearch` does both
over the whole matrix at once, in one process. The package matches and
sweeps boxes as :class:`facedet.detect.Detections` columns through one
array IoU; :func:`match_detections_oracle` and :func:`roc_sweep_oracle`
take lists of :class:`facedet.detect.Detection` rows and call the scalar
:func:`facedet.detect.iou` per pair, once per threshold. The package
trains the cascade in one value matrix, computing each sample's column
once, and mines by continuing each pool image's scan from stage to stage;
:func:`train_cascade_oracle` builds every stage's matrix anew from the
samples and :func:`mine_oracle` scans the pool from the first stage on
every call. The package converts colours in row bands, and segments skin
(:func:`facedet.pipeline.segment_image`) in one pass over them that keeps
no YCbCr image; :func:`to_grayscale_oracle` converts the whole image at
once, and :func:`rgb_to_ycbcr_oracle` then :func:`classify_skin_oracle`
build the whole YCbCr image first and test its Cb and Cr planes. The package
places scene objects by testing grown boxes for disjointness;
:func:`place_oracle` inflates both boxes and calls :func:`facedet.detect.iou`.

The last section holds code that only tests call, moved out of the
package: the pixel-wise segmentation scorer and its table, the fixed
published RGB and HSV skin rules (comparison baselines), the inverse
colour transform and :func:`scaled_parts`, one feature's rectangles at a
window size (the package compiles whole feature lists).
"""

from dataclasses import astuple, dataclass

import numpy as np

import itertools

from facedet.boost import Cascade, Stage, _compile_matrix, _StumpSearch, feature_value_matrix, train_stage
from facedet.detect import Detections, detect_multiscale_counted, iou
from facedet.haar import generate_feature_set
from facedet.images import crop_square
from facedet.evaluate import RocCurve
from facedet.haar import KIND_SPECS, HaarFeature, _parts, _scaled_boxes
from facedet.images import _require_color, _round_u8
from facedet.integral import IntegralSet, integral_set
from facedet.lbp import FINE_BLOCK_OFFSETS, lbp_label_image, uniform_pattern_table


def _shape(iset: IntegralSet) -> tuple[int, int]:
    """(width, height) of the image whose tables ``iset`` holds."""
    return iset.grid.shape[-1] - 1, iset.grid.shape[-2] - 1


def _upright_sums(grid: np.ndarray, x, y, w: int, h: int):
    return grid[y + h, x + w] - grid[y, x + w] - grid[y + h, x] + grid[y, x]


def _tilted_sums(iset: IntegralSet, x, y, w: int, h: int):
    """Tilted sums for scalar or ndarray apex coordinates (fixed arms): an
    apex of parity p reads parity p's table, the leading block of plane p."""
    x = np.asarray(x)
    y = np.asarray(y)
    u = x + y
    v = y - x + iset.voff
    parity = u & 1
    out = np.empty(np.broadcast(x, y).shape, dtype=np.int64)
    for p in (0, 1):
        g = iset.planes[p]
        m = parity == p
        if not np.any(m):
            continue
        u0 = (u[m] - p) // 2
        v0 = (v[m] - p) // 2
        out[m] = g[u0 + w, v0 + h] - g[u0, v0 + h] - g[u0 + w, v0] + g[u0, v0]
    return out


def rect_sum(iset: IntegralSet, rect: tuple[int, int, int, int]) -> int:
    """Exact pixel sum of an upright (x, y, w, h) rectangle, four lookups.
    Zero-area rectangles sum to 0; out-of-bounds rectangles are rejected."""
    x, y, w, h = (int(v) for v in rect)
    width, height = _shape(iset)
    if w < 0 or h < 0 or x < 0 or y < 0 or x + w > width or y + h > height:
        raise ValueError(f"rect ({x},{y},{w},{h}) outside {width}x{height} image")
    if w == 0 or h == 0:
        return 0
    return int(_upright_sums(iset.grid, x, y, w, h))


def tilted_rect_sum(iset: IntegralSet, rect: tuple[int, int, int, int]) -> int:
    """Exact pixel sum of a tilted (apex_x, apex_y, w_arm, h_arm) rectangle,
    as described in :mod:`facedet.integral`, four lookups. Zero-area
    rectangles sum to 0; out-of-bounds rectangles are rejected."""
    x, y, w, h = (int(v) for v in rect)
    width, height = _shape(iset)
    if w < 0 or h < 0:
        raise ValueError("negative tilted rect arms")
    if w == 0 or h == 0:
        return 0
    if y < 0 or x - (h - 1) < 0 or x + (w - 1) > width - 1 or y + (w - 1) + (h - 1) > height - 1:
        raise ValueError(f"tilted rect ({x},{y},{w},{h}) outside {width}x{height} image")
    return int(_tilted_sums(iset, np.array([x]), np.array([y]), w, h)[0])


def window_sigma(iset: IntegralSet, x: int, y: int, size: int) -> float:
    """Pixel standard deviation of a square window, floored at 1."""
    n = size * size
    total = int(_upright_sums(iset.grid, x, y, size, size))
    total_sq = int(_upright_sums(iset.sq, x, y, size, size))
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
    width, height = _shape(iset)
    if x < 0 or y < 0 or x + size > width or y + size > height:
        raise ValueError(f"window ({x},{y},{size}) outside {width}x{height} image")
    parts = scaled_parts(feature, size)
    if feature.tilted:
        if iset.planes is None:
            raise ValueError("tilted feature requires the tilted tables")
        value = 0
        for px, py, pw, ph, wt in parts:
            value += wt * int(_tilted_sums(iset, np.array([x + px]), np.array([y + py]), pw, ph)[0])
    else:
        value = 0
        for px, py, pw, ph, wt in parts:
            value += wt * int(_upright_sums(iset.grid, x + px, y + py, pw, ph))
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
    err, thr, pol = _StumpSearch(values[None, :], labels, np.ones(len(values))).best(weights)
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
    planes = []
    voff = 0
    for i, sample in enumerate(samples):
        iset = integral_set(sample)
        up[i] = iset.grid
        sq[i] = iset.sq
        planes.append(iset.planes)
        voff = iset.voff
    planes = np.stack(planes)
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
                grid = planes[:, p]
                u0 = (px + py - p) // 2
                v0 = (py - px + voff - p) // 2
                acc += wt * (grid[:, u0 + pw, v0 + ph] - grid[:, u0, v0 + ph] - grid[:, u0 + pw, v0] + grid[:, u0, v0])
            else:
                acc += wt * (up[:, py + ph, px + pw] - up[:, py, px + pw] - up[:, py + ph, px] + up[:, py, px])
        out[fi] = acc
    if variance_norm:
        out /= sigma[None, :]
    return out


def mine_oracle(cascade, pool, needed):
    """Mining that scans every pool image from the first stage: each image's
    first ``needed`` detections at step 3, picked round-robin by rank in pool
    order, only the picks cropped and resized."""
    base = cascade.base_window
    scanned = [
        (img, detect_multiscale_counted(cascade, img, step=3)[0].boxes[:needed])
        for img in pool
        if min(img.shape) >= base
    ]
    longest = max((len(boxes) for _, boxes in scanned), default=0)
    picks = itertools.islice(
        ((img, boxes[rank]) for rank in range(longest) for img, boxes in scanned if rank < len(boxes)),
        needed,
    )
    return [crop_square(img, box, base) for img, box in picks]


def train_cascade_oracle(
    pos_samples, neg_samples, *, n_stages=15, target_dr=0.99, max_fpr=0.5, max_stumps=20, base_window=24,
    pool=None, feature_subsample=0, seed=0,
):
    """Cascade training that computes every stage's value matrix anew: the
    positives' numerators and sigmas once, the negatives' per stage, joined
    by ``np.concatenate``; the survivors are kept as samples and the pool is
    mined by :func:`mine_oracle`."""
    features = generate_feature_set(base_window)
    if feature_subsample and feature_subsample < len(features):
        rng = np.random.default_rng(seed)
        chosen = np.sort(rng.choice(len(features), size=feature_subsample, replace=False))
        features = [features[i] for i in chosen]
    program = _compile_matrix(features, base_window)
    v_pos, s_pos = feature_value_matrix(features, pos_samples, program=program)
    negatives = list(neg_samples)
    neg_target = len(negatives)
    stages = []
    for _ in range(n_stages):
        if not negatives:
            break
        v_neg, s_neg = feature_value_matrix(features, negatives, program=program)
        values = np.concatenate([v_pos, v_neg], axis=1)
        labels = np.concatenate([np.ones(len(pos_samples)), -np.ones(len(negatives))])
        result = train_stage(
            values, labels, sigma=np.concatenate([s_pos, s_neg]), features=features,
            target_dr=target_dr, max_fpr=max_fpr, max_stumps=max_stumps,
        )
        stages.append(result.stage)
        neg_scores = result.scores[len(pos_samples) :]
        negatives = [s for s, sc in zip(negatives, neg_scores) if sc >= result.stage.threshold]
        if pool is not None and len(negatives) < neg_target and len(stages) < n_stages:
            current = Cascade(base_window, list(stages))
            negatives.extend(mine_oracle(current, pool, neg_target - len(negatives)))
    return Cascade(base_window, stages)


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


def _rgb_planes(img):
    """R, G, B of a whole colour image as float64 planes."""
    img = _require_color(img)
    return (img[..., c].astype(np.float64) for c in range(3))


def to_grayscale_oracle(img):
    """Full-range BT.601 luma of the whole image in one expression, rounded."""
    r, g, b = _rgb_planes(img)
    return _round_u8(0.299 * r + 0.587 * g + 0.114 * b)


def rgb_to_ycbcr_oracle(img):
    """Full-range BT.601 RGB -> YCbCr of the whole image, one expression per
    channel, rounded and clamped, stacked."""
    r, g, b = _rgb_planes(img)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    return np.stack([_round_u8(y), _round_u8(cb), _round_u8(cr)], axis=-1)


def classify_skin_oracle(ycbcr, config):
    """Mask of the pixels of a YCbCr image whose Cb and Cr both fall inside
    the config's inclusive intervals."""
    cb, cr = ycbcr[..., 1], ycbcr[..., 2]
    inside = (config.cb_min <= cb) & (cb <= config.cb_max) & (config.cr_min <= cr) & (cr <= config.cr_max)
    return inside.astype(np.uint8)


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


def as_detections(rows) -> Detections:
    """The box array and scores of a list of Detection rows."""
    rows = [astuple(row) for row in rows]
    return Detections(np.array([row[:4] for row in rows]).reshape(-1, 4), [row[4] for row in rows])


def match_detections_oracle(detections, truth_boxes, iou_min=0.5):
    """Greedy one-to-one matching of Detection rows by descending score,
    the scalar loop: each detection claims the unmatched truth box with the
    highest IoU if that IoU reaches ``iou_min``; equal scores are ordered
    by box coordinates. Returns (hits, misses, false positives)."""
    if not 0.0 < iou_min <= 1.0:
        raise ValueError("iou_min must be in (0, 1]")
    order = sorted(
        range(len(detections)),
        key=lambda i: (-detections[i].score, detections[i].x, detections[i].y,
                       detections[i].w, detections[i].h),
    )
    matched = [False] * len(truth_boxes)
    hits = 0
    false_positives = 0
    for i in order:
        det = detections[i]
        box = (det.x, det.y, det.w, det.h)
        best_iou = 0.0
        best_j = -1
        for j, truth in enumerate(truth_boxes):
            if matched[j]:
                continue
            value = iou(box, truth)
            if value > best_iou:
                best_iou = value
                best_j = j
        if best_j >= 0 and best_iou >= iou_min:
            matched[best_j] = True
            hits += 1
        else:
            false_positives += 1
    return hits, len(truth_boxes) - hits, false_positives


def roc_sweep_oracle(per_image, thresholds):
    """The ROC sweep that filters each image's Detection rows and matches
    them again at every threshold."""
    thresholds = list(thresholds)
    if any(b < a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be sorted ascending")
    if not per_image:
        raise ValueError("need at least one image")
    total_truth = sum(len(truth) for _, truth in per_image)
    points = []
    for threshold in thresholds:
        hits = 0
        false_positives = 0
        for detections, truth in per_image:
            surviving = [d for d in detections if d.score >= threshold]
            h, _, f = match_detections_oracle(surviving, truth)
            hits += h
            false_positives += f
        tpr = hits / total_truth if total_truth else 0.0
        point = (float(threshold), tpr, false_positives / len(per_image))
        if points and points[-1][1:] == point[1:]:
            continue
        points.append(point)
    return RocCurve(points)


def inflate_oracle(box, factor=1.5):
    """The box grown about its centre by ``factor``, rounded per axis."""
    x, y, w, h = box
    dw, dh = round(w * (factor - 1) / 2), round(h * (factor - 1) / 2)
    return (x - dw, y - dh, w + 2 * dw, h + 2 * dh)


def place_oracle(rng, occupied, size, w, h, margin=3, tries=60, x_max=None):
    """Scene placement as first written: a drawn square is accepted when its
    1.5x inflation has IoU 0 with every occupied box's."""
    limit_x = (x_max if x_max is not None else w) - size - margin
    limit_y = h - size - margin
    if limit_x < margin or limit_y < margin:
        return None
    for _ in range(tries):
        x = int(rng.integers(margin, limit_x + 1))
        y = int(rng.integers(margin, limit_y + 1))
        box = (x, y, size, size)
        if all(iou(inflate_oracle(box), inflate_oracle(other)) == 0.0 for other in occupied):
            return box
    return None


# -- test-only code moved out of the package ---------------------------------


@dataclass(frozen=True)
class SegmentationMetrics:
    tp: int
    tn: int
    fp: int
    fn: int
    recall: float
    precision: float
    specificity: float
    accuracy: float


def _safe_pct(num: int, den: int) -> float:
    return 100.0 * num / den if den else 0.0


def evaluate_segmentation(pred: np.ndarray, truth: np.ndarray) -> SegmentationMetrics:
    """Pixel-wise confusion counts plus the four derived percentages."""
    pred = np.asarray(pred).astype(bool)
    truth = np.asarray(truth).astype(bool)
    if pred.shape != truth.shape:
        raise ValueError(f"mask shapes differ: {pred.shape} vs {truth.shape}")
    tp = int(np.count_nonzero(pred & truth))
    tn = int(np.count_nonzero(~pred & ~truth))
    fp = int(np.count_nonzero(pred & ~truth))
    fn = int(np.count_nonzero(~pred & truth))
    return SegmentationMetrics(
        tp=tp,
        tn=tn,
        fp=fp,
        fn=fn,
        recall=_safe_pct(tp, tp + fn),
        precision=_safe_pct(tp, tp + fp),
        specificity=_safe_pct(tn, tn + fp),
        accuracy=_safe_pct(tp + tn, tp + tn + fp + fn),
    )


def segmentation_report(rows: list[tuple[str, SegmentationMetrics]]) -> str:
    """Aligned Method / Recall / Precision / Specificity / Accuracy table."""
    header = ["Method", "Recall", "Precision", "Specificity", "Accuracy"]
    table = [header]
    for name, m in rows:
        table.append(
            [name] + [f"{v:.2f}%" for v in (m.recall, m.precision, m.specificity, m.accuracy)]
        )
    widths = [max(len(row[c]) for row in table) for c in range(5)]
    lines = ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip() for row in table]
    return "\n".join(lines)


def classify_skin_rgb(rgb: np.ndarray) -> np.ndarray:
    """Fixed published daylight RGB rule, used only as an eval baseline."""
    rgb = np.asarray(rgb)
    r = rgb[..., 0].astype(np.int64)
    g = rgb[..., 1].astype(np.int64)
    b = rgb[..., 2].astype(np.int64)
    mx = np.maximum(np.maximum(r, g), b)
    mn = np.minimum(np.minimum(r, g), b)
    mask = (
        (r > 95)
        & (g > 40)
        & (b > 20)
        & (mx - mn > 15)
        & (np.abs(r - g) > 15)
        & (r > g)
        & (r > b)
    )
    return mask.astype(np.uint8)


def classify_skin_hsv(rgb: np.ndarray) -> np.ndarray:
    """Fixed published HSV rule (H in [0, 50] deg, S in [0.23, 0.68])."""
    rgb = np.asarray(rgb).astype(np.float64) / 255.0
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    mx = np.maximum(np.maximum(r, g), b)
    mn = np.minimum(np.minimum(r, g), b)
    delta = mx - mn
    hue = np.zeros_like(mx)
    nz = delta > 0
    rm = nz & (mx == r)
    gm = nz & (mx == g) & ~rm
    bm = nz & ~rm & ~gm
    hue[rm] = 60.0 * (((g - b)[rm] / delta[rm]) % 6.0)
    hue[gm] = 60.0 * ((b - r)[gm] / delta[gm] + 2.0)
    hue[bm] = 60.0 * ((r - g)[bm] / delta[bm] + 4.0)
    sat = np.where(mx > 0, delta / np.where(mx > 0, mx, 1.0), 0.0)
    mask = (hue >= 0.0) & (hue <= 50.0) & (sat >= 0.23) & (sat <= 0.68)
    return mask.astype(np.uint8)


def ycbcr_to_rgb(img: np.ndarray) -> np.ndarray:
    """Inverse full-range BT.601 transform (round-trip accurate to +-2)."""
    img = _require_color(img)
    y, cb, cr = (img[..., c].astype(np.float64) for c in range(3))
    cb = cb - 128.0
    cr = cr - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return np.stack([_round_u8(r), _round_u8(g), _round_u8(b)], axis=-1)


def scaled_parts(feature: HaarFeature, size: int):
    """Rectangle decomposition of a feature scaled to a size-px window.

    Dimensions are rounded in units of the kind's divisor (so the weighted
    areas still cancel) and the geometry is clamped back inside the window.
    At size == feature.window this is exactly the base decomposition.
    """
    box = _scaled_boxes(feature.kind, *np.array([[feature.x], [feature.y], [feature.w], [feature.h]]), feature.window, size)
    return _parts(feature.kind, *(int(v[0]) for v in box))
