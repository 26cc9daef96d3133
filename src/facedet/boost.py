"""Decision stumps, boosted stages, and the attentional cascade.

A stump predicts +1 (face) iff polarity * value < polarity * threshold.
Stage voting follows the usual cascade convention: each stump contributes
alpha if it votes face, 0 otherwise, and the stage passes when the weighted
vote reaches the stage threshold (default: half the total alpha, lowered
after every boosting round until the detection-rate target is met on the
training positives).

The (F, N) value matrix of a stage is one compiled program
(:func:`facedet.haar.compile_features`) applied to the stacked integral
tables of all samples: one sparse product, divided by the samples' sigma.

Stump search is a single sorted sweep per feature over the value matrix,
whose sort order is computed once per stage. The order is numpy's default
(SIMD, unstable) argsort, after which every run of equal values is put back
in sample order, so it equals the stable argsort element for element: the
order inside a run sets the summation order of the weights, and so the last
bits of the errors. Candidate thresholds are the midpoints between
consecutive distinct sorted values plus one sentinel below the minimum and
one above the maximum; ties are broken towards the smaller threshold, then
polarity +1, and across features towards the lowest feature index, which
makes training fully deterministic.

The search runs in tasks of TASK_ROWS feature rows, in forked children
(the ``fork`` start method: Linux or macOS), one per CPU in the process's
affinity mask. Per stage, each inherits the value matrix copy-on-write,
owns a contiguous range of whole tasks and sorts them once; each round the
parent sends the weights and joins the answers in row order. A task reads
and writes only its own rows, so every result is bit-identical whatever the
worker count. Small tasks keep the argsort and gather temporaries a few MB. Inside a task the sweep goes in
blocks of SWEEP_ROWS rows, whose temporaries stay in cache. With cp, cn
the positive and negative weight below a candidate and tp, tn their totals,
the errors are computed in place as ``(tp - cp) + cn`` for polarity +1 and
``cp - (cn - tn)`` for polarity -1. Both are exact rewrites of
``cn + (tp - cp)`` and ``cp + (tn - cn)``: IEEE addition commutes,
round-to-nearest gives ``fl(cn - tn) == -fl(tn - cn)``, and ``a - b`` is
``a + (-b)``. The positive weights are the sorted weights times 0.0 or 1.0,
which is exact for finite weights.

Hard-negative mining scans the background pool with the cascade trained so
far, picks accepted windows round-robin across the images, and crops and
resizes only the picks. It runs only when another stage follows.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import multiprocessing
import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .haar import KINDS, Corners, HaarFeature, compile_features, fits_window, generate_feature_set
from .integral import _tilted_grids, _upright_grid

__all__ = [
    "WeakClassifier",
    "Stage",
    "StageResult",
    "Cascade",
    "train_stage",
    "train_cascade",
    "feature_value_matrix",
    "save_cascade",
    "load_cascade",
]

MIN_EPSILON = 1e-10
# features per block of the stump sweep: a block's (rows, N + 1) float64
# temporaries then stay in cache instead of streaming 2,500 x 2,912 matrices
SWEEP_ROWS = 16
# features per task of the stump search: a task's argsort and gather
# temporaries stay a few MB per worker, and a 2,500-row stage still gives
# every worker many tasks
TASK_ROWS = 128
# samples per block of the feature matrix: a block's tables and corner reads
# stay a few MB however many samples a stage has
MATRIX_ROWS = 256


@dataclass(frozen=True)
class WeakClassifier:
    feature: HaarFeature | int | None  # bank feature, or a raw column index
    threshold: float
    polarity: int  # +1 or -1


@dataclass(frozen=True)
class Stage:
    stumps: list[tuple[WeakClassifier, float]]  # (stump, alpha >= 0)
    threshold: float

    @property
    def total_alpha(self) -> float:
        return sum(alpha for _, alpha in self.stumps)


@dataclass(frozen=True)
class StageResult:
    stage: Stage
    detection_rate: float
    false_positive_rate: float
    scores: np.ndarray  # per-sample weighted face votes at the final round


@dataclass(frozen=True)
class Cascade:
    base_window: int
    stages: list[Stage]
    # per-stage (detection_rate, false_positive_rate) on the data each stage
    # was trained on; NaN pairs for models loaded from disk
    metadata: list[tuple[float, float]]
    # compiled scan programs by window size, filled by facedet.detect; they
    # are derived from ``stages``, which therefore must not change in place
    programs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.stages) != len(self.metadata):
            raise ValueError("cascade metadata length must match stage count")


def _restore_index_order(values: np.ndarray, order: np.ndarray, vs: np.ndarray, tied: np.ndarray) -> None:
    """Sort every run of equal values in ``order`` by sample index, in place,
    and gather ``vs`` there again.

    ``order`` is any argsort of the rows of ``values``, ``vs`` the values it
    gathers and ``tied[r, j]`` whether sorted elements j and j + 1 of row r
    are equal. Every element outside a run is already where a stable sort
    puts it, so afterwards ``order`` equals ``np.argsort(values, axis=1,
    kind="stable")`` and ``vs`` its gather, element for element.
    """
    f, n = order.shape
    in_run = np.zeros((f, n), dtype=bool)
    in_run[:, 1:] = tied
    starts = ~in_run  # not equal to the element before it
    in_run[:, :-1] |= tied
    r, c = np.nonzero(in_run)
    run = np.cumsum(starts[r, c])  # increases along the row-major positions
    # each run keeps its positions: the sorted keys fill them run by run
    keys = run * n + order[r, c]
    keys.sort()
    order[r, c] = keys - run * n
    vs[r, c] = values[r, order[r, c]]


def _allowed_cpus() -> int:
    """The number of CPUs in this process's affinity mask, or on the machine
    where the platform has no such mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _StumpSearch:
    """Sorted-order cache over an (F, N) float64 value matrix, reusable
    across rounds, built and swept in tasks of TASK_ROWS rows."""

    def __init__(self, values: np.ndarray, labels: np.ndarray):
        f, n = values.shape
        self.order = np.empty((f, n), dtype=np.intp)
        self.pos_sorted = np.empty((f, n), dtype=bool)
        # candidate j = number of samples strictly below the threshold; it
        # is invalid where sorted values j - 1 and j are equal
        self.invalid = np.zeros((f, n + 1), dtype=bool)
        self.thresholds = np.empty((f, n + 1))
        self.tasks = [slice(lo, min(lo + TASK_ROWS, f)) for lo in range(0, f, TASK_ROWS)]
        for rows in self.tasks:
            self._sort_rows(values, labels > 0, rows)

    def _sort_rows(self, values: np.ndarray, pos: np.ndarray, rows: slice) -> None:
        """Sort ``rows`` of ``values`` and fill their rows of the cache."""
        v = values[rows]
        n = v.shape[1]
        order = np.argsort(v, axis=1)
        vs = np.take_along_axis(v, order, axis=1)
        if np.isnan(vs[:, -1]).any():  # NaN sorts last
            raise ValueError("feature values must not be NaN")
        invalid = self.invalid[rows]
        np.greater_equal(vs[:, :-1], vs[:, 1:], out=invalid[:, 1:n])  # sorted, no NaN: >= is ==
        _restore_index_order(v, order, vs, invalid[:, 1:n])
        self.order[rows] = order
        self.pos_sorted[rows] = pos[order]
        thresholds = self.thresholds[rows]
        thresholds[:, 0] = vs[:, 0] - 1.0
        np.add(vs[:, :-1], vs[:, 1:], out=thresholds[:, 1:n])
        thresholds[:, 1:n] *= 0.5
        thresholds[:, n] = vs[:, -1] + 1.0

    def best(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-feature (error, threshold, polarity) of the optimal stump."""
        f = self.order.shape[0]
        err = np.empty(f)
        thr = np.empty(f)
        pol = np.empty(f, dtype=np.int64)
        for rows in self.tasks:
            for lo in range(rows.start, rows.stop, SWEEP_ROWS):
                block = slice(lo, min(lo + SWEEP_ROWS, rows.stop))
                err[block], thr[block], pol[block] = self._best_rows(weights, block)
        return err, thr, pol

    def _best_rows(self, weights: np.ndarray, rows: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``best`` for one block of features; rows never interact."""
        order = self.order[rows]
        invalid = self.invalid[rows]
        thresholds = self.thresholds[rows]
        f, n = order.shape
        ws = weights[order]
        wpos = ws * self.pos_sorted[rows]
        ws -= wpos  # the negatives' weights
        cp = np.zeros((f, n + 1))
        cn = np.zeros((f, n + 1))
        np.cumsum(wpos, axis=1, out=cp[:, 1:])
        np.cumsum(ws, axis=1, out=cn[:, 1:])
        # polarity +1 (face iff value < threshold), then -1 in cp's place
        err_pos = np.subtract(cp[:, -1:], cp)
        err_pos += cn
        cn -= cn[:, -1:].copy()
        err_neg = cp
        err_neg -= cn
        np.copyto(err_pos, np.inf, where=invalid)
        np.copyto(err_neg, np.inf, where=invalid)
        idx = np.arange(f)
        j_pos = np.argmin(err_pos, axis=1)  # first minimum = smallest threshold
        j_neg = np.argmin(err_neg, axis=1)
        e_pos = err_pos[idx, j_pos]
        e_neg = err_neg[idx, j_neg]
        t_pos = thresholds[idx, j_pos]
        t_neg = thresholds[idx, j_neg]
        use_neg = (e_neg < e_pos) | ((e_neg == e_pos) & (t_neg < t_pos))
        err = np.where(use_neg, e_neg, e_pos)
        thr = np.where(use_neg, t_neg, t_pos)
        pol = np.where(use_neg, -1, 1)
        return err, thr, pol


@contextlib.contextmanager
def _stump_workers(values: np.ndarray, labels: np.ndarray):
    """Fork the stump search of one stage and yield its ``best``: one child
    per allowed CPU, at most one per task, each owning whole tasks, balanced
    by count. A child's error, or its exit without a reply, raises in the
    parent; on exit the pipes close and the children stop."""
    f = values.shape[0]
    tasks = -(-f // TASK_ROWS)
    k = min(_allowed_cpus(), tasks)
    cuts = [min(f, TASK_ROWS * (tasks * i // k)) for i in range(k + 1)]
    fork = multiprocessing.get_context("fork")
    conns, procs = [], []

    def serve(conn, rows: np.ndarray) -> None:  # in the child
        for end in conns:  # the parent's ends the fork copied, so EOF arrives
            end.close()
        try:
            search = _StumpSearch(rows, labels)
            while True:
                conn.send(search.best(conn.recv()))
        except (EOFError, BrokenPipeError):
            pass  # the parent closed its end or died
        except Exception as exc:
            conn.send(exc)

    def best(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        for conn in conns:
            with contextlib.suppress(BrokenPipeError):  # a dead child raises below
                conn.send(weights)
        parts = []
        for i, (conn, proc) in enumerate(zip(conns, procs)):
            try:
                parts.append(conn.recv())
            except EOFError:
                proc.join()
                raise RuntimeError(f"stump worker {i} exited with code {proc.exitcode} without replying") from None
            if isinstance(parts[-1], Exception):
                raise parts[-1]
        return tuple(np.concatenate(part) for part in zip(*parts))

    try:
        for i in range(k):
            conn, child_end = fork.Pipe()
            conns.append(conn)
            proc = fork.Process(target=serve, args=(child_end, values[cuts[i] : cuts[i + 1]]), name=f"facedet-stumps-{i}")
            proc.start()
            procs.append(proc)
            child_end.close()
        yield best
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(1.0)
            proc.terminate()  # a no-op once it has exited
            proc.join()


def train_stage(
    values: np.ndarray,
    labels: np.ndarray,
    *,
    target_dr: float = 0.99,
    max_fpr: float = 0.5,
    max_stumps: int = 20,
    features: list[HaarFeature] | None = None,
    round_log: list[dict] | None = None,
) -> StageResult:
    """Boost stumps over the value matrix into one cascade stage.

    Rounds add the globally best stump (alpha = ln((1-e)/e)/2, e floored at
    1e-10), reweight with the exponential-loss update, and re-adjust the
    stage threshold so at least ``target_dr`` of the positives pass; training
    stops once the false-positive rate at that threshold reaches ``max_fpr``
    or ``max_stumps`` rounds have run.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if values.ndim != 2 or values.shape[0] == 0:
        raise ValueError(f"expected an (F, N) value matrix with at least one feature row, got shape {values.shape}")
    if labels.shape != values.shape[1:]:
        raise ValueError(f"expected a 1-D label vector of {values.shape[1]} samples, got shape {labels.shape}")
    if not 0.0 < target_dr <= 1.0:
        raise ValueError("target_dr must be in (0, 1]")
    pos = labels > 0
    neg = ~pos
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need non-empty positive and negative sets")
    weights = np.where(pos, 0.5 / n_pos, 0.5 / n_neg)
    with _stump_workers(values, labels) as best:
        stumps: list[tuple[WeakClassifier, float]] = []
        scores = np.zeros(labels.shape[0])
        stage_threshold = 0.0
        dr = fpr = 0.0
        k_fail = max(1, math.ceil((1.0 - target_dr) * n_pos))
        for rnd in range(max_stumps):
            err_f, thr_f, pol_f = best(weights)
            f_idx = int(np.argmin(err_f))
            err = float(err_f[f_idx])
            thr = float(thr_f[f_idx])
            pol = int(pol_f[f_idx])
            if err >= 0.5:
                if rnd == 0:
                    raise ValueError("no stump beats chance on the first round")
                break
            eps = max(err, MIN_EPSILON)
            alpha = 0.5 * math.log((1.0 - eps) / eps)
            feature = features[f_idx] if features is not None else f_idx
            stumps.append((WeakClassifier(feature, thr, pol), alpha))
            pred = np.where(pol * values[f_idx] < pol * thr, 1, -1)
            scores = scores + alpha * (pred > 0)
            total_alpha = sum(a for _, a in stumps)
            pos_sorted = np.sort(scores[pos])
            stage_threshold = min(total_alpha / 2.0, float(pos_sorted[k_fail - 1]))
            dr = float(np.mean(scores[pos] >= stage_threshold))
            fpr = float(np.mean(scores[neg] >= stage_threshold))
            mis = pred != labels
            if np.any(mis):
                weights = weights * np.exp(np.where(mis, alpha, -alpha))
                weights = weights / weights.sum()
            if round_log is not None:
                round_log.append(
                    {
                        "error": err,
                        "alpha": alpha,
                        "weight_sum": float(weights.sum()),
                        "post_error": float(weights[mis].sum()),
                        "detection_rate": dr,
                        "false_positive_rate": fpr,
                    }
                )
            if fpr <= max_fpr:
                break
    return StageResult(Stage(stumps, float(stage_threshold)), dr, fpr, scores)


@dataclass(frozen=True)
class _MatrixProgram:
    """Features compiled once for :func:`feature_value_matrix` at one sample
    size: the corners read per table, and the sparse (features, corners)
    weights on all of them, or None when no corner is read."""

    size: int
    corners: list[Corners]
    coef: object


def _compile_matrix(features: Sequence[HaarFeature], size: int) -> _MatrixProgram:
    import scipy.sparse  # training only: detection never pays for the import

    # every window origin is (0, 0), of parity 0: table 2 is never read
    corners = [c for c in compile_features(features, size) if c.table < 2]
    if not corners:
        return _MatrixProgram(size, [], None)
    first = np.cumsum([0] + [c.row.size for c in corners])
    coef = scipy.sparse.csr_array(
        (
            np.concatenate([c.weight for c in corners]).astype(np.float64),
            (np.concatenate([c.feature for c in corners]), np.concatenate([k + c.corner for c, k in zip(corners, first)])),
        ),
        shape=(len(features), first[-1]),
    )
    return _MatrixProgram(size, corners, coef)


def feature_value_matrix(
    features: Sequence[HaarFeature],
    samples: list[np.ndarray],
    variance_norm: bool = True,
    program: _MatrixProgram | None = None,
) -> np.ndarray:
    """(F, N) responses of every feature on every base-window sample.

    The features are compiled into one program at the base size, or
    ``program`` is their program from an earlier call, and the responses are
    one sparse product of its weights with the table corners it reads, per
    block of MATRIX_ROWS samples whose tables are built as one stack. The
    product runs in float64 on integers: every partial sum is an integer far
    below 2**53 for 8-bit samples, so it equals the int64 sum exactly.
    """
    if not samples:
        raise ValueError("no samples")
    base = samples[0].shape[0]
    for i, sample in enumerate(samples):
        if sample.shape != (base, base):
            raise ValueError(f"sample {i} is {sample.shape}, expected {(base, base)}")
    if program is None:
        program = _compile_matrix(features, base)
    elif program.size != base:
        raise ValueError(f"features compiled for {program.size} px samples, given {base} px ones")
    out = np.zeros((len(features), len(samples)))
    if program.coef is None:
        return out
    for lo in range(0, len(samples), MATRIX_ROWS):
        pixels = np.stack(samples[lo : lo + MATRIX_ROWS]).astype(np.int64)
        n = len(pixels)
        # every window origin is (0, 0): cell 0 of the upright table, and
        # cell (0, voff >> 1) of the tilted planes with origin parity 0
        up = _upright_grid(pixels, squared=False)
        tables = [(up, 0)]
        if any(c.table == 1 for c in program.corners):
            even, _, voff = _tilted_grids(pixels)
            tables.append((even.base, voff >> 1))
        reads = [tables[c.table][0].reshape(n, -1)[:, tables[c.table][1] + c.offsets(tables[c.table][0])] for c in program.corners]
        block = program.coef @ np.ascontiguousarray(np.concatenate(reads, axis=1).T, dtype=np.float64)
        if variance_norm:
            area = base * base
            total = up[:, base, base].astype(np.float64)
            var = (pixels * pixels).sum(axis=(1, 2)) / area - (total / area) ** 2
            block /= np.maximum(np.sqrt(np.maximum(var, 0.0)), 1.0)[None, :]
        out[:, lo : lo + n] = block
    return out


def _mine_false_positives(
    cascade: Cascade, pool: list[np.ndarray], needed: int, scan_step: int = 3
) -> list[np.ndarray]:
    """Crop windows from pool images that the current cascade accepts,
    drawing evenly across the pool so one image cannot fill the quota.

    Each image contributes its first ``needed`` detections in scan order;
    picks go round-robin by rank in pool order, and only the picks are
    cropped and resized.
    """
    from .detect import detect_multiscale_counted
    from .images import resize_bilinear

    base = cascade.base_window
    scanned = [
        (img, detect_multiscale_counted(cascade, img, step=scan_step)[0][:needed])
        for img in pool
        if min(img.shape) >= base
    ]
    longest = max((len(dets) for _, dets in scanned), default=0)
    picks = itertools.islice(
        ((img, dets[rank]) for rank in range(longest) for img, dets in scanned if rank < len(dets)),
        needed,
    )
    mined: list[np.ndarray] = []
    for img, det in picks:
        crop = img[det.y : det.y + det.h, det.x : det.x + det.w]
        mined.append(crop if crop.shape == (base, base) else resize_bilinear(crop, base, base))
    return mined


def train_cascade(
    pos_samples: list[np.ndarray],
    neg_samples: list[np.ndarray],
    *,
    n_stages: int = 15,
    target_dr: float = 0.99,
    max_fpr: float = 0.5,
    max_stumps: int = 20,
    base_window: int = 24,
    pool: list[np.ndarray] | None = None,
    feature_subsample: int = 0,
    seed: int = 0,
) -> Cascade:
    """Train stages sequentially on base-window grayscale samples.

    After each stage the negatives it correctly rejects are dropped; when a
    background pool is supplied and another stage follows, they are replaced
    by windows the cascade still accepts there. Training halts early once no
    negatives remain.
    """
    if not pos_samples or not neg_samples:
        raise ValueError("need non-empty positive and negative sample sets")
    features = generate_feature_set(base_window)
    if feature_subsample and feature_subsample < len(features):
        rng = np.random.default_rng(seed)
        chosen = np.sort(rng.choice(len(features), size=feature_subsample, replace=False))
        features = [features[i] for i in chosen]
    # compiled once: every stage's matrix reads the same features
    program = _compile_matrix(features, base_window)
    v_pos = feature_value_matrix(features, pos_samples, program=program)
    negatives = list(neg_samples)
    neg_target = len(negatives)
    stages: list[Stage] = []
    metadata: list[tuple[float, float]] = []
    labels_pos = np.ones(len(pos_samples))
    for _ in range(n_stages):
        if not negatives:
            break
        v_neg = feature_value_matrix(features, negatives, program=program)
        values = np.concatenate([v_pos, v_neg], axis=1)
        labels = np.concatenate([labels_pos, -np.ones(len(negatives))])
        result = train_stage(
            values,
            labels,
            target_dr=target_dr,
            max_fpr=max_fpr,
            max_stumps=max_stumps,
            features=features,
        )
        stages.append(result.stage)
        metadata.append((result.detection_rate, result.false_positive_rate))
        neg_scores = result.scores[len(pos_samples) :]
        survivors = [s for s, sc in zip(negatives, neg_scores) if sc >= result.stage.threshold]
        negatives = survivors
        if pool is not None and len(negatives) < neg_target and len(stages) < n_stages:
            current = Cascade(base_window, list(stages), list(metadata))
            negatives.extend(_mine_false_positives(current, pool, neg_target - len(negatives)))
    return Cascade(base_window, stages, metadata)


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def save_cascade(cascade: Cascade, path: str) -> None:
    lines = [f"CASCADE v1 {cascade.base_window} {len(cascade.stages)}"]
    for stage in cascade.stages:
        lines.append(f"STAGE {len(stage.stumps)} {_fmt(stage.threshold)}")
        for wc, alpha in stage.stumps:
            f = wc.feature
            lines.append(
                f"STUMP {f.kind} {f.x} {f.y} {f.w} {f.h} "
                f"{_fmt(wc.threshold)} {wc.polarity:+d} {_fmt(alpha)}"
            )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _field(path: str, line: int, text: str, kind: type):
    """One numeric field of a model line, finite, or a ValueError naming it."""
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"{path}:{line}: bad number {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}:{line}: non-finite number {text!r}")
    return value


def load_cascade(path: str) -> Cascade:
    """Read a model written by :func:`save_cascade`.

    Raises ValueError naming the file and line for a bad header, a
    malformed, missing or extra line, a negative count, a non-finite
    number, a polarity other than +1/-1, an unknown feature kind and stump
    geometry that does not fit the base window.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [(no, ln.split()) for no, ln in enumerate(fh, 1) if ln.strip()]
    if not lines or lines[0][1][:2] != ["CASCADE", "v1"] or len(lines[0][1]) != 4:
        raise ValueError(f"{path}: not a cascade model file")
    rest = iter(lines[1:])

    def take(tag: str, n_fields: int) -> tuple[int, list[str]]:
        no, toks = next(rest, (None, None))
        if no is None:
            raise ValueError(f"{path}: truncated after line {lines[-1][0]}, expected a {tag} line")
        if toks[0] != tag or len(toks) != n_fields:
            got = " ".join(toks)
            raise ValueError(f"{path}:{no}: expected a {tag} line of {n_fields} fields, got {got!r}")
        return no, toks

    head_no, header = lines[0]
    base_window = _field(path, head_no, header[2], int)
    n_stages = _field(path, head_no, header[3], int)
    if base_window < 1 or n_stages < 0:
        raise ValueError(f"{path}:{head_no}: bad window {base_window} or stage count {n_stages}")
    stages: list[Stage] = []
    for _ in range(n_stages):
        no, toks = take("STAGE", 3)
        n_stumps = _field(path, no, toks[1], int)
        threshold = _field(path, no, toks[2], float)
        if n_stumps < 0:
            raise ValueError(f"{path}:{no}: negative stump count {n_stumps}")
        stumps: list[tuple[WeakClassifier, float]] = []
        for _ in range(n_stumps):
            no, st = take("STUMP", 9)
            kind = st[1]
            if kind not in KINDS:
                raise ValueError(f"{path}:{no}: unknown feature kind {kind!r}")
            x, y, w, h, polarity = (_field(path, no, t, int) for t in (*st[2:6], st[7]))
            feature = HaarFeature(kind, x, y, w, h, base_window)
            if not fits_window(feature):
                raise ValueError(
                    f"{path}:{no}: {kind} {x} {y} {w} {h} does not fit the {base_window}px window"
                )
            if polarity not in (1, -1):
                raise ValueError(f"{path}:{no}: polarity must be +1 or -1, got {st[7]!r}")
            thr = _field(path, no, st[6], float)
            alpha = _field(path, no, st[8], float)
            stumps.append((WeakClassifier(feature, thr, polarity), alpha))
        stages.append(Stage(stumps, threshold))
    extra = next(rest, None)
    if extra is not None:
        raise ValueError(f"{path}:{extra[0]}: trailing line after the last stage")
    nan = float("nan")
    return Cascade(base_window, stages, [(nan, nan)] * len(stages))
