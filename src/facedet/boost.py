"""Decision stumps, boosted stages, and the attentional cascade.

A stump predicts +1 (face) iff polarity * value < polarity * threshold.
Stage voting follows the usual cascade convention: each stump contributes
alpha if it votes face, 0 otherwise, and the stage passes when the weighted
vote reaches the stage threshold (default: half the total alpha, lowered
after every boosting round until the detection-rate target is met on the
training positives).

Training works on one form of the responses, integer numerators and one
pixel sigma per sample, and is fully deterministic: :func:`train_cascade`
computes each sample's column of one (F, P + N) numerator matrix, and its
sigma, once (:func:`feature_value_matrix`), :func:`train_stage` boosts over
a view of them with an exact stump search in forked workers, and
hard-negative mining refills the rejected negatives between stages.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import mmap
import multiprocessing
import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .haar import KINDS, Corners, HaarFeature, compile_features, fits_window, generate_feature_set
from .images import crop_square
from .integral import integral_set, window_sigma

__all__ = [
    "WeakClassifier",
    "Stage",
    "StageResult",
    "Cascade",
    "keep_threshold",
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
# features per sort chunk of the stump search: a chunk's argsort and gather
# temporaries stay a few MB per worker
TASK_ROWS = 128
# samples per block of the feature matrix: a block's tables, corner reads and
# product take about 5 MB for 2,500 features (19.5 MB at 256 samples)
MATRIX_ROWS = 64


@dataclass(frozen=True)
class WeakClassifier:
    feature: HaarFeature
    threshold: float
    polarity: int  # +1 or -1


@dataclass(frozen=True)
class Stage:
    """Stumps whose weighted face votes must reach ``threshold``, and the rates
    :func:`train_stage` reached on its samples (NaN when loaded from disk)."""

    stumps: list[tuple[WeakClassifier, float]]  # (stump, alpha >= 0)
    threshold: float
    # not in model files, and not compared: LiveWindows continues a scan when
    # its stages == the cascade's first ones, be they trained or loaded
    detection_rate: float = field(default=math.nan, compare=False)
    false_positive_rate: float = field(default=math.nan, compare=False)

    @property
    def total_alpha(self) -> float:
        return sum(alpha for _, alpha in self.stumps)


@dataclass(frozen=True)
class StageResult:
    """A trained stage and its per-sample weighted face votes at the final round."""

    stage: Stage
    scores: np.ndarray


@dataclass(frozen=True)
class Cascade:
    """Stages of boosted stumps over ``base_window``-pixel windows, in scan order.

    A Cascade scans one image at a time: its scan plan holds the workspace
    that each scan refills (see :mod:`facedet.detect`), so two threads must
    not scan with the same Cascade at once. Scan in parallel from forked
    processes, each with its own copy.
    """

    base_window: int
    stages: list[Stage]
    # filled by facedet.detect from ``stages`` (never change them in place): the
    # corners by window size, and one scan plan (16-32 bytes a window, and the
    # shape's workspace), the last shape's
    programs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    plan: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _restore_index_order(order: np.ndarray, tied: np.ndarray) -> None:
    """Sort every run of equal values in ``order`` by sample index, in place.

    ``order`` is any argsort of the rows of some values and ``tied[r, j]``
    whether its sorted elements j and j + 1 of row r are equal. Every
    element outside a run is already where a stable sort puts it, so
    afterwards ``order`` equals the stable argsort element for element.
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


def _allowed_cpus() -> int:
    """The number of CPUs in this process's affinity mask, or on the machine
    where the platform has no such mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _StumpSearch:
    """Sorted-order cache over the responses ``values / sigma`` of an (F, N)
    value matrix and one sigma per sample, reusable across rounds.

    The cache holds 5 bytes a cell: ``order``, the stable argsort of every
    row's responses (int32), and ``tied[r, j]``, whether its sorted
    responses j and j + 1 are equal. Rows are sorted in chunks of TASK_ROWS,
    the responses of one chunk at a time, with numpy's default (SIMD,
    unstable) argsort, after which every run of equal responses is put back
    in sample order: the order inside a run sets the summation order of the
    weights, and so the last bits of the errors. Candidate j (j samples
    strictly below the threshold) is the midpoint of sorted responses j - 1
    and j, invalid where they are tied, plus one sentinel below the minimum
    and one above the maximum; a threshold is computed only for the
    candidate each row picks.
    """

    def __init__(self, values: np.ndarray, labels: np.ndarray, sigma: np.ndarray):
        f, n = values.shape
        self.values = values
        self.sigma = sigma
        self.pos = labels > 0
        self.order = np.empty((f, n), dtype=np.int32 if n < 2**31 else np.intp)
        self.tied = np.empty((f, max(n - 1, 0)), dtype=bool)
        for lo in range(0, f, TASK_ROWS):
            self._sort_rows(slice(lo, min(lo + TASK_ROWS, f)))

    def _responses(self, rows, cols) -> np.ndarray:
        """The float64 responses ``values[rows, cols] / sigma[cols]``, the
        same bits as dividing a float64 copy of integer numerators."""
        return self.values[rows, cols] / self.sigma[cols]

    def _sort_rows(self, rows: slice) -> None:
        """Sort ``rows`` of the responses and fill their rows of the cache."""
        v = self._responses(rows, slice(None))
        order = np.argsort(v, axis=1)
        vs = np.take_along_axis(v, order, axis=1)
        if np.isnan(vs[:, -1]).any():  # NaN sorts last
            raise ValueError("feature values must not be NaN")
        tied = self.tied[rows]
        np.greater_equal(vs[:, :-1], vs[:, 1:], out=tied)  # sorted, no NaN: >= is ==
        _restore_index_order(order, tied)
        self.order[rows] = order

    def best(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-feature (error, threshold, polarity) of the optimal stump,
        swept in blocks of SWEEP_ROWS rows.

        The weights go in as one complex128 vector: the positives' weights
        in the real part and the negatives' in the imaginary part, 0.0 in
        the other, so one gather through ``order`` and one complex cumsum
        give both classes' running sums.
        """
        f = self.order.shape[0]
        both = np.empty(weights.shape, dtype=np.complex128)
        both.real = np.where(self.pos, weights, 0.0)
        both.imag = np.where(self.pos, 0.0, weights)
        err = np.empty(f)
        thr = np.empty(f)
        pol = np.empty(f, dtype=np.int64)
        for lo in range(0, f, SWEEP_ROWS):
            block = slice(lo, min(lo + SWEEP_ROWS, f))
            err[block], thr[block], pol[block] = self._best_rows(both, block)
        return err, thr, pol

    def _best_rows(self, weights: np.ndarray, rows: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``best`` for one block of features; rows never interact.

        With cp, cn the positive and negative weight below a candidate and
        tp, tn their totals, the errors are ``(tp - cp) + cn`` for polarity
        +1 and ``cp - (cn - tn)`` for polarity -1. Both are exact rewrites
        of ``cn + (tp - cp)`` and ``cp + (tn - cn)``: IEEE addition
        commutes, round-to-nearest gives ``fl(cn - tn) == -fl(tn - cn)``,
        and ``a - b`` is ``a + (-b)``. A complex cumsum adds the real and
        the imaginary parts as two independent sequential sums, so cp and
        cn are the bits of two float cumsums. Ties go to the smaller
        threshold, then to polarity +1.
        """
        order = self.order[rows]
        f, n = order.shape
        sums = np.empty((f, n + 1), dtype=np.complex128)
        sums[:, 0] = 0.0
        np.cumsum(weights[order], axis=1, out=sums[:, 1:])
        cp, cn = sums.real, sums.imag
        # polarity +1 (face iff value < threshold), then -1
        err_pos = np.subtract(cp[:, -1:], cp)
        err_pos += cn
        cn -= cn[:, -1:].copy()
        err_neg = np.subtract(cp, cn)
        np.copyto(err_pos[:, 1:n], np.inf, where=self.tied[rows])
        np.copyto(err_neg[:, 1:n], np.inf, where=self.tied[rows])
        idx = np.arange(f)
        j_pos = np.argmin(err_pos, axis=1)  # first minimum = smallest threshold
        j_neg = np.argmin(err_neg, axis=1)
        e_pos = err_pos[idx, j_pos]
        e_neg = err_neg[idx, j_neg]
        t_pos = self._thresholds(rows, order, j_pos)
        t_neg = self._thresholds(rows, order, j_neg)
        use_neg = (e_neg < e_pos) | ((e_neg == e_pos) & (t_neg < t_pos))
        err = np.where(use_neg, e_neg, e_pos)
        thr = np.where(use_neg, t_neg, t_pos)
        pol = np.where(use_neg, -1, 1)
        return err, thr, pol

    def _thresholds(self, rows: slice, order: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Candidate ``j[r]`` of each row r of the block: the midpoint
        ``(vs[j - 1] + vs[j]) * 0.5`` of its sorted responses vs, or the
        sentinel ``vs[0] - 1.0`` at j = 0 and ``vs[-1] + 1.0`` at j = N."""
        f, n = order.shape
        idx = np.arange(f)
        below = self._responses(rows.start + idx, order[idx, np.maximum(j - 1, 0)])
        above = self._responses(rows.start + idx, order[idx, np.minimum(j, n - 1)])
        mid = np.add(below, above)
        mid *= 0.5
        return np.where(j == 0, above - 1.0, np.where(j == n, below + 1.0, mid))


@contextlib.contextmanager
def _stump_workers(values: np.ndarray, labels: np.ndarray, sigma: np.ndarray):
    """Fork the stump search of one stage over ``values / sigma`` and yield
    its ``best``.

    There are k = min(allowed CPUs, F) children (the ``fork`` start method:
    Linux or macOS). Child i inherits both arrays copy-on-write, reads rows
    F * i // k : F * (i + 1) // k of ``values`` and never writes them, and
    keeps a :class:`_StumpSearch` cache of 5 bytes a cell of those rows for
    the stage; each round the parent sends the weights and joins the
    answers in row order. Rows never interact, so every result is
    bit-identical whatever the worker count. A child's error, or its exit
    without a reply, raises in the parent; on exit the pipes close and the
    children stop.
    """
    f = values.shape[0]
    k = min(_allowed_cpus(), f)
    fork = multiprocessing.get_context("fork")
    conns, procs = [], []

    def serve(conn, rows: np.ndarray) -> None:  # in the child
        for end in conns:  # the parent's ends the fork copied, so EOF arrives
            end.close()
        try:
            search = _StumpSearch(rows, labels, sigma)
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
            proc = fork.Process(target=serve, args=(child_end, values[f * i // k : f * (i + 1) // k]), name=f"facedet-stumps-{i}")
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


def keep_threshold(values, keep: float) -> float:
    """The stage-threshold rule of Viola & Jones (IJCV 2004): the k-th lowest
    of ``values``, k = max(1, ceil((1 - keep) * n)), so fewer than k fall
    below it."""
    values = np.sort(values)
    if len(values) == 0:
        raise ValueError("no values to pick a threshold from")
    return float(values[max(1, math.ceil((1.0 - keep) * len(values))) - 1])


def train_stage(
    values: np.ndarray,
    labels: np.ndarray,
    *,
    sigma: np.ndarray,
    features: Sequence[HaarFeature],
    target_dr: float = 0.99,
    max_fpr: float = 0.5,
    max_stumps: int = 20,
    round_log: list[dict] | None = None,
) -> StageResult:
    """Boost stumps over the responses ``values / sigma`` into one cascade
    stage. ``values`` is (F, N), such as the integer numerators of
    :func:`feature_value_matrix`, divided a chunk or a row at a time and
    never widened as a whole; ``sigma`` holds one sigma per sample, and
    ``features`` the feature of each row.

    Rounds add the globally best stump (alpha = ln((1-e)/e)/2, e floored at
    1e-10), reweight with the exponential-loss update, and re-adjust the
    stage threshold so at least ``target_dr`` of the positives pass; training
    stops once the false-positive rate at that threshold reaches ``max_fpr``
    or ``max_stumps`` rounds have run. The stage carries the detection and
    false-positive rates of its last round.
    """
    values = np.asarray(values)
    labels = np.asarray(labels)
    sigma = np.asarray(sigma)
    if values.ndim != 2 or values.shape[0] == 0:
        raise ValueError(f"expected an (F, N) value matrix with at least one feature row, got shape {values.shape}")
    if labels.shape != values.shape[1:]:
        raise ValueError(f"expected a 1-D label vector of {values.shape[1]} samples, got shape {labels.shape}")
    if sigma.shape != values.shape[1:]:
        raise ValueError(f"expected a 1-D sigma vector of {values.shape[1]} samples, got shape {sigma.shape}")
    if len(features) != values.shape[0]:
        raise ValueError(f"expected {values.shape[0]} features, one per value row, got {len(features)}")
    if not 0.0 < target_dr <= 1.0:
        raise ValueError("target_dr must be in (0, 1]")
    pos = labels > 0
    neg = ~pos
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need non-empty positive and negative sets")
    weights = np.where(pos, 0.5 / n_pos, 0.5 / n_neg)
    with _stump_workers(values, labels, sigma) as best:
        stumps: list[tuple[WeakClassifier, float]] = []
        scores = np.zeros(labels.shape[0])
        stage_threshold = 0.0
        dr = fpr = 0.0
        for rnd in range(max_stumps):
            err_f, thr_f, pol_f = best(weights)
            f_idx = int(np.argmin(err_f))  # the lowest feature index on ties
            err = float(err_f[f_idx])
            thr = float(thr_f[f_idx])
            pol = int(pol_f[f_idx])
            if err >= 0.5:
                if rnd == 0:
                    raise ValueError("no stump beats chance on the first round")
                break
            eps = max(err, MIN_EPSILON)
            alpha = 0.5 * math.log((1.0 - eps) / eps)
            stumps.append((WeakClassifier(features[f_idx], thr, pol), alpha))
            pred = np.where(pol * (values[f_idx] / sigma) < pol * thr, 1, -1)
            scores = scores + alpha * (pred > 0)
            total_alpha = sum(a for _, a in stumps)
            stage_threshold = min(total_alpha / 2.0, keep_threshold(scores[pos], target_dr))
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
    return StageResult(Stage(stumps, float(stage_threshold), dr, fpr), scores)


@dataclass(frozen=True)
class _MatrixProgram:
    """Features compiled once for :func:`feature_value_matrix` at one sample
    size: the corners read per table, and the sparse (features, corners)
    weights on all of them, or None when no corner is read; ``weight_l1``
    is the largest sum of a feature's absolute corner weights."""

    size: int
    corners: list[Corners]
    coef: object
    weight_l1: int


def _compile_matrix(features: Sequence[HaarFeature], size: int) -> _MatrixProgram:
    import scipy.sparse  # training only: detection never pays for the import

    # every window origin is (0, 0), of parity 0: table 2 is never read
    corners = [c for c in compile_features(features, size) if c.table < 2]
    if not corners:
        return _MatrixProgram(size, [], None, 0)
    first = np.cumsum([0] + [c.row.size for c in corners])
    weight = np.concatenate([c.weight for c in corners])
    feature = np.concatenate([c.feature for c in corners])
    coef = scipy.sparse.csr_array(
        (weight.astype(np.float64), (feature, np.concatenate([k + c.corner for c, k in zip(corners, first)]))),
        shape=(len(features), first[-1]),
    )
    return _MatrixProgram(size, corners, coef, int(np.bincount(feature, np.abs(weight)).max()))


def _numerator_dtype(program: _MatrixProgram, images: Sequence[np.ndarray]) -> type:
    """int32 where no response numerator of the program can reach 2**31 on
    ``images`` (samples, or the images they are cropped from), int64
    otherwise. Every table corner a response reads sums pixels of one
    sample, at most 255 * size**2 in magnitude for 8-bit pixels, so a
    response is at most that times the program's ``weight_l1``."""
    small = all(img.dtype.itemsize == 1 for img in images)
    return np.int32 if small and 255 * program.size**2 * program.weight_l1 < 2**31 else np.int64


def _mapped_empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised array in its own private anonymous mapping, unmapped
    as soon as the array and every view of it are gone.

    malloc serves a block of this size from its heap once it has freed one
    mapped block of it (glibc raises its mmap threshold, up to 32 MB, to the
    freed size), and a heap block stays resident after the free while any
    later allocation sits above it, so a later training in one process
    would peak one matrix higher, or not, depending on what was allocated
    in between. Mapping the matrix directly returns its pages on every
    free, and forked children still share them copy-on-write."""
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    pages = mmap.mmap(-1, max(count * dtype.itemsize, 1), flags=mmap.MAP_PRIVATE)
    return np.frombuffer(pages, dtype=dtype, count=count).reshape(shape)


def _describe(array) -> str:
    return f"{array.dtype} {array.shape}" if isinstance(array, np.ndarray) else type(array).__name__


def feature_value_matrix(
    features: Sequence[HaarFeature],
    samples: list[np.ndarray],
    program: _MatrixProgram | None = None,
    out: np.ndarray | None = None,
    sigma: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(F, N) integer numerators of every feature's response on every
    base-window sample, and each sample's pixel sigma (floored at 1):
    ``numerators / sigma`` is the float64 responses, bit for bit. They go
    into ``out``, int32 where :func:`_numerator_dtype` allows it and int64
    otherwise, and ``sigma``, float64, either of which may be a slice of a
    wider array and is allocated when not given; both are returned.

    The features are compiled into one program at the base size, or
    ``program`` is their program from an earlier call, and the numerators
    are one sparse product of its weights with the table corners it reads,
    per block of MATRIX_ROWS samples whose tables are built as one stack.
    The product runs in float64 on integers: every partial sum is an
    integer far below 2**53 for 8-bit samples, so it equals the int64 sum
    exactly. Each column depends on its own sample only, so it is the same
    bits in any call.
    """
    if not samples:
        raise ValueError("no samples")
    base = samples[0].shape[0]
    for i, sample in enumerate(samples):
        if sample.shape != (base, base):
            raise ValueError(f"sample {i} is {sample.shape}, expected {(base, base)}")
    shape = (len(features), len(samples))
    if program is None:
        program = _compile_matrix(features, base)
    elif program.size != base:
        raise ValueError(f"features compiled for {program.size} px samples, given {base} px ones")
    if sigma is None:
        sigma = np.empty(shape[1])
    elif not isinstance(sigma, np.ndarray) or sigma.shape != shape[1:] or sigma.dtype != np.float64:
        raise ValueError(f"sigma must be a float64 array of shape {shape[1:]}, got {_describe(sigma)}")
    dtypes = [np.int32, np.int64] if _numerator_dtype(program, samples) == np.int32 else [np.int64]
    if out is None:
        out = np.empty(shape, dtype=dtypes[0])
    elif not isinstance(out, np.ndarray) or out.shape != shape or out.dtype not in dtypes:
        names = " or ".join(np.dtype(d).name for d in dtypes)
        raise ValueError(f"out must be an {names} array of shape {shape}, got {_describe(out)}")
    tilted = any(c.table == 1 for c in program.corners)
    origin = np.zeros(1, dtype=np.int64)
    for lo in range(0, len(samples), MATRIX_ROWS):
        iset = integral_set(np.stack(samples[lo : lo + MATRIX_ROWS]), with_tilted=tilted)
        n = len(iset.grid)
        if program.coef is None:
            block = np.zeros((shape[0], n))
        else:
            tables = (iset.grid, iset.planes)
            # every window origin is (0, 0), of parity 0
            cells = [int(cell[0]) for cell in iset.origins(origin, origin)[:2]]
            reads = [
                tables[c.table].reshape(n, -1)[:, cells[c.table] + c.offsets(tables[c.table])] for c in program.corners
            ]
            block = program.coef @ np.ascontiguousarray(np.concatenate(reads, axis=1).T, dtype=np.float64)
        sigma[lo : lo + n] = window_sigma(iset, base, 1).reshape(n)
        out[:, lo : lo + n] = block
    return out, sigma


def _mine_false_positives(
    cascade: Cascade, pool: list[np.ndarray], needed: int, live: list | None = None
) -> list[np.ndarray]:
    """Crop windows from pool images that the current cascade accepts,
    drawing evenly across the pool so one image cannot fill the quota.

    Each image contributes its first ``needed`` detections of a scan at
    step 3; picks go round-robin by rank in pool order, and only the picks
    are cropped and resized. ``live``, one
    :class:`facedet.detect.LiveWindows` per pool image, carries each image's
    scan from call to call, so a cascade that extends the last call's runs
    only its new stages: a window an earlier stage rejected stays rejected.
    """
    from .detect import detect_multiscale_counted

    base = cascade.base_window
    scanned = [
        (img, detect_multiscale_counted(cascade, img, step=3, live=record)[0].boxes[:needed])
        for img, record in zip(pool, live or [None] * len(pool))
        if min(img.shape) >= base
    ]
    longest = max((len(boxes) for _, boxes in scanned), default=0)
    picks = itertools.islice(
        ((img, boxes[rank]) for rank in range(longest) for img, boxes in scanned if rank < len(boxes)),
        needed,
    )
    return [crop_square(img, box, base) for img, box in picks]


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

    One (F, P + N) matrix holds every sample's column, N the negative
    target, computed once (:func:`feature_value_matrix`): the positives'
    and then the negatives' in one call. It holds the responses' integer
    numerators, int32 for 8-bit samples (29 MB for the experiment's 2,500
    features and 2,911 tiles, against 58 MB of float64 responses) in a
    mapping of its own (:func:`_mapped_empty`), and one float64 vector
    each sample's pixel sigma; the stage divides them a chunk or a row at a
    time. After each stage the surviving negatives' columns and sigmas move
    up behind the positives', the mined negatives' follow them, and the
    next stage trains on the leading P + n columns, a view.
    """
    from .detect import LiveWindows

    if not pos_samples or not neg_samples:
        raise ValueError("need non-empty positive and negative sample sets")
    features = generate_feature_set(base_window)
    if feature_subsample and feature_subsample < len(features):
        rng = np.random.default_rng(seed)
        chosen = np.sort(rng.choice(len(features), size=feature_subsample, replace=False))
        features = [features[i] for i in chosen]
    # compiled once: every stage's matrix reads the same features
    program = _compile_matrix(features, base_window)
    n_pos, neg_target = len(pos_samples), len(neg_samples)
    # the pool's images are where mined samples come from
    dtype = _numerator_dtype(program, [*pos_samples, *neg_samples, *(pool or [])])
    matrix = _mapped_empty((len(features), n_pos + neg_target), dtype)
    _, sigma = feature_value_matrix(features, [*pos_samples, *neg_samples], program=program, out=matrix)
    labels = np.concatenate([np.ones(n_pos), -np.ones(neg_target)])
    n_neg = neg_target
    live = None if pool is None else [LiveWindows() for _ in pool]
    stages: list[Stage] = []
    for _ in range(n_stages):
        if not n_neg:
            break
        result = train_stage(
            matrix[:, : n_pos + n_neg],
            labels[: n_pos + n_neg],
            sigma=sigma[: n_pos + n_neg],
            features=features,
            target_dr=target_dr,
            max_fpr=max_fpr,
            max_stumps=max_stumps,
        )
        stages.append(result.stage)
        # the survivors' columns move up by blocks of rows, so the gather's copy stays small
        kept = n_pos + np.flatnonzero(result.scores[n_pos:] >= result.stage.threshold)
        n_neg = kept.size
        for lo in range(0, len(features), TASK_ROWS):
            rows = matrix[lo : lo + TASK_ROWS]
            rows[:, n_pos : n_pos + n_neg] = rows[:, kept]
        sigma[n_pos : n_pos + n_neg] = sigma[kept]
        if pool is not None and n_neg < neg_target and len(stages) < n_stages:
            current = Cascade(base_window, list(stages))
            mined = _mine_false_positives(current, pool, neg_target - n_neg, live)
            if mined:
                end = n_pos + n_neg + len(mined)
                feature_value_matrix(
                    features, mined, program=program, out=matrix[:, n_pos + n_neg : end], sigma=sigma[n_pos + n_neg : end]
                )
                n_neg += len(mined)
    return Cascade(base_window, stages)


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


# the largest base window a model file may name: far beyond any trainable
# window (the Haar bank grows with the fourth power of its side), and small
# enough that compile_features' int64 corner keys (below 2**37 per stump at
# this size) stay exact for any model of fewer than 2**26 stumps
MAX_BASE_WINDOW = 2**16


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
    malformed, missing or extra line, a base window outside
    1..MAX_BASE_WINDOW, a negative count, a non-finite number, a polarity
    other than +1/-1, an unknown feature kind and stump geometry that does
    not fit the base window.
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
    if not 1 <= base_window <= MAX_BASE_WINDOW or n_stages < 0:
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
    return Cascade(base_window, stages)
