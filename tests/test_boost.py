import contextlib
import functools
import math
import multiprocessing
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facedet import boost
from facedet.boost import (
    SWEEP_ROWS,
    TASK_ROWS,
    Cascade,
    Stage,
    _mine_false_positives,
    _StumpSearch,
    _stump_workers,
    feature_value_matrix,
    load_cascade,
    save_cascade,
    train_cascade,
    train_stage,
)
from facedet.detect import detect_multiscale_counted
from facedet.haar import KINDS, HaarFeature, _placements, enumerate_kind
from facedet.images import resize_bilinear
from facedet.integral import integral_set
from oracles import (
    WholeMatrixStumpSearch,
    classify_window,
    eval_feature,
    feature_matrix_oracle,
    stage_score,
    train_stump,
)


def exhaustive_stump_oracle(values, labels, weights):
    """O(n^2) search over all midpoints plus the two sentinels."""
    weights = np.asarray(weights, dtype=float)
    weights = weights / weights.sum()
    vs = np.sort(np.unique(values))
    candidates = [vs[0] - 1.0]
    candidates += [0.5 * (a + b) for a, b in zip(vs[:-1], vs[1:])]
    candidates += [vs[-1] + 1.0]
    best = None
    for polarity in (1, -1):
        for thr in candidates:
            pred = np.where(polarity * np.asarray(values) < polarity * thr, 1, -1)
            err = float(weights[pred != labels].sum())
            key = (err, thr, 0 if polarity == 1 else 1)
            if best is None or key < best[0]:
                best = (key, thr, polarity, err)
    return best[1], best[2], best[3]


class TestTrainStump:
    def test_separable_pair(self):
        values = np.array([-1.0, 1.0])
        labels = np.array([-1, 1])
        thr, pol, err = train_stump(values, labels, np.array([0.5, 0.5]))
        assert err == 0.0
        assert -1.0 < thr <= 1.0
        pred = np.where(pol * values < pol * thr, 1, -1)
        assert np.array_equal(pred, labels)

    def test_indistinguishable_values(self):
        thr, pol, err = train_stump(
            np.array([0.0, 0.0]), np.array([1, -1]), np.array([0.5, 0.5])
        )
        assert err == pytest.approx(0.5)

    def test_error_bounded_by_half(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = 30
            values = rng.normal(size=n)
            labels = rng.choice([-1, 1], size=n)
            if len(set(labels)) < 2:
                continue
            weights = rng.uniform(0.1, 1.0, size=n)
            _, _, err = train_stump(values, labels, weights)
            assert 0.0 <= err <= 0.5 + 1e-12

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            n = 50
            values = np.round(rng.normal(size=n), 2)  # induce ties
            labels = np.concatenate([np.ones(25), -np.ones(25)])
            rng.shuffle(labels)
            weights = rng.uniform(0.01, 1.0, size=n)
            thr, pol, err = train_stump(values, labels, weights)
            othr, opol, oerr = exhaustive_stump_oracle(values, labels, weights)
            assert err == pytest.approx(oerr, abs=1e-12)
            # the returned stump achieves the oracle's optimum
            wnorm = weights / weights.sum()
            pred = np.where(pol * values < pol * thr, 1, -1)
            assert float(wnorm[pred != labels].sum()) == pytest.approx(oerr, abs=1e-12)
            assert (thr, pol) == (pytest.approx(othr), opol)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_stump(np.array([0.0, 1.0]), np.array([1, 1]), np.array([0.5, 0.5]))


@contextlib.contextmanager
def stump_tasks(workers, task_rows=boost.TASK_ROWS):
    """Run the stump search as if the process may use ``workers`` CPUs, in
    tasks of ``task_rows`` rows."""
    with mock.patch.object(boost, "_allowed_cpus", return_value=workers), mock.patch.object(
        boost, "TASK_ROWS", task_rows
    ):
        yield


def fork_process_spy():
    """Spy on the ``Process`` of the fork context that the search starts its
    workers with."""
    fork = multiprocessing.get_context("fork")
    return mock.patch.object(fork, "Process", wraps=fork.Process)


@contextlib.contextmanager
def task_log(path):
    """Log every sort task and sweep block as (kind, pid, first row, row
    stop), in whichever process runs it, to ``path``; yields a function
    that reads the log back."""
    sort = boost._StumpSearch._sort_rows
    sweep = boost._StumpSearch._best_rows

    def record(kind, rows):
        with open(path, "a") as fh:
            fh.write(f"{kind} {os.getpid()} {rows.start} {rows.stop}\n")

    def sort_spy(search, values, pos, rows):
        record("sort", rows)
        return sort(search, values, pos, rows)

    def sweep_spy(search, weights, rows):
        record("sweep", rows)
        return sweep(search, weights, rows)

    def read():
        with open(path) as fh:
            return [(kind, int(pid), int(lo), int(hi)) for kind, pid, lo, hi in map(str.split, fh)]

    with mock.patch.object(boost._StumpSearch, "_sort_rows", sort_spy), \
            mock.patch.object(boost._StumpSearch, "_best_rows", sweep_spy):
        yield read


class TestBlockedSweep:
    @settings(max_examples=80, deadline=None)
    @given(
        n_features=st.integers(1, 3 * SWEEP_ROWS + 5),
        n_samples=st.integers(1, 40),
        levels=st.integers(1, 6),
        spread=st.sampled_from([0, 0, 1, 8, 60]),
        workers=st.sampled_from([1, 2, 3]),
        task_rows=st.sampled_from([1, 3, TASK_ROWS]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_features=SWEEP_ROWS - 1, n_samples=17, levels=3, spread=0, workers=1, task_rows=TASK_ROWS, seed=0)
    @example(n_features=2 * SWEEP_ROWS + 3, n_samples=25, levels=2, spread=0, workers=2, task_rows=3, seed=1)
    @example(n_features=2 * TASK_ROWS + 5, n_samples=30, levels=3, spread=60, workers=3, task_rows=TASK_ROWS, seed=2)
    @example(n_features=TASK_ROWS + SWEEP_ROWS + 1, n_samples=9, levels=1, spread=40, workers=2, task_rows=TASK_ROWS, seed=3)
    def test_matches_whole_matrix_sweep(self, n_features, n_samples, levels, spread, workers, task_rows, seed):
        rng = np.random.default_rng(seed)
        # few distinct values: ties between samples and candidates
        values = 0.5 * rng.integers(0, levels, size=(n_features, n_samples))
        labels = rng.choice([-1, 1], size=n_samples)
        if spread == 0:  # few distinct small weights: ties between errors
            weights = rng.integers(1, 4, size=n_samples).astype(np.float64)
        else:  # up to 2**spread in ratio, with mantissas that round when summed
            weights = rng.choice([1.0, 3.0, 0.1, 1 / 3], size=n_samples) * 2.0 ** -rng.integers(0, spread + 1, size=n_samples)
        weights /= weights.sum()
        want = WholeMatrixStumpSearch(values, labels)
        with stump_tasks(workers, task_rows):
            search = _StumpSearch(values, labels)
            with _stump_workers(values, labels) as best:
                got = best(weights)
        for name in ("order", "thresholds", "invalid", "pos_sorted"):
            assert np.array_equal(getattr(search, name), getattr(want, name)), name
        for g, s, w in zip(got, search.best(weights), want.best(weights)):
            assert np.array_equal(g, w) and np.array_equal(s, w)
            assert g.dtype == w.dtype and s.dtype == w.dtype


class TestStableOrder:
    """The search sorts with numpy's default (unstable) sort and then puts
    every run of equal values back in sample order."""

    @settings(max_examples=80, deadline=None)
    @given(
        n_features=st.integers(1, 12),
        n_samples=st.integers(1, 3000),
        levels=st.integers(1, 8),
        signed_zeros=st.booleans(),
        task_rows=st.sampled_from([1, 5, TASK_ROWS]),
        workers=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_features=3, n_samples=1, levels=4, signed_zeros=True, task_rows=TASK_ROWS, workers=1, seed=0)  # one column
    @example(n_features=5, n_samples=2911, levels=1, signed_zeros=False, task_rows=TASK_ROWS, workers=2, seed=1)  # one value per row
    @example(n_features=5, n_samples=2911, levels=1, signed_zeros=True, task_rows=1, workers=3, seed=2)  # only 0.0 and -0.0
    @example(n_features=12, n_samples=2911, levels=3, signed_zeros=True, task_rows=5, workers=3, seed=3)
    def test_equals_stable_argsort(self, n_features, n_samples, levels, signed_zeros, task_rows, workers, seed):
        rng = np.random.default_rng(seed)
        # few distinct values, zero among them: long runs of ties
        values = 0.5 * rng.integers(-(levels // 2), levels - levels // 2, size=(n_features, n_samples))
        if signed_zeros:
            values[(values == 0) & (rng.random(values.shape) < 0.5)] = -0.0
        labels = rng.choice([-1, 1], size=n_samples)
        with stump_tasks(1, task_rows):
            search = _StumpSearch(values, labels)
        stable = np.argsort(values, axis=1, kind="stable")
        assert np.array_equal(search.order, stable)
        # the thresholds come from the stable gather, signed zeros included
        vs = np.take_along_axis(values, stable, axis=1)
        mid = 0.5 * (vs[:, :-1] + vs[:, 1:])
        assert np.array_equal(search.thresholds[:, 1:n_samples].view(np.int64), mid.view(np.int64))
        assert np.array_equal(search.pos_sorted, (labels > 0)[stable])
        # the workers' joined sweep equals the in-process one
        weights = rng.random(n_samples)
        with stump_tasks(workers, task_rows), _stump_workers(values, labels) as best:
            got = best(weights)
        assert all(np.array_equal(g, w) for g, w in zip(got, search.best(weights)))

    def test_nan_values_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            train_stump(np.array([0.0, np.nan, 1.0]), np.array([1, -1, 1]), np.ones(3))


class TestTrainStage:
    def test_alpha_formula(self):
        eps = 0.1
        assert 0.5 * math.log((1 - eps) / eps) == pytest.approx(1.0986, abs=1e-4)

    def test_perfectly_separable_single_stump(self):
        values = np.array([[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]])
        labels = np.array([1, 1, 1, -1, -1, -1])
        result = train_stage(values, labels, target_dr=0.99, max_fpr=0.5, max_stumps=5)
        assert len(result.stage.stumps) == 1
        assert result.detection_rate == 1.0
        assert result.false_positive_rate == 0.0

    def test_round_identities_on_random_data(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(40, 200))
        labels = np.where(rng.uniform(size=200) + 0.1 * values[0] > 0.5, 1, -1)
        if abs(labels.sum()) == 200:
            labels[0] = -labels[0]
        log = []
        train_stage(
            values, labels, target_dr=0.95, max_fpr=0.0, max_stumps=12, round_log=log
        )
        assert len(log) >= 3
        for entry in log:
            assert entry["weight_sum"] == pytest.approx(1.0, abs=1e-12)
            assert entry["post_error"] == pytest.approx(0.5, abs=1e-9)
            assert entry["detection_rate"] >= 0.95

    def test_fails_without_informative_stump(self):
        values = np.zeros((3, 10))
        labels = np.array([1, -1] * 5)
        with pytest.raises(ValueError):
            train_stage(values, labels)

    def test_stage_threshold_never_exceeds_half_total_alpha(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(30, 120))
        labels = np.where(values[3] + 0.5 * rng.normal(size=120) > 0, 1, -1)
        if len(set(labels)) < 2:
            labels[0] = -labels[0]
        result = train_stage(values, labels, target_dr=0.9, max_fpr=0.2, max_stumps=8)
        assert result.stage.threshold <= result.stage.total_alpha / 2 + 1e-12

    @pytest.mark.parametrize(
        "values, labels, message",
        [
            (np.zeros((3, 4)), np.array([1, -1, 1]), "expected a 1-D label vector of 4 samples, got shape (3,)"),
            (np.zeros((3, 4)), np.array([[1, -1, 1, -1]]), "expected a 1-D label vector of 4 samples, got shape (1, 4)"),
            (np.zeros((0, 4)), np.array([1, -1, 1, -1]), "at least one feature row, got shape (0, 4)"),
            (np.zeros(4), np.array([1, -1, 1, -1]), "expected an (F, N) value matrix"),
        ],
        ids=["short-labels", "2d-labels", "no-features", "1d-values"],
    )
    def test_bad_input_rejected_before_any_task(self, values, labels, message):
        with stump_tasks(2), fork_process_spy() as spy:
            with pytest.raises(ValueError) as exc:
                train_stage(values, labels)
        assert message in str(exc.value) and "\n" not in str(exc.value)
        assert spy.call_count == 0


class TestStumpTasks:
    """The stump search runs in tasks in forked children, one per allowed
    CPU, each owning a range of whole tasks for the stage."""

    def test_nan_in_a_later_task_rejected_and_children_joined(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=(20, 30))
        values[17, 4] = np.nan  # the sixth of seven tasks, in the third child
        labels = np.where(np.arange(30) % 2 == 0, 1, -1)
        with stump_tasks(3, task_rows=3), fork_process_spy() as spy, pytest.raises(ValueError, match="NaN"):
            train_stage(values, labels)
        assert spy.call_count == 3
        assert multiprocessing.active_children() == []

    def test_tasks_run_in_one_set_of_children_per_stage(self, tmp_path):
        rng = np.random.default_rng(13)
        values = rng.normal(size=(40, 60))
        labels = np.where(values[5] + 0.3 * rng.normal(size=60) > 0, 1, -1)
        with stump_tasks(2, task_rows=4), task_log(tmp_path / "tasks") as read, fork_process_spy() as spy:
            result = train_stage(values, labels, max_stumps=4, max_fpr=0.0)
        assert len(result.stage.stumps) == 4
        assert spy.call_count == 2  # one set of children for the stage, not one per round
        log = read()
        pids = {pid for _, pid, _, _ in log}
        assert len(pids) == 2 and os.getpid() not in pids
        # each child owns five whole tasks of four rows, in its own row numbers
        for pid in pids:
            sorts = [(lo, hi) for kind, p, lo, hi in log if kind == "sort" and p == pid]
            assert sorts == [(lo, lo + 4) for lo in range(0, 20, 4)]
        assert multiprocessing.active_children() == []

    def test_one_cpu_runs_every_task_in_one_child(self, tmp_path):
        rng = np.random.default_rng(14)
        values = rng.normal(size=(10, 40))
        labels = np.where(values[2] > 0, 1, -1)
        with stump_tasks(1, task_rows=3), task_log(tmp_path / "tasks") as read:
            serial = train_stage(values, labels, max_stumps=3, max_fpr=0.0)
        log = read()
        pids = {pid for _, pid, _, _ in log}
        assert len(pids) == 1 and os.getpid() not in pids
        assert [(lo, hi) for kind, _, lo, hi in log if kind == "sort"] == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert sum(kind == "sweep" for kind, _, _, _ in log) == 4 * len(serial.stage.stumps)
        with stump_tasks(3, task_rows=3):
            pooled = train_stage(values, labels, max_stumps=3, max_fpr=0.0)
        assert pooled.stage == serial.stage and np.array_equal(pooled.scores, serial.scores)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dead_worker_is_an_error_not_a_hang(self, workers):
        rng = np.random.default_rng(16)
        values = rng.normal(size=(12, 30))
        labels = np.where(values[1] > 0, 1, -1)

        def die(search, weights, rows):
            os._exit(3)

        with stump_tasks(workers, task_rows=4), mock.patch.object(boost._StumpSearch, "_best_rows", die):
            with pytest.raises(RuntimeError) as exc:
                train_stage(values, labels)
        assert str(exc.value) == "stump worker 0 exited with code 3 without replying"
        assert multiprocessing.active_children() == []


def make_tiles(rng, n, bright, base=12):
    """Separable toy data: bright top half vs low-intensity noise."""
    tiles = []
    for _ in range(n):
        img = rng.integers(0, 80, size=(base, base)).astype(np.uint8)
        if bright:
            img[: base // 2] = rng.integers(170, 250, size=(base // 2, base))
        tiles.append(img.astype(np.uint8))
    return tiles


def make_noisy_tiles(rng, n, bright, base=12):
    """Overlapping classes: a fifth of the negatives look like positives,
    so no stage can reject everything and later stages get survivors."""
    tiles = []
    for i in range(n):
        img = rng.integers(0, 200, size=(base, base))
        if bright or i % 5 == 0:
            img[: base // 2] = np.clip(rng.normal(165, 55, size=(base // 2, base)), 0, 255)
        tiles.append(img.astype(np.uint8))
    return tiles


class TestTrainCascade:
    def test_metadata_and_structure_on_separable_data(self):
        rng = np.random.default_rng(4)
        pos = make_tiles(rng, 40, bright=True)
        neg = make_tiles(rng, 80, bright=False)
        cascade = train_cascade(
            pos, neg, n_stages=15, base_window=12, feature_subsample=400, max_stumps=5, seed=1
        )
        assert len(cascade.metadata) == len(cascade.stages)
        assert len(cascade.stages) <= 15
        # separable data empties the negative pool quickly without a pool
        assert len(cascade.stages) < 15

    def test_cumulative_fpr_bound_without_pool(self):
        rng = np.random.default_rng(5)
        pos = make_tiles(rng, 50, bright=True)
        neg = make_tiles(rng, 120, bright=False)
        max_fpr = 0.6
        cascade = train_cascade(
            pos,
            neg,
            n_stages=3,
            base_window=12,
            feature_subsample=300,
            max_stumps=6,
            max_fpr=max_fpr,
            seed=2,
        )
        accepted = 0
        for tile in neg:
            ok, _ = classify_window(cascade, integral_set(tile), 0, 0, 12)
            accepted += ok
        k = len(cascade.stages)
        assert accepted / len(neg) <= max_fpr**k + 1e-9

    def test_compiles_the_feature_set_once(self):
        rng = np.random.default_rng(11)
        pos = make_tiles(rng, 30, bright=True)
        neg = make_tiles(rng, 60, bright=False)
        pool = [rng.integers(0, 200, size=(30, 36)).astype(np.uint8) for _ in range(4)]
        args = dict(n_stages=3, base_window=12, pool=pool, feature_subsample=200, max_stumps=3, seed=2)
        with mock.patch.object(boost, "compile_features", wraps=boost.compile_features) as compile_spy, \
                mock.patch.object(boost, "feature_value_matrix", wraps=boost.feature_value_matrix) as matrix_spy:
            cascade = train_cascade(pos, neg, **args)
        assert len(cascade.stages) == 3 and matrix_spy.call_count == 4
        assert compile_spy.call_count == 1
        # compiling on every call instead trains the same cascade
        original = boost.feature_value_matrix
        with mock.patch.object(boost, "feature_value_matrix", lambda f, s, program: original(f, s)):
            assert train_cascade(pos, neg, **args) == cascade

    def test_same_cascade_on_one_and_two_cpus(self):
        rng = np.random.default_rng(15)
        pos = make_noisy_tiles(rng, 40, bright=True)
        neg = make_noisy_tiles(rng, 80, bright=False)
        pool = [rng.integers(0, 200, size=(30, 36)).astype(np.uint8) for _ in range(4)]
        args = dict(n_stages=3, base_window=12, pool=pool, feature_subsample=300, max_stumps=4, seed=3)
        with stump_tasks(1):
            serial = train_cascade(pos, neg, **args)
        with stump_tasks(2, task_rows=7):
            pooled = train_cascade(pos, neg, **args)
        assert len(serial.stages) == 3
        assert pooled == serial

    def test_saved_file_same_at_one_two_and_four_workers(self, tmp_path):
        rng = np.random.default_rng(17)
        pos = make_noisy_tiles(rng, 40, bright=True)
        neg = make_noisy_tiles(rng, 80, bright=False)
        pool = [rng.integers(0, 200, size=(30, 36)).astype(np.uint8) for _ in range(4)]
        args = dict(n_stages=3, base_window=12, pool=pool, feature_subsample=300, max_stumps=4, seed=5)
        files = []
        for workers in (1, 2, 4):
            with stump_tasks(workers, task_rows=16):
                cascade = train_cascade(pos, neg, **args)
            save_cascade(cascade, tmp_path / f"{workers}.txt")
            files.append((tmp_path / f"{workers}.txt").read_bytes())
        assert len(cascade.stages) == 3
        assert files[0] == files[1] == files[2]

    def test_program_of_another_size_is_refused(self):
        features = enumerate_kind("edge2h", 12)[:5]
        samples = [np.zeros((12, 12), dtype=np.uint8)]
        with pytest.raises(ValueError, match="features compiled for 10 px samples, given 12 px ones"):
            feature_value_matrix(features, samples, program=boost._compile_matrix(features, 10))

    def test_rejects_empty_training_sets(self):
        with pytest.raises(ValueError):
            train_cascade([], [], base_window=12)

    def test_rejects_wrong_sample_size(self):
        rng = np.random.default_rng(6)
        pos = [rng.integers(0, 255, size=(12, 12)).astype(np.uint8)]
        neg = [rng.integers(0, 255, size=(10, 12)).astype(np.uint8)]
        with pytest.raises(ValueError):
            train_cascade(pos, neg, base_window=12, feature_subsample=100)


def eager_mine_oracle(cascade, pool, needed, scan_step=3):
    """Mining as first written: crop and resize up to ``needed`` windows of
    every pool image, then keep ``needed`` of them round-robin by rank."""
    base = cascade.base_window
    per_image = []
    for img in pool:
        if min(img.shape) < base:
            continue
        crops = []
        for det in detect_multiscale_counted(cascade, img, step=scan_step)[0]:
            crop = img[det.y : det.y + det.h, det.x : det.x + det.w]
            crops.append(crop if crop.shape == (base, base) else resize_bilinear(crop, base, base))
            if len(crops) >= needed:
                break
        per_image.append(crops)
    mined = []
    rank = 0
    while len(mined) < needed and any(rank < len(c) for c in per_image):
        for crops in per_image:
            if rank < len(crops):
                mined.append(crops[rank])
                if len(mined) >= needed:
                    break
        rank += 1
    return mined


class TestMining:
    @pytest.fixture(scope="class")
    def setup(self):
        rng = np.random.default_rng(20)
        pos = make_noisy_tiles(rng, 40, bright=True)
        neg = make_noisy_tiles(rng, 80, bright=False)
        cascade = train_cascade(
            pos, neg, n_stages=1, base_window=12, feature_subsample=250, max_stumps=2, seed=5
        )
        sizes = [(30, 40), (10, 40), (16, 16), (40, 24), (26, 33)]
        pool = [rng.integers(0, 200, size=s).astype(np.uint8) for s in sizes]
        pool[0][:12] = 220  # a bright band: many accepted windows in one image
        available = sum(len(detect_multiscale_counted(cascade, img, step=3)[0]) for img in pool)
        return cascade, pool, available

    @pytest.mark.parametrize("share", [0.05, 0.5, 2.0])
    def test_lazy_matches_eager(self, setup, share):
        cascade, pool, available = setup
        assert available > 20
        needed = max(1, int(share * available))
        got = _mine_false_positives(cascade, pool, needed)
        want = eager_mine_oracle(cascade, pool, needed)
        assert len(got) == len(want) == min(needed, available)
        assert all(g.shape == (12, 12) for g in got)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_empty_cascade_takes_every_window_round_robin(self, setup):
        _, pool, _ = setup
        empty = Cascade(12, [], [])
        got = _mine_false_positives(empty, pool, 37)
        want = eager_mine_oracle(empty, pool, 37)
        assert len(got) == 37
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_mines_only_when_another_stage_follows(self, monkeypatch):
        rng = np.random.default_rng(21)
        pos = make_noisy_tiles(rng, 40, bright=True)
        neg = make_noisy_tiles(rng, 80, bright=False)
        pool = [rng.integers(0, 200, size=(36, 36)).astype(np.uint8) for _ in range(6)]
        for img in pool[::2]:
            img[:18] = np.clip(rng.normal(165, 55, size=(18, 36)), 0, 255)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return _mine_false_positives(*args, **kwargs)

        monkeypatch.setattr(boost, "_mine_false_positives", counting)
        n_stages = 3
        cascade = train_cascade(
            pos, neg, n_stages=n_stages, base_window=12, feature_subsample=250,
            max_fpr=0.45, max_stumps=4, pool=pool, seed=3,
        )
        assert len(cascade.stages) == n_stages
        # every stage rejects negatives, so each one leaves a deficit to fill
        assert all(fpr < 1.0 for _, fpr in cascade.metadata)
        assert len(calls) == n_stages - 1


class TestClassifyWindow:
    def test_empty_cascade_accepts_with_zero_score(self):
        cascade = Cascade(12, [], [])
        iset = integral_set(np.zeros((12, 12), dtype=np.uint8))
        assert classify_window(cascade, iset, 0, 0, 12) == (True, 0.0)

    def test_unreachable_threshold_rejects_everything(self):
        rng = np.random.default_rng(7)
        pos = make_tiles(rng, 30, bright=True)
        neg = make_tiles(rng, 60, bright=False)
        cascade = train_cascade(pos, neg, n_stages=1, base_window=12, feature_subsample=200)
        stage = cascade.stages[0]
        blocked = Stage(stage.stumps, stage.total_alpha + 1.0)
        cascade = Cascade(12, [blocked], [(0.0, 0.0)])
        for tile in pos + neg:
            ok, margin = classify_window(cascade, integral_set(tile), 0, 0, 12)
            assert not ok and margin < 0

    def test_early_exit_matches_full_conjunction(self):
        rng = np.random.default_rng(8)
        pos = make_noisy_tiles(rng, 40, bright=True)
        neg = make_noisy_tiles(rng, 80, bright=False)
        cascade = train_cascade(
            pos, neg, n_stages=3, base_window=12, feature_subsample=250,
            max_fpr=0.45, max_stumps=2, seed=3,
        )
        assert len(cascade.stages) >= 2
        for tile in pos[:10] + neg[:20]:
            iset = integral_set(tile)
            accepted, _ = classify_window(cascade, iset, 0, 0, 12)
            # no-early-exit oracle: evaluate every stage independently
            all_pass = all(
                stage_score(stage, iset, 0, 0, 12) >= stage.threshold
                for stage in cascade.stages
            )
            assert accepted == all_pass


kind_placements = functools.cache(_placements)


class TestFeatureValueMatrix:
    @settings(max_examples=60, deadline=None)
    @given(
        base=st.integers(8, 24),
        picks=st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 2**31)), min_size=1, max_size=40),
        n_samples=st.integers(1, 12),
        variance_norm=st.booleans(),
        low_contrast=st.booleans(),
        rows=st.sampled_from([1, 3, boost.MATRIX_ROWS]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(base=8, picks=[(k, 0) for k in KINDS], n_samples=1, variance_norm=True, low_contrast=False, rows=1, seed=0)
    @example(
        base=24, picks=[(k, 7**i) for i, k in enumerate(KINDS)], n_samples=7, variance_norm=False,
        low_contrast=True, rows=3, seed=1,
    )
    def test_equals_per_feature_loop(self, base, picks, n_samples, variance_norm, low_contrast, rows, seed):
        features = []
        for kind, index in picks:
            bank = kind_placements(kind, base)
            x, y, w, h = bank[index % len(bank)].tolist()
            features.append(HaarFeature(kind, x, y, w, h, base))
        rng = np.random.default_rng(seed)
        # pixels of 0 and 1 only: the pixel sigma is floored at 1
        high = 2 if low_contrast else 256
        samples = [rng.integers(0, high, size=(base, base)).astype(np.uint8) for _ in range(n_samples)]
        with mock.patch.object(boost, "MATRIX_ROWS", rows):
            got = feature_value_matrix(features, samples, variance_norm)
        want = feature_matrix_oracle(features, samples, variance_norm)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_matches_scalar_eval(self):
        rng = np.random.default_rng(9)
        samples = [rng.integers(0, 256, size=(12, 12)).astype(np.uint8) for _ in range(7)]
        features = [
            enumerate_kind("edge2v", 12)[5],
            enumerate_kind("tilted_edge2", 12)[17],
            enumerate_kind("center_surround", 12)[3],
        ]
        matrix = feature_value_matrix(features, samples)
        for fi, feature in enumerate(features):
            for si, sample in enumerate(samples):
                expected = eval_feature(feature, integral_set(sample), 0, 0, 12)
                assert matrix[fi, si] == pytest.approx(expected, rel=1e-12)


class TestModelFormat:
    def _train_small(self, seed=10):
        rng = np.random.default_rng(seed)
        pos = make_tiles(rng, 25, bright=True)
        neg = make_tiles(rng, 50, bright=False)
        return train_cascade(
            pos, neg, n_stages=2, base_window=12, feature_subsample=300, max_stumps=4, seed=4
        )

    def test_round_trip_is_byte_identical(self, tmp_path):
        cascade = self._train_small()
        first = tmp_path / "model.txt"
        second = tmp_path / "again.txt"
        save_cascade(cascade, first)
        save_cascade(load_cascade(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_model_behaves_identically(self, tmp_path):
        cascade = self._train_small(seed=11)
        path = tmp_path / "model.txt"
        save_cascade(cascade, path)
        loaded = load_cascade(path)
        assert loaded.base_window == cascade.base_window
        rng = np.random.default_rng(12)
        for tile in make_tiles(rng, 10, bright=True) + make_tiles(rng, 10, bright=False):
            iset = integral_set(tile)
            got = classify_window(loaded, iset, 0, 0, 12)
            ref = classify_window(cascade, iset, 0, 0, 12)
            assert got[0] == ref[0]
            assert got[1] == pytest.approx(ref[1], rel=1e-8, abs=1e-8)

    def test_header_format(self, tmp_path):
        cascade = self._train_small(seed=13)
        path = tmp_path / "model.txt"
        save_cascade(cascade, path)
        lines = path.read_text().splitlines()
        assert lines[0] == f"CASCADE v1 12 {len(cascade.stages)}"
        assert lines[1].startswith("STAGE ")
        assert lines[2].startswith("STUMP ")

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("SVM v1 3\n")
        with pytest.raises(ValueError):
            load_cascade(path)

    MODEL = [
        "CASCADE v1 24 2",
        "STAGE 1 0.5",
        "STUMP edge2h 2 3 8 6 0.25 +1 0.75",
        "STAGE 2 1.0",
        "STUMP tilted_edge2 10 2 4 6 -1.5 -1 0.5",
        "STUMP center_surround 0 0 24 24 3 +1 0.5",
    ]

    def _write(self, tmp_path, lines):
        path = tmp_path / "model.txt"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_hand_written_model_loads(self, tmp_path):
        cascade = load_cascade(self._write(tmp_path, self.MODEL))
        assert [len(s.stumps) for s in cascade.stages] == [1, 2]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m[:-1], r"model\.txt: truncated after line 5, expected a STUMP line"),
            (lambda m: m[:3], r"model\.txt: truncated after line 3, expected a STAGE line"),
            (
                lambda m: m[:2] + ["STUMP edge9 2 3 8 6 0.25 +1 0.75"] + m[3:],
                r"model\.txt:3: unknown feature kind 'edge9'",
            ),
            (
                lambda m: m[:2] + ["STUMP edge2h 20 20 8 8 0.25 +1 0.75"] + m[3:],
                r"model\.txt:3: edge2h 20 20 8 8 does not fit the 24px window",
            ),
            (
                lambda m: m[:2] + ["STUMP line3h 0 0 4 3 0.25 +1 0.75"] + m[3:],
                r"model\.txt:3: line3h 0 0 4 3 does not fit",
            ),
            (lambda m: m + ["STAGE 0 0"], r"model\.txt:7: trailing line after the last stage"),
            (
                lambda m: m[:2] + ["STUMP edge2h 2 3 8 6 nan +1 0.75"] + m[3:],
                r"model\.txt:3: non-finite number 'nan'",
            ),
            (
                lambda m: m[:2] + ["STUMP edge2h 2 3 8 6 0.25 +2 0.75"] + m[3:],
                r"model\.txt:3: polarity must be \+1 or -1",
            ),
            (
                lambda m: m[:2] + ["STUMP edge2h 2 3 8 0.25 +1 0.75"] + m[3:],
                r"model\.txt:3: expected a STUMP line of 9 fields",
            ),
            (lambda m: ["CASCADE v1 24 x"] + m[1:], r"model\.txt:1: bad number 'x'"),
            (lambda m: m[:1] + ["STAGE -1 0.5"] + m[2:], r"model\.txt:2: negative stump count"),
        ],
        ids=[
            "truncated-stump", "truncated-stage", "unknown-kind", "outside-window",
            "indivisible-width", "trailing-line", "nan-threshold", "bad-polarity",
            "short-stump-line", "bad-header-number", "negative-count",
        ],
    )
    def test_invalid_model_names_file_and_line(self, tmp_path, edit, message):
        with pytest.raises(ValueError, match=message):
            load_cascade(self._write(tmp_path, edit(list(self.MODEL))))
