import contextlib
import functools
import math
import multiprocessing
import os
import tracemalloc
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facedet import boost, detect
from facedet.boost import (
    SWEEP_ROWS,
    TASK_ROWS,
    Cascade,
    Stage,
    _mine_false_positives,
    _StumpSearch,
    _stump_workers,
    feature_value_matrix,
    keep_threshold,
    load_cascade,
    save_cascade,
    train_cascade,
    train_stage,
)
from facedet.detect import LiveWindows, detect_multiscale_counted
from facedet.haar import KINDS, HaarFeature, _placements, enumerate_kind, generate_feature_set
from facedet.images import resize_bilinear
from facedet.integral import integral_set
from oracles import (
    WholeMatrixStumpSearch,
    classify_window,
    eval_feature,
    feature_matrix_oracle,
    mine_oracle,
    stage_score,
    train_cascade_oracle,
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
    """Run the stump search as if the process may use ``workers`` CPUs,
    sorting in chunks of ``task_rows`` rows."""
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
    """Log every sort chunk and sweep block as (kind, pid, first row, row
    stop), in whichever process runs it, to ``path``; yields a function
    that reads the log back."""
    sort = boost._StumpSearch._sort_rows
    sweep = boost._StumpSearch._best_rows

    def record(kind, rows):
        with open(path, "a") as fh:
            fh.write(f"{kind} {os.getpid()} {rows.start} {rows.stop}\n")

    def sort_spy(search, rows):
        record("sort", rows)
        return sort(search, rows)

    def sweep_spy(search, weights, rows):
        record("sweep", rows)
        return sweep(search, weights, rows)

    def read():
        with open(path) as fh:
            return [(kind, int(pid), int(lo), int(hi)) for kind, pid, lo, hi in map(str.split, fh)]

    with mock.patch.object(boost._StumpSearch, "_sort_rows", sort_spy), \
            mock.patch.object(boost._StumpSearch, "_best_rows", sweep_spy):
        yield read


# one distinct bank feature per row of a test matrix, so a stump names its row
ROW_FEATURES = generate_feature_set(8)


def unit_stage(values, labels, **kwargs):
    """train_stage on a float64 test matrix of responses: unit sigma, which
    divides to the same bits, and one bank feature per row."""
    values = np.asarray(values)
    kwargs.setdefault("sigma", np.ones(values.shape[-1]))
    kwargs.setdefault("features", ROW_FEATURES[: len(values)])
    return train_stage(values, labels, **kwargs)


def rates_of(stage):
    return stage.detection_rate, stage.false_positive_rate


def assert_same_training(got, want):
    """Equal cascades whose stages also report the same training rates,
    which stage equality leaves out."""
    assert got == want
    assert [rates_of(s) for s in got.stages] == [rates_of(s) for s in want.stages]


def numerator_matrix(rng, n_features, n_samples, levels, exact, equal_rows):
    """int32 numerators and one sigma per sample whose quotients have few
    distinct values, tied across samples; the first ``equal_rows`` rows
    hold one value. With ``exact``, integer sigmas make different
    numerators of equal quotients, ties only on the quotient."""
    quotients = rng.integers(-(levels // 2), levels - levels // 2, size=(n_features, n_samples))
    quotients[:equal_rows] = quotients[:equal_rows, :1]
    if exact:
        sigma = rng.choice([1.0, 2.0, 3.0, 5.0], size=n_samples)
        numerators = quotients * sigma.astype(np.int64)
    else:
        sigma = 1.0 + 5.0 * rng.random(n_samples)
        numerators = quotients * 7 + rng.integers(-2, 3, size=quotients.shape)
        numerators[:equal_rows] = 0
    return numerators.astype(np.int32), sigma


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
            search = _StumpSearch(values, labels, np.ones(n_samples))
            with _stump_workers(values, labels, np.ones(n_samples)) as best:
                got = best(weights)
        assert np.array_equal(search.order, want.order)
        assert np.array_equal(search.tied, want.invalid[:, 1:n_samples])
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
            search = _StumpSearch(values, labels, np.ones(n_samples))
        stable = np.argsort(values, axis=1, kind="stable")
        assert np.array_equal(search.order, stable)
        # the thresholds come from the stable gather, signed zeros included
        want = WholeMatrixStumpSearch(values, labels).thresholds
        for j in np.unique(np.r_[0, 1, n_samples - 1, n_samples, rng.integers(0, n_samples + 1, 20)]):
            got = search._thresholds(slice(0, n_features), search.order, np.full(n_features, j))
            assert np.array_equal(got.view(np.int64), want[:, j].view(np.int64))
        # the workers' joined sweep equals the in-process one
        weights = rng.random(n_samples)
        with stump_tasks(workers, task_rows), _stump_workers(values, labels, np.ones(n_samples)) as best:
            got = best(weights)
        assert all(np.array_equal(g, w) for g, w in zip(got, search.best(weights)))

    def test_nan_values_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            train_stump(np.array([0.0, np.nan, 1.0]), np.array([1, -1, 1]), np.ones(3))


class TestNumeratorSearch:
    """The search over integer numerators and one sigma per sample equals
    the whole-matrix oracle over their float64 quotients, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        n_features=st.integers(1, 3 * SWEEP_ROWS + 5),
        n_samples=st.integers(1, 40),
        levels=st.integers(1, 6),
        exact=st.booleans(),
        equal_rows=st.integers(0, 3),
        workers=st.sampled_from([1, 2, 3]),
        task_rows=st.sampled_from([1, 3, TASK_ROWS]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_features=4, n_samples=1, levels=3, exact=False, equal_rows=0, workers=2, task_rows=TASK_ROWS, seed=0)
    @example(n_features=SWEEP_ROWS + 3, n_samples=30, levels=4, exact=True, equal_rows=3, workers=3, task_rows=3, seed=1)
    def test_equals_the_whole_matrix_oracle_on_quotients(
        self, n_features, n_samples, levels, exact, equal_rows, workers, task_rows, seed
    ):
        rng = np.random.default_rng(seed)
        numerators, sigma = numerator_matrix(rng, n_features, n_samples, levels, exact, equal_rows)
        values = numerators / sigma
        labels = rng.choice([-1, 1], size=n_samples)
        weights = rng.choice([1.0, 3.0, 0.1, 1 / 3], size=n_samples) * 2.0 ** -rng.integers(0, 30, size=n_samples)
        weights /= weights.sum()
        want = WholeMatrixStumpSearch(values, labels)
        with stump_tasks(workers, task_rows):
            search = _StumpSearch(numerators, labels, sigma)
            with _stump_workers(numerators, labels, sigma) as best:
                got = best(weights)
        assert np.array_equal(search.order, want.order)
        assert np.array_equal(search.tied, want.invalid[:, 1:n_samples])
        for g, s, w in zip(got, search.best(weights), want.best(weights)):
            assert np.array_equal(g.view(np.int64), w.view(np.int64)) and np.array_equal(s.view(np.int64), w.view(np.int64))
        # every candidate threshold, the sentinels at j = 0 and j = N among them
        rows = slice(0, n_features)
        for j in range(n_samples + 1):
            got_j = search._thresholds(rows, search.order, np.full(n_features, j))
            assert np.array_equal(got_j.view(np.int64), want.thresholds[:, j].view(np.int64))
        # a row of one value has only the two sentinels: it picks j = 0
        _, thr, _ = search.best(weights)
        assert np.array_equal(thr[:equal_rows], values[:equal_rows, 0] - 1.0)
        # the cache: the arrays of a row per feature that the search made itself
        cache = [v for v in vars(search).values() if isinstance(v, np.ndarray) and v.ndim == 2 and v is not numerators]
        assert search.order.dtype == np.int32 and sum(v.nbytes for v in cache) <= 5 * n_features * n_samples


class TestTrainStage:
    def test_alpha_formula(self):
        eps = 0.1
        assert 0.5 * math.log((1 - eps) / eps) == pytest.approx(1.0986, abs=1e-4)

    def test_perfectly_separable_single_stump(self):
        values = np.array([[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]])
        labels = np.array([1, 1, 1, -1, -1, -1])
        result = unit_stage(values, labels, target_dr=0.99, max_fpr=0.5, max_stumps=5)
        assert len(result.stage.stumps) == 1
        assert result.stage.detection_rate == 1.0
        assert result.stage.false_positive_rate == 0.0

    def test_round_identities_on_random_data(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(40, 200))
        labels = np.where(rng.uniform(size=200) + 0.1 * values[0] > 0.5, 1, -1)
        if abs(labels.sum()) == 200:
            labels[0] = -labels[0]
        log = []
        result = unit_stage(values, labels, target_dr=0.95, max_fpr=0.0, max_stumps=12, round_log=log)
        assert len(log) >= 3
        # the stage carries the rates of its last round
        assert rates_of(result.stage) == (log[-1]["detection_rate"], log[-1]["false_positive_rate"])
        for entry in log:
            assert entry["weight_sum"] == pytest.approx(1.0, abs=1e-12)
            assert entry["post_error"] == pytest.approx(0.5, abs=1e-9)
            assert entry["detection_rate"] >= 0.95

    def test_fails_without_informative_stump(self):
        values = np.zeros((3, 10))
        labels = np.array([1, -1] * 5)
        with pytest.raises(ValueError):
            unit_stage(values, labels)

    def test_stage_threshold_never_exceeds_half_total_alpha(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(30, 120))
        labels = np.where(values[3] + 0.5 * rng.normal(size=120) > 0, 1, -1)
        if len(set(labels)) < 2:
            labels[0] = -labels[0]
        result = unit_stage(values, labels, target_dr=0.9, max_fpr=0.2, max_stumps=8)
        assert result.stage.threshold <= result.stage.total_alpha / 2 + 1e-12

    @pytest.mark.parametrize(
        "values, labels, given, message",
        [
            (np.zeros((3, 4)), np.array([1, -1, 1]), {}, "expected a 1-D label vector of 4 samples, got shape (3,)"),
            (np.zeros((3, 4)), np.array([[1, -1, 1, -1]]), {}, "expected a 1-D label vector of 4 samples, got shape (1, 4)"),
            (np.zeros((0, 4)), np.array([1, -1, 1, -1]), {}, "at least one feature row, got shape (0, 4)"),
            (np.zeros(4), np.array([1, -1, 1, -1]), {}, "expected an (F, N) value matrix"),
            (np.zeros((3, 4)), np.array([1, -1, 1, -1]), {"sigma": np.ones(5)}, "expected a 1-D sigma vector of 4 samples, got shape (5,)"),
            (np.zeros((3, 4)), np.array([1, -1, 1, -1]), {"features": ROW_FEATURES[:2]}, "expected 3 features, one per value row, got 2"),
        ],
        ids=["short-labels", "2d-labels", "no-features", "1d-values", "long-sigma", "short-features"],
    )
    def test_bad_input_rejected_before_any_task(self, values, labels, given, message):
        with stump_tasks(2), fork_process_spy() as spy:
            with pytest.raises(ValueError) as exc:
                unit_stage(values, labels, **given)
        assert message in str(exc.value) and "\n" not in str(exc.value)
        assert spy.call_count == 0

    @settings(max_examples=40, deadline=None)
    @given(
        n_features=st.integers(1, 2 * SWEEP_ROWS + 3),
        n_samples=st.integers(2, 40),
        levels=st.integers(1, 6),
        exact=st.booleans(),
        equal_rows=st.integers(0, 3),
        workers=st.tuples(st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 3])),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_features=5, n_samples=30, levels=3, exact=True, equal_rows=2, workers=(1, 3), seed=0)
    @example(n_features=3, n_samples=12, levels=1, exact=False, equal_rows=0, workers=(2, 1), seed=1)  # no stump beats chance
    def test_numerators_over_sigma_train_the_stage_of_their_quotients(
        self, n_features, n_samples, levels, exact, equal_rows, workers, seed
    ):
        rng = np.random.default_rng(seed)
        numerators, sigma = numerator_matrix(rng, n_features, n_samples, levels, exact, equal_rows)
        labels = rng.choice([-1, 1], size=n_samples)
        labels[:2] = [1, -1]
        features = ROW_FEATURES[:n_features]

        def bits(train):
            """Every stump's feature, polarity, threshold and alpha, the
            stage threshold, the rates and the scores, floats as bytes; or
            the error message."""
            try:
                result = train()
            except ValueError as exc:
                return str(exc)
            stumps = [(wc.feature, wc.polarity, np.float64(wc.threshold).tobytes(), np.float64(alpha).tobytes())
                      for wc, alpha in result.stage.stumps]
            rates = rates_of(result.stage)
            return stumps, np.float64(result.stage.threshold).tobytes(), rates, result.scores.tobytes()

        args = dict(features=features, target_dr=0.9, max_fpr=0.0, max_stumps=4)
        with stump_tasks(workers[0]):
            got = bits(lambda: train_stage(numerators, labels, sigma=sigma, **args))
        with stump_tasks(workers[1]):
            want = bits(lambda: train_stage(numerators / sigma, labels, sigma=np.ones(n_samples), **args))
        assert got == want


class TestKeepThreshold:
    @given(
        st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(allow_nan=False)), min_size=1, max_size=60),
        st.floats(0.0, 1.0, exclude_min=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_sort_and_index_oracle(self, values, keep):
        n = len(values)
        k = next(j for j in range(1, n + 1) if j >= (1.0 - keep) * n)  # max(1, ceil((1 - keep) * n))
        t = keep_threshold(values, keep)
        assert t == sorted(values)[k - 1]
        assert sum(v < t for v in values) < k <= sum(v <= t for v in values)

    def test_empty_values_is_a_one_line_error(self):
        with pytest.raises(ValueError, match="^no values to pick a threshold from$"):
            keep_threshold([], 0.99)


class TestStumpTasks:
    """The stump search runs in forked children, one per allowed CPU and at
    most one per row, each owning an equal share of the rows for the stage."""

    def test_nan_in_a_later_task_rejected_and_children_joined(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=(20, 30))
        values[17, 4] = np.nan  # in the third child's rows, 13-19
        labels = np.where(np.arange(30) % 2 == 0, 1, -1)
        with stump_tasks(3, task_rows=3), fork_process_spy() as spy, pytest.raises(ValueError, match="NaN"):
            unit_stage(values, labels)
        assert spy.call_count == 3
        assert multiprocessing.active_children() == []

    def test_tasks_run_in_one_set_of_children_per_stage(self, tmp_path):
        rng = np.random.default_rng(13)
        values = rng.normal(size=(40, 60))
        labels = np.where(values[5] + 0.3 * rng.normal(size=60) > 0, 1, -1)
        with stump_tasks(2, task_rows=4), task_log(tmp_path / "tasks") as read, fork_process_spy() as spy:
            result = unit_stage(values, labels, max_stumps=4, max_fpr=0.0)
        assert len(result.stage.stumps) == 4
        assert spy.call_count == 2  # one set of children for the stage, not one per round
        log = read()
        pids = {pid for _, pid, _, _ in log}
        assert len(pids) == 2 and os.getpid() not in pids
        # each child owns 20 rows, sorted in chunks of four, in its own row numbers
        for pid in pids:
            sorts = [(lo, hi) for kind, p, lo, hi in log if kind == "sort" and p == pid]
            assert sorts == [(lo, lo + 4) for lo in range(0, 20, 4)]
        assert multiprocessing.active_children() == []

    def test_one_cpu_runs_every_task_in_one_child(self, tmp_path):
        rng = np.random.default_rng(14)
        values = rng.normal(size=(10, 40))
        labels = np.where(values[2] > 0, 1, -1)
        with stump_tasks(1, task_rows=3), task_log(tmp_path / "tasks") as read:
            serial = unit_stage(values, labels, max_stumps=3, max_fpr=0.0)
        log = read()
        pids = {pid for _, pid, _, _ in log}
        assert len(pids) == 1 and os.getpid() not in pids
        assert [(lo, hi) for kind, _, lo, hi in log if kind == "sort"] == [(0, 3), (3, 6), (6, 9), (9, 10)]
        # the sweep goes in blocks of SWEEP_ROWS rows, whatever the sort chunks: one block a round
        assert [(lo, hi) for kind, _, lo, hi in log if kind == "sweep"] == [(0, 10)] * len(serial.stage.stumps)
        with stump_tasks(3, task_rows=3):
            pooled = unit_stage(values, labels, max_stumps=3, max_fpr=0.0)
        assert pooled.stage == serial.stage and np.array_equal(pooled.scores, serial.scores)

    @pytest.mark.parametrize("workers, rows, owned", [(3, 10, [3, 3, 4]), (4, 2, [1, 1]), (2, 7, [3, 4])])
    def test_children_own_equal_shares_of_the_rows(self, tmp_path, workers, rows, owned):
        rng = np.random.default_rng(15)
        values = rng.normal(size=(rows, 30))
        labels = np.where(values[0] > 0, 1, -1)
        with stump_tasks(workers), task_log(tmp_path / "tasks") as read, fork_process_spy() as spy:
            unit_stage(values, labels, max_stumps=1)
        assert spy.call_count == len(owned)
        sorts = sorted((pid, lo, hi) for kind, pid, lo, hi in read() if kind == "sort")
        assert sorted(hi for _, _, hi in sorts) == owned and all(lo == 0 for _, lo, _ in sorts)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dead_worker_is_an_error_not_a_hang(self, workers):
        rng = np.random.default_rng(16)
        values = rng.normal(size=(12, 30))
        labels = np.where(values[1] > 0, 1, -1)

        def die(search, weights, rows):
            os._exit(3)

        with stump_tasks(workers, task_rows=4), mock.patch.object(boost._StumpSearch, "_best_rows", die):
            with pytest.raises(RuntimeError) as exc:
                unit_stage(values, labels)
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


def make_diagonal_tiles(rng, n, bright, base=8):
    """Noise, and in positives (and every fifth negative) a bright
    anti-diagonal band between two dark ones: tilted features respond."""
    distance = np.abs(np.add.outer(np.arange(base), np.arange(base)) - (base - 1))
    tiles = []
    for i in range(n):
        img = rng.integers(0, 200, size=(base, base))
        if bright or i % 5 == 0:
            img[distance <= 1] = 250
            img[distance == 2] = 0
        tiles.append(img.astype(np.uint8))
    return tiles


def random_pool(rng, sizes, bright_rows=0):
    """Noise images of ``sizes``; the top ``bright_rows`` rows of every
    other one look like the positives' bright half."""
    pool = [rng.integers(0, 200, size=size).astype(np.uint8) for size in sizes]
    for img in pool[::2]:
        img[:bright_rows] = np.clip(rng.normal(165, 55, size=img[:bright_rows].shape), 0, 255)
    return pool


def spied_training(pos, neg, **args):
    """train_cascade, the shape of every stage's value matrix, and the crop
    count of every mining."""
    shapes, mined = [], []

    def stage(values, labels, **kwargs):
        shapes.append(values.shape)
        return train_stage(values, labels, **kwargs)

    def mine(*mine_args):
        crops = _mine_false_positives(*mine_args)
        mined.append(len(crops))
        return crops

    with mock.patch.object(boost, "train_stage", stage), mock.patch.object(boost, "_mine_false_positives", mine):
        cascade = train_cascade(pos, neg, **args)
    return cascade, shapes, mined


def traced_training_peak(pos, neg, **args):
    """train_cascade and its traced peak, plus the bytes of its mapped
    matrices: tracemalloc sees only allocator memory, not a mapping. The
    training's first import of scipy.sparse, once per process, is loaded
    before the trace starts, so the peak is the same in any test order."""
    import scipy.sparse  # noqa: F401

    mapped, original = [], boost._mapped_empty

    def mapped_empty(shape, dtype):
        out = original(shape, dtype)
        mapped.append(out.nbytes)
        return out

    tracemalloc.start()
    try:
        with mock.patch.object(boost, "_mapped_empty", mapped_empty):
            cascade = train_cascade(pos, neg, **args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(mapped) == 1
    return cascade, peak + mapped[0]


# name -> (tiles, base, feature_subsample, pool sizes or None, seed) of the
# trainings checked against the per-stage matrix oracle
ORACLE_TRAININGS = {
    "no pool": (make_noisy_tiles, 12, 300, None, 1),
    "pool": (make_noisy_tiles, 12, 300, [(30, 36), (10, 40), (36, 30), (24, 24)], 2),
    # one image of 4 windows at step 3, one smaller than the window: the
    # pool cannot refill, so later stages train on a column slice
    "pool too small": (make_noisy_tiles, 12, 300, [(15, 15), (11, 30)], 3),
    # the first stage rejects every negative: training stops
    "all rejected": (make_tiles, 12, 300, None, 4),
    # ... or continues on the pool's windows alone
    "all rejected, refilled": (make_tiles, 12, 300, [(30, 36), (36, 30)], 4),
    "whole bank": (make_noisy_tiles, 8, 0, [(20, 24), (24, 20)], 5),
    "tilted stumps": (make_diagonal_tiles, 8, 400, [(20, 24), (24, 20), (7, 30)], 15),
}


class TestOneValueMatrix:
    @pytest.mark.parametrize("name", ORACLE_TRAININGS)
    def test_equals_the_per_stage_matrix_oracle(self, name):
        tiles, base, subsample, sizes, seed = ORACLE_TRAININGS[name]
        rng = np.random.default_rng(40 + seed)
        pos = tiles(rng, 30, bright=True, base=base)
        neg = tiles(rng, 60, bright=False, base=base)
        pool = None if sizes is None else random_pool(rng, sizes, bright_rows=base // 2)
        args = dict(n_stages=3, base_window=base, pool=pool, feature_subsample=subsample, max_stumps=4, seed=seed)
        cascade, shapes, mined = spied_training(pos, neg, **args)
        assert_same_training(cascade, train_cascade_oracle(pos, neg, **args))
        columns = [n for _, n in shapes]
        # each training reaches the case it is named for
        rejected_all = [stage.false_positive_rate == 0.0 for stage in cascade.stages]
        reached = {
            "no pool": lambda: len(cascade.stages) == 3 and not mined,
            "pool": lambda: len(mined) == 2 and min(mined) > 0,
            "pool too small": lambda: len(cascade.stages) == 3 and min(columns[1:]) < columns[0],
            "all rejected": lambda: rejected_all[0] and len(cascade.stages) == 1,
            "all rejected, refilled": lambda: rejected_all[0] and len(cascade.stages) > 1,
            "whole bank": lambda: shapes[0][0] == 2196,
            "tilted stumps": lambda: any(wc.feature.tilted for stage in cascade.stages for wc, _ in stage.stumps),
        }
        assert reached[name]()

    @given(
        tiles=st.sampled_from([make_tiles, make_noisy_tiles, make_diagonal_tiles]),
        base=st.sampled_from([8, 10]),
        subsample=st.sampled_from([0, 150, 400]),
        sizes=st.sampled_from([None, [(9, 30)], [(14, 14), (7, 20)], [(24, 30), (30, 24), (20, 20)]]),
        n_stages=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_equals_the_oracle_on_random_trainings(self, tiles, base, subsample, sizes, n_stages, seed):
        rng = np.random.default_rng(seed)
        pos = tiles(rng, 20, bright=True, base=base)
        neg = tiles(rng, 40, bright=False, base=base)
        pool = None if sizes is None else random_pool(rng, sizes, bright_rows=base // 2)
        args = dict(
            n_stages=n_stages, base_window=base, pool=pool, feature_subsample=subsample, max_stumps=3, seed=seed
        )
        assert_same_training(train_cascade(pos, neg, **args), train_cascade_oracle(pos, neg, **args))

    def test_each_sample_column_is_computed_once(self):
        rng = np.random.default_rng(30)
        pos = make_noisy_tiles(rng, 40, bright=True)
        neg = make_noisy_tiles(rng, 80, bright=False)
        pool = random_pool(rng, [(36, 36)] * 6, bright_rows=18)
        args = dict(n_stages=4, base_window=12, pool=pool, feature_subsample=250, max_fpr=0.45, max_stumps=4, seed=6)
        with mock.patch.object(boost, "feature_value_matrix", wraps=boost.feature_value_matrix) as matrix:
            cascade, _, mined = spied_training(pos, neg, **args)
        assert len(cascade.stages) == 4 and len(mined) == 3 and min(mined) > 0
        samples = sum(len(call.args[1]) for call in matrix.call_args_list)
        assert samples == len(pos) + len(neg) + sum(mined)

    def test_traced_peak_stays_below_three_matrices(self):
        # few positives and a pool that refills every stage: building each
        # stage's matrix anew (train_cascade_oracle) peaks at 3.3 matrices
        # here, one matrix at 1.6
        rng = np.random.default_rng(32)
        pos = make_noisy_tiles(rng, 100, bright=True)
        neg = make_noisy_tiles(rng, 1831, bright=False)
        pool = random_pool(rng, [(80, 80)] * 8, bright_rows=40)
        features = 1000
        matrix_bytes = features * (len(pos) + len(neg)) * 8
        cascade, peak = traced_training_peak(
            pos, neg, n_stages=3, base_window=12, pool=pool, feature_subsample=features, max_stumps=3, seed=8
        )
        assert len(cascade.stages) == 3
        assert peak < 3 * matrix_bytes, f"traced peak {peak / matrix_bytes:.2f} value matrices"

    def test_traced_peak_stays_below_two_and_a_half_int32_matrices(self):
        # the training above holds int32 numerators and one sigma per
        # sample: it peaks at 1.7 int32 matrices, and a float64 copy of the
        # matrix anywhere in this process adds 2 more
        rng = np.random.default_rng(32)
        pos = make_noisy_tiles(rng, 100, bright=True)
        neg = make_noisy_tiles(rng, 1831, bright=False)
        pool = random_pool(rng, [(80, 80)] * 8, bright_rows=40)
        features = 1000
        int32_bytes = features * (len(pos) + len(neg)) * 4
        cascade, peak = traced_training_peak(
            pos, neg, n_stages=3, base_window=12, pool=pool, feature_subsample=features, max_stumps=3, seed=8
        )
        assert len(cascade.stages) == 3
        assert peak < 2.5 * int32_bytes, f"traced peak {peak / int32_bytes:.2f} int32 matrices"

    def test_matrix_is_unmapped_when_the_training_returns(self):
        # its own mapping: a second training cannot find its pages still
        # resident, or not, depending on what the allocator did in between
        rng = np.random.default_rng(33)
        pos = make_noisy_tiles(rng, 30, bright=True)
        neg = make_noisy_tiles(rng, 60, bright=False)
        pool = random_pool(rng, [(30, 36), (36, 30)], bright_rows=6)
        args = dict(n_stages=2, base_window=12, pool=pool, feature_subsample=300, max_stumps=3, seed=10)
        mappings, original = [], boost._mapped_empty

        def mapped_empty(shape, dtype):
            out = original(shape, dtype)
            base = out
            while isinstance(base, np.ndarray):
                base = base.base
            mappings.append(weakref.ref(base))
            return out

        with mock.patch.object(boost, "_mapped_empty", mapped_empty):
            cascade = train_cascade(pos, neg, **args)
        assert_same_training(cascade, train_cascade_oracle(pos, neg, **args))
        assert len(mappings) == 1 and mappings[0]() is None

    @pytest.mark.parametrize("shape, dtype", [((3, 5), np.int32), ((2, 0), np.float64), ((0, 4), np.int64)])
    def test_mapped_empty_is_a_writable_array_of_the_shape(self, shape, dtype):
        out = boost._mapped_empty(shape, dtype)
        assert out.shape == shape and out.dtype == dtype and out.flags.writeable and out.flags.c_contiguous
        out[...] = np.arange(out.size).reshape(shape)
        np.testing.assert_array_equal(out, np.arange(out.size, dtype=dtype).reshape(shape))

    @pytest.mark.parametrize(
        "tiles, pool, matrix",
        [(np.uint8, np.uint8, np.int32), (np.uint16, None, np.int64), (np.uint8, np.uint16, np.int64)],
        ids=["8-bit", "16-bit tiles", "16-bit pool"],
    )
    def test_numerators_are_int32_only_for_8_bit_pixels(self, tiles, pool, matrix):
        rng = np.random.default_rng(34)
        scale = np.array(257 if tiles == np.uint16 else 1, dtype=tiles)  # 255 -> 65535
        pos = [t * scale for t in make_noisy_tiles(rng, 20, bright=True)]
        neg = [t * scale for t in make_noisy_tiles(rng, 40, bright=False)]
        pool = None if pool is None else [img.astype(pool) for img in random_pool(rng, [(30, 36), (36, 30)], 6)]
        args = dict(n_stages=2, base_window=12, pool=pool, feature_subsample=300, max_stumps=3, seed=9)
        dtypes = []

        def stage(values, labels, **kwargs):
            dtypes.append(values.dtype)
            return train_stage(values, labels, **kwargs)

        with mock.patch.object(boost, "train_stage", stage):
            cascade = train_cascade(pos, neg, **args)
        assert dtypes == [np.dtype(matrix)] * len(cascade.stages) and len(cascade.stages) == 2
        assert_same_training(cascade, train_cascade_oracle(pos, neg, **args))


class TestTrainCascade:
    def test_metadata_and_structure_on_separable_data(self):
        rng = np.random.default_rng(4)
        pos = make_tiles(rng, 40, bright=True)
        neg = make_tiles(rng, 80, bright=False)
        cascade = train_cascade(
            pos, neg, n_stages=15, base_window=12, feature_subsample=400, max_stumps=5, seed=1
        )
        assert all(stage.detection_rate >= 0.99 and 0.0 <= stage.false_positive_rate <= 0.5 for stage in cascade.stages)
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
        # one call fills the positives' and negatives' columns, one per mining
        assert len(cascade.stages) == 3 and matrix_spy.call_count == 3
        assert compile_spy.call_count == 1
        # compiling on every call instead trains the same cascade
        original = boost.feature_value_matrix
        with mock.patch.object(
            boost, "feature_value_matrix", lambda f, s, program, out=None, sigma=None: original(f, s, out=out, sigma=sigma)
        ):
            assert_same_training(train_cascade(pos, neg, **args), cascade)

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
        assert_same_training(pooled, serial)

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

    @pytest.mark.parametrize("share", [0.05, 0.5])
    def test_builds_at_most_needed_rows(self, setup, share):
        cascade, pool, available = setup
        needed = max(1, int(share * available))
        with mock.patch.object(detect, "Detection", wraps=detect.Detection) as rows:
            assert len(_mine_false_positives(cascade, pool, needed)) == needed
        # the picks are rows of the scans' box arrays, not Detection rows
        assert rows.call_count == 0

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
        empty = Cascade(12, [])
        got = _mine_false_positives(empty, pool, 37)
        want = eager_mine_oracle(empty, pool, 37)
        assert len(got) == 37
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("share", [0.05, 0.5, 2.0])
    def test_records_carried_from_stage_to_stage_match_the_oracle(self, share):
        rng = np.random.default_rng(22)
        pos = make_noisy_tiles(rng, 40, bright=True)
        neg = make_noisy_tiles(rng, 80, bright=False)
        cascade = train_cascade(pos, neg, n_stages=3, base_window=12, feature_subsample=250, max_stumps=3, seed=5)
        assert len(cascade.stages) == 3
        # two images smaller than the window, one with a bright band
        pool = random_pool(rng, [(30, 40), (10, 40), (16, 16), (40, 24), (26, 33), (11, 11)], bright_rows=12)
        live = [LiveWindows() for _ in pool]
        for k in range(1, 4):
            current = Cascade(12, cascade.stages[:k])
            available = sum(len(detect_multiscale_counted(current, img, step=3)[0]) for img in pool)
            needed = max(1, int(share * available))
            got = _mine_false_positives(current, pool, needed, live)
            want = mine_oracle(current, pool, needed)
            assert available > 0 and len(got) == len(want) == min(needed, available)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert all(record.stages == cascade.stages[:k] for img, record in zip(pool, live) if min(img.shape) >= 12)

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
        assert all(stage.false_positive_rate < 1.0 for stage in cascade.stages)
        assert len(calls) == n_stages - 1


class TestClassifyWindow:
    def test_empty_cascade_accepts_with_zero_score(self):
        cascade = Cascade(12, [])
        iset = integral_set(np.zeros((12, 12), dtype=np.uint8))
        assert classify_window(cascade, iset, 0, 0, 12) == (True, 0.0)

    def test_unreachable_threshold_rejects_everything(self):
        rng = np.random.default_rng(7)
        pos = make_tiles(rng, 30, bright=True)
        neg = make_tiles(rng, 60, bright=False)
        cascade = train_cascade(pos, neg, n_stages=1, base_window=12, feature_subsample=200)
        stage = cascade.stages[0]
        blocked = Stage(stage.stumps, stage.total_alpha + 1.0)
        cascade = Cascade(12, [blocked])
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
        low_contrast=st.booleans(),
        rows=st.sampled_from([1, 3, boost.MATRIX_ROWS]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(base=8, picks=[(k, 0) for k in KINDS], n_samples=1, low_contrast=False, rows=1, seed=0)
    @example(base=24, picks=[(k, 7**i) for i, k in enumerate(KINDS)], n_samples=7, low_contrast=True, rows=3, seed=1)
    def test_equals_per_feature_loop(self, base, picks, n_samples, low_contrast, rows, seed):
        features = []
        for kind, index in picks:
            bank = kind_placements(kind, base)
            x, y, w, h = bank[index % len(bank)].tolist()
            features.append(HaarFeature(kind, x, y, w, h, base))
        rng = np.random.default_rng(seed)
        # pixels of 0 and 1 only: the pixel sigma is floored at 1, so the
        # normalised responses are the raw integer ones
        high = 2 if low_contrast else 256
        samples = [rng.integers(0, high, size=(base, base)).astype(np.uint8) for _ in range(n_samples)]
        # allocated, and into a column slice of a wider matrix and a slice
        # of a wider sigma vector
        wide = np.full((len(features), n_samples + 2), -7, dtype=np.int32)
        sigmas = np.full(n_samples + 2, np.nan)
        with mock.patch.object(boost, "MATRIX_ROWS", rows):
            numerators, sigma = feature_value_matrix(features, samples)
            into = feature_value_matrix(features, samples, out=wide[:, 1:-1], sigma=sigmas[1:-1])
        want = feature_matrix_oracle(features, samples)
        assert numerators.dtype == np.int32 and numerators.shape == want.shape and sigma.shape == (n_samples,)
        assert np.array_equal((numerators / sigma).view(np.int64), want.view(np.int64))
        assert np.shares_memory(into[0], wide) and np.shares_memory(into[1], sigmas)
        assert np.array_equal(into[0], numerators) and np.array_equal(into[1], sigma)
        assert (wide[:, [0, -1]] == -7).all() and np.isnan(sigmas[[0, -1]]).all()
        if low_contrast:
            assert np.array_equal(numerators, feature_matrix_oracle(features, samples, False))
            assert (sigma == 1.0).all()

    @pytest.mark.parametrize(
        "out, sigma, message",
        [
            (np.empty((3, 7), np.int32), np.empty(6), r"sigma must be a float64 array of shape \(7,\), got float64 \(6,\)"),
            (np.empty((3, 7), np.int32), np.empty(7, np.float32), r"sigma must be a float64 array of shape \(7,\), got float32 \(7,\)"),
            (np.empty((3, 7), np.int32), [1.0] * 7, r"sigma must be a float64 array of shape \(7,\), got list"),
            (None, np.empty((1, 7)), r"sigma must be a float64 array of shape \(7,\), got float64 \(1, 7\)"),
            (np.empty((3, 6), np.int32), np.empty(7), r"out must be an int32 or int64 array of shape \(3, 7\), got int32 \(3, 6\)"),
            (np.empty((2, 7), np.int32), None, r"out must be an int32 or int64 array of shape \(3, 7\), got int32 \(2, 7\)"),
            (np.empty((3, 7)), np.empty(7), r"out must be an int32 or int64 array of shape \(3, 7\), got float64 \(3, 7\)"),
            (np.empty((3, 7), np.float32), None, r"out must be an int32 or int64 array of shape \(3, 7\), got float32 \(3, 7\)"),
            (np.empty((3, 7), np.int16), np.empty(7), r"out must be an int32 or int64 array of shape \(3, 7\), got int16 \(3, 7\)"),
            (np.empty(21, np.int32), None, r"out must be an int32 or int64 array of shape \(3, 7\), got int32 \(21,\)"),
            ([[0] * 7] * 3, None, r"out must be an int32 or int64 array of shape \(3, 7\), got list"),
        ],
        ids=[
            "sigma-short", "sigma-float32", "sigma-list", "sigma-2d", "out-columns", "out-rows", "out-float64",
            "out-float32", "out-int16", "out-flat", "out-list",
        ],
    )
    def test_numerator_out_or_sigma_of_another_shape_or_dtype_is_a_one_line_error(self, out, sigma, message):
        features = enumerate_kind("edge2h", 12)[:3]
        samples = [np.zeros((12, 12), dtype=np.uint8)] * 7
        with pytest.raises(ValueError, match=f"^{message}$"):
            feature_value_matrix(features, samples, out=out, sigma=sigma)

    def test_responses_past_the_int32_range_get_int64_or_are_refused(self):
        # the centre-surround feature over a whole 195 px window, on a
        # 16-bit bright centre: -9 * 65535 * 65**2 + 65535 * 65**2 is
        # -2,215,083,000, past -2**31
        base = 195
        features = [HaarFeature("center_surround", 0, 0, base, base, base)]
        bright = np.zeros((base, base), dtype=np.uint16)
        bright[65:130, 65:130] = 65535
        samples = [bright, np.full_like(bright, 9)]
        program = boost._compile_matrix(features, base)
        sigma = np.empty(2)
        got, _ = feature_value_matrix(features, samples, program=program, sigma=sigma)
        assert got.dtype == np.int64 and got[0, 0] == -2_215_083_000
        want = feature_matrix_oracle(features, samples)
        assert np.array_equal((got / sigma).view(np.int64), want.view(np.int64))
        with pytest.raises(ValueError, match=r"^out must be an int64 array of shape \(1, 2\), got int32 \(1, 2\)$"):
            feature_value_matrix(features, samples, program=program, out=np.empty((1, 2), np.int32), sigma=sigma)
        # 8-bit pixels: int32 while 255 * size**2 * weight_l1 < 2**31, for
        # this feature (weight_l1 40) up to 458 px
        assert program.weight_l1 == 40
        for size, dtype in [(base, np.int32), (458, np.int32), (459, np.int64)]:
            program = boost._compile_matrix([HaarFeature("center_surround", 0, 0, size, size, size)], size)
            assert boost._numerator_dtype(program, [np.zeros((size, size), np.uint8)]) == dtype

    def test_traced_peak_of_one_call_stays_a_few_mb(self):
        # 2,500 features of the 24 px bank over 256 tiles: 5.1 MB of
        # temporaries in blocks of 64 samples, 15.3 MB in blocks of 256
        rng = np.random.default_rng(33)
        bank = generate_feature_set(24)
        features = [bank[i] for i in np.sort(rng.choice(len(bank), 2500, replace=False))]
        samples = [rng.integers(0, 256, size=(24, 24)).astype(np.uint8) for _ in range(256)]
        program = boost._compile_matrix(features, 24)
        out = np.empty((len(features), len(samples)), np.int32)
        tracemalloc.start()
        try:
            feature_value_matrix(features, samples, program=program, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000, f"traced peak {peak / 1e6:.1f} MB"

    def test_matches_scalar_eval(self):
        rng = np.random.default_rng(9)
        samples = [rng.integers(0, 256, size=(12, 12)).astype(np.uint8) for _ in range(7)]
        features = [
            enumerate_kind("edge2v", 12)[5],
            enumerate_kind("tilted_edge2", 12)[17],
            enumerate_kind("center_surround", 12)[3],
        ]
        numerators, sigma = feature_value_matrix(features, samples)
        matrix = numerators / sigma
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

    def test_loaded_experiment_stages_equal_the_trained_ones(self, experiment, tmp_path):
        # a model file stores numbers to 9 digits and no rates: the loaded
        # stages' rates are NaN, and they still == the trained stages at the
        # file's precision, which keep the rates they were trained to
        trained, config = experiment["cascade"], experiment["config"]
        save_cascade(trained, tmp_path / "cascade.txt")
        loaded = load_cascade(tmp_path / "cascade.txt")
        digits = [
            replace(
                stage,
                stumps=[(replace(wc, threshold=float(boost._fmt(wc.threshold))), float(boost._fmt(alpha)))
                        for wc, alpha in stage.stumps],
                threshold=float(boost._fmt(stage.threshold)),
            )
            for stage in trained.stages
        ]
        assert loaded == Cascade(trained.base_window, digits) and len(digits) == 5
        assert all(math.isnan(rate) for stage in loaded.stages for rate in rates_of(stage))
        for stage in digits:
            assert stage.detection_rate >= config.target_dr and stage.false_positive_rate <= config.max_fpr
            assert len(stage.stumps) < config.max_stumps  # so the false-positive ceiling ended it
        # a record that a trained prefix filled continues under the loaded cascade
        img = experiment["corpus"].test[0].gray
        live = LiveWindows()
        detect_multiscale_counted(Cascade(trained.base_window, digits[:2]), img, live=live)
        original, calls = detect._stage_margins, []

        def spy(plan, k, *rest):
            calls.append(k)
            return original(plan, k, *rest)

        with mock.patch.object(detect, "_stage_margins", spy):
            got = detect_multiscale_counted(loaded, img, live=live)
        assert calls == [2, 3, 4]
        assert got == detect_multiscale_counted(load_cascade(tmp_path / "cascade.txt"), img)

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
            (lambda m: ["CASCADE v1 99999999999999999999 2"] + m[1:], r"model\.txt:1: bad window 99999999999999999999"),
            (lambda m: ["CASCADE v1 65537 0"], r"model\.txt:1: bad window 65537"),
        ],
        ids=[
            "truncated-stump", "truncated-stage", "unknown-kind", "outside-window",
            "indivisible-width", "trailing-line", "nan-threshold", "bad-polarity",
            "short-stump-line", "bad-header-number", "negative-count",
            "window-past-int64", "window-past-bound",
        ],
    )
    def test_invalid_model_names_file_and_line(self, tmp_path, edit, message):
        with pytest.raises(ValueError, match=message):
            load_cascade(self._write(tmp_path, edit(list(self.MODEL))))
