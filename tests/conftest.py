import multiprocessing
import time
from unittest import mock

import pytest

from facedet import boost
from facedet.synthetic import run_experiment


@pytest.fixture(scope="session")
def experiment():
    """The seed-7 experiment (corpus, config with the validator threshold,
    models and per-test-scene results) shared by the end-to-end checks, run
    once per session, with its feature-compile count and wall time."""
    started = time.monotonic()
    with mock.patch.object(boost, "compile_features", wraps=boost.compile_features) as compiled:
        run = run_experiment(seed=7, n_train=300, n_test=100)
    return {**vars(run), "feature_compiles": compiled.call_count, "elapsed": time.monotonic() - started}


@pytest.fixture(autouse=True)
def no_stray_children():
    """Fail a test that leaves a child process running."""
    yield
    assert multiprocessing.active_children() == [], "a child process outlived the test"
