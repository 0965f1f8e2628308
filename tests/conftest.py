import multiprocessing
import threading
import time

import numpy as np
import pytest
from hypothesis import settings

from desksense import PipelineConfig
from desksense.classify import cross_validate
from desksense.corpus import generate_gesture_dataset, generate_segmentation_corpus

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 result does not depend on earlier runs.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def no_worker_left():
    """Every test leaves no worker behind: no process is started, and the
    threads of _workers.thread_map (the simulator's and the subcarrier
    variances') stop whether the call succeeded or failed."""
    yield
    assert multiprocessing.active_children() == []
    assert threading.active_count() == 1


@pytest.fixture()
def config():
    cfg = PipelineConfig()
    cfg.validate()
    return cfg


@pytest.fixture(scope="session")
def session_config():
    cfg = PipelineConfig()
    cfg.validate()
    return cfg


@pytest.fixture(scope="session")
def corpus_timing():
    """Wall-clock seconds spent building each shared fixture, so acceptance
    runtime budgets include corpus generation."""
    return {}


@pytest.fixture(scope="session")
def segmentation_corpus(session_config, corpus_timing):
    """100 annotated traces, 1-5 gestures each, >= 1.5 s gaps, 2% noise."""
    t0 = time.perf_counter()
    corpus = list(generate_segmentation_corpus(session_config, n_traces=100))
    corpus_timing["segmentation_corpus"] = time.perf_counter() - t0
    return corpus


@pytest.fixture(scope="session")
def gesture_dataset(session_config, corpus_timing):
    """400 labeled feature vectors from annotation-sliced synthetic gestures."""
    t0 = time.perf_counter()
    dataset = generate_gesture_dataset(session_config, n_segments=400)
    corpus_timing["gesture_dataset"] = time.perf_counter() - t0
    return dataset


@pytest.fixture(scope="session")
def gesture_cv_results(session_config, gesture_dataset, corpus_timing):
    t0 = time.perf_counter()
    results = {
        kind: cross_validate(
            kind,
            gesture_dataset,
            folds=session_config.classifier.folds,
            seed=session_config.seeds.cross_validation,
            k=session_config.classifier.k,
        )
        for kind in ("knn", "gaussian_nb")
    }
    corpus_timing["gesture_cv"] = time.perf_counter() - t0
    return results


def brute_force_likelihood(pi, A, B, observations) -> float:
    """Exhaustive hidden-path enumeration oracle for short sequences."""
    import itertools

    pi = np.asarray(pi)
    A = np.asarray(A)
    B = np.asarray(B)
    total = 0.0
    n = len(observations)
    for path in itertools.product(range(2), repeat=n):
        p = pi[path[0]] * B[path[0], observations[0]]
        for t in range(1, n):
            p *= A[path[t - 1], path[t]] * B[path[t], observations[t]]
        total += p
    return total
