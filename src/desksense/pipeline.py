"""End-to-end orchestration and the run report.

A report is two layers: deterministic metrics (reproducible from config +
seeds, compared in the determinism checks) and wall-clock timings, which
are informational only.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .behavior import (
    Behavior,
    GestureSequence,
    PROFILES,
    build_emission,
    classify_behavior,
    fit_behavior_models,
    sample_behavior_sequence,
)
from .channel import CsiTrace
from .classify import GestureLabel, cross_validate, extract_features
from .config import PipelineConfig
from .corpus import (
    evaluate_segmentation,
    generate_gesture_dataset,
    generate_segmentation_corpus,
    score_detections,
)
from .preprocess import butterworth_lowpass, select_subcarrier
from .segmentation import segment


@dataclass
class RunReport:
    config: dict
    seeds: dict
    metrics: dict = field(default_factory=dict)
    timings_s: dict = field(default_factory=dict)

    def comparable_dict(self) -> dict:
        """Everything that must reproduce exactly across identical runs."""
        return {"config": self.config, "seeds": self.seeds, "metrics": self.metrics}

    def to_json(self) -> str:
        doc = dict(self.comparable_dict())
        doc["timings_s"] = self.timings_s
        return json.dumps(doc, indent=2)


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name and partial results."""

    def __init__(self, stage: str, cause: Exception, report: "RunReport", artifacts: dict):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause
        self.report = report
        self.artifacts = artifacts


class _StageTimer:
    def __init__(self, report: RunReport, name: str, artifacts: dict | None = None):
        self.report = report
        self.name = name
        self.artifacts = artifacts if artifacts is not None else {}

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.report.timings_s[self.name] = time.perf_counter() - self.t0
        if exc is not None and not isinstance(exc, StageError):
            self.report.metrics["failed_stage"] = self.name
            self.report.metrics["error"] = str(exc)
            raise StageError(self.name, exc, self.report, self.artifacts) from exc
        return False


def _new_report(config: PipelineConfig) -> RunReport:
    return RunReport(
        config=config.to_dict(),
        seeds={
            "simulation": config.seeds.simulation,
            "cross_validation": config.seeds.cross_validation,
            "behavior": config.seeds.behavior,
        },
    )


def run_pipeline(
    config: PipelineConfig,
    trace: CsiTrace,
    gesture_model=None,
    behavior_models=None,
) -> tuple[RunReport, dict]:
    """Select -> filter -> segment -> featurize -> classify one trace.

    Annotated traces also get detection metrics; a gesture classifier turns
    segments into a label sequence; behavior models then classify that
    sequence.  Returns (report, artifacts).
    """
    report = _new_report(config)
    artifacts: dict = {}

    with _StageTimer(report, "select_subcarrier", artifacts):
        series = select_subcarrier(trace)
    report.metrics["selected_subcarrier"] = series.source_subcarrier

    with _StageTimer(report, "filter", artifacts):
        filtered = butterworth_lowpass(series, config.filter)
    del series   # the unfiltered amplitude would stay resident through segmentation
    artifacts["series"] = filtered

    with _StageTimer(report, "segment", artifacts):
        segments = segment(filtered, config.segmenter).segments
    artifacts["segments"] = segments
    report.metrics["segments_found"] = len(segments)

    if trace.meta:
        scores = score_detections([(segments, trace)])
        report.metrics["detection"] = {
            "annotated": len(trace.meta),
            "matched": scores.matched,
            "recall": scores.recall,
            "precision": scores.precision,
            "mean_boundary_error_s": scores.mean_boundary_error_s,
        }

    if not segments:
        return report, artifacts

    with _StageTimer(report, "featurize", artifacts):
        features = [extract_features(s) for s in segments]
    artifacts["features"] = features

    if gesture_model is not None:
        with _StageTimer(report, "classify_gestures", artifacts):
            labels = [gesture_model.predict(f) for f in features]
        artifacts["labels"] = labels
        report.metrics["gesture_counts"] = {
            "typing": sum(1 for l in labels if l is GestureLabel.TYPING),
            "mouse": sum(1 for l in labels if l is GestureLabel.MOUSE),
        }
        if behavior_models is not None and labels:
            with _StageTimer(report, "classify_behavior", artifacts):
                seq = GestureSequence(np.array([l.value for l in labels]))
                result = classify_behavior(behavior_models, seq)
            report.metrics["behavior"] = {
                "label": result.behavior.value if result.behavior else None,
                "scores": {b.value: s for b, s in result.scores.items()},
                "tie": result.tie,
                "unclassifiable": result.unclassifiable,
            }
            artifacts["behavior"] = result
    return report, artifacts


SEED_STRIDE = 1000   # seeds between two behaviors' first sequences in _sample_sets


def check_sequence_count(n: int, name: str) -> None:
    """Refuse more sampled sequences per behavior than have seeds of their own."""
    if n > SEED_STRIDE:
        raise ValueError(f"{name} must be at most {SEED_STRIDE}, got {n}: sequence "
                         f"{SEED_STRIDE} would reuse the seed of the next behavior's first")


def _sample_sets(B: np.ndarray, n: int, length: int, seed0: int):
    """n sequences of the given length per classified behavior, sampled from
    its profile with the emission matrix B: sequence i of the i_b-th
    behavior with seed seed0 + SEED_STRIDE * i_b + i."""
    sets = {}
    for i_b, b in enumerate(Behavior):
        hmm = replace(PROFILES[b], B=B)
        sets[b] = [sample_behavior_sequence(hmm, length, seed=seed0 + SEED_STRIDE * i_b + i)
                   for i in range(n)]
    return sets


def train_behavior_models(
    config: PipelineConfig, B: np.ndarray, n_train: int = 50, train_length: int = 100
):
    """Per-behavior HMMs fitted on n_train sampled sequences per behavior,
    from seed config.seeds.behavior on (_sample_sets)."""
    check_sequence_count(n_train, "n_train")
    training = _sample_sets(B, n_train, train_length, config.seeds.behavior)
    return fit_behavior_models(
        training, B=B, max_iter=config.hmm.max_iter, tol=config.hmm.tol
    )


def behavior_study(
    config: PipelineConfig,
    confusion: np.ndarray,
    n_train: int = 50,
    train_length: int = 100,
    n_test: int = 100,
    test_length: int = 50,
):
    """Train per-behavior models on sampled sequences and score fresh ones
    (_sample_sets from seed config.seeds.behavior + 7_000_000).

    Returns (macro accuracy, confusion matrix over the classified behaviors,
    fitted models).
    """
    check_sequence_count(n_test, "n_test")
    B = build_emission(confusion)
    behaviors = list(Behavior)
    models = train_behavior_models(config, B, n_train, train_length)
    tests = _sample_sets(B, n_test, test_length, config.seeds.behavior + 7_000_000)

    confusion_b = np.zeros((len(behaviors), len(behaviors)), dtype=int)
    for i_b, b in enumerate(behaviors):
        for seq in tests[b]:
            result = classify_behavior(models, seq)
            confusion_b[i_b, behaviors.index(result.behavior)] += 1
    per_class = confusion_b.diagonal() / confusion_b.sum(axis=1)
    return float(per_class.mean()), confusion_b, models


def behavior_confusion_table(confusion: np.ndarray) -> str:
    """Render the behavior confusion matrix as a row-percentage table."""
    names = [b.value.upper() for b in Behavior]
    rows = confusion / confusion.sum(axis=1, keepdims=True) * 100.0
    width = max(len(n) for n in names) + 2
    lines = [" " * width + "".join(f"{n:>{width}}" for n in names)]
    for name, row in zip(names, rows):
        lines.append(f"{name:<{width}}" + "".join(f"{v:>{width - 1}.0f}%" for v in row))
    avg = float(np.mean(confusion.diagonal() / confusion.sum(axis=1))) * 100.0
    lines.append(f"{'AVG.':<{width}}{avg:.1f}%")
    return "\n".join(lines)


def evaluate_system(
    config: PipelineConfig,
    n_traces: int = 100,
    n_gesture_segments: int = 400,
    n_behavior_test: int = 100,
) -> RunReport:
    """Run the three synthetic studies end to end and report their metrics."""
    check_sequence_count(n_behavior_test, "n_behavior_test")
    report = _new_report(config)

    with _StageTimer(report, "segmentation_study"):
        traces = generate_segmentation_corpus(config, n_traces=n_traces)
        seg_metrics = evaluate_segmentation(config, traces)
    report.metrics["segmentation"] = asdict(seg_metrics)

    with _StageTimer(report, "gesture_study"):
        dataset = generate_gesture_dataset(config, n_segments=n_gesture_segments)
        cv = {
            kind: cross_validate(
                kind,
                dataset,
                folds=config.classifier.folds,
                seed=config.seeds.cross_validation,
                k=config.classifier.k,
            )
            for kind in ("knn", "gaussian_nb")
        }
    report.metrics["gesture_cv"] = {
        kind: {
            "mean_accuracy": res.mean_accuracy,
            "fold_accuracies": res.fold_accuracies,
            "confusion": res.confusion.tolist(),
        }
        for kind, res in cv.items()
    }

    with _StageTimer(report, "behavior_study"):
        confusion = np.array(cv[config.classifier.kind].confusion)
        macro, confusion_b, _models = behavior_study(
            config, confusion, n_test=n_behavior_test
        )
    report.metrics["behavior"] = {
        "macro_accuracy": macro,
        "confusion": confusion_b.tolist(),
        "table": behavior_confusion_table(confusion_b),
    }
    return report
