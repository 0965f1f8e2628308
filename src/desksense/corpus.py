"""Synthetic corpora with ground truth for evaluating the pipeline.

Scripts place gestures the way the hardware is meant to be deployed: the
hand sits 0.55-0.70 m below the antenna line, keystrokes land inside a
single ~4 cm zone, and mouse drags happen off the link's midpoint where
horizontal motion actually changes the path length.  Gestures carry a
small seeded micro-motion so synthetic strokes are not unnaturally smooth.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .channel import (
    DEFAULT_GESTURE_JITTER_STD,
    ChannelModel,
    CsiTrace,
    GestureKind,
    GestureModel,
    check_trace_size,
    simulate_trace,
)
from .classify import GestureLabel, LabeledExample, extract_features
from .config import PipelineConfig
from .preprocess import filtered_series
from .segmentation import GestureSegment, segment


def keystroke_burst_script(config: PipelineConfig, count: int = 17) -> tuple[list, float]:
    """`count` consecutive keystrokes at the deployed rest position, 1.3 s
    apart, the first at 1 s, and the duration of their trace, to 1 s past
    the last.  A count whose trace check_trace_size refuses at the config's
    rate and subcarriers is refused before its script is built."""
    g = GestureModel(GestureKind.KEYSTROKE, config.geometry.rest_pos,
                     jitter_std=DEFAULT_GESTURE_JITTER_STD)
    period = g.duration + 1.3   # 2.0 s exactly, so every start time is exact
    duration = 2.0 + count * period
    check_trace_size(config.simulation.fs, duration, config.simulation.subcarriers)
    return [(1.0 + i * period, g) for i in range(count)], duration


def random_gesture_script(
    config: PipelineConfig,
    rng: np.random.Generator,
    n_gestures: int,
) -> tuple[list, float]:
    """Randomized gesture sequence within the deployable parameter envelope:
    keystrokes and mouse moves drawn with equal odds, 1.5-2.5 s apart."""
    d = config.geometry.antenna_distance
    script = []
    t = 1.0 + rng.uniform(0.0, 0.8)
    side = 1.0 if rng.random() < 0.5 else -1.0
    x = d / 2 + side * rng.uniform(0.15, 0.30) * d
    for _ in range(n_gestures):
        kind = tuple(GestureKind)[int(rng.integers(0, 2))]
        mouse = kind is GestureKind.MOUSE_MOVE
        depth = rng.uniform(0.57, 0.66)
        model = GestureModel(
            kind=kind,
            rest_pos=np.array([np.clip(x, 0.12 * d, (0.85 if mouse else 0.88) * d), 0.0, -depth]),
            travel=rng.uniform(0.03, 0.05) if mouse else 0.02,
            duration=rng.uniform(0.4, 1.0) if mouse else rng.uniform(0.6, 0.8),
            jitter_std=DEFAULT_GESTURE_JITTER_STD,
        )
        script.append((t, model))
        t += model.duration + rng.uniform(1.5, 2.5)
    return script, t + 0.7


def simulate_script(config: PipelineConfig, script, duration: float, seed: int) -> CsiTrace:
    sim = config.simulation
    model = ChannelModel(geometry=config.geometry, noise_std=sim.noise_std, rng_seed=seed)
    return simulate_trace(model, script, duration, fs=sim.fs, subcarriers=sim.subcarriers,
                          reflection_amplitude=sim.reflection_amplitude)


def generate_segmentation_corpus(config: PipelineConfig, n_traces: int = 100) -> Iterator[CsiTrace]:
    """Annotated traces with 1-5 gestures each and >= 1.5 s inter-gesture
    gaps, from config.seeds.simulation, simulated one at a time as they are
    taken."""
    rng = np.random.default_rng(config.seeds.simulation)
    for _ in range(n_traces):
        n_gestures = int(rng.integers(1, 6))
        script, duration = random_gesture_script(config, rng, n_gestures)
        yield simulate_script(config, script, duration, int(rng.integers(0, 2**31)))


def segment_trace(config: PipelineConfig, trace: CsiTrace) -> list[GestureSegment]:
    return segment(filtered_series(trace, config.filter), config.segmenter).segments


@dataclass
class SegmentationMetrics:
    recall: float
    precision: float | None
    mean_boundary_error_s: float | None
    matched: int
    false_negatives: int
    false_positives: int


def _check_ordered(spans, what: str) -> None:
    """Raise unless each span starts at or after the previous span's end."""
    for prev, span in zip(spans, spans[1:]):
        if span.start_idx < prev.end_idx:
            raise ValueError(f"{what} must be sorted and disjoint")


def match_segments(detections: list[GestureSegment], annotations):
    """Greedy best-overlap matching of detections to ground-truth spans.

    Each annotation in turn takes the unused detection of largest overlap
    (min end - max start, > 0); the first of equal overlaps wins.  Both
    lists must be sorted and disjoint, as segment() and CsiTrace make them
    (a span may start on its predecessor's last index), else ValueError.
    Then only the detections from the first one ending after an
    annotation's start to the last one starting before its end can
    overlap it, and only those are compared.
    """
    _check_ordered(detections, "detections")
    _check_ordered(annotations, "annotations")
    ends = [det.end_idx for det in detections]
    pairs = []
    used = set()
    for ann in annotations:
        best = None
        for i in range(bisect_right(ends, ann.start_idx), len(detections)):
            det = detections[i]
            if det.start_idx >= ann.end_idx:
                break
            if i in used:
                continue
            overlap = min(det.end_idx, ann.end_idx) - max(det.start_idx, ann.start_idx)
            if overlap > 0 and (best is None or overlap > best[0]):
                best = (overlap, i)
        if best is not None:
            used.add(best[1])
            pairs.append((ann, detections[best[1]]))
    return pairs, used


def score_detections(runs) -> SegmentationMetrics:
    """Detection metrics over (detections, annotated trace) pairs, matched by
    match_segments.  The boundary error is the mean absolute start and end
    error of the matches in seconds, None when nothing matched; precision is
    None when nothing was detected."""
    tp = fn = fp = 0
    start_errors = []
    end_errors = []
    for detections, trace in runs:
        pairs, used = match_segments(detections, trace.meta)
        tp += len(pairs)
        fn += len(trace.meta) - len(pairs)
        fp += len(detections) - len(used)
        start_errors += [abs(det.start_idx - ann.start_idx) / trace.fs for ann, det in pairs]
        end_errors += [abs(det.end_idx - ann.end_idx) / trace.fs for ann, det in pairs]
    return SegmentationMetrics(
        recall=tp / (tp + fn) if tp + fn else 0.0,
        precision=tp / (tp + fp) if tp + fp else None,
        mean_boundary_error_s=float(np.mean(start_errors + end_errors)) if tp else None,
        matched=tp,
        false_negatives=fn,
        false_positives=fp,
    )


def evaluate_segmentation(
    config: PipelineConfig, traces: Iterable[CsiTrace]
) -> SegmentationMetrics:
    """Each trace segmented and scored in turn, so a generator's traces are
    held one at a time."""
    return score_detections((segment_trace(config, trace), trace) for trace in traces)


def segments_from_annotations(
    config: PipelineConfig, trace: CsiTrace
) -> list[tuple[GestureSegment, GestureLabel]]:
    """Ground-truth-sliced segments of the filtered series, with labels."""
    series = filtered_series(trace, config.filter)
    out = []
    for ann in trace.meta:
        seg = GestureSegment(
            start_idx=ann.start_idx,
            end_idx=ann.end_idx,
            waveform=series.values[ann.start_idx:ann.end_idx + 1],
            fs=series.fs,
        )
        out.append((seg, GestureLabel.from_name(ann.label)))
    return out


# metres of micro-motion in the feature corpus's gestures
_DATASET_JITTER_STD = 5e-4


def _dataset_script(config, rng, n_gestures, kind):
    """Gesture placement for the feature corpus.

    All gestures of one trace sit on one side of the link's midpoint,
    0.57-0.66 m below the antenna line, but the two kinds are placed apart:
    keystrokes 0.15-0.30 d off centre with 2 cm of travel, mouse moves
    0.04-0.15 d off centre with 1.5-4 cm of travel.  Both carry
    _DATASET_JITTER_STD (5e-4 m) of micro-motion, against the
    DEFAULT_GESTURE_JITTER_STD (2.5e-3 m) of scripted gestures, and
    random_gesture_script puts both kinds at one x with 3-5 cm of mouse
    travel; so this corpus is not drawn from the envelope the segmenter
    sees.  The mouse's along-axis direction is geometrically far less
    path-length-sensitive than the keystroke's vertical travel, which is
    the contrast the features are supposed to pick up.  Detectability by
    the segmenter is not required here (segments come from the annotations).
    """
    d = config.geometry.antenna_distance
    script = []
    t = 1.0 + rng.uniform(0.0, 0.5)
    side = 1.0 if rng.random() < 0.5 else -1.0
    mouse = kind is GestureKind.MOUSE_MOVE
    for _ in range(n_gestures):
        depth = rng.uniform(0.57, 0.66)
        x = d / 2 + side * (rng.uniform(0.04, 0.15) if mouse else rng.uniform(0.15, 0.30)) * d
        model = GestureModel(
            kind=kind,
            rest_pos=np.array([x, 0.0, -depth]),
            travel=rng.uniform(0.015, 0.04) if mouse else 0.02,
            duration=rng.uniform(0.35, 1.0) if mouse else rng.uniform(0.65, 0.75),
            jitter_std=_DATASET_JITTER_STD,
        )
        script.append((t, model))
        t += model.duration + rng.uniform(1.5, 2.0)
    return script, t + 0.7


def generate_gesture_dataset(config: PipelineConfig, n_segments: int = 400) -> list[LabeledExample]:
    """Labeled feature vectors from annotation-sliced synthetic gestures:
    ceil(n/2) typing and floor(n/2) mouse examples, each trace of the kind
    with the most examples still to fill, keystrokes on a tie, from
    config.seeds.simulation + 1."""
    rng = np.random.default_rng(config.seeds.simulation + 1)
    todo = {GestureKind.KEYSTROKE: (n_segments + 1) // 2, GestureKind.MOUSE_MOVE: n_segments // 2}
    examples: list[LabeledExample] = []
    while any(todo.values()):
        want = max(todo, key=todo.get)
        script, duration = _dataset_script(config, rng, int(rng.integers(2, 5)), want)
        trace = simulate_script(config, script, duration, int(rng.integers(0, 2**31)))
        for seg, label in segments_from_annotations(config, trace)[:todo[want]]:
            examples.append(LabeledExample(features=extract_features(seg), label=label))
            todo[want] -= 1
    return examples
