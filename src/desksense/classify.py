"""Per-segment features and typing / mouse-move classification.

Three features per segment: waveform variance (vertical motion changes the
path length much faster than horizontal, so intensity separates the two
gesture kinds), a slope-ratio symmetry measure (a keystroke retraces its
waveform, a mouse drag does not), and duration.  Classifiers are a small
KNN and a Gaussian naive Bayes behind one interface; both standardize
features with training-fold statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .segmentation import GestureSegment

VARIANCE_FLOOR = 1e-9
DEFAULT_KNN_K = 3


class GestureLabel(IntEnum):
    TYPING = 0
    MOUSE = 1

    @classmethod
    def from_name(cls, name: str) -> "GestureLabel":
        key = name.strip().lower()
        if key in ("typing", "keystroke"):
            return cls.TYPING
        if key in ("mouse", "mouse_move", "mousemove"):
            return cls.MOUSE
        raise ValueError(f"unknown gesture label {name!r}")


@dataclass(frozen=True)
class FeatureVector:
    variance: float
    slope_ratio: float
    duration: float

    def __post_init__(self):
        # extract_features gives slope_ratio +inf when one half-slope is 0
        if math.isnan(self.slope_ratio):
            raise ValueError("slope_ratio must not be NaN")
        for name in ("variance", "duration"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.variance < 0:
            raise ValueError("variance must be >= 0")
        if self.slope_ratio < 1:
            raise ValueError("slope_ratio must be >= 1")
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    def as_array(self) -> np.ndarray:
        return np.array([self.variance, self.slope_ratio, self.duration])


@dataclass(frozen=True)
class LabeledExample:
    features: FeatureVector
    label: GestureLabel


def _half_slope(half: np.ndarray, fs: float) -> float:
    """Slope between the first maximum and first minimum of one half."""
    i_max = int(np.argmax(half))
    i_min = int(np.argmin(half))
    if i_max == i_min:
        return 0.0
    return float((half[i_max] - half[i_min]) / ((i_max - i_min) / fs))


def extract_features(segment: GestureSegment) -> FeatureVector:
    """Variance, slope-ratio symmetry, and duration of one segment.

    The waveform splits at its midpoint (ceil for odd lengths); each half
    contributes the slope of the line between its first maximum and first
    minimum, and the ratio takes whichever ordering is larger.  A constant
    half has slope 0; two zero slopes give ratio 1, one gives infinity.
    """
    w = segment.waveform
    if len(w) < 4:
        raise ValueError("waveform must have at least 4 samples")
    mid = math.ceil(len(w) / 2)
    s1 = _half_slope(w[:mid], segment.fs)
    s2 = _half_slope(w[mid:], segment.fs)
    if s1 == 0.0 and s2 == 0.0:
        ratio = 1.0
    elif s1 == 0.0 or s2 == 0.0:
        ratio = math.inf
    else:
        ratio = max(abs(s1 / s2), abs(s2 / s1))
    return FeatureVector(
        variance=float(w.var()),
        slope_ratio=ratio,
        duration=len(w) / segment.fs,
    )


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray) -> "Standardizer":
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        return cls(mean=mean, std=std)

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (features - self.mean) / self.std


@dataclass
class KnnClassifier:
    kind = "knn"
    k: int
    standardizer: Standardizer
    points: np.ndarray
    labels: np.ndarray

    def predict(self, features: FeatureVector) -> GestureLabel:
        x = self.standardizer.transform(features.as_array())
        dist = np.linalg.norm(self.points - x, axis=1)
        order = np.argsort(dist, kind="stable")[: min(self.k, len(dist))]
        votes = np.bincount(self.labels[order], minlength=2)
        winners = np.flatnonzero(votes == votes.max())
        if len(winners) == 1:
            return GestureLabel(int(winners[0]))
        # tie: weight by inverse distance, exact matches dominate
        weights = np.zeros(2)
        for i in order:
            d = dist[i]
            weights[self.labels[i]] += 1e12 if d == 0 else 1.0 / d
        return GestureLabel(int(np.argmax(weights)))


@dataclass
class GaussianNbClassifier:
    kind = "gaussian_nb"
    standardizer: Standardizer
    log_priors: np.ndarray
    means: np.ndarray       # (classes, features)
    variances: np.ndarray   # (classes, features), floored

    def predict(self, features: FeatureVector) -> GestureLabel:
        x = self.standardizer.transform(features.as_array())
        log_post = self.log_priors - 0.5 * np.sum(
            np.log(2 * np.pi * self.variances) + (x - self.means) ** 2 / self.variances,
            axis=1,
        )
        return GestureLabel(int(np.argmax(log_post)))


Classifier = KnnClassifier | GaussianNbClassifier


def fit(kind: str, examples: list[LabeledExample], k: int = DEFAULT_KNN_K) -> Classifier:
    """Fit a classifier of the given kind ("knn" or "gaussian_nb")."""
    if not examples:
        raise ValueError("training set is empty")
    labels = np.array([ex.label.value for ex in examples], dtype=int)
    if len(np.unique(labels)) < 2:
        raise ValueError("training set must contain both classes")
    feats = np.array([ex.features.as_array() for ex in examples])
    standardizer = Standardizer.fit(feats)
    z = standardizer.transform(feats)
    if kind == "knn":
        if k < 1:
            raise ValueError("k must be >= 1")
        return KnnClassifier(k=k, standardizer=standardizer, points=z, labels=labels)
    if kind == "gaussian_nb":
        means = np.zeros((2, feats.shape[1]))
        variances = np.zeros((2, feats.shape[1]))
        priors = np.zeros(2)
        for c in (0, 1):
            zc = z[labels == c]
            priors[c] = len(zc) / len(z)
            means[c] = zc.mean(axis=0)
            variances[c] = np.maximum(zc.var(axis=0), VARIANCE_FLOOR)
        return GaussianNbClassifier(
            standardizer=standardizer,
            log_priors=np.log(priors),
            means=means,
            variances=variances,
        )
    raise ValueError(f"unknown classifier kind {kind!r}")


@dataclass
class CrossValidationResult:
    fold_accuracies: list[float]
    mean_accuracy: float
    confusion: np.ndarray   # rows true, columns predicted
    kind: str = ""

    def summary(self) -> str:
        return (
            f"{self.kind or 'classifier'}: mean accuracy {self.mean_accuracy:.3f} "
            f"over {len(self.fold_accuracies)} folds"
        )


def _stratified_folds(labels: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Fold id per example: shuffle each class and deal round-robin."""
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(labels), dtype=int)
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        assignment[idx] = np.arange(len(idx)) % folds
    return assignment


def cross_validate(
    kind: str,
    examples: list[LabeledExample],
    folds: int = 10,
    seed: int = 0,
    k: int = DEFAULT_KNN_K,
) -> CrossValidationResult:
    """Stratified k-fold evaluation; standardization refit per training fold."""
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if folds > len(examples):
        raise ValueError("more folds than examples")
    labels = np.array([ex.label.value for ex in examples], dtype=int)
    if len(np.unique(labels)) < 2:
        raise ValueError("dataset must contain both classes")
    assignment = _stratified_folds(labels, folds, seed)
    accuracies = []
    confusion = np.zeros((2, 2), dtype=int)
    for fold in range(folds):
        train = [ex for ex, a in zip(examples, assignment) if a != fold]
        test = [ex for ex, a in zip(examples, assignment) if a == fold]
        if not test:
            continue
        model = fit(kind, train, k=k)
        correct = 0
        for ex in test:
            pred = model.predict(ex.features)
            confusion[ex.label.value, pred.value] += 1
            correct += pred == ex.label
        accuracies.append(correct / len(test))
    return CrossValidationResult(
        fold_accuracies=accuracies,
        mean_accuracy=float(np.mean(accuracies)),
        confusion=confusion,
        kind=kind,
    )
