"""Behavior recognition over gesture sequences with 2-state HMMs.

Hidden states are the true gestures (typing / mouse), observations are the
classifier's outputs, so the emission matrix comes straight from the
classifier's confusion counts.  Each behavior gets its own transition
matrix trained by Baum-Welch with the emissions and initial distribution
held fixed; a sequence is classified by which behavior model gives it the
highest per-symbol forward log-likelihood.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np


STOCHASTIC_TOL = 1e-12
DEFAULT_BW_TOL = 1e-6
DEFAULT_BW_MAX_ITER = 200

logger = logging.getLogger(__name__)


class Behavior(Enum):
    """A desk behavior; the member order is the tie-break order for classification."""

    SURFING = "surfing"
    WORKING = "working"
    GAMING = "gaming"


def _check_stochastic(name: str, m, shape: tuple[int, ...]) -> np.ndarray:
    """m as a float array of exactly the given shape, each row a finite
    distribution."""
    m = np.asarray(m, dtype=float)
    if m.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be finite")
    if np.any(m < 0):
        raise ValueError(f"{name} has negative entries")
    sums = m.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > STOCHASTIC_TOL):
        raise ValueError(f"{name} rows must sum to 1 within {STOCHASTIC_TOL}")
    return m


@dataclass
class BehaviorHmm:
    """pi, A (transitions), B (emissions) for one behavior. 2 hidden states."""

    pi: np.ndarray
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.pi = _check_stochastic("pi", self.pi, (2,))
        self.A = _check_stochastic("A", self.A, (2, 2))
        self.B = _check_stochastic("B", self.B, (2, 2))


@dataclass
class GestureSequence:
    """Observed gesture labels in temporal order."""

    observations: np.ndarray

    def __post_init__(self):
        self.observations = np.asarray(self.observations, dtype=int)
        if self.observations.ndim != 1 or len(self.observations) == 0:
            raise ValueError("observations must be a non-empty 1-D sequence")
        if np.any((self.observations < 0) | (self.observations > 1)):
            raise ValueError("observations must be 0 (typing) or 1 (mouse)")

    def __len__(self) -> int:
        return len(self.observations)


def _forward(pi: np.ndarray, A: np.ndarray, B: np.ndarray, obs: np.ndarray):
    """Scaled forward pass over an (N, T) stack of equal-length sequences.

    Returns the scaled alphas, shape (T, N, 2), and the N log-likelihoods.
    A sequence the model cannot emit gets -inf: its scale hits 0, and the
    NaNs that follow are caught once, after the loop.
    """
    emit = B.T[obs.T]                                   # (T, N, 2): B[:, obs[n, t]]
    alphas = np.empty_like(emit)
    scales = np.empty(emit.shape[:2] + (1,))
    with np.errstate(divide="ignore", invalid="ignore"):
        predicted = pi
        for alpha, e, scale in zip(alphas, emit, scales):
            np.multiply(predicted, e, out=alpha)
            alpha.sum(axis=1, keepdims=True, out=scale)
            alpha /= scale
            predicted = alpha @ A
        # cumsum adds in step order, as a running sum does (np.sum pairs)
        log_like = np.log(scales[:, :, 0]).cumsum(axis=0)[-1]
    log_like[np.isnan(log_like)] = -np.inf
    return alphas, log_like


def _backward(A: np.ndarray, B: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Backward variables of an (N, T) stack, normalized per step (enough
    for the EM ratios); shape (T, N, 2)."""
    emit = B.T[obs.T]
    betas = np.empty_like(emit)
    betas[-1] = 1.0
    with np.errstate(invalid="ignore"):
        for t in range(len(emit) - 2, -1, -1):
            b = (emit[t + 1] * betas[t + 1]) @ A.T
            np.divide(b, b.sum(axis=1, keepdims=True), out=betas[t])
    return betas


def forward_log_likelihood(hmm: BehaviorHmm, seq: GestureSequence) -> float:
    """log P(observations | model); -inf for impossible sequences."""
    _, log_like = _forward(hmm.pi, hmm.A, hmm.B, seq.observations[None])
    return float(log_like[0])


def baum_welch(
    sequences: list[GestureSequence],
    B: np.ndarray,
    pi: np.ndarray,
    A_init: np.ndarray | None = None,
    max_iter: int = DEFAULT_BW_MAX_ITER,
    tol: float = DEFAULT_BW_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """EM re-estimation of the transition matrix with B and pi held fixed.

    The sequences must all have one length: they are stacked and stepped
    together through the forward/backward kernels.  Returns (A,
    log-likelihood history); the history is non-decreasing up to numerical
    slack.  Rows whose state is never visited keep their previous values.
    A fit that stops at max_iter before the change in log-likelihood falls
    below tol logs a warning.
    """
    if not sequences:
        raise ValueError("need at least one training sequence")
    B = _check_stochastic("B", B, (2, 2))
    pi = _check_stochastic("pi", pi, (2,))
    if A_init is None:
        A = np.array([[0.6, 0.4], [0.4, 0.6]])
    else:
        A = _check_stochastic("A_init", A_init, (2, 2))
        if np.any(A <= 0):
            raise ValueError("A_init must be strictly positive")
    lengths = sorted({len(seq) for seq in sequences})
    if len(lengths) > 1:
        raise ValueError(f"training sequences must all have one length, got lengths {lengths}")
    obs = np.stack([seq.observations for seq in sequences])

    history, change = [], np.nan
    for _ in range(max_iter):
        alphas, log_like = _forward(pi, A, B, obs)
        total_ll = float(log_like.sum())
        emit_beta = B.T[obs.T[1:]] * _backward(A, B, obs)[1:]      # (T-1, N, 2)
        terms = alphas[:-1, :, :, None] * A * emit_beta[:, :, None, :]
        norms = terms.sum(axis=(2, 3), keepdims=True)
        # an impossible sequence has zero or NaN norms and adds nothing
        xi = np.divide(terms, norms, out=np.zeros_like(terms), where=norms > 0)
        xi_num = xi.sum(axis=(0, 1))
        # a quiet NaN (Python floats) when the data stays impossible at -inf:
        # nothing further to optimise
        change = total_ll - history[-1] if history else np.inf
        history.append(total_ll)
        gamma_den = xi_num.sum(axis=1, keepdims=True)
        A = np.divide(xi_num, gamma_den, out=A.copy(), where=gamma_den > 0)
        if abs(change) < tol or np.isnan(change):
            break
    else:
        logger.warning("Baum-Welch stopped at max_iter=%d before converging: last "
                       "log-likelihood change %.3g (tol %g)", max_iter, change, tol)
    return A, np.array(history)


def build_emission(confusion: np.ndarray) -> np.ndarray:
    """Row-normalized confusion counts; add-one smoothing if any cell is zero."""
    counts = np.asarray(confusion, dtype=float).reshape(2, 2)
    if not np.all(np.isfinite(counts)):
        raise ValueError("confusion counts must be finite")
    if np.any(counts < 0):
        raise ValueError("confusion counts must be >= 0")
    if np.any(counts.sum(axis=1) == 0):
        raise ValueError("each true-class row needs at least one count")
    if np.any(counts == 0):
        counts = counts + 1.0
    return counts / counts.sum(axis=1, keepdims=True)


def estimate_initial(sequences: list[GestureSequence]) -> np.ndarray:
    """Initial state distribution from first-gesture frequencies (add-one)."""
    if not sequences:
        raise ValueError("need at least one sequence")
    firsts = np.array([seq.observations[0] for seq in sequences])
    counts = np.bincount(firsts, minlength=2).astype(float) + 1.0
    return counts / counts.sum()


def fit_behavior_models(
    training: dict[Behavior, list[GestureSequence]],
    B: np.ndarray,
    max_iter: int = DEFAULT_BW_MAX_ITER,
    tol: float = DEFAULT_BW_TOL,
) -> dict[Behavior, BehaviorHmm]:
    """One Baum-Welch-trained model per behavior, its pi estimated from
    first-gesture frequencies."""
    models = {}
    for behavior, sequences in training.items():
        if not sequences:
            raise ValueError(f"no training sequences for {behavior}")
        pi = estimate_initial(sequences)
        A, _ = baum_welch(sequences, B=B, pi=pi, max_iter=max_iter, tol=tol)
        models[behavior] = BehaviorHmm(pi=pi, A=A, B=B)
    return models


@dataclass
class BehaviorClassification:
    behavior: Behavior | None
    scores: dict[Behavior, float]
    tie: bool = False
    unclassifiable: bool = False


def classify_behavior(
    models: dict[Behavior, BehaviorHmm], seq: GestureSequence
) -> BehaviorClassification:
    """The behavior whose model gives the highest forward log-likelihood per
    symbol; ties resolve in the fixed order surfing < working < gaming.
    Unclassifiable when no model can emit the sequence."""
    if len(models) < 2:
        raise ValueError("need at least two behavior models")
    ordered = [b for b in Behavior if b in models]
    scores = {b: forward_log_likelihood(models[b], seq) / len(seq) for b in ordered}
    finite = {b: s for b, s in scores.items() if np.isfinite(s)}
    if not finite:
        return BehaviorClassification(behavior=None, scores=scores, unclassifiable=True)
    best_score = max(finite.values())
    winners = [b for b in ordered if np.isfinite(scores[b]) and scores[b] == best_score]
    return BehaviorClassification(behavior=winners[0], scores=scores, tie=len(winners) > 1)


def _profile(p_typing, typing_run, mouse_run) -> BehaviorHmm:
    """The hidden chain of a behavior as a perfect classifier sees it:
    emissions B = I, so each observation is its gesture."""
    a = 1.0 / typing_run
    b = 1.0 / mouse_run
    return BehaviorHmm(
        pi=np.array([p_typing, 1.0 - p_typing]),
        A=np.array([[1.0 - a, a], [b, 1.0 - b]]),
        B=np.eye(2),
    )


# Quantified keyboard/mouse usage profiles.  Stationary typing fractions
# 0.25 / 0.65 / 0.50, with gaming switching the fastest; run lengths chosen
# so each chain's stationary distribution matches its typing fraction.
PROFILES: dict[Behavior, BehaviorHmm] = {
    Behavior.SURFING: _profile(0.25, typing_run=2.0, mouse_run=6.0),
    Behavior.WORKING: _profile(0.65, typing_run=6.0, mouse_run=42.0 / 13.0),
    Behavior.GAMING: _profile(0.50, typing_run=2.0, mouse_run=2.0),
}


def sample_behavior_sequence(hmm: BehaviorHmm, length: int, seed: int = 0) -> GestureSequence:
    """Sample a hidden gesture chain from hmm.pi and hmm.A, then emit each
    hidden state through hmm.B, all from default_rng(seed): the states in
    order, then the observations in order."""
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = np.random.default_rng(seed)
    hidden = np.empty(length, dtype=int)
    hidden[0] = rng.choice(2, p=hmm.pi)
    for t in range(1, length):
        hidden[t] = rng.choice(2, p=hmm.A[hidden[t - 1]])
    observations = np.array([rng.choice(2, p=hmm.B[h]) for h in hidden])
    return GestureSequence(observations=observations)
