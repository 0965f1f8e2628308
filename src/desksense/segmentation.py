"""Automatic gesture segmentation from a filtered amplitude series.

The detector works on two derived traces: nor1, a sliding-window variance
of the input, and nor2, the variance of nor1's moving sum scaled by a fixed
gain.  Both sit near zero while the channel is stationary; when a gesture
starts, nor2 outruns nor1 sharply.  Start points come from sweeping an
accumulator threshold over the nor2-nor1 difference (50 threshold values,
keeping the first crossing each), then requiring six consecutive crossing
candidates to agree within a few samples.  The end point is where nor2
falls back to its value at the start point.  Segments whose amplitude span
is too small are dropped, and returned apart from the kept ones.

Both searches look only as far ahead as they need: each runs on a prefix of
the remaining trace that starts at _FIRST_PREFIX samples and doubles until
the answer is known (every threshold crossed; a sustained end run found) or
the prefix reaches the end of the trace.  Work per gesture is then bounded
by the gesture and its gap, not by what is left of the trace, so the scan
is linear in trace length.  Cumulative sums run sequentially, so the
prefix's sums equal the leading sums of the whole remainder bit for bit,
and the segments equal those of a scan to the end of the trace.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .preprocess import AmplitudeSeries

# Amplitude-span floor: 25% of the median gesture span observed on the
# calibration corpus generated with the channel defaults (median ~= 3.2).
DEFAULT_MIN_AMPLITUDE_SPAN = 0.8

# Samples the end condition must persist; nor2 of band-limited input dips to
# ~0 wherever nor1 is locally flat, and those lulls are shorter than this.
DEFAULT_END_HOLD = 200

# The start sweep's 50 accumulator thresholds, 0.1 to 5.0, are absolute, so
# they are calibrated together with channel.DEFAULT_STATIC_AMPLITUDE.  A
# start point is the first of _STABILITY_COUNT consecutive crossing
# candidates that lie within _STABILITY_SPREAD samples.
_SE_VALUES = 0.1 + 0.1 * np.arange(50)
_STABILITY_COUNT = 6
_STABILITY_SPREAD = 10
_SMOOTHING_GAIN = 100.0  # nor2 over the variance of nor1's moving sum

# First look-ahead of the start sweep and the end-point search, in samples;
# it doubles until the search has its answer.  About 4 s at the default
# 1 kHz: a gesture and its gap or two.
_FIRST_PREFIX = 4096


@dataclass(frozen=True)
class SegmenterParams:
    window: float = 1.0 / 20.0        # seconds
    min_amplitude_span: float = DEFAULT_MIN_AMPLITUDE_SPAN
    end_hold: int = DEFAULT_END_HOLD

    def __post_init__(self):
        if not 0 < self.window < math.inf:
            raise ValueError("window must be positive and finite")
        if not 0 < self.min_amplitude_span < math.inf:
            raise ValueError("min_amplitude_span must be positive and finite")
        if self.end_hold < 1:
            raise ValueError("end_hold must be >= 1 sample")

    def window_samples(self, fs: float) -> int:
        w = int(round(self.window * fs))
        if w < 2:
            raise ValueError("window shorter than 2 samples at this rate")
        return w


@dataclass
class GestureSegment:
    """One detected gesture: index span plus the amplitude slice it covers."""

    start_idx: int
    end_idx: int
    waveform: np.ndarray
    fs: float
    truncated: bool = False

    def __post_init__(self):
        self.waveform = np.asarray(self.waveform, dtype=float)
        if not (0 <= self.start_idx < self.end_idx):
            raise ValueError("segment indices out of order")
        if len(self.waveform) != self.end_idx - self.start_idx + 1:
            raise ValueError("waveform length must match the index span")

    @property
    def amplitude_span(self) -> float:
        return float(self.waveform.max() - self.waveform.min())


def sliding_variance(values: np.ndarray, window_samples: int) -> np.ndarray:
    """Population variance over each window of `window_samples` consecutive samples.

    Besides the input it holds three arrays of the input's length: the
    centred copy, squared in place and then overwritten by the windowed
    second moment, which becomes the result; the running sum; and the
    windowed first moment."""
    x = np.asarray(values, dtype=float)
    w = int(window_samples)
    if w < 2:
        raise ValueError("window must cover at least 2 samples")
    if len(x) < w:
        raise ValueError("series shorter than one window")
    x = x - x.mean()  # improves conditioning; variance is shift-invariant
    # s2 / w - (s1 / w) ** 2, with the squares and the quotients taken in place
    running = np.empty(len(x) + 1)
    s1 = _moving_sum(x, w, running)
    np.multiply(x, x, out=x)
    var = _moving_sum(x, w, running, out=x[:len(x) - w + 1])
    var /= w
    s1 /= w
    np.multiply(s1, s1, out=s1)
    var -= s1
    return np.maximum(var, 0.0, out=var)


def moving_sum(values: np.ndarray, window_samples: int) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    w = int(window_samples)
    if len(x) < w:
        raise ValueError("series shorter than one window")
    return _moving_sum(x, w, np.empty(len(x) + 1))


def _moving_sum(x: np.ndarray, w: int, running: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Sums of each w consecutive values of x, by differences of the running
    sum, which is written into `running` (len(x) + 1 floats); into out if
    given (x itself may hold it)."""
    running[0] = 0.0
    np.cumsum(x, out=running[1:])
    return np.subtract(running[w:], running[:-w], out=out)


def smooth_variance(nor1: np.ndarray, window_samples: int) -> np.ndarray:
    """nor2: variance of nor1's moving sum, amplified by _SMOOTHING_GAIN.

    Suppresses the micro-fluctuations nor1 shows in stationary spans while
    reacting strongly where the variance level itself changes.
    """
    nor2 = sliding_variance(moving_sum(nor1, window_samples), window_samples)
    nor2 *= _SMOOTHING_GAIN
    return nor2


def _first_stable_start(candidates: np.ndarray) -> int | None:
    k = _STABILITY_COUNT
    for j in range(len(candidates) - k + 1):
        if candidates[j + k - 1] - candidates[j] < _STABILITY_SPREAD:
            return int(candidates[j])
    return None


def _prefix_ends(start: int, n: int):
    """Ends of the doubling look-ahead windows [start, end), the last one n."""
    length = _FIRST_PREFIX
    while start + length < n:
        yield start + length
        length *= 2
    yield n


def _sweep_candidates(nor1: np.ndarray, nor2: np.ndarray, cursor: int) -> np.ndarray:
    """First index past the cursor where each se value's accumulator drops below 0.

    se decreases by nor2 - nor1 at each sample, so the crossing index is
    where the running maximum of the cumulative difference first exceeds se.
    Once the running maximum passes the largest se, every crossing lies in
    the prefix scanned so far.  The se values increase and the running
    maximum does not decrease, so the indices come out in order.
    """
    for end in _prefix_ends(cursor, len(nor2)):
        diff = np.cumsum(nor2[cursor:end] - nor1[cursor:end])
        running_max = np.maximum.accumulate(diff)
        if running_max[-1] > _SE_VALUES[-1]:
            break
    idx = np.searchsorted(running_max, _SE_VALUES, side="right")
    return idx[idx < len(diff)] + cursor


def mark_end_point(
    nor2: np.ndarray, start_idx: int, params: SegmenterParams | None = None
) -> tuple[int, bool]:
    """First index after start_idx where nor2 returns to its start value.

    The sub-threshold condition must persist for params.end_hold samples
    (or for all that is left of the trace, if that is shorter); nor2 of a
    band-limited series collapses briefly wherever nor1 has a flat moment
    mid-gesture, and those lulls must not terminate the segment.
    Returns (end_idx, truncated); truncated means the trace ended first.
    """
    params = params or SegmenterParams()
    threshold = nor2[start_idx]
    hold = min(params.end_hold, len(nor2) - start_idx - 1)
    if hold > 0:
        for end in _prefix_ends(start_idx + 1, len(nor2)):
            below = nor2[start_idx + 1:end] <= threshold
            counts = np.cumsum(below.astype(np.int64))
            runs = counts[hold - 1:] - np.concatenate([[0], counts[:-hold]])
            sustained = np.nonzero(runs == hold)[0]
            if len(sustained):
                return start_idx + 1 + int(sustained[0]), False
    return len(nor2) - 1, True


def _scan(nor1: np.ndarray, nor2: np.ndarray, params: SegmenterParams):
    """Alternate start-point sweeps and end-point marking along nor1 and nor2,
    float arrays of one length."""
    cursor = 0
    while cursor < len(nor2) - 1:
        candidates = _sweep_candidates(nor1, nor2, cursor)
        if len(candidates) == 0:
            break
        start = _first_stable_start(candidates)
        if start is None:
            # Dispersed candidates mean stationary drift consumed the sweep;
            # resume past them so the next sweep starts with a fresh budget.
            advance = int(candidates[-1])
            cursor = advance if advance > cursor else cursor + 1
            continue
        end, truncated = mark_end_point(nor2, start, params)
        if end <= start:
            break
        yield start, end, truncated
        if truncated:
            break
        cursor = end


@dataclass(frozen=True)
class Segmentation:
    """What one segmentation pass saw: nor1 and nor2, indexed at the window's
    left edge (a window of w samples gives N - 3w + 3 values of each from N
    samples, none below 3w - 2), the kept segments, and those dropped for a
    span below min_amplitude_span.  Each list is disjoint and ordered."""

    nor1: np.ndarray
    nor2: np.ndarray
    segments: list[GestureSegment]
    dropped: list[GestureSegment]

    def __len__(self) -> int:
        # the kept count: perfbench's segment probe counts segments with len()
        return len(self.segments)


def segment(series: AmplitudeSeries, params: SegmenterParams | None = None) -> Segmentation:
    """Cut a filtered amplitude series into gesture segments in one pass:
    the nor1/nor2 construction, start/end marking, and the span floor."""
    params = params or SegmenterParams()
    w = params.window_samples(series.fs)
    nor1, nor2 = np.zeros(0), np.zeros(0)
    if len(series.values) >= 3 * w - 2:
        nor1 = sliding_variance(series.values, w)
        nor2 = smooth_variance(nor1, w)
        nor1 = nor1[: len(nor2)]
    kept, dropped = [], []
    for start, end, truncated in _scan(nor1, nor2, params):
        seg = GestureSegment(start, end, series.values[start:end + 1], series.fs, truncated)
        (kept if seg.amplitude_span >= params.min_amplitude_span else dropped).append(seg)
    return Segmentation(nor1, nor2, kept, dropped)
