"""Subcarrier selection and low-pass filtering of CSI amplitude.

Desk-scale hand motion at 2-60 cm/s crosses roughly 15 Fresnel zones per
second at most, so everything informative in the amplitude series sits
below ~7.5 Hz; the default filter cuts there.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import butter, sosfilt, sosfilt_zi

from .channel import CsiTrace

DEFAULT_CUTOFF_HZ = 7.5
DEFAULT_ORDER = 4


@dataclass
class AmplitudeSeries:
    """Amplitude of one subcarrier over time."""

    fs: float
    values: np.ndarray
    source_subcarrier: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")
        if self.fs <= 0:
            raise ValueError("fs must be positive")


@dataclass(frozen=True)
class FilterSpec:
    """Low-pass Butterworth specification."""

    cutoff_hz: float = DEFAULT_CUTOFF_HZ
    order: int = DEFAULT_ORDER

    def __post_init__(self):
        if self.cutoff_hz <= 0:
            raise ValueError("cutoff must be positive")
        if self.order < 2 or self.order % 2 != 0:
            raise ValueError("order must be a positive even integer")


def subcarrier_variances(trace: CsiTrace) -> np.ndarray:
    """Variance of |H| over the trace, per subcarrier.

    One row's amplitude exists at a time; each row's variance equals the
    row of np.abs(trace.samples).var(axis=1) bit for bit.
    """
    return np.array([np.abs(row).var() for row in trace.samples])


def select_subcarrier(trace: CsiTrace) -> AmplitudeSeries:
    """Pick the subcarrier whose amplitude variance is largest.

    Motion sensitivity differs per subcarrier; the variance of |H| over the
    whole trace ranks them.  Ties break toward the lowest index.
    """
    if trace.samples.size == 0:
        raise ValueError("trace is empty")
    variances = subcarrier_variances(trace)
    # an all-zero trace has only zero variances, so the samples need a
    # scan of their own only when no variance is non-zero or NaN
    if not np.any(variances) and not np.any(trace.samples):
        raise ValueError("all-zero trace: no informative subcarrier")
    idx = int(np.argmax(variances))
    return AmplitudeSeries(
        fs=trace.fs, values=np.abs(trace.samples[idx]), source_subcarrier=idx
    )


def design_sos(spec: FilterSpec, fs: float) -> np.ndarray:
    """Second-order sections for the given filter at sampling rate fs."""
    if spec.cutoff_hz >= fs / 2:
        raise ValueError(
            f"cutoff {spec.cutoff_hz} Hz must be below the Nyquist rate {fs / 2} Hz"
        )
    return butter(spec.order, spec.cutoff_hz, btype="low", fs=fs, output="sos")


def butterworth_lowpass(series: AmplitudeSeries, spec: FilterSpec | None = None) -> AmplitudeSeries:
    """Causal single-pass low-pass filtering as a cascade of biquads.

    State is initialised to the steady state for the leading signal level,
    so a constant series passes through unchanged (unity DC gain, no
    startup transient).  Output length equals input length.
    """
    spec = spec or FilterSpec()
    sos = design_sos(spec, series.fs)
    # pre-history pinned to the local signal level; one noisy sample would
    # leave a start-up transient the segmenter mistakes for motion
    level = float(np.mean(series.values[:50])) if len(series.values) else 0.0
    filtered, _ = sosfilt(sos, series.values, zi=sosfilt_zi(sos) * level)
    return AmplitudeSeries(
        fs=series.fs, values=filtered, source_subcarrier=series.source_subcarrier
    )


def filtered_series(trace: CsiTrace, spec: FilterSpec | None = None) -> AmplitudeSeries:
    """The front end: the most varying subcarrier's amplitude, low-passed."""
    return butterworth_lowpass(select_subcarrier(trace), spec)


def analytic_gain(freq_hz, spec: FilterSpec | None = None) -> np.ndarray:
    """Ideal Butterworth magnitude response 1/sqrt(1 + (f/fc)^(2*order))."""
    spec = spec or FilterSpec()
    f = np.asarray(freq_hz, dtype=float)
    return 1.0 / np.sqrt(1.0 + (f / spec.cutoff_hz) ** (2 * spec.order))


def measured_gain(
    freq_hz: float,
    fs: float,
    spec: FilterSpec | None = None,
    warmup_s: float = 2.0,
) -> float:
    """Steady-state sine gain of the implemented filter at one frequency.

    Runs a unit sinusoid long enough to settle, discards the warm-up, and
    projects the tail onto quadrature references over whole periods.
    """
    spec = spec or FilterSpec()
    if freq_hz <= 0 or freq_hz >= fs / 2:
        raise ValueError("frequency must sit inside (0, fs/2)")
    period = 1.0 / freq_hz
    measure_s = max(1.0, 2.0 * period)
    n_periods = max(1, int(round(measure_s / period)))
    measure_s = n_periods * period
    n_total = int(round((warmup_s + measure_s) * fs))
    t = np.arange(n_total) / fs
    x = np.sin(2 * np.pi * freq_hz * t)
    y = butterworth_lowpass(AmplitudeSeries(fs=fs, values=x), spec).values
    tail = y[int(round(warmup_s * fs)):]
    t_tail = t[int(round(warmup_s * fs)):]
    ref_s = np.sin(2 * np.pi * freq_hz * t_tail)
    ref_c = np.cos(2 * np.pi * freq_hz * t_tail)
    a = 2.0 * np.mean(tail * ref_s)
    b = 2.0 * np.mean(tail * ref_c)
    return float(np.hypot(a, b))
