"""Subcarrier selection and low-pass filtering of CSI amplitude.

Desk-scale hand motion at 2-60 cm/s crosses roughly 15 Fresnel zones per
second at most, so everything informative in the amplitude series sits
below ~7.5 Hz; the default filter cuts there.

The filter is the bilinear-transform Butterworth design (Oppenheim &
Schafer, Discrete-Time Signal Processing, sec. 7.1), applied as a
convolution with its impulse response by FFT overlap-add (Stockham 1966,
"High-speed convolution and correlation"), in numpy alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._workers import thread_map, threads
from .channel import CsiTrace

DEFAULT_CUTOFF_HZ = 7.5
DEFAULT_ORDER = 4

# The impulse response is cut where the slowest pole's envelope r**k falls
# below this; what follows is far below a float's resolution of the input.
_TAIL = 1e-20

# Overlap-add rows per transform step of _convolve_offset.  At the default
# filter (16,384-point transforms) on 549,920 samples, steps of 2, 4, 8, 16
# and all 40 rows took 15.5, 12.9, 13.5, 15.0 and 18.5 ms and held 1.2, 2.2,
# 4.2, 8.2 and 15.1 MiB besides the output (medians of 15, 2 vCPUs).
_STEP_ROWS = 4


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
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise ValueError("fs must be positive and finite")


@dataclass(frozen=True)
class FilterSpec:
    """Low-pass Butterworth specification."""

    cutoff_hz: float = DEFAULT_CUTOFF_HZ
    order: int = DEFAULT_ORDER

    def __post_init__(self):
        if not 0 < self.cutoff_hz < math.inf:
            raise ValueError("cutoff must be positive and finite")
        if self.order < 2 or self.order % 2 != 0:
            raise ValueError("order must be a positive even integer")


def _row_variance(row: np.ndarray, a: np.ndarray, d: np.ndarray) -> np.float64:
    """np.abs(row).var(dtype=np.float64), bit for bit, in numpy's own var
    steps: the float32 |H| of the complex64 row, written into a, is summed
    in float64, and its float64 deviations, written into d, are squared in
    place."""
    np.abs(row, out=a)
    n = a.size
    m = np.add.reduce(a, dtype=np.float64, keepdims=True)
    m /= n
    np.subtract(a, m, out=d)
    np.multiply(d, d, out=d)
    return np.add.reduce(d) / n


def subcarrier_variances(trace: CsiTrace) -> np.ndarray:
    """Variance of |H| over the trace, per subcarrier.

    The rows are split into min(threads, rows) contiguous runs, mapped by
    _workers.thread_map (numpy releases the GIL in abs and the sums); each
    row's variance equals the row of np.abs(trace.samples).var(axis=1,
    dtype=np.float64) bit for bit.  A run's scratch is one float32 |H| row
    and one float64 deviation row, 12 bytes per sample and run, allocated
    by the calling thread: rows allocated in the worker threads stay
    resident in their malloc arenas after the call.
    """
    samples = trace.samples
    if samples.size == 0:
        raise ValueError("trace is empty")
    n = samples.shape[1]
    tasks = [(run, np.empty(n, np.float32), np.empty(n))
             for run in np.array_split(samples, min(threads(samples.size), len(samples)))]

    def variances(task) -> list[np.float64]:
        run, a, d = task
        return [_row_variance(row, a, d) for row in run]

    return np.concatenate(thread_map(variances, tasks, samples.size))


def select_subcarrier(trace: CsiTrace) -> AmplitudeSeries:
    """Pick the subcarrier whose amplitude variance is largest.

    Motion sensitivity differs per subcarrier; the variance of |H| over the
    whole trace ranks them.  Ties break toward the lowest index.  The chosen
    row's float32 |H| is written straight into the series' float64 array,
    the bits of np.abs(row).astype(float) without the float32 row.
    """
    variances = subcarrier_variances(trace)
    # an all-zero trace has only zero variances, so the samples need a
    # scan of their own only when no variance is non-zero or NaN
    if not np.any(variances) and not np.any(trace.samples):
        raise ValueError("all-zero trace: no informative subcarrier")
    idx = int(np.argmax(variances))
    values = np.abs(trace.samples[idx], out=np.empty(trace.n_samples))
    return AmplitudeSeries(fs=trace.fs, values=values, source_subcarrier=idx)


def _poles(spec: FilterSpec, fs: float) -> np.ndarray:
    """One digital pole of each conjugate pair, the slowest first.

    The analog Butterworth poles on the circle of the prewarped cutoff
    2*fs*tan(pi*fc/fs) map through the bilinear transform
    z = (2*fs + s) / (2*fs - s).
    """
    if not spec.cutoff_hz < fs / 2:
        raise ValueError(
            f"cutoff {spec.cutoff_hz} Hz must be below the Nyquist rate {fs / 2} Hz"
        )
    k = np.arange(spec.order // 2)
    analog = (2 * fs * np.tan(np.pi * spec.cutoff_hz / fs)
              * np.exp(1j * np.pi * (2 * k + spec.order + 1) / (2 * spec.order)))
    return (2 * fs + analog) / (2 * fs - analog)


def design_sos(spec: FilterSpec, fs: float) -> np.ndarray:
    """Second-order sections for the given filter at sampling rate fs.

    Row i is [g, 2g, g, 1, -2 Re p, |p|^2] for the i-th conjugate pole pair
    p: both zeros sit at z = -1, and g = |1 - p|^2 / 4 gives each section
    unity gain at DC.
    """
    p = _poles(spec, fs)
    g = np.abs(1 - p) ** 2 / 4
    return np.column_stack([g, 2 * g, g, np.ones_like(g), -2 * p.real, np.abs(p) ** 2])


def _impulse_response(spec: FilterSpec, fs: float, n: int) -> np.ndarray:
    """The cascade's impulse response, cut at n taps or where it has decayed.

    A section's denominator alone responds with r**k sin((k+1) theta) / sin
    theta to an impulse, for its pole r*exp(j theta); the numerator's three
    taps follow, and the sections' spectra multiply, two at a time at a
    length where the product of two cut responses does not alias.
    """
    b = design_sos(spec, fs)[:, :3, None]
    p = _poles(spec, fs)
    r, theta = np.abs(p)[:, None], np.angle(p)[:, None]
    # r**k < _TAIL from k = cut / decay on, for the slowest pole's r
    decay, cut = -math.log(r[0, 0]), -math.log(_TAIL)
    taps = n if decay * n <= cut else int(cut / decay) + 1
    k = np.arange(taps)
    v = np.pad(r ** k * np.sin((k + 1) * theta) / np.sin(theta), ((0, 0), (2, 0)))
    sections = b[:, 0] * v[:, 2:] + b[:, 1] * v[:, 1:-1] + b[:, 2] * v[:, :-2]
    size = 1 << (2 * taps - 2).bit_length()
    h = sections[0]
    for section in sections[1:]:
        h = np.fft.irfft(np.fft.rfft(h, size) * np.fft.rfft(section, size), size)[:taps]
    return h


def _convolve_offset(x: np.ndarray, level: float, h: np.ndarray) -> np.ndarray:
    """level + (h * (x - level))[:len(x)] by FFT overlap-add.

    x - level is cut into blocks, one per row of a 2-D array with
    len(h) - 1 zeros of room, so that the circular products of one
    transform are the blocks' linear convolutions; each row's tail then
    adds onto the start of the next.  Transforms of at least four times
    len(h) cost least per sample of the multiples 2 to 64 tried on 550,000
    samples; a short x is one block.  Rows are transformed _STEP_ROWS at a
    time into the output, and the last row's tail is carried into the next
    step, so besides its output it holds one step's padded rows, their
    transforms, products and inverses, about 4 x _STEP_ROWS rows of floats.
    """
    n, taps = len(x), len(h)
    size = 1 << (min(4 * taps, n + taps - 1) - 1).bit_length()
    block = size - taps + 1
    spectrum = np.fft.rfft(h, size)
    out = np.empty(n)
    tail = None
    for a in range(0, n, _STEP_ROWS * block):
        rows, rest = divmod(min(_STEP_ROWS * block, n - a), block)
        b = a + rows * block
        padded = np.zeros((rows + (rest > 0), size))
        np.subtract(x[a:b].reshape(rows, block), level, out=padded[:rows, :block])
        np.subtract(x[b:b + rest], level, out=padded[rows:, :rest].reshape(-1))
        y = np.fft.irfft(np.fft.rfft(padded) * spectrum, size)
        if tail is not None:
            y[0, :taps - 1] += tail
        y[1:, :taps - 1] += y[:-1, block:]
        tail = y[-1, block:].copy()
        np.add(y[:rows, :block], level, out=out[a:b].reshape(rows, block))
        np.add(y[rows:, :rest], level, out=out[b:b + rest].reshape(len(y) - rows, rest))
    return out


def butterworth_lowpass(series: AmplitudeSeries, spec: FilterSpec | None = None) -> AmplitudeSeries:
    """Causal single-pass Butterworth low-pass of the series.

    The pre-history is pinned to the leading signal level, the mean of the
    first 50 samples, as if the input had always been at that level: the
    output is level + h * (x - level) for the impulse response h, so a
    constant series passes through unchanged (unity DC gain, no startup
    transient).  Output length equals input length.
    """
    spec = spec or FilterSpec()
    x = series.values
    h = _impulse_response(spec, series.fs, max(len(x), 1))
    if len(x):
        # one noisy sample as the pre-history would leave a start-up
        # transient the segmenter mistakes for motion
        x = _convolve_offset(x, float(np.mean(x[:50])), h)
    return AmplitudeSeries(fs=series.fs, values=x, source_subcarrier=series.source_subcarrier)


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
) -> float:
    """Steady-state sine gain of the implemented filter at one frequency.

    Runs a unit sinusoid long enough to settle, discards a 2 s warm-up, and
    projects the tail onto quadrature references over whole periods.
    """
    spec = spec or FilterSpec()
    if freq_hz <= 0 or freq_hz >= fs / 2:
        raise ValueError("frequency must sit inside (0, fs/2)")
    period = 1.0 / freq_hz
    measure_s = max(1.0, 2.0 * period)
    n_periods = max(1, int(round(measure_s / period)))
    measure_s = n_periods * period
    n_total = int(round((2.0 + measure_s) * fs))
    t = np.arange(n_total) / fs
    x = np.sin(2 * np.pi * freq_hz * t)
    y = butterworth_lowpass(AmplitudeSeries(fs=fs, values=x), spec).values
    warm = int(round(2.0 * fs))
    tail, t_tail = y[warm:], t[warm:]
    ref_s = np.sin(2 * np.pi * freq_hz * t_tail)
    ref_c = np.cos(2 * np.pi * freq_hz * t_tail)
    a = 2.0 * np.mean(tail * ref_s)
    b = 2.0 * np.mean(tail * ref_c)
    return float(np.hypot(a, b))
