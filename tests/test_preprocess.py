import contextlib
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import butter, sosfilt, sosfilt_zi

from desksense import _workers, preprocess
from desksense.channel import CsiTrace
from desksense.corpus import keystroke_burst_script, simulate_script
from desksense.preprocess import (
    AmplitudeSeries,
    FilterSpec,
    analytic_gain,
    butterworth_lowpass,
    design_sos,
    measured_gain,
    select_subcarrier,
    subcarrier_variances,
)

FS = 1000.0
# Bytes per sample of one row's variance temporaries: the float32 |H| of a
# complex64 row and its float64 deviations.
ROW_BYTES = 4 + 8


def trace_from_amplitudes(rows, fs=FS):
    return CsiTrace(fs=fs, samples=np.asarray(rows, dtype=np.complex64))


@contextlib.contextmanager
def threads(workers):
    """workers CPUs, and a thread floor of one sample, so that a map of any
    trace runs on min(workers, tasks) threads."""
    with mock.patch.object(_workers, "cpus", lambda: workers), \
            mock.patch.object(_workers, "_MIN_SAMPLES_PER_THREAD", 1):
        yield


class TestSelectSubcarrier:
    def test_single_active_subcarrier(self):
        t = np.arange(2000) / FS
        rows = [np.ones(2000) for _ in range(30)]
        rows[17] = 1.0 + 0.3 * np.sin(2 * np.pi * 2.0 * t)
        series = select_subcarrier(trace_from_amplitudes(rows))
        assert series.source_subcarrier == 17
        assert series.fs == FS

    def test_decaying_gain_profile_selects_low_index(self, config):
        script, duration = keystroke_burst_script(config, count=3, gap=1.0)
        trace = simulate_script(config, script, duration, seed=5)
        series = select_subcarrier(trace)
        assert series.source_subcarrier < 5

    def test_tie_breaks_to_lowest_index(self):
        t = np.arange(500) / FS
        wave = 2.0 + np.sin(2 * np.pi * 3.0 * t)
        rows = [np.ones(500), wave.copy(), wave.copy()]
        series = select_subcarrier(trace_from_amplitudes(rows))
        assert series.source_subcarrier == 1

    def test_all_zero_trace_rejected(self):
        with pytest.raises(ValueError, match="no informative subcarrier"):
            select_subcarrier(trace_from_amplitudes(np.zeros((4, 100))))

    def test_scale_invariance_of_selection(self):
        rng = np.random.default_rng(3)
        rows = rng.uniform(0.5, 2.0, (8, 400)) + rng.normal(0, 0.1, (8, 400))
        base = select_subcarrier(trace_from_amplitudes(rows))
        scaled = select_subcarrier(trace_from_amplitudes(rows * 7.5))
        assert base.source_subcarrier == scaled.source_subcarrier


def whole_array_select(trace):
    """Subcarrier selection over the whole (S, T) amplitude array at once."""
    amp = np.abs(trace.samples)
    if amp.size == 0:
        raise ValueError("trace is empty")
    if not np.any(amp):
        raise ValueError("all-zero trace: no informative subcarrier")
    idx = int(np.argmax(amp.var(axis=1, dtype=np.float64)))
    return AmplitudeSeries(fs=trace.fs, values=amp[idx], source_subcarrier=idx)


def outcome(select, trace):
    """(index, value bytes) of a selection, or the message it raised."""
    try:
        series = select(trace)
    except ValueError as exc:
        return str(exc)
    return series.source_subcarrier, series.values.tobytes()


@st.composite
def traces_with_repeated_rows(draw):
    """Complex traces whose rows are drawn from a small pool, so equal rows
    (ties), zero rows and all-zero traces all occur.  A trace needs one
    subcarrier at least (test_errors_unchanged checks the refusal)."""
    n_sub = draw(st.integers(1, 6))
    n = draw(st.sampled_from([0, 1, 2, 127, 128, 129, 1100]) | st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.0, 1e-3, 1.0, 8.0, 1e6]))
    pool = rng.normal(0.0, scale, (3, 2, n)) + draw(st.sampled_from([0.0, 8.0]))
    pool[0] = 0.0
    picks = draw(st.lists(st.integers(0, 2), min_size=n_sub, max_size=n_sub))
    return CsiTrace(fs=FS, samples=(pool[picks, 0] + 1j * pool[picks, 1]).astype(np.complex64))


class TestRowStreamedSelection:
    @given(traces_with_repeated_rows())
    def test_variances_match_whole_array(self, trace):
        if trace.samples.size == 0:
            with pytest.raises(ValueError, match="trace is empty"):
                subcarrier_variances(trace)
            return
        want = np.abs(trace.samples).var(axis=1, dtype=np.float64)
        got = subcarrier_variances(trace)
        assert got.shape == want.shape and got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @given(traces_with_repeated_rows())
    def test_selection_matches_whole_array(self, trace):
        assert outcome(select_subcarrier, trace) == outcome(whole_array_select, trace)

    @pytest.mark.parametrize("rows, message", [
        (np.zeros((3, 0)), "trace is empty"),
        (np.zeros((0, 5)), "subcarriers must be >= 1"),
        (np.zeros((4, 100)), "all-zero trace: no informative subcarrier"),
    ])
    def test_errors_unchanged(self, rows, message):
        # a trace without subcarriers is refused where it is built
        def select_from(select):
            return lambda amplitudes: select(trace_from_amplitudes(amplitudes))

        got = outcome(select_from(select_subcarrier), rows)
        assert got == outcome(select_from(whole_array_select), rows) == message

    def test_constant_rows_are_not_all_zero(self):
        # every variance is zero, yet the trace is not: the lowest index wins
        rows = np.zeros((3, 50), dtype=complex)
        rows[1:] = 8.0 + 8.0j
        trace = trace_from_amplitudes(rows)
        assert outcome(select_subcarrier, trace) == outcome(whole_array_select, trace)
        assert outcome(select_subcarrier, trace)[0] == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_row_resolves_as_before(self):
        rows = np.ones((3, 50), dtype=complex)
        rows[2, 7] = np.nan
        rows[1, 3] = np.inf
        trace = trace_from_amplitudes(rows)
        assert outcome(select_subcarrier, trace) == outcome(whole_array_select, trace)
        assert "finite" in outcome(select_subcarrier, trace)

    def test_simulated_trace_matches_whole_array(self, config):
        script, duration = keystroke_burst_script(config, count=4)
        trace = simulate_script(config, script, duration, seed=9)
        want = np.abs(trace.samples).var(axis=1, dtype=np.float64)
        assert subcarrier_variances(trace).tobytes() == want.tobytes()
        assert outcome(select_subcarrier, trace) == outcome(whole_array_select, trace)

    def test_peak_memory_a_few_rows(self, config, monkeypatch):
        # the whole (30, T) amplitude array and its variance temporaries are
        # never built: the peak is one row's temporaries per worker, two
        # workers here, and slack of one more
        monkeypatch.setattr(_workers, "cpus", lambda: 2)
        script, _duration = keystroke_burst_script(config, count=2)
        trace = simulate_script(config, script, 60.0, seed=4)
        assert trace.subcarriers == 30
        tracemalloc.start()
        try:
            series = select_subcarrier(trace)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert series.values.nbytes == trace.n_samples * 8
        assert peak <= 3 * trace.n_samples * ROW_BYTES


@st.composite
def traces_from_a_row_pool(draw):
    """Non-empty traces whose rows come from a pool of a zero row, a constant
    row, a NaN-holding row and two noisy rows, so ties occur."""
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.normal(1.0, 0.3, (5, n)) + 1j * rng.normal(0.0, 0.3, (5, n))
    pool[0] = 0.0
    pool[1] = 2.0 - 1.0j
    pool[2, draw(st.integers(0, n - 1))] = np.nan
    picks = draw(st.lists(st.integers(0, 4), min_size=1, max_size=40))
    return CsiTrace(fs=FS, samples=pool[picks].astype(np.complex64))


WORKER_COUNTS = [1, 2, 3, 8]


class TestThreadedVariances:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @settings(max_examples=40)
    @given(trace=traces_from_a_row_pool())
    def test_same_bits_at_any_worker_count(self, workers, trace):
        with threads(workers):
            got = subcarrier_variances(trace)
            selected = outcome(select_subcarrier, trace)
        want = np.abs(trace.samples).var(axis=1, dtype=np.float64)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert selected == outcome(whole_array_select, trace)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_peak_memory_one_row_per_worker(self, workers):
        # one row's temporaries per worker, then the winning row, plus slack
        rng = np.random.default_rng(workers)
        trace = trace_from_amplitudes(rng.uniform(0.5, 2.0, (12, 50_000)))
        tracemalloc.start()
        try:
            with threads(workers):
                series = select_subcarrier(trace)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert series.values.nbytes == trace.n_samples * 8
        assert peak <= (workers + 1) * trace.n_samples * ROW_BYTES

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_one_scratch_pair_per_thread(self, monkeypatch, workers):
        # the calling thread allocates one float32 |H| row and one float64
        # deviation row per thread, and the rows' variances reuse them; with
        # thread switches forced every microsecond, a pair two threads
        # wrote at once would change the bits
        row_variance = preprocess._row_variance
        used = []

        def recording(row, a, d):
            used.append((id(a), id(d), a.dtype.name, d.dtype.name, len(a), len(d)))
            return row_variance(row, a, d)

        monkeypatch.setattr(preprocess, "_row_variance", recording)
        trace = trace_from_amplitudes(np.random.default_rng(workers).uniform(0.5, 2.0, (40, 5000)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with threads(workers):
                got = subcarrier_variances(trace)
        finally:
            sys.setswitchinterval(interval)
        want = np.abs(trace.samples).var(axis=1, dtype=np.float64)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert len(used) == 40
        assert {u[2:] for u in used} == {("float32", "float64", 5000, 5000)}
        assert 1 <= len({u[:2] for u in used}) <= workers

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_row_error_reaches_the_caller(self, monkeypatch, workers):
        row_variance = preprocess._row_variance

        def failing_on_nan(row, *scratch):
            if np.isnan(row).any():
                raise RuntimeError("bad row")
            return row_variance(row, *scratch)

        monkeypatch.setattr(preprocess, "_row_variance", failing_on_nan)
        rows = np.ones((20, 100), dtype=complex)
        rows[5, 3] = np.nan
        with threads(workers), pytest.raises(RuntimeError, match="bad row"):
            subcarrier_variances(trace_from_amplitudes(rows))

    @pytest.mark.parametrize("n_samples, cpus, want", [(9_600, 3, []), (36_000, 2, [2] * 3),
                                                       (36_000, 3, [3] * 3)])
    def test_threads_only_over_the_floor(self, config, monkeypatch, n_samples, cpus, want):
        # evaluate's median trace of 9,600 x 30 samples stays in the calling
        # thread; the 36 s trace of the trace_files benchmark takes every
        # CPU, for the simulator's fill and noise and then for the selection
        pools = []

        class CountedPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(_workers, "cpus", lambda: cpus)
        monkeypatch.setattr(_workers, "ThreadPoolExecutor", CountedPool)
        script, _duration = keystroke_burst_script(config, count=2)
        trace = simulate_script(config, script, n_samples / config.simulation.fs, seed=1)
        assert trace.samples.shape == (30, n_samples)
        select_subcarrier(trace)
        assert pools == want


def whole_array_convolve_offset(x, level, h):
    """level + (h * (x - level))[:len(x)] by overlap-add over all rows of
    blocks in one transform."""
    n, taps = len(x), len(h)
    size = 1 << (min(4 * taps, n + taps - 1) - 1).bit_length()
    block = size - taps + 1
    rows, rest = divmod(n, block)
    padded = np.zeros((rows + (rest > 0), size))
    np.subtract(x[:rows * block].reshape(rows, block), level, out=padded[:rows, :block])
    np.subtract(x[rows * block:], level, out=padded[rows:, :rest].reshape(-1))
    y = np.fft.irfft(np.fft.rfft(padded) * np.fft.rfft(h, size), size)
    y[1:, :taps - 1] += y[:-1, block:]
    out = np.empty((len(y), block))
    np.add(y[:, :block], level, out=out)
    return out.reshape(-1)[:n]


def overlap_add_block(taps):
    """Samples per row of _convolve_offset's transforms on a long input."""
    return (1 << (4 * taps - 1).bit_length()) - taps + 1


class TestSteppedOverlapAdd:
    """_convolve_offset transforms a few rows at a time, bit for bit the
    overlap-add of all rows at once."""

    @staticmethod
    def assert_same_bits(n, taps, seed=0):
        rng = np.random.default_rng(seed)
        x = 8.0 + rng.normal(0.0, 1.0, n).cumsum() * 0.01
        h = rng.normal(0.0, 1.0, taps) * np.exp(-np.arange(taps) / (taps / 4 + 1))
        level = float(np.mean(x[:50]))
        got = preprocess._convolve_offset(x, level, h)
        assert got.shape == (n,)
        assert got.tobytes() == whole_array_convolve_offset(x, level, h).tobytes()

    @pytest.mark.parametrize("taps", [1, 2, 50])
    @pytest.mark.parametrize("offset", [(0, 1), (1, -1), (1, 0), (1, 1), ("k", -1), ("k", 1),
                                        ("2k", -1), ("2k", 1), ("3k", 0)])
    def test_lengths_around_blocks_and_steps(self, taps, offset):
        # 1, block - 1, block, block + 1 and k * block +- 1, for k rows a step
        k = preprocess._STEP_ROWS
        rows, delta = offset
        rows = {"k": k, "2k": 2 * k, "3k": 3 * k}.get(rows, rows)
        self.assert_same_bits(max(rows * overlap_add_block(taps) + delta, 1), taps)

    @pytest.mark.parametrize("n", [1, 13_829, 13_830, 13_831, 4 * 13_830 + 1, 549_920])
    def test_default_filter(self, n):
        h = preprocess._impulse_response(FilterSpec(), FS, n)
        if n > 1_000:
            assert overlap_add_block(len(h)) == 13_830
        x = 8.0 + np.random.default_rng(n).normal(0.0, 0.3, n)
        got = preprocess._convolve_offset(x, 8.0, h)
        assert got.tobytes() == whole_array_convolve_offset(x, 8.0, h).tobytes()

    @settings(max_examples=60)
    @given(n=st.integers(1, 5_000), taps=st.integers(1, 120), step=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_any_step(self, n, taps, step, seed):
        with mock.patch.object(preprocess, "_STEP_ROWS", step):
            self.assert_same_bits(n, taps, seed)


def sos_response(sos, w):
    """Complex response of a cascade of second-order sections at the angular
    frequencies w (radians per sample)."""
    z = np.exp(-1j * np.asarray(w))[:, None] ** np.arange(3)
    return np.prod((z @ sos[:, :3].T) / (z @ sos[:, 3:].T), axis=1)


# test_dc_gain_is_one's filters
ORDERS = st.sampled_from([2, 4, 6, 8])
RATES = st.floats(20.0, 5000.0)
CUTOFF_FRACTIONS = st.floats(0.01, 0.9)


class TestButterworth:
    @pytest.mark.parametrize("fs", [float("nan"), float("inf"), 0.0, -1.0])
    def test_series_rate_positive_and_finite(self, fs):
        with pytest.raises(ValueError, match="fs must be positive and finite"):
            AmplitudeSeries(fs=fs, values=np.ones(10))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FilterSpec(order=3)
        with pytest.raises(ValueError):
            FilterSpec(cutoff_hz=0.0)
        with pytest.raises(ValueError, match="Nyquist"):
            butterworth_lowpass(AmplitudeSeries(fs=10.0, values=np.ones(100)), FilterSpec())

    def test_constant_passthrough(self):
        series = AmplitudeSeries(fs=FS, values=np.full(500, 3.7))
        out = butterworth_lowpass(series)
        assert out.values.shape == series.values.shape
        np.testing.assert_allclose(out.values, 3.7, rtol=1e-9)

    def test_cutoff_gain(self):
        # analytic magnitude at the corner is exactly 1/sqrt(2)
        gain = measured_gain(7.5, FS)
        assert gain == pytest.approx(1 / np.sqrt(2), abs=0.01)

    def test_stopband_attenuation_60hz(self):
        # analytic oracle: (7.5/60)^4 / sqrt-term ~= 2.44e-4
        assert analytic_gain(60.0) == pytest.approx(2.4414e-4, rel=1e-3)
        assert measured_gain(60.0, FS) <= 3e-4

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, 2000)
        y = rng.normal(0, 1, 2000)
        a, b = 2.5, -1.25
        fx = butterworth_lowpass(AmplitudeSeries(fs=FS, values=x)).values
        fy = butterworth_lowpass(AmplitudeSeries(fs=FS, values=y)).values
        fxy = butterworth_lowpass(AmplitudeSeries(fs=FS, values=a * x + b * y)).values
        np.testing.assert_allclose(fxy, a * fx + b * fy, rtol=1e-9, atol=1e-9)

    def test_sweep_matches_analytic(self):
        # causal implementation tracks the ideal magnitude curve closely
        for f in (0.5, 2.0, 5.0, 7.5, 10.0, 20.0, 40.0, 80.0):
            measured = measured_gain(f, FS)
            ideal = float(analytic_gain(f))
            assert abs(measured - ideal) < 0.01
            if ideal > 0.1:
                assert measured == pytest.approx(ideal, rel=0.01)

    @settings(max_examples=60)
    @given(order=ORDERS, fs=RATES, cutoff_fraction=CUTOFF_FRACTIONS,
           start=st.floats(-100.0, 100.0), level=st.floats(-100.0, 100.0))
    def test_dc_gain_is_one(self, order, fs, cutoff_fraction, start, level):
        spec = FilterSpec(cutoff_hz=cutoff_fraction * fs / 2, order=order)
        sos = design_sos(spec, fs)
        # the gain at z = 1 is the product of each section's (b0+b1+b2)/(a0+a1+a2)
        assert np.prod(sos[:, :3].sum(axis=1) / sos[:, 3:].sum(axis=1)) == pytest.approx(1.0)
        # a step from `start` to a constant `level`, held there until the
        # slowest pole's transient has decayed by e**-40
        radius = max(np.abs(np.roots(section[3:])).max() for section in sos)
        settle = int(40 / -np.log(radius))
        values = np.concatenate([np.full(50, start), np.full(settle + 50, level)])
        out = butterworth_lowpass(AmplitudeSeries(fs=fs, values=values), spec).values
        np.testing.assert_allclose(out[-50:], level, rtol=1e-9, atol=1e-9 * (abs(start) + 1))


class TestAgainstScipy:
    """The numpy design and filter against scipy.signal, which the program
    no longer imports, over test_dc_gain_is_one's filters."""

    @settings(max_examples=200)
    @given(order=ORDERS, fs=RATES, cutoff_fraction=CUTOFF_FRACTIONS)
    def test_design_matches_butter(self, order, fs, cutoff_fraction):
        spec = FilterSpec(cutoff_hz=cutoff_fraction * fs / 2, order=order)
        w = np.linspace(0.0, np.pi, 513)
        want = sos_response(butter(order, spec.cutoff_hz, fs=fs, output="sos"), w)
        np.testing.assert_allclose(sos_response(design_sos(spec, fs), w), want, rtol=0, atol=1e-12)

    @settings(max_examples=200)
    @given(order=ORDERS, fs=RATES, cutoff_fraction=CUTOFF_FRACTIONS,
           n=st.sampled_from([1, 2, 49, 50, 51, 20_000]) | st.integers(1, 20_000),
           offset=st.floats(-100.0, 100.0), seed=st.integers(0, 2**32 - 1))
    def test_lowpass_matches_sosfilt(self, order, fs, cutoff_fraction, n, offset, seed):
        # a random walk with white noise on it: slow drift and broadband
        # content, started at the state of a constant first-50-sample mean
        spec = FilterSpec(cutoff_hz=cutoff_fraction * fs / 2, order=order)
        rng = np.random.default_rng(seed)
        x = offset + rng.normal(0.0, 1.0, n).cumsum() + rng.normal(0.0, 1.0, n)
        sos = butter(order, spec.cutoff_hz, fs=fs, output="sos")
        want, _ = sosfilt(sos, x, zi=sosfilt_zi(sos) * np.mean(x[:50]))
        got = butterworth_lowpass(AmplitudeSeries(fs=fs, values=x), spec).values
        assert got.shape == want.shape
        # sosfilt rounds the level itself, hence the term in max|x|
        assert np.abs(got - want).max() <= 1e-9 * np.ptp(x) + 1e-12 * np.abs(x).max()
