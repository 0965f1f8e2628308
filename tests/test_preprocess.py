import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def trace_from_amplitudes(rows, fs=FS):
    return CsiTrace(fs=fs, samples=np.asarray(rows, dtype=complex))


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
    idx = int(np.argmax(amp.var(axis=1)))
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
    (ties), zero rows and all-zero traces all occur."""
    n_sub = draw(st.integers(0, 6))
    n = draw(st.sampled_from([0, 1, 2, 127, 128, 129, 1100]) | st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.0, 1e-3, 1.0, 8.0, 1e6]))
    pool = rng.normal(0.0, scale, (3, 2, n)) + draw(st.sampled_from([0.0, 8.0]))
    pool[0] = 0.0
    picks = draw(st.lists(st.integers(0, 2), min_size=n_sub, max_size=n_sub))
    samples = pool[picks, 0] + 1j * pool[picks, 1] if picks else np.zeros((0, n))
    return CsiTrace(fs=FS, samples=np.asarray(samples, dtype=complex).reshape(n_sub, n))


class TestRowStreamedSelection:
    # zero-sample rows have NaN variance (numpy warns), as before
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(traces_with_repeated_rows())
    def test_variances_match_whole_array(self, trace):
        want = np.abs(trace.samples).var(axis=1)
        got = subcarrier_variances(trace)
        assert got.shape == want.shape and got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @given(traces_with_repeated_rows())
    def test_selection_matches_whole_array(self, trace):
        assert outcome(select_subcarrier, trace) == outcome(whole_array_select, trace)

    @pytest.mark.parametrize("rows, message", [
        (np.zeros((3, 0)), "trace is empty"),
        (np.zeros((0, 5)), "trace is empty"),
        (np.zeros((4, 100)), "all-zero trace: no informative subcarrier"),
    ])
    def test_errors_unchanged(self, rows, message):
        trace = trace_from_amplitudes(rows)
        assert outcome(select_subcarrier, trace) == outcome(whole_array_select, trace) == message

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
        want = np.abs(trace.samples).var(axis=1)
        assert subcarrier_variances(trace).tobytes() == want.tobytes()
        assert outcome(select_subcarrier, trace) == outcome(whole_array_select, trace)

    def test_peak_memory_a_few_rows(self, config):
        # the whole (30, T) amplitude array and its variance temporaries are
        # never built: the peak is the winning row plus one row in flight
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
        assert peak <= 3 * trace.n_samples * 8


class TestButterworth:
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
    @given(order=st.sampled_from([2, 4, 6, 8]), fs=st.floats(20.0, 5000.0),
           cutoff_fraction=st.floats(0.01, 0.9), start=st.floats(-100.0, 100.0),
           level=st.floats(-100.0, 100.0))
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
