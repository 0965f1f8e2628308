import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desksense import PipelineConfig, _workers, segmentation
from desksense.channel import (DEFAULT_GESTURE_JITTER_STD, Annotation, CsiTrace, FresnelGeometry,
                               GestureKind, GestureModel)
from desksense.corpus import (
    _DATASET_JITTER_STD,
    _dataset_script,
    evaluate_segmentation,
    generate_segmentation_corpus,
    keystroke_burst_script,
    match_segments,
    random_gesture_script,
    score_detections,
    simulate_script,
)
from desksense.pipeline import run_pipeline
from desksense.preprocess import AmplitudeSeries, butterworth_lowpass, select_subcarrier
from desksense.segmentation import (
    GestureSegment,
    SegmenterParams,
    mark_end_point,
    moving_sum,
    segment,
    sliding_variance,
    smooth_variance,
)

FS = 1000.0


def filtered_burst(config, count=17, seed=1, gap=1.3):
    """`count` keystrokes at the deployed rest position, `gap` seconds apart,
    the first at 1 s, to 1 s past the last (at gap 1.3 s the script of
    keystroke_burst_script), simulated and low-passed."""
    g = GestureModel(GestureKind.KEYSTROKE, config.geometry.rest_pos,
                     jitter_std=DEFAULT_GESTURE_JITTER_STD)
    script, t = [], 1.0
    for _ in range(count):
        script.append((t, g))
        t += g.duration + gap
    trace = simulate_script(config, script, t + 1.0, seed=seed)
    series = butterworth_lowpass(select_subcarrier(trace), config.filter)
    return series, trace.meta


def whole_array_moving_sum(x, w):
    c = np.concatenate([[0.0], np.cumsum(x)])
    return c[w:] - c[:-w]


def whole_array_sliding_variance(x, w):
    x = x - x.mean()
    s1 = whole_array_moving_sum(x, w)
    s2 = whole_array_moving_sum(x * x, w)
    return np.maximum(s2 / w - (s1 / w) ** 2, 0.0)


class TestVarianceTraces:
    @given(n=st.integers(2, 3000), w=st.integers(2, 120), offset=st.sampled_from([0.0, 8.0, 1e6]),
           seed=st.integers(0, 2**32 - 1))
    def test_same_bits_as_whole_array_expressions(self, n, w, offset, seed):
        # the nor cascade works in buffers it allocates once, with the same
        # ufuncs in the same order as the expressions, and leaves its input be
        x = offset + np.random.default_rng(seed).normal(0.0, 1.0, n)
        kept = x.copy()
        if n < 3 * w - 2:
            with pytest.raises(ValueError, match="shorter"):
                smooth_variance(sliding_variance(x, w), w)
            return
        nor1 = sliding_variance(x, w)
        assert nor1.tobytes() == whole_array_sliding_variance(x, w).tobytes()
        assert moving_sum(x, w).tobytes() == whole_array_moving_sum(x, w).tobytes()
        want = 100.0 * whole_array_sliding_variance(whole_array_moving_sum(nor1, w), w)
        assert smooth_variance(nor1, w).tobytes() == want.tobytes()
        assert x.tobytes() == kept.tobytes()

    def test_constant_series_zero_variance(self):
        out = sliding_variance(np.full(200, 4.2), 50)
        assert out.shape == (151,)
        np.testing.assert_allclose(out, 0.0, atol=1e-20)

    def test_alternating_series(self):
        x = np.tile([0.0, 1.0], 50)
        out = sliding_variance(x, 2)
        np.testing.assert_allclose(out, 0.25, atol=1e-12)

    def test_output_length(self):
        x = np.arange(100.0)
        assert len(sliding_variance(x, 10)) == 91

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            sliding_variance(np.ones(5), 10)

    def test_peak_memory_three_arrays(self):
        # the centred copy, its running sum and the windowed first moment;
        # the result is written into the centred copy
        x = np.random.default_rng(0).normal(8.0, 1.0, 200_000)
        tracemalloc.start()
        try:
            nor1 = sliding_variance(x, 50)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(nor1) == len(x) - 49
        assert peak <= 3.1 * x.nbytes

    def test_values_nonnegative(self):
        rng = np.random.default_rng(0)
        x = rng.normal(1e6, 1e-8, 500)  # large offset stresses cancellation
        assert np.all(sliding_variance(x, 50) >= 0.0)

    @pytest.mark.parametrize("n", [147, 148])
    def test_series_shorter_than_the_nor_cascade_no_segments(self, n):
        # nor2 needs 3w - 2 = 148 samples at the default 50-sample window
        rng = np.random.default_rng(n)
        series = AmplitudeSeries(fs=FS, values=8.0 + rng.normal(0.0, 1.0, n))
        result = segment(series)
        assert len(result.nor1) == len(result.nor2) == n - 147
        assert result.segments == result.dropped == []

    def test_smooth_variance_zero_input(self):
        out = smooth_variance(np.zeros(300), 50)
        np.testing.assert_allclose(out, 0.0, atol=1e-20)

    def test_smooth_variance_constant_slope_ramp(self):
        # moving sum of a ramp is affine; its windowed variance is constant
        w = 50
        slope = 0.01
        nor1 = slope * np.arange(500)
        nor2 = smooth_variance(nor1, w)
        interior = nor2[5:-5]
        expected = 100.0 * (slope * w) ** 2 * (w**2 - 1) / 12.0
        np.testing.assert_allclose(interior, expected, rtol=1e-6)

    def test_quiet_span_difference_small(self, config):
        # stationary spans: |nor1 - nor2| well under 5% of the gesture-span level
        series, meta = filtered_burst(config, count=3, seed=2, gap=2.0)
        result = segment(series, config.segmenter)
        nor1, nor2 = result.nor1, result.nor2
        quiet = slice(0, 700)
        gesture = slice(meta[0].start_idx, meta[0].end_idx)
        quiet_diff = np.abs(nor1[quiet] - nor2[quiet]).mean()
        gesture_diff = np.abs(nor1[gesture] - nor2[gesture]).mean()
        assert quiet_diff < 0.05 * gesture_diff


class TestParams:
    def test_se_sweep_is_fifty_values(self):
        se = segmentation._SE_VALUES
        assert len(se) == 50
        assert se[0] == pytest.approx(0.1)
        assert se[-1] == pytest.approx(5.0)
        np.testing.assert_allclose(np.diff(se), 0.1)

    def test_thresholds_validated(self):
        with pytest.raises(ValueError):
            SegmenterParams(min_amplitude_span=0.0)
        with pytest.raises(ValueError):
            SegmenterParams(window=0.0)

    def test_window_samples(self):
        assert SegmenterParams().window_samples(1000.0) == 50
        with pytest.raises(ValueError, match="window"):
            SegmenterParams().window_samples(10.0)


def start_points(nor1, nor2, params):
    return [start for start, _end, _truncated in segmentation._scan(nor1, nor2, params)]


class TestMarking:
    def test_flat_trace_no_start_points(self):
        nor1 = np.zeros(3000)
        nor2 = np.zeros(3000)
        assert start_points(nor1, nor2, SegmenterParams()) == []

    def test_two_gestures_two_start_points(self, config):
        series, meta = filtered_burst(config, count=2, seed=3, gap=2.0)
        result = segment(series, config.segmenter)
        starts = start_points(result.nor1, result.nor2, config.segmenter)
        assert len(starts) == 2
        for start, ann in zip(starts, meta):
            assert abs(start - ann.start_idx) <= 100

    def test_seventeen_start_points(self, config):
        series, _ = filtered_burst(config, count=17, seed=1)
        result = segment(series, config.segmenter)
        assert len(start_points(result.nor1, result.nor2, config.segmenter)) == 17

    def test_end_point_symmetric_bump(self):
        # bump symmetric around index 1000; start on the rising flank at 850
        # ends at its mirror image 1150
        n = 2000
        nor2 = np.zeros(n)
        bump = np.sin(np.linspace(0, np.pi, 401)) ** 2
        nor2[800:1201] = 5.0 * bump
        end, truncated = mark_end_point(nor2, 850)
        assert not truncated
        assert abs(end - 1150) <= 1

    def test_end_point_truncated(self):
        nor2 = np.concatenate([np.zeros(100), np.linspace(0, 10, 400)])
        end, truncated = mark_end_point(nor2, 150)
        assert truncated
        assert end == len(nor2) - 1

    def test_end_point_skips_short_lulls(self):
        nor2 = np.full(2000, 5.0)
        nor2[:100] = 0.0
        nor2[600:650] = 0.0    # 50-sample lull, shorter than end_hold
        nor2[1200:] = 0.0
        end, truncated = mark_end_point(nor2, 99)
        assert not truncated
        assert end == 1200


class TestSegment:
    def test_flat_trace_empty(self):
        rng = np.random.default_rng(5)
        series = AmplitudeSeries(fs=FS, values=8.0 + rng.normal(0, 0.02, 6000))
        assert segment(series).segments == []

    def test_seventeen_keystrokes(self, config):
        series, meta = filtered_burst(config, count=17, seed=1)
        segments = segment(series, config.segmenter).segments
        assert len(segments) == 17
        for seg, ann in zip(segments, meta):
            assert abs(seg.start_idx - ann.start_idx) <= 100
            assert abs(seg.end_idx - ann.end_idx) <= 100

    def test_subthreshold_blip_dropped(self, config):
        series, _ = filtered_burst(config, count=1, seed=4, gap=2.0)
        # inject a blip whose span stays below the validation threshold
        blip = 0.3 * config.segmenter.min_amplitude_span
        values = series.values.copy()
        t = np.arange(400)
        values[2600:3000] += blip * np.sin(np.pi * t / 400) ** 2
        injected = AmplitudeSeries(fs=series.fs, values=values)
        segments = segment(injected, config.segmenter).segments
        assert len(segments) == 1

    def test_disjoint_and_sorted(self, config):
        series, _ = filtered_burst(config, count=5, seed=6, gap=1.6)
        segments = segment(series, config.segmenter).segments
        for a, b in zip(segments, segments[1:]):
            assert a.end_idx <= b.start_idx
            assert a.start_idx < b.start_idx

    def test_amplitude_shift_invariance(self, config):
        series, _ = filtered_burst(config, count=3, seed=7, gap=1.8)
        shifted = AmplitudeSeries(
            fs=series.fs, values=series.values + 5.0,
            source_subcarrier=series.source_subcarrier,
        )
        a = [(s.start_idx, s.end_idx) for s in segment(series, config.segmenter).segments]
        b = [(s.start_idx, s.end_idx) for s in segment(shifted, config.segmenter).segments]
        assert a == b

    def test_determinism(self, config):
        series, _ = filtered_burst(config, count=4, seed=8, gap=1.7)
        a = [(s.start_idx, s.end_idx) for s in segment(series, config.segmenter).segments]
        b = [(s.start_idx, s.end_idx) for s in segment(series, config.segmenter).segments]
        assert a == b

    def test_waveform_matches_span(self, config):
        series, _ = filtered_burst(config, count=2, seed=9, gap=2.0)
        for seg in segment(series, config.segmenter).segments:
            assert len(seg.waveform) == seg.end_idx - seg.start_idx + 1
            np.testing.assert_array_equal(
                seg.waveform, series.values[seg.start_idx:seg.end_idx + 1]
            )

    def test_small_corpus_quality(self, config):
        config = replace(config, seeds=replace(config.seeds, simulation=42))
        corpus = generate_segmentation_corpus(config, n_traces=10)
        metrics = evaluate_segmentation(config, corpus)
        assert metrics.recall >= 0.9
        assert metrics.precision >= 0.9
        assert metrics.mean_boundary_error_s <= 0.1

    def test_corpus_simulates_each_trace_as_it_is_taken(self, config):
        config = replace(config, seeds=replace(config.seeds, simulation=42))
        with mock.patch("desksense.corpus.simulate_script", wraps=simulate_script) as sim:
            corpus = generate_segmentation_corpus(config, n_traces=3)
            assert sim.call_count == 0
            first = next(corpus)
            assert sim.call_count == 1
            rest = list(corpus)
        assert sim.call_count == 3
        again = list(generate_segmentation_corpus(config, n_traces=3))
        for got, want in zip([first, *rest], again, strict=True):
            np.testing.assert_array_equal(got.samples, want.samples)


class TestGestureSegmentType:
    def test_invariants(self):
        with pytest.raises(ValueError):
            GestureSegment(start_idx=5, end_idx=4, waveform=np.zeros(1), fs=FS)
        with pytest.raises(ValueError):
            GestureSegment(start_idx=0, end_idx=3, waveform=np.zeros(2), fs=FS)
        seg = GestureSegment(start_idx=10, end_idx=13, waveform=np.arange(4.0), fs=FS)
        assert seg.amplitude_span == pytest.approx(3.0)


# Reference scan: every search runs to the end of the trace.  The segmenter
# stops each search at the first prefix that holds its answer and must give
# exactly these results.

def oracle_sweep_candidates(nor1, nor2, cursor):
    diff = np.cumsum(nor2[cursor:] - nor1[cursor:])
    running_max = np.maximum.accumulate(diff)
    idx = np.searchsorted(running_max, segmentation._SE_VALUES, side="right")
    idx = idx[idx < len(diff)] + cursor
    return np.sort(idx)


def oracle_first_stable_start(candidates):
    k = segmentation._STABILITY_COUNT
    for j in range(len(candidates) - k + 1):
        if candidates[j + k - 1] - candidates[j] < segmentation._STABILITY_SPREAD:
            return int(candidates[j])
    return None


def oracle_mark_end_point(nor2, start_idx, params):
    threshold = nor2[start_idx]
    below = nor2[start_idx + 1:] <= threshold
    if below.any():
        hold = min(params.end_hold, len(below))
        counts = np.cumsum(below.astype(np.int64))
        runs = counts[hold - 1:] - np.concatenate([[0], counts[:-hold]])
        sustained = np.nonzero(runs == hold)[0]
        if len(sustained):
            return start_idx + 1 + int(sustained[0]), False
    return len(nor2) - 1, True


def oracle_scan(nor1, nor2, params):
    n = min(len(nor1), len(nor2))
    nor1 = np.asarray(nor1, dtype=float)[:n]
    nor2 = np.asarray(nor2, dtype=float)[:n]
    out = []
    cursor = 0
    while cursor < n - 1:
        candidates = oracle_sweep_candidates(nor1, nor2, cursor)
        if len(candidates) == 0:
            break
        start = oracle_first_stable_start(candidates)
        if start is None:
            advance = int(candidates[-1])
            cursor = advance if advance > cursor else cursor + 1
            continue
        end, truncated = oracle_mark_end_point(nor2, start, params)
        if end <= start:
            break
        out.append((start, end, truncated))
        if truncated or end <= cursor:
            break
        cursor = end
    return out


def oracle_variance_traces(series, params):
    """nor1 and nor2 computed on their own, truncated to a common length."""
    w = params.window_samples(series.fs)
    if len(series.values) < 3 * w - 2:
        return np.zeros(0), np.zeros(0)
    nor1 = sliding_variance(series.values, w)
    nor2 = smooth_variance(nor1, w)
    return nor1[: len(nor2)], nor2


def oracle_segments(series, params):
    """(start, end, truncated) of the segments the reference scan keeps."""
    nor1, nor2 = oracle_variance_traces(series, params)
    out = []
    for start, end, truncated in oracle_scan(nor1, nor2, params):
        end = min(end, len(series.values) - 1)
        waveform = series.values[start:end + 1]
        if waveform.max() - waveform.min() >= params.min_amplitude_span:
            out.append((start, end, truncated))
    return out


def as_tuples(segments):
    return [(s.start_idx, s.end_idx, s.truncated) for s in segments]


# First look-ahead lengths to test: tiny ones put a prefix boundary inside
# nearly every gesture, the module's own one covers the default path.
FIRST_PREFIXES = st.sampled_from([1, 2, 3, 17, 256, segmentation._FIRST_PREFIX])


@st.composite
def nor_traces(draw):
    """nor1/nor2-shaped pairs: stationary, noisy, drifting and gesture pieces.

    The trailing cut can end the trace mid-gesture or leave fewer samples
    after a start than end_hold.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pieces = draw(st.lists(
        st.tuples(st.sampled_from(["flat", "quiet", "drift", "gesture"]),
                  st.integers(1, 6000)),
        min_size=1, max_size=10,
    ))
    nor1, nor2 = [], []
    for kind, n in pieces:
        if kind == "flat":
            level = rng.uniform(0.0, 0.01)
            a = np.full(n, level)
            b = np.full(n, level)
        elif kind == "quiet":
            a = np.abs(rng.normal(0.0, 1e-3, n))
            b = np.abs(rng.normal(0.0, 1e-3, n))
        elif kind == "drift":
            # nor2 a little above nor1: thresholds cross slowly and apart
            a = np.abs(rng.normal(0.0, 1e-3, n))
            b = a + rng.uniform(1e-4, 1e-2)
        else:
            bump = np.sin(np.linspace(0.0, np.pi, n)) ** 2
            a = rng.uniform(0.01, 1.0) * bump
            b = rng.uniform(1.0, 50.0) * bump + np.abs(rng.normal(0.0, 1e-3, n))
        nor1.append(a)
        nor2.append(b)
    nor1 = np.concatenate(nor1)
    nor2 = np.concatenate(nor2)
    keep = max(2, len(nor1) - draw(st.integers(0, 3000)))
    return nor1[:keep], nor2[:keep]


@st.composite
def gesture_series(draw):
    """A filtered-looking amplitude series: noisy baseline with smooth bumps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(200, 30000))
    values = 8.0 + rng.normal(0.0, 0.02, n)
    for _ in range(draw(st.integers(1, 12))):
        width = int(rng.integers(50, 1500))
        at = int(rng.integers(0, n))
        t = np.arange(min(width, n - at))
        values[at:at + len(t)] += rng.uniform(-4.0, 4.0) * np.sin(np.pi * t / width) ** 2
    return AmplitudeSeries(fs=FS, values=values)


def two_branch_random_script(config, rng, n_gestures):
    """random_gesture_script with a keystroke body and a mouse body."""
    d = config.geometry.antenna_distance
    script = []
    t = 1.0 + rng.uniform(0.0, 0.8)
    side = 1.0 if rng.random() < 0.5 else -1.0
    x = d / 2 + side * rng.uniform(0.15, 0.30) * d
    for _ in range(n_gestures):
        kind = tuple(GestureKind)[int(rng.integers(0, 2))]
        if kind is GestureKind.KEYSTROKE:
            depth = rng.uniform(0.57, 0.66)
            model = GestureModel(kind=kind,
                                 rest_pos=np.array([np.clip(x, 0.12 * d, 0.88 * d), 0.0, -depth]),
                                 travel=0.02, duration=rng.uniform(0.6, 0.8),
                                 jitter_std=DEFAULT_GESTURE_JITTER_STD)
        else:
            depth = rng.uniform(0.57, 0.66)
            model = GestureModel(kind=kind,
                                 rest_pos=np.array([np.clip(x, 0.12 * d, 0.85 * d), 0.0, -depth]),
                                 travel=rng.uniform(0.03, 0.05), duration=rng.uniform(0.4, 1.0),
                                 jitter_std=DEFAULT_GESTURE_JITTER_STD)
        script.append((t, model))
        t += model.duration + rng.uniform(1.5, 2.5)
    return script, t + 0.7


def two_branch_dataset_script(config, rng, n_gestures, kind):
    """_dataset_script with a keystroke body and a mouse body."""
    d = config.geometry.antenna_distance
    script = []
    t = 1.0 + rng.uniform(0.0, 0.5)
    side = 1.0 if rng.random() < 0.5 else -1.0
    for _ in range(n_gestures):
        depth = rng.uniform(0.57, 0.66)
        if kind is GestureKind.KEYSTROKE:
            x = d / 2 + side * rng.uniform(0.15, 0.30) * d
            model = GestureModel(kind=kind, rest_pos=np.array([x, 0.0, -depth]), travel=0.02,
                                 duration=rng.uniform(0.65, 0.75), jitter_std=_DATASET_JITTER_STD)
        else:
            x = d / 2 + side * rng.uniform(0.04, 0.15) * d
            model = GestureModel(kind=kind, rest_pos=np.array([x, 0.0, -depth]),
                                 travel=rng.uniform(0.015, 0.04), duration=rng.uniform(0.35, 1.0),
                                 jitter_std=_DATASET_JITTER_STD)
        script.append((t, model))
        t += model.duration + rng.uniform(1.5, 2.0)
    return script, t + 0.7


def script_bits(build, seed):
    """Every value of build(rng)'s script and duration as bytes, and the
    generator's state after it: equal only for the same draws in one order."""
    rng = np.random.default_rng(seed)
    script, duration = build(rng)
    entries = [(np.float64(t).tobytes(), g.kind, g.rest_pos.tobytes(),
                np.float64([g.travel, g.duration, g.jitter_std]).tobytes()) for t, g in script]
    return entries, np.float64(duration).tobytes(), rng.bit_generator.state


class TestScriptGenerators:
    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n_gestures=st.integers(0, 12),
           kind=st.sampled_from(list(GestureKind)), distance=st.sampled_from([0.6, 1.0, 1.7]))
    def test_same_scripts_as_two_branch_bodies(self, seed, n_gestures, kind, distance):
        config = replace(PipelineConfig(), geometry=FresnelGeometry(antenna_distance=distance))
        assert (script_bits(lambda rng: random_gesture_script(config, rng, n_gestures), seed)
                == script_bits(lambda rng: two_branch_random_script(config, rng, n_gestures),
                               seed))
        assert (script_bits(lambda rng: _dataset_script(config, rng, n_gestures, kind), seed)
                == script_bits(lambda rng: two_branch_dataset_script(config, rng, n_gestures,
                                                                     kind), seed))


class TestScanMatchesWholeTraceScan:
    @settings(max_examples=150)
    @given(traces=nor_traces(), end_hold=st.integers(1, 400), first_prefix=FIRST_PREFIXES)
    def test_scan(self, traces, end_hold, first_prefix):
        nor1, nor2 = traces
        params = SegmenterParams(end_hold=end_hold)
        with mock.patch.object(segmentation, "_FIRST_PREFIX", first_prefix):
            got = list(segmentation._scan(nor1, nor2, params))
        assert got == oracle_scan(nor1, nor2, params)

    @settings(max_examples=150)
    @given(traces=nor_traces(), end_hold=st.integers(1, 400),
           first_prefix=FIRST_PREFIXES, data=st.data())
    def test_mark_end_point(self, traces, end_hold, first_prefix, data):
        _nor1, nor2 = traces
        start = data.draw(st.integers(0, len(nor2) - 1))
        params = SegmenterParams(end_hold=end_hold)
        with mock.patch.object(segmentation, "_FIRST_PREFIX", first_prefix):
            got = mark_end_point(nor2, start, params)
        assert got == oracle_mark_end_point(nor2, start, params)

    @settings(max_examples=60)
    @given(series=gesture_series(), first_prefix=FIRST_PREFIXES)
    def test_segment(self, series, first_prefix):
        params = SegmenterParams()
        with mock.patch.object(segmentation, "_FIRST_PREFIX", first_prefix):
            got = as_tuples(segment(series, params).segments)
        assert got == oracle_segments(series, params)

    @settings(max_examples=60)
    @given(series=gesture_series(), first_prefix=FIRST_PREFIXES,
           floor=st.floats(0.01, 6.0))
    def test_kept_and_dropped_are_the_scan(self, series, first_prefix, floor):
        params = SegmenterParams(min_amplitude_span=floor)
        with mock.patch.object(segmentation, "_FIRST_PREFIX", first_prefix):
            result = segment(series, params)
        cut = sorted(result.segments + result.dropped, key=lambda s: s.start_idx)
        assert as_tuples(cut) == oracle_scan(*oracle_variance_traces(series, params), params)
        assert all(s.amplitude_span >= floor for s in result.segments)
        assert all(s.amplitude_span < floor for s in result.dropped)
        assert len(result) == len(result.segments)

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2000), w=st.integers(2, 200))
    def test_nor_traces_bit_identical(self, seed, n, w):
        # n runs from far below the 3w - 2 samples the cascade needs
        rng = np.random.default_rng(seed)
        series = AmplitudeSeries(fs=FS, values=8.0 + rng.normal(0.0, 1.0, n))
        params = SegmenterParams(window=w / FS)
        result = segment(series, params)
        nor1, nor2 = oracle_variance_traces(series, params)
        np.testing.assert_array_equal(result.nor1.view(np.uint64), nor1.view(np.uint64))
        np.testing.assert_array_equal(result.nor2.view(np.uint64), nor2.view(np.uint64))

    def test_sixty_gesture_recording(self, config):
        rng = np.random.default_rng(11)
        script, duration = random_gesture_script(config, rng, 60)
        trace = simulate_script(config, script, duration, seed=11)
        series = butterworth_lowpass(select_subcarrier(trace), config.filter)
        got = as_tuples(segment(series, config.segmenter).segments)
        assert len(got) >= 55
        assert got == oracle_segments(series, config.segmenter)


class TestSegmentProperties:
    @settings(max_examples=200)
    @given(series=gesture_series(), shift=st.floats(-1e3, 1e3))
    def test_amplitude_shift_invariance(self, series, shift):
        shifted = AmplitudeSeries(fs=series.fs, values=series.values + shift)
        assert as_tuples(segment(shifted).segments) == as_tuples(segment(series).segments)


class TestPipelineMetamorphic:
    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**31 - 1), n_gestures=st.integers(1, 2),
           order=st.permutations(range(30)))
    def test_permuted_subcarriers_give_the_same_run(self, seed, n_gestures, order):
        # a trace of at most 10 s and its rows in another order: the selected
        # row moves with them, and the filtered series, the segments and every
        # other metric keep their bits
        config = PipelineConfig()
        assert config.simulation.subcarriers == len(order)
        script, duration = random_gesture_script(config, np.random.default_rng(seed), n_gestures)
        assert duration <= 10.0
        trace = simulate_script(config, script, duration, seed)
        permuted = CsiTrace(fs=trace.fs, samples=trace.samples[list(order)], meta=trace.meta)
        want_report, want = run_pipeline(config, trace)
        got_report, got = run_pipeline(config, permuted)
        selected = got_report.metrics.pop("selected_subcarrier")
        assert order[selected] == want_report.metrics.pop("selected_subcarrier")
        assert got_report.metrics == want_report.metrics
        assert np.array_equal(got["series"].values.view(np.uint64),
                              want["series"].values.view(np.uint64))
        assert as_tuples(got["segments"]) == as_tuples(want["segments"])


def all_pairs_match(detections, annotations):
    """Greedy best-overlap matching comparing every annotation with every detection."""
    pairs = []
    used = set()
    for ann in annotations:
        best = None
        for i, det in enumerate(detections):
            if i in used:
                continue
            overlap = min(det.end_idx, ann.end_idx) - max(det.start_idx, ann.start_idx)
            if overlap > 0 and (best is None or overlap > best[0]):
                best = (overlap, i)
        if best is not None:
            used.add(best[1])
            pairs.append((ann, detections[best[1]]))
    return pairs, used


def detection(start, end):
    return GestureSegment(start_idx=start, end_idx=end, waveform=np.zeros(end - start + 1),
                          fs=FS)


def as_indices(result, detections, annotations):
    """A matching as (annotation index, detection index) pairs and the used set."""
    pairs, used = result
    det_index = {id(d): i for i, d in enumerate(detections)}
    ann_index = {id(a): i for i, a in enumerate(annotations)}
    return [(ann_index[id(a)], det_index[id(d)]) for a, d in pairs], used


@st.composite
def ordered_spans(draw, min_gap, min_length):
    """(start, end) spans laid end to end with gaps of at least min_gap
    (0: a span may start on its predecessor's last index)."""
    spans = []
    end = draw(st.integers(0, 40)) - min_gap
    for _ in range(draw(st.integers(0, 12))):
        start = end + min_gap + draw(st.integers(0, 40))
        end = start + min_length + draw(st.integers(0, 60))
        spans.append((start, end))
    return spans


class TestMatchSegments:
    @settings(max_examples=300)
    @given(det_spans=ordered_spans(0, 1), ann_spans=ordered_spans(1, 0))
    def test_matches_all_pairs_greedy(self, det_spans, ann_spans):
        detections = [detection(a, b) for a, b in det_spans]
        annotations = [Annotation(a, b, "keystroke") for a, b in ann_spans]
        got = match_segments(detections, annotations)
        want = all_pairs_match(detections, annotations)
        assert (as_indices(got, detections, annotations)
                == as_indices(want, detections, annotations))

    @pytest.mark.parametrize("det_spans, ann_spans, want", [
        # one detection over two annotations: the first takes it
        ([(10, 100)], [(20, 40), (50, 70)], [(0, 0)]),
        # annotations clear of every detection, and one touching at one index
        ([(10, 20), (60, 80)], [(0, 5), (20, 30), (40, 50), (90, 95)], []),
        # equal overlaps: the first detection wins; the second goes to the next
        ([(0, 15), (15, 30)], [(5, 25), (26, 40)], [(0, 0), (1, 1)]),
        # the larger overlap wins over the earlier detection
        ([(0, 12), (14, 40)], [(10, 30)], [(0, 1)]),
    ])
    def test_cases(self, det_spans, ann_spans, want):
        detections = [detection(a, b) for a, b in det_spans]
        annotations = [Annotation(a, b, "keystroke") for a, b in ann_spans]
        for match in (match_segments, all_pairs_match):
            pairs, used = as_indices(match(detections, annotations), detections, annotations)
            assert pairs == want and used == {d for _a, d in want}

    @pytest.mark.parametrize("det_spans, ann_spans, what", [
        ([(50, 60), (10, 20)], [], "detections"),
        ([(10, 30), (20, 40)], [(10, 30)], "detections"),
        ([(10, 20)], [(50, 60), (10, 20)], "annotations"),
    ])
    def test_rejects_unordered_spans(self, det_spans, ann_spans, what):
        detections = [detection(a, b) for a, b in det_spans]
        annotations = [Annotation(a, b, "keystroke") for a, b in ann_spans]
        with pytest.raises(ValueError, match=f"{what} must be sorted and disjoint"):
            match_segments(detections, annotations)


def annotated_trace(fs, n, spans):
    return CsiTrace(fs=fs, samples=np.zeros((1, n), dtype=np.complex64),
                    meta=[Annotation(a, b, "keystroke") for a, b in spans])


class TestScoreDetections:
    def test_counts_and_boundary_error_over_runs(self):
        runs = [
            # one match (2 samples off at each end), one miss, one false alarm
            ([detection(12, 48), detection(160, 190)],
             annotated_trace(1000.0, 200, [(10, 50), (100, 150)])),
            # one match, 5 and 10 samples off at 500 Hz
            ([detection(25, 70)], annotated_trace(500.0, 100, [(20, 60)])),
        ]
        got = score_detections(runs)
        assert (got.matched, got.false_negatives, got.false_positives) == (2, 1, 1)
        assert got.recall == got.precision == pytest.approx(2 / 3)
        assert got.mean_boundary_error_s == pytest.approx((0.002 + 0.01 + 0.002 + 0.02) / 4)

    def test_nothing_matched_boundary_error_none(self):
        got = score_detections([([], annotated_trace(FS, 200, [(10, 50)]))])
        assert got.mean_boundary_error_s is None
        # nothing detected: precision 0/0 is undefined, not 0
        assert (got.recall, got.precision, got.matched, got.false_negatives) == (0.0, None, 0, 1)
        got = score_detections([([detection(100, 150)], annotated_trace(FS, 200, [(10, 50)]))])
        assert (got.recall, got.precision, got.false_positives) == (0.0, 0.0, 1)

    def test_pipeline_detection_is_evaluate_score(self, config):
        script, duration = keystroke_burst_script(config, count=3)
        trace = simulate_script(config, script, duration, seed=5)
        report, _ = run_pipeline(config, trace)
        scores = evaluate_segmentation(config, [trace])
        assert report.metrics["detection"] == {
            "annotated": len(trace.meta),
            "matched": scores.matched,
            "recall": scores.recall,
            "precision": scores.precision,
            "mean_boundary_error_s": scores.mean_boundary_error_s,
        }


def test_run_pipeline_peak_memory(config, monkeypatch):
    # a 550 s trace of 200 gestures on two selection workers: the stages
    # hold their outputs and a bounded scratch, so the peak is the
    # segmentation's six arrays of the trace's length (the filtered series,
    # nor1, the moving sum and sliding_variance's three), not eight
    monkeypatch.setattr(_workers, "cpus", lambda: 2)
    config = replace(config, simulation=replace(config.simulation, subcarriers=4))
    script, duration = random_gesture_script(config, np.random.default_rng(7), 200)
    trace = simulate_script(config, script, duration, seed=11)
    tracemalloc.start()
    try:
        report, _ = run_pipeline(config, trace)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.metrics["detection"]["recall"] >= 0.95
    assert peak <= 6.5 * 8 * trace.n_samples
