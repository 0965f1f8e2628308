import math
import mmap
import os
import re
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.ndimage import gaussian_filter1d
from scipy.optimize import brentq

from desksense import _workers, channel, io
from desksense.channel import (
    _build_reflector_track,
    _check_slab,
    _fill_band,
    Annotation,
    ChannelModel,
    CsiTrace,
    FresnelGeometry,
    GestureKind,
    GestureModel,
    cfr_at,
    default_subcarrier_gains,
    excess_path,
    gesture_jitter,
    path_length,
    simulate_plate_sweep,
    simulate_trace,
    subcarrier_wavelengths,
    zone_boundary_radius,
    zone_index,
)

GEOM = FresnelGeometry()  # tx (0,0,0), rx (1,0,0), lambda 0.125
# Traced bytes of two simulator workers' block temporaries, besides the
# arrays of the trace's length: 2.1 MiB measured at _BLOCK = 8192
PEAK_ALLOWANCE = 3 << 20


def boundary_radius_by_root_find(geom, n):
    """Independent oracle: solve excess_path(midpoint - r*z) = n*lambda/2."""
    mid = geom.midpoint

    def f(r):
        return excess_path(geom, mid + np.array([0.0, 0.0, -r])) - n * geom.wavelength / 2

    return brentq(f, 1e-9, 100.0, xtol=1e-15)


class TestGeometry:
    def test_invalid_geometry_rejected(self):
        for d in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^antenna_distance must be positive and finite$"):
                FresnelGeometry(antenna_distance=d)
        with pytest.raises(ValueError, match="^wavelength must be positive and finite$"):
            FresnelGeometry(wavelength=0.0)

    def test_antennas_on_x_and_gestures_rest_below_the_midpoint(self):
        geom = FresnelGeometry(antenna_distance=1.4, rest_depth=0.65)
        assert geom.tx_pos.tolist() == [0.0, 0.0, 0.0]
        assert geom.rx_pos.tolist() == [1.4, 0.0, 0.0]
        assert geom.rest_pos.tolist() == [0.7, 0.0, -0.65]
        assert np.array_equal(GestureModel(GestureKind.KEYSTROKE).rest_pos,
                              FresnelGeometry().rest_pos)

    def test_excess_path_zero_on_direct_path(self):
        assert excess_path(GEOM, GEOM.midpoint) == pytest.approx(0.0, abs=1e-12)

    def test_excess_path_zone1_boundary(self):
        # point at perpendicular distance b_1 below the midpoint
        b1 = zone_boundary_radius(GEOM, 1)
        p = GEOM.midpoint + np.array([0.0, b1, 0.0])
        assert excess_path(GEOM, p) == pytest.approx(0.0625, abs=1e-12)

    def test_excess_path_zone9_boundary(self):
        b9 = zone_boundary_radius(GEOM, 9)
        p = GEOM.midpoint + np.array([0.0, 0.0, -b9])
        assert excess_path(GEOM, p) == pytest.approx(9 * 0.125 / 2, abs=1e-12)

    def test_excess_path_nonnegative_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.uniform(-3, 3, 3)
            assert excess_path(GEOM, p) >= -1e-15

    def test_boundary_radius_matches_root_find(self):
        for n in range(1, 21):
            closed = zone_boundary_radius(GEOM, n)
            numeric = boundary_radius_by_root_find(GEOM, n)
            assert closed == pytest.approx(numeric, abs=1e-12)

    def test_boundary_radius_values(self):
        assert zone_boundary_radius(GEOM, 1) == pytest.approx(0.17952, abs=5e-6)
        assert zone_boundary_radius(GEOM, 9) == pytest.approx(0.60029, abs=5e-6)
        assert zone_boundary_radius(GEOM, 10) == pytest.approx(0.64043, abs=5e-6)
        thickness = zone_boundary_radius(GEOM, 10) - zone_boundary_radius(GEOM, 9)
        assert thickness == pytest.approx(0.0401, abs=5e-4)

    def test_boundary_radius_monotonic_in_wavelength(self):
        halved = FresnelGeometry(wavelength=GEOM.wavelength / 2)
        for n in (1, 5, 9):
            assert zone_boundary_radius(halved, n) < zone_boundary_radius(GEOM, n)

    def test_boundaries_nested(self):
        radii = [zone_boundary_radius(GEOM, n) for n in range(1, 21)]
        assert all(a < b for a, b in zip(radii, radii[1:]))

    def test_boundary_rejects_bad_n(self):
        with pytest.raises(ValueError):
            zone_boundary_radius(GEOM, 0)

    def test_eq1_consistency(self):
        # boundary points reproduce the defining excess path within 1e-9 m
        for n in range(1, 21):
            b = zone_boundary_radius(GEOM, n)
            p = GEOM.midpoint + np.array([0.0, b, 0.0])
            assert abs(excess_path(GEOM, p) - n * GEOM.wavelength / 2) < 1e-9

    def test_zone_index_on_los(self):
        assert zone_index(GEOM, [0.3, 0.0, 0.0]) == 1

    def test_zone_index_boundary_belongs_outside(self):
        # ellipsoid vertex: excess is exactly lambda/2 in floating point
        p = np.array([1.0 + GEOM.wavelength / 4, 0.0, 0.0])
        assert excess_path(GEOM, p) == pytest.approx(GEOM.wavelength / 2, abs=0)
        assert zone_index(GEOM, p) == 2

    def test_zone_index_below_midpoint(self):
        assert zone_index(GEOM, [0.5, 0.0, -0.62]) == 10

    @given(positions=st.one_of(
        hnp.arrays(float, st.tuples(st.integers(0, 50), st.just(3)),
                   elements=st.floats(-1e3, 1e3)),
        hnp.arrays(float, st.tuples(st.integers(0, 6), st.integers(0, 9), st.just(3)),
                   elements=st.floats(-1e3, 1e3)),
    ))
    def test_path_length_is_linalg_norm_bits(self, positions):
        # (n, 3) tracks and simulate_plate_sweep's (steps, scatterers, 3) grids
        want = (np.linalg.norm(positions - GEOM.tx_pos, axis=-1)
                + np.linalg.norm(positions - GEOM.rx_pos, axis=-1))
        got = path_length(GEOM, positions)
        assert got.shape == positions.shape[:-1]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestCfr:
    @staticmethod
    def static_path(point):
        p = np.asarray(point, dtype=float)
        return lambda t: np.broadcast_to(p, np.shape(t) + (3,))

    def test_constructive(self):
        # on-axis point: total path d = 1 m = 8 * lambda, phase 2*pi*m
        model = ChannelModel(
            geometry=GEOM,
            static_component=1.0,
            dynamic_paths=((self.static_path([0.25, 0.0, 0.0]), 0.5),),
            noise_std=0.0,
        )
        assert abs(cfr_at(model, 0.0)) == pytest.approx(1.5, abs=1e-12)

    def test_destructive(self):
        # path length 8.5 * lambda = 1.0625 m: y such that 2*sqrt(0.25+y^2) = 1.0625
        y = np.sqrt(0.53125**2 - 0.25)
        model = ChannelModel(
            geometry=GEOM,
            static_component=1.0,
            dynamic_paths=((self.static_path([0.5, y, 0.0]), 0.5),),
            noise_std=0.0,
        )
        assert abs(cfr_at(model, 0.0)) == pytest.approx(0.5, abs=1e-12)

    def test_amplitude_bounds_and_extrema_count(self):
        # receding reflector spanning exactly k half-wavelengths of excess
        # path must produce exactly k interior |H| extrema
        from scipy.optimize import brentq

        k = 5
        r0 = 0.3047
        e0 = excess_path(GEOM, [0.5, 0.0, -r0])
        target = e0 + k * GEOM.wavelength / 2

        r1 = brentq(
            lambda r: excess_path(GEOM, [0.5, 0.0, -r]) - target, r0, 10.0, xtol=1e-14
        )

        def traj(t):
            t = np.atleast_1d(t)
            out = np.zeros(t.shape + (3,))
            out[..., 0] = 0.5
            out[..., 2] = -(r0 + (r1 - r0) * t)
            return out

        model = ChannelModel(
            geometry=GEOM, static_component=1.0,
            dynamic_paths=((traj, 0.5),), noise_std=0.0,
        )
        t = np.linspace(0.0, 1.0, 200001)
        h = np.abs(cfr_at(model, t))
        assert np.all(h <= 1.5 + 1e-12)
        assert np.all(h >= 0.5 - 1e-12)
        d = np.diff(h)
        extrema = int(np.sum(np.diff(np.sign(d[d != 0])) != 0))
        assert extrema == k

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            ChannelModel(dynamic_paths=((self.static_path([0.5, 0, -0.5]), -1.0),))


def make_model(**kwargs):
    defaults = dict(geometry=GEOM, static_component=1.0, noise_std=0.0, rng_seed=7)
    defaults.update(kwargs)
    return ChannelModel(**defaults)


def at_wavelength(model, wavelength):
    """model with its geometry's carrier wavelength set to `wavelength`."""
    return replace(model, geometry=replace(model.geometry, wavelength=float(wavelength)))


def single_subcarrier(trace):
    return np.abs(trace.samples[0])


class TestSimulateTrace:
    def test_empty_script_constant(self):
        trace = simulate_trace(
            make_model(), [], duration=1.0, fs=500.0,
            subcarriers=1,
        )
        amp = single_subcarrier(trace)
        assert np.allclose(amp, amp[0], atol=1e-12)
        assert trace.n_samples == 500

    def keystroke_trace(self, depth, travel=0.02):
        gesture = GestureModel(
            kind=GestureKind.KEYSTROKE,
            rest_pos=np.array([0.5, 0.0, -depth]),
            travel=travel,
            duration=0.7,
        )
        trace = simulate_trace(
            make_model(static_component=1.0), [(1.0, gesture)], duration=2.5, fs=1000.0,
            subcarriers=1,
            reflection_amplitude=0.5,
        )
        return single_subcarrier(trace)

    def test_case1_monotone_within_zone(self):
        # stroke spans depths [0.61, 0.63], inside zone 10 (b9=0.600, b10=0.640)
        amp = self.keystroke_trace(0.61)
        down = amp[1001:1350]
        up = amp[1351:1700]
        assert np.all(np.diff(down) > 0)
        assert np.all(np.diff(up) < 0)

    def test_case2_single_hump_when_crossing_boundary(self):
        # stroke spans [0.63, 0.65] and crosses b10 = 0.64043 exactly once
        amp = self.keystroke_trace(0.63)
        down = amp[1001:1350]
        d = np.diff(down)
        sign_changes = np.sum(np.diff(np.sign(d[d != 0])) != 0)
        assert sign_changes == 1
        peak = np.argmax(down)
        assert 0 < peak < len(down) - 1  # rises first, then falls

    def test_determinism(self):
        gesture = GestureModel(kind=GestureKind.KEYSTROKE, jitter_std=1e-3)
        model = make_model(noise_std=0.1, rng_seed=11)
        a = simulate_trace(model, [(0.5, gesture)], duration=2.0)
        b = simulate_trace(model, [(0.5, gesture)], duration=2.0)
        assert np.array_equal(a.samples, b.samples)
        assert a.meta == b.meta

    def test_annotation_fidelity(self):
        # outside annotated spans the reflector rests, so noiseless |H| is flat
        gestures = [
            (0.8, GestureModel(kind=GestureKind.KEYSTROKE)),
            (2.5, GestureModel(kind=GestureKind.MOUSE_MOVE, travel=0.03, duration=0.5)),
        ]
        trace = simulate_trace(
            make_model(), gestures, duration=4.5, fs=1000.0,
            subcarriers=1,
            reflection_amplitude=0.5,
        )
        amp = single_subcarrier(trace)
        mask = np.ones(trace.n_samples, dtype=bool)
        for ann in trace.meta:
            mask[ann.start_idx:ann.end_idx + 1] = False
        quiet = amp[mask]
        segments_bounds = [(ann.start_idx, ann.end_idx) for ann in trace.meta]
        assert segments_bounds[0][0] == 800
        # the rest level changes after the one-directional mouse move, so
        # compare within each quiet stretch separately
        boundaries = [0] + [b for se in segments_bounds for b in se] + [trace.n_samples]
        for lo, hi in zip(boundaries[::2], boundaries[1::2]):
            chunk = amp[lo:hi][mask[lo:hi]] if hi > lo else np.array([])
            if len(chunk):
                assert np.allclose(chunk, chunk[0], atol=1e-12)

    def test_overlapping_gestures_rejected(self):
        g = GestureModel(kind=GestureKind.KEYSTROKE)
        with pytest.raises(ValueError, match="overlap"):
            simulate_trace(make_model(), [(1.0, g), (1.3, g)], duration=3.0)

    def test_escaping_trajectory_rejected(self):
        g = GestureModel(
            kind=GestureKind.MOUSE_MOVE,
            rest_pos=np.array([0.99, 0.0, -0.6]),
            travel=0.05,
            duration=0.5,
        )
        with pytest.raises(ValueError, match="between the antennas"):
            simulate_trace(make_model(), [(1.0, g)], duration=2.0)

    def test_keystroke_trajectory_shape(self):
        g = GestureModel(kind=GestureKind.KEYSTROKE, travel=0.02, duration=0.7)
        t = np.linspace(0, 0.7, 701)
        z = g.displacement(t)[:, 2]
        assert z[0] == pytest.approx(0.0, abs=1e-15)
        assert z[-1] == pytest.approx(0.0, abs=1e-12)      # returns to rest
        assert z.min() == pytest.approx(-0.02, abs=1e-12)  # reaches full travel
        assert np.argmin(z) == 350                          # down-then-up
        np.testing.assert_allclose(g.end_pos, g.rest_pos, atol=1e-12)

    def test_mouse_trajectory_shape(self):
        g = GestureModel(kind=GestureKind.MOUSE_MOVE, travel=0.03, duration=0.5)
        t = np.linspace(0, 0.5, 501)
        x = g.displacement(t)[:, 0]
        assert np.all(np.diff(x) >= 0)                     # one-directional
        assert x[-1] == pytest.approx(0.03, abs=1e-12)
        assert g.end_pos[0] == pytest.approx(g.rest_pos[0] + 0.03)

    def test_sinusoidal_mouse_monotone(self):
        g = GestureModel(kind=GestureKind.MOUSE_MOVE, travel=0.04, duration=0.5)
        t = np.linspace(0, 0.5, 501)
        x = g.displacement(t)[:, 0]
        assert np.all(np.diff(x) >= 0)
        assert x[-1] == pytest.approx(0.04, abs=1e-12)
        # sinusoidal speed: half the travel at half time, fastest there
        assert x[250] == pytest.approx(0.02, abs=1e-12)
        assert np.argmax(np.diff(x)) in (249, 250)

    def test_gesture_model_validation(self):
        with pytest.raises(ValueError):
            GestureModel(kind=GestureKind.KEYSTROKE, travel=0.0)
        with pytest.raises(ValueError):
            GestureModel(kind=GestureKind.KEYSTROKE, duration=-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="travel must be positive and finite"):
                GestureModel(kind=GestureKind.KEYSTROKE, travel=bad)
            with pytest.raises(ValueError, match="duration must be positive and finite"):
                GestureModel(kind=GestureKind.KEYSTROKE, duration=bad)
            with pytest.raises(ValueError, match="start time must be >= 0 and finite"):
                simulate_trace(make_model(), [(bad, GestureModel(kind=GestureKind.KEYSTROKE))],
                               duration=2.0)

    def test_subcarrier_defaults(self):
        lams = subcarrier_wavelengths()
        assert len(lams) == 30
        assert np.all(np.diff(lams) < 0)  # higher frequency, shorter wavelength
        gains = default_subcarrier_gains()
        assert gains[0] == 1.0 and gains[-1] < gains[0]

    def test_per_subcarrier_samples_match_cfr(self):
        # noiseless samples are the gain-scaled channel response at each
        # subcarrier's own wavelength, a direct exponential
        def traj(t):
            t = np.atleast_1d(t)
            out = np.zeros(t.shape + (3,))
            out[..., 0] = 0.5
            out[..., 2] = -(0.55 + 0.01 * t)
            return out

        model = make_model(dynamic_paths=((traj, 0.4),))
        lams = subcarrier_wavelengths(GEOM.wavelength, count=5)
        gains = default_subcarrier_gains(5)
        trace = simulate_trace(model, [], duration=0.5, fs=200.0, subcarriers=5)
        t = np.arange(trace.n_samples) / trace.fs
        band = gains[:, None] * cfr_at(model, t, 5)
        # the samples are the band rounded once to complex64
        assert np.array_equal(trace.samples.view(np.uint64),
                              band.astype(np.complex64).view(np.uint64))
        for s in range(5):
            expected = gains[s] * cfr_at(at_wavelength(model, lams[s]), t)
            np.testing.assert_allclose(band[s], expected, rtol=1e-12)

    def test_invalid_rate_and_duration_rejected(self):
        with pytest.raises(ValueError, match="fs"):
            simulate_trace(make_model(), [], duration=1.0, fs=0.0)
        with pytest.raises(ValueError, match="duration"):
            simulate_trace(make_model(), [], duration=0.0)
        for fs, duration in ((np.inf, 1.0), (np.nan, 1.0), (1000.0, np.inf), (1000.0, np.nan)):
            with pytest.raises(ValueError, match="positive and finite"):
                simulate_trace(make_model(), [], duration=duration, fs=fs)

    @pytest.mark.parametrize("n_sub, n_samples", [(1, 1), (3, 500), (30, 2 * channel._BLOCK + 1)])
    def test_samples_are_complex64(self, n_sub, n_samples):
        model = make_model(static_component=8.0, noise_std=0.16)
        trace = simulate_trace(model, [], duration=n_samples / 1000.0, subcarriers=n_sub)
        assert trace.samples.dtype == np.complex64
        assert trace.samples.shape == (n_sub, n_samples)
        assert trace.samples.nbytes == 8 * n_sub * n_samples

    def test_complex64_input_taken_as_it_is(self):
        # neither cast nor checked, infinities included
        samples = np.array([[1.0, np.inf, np.nan]], dtype=np.complex64)
        assert CsiTrace(fs=1000.0, samples=samples).samples is samples

    def test_sample_limit(self, monkeypatch):
        monkeypatch.setattr(channel, "MAX_TRACE_SAMPLES", 100)
        trace = simulate_trace(make_model(), [], duration=0.05, fs=1000.0, subcarriers=2)
        assert trace.samples.shape == (2, 50)
        with pytest.raises(ValueError, match=r"^trace of 51 samples x 2 subcarriers "
                                             r"exceeds the limit of 100 samples$"):
            simulate_trace(make_model(), [], duration=0.051, fs=1000.0, subcarriers=2)

    def test_oversized_trace_refused_before_allocating(self):
        # 10**12 samples per subcarrier would be 16 TB per row
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="trace of 1000000000000 samples x 30 "):
                simulate_trace(make_model(), [], duration=1.0, fs=1e12)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_zone_nesting_random_geometries(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            geom = FresnelGeometry(antenna_distance=rng.uniform(0.1, 5.0),
                                   wavelength=rng.uniform(0.01, 0.5))
            radii = [zone_boundary_radius(geom, n) for n in range(1, 12)]
            assert all(a < b for a, b in zip(radii, radii[1:]))

    @pytest.mark.parametrize("fs, rows, message", [
        (float("nan"), 1, "fs must be positive and finite"),
        (float("inf"), 1, "fs must be positive and finite"),
        (0.0, 1, "fs must be positive and finite"),
        (1000.0, 0, "subcarriers must be >= 1"),
    ])
    @pytest.mark.parametrize("n", [0, 5])
    def test_refuses_what_the_trace_reader_refuses(self, fs, rows, message, n):
        with pytest.raises(ValueError, match=message):
            CsiTrace(fs=fs, samples=np.ones((rows, n), dtype=np.complex64))

    @pytest.mark.parametrize("samples", [
        np.ones((2, 5), dtype=np.complex128),
        np.ones((2, 5), dtype=">c8"),
        np.ones((2, 5), dtype=np.float32),
        np.ones((2, 5), dtype=np.float64),
        np.ones((2, 5), dtype=object),
        [[1 + 2j] * 5] * 2,
        np.ones((0, 5), dtype=np.complex128),
    ], ids=["complex128", ">c8", "float32", "float64", "object", "list-of-complex",
            "complex128-no-subcarriers"])
    def test_refuses_the_dtypes_the_trace_reader_refuses(self, tmp_path, samples):
        # by name, before any shape check and without rounding anything, in
        # memory as in a trace file
        dtype = re.escape(str(np.asarray(samples).dtype))
        with pytest.raises(ValueError, match=f"^samples have dtype {dtype}, expected complex64$"):
            CsiTrace(fs=1000.0, samples=samples)
        path = tmp_path / "trace.npz"
        np.savez(path, fs=np.float64(1000.0), samples=np.asarray(samples))
        with pytest.raises(ValueError, match=f": samples.npy has dtype {dtype}, "
                                             "expected complex64$"):
            io.read_trace(path)

    def test_annotations_validated(self):
        with pytest.raises(ValueError, match="sorted"):
            CsiTrace(
                fs=100.0,
                samples=np.ones((1, 50), dtype=np.complex64),
                meta=[Annotation(10, 20, "a"), Annotation(15, 30, "b")],
            )


def points_across_the_slab(n):
    """n reflector positions between the antennas, below or beside the axis."""
    return hnp.arrays(float, (n, 3), elements=st.floats(0.0, 1.0)).map(
        lambda u: np.column_stack([0.01 + 0.98 * u[:, 0], 2.0 * u[:, 1] - 1.0, -1.5 * u[:, 2]])
    )


class TestBand:
    @given(
        data=st.data(),
        n_sub=st.integers(1, 256),
        bandwidth=st.floats(1e6, 160e6),
        amp=st.floats(0.0, 4.0),
    )
    def test_recurrence_within_1e_12_of_direct_exponential(self, data, n_sub, bandwidth, amp):
        # the band kernel over any band the recurrence may serve, built here
        # as simulate_trace builds its own: lambda_0 and the wavenumber step
        pts = data.draw(points_across_the_slab(data.draw(st.integers(1, 20))))
        lams = subcarrier_wavelengths(GEOM.wavelength, n_sub, bandwidth)
        k = 1.0 / lams
        h = np.empty((n_sub, len(pts)), dtype=complex)
        _fill_band(h, 8.0 + 0j, [(path_length(GEOM, pts), amp)], lams[0],
                   (k[-1] - k[0]) / max(n_sub - 1, 1))
        lengths = (np.linalg.norm(pts - GEOM.tx_pos, axis=-1)
                   + np.linalg.norm(pts - GEOM.rx_pos, axis=-1))
        direct = 8.0 + amp * np.exp(-2j * np.pi * lengths / lams[:, None])
        assert np.abs(h - direct).max() <= 1e-12
        # the first subcarrier is the direct exponential itself
        assert np.array_equal(h[0].view(np.uint64), direct[0].view(np.uint64))

    def test_subcarrier_wavelengths_accepted_for_1_to_256(self):
        model = make_model(dynamic_paths=((lambda t: np.array([[0.5, 0.0, -0.6]]), 1.0),))
        for n in range(1, 257):
            assert cfr_at(model, [0.0], n).shape == (n, 1)
            trace = simulate_trace(model, [], 0.001, subcarriers=n)
            assert trace.samples.shape == (n, 1)

    def test_band_rows_match_scalar_calls(self):
        # the band form's shapes, and each row within 1e-12 of its own
        # wavelength's direct exponential
        model = make_model(dynamic_paths=((TestCfr.static_path([0.5, 0.0, -0.6]), 0.5),))
        lams = subcarrier_wavelengths(count=4)
        band = cfr_at(model, np.array([0.0, 0.5]), 4)
        assert band.shape == (4, 2)
        assert cfr_at(model, 0.0, 4).shape == (4,)
        for s, lam in enumerate(lams):
            np.testing.assert_allclose(band[s], cfr_at(at_wavelength(model, lam),
                                                       np.array([0.0, 0.5])),
                                       rtol=0, atol=1e-12)


class TestGestureJitter:
    @given(n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1), std=st.floats(1e-5, 1e-2))
    def test_standardized_whatever_the_length(self, n, seed, std):
        # each axis's deviations from its mean are scaled to an RMS of std,
        # so no sample lies beyond sqrt(n) times std from rest
        j = gesture_jitter(n, np.random.default_rng(seed), std)
        assert j.shape == (n, 3)
        assert np.abs(j).max() <= math.sqrt(n) * std * (1 + 1e-12)

    @given(n=st.sampled_from([1, 2, 100, 101, 200, 201]) | st.integers(1, 1500),
           seed=st.integers(0, 2**32 - 1))
    def test_smoothing_matches_gaussian_filter1d(self, n, seed):
        # including n below the kernel's 100-sample radius, where the
        # mirrored noise repeats
        noise = np.random.default_rng(seed).normal(0.0, 1.0, (n, 3))
        want = gaussian_filter1d(noise, 25.0, axis=0, mode="reflect")
        got = channel._smooth_jitter(noise)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_two_samples_no_offset(self):
        # the smoothed noise of two samples is nearly constant, and its
        # mean must not be scaled up into an offset
        j = gesture_jitter(2, np.random.default_rng(0), 5e-4)
        assert np.abs(j).max() <= math.sqrt(2) * 5e-4


class TestPlateSweep:
    def test_vanishing_plate(self):
        rows = simulate_plate_sweep(GEOM, [0.002], grid_density=1000.0)
        assert rows[0][1] < 1e-4

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            simulate_plate_sweep(GEOM, [0.004], grid_density=200.0)

    def test_plate_leaving_the_link_refused(self):
        # at 10 scatterers per metre the 1 m plate's last column, dragged
        # 15 mm, ends at 0.965 m; the 1.07 m plate's would end at 1.0014 m,
        # past the receiver only once dragged
        assert len(simulate_plate_sweep(GEOM, [1.0], grid_density=10.0)) == 1
        with pytest.raises(ValueError, match=r"^plate of side 1\.07 m leaves the space "
                                             r"between the antennas$"):
            simulate_plate_sweep(GEOM, [1.0, 1.07], grid_density=10.0)

    def test_linearity_without_static(self):
        sides = [0.04, 0.08]
        base = simulate_plate_sweep(GEOM, sides, static_component=0.0, reflectivity=10.0)
        doubled = simulate_plate_sweep(GEOM, sides, static_component=0.0, reflectivity=20.0)
        for (_, pp1), (_, pp2) in zip(base, doubled):
            assert pp2 == pytest.approx(2.0 * pp1, rel=1e-12)

    def test_sweep_non_monotonic(self):
        sides = [s / 100 for s in range(2, 13)]
        rows = simulate_plate_sweep(GEOM, sides)
        pp = np.array([v for _, v in rows])
        rising = np.flatnonzero(np.diff(pp) > 0)
        falling = np.flatnonzero(np.diff(pp) < 0)
        # a local maximum exists, and a local minimum follows it
        assert len(rising) and len(falling)
        first_peak = falling[falling > rising[0]]
        assert len(first_peak)
        later_rise = rising[rising > first_peak[0]]
        assert len(later_rise)

    def test_unordered_sides_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            simulate_plate_sweep(GEOM, [0.05, 0.03])


def row_noise(model, n_sub, n_samples):
    """Each subcarrier's noise as one whole-row draw, real parts from
    stream 2s and imaginary parts from stream 2s + 1, shaped (2, S, T)."""
    streams = np.random.SeedSequence(model.rng_seed).spawn(2 * n_sub)
    draws = [np.random.default_rng(seq).normal(0.0, model.noise_std, n_samples)
             for seq in streams]
    return np.stack([draws[0::2], draws[1::2]])


def with_noise(noiseless, noise):
    """complex64 samples plus the (2, S, T) float64 noise parts, each part's
    sum taken in float64 and rounded once to float32."""
    out = np.empty_like(noiseless)
    out.real = noiseless.real + noise[0]
    out.imag = noiseless.imag + noise[1]
    return out


def one_shot_noise_samples(model, script, duration, fs, n_sub):
    """The simulator's samples with each row's noise drawn whole and added
    out of place."""
    noiseless = simulate_trace(
        replace(model, noise_std=0.0), script, duration, fs=fs, subcarriers=n_sub
    ).samples
    if model.noise_std == 0:
        return noiseless
    return with_noise(noiseless, row_noise(model, *noiseless.shape))


class TestStreamedNoise:
    @given(
        n_sub=st.integers(1, 4),
        n_samples=st.integers(1, 1500),
        noise_std=st.sampled_from([0.0]) | st.floats(1e-3, 2.0),
        seed=st.integers(0, 2**32 - 1),
        jitter=st.sampled_from([None, 0.0, 5e-4]),
    )
    def test_matches_one_shot_draw(self, n_sub, n_samples, noise_std, seed, jitter):
        # the gesture (and its jitter draws) only in traces that hold all of it
        script = [] if jitter is None or n_samples < 400 else [
            (0.05, GestureModel(kind=GestureKind.KEYSTROKE, duration=0.3, jitter_std=jitter))
        ]
        model = make_model(static_component=8.0, noise_std=noise_std, rng_seed=seed)
        duration = n_samples / 1000.0
        got = simulate_trace(model, script, duration, fs=1000.0, subcarriers=n_sub)
        want = one_shot_noise_samples(model, script, duration, 1000.0, n_sub)
        assert got.samples.shape == want.shape
        assert np.array_equal(got.samples.view(np.uint64), want.view(np.uint64))

    def test_peak_memory_near_the_samples(self):
        # 60 s x 30 subcarriers: the complex64 samples are 14.4 MB; a
        # one-shot noise draw and its complex128 temporaries would take
        # about eight times that, and (30, 8192) complex128 fill blocks
        # 3.9 MB per worker
        gesture = GestureModel(kind=GestureKind.KEYSTROKE, jitter_std=5e-4)
        model = make_model(static_component=8.0, noise_std=0.16, rng_seed=3)
        tracemalloc.start()
        try:
            trace = simulate_trace(model, [(1.0, gesture)], duration=60.0)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.samples.shape == (30, 60000)
        # the samples are on a map of their own, which tracemalloc does not see
        assert isinstance(trace.samples.base.base.obj, mmap.mmap)
        assert peak + trace.samples.nbytes <= 1.5 * trace.samples.nbytes

    def test_peak_memory_one_trace_length_array(self, monkeypatch):
        # 100 jittered gestures over 300 s on two workers: besides the
        # samples, the path lengths of the reflector are the one array of
        # the trace's length; the whole (T, 3) track, its path_length
        # temporaries and the time axis would be about five such arrays
        monkeypatch.setattr(_workers, "cpus", lambda: 2)
        gestures = [GestureModel(kind=kind, jitter_std=5e-4)
                    for kind in (GestureKind.KEYSTROKE, GestureKind.MOUSE_MOVE)]
        script = [(1.0 + 3.0 * i, gestures[i % 2]) for i in range(100)]
        model = make_model(static_component=8.0, noise_std=0.16, rng_seed=3)
        tracemalloc.start()
        try:
            trace = simulate_trace(model, script, duration=300.0, subcarriers=4)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(trace.samples.base.base.obj, mmap.mmap)
        assert len(trace.meta) == 100
        assert peak <= 8 * trace.n_samples + PEAK_ALLOWANCE

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads Linux's /proc")
    def test_freed_samples_leave_the_resident_set(self):
        def resident() -> int:
            with open("/proc/self/statm") as fh:
                return int(fh.read().split()[1]) * mmap.PAGESIZE

        trace = simulate_trace(make_model(noise_std=0.16), [], duration=60.0)
        nbytes = trace.samples.nbytes
        before = resident()
        del trace
        assert before - resident() >= 0.9 * nbytes


def whole_reflector_track(script, n_samples, fs, rng):
    """The scripted reflector's whole (n_samples, 3) trajectory and the
    gestures' annotations, resting in place between gestures; the script's
    checks are _build_reflector_track's."""
    t = np.arange(n_samples) / fs
    entries = sorted(script, key=lambda item: item[0])
    positions = np.zeros((n_samples, 3))
    annotations = []
    cursor = 0
    current_rest = entries[0][1].rest_pos
    for start, gesture in entries:
        s_idx = int(np.floor(start * fs))
        e_idx = min(int(np.ceil((start + gesture.duration) * fs)), n_samples - 1)
        if s_idx >= n_samples:
            break
        positions[cursor:s_idx] = current_rest
        t_rel = t[s_idx:e_idx + 1] - start
        block = gesture.positions(t_rel)
        if gesture.jitter_std > 0:
            block = block + gesture_jitter(len(t_rel), rng, gesture.jitter_std)
        positions[s_idx:e_idx + 1] = block
        annotations.append(Annotation(s_idx, e_idx, gesture.kind.value))
        current_rest = gesture.end_pos
        cursor = e_idx + 1
    positions[cursor:] = current_rest
    return positions, annotations


def serial_simulate_trace(model, script, duration, fs, n_sub, reflection_amplitude):
    """The simulator as one serial pass: the whole complex128 band from the
    kernel, scaled by the gains and rounded to complex64, then each row's
    whole-row noise draws added."""
    lams = subcarrier_wavelengths(model.geometry.wavelength, n_sub)
    k = 1.0 / lams
    dk = (k[-1] - k[0]) / max(n_sub - 1, 1)
    gains = default_subcarrier_gains(n_sub)
    n_samples = int(round(fs * duration))
    rng = np.random.default_rng(model.rng_seed)
    t = np.arange(n_samples) / fs
    paths = []
    annotations = []
    if script:
        track, annotations = whole_reflector_track(script, n_samples, fs, rng)
        _check_slab(model.geometry, track)
        paths.append((path_length(model.geometry, track), reflection_amplitude))
    for traj, amp in model.dynamic_paths:
        pos = np.asarray(traj(t), dtype=float)
        _check_slab(model.geometry, pos)
        paths.append((path_length(model.geometry, pos), amp))
    h = np.empty((n_sub, n_samples), dtype=complex)
    _fill_band(h, model.static_component, paths, lams[0], dk)
    samples = (gains[:, None] * h).astype(np.complex64)
    if model.noise_std > 0:
        samples = with_noise(samples, row_noise(model, n_sub, n_samples))
    return samples, annotations


def swaying_hand(t):
    """A second reflector drifting slowly along y over the trace."""
    t = np.atleast_1d(t)
    out = np.zeros(t.shape + (3,))
    out[..., 0] = 0.4
    out[..., 1] = 0.01 * np.sin(0.7 * t)
    out[..., 2] = -0.58
    return out


def assert_matches_serial(model, script, n_samples, n_sub, fs=1000.0):
    duration = n_samples / fs
    got = simulate_trace(model, script, duration, fs=fs, subcarriers=n_sub,
                         reflection_amplitude=3.0)
    want, annotations = serial_simulate_trace(model, script, duration, fs, n_sub, 3.0)
    assert got.samples.shape == (n_sub, n_samples)
    assert np.array_equal(got.samples.view(np.uint64), want.view(np.uint64))
    assert got.meta == annotations
    return got


class TestBlockedSimulator:
    KEYSTROKE = [(1.0, GestureModel(kind=GestureKind.KEYSTROKE, jitter_std=5e-4))]

    @staticmethod
    def model(noise_std, rng_seed=5):
        return make_model(static_component=8.0, noise_std=noise_std, rng_seed=rng_seed,
                          dynamic_paths=((swaying_hand, 0.7),))

    @pytest.mark.parametrize("noise_std", [0.0, 0.16])
    @pytest.mark.parametrize("offset", ["block-1", "block", "block+1", "2*block+1"])
    def test_matches_serial_loop_at_block_edges(self, offset, noise_std):
        block = channel._BLOCK
        n_samples = {"block-1": block - 1, "block": block, "block+1": block + 1,
                     "2*block+1": 2 * block + 1}[offset]
        for n_sub in (1, 2, 3, 4):
            assert_matches_serial(self.model(noise_std), self.KEYSTROKE, n_samples, n_sub)

    @given(
        n_sub=st.integers(1, 4),
        n_samples=st.integers(1, 300),
        block=st.integers(1, 70),
        noise_std=st.sampled_from([0.0]) | st.floats(1e-3, 2.0),
        seed=st.integers(0, 2**32 - 1),
        with_script=st.booleans(),
    )
    def test_matches_serial_loop_for_any_block(self, n_sub, n_samples, block, noise_std,
                                                seed, with_script):
        script = [
            (0.02, GestureModel(kind=GestureKind.MOUSE_MOVE, duration=0.05, jitter_std=1e-4))
        ] if with_script and n_samples >= 80 else []
        with mock.patch.object(channel, "_BLOCK", block):
            assert_matches_serial(self.model(noise_std, seed), script, n_samples, n_sub)

    def test_noise_free_rows_are_the_kernel_bits(self):
        # no stream is drawn from without noise: the trace is the gains
        # times cfr_at over the band, rounded once to complex64, bit for
        # bit, on both sides of block edges
        model = self.model(0.0)
        n_sub, n_samples = 3, 2 * channel._BLOCK + 1
        gains = default_subcarrier_gains(n_sub)
        trace = simulate_trace(model, [], n_samples / 1000.0, subcarriers=n_sub)
        t = np.arange(n_samples) / 1000.0
        want = (gains[:, None] * cfr_at(model, t, n_sub)).astype(np.complex64)
        assert np.array_equal(trace.samples.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_same_bytes_at_any_worker_count(self, monkeypatch, workers):
        # one worker, and more workers than CPUs with thread switches
        # forced every microsecond; a thread floor of one sample puts a
        # trace this short on threads
        n_samples = 2 * channel._BLOCK + 1
        default = assert_matches_serial(self.model(0.16), self.KEYSTROKE, n_samples, 4)
        monkeypatch.setattr(_workers, "cpus", lambda: workers)
        monkeypatch.setattr(_workers, "_MIN_SAMPLES_PER_THREAD", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = assert_matches_serial(self.model(0.16), self.KEYSTROKE, n_samples, 4)
        finally:
            sys.setswitchinterval(interval)
        assert got.samples.tobytes() == default.samples.tobytes()

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        def broken(out, static, paths, lam0, dk, gains=None):
            raise FloatingPointError("kernel failed")

        monkeypatch.setattr(channel, "_fill_band", broken)
        with pytest.raises(FloatingPointError, match="kernel failed"):
            simulate_trace(self.model(0.16), self.KEYSTROKE, duration=20.0)


@st.composite
def gesture_scripts(draw):
    """(script, n_samples, fs): 1-4 gestures two samples apart at least, with
    rest points on both sides of the slab's ends, possibly running past the
    trace's end or starting after it."""
    fs = draw(st.sampled_from([100.0, 250.0, 1000.0]))
    start = draw(st.floats(0.0, 0.5))
    script = []
    for _ in range(draw(st.integers(1, 4))):
        x = draw(st.sampled_from([-0.01, 0.98]) | st.floats(0.02, 0.9))
        gesture = GestureModel(
            kind=draw(st.sampled_from(list(GestureKind))),
            rest_pos=[x, draw(st.floats(-0.2, 0.2)), -draw(st.floats(0.55, 0.7))],
            travel=draw(st.floats(0.005, 0.05)),
            duration=draw(st.floats(0.02, 0.5)),
            jitter_std=draw(st.sampled_from([0.0, 1e-3])),
        )
        script.append((start, gesture))
        start += gesture.duration + 2.0 / fs + draw(st.floats(0.0, 0.4))
    n_samples = draw(st.integers(1, int(start * fs) + 50))
    return draw(st.permutations(script)), n_samples, fs


def outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


class TestReflectorTrack:
    @given(gesture_scripts(), st.integers(0, 2**32 - 1))
    def test_lengths_are_the_whole_tracks(self, case, seed):
        # the path lengths built span by span equal those of the whole
        # track, bit for bit, with the same annotations, jitter draws and
        # slab refusals
        script, n_samples, fs = case

        def whole():
            track, annotations = whole_reflector_track(script, n_samples, fs,
                                                       np.random.default_rng(seed))
            _check_slab(GEOM, track)
            return path_length(GEOM, track).tobytes(), annotations

        def by_span():
            lengths, annotations = _build_reflector_track(GEOM, script, n_samples, fs,
                                                          np.random.default_rng(seed))
            assert lengths.shape == (n_samples,)
            return lengths.tobytes(), annotations

        assert outcome(by_span) == outcome(whole)
