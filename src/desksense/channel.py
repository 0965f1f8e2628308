"""Fresnel-zone channel model and CSI trace synthesis.

Models the received WiFi channel as a static component plus a sum of
dynamic reflection paths.  A reflector at position p contributes a phase
shift proportional to its total path length |Tx,p| + |p,Rx|, so motion of
a few centimetres sweeps the received amplitude through constructive and
destructive interference.  Concentric ellipsoidal zones around the Tx-Rx
pair (excess path in [(n-1)*lambda/2, n*lambda/2)) partition space by that
interference sense, which is what makes desk-scale micro-gestures visible
when the antennas are deployed so the hand sits in a zone whose thickness
matches the gesture size.

Subcarriers are evenly spaced in wavenumber 1/lambda, so a path's phasor
on subcarrier s is e0 * r**s: two complex exponentials per sample and path.

Everything here is deterministic given a seed; the simulator doubles as
the ground-truth oracle for the downstream processing stages.
"""
from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from ._workers import thread_map

SPEED_OF_LIGHT = 299_792_458.0

# 2.4 GHz band defaults: with d = 1 m and lambda = 0.125 m the 9th-11th
# zones are ~4 cm thick, matching the keystroke scale.
DEFAULT_WAVELENGTH = 0.125
DEFAULT_ANTENNA_DISTANCE = 1.0
DEFAULT_FS = 1000.0
DEFAULT_SUBCARRIERS = 30
DEFAULT_BANDWIDTH_HZ = 20e6

# Amplitude scale for synthetic traces (arbitrary linear units).  The
# segmenter's accumulator thresholds are absolute, so these defaults are
# calibrated together with segmentation's constants.
DEFAULT_STATIC_AMPLITUDE = 8.0
DEFAULT_REFLECTION_AMPLITUDE = 4.0
DEFAULT_NOISE_STD = 0.16  # quiet-period amplitude std ~= 2% of |H_s|
DEFAULT_REST_DEPTH = 0.61  # metres below the antenna line, inside zone 10
# Std of a scripted gesture's hand micro-motion, in metres.
DEFAULT_GESTURE_JITTER_STD = 2.5e-3

# Largest trace simulate_trace builds, in complex samples over all
# subcarriers (fs x duration x subcarriers): 2**30 complex64 samples are 8 GiB.
# Checked before any allocation of that size, so an oversized fs or
# duration is a ValueError naming the sample count, not a MemoryError.
MAX_TRACE_SAMPLES = 2**30

# Samples per simulator kernel task, and per noise draw.  Each worker
# thread keeps its tasks' complex temporaries in its own malloc arena after
# they are freed, so the block is kept small: with two workers (a 2-vCPU
# host), blocks of 65,536 samples left 3.6 MB more resident after a 36 s,
# 30-subcarrier trace and blocks of 8,192 about 1 MB.
_BLOCK = 8192

# Hand jitter is white noise smoothed by a normalised Gaussian kernel of 25
# samples' std (a few Hz at 1 kHz), cut at a radius of four std.
_JITTER_SIGMA = 25.0
_JITTER_RADIUS = int(4 * _JITTER_SIGMA + 0.5)
_JITTER_KERNEL = np.exp(-0.5 / _JITTER_SIGMA**2
                        * np.arange(-_JITTER_RADIUS, _JITTER_RADIUS + 1) ** 2)
_JITTER_KERNEL /= _JITTER_KERNEL.sum()


def _as_point(p) -> np.ndarray:
    a = np.asarray(p, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("point has non-finite coordinates")
    return a


@dataclass(frozen=True)
class FresnelGeometry:
    """The one placement: Tx at the origin, Rx antenna_distance along +x,
    the carrier wavelength, and the desk rest_depth below the antenna line.
    It is the config's `geometry` section."""

    antenna_distance: float = DEFAULT_ANTENNA_DISTANCE
    wavelength: float = DEFAULT_WAVELENGTH
    rest_depth: float = DEFAULT_REST_DEPTH

    def __post_init__(self):
        if not 0 < self.antenna_distance < math.inf:
            raise ValueError("antenna_distance must be positive and finite")
        if not 0 < self.wavelength < math.inf:
            raise ValueError("wavelength must be positive and finite")
        if not 0.55 <= self.rest_depth <= 0.70:
            raise ValueError("rest_depth must lie in [0.55, 0.70] m")

    @property
    def tx_pos(self) -> np.ndarray:
        return np.zeros(3)

    @property
    def rx_pos(self) -> np.ndarray:
        return np.array([self.antenna_distance, 0.0, 0.0])

    @property
    def midpoint(self) -> np.ndarray:
        return np.array([self.antenna_distance / 2, 0.0, 0.0])

    @property
    def axis(self) -> np.ndarray:
        """Unit vector from Tx to Rx."""
        return np.array([1.0, 0.0, 0.0])

    @property
    def rest_pos(self) -> np.ndarray:
        """Where a gesture rests by default: below the link's midpoint."""
        return np.array([self.antenna_distance / 2, 0.0, -self.rest_depth])


def path_length(geometry: FresnelGeometry, positions: np.ndarray) -> np.ndarray:
    """Total Tx -> position -> Rx path length; positions shaped (..., 3)."""
    p = np.asarray(positions, dtype=float)
    return _norm(p - geometry.tx_pos) + _norm(p - geometry.rx_pos)


def _norm(d: np.ndarray) -> np.ndarray:
    """np.linalg.norm(d, axis=-1) of (..., 3) vectors bit for bit, faster."""
    return np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2])


def excess_path(geometry: FresnelGeometry, p) -> float:
    """Path length via p minus the direct Tx-Rx distance (>= 0)."""
    point = _as_point(p)
    return float(path_length(geometry, point) - geometry.antenna_distance)


def zone_boundary_radius(geometry: FresnelGeometry, n: int) -> float:
    """Perpendicular distance from the Tx-Rx midpoint to the n-th zone boundary.

    Closed form b_n = sqrt(n*lam*d/4 + n^2*lam^2/16), the semi-minor axis of
    the ellipse with excess path n*lam/2.
    """
    if n < 1:
        raise ValueError("zone index must be >= 1")
    lam = geometry.wavelength
    d = geometry.antenna_distance
    return math.sqrt(n * lam * d / 4.0 + n * n * lam * lam / 16.0)


def zone_index(geometry: FresnelGeometry, p) -> int:
    """Fresnel zone containing p; a point exactly on boundary n maps to n + 1."""
    excess = excess_path(geometry, p)
    return int(math.floor(excess / (geometry.wavelength / 2.0))) + 1


class GestureKind(Enum):
    KEYSTROKE = "keystroke"
    MOUSE_MOVE = "mouse_move"


@dataclass(frozen=True)
class GestureModel:
    """One micro-gesture: a short reflector trajectory anchored at rest_pos.

    Keystrokes travel down-then-up along -z and return to rest; mouse moves
    displace one-directionally along +x; both with a sinusoidal velocity
    over the gesture.  jitter_std adds seeded hand micro-motion (metres, 0
    disables); corpora use it, the clean interference examples do not.
    """

    kind: GestureKind
    rest_pos: np.ndarray = field(default_factory=lambda: FresnelGeometry().rest_pos)
    travel: float = 0.02
    duration: float = 0.7
    jitter_std: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rest_pos", _as_point(self.rest_pos))
        if not 0 < self.travel < math.inf:
            raise ValueError(f"travel must be positive and finite, got {self.travel!r}")
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be positive and finite, got {self.duration!r}")
        if self.jitter_std < 0:
            raise ValueError("jitter_std must be >= 0")

    def displacement(self, t_rel: np.ndarray) -> np.ndarray:
        """Deterministic displacement from rest_pos at times t_rel in [0, duration]."""
        t = np.clip(np.asarray(t_rel, dtype=float), 0.0, self.duration)
        frac = t / self.duration
        out = np.zeros(t.shape + (3,))
        if self.kind is GestureKind.KEYSTROKE:
            out[..., 2] = -self.travel * np.sin(np.pi * frac) ** 2
        else:
            out[..., 0] = self.travel * (1.0 - np.cos(np.pi * frac)) / 2.0
        return out

    def positions(self, t_rel: np.ndarray) -> np.ndarray:
        return self.rest_pos + self.displacement(t_rel)

    @property
    def end_pos(self) -> np.ndarray:
        """Reflector position once the gesture completes."""
        return self.positions(np.array([self.duration]))[0]


def _smooth_jitter(noise: np.ndarray) -> np.ndarray:
    """Each column of an (n, 3) array convolved with the jitter kernel, the
    column mirrored past each end (c b a | a b c | c b a) as far as needed."""
    padded = np.pad(noise, ((_JITTER_RADIUS, _JITTER_RADIUS), (0, 0)), mode="symmetric")
    return np.column_stack([np.convolve(axis, _JITTER_KERNEL, "valid") for axis in padded.T])


def gesture_jitter(n: int, rng: np.random.Generator, std: float) -> np.ndarray:
    """Smooth 3-D hand micro-motion over n samples, ramped in and out.

    Band-limited (a few Hz at 1 kHz sampling) so it survives the low-pass
    stage; the soft envelope avoids artificial onset steps.  Each axis is
    centred before it is scaled to std, so a short gesture gets no offset.
    """
    if n == 0 or std == 0.0:
        return np.zeros((n, 3))
    j = _smooth_jitter(rng.normal(0.0, 1.0, (n, 3)))
    sd = j.std(axis=0)
    sd[sd == 0] = 1.0
    j = (j - j.mean(axis=0)) / sd * std
    ramp = min(120, n // 4)
    if ramp > 0:
        env = np.ones(n)
        env[:ramp] = np.sin(np.linspace(0.0, np.pi / 2.0, ramp)) ** 2
        env[n - ramp:] = np.sin(np.linspace(np.pi / 2.0, 0.0, ramp)) ** 2
        j *= env[:, None]
    return j


@dataclass(frozen=True)
class Annotation:
    """Ground-truth gesture span in sample indices (inclusive)."""

    start_idx: int
    end_idx: int
    label: str

    def __post_init__(self):
        if self.start_idx < 0 or self.end_idx < self.start_idx:
            raise ValueError("annotation indices out of order")


def _mapped_empty(shape, dtype) -> np.ndarray:
    """np.empty(shape, dtype) on a private anonymous memory map of its own,
    for a trace's samples, so their pages go back to the system when the
    array is freed.  Through malloc, once one samples array was freed glibc
    served the next from its heap (its mmap threshold rises to the largest
    block freed) and kept the freed heap resident: the peak RSS of
    simulating, writing and reading a 36 s trace read 64 or 78 MB from run
    to run (2 vCPUs, Linux, glibc).  The map is private, not shared memory,
    and asks for huge pages where mmap can: touching each page of 17.3 MB
    took 9.2 ms on a shared map, 7.5 ms on a private one and 3.0 ms with the
    hint (medians of 15, 2 vCPUs, Linux).  A shape of no bytes stays with
    np.empty, since mmap refuses an empty map."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if not nbytes:
        return np.empty(shape, dtype)
    buffer = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buffer.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buffer, dtype).reshape(shape)


@dataclass
class CsiTrace:
    """Uniformly sampled multi-subcarrier complex channel response.

    The samples are complex64, as commodity CSI reports them with far fewer
    bits than a float32 holds, and are kept without a copy.  Samples of any
    other dtype, complex128 included, are refused by name, not rounded, as
    a trace file's reader refuses them: its "<c8" is complex64 on the
    little-endian hosts desksense runs on."""

    fs: float
    samples: np.ndarray  # (subcarriers, T) complex64
    meta: list[Annotation] = field(default_factory=list)

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.dtype != np.complex64:
            raise ValueError(f"samples have dtype {self.samples.dtype}, expected complex64")
        if self.samples.ndim != 2:
            raise ValueError("samples must be a (subcarriers, T) array")
        if self.samples.shape[0] < 1:
            raise ValueError("subcarriers must be >= 1")
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise ValueError(f"fs must be positive and finite, got {self.fs}")
        last = -1
        for ann in self.meta:
            if ann.start_idx <= last:
                raise ValueError("annotations must be disjoint and sorted")
            if ann.end_idx >= self.samples.shape[1]:
                raise ValueError("annotation exceeds trace length")
            last = ann.end_idx

    @property
    def subcarriers(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class ChannelModel:
    """Static CFR plus dynamic reflection paths.

    dynamic_paths holds (trajectory, amplitude) pairs where trajectory maps
    an array of times to (..., 3) positions.  noise_std is the per-sample
    complex Gaussian std applied by the simulator (never by cfr_at).
    """

    geometry: FresnelGeometry = field(default_factory=FresnelGeometry)
    static_component: complex = DEFAULT_STATIC_AMPLITUDE + 0j
    dynamic_paths: tuple = ()
    noise_std: float = DEFAULT_NOISE_STD
    rng_seed: int = 0

    def __post_init__(self):
        paths = tuple(self.dynamic_paths)
        for traj, amp in paths:
            if not callable(traj):
                raise ValueError("trajectory must be callable")
            if amp < 0:
                raise ValueError("reflection amplitude must be >= 0")
        object.__setattr__(self, "dynamic_paths", paths)
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")


def _fill_band(out: np.ndarray, static: complex, paths, lam0: float, dk: float,
               gains=None) -> None:
    """out[s] = gains[s] * (static + sum_k a_k * exp(-j*2*pi*d_k*(1/lam0 + s*dk)))
    over the rows s of out, a gain of 1 without gains.

    Each row is built in one complex128 buffer and stored in out's dtype, so
    a complex64 out is rounded once and never holds more than a row in
    complex128.  Row 0 takes e0 = a_k*exp(-j*2*pi*d_k/lam0) of each path,
    each next row the phasor times r = exp(-j*2*pi*d_k*dk), in real
    multiplies and adds: numpy's complex multiply rounds differently with
    fused multiply-adds and at length 1, which would tie the bits to the
    CPU and the block width.  A row adds the paths in the given order, so
    cfr_at and simulate_trace agree bit for bit.
    """
    steps = [(amp * np.exp(-2j * np.pi * lengths / lam0), np.exp(-2j * np.pi * lengths * dk))
             for lengths, amp in paths]
    row = np.empty(out.shape[1:], dtype=complex)
    for s, target in enumerate(out):
        row.fill(static)
        for ph, r in steps:
            if s:
                re, im = ph.real, ph.imag
                re[...], im[...] = re * r.real - im * r.imag, re * r.imag + im * r.real
            row += ph
        if gains is not None:
            row *= gains[s]
        target[...] = row


def _band(geometry: FresnelGeometry, subcarriers: int) -> tuple[float, float]:
    """lambda_0 and the wavenumber step dk of the subcarrier_wavelengths
    band of `subcarriers` around the geometry's carrier wavelength."""
    lams = subcarrier_wavelengths(geometry.wavelength, subcarriers)
    k = 1.0 / lams
    return lams[0], (k[-1] - k[0]) / max(subcarriers - 1, 1)


def cfr_at(model: ChannelModel, t, subcarriers: int | None = None):
    """Noise-free channel response H_s + sum_k a_k * exp(-j*2*pi*d_k(t)/lambda).

    By default at the geometry's wavelength alone, a direct exponential; with
    a subcarrier count, the (subcarriers, T) band around it that a noise-free
    simulate_trace of that count scales by its gains, bit for bit.
    """
    count = 1 if subcarriers is None else subcarriers
    lam0, dk = _band(model.geometry, count)
    times = np.atleast_1d(np.asarray(t, dtype=float))
    paths = [
        (path_length(model.geometry, np.asarray(traj(times), dtype=float)), amp)
        for traj, amp in model.dynamic_paths
    ]
    h = np.empty((count,) + times.shape, dtype=complex)
    _fill_band(h, model.static_component, paths, lam0, dk)
    if np.ndim(t) == 0:
        h = h[:, 0]
    return h[0] if subcarriers is None else h


def subcarrier_wavelengths(
    center_wavelength: float = DEFAULT_WAVELENGTH,
    count: int = DEFAULT_SUBCARRIERS,
    bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ,
) -> np.ndarray:
    """Wavelengths of `count` subcarriers spread uniformly over the band."""
    if count < 1:
        raise ValueError("subcarrier count must be >= 1")
    f_center = SPEED_OF_LIGHT / center_wavelength
    if count == 1:
        return np.array([center_wavelength])
    freqs = np.linspace(f_center - bandwidth_hz / 2, f_center + bandwidth_hz / 2, count)
    return SPEED_OF_LIGHT / freqs


def default_subcarrier_gains(count: int = DEFAULT_SUBCARRIERS) -> np.ndarray:
    """Per-subcarrier channel gain profile, decaying with index.

    Emulates the empirically observed spread in motion sensitivity across
    subcarriers; with additive noise held constant, low-index subcarriers
    end up with the most informative amplitude series.
    """
    return np.linspace(1.0, 0.4, count)


def _build_reflector_track(
    geometry: FresnelGeometry,
    script: Sequence[tuple[float, GestureModel]],
    n_samples: int,
    fs: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[Annotation]]:
    """Path lengths of a piecewise trajectory: scripted gestures, resting in
    place between them, and the gestures' annotations.

    Built span by span into the (n_samples,) lengths: a rest span takes its
    point's one length, and a gesture span is computed and slab-checked from
    its own positions and jitter, drawn from rng in start order.  So the
    whole (n_samples, 3) track is never built.
    """
    entries = sorted(script, key=lambda item: item[0])
    prev_end = None
    for start, gesture in entries:
        if not 0 <= start < math.inf:
            raise ValueError(f"gesture start time must be >= 0 and finite, got {start!r}")
        if prev_end is not None and start < prev_end - 1e-12:
            raise ValueError(f"gestures overlap at t={start:.3f}s")
        prev_end = start + gesture.duration

    lengths = np.empty(n_samples)
    annotations = []
    cursor = 0
    current_rest = entries[0][1].rest_pos
    for start, gesture in entries:
        s_idx = int(np.floor(start * fs))
        e_idx = min(int(np.ceil((start + gesture.duration) * fs)), n_samples - 1)
        if s_idx >= n_samples:
            break
        _rest_lengths(geometry, current_rest, lengths[cursor:s_idx])
        t_rel = np.arange(s_idx, e_idx + 1) / fs - start
        block = gesture.positions(t_rel)
        if gesture.jitter_std > 0:
            block = block + gesture_jitter(len(t_rel), rng, gesture.jitter_std)
        _check_slab(geometry, block)
        lengths[s_idx:e_idx + 1] = path_length(geometry, block)
        annotations.append(Annotation(s_idx, e_idx, gesture.kind.value))
        current_rest = gesture.end_pos
        cursor = e_idx + 1
    _rest_lengths(geometry, current_rest, lengths[cursor:])
    return lengths, annotations


def _rest_lengths(geometry: FresnelGeometry, point: np.ndarray, out: np.ndarray) -> None:
    """Fill out with the path length via point, slab-checked, if out has samples."""
    if len(out):
        _check_slab(geometry, point[None])
        out[...] = path_length(geometry, point[None])


def _check_slab(geometry: FresnelGeometry, positions: np.ndarray,
                what: str = "reflector trajectory") -> None:
    axis = geometry.axis
    proj = (positions - geometry.tx_pos) @ axis
    if np.any(proj <= 0.0) or np.any(proj >= geometry.antenna_distance):
        raise ValueError(f"{what} leaves the space between the antennas")


def check_trace_size(fs: float, duration: float, subcarriers: int) -> None:
    """Refuse a trace of more than MAX_TRACE_SAMPLES complex samples over all
    subcarriers (fs x duration x subcarriers) with a ValueError naming its
    sample count, before anything of that size is built."""
    if fs * duration * subcarriers > MAX_TRACE_SAMPLES:
        raise ValueError(
            f"trace of {fs * duration:.0f} samples x {subcarriers} subcarriers exceeds "
            f"the limit of {MAX_TRACE_SAMPLES} samples"
        )


def simulate_trace(
    model: ChannelModel,
    script: Sequence[tuple[float, GestureModel]],
    duration: float,
    fs: float = DEFAULT_FS,
    subcarriers: int = DEFAULT_SUBCARRIERS,
    reflection_amplitude: float = DEFAULT_REFLECTION_AMPLITUDE,
) -> CsiTrace:
    """Synthesize an annotated multi-subcarrier CSI trace for a gesture script.

    The scripted reflector is one dynamic path with the given reflection
    amplitude; any dynamic_paths already on the model contribute as well.
    The band is subcarrier_wavelengths(model.geometry.wavelength, subcarriers)
    with the gains default_subcarrier_gains(subcarriers).

    The samples are complex64.  Through _workers.thread_map it first fills
    blocks of _BLOCK columns with gains[:, None] * cfr_at(model, t,
    subcarriers), computed in complex128 and rounded once, bit for bit.  It
    then adds the complex Gaussian noise of model.noise_std row by row:
    subcarrier s draws its real and imaginary parts from streams 2s and
    2s + 1 of SeedSequence(model.rng_seed).spawn(2 * subcarriers), _BLOCK
    at a time, and each part's sum is taken in float64 and rounded once to
    float32.  So the bytes are the same at any CPU count and any block.  A
    trace that check_trace_size refuses is not built.
    """
    if not 0 < fs < math.inf:
        raise ValueError("fs must be positive and finite")
    if not 0 < duration < math.inf:
        raise ValueError("duration must be positive and finite")
    if reflection_amplitude < 0:
        raise ValueError("reflection amplitude must be >= 0")
    check_trace_size(fs, duration, subcarriers)
    lam0, dk = _band(model.geometry, subcarriers)
    gains = default_subcarrier_gains(subcarriers)
    n_samples = int(round(fs * duration))
    if n_samples < 1:
        raise ValueError("duration too short for one sample")

    paths: list[tuple[np.ndarray, float]] = []
    annotations: list[Annotation] = []
    if script:
        lengths, annotations = _build_reflector_track(
            model.geometry, script, n_samples, fs, np.random.default_rng(model.rng_seed))
        paths.append((lengths, reflection_amplitude))
    for traj, amp in model.dynamic_paths:
        pos = np.asarray(traj(np.arange(n_samples) / fs), dtype=float)
        _check_slab(model.geometry, pos)
        paths.append((path_length(model.geometry, pos), amp))

    samples = _mapped_empty((subcarriers, n_samples), np.complex64)
    streams = np.random.SeedSequence(model.rng_seed).spawn(2 * subcarriers)

    def fill_columns(a: int) -> None:
        _fill_band(samples[:, a:a + _BLOCK], model.static_component,
                   [(lengths[a:a + _BLOCK], amp) for lengths, amp in paths], lam0, dk, gains)

    def add_noise(s: int) -> None:
        draw = np.empty(min(_BLOCK, n_samples))
        for part, seq in zip((samples[s].real, samples[s].imag), streams[2 * s:2 * s + 2]):
            stream = np.random.default_rng(seq)
            for a in range(0, n_samples, _BLOCK):
                z = stream.standard_normal(out=draw[:min(_BLOCK, n_samples - a)])
                z *= model.noise_std
                part[a:a + len(z)] += z   # float32 + float64: added in float64, rounded once

    thread_map(fill_columns, range(0, n_samples, _BLOCK), samples.size)
    if model.noise_std > 0:
        thread_map(add_noise, range(subcarriers), samples.size)
    return CsiTrace(fs=fs, samples=samples, meta=annotations)


def simulate_plate_sweep(
    geometry: FresnelGeometry,
    side_lengths: Sequence[float],
    grid_density: float = 200.0,
    static_component: complex = 1.0 + 0j,
    reflectivity: float = 25.0,
) -> list[tuple[float, float]]:
    """Peak-to-peak |H| while dragging square plates below the link midpoint.

    Each plate is a uniform grid of coherent point scatterers in the vertical
    plane through the Tx-Rx axis, per-scatterer amplitude reflectivity *
    cell area (total reflection scales with plate area).  The plate centre
    starts 0.5 m below the midpoint and is dragged 15 mm along the axis at
    0.08 m/s, sampled at DEFAULT_FS.
    Larger plates span neighbouring Fresnel zones whose contributions cancel,
    so the returned curve is non-monotonic in side length.  The sweep is
    noise-free and draws no random numbers: the same arguments give the same
    rows bit for bit.
    """
    sides = list(side_lengths)
    if any(s <= 0 for s in sides):
        raise ValueError("side lengths must be positive")
    if sides != sorted(sides):
        raise ValueError("side lengths must be ascending")

    depth, drag_range, drag_speed = 0.5, 0.015, 0.08   # m, m, m/s
    mid = geometry.midpoint
    axis = geometry.axis
    down = np.array([0.0, 0.0, -1.0])
    n_steps = int(round(drag_range / drag_speed * DEFAULT_FS)) + 1
    shifts = np.linspace(0.0, drag_range, n_steps)

    # every plate is checked before any is built: the grid's first column
    # at rest and its last one fully dragged must stay between the antennas
    grids = []
    for side in sides:
        m = int(round(side * grid_density))
        if m < 2:
            raise ValueError(
                f"side {side} m at density {grid_density}/m gives a degenerate "
                f"{m}x{m} scatterer grid (need at least 2x2)"
            )
        offsets = ((np.arange(m) + 0.5) / m - 0.5) * side
        ends = mid + depth * down + offsets[[0, -1], None] * axis + shifts[[0, -1], None] * axis
        _check_slab(geometry, ends, f"plate of side {side} m")
        grids.append((side, m, offsets))

    results = []
    for side, m, offsets in grids:
        u, w = np.meshgrid(offsets, offsets, indexing="ij")
        base = mid + depth * down + u.ravel()[:, None] * axis + w.ravel()[:, None] * (-down)
        amp = reflectivity * (side / m) ** 2
        # (steps, scatterers, 3): rigid translation along the axis
        pos = base[None, :, :] + shifts[:, None, None] * axis[None, None, :]
        lengths = path_length(geometry, pos)
        h = static_component + amp * np.exp(
            -2j * np.pi * lengths / geometry.wavelength
        ).sum(axis=1)
        magnitude = np.abs(h)
        results.append((float(side), float(magnitude.max() - magnitude.min())))
    return results
