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
from typing import Callable, Sequence

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
# calibrated together with segmentation.SegmenterParams.
DEFAULT_STATIC_AMPLITUDE = 8.0
DEFAULT_REFLECTION_AMPLITUDE = 4.0
DEFAULT_NOISE_STD = 0.16  # quiet-period amplitude std ~= 2% of |H_s|
DEFAULT_REST_DEPTH = 0.61  # metres below the antenna line, inside zone 10

# Largest trace simulate_trace builds, in complex samples over all
# subcarriers (fs x duration x subcarriers): 2**30 samples are 16 GiB.
# Checked before any allocation of that size, so an oversized fs or
# duration is a ValueError naming the sample count, not a MemoryError.
MAX_TRACE_SAMPLES = 2**30

# Samples per simulator kernel task, and per noise draw.  Each worker
# thread keeps its tasks' complex temporaries in its own malloc arena after
# they are freed, so the block is kept small: with two workers (a 2-vCPU
# host), blocks of 65,536 samples left 3.6 MB more resident after a 36 s,
# 30-subcarrier trace and blocks of 8,192 about 1 MB.
_BLOCK = 8192

# How far 1/lambda_s may lie off 1/lambda_0 + s*dk, relative to itself:
# subcarrier_wavelengths gives at most 1.94 eps (2-256 subcarriers, 20-160
# MHz), and 4 eps moves a 3 m path's phase at 0.125 m by 1.3e-13 rad.
_SPACING_RTOL = 4 * np.finfo(float).eps

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
    """Transmitter/receiver placement and carrier wavelength."""

    tx_pos: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rx_pos: np.ndarray = field(
        default_factory=lambda: np.array([DEFAULT_ANTENNA_DISTANCE, 0.0, 0.0])
    )
    wavelength: float = DEFAULT_WAVELENGTH

    def __post_init__(self):
        object.__setattr__(self, "tx_pos", _as_point(self.tx_pos))
        object.__setattr__(self, "rx_pos", _as_point(self.rx_pos))
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if np.array_equal(self.tx_pos, self.rx_pos):
            raise ValueError("tx_pos and rx_pos must differ")

    @property
    def antenna_distance(self) -> float:
        return float(np.linalg.norm(self.rx_pos - self.tx_pos))

    @property
    def midpoint(self) -> np.ndarray:
        return (self.tx_pos + self.rx_pos) / 2.0

    @property
    def axis(self) -> np.ndarray:
        """Unit vector from Tx to Rx."""
        delta = self.rx_pos - self.tx_pos
        return delta / np.linalg.norm(delta)


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
    displace one-directionally along +x.  speed_profile "sinusoidal" gives a
    sinusoidal velocity over the gesture, "constant" a uniform speed.
    jitter_std adds seeded hand micro-motion (metres, 0 disables); corpora
    use it, the clean interference examples do not.
    """

    kind: GestureKind
    rest_pos: np.ndarray = field(
        default_factory=lambda: np.array([0.5, 0.0, -DEFAULT_REST_DEPTH])
    )
    travel: float = 0.02
    duration: float = 0.7
    speed_profile: str = "sinusoidal"
    jitter_std: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rest_pos", _as_point(self.rest_pos))
        if not 0 < self.travel < math.inf:
            raise ValueError(f"travel must be positive and finite, got {self.travel!r}")
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be positive and finite, got {self.duration!r}")
        if self.speed_profile not in ("sinusoidal", "constant"):
            raise ValueError(f"unknown speed profile {self.speed_profile!r}")
        if self.jitter_std < 0:
            raise ValueError("jitter_std must be >= 0")

    def displacement(self, t_rel: np.ndarray) -> np.ndarray:
        """Deterministic displacement from rest_pos at times t_rel in [0, duration]."""
        t = np.clip(np.asarray(t_rel, dtype=float), 0.0, self.duration)
        frac = t / self.duration
        out = np.zeros(t.shape + (3,))
        if self.kind is GestureKind.KEYSTROKE:
            if self.speed_profile == "sinusoidal":
                depth = np.sin(np.pi * frac) ** 2
            else:
                depth = 1.0 - np.abs(2.0 * frac - 1.0)
            out[..., 2] = -self.travel * depth
        else:
            if self.speed_profile == "sinusoidal":
                adv = (1.0 - np.cos(np.pi * frac)) / 2.0
            else:
                adv = frac
            out[..., 0] = self.travel * adv
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


# glibc's mmap threshold stops at 32 MiB and its heap keeps at most twice
# that free, so it maps a block this large however the threshold moved
_HEAP_MAX = 64 << 20


def _mapped_empty(shape, dtype) -> np.ndarray:
    """np.empty(shape, dtype) on an anonymous memory map of its own, for a
    trace's samples, so their pages go back to the system when the array is
    freed.  Through malloc, once one samples array was freed glibc served
    the next from its heap (its mmap threshold rises to the largest block
    freed) and kept the freed heap resident: the peak RSS of simulating,
    writing and reading a 36 s trace read 64 or 78 MB from run to run (2
    vCPUs, Linux, glibc).  Arrays of _HEAP_MAX bytes or more stay with np.empty: glibc maps those
    itself, and numpy asks for huge pages for them."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if not 0 < nbytes < _HEAP_MAX:
        return np.empty(shape, dtype)
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype).reshape(shape)


@dataclass
class CsiTrace:
    """Uniformly sampled multi-subcarrier complex channel response."""

    fs: float
    samples: np.ndarray  # (subcarriers, T) complex
    meta: list[Annotation] = field(default_factory=list)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
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


TrajectoryFn = Callable[[np.ndarray], np.ndarray]


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


def _wavenumber_step(lams: np.ndarray) -> float:
    """Step dk of the wavenumbers 1/lambda_s of 1-D wavelengths, which must
    be positive, finite and on 1/lambda_0 + s*dk to _SPACING_RTOL, else
    ValueError naming the first index that is not."""
    if lams.ndim != 1 or len(lams) == 0:
        raise ValueError("subcarrier wavelengths must be a non-empty 1-D array")
    bad = np.flatnonzero(~(np.isfinite(lams) & (lams > 0)))
    if len(bad):
        raise ValueError(f"wavelength {bad[0]} is {float(lams[bad[0]])!r}; "
                         "wavelengths must be positive and finite")
    k = 1.0 / lams
    dk = (k[-1] - k[0]) / max(len(k) - 1, 1)
    bad = np.flatnonzero(~(np.abs(k - (k[0] + np.arange(len(k)) * dk)) <= _SPACING_RTOL * k))
    if len(bad):
        raise ValueError(f"wavelength {bad[0]} is not evenly spaced in 1/wavelength")
    return dk


def _add_band(h: np.ndarray, paths, lam0: float, dk: float) -> None:
    """h[s] += sum_k a_k * exp(-j*2*pi*d_k*(1/lam0 + s*dk)) over the rows s of h.

    Row 0 gets e0 = a_k*exp(-j*2*pi*d_k/lam0), each next row the phasor
    times r = exp(-j*2*pi*d_k*dk), in real multiplies and adds: numpy's
    complex multiply rounds differently with fused multiply-adds and at
    length 1, which would tie the bits to the CPU and the block width.
    Paths go in the given order, so cfr_at and simulate_trace agree bit for bit.
    """
    for lengths, amp in paths:
        ph = amp * np.exp(-2j * np.pi * lengths / lam0)
        h[0] += ph
        r = np.exp(-2j * np.pi * lengths * dk)
        re, im = ph.real, ph.imag
        for row in h[1:]:
            re[...], im[...] = re * r.real - im * r.imag, re * r.imag + im * r.real
            row += ph


def cfr_at(model: ChannelModel, t, wavelength: float | np.ndarray | None = None):
    """Noise-free channel response H_s + sum_k a_k * exp(-j*2*pi*d_k(t)/lambda).

    An array of S wavelengths evenly spaced in 1/lambda gives the (S, T)
    band that a noise-free simulate_trace scales by its gains, bit for bit;
    one wavelength (the geometry's by default) is a direct exponential.
    """
    lam = np.asarray(model.geometry.wavelength if wavelength is None else wavelength,
                     dtype=float)
    lams = np.atleast_1d(lam)
    dk = _wavenumber_step(lams)
    times = np.atleast_1d(np.asarray(t, dtype=float))
    paths = [
        (path_length(model.geometry, np.asarray(traj(times), dtype=float)), amp)
        for traj, amp in model.dynamic_paths
    ]
    h = np.full(lams.shape + times.shape, model.static_component, dtype=complex)
    _add_band(h, paths, lams[0], dk)
    if np.ndim(t) == 0:
        h = h[:, 0]
    return h[0] if lam.ndim == 0 else h


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
    if count == 1:
        return np.ones(1)
    return np.linspace(1.0, 0.4, count)


def _build_reflector_track(
    script: Sequence[tuple[float, GestureModel]],
    n_samples: int,
    fs: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[Annotation]]:
    """Piecewise trajectory: scripted gestures, resting in place between them."""
    t = np.arange(n_samples) / fs
    entries = sorted(script, key=lambda item: item[0])
    prev_end = None
    for start, gesture in entries:
        if not 0 <= start < math.inf:
            raise ValueError(f"gesture start time must be >= 0 and finite, got {start!r}")
        if prev_end is not None and start < prev_end - 1e-12:
            raise ValueError(f"gestures overlap at t={start:.3f}s")
        prev_end = start + gesture.duration

    positions = np.zeros((n_samples, 3))
    annotations = []
    cursor = 0
    current_rest = entries[0][1].rest_pos if entries else np.zeros(3)
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


def _check_slab(geometry: FresnelGeometry, positions: np.ndarray) -> None:
    axis = geometry.axis
    proj = (positions - geometry.tx_pos) @ axis
    if np.any(proj <= 0.0) or np.any(proj >= geometry.antenna_distance):
        raise ValueError("reflector trajectory leaves the space between the antennas")


def simulate_trace(
    model: ChannelModel,
    script: Sequence[tuple[float, GestureModel]],
    duration: float,
    fs: float = DEFAULT_FS,
    subcarrier_wavelengths_m: np.ndarray | None = None,
    subcarrier_gains: np.ndarray | None = None,
    reflection_amplitude: float = DEFAULT_REFLECTION_AMPLITUDE,
) -> CsiTrace:
    """Synthesize an annotated multi-subcarrier CSI trace for a gesture script.

    The scripted reflector is one dynamic path with the given reflection
    amplitude; any dynamic_paths already on the model contribute as well.
    The subcarrier wavelengths must be evenly spaced in 1/lambda.

    Through _workers.thread_map it first fills blocks of _BLOCK columns with
    gains[:, None] * cfr_at(model, t, wavelengths), bit for bit, then adds
    the complex Gaussian noise of model.noise_std row by row: subcarrier s
    draws its real and imaginary parts from streams 2s and 2s + 1 of
    SeedSequence(model.rng_seed).spawn(2 * subcarriers), _BLOCK at a time,
    so the bytes are the same at any CPU count and any block.  A trace of
    more than MAX_TRACE_SAMPLES samples over all subcarriers is refused.
    """
    if not 0 < fs < math.inf:
        raise ValueError("fs must be positive and finite")
    if not 0 < duration < math.inf:
        raise ValueError("duration must be positive and finite")
    if reflection_amplitude < 0:
        raise ValueError("reflection amplitude must be >= 0")

    if subcarrier_wavelengths_m is None:
        subcarrier_wavelengths_m = subcarrier_wavelengths(model.geometry.wavelength)
    lams = np.asarray(subcarrier_wavelengths_m, dtype=float)
    dk = _wavenumber_step(lams)
    if subcarrier_gains is None:
        subcarrier_gains = default_subcarrier_gains(len(lams))
    gains = np.asarray(subcarrier_gains, dtype=float)
    if gains.shape != lams.shape:
        raise ValueError("subcarrier gains and wavelengths must align")

    if fs * duration * len(lams) > MAX_TRACE_SAMPLES:
        raise ValueError(
            f"trace of {fs * duration:.0f} samples x {len(lams)} subcarriers exceeds "
            f"the limit of {MAX_TRACE_SAMPLES} samples"
        )
    n_samples = int(round(fs * duration))
    if n_samples < 1:
        raise ValueError("duration too short for one sample")

    rng = np.random.default_rng(model.rng_seed)
    t = np.arange(n_samples) / fs

    paths: list[tuple[np.ndarray, float]] = []
    annotations: list[Annotation] = []
    if script:
        track, annotations = _build_reflector_track(script, n_samples, fs, rng)
        _check_slab(model.geometry, track)
        paths.append((path_length(model.geometry, track), reflection_amplitude))
    for traj, amp in model.dynamic_paths:
        pos = np.asarray(traj(t), dtype=float)
        _check_slab(model.geometry, pos)
        paths.append((path_length(model.geometry, pos), amp))

    samples = _mapped_empty((len(lams), n_samples), complex)
    streams = np.random.SeedSequence(model.rng_seed).spawn(2 * len(lams))

    def fill_columns(a: int) -> None:
        block = samples[:, a:a + _BLOCK]
        block.fill(model.static_component)
        _add_band(block, [(lengths[a:a + _BLOCK], amp) for lengths, amp in paths], lams[0], dk)
        block *= gains[:, None]

    def add_noise(s: int) -> None:
        draw = np.empty(min(_BLOCK, n_samples))
        for part, seq in zip((samples[s].real, samples[s].imag), streams[2 * s:2 * s + 2]):
            stream = np.random.default_rng(seq)
            for a in range(0, n_samples, _BLOCK):
                z = stream.standard_normal(out=draw[:min(_BLOCK, n_samples - a)])
                z *= model.noise_std
                part[a:a + len(z)] += z

    thread_map(fill_columns, range(0, n_samples, _BLOCK), samples.size)
    if model.noise_std > 0:
        thread_map(add_noise, range(len(lams)), samples.size)
    return CsiTrace(fs=fs, samples=samples, meta=annotations)


def simulate_plate_sweep(
    geometry: FresnelGeometry,
    side_lengths: Sequence[float],
    drag_range: float = 0.015,
    drag_speed: float = 0.08,
    grid_density: float = 200.0,
    depth: float = 0.5,
    static_component: complex = 1.0 + 0j,
    reflectivity: float = 25.0,
    fs: float = DEFAULT_FS,
    noise_std: float = 0.0,
    rng_seed: int = 0,
) -> list[tuple[float, float]]:
    """Peak-to-peak |H| while dragging square plates below the link midpoint.

    Each plate is a uniform grid of coherent point scatterers in the vertical
    plane through the Tx-Rx axis, per-scatterer amplitude reflectivity *
    cell area (total reflection scales with plate area).  The plate centre
    starts `depth` metres below the midpoint and is dragged along the axis.
    Larger plates span neighbouring Fresnel zones whose contributions cancel,
    so the returned curve is non-monotonic in side length.
    """
    sides = list(side_lengths)
    if any(s <= 0 for s in sides):
        raise ValueError("side lengths must be positive")
    if sides != sorted(sides):
        raise ValueError("side lengths must be ascending")
    if drag_range <= 0 or drag_speed <= 0:
        raise ValueError("drag range and speed must be positive")
    if not 0 <= noise_std < math.inf:
        raise ValueError("noise_std must be non-negative and finite")

    mid = geometry.midpoint
    axis = geometry.axis
    down = np.array([0.0, 0.0, -1.0])
    duration = drag_range / drag_speed
    n_steps = int(round(duration * fs)) + 1
    shifts = np.linspace(0.0, drag_range, n_steps)
    rng = np.random.default_rng(rng_seed)

    results = []
    for side in sides:
        m = int(round(side * grid_density))
        if m < 2:
            raise ValueError(
                f"side {side} m at density {grid_density}/m gives a degenerate "
                f"{m}x{m} scatterer grid (need at least 2x2)"
            )
        offsets = ((np.arange(m) + 0.5) / m - 0.5) * side
        u, w = np.meshgrid(offsets, offsets, indexing="ij")
        base = mid + depth * down + u.ravel()[:, None] * axis + w.ravel()[:, None] * (-down)
        amp = reflectivity * (side / m) ** 2
        # (steps, scatterers, 3): rigid translation along the axis
        pos = base[None, :, :] + shifts[:, None, None] * axis[None, None, :]
        lengths = path_length(geometry, pos)
        h = static_component + amp * np.exp(
            -2j * np.pi * lengths / geometry.wavelength
        ).sum(axis=1)
        if noise_std > 0:
            noise = rng.normal(0.0, noise_std, (2, n_steps))
            h = h + noise[0] + 1j * noise[1]
        magnitude = np.abs(h)
        results.append((float(side), float(magnitude.max() - magnitude.min())))
    return results
