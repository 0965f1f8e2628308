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

Everything here is deterministic given a seed; the simulator doubles as
the ground-truth oracle for the downstream processing stages.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from scipy.ndimage import gaussian_filter1d

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

# Samples per simulator kernel task.  Each worker thread keeps its tasks'
# complex temporaries in its own malloc arena after they are freed, so the
# block is kept small: with two workers (a 2-vCPU host), blocks of 65,536
# samples left 3.6 MB more resident after a 36 s, 30-subcarrier trace and
# blocks of 8,192 about 1 MB.
_BLOCK = 8192


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
    d1 = np.linalg.norm(p - geometry.tx_pos, axis=-1)
    d2 = np.linalg.norm(p - geometry.rx_pos, axis=-1)
    return d1 + d2


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
        if self.travel <= 0:
            raise ValueError("travel must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
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


def gesture_jitter(n: int, rng: np.random.Generator, std: float) -> np.ndarray:
    """Smooth 3-D hand micro-motion over n samples, ramped in and out.

    Band-limited (a few Hz at 1 kHz sampling) so it survives the low-pass
    stage; the soft envelope avoids artificial onset steps.
    """
    if n == 0 or std == 0.0:
        return np.zeros((n, 3))
    j = gaussian_filter1d(rng.normal(0.0, 1.0, (n, 3)), 25.0, axis=0, mode="reflect")
    sd = j.std(axis=0)
    sd[sd == 0] = 1.0
    j = j / sd * std
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
        if self.fs <= 0:
            raise ValueError("fs must be positive")
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


def _add_paths(h: np.ndarray, paths, lam: float) -> None:
    """h += sum_k a_k * exp(-j*2*pi*d_k/lambda) over (path lengths d_k, a_k) pairs.

    The caller fills h with H_s.  Paths are added one at a time in the
    given order, so cfr_at and simulate_trace agree bit for bit.
    """
    for lengths, amp in paths:
        h += amp * np.exp(-2j * np.pi * lengths / lam)


def cfr_at(model: ChannelModel, t, wavelength: float | None = None):
    """Noise-free channel response H_s + sum_k a_k * exp(-j*2*pi*d_k(t)/lambda)."""
    lam = model.geometry.wavelength if wavelength is None else wavelength
    times = np.atleast_1d(np.asarray(t, dtype=float))
    paths = [
        (path_length(model.geometry, np.asarray(traj(times), dtype=float)), amp)
        for traj, amp in model.dynamic_paths
    ]
    h = np.full(times.shape, model.static_component, dtype=complex)
    _add_paths(h, paths, lam)
    return h[0] if np.isscalar(t) or np.asarray(t).ndim == 0 else h


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
        if start < 0:
            raise ValueError("gesture start time must be >= 0")
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


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


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
    Complex Gaussian noise of model.noise_std is added per sample, seeded by
    model.rng_seed, so identical inputs give bit-identical traces.

    Worker threads, one per CPU in the process's affinity mask, fill the
    rows in blocks while the calling thread draws the noise in one fixed
    order, so the bytes are the same at any CPU count.  A trace of more
    than MAX_TRACE_SAMPLES samples over all subcarriers is refused.
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

    samples = np.empty((len(lams), n_samples), dtype=complex)

    def fill_block(s: int, a: int, b: int) -> None:
        block = samples[s, a:b]
        block.fill(model.static_component)
        _add_paths(block, [(lengths[a:b], amp) for lengths, amp in paths], lams[s])
        block *= gains[s]

    blocks = [(a, min(a + _BLOCK, n_samples)) for a in range(0, n_samples, _BLOCK)]
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        tasks = [
            (s, a, b, pool.submit(fill_block, s, a, b))
            for s in range(len(lams))
            for a, b in blocks
        ]
        try:
            if model.noise_std > 0:
                # all real parts row by row, then all imaginary parts: the
                # numbers of one (2, S, T) normal() call in its order, drawn
                # here while the workers fill the blocks
                for part in (samples.real, samples.imag):
                    for s, a, b, task in tasks:
                        noise = rng.normal(0.0, model.noise_std, b - a)
                        task.result()
                        part[s, a:b] += noise
            for *_, task in tasks:  # also without noise: a worker's exception
                task.result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
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
