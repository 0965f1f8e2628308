"""Pipeline configuration: one JSON document, explicit seeds, strict keys."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import get_type_hints

from .channel import (
    DEFAULT_ANTENNA_DISTANCE,
    DEFAULT_FS,
    DEFAULT_NOISE_STD,
    DEFAULT_REFLECTION_AMPLITUDE,
    DEFAULT_REST_DEPTH,
    DEFAULT_STATIC_AMPLITUDE,
    DEFAULT_SUBCARRIERS,
    DEFAULT_WAVELENGTH,
    FresnelGeometry,
)
from .preprocess import FilterSpec
from .segmentation import SegmenterParams


@dataclass(frozen=True)
class GeometryConfig:
    antenna_distance: float = DEFAULT_ANTENNA_DISTANCE
    wavelength: float = DEFAULT_WAVELENGTH
    rest_depth: float = DEFAULT_REST_DEPTH   # desk offset below the antennas

    def validate(self) -> None:
        if self.antenna_distance <= 0:
            raise ValueError("geometry.antenna_distance must be positive")
        if self.wavelength <= 0:
            raise ValueError("geometry.wavelength must be positive")
        if not 0.55 <= self.rest_depth <= 0.70:
            raise ValueError("geometry.rest_depth must lie in [0.55, 0.70] m")

    def build(self) -> FresnelGeometry:
        return FresnelGeometry(
            tx_pos=[0.0, 0.0, 0.0],
            rx_pos=[self.antenna_distance, 0.0, 0.0],
            wavelength=self.wavelength,
        )


@dataclass(frozen=True)
class SimulationConfig:
    fs: float = DEFAULT_FS
    subcarriers: int = DEFAULT_SUBCARRIERS
    static_amplitude: float = DEFAULT_STATIC_AMPLITUDE
    reflection_amplitude: float = DEFAULT_REFLECTION_AMPLITUDE
    noise_std: float = DEFAULT_NOISE_STD
    gesture_jitter_std: float = 2.5e-3

    def validate(self) -> None:
        if self.fs <= 0:
            raise ValueError("simulation.fs must be positive")
        if self.subcarriers < 1:
            raise ValueError("simulation.subcarriers must be >= 1")
        if self.static_amplitude < 0:
            raise ValueError("simulation.static_amplitude must be >= 0")
        if self.reflection_amplitude < 0:
            raise ValueError("simulation.reflection_amplitude must be >= 0")
        if self.noise_std < 0:
            raise ValueError("simulation.noise_std must be >= 0")
        if self.gesture_jitter_std < 0:
            raise ValueError("simulation.gesture_jitter_std must be >= 0")


@dataclass(frozen=True)
class ClassifierConfig:
    kind: str = "knn"
    k: int = 3
    folds: int = 10

    def validate(self) -> None:
        if self.kind not in ("knn", "gaussian_nb"):
            raise ValueError("classifier.kind must be 'knn' or 'gaussian_nb'")
        if self.k < 1:
            raise ValueError("classifier.k must be >= 1")
        if self.folds < 2:
            raise ValueError("classifier.folds must be >= 2")


@dataclass(frozen=True)
class HmmConfig:
    max_iter: int = 200
    tol: float = 1e-6
    method: str = "likelihood"

    def validate(self) -> None:
        if self.max_iter < 1:
            raise ValueError("hmm.max_iter must be >= 1")
        if self.tol <= 0:
            raise ValueError("hmm.tol must be positive")
        if self.method not in ("likelihood", "model-distance"):
            raise ValueError("hmm.method must be 'likelihood' or 'model-distance'")


@dataclass(frozen=True)
class SeedConfig:
    simulation: int = 1
    cross_validation: int = 2
    behavior: int = 3

    def validate(self) -> None:
        pass


@dataclass(frozen=True)
class PipelineConfig:
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    filter: FilterSpec = field(default_factory=FilterSpec)
    segmenter: SegmenterParams = field(default_factory=SegmenterParams)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    hmm: HmmConfig = field(default_factory=HmmConfig)
    seeds: SeedConfig = field(default_factory=SeedConfig)

    def validate(self) -> None:
        self.geometry.validate()
        self.simulation.validate()
        self.classifier.validate()
        self.hmm.validate()
        self.seeds.validate()
        if self.filter.cutoff_hz >= self.simulation.fs / 2:
            raise ValueError("filter.cutoff_hz must be below fs/2")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


_SECTIONS = {
    "geometry": GeometryConfig,
    "simulation": SimulationConfig,
    "filter": FilterSpec,
    "segmenter": SegmenterParams,
    "classifier": ClassifierConfig,
    "hmm": HmmConfig,
    "seeds": SeedConfig,
}


# JSON value checks by field annotation; values are kept as given, so an
# int in a float field stays an int and to_dict() round-trips the file
_TYPE_CHECKS = {
    int: (lambda v: type(v) is int, "an integer"),
    float: (lambda v: type(v) is int or type(v) is float and math.isfinite(v),
            "a finite number"),
    str: (lambda v: type(v) is str, "a string"),
}


def _build_section(name: str, cls, doc: dict):
    if not isinstance(doc, dict):
        raise ValueError(f"config section {name!r} must be an object")
    hints = get_type_hints(cls)   # the dataclass's fields and their types
    unknown = set(doc) - set(hints)
    if unknown:
        raise ValueError(f"unknown config key {name}.{sorted(unknown)[0]}")
    for key, value in doc.items():
        accepts, kind = _TYPE_CHECKS[hints[key]]
        if not accepts(value):
            raise ValueError(f"{name}.{key}: must be {kind}, got {value!r}")
    try:
        return cls(**doc)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid config section {name!r}: {exc}") from exc


def config_from_dict(doc: dict) -> PipelineConfig:
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ValueError(f"unknown config section {sorted(unknown)[0]!r}")
    kwargs = {
        name: _build_section(name, cls, doc.get(name, {}))
        for name, cls in _SECTIONS.items()
    }
    config = PipelineConfig(**kwargs)
    config.validate()
    return config


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def load_config(path) -> PipelineConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_constant)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config root must be an object")
    try:
        return config_from_dict(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
