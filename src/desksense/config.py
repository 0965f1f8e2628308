"""Pipeline configuration: one JSON document, explicit seeds, strict keys.

Each section checks its own values as it is built; PipelineConfig.validate
checks the values that span sections.  JSON goes through io's one codec for
desksense's JSON files.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .channel import (
    DEFAULT_FS,
    DEFAULT_NOISE_STD,
    DEFAULT_REFLECTION_AMPLITUDE,
    DEFAULT_SUBCARRIERS,
    FresnelGeometry,
)
from .io import _from_json, _read_json, _to_json
from .preprocess import FilterSpec
from .segmentation import SegmenterParams


@dataclass(frozen=True)
class SimulationConfig:
    fs: float = DEFAULT_FS
    subcarriers: int = DEFAULT_SUBCARRIERS
    reflection_amplitude: float = DEFAULT_REFLECTION_AMPLITUDE
    noise_std: float = DEFAULT_NOISE_STD

    def __post_init__(self):
        if not 0 < self.fs < math.inf:
            raise ValueError("fs must be positive and finite")
        if self.subcarriers < 1:
            raise ValueError("subcarriers must be >= 1")
        for name in ("reflection_amplitude", "noise_std"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite")


@dataclass(frozen=True)
class ClassifierConfig:
    kind: str = "knn"
    k: int = 3
    folds: int = 10

    def __post_init__(self):
        if self.kind not in ("knn", "gaussian_nb"):
            raise ValueError("kind must be 'knn' or 'gaussian_nb'")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")


@dataclass(frozen=True)
class HmmConfig:
    max_iter: int = 200
    tol: float = 1e-6

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")


@dataclass(frozen=True)
class SeedConfig:
    simulation: int = 1
    cross_validation: int = 2
    behavior: int = 3

    def __post_init__(self):
        for name, seed in vars(self).items():
            if seed < 0:
                raise ValueError(f"{name} must be >= 0, got {seed}")


@dataclass(frozen=True)
class PipelineConfig:
    geometry: FresnelGeometry = field(default_factory=FresnelGeometry)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    filter: FilterSpec = field(default_factory=FilterSpec)
    segmenter: SegmenterParams = field(default_factory=SegmenterParams)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    hmm: HmmConfig = field(default_factory=HmmConfig)
    seeds: SeedConfig = field(default_factory=SeedConfig)

    def validate(self) -> None:
        """The checks that span sections; each section checks its own values."""
        if self.filter.cutoff_hz >= self.simulation.fs / 2:
            raise ValueError("filter.cutoff_hz must be below fs/2")
        try:
            self.segmenter.window_samples(self.simulation.fs)
        except ValueError:
            raise ValueError("segmenter.window must span >= 2 samples at simulation.fs") from None

    def to_dict(self) -> dict:
        return _to_json(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def config_from_dict(doc: dict) -> PipelineConfig:
    config = _from_json(PipelineConfig, doc, "config")
    config.validate()
    return config


def load_config(path) -> PipelineConfig:
    return _read_json(path, config_from_dict)
