"""Text file formats shared across the pipeline.

Everything is plain text at full double precision so artifacts diff cleanly
and round-trip losslessly.  Writes go through a temp file and rename.
"""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .behavior import Behavior, BehaviorHmm
from .channel import Annotation, CsiTrace
from .classify import (
    FeatureVector,
    GaussianNbClassifier,
    GestureLabel,
    KnnClassifier,
    LabeledExample,
    Standardizer,
)

FLOAT_FMT = "%.17g"


def atomic_write_text(path, content: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


def _read_header(path, fh, casts: dict) -> dict:
    """The `# key=value ...` first line of fh, each key in casts cast by its type."""
    header = fh.readline().strip()
    if not header.startswith("#"):
        raise ValueError(f"{path}:1: missing header line")
    fields = {}
    for token in header.lstrip("# ").split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"{path}:1: header token {token!r} is not key=value")
        fields[key] = value
    out = {}
    for key, cast in casts.items():
        if key not in fields:
            raise ValueError(f"{path}:1: header lacks {key}=")
        try:
            out[key] = cast(fields[key])
        except ValueError:
            raise ValueError(
                f"{path}:1: header field {key}={fields[key]!r} is not a valid {cast.__name__}"
            ) from None
    return out


def write_trace(path, trace: CsiTrace) -> None:
    """Header `# fs=<float> subcarriers=<int>`, then rows t, re_1, im_1, ..."""
    lines = [f"# fs={_fmt(trace.fs)} subcarriers={trace.subcarriers}"]
    t = np.arange(trace.n_samples) / trace.fs
    for i in range(trace.n_samples):
        row = [_fmt(t[i])]
        for s in range(trace.subcarriers):
            v = trace.samples[s, i]
            row.append(_fmt(v.real))
            row.append(_fmt(v.imag))
        lines.append(",".join(row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_trace(path) -> CsiTrace:
    with open(path) as fh:
        header = _read_header(path, fh, {"fs": float, "subcarriers": int})
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    n_sub = header["subcarriers"]
    if data.shape[1] != 1 + 2 * n_sub:
        raise ValueError(f"{path}: expected {1 + 2 * n_sub} columns, got {data.shape[1]}")
    samples = np.empty((n_sub, data.shape[0]), dtype=complex)
    for s in range(n_sub):
        samples[s] = data[:, 1 + 2 * s] + 1j * data[:, 2 + 2 * s]
    return CsiTrace(fs=header["fs"], samples=samples)


def write_annotations(path, annotations: list[Annotation]) -> None:
    lines = [f"{a.start_idx},{a.end_idx},{a.label}" for a in annotations]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_annotations(path) -> list[Annotation]:
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected start,end,label")
            out.append(Annotation(int(parts[0]), int(parts[1]), parts[2]))
    return out


def write_series(path, series) -> None:
    """Two columns `t, amplitude` under a `# fs=... subcarrier=...` header."""
    lines = [f"# fs={_fmt(series.fs)} subcarrier={series.source_subcarrier}"]
    t = np.arange(len(series.values)) / series.fs
    lines += [f"{_fmt(ti)},{_fmt(v)}" for ti, v in zip(t, series.values)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_series(path):
    from .preprocess import AmplitudeSeries

    with open(path) as fh:
        header = _read_header(path, fh, {"fs": float, "subcarrier": int})
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return AmplitudeSeries(
        fs=header["fs"],
        values=data[:, 1],
        source_subcarrier=header["subcarrier"],
    )


def write_dataset(path, examples: list[LabeledExample]) -> None:
    lines = ["variance,slope_ratio,duration,label"]
    for ex in examples:
        f = ex.features
        lines.append(
            f"{_fmt(f.variance)},{_fmt(f.slope_ratio)},{_fmt(f.duration)},{ex.label.name.lower()}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_dataset(path) -> list[LabeledExample]:
    out = []
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("variance"):
            raise ValueError(f"{path}: missing dataset header")
        for lineno, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 columns")
            out.append(
                LabeledExample(
                    features=FeatureVector(
                        variance=float(parts[0]),
                        slope_ratio=float(parts[1]),
                        duration=float(parts[2]),
                    ),
                    label=GestureLabel.from_name(parts[3]),
                )
            )
    return out


def classifier_to_dict(model) -> dict:
    base = {
        "kind": model.kind,
        "standardizer": {
            "mean": model.standardizer.mean.tolist(),
            "std": model.standardizer.std.tolist(),
        },
    }
    if isinstance(model, KnnClassifier):
        base.update(
            k=model.k, points=model.points.tolist(), labels=model.labels.tolist()
        )
    elif isinstance(model, GaussianNbClassifier):
        base.update(
            log_priors=model.log_priors.tolist(),
            means=model.means.tolist(),
            variances=model.variances.tolist(),
        )
    else:
        raise ValueError(f"unknown model type {type(model).__name__}")
    return base


def classifier_from_dict(doc: dict):
    std = Standardizer(
        mean=np.array(doc["standardizer"]["mean"]),
        std=np.array(doc["standardizer"]["std"]),
    )
    if doc["kind"] == "knn":
        return KnnClassifier(
            k=int(doc["k"]),
            standardizer=std,
            points=np.array(doc["points"]),
            labels=np.array(doc["labels"], dtype=int),
        )
    if doc["kind"] == "gaussian_nb":
        return GaussianNbClassifier(
            standardizer=std,
            log_priors=np.array(doc["log_priors"]),
            means=np.array(doc["means"]),
            variances=np.array(doc["variances"]),
        )
    raise ValueError(f"unknown classifier kind {doc['kind']!r}")


def write_classifier(path, model) -> None:
    atomic_write_text(path, json.dumps(classifier_to_dict(model), indent=2) + "\n")


def read_classifier(path):
    with open(path) as fh:
        return classifier_from_dict(json.load(fh))


def write_behavior_models(path, models: dict[Behavior, BehaviorHmm]) -> None:
    doc = {
        b.value: {"pi": m.pi.tolist(), "A": m.A.tolist(), "B": m.B.tolist()}
        for b, m in models.items()
    }
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def read_behavior_models(path) -> dict[Behavior, BehaviorHmm]:
    with open(path) as fh:
        doc = json.load(fh)
    return {
        Behavior(name): BehaviorHmm(
            pi=np.array(entry["pi"]),
            A=np.array(entry["A"]),
            B=np.array(entry["B"]),
            behavior=Behavior(name),
        )
        for name, entry in doc.items()
    }


def write_sequence(path, seq) -> None:
    lines = [GestureLabel(o).name.lower() for o in seq.observations]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_sequence(path):
    from .behavior import GestureSequence

    obs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                obs.append(GestureLabel.from_name(line).value)
    return GestureSequence(observations=np.array(obs, dtype=int))


def write_table(path, header: list[str], rows) -> None:
    """Generic plot-data table: comma-separated columns under a header line."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")
