"""Text file formats shared across the pipeline.

Everything is plain text at full double precision so artifacts diff cleanly
and round-trip losslessly.  Writes go through a temp file and rename;
numeric tables (traces, series, nor/segment tables) are streamed into it a
block of rows at a time.
"""
from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .behavior import Behavior, BehaviorHmm
from .channel import Annotation, CsiTrace, GestureKind
from .classify import (
    FeatureVector,
    GaussianNbClassifier,
    GestureLabel,
    KnnClassifier,
    LabeledExample,
    Standardizer,
)

FLOAT_FMT = "%.17g"
_BLOCK_ROWS = 1024


@contextmanager
def _atomic_open(path):
    """Text handle on a temp file beside path, renamed over path on success."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, content: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(content)


def _write_rows(fh, columns, fmts) -> None:
    """Rows of equal-length numeric columns, each value in its column's format.

    A block of _BLOCK_ROWS rows is formatted by one `%` over the block's
    Python floats, so the text never exists as a whole.  float64 -> float is
    exact, so the bytes are those of formatting each value on its own;
    integer columns ("%d") are exact up to 2**53.
    """
    row_fmt = ",".join(fmts) + "\n"
    n = len(columns[0])
    for start in range(0, n, _BLOCK_ROWS):
        block = np.column_stack([np.asarray(c[start:start + _BLOCK_ROWS], dtype=float)
                                 for c in columns])
        fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


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
    columns = [np.arange(trace.n_samples) / trace.fs]
    for row in trace.samples:
        columns += [row.real, row.imag]
    with _atomic_open(path) as fh:
        fh.write(f"# fs={_fmt(trace.fs)} subcarriers={trace.subcarriers}\n")
        _write_rows(fh, columns, [FLOAT_FMT] * len(columns))


def read_trace(path) -> CsiTrace:
    with open(path) as fh:
        header = _read_header(path, fh, {"fs": float, "subcarriers": int})
        n_cols = 1 + 2 * header["subcarriers"]
        body = fh.tell()
        if fh.readline():
            fh.seek(body)
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        else:  # a zero-sample trace is its header alone
            data = np.empty((0, n_cols))
    if data.shape[1] != n_cols:
        raise ValueError(f"{path}: expected {n_cols} columns, got {data.shape[1]}")
    # (re, im) column pairs viewed as complex keep every bit, signed zeros too
    samples = np.ascontiguousarray(np.ascontiguousarray(data[:, 1:]).view(complex).T)
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
            if parts[2] not in {kind.value for kind in GestureKind}:
                raise ValueError(f"{path}:{lineno}: unknown label {parts[2]!r}")
            try:
                out.append(Annotation(int(parts[0]), int(parts[1]), parts[2]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


def write_series(path, series) -> None:
    """Two columns `t, amplitude` under a `# fs=... subcarrier=...` header."""
    t = np.arange(len(series.values)) / series.fs
    with _atomic_open(path) as fh:
        fh.write(f"# fs={_fmt(series.fs)} subcarrier={series.source_subcarrier}\n")
        _write_rows(fh, [t, series.values], [FLOAT_FMT] * 2)


def write_dataset(path, examples: list[LabeledExample]) -> None:
    write_table(
        path,
        ["variance", "slope_ratio", "duration", "label"],
        [(float(ex.features.variance), float(ex.features.slope_ratio),
          float(ex.features.duration), ex.label.name.lower()) for ex in examples],
    )


def read_dataset(path) -> list[LabeledExample]:
    out = []
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("variance"):
            raise ValueError(f"{path}:1: missing dataset header")
        for lineno, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 columns")
            try:
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
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
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


def _read_json_model(path, build):
    """build(document of the JSON file at path); a malformed model names the file."""
    with open(path) as fh:
        try:
            return build(json.load(fh))
        except KeyError as exc:
            raise ValueError(f"{path}: missing key {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def read_classifier(path):
    return _read_json_model(path, classifier_from_dict)


def write_behavior_models(path, models: dict[Behavior, BehaviorHmm]) -> None:
    doc = {
        b.value: {"pi": m.pi.tolist(), "A": m.A.tolist(), "B": m.B.tolist()}
        for b, m in models.items()
    }
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def _behavior_models_from_dict(doc: dict) -> dict[Behavior, BehaviorHmm]:
    return {
        Behavior(name): BehaviorHmm(
            pi=np.array(entry["pi"]),
            A=np.array(entry["A"]),
            B=np.array(entry["B"]),
            behavior=Behavior(name),
        )
        for name, entry in doc.items()
    }


def read_behavior_models(path) -> dict[Behavior, BehaviorHmm]:
    return _read_json_model(path, _behavior_models_from_dict)


def write_nor(path, nor1, nor2) -> None:
    """Plot table `index,nor1,nor2` of the segmenter's variance traces."""
    with _atomic_open(path) as fh:
        fh.write("index,nor1,nor2\n")
        _write_rows(fh, [np.arange(len(nor2)), nor1, nor2], ["%d", FLOAT_FMT, FLOAT_FMT])


def write_segments(path, segments) -> None:
    """Plot table `start_idx,end_idx,truncated`, one row per segment."""
    columns = [[s.start_idx for s in segments], [s.end_idx for s in segments],
               [int(s.truncated) for s in segments]]
    with _atomic_open(path) as fh:
        fh.write("start_idx,end_idx,truncated\n")
        _write_rows(fh, columns, ["%d"] * 3)


def write_table(path, header: list[str], rows) -> None:
    """Generic plot-data table: comma-separated columns under a header line."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")
