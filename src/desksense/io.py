"""File formats shared across the pipeline.

A trace is one uncompressed `.npz` archive, whatever its file name, of two
`.npy` members: `fs.npy` (0-d float64) and `samples.npy` ((S, T) C-order
complex128).  Both are streamed through the archive, so the file keeps every
bit, a write holds one row at a time and a read holds the samples once; a
member's header is checked against the bytes it stores before anything is
allocated.  Every other artifact is plain text at full double precision, so
it diffs cleanly and round-trips losslessly: one writer formats every table
in tasks of rows, one `%` per task, and streams them in order into a temp
file renamed over the target.  The files people write or edit (annotations,
datasets, gesture scripts, confusion tables) are read by read_records, one
rule for comments, blank lines, headers and errors.
"""
from __future__ import annotations

import json
import math
import os
import struct
import tempfile
import zipfile
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np
from numpy.lib import format as npy

from .behavior import Behavior, BehaviorHmm
from .channel import Annotation, CsiTrace, GestureKind, _mapped_empty
from .classify import (
    FeatureVector,
    GaussianNbClassifier,
    GestureLabel,
    KnnClassifier,
    LabeledExample,
    Standardizer,
)

FLOAT_FMT = "%.17g"
_TASK_VALUES = 1 << 14  # values a task of a text table formats
# a trace archive's members: (name, dtype, ndim), written in this order
_TRACE_MEMBERS = (("fs.npy", "<f8", 0), ("samples.npy", "<c16", 2))
# zip's earliest date stamps every member, so a write's bytes never depend on the clock
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)
_READ_CHUNK = 1 << 16  # bytes a read takes from a member at a time


@contextmanager
def _atomic_open(path, mode="w"):
    """Handle in mode on a temp file beside path, renamed over path on success."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, content: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(content)


def _format_rows(row_fmt: str, columns, a: int, b: int) -> str:
    """The text of rows a to b of columns, in one `%` of the cells tolist()
    makes: float64 -> float is exact, so the bytes are those of formatting
    each value on its own."""
    cells = [np.asarray(c[a:b]).tolist() for c in columns]
    return (row_fmt * len(cells[0])) % tuple(chain.from_iterable(zip(*cells)))


def _write_table(path, first_line, columns, fmts) -> None:
    """first_line, unless it is None, then one row per index of the
    equal-length columns, column j in fmts[j], written atomically.

    Tasks of _TASK_VALUES // columns rows (at least one) are formatted and
    written in order, so the text never exists as a whole.
    """
    row_fmt = ",".join(fmts) + "\n"
    step = max(1, _TASK_VALUES // len(columns))
    with _atomic_open(path) as fh:
        if first_line is not None:
            fh.write(first_line + "\n")
        for a in range(0, len(columns[0]), step):
            fh.write(_format_rows(row_fmt, columns, a, a + step))


class _Times:
    """The column i / fs of an n-row table, made a slice at a time."""

    def __init__(self, n: int, fs: float):
        self.n, self.fs = n, fs

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, rows: slice) -> np.ndarray:
        return np.arange(*rows.indices(self.n)) / self.fs


def _write_member(archive, name: str, dtype: str, array) -> None:
    """array as the C-order .npy member name of archive, a row at a time."""
    array = np.asarray(array)
    info = zipfile.ZipInfo(name, date_time=_ZIP_EPOCH)
    with archive.open(info, "w", force_zip64=True) as member:   # a member may pass 2 GiB
        npy.write_array_header_1_0(member, {"descr": dtype, "fortran_order": False,
                                            "shape": array.shape})
        for row in array if array.ndim else array.reshape(1):
            member.write(memoryview(np.ascontiguousarray(row, dtype=dtype)).cast("B"))


def write_trace(path, trace: CsiTrace) -> None:
    """fs and samples as the members of one uncompressed .npz archive."""
    with _atomic_open(path, "wb") as fh, zipfile.ZipFile(fh, "w") as archive:
        for (name, dtype, _), array in zip(_TRACE_MEMBERS, (trace.fs, trace.samples)):
            _write_member(archive, name, dtype, array)


def _read_member(archive, name: str, dtype: str, ndim: int) -> np.ndarray:
    """The .npy member name of archive, which must be stored, have dtype,
    ndim dimensions and C order (samples: at least one subcarrier), and
    hold exactly the bytes of its shape, all checked before the array is
    allocated."""
    info = archive.getinfo(name)
    if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1:
        raise ValueError(f"{name} is compressed or encrypted; trace members are stored")
    if info.header_offset < 0:
        raise ValueError(f"{name} starts before the start of the file")
    with archive.open(info) as member:
        version = npy.read_magic(member)
        if version not in ((1, 0), (2, 0)):
            raise ValueError(f"{name} has .npy version {version}, expected (1, 0) or (2, 0)")
        read_header = npy.read_array_header_1_0 if version == (1, 0) else npy.read_array_header_2_0
        shape, fortran_order, got = read_header(member)
        if got != np.dtype(dtype):
            raise ValueError(f"{name} has dtype {got}, expected {np.dtype(dtype)}")
        if len(shape) != ndim or fortran_order:
            raise ValueError(f"{name} has shape {shape}{' in Fortran order' * fortran_order}, "
                             f"expected {ndim} dimensions in C order")
        if name == "samples.npy" and shape[0] < 1:   # whatever bytes follow the header
            raise ValueError(f"subcarriers must be >= 1, got {shape[0]}")
        stored = info.file_size - member.tell()
        if min(shape, default=0) < 0 or math.prod(shape) * got.itemsize != stored:
            raise ValueError(f"{name} has shape {shape}, which does not fit its {stored} bytes")
        array = _mapped_empty(shape, dtype)
        view = memoryview(array.reshape(-1)).cast("B")
        for at in range(0, len(view), _READ_CHUNK):   # zipfile checks the CRC at the end
            chunk = view[at:at + _READ_CHUNK]
            if member.readinto(chunk) != len(chunk):
                raise ValueError(f"{name} ends before its {stored} bytes")
    return array


def read_trace(path) -> CsiTrace:
    """Inverse of write_trace.  Whatever is wrong with the file, as a zip, as
    .npy members or as a trace (an fs that is not positive and finite, no
    subcarriers, a non-finite sample), raises ValueError("<path>: ...")."""
    try:
        with zipfile.ZipFile(path) as archive:
            names = sorted(archive.namelist())
            if names != [name for name, *_ in _TRACE_MEMBERS]:
                raise ValueError(f"expected members fs.npy and samples.npy, got {names}")
            fs, samples = (_read_member(archive, *member) for member in _TRACE_MEMBERS)
        finite = np.isfinite(samples)
        if not finite.all():
            s, t = np.unravel_index(np.argmin(finite), finite.shape)
            raise ValueError(f"non-finite sample {samples[s, t]} at subcarrier {s}, index {t}")
        return CsiTrace(fs=float(fs), samples=samples)
    except EOFError:
        raise ValueError(f"{path}: the archive ends inside a member") from None
    except (zipfile.BadZipFile, struct.error, NotImplementedError, KeyError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_annotations(path, annotations: list[Annotation]) -> None:
    _write_table(path, None, [[a.start_idx for a in annotations], [a.end_idx for a in annotations],
                              [a.label for a in annotations]], ["%d", "%d", "%s"])


def read_records(path, widths, parse, header=None) -> list:
    """[parse(fields) for each record line of path]: blank and '#' lines are
    skipped, the others split on ',' into stripped fields.  The first must be
    header when one is given, the rest have a field count in widths; a line
    breaking this or refused by parse raises ValueError("<path>:<line>: ...")."""
    out = []
    with open(path, errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = [f.strip() for f in line.split(",")]
            try:
                if header is not None:
                    if fields != header:
                        raise ValueError(f"expected header {','.join(header)!r}, got {line!r}")
                    header = None
                elif len(fields) not in widths:
                    raise ValueError(f"expected {' or '.join(map(str, widths))} fields, "
                                     f"got {len(fields)}")
                else:
                    out.append(parse(fields))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if header is not None:
        raise ValueError(f"{path}: missing header {','.join(header)!r}")
    return out


def _annotation(fields) -> Annotation:
    if fields[2] not in {kind.value for kind in GestureKind}:
        raise ValueError(f"unknown label {fields[2]!r}")
    return Annotation(int(fields[0]), int(fields[1]), fields[2])


def read_annotations(path) -> list[Annotation]:
    return read_records(path, (3,), _annotation)


def write_series(path, series) -> None:
    """Two columns `t, amplitude` under a `# fs=... subcarrier=...` header."""
    _write_table(path, f"# fs={FLOAT_FMT % series.fs} subcarrier={series.source_subcarrier}",
                 [_Times(len(series.values), series.fs), series.values], [FLOAT_FMT] * 2)


_DATASET_HEADER = ["variance", "slope_ratio", "duration", "label"]


def write_dataset(path, examples: list[LabeledExample]) -> None:
    features = [[getattr(ex.features, name) for ex in examples] for name in _DATASET_HEADER[:3]]
    _write_table(path, ",".join(_DATASET_HEADER),
                 features + [[ex.label.name.lower() for ex in examples]], [FLOAT_FMT] * 3 + ["%s"])


def _example(fields) -> LabeledExample:
    variance, slope_ratio, duration = map(float, fields[:3])
    return LabeledExample(FeatureVector(variance, slope_ratio, duration),
                          GestureLabel.from_name(fields[3]))


def read_dataset(path) -> list[LabeledExample]:
    return read_records(path, (4,), _example, header=_DATASET_HEADER)


_CONFUSION_HEADER = ["true", "predicted_typing", "predicted_mouse"]
_CONFUSION_ROWS = ["typing", "mouse"]   # GestureLabel order, the rows of build_emission


def write_confusion(path, confusion) -> None:
    """Cross-validation counts of the true labels typing, then mouse."""
    _write_table(path, ",".join(_CONFUSION_HEADER),
                 [_CONFUSION_ROWS, *np.asarray(confusion).T], ["%s", "%d", "%d"])


def read_confusion(path) -> np.ndarray:
    """The (2, 2) counts of write_confusion's table; a count may be written
    as a float, but a finite one must be a whole number."""
    expected = iter(_CONFUSION_ROWS)

    def row(fields):
        if fields[0] != next(expected, None):
            raise ValueError(f"expected a 'typing' row, then a 'mouse' row, got {fields[0]!r}")
        counts = [float(fields[1]), float(fields[2])]
        for text, count in zip(fields[1:], counts):
            if np.isfinite(count) and not count.is_integer():
                raise ValueError(f"count {text!r} is not a whole number")
        return counts

    counts = read_records(path, (3,), row, header=_CONFUSION_HEADER)
    if len(counts) != len(_CONFUSION_ROWS):
        raise ValueError(f"{path}: expected a 'typing' row, then a 'mouse' row, "
                         f"got {len(counts)} rows")
    return np.array(counts)


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
            k=doc["k"],
            standardizer=std,
            points=np.array(doc["points"]),
            labels=np.array(doc["labels"]),
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
    _write_table(path, "index,nor1,nor2", [np.arange(len(nor2)), nor1, nor2],
                 ["%d", FLOAT_FMT, FLOAT_FMT])


def write_segments(path, segments) -> None:
    """Plot table `start_idx,end_idx,truncated`, one row per segment."""
    _write_table(path, "start_idx,end_idx,truncated",
                 [[s.start_idx for s in segments], [s.end_idx for s in segments],
                  [s.truncated for s in segments]], ["%d"] * 3)


def write_table(path, header: list[str], columns, fmts) -> None:
    """Plot-data table: a header line, then one row per index of the
    equal-length columns, column j in fmts[j]."""
    _write_table(path, ",".join(header), columns, fmts)
