"""File formats shared across the pipeline.

A trace is one uncompressed `.npz` archive, whatever its file name, of two
`.npy` members: `fs.npy` (0-d float64) and `samples.npy` ((S, T) C-order
complex64, little-endian), and the file keeps every bit.  Samples of any
other dtype, complex128 included, are refused by name, not rounded, the
one rule CsiTrace keeps in memory too.  A write streams each member a row
at a time.  A read checks a member's header against the bytes it stores
before anything is allocated, takes the samples from the file into their
array in one call, checks zip's CRC of them itself and checks them finite
a row at a time.  Every other artifact is plain text at full double
precision, so it diffs cleanly and round-trips losslessly: one writer
formats every table in tasks of rows, one `%` per task, and streams them
in order into a temp file renamed over the target.  The files people write
or edit (annotations, datasets, gesture scripts, confusion tables) are
read by read_records, one rule for comments, blank lines, headers and
errors.  The JSON files (the config and the model files) go through one
codec, _from_json and _to_json, driven by the fields of the dataclasses
they hold.
"""
from __future__ import annotations

import json
import math
import os
import struct
import zipfile
import zlib
from contextlib import contextmanager, suppress
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from itertools import chain
from pathlib import Path
from types import UnionType
from typing import get_args, get_type_hints

import numpy as np
from numpy.lib import format as npy

from .behavior import Behavior, BehaviorHmm
from .channel import Annotation, CsiTrace, GestureKind, _mapped_empty
from .classify import Classifier, FeatureVector, GestureLabel, LabeledExample

FLOAT_FMT = "%.17g"
_TASK_VALUES = 1 << 14  # values a task of a text table formats
# a trace archive's members: (name, dtype, ndim), written in this order
_TRACE_MEMBERS = (("fs.npy", "<f8", 0), ("samples.npy", "<c8", 2))
# zip's earliest date stamps every member, so a write's bytes never depend on the clock
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


@contextmanager
def _atomic_open(path, mode="w"):
    """Handle in mode on a temp file beside path, renamed over path on success.
    The temp file is created as open() creates a file, 0o666 less the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def write_table(path, first_line: str | None, columns, fmts) -> None:
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
    allocated.  The payload is then read from the file in one call, and the
    CRC of the member's bytes checked as zipfile checks it."""
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
        head = member.tell()   # the .npy header's bytes
        stored = info.file_size - head
        if min(shape, default=0) < 0 or math.prod(shape) * got.itemsize != stored:
            raise ValueError(f"{name} has shape {shape}, which does not fit its {stored} bytes")
    array = _mapped_empty(shape, dtype)
    view = memoryview(array.reshape(-1)).cast("B")
    # the member's bytes start past its local header (which zipfile.open has
    # checked): 30 bytes that end in the lengths of its name and extra field
    fh = archive.fp
    fh.seek(info.header_offset + 26)
    fh.seek(info.header_offset + 30 + sum(struct.unpack("<HH", fh.read(4))))
    crc = zlib.crc32(fh.read(head))
    if fh.readinto(view) != len(view):
        raise EOFError   # the file ends first, as zipfile's reader raises it
    if zlib.crc32(view, crc) != info.CRC:
        raise zipfile.BadZipFile(f"Bad CRC-32 for file {name!r}")
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
        finite = np.empty(samples.shape[1], dtype=bool)   # one row's mask, not (S, T)'s
        for s, row in enumerate(samples):
            if not np.isfinite(row, out=finite).all():
                t = np.argmin(finite)
                raise ValueError(f"non-finite sample {row[t]} at subcarrier {s}, index {t}")
        return CsiTrace(fs=float(fs), samples=samples)
    except EOFError:
        raise ValueError(f"{path}: the archive ends inside a member") from None
    except (zipfile.BadZipFile, struct.error, NotImplementedError, KeyError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_annotations(path, annotations: list[Annotation]) -> None:
    write_table(path, None, [[a.start_idx for a in annotations], [a.end_idx for a in annotations],
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
    """Two columns `index, amplitude` under a `# fs=... subcarrier=...`
    header; sample index is at t = index / fs, which the header's fs gives
    to every bit."""
    write_table(path, f"# fs={FLOAT_FMT % series.fs} subcarrier={series.source_subcarrier}",
                [np.arange(len(series.values)), series.values], ["%d", FLOAT_FMT])


_DATASET_HEADER = ["variance", "slope_ratio", "duration", "label"]


def write_dataset(path, examples: list[LabeledExample]) -> None:
    features = [[getattr(ex.features, name) for ex in examples] for name in _DATASET_HEADER[:3]]
    write_table(path, ",".join(_DATASET_HEADER),
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
    write_table(path, ",".join(_CONFUSION_HEADER),
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


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _read_json(path, build):
    """build(the JSON document of the file at path), NaN and Infinity
    refused; any ValueError is raised as ValueError("<path>: ...")."""
    with open(path) as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_constant)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    try:
        return build(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_json(path, doc) -> None:
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


# a scalar field's JSON check by its type hint; values are kept as given,
# so an int in a float field stays an int and writing it back keeps the file
_SCALARS = {
    int: (lambda v: type(v) is int, "an integer"),
    float: (lambda v: type(v) is int or type(v) is float and math.isfinite(v),
            "a finite number"),
    str: (lambda v: type(v) is str, "a string"),
}


@cache
def _fields(cls) -> dict:
    """name: (type hint, required) of each field of dataclass cls, in order."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def _numbers(value, key: str) -> np.ndarray:
    """value, a JSON array (of arrays) of finite numbers, as an array: of
    ints when every number is an int, else of floats."""
    if type(value) is list:
        cells = np.array(value, dtype=object)   # a ragged array keeps its rows as cells
        kinds = set(map(type, cells.flat))
        if kinds <= {int, float}:
            with suppress(OverflowError):   # an int past int64, or past a float's range
                array = cells.astype(float if float in kinds else int)
                if np.isfinite(array).all():
                    return array
    raise ValueError(f"{key} must be finite numbers in a JSON array")


def _from_json(cls, doc, what: str, name: str = ""):
    """Dataclass cls from the JSON object doc, section name (dotted; "" for
    the root) of a what file.  Each field is built by its type hint: a
    dataclass from an object, np.ndarray by _numbers, int, float and str by
    _SCALARS.  An unknown key, a wrong JSON type, a missing field without a
    default and cls's own refusal raise ValueError; in a class made only of
    sections an unknown key is an unknown section.  A union of dataclasses
    takes the member whose class's kind is doc's "kind"."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} section {name!r} must be an object" if name
                         else f"{what} root must be an object")
    at = f"{name}." if name else ""
    if isinstance(cls, UnionType):
        kinds = {member.kind: member for member in get_args(cls)}
        doc = dict(doc)
        kind = doc.pop("kind", None)
        if kind not in kinds:
            raise ValueError(f"{at}kind: must be {' or '.join(map(repr, kinds))}, got {kind!r}")
        cls = kinds[kind]
    spec = _fields(cls)
    unknown = sorted(doc.keys() - spec.keys())
    if unknown:
        if all(is_dataclass(hint) for hint, _ in spec.values()):
            raise ValueError(f"unknown {what} section {unknown[0]!r}")
        raise ValueError(f"unknown {what} key {at}{unknown[0]}")
    kwargs = {}
    for key, (hint, required) in spec.items():
        if key not in doc:
            if required:
                where = f" in {what} section {name!r}" if name else ""
                raise ValueError(f"missing key {key!r}{where}")
            continue
        value = doc[key]
        if is_dataclass(hint):
            kwargs[key] = _from_json(hint, value, what, at + key)
        elif hint is np.ndarray:
            kwargs[key] = _numbers(value, at + key)
        else:
            accepts, kind = _SCALARS[hint]
            if not accepts(value):
                raise ValueError(f"{at}{key}: must be {kind}, got {value!r}")
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"invalid {what} section {name!r}: {exc}" if name
                         else f"invalid {what}: {exc}") from None


def _to_json(obj) -> dict:
    """Inverse of _from_json for one dataclass: its fields in order, arrays
    as nested lists."""
    doc = {}
    for key in _fields(type(obj)):
        value = getattr(obj, key)
        if is_dataclass(value):
            value = _to_json(value)
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        doc[key] = value
    return doc


def write_classifier(path, model: Classifier) -> None:
    """The model's kind, then its fields."""
    _write_json(path, {"kind": model.kind, **_to_json(model)})


def read_classifier(path) -> Classifier:
    return _read_json(path, lambda doc: _from_json(Classifier, doc, "gesture model"))


def write_behavior_models(path, models: dict[Behavior, BehaviorHmm]) -> None:
    _write_json(path, {b.value: _to_json(m) for b, m in models.items()})


def _behavior_models(doc) -> dict[Behavior, BehaviorHmm]:
    if not isinstance(doc, dict):
        raise ValueError("behavior model root must be an object")
    names = {b.value: b for b in Behavior}
    models = {}
    for name, entry in doc.items():
        if name not in names:
            raise ValueError(f"unknown behavior {name!r}")
        models[names[name]] = _from_json(BehaviorHmm, entry, "behavior model", name)
    if len(models) < 2:   # what classify_behavior needs
        raise ValueError(f"expected at least two behaviors, got {len(models)}")
    return models


def read_behavior_models(path) -> dict[Behavior, BehaviorHmm]:
    """Inverse of write_behavior_models: an object of two or more behaviors,
    each {"pi", "A", "B"}."""
    return _read_json(path, _behavior_models)


def write_nor(path, nor1, nor2) -> None:
    """Plot table `index,nor1,nor2` of the segmenter's variance traces."""
    write_table(path, "index,nor1,nor2", [np.arange(len(nor2)), nor1, nor2],
                ["%d", FLOAT_FMT, FLOAT_FMT])


def write_segments(path, segments) -> None:
    """Plot table `start_idx,end_idx,truncated`, one row per segment."""
    write_table(path, "start_idx,end_idx,truncated",
                [[s.start_idx for s in segments], [s.end_idx for s in segments],
                 [s.truncated for s in segments]], ["%d"] * 3)
