"""Text file formats shared across the pipeline.

Everything is plain text at full double precision so artifacts diff cleanly
and round-trip losslessly.  One writer formats every table in tasks of rows,
one `%` per task, on forked worker processes when the table has enough tasks
to pay for them, and streams them in order into a temp file renamed over the
target.  Traces are read back in tasks of as many lines, parsed into one
array allocated up front; each task knows its first line number.  The files
people write or edit (annotations, datasets, gesture scripts, confusion
tables) are read by read_records, one rule for comments, blank lines,
headers and errors.
"""
from __future__ import annotations

import json
import os
import re
import tempfile
import warnings
from contextlib import closing, contextmanager
from io import BytesIO
from itertools import chain, islice
from pathlib import Path

import numpy as np

from ._workers import fork_map
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
_TASK_VALUES = 1 << 14  # values a task formats or parses
_ROW_IN_CALL = re.compile(r"at row \d+, ")


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


def _rows_per_task(n_cols: int) -> int:
    """Rows of an n_cols-column table that one task writes or reads."""
    return max(1, _TASK_VALUES // n_cols)


def _format_rows(row_fmt: str, columns, a: int, b: int) -> str:
    """The text of rows a to b of columns, in one `%` of the cells tolist()
    makes: float64 -> float is exact, so the bytes are those of formatting
    each value on its own."""
    cells = [np.asarray(c[a:b]).tolist() for c in columns]
    return (row_fmt * len(cells[0])) % tuple(chain.from_iterable(zip(*cells)))


def _write_table(path, first_line, columns, fmts) -> None:
    """first_line, unless it is None, then one row per index of the
    equal-length columns, column j in fmts[j], written atomically.

    Tasks of _rows_per_task rows are formatted on the workers of fork_map
    and written in order, so the text never exists as a whole.
    """
    row_fmt = ",".join(fmts) + "\n"
    step = _rows_per_task(len(columns))
    tasks = [(row_fmt, columns, a, a + step) for a in range(0, len(columns[0]), step)]
    with _atomic_open(path) as fh, closing(fork_map(_format_rows, tasks)) as texts:
        if first_line is not None:
            fh.write(first_line + "\n")
        fh.writelines(texts)   # holds one text at a time


class _Times:
    """The column i / fs of an n-row table, made a slice at a time."""

    def __init__(self, n: int, fs: float):
        self.n, self.fs = n, fs

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, rows: slice) -> np.ndarray:
        return np.arange(*rows.indices(self.n)) / self.fs


def _read_header(path, line: str, casts: dict) -> dict:
    """The `# key=value ...` first line of a file, each key in casts cast by its type."""
    header = line.strip()
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
    columns = [_Times(trace.n_samples, trace.fs)]
    for row in trace.samples:
        columns += [row.real, row.imag]
    _write_table(path, f"# fs={FLOAT_FMT % trace.fs} subcarriers={trace.subcarriers}",
                 columns, [FLOAT_FMT] * len(columns))


def _line_ranges(fb, line: int, rows: int) -> tuple[list[tuple[int, int, int]], int]:
    """Byte ranges of `rows` whole lines each, from fb's position (the start
    of line number `line`) to the end of the file, each with the number of
    its first line; and the number of lines, a last one without a newline
    included."""
    ranges, start, n = [], fb.tell(), 0
    while sizes := list(map(len, islice(fb, rows))):
        end = start + sum(sizes)
        ranges.append((start, end, line + n))
        start, n = end, n + len(sizes)
    return ranges, n


def _loadtxt(lines) -> np.ndarray:
    with warnings.catch_warnings():
        # skipped lines are not data rows, and a range may hold only them
        warnings.filterwarnings(
            "ignore", r"(loadtxt: input|Input line \d+) contained no data", UserWarning
        )
        return np.loadtxt(lines, delimiter=",", ndmin=2, encoding="utf-8")


def _parse_range(path, start: int, stop: int) -> np.ndarray:
    """The rows of bytes [start, stop) of path, whole lines."""
    with open(path, "rb") as fb:
        fb.seek(start)
        data = fb.read(stop - start)
    return _loadtxt(BytesIO(data))


def _bad_line(path, fb, start: int, first: int, n_cols: int) -> ValueError:
    """The error naming the first line from byte offset start, the start of
    line first, that does not parse, does not have n_cols columns or has a
    non-finite sample."""
    fb.seek(start)
    for lineno, line in enumerate(fb, first):
        try:
            row = _loadtxt([line])
        except ValueError as exc:
            # the line number replaces numpy's row within the one-line call
            return ValueError(f"{path}:{lineno}: {_ROW_IN_CALL.sub('at ', str(exc))}")
        if len(row) and row.shape[1] != n_cols:
            return ValueError(f"{path}:{lineno}: expected {n_cols} columns, got {row.shape[1]}")
        finite = np.isfinite(row[:, 1:]).all(axis=0)
        if not finite.all():
            col = 1 + int(np.argmin(finite))
            return ValueError(f"{path}:{lineno}: non-finite value {row[0, col]} in column {col + 1}")
    return ValueError(f"{path}:{first}: rows from here do not parse")


def read_trace(path) -> CsiTrace:
    """Inverse of write_trace: tasks of as many lines as a writer task has
    rows are parsed on the workers of fork_map and copied in order into one
    preallocated (S, T) array, so a read holds the samples once.

    A header without a positive finite fs or at least one subcarrier, a bad
    or non-finite cell, a row of the wrong width and a truncated last row
    raise ValueError("<path>:<line>: ...").
    """
    with open(path, "rb") as fb:
        header = _read_header(path, fb.readline().decode(errors="replace"),
                              {"fs": float, "subcarriers": int})
        if not 0 < header["fs"] < np.inf:
            raise ValueError(f"{path}:1: fs must be positive and finite, got {header['fs']!r}")
        n_sub = header["subcarriers"]
        if n_sub < 1:
            raise ValueError(f"{path}:1: subcarriers must be >= 1, got {n_sub}")
        n_cols = 1 + 2 * n_sub
        # n_rows is an upper bound: blank and '#' lines, which loadtxt skips, count too
        ranges, n_rows = _line_ranges(fb, 2, _rows_per_task(n_cols))
        samples = None
        i = 0
        blocks = fork_map(_parse_range, [(path, a, b) for a, b, _ in ranges])
        with closing(blocks):
            for start, _, line in ranges:
                try:
                    block = next(blocks)
                except ValueError:
                    raise _bad_line(path, fb, start, line, n_cols) from None
                if not len(block):
                    continue
                if block.shape[1] != n_cols or not np.isfinite(block[:, 1:]).all():
                    raise _bad_line(path, fb, start, line, n_cols)
                if samples is None:  # allocated once a row has the header's width
                    samples = np.empty((n_sub, n_rows), dtype=complex)
                # (re, im) column pairs viewed as complex keep every bit, signed zeros too
                samples[:, i:i + len(block)] = block[:, 1:].view(complex).T
                i += len(block)
    if samples is None:
        samples = np.empty((n_sub, 0), dtype=complex)
    elif i < n_rows:
        samples = np.ascontiguousarray(samples[:, :i])
    return CsiTrace(fs=header["fs"], samples=samples)


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
