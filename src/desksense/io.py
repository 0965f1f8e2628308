"""Text file formats shared across the pipeline.

Everything is plain text at full double precision so artifacts diff cleanly
and round-trip losslessly.  Writes go through a temp file and rename;
numeric tables (traces, series, nor/segment tables) are formatted one `%`
per task of rows and streamed into it in order, on forked worker processes
when the table has enough tasks to pay for them.  Traces are read back as
byte ranges of whole lines, parsed the same way, into one array allocated
up front; each range knows its first line number.
"""
from __future__ import annotations

import json
import multiprocessing
import os
import re
import signal
import tempfile
import threading
import traceback
import warnings
from contextlib import closing, contextmanager
from io import BytesIO
from pathlib import Path

import numpy as np

from .behavior import Behavior, BehaviorHmm
from .channel import Annotation, CsiTrace, GestureKind, _worker_count
from .classify import (
    FeatureVector,
    GaussianNbClassifier,
    GestureLabel,
    KnnClassifier,
    LabeledExample,
    Standardizer,
)

FLOAT_FMT = "%.17g"
_TASK_VALUES = 1 << 14  # values a writer task formats
_RANGE_BYTES = 1 << 17  # body bytes a reader task parses, rounded up to a line end
_MIN_TASKS_PER_WORKER = 8  # below this, starting and stopping a worker costs what it saves
_ROW_IN_CALL = re.compile(r"at row \d+, ")
_FORK = "fork" in multiprocessing.get_all_start_methods()


def _serve(conn, fn, tasks) -> None:
    """A worker process: fn(*task) for each of tasks in order, each answered
    on conn with (True, result), or (False, (the exception raised, its
    traceback)) after which the worker stops."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # Ctrl-C stops the parent, which stops this
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # no handler inherited from the parent
    for task in tasks:
        try:
            result = fn(*task)
        except Exception as exc:
            conn.send((False, (exc, traceback.format_exc())))
            return
        conn.send((True, result))


class _Worker:
    """fn over tasks on a forked process, which inherits both unpickled."""

    def __init__(self, fn, tasks):
        self.conn, child = multiprocessing.Pipe()
        self.process = multiprocessing.get_context("fork").Process(
            target=_serve, args=(child, fn, tasks), daemon=True)
        self.process.start()
        child.close()

    def recv(self):
        try:
            ok, value = self.conn.recv()
        except EOFError:
            self.process.join()
            raise ChildProcessError(
                f"worker process {self.process.pid} exited with code {self.process.exitcode}"
            ) from None
        if not ok:
            exc, where = value
            raise exc from RuntimeError(f"in worker process {self.process.pid}:\n{where}")
        return value

    def stop(self) -> None:
        self.process.terminate()
        self.process.join()
        self.conn.close()


def _in_workers(fn, tasks: list):
    """fn(*task) for each of tasks, yielded in task order.

    The tasks are split over forked worker processes, at most one per CPU in
    the affinity mask and at least _MIN_TASKS_PER_WORKER tasks each: worker
    k of n runs tasks[k::n], so result i comes from worker i % n.  A worker
    blocks on its pipe until its results are taken, in order, so the
    calling process holds one result whatever the number of tasks.  Fewer
    tasks than two workers need, a single CPU, a platform without fork or a
    process with other threads alive (a fork copies no thread, and could
    copy a lock one of them holds) runs the tasks here, one at a time.  An
    error or interrupt, or closing the generator, stops the workers and
    drops the tasks they hold.
    """
    n = min(_worker_count(), len(tasks) // _MIN_TASKS_PER_WORKER)
    if n <= 1 or not _FORK or threading.active_count() > 1:
        for task in tasks:
            yield fn(*task)
        return
    workers = []
    try:
        for k in range(n):   # in the try: a failed fork stops the workers started
            workers.append(_Worker(fn, tasks[k::n]))
        for i in range(len(tasks)):
            yield workers[i % n].recv()
    finally:
        for worker in workers:
            worker.stop()


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


def _format_rows(row_fmt: str, block: np.ndarray) -> str:
    """The text of a (rows, columns) float block, in one `%`.

    float64 -> float is exact, so the bytes are those of formatting each
    value on its own; integer columns ("%d") are exact up to 2**53.
    """
    return (row_fmt * len(block)) % tuple(block.ravel().tolist())


def _write_rows(fh, columns, fmts) -> None:
    """Rows of equal-length numeric columns, each value in its column's format.

    Ranges of about _TASK_VALUES values are stacked into float blocks and
    formatted on the workers of _in_workers and written in order, so the
    text never exists as a whole.
    """
    row_fmt = ",".join(fmts) + "\n"
    step = max(1, _TASK_VALUES // len(columns))

    def rows(a, b):
        return _format_rows(row_fmt, np.column_stack([np.asarray(c[a:b], dtype=float)
                                                      for c in columns]))

    ranges = [(a, a + step) for a in range(0, len(columns[0]), step)]
    with closing(_in_workers(rows, ranges)) as texts:
        fh.writelines(texts)   # holds one text at a time


class _Times:
    """The column i / fs of an n-row table, made a slice at a time."""

    def __init__(self, n: int, fs: float):
        self.n, self.fs = n, fs

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, rows: slice) -> np.ndarray:
        return np.arange(*rows.indices(self.n)) / self.fs


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


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
    with _atomic_open(path) as fh:
        fh.write(f"# fs={_fmt(trace.fs)} subcarriers={trace.subcarriers}\n")
        _write_rows(fh, columns, [FLOAT_FMT] * len(columns))


def _line_ranges(fb, line: int) -> tuple[list[tuple[int, int, int]], int]:
    """Byte ranges of whole lines from fb's position, the start of line
    number line, to the end of the file, each of _RANGE_BYTES rounded up to
    a line end and given with the number of its first line, and the number
    of lines, a last one without a newline included."""
    ranges, n, last = [], 0, b"\n"
    start = fb.tell()
    while chunk := fb.read(_RANGE_BYTES):
        tail = b"" if chunk.endswith(b"\n") else fb.readline()
        end = start + len(chunk) + len(tail)
        ranges.append((start, end, line + n))
        n += chunk.count(b"\n") + tail.count(b"\n")
        last = (tail or chunk)[-1:]
        start = end
    return ranges, n + (last != b"\n")


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
    """Inverse of write_trace: byte ranges of about _RANGE_BYTES are parsed
    on the workers of _in_workers and copied in order into one preallocated
    (S, T) array, so a read holds the samples once.

    A bad or non-finite cell, a row of the wrong width and a truncated last
    row raise ValueError("<path>:<line>: ...").
    """
    with open(path, "rb") as fb:
        header = _read_header(path, fb.readline().decode(errors="replace"),
                              {"fs": float, "subcarriers": int})
        if not 0 < header["fs"] < np.inf:
            raise ValueError(f"{path}:1: fs must be positive and finite, got {header['fs']!r}")
        n_sub = header["subcarriers"]
        n_cols = 1 + 2 * n_sub
        # n_rows is an upper bound: blank and '#' lines, which loadtxt skips, count too
        ranges, n_rows = _line_ranges(fb, 2)
        samples = None
        i = 0
        blocks = _in_workers(_parse_range, [(path, a, b) for a, b, _ in ranges])
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
    lines = [f"{a.start_idx},{a.end_idx},{a.label}" for a in annotations]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_annotations(path) -> list[Annotation]:
    out = []
    with open(path, errors="replace") as fh:
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
    with _atomic_open(path) as fh:
        fh.write(f"# fs={_fmt(series.fs)} subcarrier={series.source_subcarrier}\n")
        _write_rows(fh, [_Times(len(series.values), series.fs), series.values], [FLOAT_FMT] * 2)


def write_dataset(path, examples: list[LabeledExample]) -> None:
    write_table(
        path,
        ["variance", "slope_ratio", "duration", "label"],
        [(float(ex.features.variance), float(ex.features.slope_ratio),
          float(ex.features.duration), ex.label.name.lower()) for ex in examples],
    )


def read_dataset(path) -> list[LabeledExample]:
    out = []
    with open(path, errors="replace") as fh:
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
