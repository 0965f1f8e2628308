import contextlib
import functools
import json
import math
import multiprocessing
import os
import re
import signal
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desksense import cli, io, segmentation
from desksense.behavior import Behavior, BehaviorHmm
from desksense.channel import Annotation, CsiTrace
from desksense.classify import FeatureVector, GestureLabel, LabeledExample, fit
from desksense.cli import main, parse_script
from desksense.config import PipelineConfig, config_from_dict, load_config
from desksense.pipeline import behavior_study
from desksense.preprocess import AmplitudeSeries
from desksense.segmentation import GestureSegment


def random_trace(seed=0, n_sub=4, n=50):
    rng = np.random.default_rng(seed)
    samples = rng.normal(0, 1, (n_sub, n)) + 1j * rng.normal(0, 1, (n_sub, n))
    return CsiTrace(fs=1000.0, samples=samples)


# Examples of both labels, enough to fit either classifier.
EXAMPLES = [
    LabeledExample(FeatureVector(1.0 + 0.1 * i, 1.0 + 0.2 * i, 0.5), GestureLabel(i % 2))
    for i in range(10)
]

BEHAVIOR_MODELS = {
    Behavior.SURFING: BehaviorHmm(
        pi=[0.25, 0.75],
        A=[[0.5, 0.5], [1 / 6, 5 / 6]],
        B=[[0.9, 0.1], [0.2, 0.8]],
        behavior=Behavior.SURFING,
    ),
    Behavior.GAMING: BehaviorHmm(
        pi=[0.5, 0.5],
        A=[[0.5, 0.5], [0.5, 0.5]],
        B=[[0.9, 0.1], [0.2, 0.8]],
        behavior=Behavior.GAMING,
    ),
}


@contextlib.contextmanager
def codec_split(workers=None, task_values=None, range_bytes=None):
    """io's worker count and task sizes patched where given."""
    with contextlib.ExitStack() as stack:
        for name, value in (("_TASK_VALUES", task_values), ("_RANGE_BYTES", range_bytes)):
            if value is not None:
                stack.enter_context(mock.patch.object(io, name, value))
        if workers is not None:
            stack.enter_context(mock.patch.object(io, "_worker_count", lambda: workers))
        yield


@contextlib.contextmanager
def watch_forks():
    """The number of live threads of this process at each fork, in order."""
    threads = []
    fork = os.fork

    def counted_fork():
        threads.append(threading.active_count())
        return fork()

    with mock.patch.object(os, "fork", counted_fork):
        yield threads


class TestRoundTrips:
    def test_trace(self, tmp_path):
        trace = random_trace()
        path = tmp_path / "trace.csv"
        io.write_trace(path, trace)
        back = io.read_trace(path)
        assert back.fs == trace.fs
        np.testing.assert_array_equal(back.samples, trace.samples)

    def test_non_integer_fs(self, tmp_path):
        trace = random_trace()
        trace = CsiTrace(fs=999.5, samples=trace.samples)
        io.write_trace(tmp_path / "trace.csv", trace)
        assert io.read_trace(tmp_path / "trace.csv").fs == 999.5
        series = AmplitudeSeries(fs=999.5, values=np.arange(8.0), source_subcarrier=2)
        io.write_series(tmp_path / "series.csv", series)
        header = (tmp_path / "series.csv").read_bytes().split(b"\n")[0]
        assert header == b"# fs=999.5 subcarrier=2"

    def test_integer_fs_header_unchanged(self, tmp_path):
        path = tmp_path / "trace.csv"
        io.write_trace(path, random_trace())
        assert path.read_text().splitlines()[0] == "# fs=1000 subcarriers=4"

    def test_annotations(self, tmp_path):
        anns = [Annotation(5, 20, "keystroke"), Annotation(40, 45, "mouse_move")]
        path = tmp_path / "trace.ann"
        io.write_annotations(path, anns)
        assert io.read_annotations(path) == anns

    def test_dataset(self, tmp_path):
        examples = [
            LabeledExample(FeatureVector(1.25, 1.5, 0.7), GestureLabel.TYPING),
            LabeledExample(FeatureVector(0.3333333333333333, 2.0, 0.41), GestureLabel.MOUSE),
        ]
        path = tmp_path / "dataset.csv"
        io.write_dataset(path, examples)
        back = io.read_dataset(path)
        assert back == examples

    def test_classifiers(self, tmp_path):
        probe = FeatureVector(1.33, 1.77, 0.5)
        for kind in ("knn", "gaussian_nb"):
            model = fit(kind, EXAMPLES)
            path = tmp_path / f"{kind}.json"
            io.write_classifier(path, model)
            back = io.read_classifier(path)
            assert back.predict(probe) is model.predict(probe)
            np.testing.assert_array_equal(back.standardizer.mean, model.standardizer.mean)

    def test_behavior_models(self, tmp_path):
        models = BEHAVIOR_MODELS
        path = tmp_path / "models.json"
        io.write_behavior_models(path, models)
        back = io.read_behavior_models(path)
        assert set(back) == set(models)
        for b in models:
            np.testing.assert_array_equal(back[b].A, models[b].A)
            np.testing.assert_array_equal(back[b].pi, models[b].pi)


# Reference writers: one `%` per value, joined into one string.  The
# block-streamed writers must produce exactly these bytes.

def oracle_write_trace(path, trace):
    fmt = io.FLOAT_FMT
    lines = [f"# fs={fmt % trace.fs} subcarriers={trace.subcarriers}"]
    t = np.arange(trace.n_samples) / trace.fs
    for i in range(trace.n_samples):
        row = [fmt % t[i]]
        for s in range(trace.subcarriers):
            v = trace.samples[s, i]
            row.append(fmt % v.real)
            row.append(fmt % v.imag)
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def oracle_write_series(path, series):
    fmt = io.FLOAT_FMT
    lines = [f"# fs={fmt % series.fs} subcarrier={series.source_subcarrier}"]
    t = np.arange(len(series.values)) / series.fs
    lines += [f"{fmt % ti},{fmt % v}" for ti, v in zip(t, series.values)]
    Path(path).write_text("\n".join(lines) + "\n")


# ±0, the smallest subnormal, a subnormal, the smallest normal, the largest
# finite value and other extremes, scattered into ordinary values.
SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308, 1e300, -1e-300,
                  0.1, 1 / 3, 1.0, -2.5]

ROW_COUNTS = st.one_of(st.sampled_from([0, 1, 1023, 1024, 1025]), st.integers(0, 2100))
SAMPLE_RATES = st.one_of(
    st.integers(1, 100_000).map(float),
    st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False),
)
# Tiny tasks and ranges put a worker task or byte range boundary inside
# every table the tests draw.
TASK_VALUES = st.sampled_from([1, 40, io._TASK_VALUES])
RANGE_BYTES = st.sampled_from([1, 4096, io._RANGE_BYTES])


def special_floats(draw, shape):
    """Normal draws with SPECIAL_VALUES and hypothesis floats scattered in."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(0.0, 10.0 ** rng.integers(-3, 4), shape).ravel()
    extra = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
    pool = np.array(SPECIAL_VALUES + extra)
    if values.size:
        hits = rng.integers(0, values.size, min(values.size, 4 * len(pool)))
        values[hits] = pool[rng.integers(0, len(pool), len(hits))]
    return values.reshape(shape)


def complex_from_parts(re, im):
    """re + i*im with every bit kept (arithmetic would lose signed zeros)."""
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


@st.composite
def traces(draw):
    n_sub = draw(st.integers(1, 4))
    n = draw(ROW_COUNTS)
    re = special_floats(draw, (n_sub, n))
    im = special_floats(draw, (n_sub, n))
    return CsiTrace(fs=draw(SAMPLE_RATES), samples=complex_from_parts(re, im))


class TestBlockWriter:
    @settings(max_examples=60)
    @given(trace=traces(), task_values=TASK_VALUES)
    def test_trace_bytes(self, trace, task_values):
        with tempfile.TemporaryDirectory() as d:
            with codec_split(task_values=task_values):
                io.write_trace(Path(d) / "new.csv", trace)
            oracle_write_trace(Path(d) / "old.csv", trace)
            assert (Path(d) / "new.csv").read_bytes() == (Path(d) / "old.csv").read_bytes()

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2048])
    def test_trace_bytes_at_block_edges(self, tmp_path, n):
        rng = np.random.default_rng(n)
        samples = complex_from_parts(rng.normal(size=(3, n)), rng.normal(size=(3, n)))
        trace = CsiTrace(fs=999.5, samples=samples)
        io.write_trace(tmp_path / "new.csv", trace)
        oracle_write_trace(tmp_path / "old.csv", trace)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @settings(max_examples=60)
    @given(data=st.data(), n=ROW_COUNTS, fs=SAMPLE_RATES, task_values=TASK_VALUES,
           subcarrier=st.integers(0, 63))
    def test_series_bytes(self, data, n, fs, task_values, subcarrier):
        values = special_floats(data.draw, (n,))
        series = AmplitudeSeries(fs=fs, values=values, source_subcarrier=subcarrier)
        with tempfile.TemporaryDirectory() as d:
            with codec_split(task_values=task_values):
                io.write_series(Path(d) / "new.csv", series)
            oracle_write_series(Path(d) / "old.csv", series)
            assert (Path(d) / "new.csv").read_bytes() == (Path(d) / "old.csv").read_bytes()

    @settings(max_examples=30)
    @given(data=st.data(), n=ROW_COUNTS, task_values=TASK_VALUES)
    def test_segment_tables_bytes(self, data, n, task_values):
        nor1 = special_floats(data.draw, (n,))
        nor2 = special_floats(data.draw, (n,))
        bounds = sorted(data.draw(st.lists(st.integers(0, 50_000), max_size=40, unique=True)))
        segments = [
            GestureSegment(start_idx=a, end_idx=b, waveform=np.zeros(b - a + 1), fs=1000.0,
                           truncated=data.draw(st.booleans()))
            for a, b in zip(bounds[::2], bounds[1::2])
        ]
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            with codec_split(task_values=task_values):
                io.write_nor(d / "nor.csv", nor1, nor2)
                io.write_segments(d / "segments.csv", segments)
            io.write_table(d / "nor_old.csv", ["index", "nor1", "nor2"],
                           [(i, float(nor1[i]), float(nor2[i])) for i in range(n)])
            io.write_table(d / "segments_old.csv", ["start_idx", "end_idx", "truncated"],
                           [(s.start_idx, s.end_idx, int(s.truncated)) for s in segments])
            assert (d / "nor.csv").read_bytes() == (d / "nor_old.csv").read_bytes()
            assert (d / "segments.csv").read_bytes() == (d / "segments_old.csv").read_bytes()

    @settings(max_examples=40)
    @given(trace=traces())
    def test_trace_round_trip_bit_exact(self, trace):
        with tempfile.TemporaryDirectory() as d, warnings.catch_warnings():
            warnings.simplefilter("error")
            io.write_trace(Path(d) / "trace.csv", trace)
            back = io.read_trace(Path(d) / "trace.csv")
        assert back.samples.shape == trace.samples.shape
        assert back.fs == trace.fs
        np.testing.assert_array_equal(back.samples.view(np.uint64), trace.samples.view(np.uint64))

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("old\n")
        with mock.patch.object(io, "_write_rows", side_effect=RuntimeError("disk full")):
            with pytest.raises(RuntimeError, match="disk full"):
                io.write_trace(path, random_trace())
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]

    def test_signed_zeros_round_trip(self, tmp_path):
        samples = complex_from_parts(np.array([[-0.0, -0.0, 0.0, -0.0]]),
                                     np.array([[-0.0, 2.0, -0.0, 0.0]]))
        io.write_trace(tmp_path / "trace.csv", CsiTrace(fs=1000.0, samples=samples))
        back = io.read_trace(tmp_path / "trace.csv")
        np.testing.assert_array_equal(back.samples.view(np.uint64), samples.view(np.uint64))


# Reference reader: the whole-file parse the block-streamed reader replaced.

def oracle_read_trace(path):
    with open(path) as fh:
        fields = dict(token.split("=") for token in fh.readline().lstrip("# ").split())
        n_cols = 1 + 2 * int(fields["subcarriers"])
        body = fh.tell()
        if fh.readline():
            fh.seek(body)
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        else:
            data = np.empty((0, n_cols))
    assert data.shape[1] == n_cols
    return float(fields["fs"]), np.ascontiguousarray(
        np.ascontiguousarray(data[:, 1:]).view(complex).T)


SKIPPED_LINES = st.sampled_from(["", "#", "# a comment", "#1,2,3"])


@st.composite
def dirty_bodies(draw):
    """(trace, extra lines keyed by the body line they precede, trailing newline)."""
    n_sub = draw(st.integers(1, 4))
    n = draw(st.one_of(st.sampled_from([0, 1, 1023, 1024, 1025, 2049]), st.integers(0, 2100)))
    trace = CsiTrace(fs=draw(SAMPLE_RATES), samples=complex_from_parts(
        special_floats(draw, (n_sub, n)), special_floats(draw, (n_sub, n))))
    edges = [k for k in (0, 1, 1023, 1024, 1025, 2048, n) if k <= n]
    where = st.one_of(st.sampled_from(edges), st.integers(0, n))
    extra = draw(st.lists(st.tuples(where, SKIPPED_LINES), max_size=6))
    return trace, extra, draw(st.booleans())


def write_dirty_trace(path, trace, extra, trailing_newline):
    """Write trace to path with extra lines inserted; return the clean file.

    The clean trace goes to a sibling file, so that path is written once: on
    ext4, truncating a file that was just written forces a flush to disk.
    """
    clean = path.with_name(path.name + ".clean")
    io.write_trace(clean, trace)
    lines = clean.read_text().splitlines()
    for at, line in sorted(extra, key=lambda e: -e[0]):
        lines.insert(1 + at, line)
    path.write_text("\n".join(lines) + ("\n" if trailing_newline else ""))
    return clean


class TestBlockReader:
    @settings(max_examples=50)
    @given(body=dirty_bodies(), range_bytes=RANGE_BYTES)
    def test_matches_whole_file_reader(self, body, range_bytes):
        trace, extra, trailing_newline = body
        with tempfile.TemporaryDirectory() as d:
            dirty = Path(d) / "dirty.csv"
            clean = write_dirty_trace(dirty, trace, extra, trailing_newline)
            # the whole-file reader fails on a body of skipped lines alone
            fs, want = oracle_read_trace(dirty if trace.n_samples else clean)
            with codec_split(range_bytes=range_bytes):
                got = io.read_trace(dirty)
        assert got.fs == fs == trace.fs
        assert got.samples.shape == want.shape == trace.samples.shape
        assert got.samples.flags.c_contiguous
        np.testing.assert_array_equal(got.samples.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
    def test_block_edges(self, tmp_path, n):
        rng = np.random.default_rng(n)
        trace = CsiTrace(fs=999.5, samples=complex_from_parts(rng.normal(size=(3, n)),
                                                              rng.normal(size=(3, n))))
        io.write_trace(tmp_path / "trace.csv", trace)
        got = io.read_trace(tmp_path / "trace.csv")
        assert got.samples.flags.c_contiguous
        np.testing.assert_array_equal(got.samples.view(np.uint64),
                                      trace.samples.view(np.uint64))

    @pytest.mark.parametrize("body", ["\n", "\n# no rows yet\n\n", "#"])
    def test_only_skipped_lines_read_as_no_samples(self, tmp_path, body):
        path = tmp_path / "trace.csv"
        path.write_text("# fs=1000 subcarriers=2\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = io.read_trace(path)
        assert got.samples.shape == (2, 0)
        assert got.samples.flags.c_contiguous

    def test_header_wider_than_rows_allocates_nothing(self, tmp_path):
        # a (10**12, T) array cannot be allocated; the first row's width is checked first
        path = tmp_path / "trace.csv"
        path.write_text("# fs=1000 subcarriers=1000000000000\n0,1,2\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:2: expected 2000000000001 columns, got 3")):
            io.read_trace(path)

    def test_peak_memory_near_the_samples(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 30_000
        trace = CsiTrace(fs=1000.0, samples=complex_from_parts(rng.normal(size=(4, n)),
                                                               rng.normal(size=(4, n))))
        io.write_trace(tmp_path / "trace.csv", trace)
        tracemalloc.start()
        try:
            got = io.read_trace(tmp_path / "trace.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.samples.shape == (4, n)
        assert peak <= 1.25 * got.samples.nbytes

    GOOD = "0,1,2\n"

    @pytest.mark.parametrize("body, line, message", [
        pytest.param(GOOD + "0.001,1,x\n", 3,
                     "could not convert string 'x' to float64 at column 3", id="bad-cell"),
        pytest.param(GOOD + "0.001,1\n" + GOOD, 3, "expected 3 columns, got 2", id="short-row"),
        pytest.param(GOOD + "0.001,1,2,3\n", 3, "expected 3 columns, got 4", id="long-row"),
        pytest.param(GOOD + "0.001,1", 3, "expected 3 columns, got 2", id="truncated-last"),
        pytest.param(GOOD + "0.001,1,", 3, "could not convert string '' to float64 at column 3",
                     id="truncated-last-cell"),
        pytest.param("0,1\n" + GOOD, 2, "expected 3 columns, got 2", id="first-row"),
        # later blocks, their lines counted past skipped lines
        pytest.param(GOOD * 1500 + "0,x,2\n", 1502, "could not convert string 'x'",
                     id="second-block"),
        pytest.param(GOOD * 700 + "\n# note\n" + GOOD * 324 + "0,1\n", 1028,
                     "expected 3 columns, got 2", id="after-skipped-lines"),
        pytest.param(GOOD * 1024 + "0,1\n", 1026, "expected 3 columns, got 2",
                     id="block-edge"),
        pytest.param(GOOD * 1024 + "0,x,2\n" + GOOD, 1026, "could not convert string 'x'",
                     id="range-start-bad-cell"),
        pytest.param(GOOD * 1023 + "0,x,2\n" + GOOD, 1025, "could not convert string 'x'",
                     id="range-end-bad-cell"),
        pytest.param(GOOD * 5000 + "0,1,x\n" + GOOD, 5002,
                     "could not convert string 'x' to float64 at column 3", id="later-range"),
        # a sample read as a number the segmenter cannot use
        pytest.param(GOOD + "0.001,nan,2\n", 3, "non-finite value nan in column 2", id="nan"),
        pytest.param(GOOD + "0.001,1,inf\n", 3, "non-finite value inf in column 3", id="inf"),
        pytest.param(GOOD * 1500 + "0,-inf,2\n" + GOOD, 1502,
                     "non-finite value -inf in column 2", id="later-range-inf"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, capsys, body, line, message):
        path = tmp_path / "trace.csv"
        path.write_text("# fs=1000 subcarriers=1\n" + body)
        # byte ranges of 1,024 good lines, parsed on two workers
        with codec_split(workers=2, range_bytes=len(self.GOOD) * 1024):
            with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{line}: {message}')}"):
                io.read_trace(path)
            assert multiprocessing.active_children() == []
            for command in ("pipeline", "segment", "featurize"):
                code = main(["--out", str(tmp_path / "o"), command, "--trace", str(path)])
                assert code == 2
                err = capsys.readouterr().err
                assert err.startswith(f"error: {path}:{line}: {message}")
                assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    @settings(max_examples=15)
    @given(body=dirty_bodies(), data=st.data(),
           range_bytes=st.sampled_from([1, 5, 120, 4096]))
    def test_bad_line_anywhere_named(self, workers, body, data, range_bytes):
        trace, extra, trailing_newline = body
        n_cols = 1 + 2 * trace.subcarriers
        with tempfile.TemporaryDirectory() as d:
            write_dirty_trace(Path(d) / "dirty.csv", trace, extra, trailing_newline)
            lines = (Path(d) / "dirty.csv").read_text().splitlines()
            at = data.draw(st.integers(1, len(lines)), label="index of the bad line")
            lines.insert(at, data.draw(st.sampled_from([
                "0,x" + ",1" * (n_cols - 2),   # a bad cell
                "0,nan" + ",1" * (n_cols - 2),  # a non-finite sample
                "0,1",                         # a short row
                ",".join(["0"] * (n_cols + 1)),  # a long row
            ])))
            path = Path(d) / "bad.csv"
            path.write_text("\n".join(lines) + ("\n" if trailing_newline else ""))
            with codec_split(workers, range_bytes=range_bytes), \
                    pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{at + 1}: ')}"):
                io.read_trace(path)


# Worker tasks for the tests below.

TEST_PID = os.getpid()


def failing_format(row_fmt, block):
    raise RuntimeError(f"disk full at t={float(block[0, 0])!r}")


def worker_pid():
    """The pid of the worker process running a task; raises in the test's
    own process, which the task would otherwise signal or end."""
    if os.getpid() == TEST_PID:
        raise RuntimeError("task ran in the test process, not on a worker")
    return os.getpid()


def signal_at(i, stop, pid=None):
    """Task i; task stop first sends Ctrl-C's SIGINT to process pid, or to
    the worker running it."""
    if i == stop:
        os.kill(pid or worker_pid(), signal.SIGINT)
    return i


def exit_at(i, stop):
    if i == stop:
        worker_pid()
        os._exit(3)
    return i


WORKER_COUNTS = [1, 2, 3]   # 3 is more workers than a 2-CPU host has CPUs


class TestWorkerProcesses:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @settings(max_examples=10)
    @given(trace=traces(), task_values=st.sampled_from([1, 4, 30]),
           range_bytes=st.sampled_from([1, 5, 120]))
    def test_same_bytes_and_bits_at_any_worker_count(self, workers, trace, task_values,
                                                     range_bytes):
        series = AmplitudeSeries(fs=trace.fs, values=trace.samples[0].imag, source_subcarrier=5)
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            with codec_split(workers, task_values, range_bytes), watch_forks() as threads:
                io.write_trace(d / "trace.csv", trace)
                io.write_series(d / "series.csv", series)
                got = io.read_trace(d / "trace.csv")
            oracle_write_trace(d / "trace_old.csv", trace)
            oracle_write_series(d / "series_old.csv", series)
            assert (d / "trace.csv").read_bytes() == (d / "trace_old.csv").read_bytes()
            assert (d / "series.csv").read_bytes() == (d / "series_old.csv").read_bytes()
            fs, want = oracle_read_trace(d / "trace_old.csv")
        assert got.fs == fs
        assert got.samples.shape == want.shape
        np.testing.assert_array_equal(got.samples.view(np.uint64), want.view(np.uint64))
        # no fork while another thread of the process is alive
        assert threads == [1] * len(threads)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @settings(max_examples=10)
    @given(body=dirty_bodies(), range_bytes=st.sampled_from([1, 5, 120]))
    def test_dirty_bodies_same_bits_at_any_worker_count(self, workers, body, range_bytes):
        trace, extra, trailing_newline = body
        with tempfile.TemporaryDirectory() as d:
            dirty = Path(d) / "dirty.csv"
            clean = write_dirty_trace(dirty, trace, extra, trailing_newline)
            fs, want = oracle_read_trace(dirty if trace.n_samples else clean)
            with codec_split(workers, range_bytes=range_bytes), watch_forks() as threads:
                got = io.read_trace(dirty)
        assert got.fs == fs
        assert got.samples.shape == want.shape
        assert got.samples.flags.c_contiguous
        np.testing.assert_array_equal(got.samples.view(np.uint64), want.view(np.uint64))
        assert threads == [1] * len(threads)

    def test_pool_only_for_tables_of_several_tasks(self, tmp_path):
        path = tmp_path / "trace.csv"
        least = io._MIN_TASKS_PER_WORKER
        for workers, tasks, forked in [(2, 1, 0), (2, 5, 0), (2, 2 * least - 1, 0),
                                       (2, 2 * least, 2), (3, 3 * least - 1, 2),
                                       (3, 3 * least, 3)]:
            # one-row writer tasks and one-line byte ranges: n rows, n tasks
            trace = random_trace(n=tasks)
            with codec_split(workers, task_values=9, range_bytes=1), \
                    watch_forks() as threads:
                io.write_trace(path, trace)
                got = io.read_trace(path)
            # the workers of the write, then those of the read, each forked
            # while this thread was the only one
            assert threads == [1] * 2 * forked, (workers, tasks)
            np.testing.assert_array_equal(got.samples, trace.samples)

    def test_small_tables_in_process_trace_files_forked(self, tmp_path):
        # the sizes of a 36 s, 30-subcarrier trace and of its filtered series
        # and nor table: 134 writer tasks and 300 or more byte ranges for the
        # trace, 5 tasks for the series and 7 for nor.csv
        n = 36_000
        values = np.random.default_rng(0).normal(size=n)
        series = AmplitudeSeries(fs=1000.0, values=values, source_subcarrier=3)
        with codec_split(workers=2), watch_forks() as threads:
            io.write_series(tmp_path / "filtered.csv", series)
            io.write_nor(tmp_path / "nor.csv", values, values)
        assert threads == []
        trace = random_trace(n_sub=30, n=n)
        with codec_split(workers=2), watch_forks() as threads:
            io.write_trace(tmp_path / "trace.csv", trace)
            got = io.read_trace(tmp_path / "trace.csv")
        assert threads == [1] * 4
        np.testing.assert_array_equal(got.samples, trace.samples)

    def test_tasks_reach_the_workers_unpickled(self):
        lock = threading.Lock()   # a lock cannot be pickled
        with codec_split(workers=2), watch_forks() as threads:
            got = list(io._in_workers(lambda i, held: (i, held.locked(), worker_pid()),
                                      [(i, lock) for i in range(40)]))
        assert threads == [1, 1]
        assert [(i, locked) for i, locked, _ in got] == [(i, False) for i in range(40)]
        assert len({pid for *_, pid in got}) == 2

    @pytest.mark.parametrize("case", ["one-cpu", "no-fork", "another-thread"])
    def test_in_process_without_a_pool(self, tmp_path, case):
        trace = random_trace(n=50)
        release = threading.Event()
        with contextlib.ExitStack() as stack:
            stack.enter_context(codec_split(workers=1 if case == "one-cpu" else 2,
                                            task_values=9, range_bytes=1))
            if case == "no-fork":
                stack.enter_context(mock.patch.object(io, "_FORK", False))
            if case == "another-thread":
                other = threading.Thread(target=release.wait, args=(10,))
                other.start()
                stack.callback(other.join, 10)
                stack.callback(release.set)
            threads = stack.enter_context(watch_forks())
            io.write_trace(tmp_path / "trace.csv", trace)
            got = io.read_trace(tmp_path / "trace.csv")
        assert threads == []
        if case == "another-thread":
            assert not other.is_alive()
        oracle_write_trace(tmp_path / "old.csv", trace)
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        np.testing.assert_array_equal(got.samples, trace.samples)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_worker_error_reaches_the_caller(self, tmp_path, workers):
        path = tmp_path / "trace.csv"
        path.write_text("old\n")
        with codec_split(workers, task_values=90), \
                mock.patch.object(io, "_format_rows", failing_format):
            with pytest.raises(RuntimeError, match=re.escape("disk full at t=0.0")) as raised:
                io.write_trace(path, random_trace(n=500))
        if workers > 1:   # the worker's traceback comes along
            assert "in failing_format" in str(raised.value.__cause__)
        assert multiprocessing.active_children() == []
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_interrupt_stops_the_workers(self, workers):
        seen = []
        tasks = [(i, 5, os.getpid()) for i in range(1000)]
        with codec_split(workers), pytest.raises(KeyboardInterrupt):
            for i in io._in_workers(signal_at, tasks):
                seen.append(i)
        assert seen == list(range(len(seen)))
        assert len(seen) < len(tasks)
        if workers == 1:
            assert len(seen) == 5
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_ignore_ctrl_c(self, workers):
        # Ctrl-C reaches every process of the terminal's group; the calling
        # process alone handles it
        with codec_split(workers):
            got = list(io._in_workers(signal_at, [(i, i, None) for i in range(40)]))
        assert got == list(range(40))

    def test_dead_worker_named(self):
        with codec_split(workers=2), pytest.raises(
                ChildProcessError, match=r"worker process \d+ exited with code 3"):
            list(io._in_workers(exit_at, [(i, 3) for i in range(40)]))
        assert multiprocessing.active_children() == []

    def test_caller_leaving_early_stops_the_workers(self):
        with codec_split(workers=2):
            results = io._in_workers(exit_at, [(i, -1) for i in range(1000)])
            with contextlib.closing(results):
                assert next(results) == 0
        assert multiprocessing.active_children() == []

    def test_writer_peak_memory_independent_of_length(self, tmp_path):
        rng = np.random.default_rng(0)

        def write_peak(n):
            trace = CsiTrace(fs=1000.0, samples=complex_from_parts(rng.normal(size=(4, n)),
                                                                   rng.normal(size=(4, n))))
            tracemalloc.start()
            try:
                io.write_trace(tmp_path / "trace.csv", trace)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        write_peak(30_000)   # first-use allocations are not the writer's
        assert write_peak(120_000) <= 1.1 * write_peak(30_000)


class TestConfig:
    def test_defaults_validate(self):
        PipelineConfig().validate()

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config section"):
            config_from_dict({"nope": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key geometry.frequency"):
            config_from_dict({"geometry": {"frequency": 2.4e9}})

    def test_out_of_range_values_named(self):
        with pytest.raises(ValueError, match="rest_depth"):
            config_from_dict({"geometry": {"rest_depth": 0.2}})
        with pytest.raises(ValueError, match="filter"):
            config_from_dict({"filter": {"order": 3}})
        with pytest.raises(ValueError, match="noise_std"):
            config_from_dict({"simulation": {"noise_std": -1.0}})
        with pytest.raises(ValueError, match="cutoff"):
            config_from_dict({"simulation": {"fs": 10.0}})

    def test_load_round_trip(self, tmp_path):
        cfg = PipelineConfig()
        path = tmp_path / "config.json"
        path.write_text(cfg.to_json())
        again = load_config(path)
        assert again == cfg

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_config(path)

    @pytest.mark.parametrize("text, message", [
        ('{"hmm": {"max_iter": 2.5}}', "hmm.max_iter: must be an integer, got 2.5"),
        ('{"hmm": {"max_iter": true}}', "hmm.max_iter: must be an integer, got True"),
        ('{"seeds": {"simulation": 1.0}}', "seeds.simulation: must be an integer, got 1.0"),
        ('{"filter": {"cutoff_hz": "7.5"}}', "filter.cutoff_hz: must be a finite number"),
        ('{"filter": {"cutoff_hz": 1e400}}',
         "filter.cutoff_hz: must be a finite number, got inf"),
        ('{"classifier": {"kind": 3}}', "classifier.kind: must be a string, got 3"),
        ('{"hmm": []}', "config section 'hmm' must be an object"),
        ('{"filter": {"cutoff_hz": NaN}}', "not valid JSON (NaN is not a JSON number)"),
        ('{"geometry": {"wavelength": Infinity}}',
         "not valid JSON (Infinity is not a JSON number)"),
        ('{"geometry": {"wavelength": -Infinity}}',
         "not valid JSON (-Infinity is not a JSON number)"),
    ])
    def test_field_types_checked(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_config(path)
        confusion = tmp_path / "cv_confusion.csv"
        confusion.write_text("true,predicted_typing,predicted_mouse\ntyping,9,1\nmouse,2,8\n")
        code = main(["--config", str(path), "--out", str(tmp_path / "o"), "train-behavior",
                     "--confusion", str(confusion), "--sequences", "2", "--length", "10"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("segmenter", [
        {"se_step": 0}, {"se_step": -0.1, "se_start": 5, "se_stop": 0.1}, {"se_step": 1e-6},
        {"se_step": 1e-320},
    ], ids=["zero", "negative", "tiny", "subnormal"])
    def test_se_step_checked(self, tmp_path, capsys, segmenter):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"segmenter": segmenter}))
        assert main(["--config", str(path), "--out", str(tmp_path / "o"), "simulate"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: invalid config section 'segmenter': ")

    def test_tiny_se_step_refused_before_the_sweep_is_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="50 candidates"):
                config_from_dict({"segmenter": {"se_step": 1e-6}})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_int_in_float_field_kept_as_given(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"filter": {"cutoff_hz": 7}, "simulation": {"fs": 1000}}')
        config = load_config(path)
        assert type(config.filter.cutoff_hz) is int and config.filter.cutoff_hz == 7
        assert config.to_dict()["simulation"]["fs"] == 1000
        assert '"cutoff_hz": 7,' in config.to_json()


class TestScriptParsing:
    def test_valid_script(self, tmp_path, config):
        path = tmp_path / "script.txt"
        path.write_text(
            "# start_s,kind,travel_m,duration_s[,x,y,z]\n"
            "1.0,keystroke,0.02,0.7\n"
            "3.0,mouse_move,0.03,0.5,0.35,0.0,-0.62\n"
        )
        script = parse_script(path, config)
        assert len(script) == 2
        assert script[1][1].kind.value == "mouse_move"

    def test_malformed_field_named(self, tmp_path, config):
        path = tmp_path / "script.txt"
        path.write_text("1.0,keystroke,abc,0.7\n")
        with pytest.raises(ValueError, match=r"script.txt:1: field 'travel_m'"):
            parse_script(path, config)

    def test_bad_kind_named(self, tmp_path, config):
        path = tmp_path / "script.txt"
        path.write_text("1.0,wave,0.02,0.7\n")
        with pytest.raises(ValueError, match=r"script.txt:1: field 'kind'"):
            parse_script(path, config)

    def test_wrong_arity(self, tmp_path, config):
        path = tmp_path / "script.txt"
        path.write_text("1.0,keystroke,0.02\n")
        with pytest.raises(ValueError, match="expected 4 or 7 fields"):
            parse_script(path, config)


class TestTraceHeader:
    ROW = "0,1,0\n"

    def write(self, tmp_path, header):
        path = tmp_path / "trace.csv"
        path.write_text(header + "\n" + self.ROW)
        return path

    @pytest.mark.parametrize("header, message", [
        ("# subcarriers=1", "lacks fs="),
        ("# fs=1000", "lacks subcarriers="),
        ("# fs=1000 subcarriers", "'subcarriers' is not key=value"),
        ("# fs=fast subcarriers=1", "fs='fast' is not a valid float"),
        ("# fs=nan subcarriers=1", "fs must be positive and finite, got nan"),
        ("# fs=inf subcarriers=1", "fs must be positive and finite, got inf"),
        ("# fs=1e400 subcarriers=1", "fs must be positive and finite, got inf"),
        ("# fs=0 subcarriers=1", "fs must be positive and finite, got 0.0"),
        ("# fs=-1000 subcarriers=1", "fs must be positive and finite, got -1000.0"),
    ])
    def test_bad_header_names_file_and_line(self, tmp_path, header, message):
        path = self.write(tmp_path, header)
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: ") + ".*" + re.escape(message)):
            io.read_trace(path)

    def test_bad_header_pipeline_exit_code(self, tmp_path, capsys):
        path = self.write(tmp_path, "# subcarriers=1")
        assert main(["--out", str(tmp_path / "o"), "pipeline", "--trace", str(path)]) == 2
        assert f"{path}:1:" in capsys.readouterr().err


# Valid model documents, each with two training points.
KNN = {"kind": "knn", "standardizer": {"mean": [0, 0, 0], "std": [1, 1, 1]}, "k": 1,
       "points": [[0, 0, 0], [1, 1, 1]], "labels": [0, 1]}
NB = {"kind": "gaussian_nb", "standardizer": {"mean": [0, 0, 0], "std": [1, 1, 1]},
      "log_priors": [-0.7, -0.7], "means": [[0, 0, 0], [1, 1, 1]],
      "variances": [[1, 1, 1], [1, 1, 1]]}


class TestModelFiles:
    @pytest.mark.parametrize("doc, message", [
        ({"kind": "knn"}, "missing key 'standardizer'"),
        ({"kind": "knn", "standardizer": {"mean": [0, 0, 0], "std": [1, 1, 1]}},
         "missing key 'k'"),
        ([], "list indices"),
        ("{not json", "Expecting property name"),
        (dict(KNN, k=0), "k must be an integer >= 1, got 0"),
        (dict(KNN, k=-1), "k must be an integer >= 1, got -1"),
        (dict(KNN, k=2.5), "k must be an integer >= 1, got 2.5"),
        (dict(KNN, labels=[0, 5]), "labels must be 2 integers, each 0 or 1"),
        (dict(KNN, labels=[0]), "labels must be 2 integers, each 0 or 1"),
        (dict(KNN, points=[[0, 0], [1, 1]]), "points must have shape (n, 3), got (2, 2)"),
        (dict(KNN, points=[], labels=[]), "points must have shape (n, 3), got (0,)"),
        (dict(KNN, points=[[0, 0, None], [1, 1, 1]]), "points must be finite numbers"),
        (dict(KNN, standardizer={"mean": [0, 0, 0], "std": [1, 0, 1]}),
         "standardizer std must be > 0"),
        (dict(KNN, standardizer={"mean": [0, 0], "std": [1, 1, 1]}),
         "standardizer mean must have shape (3,), got (2,)"),
        (dict(NB, variances=[[1, 1, 1], [1, -1, 1]]), "variances must be > 0"),
        (dict(NB, means=[[0, 0, 0]]), "means must have shape (2, 3), got (1, 3)"),
        (dict(NB, log_priors=[-0.7, "x"]), "log_priors must be finite numbers"),
    ])
    def test_bad_gesture_model_exit_code(self, tmp_path, capsys, doc, message):
        trace = tmp_path / "trace.csv"
        io.write_trace(trace, random_trace())
        model = tmp_path / "model.json"
        model.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code = main(["--out", str(tmp_path / "o"), "pipeline", "--trace", str(trace),
                     "--gesture-model", str(model)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {model}: " in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc, message", [
        ({"surfing": {"pi": [0.5, 0.5], "B": [[0.9, 0.1], [0.2, 0.8]]}}, "missing key 'A'"),
        ({"sleeping": {"pi": [0.5, 0.5], "A": [[0.5, 0.5], [0.5, 0.5]],
                       "B": [[0.9, 0.1], [0.2, 0.8]]}}, "'sleeping'"),
        ({"surfing": [1, 2]}, "list indices"),
    ])
    def test_bad_behavior_models_exit_code(self, tmp_path, capsys, doc, message):
        trace = tmp_path / "trace.csv"
        io.write_trace(trace, random_trace())
        models = tmp_path / "models.json"
        models.write_text(json.dumps(doc))
        gesture_model = tmp_path / "gesture_model.json"
        io.write_classifier(gesture_model, fit("knn", EXAMPLES))
        code = main(["--out", str(tmp_path / "o"), "pipeline", "--trace", str(trace),
                     "--gesture-model", str(gesture_model), "--behavior-models", str(models)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {models}: " in err and message in err


class TestDatasetFiles:
    HEADER = "variance,slope_ratio,duration,label\n"
    GOOD = "0.5,1.2,0.7,typing\n"

    @pytest.mark.parametrize("body, location, message", [
        ("x,1.2,0.7,typing\n", 2, "could not convert string to float: 'x'"),
        ("0.5,0.5,0.7,typing\n", 2, "slope_ratio must be >= 1"),
        (GOOD + "0.5,1.2,0,mouse\n", 3, "duration must be positive"),
        (GOOD + "\n-1,1.2,0.7,mouse\n", 4, "variance must be >= 0"),
        (GOOD + "0.5,1.2,0.7,wave\n", 3, "unknown gesture label 'wave'"),
        (GOOD + "0.5,1.2,0.7\n", 3, "expected 4 columns"),
        ("nan,1.2,0.7,typing\n", 2, "variance must be finite"),
        (GOOD + "inf,1.2,0.7,mouse\n", 3, "variance must be finite"),
        (GOOD + "0.5,nan,0.7,mouse\n", 3, "slope_ratio must not be NaN"),
        (GOOD + "0.5,1.2,nan,mouse\n", 3, "duration must be finite"),
        (GOOD + "0.5,1.2,inf,mouse\n", 3, "duration must be finite"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, capsys, body, location, message):
        path = tmp_path / "dataset.csv"
        path.write_text(self.HEADER + body)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{location}: {message}')}$"):
            io.read_dataset(path)
        code = main(["--out", str(tmp_path / "o"), "train-gesture", "--dataset", str(path)])
        assert code == 2
        assert f"error: {path}:{location}: {message}" in capsys.readouterr().err

    def test_infinite_slope_ratio_kept(self, tmp_path):
        # extract_features gives +inf when exactly one half-slope is 0
        example = LabeledExample(FeatureVector(0.5, math.inf, 0.7), GestureLabel.TYPING)
        io.write_dataset(tmp_path / "dataset.csv", [example])
        assert io.read_dataset(tmp_path / "dataset.csv") == [example]

    def test_missing_header_names_line_one(self, tmp_path):
        path = tmp_path / "dataset.csv"
        path.write_text(self.GOOD)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: missing dataset header$"):
            io.read_dataset(path)


class TestAnnotationFiles:
    @pytest.mark.parametrize("lines, location, message", [
        (["10,2x0,keystroke"], 1, "invalid literal for int()"),
        (["1,4,keystroke", "10,5,keystroke"], 2, "annotation indices out of order"),
        (["-3,5,keystroke"], 1, "annotation indices out of order"),
        (["1,4,keystroke", "10,20,wave"], 2, "unknown label 'wave'"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, lines, location, message):
        path = tmp_path / "trace.ann"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{location}: {message}")):
            io.read_annotations(path)

    @pytest.mark.parametrize("spans, message", [
        ([(10, 20), (15, 30)], "annotations must be disjoint and sorted"),
        ([(10, 20), (40, 60)], "annotation exceeds trace length"),
    ])
    @pytest.mark.parametrize("use_annotations", [True, False])
    def test_featurize_rejects_bad_spans(self, tmp_path, capsys, spans, message,
                                         use_annotations):
        trace = tmp_path / "trace.csv"
        io.write_trace(trace, random_trace(n=50))
        ann = tmp_path / "trace.ann"
        ann.write_text("".join(f"{a},{b},keystroke\n" for a, b in spans))
        argv = ["--out", str(tmp_path / "o"), "featurize", "--trace", str(trace),
                "--annotations", str(ann)]
        code = main(argv + (["--use-annotations"] if use_annotations else []))
        assert code == 2
        assert f"error: {ann}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o" / "dataset.csv").exists()

    @pytest.mark.parametrize("command", [
        ["featurize", "--use-annotations"], ["featurize"], ["pipeline"],
    ])
    def test_unknown_label_exit_code(self, tmp_path, capsys, command):
        trace = tmp_path / "trace.csv"
        io.write_trace(trace, random_trace(n=50))
        ann = tmp_path / "trace.ann"
        ann.write_text("10,20,wave\n")
        argv = ["--out", str(tmp_path / "o"), command[0], "--trace", str(trace),
                "--annotations", str(ann)] + command[1:]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {ann}:1: unknown label 'wave'" in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def keystroke_trace(tmp_path_factory):
    """trace.csv of `simulate --keystrokes 17` at the default seed."""
    out = tmp_path_factory.mktemp("keystrokes")
    assert main(["--out", str(out), "simulate", "--keystrokes", "17"]) == 0
    return str(out / "trace.csv")


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_simulate_segment_featurize_train(self, tmp_path):
        out = tmp_path / "run"
        assert self.run("--out", str(out), "simulate", "--keystrokes", "6") == 0
        trace_path = out / "trace.csv"
        assert trace_path.exists()

        assert self.run("--out", str(out), "segment", "--trace", str(trace_path)) == 0
        seg_lines = (out / "segments.csv").read_text().strip().splitlines()
        assert len(seg_lines) - 1 == 6

        assert self.run(
            "--out", str(out), "featurize", "--trace", str(trace_path),
            "--annotations", str(out / "trace.ann"), "--use-annotations",
        ) == 0
        dataset = io.read_dataset(out / "dataset.csv")
        assert len(dataset) == 6

    def test_simulate_deterministic(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert self.run("--out", str(out_a), "--seed", "9", "simulate", "--keystrokes", "2") == 0
        assert self.run("--out", str(out_b), "--seed", "9", "simulate", "--keystrokes", "2") == 0
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
        assert (out_a / "trace.ann").read_bytes() == (out_b / "trace.ann").read_bytes()

    def test_malformed_script_exit_code(self, tmp_path, capsys):
        script = tmp_path / "script.txt"
        script.write_text("1.0,keystroke,oops,0.7\n")
        code = self.run("--out", str(tmp_path / "o"), "simulate", "--script", str(script))
        assert code == 2
        assert "travel_m" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--keystrokes", "-1"], "--keystrokes must be >= 0, got -1"),
        (["--duration", "5"], "--duration needs --script"),
        (["--duration", "-5"], "--duration needs --script"),
        (["--script", "{script}", "--duration", "0"], "--duration must be > 0 and finite, got 0.0"),
        (["--script", "{script}", "--duration", "-5"], "--duration must be > 0 and finite, got -5.0"),
        (["--script", "{script}", "--duration", "nan"], "--duration must be > 0 and finite, got nan"),
        (["--script", "{script}", "--duration", "inf"], "--duration must be > 0 and finite, got inf"),
    ])
    def test_simulate_bad_arguments_exit_code(self, tmp_path, capsys, argv, message):
        script = tmp_path / "script.txt"
        script.write_text("1.0,keystroke,0.02,0.7\n")
        out = tmp_path / "o"
        argv = [arg.format(script=script) for arg in argv]
        assert self.run("--out", str(out), "simulate", *argv) == 2
        assert capsys.readouterr().err == f"simulate: {message}\n"
        assert not out.exists()

    def test_simulate_duration_and_zero_keystrokes(self, tmp_path):
        script = tmp_path / "script.txt"
        script.write_text("1.0,keystroke,0.02,0.7\n")
        out = tmp_path / "d"
        assert self.run("--out", str(out), "simulate", "--script", str(script),
                        "--duration", "2.5") == 0
        assert io.read_trace(out / "trace.csv").n_samples == 2500
        out = tmp_path / "k"
        assert self.run("--out", str(out), "simulate", "--keystrokes", "0") == 0
        assert io.read_annotations(out / "trace.ann") == []

    def test_simulate_oversized_trace_exit_code(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"simulation": {"fs": 1e12}}')
        code = self.run("--config", str(config), "--out", str(tmp_path / "o"), "simulate")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: trace of 36000000000000 samples x 30 subcarriers exceeds "
            "the limit of 1073741824 samples\n"
        )

    def test_sweep_plate_table(self, tmp_path):
        out = tmp_path / "sweep"
        code = self.run(
            "--out", str(out), "sweep-plate", "--min-cm", "2", "--max-cm", "5",
            "--repeats", "1",
        )
        assert code == 0
        lines = (out / "plate_sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "side_m,peak_to_peak"
        assert len(lines) == 5

    def test_sweep_repeats_average_noiseless_identical(self, tmp_path):
        out1 = tmp_path / "r1"
        out20 = tmp_path / "r20"
        for out, reps in ((out1, "1"), (out20, "20")):
            assert self.run(
                "--out", str(out), "sweep-plate", "--min-cm", "2", "--max-cm", "4",
                "--repeats", reps,
            ) == 0
        assert (out1 / "plate_sweep.csv").read_text() == (out20 / "plate_sweep.csv").read_text()

    @pytest.mark.parametrize("argv, message", [
        (["--min-cm", "6", "--max-cm", "5"], "--min-cm must be <= --max-cm, got 6 > 5"),
        (["--repeats", "0"], "--repeats must be >= 1, got 0"),
        (["--repeats", "-2"], "--repeats must be >= 1, got -2"),
        (["--noise-std", "-1"], "--noise-std must be >= 0 and finite, got -1.0"),
        (["--noise-std", "nan"], "--noise-std must be >= 0 and finite, got nan"),
        (["--noise-std", "inf"], "--noise-std must be >= 0 and finite, got inf"),
    ])
    def test_sweep_plate_bad_arguments_exit_code(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        assert self.run("--out", str(out), "sweep-plate", *argv) == 2
        assert capsys.readouterr().err == f"sweep-plate: {message}\n"
        assert not out.exists()

    def test_plotdata_filter_response(self, tmp_path):
        out = tmp_path / "plot"
        assert self.run("--out", str(out), "plotdata", "--kind", "filter-response") == 0
        rows = (out / "filter_response.csv").read_text().strip().splitlines()
        assert rows[0] == "freq_hz,gain_measured,gain_analytic"
        assert len(rows) - 1 == 200
        for line in rows[1:]:
            f, measured, analytic = map(float, line.split(","))
            assert abs(measured - analytic) < 0.01

    def test_plotdata_subcarrier_variance(self, tmp_path):
        out = tmp_path / "pv"
        assert self.run("--out", str(out), "simulate", "--keystrokes", "2") == 0
        assert self.run(
            "--out", str(out), "plotdata", "--kind", "subcarrier-variance",
            "--artifact", str(out / "trace.csv"),
        ) == 0
        rows = (out / "subcarrier_variance.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == 30

    @pytest.mark.parametrize("kind", ["subcarrier-variance", "segments"])
    def test_plotdata_without_artifact_exit_code(self, tmp_path, capsys, kind):
        out = tmp_path / "o"
        assert self.run("--out", str(out), "plotdata", "--kind", kind) == 2
        assert capsys.readouterr().err == f"plotdata: --kind {kind} needs --artifact\n"
        assert not out.exists()

    def test_flat_trace_pipeline_zero_segments(self, tmp_path):
        # a script with no gestures produces a quiet trace: pipeline reports
        # zero segments and never reaches the classification stage
        out = tmp_path / "flat"
        script = tmp_path / "empty.txt"
        script.write_text("# no gestures\n")
        assert self.run(
            "--out", str(out), "simulate", "--script", str(script), "--duration", "6",
        ) == 0
        rdir = tmp_path / "flatrun"
        assert self.run("--out", str(rdir), "pipeline", "--trace", str(out / "trace.csv")) == 0
        doc = json.loads((rdir / "report.json").read_text())
        assert doc["metrics"]["segments_found"] == 0
        assert "gesture_counts" not in doc["metrics"]

    def test_trace_shorter_than_the_nor_cascade_zero_segments(self, tmp_path):
        # 120 samples: fewer than the 148 one nor2 value needs at the defaults
        path = tmp_path / "short.csv"
        io.write_trace(path, random_trace(n=120))
        sdir, rdir = tmp_path / "seg", tmp_path / "run"
        assert self.run("--out", str(sdir), "segment", "--trace", str(path)) == 0
        assert (sdir / "nor.csv").read_text() == "index,nor1,nor2\n"
        assert (sdir / "segments.csv").read_text() == "start_idx,end_idx,truncated\n"
        assert self.run("--out", str(rdir), "pipeline", "--trace", str(path)) == 0
        doc = json.loads((rdir / "report.json").read_text())
        assert doc["metrics"]["segments_found"] == 0
        assert "failed_stage" not in doc["metrics"]

    def test_segment_runs_the_nor_cascade_once(self, keystroke_trace, tmp_path, capsys):
        with mock.patch.object(segmentation, "smooth_variance",
                               wraps=segmentation.smooth_variance) as nor2:
            assert self.run("--out", str(tmp_path), "segment", "--trace", keystroke_trace) == 0
        assert nor2.call_count == 1
        assert capsys.readouterr().out.startswith("found 17 segments (0 below the span floor); ")

    def test_segment_counts_the_dropped(self, keystroke_trace, tmp_path, capsys):
        cfg = tmp_path / "floor.json"
        cfg.write_text('{"segmenter": {"min_amplitude_span": 1e9}}')
        assert self.run("--config", str(cfg), "--out", str(tmp_path), "segment",
                        "--trace", keystroke_trace) == 0
        assert capsys.readouterr().out.startswith("found 0 segments (17 below the span floor); ")
        assert (tmp_path / "segments.csv").read_text() == "start_idx,end_idx,truncated\n"

    def test_pipeline_segmenter_step_rejected(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        io.write_trace(path, random_trace(n=200))
        cfg = tmp_path / "step.json"
        cfg.write_text('{"segmenter": {"step": 2}}')
        code = self.run("--config", str(cfg), "--out", str(tmp_path / "o"),
                        "pipeline", "--trace", str(path))
        assert code == 2
        assert capsys.readouterr().err == f"error: {cfg}: unknown config key segmenter.step\n"

    def test_featurize_from_detections(self, tmp_path):
        out = tmp_path / "det"
        assert self.run("--out", str(out), "simulate", "--keystrokes", "4") == 0
        assert self.run(
            "--out", str(out), "featurize", "--trace", str(out / "trace.csv"),
            "--annotations", str(out / "trace.ann"),
        ) == 0
        dataset = io.read_dataset(out / "dataset.csv")
        assert len(dataset) == 4
        assert all(ex.label is GestureLabel.TYPING for ex in dataset)

    def test_full_model_chain(self, tmp_path):
        # dataset -> gesture model + confusion -> behavior models -> pipeline
        out = tmp_path / "chain"
        examples = []
        rng = np.random.default_rng(0)
        for i in range(40):
            if i % 2 == 0:
                examples.append(LabeledExample(
                    FeatureVector(3.0 + rng.normal(0, 0.2), 1.1, 0.7), GestureLabel.TYPING))
            else:
                examples.append(LabeledExample(
                    FeatureVector(0.5 + rng.normal(0, 0.1), 2.0, 0.5), GestureLabel.MOUSE))
        out.mkdir(parents=True)
        io.write_dataset(out / "dataset.csv", examples)
        assert self.run("--out", str(out), "train-gesture", "--dataset",
                        str(out / "dataset.csv")) == 0
        assert (out / "gesture_model.json").exists()
        assert self.run(
            "--out", str(out), "train-behavior", "--confusion", str(out / "cv_confusion.csv"),
            "--sequences", "10", "--length", "60",
        ) == 0
        models = io.read_behavior_models(out / "behavior_models.json")
        assert set(m.value for m in models) == {"surfing", "working", "gaming"}

        assert self.run("--out", str(out), "simulate", "--keystrokes", "5") == 0
        rdir = out / "run"
        assert self.run(
            "--out", str(rdir), "pipeline", "--trace", str(out / "trace.csv"),
            "--gesture-model", str(out / "gesture_model.json"),
            "--behavior-models", str(out / "behavior_models.json"),
        ) == 0
        doc = json.loads((rdir / "report.json").read_text())
        assert doc["metrics"]["segments_found"] == 5
        assert doc["metrics"]["behavior"]["label"] in ("surfing", "working", "gaming")
        assert set(doc["metrics"]["behavior"]["scores"]) == {"surfing", "working", "gaming"}

    def test_evaluate_small(self, tmp_path):
        out = tmp_path / "eval"
        assert self.run(
            "--out", str(out), "evaluate", "--traces", "4", "--segments", "24",
            "--behavior-sequences", "5",
        ) == 0
        doc = json.loads((out / "report.json").read_text())
        assert "segmentation" in doc["metrics"]
        assert "gesture_cv" in doc["metrics"]
        table = doc["metrics"]["behavior"]["table"]
        assert "SURFING" in table and "AVG." in table

    def test_evaluate_nothing_matched_boundary_null(self, tmp_path, capsys):
        cfg = tmp_path / "no_segments.json"
        cfg.write_text('{"segmenter": {"min_amplitude_span": 1e9}}')
        out = tmp_path / "eval"
        assert self.run(
            "--config", str(cfg), "--out", str(out), "evaluate", "--traces", "1",
            "--segments", "40", "--behavior-sequences", "1",
        ) == 0
        assert "recall 0.000 precision n/a boundary n/a\n" in capsys.readouterr().out

        def no_constants(name):
            raise ValueError(f"{name} in report.json")

        doc = json.loads((out / "report.json").read_text(), parse_constant=no_constants)
        seg = doc["metrics"]["segmentation"]
        assert seg["precision"] is seg["mean_boundary_error_s"] is None
        assert seg["matched"] == seg["false_positives"] == 0

    @pytest.mark.parametrize("flag, value", [
        ("--traces", "0"), ("--segments", "0"), ("--behavior-sequences", "0"),
        ("--traces", "-2"),
    ])
    def test_evaluate_sizes_below_one_exit_code(self, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        assert self.run("--out", str(out), "evaluate", flag, value) == 2
        assert capsys.readouterr().err == f"evaluate: {flag} must be >= 1, got {value}\n"
        assert not out.exists()

    def test_evaluate_segments_below_folds_exit_code(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert self.run("--out", str(out), "evaluate", "--traces", "1", "--segments", "5",
                        "--behavior-sequences", "1") == 2
        assert capsys.readouterr().err == (
            "evaluate: --segments must be at least the 10 cross-validation folds, got 5\n")
        assert not out.exists()

    def test_evaluate_stage_failure_reported_with_name(self, tmp_path, capsys):
        out = tmp_path / "o"
        with mock.patch("desksense.pipeline.generate_segmentation_corpus",
                        side_effect=ValueError("no traces today")):
            code = self.run("--out", str(out), "evaluate", "--traces", "1", "--segments", "10",
                            "--behavior-sequences", "1")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "evaluate failed at stage 'segmentation_study': no traces today\n"
        doc = json.loads((out / "report.json").read_text())
        assert doc["metrics"]["failed_stage"] == "segmentation_study"

    def test_pipeline_stage_failure_reported_with_name(self, tmp_path, capsys):
        # an all-zero trace has no informative subcarrier: the failing stage
        # is named and the partial report is still written
        trace = CsiTrace(fs=1000.0, samples=np.zeros((3, 2000), dtype=complex))
        path = tmp_path / "zero.csv"
        io.write_trace(path, trace)
        rdir = tmp_path / "zr"
        code = self.run("--out", str(rdir), "pipeline", "--trace", str(path))
        assert code == 1
        err = capsys.readouterr().err
        assert "select_subcarrier" in err
        doc = json.loads((rdir / "report.json").read_text())
        assert doc["metrics"]["failed_stage"] == "select_subcarrier"

    def test_pipeline_empty_trace_fails_at_select_subcarrier(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        io.write_trace(path, CsiTrace(fs=1000.0, samples=np.zeros((2, 0), dtype=complex)))
        assert path.read_text() == "# fs=1000 subcarriers=2\n"
        rdir = tmp_path / "er"
        assert self.run("--out", str(rdir), "pipeline", "--trace", str(path)) == 1
        assert "select_subcarrier" in capsys.readouterr().err
        doc = json.loads((rdir / "report.json").read_text())
        assert doc["metrics"]["failed_stage"] == "select_subcarrier"

    @pytest.mark.parametrize("rows, message", [
        (["typing,4,x", "mouse,1,5"], "could not convert string 'x'"),
        (["typing,4,1", "mouse,1,5", "other,2,2"], "cannot reshape array of size 6"),
    ])
    def test_train_behavior_bad_confusion_exit_code(self, tmp_path, capsys, rows, message):
        path = tmp_path / "cv_confusion.csv"
        path.write_text("true,predicted_typing,predicted_mouse\n" + "\n".join(rows) + "\n")
        code = self.run("--out", str(tmp_path / "o"), "train-behavior", "--confusion", str(path))
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {path}: " in err and message in err

    @pytest.mark.parametrize("body", ["", "\n", "\n# no rows yet\n  \n"])
    def test_train_behavior_header_only_confusion(self, tmp_path, capsys, body):
        path = tmp_path / "cv_confusion.csv"
        path.write_text("true,predicted_typing,predicted_mouse" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = self.run("--out", str(tmp_path / "o"), "train-behavior",
                            "--confusion", str(path))
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: no confusion rows\n"

    def test_train_behavior_matches_behavior_study(self, tmp_path):
        # the CLI and the evaluation study train through one function
        confusion = [[18, 2], [3, 17]]
        path = tmp_path / "cv_confusion.csv"
        io.write_table(path, ["true", "predicted_typing", "predicted_mouse"],
                       [("typing", *confusion[0]), ("mouse", *confusion[1])])
        assert self.run("--out", str(tmp_path), "train-behavior", "--confusion", str(path),
                        "--sequences", "4", "--length", "30") == 0
        got = io.read_behavior_models(tmp_path / "behavior_models.json")
        _macro, _confusion, want = behavior_study(
            PipelineConfig(), np.array(confusion), n_train=4, train_length=30, n_test=1
        )
        assert list(got) == list(want)
        for b in want:
            for name in ("pi", "A", "B"):
                assert getattr(got[b], name).tobytes() == getattr(want[b], name).tobytes()

    def test_pipeline_annotation_past_trace_end(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        io.write_trace(path, random_trace(n=50))
        ann = tmp_path / "trace.ann"
        io.write_annotations(ann, [Annotation(10, 20, "keystroke"), Annotation(40, 60, "keystroke")])
        code = self.run("--out", str(tmp_path / "o"), "pipeline", "--trace", str(path),
                        "--annotations", str(ann))
        assert code == 2
        assert f"{ann}: annotation exceeds trace length" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_pipeline_behavior_models_need_gesture_model(self, tmp_path, capsys):
        # without gesture labels there is no sequence to classify, and the
        # report would silently lack its behavior metric
        trace = tmp_path / "trace.csv"
        io.write_trace(trace, random_trace())
        models = tmp_path / "models.json"
        io.write_behavior_models(models, BEHAVIOR_MODELS)
        out = tmp_path / "o"
        assert self.run("--out", str(out), "pipeline", "--trace", str(trace),
                        "--behavior-models", str(models)) == 2
        assert capsys.readouterr().err == "pipeline: --behavior-models needs --gesture-model\n"
        assert not out.exists()

    def test_pipeline_report_deterministic(self, tmp_path):
        out = tmp_path / "p"
        assert self.run("--out", str(out), "simulate", "--keystrokes", "3") == 0
        r1 = tmp_path / "r1"
        r2 = tmp_path / "r2"
        for rdir in (r1, r2):
            assert self.run(
                "--out", str(rdir), "pipeline", "--trace", str(out / "trace.csv"),
                "--annotations", str(out / "trace.ann"),
            ) == 0
        a = json.loads((r1 / "report.json").read_text())
        b = json.loads((r2 / "report.json").read_text())
        a.pop("timings_s")
        b.pop("timings_s")
        assert a == b
        assert a["metrics"]["segments_found"] == 3


# Reader fuzz: a valid file of each kind, written by its writer, then mutated.

def write_script(path):
    path.write_text("# start_s,kind,travel_m,duration_s[,x,y,z]\n1.0,keystroke,0.02,0.7\n"
                    "3.0,mouse_move,0.03,0.5,0.35,0.0,-0.62\n")


READERS = {   # kind: (write a valid file, read a file)
    "trace": (lambda p: io.write_trace(p, random_trace(n=12, n_sub=2)), io.read_trace),
    "annotations": (lambda p: io.write_annotations(
        p, [Annotation(1, 4, "keystroke"), Annotation(6, 9, "mouse_move")]), io.read_annotations),
    "dataset": (lambda p: io.write_dataset(p, EXAMPLES[:4]), io.read_dataset),
    "script": (write_script, lambda p: parse_script(p, PipelineConfig())),
    "config": (lambda p: p.write_text(PipelineConfig().to_json()), load_config),
    "knn-classifier": (lambda p: io.write_classifier(p, fit("knn", EXAMPLES[:4])),
                       io.read_classifier),
    "nb-classifier": (lambda p: io.write_classifier(p, fit("gaussian_nb", EXAMPLES)),
                      io.read_classifier),
    "behavior-models": (lambda p: io.write_behavior_models(p, BEHAVIOR_MODELS),
                        io.read_behavior_models),
    "confusion": (lambda p: io.write_table(p, ["true", "predicted_typing", "predicted_mouse"],
                                           [("typing", 9, 1), ("mouse", 2, 8)]),
                  cli._read_emission),
}

JUNK = st.one_of(
    st.binary(min_size=1, max_size=3),
    st.sampled_from([b"\xff", b"\x00", b"\n", b",", b"#", b"=", b"-", b".", b"0", b"e",
                     b"nan", b"inf", b"1e400", b'"', b"[", b"]", b"{", b"}", b"null"]),
)


@st.composite
def mutants(draw, data: bytes) -> bytes:
    """data with 1-3 spans replaced, inserted, deleted or cut off."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["replace", "insert", "delete", "truncate"]))
        if op == "truncate":
            del data[at:]
        elif op == "delete":
            del data[at:at + draw(st.integers(1, 8))]
        else:
            junk = draw(JUNK)
            data[at:at + (len(junk) if op == "replace" else 0)] = junk
    return bytes(data)


@functools.cache
def valid_file(kind) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / kind
        READERS[kind][0](path)
        return path.read_bytes()


class TestReaderFuzz:
    @pytest.mark.parametrize("kind", list(READERS))
    @settings(max_examples=200)
    @given(data=st.data())
    def test_mutant_parses_or_names_the_file(self, kind, data):
        with tempfile.TemporaryDirectory() as d:
            # the valid file is cached and each mutant is a new file: on ext4,
            # replacing a file's contents costs a flush of the old ones
            path = Path(d) / "file"
            path.write_bytes(data.draw(mutants(valid_file(kind)), label="mutant"))
            try:
                READERS[kind][1](path)
            except (ValueError, OSError) as exc:
                assert str(path) in str(exc)
