import argparse
import contextlib
import functools
import json
import logging
import math
import mmap
import os
import re
import shlex
import struct
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
import zipfile
from io import BytesIO
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from desksense import _workers, channel, io, segmentation
from desksense.behavior import Behavior, BehaviorHmm
from desksense.channel import (
    DEFAULT_GESTURE_JITTER_STD,
    Annotation,
    ChannelModel,
    CsiTrace,
    FresnelGeometry,
    GestureKind,
    GestureModel,
    simulate_plate_sweep,
    simulate_trace,
)
from desksense.classify import (
    FeatureVector,
    GaussianNbClassifier,
    GestureLabel,
    KnnClassifier,
    LabeledExample,
    Standardizer,
    fit,
)
from desksense.cli import _in_range, build_parser, main, parse_script
from desksense.config import PipelineConfig, config_from_dict, load_config
from desksense.pipeline import behavior_study, run_pipeline
from desksense.preprocess import (
    AmplitudeSeries,
    select_subcarrier,
    subcarrier_variances,
)
from desksense.segmentation import GestureSegment


def random_trace(seed=0, n_sub=4, n=50):
    rng = np.random.default_rng(seed)
    samples = rng.normal(0, 1, (n_sub, n)) + 1j * rng.normal(0, 1, (n_sub, n))
    return CsiTrace(fs=1000.0, samples=samples.astype(np.complex64))


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
    ),
    Behavior.GAMING: BehaviorHmm(
        pi=[0.5, 0.5],
        A=[[0.5, 0.5], [0.5, 0.5]],
        B=[[0.9, 0.1], [0.2, 0.8]],
    ),
}


def subcommand_parsers() -> dict:
    """build_parser()'s subcommand parsers by name."""
    actions = build_parser()._actions
    return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices


def refused_by_parser(capsys, argv, command, message):
    """main refuses argv in the parser of command (None: the top-level one):
    SystemExit(2), and stderr is that parser's usage and error line."""
    with pytest.raises(SystemExit) as refused:
        main(argv)
    assert refused.value.code == 2
    parser = build_parser() if command is None else subcommand_parsers()[command]
    assert capsys.readouterr().err == f"{parser.format_usage()}{parser.prog}: error: {message}\n"


def codec_split(task_values):
    """io's text-table task size patched to task_values."""
    return mock.patch.object(io, "_TASK_VALUES", task_values)


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
        io.write_trace(tmp_path / "trace.csv", random_trace())
        assert io.read_trace(tmp_path / "trace.csv").fs == 1000.0
        series = AmplitudeSeries(fs=1000.0, values=np.arange(3.0), source_subcarrier=4)
        io.write_series(tmp_path / "series.csv", series)
        assert (tmp_path / "series.csv").read_text().splitlines()[0] == "# fs=1000 subcarrier=4"

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


# Reference writers.  A trace archive is written whole, each member by
# numpy's own write_array and stamped as write_trace stamps it; a text table
# is one `%` per value, joined into one string.  The streamed writers must
# produce exactly these bytes.

def write_archive(path, members, compression=zipfile.ZIP_STORED):
    """An archive of members {name: an array, or the bytes of a member}."""
    with zipfile.ZipFile(path, "w") as archive:
        for name, value in members.items():
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = compression
            with archive.open(info, "w", force_zip64=True) as member:
                if isinstance(value, bytes):
                    member.write(value)
                else:
                    np.lib.format.write_array(member, np.asarray(value), allow_pickle=True)


def oracle_write_trace(path, trace):
    write_archive(path, {"fs.npy": np.float64(trace.fs), "samples.npy": trace.samples})


def oracle_write_series(path, series):
    fmt = io.FLOAT_FMT
    lines = [f"# fs={fmt % series.fs} subcarrier={series.source_subcarrier}"]
    lines += [f"{i},{fmt % v}" for i, v in enumerate(series.values)]
    Path(path).write_text("\n".join(lines) + "\n")


def oracle_write_table(path, first_line, rows):
    """first_line unless None, then each row's floats in FLOAT_FMT and its
    other values as str(), comma-joined."""
    lines = [] if first_line is None else [first_line]
    lines += [",".join(io.FLOAT_FMT % v if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    Path(path).write_text("".join(line + "\n" for line in lines))


# ±0, the smallest subnormal, a subnormal, the smallest normal, the largest
# finite value and other extremes, scattered into ordinary values.
SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308, 1e300, -1e-300,
                  0.1, 1 / 3, 1.0, -2.5]
# The same for float32, the parts of a trace's complex64 samples.
SPECIAL_FLOAT32 = np.float32([0.0, -0.0, 1e-45, -1e-45, 1e-40, 1.1754944e-38,
                              3.4028235e38, -3.4028235e38, 1e30, -1e-30,
                              0.1, 1 / 3, 1.0, -2.5]).tolist()

ROW_COUNTS = st.one_of(st.sampled_from([0, 1, 1023, 1024, 1025]), st.integers(0, 2100))
SAMPLE_RATES = st.one_of(
    st.integers(1, 100_000).map(float),
    st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False),
)
# Tiny tasks put a task boundary inside every text table the tests draw.
TASK_VALUES = st.sampled_from([1, 40, io._TASK_VALUES])


def special_floats(draw, shape, width=64):
    """Normal draws with SPECIAL_VALUES (SPECIAL_FLOAT32 at width 32) and
    hypothesis floats of that width scattered in, as float64 or float32."""
    dtype, special = (np.float64, SPECIAL_VALUES) if width == 64 else (np.float32,
                                                                        SPECIAL_FLOAT32)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(0.0, 10.0 ** rng.integers(-3, 4), shape).astype(dtype).ravel()
    extra = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=width),
                          max_size=20))
    pool = np.array(special + extra, dtype=dtype)
    if values.size:
        hits = rng.integers(0, values.size, min(values.size, 4 * len(pool)))
        values[hits] = pool[rng.integers(0, len(pool), len(hits))]
    return values.reshape(shape)


def complex_from_parts(re, im):
    """re + i*im as complex64, each part rounded once to float32 and every
    bit of a float32 part kept (arithmetic would lose signed zeros)."""
    out = np.empty(re.shape, dtype=np.complex64)
    out.real = re
    out.imag = im
    return out


@st.composite
def traces(draw):
    n_sub = draw(st.integers(1, 4))
    n = draw(ROW_COUNTS)
    re = special_floats(draw, (n_sub, n), width=32)
    im = special_floats(draw, (n_sub, n), width=32)
    return CsiTrace(fs=draw(SAMPLE_RATES), samples=complex_from_parts(re, im))


class TestBlockWriter:
    @settings(max_examples=60)
    @given(trace=traces())
    def test_trace_bytes(self, trace):
        with tempfile.TemporaryDirectory() as d:
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

    @settings(max_examples=40)
    @given(data=st.data(), n=st.one_of(ROW_COUNTS, st.sampled_from([8191, 8192, 8193])),
           fs=SAMPLE_RATES, task_values=TASK_VALUES)
    def test_series_round_trip(self, data, n, fs, task_values):
        # rows index,amplitude; index / the header's fs is the time column
        # that the rows held before, t = i / fs in %.17g, to every bit
        values = special_floats(data.draw, (n,))
        with tempfile.TemporaryDirectory() as d, warnings.catch_warnings():
            path = Path(d) / "filtered.csv"
            with codec_split(task_values=task_values):
                io.write_series(path, AmplitudeSeries(fs=fs, values=values, source_subcarrier=1))
            header = path.read_text().split("\n", 1)[0]
            warnings.simplefilter("ignore", UserWarning)   # a table of no rows
            rows = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        assert rows.shape == ((n, 2) if n else (0, 1))
        index, amplitude = rows.reshape(n, 2).T
        np.testing.assert_array_equal(index, np.arange(n))
        np.testing.assert_array_equal(amplitude.view(np.uint64), values.view(np.uint64))
        header_fs = float(re.fullmatch(r"# fs=(\S+) subcarrier=1", header)[1])
        old_t = np.array([float(io.FLOAT_FMT % t) for t in np.arange(n) / fs])
        np.testing.assert_array_equal((np.arange(n) / header_fs).view(np.uint64),
                                      old_t.view(np.uint64))

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
            oracle_write_table(d / "nor_old.csv", "index,nor1,nor2",
                               [(i, float(nor1[i]), float(nor2[i])) for i in range(n)])
            oracle_write_table(d / "segments_old.csv", "start_idx,end_idx,truncated",
                               [(s.start_idx, s.end_idx, int(s.truncated)) for s in segments])
            assert (d / "nor.csv").read_bytes() == (d / "nor_old.csv").read_bytes()
            assert (d / "segments.csv").read_bytes() == (d / "segments_old.csv").read_bytes()

    @settings(max_examples=30)
    @given(data=st.data(), task_values=TASK_VALUES)
    def test_record_and_plot_tables_bytes(self, data, task_values):
        # annotations (no header), datasets, confusion tables and the CLI's
        # plot tables, with string, int and float columns
        bounds = sorted(data.draw(st.lists(st.integers(0, 10**6), max_size=40, unique=True)))
        annotations = [Annotation(a, b, data.draw(st.sampled_from(["keystroke", "mouse_move"])))
                       for a, b in zip(bounds[::2], bounds[1::2])]
        n = data.draw(st.integers(0, 60))
        values = np.abs(special_floats(data.draw, (3, n)))
        labels = st.sampled_from(list(GestureLabel))
        examples = [LabeledExample(FeatureVector(*f), data.draw(labels))
                    for f in zip(values[0], 1 + values[1], 1e-3 + values[2])]
        confusion = np.array(data.draw(st.lists(st.integers(0, 2**53), min_size=4, max_size=4)))
        confusion = confusion.reshape(2, 2)
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            with codec_split(task_values=task_values):
                io.write_annotations(d / "trace.ann", annotations)
                io.write_dataset(d / "dataset.csv", examples)
                io.write_confusion(d / "confusion.csv", confusion)
                io.write_table(d / "plot.csv", "i,x,name",
                               [np.arange(n), values[0], [ex.label.name for ex in examples]],
                               ["%d", io.FLOAT_FMT, "%s"])
            oracle_write_table(d / "trace_old.ann", None,
                               [(a.start_idx, a.end_idx, a.label) for a in annotations])
            oracle_write_table(d / "dataset_old.csv", "variance,slope_ratio,duration,label",
                               [(float(ex.features.variance), float(ex.features.slope_ratio),
                                 float(ex.features.duration), ex.label.name.lower())
                                for ex in examples])
            oracle_write_table(d / "confusion_old.csv", "true,predicted_typing,predicted_mouse",
                               [("typing", *map(int, confusion[0])),
                                ("mouse", *map(int, confusion[1]))])
            oracle_write_table(d / "plot_old.csv", "i,x,name",
                               [(i, float(values[0, i]), ex.label.name)
                                for i, ex in enumerate(examples)])
            for name in ("trace.ann", "dataset.csv", "confusion.csv", "plot.csv"):
                old = name.replace(".", "_old.")
                assert (d / name).read_bytes() == (d / old).read_bytes(), name

    @settings(max_examples=40)
    @given(trace=traces())
    @example(trace=CsiTrace(fs=1000.0, samples=np.zeros((2, 0), dtype=np.complex64)))
    @example(trace=CsiTrace(fs=1000.0, samples=complex_from_parts(   # float32 subnormals
        np.float32([[-0.0, 1e-45, -1e-40, 0.0]]), np.float32([[0.0, -1e-45, 1.1754942e-38, -0.0]]))))
    def test_trace_round_trip_bit_exact(self, trace):
        with tempfile.TemporaryDirectory() as d, warnings.catch_warnings():
            warnings.simplefilter("error")
            io.write_trace(Path(d) / "trace.csv", trace)
            back = io.read_trace(Path(d) / "trace.csv")
        assert back.samples.dtype == trace.samples.dtype == np.complex64
        assert back.samples.shape == trace.samples.shape
        assert back.fs == trace.fs
        np.testing.assert_array_equal(back.samples.view(np.uint64), trace.samples.view(np.uint64))

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("old\n")
        write_member = io._write_member

        def fail_second(archive, name, *args):   # fs.npy is written, then the disk fills
            if name == "samples.npy":
                raise RuntimeError("disk full")
            write_member(archive, name, *args)

        with mock.patch.object(io, "_write_member", fail_second):
            with pytest.raises(RuntimeError, match="disk full"):
                io.write_trace(path, random_trace())
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o002, 0o664), (0o077, 0o600)],
                             ids=["022", "002", "077"])
    def test_new_file_mode_follows_the_umask(self, tmp_path, umask, mode):
        # as open() creates a file: 0o666 less the umask
        old = os.umask(umask)
        try:
            io.write_trace(tmp_path / "trace.csv", random_trace())
            io.atomic_write_text(tmp_path / "report.json", "{}\n")
        finally:
            os.umask(old)
        assert [p.stat().st_mode & 0o777 for p in sorted(tmp_path.iterdir())] == [mode, mode]

    def test_signed_zeros_round_trip(self, tmp_path):
        samples = complex_from_parts(np.array([[-0.0, -0.0, 0.0, -0.0]]),
                                     np.array([[-0.0, 2.0, -0.0, 0.0]]))
        io.write_trace(tmp_path / "trace.csv", CsiTrace(fs=1000.0, samples=samples))
        back = io.read_trace(tmp_path / "trace.csv")
        np.testing.assert_array_equal(back.samples.view(np.uint64), samples.view(np.uint64))

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


def on_its_own_map(array) -> bool:
    """array's memory is an anonymous map (see channel._mapped_empty)."""
    while isinstance(array, np.ndarray):
        array = array.base
    return isinstance(array, memoryview) and isinstance(array.obj, mmap.mmap)


def npy_bytes(dtype, shape, payload: bytes) -> bytes:
    """A .npy member whose header claims dtype and shape over payload."""
    out = BytesIO()
    np.lib.format.write_array_header_1_0(
        out, {"descr": dtype, "fortran_order": False, "shape": shape})
    return out.getvalue() + payload


def raw_npy(header: str) -> bytes:
    """A .npy 1.0 member of no payload whose header is the dict literal header."""
    text = header + " " * (-(len(header) + 11) % 64) + "\n"   # 10 bytes before it
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text)) + text.encode("latin1")


# Bad trace files: a writer of each, and the message after "<path>: ".

GOOD_SAMPLES = random_trace(n_sub=2, n=12).samples
FS = np.float64(1000.0)
PIECE = 4096   # samples in 64 KiB, the unit by which the cases place faults in a member
LONG_SAMPLES = random_trace(seed=1, n_sub=2, n=5000).samples   # 2.4 pieces


def written(data):
    def write(path):
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return write


def members(compression=zipfile.ZIP_STORED, **arrays):
    """An archive of the good trace's members, with arrays replacing or adding some."""
    def write(path):
        write_archive(path, {f"{name}.npy": value for name, value in
                             {"fs": FS, "samples": GOOD_SAMPLES, **arrays}.items()
                             if value is not None}, compression)
    return write


def savez(**arrays):
    """The archive numpy.savez makes of arrays."""
    def write(path):
        with open(path, "wb") as fh:   # a file object, so that no ".npz" is appended
            np.savez(fh, **arrays)
    return write


def with_sample(value, at=(1, 7), samples=GOOD_SAMPLES):
    samples = samples.copy()
    samples[at] = value
    return members(samples=samples)


def edited(edit, samples=GOOD_SAMPLES):
    """The file write_trace makes of samples, with edit applied to its bytes."""
    def write(path):
        io.write_trace(path, CsiTrace(fs=FS, samples=samples))
        path.write_bytes(edit(path.read_bytes()))
    return write


def flipped(at, samples=GOOD_SAMPLES):
    """The file of samples with one bit of sample at flipped, a finite
    value still, which only zip's CRC check sees."""
    def flip(data):
        i = data.index(samples.tobytes()) + samples.itemsize * int(
            np.ravel_multi_index(at, samples.shape))
        return data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]
    return edited(flip, samples)


def fs_flipped(data: bytes) -> bytes:
    """The bytes with the lowest bit of the stored fs flipped, a positive and
    finite fs still, which only zip's CRC check sees."""
    i = data.index(FS.tobytes())
    return data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]


def past_the_end(path):
    """An archive whose samples.npy claims, in its .npy header and in the
    central directory, 1 MiB more than the file holds."""
    members(samples=npy_bytes("<c8", (2, 12 + 2**16), GOOD_SAMPLES.tobytes()))(path)
    data = path.read_bytes()
    at = data.index(b"PK\x01\x02", data.index(b"PK\x01\x02") + 1) + 20   # its two sizes
    sizes = (size + 2**20 for size in struct.unpack_from("<II", data, at))
    path.write_bytes(data[:at] + struct.pack("<II", *sizes) + data[at + 8:])


def commented(comment: bytes, write):
    """The archive write makes, with comment as its zip comment, which readers skip."""
    def write_commented(path):
        write(path)
        with zipfile.ZipFile(path, "a") as archive:
            archive.comment = comment
    return write_commented


def flag_first_member_encrypted(data: bytes) -> bytes:
    at = data.index(b"PK\x01\x02") + 8   # general purpose flags in the central directory
    return data[:at] + bytes([data[at] | 1]) + data[at + 1:]


class TestBlockReader:
    @settings(max_examples=40)
    @given(trace=traces())
    def test_matches_whole_file_reader(self, trace):
        # numpy's own reader, which loads each member whole
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "trace.csv"
            io.write_trace(path, trace)
            got = io.read_trace(path)
            with np.load(path, allow_pickle=False) as archive:
                fs, want = archive["fs"], archive["samples"]
        assert fs.shape == () and got.fs == fs == trace.fs
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
        # a (2, 0) trace whose only text is its zip comment
        path = tmp_path / "trace.csv"
        empty = CsiTrace(fs=1000.0, samples=np.zeros((2, 0), dtype=np.complex64))
        commented(body.encode(), lambda p: io.write_trace(p, empty))(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = io.read_trace(path)
        assert got.fs == 1000.0
        assert got.samples.shape == (2, 0)
        assert got.samples.flags.c_contiguous

    def test_header_wider_than_rows_allocates_nothing(self, tmp_path):
        # a (1, 10**12) complex array cannot be allocated; the header's shape
        # is checked against the member's 32 stored bytes first
        path = tmp_path / "trace.csv"
        write_archive(path, {"fs.npy": np.float64(1000.0),
                             "samples.npy": npy_bytes("<c8", (1, 10**12), bytes(32))})
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}: samples.npy has shape (1, 1000000000000), "
                    "which does not fit its 32 bytes")):
                io.read_trace(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

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
        # the samples are on a map of their own, which tracemalloc does not see
        assert on_its_own_map(got.samples)
        # beyond them the read holds one row's finiteness mask (n bytes) and
        # zipfile's own structures, a few rows in all; the whole (4, n) mask
        # would take 4n by itself
        assert peak <= 4 * n

    @pytest.mark.parametrize("shape", [(1,), (4, 30_000), ((64 << 20) // 8 + 1,),
                                       (2, (64 << 20) // 8)],
                             ids=["8B", "960kB", "64MiB+8B", "128MiB"])
    def test_every_samples_array_on_its_own_map(self, shape):
        # 64 MiB and over too, whose pages are untouched here: every samples
        # array, simulated or read, goes back to the system when freed
        arrays = [channel._mapped_empty(shape, np.complex64) for _ in range(2)]
        for array in arrays:
            assert array.shape == shape and array.dtype == np.complex64
            assert array.flags.c_contiguous and array.flags.writeable
            assert on_its_own_map(array)
        assert arrays[0].base.base.obj is not arrays[1].base.base.obj

    def test_no_map_for_no_bytes(self):
        array = channel._mapped_empty((3, 0), np.complex64)
        assert array.shape == (3, 0) and array.dtype == np.complex64
        assert not on_its_own_map(array)

    # Faults in the samples and their bytes, the later ones past the
    # member's first pieces; the message after "<path>: ".
    @pytest.mark.parametrize("write, message", [
        pytest.param(flipped((1, 11)), "Bad CRC-32 for file 'samples.npy'", id="bad-cell"),
        pytest.param(edited(fs_flipped), "Bad CRC-32 for file 'fs.npy'", id="bad-fs"),
        pytest.param(members(samples=npy_bytes("<c8", (2, 3), bytes(8 * 5))),
                     "samples.npy has shape (2, 3), which does not fit its 40 bytes",
                     id="short-row"),
        pytest.param(members(samples=npy_bytes("<c8", (2, 3), bytes(8 * 7))),
                     "samples.npy has shape (2, 3), which does not fit its 56 bytes",
                     id="long-row"),
        pytest.param(edited(lambda data: data[:len(data) // 2]), "File is not a zip file",
                     id="truncated-last"),
        pytest.param(edited(lambda data: data[:-1]), "File is not a zip file",
                     id="truncated-last-cell"),
        pytest.param(with_sample(complex(math.nan, 0.0), at=(0, 0)),
                     "non-finite sample (nan+0j) at subcarrier 0, index 0", id="first-row"),
        pytest.param(with_sample(complex(0.0, math.inf), at=(0, PIECE + 10), samples=LONG_SAMPLES),
                     f"non-finite sample infj at subcarrier 0, index {PIECE + 10}",
                     id="second-block"),
        pytest.param(commented(b"\n# note\n", with_sample(complex(1.0, math.nan))),
                     "non-finite sample (1+nanj) at subcarrier 1, index 7",
                     id="after-skipped-lines"),
        pytest.param(with_sample(complex(math.nan, 0.0), at=(0, PIECE - 1),
                                 samples=LONG_SAMPLES[:1, :PIECE]),
                     f"non-finite sample (nan+0j) at subcarrier 0, index {PIECE - 1}",
                     id="block-edge"),
        pytest.param(with_sample(complex(math.nan, 0.0), at=(0, PIECE), samples=LONG_SAMPLES),
                     f"non-finite sample (nan+0j) at subcarrier 0, index {PIECE}",
                     id="range-start-bad-cell"),
        pytest.param(with_sample(complex(math.nan, 0.0), at=(0, PIECE - 1), samples=LONG_SAMPLES),
                     f"non-finite sample (nan+0j) at subcarrier 0, index {PIECE - 1}",
                     id="range-end-bad-cell"),
        pytest.param(flipped((1, 2 * PIECE - 4500), LONG_SAMPLES),
                     "Bad CRC-32 for file 'samples.npy'", id="later-range"),
        pytest.param(with_sample(complex(1.0, math.nan)),
                     "non-finite sample (1+nanj) at subcarrier 1, index 7", id="nan"),
        pytest.param(with_sample(complex(math.inf, 0.0)),
                     "non-finite sample (inf+0j) at subcarrier 1, index 7", id="inf"),
        pytest.param(with_sample(complex(-math.inf, 2.0), at=(1, 2 * PIECE - 4500),
                                 samples=LONG_SAMPLES),
                     f"non-finite sample (-inf+2j) at subcarrier 1, index {2 * PIECE - 4500}",
                     id="later-range-inf"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, capsys, write, message):
        path = tmp_path / "trace.csv"
        write(path)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
            io.read_trace(path)
        ann = tmp_path / "trace.ann"
        ann.write_text("")
        for command in (["pipeline"], ["segment"], ["featurize", "--annotations", str(ann)]):
            code = main(["--out", str(tmp_path / "o"), command[0], "--trace", str(path),
                         *command[1:]])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: {message}")
            assert "Traceback" not in err

    @pytest.mark.parametrize("bad", [1, 2])
    @settings(max_examples=15)
    @given(trace=traces(), data=st.data())
    def test_bad_line_anywhere_named(self, bad, trace, data):
        # bad non-finite samples anywhere; the first in C order is named
        assume(trace.samples.size >= bad)
        samples = trace.samples.copy()
        at = data.draw(st.lists(st.integers(0, samples.size - 1), min_size=bad,
                                max_size=bad, unique=True), label="flat indices")
        for i in at:
            samples.flat[i] = data.draw(st.sampled_from(
                [complex(math.nan, 0.0), complex(0.0, -math.inf), complex(math.inf, math.nan)]))
        s, t = np.unravel_index(min(at), samples.shape)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "trace.csv"
            io.write_trace(path, CsiTrace(fs=trace.fs, samples=samples))
            message = f"{path}: non-finite sample {samples[s, t]} at subcarrier {s}, index {t}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                io.read_trace(path)


BAD_TRACE_FILES = {   # id: (write the file, the message after "<path>: ")
    "empty": (written(b""), "File is not a zip file"),
    "text": (written("not a trace\n"), "File is not a zip file"),
    "text-trace": (written("# fs=1000 subcarriers=1\n0,1,2\n"), "File is not a zip file"),
    # the central directory, not moved, then points before the members
    "byte-deleted": (edited(lambda data: data[:40] + data[41:]),
                     "fs.npy starts before the start of the file"),
    # zipfile compares the name in each member's own header with the directory's
    "header-name-differs": (edited(lambda data: data.replace(b"fs.npy", b"fz.npy", 1)),
                            "File name in directory 'fs.npy' and header b'fz.npy' differ."),
    "payload-past-the-end": (past_the_end, "the archive ends inside a member"),
    "encrypted": (edited(flag_first_member_encrypted),
                  "fs.npy is compressed or encrypted; trace members are stored"),
    "extra-member": (members(labels=np.zeros(3)), "expected members fs.npy and samples.npy, "
                     "got ['fs.npy', 'labels.npy', 'samples.npy']"),
    "compressed": (members(zipfile.ZIP_DEFLATED),
                   "fs.npy is compressed or encrypted; trace members are stored"),
    "not-npy": (members(samples=b"not a .npy member"),
                "the magic string is not correct"),
    "wrong-dtype": (members(samples=GOOD_SAMPLES.real),
                    "samples.npy has dtype float32, expected complex64"),
    # complex128 samples, as trace files held them before, are not rounded on the way in
    "savez-complex128": (savez(fs=FS, samples=GOOD_SAMPLES.astype(np.complex128)),
                         "samples.npy has dtype complex128, expected complex64"),
    "big-endian": (members(samples=GOOD_SAMPLES.astype(">c8")),
                   "samples.npy has dtype >c8, expected complex64"),
    "fs-wrong-dtype": (members(fs=np.float32(1000.0)),
                       "fs.npy has dtype float32, expected float64"),
    "wrong-ndim": (members(samples=GOOD_SAMPLES[0]),
                   "samples.npy has shape (12,), expected 2 dimensions in C order"),
    "fs-not-scalar": (members(fs=np.array([1000.0])),
                      "fs.npy has shape (1,), expected 0 dimensions in C order"),
    "fortran-order": (members(samples=np.asfortranarray(GOOD_SAMPLES)),
                      "samples.npy has shape (2, 12) in Fortran order, "
                      "expected 2 dimensions in C order"),
    "pickled-object": (members(samples=GOOD_SAMPLES.astype(object)),
                       "samples.npy has dtype object, expected complex64"),
    "shape-wider-than-payload": (members(samples=npy_bytes("<c8", (1, 10**12), bytes(32))),
                                 "samples.npy has shape (1, 1000000000000), "
                                 "which does not fit its 32 bytes"),
    "negative-shape": (members(samples=npy_bytes("<c8", (2, -3), bytes(8 * 6))),
                       "samples.npy has shape (2, -3), which does not fit its 48 bytes"),
}


class TestTraceArchive:
    @pytest.mark.parametrize("write, message", BAD_TRACE_FILES.values(),
                             ids=list(BAD_TRACE_FILES))
    def test_bad_file_names_the_file(self, tmp_path, capsys, write, message):
        path = tmp_path / "trace.csv"
        write(path)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
            io.read_trace(path)
        assert main(["--out", str(tmp_path / "o"), "pipeline", "--trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}")
        assert "Traceback" not in err

    def test_missing_file_stays_an_os_error(self, tmp_path, capsys):
        path = tmp_path / "absent.csv"
        with pytest.raises(FileNotFoundError):
            io.read_trace(path)
        assert main(["--out", str(tmp_path / "o"), "pipeline", "--trace", str(path)]) == 1
        assert str(path) in capsys.readouterr().err

    def test_numpy_savez_file_reads_back(self, tmp_path):
        trace = random_trace(n_sub=3, n=40)
        path = tmp_path / "trace.npz"
        np.savez(path, fs=trace.fs, samples=trace.samples)
        got = io.read_trace(path)
        assert got.fs == trace.fs
        np.testing.assert_array_equal(got.samples.view(np.uint64),
                                      trace.samples.view(np.uint64))

    def test_writes_apart_are_byte_identical(self, tmp_path):
        # zip dates have a resolution of 2 s; the members carry a fixed one
        trace = random_trace()
        io.write_trace(tmp_path / "a.csv", trace)
        time.sleep(2.1)
        io.write_trace(tmp_path / "b.csv", trace)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


ONE_SUBCARRIER = GOOD_SAMPLES[:1]


def bad_fs(text):
    """A case of fs float(text), which CsiTrace refuses."""
    message = f"fs must be positive and finite, got {float(text)}"
    return pytest.param(members(fs=np.float64(float(text)), samples=ONE_SUBCARRIER), message,
                        id=f"# fs={text} subcarriers=1-{message}")


class TestTraceHeader:
    """The sample rate (fs.npy) and the subcarrier count (the shape in
    samples.npy's header); the case ids write them as a text trace's
    header line did, then the fault."""
    ROW = "0,1,0\n"

    @pytest.mark.parametrize("write, message", [
        pytest.param(members(fs=None, samples=ONE_SUBCARRIER),
                     "expected members fs.npy and samples.npy, got ['samples.npy']",
                     id="# subcarriers=1-lacks fs="),
        pytest.param(members(samples=None),
                     "expected members fs.npy and samples.npy, got ['fs.npy']",
                     id="# fs=1000-lacks subcarriers="),
        pytest.param(members(samples=raw_npy("{'descr': '<c8', 'fortran_order': False}")),
                     "Header does not contain the correct keys: ['descr', 'fortran_order']",
                     id="# fs=1000 subcarriers-'subcarriers' is not key=value"),
        pytest.param(members(fs=np.str_("fast"), samples=ONE_SUBCARRIER),
                     "fs.npy has dtype <U4, expected float64",
                     id="# fs=fast subcarriers=1-fs='fast' is not a valid float"),
        *map(bad_fs, ["nan", "inf", "1e400", "0", "-1000"]),
    ])
    def test_bad_header_names_file_and_line(self, tmp_path, write, message):
        path = tmp_path / "trace.csv"
        write(path)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            io.read_trace(path)

    @pytest.mark.parametrize("subcarriers", [0, -1])
    @pytest.mark.parametrize("body", ["", ROW, "0,1\n"])
    def test_subcarriers_below_one_named(self, tmp_path, capsys, subcarriers, body):
        # the header's count is checked first, whatever bytes follow it
        path = tmp_path / "trace.csv"
        members(samples=npy_bytes("<c8", (subcarriers, 3), body.encode()))(path)
        message = f"{path}: subcarriers must be >= 1, got {subcarriers}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            io.read_trace(path)
        assert main(["--out", str(tmp_path / "o"), "pipeline", "--trace", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_header_pipeline_exit_code(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        members(fs=None, samples=ONE_SUBCARRIER)(path)
        assert main(["--out", str(tmp_path / "o"), "pipeline", "--trace", str(path)]) == 2
        assert f"{path}: " in capsys.readouterr().err


@contextlib.contextmanager
def on_threads(workers):
    """workers CPUs, and a thread floor of one sample, so that a map of any
    trace runs on min(workers, tasks) threads."""
    with mock.patch.object(_workers, "cpus", lambda: workers), \
            mock.patch.object(_workers, "_MIN_SAMPLES_PER_THREAD", 1):
        yield


@contextlib.contextmanager
def watch_pools():
    """The worker count of each thread pool _workers starts, in order."""
    pools = []
    executor = _workers.ThreadPoolExecutor

    def counted(max_workers):
        pools.append(max_workers)
        return executor(max_workers=max_workers)

    with mock.patch.object(_workers, "ThreadPoolExecutor", counted):
        yield pools


@st.composite
def dirty_archives(draw):
    """A trace, and a writer of it in one of the archive layouts that
    write_trace does not make but a reader may meet."""
    trace = draw(traces())
    fs, samples = np.float64(trace.fs), trace.samples
    layouts = {
        "numpy-savez": lambda path: np.savez(path, fs=fs, samples=samples),
        "members-reversed": lambda path: write_archive(path, {"samples.npy": samples,
                                                              "fs.npy": fs}),
        "commented": commented(draw(st.binary(max_size=40)),
                               lambda path: io.write_trace(path, trace)),
        "npy-version-2": lambda path: write_archive(path, {
            "fs.npy": fs, "samples.npy": npy_v2(samples)}),
    }
    return trace, draw(st.sampled_from(sorted(layouts)).map(layouts.get))


def npy_v2(array) -> bytes:
    out = BytesIO()
    np.lib.format.write_array(out, array, version=(2, 0))
    return out.getvalue()


def failing_format(row_fmt, columns, a, b):
    raise RuntimeError(f"disk full at t={float(columns[0][a:b][0])!r}")


WORKER_COUNTS = [1, 2, 3]   # 3 is more workers than a 2-CPU host has CPUs


class TestWorkerProcesses:
    """_workers.thread_map, the one parallel map, and the files around it:
    nothing forks, and no pool outlives its call."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @settings(max_examples=10)
    @given(trace=traces(), task_values=st.sampled_from([1, 4, 30]))
    def test_same_bytes_and_bits_at_any_worker_count(self, workers, trace, task_values):
        series = AmplitudeSeries(fs=trace.fs, values=trace.samples[0].imag, source_subcarrier=5)
        threads = threading.active_count()
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            with codec_split(task_values), on_threads(workers):
                io.write_trace(d / "trace.csv", trace)
                io.write_series(d / "series.csv", series)
                got = io.read_trace(d / "trace.csv")
                with warnings.catch_warnings():   # extreme values overflow in abs
                    warnings.simplefilter("ignore", RuntimeWarning)
                    variances = subcarrier_variances(got) if trace.n_samples else None
            oracle_write_trace(d / "trace_old.csv", trace)
            oracle_write_series(d / "series_old.csv", series)
            assert (d / "trace.csv").read_bytes() == (d / "trace_old.csv").read_bytes()
            assert (d / "series.csv").read_bytes() == (d / "series_old.csv").read_bytes()
        np.testing.assert_array_equal(got.samples.view(np.uint64),
                                      trace.samples.view(np.uint64))
        if trace.n_samples:   # against the calling thread alone
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = np.array([np.abs(row).var(dtype=np.float64) for row in trace.samples])
            np.testing.assert_array_equal(variances.view(np.uint64), want.view(np.uint64))
        assert threading.active_count() == threads

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @settings(max_examples=10)
    @given(archive=dirty_archives())
    def test_dirty_bodies_same_bits_at_any_worker_count(self, workers, archive):
        trace, write = archive
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "trace.npz"
            write(path)
            with on_threads(workers):
                got = io.read_trace(path)
                with warnings.catch_warnings():   # extreme values overflow in abs
                    warnings.simplefilter("ignore", RuntimeWarning)
                    variances = subcarrier_variances(got) if trace.n_samples else None
        assert got.fs == trace.fs
        assert got.samples.flags.c_contiguous
        np.testing.assert_array_equal(got.samples.view(np.uint64),
                                      trace.samples.view(np.uint64))
        if trace.n_samples:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = np.array([np.abs(row).var(dtype=np.float64) for row in trace.samples])
            np.testing.assert_array_equal(variances.view(np.uint64), want.view(np.uint64))

    def test_pool_only_for_tables_of_several_tasks(self, tmp_path):
        least = _workers._MIN_SAMPLES_PER_THREAD
        for workers, samples, pooled in [(2, 0, []), (2, 2 * least - 1, []), (2, 2 * least, [2]),
                                         (3, 3 * least - 1, [2]), (3, 3 * least, [3]),
                                         (1, 10 * least, [])]:
            with mock.patch.object(_workers, "cpus", lambda: workers), watch_pools() as pools:
                got = _workers.thread_map(lambda i: i * i, range(5), samples)
            assert pools == pooled, (workers, samples)
            assert got == [0, 1, 4, 9, 16]
        # text tables are formatted in the calling thread, at any size
        values = np.random.default_rng(0).normal(size=36_000)
        with on_threads(2), watch_pools() as pools:
            io.write_series(tmp_path / "filtered.csv",
                            AmplitudeSeries(fs=1000.0, values=values, source_subcarrier=3))
            io.write_nor(tmp_path / "nor.csv", values, values)
        assert pools == []

    def test_tasks_reach_the_workers_unpickled(self):
        lock = threading.Lock()   # a lock cannot be pickled
        pair = threading.Barrier(2)   # each task waits for one on the other thread

        def task(args):
            i, held = args
            pair.wait(10)
            return i, held is lock, threading.get_ident()

        with on_threads(2):
            got = _workers.thread_map(task, [(i, lock) for i in range(40)], 40)
        assert [(i, same) for i, same, _ in got] == [(i, True) for i in range(40)]
        assert len({ident for *_, ident in got} - {threading.get_ident()}) == 2

    @pytest.mark.parametrize("case", ["one-cpu", "no-fork", "another-thread"])
    def test_in_process_without_a_pool(self, tmp_path, monkeypatch, case):
        trace = random_trace(n=50)
        release = threading.Event()
        with contextlib.ExitStack() as stack:
            if case == "one-cpu":   # however small the thread floor
                stack.enter_context(on_threads(1))
            if case == "no-fork":   # a platform without fork
                monkeypatch.delattr(os, "fork")
            else:
                stack.enter_context(mock.patch.object(
                    os, "fork", mock.Mock(side_effect=AssertionError("forked"))))
            if case == "another-thread":
                other = threading.Thread(target=release.wait, args=(10,))
                other.start()
                stack.callback(other.join, 10)
                stack.callback(release.set)
            pools = stack.enter_context(watch_pools())
            io.write_trace(tmp_path / "trace.csv", trace)
            got = io.read_trace(tmp_path / "trace.csv")
            selected = select_subcarrier(got)
            io.write_series(tmp_path / "series.csv", selected)
        assert pools == []
        if case == "another-thread":
            assert not other.is_alive()
        oracle_write_trace(tmp_path / "old.csv", trace)
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        np.testing.assert_array_equal(got.samples, trace.samples)
        assert selected.source_subcarrier == int(np.argmax(
            np.abs(trace.samples).var(axis=1, dtype=np.float64)))

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_worker_error_reaches_the_caller(self, tmp_path, workers):
        path = tmp_path / "series.csv"
        path.write_text("old\n")
        series = AmplitudeSeries(fs=1000.0, values=np.ones(500), source_subcarrier=0)
        threads = threading.active_count()
        with on_threads(workers), codec_split(task_values=90), \
                mock.patch.object(io, "_format_rows", failing_format):
            with pytest.raises(RuntimeError, match=re.escape("disk full at t=0.0")):
                io.write_series(path, series)
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["series.csv"]

        def fail_at_seven(i):
            if i == 7:
                raise RuntimeError(f"task {i} failed")
            return i

        with on_threads(workers), pytest.raises(RuntimeError, match="^task 7 failed$"):
            _workers.thread_map(fail_at_seven, range(40), 40)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_interrupt_stops_the_workers(self, workers):
        # task 5 is interrupted, as Ctrl-C interrupts a task run in the
        # calling thread
        ran = []

        def task(i):
            ran.append(i)
            if i == 5:
                raise KeyboardInterrupt
            time.sleep(0.001)
            return i

        threads = threading.active_count()
        with on_threads(workers), pytest.raises(KeyboardInterrupt):
            _workers.thread_map(task, range(1000), 1000)
        assert 5 in ran
        assert len(ran) < 1000
        if workers == 1:
            assert ran == list(range(6))
        assert threading.active_count() == threads

    def test_caller_leaving_early_stops_the_workers(self):
        # the caller leaves at the first task's error; the tasks not yet
        # started never run
        ran = []

        def task(i):
            ran.append(i)
            if i == 0:
                raise RuntimeError("first task failed")
            time.sleep(0.001)
            return i

        threads = threading.active_count()
        with on_threads(2), pytest.raises(RuntimeError, match="first task failed"):
            _workers.thread_map(task, range(1000), 1000)
        assert len(ran) < 1000
        assert threading.active_count() == threads


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
        with pytest.raises(ValueError, match="segmenter.window"):
            config_from_dict({"segmenter": {"window": 0.001}})

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
        ('{"seeds": {"simulation": -1}}',
         "invalid config section 'seeds': simulation must be >= 0, got -1"),
        ('{"seeds": {"cross_validation": -1}}',
         "invalid config section 'seeds': cross_validation must be >= 0, got -1"),
        ('{"seeds": {"behavior": -1}}',
         "invalid config section 'seeds': behavior must be >= 0, got -1"),
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

    # the keys that became constants are refused, even at their old defaults
    @pytest.mark.parametrize("doc, key", [
        ({"segmenter": {"se_step": 0}}, "segmenter.se_step"),
        ({"segmenter": {"se_step": -0.1, "se_start": 5, "se_stop": 0.1}}, "segmenter.se_start"),
        ({"segmenter": {"se_step": 1e-6}}, "segmenter.se_step"),
        ({"segmenter": {"se_step": 1e-320}}, "segmenter.se_step"),
        ({"segmenter": {"se_stop": 5.0}}, "segmenter.se_stop"),
        ({"segmenter": {"smoothing_gain": 100.0}}, "segmenter.smoothing_gain"),
        ({"segmenter": {"stability_count": 6}}, "segmenter.stability_count"),
        ({"segmenter": {"stability_spread": 10}}, "segmenter.stability_spread"),
        ({"simulation": {"static_amplitude": 8.0}}, "simulation.static_amplitude"),
        ({"simulation": {"gesture_jitter_std": 2.5e-3}}, "simulation.gesture_jitter_std"),
    ], ids=["zero", "negative", "tiny", "subnormal", "se_stop", "smoothing_gain",
            "stability_count", "stability_spread", "static_amplitude", "gesture_jitter_std"])
    def test_se_step_checked(self, tmp_path, capsys, doc, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "--out", str(tmp_path / "o"), "simulate"]) == 2
        assert capsys.readouterr().err == f"error: {path}: unknown config key {key}\n"

    def test_settable_keys(self):
        # a new config knob shows here as a changed test
        assert {name: list(section) for name, section in PipelineConfig().to_dict().items()} == {
            "geometry": ["antenna_distance", "wavelength", "rest_depth"],
            "simulation": ["fs", "subcarriers", "reflection_amplitude", "noise_std"],
            "filter": ["cutoff_hz", "order"],
            "segmenter": ["window", "min_amplitude_span", "end_hold"],
            "classifier": ["kind", "k", "folds"],
            "hmm": ["max_iter", "tol"],
            "seeds": ["simulation", "cross_validation", "behavior"],
        }

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("section, key, message", [
        ("simulation", "fs", "fs must be positive and finite"),
        ("simulation", "noise_std", "noise_std must be >= 0 and finite"),
        ("simulation", "reflection_amplitude", "reflection_amplitude must be >= 0 and finite"),
        ("filter", "cutoff_hz", "cutoff must be positive and finite"),
        ("segmenter", "window", "window must be positive and finite"),
        ("segmenter", "min_amplitude_span", "min_amplitude_span must be positive and finite"),
        ("hmm", "tol", "tol must be positive and finite"),
    ])
    def test_non_finite_values_refused(self, tmp_path, capsys, section, key, message, value):
        with pytest.raises(ValueError, match=f"^{message}$"):
            type(getattr(PipelineConfig(), section))(**{key: value})
        path = tmp_path / "config.json"
        path.write_text(json.dumps({section: {key: value}}))  # NaN or Infinity
        assert main(["--config", str(path), "--out", str(tmp_path / "o"), "simulate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not valid JSON") and "Traceback" not in err

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

    @pytest.mark.parametrize("line, message", [
        ("-1,keystroke,0.02,0.7", "start_s must be >= 0 and finite, got -1.0"),
        ("nan,keystroke,0.02,0.7", "start_s must be >= 0 and finite, got nan"),
        ("inf,keystroke,0.02,0.7", "start_s must be >= 0 and finite, got inf"),
        ("1.0,keystroke,nan,0.7", "travel must be positive and finite, got nan"),
        ("1.0,keystroke,inf,0.7", "travel must be positive and finite, got inf"),
        ("1.0,keystroke,0.02,nan", "duration must be positive and finite, got nan"),
        ("1.0,keystroke,0.02,inf", "duration must be positive and finite, got inf"),
    ])
    def test_out_of_range_field_named(self, tmp_path, config, line, message):
        path = tmp_path / "script.txt"
        path.write_text("0.5,keystroke,0.02,0.1\n" + line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
            parse_script(path, config)


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
        ([], "gesture model root must be an object"),
        ("{not json", "Expecting property name"),
        (dict(KNN, k=0), "k must be an integer >= 1, got 0"),
        (dict(KNN, k=-1), "k must be an integer >= 1, got -1"),
        (dict(KNN, k=2.5), "k: must be an integer, got 2.5"),
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
        ({"surfing": [1, 2]}, "behavior model section 'surfing' must be an object"),
        ({"surfing": {"pi": [0.5, 0.5], "A": [[float("nan"), 0.3], [0.4, 0.6]],
                      "B": [[0.9, 0.1], [0.2, 0.8]]}}, "NaN is not a JSON number"),
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



HMM = {"pi": [0.5, 0.5], "A": [[0.5, 0.5], [0.5, 0.5]], "B": [[0.9, 0.1], [0.2, 0.8]]}


def run_pipeline_on_models(tmp_path, gesture_model, behavior_models=None) -> int:
    """main's exit code for `pipeline` on a small trace with the model files."""
    trace = tmp_path / "trace.npz"
    io.write_trace(trace, random_trace())
    argv = ["--out", str(tmp_path / "o"), "pipeline", "--trace", str(trace),
            "--gesture-model", str(gesture_model)]
    if behavior_models is not None:
        argv += ["--behavior-models", str(behavior_models)]
    return main(argv)


class TestStrictModelFiles:
    """Model files follow the config's JSON rules: no unknown key, JSON types
    by field, no NaN or Infinity, and at least two behaviors."""

    @pytest.mark.parametrize("text, message", [
        (json.dumps(dict(KNN, extra=1)), "unknown gesture model key extra"),
        (json.dumps(dict(KNN, standardizer={"mean": [0, 0, 0], "std": [1, 1, 1], "scale": 2})),
         "unknown gesture model key standardizer.scale"),
        (json.dumps(dict(KNN, kind="svm")), "kind: must be 'knn' or 'gaussian_nb', got 'svm'"),
        (json.dumps(dict(KNN, labels=[0, True])),
         "labels must be finite numbers in a JSON array"),
        (json.dumps(dict(NB, means=[[0, 0, 0], [1, 1]])),
         "means must be finite numbers in a JSON array"),
        (json.dumps(KNN).replace("[[0, 0, 0]", "[[NaN, 0, 0]"),
         "not valid JSON (NaN is not a JSON number)"),
        (json.dumps(KNN).replace('"k": 1', '"k": 1e400'), "k: must be an integer, got inf"),
        (json.dumps(KNN).replace("[[0, 0, 0]", "[[1e400, 0, 0]"),
         "points must be finite numbers in a JSON array"),
        (json.dumps(dict(KNN, labels=[0, 10**30])), "labels must be finite numbers in a JSON array"),
        (json.dumps(dict(KNN, standardizer={"mean": 0, "std": [1, 1, 1]})),
         "standardizer.mean must be finite numbers in a JSON array"),
    ], ids=["top-level", "standardizer", "kind", "bool", "ragged", "nan", "overflow",
            "overflow-in-array", "int-past-int64", "number-for-array"])
    def test_bad_gesture_model(self, tmp_path, capsys, text, message):
        path = tmp_path / "gesture_model.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            io.read_classifier(path)
        assert run_pipeline_on_models(tmp_path, path) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("doc, message", [
        ({"surfing": dict(HMM, pi=["0.25", "0.75"]), "gaming": HMM},
         "surfing.pi must be finite numbers in a JSON array"),
        ({"surfing": dict(HMM, C=[1]), "gaming": HMM}, "unknown behavior model key surfing.C"),
        ({"surfing": HMM}, "expected at least two behaviors, got 1"),
        ({}, "expected at least two behaviors, got 0"),
        ([HMM, HMM], "behavior model root must be an object"),
        ({"surfing": HMM, "gaming": dict(HMM, A=[[0.5, 0.5], [0.5, float("inf")]])},
         "not valid JSON (Infinity is not a JSON number)"),
        ({"surfing": dict(HMM, pi=[[0.5, 0.5]]), "gaming": HMM},
         "invalid behavior model section 'surfing': pi must have shape (2,), got (1, 2)"),
        ({"surfing": HMM, "gaming": dict(HMM, A=[[0.5, 0.5, 0.5, 0.5]])},
         "invalid behavior model section 'gaming': A must have shape (2, 2), got (1, 4)"),
    ], ids=["string-pi", "unknown-key", "one-behavior", "empty", "list", "infinity",
            "nested-pi", "flat-A"])
    def test_bad_behavior_models(self, tmp_path, capsys, doc, message):
        path = tmp_path / "behavior_models.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            io.read_behavior_models(path)
        gesture_model = tmp_path / "gesture_model.json"
        io.write_classifier(gesture_model, fit("knn", EXAMPLES))
        assert run_pipeline_on_models(tmp_path, gesture_model, path) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


def finite(shape, positive=False):
    """Arrays of shape of finite float64s, > 0 when positive."""
    return st.lists(st.floats(min_value=0.0 if positive else None, exclude_min=positive,
                              allow_nan=False, allow_infinity=False),
                    min_size=math.prod(shape), max_size=math.prod(shape)).map(
        lambda values: np.array(values, dtype=float).reshape(shape))


@st.composite
def classifiers(draw):
    standardizer = Standardizer(mean=draw(finite((3,))), std=draw(finite((3,), positive=True)))
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        return KnnClassifier(standardizer=standardizer, k=draw(st.integers(1, 10)),
                             points=draw(finite((n, 3))),
                             labels=np.array(draw(st.lists(st.sampled_from([0, 1]),
                                                           min_size=n, max_size=n))))
    return GaussianNbClassifier(standardizer=standardizer, log_priors=draw(finite((2,))),
                                means=draw(finite((2, 3))),
                                variances=draw(finite((2, 3), positive=True)))


STOCHASTIC_ROWS = st.floats(0.0, 1.0).map(lambda p: [p, 1.0 - p])


@st.composite
def behavior_models(draw):
    behaviors = draw(st.lists(st.sampled_from(list(Behavior)), min_size=2, max_size=3,
                              unique=True))
    return {b: BehaviorHmm(pi=draw(STOCHASTIC_ROWS),
                           A=[draw(STOCHASTIC_ROWS), draw(STOCHASTIC_ROWS)],
                           B=[draw(STOCHASTIC_ROWS), draw(STOCHASTIC_ROWS)])
            for b in behaviors}


class TestModelRoundTrip:
    """write, read, write: the same bytes and arrays equal to the model's."""

    @staticmethod
    def twice(write, read, model):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
            write(first, model)
            back = read(first)
            write(second, back)
            assert second.read_bytes() == first.read_bytes()
        return back

    @settings(max_examples=60)
    @given(model=classifiers())
    def test_classifier(self, model):
        back = self.twice(io.write_classifier, io.read_classifier, model)
        assert type(back) is type(model)
        for name, value in vars(model).items():
            if name == "standardizer":
                np.testing.assert_array_equal(back.standardizer.mean, value.mean)
                np.testing.assert_array_equal(back.standardizer.std, value.std)
            elif isinstance(value, np.ndarray):
                np.testing.assert_array_equal(getattr(back, name), value)
                assert getattr(back, name).dtype == value.dtype
            else:
                assert getattr(back, name) == value

    @settings(max_examples=60)
    @given(models=behavior_models())
    def test_behavior_models(self, models):
        back = self.twice(io.write_behavior_models, io.read_behavior_models, models)
        assert list(back) == list(models)
        for b, model in models.items():
            for name in ("pi", "A", "B"):
                np.testing.assert_array_equal(getattr(back[b], name), getattr(model, name))


class TestHmmConfigReachesModelDistance:
    """config.hmm's max_iter and tol reach behavior_study's training fits."""

    def test_behavior_study(self, caplog):
        confusion = np.array([[196, 4], [10, 190]])
        for hmm, fits_capped in [({"max_iter": 3}, 3), ({"max_iter": 3, "tol": 10.0}, 0)]:
            config = config_from_dict({"hmm": hmm})
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="desksense.behavior"):
                behavior_study(config, confusion, n_train=2, train_length=30, n_test=1)
            # one fit per behavior
            assert sum("max_iter=3 " in r.getMessage() for r in caplog.records) == fits_capped


class TestDatasetFiles:
    HEADER = "variance,slope_ratio,duration,label\n"
    GOOD = "0.5,1.2,0.7,typing\n"

    @pytest.mark.parametrize("body, location, message", [
        ("x,1.2,0.7,typing\n", 2, "could not convert string to float: 'x'"),
        ("0.5,0.5,0.7,typing\n", 2, "slope_ratio must be >= 1"),
        (GOOD + "0.5,1.2,0,mouse\n", 3, "duration must be positive"),
        (GOOD + "\n-1,1.2,0.7,mouse\n", 4, "variance must be >= 0"),
        (GOOD + "0.5,1.2,0.7,wave\n", 3, "unknown gesture label 'wave'"),
        (GOOD + "0.5,1.2,0.7\n", 3, "expected 4 fields, got 3"),
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
        message = f"{path}:1: expected header {self.HEADER.strip()!r}, got {self.GOOD.strip()!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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

    @pytest.mark.parametrize("start, end", [(30, 30), (30, 31), (30, 32)])
    def test_featurize_names_an_annotation_too_short(self, tmp_path, capsys, start, end):
        trace = tmp_path / "trace.csv"
        io.write_trace(trace, random_trace(n=50))
        ann = tmp_path / "trace.ann"
        ann.write_text(f"# spans\n10,13,keystroke\n{start},{end},mouse_move\n")
        code = main(["--out", str(tmp_path / "o"), "featurize", "--trace", str(trace),
                     "--annotations", str(ann), "--use-annotations"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {ann}: annotation 2 ({start}-{end}) has {end - start + 1} samples; "
            "featurizing needs at least 4\n")
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


IMPORTED_SCIPY = ("import sys, desksense.cli; "
                  "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_import_loads_no_scipy(self):
        # the program runs on numpy alone; scipy serves only the tests, and
        # scipy.signal alone would cost over a second and ~76 MB per start
        src = str(Path(io.__file__).parents[1])
        imported = subprocess.run(
            [sys.executable, "-c", IMPORTED_SCIPY], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
        assert imported.stdout == "[]\n"

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

    def test_readme_chain_runs_as_written(self, tmp_path, monkeypatch):
        # the README's CLI block in a fresh directory: its heredoc writes its
        # file, and each command from simulate through pipeline, exactly as
        # written, exits 0
        text = (Path(__file__).parents[1] / "README.md").read_text()
        lines = iter(re.search(r"^## CLI$.*?^```sh\n(.*?)^```$", text, re.M | re.S)[1]
                     .splitlines())
        monkeypatch.chdir(tmp_path)
        commands = []
        for line in lines:
            while line.endswith("\\"):
                line = line[:-1] + next(lines)
            if heredoc := re.fullmatch(r"cat > (\S+) <<'EOF'", line):
                Path(heredoc[1]).write_text("".join(f"{body}\n"
                                                    for body in iter(lines.__next__, "EOF")))
                continue
            argv = shlex.split(line, comments=True)
            assert argv[:3] == ["desksense", "--out", "out"], line
            assert self.run(*argv[1:]) == 0, line
            commands.append(argv[3])
            if argv[3] == "pipeline":
                break
        assert commands == ["simulate", "segment", "featurize", "train-gesture",
                            "train-behavior", "pipeline"]

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
        (["--duration", "5"], "error: --duration needs --script"),
        (["--duration", "-5"], "--duration must be > 0 and finite, got -5.0"),
        (["--script", "{script}", "--duration", "0"], "--duration must be > 0 and finite, got 0.0"),
        (["--script", "{script}", "--duration", "-5"], "--duration must be > 0 and finite, got -5.0"),
        (["--script", "{script}", "--duration", "nan"], "--duration must be > 0 and finite, got nan"),
        (["--script", "{script}", "--duration", "inf"], "--duration must be > 0 and finite, got inf"),
        (["--script", "{nan_start}"],
         "error: {nan_start}:1: start_s must be >= 0 and finite, got nan"),
        (["--script", "{inf_start}"],
         "error: {inf_start}:1: start_s must be >= 0 and finite, got inf"),
        (["--script", "{nan_travel}"],
         "error: {nan_travel}:1: travel must be positive and finite, got nan"),
        (["--script", "{nan_duration}"],
         "error: {nan_duration}:1: duration must be positive and finite, got nan"),
        (["--keystrokes", "x"], "--keystrokes invalid int value: 'x'"),
        # a gesture after the trace's end was dropped, and one cut by it
        # annotated as whole
        (["--script", "{after_end}", "--duration", "5"], "error: gesture at t=10.000s ends "
         "at sample 10700, past the trace's last sample 4999"),
        (["--script", "{cut}", "--duration", "5"], "error: gesture at t=4.800s ends "
         "at sample 5400, past the trace's last sample 4999"),
    ])
    def test_simulate_bad_arguments_exit_code(self, tmp_path, capsys, argv, message):
        scripts = {"script": "1.0,keystroke,0.02,0.7", "nan_start": "nan,keystroke,0.02,0.7",
                   "inf_start": "inf,keystroke,0.02,0.7", "nan_travel": "1.0,keystroke,nan,0.7",
                   "nan_duration": "1.0,keystroke,0.02,nan",
                   "after_end": "1.0,keystroke,0.02,0.7\n10.0,keystroke,0.02,0.7",
                   "cut": "4.8,mouse_move,0.03,0.6"}
        paths = {name: tmp_path / f"{name}.txt" for name in scripts}
        for name, line in scripts.items():
            paths[name].write_text(line + "\n")
        out = tmp_path / "o"
        argv = ["--out", str(out), "simulate", *(arg.format(**paths) for arg in argv)]
        if message.startswith("error: "):   # main's refusal, not the parser's
            assert self.run(*argv) == 2
            assert capsys.readouterr().err == message.format(**paths) + "\n"
        else:
            flag, what = message.split(" ", 1)
            refused_by_parser(capsys, argv, "simulate", f"argument {flag}: {what}")
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

    def test_simulate_short_jittered_gesture(self, tmp_path):
        # a 20-sample keystroke's jitter keeps the hand between the antennas
        script = tmp_path / "script.txt"
        script.write_text("1.0,keystroke,0.02,0.019\n")
        out = tmp_path / "s"
        assert self.run("--out", str(out), "simulate", "--script", str(script)) == 0
        assert io.read_annotations(out / "trace.ann") == [Annotation(1000, 1019, "keystroke")]

    def test_simulate_oversized_trace_exit_code(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"simulation": {"fs": 1e12}}')
        code = self.run("--config", str(config), "--out", str(tmp_path / "o"), "simulate")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: trace of 36000000000000 samples x 30 subcarriers exceeds "
            "the limit of 1073741824 samples\n"
        )

    def test_simulate_keystroke_count_refused_before_its_script(self, tmp_path, capsys):
        # 10**8 keystrokes are a 2e8 s trace: their script alone would take
        # minutes and tens of GB to build before the sample limit refused it
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = self.run("--out", str(out), "simulate", "--keystrokes", "100000000")
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == (
            "error: trace of 200000002000 samples x 30 subcarriers exceeds "
            "the limit of 1073741824 samples\n"
        )
        assert peak < 1e6
        assert not out.exists()

    def test_sweep_plate_wider_than_the_link_refused(self, tmp_path, capsys):
        # the 2 m plate's dragged scatterers alone would be 188 x 400**2 x 3
        # floats (0.7 GB); the first plate to leave the link is refused
        # before any plate is built
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = self.run("--out", str(out), "sweep-plate", "--max-cm", "200")
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == (
            "error: plate of side 0.98 m leaves the space between the antennas\n"
        )
        assert peak < 1e6
        assert not out.exists()

    def test_sweep_plate_table(self, tmp_path):
        out = tmp_path / "sweep"
        code = self.run("--out", str(out), "sweep-plate", "--min-cm", "2", "--max-cm", "5")
        assert code == 0
        lines = (out / "plate_sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "side_m,peak_to_peak"
        assert len(lines) == 5

    def test_sweep_plate_reads_no_seed(self, tmp_path):
        # the sweep draws no random numbers, so --seed changes no byte
        outs = [tmp_path / "default", tmp_path / "seed5"]
        assert self.run("--out", str(outs[0]), "sweep-plate", "--max-cm", "4") == 0
        assert self.run("--seed", "5", "--out", str(outs[1]), "sweep-plate", "--max-cm", "4") == 0
        tables = [(out / "plate_sweep.csv").read_bytes() for out in outs]
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("argv, message", [
        (["--min-cm", "6", "--max-cm", "5"], "error: --min-cm must be <= --max-cm, got 6 > 5"),
        # the sweep has no repeats and no noise: whatever their value, the
        # flags that set them are unknown to the parser
        (["--repeats", "2"], "unrecognized arguments: --repeats 2"),
        (["--repeats", "-2"], "unrecognized arguments: --repeats -2"),
        (["--noise-std", "0.1"], "unrecognized arguments: --noise-std 0.1"),
        (["--noise-std", "nan"], "unrecognized arguments: --noise-std nan"),
        (["--noise-std", "inf"], "unrecognized arguments: --noise-std inf"),
        (["--min-cm", "0"], "--min-cm must be >= 1, got 0"),
        (["--max-cm", "0"], "--max-cm must be >= 1, got 0"),
    ])
    def test_sweep_plate_bad_arguments_exit_code(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        argv = ["--out", str(out), "sweep-plate", *argv]
        if message.startswith("error: "):   # main's refusal, not the parser's
            assert self.run(*argv) == 2
            assert capsys.readouterr().err == message + "\n"
        elif message.startswith("unrecognized"):   # the top-level parser's
            refused_by_parser(capsys, argv, None, message)
        else:
            flag, what = message.split(" ", 1)
            refused_by_parser(capsys, argv, "sweep-plate", f"argument {flag}: {what}")
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

    def test_plotdata_filter_response_below_nyquist(self, tmp_path):
        # at fs 150 Hz the grid ends at 0.45 fs, not at 100 Hz
        config = tmp_path / "config.json"
        config.write_text('{"simulation": {"fs": 150.0}}')
        out = tmp_path / "plot"
        assert self.run("--config", str(config), "--out", str(out),
                        "plotdata", "--kind", "filter-response") == 0
        rows = (out / "filter_response.csv").read_text().strip().splitlines()[1:]
        freqs = np.array([float(line.split(",")[0]) for line in rows])
        assert len(freqs) == 200 and np.all(np.diff(freqs) > 0)
        assert freqs[-1] == pytest.approx(67.5) and freqs[0] == pytest.approx(0.0675)

    def test_config_geometry_reaches_simulate_and_sweep_plate(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"geometry": {"antenna_distance": 1.4, "wavelength": 0.1, '
                          '"rest_depth": 0.65}}')
        geometry = FresnelGeometry(1.4, 0.1, 0.65)
        script = tmp_path / "script.txt"
        script.write_text("1.0,keystroke,0.02,0.7\n")
        out = tmp_path / "o"
        assert self.run("--config", str(config), "--out", str(out),
                        "simulate", "--script", str(script)) == 0
        # the 4-field line rests half way between the antennas, rest_depth below
        defaults = PipelineConfig().simulation
        gesture = GestureModel(GestureKind.KEYSTROKE, [0.7, 0.0, -0.65],
                               jitter_std=DEFAULT_GESTURE_JITTER_STD)
        want = simulate_trace(
            ChannelModel(geometry, noise_std=defaults.noise_std, rng_seed=1),
            [(1.0, gesture)], 2.7, reflection_amplitude=defaults.reflection_amplitude)
        assert np.array_equal(io.read_trace(out / "trace.csv").samples, want.samples)

        assert self.run("--config", str(config), "--out", str(out), "sweep-plate",
                        "--min-cm", "2", "--max-cm", "4") == 0
        rows = (out / "plate_sweep.csv").read_text().strip().splitlines()[1:]
        got = [tuple(map(float, line.split(","))) for line in rows]
        assert got == simulate_plate_sweep(geometry, [0.02, 0.03, 0.04])
        assert got != simulate_plate_sweep(FresnelGeometry(), [0.02, 0.03, 0.04])

    def test_negative_seed_flag_exit_code(self, tmp_path, capsys):
        out = tmp_path / "o"
        refused_by_parser(capsys, ["--seed", "-1", "--out", str(out), "simulate"], None,
                          "argument --seed: must be >= 0, got -1")
        assert not out.exists()

    def test_plotdata_subcarrier_variance(self, tmp_path):
        out = tmp_path / "pv"
        assert self.run("--out", str(out), "simulate", "--keystrokes", "2") == 0
        assert self.run(
            "--out", str(out), "plotdata", "--kind", "subcarrier-variance",
            "--artifact", str(out / "trace.csv"),
        ) == 0
        rows = (out / "subcarrier_variance.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == 30

    @pytest.mark.parametrize("kind", ["subcarrier-variance"])
    def test_plotdata_without_artifact_exit_code(self, tmp_path, capsys, kind):
        out = tmp_path / "o"
        assert self.run("--out", str(out), "plotdata", "--kind", kind) == 2
        assert capsys.readouterr().err == f"error: --kind {kind} needs --artifact\n"
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
        """A config that sets a dropped knob exits 2 naming the key."""
        path = tmp_path / "trace.csv"
        io.write_trace(path, random_trace(n=200))
        cfg = tmp_path / "dropped.json"
        for key, doc in [("segmenter.step", '{"segmenter": {"step": 2}}'),
                         ("hmm.method", '{"hmm": {"method": "likelihood"}}')]:
            cfg.write_text(doc)
            code = self.run("--config", str(cfg), "--out", str(tmp_path / "o"),
                            "pipeline", "--trace", str(path))
            assert code == 2
            assert capsys.readouterr().err == f"error: {cfg}: unknown config key {key}\n"

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

    def test_evaluate_fewest_segments_has_both_classes(self, tmp_path):
        # ten segments, one per fold, five of each class
        out = tmp_path / "eval"
        assert self.run(
            "--out", str(out), "evaluate", "--traces", "1", "--segments", "10",
            "--behavior-sequences", "1",
        ) == 0
        doc = json.loads((out / "report.json").read_text())
        assert np.sum(doc["metrics"]["gesture_cv"]["knn"]["confusion"], axis=1).tolist() == [5, 5]

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
        top = " and <= 1000" if flag == "--behavior-sequences" else ""
        refused_by_parser(capsys, ["--out", str(out), "evaluate", flag, value], "evaluate",
                          f"argument {flag}: must be >= 1{top}, got {value}")
        assert not out.exists()

    def test_evaluate_segments_below_folds_exit_code(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert self.run("--out", str(out), "evaluate", "--traces", "1", "--segments", "5",
                        "--behavior-sequences", "1") == 2
        assert capsys.readouterr().err == (
            "error: --segments must be at least the 10 cross-validation folds, got 5\n")
        assert not out.exists()

    def test_evaluate_stage_failure_reported_with_name(self, tmp_path, capsys):
        # the files of other commands in its --out stay
        out = tmp_path / "o"
        out.mkdir()
        (out / "segments.csv").write_text("from segment\n")
        with mock.patch("desksense.pipeline.generate_segmentation_corpus",
                        side_effect=ValueError("no traces today")):
            code = self.run("--out", str(out), "evaluate", "--traces", "1", "--segments", "10",
                            "--behavior-sequences", "1")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "evaluate failed at stage 'segmentation_study': no traces today\n"
        doc = json.loads((out / "report.json").read_text())
        assert doc["metrics"]["failed_stage"] == "segmentation_study"
        assert (out / "segments.csv").read_text() == "from segment\n"

    def test_pipeline_stage_failure_reported_with_name(self, tmp_path, capsys):
        # an all-zero trace has no informative subcarrier: the failing stage
        # is named and the partial report is still written
        trace = CsiTrace(fs=1000.0, samples=np.zeros((3, 2000), dtype=np.complex64))
        path = tmp_path / "zero.csv"
        io.write_trace(path, trace)
        rdir = tmp_path / "zr"
        code = self.run("--out", str(rdir), "pipeline", "--trace", str(path))
        assert code == 1
        err = capsys.readouterr().err
        assert "select_subcarrier" in err
        doc = json.loads((rdir / "report.json").read_text())
        assert doc["metrics"]["failed_stage"] == "select_subcarrier"

    def test_interrupted_stage_is_no_stage_failure(self, tmp_path, config):
        # Ctrl-C in a stage stops the run as it came, with no partial report
        trace = random_trace(n=2000)
        path = tmp_path / "trace.csv"
        io.write_trace(path, trace)
        out = tmp_path / "o"
        with mock.patch("desksense.pipeline.segment", side_effect=KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                run_pipeline(config, trace)
            with pytest.raises(KeyboardInterrupt):
                self.run("--out", str(out), "pipeline", "--trace", str(path))
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("fs, scale, stage, written", [
        (1000.0, 0.0, "select_subcarrier", []),    # all zero: no informative subcarrier
        (20.0, 1.0, "segment", ["filtered.csv"]),  # the segmenter's windows are too short
    ])
    def test_failed_pipeline_keeps_no_earlier_artifacts(self, tmp_path, capsys, fs, scale,
                                                        stage, written):
        # an earlier run's filtered.csv and segments.csv are replaced by this
        # run's, or removed if this run did not get to write them
        samples = (scale * np.random.default_rng(0).normal(size=(3, 400))).astype(np.complex64)
        path = tmp_path / "trace.csv"
        io.write_trace(path, CsiTrace(fs=fs, samples=samples))
        out = tmp_path / "o"
        out.mkdir()
        for name in ("filtered.csv", "segments.csv", "nor.csv"):
            (out / name).write_text("earlier run\n")
        assert self.run("--out", str(out), "pipeline", "--trace", str(path)) == 1
        assert f"failed at stage {stage!r}" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == sorted(["nor.csv", "report.json",
                                                                *written])
        for name in written:
            assert (out / name).read_text() != "earlier run\n"

    def test_pipeline_empty_trace_fails_at_select_subcarrier(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        io.write_trace(path, CsiTrace(fs=1000.0, samples=np.zeros((2, 0), dtype=np.complex64)))
        assert io.read_trace(path).samples.shape == (2, 0)
        rdir = tmp_path / "er"
        assert self.run("--out", str(rdir), "pipeline", "--trace", str(path)) == 1
        assert "select_subcarrier" in capsys.readouterr().err
        doc = json.loads((rdir / "report.json").read_text())
        assert doc["metrics"]["failed_stage"] == "select_subcarrier"

    def test_plotdata_subcarrier_variance_empty_trace_exit_code(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        io.write_trace(path, CsiTrace(fs=1000.0, samples=np.zeros((2, 0), dtype=np.complex64)))
        out = tmp_path / "pv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = self.run("--out", str(out), "plotdata", "--kind", "subcarrier-variance",
                            "--artifact", str(path))
        assert code == 2
        assert capsys.readouterr().err == "error: trace is empty\n"
        assert caught == []
        assert not (out / "subcarrier_variance.csv").exists()

    CONFUSION_HEADER = "true,predicted_typing,predicted_mouse"

    @pytest.mark.parametrize("rows, message, line", [   # line None: the table as a whole
        ([CONFUSION_HEADER, "typing,4,x", "mouse,1,5"], "could not convert string to float: 'x'", 2),
        ([CONFUSION_HEADER, "typing,4,1", "mouse,1,5", "other,2,2"],
         "expected a 'typing' row, then a 'mouse' row, got 'other'", 4),
        ([CONFUSION_HEADER, "typing,4,nan", "mouse,1,5"], "confusion counts must be finite", None),
        ([CONFUSION_HEADER, "mouse,4,96", "typing,99,1"],
         "expected a 'typing' row, then a 'mouse' row, got 'mouse'", 2),
        ([CONFUSION_HEADER, "typing,99,1,7", "mouse,4,96"], "expected 3 fields, got 4", 2),
        (["oops", "typing,99,1", "mouse,4,96"],
         f"expected header {CONFUSION_HEADER!r}, got 'oops'", 1),
        ([CONFUSION_HEADER, "typing,2.5,1e-3", "mouse,1,5"], "count '2.5' is not a whole number", 2),
        ([CONFUSION_HEADER, "typing,4,1", "mouse,1e-3,5"],
         "count '1e-3' is not a whole number", 3),
    ])
    def test_train_behavior_bad_confusion_exit_code(self, tmp_path, capsys, rows, message, line):
        path = tmp_path / "cv_confusion.csv"
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "o"
        assert self.run("--out", str(out), "train-behavior", "--confusion", str(path)) == 2
        where = str(path) if line is None else f"{path}:{line}"
        assert capsys.readouterr().err == f"error: {where}: {message}\n"
        assert not (out / "behavior_models.json").exists()

    def test_train_behavior_whole_float_counts_accepted(self, tmp_path):
        path = tmp_path / "cv_confusion.csv"
        path.write_text(f"{self.CONFUSION_HEADER}\ntyping,4.0,1\nmouse,2e0,5.\n")
        assert io.read_confusion(path).tolist() == [[4, 1], [2, 5]]
        assert self.run("--out", str(tmp_path / "o"), "train-behavior", "--confusion", str(path),
                        "--sequences", "2", "--length", "10") == 0

    @pytest.mark.parametrize("flag, value", [
        ("--sequences", "0"), ("--length", "0"), ("--length", "-3"),
    ])
    def test_train_behavior_sizes_below_one_exit_code(self, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        top = " and <= 1000" if flag == "--sequences" else ""
        argv = ["--out", str(out), "train-behavior", "--confusion",
                str(tmp_path / "cv_confusion.csv"), flag, value]
        refused_by_parser(capsys, argv, "train-behavior",
                          f"argument {flag}: must be >= 1{top}, got {value}")
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["train-behavior", "--sequences", "1001", "--length", "1"], "--sequences"),
        (["evaluate", "--traces", "1", "--segments", "10", "--behavior-sequences", "1001"],
         "--behavior-sequences"),
    ], ids=["train-behavior", "evaluate"])
    def test_more_sequences_than_seeds_exit_code(self, tmp_path, capsys, argv, flag):
        path = tmp_path / "cv_confusion.csv"
        io.write_confusion(path, np.array([[18, 2], [3, 17]]))
        out = tmp_path / "o"
        confusion = ["--confusion", str(path)] if argv[0] == "train-behavior" else []
        refused_by_parser(capsys, ["--out", str(out), *argv, *confusion], argv[0],
                          f"argument {flag}: must be >= 1 and <= 1000, got 1001")
        assert not out.exists()

    @pytest.mark.parametrize("body", ["", "\n", "\n# no rows yet\n  \n"])
    def test_train_behavior_header_only_confusion(self, tmp_path, capsys, body):
        path = tmp_path / "cv_confusion.csv"
        path.write_text("true,predicted_typing,predicted_mouse" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = self.run("--out", str(tmp_path / "o"), "train-behavior",
                            "--confusion", str(path))
        assert code == 2
        assert (capsys.readouterr().err
                == f"error: {path}: expected a 'typing' row, then a 'mouse' row, got 0 rows\n")

    def test_train_behavior_matches_behavior_study(self, tmp_path):
        # the CLI and the evaluation study train through one function
        confusion = [[18, 2], [3, 17]]
        path = tmp_path / "cv_confusion.csv"
        io.write_confusion(path, np.array(confusion))
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
        assert capsys.readouterr().err == "error: --behavior-models needs --gesture-model\n"
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

    @pytest.mark.parametrize("case", [
        "segment", "pipeline", "featurize", "train-gesture-2-rows", "train-gesture-1-class",
        "train-behavior", "featurize-2-samples",
    ])
    def test_refusal_leaves_no_out_directory(self, tmp_path, capsys, case):
        # inputs are read and checked before anything is written under --out
        bad = tmp_path / "bad.csv"
        bad.write_text("not a zip\n")
        trace = tmp_path / "trace.csv"
        io.write_trace(trace, random_trace(n=50))
        ann = tmp_path / "trace.ann"
        ann.write_text("30,31,mouse_move\n")
        rows = {"train-gesture-2-rows": ["0.5,1.2,0.7,typing", "0.6,1.3,0.8,mouse"],
                "train-gesture-1-class": [f"0.{i},1.2,0.7,typing" for i in range(1, 13)]}
        dataset = tmp_path / "dataset.csv"
        dataset.write_text("variance,slope_ratio,duration,label\n"
                           + "".join(row + "\n" for row in rows.get(case, [])))
        confusion = tmp_path / "cv_confusion.csv"
        confusion.write_text(self.CONFUSION_HEADER + "\n")
        argv, message = {
            "segment": (["segment", "--trace", bad], f"{bad}: File is not a zip file"),
            "pipeline": (["pipeline", "--trace", bad], f"{bad}: File is not a zip file"),
            "featurize": (["featurize", "--trace", bad, "--annotations", ann],
                          f"{bad}: File is not a zip file"),
            "train-gesture-2-rows": (["train-gesture", "--dataset", dataset],
                                     f"{dataset}: more folds than examples"),
            "train-gesture-1-class": (["train-gesture", "--dataset", dataset],
                                      f"{dataset}: dataset must contain both classes"),
            "train-behavior": (["train-behavior", "--confusion", confusion],
                               f"{confusion}: expected a 'typing' row, then a 'mouse' row, "
                               "got 0 rows"),
            "featurize-2-samples": (
                ["featurize", "--trace", trace, "--annotations", ann, "--use-annotations"],
                f"{ann}: annotation 1 (30-31) has 2 samples; featurizing needs at least 4"),
        }[case]
        out = tmp_path / "o"
        assert self.run("--out", str(out), *map(str, argv)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_featurize_needs_annotations(self, tmp_path, capsys):
        # without annotations no detection has a label, and the dataset is
        # always empty
        trace = tmp_path / "trace.csv"
        io.write_trace(trace, random_trace(n=50))
        out = tmp_path / "o"
        refused_by_parser(capsys, ["--out", str(out), "featurize", "--trace", str(trace)],
                          "featurize", "the following arguments are required: --annotations")
        assert not out.exists()

    @pytest.mark.parametrize("use_annotations", [True, False])
    def test_featurize_empty_annotations(self, tmp_path, capsys, use_annotations):
        trace = tmp_path / "trace.csv"
        io.write_trace(trace, random_trace(n=50))
        ann = tmp_path / "trace.ann"
        ann.write_text("")
        out = tmp_path / "o"
        assert self.run("--out", str(out), "featurize", "--trace", str(trace),
                        "--annotations", str(ann),
                        *(["--use-annotations"] if use_annotations else [])) == 0
        assert (out / "dataset.csv").read_text() == "variance,slope_ratio,duration,label\n"
        assert capsys.readouterr().out == f"wrote 0 labeled examples to {out / 'dataset.csv'}\n"

    def test_every_number_flag_checks_its_range(self):
        # a flag's own range is checked where the parser converts its text,
        # so a new int or float flag cannot skip the check
        converter = _in_range(int, 0).__code__
        checked = set()
        for parser in [build_parser(), *subcommand_parsers().values()]:
            for action in parser._actions:
                default = action.default
                number = action.type in (int, float) or (
                    isinstance(default, (int, float)) and not isinstance(default, bool))
                ranged = getattr(action.type, "__code__", None) is converter
                assert ranged or not number, action.dest
                if ranged:
                    checked.add(action.option_strings[0])
        assert checked == {"--seed", "--keystrokes", "--duration", "--sequences", "--length",
                           "--traces", "--segments", "--behavior-sequences", "--min-cm",
                           "--max-cm"}


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
    "confusion": (lambda p: io.write_confusion(p, np.array([[9, 1], [2, 8]])),
                  io.read_confusion),
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


# Valid files of the hand-written formats, as lines: annotations, datasets,
# gesture scripts and confusion tables.

def joined(*parts):
    return st.tuples(*parts).map(lambda fields: ",".join(map(str, fields)))


COUNTS = st.integers(0, 10_000)
RECORD_LINES = {   # kind: the lines of a valid file
    "annotations": st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**3),
                  st.sampled_from([kind.value for kind in GestureKind]))
        .map(lambda a: f"{a[0]},{a[0] + a[1]},{a[2]}"), min_size=1, max_size=5),
    "dataset": st.lists(
        joined(st.floats(0, 1e6), st.floats(1, math.inf), st.floats(1e-3, 10),
               st.sampled_from(["typing", "mouse", "keystroke", "mouse_move"])), max_size=5)
    .map(lambda rows: ["variance,slope_ratio,duration,label", *rows]),
    "script": st.lists(
        st.one_of(
            joined(st.floats(0, 100), st.sampled_from(["keystroke", "mouse_move"]),
                   st.floats(1e-3, 0.1), st.floats(0.05, 2)),
            joined(st.floats(0, 100), st.sampled_from(["keystroke", "mouse_move"]),
                   st.floats(1e-3, 0.1), st.floats(0.05, 2),
                   *[st.floats(-1, 1)] * 3)), min_size=1, max_size=5),
    "confusion": st.tuples(joined(st.just("typing"), COUNTS, COUNTS),
                           joined(st.just("mouse"), COUNTS, COUNTS))
    .map(lambda rows: ["true,predicted_typing,predicted_mouse", *rows]),
}
RECORD_READERS = {   # kind: (read a file into comparable records, a bad line of its width)
    "annotations": (io.read_annotations, "x,1,keystroke"),
    "dataset": (io.read_dataset, "x,1,1,typing"),
    "script": (lambda p: [(t, g.kind, g.rest_pos.tolist(), g.travel, g.duration)
                          for t, g in parse_script(p, PipelineConfig())],
               "x,keystroke,0.02,0.7"),
    "confusion": (lambda p: io.read_confusion(p).tolist(), "x,1,1"),
}
FILLERS = st.lists(st.sampled_from(["", "  ", "\t", "#", "# a comment", "  # one, two, three"]),
                   max_size=2)


@st.composite
def laid_out(draw, lines):
    """lines with blank and comment lines between them and spaces around
    their fields."""
    pad = st.sampled_from(["", " ", "  ", "\t"])
    out = draw(FILLERS)
    for line in lines:
        out.append(",".join(draw(pad) + field + draw(pad) for field in line.split(",")))
        out += draw(FILLERS)
    return out


class TestReaderFuzz:
    @pytest.mark.parametrize("kind", list(RECORD_LINES))
    @settings(max_examples=100)
    @given(data=st.data())
    def test_layout_keeps_the_records_and_a_bad_line_is_named(self, kind, data):
        read, bad_width = RECORD_READERS[kind]
        lines = data.draw(RECORD_LINES[kind], label="lines")
        messy = data.draw(laid_out(lines), label="laid out")
        with tempfile.TemporaryDirectory() as d:
            clean, path = Path(d) / "clean", Path(d) / "file"
            clean.write_text("".join(line + "\n" for line in lines))
            path.write_text("".join(line + "\n" for line in messy))
            assert read(path) == read(clean)
            k = data.draw(st.integers(1, len(messy)), label="bad line")
            messy[k - 1] = data.draw(st.sampled_from(["?", "1,2,3,4,5", bad_width]))
            path.write_text("".join(line + "\n" for line in messy))
            with pytest.raises(ValueError) as raised:
                read(path)
            assert str(raised.value).startswith(f"{path}:{k}: ")

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
