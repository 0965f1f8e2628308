import json
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desksense import io
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
        examples = [
            LabeledExample(FeatureVector(1.0 + 0.1 * i, 1.0 + 0.2 * i, 0.5), GestureLabel(i % 2))
            for i in range(10)
        ]
        probe = FeatureVector(1.33, 1.77, 0.5)
        for kind in ("knn", "gaussian_nb"):
            model = fit(kind, examples)
            path = tmp_path / f"{kind}.json"
            io.write_classifier(path, model)
            back = io.read_classifier(path)
            assert back.predict(probe) is model.predict(probe)
            np.testing.assert_array_equal(back.standardizer.mean, model.standardizer.mean)

    def test_behavior_models(self, tmp_path):
        models = {
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
# Tiny blocks put a block boundary inside every table the tests draw.
BLOCK_ROWS = st.sampled_from([1, 2, 3, 7, io._BLOCK_ROWS])


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
    @given(trace=traces(), block_rows=BLOCK_ROWS)
    def test_trace_bytes(self, trace, block_rows):
        with tempfile.TemporaryDirectory() as d:
            with mock.patch.object(io, "_BLOCK_ROWS", block_rows):
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
    @given(data=st.data(), n=ROW_COUNTS, fs=SAMPLE_RATES, block_rows=BLOCK_ROWS,
           subcarrier=st.integers(0, 63))
    def test_series_bytes(self, data, n, fs, block_rows, subcarrier):
        values = special_floats(data.draw, (n,))
        series = AmplitudeSeries(fs=fs, values=values, source_subcarrier=subcarrier)
        with tempfile.TemporaryDirectory() as d:
            with mock.patch.object(io, "_BLOCK_ROWS", block_rows):
                io.write_series(Path(d) / "new.csv", series)
            oracle_write_series(Path(d) / "old.csv", series)
            assert (Path(d) / "new.csv").read_bytes() == (Path(d) / "old.csv").read_bytes()

    @settings(max_examples=30)
    @given(data=st.data(), n=ROW_COUNTS, block_rows=BLOCK_ROWS)
    def test_segment_tables_bytes(self, data, n, block_rows):
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
            with mock.patch.object(io, "_BLOCK_ROWS", block_rows):
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
    ])
    def test_bad_header_names_file_and_line(self, tmp_path, header, message):
        path = self.write(tmp_path, header)
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: ") + ".*" + re.escape(message)):
            io.read_trace(path)

    def test_bad_header_pipeline_exit_code(self, tmp_path, capsys):
        path = self.write(tmp_path, "# subcarriers=1")
        assert main(["--out", str(tmp_path / "o"), "pipeline", "--trace", str(path)]) == 2
        assert f"{path}:1:" in capsys.readouterr().err


class TestModelFiles:
    @pytest.mark.parametrize("doc, message", [
        ({"kind": "knn"}, "missing key 'standardizer'"),
        ({"kind": "knn", "standardizer": {"mean": [0, 0, 0], "std": [1, 1, 1]}},
         "missing key 'k'"),
        ([], "list indices"),
        ("{not json", "Expecting property name"),
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
        code = main(["--out", str(tmp_path / "o"), "pipeline", "--trace", str(trace),
                     "--behavior-models", str(models)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {models}: " in err and message in err


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
