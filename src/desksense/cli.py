"""Command-line interface tying the pipeline stages together.

Subcommands: simulate, segment, featurize, train-gesture, train-behavior,
evaluate, sweep-plate, plotdata, pipeline.  Exit codes: 0 success, 1
runtime failure, 2 bad configuration or arguments.  The parser refuses a
flag outside its own range; main reports every other refusal as
`error: ...` and a failed stage as `<command> failed at stage ...`.
Nothing is written under --out before a result.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io
from .behavior import build_emission
from .channel import (DEFAULT_GESTURE_JITTER_STD, CsiTrace, GestureKind, GestureModel,
                      simulate_plate_sweep)
from .classify import (MIN_SEGMENT_SAMPLES, GestureLabel, LabeledExample, cross_validate,
                       extract_features, fit)
from .config import PipelineConfig, load_config
from .corpus import (keystroke_burst_script, match_segments, segment_trace,
                     segments_from_annotations, simulate_script)
from .preprocess import analytic_gain, filtered_series, measured_gain, subcarrier_variances
from .pipeline import (SEED_STRIDE, StageError, evaluate_system, run_pipeline,
                       train_behavior_models)
from .segmentation import segment


def _script_number(text: str, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"field {name!r} is not valid: {text!r}") from None


def _scripted_gesture(config: PipelineConfig, fields) -> tuple[float, GestureModel]:
    """(start_s, gesture) of one script line; a 4-field line rests at the
    config's default position."""
    start = _script_number(fields[0], "start_s")
    if not 0 <= start < math.inf:
        raise ValueError(f"start_s must be >= 0 and finite, got {start!r}")
    try:
        kind = GestureKind(fields[1])
    except ValueError:
        raise ValueError(f"field 'kind' must be one of {[k.value for k in GestureKind]}, "
                         f"got {fields[1]!r}") from None
    travel = _script_number(fields[2], "travel_m")
    duration = _script_number(fields[3], "duration_s")
    if len(fields) == 7:
        rest = np.array([_script_number(v, name) for v, name in zip(fields[4:], "xyz")])
    else:
        rest = config.geometry.rest_pos
    return start, GestureModel(kind, rest, travel, duration,
                               jitter_std=DEFAULT_GESTURE_JITTER_STD)


def parse_script(path, config: PipelineConfig):
    """Gesture script: lines of `start_s,kind,travel_m,duration_s[,x,y,z]`."""
    return io.read_records(path, (4, 7), lambda fields: _scripted_gesture(config, fields))


def _load_config(args) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        config = replace(config, seeds=replace(config.seeds, simulation=args.seed))
    return config


def _in_range(kind, low, high=math.inf, above=False):
    """argparse type: a finite kind (int or float) >= low (> low if above)
    and <= high."""
    def convert(text: str):
        value = kind(text)
        if not ((low < value if above else low <= value) and value <= high and value < math.inf):
            top = f" and <= {high}" if high < math.inf else " and finite" if kind is float else ""
            raise argparse.ArgumentTypeError(f"must be {'>' if above else '>='} {low}{top}, "
                                             f"got {value}")
        return value
    convert.__name__ = kind.__name__   # a text that is no number: "invalid int value: 'x'"
    return convert


def cmd_simulate(args) -> int:
    if args.duration is not None and not args.script:
        raise ValueError("--duration needs --script")
    config = _load_config(args)
    if args.script:
        script = parse_script(args.script, config)
        if args.duration is not None:
            duration = args.duration
        else:
            duration = max(t + g.duration for t, g in script) + 1.0 if script else 5.0
    else:
        script, duration = keystroke_burst_script(config, count=args.keystrokes)
    trace = simulate_script(config, script, duration, config.seeds.simulation)
    io.write_trace(args.out / "trace.csv", trace)
    io.write_annotations(args.out / "trace.ann", trace.meta)
    print(f"wrote {args.out / 'trace.csv'} ({trace.subcarriers} subcarriers, "
          f"{trace.n_samples} samples) and {args.out / 'trace.ann'}")
    return 0


def _read_trace(args) -> CsiTrace:
    """The --trace file carrying the --annotations, if given, checked to be
    sorted, disjoint and inside the trace."""
    trace = io.read_trace(args.trace)
    if not args.annotations:
        return trace
    annotations = io.read_annotations(args.annotations)
    try:
        return CsiTrace(fs=trace.fs, samples=trace.samples, meta=annotations)
    except ValueError as exc:
        raise ValueError(f"{args.annotations}: {exc}") from None


def cmd_segment(args) -> int:
    config = _load_config(args)
    series = filtered_series(io.read_trace(args.trace), config.filter)
    result = segment(series, config.segmenter)
    io.write_nor(args.out / "nor.csv", result.nor1, result.nor2)
    io.write_segments(args.out / "segments.csv", result.segments)
    io.write_series(args.out / "filtered.csv", series)
    print(f"found {len(result.segments)} segments ({len(result.dropped)} below the span floor); "
          f"artifacts in {args.out}")
    return 0


def cmd_featurize(args) -> int:
    config = _load_config(args)
    trace = _read_trace(args)
    if args.use_annotations:
        for n, ann in enumerate(trace.meta, 1):
            k = ann.end_idx - ann.start_idx + 1
            if k < MIN_SEGMENT_SAMPLES:
                raise ValueError(f"{args.annotations}: annotation {n} ({ann.start_idx}-"
                                 f"{ann.end_idx}) has {k} samples; featurizing needs at least "
                                 f"{MIN_SEGMENT_SAMPLES}")
        labeled = segments_from_annotations(config, trace)
    else:
        pairs, _ = match_segments(segment_trace(config, trace), trace.meta)
        labeled = [(det, GestureLabel.from_name(ann.label)) for ann, det in pairs]
    dataset = [LabeledExample(features=extract_features(seg), label=l) for seg, l in labeled]
    io.write_dataset(args.out / "dataset.csv", dataset)
    print(f"wrote {len(dataset)} labeled examples to {args.out / 'dataset.csv'}")
    return 0


def cmd_train_gesture(args) -> int:
    config = _load_config(args)
    dataset = io.read_dataset(args.dataset)
    try:
        result = cross_validate(
            config.classifier.kind,
            dataset,
            folds=config.classifier.folds,
            seed=config.seeds.cross_validation,
            k=config.classifier.k,
        )
        model = fit(config.classifier.kind, dataset, k=config.classifier.k)
    except ValueError as exc:
        raise ValueError(f"{args.dataset}: {exc}") from None
    io.write_classifier(args.out / "gesture_model.json", model)
    io.write_confusion(args.out / "cv_confusion.csv", result.confusion)
    print(result.summary())
    print(f"model saved to {args.out / 'gesture_model.json'}")
    return 0


def cmd_train_behavior(args) -> int:
    config = _load_config(args)
    counts = io.read_confusion(args.confusion)
    try:
        B = build_emission(counts)
    except ValueError as exc:
        raise ValueError(f"{args.confusion}: {exc}") from None
    models = train_behavior_models(config, B, args.sequences, args.length)
    io.write_behavior_models(args.out / "behavior_models.json", models)
    print(f"trained {len(models)} behavior models -> {args.out / 'behavior_models.json'}")
    return 0


def _write_report(out: Path, report, artifacts: dict) -> None:
    """report.json, and the filtered series and segments among artifacts."""
    io.atomic_write_text(out / "report.json", report.to_json() + "\n")
    if "series" in artifacts:
        io.write_series(out / "filtered.csv", artifacts["series"])
    if "segments" in artifacts:
        io.write_segments(out / "segments.csv", artifacts["segments"])


def cmd_evaluate(args) -> int:
    config = _load_config(args)
    if args.segments < config.classifier.folds:
        raise ValueError(f"--segments must be at least the {config.classifier.folds} "
                         f"cross-validation folds, got {args.segments}")
    report = evaluate_system(
        config,
        n_traces=args.traces,
        n_gesture_segments=args.segments,
        n_behavior_test=args.behavior_sequences,
    )
    _write_report(args.out, report, {})
    print(report.metrics["behavior"]["table"])
    seg = report.metrics["segmentation"]
    precision, boundary = seg["precision"], seg["mean_boundary_error_s"]
    print(f"segmentation: recall {seg['recall']:.3f} "
          f"precision {'n/a' if precision is None else f'{precision:.3f}'} "
          f"boundary {'n/a' if boundary is None else f'{boundary * 1000:.0f} ms'}")
    for kind, res in report.metrics["gesture_cv"].items():
        print(f"gesture cv [{kind}]: mean accuracy {res['mean_accuracy']:.3f}")
    print(f"behavior macro accuracy: {report.metrics['behavior']['macro_accuracy']:.3f}")
    print(f"report: {args.out / 'report.json'}")
    return 0


def cmd_sweep_plate(args) -> int:
    if args.min_cm > args.max_cm:
        raise ValueError(f"--min-cm must be <= --max-cm, got {args.min_cm} > {args.max_cm}")
    config = _load_config(args)
    sides = [s / 100.0 for s in range(args.min_cm, args.max_cm + 1)]
    rows = simulate_plate_sweep(config.geometry, sides)
    io.write_table(args.out / "plate_sweep.csv", "side_m,peak_to_peak", list(zip(*rows)),
                   [io.FLOAT_FMT] * 2)
    print(f"wrote {args.out / 'plate_sweep.csv'} ({len(sides)} sizes)")
    return 0


def cmd_plotdata(args) -> int:
    if args.kind == "subcarrier-variance" and args.artifact is None:
        raise ValueError(f"--kind {args.kind} needs --artifact")
    config = _load_config(args)
    if args.kind == "filter-response":
        # three decades up to 100 Hz, or to 0.45 fs if lower: measured_gain needs f < fs/2
        top = min(100.0, 0.45 * config.simulation.fs)
        freqs = np.logspace(np.log10(top) - 3, np.log10(top), 200)
        spec = config.filter
        io.write_table(args.out / "filter_response.csv", "freq_hz,gain_measured,gain_analytic",
                       [freqs, [measured_gain(f, config.simulation.fs, spec) for f in freqs],
                        [analytic_gain(f, spec) for f in freqs]], [io.FLOAT_FMT] * 3)
        print(f"wrote {args.out / 'filter_response.csv'}")
        return 0
    variances = subcarrier_variances(io.read_trace(args.artifact))
    io.write_table(args.out / "subcarrier_variance.csv", "subcarrier,variance",
                   [np.arange(len(variances)), variances], ["%d", io.FLOAT_FMT])
    print(f"wrote {args.out / 'subcarrier_variance.csv'}")
    return 0


def cmd_pipeline(args) -> int:
    if args.behavior_models and not args.gesture_model:
        raise ValueError("--behavior-models needs --gesture-model")
    config = _load_config(args)
    trace = _read_trace(args)
    gesture_model = io.read_classifier(args.gesture_model) if args.gesture_model else None
    behavior_models = (
        io.read_behavior_models(args.behavior_models) if args.behavior_models else None
    )
    report, artifacts = run_pipeline(config, trace, gesture_model, behavior_models)
    _write_report(args.out, report, artifacts)
    print(f"pipeline report: {args.out / 'report.json'} "
          f"({report.metrics['segments_found']} segments)")
    return 0


_TRACE_HELP = "trace file: the .npz archive that simulate writes, whatever its name"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="desksense",
        description="WiFi-CSI micro-gesture and behavior analysis pipeline",
    )
    parser.add_argument("--config", help="JSON config file (defaults used if omitted)")
    parser.add_argument("--seed", type=_in_range(int, 0), help="override the simulation seed")
    parser.add_argument("--out", type=Path, default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a CSI trace from a gesture script: "
                       "trace.csv, an .npz archive, and trace.ann")
    p.add_argument("--script", help="gesture script file")
    p.add_argument("--keystrokes", type=_in_range(int, 0), default=17,
                   help="keystroke count for the built-in script (ignored with --script)")
    p.add_argument("--duration", type=_in_range(float, 0, above=True),
                   help="trace duration override (s)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("segment", help="segment a trace file")
    p.add_argument("--trace", required=True, help=_TRACE_HELP)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("featurize", help="extract per-segment features")
    p.add_argument("--trace", required=True, help=_TRACE_HELP)
    p.add_argument("--annotations", required=True)
    p.add_argument("--use-annotations", action="store_true",
                   help="slice segments from the annotations instead of detecting")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train-gesture", help="cross-validate and fit the gesture classifier")
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_train_gesture)

    p = sub.add_parser("train-behavior", help="fit per-behavior HMMs")
    p.add_argument("--confusion", required=True,
                   help="cv_confusion.csv from train-gesture")
    p.add_argument("--sequences", type=_in_range(int, 1, SEED_STRIDE), default=50)
    p.add_argument("--length", type=_in_range(int, 1), default=100)
    p.set_defaults(func=cmd_train_behavior)

    p = sub.add_parser("evaluate", help="run the synthetic evaluation studies")
    p.add_argument("--traces", type=_in_range(int, 1), default=100)
    p.add_argument("--segments", type=_in_range(int, 1), default=400)
    p.add_argument("--behavior-sequences", type=_in_range(int, 1, SEED_STRIDE), default=100)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep-plate", help="plate-size channel response sweep")
    p.add_argument("--min-cm", type=_in_range(int, 1), default=2)
    p.add_argument("--max-cm", type=_in_range(int, 1), default=12)
    p.set_defaults(func=cmd_sweep_plate)

    p = sub.add_parser("plotdata", help="emit plot-ready tables")
    p.add_argument("--kind", required=True,
                   choices=["filter-response", "subcarrier-variance"])
    p.add_argument("--artifact", help=f"input artifact, a {_TRACE_HELP}")
    p.set_defaults(func=cmd_plotdata)

    p = sub.add_parser("pipeline", help="full pipeline over one trace")
    p.add_argument("--trace", required=True, help=_TRACE_HELP)
    p.add_argument("--annotations")
    p.add_argument("--gesture-model")
    p.add_argument("--behavior-models")
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            return args.func(args)
        except StageError as exc:   # the partial report and artifacts, then exit 1
            if args.command == "pipeline":   # and no earlier run's artifacts beside them
                for name in ("filtered.csv", "segments.csv"):
                    (args.out / name).unlink(missing_ok=True)
            _write_report(args.out, exc.report, exc.artifacts)
            print(f"{args.command} failed at stage {exc.stage!r}: {exc.cause}", file=sys.stderr)
            return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


if __name__ == "__main__":
    sys.exit(main())
