"""Command-line interface tying the pipeline stages together.

Subcommands: simulate, segment, featurize, train-gesture, train-behavior,
evaluate, sweep-plate, plotdata, pipeline.  Exit codes: 0 success, 1
runtime failure, 2 bad configuration or arguments.
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
from .channel import CsiTrace, GestureKind, GestureModel, simulate_plate_sweep
from .classify import GestureLabel, LabeledExample, cross_validate, extract_features, fit
from .config import PipelineConfig, load_config
from .corpus import (keystroke_burst_script, match_segments, segment_trace,
                     segments_from_annotations, simulate_script)
from .preprocess import analytic_gain, filtered_series, measured_gain, subcarrier_variances
from .pipeline import StageError, evaluate_system, run_pipeline, train_behavior_models
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
        rest = np.array(
            [config.geometry.antenna_distance / 2, 0.0, -config.geometry.rest_depth]
        )
    return start, GestureModel(kind, rest, travel, duration,
                               jitter_std=config.simulation.gesture_jitter_std)


def parse_script(path, config: PipelineConfig):
    """Gesture script: lines of `start_s,kind,travel_m,duration_s[,x,y,z]`."""
    return io.read_records(path, (4, 7), lambda fields: _scripted_gesture(config, fields))


def _load_config(args) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        config = replace(config, seeds=replace(config.seeds, simulation=args.seed))
    config.validate()
    return config


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _usage_error(args, message: str) -> int:
    print(f"{args.command}: {message}", file=sys.stderr)
    return 2


def cmd_simulate(args) -> int:
    if args.keystrokes < 0:
        return _usage_error(args, f"--keystrokes must be >= 0, got {args.keystrokes}")
    if args.duration is not None:
        if not args.script:
            return _usage_error(args, "--duration needs --script")
        if not 0 < args.duration < math.inf:
            return _usage_error(args, f"--duration must be > 0 and finite, got {args.duration}")
    config = _load_config(args)
    if args.script:
        script = parse_script(args.script, config)
        if args.duration is not None:
            duration = args.duration
        else:
            duration = max(t + g.duration for t, g in script) + 1.0 if script else 5.0
    else:
        script, duration = keystroke_burst_script(config, count=args.keystrokes)
    out = _out_dir(args)
    trace = simulate_script(config, script, duration, config.seeds.simulation)
    io.write_trace(out / "trace.csv", trace)
    io.write_annotations(out / "trace.ann", trace.meta)
    print(f"wrote {out / 'trace.csv'} ({trace.subcarriers} subcarriers, "
          f"{trace.n_samples} samples) and {out / 'trace.ann'}")
    return 0


def _segment_tables(config, trace, out):
    """Filter and segment trace, writing nor.csv and segments.csv to out."""
    series = filtered_series(trace, config.filter)
    result = segment(series, config.segmenter)
    io.write_nor(out / "nor.csv", result.nor1, result.nor2)
    io.write_segments(out / "segments.csv", result.segments)
    return series, result


def _annotated(trace, annotations_path) -> CsiTrace:
    """trace carrying the annotations read from annotations_path, checked
    to be sorted, disjoint and inside the trace."""
    annotations = io.read_annotations(annotations_path)
    try:
        return CsiTrace(fs=trace.fs, samples=trace.samples, meta=annotations)
    except ValueError as exc:
        raise ValueError(f"{annotations_path}: {exc}") from None


def cmd_segment(args) -> int:
    config = _load_config(args)
    out = _out_dir(args)
    series, result = _segment_tables(config, io.read_trace(args.trace), out)
    io.write_series(out / "filtered.csv", series)
    print(f"found {len(result.segments)} segments ({len(result.dropped)} below the span floor); "
          f"artifacts in {out}")
    return 0


def cmd_featurize(args) -> int:
    config = _load_config(args)
    out = _out_dir(args)
    trace = io.read_trace(args.trace)
    if args.annotations:
        trace = _annotated(trace, args.annotations)
    if args.use_annotations:
        if not trace.meta:
            return _usage_error(args, "--use-annotations requires --annotations")
        labeled = segments_from_annotations(config, trace)
    else:
        pairs, _ = match_segments(segment_trace(config, trace), trace.meta)
        labeled = [(det, GestureLabel.from_name(ann.label)) for ann, det in pairs]
    dataset = [LabeledExample(features=extract_features(seg), label=l) for seg, l in labeled]
    io.write_dataset(out / "dataset.csv", dataset)
    print(f"wrote {len(dataset)} labeled examples to {out / 'dataset.csv'}")
    return 0


def cmd_train_gesture(args) -> int:
    config = _load_config(args)
    out = _out_dir(args)
    dataset = io.read_dataset(args.dataset)
    result = cross_validate(
        config.classifier.kind,
        dataset,
        folds=config.classifier.folds,
        seed=config.seeds.cross_validation,
        k=config.classifier.k,
    )
    model = fit(config.classifier.kind, dataset, k=config.classifier.k)
    io.write_classifier(out / "gesture_model.json", model)
    io.write_confusion(out / "cv_confusion.csv", result.confusion)
    print(result.summary())
    print(f"model saved to {out / 'gesture_model.json'}")
    return 0


def cmd_train_behavior(args) -> int:
    for flag, value in (("--sequences", args.sequences), ("--length", args.length)):
        if value < 1:
            return _usage_error(args, f"{flag} must be >= 1, got {value}")
    config = _load_config(args)
    out = _out_dir(args)
    counts = io.read_confusion(args.confusion)
    try:
        B = build_emission(counts)
    except ValueError as exc:
        raise ValueError(f"{args.confusion}: {exc}") from None
    models = train_behavior_models(config, B, args.sequences, args.length)
    io.write_behavior_models(out / "behavior_models.json", models)
    print(f"trained {len(models)} behavior models -> {out / 'behavior_models.json'}")
    return 0


def cmd_evaluate(args) -> int:
    for flag, value in (("--traces", args.traces), ("--segments", args.segments),
                        ("--behavior-sequences", args.behavior_sequences)):
        if value < 1:
            return _usage_error(args, f"{flag} must be >= 1, got {value}")
    config = _load_config(args)
    if args.segments < config.classifier.folds:
        return _usage_error(args, f"--segments must be at least the {config.classifier.folds} "
                                  f"cross-validation folds, got {args.segments}")
    out = _out_dir(args)
    try:
        report = evaluate_system(
            config,
            n_traces=args.traces,
            n_gesture_segments=args.segments,
            n_behavior_test=args.behavior_sequences,
        )
    except StageError as exc:
        io.atomic_write_text(out / "report.json", exc.report.to_json() + "\n")
        print(f"evaluate failed at stage {exc.stage!r}: {exc.cause}", file=sys.stderr)
        return 1
    io.atomic_write_text(out / "report.json", report.to_json() + "\n")
    print(report.metrics["behavior"]["table"])
    seg = report.metrics["segmentation"]
    precision, boundary = seg["precision"], seg["mean_boundary_error_s"]
    print(f"segmentation: recall {seg['recall']:.3f} "
          f"precision {'n/a' if precision is None else f'{precision:.3f}'} "
          f"boundary {'n/a' if boundary is None else f'{boundary * 1000:.0f} ms'}")
    for kind, res in report.metrics["gesture_cv"].items():
        print(f"gesture cv [{kind}]: mean accuracy {res['mean_accuracy']:.3f}")
    print(f"behavior macro accuracy: {report.metrics['behavior']['macro_accuracy']:.3f}")
    print(f"report: {out / 'report.json'}")
    return 0


def cmd_sweep_plate(args) -> int:
    if args.min_cm > args.max_cm:
        return _usage_error(args, f"--min-cm must be <= --max-cm, "
                                  f"got {args.min_cm} > {args.max_cm}")
    if args.repeats < 1:
        return _usage_error(args, f"--repeats must be >= 1, got {args.repeats}")
    if not 0 <= args.noise_std < math.inf:
        return _usage_error(args, f"--noise-std must be >= 0 and finite, got {args.noise_std}")
    config = _load_config(args)
    out = _out_dir(args)
    geometry = config.geometry.build()
    sides = [s / 100.0 for s in range(args.min_cm, args.max_cm + 1)]
    acc = np.zeros(len(sides))
    for r in range(args.repeats):
        rows = simulate_plate_sweep(
            geometry,
            sides,
            noise_std=args.noise_std,
            rng_seed=config.seeds.simulation + r,
        )
        acc += np.array([pp for _s, pp in rows])
    acc /= args.repeats
    io.write_table(out / "plate_sweep.csv", ["side_m", "peak_to_peak"], [sides, acc],
                   [io.FLOAT_FMT] * 2)
    print(f"wrote {out / 'plate_sweep.csv'} ({len(sides)} sizes, {args.repeats} repeats)")
    return 0


def cmd_plotdata(args) -> int:
    if args.kind in ("subcarrier-variance", "segments") and args.artifact is None:
        return _usage_error(args, f"--kind {args.kind} needs --artifact")
    config = _load_config(args)
    out = _out_dir(args)
    if args.kind == "filter-response":
        freqs = np.logspace(np.log10(0.1), np.log10(100.0), 200)
        spec = config.filter
        io.write_table(out / "filter_response.csv", ["freq_hz", "gain_measured", "gain_analytic"],
                       [freqs, [measured_gain(f, config.simulation.fs, spec) for f in freqs],
                        [analytic_gain(f, spec) for f in freqs]], [io.FLOAT_FMT] * 3)
        print(f"wrote {out / 'filter_response.csv'}")
        return 0
    if args.kind == "subcarrier-variance":
        variances = subcarrier_variances(io.read_trace(args.artifact))
        io.write_table(out / "subcarrier_variance.csv", ["subcarrier", "variance"],
                       [np.arange(len(variances)), variances], ["%d", io.FLOAT_FMT])
        print(f"wrote {out / 'subcarrier_variance.csv'}")
        return 0
    _segment_tables(config, io.read_trace(args.artifact), out)   # --kind segments
    print(f"wrote {out / 'nor.csv'} and {out / 'segments.csv'}")
    return 0


def _persist_pipeline_artifacts(out, report, artifacts) -> None:
    io.atomic_write_text(out / "report.json", report.to_json() + "\n")
    if "series" in artifacts:
        io.write_series(out / "filtered.csv", artifacts["series"])
    if "segments" in artifacts:
        io.write_segments(out / "segments.csv", artifacts["segments"])


def cmd_pipeline(args) -> int:
    if args.behavior_models and not args.gesture_model:
        return _usage_error(args, "--behavior-models needs --gesture-model")
    config = _load_config(args)
    out = _out_dir(args)
    trace = io.read_trace(args.trace)
    if args.annotations:
        trace = _annotated(trace, args.annotations)
    gesture_model = io.read_classifier(args.gesture_model) if args.gesture_model else None
    behavior_models = (
        io.read_behavior_models(args.behavior_models) if args.behavior_models else None
    )
    try:
        report, artifacts = run_pipeline(config, trace, gesture_model, behavior_models)
    except StageError as exc:
        _persist_pipeline_artifacts(out, exc.report, exc.artifacts)
        print(f"pipeline failed at stage {exc.stage!r}: {exc.cause}", file=sys.stderr)
        return 1
    _persist_pipeline_artifacts(out, report, artifacts)
    print(f"pipeline report: {out / 'report.json'} "
          f"({report.metrics['segments_found']} segments)")
    return 0


_TRACE_HELP = "trace file: the .npz archive that simulate writes, whatever its name"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="desksense",
        description="WiFi-CSI micro-gesture and behavior analysis pipeline",
    )
    parser.add_argument("--config", help="JSON config file (defaults used if omitted)")
    parser.add_argument("--seed", type=int, help="override the simulation seed")
    parser.add_argument("--out", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a CSI trace from a gesture script: "
                       "trace.csv, an .npz archive, and trace.ann")
    p.add_argument("--script", help="gesture script file")
    p.add_argument("--keystrokes", type=int, default=17,
                   help="keystroke count for the built-in script (ignored with --script)")
    p.add_argument("--duration", type=float, help="trace duration override (s)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("segment", help="segment a trace file")
    p.add_argument("--trace", required=True, help=_TRACE_HELP)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("featurize", help="extract per-segment features")
    p.add_argument("--trace", required=True, help=_TRACE_HELP)
    p.add_argument("--annotations")
    p.add_argument("--use-annotations", action="store_true",
                   help="slice segments from the annotations instead of detecting")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train-gesture", help="cross-validate and fit the gesture classifier")
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_train_gesture)

    p = sub.add_parser("train-behavior", help="fit per-behavior HMMs")
    p.add_argument("--confusion", required=True,
                   help="cv_confusion.csv from train-gesture")
    p.add_argument("--sequences", type=int, default=50)
    p.add_argument("--length", type=int, default=100)
    p.set_defaults(func=cmd_train_behavior)

    p = sub.add_parser("evaluate", help="run the synthetic evaluation studies")
    p.add_argument("--traces", type=int, default=100)
    p.add_argument("--segments", type=int, default=400)
    p.add_argument("--behavior-sequences", type=int, default=100)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep-plate", help="plate-size channel response sweep")
    p.add_argument("--min-cm", type=int, default=2)
    p.add_argument("--max-cm", type=int, default=12)
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--noise-std", type=float, default=0.0)
    p.set_defaults(func=cmd_sweep_plate)

    p = sub.add_parser("plotdata", help="emit plot-ready tables")
    p.add_argument("--kind", required=True,
                   choices=["filter-response", "subcarrier-variance", "segments"])
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
