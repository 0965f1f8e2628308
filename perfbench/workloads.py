"""The benchmark workloads.

Every workload is a closed loop with one client: the next operation starts
only when the previous one has returned.  A workload trains the models its
operation needs in prepare(), once and untimed, builds its inputs from the
workload seed in setup() (which the runner repeats to time it and which
keeps the inputs of the last repetition), performs one operation in op()
and validates that operation's output in check(), outside the timed and
traced region.  The program receives only the generated inputs.

Functions of desksense are looked up through their modules at call time so
that the traced run sees the tracer's wrappers.
"""
from __future__ import annotations

import contextlib
import io as stdio
import json
import shutil
import time
from pathlib import Path

import numpy as np

from desksense import classify, cli, corpus, io, pipeline
from desksense.config import PipelineConfig, SeedConfig

# Acceptance-suite floor every long_recording operation must meet.
DETECT_RECALL_FLOOR = 0.95


class GateError(Exception):
    """An operation's output is wrong."""


def derive_config(seed: int, stream: int) -> PipelineConfig:
    """Default configuration with seeds drawn from (stream, seed).

    Stream 0 serves --seed and stream 1 serves --holdout-seed, so a held-out
    seed never produces the inputs of a development seed.
    """
    state = np.random.SeedSequence([stream, seed]).generate_state(3)
    sim, cv, beh = (int(x) >> 1 for x in state)
    config = PipelineConfig(seeds=SeedConfig(simulation=sim, cross_validation=cv, behavior=beh))
    config.validate()
    return config


# Confusion counts like those of the default 400-segment gesture CV.  The
# behavior HMMs are fitted on this fixed table, so that Baum-Welch's
# iteration count does not depend on the seed.
MODEL_CONFUSION = np.array([[196, 4], [10, 190]])


def build_models(config: PipelineConfig):
    """Gesture classifier and behavior HMMs, as a user trains them before a run.

    The classifier is fitted on the gesture dataset of the size `desksense
    train` uses by default (400 segments).  Far smaller datasets can come out
    single-class for some seeds, and fitting then fails.
    """
    dataset = corpus.generate_gesture_dataset(config)
    gesture_model = classify.fit(config.classifier.kind, dataset, k=config.classifier.k)
    _macro, _confusion, behavior_models = pipeline.behavior_study(
        config, MODEL_CONFUSION, n_train=10, n_test=1
    )
    return gesture_model, behavior_models


def _floor(name: str, value: float, floor: float) -> None:
    if not value >= floor:
        raise GateError(f"{name} {value:.4f} is below the floor {floor}")


def _quiet_cli(argv: list[str]) -> None:
    """cli.main with its progress lines swallowed; a non-zero exit is a failure."""
    with contextlib.redirect_stdout(stdio.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise GateError(f"desksense {' '.join(argv)} exited with {code}")


class LongRecording:
    """run_pipeline over one long in-memory recording of random gestures."""

    name = "long_recording"
    n_gestures = 200

    def prepare(self, config: PipelineConfig, workdir: Path) -> None:
        self.gesture_model, self.behavior_models = build_models(config)

    def setup(self, config: PipelineConfig, workdir: Path) -> None:
        self.config = config
        self.trace = None   # release the previous repetition's trace first
        rng = np.random.default_rng(config.seeds.simulation)
        script, duration = corpus.random_gesture_script(config, rng, self.n_gestures)
        self.trace = corpus.simulate_script(
            config, script, duration, int(rng.integers(0, 2**31))
        )

    def describe(self) -> str:
        t = self.trace
        return (f"run_pipeline on a {t.n_samples / t.fs:.1f} s, {self.n_gestures}-gesture trace "
                f"({t.subcarriers} subcarriers x {t.n_samples} samples)")

    def op(self):
        t0 = time.perf_counter()
        report, _artifacts = pipeline.run_pipeline(
            self.config, self.trace, self.gesture_model, self.behavior_models
        )
        elapsed = time.perf_counter() - t0
        return {"trace_s_per_s": self.trace.n_samples / self.trace.fs / elapsed}, report

    def check(self, report):
        detection = report.metrics["detection"]
        quality = {
            "detect_recall": detection["recall"],
            "detect_precision": detection["precision"],
        }
        _floor("detect_recall", quality["detect_recall"], DETECT_RECALL_FLOOR)
        return report.comparable_dict(), quality


class TraceFiles:
    """The README's file-based flow: `simulate`, then `pipeline` on its files."""

    name = "trace_files"
    keystrokes = 17

    def prepare(self, config: PipelineConfig, workdir: Path) -> None:
        self.models = build_models(config)

    def setup(self, config: PipelineConfig, workdir: Path) -> None:
        self.config_path = workdir / "config.json"
        self.config_path.write_text(config.to_json())
        self.gesture_model_path = workdir / "gesture_model.json"
        self.behavior_models_path = workdir / "behavior_models.json"
        gesture_model, behavior_models = self.models
        io.write_classifier(self.gesture_model_path, gesture_model)
        io.write_behavior_models(self.behavior_models_path, behavior_models)
        self.out = workdir / "out"
        # Reference: the same trace and models through the library, in memory.
        script, duration = corpus.keystroke_burst_script(config, count=self.keystrokes)
        trace = corpus.simulate_script(config, script, duration, config.seeds.simulation)
        report, _ = pipeline.run_pipeline(
            config, trace,
            io.read_classifier(self.gesture_model_path),
            io.read_behavior_models(self.behavior_models_path),
        )
        self.expected = json.dumps(report.comparable_dict(), sort_keys=True)
        self.duration_s = trace.n_samples / trace.fs

    def describe(self) -> str:
        return (f"CLI simulate --keystrokes {self.keystrokes} ({self.duration_s:.1f} s trace), "
                "then pipeline on the written files")

    def op(self):
        shutil.rmtree(self.out, ignore_errors=True)   # no stale file can pass the check
        base = ["--config", str(self.config_path), "--out", str(self.out)]
        t0 = time.perf_counter()
        _quiet_cli(base + ["simulate", "--keystrokes", str(self.keystrokes)])
        t1 = time.perf_counter()
        _quiet_cli(base + [
            "pipeline",
            "--trace", str(self.out / "trace.csv"),
            "--annotations", str(self.out / "trace.ann"),
            "--gesture-model", str(self.gesture_model_path),
            "--behavior-models", str(self.behavior_models_path),
        ])
        t2 = time.perf_counter()
        return {"cli_simulate_s": t1 - t0, "cli_pipeline_s": t2 - t1}, None

    def check(self, _payload):
        doc = json.loads((self.out / "report.json").read_text())
        comparable = {key: doc[key] for key in ("config", "seeds", "metrics")}
        if json.dumps(comparable, sort_keys=True) != self.expected:
            raise GateError("report.json differs from the in-memory pipeline on the same trace")
        for name in ("filtered.csv", "segments.csv"):
            if not (self.out / name).is_file():
                raise GateError(f"pipeline wrote no {name}")
        return comparable, {}


WORKLOADS = {w.name: w for w in (LongRecording, TraceFiles)}
