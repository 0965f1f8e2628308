"""Golden outputs: a characterization test of the whole program at fixed
seeds and small sizes.

collect() runs the CLI chain simulate -> segment -> featurize ->
train-gesture -> train-behavior -> pipeline --annotations, a small
evaluate, each plotdata kind and sweep-plate on a small deployment, and
run_pipeline on a 60 s in-memory trace at the default configuration.  Its discrete outputs
(selected subcarrier, segment indices, kept and dropped counts, labels,
confusion matrices) are compared with tests/golden.json as they are, and
every output file by its sha256.  Each comparable report is hashed in two
parts, its metrics and the rest (the config and the seeds), so a change to
the config's keys shows apart from a change to what the run measured.  Float bits may
move with the Python or numpy version, so the file records the versions
it was made with, and a hash mismatch names those that differ.

A change that alters outputs regenerates the file and commits its diff:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from desksense import io
from desksense.cli import main
from desksense.config import PipelineConfig
from desksense.corpus import random_gesture_script, simulate_script
from desksense.pipeline import run_pipeline
from desksense.segmentation import segment

GOLDEN = Path(__file__).with_name("golden.json")
REGENERATE = "PYTHONPATH=src python tests/test_golden.py"

# six subcarriers keep the trace files small; Baum-Welch stops at 20
# iterations, which keeps evaluate's three fits short
CONFIG = {"simulation": {"subcarriers": 6}, "hmm": {"max_iter": 20}}

# keystrokes at the rest position, mouse drags off the link's midpoint
SCRIPT = """\
1.0,keystroke,0.02,0.7
3.2,mouse_move,0.04,0.6,0.3,0,-0.6
5.4,keystroke,0.02,0.7
7.6,mouse_move,0.03,0.8,0.32,0,-0.62
9.8,keystroke,0.02,0.65,0.5,0,-0.58
12.0,mouse_move,0.04,0.5,0.7,0,-0.6
14.2,keystroke,0.02,0.75
16.4,mouse_move,0.05,0.7,0.3,0,-0.64
18.6,keystroke,0.02,0.7,0.45,0,-0.63
20.8,mouse_move,0.04,0.6,0.68,0,-0.59
"""


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_hashes(name: str, report: dict) -> dict:
    """sha256 of a report's metrics and of the rest of its comparable part
    (the config and the seeds), each dumped as RunReport.to_json writes it."""
    rest = {k: v for k, v in report.items() if k not in ("metrics", "timings_s")}
    return {f"{name} (metrics)": sha256(json.dumps(report["metrics"], indent=2).encode()),
            f"{name} (config, seeds)": sha256(json.dumps(rest, indent=2).encode())}


def table(path) -> list[list[str]]:
    """The rows of a comma-separated table, header line dropped."""
    return [line.split(",") for line in Path(path).read_text().splitlines()[1:]]


def int_table(path) -> list[list[int]]:
    return [[int(v) for v in row] for row in table(path)]


def collect(workdir: Path) -> dict:
    """Run everything once in workdir; the discrete outputs and the sha256
    of each output file and comparable report."""
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(CONFIG))
    (workdir / "script.csv").write_text(SCRIPT)

    def cli(out, *argv) -> str:
        stdout = stdio.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["--config", str(config_path), "--out", str(workdir / out), *argv])
        assert code == 0, f"desksense {' '.join(argv)} exited {code}"
        return stdout.getvalue()

    trace, ann = str(workdir / "sim/trace.csv"), str(workdir / "sim/trace.ann")
    models = workdir / "models"
    cli("sim", "simulate", "--script", str(workdir / "script.csv"))
    found = cli("seg", "segment", "--trace", trace)
    cli("models", "featurize", "--trace", trace, "--annotations", ann, "--use-annotations")
    cli("models", "train-gesture", "--dataset", str(models / "dataset.csv"))
    cli("models", "train-behavior", "--confusion", str(models / "cv_confusion.csv"),
        "--sequences", "6", "--length", "40")
    cli("run", "pipeline", "--trace", trace, "--annotations", ann,
        "--gesture-model", str(models / "gesture_model.json"),
        "--behavior-models", str(models / "behavior_models.json"))
    cli("eval", "evaluate", "--traces", "2", "--segments", "16", "--behavior-sequences", "2")
    cli("plot", "plotdata", "--kind", "filter-response")
    cli("plot", "plotdata", "--kind", "subcarrier-variance", "--artifact", trace)
    cli("plate", "sweep-plate")

    kept, dropped = map(int, re.match(r"found (\d+) segments \((\d+) below", found).groups())
    run_report = json.loads((workdir / "run/report.json").read_text())
    eval_report = json.loads((workdir / "eval/report.json").read_text())
    variances = [float(v) for _i, v in table(workdir / "plot/subcarrier_variance.csv")]
    discrete = {
        "simulate.annotations": [[a.start_idx, a.end_idx, a.label]
                                 for a in io.read_annotations(ann)],
        "segment.segments": int_table(workdir / "seg/segments.csv"),
        "segment.kept_dropped": [kept, dropped],
        "featurize.labels": [row[-1] for row in table(models / "dataset.csv")],
        "train_gesture.cv_confusion": [[name, *map(int, counts)] for name, *counts
                                       in table(models / "cv_confusion.csv")],
        "pipeline.segments": int_table(workdir / "run/segments.csv"),
        "pipeline.metrics": {k: run_report["metrics"][k] for k in
                             ("selected_subcarrier", "segments_found", "gesture_counts")},
        "pipeline.matched": run_report["metrics"]["detection"]["matched"],
        "pipeline.behavior": run_report["metrics"]["behavior"]["label"],
        "evaluate.segmentation": {k: eval_report["metrics"]["segmentation"][k] for k in
                                  ("matched", "false_negatives", "false_positives")},
        "evaluate.gesture_confusion": {k: v["confusion"] for k, v in
                                       eval_report["metrics"]["gesture_cv"].items()},
        "evaluate.behavior_confusion": eval_report["metrics"]["behavior"]["confusion"],
        "plotdata.max_variance_subcarrier": int(np.argmax(variances)),
    }
    hashes = {  # the outputs: every file in the commands' --out directories
        str(path.relative_to(workdir)): sha256(path.read_bytes())
        for path in sorted(workdir.glob("*/*")) if path.name != "report.json"
    }
    hashes |= report_hashes("run/report.json", run_report)
    hashes |= report_hashes("eval/report.json", eval_report)

    # run_pipeline on a 60 s trace of 20 gestures at the default configuration,
    # with the models trained above
    default = PipelineConfig()
    script, duration = random_gesture_script(default, np.random.default_rng(11), 20)
    memory_trace = simulate_script(default, script, duration, seed=12)
    report, artifacts = run_pipeline(default, memory_trace,
                                     io.read_classifier(models / "gesture_model.json"),
                                     io.read_behavior_models(models / "behavior_models.json"))
    seg = segment(artifacts["series"], default.segmenter)
    discrete["run_pipeline.samples"] = list(memory_trace.samples.shape)
    discrete["run_pipeline.selected_subcarrier"] = report.metrics["selected_subcarrier"]
    discrete["run_pipeline.segments"] = [[s.start_idx, s.end_idx] for s in seg.segments]
    discrete["run_pipeline.kept_dropped"] = [len(seg.segments), len(seg.dropped)]
    discrete["run_pipeline.matched"] = report.metrics["detection"]["matched"]
    discrete["run_pipeline.labels"] = [label.name.lower() for label in artifacts["labels"]]
    discrete["run_pipeline.behavior"] = report.metrics["behavior"]["label"]
    hashes["run_pipeline trace samples"] = sha256(memory_trace.samples.tobytes())
    hashes |= report_hashes("run_pipeline report", report.comparable_dict())
    return {"versions": versions(), "discrete": discrete, "sha256": hashes}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict:
    return collect(tmp_path_factory.mktemp("golden"))


def test_discrete_outputs(golden, outputs):
    # compared whatever the library versions: no float bits in these
    want, got = golden["discrete"], outputs["discrete"]
    differ = [key for key in sorted(want.keys() | got.keys()) if want.get(key) != got.get(key)]
    assert not differ, (
        f"discrete outputs differ from {GOLDEN.name} in {differ}; if the change is "
        f"intended, regenerate with `{REGENERATE}` and commit the diff"
    )


def test_output_hashes(golden, outputs):
    want, got = golden["sha256"], outputs["sha256"]
    differ = [key for key in sorted(want.keys() | got.keys()) if want.get(key) != got.get(key)]
    if not differ:
        return
    moved = {name: (version, outputs["versions"].get(name))
             for name, version in golden["versions"].items()
             if outputs["versions"].get(name) != version}
    if moved:
        pytest.fail(
            f"sha256 differs for {differ}; {GOLDEN.name} was made under other library "
            "versions: " + ", ".join(f"{name} {made} there, {running} here"
                                     for name, (made, running) in moved.items())
        )
    pytest.fail(
        f"sha256 differs for {differ} under the versions {GOLDEN.name} was made with; "
        f"if the change is intended, regenerate with `{REGENERATE}` and commit the diff"
    )


def dumps(doc: dict) -> str:
    """doc as JSON with one line per entry of each section, so that a
    regenerated file diffs as the entries that changed."""
    sections = [
        f"  {json.dumps(name)}: {{\n" + ",\n".join(
            f"    {json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(part.items())
        ) + "\n  }"
        for name, part in sorted(doc.items())
    ]
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        doc = collect(Path(scratch))
    GOLDEN.write_text(dumps(doc))
    print(f"wrote {GOLDEN}", file=sys.stderr)
