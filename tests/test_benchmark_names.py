"""The per-layer metrics that BENCHMARK.json declares name desksense functions,
and the committed bench records report what it declares.

perfbench's tracer wraps every public function of a desksense module and
reports a span that never ran as 0, so a metric whose function was renamed
or made private would read 0 rather than fail.  A metric `<module>.<function>.<what>`
whose first part is a desksense module must therefore name a public
function defined in that module, the functions the tracer wraps.

Each BENCH_<workload>_trace<T>.json at the root is a copy of perfbench/run.py's
record of one run: it names a declared workload, no operation failed, and
its metrics are the declared end-to-end ones (T = 0) or per-layer ones (T = 1).
BENCH_tier1.json records a tier-1 run of the suite, in which nothing failed.
"""
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import pytest

import desksense

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
MODULES = {info.name for info in pkgutil.iter_modules(desksense.__path__)}


def layer_spans():
    """(metric, module, function) of each per-layer metric of three or more
    parts whose first part is a desksense module."""
    spans = []
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) >= 3 and parts[0] in MODULES:
            spans.append((metric["name"], parts[0], parts[1]))
    return spans


SPANS = layer_spans()


def test_spans_cover_the_layers():
    names = {name for name, *_ in SPANS}
    assert {"io.write_series.self_s", "segmentation.segment.segments"} <= names
    assert not any(name.startswith("bench.") for name in names)


@pytest.mark.parametrize("metric, module, function", SPANS, ids=[name for name, *_ in SPANS])
def test_metric_names_a_public_function(metric, module, function):
    mod = importlib.import_module(f"desksense.{module}")
    obj = getattr(mod, function, None)
    assert not function.startswith("_") and inspect.isfunction(obj) \
        and obj.__module__ == mod.__name__, \
        f"{metric}: desksense.{module} has no public function {function!r}"


DECLARED = json.loads(BENCHMARK.read_text())
RECORDS = sorted(ROOT.glob("BENCH_*_trace*.json"))


def test_every_workload_recorded_untraced_and_traced():
    names = {path.name for path in RECORDS}
    assert names == {f"BENCH_{w['name']}_trace{t}.json"
                     for w in DECLARED["workloads"] for t in (0, 1)}


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_reports_the_declared_metrics(path):
    workload, trace = re.fullmatch(r"BENCH_(\w+)_trace([01])\.json", path.name).groups()
    record = json.loads(path.read_text())
    assert workload in {w["name"] for w in DECLARED["workloads"]}
    assert record["environment"]["workload"] == workload
    assert record["environment"]["trace"] == int(trace)
    assert record["failed"] == 0 and record["attempted"] > 0
    declared = DECLARED["end_to_end"] if trace == "0" else DECLARED["per_layer"]
    assert set(record["metrics"]) == {m["name"] for m in declared}


def test_tier1_record():
    record = json.loads((ROOT / "BENCH_tier1.json").read_text())
    assert {"command", "passed", "failed", "errors", "wall_s"} <= record.keys()
    assert record["failed"] == record["errors"] == 0 and record["passed"] > 0
