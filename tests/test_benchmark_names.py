"""The per-layer metrics that BENCHMARK.json declares name desksense functions.

perfbench's tracer wraps every public function of a desksense module and
reports a span that never ran as 0, so a metric whose function was renamed
or made private would read 0 rather than fail.  A metric `<module>.<function>.<what>`
whose first part is a desksense module must therefore name a public
function defined in that module, the functions the tracer wraps.
"""
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import pytest

import desksense

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
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
