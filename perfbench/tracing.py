"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: every public function of
the desksense layers is wrapped for the duration of a traced operation, and
the wrappers are removed again afterwards, so untraced operations run the
program exactly as shipped.  A span is (name, start, end, parent, op); a
layer's self time is its span's duration minus the durations of its child
spans.  Probes record work counts (samples, bytes, segments) at the same
boundaries, so rates are measured where the work happens.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("channel", "preprocess", "segmentation", "classify", "behavior",
          "corpus", "pipeline", "io", "cli")

# metric -> (counter, span whose inclusive time is the denominator, scale)
RATES = {
    "channel.simulate_trace.samples_per_s": ("channel.simulate_trace.samples", "channel.simulate_trace", 1.0),
    "io.write_trace.mb_per_s": ("io.write_trace.bytes", "io.write_trace", 1e-6),
    "io.read_trace.mb_per_s": ("io.read_trace.bytes", "io.read_trace", 1e-6),
}


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _probe_simulate(counters, bound, result):
    counters["channel.simulate_trace.samples"] += result.samples.size


def _probe_segment(counters, bound, result):
    series = bound.arguments["series"]
    counters["segmentation.segment.trace_s"] += len(series.values) / series.fs
    counters["segmentation.segment.segments"] += len(result)


def _probe_write(counters, bound, result):
    # every writer in desksense.io ends in atomic_write_text, so bytes are
    # counted there once
    counters["io.bytes_written"] += _path_size(bound.arguments["path"])


def _probe_write_trace(counters, bound, result):
    counters["io.write_trace.bytes"] += _path_size(bound.arguments["path"])


def _probe_read(counters, bound, result):
    counters["io.bytes_read"] += _path_size(bound.arguments["path"])


def _probe_read_trace(counters, bound, result):
    size = _path_size(bound.arguments["path"])
    counters["io.bytes_read"] += size
    counters["io.read_trace.bytes"] += size


PROBES = {
    "channel.simulate_trace": _probe_simulate,
    "segmentation.segment": _probe_segment,
    "io.atomic_write_text": _probe_write,
    "io.write_trace": _probe_write_trace,
    "io.read_trace": _probe_read_trace,
    "io.read_annotations": _probe_read,
    "io.read_series": _probe_read,
    "io.read_dataset": _probe_read,
    "io.read_classifier": _probe_read,
    "io.read_behavior_models": _probe_read,
    "io.read_sequence": _probe_read,
}


def _public_functions():
    """(span name, function) for every public function of the traced layers."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"desksense.{layer}")
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                out.append((f"{layer}.{attr}", obj))
    return out


class Tracer:
    """Spans and counters of the traced operations of one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent, op]
        self.counters: dict[str, float] = defaultdict(float)
        self.ops = 0
        self._stack: list[int] = []
        pairs = [(fn, self._wrap(name, fn)) for name, fn in _public_functions()]
        self._wrap_table = {id(fn): wrapper for fn, wrapper in pairs}
        self._unwrap_table = {id(wrapper): fn for fn, wrapper in pairs}

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, self.ops]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                probe(self.counters, bound, result)
            return result

        return traced

    def _swap(self, table: dict) -> None:
        """Rebind every desksense module global whose id is a key of table."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "desksense" and not mod_name.startswith("desksense."):
                continue
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                replacement = table.get(id(obj))
                if replacement is not None:
                    namespace[attr] = replacement

    @contextmanager
    def operation(self):
        """Trace one operation: wrap on entry, unwrap on exit."""
        self._swap(self._wrap_table)
        root = ["bench.op", time.perf_counter(), 0.0, -1, self.ops]
        self._stack = [len(self.spans)]
        self.spans.append(root)
        try:
            yield
        finally:
            root[2] = time.perf_counter()
            self._stack = []
            self._swap(self._unwrap_table)
            self.ops += 1

    def self_times(self) -> tuple[dict, dict, dict]:
        """Per span name: summed self time, summed inclusive time, call count."""
        durations = [end - start for _n, start, end, _p, _o in self.spans]
        own = list(durations)
        for i, (_n, _s, _e, parent, _o) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= durations[i]
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, *_rest), d, o in zip(self.spans, durations, own):
            self_s[name] += o
            incl_s[name] += d
            calls[name] += 1
        return self_s, incl_s, calls

    def metric(self, name: str, self_s: dict, incl_s: dict, calls: dict) -> float:
        """Value per traced operation of one per-layer metric."""
        ops = max(self.ops, 1)
        if name.endswith(".self_s"):
            return self_s.get(name[: -len(".self_s")], 0.0) / ops
        if name.endswith(".calls"):
            return calls.get(name[: -len(".calls")], 0) / ops
        if name in RATES:
            counter, span, scale = RATES[name]
            busy = incl_s.get(span, 0.0)
            return self.counters.get(counter, 0.0) * scale / busy if busy else 0.0
        if name == "segmentation.segment.us_per_trace_s":
            trace_s = self.counters.get("segmentation.segment.trace_s", 0.0)
            return 1e6 * incl_s.get("segmentation.segment", 0.0) / trace_s if trace_s else 0.0
        return self.counters.get(name, 0.0) / ops

    def dump(self) -> dict:
        return {"columns": ["name", "start", "end", "parent", "op"], "spans": self.spans}
