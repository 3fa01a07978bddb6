"""The benchmark's traced run names package functions; deleting one breaks every --trace 1 run."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_metric_names_a_traced_function():
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    tracer = _spans_module().Tracer()
    tracer.install()
    try:
        values = tracer.layer_metrics(names, 1.0, 1)  # raises KeyError on a missing function
    finally:
        tracer.remove()
    assert set(values) == set(names)
