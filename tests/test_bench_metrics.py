"""The benchmark's traced run names package functions; deleting one breaks every --trace 1 run."""

import importlib.util
import json
from math import comb
from pathlib import Path

from spintransfer import oracle
from spintransfer.chain import ChainSpec

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


def test_traced_sector_builds_report_full_sector_dimensions():
    """spans.py counts cold `_sector` builds by its cache_info() and reads the sector
    dimension as len(result[0]): that must stay the full C(N, k), not a parity block."""
    spec = ChainSpec.from_dict({**ChainSpec.uniform(9, n=3).to_dict(), "delta": 0.4})
    assert spec.is_mirror_symmetric()
    oracle._sector.cache_clear()
    tracer = _spans_module().Tracer()
    tracer.install()
    try:
        oracle.receiver_amplitude_tensor(spec, 3, 1.7)
        values = tracer.layer_metrics(["oracle.sector_builds", "oracle.sector_dim_max"], 1.0, 1)
    finally:
        tracer.remove()
    assert values == {"oracle.sector_builds": 4, "oracle.sector_dim_max": comb(9, 3)}
