"""Benchmark of spintransfer: one seeded workload per run, from the root of a checkout.

    python3 bench/run.py --workload transfer-search --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the same checkout.  Timed passes
repeat until ``--seconds`` would be exceeded; every pass starts with the
package's caches cleared, because every CLI process and new session pays
for them.  After the passes every operation's result is checked against an
independent path.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json
(medians over passes, set-up timed over fresh processes); with
``--trace 1`` it reports the per-layer metrics from spans (see spans.py)
and writes the spans to ``.bench-out/``.  The last line of standard output
is the result object; the line before it holds provenance and the raw
per-pass values.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = "1"  # one BLAS thread keeps runs steady on a shared two-core machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("transfer-search", "map-statistics", "mc-channels")


def declared_units(trace: int) -> dict[str, str]:
    """Names and units of the metrics BENCHMARK.json declares for this kind of run."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in contract["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def import_benchmark():
    """Imports the checkout's own spintransfer and the benchmark modules, or returns None."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import spintransfer
    except ImportError as exc:
        print(f"error: cannot import spintransfer from {SRC}: {exc}", file=sys.stderr)
        return None
    if Path(spintransfer.__file__).resolve().parent.parent != SRC.resolve():
        print(f"error: spintransfer imported from {spintransfer.__file__}, not {SRC}", file=sys.stderr)
        return None
    import spans
    import workloads

    return spans, workloads


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "seed": seed,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "machine": platform.machine(),
    }


def measure_setup(workload: str, seed: int, sizes: str, runs: int) -> list[float]:
    """Wall time of fresh processes that import the package and build the seeded inputs."""
    out = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "probe_setup.py"), workload, str(seed), sizes],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        out.append(time.perf_counter() - start)
    return out


def run_passes(workload, caches, seconds: int, tracer=None) -> list:
    """Timed passes until the next one would end after `seconds`; returns their clocks."""
    from workloads import PassClock

    clocks, walls = [], []
    start = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        while True:
            for cache in caches:
                cache.cache_clear()
            gc.collect()
            clocks.append(PassClock(tracer))
            t0 = time.perf_counter()
            workload.run_pass(clocks[-1])
            walls.append(time.perf_counter() - t0)
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                return clocks
    finally:
        if tracer is not None:
            tracer.remove()


def main(argv=None, sizes: str = "full") -> int:
    args = parse_args(argv)
    modules = import_benchmark()
    if modules is None:
        return 2
    spans, workloads = modules
    size = workloads.SIZES[sizes]

    # Half the set-up probes run before the timed passes and half after them,
    # so that they see the machine at both ends of the timed region.
    setup_runs = 0 if args.trace else size.setup_runs
    setup = measure_setup(args.workload, args.seed, sizes, (setup_runs + 1) // 2)
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmpdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, size, tmpdir)
        caches = workloads.package_caches()
        tracer = spans.Tracer() if args.trace else None
        clocks = run_passes(workload, caches, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup += measure_setup(args.workload, args.seed, sizes, setup_runs // 2)
        verdicts = workload.verify()

    seconds = [c.seconds for c in clocks]
    calibrated = [c.calibrated for c in clocks]
    units = declared_units(args.trace)
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup),
            "primary_cal": statistics.median(c["primary"] for c in calibrated),
            "secondary_cal": statistics.median(c["secondary"] for c in calibrated),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        values = tracer.layer_metrics(units, sum(sum(s.values()) for s in seconds), len(clocks))
        tracer.write_spans(str(ROOT / ".bench-out" / f"spans-{args.workload}-seed{args.seed}.csv"))

    failed = verdicts.count(False)
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "passes": len(clocks),
        "seconds_per_pass": seconds,
        "cal_per_pass": calibrated,
        "setup_s_per_run": setup,
        "work_per_pass": workload.work(),
        "failed_ratio": failed / len(verdicts),
    }
    result = {
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    for name, unit in units.items():
        print(f"{name:48s} {values[name]:>16.6g} {unit}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
