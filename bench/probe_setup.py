"""Set-up probe: imports spintransfer, builds one workload's seeded inputs and exits.

    python3 bench/probe_setup.py WORKLOAD SEED SIZES

run.py times whole runs of this script, from process start to exit, for the
``setup_s`` metric.
"""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402

name, seed, sizes = sys.argv[1], int(sys.argv[2]), sys.argv[3]
workloads.WORKLOADS[name](seed, workloads.SIZES[sizes], tmpdir="")
sys.stdout.flush()
os._exit(0)  # interpreter teardown is not part of set-up
