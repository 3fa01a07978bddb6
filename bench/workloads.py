"""Seeded inputs, timed operations and correctness checks of the benchmark workloads.

Every operation is a call a user of spintransfer makes: a library function or
an in-process run of the ``spintransfer`` command.  All free inputs come from
one seed (map times, Monte Carlo seeds, the ``--amplitude`` value, the scan
window edge); chain geometry stays at the acceptance-suite chains so that the
checks keep the tolerances of ``tests/test_acceptance.py``.

Each workload times two groups of operations per pass:

==================  ====================================  ===========================
workload            ``primary``                           ``secondary``
==================  ====================================  ===========================
transfer-search     ``find_optimal_time`` on both chains  CLI ``scan`` to a CSV file
map-statistics      ``map_from_evolution`` per seed time  ``stats_from_map`` + ``validate_cptp``
mc-channels         both CLI ``montecarlo`` calls         CLI ``independent``
==================  ====================================  ===========================

Results are summarised between operations, outside the timed region, and
checked against an independent path after the timed passes end.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from spintransfer import chain as st_chain
from spintransfer import cli as st_cli
from spintransfer import dynmap as st_dynmap
from spintransfer import fidelity as st_fidelity
from spintransfer import oracle as st_oracle
from spintransfer import protocol as st_protocol
from spintransfer.basis import excitation_sector, partner_sites, subsets_by_excitation
from spintransfer.chain import ChainSpec, engineered_sender_coupling

# Tolerances of tests/test_acceptance.py: criterion 3 (fidelity from two
# engines) and criteria 1, 2 and 8 (closed forms).
ENGINE_TOL = 1e-9
CLOSED_FORM_TOL = 1e-12


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one pass; `search_windows` (in units of tau) narrows the searches."""

    scan_rows: int = 50_000
    map_times: int = 4
    mc_spec_samples: int = 10_000
    mc_amplitude_samples: int = 50_000
    channel_grid: int = 201
    setup_runs: int = 11
    search_windows: tuple[tuple[float, float], tuple[float, float]] | None = None


FULL = Sizes()
# Small enough for the benchmark's own tests; the windows hold both optima.
TINY = replace(
    FULL,
    scan_rows=300,
    map_times=1,
    mc_spec_samples=400,
    mc_amplitude_samples=400,
    channel_grid=5,
    setup_runs=1,
    search_windows=((0.995, 1.01), (0.935, 0.95)),
)
SIZES = {"full": FULL, "tiny": TINY}


def weak15() -> ChainSpec:
    """Criterion 6 chain: three-qubit blocks, nine-site wire, J0 = 0.01."""
    return ChainSpec.weak_coupling(wire_length=9, n=3, J0=0.01)


def eng18() -> ChainSpec:
    """Criterion 7 chain (the README's eng18): four-qubit blocks tuned onto wire level 2."""
    js = engineered_sender_coupling(10, k=2, s=1)
    return ChainSpec.weak_coupling(wire_length=10, n=4, J0=0.01, sender_coupling=js)


def aniso16() -> ChainSpec:
    """N=16, n=4 chain with zz-anisotropy 0.3: only the sector engine describes it."""
    base = ChainSpec.weak_coupling(wire_length=8, n=4, J0=1.0)
    return ChainSpec.from_dict({**base.to_dict(), "delta": 0.3})


def tau(spec: ChainSpec) -> float:
    return st_chain.resonance_report(spec, spec.block_size).transfer_time


_CAL_MATRIX = np.random.default_rng(0).standard_normal((128, 128)) / 12.0
_CAL_SYMMETRIC = np.random.default_rng(3).standard_normal((400, 400))
_CAL_SYMMETRIC = _CAL_SYMMETRIC + _CAL_SYMMETRIC.T


def calibration_s() -> float:
    """Wall time of a fixed kernel of about 40 ms: an interpreter loop, small
    matrix products and a dense symmetric eigensolve.

    The speed of a shared machine drifts by tens of percent over tens of
    seconds, and not by the same share for interpreted code and for BLAS or
    LAPACK calls; timing this mixed kernel next to every operation measures
    that drift.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(120_000):
        acc += i * i % 7
    m = _CAL_MATRIX
    for _ in range(24):
        m = np.tanh(m @ _CAL_MATRIX)
    np.linalg.eigh(_CAL_SYMMETRIC)
    return time.perf_counter() - start


class PassClock:
    """Sums the wall time of the operations of one pass into the two groups.

    The calibration kernel runs right before and right after every operation;
    `calibrated` sums each operation's time divided by the mean of those two
    kernel times.
    """

    def __init__(self, tracer=None):
        self.seconds = {"primary": 0.0, "secondary": 0.0}
        self.calibrated = {"primary": 0.0, "secondary": 0.0}
        self.tracer = tracer

    def __call__(self, group: str, fn, *args):
        before = calibration_s()
        if self.tracer is not None:
            self.tracer.op += 1
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[group] += elapsed
            self.calibrated[group] += elapsed / (0.5 * (before + calibration_s()))


def _failed_op(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr, flush=True)
    traceback.print_exc()


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read_csv(path: str, wanted: set[int] | None = None):
    """Header and data rows of a CSV file; only the row indices in `wanted` if given."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = {}
        count = 0
        for i, row in enumerate(reader):
            count += 1
            if wanted is None or i in wanted:
                rows[i] = [float(x) for x in row]
    return header, count, rows


class SectorReference:
    """Transfer amplitudes from exact sector evolution, the oracle for determinant results."""

    def __init__(self):
        self._cache: dict = {}

    def amplitudes(self, spec: ChainSpec, t: float) -> dict[tuple[int, ...], complex]:
        key = (spec, t)
        if key not in self._cache:
            n = spec.block_size
            out = {}
            for S in subsets_by_excitation(n, include_empty=False):
                basis = excitation_sector(spec.N, len(S))
                psi = np.zeros(len(basis), dtype=complex)
                psi[basis.index(S)] = 1.0
                evolved = st_oracle.evolve_block(
                    spec, st_oracle.PureState(len(basis), psi), t, excitations=len(S)
                )
                out[S] = complex(evolved.amplitudes[basis.index(partner_sites(S, spec.N, n))])
            self._cache[key] = out
        return self._cache[key]

    def fidelity(self, spec: ChainSpec, t: float) -> float:
        d = 2**spec.block_size
        total = sum(self.amplitudes(spec, t).values())
        return 1.0 / (d + 1) + abs(1.0 + total) ** 2 / (d * (d + 1))


class Workload:
    """One seeded workload: builds its inputs, runs timed passes, checks every result."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, tmpdir: str):
        self.seed = seed
        self.sizes = sizes
        self.tmpdir = tmpdir
        self.rng = np.random.default_rng(seed)
        self.records: list[dict] = []

    def _out(self, name: str) -> str:
        return os.path.join(self.tmpdir, name)

    def _cli(self, clock: PassClock, group: str, argv: list[str]) -> int:
        return clock(group, st_cli.main, argv)

    def run_pass(self, clock: PassClock) -> None:
        raise NotImplementedError

    def work(self) -> dict[str, int]:
        """Units of work one pass does, so that throughputs can be derived from the times."""
        raise NotImplementedError

    def verify(self) -> list[bool]:
        """One verdict per recorded operation, computed outside the timed region."""
        raise NotImplementedError


class TransferSearch(Workload):
    """Determinant engine: optimal-time searches on both acceptance chains, plus the CSV scan."""

    name = "transfer-search"
    CHECKED_SCAN_ROWS = 4  # seeded scan rows checked besides the first and the last

    def __init__(self, seed, sizes, tmpdir):
        super().__init__(seed, sizes, tmpdir)
        self.chains = (weak15(), eng18())
        self.taus = tuple(tau(c) for c in self.chains)
        self.windows = (
            (None, None)
            if sizes.search_windows is None
            else tuple((lo * t, hi * t) for (lo, hi), t in zip(sizes.search_windows, self.taus))
        )
        self.tmax = float(self.taus[1] * self.rng.uniform(1.0, 1.2))
        rows = sizes.scan_rows
        picked = self.rng.choice(rows, size=min(self.CHECKED_SCAN_ROWS, rows), replace=False)
        self.check_rows = sorted({0, rows - 1, *map(int, picked)})
        self.times = np.linspace(0.0, self.tmax, rows)

    def run_pass(self, clock):
        for spec, window in zip(self.chains, self.windows):
            rec = {"op": "search", "spec": spec}
            try:
                result = clock("primary", st_protocol.find_optimal_time, spec, spec.block_size, window)
                rec.update(
                    t=result.optimal_time,
                    fidelity=result.fidelity_at_optimum,
                    delta_omega=None if result.cluster is None else result.cluster.delta_omega,
                )
            except Exception:
                _failed_op(f"find_optimal_time on N={spec.N}")
                rec["error"] = True
            self.records.append(rec)
        path = self._out("scan.csv")
        argv = ["scan", "--spec", self.chains[1].to_json(), "--tmax", repr(self.tmax),
                "--grid", str(self.sizes.scan_rows), "--out", path]
        rec = {"op": "scan", "exit": self._cli(clock, "secondary", argv)}
        if rec["exit"] == 0:
            rec["digest"] = _file_digest(path)
            rec["header"], rec["rows"], rec["checked"] = _read_csv(path, set(self.check_rows))
            rec["bytes"] = os.path.getsize(path)
            os.remove(path)
        self.records.append(rec)

    def work(self):
        return {"searches": 2, "scan_rows": self.sizes.scan_rows}

    def verify(self):
        ref = SectorReference()
        digests = {r["digest"] for r in self.records if r["op"] == "scan" and "digest" in r}
        return [
            self._check_search(ref, r) if r["op"] == "search" else self._check_scan(ref, r, digests)
            for r in self.records
        ]

    @staticmethod
    def _check_search(ref: SectorReference, rec: dict) -> bool:
        if rec.get("error") or rec["delta_omega"] is None:
            return False
        spec, t, F = rec["spec"], rec["t"], rec["fidelity"]
        if abs(ref.fidelity(spec, t) - F) > ENGINE_TOL:
            return False
        if spec.block_size == 3:  # criterion 6
            tau_c = math.pi / rec["delta_omega"]
            return F >= 0.99 and abs(t - tau_c) <= 0.2 * tau_c
        singles = {s: abs(ref.amplitudes(spec, t)[(s,)]) for s in (1, 2, 3, 4)}  # criterion 7
        return (
            0.97 <= F <= 0.99
            and all(v > 0.99 for v in singles.values())
            and abs(singles[1] - singles[4]) <= ENGINE_TOL
            and abs(singles[2] - singles[3]) <= ENGINE_TOL
        )

    def _check_scan(self, ref: SectorReference, rec: dict, digests: set[str]) -> bool:
        if rec["exit"] != 0 or len(digests) != 1 or rec["rows"] != self.sizes.scan_rows:
            return False
        spec = self.chains[1]
        subsets = subsets_by_excitation(4, include_empty=False)
        expected_header = ["t", "F_avg", "F_envelope", "classical_term", "quantum_term"] + [
            "abs_f_" + "".join(map(str, s)) for s in subsets
        ]
        if rec["header"] != expected_header or sorted(rec["checked"]) != self.check_rows:
            return False
        for i, row in rec["checked"].items():
            t = float(self.times[i])
            if row[0] != t or abs(row[1] - ref.fidelity(spec, t)) > ENGINE_TOL:
                return False
            amps = ref.amplitudes(spec, t)
            if any(abs(row[5 + k] - abs(amps[s])) > ENGINE_TOL for k, s in enumerate(subsets)):
                return False
        return True


class MapStatistics(Workload):
    """Exact sector engine at delta=0: maps, their moments and CPTP checks near tau."""

    name = "map-statistics"

    def __init__(self, seed, sizes, tmpdir):
        super().__init__(seed, sizes, tmpdir)
        self.cases = [
            (spec, float(t))
            for spec in (weak15(), eng18())
            for t in tau(spec) * self.rng.uniform(0.9, 1.1, size=sizes.map_times)
        ]

    def run_pass(self, clock):
        for spec, t in self.cases:
            rec = {"spec": spec, "t": t}
            try:
                m = clock("primary", st_dynmap.map_from_evolution, spec, spec.block_size, t)
                stats, report = clock(
                    "secondary",
                    lambda: (st_fidelity.stats_from_map(m), st_dynmap.validate_cptp(m)),
                )
                rec.update(
                    mean=stats.mean,
                    second_moment=stats.second_moment,
                    variance=stats.variance,
                    cptp=report.passed,
                )
            except Exception:
                _failed_op(f"map statistics on N={spec.N} at t={t!r}")
                rec["error"] = True
            self.records.append(rec)

    def work(self):
        return {"maps": len(self.cases)}

    def verify(self):
        out = []
        for rec in self.records:
            if rec.get("error"):
                out.append(False)
                continue
            spec, t = rec["spec"], rec["t"]
            det_mean = float(st_protocol.scan_values(spec, spec.block_size, np.array([t]))[0])
            out.append(
                rec["cptp"]
                and abs(rec["mean"] - det_mean) <= ENGINE_TOL
                and rec["variance"] >= 0.0
                and rec["second_moment"] <= 1.0 + CLOSED_FORM_TOL
            )
        return out


class McChannels(Workload):
    """Monte Carlo over many small maps, the delta != 0 sector path, and parallel channels."""

    name = "mc-channels"
    N_LIST = (1, 2, 3, 4)

    def __init__(self, seed, sizes, tmpdir):
        super().__init__(seed, sizes, tmpdir)
        self.spec = aniso16()
        self.t = float(self.rng.uniform(5.0, 25.0))
        self.mc_seeds = [int(s) for s in self.rng.integers(0, 2**31, size=2)]
        self.amplitude = float(self.rng.uniform(0.3, 0.95))
        self.grid = np.linspace(0.0, 1.0, sizes.channel_grid)

    def run_pass(self, clock):
        s = self.sizes
        runs = (
            ("mc-spec", ["--spec", self.spec.to_json(), "--n", "4", "--t", repr(self.t),
                         "--samples", str(s.mc_spec_samples), "--seed", str(self.mc_seeds[0])]),
            ("mc-amplitude", ["--amplitude", repr(self.amplitude), "--n", "3", "--product",
                              "--samples", str(s.mc_amplitude_samples), "--seed", str(self.mc_seeds[1])]),
        )
        for op, args in runs:
            path = self._out(op + ".json")
            rec = {"op": op, "exit": self._cli(clock, "primary", ["montecarlo", *args, "--out", path])}
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    rec["report"] = json.load(fh)
                os.remove(path)
            self.records.append(rec)
        path = self._out("independent.csv")
        argv = ["independent", "--n-list", ",".join(map(str, self.N_LIST)),
                "--grid", str(s.channel_grid), "--out", path]
        rec = {"op": "independent", "exit": self._cli(clock, "secondary", argv)}
        if rec["exit"] == 0:
            rec["header"], rec["rows"], rec["table"] = _read_csv(path)
            os.remove(path)
        self.records.append(rec)

    def work(self):
        s = self.sizes
        return {
            "mc_samples": s.mc_spec_samples + 2 * s.mc_amplitude_samples,
            "channel_rows": len(self.N_LIST) * s.channel_grid,
        }

    def verify(self):
        checks = {"mc-spec": self._check_mc_spec, "mc-amplitude": self._check_mc_amplitude,
                  "independent": self._check_independent}
        return [checks[r["op"]](r) for r in self.records]

    def _check_mc_spec(self, rec):
        # Exit code 4 is the command's own 5-sigma z-test against the closed form.
        rep = rec.get("report")
        return (
            rec["exit"] == 0
            and rep is not None
            and rep["passed"] is True
            and rep["d"] == 16
            and rep["samples"] == self.sizes.mc_spec_samples
            and 0.0 < rep["analytic"]["mean"] <= 1.0
        )

    def _check_mc_amplitude(self, rec):
        rep = rec.get("report")
        if rec["exit"] != 0 or rep is None or rep["passed"] is not True or rep["d"] != 8:
            return False
        f, d = self.amplitude, 8
        full = 1.0 / (d + 1) + (1.0 + f) ** 6 / (d * (d + 1))
        single = 0.5 + f**2 / 6.0 + f / 3.0
        return (
            rep["samples"] == self.sizes.mc_amplitude_samples
            and abs(rep["analytic"]["mean"] - full) <= CLOSED_FORM_TOL
            and abs(rep["product"]["analytic_mean"] - single**3) <= CLOSED_FORM_TOL
        )

    def _check_independent(self, rec):
        if rec["exit"] != 0 or rec["rows"] != len(self.N_LIST) * len(self.grid):
            return False
        if rec["header"][:5] != ["n", "f", "F_n", "F1_pow_n", "R_f"]:
            return False
        for i, row in rec["table"].items():
            n, f = self.N_LIST[i // len(self.grid)], float(self.grid[i % len(self.grid)])
            d = 2**n
            full = 1.0 / (d + 1) + (1.0 + f) ** (2 * n) / (d * (d + 1))
            single = 0.5 + f**2 / 6.0 + f / 3.0
            ratio = (d + 1) * (f * (f + 2) + 3) ** n / (3**n * ((f + 1) ** (2 * n) + d))
            variance, cv = row[6], row[8]
            if (
                row[0] != n
                or row[1] != f
                or abs(row[2] - full) > CLOSED_FORM_TOL
                or abs(row[3] - single**n) > CLOSED_FORM_TOL
                or abs(row[4] - ratio) > CLOSED_FORM_TOL
                or not variance >= -CLOSED_FORM_TOL
                or not math.isfinite(cv)
            ):
                return False
        return True


WORKLOADS = {w.name: w for w in (TransferSearch, MapStatistics, McChannels)}


def package_caches() -> list:
    """Every lru_cache of the package, cleared before each pass so every pass starts cold."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "spintransfer" or name.startswith("spintransfer."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())
