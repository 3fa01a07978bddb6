"""Command-line front end: spec generation, spectra, scans, analytics and MC checks.

Commands exit 0 on success, 2 on configuration errors, 3 on numerical
failures and 4 when a Monte Carlo cross-check disagrees with the closed-form
value beyond 5 standard errors.  All numeric output is printed with 17
significant digits so files round-trip losslessly and identical inputs
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import stat
import sys
from dataclasses import dataclass, fields

import numpy as np

from .chain import ChainSpec, engineered_sender_coupling, resonance_report, spectral
from .dynmap import (
    fidelity_evaluator,
    identity_map,
    independent_channels_map,
    map_from_evolution,
)
from .errors import (
    DimensionCapError,
    FreeFermionError,
    MapConstructionError,
    MapValidationError,
    ResonanceError,
    SolverError,
)
from .fidelity import (
    avg_fidelity_from_map,
    independent_channels_fidelity,
    product_ratio_vs_amplitude,
    product_ratio_vs_fidelity,
    product_state_variance,
    second_moment_from_map,
    stats_from_map,
)
from .oracle import McResult, haar_sample_fidelity, sample_fidelity_values
from .protocol import fidelity_scan, phase_aligned_fidelity

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_STATISTICAL = 4

# A scan holds about 2**n numbers per grid point (one series per subset plus
# their moduli); grids with more cells than this are rejected before any work.
MAX_SCAN_CELLS = 1 << 26
_CSV_BLOCK_ROWS = 1 << 10  # rows turned into Python floats and joined at a time

_NUMERICAL_ERRORS = (
    FreeFermionError,
    SolverError,
    ResonanceError,
    DimensionCapError,
    MapConstructionError,
    MapValidationError,
)


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Merged command parameters: config-file values overridden by CLI flags."""

    spec: str | None = None
    n: int | None = None
    tmax: float | None = None
    grid: int | None = None
    samples: int | None = None
    seed: int | None = None
    out: str | None = None
    format: str = "csv"
    engineer: str | None = None
    t: float | None = None
    n_list: str | None = None
    N: int | None = None
    J0: float | None = None
    sender_coupling: float | None = None
    field: float = 0.0
    delta: float = 0.0
    amplitude: float | None = None
    identity: bool = False
    product: bool = False

    @classmethod
    def merge(cls, file_values: dict, flag_values: dict) -> "ExperimentConfig":
        kinds = {f.name: f.type for f in fields(cls)}
        unknown = set(file_values) - set(kinds)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for name, value in file_values.items():
            if not _is_kind(value, kinds[name]):
                raise ConfigError(f"config value {name}={value!r} is not of type {kinds[name]}")
        merged = dict(file_values)
        merged.update({k: v for k, v in flag_values.items() if v is not None and v is not False})
        if merged.get("format", "csv") not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {merged['format']!r}")
        try:
            return cls(**merged)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


def _is_kind(value, annotation: str) -> bool:
    """Whether a config-file value fits a field annotated e.g. 'int | None'; floats accept ints."""
    kind, _, optional = annotation.partition(" | ")
    if value is None:
        return bool(optional)
    if isinstance(value, bool):
        return kind == "bool"
    return isinstance(value, {"int": int, "float": (int, float), "str": str, "bool": bool}[kind])


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_chain(config: ExperimentConfig) -> ChainSpec:
    if config.spec is None:
        raise ConfigError("a chain spec is required (--spec PATH or inline JSON)")
    text = config.spec
    if not text.lstrip().startswith("{"):
        try:
            with open(text, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read spec file: {exc}") from exc
    try:
        spec = ChainSpec.from_json(text)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise ConfigError(f"invalid chain spec: {exc}") from exc
    return spec


def _apply_engineering(spec: ChainSpec, config: ExperimentConfig):
    """Retune the intra-block couplings onto a wire level; returns (spec, J_s or None)."""
    if config.engineer is None:
        return spec, None
    try:
        k_str, s_str = config.engineer.split(",")
        k, s = int(k_str), int(s_str)
    except ValueError as exc:
        raise ConfigError(f"--engineer expects 'k,s', got {config.engineer!r}") from exc
    js = engineered_sender_coupling(spec.wire_length, k, s)
    return spec.with_sender_coupling(js), js


def _write(config: ExperimentConfig, chunks) -> None:
    """Write text chunks to --out, or to stdout when it is omitted: the only output path.

    A regular --out file is written to a temporary file beside it and renamed
    into place, so a failure partway leaves no partial output and an existing
    file untouched.  Devices and pipes (e.g. /dev/null) are written in place.
    """
    if config.out is None:
        sys.stdout.writelines(chunks)
        return
    try:
        existing = os.stat(config.out)
    except FileNotFoundError:
        existing = None
    if existing is not None and not stat.S_ISREG(existing.st_mode):
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    target = os.path.realpath(config.out)  # like open(), write through a symlink
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    # O_EXCL never follows or reuses an existing path; 0o666 less the umask is
    # the mode open(target, "w") gives a new file.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        if existing is not None:
            os.chmod(tmp, stat.S_IMODE(existing.st_mode))  # as open() would, keep its mode
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit_table(config: ExperimentConfig, columns: dict) -> None:
    """Stream an ordered name -> column mapping as CSV rows or as a JSON dict of columns."""
    columns = {name: np.asarray(col, dtype=float) for name, col in columns.items()}
    if config.format == "csv":
        _write(config, _csv_lines(columns))
    else:
        _emit_json(config, columns)


def _csv_lines(columns: dict):
    """CSV text of a name -> float column mapping: the header line, then blocks of rows.

    Each block of rows becomes Python floats and one %-template formats a
    whole row: the same text as _fmt per cell, without a call per numpy scalar.
    """
    yield ",".join(columns) + "\n"
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    values = list(columns.values())
    for lo in range(0, len(values[0]), _CSV_BLOCK_ROWS):
        block = [col[lo : lo + _CSV_BLOCK_ROWS].tolist() for col in values]
        yield "".join(line % row for row in zip(*block))


def _emit_json(config: ExperimentConfig, obj) -> None:
    """Stream obj as indented JSON; numpy arrays become lists only while they are encoded."""
    encoder = json.JSONEncoder(indent=2, default=np.ndarray.tolist)
    _write(config, itertools.chain(encoder.iterencode(obj), ["\n"]))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_make_spec(config: ExperimentConfig) -> int:
    if config.N is None or config.n is None:
        raise ConfigError("make-spec needs --N and --n")
    wire = config.N - 2 * config.n
    if wire < 0:
        raise ConfigError(f"N={config.N} too short for two blocks of {config.n} sites")
    j0 = config.J0 if config.J0 is not None else 1.0
    sender = config.sender_coupling if config.sender_coupling is not None else 1.0
    spec = ChainSpec.weak_coupling(
        wire_length=wire, n=config.n, J0=j0, sender_coupling=sender, field=config.field
    )
    if config.engineer is not None:
        spec, _ = _apply_engineering(spec, config)
    if config.delta:
        spec = ChainSpec.from_dict({**spec.to_dict(), "delta": config.delta})
    _write(config, [spec.to_json(), "\n"])
    return EXIT_OK


def cmd_spectrum(config: ExperimentConfig) -> int:
    spec = _load_chain(config)
    spec, js = _apply_engineering(spec, config)
    n = config.n if config.n is not None else spec.block_size
    if n != spec.block_size or 2 * n > spec.N or spec.N < 2:
        raise ConfigError(f"block size n={n} does not fit this chain (N={spec.N})")
    decomp = spectral(spec)
    payload: dict = {
        "N": spec.N,
        "block_size": n,
        "eigenvalues": [float(w) for w in decomp.eigenvalues],
    }
    if js is not None:
        payload["sender_coupling"] = js
    report = resonance_report(spec, n)  # unsupported block sizes surface as config errors
    payload["resonance"] = {
        "first_order": list(report.first_order_indices),
        "second_order": list(report.second_order_indices),
        "cluster": list(report.cluster_indices),
        "delta_omega": report.delta_omega,
        "tau": report.transfer_time,
        "regime": report.regime.value,
        "note": report.note,
    }
    _emit_json(config, payload)
    return EXIT_OK


def cmd_scan(config: ExperimentConfig) -> int:
    spec = _load_chain(config)
    spec, _ = _apply_engineering(spec, config)
    n = config.n if config.n is not None else spec.block_size
    if n != spec.block_size:
        raise ConfigError(f"--n {n} does not match the spec's block size {spec.block_size}")
    if config.tmax is not None:
        tmax = config.tmax
        if not (math.isfinite(tmax) and tmax > 0):
            raise ConfigError(f"--tmax must be finite and positive, got {tmax}")
    else:
        if n not in (3, 4):
            raise ConfigError("--tmax is required unless the block has 3 or 4 sites")
        tmax = 1.2 * resonance_report(spec, n).transfer_time
    points = config.grid if config.grid is not None else int(np.ceil(tmax / 0.2)) + 1
    if points < 1:
        raise ConfigError("--grid must be positive")
    if points * 2**n > MAX_SCAN_CELLS:
        raise ConfigError(
            f"--grid {points} with n={n} needs {points * 2**n} cells, above the limit of "
            f"{MAX_SCAN_CELLS}; use at most {MAX_SCAN_CELLS // 2**n} points"
        )
    times = np.linspace(0.0, tmax, points)
    scan = fidelity_scan(spec, n, times)
    columns = {
        "t": times,
        "F_avg": scan.fidelity,
        "F_envelope": scan.envelope if scan.envelope is not None else np.full(times.shape, np.nan),
        "classical_term": scan.classical_term,
        "quantum_term": scan.quantum_term,
    }
    for s, series in scan.amplitudes.items():
        columns["abs_f_" + "".join(map(str, s))] = np.abs(series)
    if n == 1:
        columns["F_phase_aligned"] = phase_aligned_fidelity(scan.amplitudes[(1,)])
    _emit_table(config, columns)
    return EXIT_OK


def _parse_n_list(config: ExperimentConfig) -> list[int]:
    if config.n is not None:
        return [config.n]
    if config.n_list is not None:
        try:
            ns = [int(x) for x in str(config.n_list).split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --n-list {config.n_list!r}") from exc
    else:
        ns = [1, 2, 3, 4]
    if not ns or any(n < 1 for n in ns):
        raise ConfigError("channel counts must be positive")
    return ns


def cmd_independent(config: ExperimentConfig) -> int:
    ns = _parse_n_list(config)
    points = config.grid if config.grid is not None else 201
    if points < 2:
        raise ConfigError("--grid must be at least 2")
    f_grid = np.linspace(0.0, 1.0, points)
    names = ["n", "f", "F_n", "F1_pow_n", "R_f", "R_F", "variance_full", "variance_product", "cv"]
    rows = []
    for n in ns:
        d = 2**n
        for f in f_grid:
            stats = stats_from_map(independent_channels_map(f, n))
            stats1 = stats_from_map(independent_channels_map(f, 1))
            F = stats.mean
            r_F = product_ratio_vs_fidelity(F, n) if F > 1.0 / d + 1e-15 else float("nan")
            rows.append(
                [
                    n,
                    f,
                    F,
                    independent_channels_fidelity(f, 1) ** n,
                    product_ratio_vs_amplitude(float(f), n),
                    r_F,
                    stats.variance,
                    product_state_variance(stats1, n),
                    stats.cv,
                ]
            )
    _emit_table(config, dict(zip(names, zip(*rows))))
    return EXIT_OK


def _mc_block(result: McResult, mean_ref: float, m2_ref: float) -> dict:
    def z(diff: float, sem: float) -> float:
        if sem == 0.0:
            return 0.0 if abs(diff) < 1e-12 else float("inf")
        return abs(diff) / sem

    return {
        "mean": result.mean,
        "second_moment": result.second_moment,
        "sem_mean": result.std_error_mean,
        "sem_second_moment": result.std_error_second_moment,
        "z_mean": z(result.mean - mean_ref, result.std_error_mean),
        "z_second_moment": z(result.second_moment - m2_ref, result.std_error_second_moment),
    }


def cmd_montecarlo(config: ExperimentConfig) -> int:
    if config.seed is None:
        raise ConfigError("--seed is mandatory for Monte Carlo runs")
    samples = config.samples if config.samples is not None else 100_000
    if samples < 1:
        raise ConfigError("--samples must be positive")

    sources = [config.identity, config.amplitude is not None, config.spec is not None]
    if sum(sources) != 1:
        raise ConfigError("choose exactly one map source: --identity, --amplitude or --spec")

    if config.identity:
        if config.n is None:
            raise ConfigError("--identity needs --n (block size)")
        m = identity_map(2**config.n)
        description = f"identity({2 ** config.n})"
        n_qubits = config.n
    elif config.amplitude is not None:
        if config.n is None:
            raise ConfigError("--amplitude needs --n (number of channels)")
        m = independent_channels_map(config.amplitude, config.n)
        description = f"independent_channels(f={_fmt(config.amplitude)}, n={config.n})"
        n_qubits = config.n
    else:
        spec = _load_chain(config)
        spec, _ = _apply_engineering(spec, config)
        n_qubits = config.n if config.n is not None else spec.block_size
        if config.t is None:
            raise ConfigError("--t (evolution time) is required with --spec")
        m = map_from_evolution(spec, n_qubits, config.t)
        description = f"chain(N={spec.N}, n={n_qubits}, t={_fmt(config.t)})"

    mean_ref = avg_fidelity_from_map(m)
    m2_ref = second_moment_from_map(m)
    evaluator = fidelity_evaluator(m)
    haar = haar_sample_fidelity(evaluator, m.d, samples, config.seed)
    report = {
        "map": description,
        "d": m.d,
        "samples": samples,
        "seed": config.seed,
        "analytic": {"mean": mean_ref, "second_moment": m2_ref},
        "haar": _mc_block(haar, mean_ref, m2_ref),
    }

    if config.product:
        if config.amplitude is None:
            raise ConfigError("--product requires --amplitude (independent channels)")
        stats1 = stats_from_map(independent_channels_map(config.amplitude, 1))
        prod_mean = stats1.mean**n_qubits
        prod_m2 = stats1.second_moment**n_qubits
        prod_values = sample_fidelity_values(
            evaluator, m.d, samples, config.seed + 1, product_of=n_qubits
        )
        prod = McResult.from_values(prod_values, config.seed + 1)
        report["product"] = _mc_block(prod, prod_mean, prod_m2)
        report["product"]["analytic_mean"] = prod_mean
        report["product"]["analytic_second_moment"] = prod_m2

    zs = [report["haar"]["z_mean"], report["haar"]["z_second_moment"]]
    if config.product:
        zs += [report["product"]["z_mean"], report["product"]["z_second_moment"]]
    report["passed"] = bool(all(z <= 5.0 for z in zs))
    _emit_json(config, report)
    return EXIT_OK if report["passed"] else EXIT_STATISTICAL


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with parameters; flags override it")
    p.add_argument("--spec", help="chain spec: path to JSON file, or inline JSON")
    p.add_argument("--n", type=int, help="block size / number of channels")
    p.add_argument("--tmax", type=float, help="scan window upper edge (units 1/J)")
    p.add_argument("--grid", type=int, help="number of grid points")
    p.add_argument("--samples", type=int, help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.add_argument("--format", choices=("csv", "json"), help="table output format")
    p.add_argument("--engineer", metavar="K,S", help="retune block couplings onto wire level K")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spintransfer",
        description="Average-fidelity statistics of multi-qubit state transfer over spin chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-spec", help="write a weak-coupling chain spec as JSON")
    _add_common(p)
    p.add_argument("--N", type=int, help="total number of sites")
    p.add_argument("--J0", type=float, help="block-wire coupling")
    p.add_argument("--sender-coupling", dest="sender_coupling", type=float)
    p.add_argument("--field", type=float, help="uniform on-site field")
    p.add_argument("--delta", type=float, help="zz-anisotropy (exact engine only)")

    p = sub.add_parser("spectrum", help="eigenvalues and resonance analysis of a chain")
    _add_common(p)

    p = sub.add_parser("scan", help="average transfer fidelity over a time grid")
    _add_common(p)

    p = sub.add_parser("independent", help="parallel-channel fidelity analytics on an amplitude grid")
    _add_common(p)
    p.add_argument("--n-list", dest="n_list", help="comma-separated channel counts")

    p = sub.add_parser("montecarlo", help="Monte Carlo cross-check of the closed-form moments")
    _add_common(p)
    p.add_argument("--t", type=float, help="evolution time for --spec maps")
    p.add_argument("--amplitude", type=float, help="single-qubit amplitude for parallel channels")
    p.add_argument("--identity", action="store_true", help="use the identity map")
    p.add_argument("--product", action="store_true", help="also sample product-state inputs")

    return parser


_COMMANDS = {
    "make-spec": cmd_make_spec,
    "spectrum": cmd_spectrum,
    "scan": cmd_scan,
    "independent": cmd_independent,
    "montecarlo": cmd_montecarlo,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flag_values = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    file_values: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot load config: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if not isinstance(file_values, dict):
            print("error: config file must hold a JSON object", file=sys.stderr)
            return EXIT_CONFIG

    try:
        config = ExperimentConfig.merge(file_values, flag_values)
        return _COMMANDS[args.command](config)
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
