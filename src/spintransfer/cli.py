"""Command-line front end: spec generation, spectra, scans, analytics and MC checks.

Commands exit 0 on success, 2 on configuration errors, 3 on numerical
failures and 4 when a Monte Carlo cross-check disagrees with the closed-form
value beyond 5 standard errors.  All numeric output is printed with 17
significant digits so files round-trip losslessly and identical inputs
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
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
    FidelityStats,
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
        known = {f.name for f in fields(cls)}
        unknown = set(file_values) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged = dict(file_values)
        merged.update({k: v for k, v in flag_values.items() if v is not None and v is not False})
        bad = set(merged) - known
        if bad:
            raise ConfigError(f"unknown parameters: {sorted(bad)}")
        try:
            return cls(**merged)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


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


def _write(config: ExperimentConfig, text: str) -> None:
    if config.out is None:
        sys.stdout.write(text)
    else:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_table(config: ExperimentConfig, columns: list[str], rows) -> None:
    """Write a table of float rows as CSV (streamed) or a JSON dict of columns."""
    if config.format == "csv":
        out = sys.stdout if config.out is None else open(config.out, "w", encoding="utf-8")
        try:
            out.write(",".join(columns) + "\n")
            for row in rows:
                out.write(",".join(_fmt(v) for v in row) + "\n")
        finally:
            if out is not sys.stdout:
                out.close()
    else:
        data: dict[str, list[float]] = {name: [] for name in columns}
        for row in rows:
            for name, value in zip(columns, row):
                data[name].append(float(value))
        _write(config, json.dumps(data, indent=2) + "\n")


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
    _write(config, spec.to_json() + "\n")
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
    _write(config, json.dumps(payload, indent=2) + "\n")
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
    times = np.linspace(0.0, tmax, points)
    scan = fidelity_scan(spec, n, times)

    columns = ["t", "F_avg", "F_envelope", "classical_term", "quantum_term"]
    subset_names = ["abs_f_" + "".join(map(str, s)) for s in scan.amplitudes]
    columns.extend(subset_names)
    if n == 1:
        columns.append("F_phase_aligned")
    envelope = scan.envelope if scan.envelope is not None else np.full(times.shape, np.nan)
    moduli = scan.amplitude_moduli()
    if n == 1:
        aligned = phase_aligned_fidelity(moduli[(1,)])

    def rows():
        for i, t in enumerate(times):
            row = [
                t,
                scan.fidelity[i],
                envelope[i],
                scan.classical_term[i],
                scan.quantum_term[i],
            ]
            row.extend(moduli[s][i] for s in scan.amplitudes)
            if n == 1:
                row.append(aligned[i])
            yield row

    _emit_table(config, columns, rows())
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
    columns = [
        "n",
        "f",
        "F_n",
        "F1_pow_n",
        "R_f",
        "R_F",
        "variance_full",
        "variance_product",
        "cv",
    ]
    rows = []
    for n in ns:
        d = 2**n
        one_qubit_stats_cache: dict[float, FidelityStats] = {}
        for f in f_grid:
            m = independent_channels_map(f, n)
            stats = stats_from_map(m)
            mean1 = independent_channels_fidelity(f, 1)
            if f not in one_qubit_stats_cache:
                m1 = independent_channels_map(f, 1)
                one_qubit_stats_cache[f] = stats_from_map(m1)
            stats1 = one_qubit_stats_cache[f]
            F = stats.mean
            r_F = product_ratio_vs_fidelity(F, n) if F > 1.0 / d + 1e-15 else float("nan")
            rows.append(
                [
                    float(n),
                    float(f),
                    F,
                    mean1**n,
                    product_ratio_vs_amplitude(float(f), n),
                    r_F,
                    stats.variance,
                    product_state_variance(stats1, n),
                    stats.cv,
                ]
            )
    _emit_table(config, columns, rows)
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
    _write(config, json.dumps(report, indent=2) + "\n")
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
    except (ConfigError, ValueError) as exc:
        if isinstance(exc, _NUMERICAL_ERRORS):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
