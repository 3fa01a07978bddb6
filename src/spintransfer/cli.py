"""Command-line front end: spec generation, spectra, scans, analytics and MC checks.

Commands exit 0 on success, 2 on configuration errors, 3 on numerical
failures and 4 when a Monte Carlo cross-check disagrees with the closed-form
value beyond 5 standard errors.  CSV numbers are printed with 17 significant
digits (%.17g); JSON numbers are Python's shortest round-trip repr (0.1, not
0.10000000000000001).  Both formats round-trip exactly, and identical inputs
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
from typing import Callable, NamedTuple

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
    MAX_CHANNELS,
    independent_channels_fidelity,
    independent_channels_stats,
    product_ratio_vs_amplitude,
    product_state_stats,
    stats_from_map,
)
from .oracle import McResult, haar_sample_fidelity, sample_fidelity_values
from .protocol import GRID_STEP, FidelityScan, scan_chunks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_STATISTICAL = 4

# A scan computes about 2**n numbers per grid point (one series per subset plus
# their moduli); grids with more cells than this are rejected before any work.
# The CSV scan is streamed, so this bounds the run time, not the memory.
MAX_SCAN_CELLS = 1 << 26
# montecarlo builds a dynamical map and holds its 4**n complex elements: 268 MB at this cap.
MAX_MAP_QUBITS = 6
_CSV_BLOCK_ROWS = 1 << 10  # rows turned into Python floats and joined at a time


class NonFiniteOutputError(ArithmeticError):
    """A result holds a number that strict JSON cannot represent."""


_NUMERICAL_ERRORS = (
    FreeFermionError,
    SolverError,
    ResonanceError,
    DimensionCapError,
    MapConstructionError,
    MapValidationError,
    NonFiniteOutputError,
)


class ConfigError(ValueError):
    pass


def _check_out_path(out: str) -> None:
    """Reject, before any work, an --out that is a directory or lies in a missing directory."""
    target = os.path.realpath(out)  # _write writes through symlinks, so check where it lands
    if os.path.isdir(target):
        raise ConfigError(f"--out {out!r} is a directory")
    head = os.path.dirname(target)
    if not os.path.isdir(head):
        raise ConfigError(f"--out {out!r}: {head!r} is not an existing directory")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_chain(text: str | None) -> ChainSpec:
    if text is None:
        raise ConfigError("a chain spec is required (--spec PATH or inline JSON)")
    if not text.lstrip().startswith("{"):
        try:
            with open(text, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read spec file: {exc}") from exc
    try:
        spec = ChainSpec.from_json(text)
    except (ValueError, TypeError, KeyError, OverflowError, json.JSONDecodeError) as exc:
        raise ConfigError(f"invalid chain spec: {exc}") from exc
    return spec


def _apply_engineering(spec: ChainSpec, engineer: str | None):
    """Retune the intra-block couplings onto a wire level; returns (spec, J_s or None)."""
    if engineer is None:
        return spec, None
    try:
        k_str, s_str = engineer.split(",")
        k, s = int(k_str), int(s_str)
    except ValueError as exc:
        raise ConfigError(f"--engineer expects 'k,s', got {engineer!r}") from exc
    js = engineered_sender_coupling(spec.wire_length, k, s)
    return spec.with_sender_coupling(js), js


def _write(out: str | None, chunks) -> None:
    """Write text chunks to --out, or to stdout when it is omitted: the only output path.

    A regular --out file is written to a temporary file beside it and renamed
    into place, so a failure partway leaves no partial output and an existing
    file untouched.  Devices and pipes (e.g. /dev/null) are written in place.
    """
    if out is None:
        sys.stdout.writelines(chunks)
        return
    try:
        existing = os.stat(out)
    except FileNotFoundError:
        existing = None
    if existing is not None and not stat.S_ISREG(existing.st_mode):
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    target = os.path.realpath(out)  # like open(), write through a symlink
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


def _emit_table(out: str | None, fmt: str, blocks) -> None:
    """Write a table given as an iterator of blocks of rows, each an ordered name -> float array.

    The first block is computed before anything is written, so a command that
    fails on its input leaves no output.  CSV rows are then streamed block by
    block; a JSON table is one dict of columns, so its float columns are joined.
    """
    first = next(blocks)
    if fmt == "csv":
        rows = itertools.chain.from_iterable(map(_csv_rows, blocks))
        _write(out, itertools.chain(_csv_lines(first), rows))
    else:
        rest = list(blocks)
        _emit_json(out, {name: np.concatenate([first[name], *(b[name] for b in rest)])
                         for name in first})


def _csv_lines(columns: dict):
    """CSV text of a name -> float column mapping: the header line, then its rows."""
    yield ",".join(columns) + "\n"
    yield from _csv_rows(columns)


def _csv_rows(columns: dict):
    """CSV rows of a name -> float column mapping, in blocks of rows.

    Each block of rows becomes Python floats and one %-template formats a
    whole row: the same text as _fmt per cell, without a call per numpy scalar.
    """
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    values = list(columns.values())
    for lo in range(0, len(values[0]), _CSV_BLOCK_ROWS):
        block = [col[lo : lo + _CSV_BLOCK_ROWS].tolist() for col in values]
        yield "".join(line % row for row in zip(*block))


def _emit_json(out: str | None, obj) -> None:
    """Stream obj as indented, strict JSON; numpy arrays become lists only while they are encoded.

    RFC 8259 has no NaN or infinity: one fails the command as a numerical error
    while encoding, so an --out file is left unwritten.
    """
    encoder = json.JSONEncoder(indent=2, allow_nan=False, default=np.ndarray.tolist)
    try:
        _write(out, itertools.chain(encoder.iterencode(obj), ["\n"]))
    except ValueError as exc:  # allow_nan=False met a NaN or an infinity
        raise NonFiniteOutputError(f"cannot write JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_make_spec(config: argparse.Namespace) -> int:
    if config.N is None or config.n is None:
        raise ConfigError("make-spec needs --N and --n")
    wire = config.N - 2 * config.n
    if config.n < 1 or wire < 0:
        raise ConfigError(f"N={config.N} does not fit two blocks of n={config.n} sites (n >= 1)")
    spec = ChainSpec.weak_coupling(wire, config.n, config.J0, config.sender_coupling, config.field)
    spec, _ = _apply_engineering(spec, config.engineer)
    if config.delta:
        spec = ChainSpec.from_dict({**spec.to_dict(), "delta": config.delta})
    _write(config.out, [spec.to_json(), "\n"])
    return EXIT_OK


def cmd_spectrum(config: argparse.Namespace) -> int:
    spec, js = _apply_engineering(_load_chain(config.spec), config.engineer)
    n = spec.block_size
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
    _emit_json(config.out, payload)
    return EXIT_OK


def cmd_scan(config: argparse.Namespace) -> int:
    spec, _ = _apply_engineering(_load_chain(config.spec), config.engineer)
    n = spec.block_size
    if config.tmax is not None:
        tmax = config.tmax
        if not (math.isfinite(tmax) and tmax > 0):
            raise ConfigError(f"--tmax must be finite and positive, got {tmax}")
    else:
        if n not in (3, 4):
            raise ConfigError("--tmax is required unless the block has 3 or 4 sites")
        tmax = 1.2 * resonance_report(spec, n).transfer_time
    points = config.grid if config.grid is not None else int(np.ceil(tmax / GRID_STEP)) + 1
    if points < 1:
        raise ConfigError("--grid must be positive")
    if points * 2**n > MAX_SCAN_CELLS:
        raise ConfigError(
            f"--grid {points} with n={n} needs {points * 2**n} cells, above the limit of "
            f"{MAX_SCAN_CELLS}; use at most {MAX_SCAN_CELLS // 2**n} points"
        )
    times = np.linspace(0.0, tmax, points)

    def columns(scan: FidelityScan) -> dict:
        table = {
            "t": scan.times,
            "F_avg": scan.fidelity,
            "F_envelope": scan.envelope,
            "classical_term": scan.classical_term,
            "quantum_term": scan.quantum_term,
        }
        if scan.envelope is None:  # no resonance report for this block
            del table["F_envelope"]
        for s, series in scan.amplitudes.items():
            table["abs_f_" + "".join(map(str, s))] = np.abs(series)
        if n == 1:  # with the receiver's phase aligned only |f| counts
            table["F_phase_aligned"] = independent_channels_fidelity(table["abs_f_1"], 1)
        return table

    _emit_table(config.out, config.format, map(columns, scan_chunks(spec, n, times)))
    return EXIT_OK


def cmd_independent(config: argparse.Namespace) -> int:
    try:
        ns = [int(x) for x in config.n_list.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --n-list {config.n_list!r}") from exc
    if not ns or not all(1 <= n <= MAX_CHANNELS for n in ns):
        raise ConfigError(f"--n-list {config.n_list!r} must name counts from 1 to {MAX_CHANNELS}")
    points = config.grid if config.grid is not None else 201
    if points < 2:
        raise ConfigError("--grid must be at least 2")
    f_grid = np.linspace(0.0, 1.0, points)

    def blocks():
        """The table in blocks of grid points, n-major as written."""
        for n in ns:
            for lo in range(0, points, _CSV_BLOCK_ROWS):
                f = f_grid[lo : lo + _CSV_BLOCK_ROWS]
                stats = independent_channels_stats(f, n)
                product = product_state_stats(independent_channels_stats(f, 1), n)
                # F_n fixes the real amplitude f, so the ratio at fixed F_n is the ratio at f.
                ratio = product_ratio_vs_amplitude(f, n)
                yield {
                    "n": np.full_like(f, n),
                    "f": f,
                    "F_n": stats.mean,
                    "F1_pow_n": product.mean,
                    "R_f": ratio,
                    "R_F": ratio,
                    "variance_full": stats.variance,
                    "variance_product": product.variance,
                    "cv": stats.cv,
                }

    _emit_table(config.out, config.format, blocks())
    return EXIT_OK


def _mc_block(result: McResult, mean_ref: float, m2_ref: float) -> dict:
    def z(diff: float, sem: float) -> float | None:
        # With no spread (one sample) a nonzero difference has no z-score: null, and not passed.
        if sem == 0.0:
            return 0.0 if abs(diff) < 1e-12 else None
        return abs(diff) / sem

    return {
        "mean": result.mean,
        "second_moment": result.second_moment,
        "sem_mean": result.std_error_mean,
        "sem_second_moment": result.std_error_second_moment,
        "z_mean": z(result.mean - mean_ref, result.std_error_mean),
        "z_second_moment": z(result.second_moment - m2_ref, result.std_error_second_moment),
    }


def cmd_montecarlo(config: argparse.Namespace) -> int:
    if config.seed is None:
        raise ConfigError("--seed is mandatory for Monte Carlo runs")
    if config.samples < 1:
        raise ConfigError("--samples must be positive")

    sources = [config.identity, config.amplitude is not None, config.spec is not None]
    if sum(sources) != 1:
        raise ConfigError("choose exactly one map source: --identity, --amplitude or --spec")
    if config.product and config.amplitude is None:
        raise ConfigError("--product requires --amplitude (independent channels)")

    if config.spec is None:
        if config.t is not None or config.engineer is not None:
            raise ConfigError("--t and --engineer apply only to --spec maps")
        if config.n is None:
            raise ConfigError("--identity and --amplitude need --n (number of qubits)")
        n_qubits = config.n
    else:
        spec, _ = _apply_engineering(_load_chain(config.spec), config.engineer)
        n_qubits = config.n if config.n is not None else spec.block_size
        if config.t is None:
            raise ConfigError("--t (evolution time) is required with --spec")
        if not math.isfinite(config.t):
            raise ConfigError(f"--t must be finite, got {config.t}")
    if not 1 <= n_qubits <= MAX_MAP_QUBITS:
        raise ConfigError(
            f"a map on n={n_qubits} qubits: n must be 1 to {MAX_MAP_QUBITS} (4**n complex elements)"
        )

    if config.identity:
        m = identity_map(2**n_qubits)
        description = f"identity({2 ** n_qubits})"
    elif config.amplitude is not None:
        m = independent_channels_map(config.amplitude, n_qubits)
        description = f"independent_channels(f={_fmt(config.amplitude)}, n={n_qubits})"
    else:
        m = map_from_evolution(spec, n_qubits, config.t)
        description = f"chain(N={spec.N}, n={n_qubits}, t={_fmt(config.t)})"

    stats = stats_from_map(m)
    mean_ref, m2_ref = stats.mean, stats.second_moment
    evaluator = fidelity_evaluator(m)
    haar = haar_sample_fidelity(evaluator, m.d, config.samples, config.seed)
    report = {
        "map": description,
        "d": m.d,
        "samples": config.samples,
        "seed": config.seed,
        "analytic": {"mean": mean_ref, "second_moment": m2_ref},
        "haar": _mc_block(haar, mean_ref, m2_ref),
    }

    if config.product:
        ref = product_state_stats(independent_channels_stats(config.amplitude, 1), n_qubits)
        prod_values = sample_fidelity_values(
            evaluator, m.d, config.samples, config.seed + 1, product_of=n_qubits
        )
        prod = McResult.from_values(prod_values, config.seed + 1)
        report["product"] = _mc_block(prod, ref.mean, ref.second_moment)
        report["product"]["analytic_mean"] = ref.mean
        report["product"]["analytic_second_moment"] = ref.second_moment

    zs = [report["haar"]["z_mean"], report["haar"]["z_second_moment"]]
    if config.product:
        zs += [report["product"]["z_mean"], report["product"]["z_second_moment"]]
    report["passed"] = all(z is not None and z <= 5.0 for z in zs)
    _emit_json(config.out, report)
    return EXIT_OK if report["passed"] else EXIT_STATISTICAL


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Option(NamedTuple):
    kind: type  # str, int, float or bool (a bool option is a switch)
    default: object
    help: str
    choices: tuple | None = None

    def accepts(self, value) -> bool:
        """Whether a config-file value fits: floats accept ints, ints and floats reject bools."""
        if value is None:
            return self.default is None
        if isinstance(value, bool):
            return self.kind is bool
        if self.choices is not None:
            return value in self.choices
        return isinstance(value, (int, float) if self.kind is float else self.kind)


_OPTIONS = {
    "spec": _Option(str, None, "chain spec: path to JSON file, or inline JSON"),
    "n": _Option(int, None, "block size / number of channels"),
    "N": _Option(int, None, "total number of sites"),
    "J0": _Option(float, 1.0, "block-wire coupling"),
    "sender_coupling": _Option(float, 1.0, "intra-block coupling"),
    "field": _Option(float, 0.0, "uniform on-site field"),
    "delta": _Option(float, 0.0, "zz-anisotropy (exact engine only)"),
    "engineer": _Option(str, None, "K,S: retune block level S onto wire level K"),
    "tmax": _Option(float, None, "scan window upper edge (units 1/J); default 1.2 tau"),
    "grid": _Option(int, None, f"number of grid points (scan: step {GRID_STEP}, independent: 201)"),
    "n_list": _Option(str, "1,2,3,4", "comma-separated channel counts"),
    "t": _Option(float, None, "evolution time of the spec map"),
    "amplitude": _Option(float, None, "single-qubit amplitude for parallel channels"),
    "identity": _Option(bool, False, "use the identity map"),
    "product": _Option(bool, False, "also sample product-state inputs"),
    "samples": _Option(int, 100_000, "Monte Carlo sample count"),
    "seed": _Option(int, None, "RNG seed"),
    "out": _Option(str, None, "output path (stdout when omitted)"),
    "format": _Option(str, "csv", "table output format", ("csv", "json")),
}


class _Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    options: str  # names of the options the command reads, space-separated


_COMMANDS = {
    "make-spec": _Command(cmd_make_spec, "write a weak-coupling chain spec as JSON",
                          "N n J0 sender_coupling field delta engineer out"),
    "spectrum": _Command(cmd_spectrum, "eigenvalues and resonance analysis of a chain",
                         "spec engineer out"),
    "scan": _Command(cmd_scan, "average transfer fidelity over a time grid",
                     "spec engineer tmax grid out format"),
    "independent": _Command(cmd_independent,
                            "parallel-channel fidelity analytics on an amplitude grid",
                            "n_list grid out format"),
    "montecarlo": _Command(cmd_montecarlo, "Monte Carlo cross-check of the closed-form moments",
                           "spec n engineer t amplitude identity product samples seed out"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spintransfer",
        description="Average-fidelity statistics of multi-qubit state transfer over spin chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        # SUPPRESS leaves flags that were not given out of the namespace, so
        # config-file values and table defaults show through in main.  No
        # abbreviations: --n would otherwise be taken as --n-list.
        p = sub.add_parser(
            name, help=command.help, argument_default=argparse.SUPPRESS, allow_abbrev=False
        )
        p.add_argument("--config", help="JSON file with parameters; flags override it")
        for dest in command.options.split():
            option = _OPTIONS[dest]
            help_text = option.help
            if option.default is not None and option.kind is not bool:
                help_text += f" (default: {option.default})"
            flag = "--" + dest.replace("_", "-")
            if option.kind is bool:
                p.add_argument(flag, action="store_true", help=help_text)
            else:
                p.add_argument(flag, type=option.kind, choices=option.choices, help=help_text)
    return parser


def _merge(names: list[str], file_values: dict, flag_values: dict) -> argparse.Namespace:
    """A command's options: table defaults, overridden by config-file values, then by flags."""
    unknown = set(file_values) - set(names)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for name, value in file_values.items():
        option = _OPTIONS[name]
        if not option.accepts(value):
            expected = option.choices or option.kind.__name__
            raise ConfigError(f"config value {name}={value!r} is not of type {expected}")
    merged = {name: _OPTIONS[name].default for name in names}
    merged.update(file_values)
    merged.update(flag_values)
    if merged["out"] is not None:
        _check_out_path(merged["out"])
    return argparse.Namespace(**merged)


def main(argv: list[str] | None = None) -> int:
    flag_values = vars(build_parser().parse_args(argv))
    command = _COMMANDS[flag_values.pop("command")]
    config_path = flag_values.pop("config", None)
    file_values: dict = {}
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot load config: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if not isinstance(file_values, dict):
            print("error: config file must hold a JSON object", file=sys.stderr)
            return EXIT_CONFIG

    try:
        return command.run(_merge(command.options.split(), file_values, flag_values))
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # --out could not be written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
