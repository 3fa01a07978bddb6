import json
import math
import os
import re
import stat
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintransfer import chain, cli, dynmap, fidelity, protocol
from spintransfer.chain import ChainSpec, engineered_sender_coupling
from spintransfer.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def weak15(tmp_path):
    path = tmp_path / "weak15.json"
    path.write_text(ChainSpec.weak_coupling(9, 3, 0.01).to_json())
    return path


def test_make_spec_round_trips(tmp_path):
    out = tmp_path / "spec.json"
    assert run(["make-spec", "--N", 15, "--n", 3, "--J0", 0.01, "--out", out]) == 0
    spec = ChainSpec.from_json(out.read_text())
    assert spec.N == 15
    assert spec.J0 == 0.01
    assert spec.weak_bonds() == (3, 12)


def test_make_spec_with_engineering(tmp_path):
    out = tmp_path / "spec.json"
    assert run(["make-spec", "--N", 18, "--n", 4, "--J0", 0.01,
                "--engineer", "2,1", "--out", out]) == 0
    spec = ChainSpec.from_json(out.read_text())
    assert spec.couplings[0] == pytest.approx(1.0399, abs=1e-4)


def test_spectrum_output(weak15, tmp_path):
    out = tmp_path / "spectrum.json"
    assert run(["spectrum", "--spec", weak15, "--out", out]) == 0
    data = json.loads(out.read_text())
    assert len(data["eigenvalues"]) == 15
    res = data["resonance"]
    assert res["first_order"] == [7, 8, 9]
    assert res["second_order"] == [3, 4, 12, 13]
    assert len(res["cluster"]) == 7
    assert res["delta_omega"] > 0
    assert res["regime"] == "non_resonant"


def test_spectrum_echoes_engineered_coupling(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(ChainSpec.weak_coupling(10, 4, 0.01).to_json())
    out = tmp_path / "spectrum.json"
    assert run(["spectrum", "--spec", path, "--engineer", "2,1", "--out", out]) == 0
    data = json.loads(out.read_text())
    assert data["sender_coupling"] == pytest.approx(1.0399, abs=1e-4)
    assert data["resonance"]["regime"] == "engineered"


def test_spectrum_rejects_single_site(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(
        ChainSpec(N=1, couplings=(), fields=(0.0,), sender_sites=(1,),
                  receiver_sites=(1,), J0=1.0).to_json()
    )
    assert run(["spectrum", "--spec", path]) == 2


def test_scan_csv(weak15, tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["scan", "--spec", weak15, "--tmax", 100, "--grid", 11, "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["t", "F_avg", "F_envelope", "classical_term", "quantum_term"]
    assert "abs_f_123" in header
    assert len(lines) == 12
    first = dict(zip(header, [float(x) for x in lines[1].split(",")]))
    assert first["t"] == 0.0
    assert first["F_avg"] == pytest.approx(0.125, abs=1e-12)  # random guess floor at t=0


def test_scan_inline_spec(tmp_path):
    inline = ChainSpec.uniform(6, n=2).to_json()
    out = tmp_path / "scan.csv"
    assert run(["scan", "--spec", inline, "--tmax", 10, "--grid", 5, "--out", out]) == 0
    assert len(out.read_text().strip().splitlines()) == 6


def test_scan_deterministic_output(weak15, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(["scan", "--spec", weak15, "--tmax", 50, "--grid", 7, "--out", out]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("tmax", ["nan", "inf", "0", "-5"])
def test_scan_rejects_bad_tmax(weak15, tmp_path, tmax):
    out = tmp_path / "scan.csv"
    assert run(["scan", "--spec", weak15, "--tmax", tmax, "--grid", 5, "--out", out]) == 2
    assert not out.exists()


def test_scan_grid_over_cell_limit_exits_before_any_work(weak15, tmp_path):
    out = tmp_path / "scan.csv"
    points = cli.MAX_SCAN_CELLS // 2**3 + 1  # one row over the limit for n = 3
    start = time.perf_counter()
    assert run(["scan", "--spec", weak15, "--grid", points, "--out", out]) == 2
    assert time.perf_counter() - start < 5.0
    assert not out.exists()


def test_csv_rows_format_like_fmt_across_blocks():
    rows = cli._CSV_BLOCK_ROWS + 3
    rng = np.random.default_rng(4)
    columns = [rng.standard_normal(rows), np.linspace(0.0, 1e6, rows), rng.standard_normal(rows)]
    columns[0][:6] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e17]
    expected = "".join(",".join(map(cli._fmt, row)) + "\n" for row in zip(*columns))
    assert "".join(cli._csv_lines(dict(zip("xyz", columns)))) == "x,y,z\n" + expected


def _fmt_rows(columns) -> str:
    """CSV rows of float columns, one cli._fmt call per cell."""
    return "".join(",".join(map(cli._fmt, row)) + "\n" for row in zip(*(c.tolist() for c in columns)))


def _assert_csv_rows_match_fmt(columns) -> None:
    got = "".join(cli._csv_rows({str(k): column for k, column in enumerate(columns)}))
    assert got == _fmt_rows(columns)


def test_csv_rows_match_fmt_on_random_bit_patterns():
    """Uniform 64-bit patterns: every sign and exponent, NaN payloads, infinities and subnormals."""
    bits = np.random.default_rng(31).integers(0, 2**64, size=(1 << 17, 8), dtype=np.uint64)
    cells = bits.view(np.float64)
    assert np.isnan(cells).any() and (np.abs(cells) < np.finfo(float).tiny).any()
    _assert_csv_rows_match_fmt(list(cells.T))


@settings(deadline=None, max_examples=300)
@given(st.lists(st.floats(), min_size=1, max_size=60), st.integers(1, 4))
def test_csv_rows_match_fmt_on_any_floats(values, width):
    rows = len(values) // width or 1
    cells = np.resize(np.array(values, dtype=float), rows * width).reshape(rows, width)
    _assert_csv_rows_match_fmt(list(cells.T))


def _edge_floats() -> np.ndarray:
    largest = np.finfo(float).max
    values = [0.0, 5e-324, np.finfo(float).tiny, largest, np.inf, np.nan, 1e16, 1e17, 1e-280, 1e280]
    values += list(range(1, 10_001)) + [2.0**53, 2.0**53 + 2, 2.0**63, 123456789012345678.0]
    for k in range(-300, 300):
        values.append(float(f"1e{k}"))
    for base in (1e16, 1e17, 1e-280, 1e280, *(float(f"1e{k}") for k in range(-300, 300))):
        values += [np.nextafter(base, 0.0), np.nextafter(base, np.inf)]
    # odd * 2**-j: exact binary fractions, some of them ties at 17 digits (2**-25 rounds to even)
    values += [odd * 2.0**j for odd in (1, 3, 5, 7, 9, 11, 13, 99, 12345) for j in range(-80, 80)]
    cells = np.array(values)
    return np.concatenate([cells, -cells])


def test_csv_rows_match_fmt_on_edge_floats():
    cells = _edge_floats()
    assert "%.17g" % 2.0**-25 == "2.9802322387695312e-08"  # ...125 rounds half to even
    cells = np.resize(cells, cells.size + (-cells.size) % 8).reshape(-1, 8)
    _assert_csv_rows_match_fmt(list(cells.T))
    _assert_csv_rows_match_fmt([cells.ravel()])  # the same floats, one per row


def _with_digits(e: int, s: int) -> float:
    """A float whose '%.17g' text has exactly s significant digits, the first at 10**e."""
    lo, count = 10 ** (s - 1), 9 * 10 ** (s - 1)
    start = int("27182818284590452"[:s]) - lo
    for k in range(count):
        m = lo + (start + k) % count
        x = float(f"{m}e{e - s + 1}")
        if m % 10 and ("%.17g" % x).split("e")[0].replace(".", "").lstrip("0") == str(m):
            return x
    raise AssertionError(f"no float has {s} significant digits from 10**{e}")


def test_csv_rows_match_fmt_on_every_leading_zero_and_digit_count():
    """0.d... to 0.000d... with 1 to 17 significant digits and either sign, mixed within rows.

    Row r holds 1 + r % 17 digits, with the sign of r // 17, at four different
    leading-zero counts (e = -1 ... -4), next to exponent-form cells (e = -5
    and 17) and a fixed-form cell with e = r % 17.
    """
    rows = []
    for r in range(34):
        s, sign = 1 + r % 17, (-1.0) ** (r // 17)
        row = [sign * _with_digits(-1 - (r + c) % 4, s) for c in range(4)]
        for c, x in enumerate(row):
            zeros, text = 1 + (r + c) % 4, "%.17g" % abs(x)  # 0.000ddd has four zeros
            assert text.startswith("0." + "0" * (zeros - 1)) and text[zeros + 1] != "0"
            assert len(text) == zeros + 1 + s
        row += [-sign * _with_digits(-5, 2 + r % 16), sign * _with_digits(17, s),
                -sign * _with_digits(r % 17, 17)]
        rows.append(row)
    _assert_csv_rows_match_fmt(list(np.array(rows).T))


@pytest.mark.parametrize("name", ["weak15-default", "eng18-50000"])
def test_csv_rows_match_fmt_on_scan_columns(name):
    """Every column of the weak15 default-grid scan and of the eng18 50,000-row scan."""
    if name == "weak15-default":
        spec = ChainSpec.weak_coupling(9, 3, 0.01)
        points = None
    else:
        spec = ChainSpec.weak_coupling(10, 4, 0.01)
        spec = spec.with_sender_coupling(engineered_sender_coupling(spec.wire_length, 2, 1))
        points = 50_000
    n = spec.block_size
    report = chain.resonance_report(spec, n)
    tmax = 1.2 * report.transfer_time
    if points is None:
        points = int(np.ceil(tmax / protocol.GRID_STEP)) + 1
    rows = 0
    for scan in protocol.scan_chunks(spec, n, np.linspace(0.0, tmax, points), report):
        amplitudes = [np.abs(series) for series in scan.amplitudes.values()]
        _assert_csv_rows_match_fmt([scan.times, scan.fidelity, scan.envelope,
                                    scan.classical_term, scan.quantum_term, *amplitudes])
        rows += scan.times.size
    assert rows == points


def test_failed_out_write_leaves_old_file(tmp_path):
    out = tmp_path / "table.csv"
    out.write_text("old contents\n")
    out.chmod(0o640)

    def chunks():
        yield "t,F_avg\n"
        raise RuntimeError("formatting failed partway")

    with pytest.raises(RuntimeError):
        cli._write(str(out), chunks())
    assert out.read_text() == "old contents\n"
    assert list(tmp_path.iterdir()) == [out]  # no stray temporary file
    cli._write(str(out), iter(["a\n", "b\n"]))
    assert out.read_text() == "a\nb\n"
    assert stat.S_IMODE(out.stat().st_mode) == 0o640  # an existing file keeps its mode


def test_out_file_mode_and_symlink_match_plain_open(tmp_path):
    plain, written = tmp_path / "plain.csv", tmp_path / "written.csv"
    with open(plain, "w"):
        pass
    cli._write(str(written), ["x\n"])
    assert stat.S_IMODE(written.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    link = tmp_path / "link.csv"
    link.symlink_to(written)
    cli._write(str(link), ["y\n"])
    assert link.is_symlink() and written.read_text() == "y\n"


@pytest.mark.parametrize("tmax", [None, 500.0], ids=["tau-window", "given-tmax"])
def test_scan_runs_one_resonance_analysis(weak15, tmp_path, monkeypatch, tmax):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return chain.resonance_report(*args, **kwargs)

    monkeypatch.setattr(cli, "resonance_report", counted)
    monkeypatch.setattr(protocol, "resonance_report", counted)
    out = tmp_path / "scan.csv"
    window = [] if tmax is None else ["--tmax", tmax]
    assert run(["scan", "--spec", weak15, *window, "--grid", 40, "--out", out]) == 0
    assert len(calls) == 1
    assert out.read_text().splitlines()[0].split(",")[2] == "F_envelope"


def test_out_in_missing_directory_exits_before_any_work(weak15, tmp_path, monkeypatch, capsys):
    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran before --out was checked")

    monkeypatch.setattr(cli, "scan_chunks", no_scan)
    (tmp_path / "file").write_text("")
    for out in (tmp_path / "missing" / "x.json", tmp_path / "file" / "x.json", tmp_path):
        assert run(["make-spec", "--N", 6, "--n", 2, "--out", out]) == 2
        assert run(["scan", "--spec", weak15, "--tmax", 50, "--grid", 5, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / ("x" * 255)  # the name fits, the temporary file's name does not
    assert run(["make-spec", "--N", 6, "--n", 2, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output:")
    assert list(tmp_path.iterdir()) == []


def test_scan_rejects_anisotropy(tmp_path, capsys):
    spec = ChainSpec.from_dict({**ChainSpec.uniform(6, n=2).to_dict(), "delta": 0.4})
    path = tmp_path / "aniso.json"
    path.write_text(spec.to_json())
    assert run(["scan", "--spec", path, "--tmax", 5]) == 3
    assert capsys.readouterr().out == ""  # the first chunk fails before the header is written


def _fresh_python(code: str, *args) -> str:
    """Standard output of `code` run in a fresh interpreter that imports this spintransfer."""
    path = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout


def _scan_peak_rss_mb(spec_path, out, grid: int) -> float:
    """Peak RSS of a CSV scan run in a fresh interpreter, in MB (Linux reports KiB)."""
    code = (
        "import resource, sys\n"
        "from spintransfer.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    argv = ["scan", "--spec", spec_path, "--tmax", 200000, "--grid", grid, "--out", out]
    return int(_fresh_python(code, *argv)) / 1024


def test_csv_scan_memory_does_not_grow_with_the_grid(tmp_path):
    """An eng18 CSV scan is streamed chunk by chunk, so 200,000 rows peak near 80,000 rows.

    Both grids span five or more scan chunks, past the allocator's growth over
    the first few; a scan held whole would add about 30 MB between them.
    """
    js = engineered_sender_coupling(10, k=2, s=1)
    eng18 = ChainSpec.weak_coupling(wire_length=10, n=4, J0=0.01, sender_coupling=js)
    spec = tmp_path / "eng18.json"
    spec.write_text(eng18.to_json())
    small, large = (_scan_peak_rss_mb(spec, tmp_path / "scan.csv", g) for g in (80_000, 200_000))
    assert large - small <= 8.0, f"{small:.1f} MB at 80,000 rows, {large:.1f} MB at 200,000"


def test_cli_runs_without_scipy(tmp_path):
    """The package needs only numpy: the CLI imports no scipy and runs with it blocked."""
    loaded = "import sys, spintransfer.cli\nprint([m for m in sys.modules if m.startswith('scipy')])"
    assert _fresh_python(loaded).strip() == "[]"
    js = engineered_sender_coupling(10, k=2, s=1)
    eng18 = tmp_path / "eng18.json"
    eng18.write_text(ChainSpec.weak_coupling(10, 4, 0.01, sender_coupling=js).to_json())
    anisotropic = tmp_path / "delta.json"
    anisotropic.write_text(ChainSpec.from_dict({**ChainSpec.uniform(6, n=2).to_dict(), "delta": 0.3})
                           .to_json())
    commands = [
        ["scan", "--spec", eng18, "--tmax", 1000, "--grid", 20, "--out", tmp_path / "scan.csv"],
        ["montecarlo", "--spec", anisotropic, "--t", 3.0, "--samples", 500, "--seed", 5,
         "--out", tmp_path / "mc.json"],
        ["independent", "--n-list", "1,2", "--out", tmp_path / "ind.csv"],
    ]
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "from spintransfer.cli import main\n"
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    argv = json.dumps([[str(a) for a in command] for command in commands])
    assert json.loads(_fresh_python(code, argv)) == [0, 0, 0]


def test_independent_table(tmp_path):
    out = tmp_path / "ind.csv"
    assert run(["independent", "--n-list", "1,2,3,4", "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, [float(x) for x in ln.split(",")])) for ln in lines[1:]]
    assert len(rows) == 4 * 201
    for row in rows:
        n, f = int(row["n"]), row["f"]
        stats = fidelity.independent_channels_stats(f, n)
        one = fidelity.independent_channels_stats(f, 1)
        scalar = {
            "F_n": fidelity.independent_channels_fidelity(f, n),
            "F1_pow_n": fidelity.independent_channels_fidelity(f, 1) ** n,
            "R_f": fidelity.product_ratio_vs_amplitude(f, n),
            "R_F": fidelity.product_ratio_vs_fidelity(stats.mean, n) if f > 0 else 1.0,
            "variance_full": stats.variance,
            "variance_product": fidelity.product_state_stats(one, n).variance,
            "cv": stats.cv,
        }
        for name, value in scalar.items():
            assert row[name] == pytest.approx(value, abs=1e-12), (name, n, f)
        assert row["R_f"] >= 1.0 - 1e-12
        if row["f"] == 1.0:
            assert row["F_n"] == pytest.approx(1.0, abs=1e-12)
            assert row["R_F"] == pytest.approx(1.0, abs=1e-9)
        if row["f"] == 0.0:
            assert row["F_n"] == pytest.approx(0.5 ** row["n"], abs=1e-12)
            assert row["R_F"] == 1.0  # the ratio's limit at the random-guess floor F = 1/d
        assert not any(math.isnan(value) for value in row.values())
    json_out = tmp_path / "ind.json"
    assert run(["independent", "--n-list", "1,2,3,4", "--format", "json",
                "--out", json_out]) == 0
    assert "NaN" not in json_out.read_text()


def test_independent_builds_no_maps(tmp_path, monkeypatch):
    def no_map(*args, **kwargs):
        raise AssertionError("a map was built")

    monkeypatch.setattr(cli, "independent_channels_map", no_map)
    monkeypatch.setattr(fidelity, "stats_from_map", no_map)
    monkeypatch.setattr(dynmap, "tensor_product", no_map)
    out = tmp_path / "ind.csv"
    assert run(["independent", "--n-list", "1,2,3,4", "--grid", 11, "--out", out]) == 0
    assert len(out.read_text().splitlines()) == 1 + 4 * 11


def test_independent_computes_the_one_qubit_stats_once_per_grid_block(tmp_path, monkeypatch):
    calls = []

    def counted(f, n):
        calls.append(n)
        return fidelity.independent_channels_stats(f, n)

    monkeypatch.setattr(cli, "independent_channels_stats", counted)
    out = tmp_path / "ind.csv"
    points = cli._CSV_BLOCK_ROWS + 5  # two grid blocks
    assert run(["independent", "--n-list", "1,2,3,4", "--grid", points, "--out", out]) == 0
    # Two blocks of one-qubit stats, then one call per (n, block) for the full stats.
    assert calls == [1, 1] + [n for n in (1, 2, 3, 4) for _ in range(2)]


def test_independent_grid_over_the_limit_exits_before_any_work(tmp_path, capsys, monkeypatch):
    def no_stats(*args, **kwargs):
        raise AssertionError("the grid was evaluated")

    monkeypatch.setattr(cli, "independent_channels_stats", no_stats)
    out = tmp_path / "ind.csv"
    start = time.perf_counter()
    assert run(["independent", "--grid", cli.MAX_INDEPENDENT_POINTS + 1, "--out", out]) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: --grid") and str(cli.MAX_INDEPENDENT_POINTS) in err
    assert not out.exists()


def test_independent_channel_count_error_names_the_option(tmp_path, capsys):
    """independent builds no map, so its range error speaks of --n-list, not of a map's size."""
    out = tmp_path / "ind.csv"
    assert run(["independent", "--n-list", "1,256", "--grid", 2, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--n-list" in err
    assert "map" not in err
    assert not out.exists()


def test_independent_reaches_the_float_range_of_its_closed_forms(tmp_path):
    out = tmp_path / "ind.csv"
    assert run(["independent", "--n-list", "1,255", "--grid", 101, "--out", out]) == 0
    header, *lines = out.read_text().splitlines()
    table = dict(zip(header.split(","), np.array([[float(x) for x in ln.split(",")]
                                                  for ln in lines]).T))
    assert len(lines) == 2 * 101
    assert all(np.all(np.isfinite(column)) for column in table.values())
    assert np.array_equal(table["R_F"], table["R_f"])
    assert set(table["n"]) == {1.0, 255.0}


def test_independent_prints_the_coefficient_of_variation_of_many_channels(tmp_path):
    """cv at f = 0.75 against exact rational values: 2^-26 of rounding (n = 64) and 0 (n = 255)
    came from second - mean^2 before the variance was netted exactly."""
    out = tmp_path / "ind.csv"
    assert run(["independent", "--n-list", "64,255", "--grid", 5, "--out", out]) == 0
    header, *lines = out.read_text().splitlines()
    rows = [dict(zip(header.split(","), map(float, ln.split(",")))) for ln in lines]
    cv = {row["n"]: row["cv"] for row in rows if row["f"] == 0.75}
    assert cv[64.0] == pytest.approx(7.5712628645220365e-10, rel=1e-12, abs=0)
    assert cv[255.0] == pytest.approx(1.089231133904966e-37, rel=1e-12, abs=0)
    assert all(row["variance_full"] > 0.0 for row in rows if row["n"] == 255 and row["f"] < 1.0)
    # Perfect channels have no spread, also for n >= 100, where numpy's ** takes exp(n log z).
    perfect = [row for row in rows if row["f"] == 1.0]
    assert sorted(row["n"] for row in perfect) == [64.0, 255.0]
    assert all(row["variance_full"] == 0.0 and row["cv"] == 0.0 for row in perfect)


def test_independent_writes_the_amplitude_ratio_as_R_F(tmp_path):
    """F_n fixes the real amplitude f, so the ratio at fixed F_n is the ratio at f, bit for bit."""
    out = tmp_path / "ind.json"
    assert run(["independent", "--n-list", "1,2,3,4,5,6", "--grid", 501, "--format", "json",
                "--out", out]) == 0
    data = json.loads(out.read_text())
    assert data["R_F"] == data["R_f"]
    for n in range(1, 7):
        rows = np.array(data["n"]) == n
        f = np.array(data["f"])[rows]
        ratio = fidelity.product_ratio_vs_amplitude(f, n)
        assert np.array_equal(np.array(data["R_f"])[rows], ratio)


def test_montecarlo_identity(tmp_path):
    out = tmp_path / "mc.json"
    assert run(["montecarlo", "--identity", "--n", 2, "--samples", 500,
                "--seed", 4, "--out", out]) == 0
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert data["haar"]["z_mean"] == 0.0
    assert data["analytic"]["mean"] == 1.0


def test_montecarlo_with_one_sample_writes_strict_json_and_exits_4(tmp_path):
    """One sample has no standard error, so a nonzero difference has no z-score: null, not passed."""
    out = tmp_path / "mc.json"
    assert run(["montecarlo", "--amplitude", 0.5, "--n", 1, "--seed", 1, "--samples", 1,
                "--out", out]) == cli.EXIT_STATISTICAL
    data = json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(name))
    assert data["haar"]["sem_mean"] == 0.0
    assert data["haar"]["z_mean"] is None
    assert data["passed"] is False


def test_montecarlo_chain_map(weak15, tmp_path):
    out = tmp_path / "mc.json"
    code = run(["montecarlo", "--spec", weak15, "--n", 3, "--t", 178430.62,
                "--samples", 20000, "--seed", 11, "--out", out])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["haar"]["z_mean"] <= 5
    assert data["haar"]["z_second_moment"] <= 5


def test_montecarlo_product_mode(tmp_path):
    out = tmp_path / "mc.json"
    assert run(["montecarlo", "--amplitude", 0.9, "--n", 2, "--samples", 50000,
                "--seed", 21, "--product", "--out", out]) == 0
    data = json.loads(out.read_text())
    assert data["product"]["z_mean"] <= 5
    # At high average fidelity, product-state inputs fluctuate more than
    # Haar-random ones.
    var_product = data["product"]["second_moment"] - data["product"]["mean"] ** 2
    var_haar = data["haar"]["second_moment"] - data["haar"]["mean"] ** 2
    assert var_product > var_haar


@pytest.mark.parametrize("amplitude", ["1.5", "nan"])
def test_montecarlo_amplitude_out_of_range_exits_2(tmp_path, capsys, amplitude):
    out = tmp_path / "mc.json"
    assert run(["montecarlo", "--amplitude", amplitude, "--n", 2, "--seed", 1,
                "--samples", 10, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_montecarlo_time_must_be_finite(weak15, tmp_path, monkeypatch, capsys, t):
    def no_map(*args, **kwargs):
        raise AssertionError("a map was built")

    monkeypatch.setattr(cli, "map_from_evolution", no_map)
    out = tmp_path / "mc.json"
    assert run(["montecarlo", "--spec", weak15, "--t", t, "--seed", 1, "--samples", 10,
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --t") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("samples", [0, cli.MAX_MC_SAMPLES + 1])
def test_montecarlo_sample_count_outside_its_range_exits_before_any_map(
    tmp_path, monkeypatch, capsys, samples
):
    def no_map(*args, **kwargs):
        raise AssertionError("a map was built")

    monkeypatch.setattr(cli, "identity_map", no_map)
    out = tmp_path / "mc.json"
    assert run(["montecarlo", "--identity", "--n", 1, "--samples", samples, "--seed", 1,
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --samples") and str(cli.MAX_MC_SAMPLES) in err
    assert not out.exists()


def test_montecarlo_requires_seed():
    assert run(["montecarlo", "--identity", "--n", 1, "--samples", 100]) == 2


def test_montecarlo_rejects_a_negative_seed_before_any_work(tmp_path, monkeypatch, capsys):
    def no_map(*args, **kwargs):
        raise AssertionError("a map was built")

    monkeypatch.setattr(cli, "independent_channels_map", no_map)
    out = tmp_path / "mc.json"
    assert run(["montecarlo", "--amplitude", 0.5, "--n", 1, "--samples", 10, "--seed", -1,
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --seed") and err.count("\n") == 1
    assert not out.exists()


def test_montecarlo_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["montecarlo", "--amplitude", 0.5, "--n", 1, "--samples", 5000,
                    "--seed", 99, "--out", out]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_and_flag_override(weak15, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": str(weak15), "tmax": 50, "grid": 6}))
    out1 = tmp_path / "o1.csv"
    assert run(["scan", "--config", cfg, "--out", out1]) == 0
    assert len(out1.read_text().strip().splitlines()) == 7
    out2 = tmp_path / "o2.csv"
    assert run(["scan", "--config", cfg, "--grid", 3, "--out", out2]) == 0
    assert len(out2.read_text().strip().splitlines()) == 4


@pytest.mark.parametrize(
    "argv, values",
    [
        (["scan", "--spec", "WEAK15", "--grid", 5], {"tmax": "50"}),
        (["scan", "--spec", "WEAK15", "--tmax", 50], {"grid": "9"}),
        (["scan", "--spec", "WEAK15", "--tmax", 50, "--grid", 5], {"format": "xml"}),
        (["montecarlo", "--identity", "--n", 1, "--seed", 3], {"samples": 2.5}),
    ],
)
def test_config_values_of_wrong_type_rejected(weak15, tmp_path, argv, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "out"
    argv = [weak15 if a == "WEAK15" else a for a in argv]
    assert run([*argv, "--config", cfg, "--out", out]) == 2
    assert not out.exists()


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": 5, "bogus": 1}))
    assert run(["independent", "--config", cfg]) == 2


def test_bad_spec_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\"N\": 3}")
    out = tmp_path / "never.json"
    assert run(["spectrum", "--spec", path, "--out", out]) == 2
    assert run(["spectrum", "--spec", tmp_path / "missing.json", "--out", out]) == 2
    assert not out.exists()  # inputs are validated before anything is written


@pytest.mark.parametrize(
    "key, value",
    [("N", 15.9), ("sender_sites", [1.7, 2.2, 3]), ("N", None), ("couplings", 5),
     ("N", 10**400), ("sender_sites", [10**400, 2, 3]), ("J0", 10**400)],
)
def test_malformed_spec_fields_exit_2(weak15, tmp_path, capsys, key, value):
    """Not truncated, and not a traceback: a non-integral size or a value of the wrong type."""
    spec = {**json.loads(weak15.read_text()), key: value}
    out = tmp_path / "spectrum.json"
    assert run(["spectrum", "--spec", json.dumps(spec), "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: invalid chain spec")
    assert not out.exists()


def test_scan_json_format(weak15, tmp_path):
    out = tmp_path / "scan.json"
    assert run(["scan", "--spec", weak15, "--tmax", 20, "--grid", 5,
                "--format", "json", "--out", out]) == 0
    data = json.loads(out.read_text())
    assert set(["t", "F_avg", "classical_term"]).issubset(data.keys())
    assert len(data["t"]) == 5


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--spec", ChainSpec.uniform(8, n=1).to_json(), "--tmax", 20, "--grid", 40],
        ["scan", "--spec", "WEAK15", "--tmax", 200, "--grid", 40],
        ["independent", "--n-list", "1,3", "--grid", 11],
    ],
    ids=["uniform8-n1", "weak15", "independent"],
)
def test_json_and_csv_tables_agree(weak15, tmp_path, argv):
    argv = [weak15 if a == "WEAK15" else a for a in argv]
    csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
    assert run([*argv, "--out", csv_out]) == 0
    assert run([*argv, "--format", "json", "--out", json_out]) == 0
    header, *lines = csv_out.read_text().splitlines()
    names = header.split(",")
    data = json.loads(json_out.read_text())
    assert list(data) == names
    csv_columns = np.array([[float(x) for x in ln.split(",")] for ln in lines]).T
    for name, column in zip(names, csv_columns):
        np.testing.assert_array_equal(np.array(data[name], dtype=float), column, err_msg=name)
    assert not np.any(np.isnan(csv_columns))
    assert "NaN" not in json_out.read_text()
    if "F_phase_aligned" in names:  # uniform8-n1: a one-site block has no envelope
        assert "F_envelope" not in names


def test_non_finite_json_value_is_a_numerical_failure(tmp_path, monkeypatch):
    """Strict JSON has no NaN: the command exits 3 and writes no --out file."""
    nan_mean = SimpleNamespace(mean=math.nan, second_moment=1.0)  # FidelityStats rejects a NaN mean
    monkeypatch.setattr(cli, "stats_from_map", lambda m: nan_mean)
    out = tmp_path / "mc.json"
    assert run(["montecarlo", "--identity", "--n", 1, "--samples", 10, "--seed", 1,
                "--out", out]) == 3
    assert not out.exists()
    assert os.listdir(tmp_path) == []  # nor a temporary file beside it


# The options each command reads (argparse dests); every command also takes --config.
COMMAND_OPTIONS = {
    "make-spec": {"N", "n", "J0", "sender_coupling", "field", "delta", "engineer", "out"},
    "spectrum": {"spec", "engineer", "out"},
    "scan": {"spec", "engineer", "tmax", "grid", "out", "format"},
    "independent": {"n_list", "grid", "out", "format"},
    "montecarlo": {"spec", "n", "engineer", "t", "amplitude", "identity", "product", "samples",
                   "seed", "out"},
}
# Flags every command used to accept whether it read them or not.
FORMER_COMMON_FLAGS = {"spec", "n", "tmax", "grid", "samples", "seed", "out", "format", "engineer"}
REMOVED_FLAGS = [
    (command, flag)
    for command, options in COMMAND_OPTIONS.items()
    for flag in sorted(FORMER_COMMON_FLAGS - options)
]
VALID_ARGV = {
    "make-spec": ["--N", 6, "--n", 2],
    "spectrum": ["--spec", "WEAK15"],
    "scan": ["--spec", "WEAK15", "--tmax", 5, "--grid", 3],
    "independent": ["--n-list", "1", "--grid", 3],
    "montecarlo": ["--identity", "--n", 1, "--samples", 10, "--seed", 1],
}
FLAG_VALUES = {"spec": "WEAK15", "n": 3, "tmax": 5, "grid": 3, "samples": 10, "seed": 1,
               "format": "json", "engineer": "2,1"}


def test_each_command_lists_exactly_its_options(capsys):
    assert sum(map(len, COMMAND_OPTIONS.values())) == 31 and len(REMOVED_FLAGS) == 24
    for command, expected in COMMAND_OPTIONS.items():
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        flags = re.findall(r"^  --([\w-]+)", capsys.readouterr().out, re.MULTILINE)
        assert sorted(flags) == sorted(["config", *(o.replace("_", "-") for o in expected)])


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS,
                         ids=[f"{c}--{f}" for c, f in REMOVED_FLAGS])
def test_flag_the_command_does_not_read_exits_2(weak15, tmp_path, monkeypatch, capsys,
                                                command, flag):
    def never(config):
        raise AssertionError(f"{command} ran")

    monkeypatch.setitem(cli._COMMANDS, command, cli._COMMANDS[command]._replace(run=never))
    out = tmp_path / "out"
    argv = [weak15 if a == "WEAK15" else a for a in [command, *VALID_ARGV[command], "--out", out]]
    with pytest.raises(AssertionError, match="ran"):
        run(argv)  # without the flag the invocation reaches the command
    value = weak15 if FLAG_VALUES[flag] == "WEAK15" else FLAG_VALUES[flag]
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--" + flag, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, values",
    [
        (["scan", "--spec", "WEAK15", "--tmax", 50, "--grid", 5], {"seed": 3}),
        (["scan", "--spec", "WEAK15", "--tmax", 50, "--grid", 5], {"n": 3}),
        (["independent", "--grid", 5], {"spec": "WEAK15"}),
        (["make-spec", "--N", 6, "--n", 2], {"format": "json"}),
        (["montecarlo", "--identity", "--n", 1, "--seed", 3], {"tmax": 5.0}),
    ],
)
def test_config_key_of_another_command_rejected(weak15, tmp_path, capsys, argv, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({k: str(weak15) if v == "WEAK15" else v for k, v in values.items()}))
    out = tmp_path / "out"
    argv = [weak15 if a == "WEAK15" else a for a in argv]
    assert run([*argv, "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: unknown config keys")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--identity", "--n", 1, "--t", 5],
        ["--identity", "--n", 1, "--engineer", "2,1"],
        ["--amplitude", 0.5, "--n", 1, "--t", 5],
        ["--identity", "--n", 1, "--product"],
    ],
)
def test_montecarlo_source_options_are_checked_before_sampling(tmp_path, monkeypatch, argv):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the options were checked")

    monkeypatch.setattr(cli, "haar_sample_fidelity", no_sampling)
    out = tmp_path / "mc.json"
    assert run(["montecarlo", *argv, "--seed", 1, "--samples", 10, "--out", out]) == 2
    assert not out.exists()


def test_block_sizes_out_of_range_exit_2_before_any_work(tmp_path, monkeypatch, capsys):
    def no_map(*args, **kwargs):
        raise AssertionError("a map was built")

    for name in ("independent_channels_map", "identity_map", "map_from_evolution"):
        monkeypatch.setattr(cli, name, no_map)
    big = cli.MAX_MAP_QUBITS + 1
    spec = ChainSpec.weak_coupling(2, big, 0.01).to_json()
    out = tmp_path / "out"
    for argv in (
        ["independent", "--n-list", "1,256", "--grid", 2],
        ["independent", "--n-list", "0,1", "--grid", 2],
        ["montecarlo", "--identity", "--n", big, "--seed", 1, "--samples", 1],
        ["montecarlo", "--identity", "--n", 0, "--seed", 1, "--samples", 1],
        ["montecarlo", "--amplitude", 0.5, "--n", big, "--seed", 1, "--samples", 1],
        ["montecarlo", "--amplitude", 0.5, "--n", -1, "--seed", 1, "--samples", 1],
        ["montecarlo", "--spec", spec, "--t", 1.0, "--seed", 1, "--samples", 1],
        ["make-spec", "--N", 6, "--n", 0],
    ):
        assert run([*argv, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, config",
    [
        (["scan", "--tmax", 5, "--grid", 3], {}),
        (["scan", "--spec", "WEAK15", "--engineer", "2", "--tmax", 5, "--grid", 3], {}),
        (["scan", "--spec", "WEAK15", "--engineer", "a,b", "--tmax", 5, "--grid", 3], {}),
        (["make-spec", "--n", 2], {}),
        (["make-spec", "--N", 6], {}),
        (["scan", "--spec", ChainSpec.uniform(6, n=2).to_json()], {}),
        (["scan", "--spec", "WEAK15", "--tmax", 5, "--grid", 0], {}),
        (["independent", "--grid", 1], {}),
        (["independent", "--n-list", "1,x", "--grid", 2], {}),
        (["independent", "--n-list", "", "--grid", 2], {}),
        (["independent", "--n-list", " , ", "--grid", 2], {}),
        (["montecarlo", "--identity", "--n", 1, "--seed", 1, "--samples", 0], {}),
        (["montecarlo", "--n", 1, "--seed", 1, "--samples", 10], {}),
        (["montecarlo", "--identity", "--amplitude", 0.5, "--n", 1, "--seed", 1,
          "--samples", 10], {}),
        (["montecarlo", "--identity", "--seed", 1, "--samples", 10], {}),
        (["montecarlo", "--spec", "WEAK15", "--seed", 1, "--samples", 10], {}),
        (["montecarlo", "--identity", "--n", 1, "--seed", 1], {"samples": None}),
        (["make-spec", "--N", 6, "--n", 2], {"J0": None}),
        (["montecarlo", "--identity", "--n", 1, "--seed", 1], {"samples": True}),
        (["make-spec", "--N", 6, "--n", 2], {"J0": True}),
    ],
    ids=[
        "scan-without-spec", "engineer-one-number", "engineer-not-numbers",
        "make-spec-without-N", "make-spec-without-n", "scan-n2-without-tmax", "scan-grid-0",
        "independent-grid-1", "n-list-unparsable", "n-list-empty", "n-list-blank",
        "montecarlo-samples-0", "montecarlo-no-source", "montecarlo-two-sources",
        "identity-without-n", "spec-without-t", "config-null-samples", "config-null-J0",
        "config-true-samples", "config-true-J0",
    ],
)
def test_bad_input_exits_2_and_writes_nothing(weak15, tmp_path, capsys, argv, config):
    argv = [weak15 if a == "WEAK15" else a for a in argv]
    if config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", cfg]
    out = tmp_path / "out"
    assert run([*argv, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert not out.exists()


def test_console_entry_point_exits_with_the_command_status(tmp_path, monkeypatch):
    out = tmp_path / "spec.json"
    monkeypatch.setattr(sys, "argv", ["spintransfer", "make-spec", "--N", "6", "--n", "2",
                                      "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        cli.console_main()
    assert exc.value.code == 0
    assert ChainSpec.from_json(out.read_text()).N == 6


def test_montecarlo_chain_length_cap_applies_only_with_anisotropy(tmp_path, capsys):
    spec = ChainSpec.weak_coupling(392, 4, 0.01)  # N = 400
    anisotropic = ChainSpec.from_dict({**spec.to_dict(), "delta": 0.3})
    out = tmp_path / "mc.json"
    common = ["--t", 1234.5, "--samples", 2000, "--seed", 5, "--out", out]
    assert run(["montecarlo", "--spec", anisotropic.to_json(), *common]) == 3
    assert "exceeds the cap" in capsys.readouterr().err
    assert not out.exists()
    assert run(["montecarlo", "--spec", spec.to_json(), *common]) == 0
    data = json.loads(out.read_text())
    assert (data["d"], data["passed"]) == (16, True)


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--spec", "WEAK15", "--tmax", 30, "--grid", 7],
        ["scan", "--spec", "WEAK15", "--tmax", 30, "--grid", 7, "--format", "json"],
        ["make-spec", "--N", 12, "--n", 2, "--J0", 0.05],
    ],
)
def test_output_without_out_goes_to_stdout(weak15, tmp_path, capsys, argv):
    argv = [weak15 if a == "WEAK15" else a for a in argv]
    out = tmp_path / "out"
    assert run([*argv, "--out", out]) == 0
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_out_to_a_device_is_written_in_place(weak15):
    assert run(["scan", "--spec", weak15, "--tmax", 30, "--grid", 7, "--out", "/dev/null"]) == 0
    assert run(["make-spec", "--N", 12, "--n", 2, "--out", "/dev/null"]) == 0
    assert stat.S_ISCHR(os.stat("/dev/null").st_mode)  # not replaced by a regular file


def test_make_spec_with_anisotropy_round_trips(tmp_path):
    out = tmp_path / "spec.json"
    assert run(["make-spec", "--N", 12, "--n", 2, "--J0", 0.05, "--delta", 0.3, "--out", out]) == 0
    text = out.read_text()
    assert json.loads(text)["delta"] == 0.3
    assert '"delta": 0.3' in text
    spec = ChainSpec.from_json(text)
    assert spec.delta == 0.3
    assert spec.to_json() + "\n" == text


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "error: cannot load config"),
        ("{not json", "error: cannot load config"),
        ("[1, 2]", "config file must hold a JSON object"),
    ],
)
def test_unreadable_or_non_object_config_exits_2(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    out = tmp_path / "out.json"
    assert run(["make-spec", "--N", 12, "--n", 2, "--config", cfg, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
