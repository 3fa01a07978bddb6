import json

import numpy as np
import pytest

from spintransfer.chain import ChainSpec
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


def test_scan_rejects_anisotropy(tmp_path):
    spec = ChainSpec.from_dict({**ChainSpec.uniform(6, n=2).to_dict(), "delta": 0.4})
    path = tmp_path / "aniso.json"
    path.write_text(spec.to_json())
    assert run(["scan", "--spec", path, "--tmax", 5]) == 3


def test_independent_table(tmp_path):
    out = tmp_path / "ind.csv"
    assert run(["independent", "--n-list", "1,2", "--grid", 21, "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, [float(x) for x in ln.split(",")])) for ln in lines[1:]]
    assert len(rows) == 2 * 21
    for row in rows:
        assert row["R_f"] >= 1.0 - 1e-12
        if row["f"] == 1.0:
            assert row["F_n"] == pytest.approx(1.0, abs=1e-12)
            assert row["R_F"] == pytest.approx(1.0, abs=1e-9)
        if row["f"] == 0.0:
            assert row["F_n"] == pytest.approx(0.5 ** row["n"], abs=1e-12)


def test_montecarlo_identity(tmp_path):
    out = tmp_path / "mc.json"
    assert run(["montecarlo", "--identity", "--n", 2, "--samples", 500,
                "--seed", 4, "--out", out]) == 0
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert data["haar"]["z_mean"] == 0.0
    assert data["analytic"]["mean"] == 1.0


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


def test_montecarlo_requires_seed():
    assert run(["montecarlo", "--identity", "--n", 1, "--samples", 100]) == 2


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
