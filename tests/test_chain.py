import json
import math

import numpy as np
import pytest

from spintransfer.chain import (
    ChainSpec,
    Regime,
    _numerical_cluster,
    engineered_sender_coupling,
    resonance_report,
    spectral,
)
from spintransfer.errors import ResonanceError


def test_two_site_hamiltonian():
    """V diag(w) V^T is the tridiagonal matrix with the fields and J_i / 2."""
    spec = ChainSpec.uniform(2, n=1)
    assert spec.fields == (0.0, 0.0)
    assert spec.couplings == (1.0,)
    fielded = ChainSpec.weak_coupling(6, 2, J0=0.05, sender_coupling=0.8, field=0.3)
    for s in (spec, fielded):
        dec = spectral(s)
        j, h = np.asarray(s.couplings), np.asarray(s.fields)
        tridiagonal = np.diag(h) + np.diag(j / 2.0, 1) + np.diag(j / 2.0, -1)
        reconstructed = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        assert np.max(np.abs(reconstructed - tridiagonal)) <= 1e-12


def test_weak_coupling_bond_placement():
    spec = ChainSpec.weak_coupling(wire_length=9, n=3, J0=0.01)
    assert spec.N == 15
    j = np.asarray(spec.couplings)
    assert j[2] == pytest.approx(0.01)
    assert j[11] == pytest.approx(0.01)
    others = np.delete(j, [2, 11])
    assert np.allclose(others, 1.0)
    assert spec.weak_bonds() == (3, 12)


def test_anisotropy_does_not_touch_single_particle_sector():
    base = ChainSpec.uniform(5, n=1)
    aniso = ChainSpec.from_dict({**base.to_dict(), "delta": 0.7})
    a, b = spectral(base), spectral(aniso)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_spectral_single_site():
    spec = ChainSpec(
        N=1, couplings=(), fields=(0.25,), sender_sites=(1,), receiver_sites=(1,), J0=1.0
    )
    dec = spectral(spec)
    assert dec.eigenvalues.tolist() == [0.25]


def test_spectral_uniform_nine_sites():
    dec = spectral(ChainSpec.uniform(9, n=1))
    expected = np.sort(np.cos(np.arange(1, 10) * np.pi / 10.0))
    assert np.allclose(dec.eigenvalues, expected, atol=1e-12)


def test_mirror_symmetric_eigenvector_magnitudes():
    rng = np.random.default_rng(5)
    for N in (6, 9, 14):
        half = rng.uniform(0.5, 1.5, size=(N - 1 + 1) // 2)
        couplings = np.concatenate([half, half[: (N - 1) // 2][::-1]])[: N - 1]
        couplings = np.minimum(couplings, couplings[::-1])  # enforce exact symmetry
        hhalf = rng.normal(size=(N + 1) // 2)
        fields = np.concatenate([hhalf, hhalf[: N // 2][::-1]])[:N]
        fields = 0.5 * (fields + fields[::-1])
        spec = ChainSpec(
            N=N,
            couplings=tuple(couplings),
            fields=tuple(fields),
            sender_sites=(1,),
            receiver_sites=(N,),
            J0=couplings[0],
        )
        assert spec.is_mirror_symmetric()
        dec = spectral(spec)
        mags = np.abs(dec.eigenvectors)
        assert np.max(np.abs(mags - mags[::-1, :])) <= 1e-8


def test_serialization_round_trip_is_bit_exact():
    spec = ChainSpec.weak_coupling(wire_length=7, n=2, J0=0.1 / 3.0, sender_coupling=1.1 / 7.0)
    spec = ChainSpec.from_dict({**spec.to_dict(), "delta": math.pi / 11})
    again = ChainSpec.from_json(spec.to_json())
    assert again == spec
    assert json.loads(again.to_json()) == json.loads(spec.to_json())


def test_from_dict_rejects_unknown_and_missing_keys():
    spec = ChainSpec.uniform(4, n=1)
    data = spec.to_dict()
    with pytest.raises(ValueError, match="unknown"):
        ChainSpec.from_dict({**data, "extra": 1})
    data.pop("J0")
    with pytest.raises(ValueError, match="missing"):
        ChainSpec.from_dict(data)


def test_validation_failures():
    with pytest.raises(ValueError):
        ChainSpec.uniform(4, n=1, coupling=-1.0)  # J0 = coupling must be positive
    with pytest.raises(ValueError):
        ChainSpec(N=4, couplings=(1.0,), fields=(0.0,) * 4, sender_sites=(1,),
                  receiver_sites=(4,), J0=1.0)
    with pytest.raises(ValueError):
        ChainSpec(N=4, couplings=(1.0,) * 3, fields=(0.0,) * 4, sender_sites=(2,),
                  receiver_sites=(4,), J0=1.0)
    with pytest.raises(ValueError):  # overlapping blocks
        ChainSpec(N=3, couplings=(1.0,) * 2, fields=(0.0,) * 3, sender_sites=(1, 2),
                  receiver_sites=(2, 3), J0=1.0)
    with pytest.raises(ValueError):  # weak bond coupling inconsistent with J0
        ChainSpec(N=4, couplings=(1.0,) * 3, fields=(0.0,) * 4, sender_sites=(1,),
                  receiver_sites=(4,), J0=0.5)
    for n in (0, -1):  # checked before the weak bonds are placed
        with pytest.raises(ValueError, match="block size"):
            ChainSpec.weak_coupling(5, n, J0=0.01)
    weak15 = ChainSpec.weak_coupling(9, 3, J0=0.01).to_dict()
    for key, value in [
        ("N", 15.9),  # would truncate to 15, which the other keys fit
        ("N", True),
        ("sender_sites", [1.7, 2.2, 3.0]),
        ("receiver_sites", [13, 14, 15.5]),
        ("sender_sites", [True, 2, 3]),
        ("J0", True),
        ("couplings", [True] + weak15["couplings"][1:]),
        ("fields", [False] * 15),
        ("delta", False),
    ]:
        with pytest.raises(ValueError):
            ChainSpec.from_dict({**weak15, key: value})
    # Integral values of either type still work.
    again = ChainSpec.from_dict({**weak15, "N": 15.0, "sender_sites": [1.0, 2.0, 3.0]})
    assert again == ChainSpec.from_dict(weak15) and isinstance(again.N, int)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_non_finite_delta_rejected(delta):
    with pytest.raises(ValueError, match="finite"):
        ChainSpec.from_dict({**ChainSpec.uniform(6, n=2).to_dict(), "delta": delta})


def test_cached_spectrum_is_read_only():
    decomp = spectral(ChainSpec.uniform(7, n=2))
    with pytest.raises(ValueError):
        decomp.eigenvalues[0] = 0.0
    with pytest.raises(ValueError):
        decomp.eigenvectors[0, 0] = 0.0


def test_empty_wire_allowed():
    spec = ChainSpec.uniform(2, n=1)
    assert spec.wire_length == 0
    assert spec.weak_bonds() == (1,)


def test_resonance_three_site_blocks():
    spec = ChainSpec.weak_coupling(wire_length=9, n=3, J0=0.01)
    rep = resonance_report(spec, 3)
    assert rep.first_order_indices == (7, 8, 9)
    assert rep.second_order_indices == (3, 4, 12, 13)
    assert len(rep.cluster_indices) == 7
    assert rep.regime is Regime.NON_RESONANT
    assert rep.delta_omega > 0
    assert rep.transfer_time == pytest.approx(math.pi / rep.delta_omega)


@pytest.mark.parametrize("N", [11, 15, 19])
def test_positional_formulas_match_weight_cluster(N):
    spec = ChainSpec.weak_coupling(wire_length=N - 6, n=3, J0=0.01)
    rep = resonance_report(spec, 3)
    first, second, cluster, delta = _numerical_cluster(spec, spectral(spec))
    assert rep.cluster_indices == cluster
    assert set(rep.first_order_indices) == set(first)
    assert set(rep.second_order_indices) == set(second)
    assert rep.delta_omega == pytest.approx(delta, rel=1e-9)


def test_resonant_wire_regime():
    spec = ChainSpec.weak_coupling(wire_length=7, n=3, J0=0.01)  # 4l+3
    rep = resonance_report(spec, 3)
    assert rep.regime is Regime.RESONANT


def test_four_site_uniform_all_or_none():
    spec = ChainSpec.weak_coupling(wire_length=10, n=4, J0=0.01)
    rep = resonance_report(spec, 4)
    assert rep.regime is Regime.NON_RESONANT
    assert "no block level" in rep.note
    spec_res = ChainSpec.weak_coupling(wire_length=14, n=4, J0=0.01)  # wire+1 divisible by 5
    rep_res = resonance_report(spec_res, 4)
    assert rep_res.regime is Regime.RESONANT
    assert "all four" in rep_res.note


@pytest.mark.parametrize("sender_coupling", [1.0, 0.8])
@pytest.mark.parametrize("wire", range(1, 21))
@pytest.mark.parametrize("n", [3, 4])
def test_regime_rule(n, wire, sender_coupling):
    """Tuned blocks are engineered; uniform blocks resonate on wires of 4l+3 (n=3) or 5l+4 (n=4)."""
    spec = ChainSpec.weak_coupling(wire_length=wire, n=n, J0=0.01, sender_coupling=sender_coupling)
    rep = resonance_report(spec, n)
    if sender_coupling != 1.0:
        expected = Regime.ENGINEERED
    elif (n == 3 and wire % 4 == 3) or (n == 4 and (wire + 1) % 5 == 0):
        expected = Regime.RESONANT
    else:
        expected = Regime.NON_RESONANT
    assert rep.regime is expected
    assert bool(rep.note) == (n == 4 and expected is not Regime.ENGINEERED)


def test_engineered_report():
    js = engineered_sender_coupling(10, k=2, s=1)
    spec = ChainSpec.weak_coupling(wire_length=10, n=4, J0=0.01, sender_coupling=js)
    rep = resonance_report(spec, 4)
    assert rep.regime is Regime.ENGINEERED
    assert len(rep.cluster_indices) == 10
    assert len(rep.first_order_indices) == 6  # two resonant triples
    assert len(rep.second_order_indices) == 4  # two off-resonant doublets
    assert rep.delta_omega > 0


def test_delta_omega_shrinks_with_weaker_coupling():
    values = []
    for j0 in (0.04, 0.02, 0.01):
        spec = ChainSpec.weak_coupling(wire_length=9, n=3, J0=j0)
        values.append(resonance_report(spec, 3).delta_omega)
    assert values[1] < values[0]
    assert values[2] < values[1]


def test_engineered_sender_coupling_values():
    assert engineered_sender_coupling(10, k=2, s=1) == pytest.approx(
        math.cos(2 * math.pi / 11) / math.cos(math.pi / 5)
    )
    assert engineered_sender_coupling(10, k=2, s=1) == pytest.approx(1.0399, abs=1e-4)
    assert engineered_sender_coupling(10, k=5, s=1) == pytest.approx(
        math.cos(5 * math.pi / 11) / math.cos(math.pi / 5)
    )
    assert engineered_sender_coupling(10, k=5, s=1) == pytest.approx(0.1759, abs=1e-4)
    # Exact resonance at unit coupling: wire level 2 of a 9-site wire sits at cos(pi/5).
    assert engineered_sender_coupling(9, k=2, s=1) == pytest.approx(1.0, abs=1e-15)


def test_engineered_sender_coupling_validation():
    with pytest.raises(ValueError):
        engineered_sender_coupling(10, k=0, s=1)
    with pytest.raises(ValueError):
        engineered_sender_coupling(10, k=11, s=1)
    with pytest.raises(ValueError):
        engineered_sender_coupling(10, k=2, s=3)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"N": 0, "couplings": (), "fields": (), "receiver_sites": (1,)}, "N must be positive"),
        ({"fields": (0.0,) * 3}, "expected 4 fields"),
        ({"sender_sites": (), "receiver_sites": ()}, "nonempty and equal-sized"),
        ({"receiver_sites": (3, 4)}, "nonempty and equal-sized"),
        ({"receiver_sites": (3,)}, "receiver block must be sites 4..4"),
    ],
    ids=["no-sites", "field-count", "empty-blocks", "unequal-blocks", "receiver-sites"],
)
def test_chain_spec_rejects_bad_layouts(changes, message):
    uniform4 = dict(N=4, couplings=(1.0,) * 3, fields=(0.0,) * 4, sender_sites=(1,),
                    receiver_sites=(4,), J0=1.0)
    with pytest.raises(ValueError, match=message):
        ChainSpec(**{**uniform4, **changes})


def test_weak_coupling_rejects_a_negative_wire():
    with pytest.raises(ValueError, match="wire length"):
        ChainSpec.weak_coupling(-1, 3, J0=0.01)


def test_resonance_needs_a_cluster_with_a_splitting():
    # A long uniform chain spreads every level over the wire: none carries block weight.
    with pytest.raises(ResonanceError, match="block-weight threshold"):
        resonance_report(ChainSpec.uniform(101, n=3))
    # A strong field on site 1 localises one level there, alone above the threshold.
    pinned = {**ChainSpec.uniform(101, n=3).to_dict(), "fields": [50.0] + [0.0] * 100}
    with pytest.raises(ResonanceError, match="single level"):
        resonance_report(ChainSpec.from_dict(pinned))


def test_resonance_rejects_unsupported_blocks():
    with pytest.raises(ValueError):
        resonance_report(ChainSpec.uniform(8, n=2), 2)
    with pytest.raises(ValueError):
        resonance_report(ChainSpec.uniform(6, n=3), 3)  # no wire


@pytest.mark.parametrize("wire", [8, 10])
def test_three_site_blocks_on_even_wires_are_non_resonant(wire):
    """Even wires hold no level resonant with the block spectrum; the cluster is found numerically."""
    spec = ChainSpec.weak_coupling(wire_length=wire, n=3, J0=0.01)
    rep = resonance_report(spec, 3)
    assert rep.regime is Regime.NON_RESONANT
    assert rep.delta_omega == pytest.approx(5.0e-5, rel=1e-3)
    first, second, cluster, delta = _numerical_cluster(spec, spectral(spec))
    assert (rep.first_order_indices, rep.second_order_indices) == (first, second)
    assert rep.cluster_indices == cluster
    assert rep.delta_omega == delta
