"""Occupation-number basis bookkeeping.

States of an n-site block are labelled by the set of excited sites
(1-indexed).  The linear ordering used everywhere in the package is by
excitation number first, then lexicographically within each number, e.g. for
n = 2:  (), (1,), (2,), (1, 2).

Receiver sites are relabelled positionally: receiver site N - n + s carries
the label of sender site s.  This pairing preserves site order, so
multi-excitation amplitudes between paired subsets carry no exchange sign and
a clean transfer reproduces the sender's expansion coefficients verbatim.
(Pairing each site with its reflection N + 1 - s instead would reverse the
order inside every subset and burden even a perfect transfer with the
fermionic reordering sign of the underlying hopping model.)
"""

from __future__ import annotations

from itertools import combinations


def subsets_by_excitation(n: int, include_empty: bool = True) -> list[tuple[int, ...]]:
    """All subsets of {1..n} ordered by cardinality, then lexicographically."""
    if n < 0:
        raise ValueError(f"block size must be nonnegative, got {n}")
    out: list[tuple[int, ...]] = []
    for k in range(0 if include_empty else 1, n + 1):
        out.extend(combinations(range(1, n + 1), k))
    return out


def block_index(n: int) -> dict[tuple[int, ...], int]:
    """Map from occupied-site tuple to linear index for an n-site block."""
    return {s: i for i, s in enumerate(subsets_by_excitation(n))}


def excitation_sector(n_sites: int, k: int) -> list[tuple[int, ...]]:
    """Lexicographically ordered k-subsets of {1..n_sites}."""
    if not 0 <= k <= n_sites:
        raise ValueError(f"excitation number {k} out of range for {n_sites} sites")
    return list(combinations(range(1, n_sites + 1), k))


def partner_sites(sites: tuple[int, ...], n_total: int, block: int) -> tuple[int, ...]:
    """Receiver sites paired positionally with the given sender sites.

    Sender site s maps to receiver site s + (n_total - block); ascending
    input stays ascending.
    """
    return tuple(s + n_total - block for s in sites)


def partner_labels(receiver_sites: tuple[int, ...], n_total: int, block: int) -> tuple[int, ...]:
    """Block labels of a set of receiver sites under the positional pairing."""
    return tuple(s - (n_total - block) for s in receiver_sites)
