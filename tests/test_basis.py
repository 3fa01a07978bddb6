from math import comb

import numpy as np
import pytest

from spintransfer.basis import sector_positions, sector_rank, subsets_by_excitation


@pytest.mark.parametrize("N", [0, 1, 5])
def test_empty_sector_is_one_integer_row(N):
    positions = sector_positions(N, 0)
    assert positions.shape == (1, 0)
    assert positions.dtype.kind == "i"
    assert sector_rank(positions, N).tolist() == [0]


def test_sector_rank_inverts_sector_positions_up_to_twenty_sites():
    build = sector_positions.__wrapped__  # uncached, so the sweep leaves the cache as it was
    for N in range(21):
        for k in range(N + 1):
            rank = sector_rank(build(N, k), N)
            assert rank.dtype.kind == "i"
            assert np.array_equal(rank, np.arange(comb(N, k))), (N, k)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_sector_rank_on_two_hundred_sites(k):
    """The rank never forms a bitmask, so 200 sites work where 1 << 69 would overflow int64."""
    positions = sector_positions(200, k)
    assert np.array_equal(sector_rank(positions, 200), np.arange(comb(200, k)))
    picks = np.random.default_rng(k).choice(len(positions), 20)
    assert np.array_equal(sector_rank(positions[picks], 200), picks)



@pytest.mark.parametrize(
    "row",
    [[0, 6], [3, 1], [2, 2], [-1, 2]],
    ids=["site-past-the-end", "descending", "repeated", "negative-site"],
)
def test_sector_rank_rejects_rows_that_are_not_ascending_sites(row):
    with pytest.raises(ValueError, match="strictly ascending"):
        sector_rank(np.array([[0, 1], row]), 6)


def test_subsets_of_a_negative_block_are_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        subsets_by_excitation(-1)
