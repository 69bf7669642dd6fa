"""Unit + property tests for the Section 5.1 partitions and labelings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest.partitions import BlockPartition, CliquePartitions
from repro.errors import NetworkError


class TestBlockPartition:
    def test_even_split(self):
        part = BlockPartition(12, 4)
        assert [len(b) for b in part.blocks()] == [3, 3, 3, 3]

    def test_uneven_split_sizes_differ_by_at_most_one(self):
        part = BlockPartition(10, 3)
        sizes = [len(b) for b in part.blocks()]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_blocks_cover_all_vertices(self):
        part = BlockPartition(17, 5)
        everything = np.concatenate(part.blocks())
        assert sorted(everything.tolist()) == list(range(17))

    def test_block_of_inverse(self):
        part = BlockPartition(20, 6)
        for v in range(20):
            assert v in part.block(part.block_of(v)).tolist()

    def test_single_block(self):
        part = BlockPartition(5, 1)
        assert part.block(0).tolist() == [0, 1, 2, 3, 4]

    def test_rejects_bad_block_count(self):
        with pytest.raises(NetworkError):
            BlockPartition(5, 6)
        with pytest.raises(NetworkError):
            BlockPartition(5, 0)


class TestCliquePartitions:
    def test_fourth_power_exact(self):
        parts = CliquePartitions(16)
        assert parts.num_coarse == 2   # 16^{1/4}
        assert parts.num_fine == 4     # √16
        assert parts.coarse.max_block_size == 8   # n^{3/4}
        assert parts.fine.max_block_size == 4     # √n

    def test_triple_scheme_size_matches_n_for_fourth_powers(self):
        for n in (16, 81, 256):
            parts = CliquePartitions(n)
            assert parts.grid_shape == (parts.num_coarse, parts.num_coarse, parts.num_fine)
            assert parts.num_coarse ** 2 * parts.num_fine == n

    def test_general_n_rounded(self):
        parts = CliquePartitions(24)
        # Rounded block counts; positions may exceed n (virtual mapping).
        assert parts.num_coarse == round(24 ** 0.25)
        assert parts.num_fine == round(24 ** 0.5)
        assert parts.grid_shape == (parts.num_coarse, parts.num_coarse, parts.num_fine)

    def test_block_pairs_cross(self):
        parts = CliquePartitions(16)
        pairs = parts.block_pairs(0, 1)
        assert pairs.shape == (64, 2)  # 8 × 8 cross pairs
        # Canonical order and disjoint blocks.
        assert (pairs[:, 0] < pairs[:, 1]).all()

    def test_block_pairs_within(self):
        parts = CliquePartitions(16)
        pairs = parts.block_pairs(0, 0)
        assert pairs.shape == (28, 2)  # C(8, 2)
        assert (pairs[:, 0] < pairs[:, 1]).all()
        assert len({tuple(p) for p in pairs.tolist()}) == 28

    def test_block_pairs_union_covers_all_pairs(self):
        n = 16
        parts = CliquePartitions(n)
        collected = set()
        for bu in range(parts.num_coarse):
            for bv in range(parts.num_coarse):
                collected |= {tuple(p) for p in parts.block_pairs(bu, bv).tolist()}
        expected = {(u, v) for u in range(n) for v in range(u + 1, n)}
        assert collected == expected


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=300),
    blocks=st.integers(min_value=1, max_value=20),
)
def test_property_partition_is_partition(n, blocks):
    """Any valid BlockPartition is a true partition with near-equal sizes."""
    blocks = min(blocks, n)
    part = BlockPartition(n, blocks)
    everything = np.concatenate(part.blocks())
    assert sorted(everything.tolist()) == list(range(n))
    sizes = [len(b) for b in part.blocks()]
    assert max(sizes) - min(sizes) <= 1


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=4, max_value=200))
def test_property_block_pair_cover(n):
    """The P(u, v) sets over all coarse block pairs cover P(V) exactly."""
    parts = CliquePartitions(n)
    collected = set()
    total = 0
    for bu in range(parts.num_coarse):
        for bv in range(bu, parts.num_coarse):
            pairs = {tuple(p) for p in parts.block_pairs(bu, bv).tolist()}
            total += len(pairs)
            collected |= pairs
    expected = {(u, v) for u in range(n) for v in range(u + 1, n)}
    assert collected == expected
    assert total == len(expected)  # each pair owned by exactly one block pair
