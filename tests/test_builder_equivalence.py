"""Arithmetic batch builders ≡ reference loop builders.

The array-major builders (``step1_batch``, ``dolev_gather_batch``,
``censor_hillel_batches`` and the :class:`MessageBatch` constructors they
compose) must produce *identical* traffic to the node-major loops in
:mod:`tests.reference`: identical message multisets (compared in
canonical order, since delivery and Lemma 1 are order-invariant) and
identical ``router.batch_loads`` histograms — hence identical round
charges — on seeded instances for n ∈ {16, 48, 128}.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np
import pytest

from repro.baselines.censor_hillel import censor_hillel_batches
from repro.baselines.dolev_triangles import dolev_gather_batch
from repro.congest.batch import MessageBatch
from repro.congest.gridops import expand_ranges, repeat_per_cell, segment_arange
from repro.congest.partitions import BlockPartition, CliquePartitions
from repro.congest.router import batch_loads, route_rounds
from repro.core.compute_pairs import step1_batch

from tests import reference

SIZES = [16, 48, 128]


def assert_batches_identical(arithmetic: MessageBatch, loops: MessageBatch):
    """Byte-identical contents in canonical order, plus identical Lemma 1
    load histograms (and hence rounds) under a round-robin placement."""
    assert len(arithmetic) == len(loops)
    a = reference.canonical_order(arithmetic)
    b = reference.canonical_order(loops)
    assert np.array_equal(a.src, b.src)
    assert np.array_equal(a.dst, b.dst)
    assert np.array_equal(a.size_words, b.size_words)

    num_nodes = max(int(a.src.max()), int(a.dst.max())) + 1 if len(a) else 1
    physical = np.arange(num_nodes, dtype=np.int64)
    for batch in (arithmetic, loops):
        loads = batch_loads(
            num_nodes, physical[batch.src % num_nodes],
            physical[batch.dst % num_nodes], batch.size_words,
        )
        rounds = route_rounds(num_nodes, *loads)
        if batch is arithmetic:
            expected_loads, expected_rounds = loads, rounds
        else:
            assert np.array_equal(loads[0], expected_loads[0])
            assert np.array_equal(loads[1], expected_loads[1])
            assert rounds == expected_rounds


@pytest.mark.parametrize("n", SIZES)
def test_step1_builder_equivalent(n):
    partitions = CliquePartitions(n)
    assert_batches_identical(
        step1_batch(partitions), reference.step1_batch_loops(partitions)
    )


@pytest.mark.parametrize("n", SIZES)
def test_dolev_gather_builder_equivalent(n):
    partition = BlockPartition(n, max(1, round(n ** (1.0 / 3.0))))
    triples = list(combinations_with_replacement(range(partition.num_blocks), 3))
    assert_batches_identical(
        dolev_gather_batch(partition, triples),
        reference.dolev_gather_loops(partition, triples),
    )


def test_dolev_gather_handles_unsorted_triples():
    # The reference loop deduplicates via sorted(set(triple)); the
    # arithmetic builder must tolerate arbitrary entry order too.
    partition = BlockPartition(12, 3)
    triples = [(1, 0, 1), (2, 2, 0), (0, 1, 2)]
    assert_batches_identical(
        dolev_gather_batch(partition, triples),
        reference.dolev_gather_loops(partition, triples),
    )


@pytest.mark.parametrize("n", SIZES)
def test_censor_hillel_builders_equivalent(n):
    q = max(1, round(n ** (1.0 / 3.0)))
    partition = BlockPartition(n, q)
    triples = [
        (x, y, z) for x in range(q) for y in range(q) for z in range(q)
    ]
    gather, aggregate = censor_hillel_batches(partition, q)
    gather_ref, aggregate_ref = reference.censor_hillel_batches_loops(
        partition, triples
    )
    assert_batches_identical(gather, gather_ref)
    assert_batches_identical(aggregate, aggregate_ref)


@pytest.mark.parametrize("seed", range(6))
def test_range_product_matches_naive_expansion(seed):
    rng = np.random.default_rng(seed)
    cells = int(rng.integers(1, 40))
    starts = rng.integers(0, 50, size=cells)
    counts = rng.integers(0, 6, size=cells)
    dst = rng.integers(0, 30, size=cells)
    words = rng.integers(1, 9, size=cells)
    batch = MessageBatch.from_range_product(starts, counts, dst, words)
    src_naive, dst_naive, size_naive = [], [], []
    for i in range(cells):
        for v in range(int(starts[i]), int(starts[i]) + int(counts[i])):
            src_naive.append(v)
            dst_naive.append(int(dst[i]))
            size_naive.append(int(words[i]))
    assert np.array_equal(batch.src, np.array(src_naive, dtype=np.int64))
    assert np.array_equal(batch.dst, np.array(dst_naive, dtype=np.int64))
    assert np.array_equal(batch.size_words, np.array(size_naive, dtype=np.int64))

    mirrored = MessageBatch.to_range_product(dst, starts, counts, words)
    assert np.array_equal(mirrored.src, batch.dst)
    assert np.array_equal(mirrored.dst, batch.src)
    assert np.array_equal(mirrored.size_words, batch.size_words)


def test_cross_product_builder():
    batch = MessageBatch.from_cross_product(
        np.array([3, 5]), np.array([0, 1, 2]), words=np.array([7, 8, 9]),
    )
    assert np.array_equal(batch.src, [3, 5, 3, 5, 3, 5])
    assert np.array_equal(batch.dst, [0, 0, 1, 1, 2, 2])
    assert np.array_equal(batch.size_words, [7, 7, 8, 8, 9, 9])
    per_src = MessageBatch.from_cross_product(
        np.array([3, 5]), np.array([0, 1]), words=np.array([2, 4]), per="src",
    )
    assert np.array_equal(per_src.size_words, [2, 4, 2, 4])
    scalar = MessageBatch.from_cross_product(
        np.array([0]), np.array([1, 2]), words=6
    )
    assert np.array_equal(scalar.size_words, [6, 6])


def test_from_index_arrays_scalar_size():
    batch = MessageBatch.from_index_arrays([0, 1], [1, 0], 3)
    assert np.array_equal(batch.size_words, [3, 3])
    assert batch.total_words == 6


def test_gridops_segments():
    assert np.array_equal(segment_arange([2, 0, 3]), [0, 1, 0, 1, 2])
    assert np.array_equal(expand_ranges([5, 0], [2, 3]), [5, 6, 0, 1, 2])
    assert np.array_equal(repeat_per_cell([7, 9], [2, 1]), [7, 7, 9])
    assert np.array_equal(repeat_per_cell(4, [1, 2]), [4, 4, 4])
    assert segment_arange([]).size == 0
