"""Segmented Step-2 ≡ per-node loop form.

The one-pass :func:`repro.core.compute_pairs._step2_sample` must reproduce
the node-major loop form
:func:`tests.reference.step2_sample_loops` *byte for byte*: identical
kept pairs, weights, and witness tables per search node (the table's
position order is the loop dict's order; the table is read as a dict
through ``tests.conftest.node_pairs_of``),
identical coverage, identical delivered request/reply batches, identical
round charges, and an identically consumed RNG stream — including identical
abort diagnostics when Lemma 2 (i) fails.  The segmented pass reads the
two-hop tables in their integer code and compares against the coded
threshold; the loop form reads the same tables decoded to float64 and
compares against ``−f``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.congest.network import CongestClique
from repro.congest.partitions import CliquePartitions
from repro.core.compute_pairs import _step2_sample
from repro.core.constants import PaperConstants
from repro.core.evaluation import CodedWeights, block_two_hop
from repro.core.problems import FindEdgesInstance
from repro.errors import ProtocolAbortedError

from tests import reference
from tests.conftest import node_pairs_of, prop1_sub_instance

SIZES = [16, 48, 128]


def _recording_network(n: int) -> tuple[CongestClique, list]:
    """A network whose deliver() records (phase, batch) before charging."""
    network = CongestClique(n)
    delivered: list = []
    original = network.deliver

    def record(messages, phase, **kwargs):
        delivered.append((phase, messages))
        return original(messages, phase, **kwargs)

    network.deliver = record
    return network, delivered


def _run_step2(
    step2, n: int, seed: int, constants: PaperConstants, max_weight: int = 7, instance=None
):
    """Run one Step-2 implementation in a fresh, identically seeded world:
    the segmented pass on coded tables, the loop form on decoded ones."""
    if instance is None:
        graph = repro.random_undirected_graph(
            n, density=0.5, max_weight=max_weight, rng=seed
        )
        instance = FindEdgesInstance(graph)
    partitions = CliquePartitions(n)
    network, delivered = _recording_network(n)
    num_triples = int(np.prod(partitions.grid_shape))
    network.register_scheme("triple", num_triples)
    network.register_scheme("search", num_triples)
    coded = CodedWeights.encode(instance.graph.weights)
    fine_blocks = partitions.fine.blocks()
    cache: dict = {}

    def two_hop_for(bu, bv):
        if (bu, bv) not in cache:
            cache[(bu, bv)] = block_two_hop(
                coded,
                partitions.coarse.block(bu),
                partitions.coarse.block(bv),
                fine_blocks,
            )
        return cache[(bu, bv)]

    rng = np.random.default_rng(seed)
    table = None
    if step2 is _step2_sample:
        table, coverage = step2(
            network, partitions, instance, constants, rng, two_hop_for, coded
        )
        node_pairs = node_pairs_of(table)
    else:
        node_pairs, coverage = step2(
            network, partitions, instance, constants, rng,
            lambda bu, bv: coded.decode(two_hop_for(bu, bv)),
        )
    stream_probe = rng.random(16)
    return {
        "table": table,
        "node_pairs": node_pairs,
        "coverage": coverage,
        "delivered": delivered,
        "ledger": network.ledger.snapshot(),
        "stream": stream_probe,
    }


def _assert_step2_equivalent(segmented, loops):
    # Same labels in the same dict order (Step 3's lane order depends on it).
    assert list(segmented["node_pairs"]) == list(loops["node_pairs"])
    for label, (pairs, weights, table) in loops["node_pairs"].items():
        s_pairs, s_weights, s_table = segmented["node_pairs"][label]
        assert np.array_equal(s_pairs, pairs) and s_pairs.dtype == pairs.dtype
        assert np.array_equal(s_weights, weights)
        assert s_weights.dtype == weights.dtype
        assert np.array_equal(s_table, table) and s_table.shape == table.shape

    assert segmented["coverage"] == loops["coverage"]
    assert segmented["ledger"] == loops["ledger"]
    assert np.array_equal(segmented["stream"], loops["stream"])

    # The delivered request/reply batches are identical column by column.
    assert [phase for phase, _ in segmented["delivered"]] == [
        phase for phase, _ in loops["delivered"]
    ]
    for (_, s_batch), (_, l_batch) in zip(segmented["delivered"], loops["delivered"]):
        assert np.array_equal(s_batch.src, l_batch.src)
        assert np.array_equal(s_batch.dst, l_batch.dst)
        assert np.array_equal(s_batch.size_words, l_batch.size_words)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", [3, 11])
def test_step2_segmented_equivalent_to_loops(n, seed):
    constants = PaperConstants(scale=0.5)
    _assert_step2_equivalent(
        _run_step2(_step2_sample, n, seed, constants),
        _run_step2(reference.step2_sample_loops, n, seed, constants),
    )


@pytest.mark.parametrize("n", [16, 48])
def test_step2_int16_code_equivalent_to_loops(n):
    constants = PaperConstants(scale=0.5)
    segmented = _run_step2(_step2_sample, n, 7, constants, max_weight=300)
    loops = _run_step2(reference.step2_sample_loops, n, 7, constants, max_weight=300)
    _assert_step2_equivalent(segmented, loops)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step2_pair_weights_beyond_the_witness_bound(seed):
    # The coded threshold's clamp keeps a coded +∞ a miss when −f exceeds
    # every finite two-hop sum.
    constants = PaperConstants(scale=0.5)
    segmented = _run_step2(
        _step2_sample, 48, seed, constants, instance=prop1_sub_instance(48, seed)
    )
    loops = _run_step2(
        reference.step2_sample_loops, 48, seed, constants, instance=prop1_sub_instance(48, seed)
    )
    _assert_step2_equivalent(segmented, loops)
    tables = [table for _, _, table in segmented["node_pairs"].values()]
    assert any(table.any() for table in tables)


@pytest.mark.parametrize("n", SIZES)
def test_step2_abort_diagnostics_identical(n):
    # A tiny balance cap forces Lemma 2 (i) to fail; both forms must abort
    # on the same (bu, bv, x) with the same message.
    constants = PaperConstants(scale=1.0, balance_factor=0.001)
    with pytest.raises(ProtocolAbortedError) as segmented:
        _run_step2(_step2_sample, n, 5, constants)
    with pytest.raises(ProtocolAbortedError) as loops:
        _run_step2(reference.step2_sample_loops, n, 5, constants)
    assert str(segmented.value) == str(loops.value)


@pytest.mark.parametrize("n", [16, 48])
def test_step2_no_scope_still_equivalent(n):
    # effective_scope() covering nothing eligible: all-empty node entries.
    constants = PaperConstants(scale=0.2)
    graph = repro.random_undirected_graph(n, density=0.0, max_weight=5, rng=2)
    instance = FindEdgesInstance(graph, scope=set())
    partitions = CliquePartitions(n)
    num_fine = partitions.num_fine

    def hollow_two_hop(bu, bv):
        # Shape-faithful stand-in: with an empty scope nothing is kept, so
        # only the loop form's early-return path ever touches it.
        return np.zeros(
            (
                len(partitions.coarse.block(bu)),
                len(partitions.coarse.block(bv)),
                num_fine,
            )
        )

    coded = CodedWeights.encode(graph.weights)
    for step2, extra in (
        (_step2_sample, (coded,)), (reference.step2_sample_loops, ())
    ):
        network, _ = _recording_network(n)
        network.register_scheme("search", int(np.prod(partitions.grid_shape)))
        rng = np.random.default_rng(4)
        result, coverage = step2(
            network, partitions, instance, constants, rng, hollow_two_hop, *extra
        )
        node_pairs = node_pairs_of(result) if step2 is _step2_sample else result
        assert coverage == 1.0
        assert all(len(pairs) == 0 for pairs, _, _ in node_pairs.values())


class TestSchemePositions:
    """A virtual node is its position: a triple or search label's row-major
    position over ``grid_shape`` enumerates the labels in the loop forms'
    ``(u, v, w)`` order, and its host is ``position % n``."""

    @pytest.mark.parametrize("n", SIZES)
    def test_grid_positions_enumerate_like_the_loop_form(self, n):
        partitions = CliquePartitions(n)
        shape = partitions.grid_shape
        expected = [
            (u, v, w)
            for u in range(partitions.num_coarse)
            for v in range(partitions.num_coarse)
            for w in range(partitions.num_fine)
        ]
        assert list(np.ndindex(*shape)) == expected
        rows = np.array(expected).T
        assert np.ravel_multi_index(rows, shape).tolist() == list(range(len(expected)))
        network = CongestClique(n)
        network.register_scheme("triple", len(expected))
        assert np.array_equal(
            network.scheme_physical("triple"), np.arange(len(expected)) % n
        )

    def test_base_scheme_placement(self):
        network = CongestClique(12)
        assert network.scheme_physical("base").tolist() == list(range(12))


class TestSearchTable:
    @pytest.mark.parametrize("n", SIZES)
    def test_offsets_cover_the_kept_rows_in_position_order(self, n):
        table = _run_step2(_step2_sample, n, 3, PaperConstants(scale=0.5))["table"]
        assert table.shape == CliquePartitions(n).grid_shape
        assert table.offsets.size == table.live.size + 1
        assert table.offsets[0] == 0 and table.offsets[-1] == len(table.pairs)
        assert np.all(np.diff(table.offsets) >= 0)
        assert len(table.weights) == len(table.witness) == len(table.pairs)
        assert table.witness.shape[1] == table.shape[2]
        assert table.live.all()

    def test_block_pair_without_pairs_registers_no_search_node(self):
        # n = 1: the one coarse block holds one vertex, so P(u, u) is empty.
        outcome = _run_step2(_step2_sample, 1, 0, PaperConstants(scale=0.5))
        table = outcome["table"]
        assert table.shape == (1, 1, 1)
        assert not table.live.any()
        assert table.offsets.tolist() == [0, 0]
        assert table.pairs.shape == (0, 2) and table.witness.shape == (0, 1)
        assert outcome["ledger"] == {}
        loops = _run_step2(reference.step2_sample_loops, 1, 0, PaperConstants(scale=0.5))
        assert loops["node_pairs"] == {}
