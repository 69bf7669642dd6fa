"""Segmented Step-2 ≡ per-node loop form, lazy schemes ≡ eager registration.

The one-pass :func:`repro.core.compute_pairs._step2_sample` must reproduce
the node-major loop form preserved in
:func:`repro.core._reference.step2_sample_loops` *byte for byte*: identical
node pairs, weights, and witness tables per search label (same dict order),
identical coverage, identical delivered request/reply batches, identical
round charges, and an identically consumed RNG stream — including identical
abort diagnostics when Lemma 2 (i) fails.

Likewise the array-backed lazy schemes of
:class:`repro.congest.network.SchemeView` must place every label where the
eager one-Node-per-label registration
(:func:`repro.core._reference.register_scheme_eager`) placed it, while
materializing zero Nodes at registration time.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.congest.network import CongestClique
from repro.congest.partitions import (
    CliquePartitions,
    DistinctLabels,
    GridLabels,
    ProductLabels,
)
from repro.core import _reference as reference
from repro.core.compute_pairs import _step2_sample
from repro.core.constants import PaperConstants
from repro.core.evaluation import block_two_hop
from repro.core.problems import FindEdgesInstance
from repro.errors import NetworkError, ProtocolAbortedError

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


def _run_step2(step2, n: int, seed: int, constants: PaperConstants):
    """Run one Step-2 implementation in a fresh, identically seeded world."""
    graph = repro.random_undirected_graph(n, density=0.5, max_weight=7, rng=seed)
    instance = FindEdgesInstance(graph)
    partitions = CliquePartitions(n)
    network, delivered = _recording_network(n)
    network.register_scheme("triple", partitions.triple_labels())
    network.register_scheme("search", partitions.search_labels())
    witness = instance.graph.weights
    fine_blocks = partitions.fine.blocks()
    cache: dict = {}

    def two_hop_for(bu, bv):
        if (bu, bv) not in cache:
            cache[(bu, bv)] = block_two_hop(
                witness,
                partitions.coarse.block(bu),
                partitions.coarse.block(bv),
                fine_blocks,
            )
        return cache[(bu, bv)]

    rng = np.random.default_rng(seed)
    node_pairs, coverage = step2(
        network, partitions, instance, constants, rng, two_hop_for
    )
    stream_probe = rng.random(16)
    return {
        "node_pairs": node_pairs,
        "coverage": coverage,
        "delivered": delivered,
        "ledger": network.ledger.snapshot(),
        "stream": stream_probe,
    }


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", [3, 11])
def test_step2_segmented_equivalent_to_loops(n, seed):
    constants = PaperConstants(scale=0.5)
    segmented = _run_step2(_step2_sample, n, seed, constants)
    loops = _run_step2(reference.step2_sample_loops, n, seed, constants)

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

    for step2 in (_step2_sample, reference.step2_sample_loops):
        network, _ = _recording_network(n)
        network.register_scheme("search", partitions.search_labels())
        rng = np.random.default_rng(4)
        node_pairs, coverage = step2(
            network, partitions, instance, constants, rng, hollow_two_hop
        )
        assert coverage == 1.0
        assert all(len(pairs) == 0 for pairs, _, _ in node_pairs.values())


class TestLazySchemePlacement:
    @pytest.mark.parametrize("n", SIZES)
    def test_registration_matches_eager_placement(self, n):
        partitions = CliquePartitions(n)
        labels = partitions.triple_labels()
        lazy_net = CongestClique(n)
        eager_net = CongestClique(n)
        view = lazy_net.register_scheme("triple", labels)
        eager = reference.register_scheme_eager(eager_net, "triple", labels)

        # Registration allocates no Nodes up front.
        assert view.materialized_nodes == 0

        # Per-label placement agrees.
        for label in list(labels)[:: max(1, len(labels) // 17)]:
            assert view[label].label == eager[label].label == label
            assert view[label].physical == eager[label].physical
        # Materialized nodes are cached: same object on re-access.
        label = next(iter(labels))
        assert view[label] is view[label]

    def test_base_scheme_placement(self):
        network = CongestClique(12)
        assert network.scheme("base").materialized_nodes == 0
        assert [node.physical for node in network.base_nodes()] == list(range(12))
        assert network.node(3) is network.base_nodes()[3]


class TestArithmeticLabelConstructors:
    @pytest.mark.parametrize("n", SIZES)
    def test_grid_labels_enumerate_like_the_list_form(self, n):
        partitions = CliquePartitions(n)
        labels = partitions.triple_labels()
        expected = [
            (u, v, w)
            for u in range(partitions.num_coarse)
            for v in range(partitions.num_coarse)
            for w in range(partitions.num_fine)
        ]
        assert list(labels) == expected
        assert len(labels) == len(expected)
        for position in range(0, len(expected), max(1, len(expected) // 23)):
            assert labels[position] == expected[position]
            assert labels.position_of(expected[position]) == position

    def test_grid_labels_reject_foreign_labels(self):
        labels = GridLabels(2, 3)
        for bad in [(2, 0), (0, 3), (-1, 0), (0,), "x", (0, 1, 2), (0.5, 1)]:
            with pytest.raises(KeyError):
                labels.position_of(bad)
            assert bad not in labels
        assert (1, 2) in labels

    def test_product_labels_match_loop_form(self):
        prefixes = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
        labels = ProductLabels(prefixes, 4)
        expected = [prefix + (y,) for prefix in prefixes for y in range(4)]
        assert list(labels) == expected
        assert len(labels) == len(expected)
        for position, label in enumerate(expected):
            assert labels[position] == label
            assert labels.position_of(label) == position
        with pytest.raises(KeyError):
            labels.position_of((0, 1, 2, 4))
        with pytest.raises(KeyError):
            labels.position_of((9, 9, 9, 0))

    def test_product_scheme_positions_vectorized(self):
        prefixes = np.array([(0, 1, 2), (3, 4, 5), (6, 7, 8)])
        labels = ProductLabels(prefixes, 4)
        view = CongestClique(4).register_scheme("dup", labels)
        rows = np.array(list(labels))
        assert view.positions_of_array(rows).tolist() == list(range(12))
        assert labels.positions_at([2, 0], [3, 1]).tolist() == [11, 1]
        with pytest.raises(KeyError):
            labels.positions_at([3], [0])

    def test_duplicate_free_schemes_skip_the_set_scan(self):
        network = CongestClique(4)
        # A lying DistinctLabels goes through unchecked — the promise is the
        # caller's; this pins the short-circuit actually happening.
        view = network.register_scheme("trusted", DistinctLabels(["a", "a"]))
        assert len(view) == 2
        with pytest.raises(NetworkError):
            network.register_scheme("checked", ["a", "a"])

    def test_registered_grid_scheme_routes_like_list_scheme(self):
        n = 16
        partitions = CliquePartitions(n)
        grid_net = CongestClique(n)
        list_net = CongestClique(n)
        grid_net.register_scheme("s", partitions.search_labels())
        list_net.register_scheme("s", list(partitions.search_labels()))
        assert np.array_equal(grid_net.scheme_physical("s"), list_net.scheme_physical("s"))
        assert grid_net.scheme_positions("s") == list_net.scheme_positions("s")
