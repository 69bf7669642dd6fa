"""Segmented Step-2 ≡ per-node loop form, lazy schemes ≡ eager registration.

The one-pass :func:`repro.core.compute_pairs._step2_sample` must reproduce
the node-major loop form preserved in
:func:`repro.core._reference.step2_sample_loops` *byte for byte*: identical
node pairs, weights, and witness tables per search label (same dict order),
identical coverage, identical delivered request/reply batches, identical
round charges, and an identically consumed RNG stream — including identical
abort diagnostics when Lemma 2 (i) fails.  The segmented pass reads the
two-hop tables in their integer code and compares against the coded
threshold; the loop form reads the same tables decoded to float64 and
compares against ``−f``.

Likewise the array-backed lazy schemes of
:class:`repro.congest.network.SchemeView` must place every label where the
eager label → host dict
(:func:`repro.core._reference.register_scheme_eager`) placed it.
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
from repro.core.evaluation import CodedWeights, block_two_hop
from repro.core.problems import FindEdgesInstance
from repro.errors import NetworkError, ProtocolAbortedError

from tests.conftest import prop1_sub_instance

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
    network.register_scheme("triple", partitions.triple_labels())
    network.register_scheme("search", partitions.search_labels())
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
    if step2 is _step2_sample:
        node_pairs, coverage = step2(
            network, partitions, instance, constants, rng, two_hop_for, coded
        )
    else:
        node_pairs, coverage = step2(
            network, partitions, instance, constants, rng,
            lambda bu, bv: coded.decode(two_hop_for(bu, bv)),
        )
    stream_probe = rng.random(16)
    return {
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
        network.register_scheme("search", partitions.search_labels())
        rng = np.random.default_rng(4)
        node_pairs, coverage = step2(
            network, partitions, instance, constants, rng, hollow_two_hop, *extra
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

        # Per-label placement agrees.
        for label in list(labels)[:: max(1, len(labels) // 17)]:
            assert view[label] == eager[label]
        assert np.array_equal(
            view.physical_array(), np.fromiter(eager.values(), dtype=np.int64)
        )

    def test_base_scheme_placement(self):
        network = CongestClique(12)
        base = network.scheme("base")
        assert list(base.values()) == list(range(12))
        assert base.physical_array().tolist() == list(range(12))


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
