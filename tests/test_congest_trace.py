"""Tests for the per-phase congest entries a network reports to telemetry.

Every :class:`CongestClique` built under a telemetry collector reports each
charge to it: one batch per charge, with its messages, words and rounds.
"""

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.baselines.bellman_ford_distributed import bellman_ford_distributed
from repro.congest.batch import MessageBatch
from repro.congest.network import CongestClique
from repro.core.problems import FindEdgesInstance
from repro.telemetry import report

from tests.conftest import TEST_CONSTANTS


class TestTracerMechanics:
    def test_records_deliveries(self):
        with telemetry.collect() as collector:
            net = CongestClique(4)
            net.deliver(MessageBatch([0, 2], [1, 3], [3, 1]), "p1")
            net.deliver(MessageBatch([1], [0], [8]), "p2")
        assert list(collector.congest) == ["p1", "p2"]
        assert collector.congest["p1"] == {
            "batches": 1, "messages": 2, "words": 4, "rounds": 2.0,
        }
        assert net.ledger.rounds("p1") == 2.0

    def test_records_broadcasts(self):
        with telemetry.collect() as collector:
            net = CongestClique(4)
            net.broadcast_all({0: 2, 1: 5}, "bcast")
        entry = collector.congest["bcast"]
        assert entry["rounds"] == 5.0
        assert entry["words"] == 7 * 4  # every node receives everything
        assert net.ledger.rounds("bcast") == 5.0

    def test_no_tracer_no_overhead(self):
        net = CongestClique(4)
        with telemetry.collect() as collector:
            net.deliver(MessageBatch([0], [1], [1]), "p")  # must not crash
        # Built outside a collector: charges reach the ledger only.
        assert collector.congest == {}
        assert net.ledger.rounds("p") == 2.0

    def test_phase_queries(self):
        with telemetry.collect() as collector:
            net = CongestClique(4)
            net.deliver(MessageBatch([0], [1], [2]), "a")
            net.deliver(MessageBatch([0], [1], [2]), "a")
            net.deliver(MessageBatch([0], [1], [6]), "b")
        assert list(collector.congest) == ["a", "b"]
        assert collector.congest["a"]["batches"] == 2
        assert collector.congest["a"]["words"] == 4
        assert sum(entry["words"] for entry in collector.congest.values()) == 10
        assert collector.congest["a"]["rounds"] == 4.0
        assert collector.congest["b"]["batches"] == 1

    def test_imbalance_hot_spot(self):
        with telemetry.collect() as collector:
            net = CongestClique(4)
            # All 8 words converge on node 1: Lemma 1 charges its load,
            # 2 * ceil(8 / 4) = 4 rounds, where the same 8 words spread
            # over all four nodes charge 2 * ceil(2 / 4) = 2.
            hot = net.deliver(
                MessageBatch([0, 1, 2, 3], [1, 1, 1, 1], [2, 2, 2, 2]), "hot"
            )
            spread = net.deliver(
                MessageBatch([0, 1, 2, 3], [1, 2, 3, 0], [2, 2, 2, 2]), "spread"
            )
        assert (hot, spread) == (4.0, 2.0)
        assert collector.congest["hot"] == {
            "batches": 1, "messages": 4, "words": 8, "rounds": 4.0,
        }
        assert collector.congest["spread"]["words"] == 8
        assert net.ledger.rounds("hot") == 4.0

    def test_imbalance_empty_phase(self):
        with telemetry.collect() as collector:
            net = CongestClique(4)
            assert net.deliver(MessageBatch([], [], []), "nothing") == 0.0
            assert net.broadcast_volume(np.array([]), np.array([]), "nothing") == 0.0
        assert "nothing" not in collector.congest
        assert net.ledger.total == 0.0
        assert "nothing" not in list(net.ledger.phases())

    def test_summary_renders(self):
        with telemetry.collect() as collector:
            net = CongestClique(4)
            net.deliver(MessageBatch([0], [1], [1]), "phase_x")
        text = report.format_snapshot(collector.snapshot())
        assert "phase_x" in text
        assert "rounds" in text


class TestBroadcastVolumeTracing:
    """The position-array broadcast path must report like broadcast_all."""

    def test_elided_broadcast_records_event(self):
        with telemetry.collect() as collector:
            net = CongestClique(4)
            # Nodes 0 and 2 broadcast 2 and 5 words: rounds = max per node.
            rounds = net.broadcast_volume(
                np.array([0, 2]), np.array([2, 5]), "elided"
            )
        assert rounds == 5.0
        assert collector.congest["elided"] == {
            "batches": 1,
            "messages": 2 * 4,
            "words": 7 * 4,  # every node receives everything
            "rounds": 5.0,
        }

    def test_elided_matches_broadcast_all_trace(self):
        # Same logical broadcast through both entry points: the reported
        # volumes and round charges must agree (only the dict-vs-array form
        # differs).
        with telemetry.collect() as full_collector:
            full = CongestClique(4)
            full.broadcast_all({0: 3, 1: 1, 3: 4}, "bcast")
        with telemetry.collect() as elided_collector:
            elided = CongestClique(4)
            elided.broadcast_volume(
                np.array([0, 1, 3]), np.array([3, 1, 4]), "bcast"
            )
        assert full_collector.congest == elided_collector.congest
        assert full.ledger.snapshot() == elided.ledger.snapshot()

    def test_untraced_elided_broadcast_charges_identically(self):
        with telemetry.collect():
            traced = CongestClique(4)
        plain = CongestClique(4)
        positions, sizes = np.array([0, 1, 2]), np.array([1, 2, 3])
        assert traced.broadcast_volume(
            positions, sizes, "p"
        ) == plain.broadcast_volume(positions, sizes, "p")
        assert traced.ledger.snapshot() == plain.ledger.snapshot()


class TestTracerAttachedVsDetached:
    """A telemetry collector must never move a round."""

    @pytest.mark.parametrize("n", [16, 48])
    def test_bellman_ford_rounds_byte_identical(self, n):
        graph = repro.random_digraph_no_negative_cycle(n, density=0.3, rng=21)
        detached = bellman_ford_distributed(graph, source=0)
        with telemetry.collect() as collector:
            attached = bellman_ford_distributed(graph, source=0)
        assert attached.rounds == detached.rounds
        assert attached.iterations == detached.iterations
        assert attached.distances.tolist() == detached.distances.tolist()
        assert attached.ledger.snapshot() == detached.ledger.snapshot()
        # The collector saw exactly the ledger's phases (all traffic here
        # is broadcast_volume, the position-array path).
        reported = {
            phase: entry["rounds"] for phase, entry in collector.congest.items()
        }
        assert reported == dict(detached.ledger.snapshot())


class TestTracerOnRealProtocol:
    def test_trace_does_not_change_rounds(self, small_undirected):
        # ComputePairs builds its own network internally; compare an
        # IdentifyClass run under a collector with one outside any.
        from repro.congest.partitions import CliquePartitions
        from repro.core.evaluation import CodedWeights, block_two_hop
        from repro.core.identify_class import run_identify_class

        instance = FindEdgesInstance(small_undirected)
        n = instance.num_vertices

        def run():
            net = CongestClique(n)
            partitions = CliquePartitions(n)
            net.register_scheme("triple", int(np.prod(partitions.grid_shape)))
            coded = CodedWeights.encode(instance.graph.weights)
            cache = {}

            def two_hop_for(bu, bv):
                key = (bu, bv)
                if key not in cache:
                    cache[key] = block_two_hop(
                        coded,
                        partitions.coarse.block(bu),
                        partitions.coarse.block(bv),
                        partitions.fine.blocks(),
                    )
                return cache[key]

            run_identify_class(
                net, instance, partitions, TEST_CONSTANTS, two_hop_for, coded, rng=7
            )
            return net

        with telemetry.collect() as collector:
            traced = run()
        untraced = run()
        assert traced.ledger.snapshot() == untraced.ledger.snapshot()
        assert (
            sum(entry["rounds"] for entry in collector.congest.values())
            == traced.ledger.total
        )
