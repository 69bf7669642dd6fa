"""Tests for the protocol tracer."""

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.baselines.bellman_ford_distributed import bellman_ford_distributed
from repro.congest.batch import MessageBatch
from repro.congest.network import CongestClique
from repro.congest.trace import Tracer
from repro.core.problems import FindEdgesInstance

from tests.conftest import TEST_CONSTANTS


class TestTracerMechanics:
    def test_records_deliveries(self):
        net = CongestClique(4)
        net.tracer = Tracer(4)
        net.deliver(MessageBatch([0, 2], [1, 3], [3, 1]), "p1")
        net.deliver(MessageBatch([1], [0], [8]), "p2")
        assert len(net.tracer) == 2
        first = net.tracer.events[0]
        assert first.phase == "p1"
        assert first.kind == "deliver"
        assert first.num_messages == 2
        assert first.total_words == 4
        assert first.rounds == 2.0

    def test_records_broadcasts(self):
        net = CongestClique(4)
        net.tracer = Tracer(4)
        net.broadcast_all({0: 2, 1: 5}, "bcast")
        event = net.tracer.events[0]
        assert event.kind == "broadcast"
        assert event.rounds == 5.0
        assert event.total_words == 7 * 4  # every node receives everything

    def test_no_tracer_no_overhead(self):
        net = CongestClique(4)
        assert net.tracer is None
        net.deliver(MessageBatch([0], [1], [1]), "p")  # must not crash

    def test_phase_queries(self):
        net = CongestClique(4)
        net.tracer = Tracer(4)
        net.deliver(MessageBatch([0], [1], [2]), "a")
        net.deliver(MessageBatch([0], [1], [2]), "a")
        net.deliver(MessageBatch([0], [1], [6]), "b")
        tracer = net.tracer
        assert tracer.phases() == ["a", "b"]
        assert tracer.total_words("a") == 4
        assert tracer.total_words() == 10
        assert tracer.total_rounds("a") == 4.0
        assert len(tracer.events_for("b")) == 1

    def test_imbalance_hot_spot(self):
        net = CongestClique(4)
        net.tracer = Tracer(4)
        # All 8 words converge on node 1: balanced load would be 2.
        net.deliver(MessageBatch([0, 1, 2, 3], [1, 1, 1, 1], [2, 2, 2, 2]), "hot")
        assert net.tracer.imbalance("hot") == pytest.approx(8 / 2)

    def test_imbalance_empty_phase(self):
        tracer = Tracer(4)
        assert tracer.imbalance("nothing") == 1.0

    def test_summary_renders(self):
        net = CongestClique(4)
        net.tracer = Tracer(4)
        net.deliver(MessageBatch([0], [1], [1]), "phase_x")
        text = net.tracer.summary()
        assert "phase_x" in text
        assert "rounds" in text


class TestBroadcastVolumeTracing:
    """The position-array broadcast path must trace like broadcast_all."""

    def test_elided_broadcast_records_event(self):
        net = CongestClique(4)
        net.tracer = Tracer(4)
        # Nodes 0 and 2 broadcast 2 and 5 words: rounds = max per node.
        rounds = net.broadcast_volume(
            np.array([0, 2]), np.array([2, 5]), "elided"
        )
        assert rounds == 5.0
        event = net.tracer.events[0]
        assert event.kind == "broadcast"
        assert event.num_messages == 2 * 4
        assert event.total_words == 7 * 4  # every node receives everything
        assert event.max_src_load == 5
        assert event.max_dst_load == 7
        assert event.rounds == 5.0

    def test_elided_matches_broadcast_all_trace(self):
        # Same logical broadcast through both entry points: the traced
        # volumes and round charges must agree (only label-vs-position
        # addressing differs).
        full = CongestClique(4)
        full.tracer = Tracer(4)
        full.broadcast_all({0: 3, 1: 1, 3: 4}, "bcast")
        elided = CongestClique(4)
        elided.tracer = Tracer(4)
        elided.broadcast_volume(
            np.array([0, 1, 3]), np.array([3, 1, 4]), "bcast"
        )
        a, b = full.tracer.events[0], elided.tracer.events[0]
        assert (a.total_words, a.max_src_load, a.max_dst_load, a.rounds) == (
            b.total_words, b.max_src_load, b.max_dst_load, b.rounds
        )
        assert full.ledger.snapshot() == elided.ledger.snapshot()

    def test_untraced_elided_broadcast_charges_identically(self):
        traced = CongestClique(4)
        traced.tracer = Tracer(4)
        plain = CongestClique(4)
        positions, sizes = np.array([0, 1, 2]), np.array([1, 2, 3])
        assert traced.broadcast_volume(
            positions, sizes, "p"
        ) == plain.broadcast_volume(positions, sizes, "p")
        assert traced.ledger.snapshot() == plain.ledger.snapshot()


class TestTracerAttachedVsDetached:
    """A telemetry collector (bridged tracer) must never move a round."""

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
        # The bridge saw exactly the ledger's phases (all traffic here is
        # broadcast_volume, the position-array path).
        bridged = {
            phase: entry["rounds"] for phase, entry in collector.congest.items()
        }
        assert bridged == dict(detached.ledger.snapshot())


class TestTracerOnRealProtocol:
    def test_trace_does_not_change_rounds(self, small_undirected):
        # ComputePairs builds its own network internally; trace at the
        # router level by comparing a traced vs untraced IdentifyClass run.
        from repro.congest.partitions import CliquePartitions
        from repro.core.evaluation import CodedWeights, block_two_hop
        from repro.core.identify_class import run_identify_class

        instance = FindEdgesInstance(small_undirected)
        n = instance.num_vertices

        def run(with_tracer):
            net = CongestClique(n)
            if with_tracer:
                net.tracer = Tracer(n)
            partitions = CliquePartitions(n)
            net.register_scheme("triple", partitions.triple_labels())
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

        traced = run(True)
        untraced = run(False)
        assert traced.ledger.snapshot() == untraced.ledger.snapshot()
        assert traced.tracer.total_rounds() == traced.ledger.total
