"""Tests for Algorithm IdentifyClass (Figure 2, Proposition 5)."""

import numpy as np
import pytest

import repro
from repro.congest.network import CongestClique
from repro.congest.partitions import CliquePartitions
from repro.core.constants import PaperConstants
from repro.core.evaluation import block_two_hop
from repro.core.identify_class import ClassAssignment, run_identify_class, _class_of
from repro.core.problems import FindEdgesInstance
from repro.errors import ProtocolAbortedError


def setup_network(instance):
    n = instance.num_vertices
    network = CongestClique(n)
    partitions = CliquePartitions(n)
    network.register_scheme("triple", partitions.triple_labels())
    fine_blocks = partitions.fine.blocks()
    cache = {}

    def two_hop_for(bu, bv):
        if (bu, bv) not in cache:
            cache[(bu, bv)] = block_two_hop(
                instance.graph.weights,
                partitions.coarse.block(bu),
                partitions.coarse.block(bv),
                fine_blocks,
            )
        return cache[(bu, bv)]

    return network, partitions, two_hop_for


class TestClassOf:
    def test_zero_estimate_is_class_zero(self):
        consts = PaperConstants(scale=1.0)
        assert _class_of(0.0, 256, consts) == 0

    def test_thresholds(self):
        consts = PaperConstants(scale=1.0)
        n = 256  # threshold(α) = 10·2^α·8
        assert _class_of(79.0, n, consts) == 0
        assert _class_of(80.0, n, consts) == 1
        assert _class_of(159.0, n, consts) == 1
        assert _class_of(160.0, n, consts) == 2


class TestRunIdentifyClass:
    def test_all_triples_classified(self):
        graph = repro.random_undirected_graph(16, density=0.6, max_weight=8, rng=3)
        instance = FindEdgesInstance(graph)
        network, partitions, two_hop_for = setup_network(instance)
        consts = PaperConstants(scale=0.5)
        assignment = run_identify_class(
            network, instance, partitions, consts, two_hop_for, rng=1
        )
        expected_labels = set(partitions.triple_labels())
        assert set(assignment.classes) == expected_labels
        # t_alpha lists partition the fine blocks for each block pair.
        for bu in range(partitions.num_coarse):
            for bv in range(partitions.num_coarse):
                blocks = []
                for alpha in assignment.present_classes(bu, bv):
                    blocks += assignment.blocks_of_class(bu, bv, alpha)
                assert sorted(blocks) == list(range(partitions.num_fine))

    def test_charges_broadcast_rounds(self):
        graph = repro.random_undirected_graph(16, density=0.6, max_weight=8, rng=3)
        instance = FindEdgesInstance(graph)
        network, partitions, two_hop_for = setup_network(instance)
        run_identify_class(
            network, instance, partitions, PaperConstants(scale=0.5), two_hop_for, rng=1
        )
        snapshot = network.ledger.snapshot()
        assert "identify_class.broadcast_samples" in snapshot
        assert "identify_class.broadcast_classes" in snapshot

    def test_no_negative_triangles_all_class_zero(self):
        graph, _ = repro.planted_negative_triangle_graph(16, num_planted=0, rng=2)
        instance = FindEdgesInstance(graph)
        network, partitions, two_hop_for = setup_network(instance)
        assignment = run_identify_class(
            network, instance, partitions, PaperConstants(scale=0.5), two_hop_for, rng=1
        )
        assert set(assignment.classes.values()) == {0}

    def test_dense_triangles_produce_high_class(self):
        # Every pair in many negative triangles: with full sampling
        # (scale high → rate 1) estimates are exact and large.
        graph = repro.random_undirected_graph(16, density=1.0, max_weight=1, rng=1)
        # Make all weights -1: every triple is a negative triangle.
        weights = np.where(np.isfinite(graph.weights), -1.0, np.inf)
        from repro.graphs.digraph import UndirectedWeightedGraph

        graph = UndirectedWeightedGraph(weights)
        instance = FindEdgesInstance(graph)
        network, partitions, two_hop_for = setup_network(instance)
        # rate 1 (exact counts) and a class threshold small enough that the
        # ~dozens of witnessed pairs per triple exceed it.
        consts = PaperConstants(scale=4.0, class_threshold_factor=0.5)
        assignment = run_identify_class(
            network, instance, partitions, consts, two_hop_for, rng=1
        )
        assert assignment.max_class >= 1

    def test_abort_on_oversized_sample(self):
        graph = repro.random_undirected_graph(16, density=1.0, max_weight=8, rng=1)
        instance = FindEdgesInstance(graph)
        network, partitions, two_hop_for = setup_network(instance)
        # rate forced to 1 but abort bound tiny ⇒ certain abort.
        consts = PaperConstants(scale=4.0, identify_abort_factor=0.01)
        with pytest.raises(ProtocolAbortedError):
            run_identify_class(
                network, instance, partitions, consts, two_hop_for, rng=1
            )

    def test_estimates_track_delta_proposition5(self):
        # With sampling rate 1 the estimate d_{uvw} equals |Δ(u,v;w)| over
        # scope pairs exactly; check against brute force.
        graph = repro.random_undirected_graph(16, density=0.7, max_weight=6, rng=5)
        instance = FindEdgesInstance(graph)
        network, partitions, two_hop_for = setup_network(instance)
        consts = PaperConstants(scale=4.0)  # identify_rate(16) = 1
        assignment = run_identify_class(
            network, instance, partitions, consts, two_hop_for, rng=1
        )
        # Brute-force Δ(u, v; w) per triple, from Definition 3.
        scope = instance.effective_scope()
        w_weights = instance.graph.weights
        for (bu, bv, bw), alpha in assignment.classes.items():
            fine = set(partitions.fine.block(bw).tolist())
            delta = 0
            for u, v in map(tuple, partitions.block_pairs(bu, bv).tolist()):
                if (u, v) not in scope:
                    continue
                pair_weight = w_weights[u, v]
                witnesses = [
                    w
                    for w in fine
                    if w not in (u, v)
                    and np.isfinite(w_weights[u, w])
                    and np.isfinite(w_weights[w, v])
                    and w_weights[u, w] + w_weights[w, v] < -pair_weight
                ]
                delta += int(bool(witnesses))
            expected_alpha = _class_of(float(delta), 16, consts)
            assert alpha == expected_alpha
