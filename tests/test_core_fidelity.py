"""Fidelity tests: the simulation shortcuts are provably faithful.

The simulator computes node-local tables (the block two-hop tensors)
directly from the global weight matrix instead of materializing every
Step-1 payload.  These tests run Step 1 *with* real payloads and rebuild
each triple node's tables purely from its inbox, proving byte-identity —
i.e. the round-charged messages really carry exactly the data the
node-local computation uses.

IdentifyClass's broadcasts are payload-free ``broadcast_volume`` charges;
``TestIdentifyClassBroadcastFidelity`` runs it beside the payload-writing
``broadcast_all`` form preserved in :mod:`repro.core._reference` and shows
the two charge, trace and classify identically.
"""

import numpy as np
import pytest

import repro
from repro.congest.network import CongestClique
from repro.congest.partitions import CliquePartitions
from repro.congest.trace import Tracer
from repro.core._reference import run_identify_class_broadcast_all
from repro.core.compute_pairs import _step1_load, compute_pairs
from repro.core.evaluation import block_two_hop
from repro.core.identify_class import run_identify_class
from repro.core.problems import FindEdgesInstance

from tests.conftest import TEST_CONSTANTS


class TestStep1PayloadFidelity:
    @pytest.mark.parametrize("n", [16, 24])
    def test_inbox_rebuilds_two_hop_tensors(self, n):
        graph = repro.random_undirected_graph(n, density=0.6, max_weight=7, rng=3)
        witness = graph.weights
        network = CongestClique(n)
        partitions = CliquePartitions(n)
        triple_scheme = network.register_scheme("triple", partitions.triple_labels())
        _step1_load(network, partitions, witness)

        fine_blocks = partitions.fine.blocks()
        for (bu, bv, bw), node in triple_scheme.items():
            # Rebuild F_uw and F_wv from the received messages only.
            block_u = partitions.coarse.block(bu)
            block_v = partitions.coarse.block(bv)
            fine = fine_blocks[bw]
            f_uw = np.full((len(block_u), len(fine)), np.nan)
            f_wv = np.full((len(fine), len(block_v)), np.nan)
            u_pos = {int(u): i for i, u in enumerate(block_u)}
            w_pos = {int(w): i for i, w in enumerate(fine)}
            for _src, payload in node.drain_inbox():
                kind, row, values = payload
                if kind == "uw" and row in u_pos:
                    f_uw[u_pos[row]] = values
                elif kind == "wv" and row in w_pos:
                    f_wv[w_pos[row]] = values
            assert not np.isnan(f_uw).any(), "missing F_uw rows"
            assert not np.isnan(f_wv).any(), "missing F_wv rows"
            # Node-local min-plus from received data == the simulator's
            # shortcut tensor layer for this fine block.
            local = (f_uw[:, :, None] + f_wv[None, :, :]).min(axis=1)
            shortcut = block_two_hop(witness, block_u, block_v, fine_blocks)
            assert np.array_equal(local, shortcut[:, :, bw])

    def test_attach_payloads_does_not_change_rounds_or_output(self):
        graph = repro.random_undirected_graph(16, density=0.6, max_weight=8, rng=3)
        instance = FindEdgesInstance(graph)
        with_payloads = compute_pairs(
            instance, constants=TEST_CONSTANTS, rng=9, attach_payloads=True
        )
        without = compute_pairs(
            instance, constants=TEST_CONSTANTS, rng=9, attach_payloads=False
        )
        assert with_payloads.pairs == without.pairs
        assert with_payloads.rounds == without.rounds
        assert with_payloads.ledger.snapshot() == without.ledger.snapshot()


class TestStep2MessageAccounting:
    def test_request_and_reply_sizes_track_sampled_pairs(self):
        # The step-2 charge must grow with the sampling rate: at rate 1 the
        # requests name every pair once per covering set.
        graph = repro.random_undirected_graph(16, density=0.6, max_weight=8, rng=3)
        instance = FindEdgesInstance(graph)
        low = compute_pairs(
            instance, constants=repro.PaperConstants(scale=0.05), rng=2
        )
        high = compute_pairs(
            instance, constants=repro.PaperConstants(scale=2.0), rng=2
        )
        assert (
            high.ledger.rounds("compute_pairs.step2_request")
            >= low.ledger.rounds("compute_pairs.step2_request")
        )
        assert (
            high.ledger.rounds("compute_pairs.step2_reply")
            >= low.ledger.rounds("compute_pairs.step2_reply")
        )

    def test_reply_charge_double_the_request(self):
        # Replies carry weight + membership (2 words) per pair vs 1-word
        # requests; with identical routing pattern the reply phase can never
        # be cheaper.
        graph = repro.random_undirected_graph(16, density=0.6, max_weight=8, rng=3)
        instance = FindEdgesInstance(graph)
        solution = compute_pairs(instance, constants=TEST_CONSTANTS, rng=4)
        assert (
            solution.ledger.rounds("compute_pairs.step2_reply")
            >= solution.ledger.rounds("compute_pairs.step2_request")
        )


class TestIdentifyClassBroadcastFidelity:
    @staticmethod
    def run(identify, n, seed):
        graph = repro.random_undirected_graph(n, density=0.6, max_weight=7, rng=seed)
        instance = FindEdgesInstance(graph)
        network = CongestClique(n)
        network.tracer = Tracer(n)
        partitions = CliquePartitions(n)
        network.register_scheme("triple", partitions.triple_labels())
        fine_blocks = partitions.fine.blocks()

        def two_hop_for(bu, bv):
            return block_two_hop(
                graph.weights,
                partitions.coarse.block(bu),
                partitions.coarse.block(bv),
                fine_blocks,
            )

        assignment = identify(
            network, instance, partitions, TEST_CONSTANTS, two_hop_for, rng=seed + 5
        )
        return assignment, network

    @pytest.mark.parametrize("n", [16, 48])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_payload_free_matches_broadcast_all(self, n, seed):
        assignment, network = self.run(run_identify_class, n, seed)
        expected, reference = self.run(run_identify_class_broadcast_all, n, seed)
        assert assignment.classes == expected.classes
        assert list(assignment.classes) == list(expected.classes)
        assert assignment.t_alpha == expected.t_alpha
        assert assignment.sample_size == expected.sample_size
        assert list(network.ledger.phases()) == list(reference.ledger.phases())
        for phase in (
            "identify_class.broadcast_samples",
            "identify_class.broadcast_classes",
        ):
            events = network.tracer.events_for(phase)
            assert events and events == reference.tracer.events_for(phase)
        # The reference really ships its payloads; the payload-free form
        # leaves every base node's inbox empty.
        assert all(node.inbox for node in reference.base_nodes())
        assert all(node.inbox == [] for node in network.base_nodes())
