"""Fidelity tests: the simulation shortcuts are provably faithful.

The simulator routes word counts, not payloads: Step 1 of ComputePairs
delivers :func:`repro.core.compute_pairs.step1_batch`, and the triple
nodes' block two-hop tables are computed directly from the global weight
matrix.  ``TestStep1PayloadFidelity`` checks the batch production sends
against that shortcut: the rows addressed to each triple node are exactly
the row slices its tables need, with the slices' widths as their sizes,
and the min-plus over those slices is the simulator's table.

IdentifyClass's broadcasts are ``broadcast_volume`` charges over position
arrays; ``TestIdentifyClassBroadcastFidelity`` runs it beside the
``{position: words}`` ``broadcast_all`` form in :mod:`tests.reference` and
shows the two charge, report to telemetry and classify identically.
"""

from collections import Counter

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.congest.network import CongestClique
from repro.congest.partitions import CliquePartitions
from repro.core.compute_pairs import compute_pairs, step1_batch
from repro.core.evaluation import CodedWeights, block_two_hop
from repro.core.identify_class import run_identify_class
from repro.core.problems import FindEdgesInstance

from tests.conftest import TEST_CONSTANTS
from tests.reference import run_identify_class_broadcast_all


def _rows_by_destination(batch):
    """``{destination position: [(source, size), ...]}`` of a batch."""
    rows: dict[int, list[tuple[int, int]]] = {}
    for src, dst, size in zip(
        batch.src.tolist(), batch.dst.tolist(), batch.size_words.tolist()
    ):
        rows.setdefault(dst, []).append((src, size))
    return rows


class TestStep1PayloadFidelity:
    @pytest.mark.parametrize("n", [16, 24, 81])
    def test_batch_rows_rebuild_two_hop_tensors(self, n):
        graph = repro.random_undirected_graph(n, density=0.6, max_weight=7, rng=3)
        witness = graph.weights
        coded = CodedWeights.encode(witness)
        partitions = CliquePartitions(n)
        shape = partitions.grid_shape
        rows = _rows_by_destination(step1_batch(partitions))
        fine_blocks = partitions.fine.blocks()
        tables = {}

        for bu, bv, bw in np.ndindex(*shape):
            block_u = partitions.coarse.block(bu)
            block_v = partitions.coarse.block(bv)
            fine = fine_blocks[bw]
            received = rows.pop(int(np.ravel_multi_index((bu, bv, bw), shape)), [])
            # One |fine(bw)|-word row from each u ∈ block_u and one
            # |block_v|-word row from each w ∈ fine(bw), nothing else.
            expected = [(int(u), len(fine)) for u in block_u] + [
                (int(w), len(block_v)) for w in fine
            ]
            assert Counter(received) == Counter(expected)

            # The min-plus over the received row slices (u's row restricted
            # to fine(bw), w's row restricted to block_v, each as wide as
            # its row's size) is the simulator's shortcut table.
            pending = Counter(received)
            u_rows = []
            for u in block_u.tolist():
                if pending[(u, len(fine))]:
                    pending[(u, len(fine))] -= 1
                    u_rows.append(u)
            w_rows = sorted(pending.elements())
            f_uw = witness[np.ix_(u_rows, fine)]
            f_wv = np.stack([witness[w, block_v] for w, _ in w_rows])
            assert f_uw.shape[1] == len(fine)
            assert [size for _, size in w_rows] == [f_wv.shape[1]] * len(w_rows)
            assert [w for w, _ in w_rows] == fine.tolist()
            local = (f_uw[:, :, None] + f_wv[None, :, :]).min(axis=1)
            if (bu, bv) not in tables:
                tables[(bu, bv)] = coded.decode(
                    block_two_hop(coded, block_u, block_v, fine_blocks)
                )
            assert np.array_equal(local, tables[(bu, bv)][:, :, bw])
        assert rows == {}, "rows addressed to no triple node"


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
        partitions = CliquePartitions(n)
        fine_blocks = partitions.fine.blocks()
        coded = CodedWeights.encode(graph.weights)

        def two_hop_for(bu, bv):
            return block_two_hop(
                coded,
                partitions.coarse.block(bu),
                partitions.coarse.block(bv),
                fine_blocks,
            )

        with telemetry.collect() as collector:
            network = CongestClique(n)
            network.register_scheme("triple", int(np.prod(partitions.grid_shape)))
            assignment = identify(
                network, instance, partitions, TEST_CONSTANTS, two_hop_for, coded,
                rng=seed + 5,
            )
        return assignment, network, collector.congest

    @pytest.mark.parametrize("n", [16, 48])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_broadcast_volume_matches_broadcast_all(self, n, seed):
        assignment, network, congest = self.run(run_identify_class, n, seed)
        expected, reference, reference_congest = self.run(
            run_identify_class_broadcast_all, n, seed
        )
        assert np.array_equal(assignment.grid, expected.grid)
        assert assignment.sample_size == expected.sample_size
        assert list(network.ledger.phases()) == list(reference.ledger.phases())
        for phase in (
            "identify_class.broadcast_samples",
            "identify_class.broadcast_classes",
        ):
            assert congest[phase]["batches"] >= 1
        assert congest == reference_congest
