"""Direct tests for the Step-3 search engine (repro.core.quantum_step3)."""

import numpy as np
import pytest

import repro
from repro.congest.network import CongestClique
from repro.congest.partitions import CliquePartitions
from repro.core.constants import PaperConstants
from repro.core.evaluation import block_two_hop
from repro.core.identify_class import ClassAssignment
from repro.core.quantum_step3 import run_step3
from repro.quantum import batched as batched_module

CONSTANTS = PaperConstants(scale=0.5)


def build_fixture(n=16, seed=3):
    """A network + partitions + a synthetic single-class assignment and a
    hand-built node_pairs payload for direct run_step3 invocation."""
    graph = repro.random_undirected_graph(n, density=0.6, max_weight=8, rng=seed)
    network = CongestClique(n)
    partitions = CliquePartitions(n)
    network.register_scheme("triple", partitions.triple_labels())
    network.register_scheme("search", partitions.search_labels())

    classes = {label: 0 for label in partitions.triple_labels()}
    t_alpha = {
        (bu, bv): {0: list(range(partitions.num_fine))}
        for bu in range(partitions.num_coarse)
        for bv in range(partitions.num_coarse)
    }
    assignment = ClassAssignment(classes=classes, t_alpha=t_alpha)

    weights = graph.weights
    fine_blocks = partitions.fine.blocks()
    node_pairs = {}
    rng = np.random.default_rng(seed)
    for bu in range(partitions.num_coarse):
        for bv in range(partitions.num_coarse):
            pairs = partitions.block_pairs(bu, bv)
            two_hop = block_two_hop(
                weights,
                partitions.coarse.block(bu),
                partitions.coarse.block(bv),
                fine_blocks,
            )
            start_u = int(partitions.coarse.block(bu)[0])
            start_v = int(partitions.coarse.block(bv)[0])
            for x in range(partitions.num_fine):
                mask = rng.random(len(pairs)) < 0.5
                chosen = pairs[mask]
                chosen = chosen[np.isfinite(weights[chosen[:, 0], chosen[:, 1]])]
                pair_weights = weights[chosen[:, 0], chosen[:, 1]]
                coarse_of = partitions.coarse.block_index_array()
                a_in_u = coarse_of[chosen[:, 0]] == bu
                rows = np.where(a_in_u, chosen[:, 0] - start_u, chosen[:, 1] - start_u)
                cols = np.where(a_in_u, chosen[:, 1] - start_v, chosen[:, 0] - start_v)
                table = two_hop[rows, cols, :] < -pair_weights[:, None]
                node_pairs[(bu, bv, x)] = (chosen, pair_weights, table)
    truth = {
        tuple(pair)
        for entry in node_pairs.values()
        for pair, hit in zip(entry[0].tolist(), entry[2].any(axis=1).tolist())
        if hit
    }
    return graph, network, partitions, assignment, node_pairs, truth


class TestClassicalMode:
    def test_exact_detection(self):
        _, network, partitions, assignment, node_pairs, truth = build_fixture()
        report = run_step3(
            network,
            partitions,
            CONSTANTS,
            assignment,
            node_pairs,
            rng=1,
            search_mode="classical",
        )
        assert report.found_pairs == truth

    def test_rounds_scale_with_domain(self):
        _, network, partitions, assignment, node_pairs, _ = build_fixture()
        report = run_step3(
            network, partitions, CONSTANTS, assignment, node_pairs,
            rng=1, search_mode="classical",
        )
        eval_r = report.eval_rounds_per_alpha[0]
        assert report.search_rounds_per_alpha[0] == pytest.approx(
            eval_r * partitions.num_fine
        )


class TestQuantumMode:
    def test_matches_classical_truth_whp(self):
        _, network, partitions, assignment, node_pairs, truth = build_fixture()
        report = run_step3(
            network, partitions, CONSTANTS, assignment, node_pairs,
            rng=2, search_mode="quantum",
        )
        assert report.found_pairs <= truth  # no false positives, ever
        assert len(truth - report.found_pairs) <= max(1, len(truth) // 50)

    def test_search_counter(self):
        _, network, partitions, assignment, node_pairs, _ = build_fixture()
        report = run_step3(
            network, partitions, CONSTANTS, assignment, node_pairs,
            rng=2, search_mode="quantum",
        )
        expected = sum(len(entry[0]) for entry in node_pairs.values())
        assert report.total_searches == expected

    def test_phase_charges_use_max_not_sum(self):
        # The α-phase charge equals the most expensive node's schedule, not
        # the sum over nodes (all nodes search in the same global rounds).
        _, network, partitions, assignment, node_pairs, _ = build_fixture()
        before = network.ledger.total
        report = run_step3(
            network, partitions, CONSTANTS, assignment, node_pairs,
            rng=3, search_mode="quantum",
        )
        charged = network.ledger.total - before
        eval_r = report.eval_rounds_per_alpha[0]
        num_nodes_with_pairs = sum(
            1 for entry in node_pairs.values() if len(entry[0])
        )
        # Sum over nodes would be ~num_nodes× larger than one schedule.
        assert charged < eval_r * 1000 * num_nodes_with_pairs

    @pytest.mark.parametrize("contract", ["v1", "v2"])
    def test_found_items_never_resolved(self, monkeypatch, contract):
        # Step 3 reads only whether a search found something: with the
        # found-item resolver raising, the run completes with the same
        # pairs and round charges.
        def run():
            _, network, partitions, assignment, node_pairs, _ = build_fixture()
            report = run_step3(
                network, partitions, CONSTANTS, assignment, node_pairs,
                rng=4, search_mode="quantum", rng_contract=contract,
            )
            return report.found_pairs, network.ledger.snapshot()

        expected = run()

        def raising_resolver(*args, **kwargs):
            raise AssertionError("a found item was resolved")

        monkeypatch.setattr(batched_module, "_resolve_slots", raising_resolver)
        pairs, ledger = run()
        assert pairs and pairs == expected[0]
        assert ledger == expected[1]

    def test_rejects_unknown_mode(self):
        _, network, partitions, assignment, node_pairs, _ = build_fixture()
        with pytest.raises(ValueError):
            run_step3(
                network, partitions, CONSTANTS, assignment, node_pairs,
                rng=1, search_mode="annealing",
            )


class TestDuplicationPath:
    """Exercises Fig. 5's bandwidth duplication (α > 0, dup > 1)."""

    #: 2 / (class_bound_factor · scale · log 16) = 2 / (0.333·0.5·4) ≈ 3.
    DUP_CONSTANTS = PaperConstants(scale=0.5, class_bound_factor=0.333)

    def build_class1_fixture(self):
        graph, network, partitions, assignment, node_pairs, truth = build_fixture()
        # Reassign every triple to class 1 so the α>0 path runs.
        classes = {label: 1 for label in assignment.classes}
        t_alpha = {
            key: {1: blocks[0]}
            for key, blocks in (
                (bp, list(per.values())) for bp, per in assignment.t_alpha.items()
            )
        }
        forced = ClassAssignment(classes=classes, t_alpha=t_alpha)
        return network, partitions, forced, node_pairs, truth

    def test_duplication_count_above_one(self):
        from repro.core.evaluation import duplication_count

        assert duplication_count(self.DUP_CONSTANTS, 16, 1) == 3

    def test_step0_charged_and_output_one_sided(self):
        network, partitions, forced, node_pairs, truth = self.build_class1_fixture()
        report = run_step3(
            network,
            partitions,
            self.DUP_CONSTANTS,
            forced,
            node_pairs,
            rng=5,
            search_mode="quantum",
        )
        assert report.duplication_per_alpha[1] == 3
        snapshot = network.ledger.snapshot()
        assert "step3.alpha1.duplication" in snapshot
        assert report.found_pairs <= truth
        assert len(truth - report.found_pairs) <= max(1, len(truth) // 20)

    def test_classical_mode_with_duplication_exact(self):
        network, partitions, forced, node_pairs, truth = self.build_class1_fixture()
        report = run_step3(
            network,
            partitions,
            self.DUP_CONSTANTS,
            forced,
            node_pairs,
            rng=5,
            search_mode="classical",
        )
        assert report.found_pairs == truth

    def test_duplication_relieves_hot_destinations(self):
        # The regime Fig. 5 targets: a *small* class (|Tα[u,v]| ≪ √n) whose
        # few triple nodes would sink β words from every search node.
        # Duplication splits each destination's fan-in across dup physical
        # hosts, cutting the Lemma-1 charge; the sources' totals are
        # unchanged up to sublist rounding.
        from repro.core.evaluation import QueryPlan, evaluation_rounds

        num_nodes = 16
        beta = 8
        sources = {f"s{x}": x for x in range(8)}          # 8 search nodes
        # Without duplication: one hot triple node sinks from all sources.
        plan_hot = {src: {"t": beta} for src in sources}
        hot_rounds = evaluation_rounds(
            num_nodes,
            QueryPlan.from_mappings(sources, plan_hot, {"t": 8}),
            beta_pairs=beta,
        )
        # With dup = 4: four sublists per source to four distinct hosts.
        dup_dests = {("t", y): 8 + y for y in range(4)}
        share = beta // 4
        plan_dup = {
            src: {("t", y): share for y in range(4)} for src in sources
        }
        dup_rounds = evaluation_rounds(
            num_nodes,
            QueryPlan.from_mappings(sources, plan_dup, dup_dests),
            beta_pairs=beta,
        )
        assert dup_rounds < hot_rounds
        # Hot destination: 8 sources × 8 pairs × 3 words = 192 ⇒ 2·⌈192/16⌉
        # one-way; duplicated: 48 per host ⇒ 2·⌈48/16⌉.
        assert hot_rounds == 2 * 2 * 12
        assert dup_rounds == 2 * 2 * 3


class TestEmptyInputs:
    def test_no_pairs_anywhere(self):
        graph, network, partitions, assignment, node_pairs, _ = build_fixture()
        empty = {
            label: (
                np.empty((0, 2), dtype=np.int64),
                np.empty(0),
                np.empty((0, partitions.num_fine), dtype=bool),
            )
            for label in node_pairs
        }
        report = run_step3(
            network, partitions, CONSTANTS, assignment, empty,
            rng=1, search_mode="quantum",
        )
        assert report.found_pairs == set()
        assert report.total_searches == 0
