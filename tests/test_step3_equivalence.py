"""Array-backed Step-3 accounting ≡ the preserved dict-walking forms.

The columnar :class:`repro.core.evaluation.QueryPlan` path —
``query_loads``/``evaluation_rounds``/``step0_duplication_loads`` plus the
CSR-domain, bulk-lane ``run_step3`` driver — must reproduce the dict forms
in :mod:`tests.reference` *byte for byte*: identical
per-node loads, identical round charges (evaluation, Step-0 duplication,
search phases, charged in the same order), identical found pairs and
diagnostics, an identically consumed driver generator, and identical
duplication-scheme registrations (names and sizes).  The reference forms
read the Step-2 table as per-label dicts (``tests.conftest.node_pairs_of``).

Also here: a class's search reads nothing but its lanes — ``_search_class``
over owned copies of the lane columns returns exactly what it returns off
the views into the Step-2 table, and leaves those views unchanged — and the
classical-ablation properties: the linear scan finds a superset of the
quantum ``found_pairs`` on the same instance, and its per-class round
charge is exactly ``eval_r × max|X|`` under the array-backed ``eval_r``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro
from repro.congest.network import CongestClique
from repro.congest.partitions import CliquePartitions
from repro.core.compute_pairs import _step2_sample
from repro.core.constants import PaperConstants
from repro.core.evaluation import (
    CodedWeights,
    block_two_hop,
    evaluation_rounds,
    query_loads,
    step0_duplication_loads,
)
from repro.core.identify_class import ClassAssignment, run_identify_class
from repro.core.quantum_step3 import (
    ClassLanes,
    Step3Report,
    _prepare_class,
    _search_class,
    _fold_found_pairs,
    run_step3,
)

from tests import reference
from tests.conftest import node_pairs_of

SIZES = [16, 48, 128]
CONSTANTS = PaperConstants(scale=0.5)
#: 2^1 / (class_bound_factor · scale · log n) > 1 — forces dup > 1 at n=16.
DUP_CONSTANTS = PaperConstants(scale=0.5, class_bound_factor=0.333)


def build_env(n: int, seed: int, constants: PaperConstants, *, density: float = 0.5):
    """One fully seeded Step-3 input world (network, partitions, assignment,
    Step-2 table), built through the real Step-2 and IdentifyClass paths so
    both drivers see identical pipeline state."""
    graph = repro.random_undirected_graph(n, density=density, max_weight=7, rng=seed)
    instance = repro.FindEdgesInstance(graph)
    partitions = CliquePartitions(n)
    network = CongestClique(n)
    num_triples = int(np.prod(partitions.grid_shape))
    network.register_scheme("triple", num_triples)
    network.register_scheme("search", num_triples)
    fine_blocks = partitions.fine.blocks()
    coded = CodedWeights.encode(graph.weights)
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
    table, _coverage = _step2_sample(
        network, partitions, instance, constants, rng, two_hop_for, coded
    )
    assignment = run_identify_class(
        network, instance, partitions, constants, two_hop_for, coded, rng
    )
    return network, partitions, assignment, table


def forced_class_assignment(assignment: ClassAssignment, alpha: int) -> ClassAssignment:
    """Reassign every triple to class ``alpha`` (the Fig. 5 regime)."""
    return ClassAssignment(grid=np.full_like(assignment.grid, alpha))


def _record_registrations(network) -> list:
    """Record every ``register_scheme`` call as ``(name, size)``."""
    registered: list = []
    original = network.register_scheme

    def record(name, size):
        original(name, size)
        registered.append((name, size))

    network.register_scheme = record
    return registered


def run_both(n, seed, constants, search_mode, *, force_alpha=None):
    outcomes = []
    for step3, as_dict in ((run_step3, None), (reference.run_step3_loops, node_pairs_of)):
        network, partitions, assignment, table = build_env(n, seed, constants)
        if force_alpha is not None:
            assignment = forced_class_assignment(assignment, force_alpha)
        registered = _record_registrations(network)
        generator = np.random.default_rng(seed + 77)
        report = step3(
            network,
            partitions,
            constants,
            assignment,
            table if as_dict is None else as_dict(table),
            rng=generator,
            search_mode=search_mode,
        )
        outcomes.append(
            {
                "report": report,
                "ledger": network.ledger.snapshot(),
                "phases": list(network.ledger.phases()),
                "total": network.ledger.total,
                "driver_stream": generator.random(16),
                "registered": registered,
            }
        )
    return outcomes


def assert_outcomes_identical(array_form, loops_form):
    a, b = array_form["report"], loops_form["report"]
    assert a.found_pairs == b.found_pairs
    assert a.eval_rounds_per_alpha == b.eval_rounds_per_alpha
    assert a.search_rounds_per_alpha == b.search_rounds_per_alpha
    assert a.duplication_per_alpha == b.duplication_per_alpha
    assert a.typicality_truncations == b.typicality_truncations
    assert a.corrupted_repetitions == b.corrupted_repetitions
    assert a.total_searches == b.total_searches
    assert array_form["ledger"] == loops_form["ledger"]
    # The ledger total is a float sum in first-charge order, so the phases
    # must match as a sequence, not only as a mapping.
    assert array_form["phases"] == loops_form["phases"]
    assert array_form["total"] == loops_form["total"]
    # The driver generator (schedule + lane seeds) was consumed identically,
    # and both drivers registered the same duplication schemes: same names,
    # same sizes, in the same order.
    assert np.array_equal(array_form["driver_stream"], loops_form["driver_stream"])
    assert array_form["registered"] == loops_form["registered"]


class TestRunStep3Equivalence:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_quantum_driver_matches_reference(self, n, seed):
        array_form, loops_form = run_both(n, seed, CONSTANTS, "quantum")
        assert_outcomes_identical(array_form, loops_form)

    @pytest.mark.parametrize("n", SIZES)
    def test_classical_driver_matches_reference(self, n):
        array_form, loops_form = run_both(n, 5, CONSTANTS, "classical")
        assert_outcomes_identical(array_form, loops_form)

    @pytest.mark.parametrize("n", [16, 48])
    @pytest.mark.parametrize("search_mode", ["quantum", "classical"])
    def test_duplicated_class_matches_reference(self, n, search_mode):
        # Force every triple into class 1 so the Fig. 5 path runs: the dup
        # scheme registration, the prefix map, and the Step-0 charge must
        # all agree.
        array_form, loops_form = run_both(
            n, 7, DUP_CONSTANTS, search_mode, force_alpha=1
        )
        report = array_form["report"]
        assert all(dup > 1 for dup in report.duplication_per_alpha.values())
        assert [name for name, _ in array_form["registered"]] == [
            "step3_dup_alpha1"
        ]
        assert any(
            phase.startswith("step3.alpha1.duplication")
            for phase in array_form["ledger"]
        )
        assert_outcomes_identical(array_form, loops_form)


def prepared_classes(n, seed, constants, search_mode):
    """Every class with lanes, prepared exactly as ``run_step3`` prepares
    it, in class order."""
    network, partitions, assignment, table = build_env(n, seed, constants)
    generator = np.random.default_rng(seed + 77)
    out = []
    for alpha in np.unique(assignment.grid).tolist():
        prep = _prepare_class(
            network, partitions, constants, assignment, table,
            alpha, generator, search_mode, 12.0,
        )
        if prep.lanes is not None and len(prep.lanes):
            out.append(prep)
    assert out, "instance has no class with search lanes"
    return out


def owned_columns(lanes: ClassLanes) -> ClassLanes:
    """The lanes as owned, contiguous copies sharing no memory with the
    Step-2 table or the domain CSR."""
    return ClassLanes(
        lanes.items.copy(),
        lanes.searches.copy(),
        [np.array(blocks) for blocks in lanes.blocks],
        [np.array(pairs) for pairs in lanes.pairs],
        [np.array(table) for table in lanes.witness],
        None if lanes.seeds is None else lanes.seeds.copy(),
    )


def assert_lanes_equal(left: ClassLanes, right: ClassLanes) -> None:
    assert np.array_equal(left.items, right.items)
    assert np.array_equal(left.searches, right.searches)
    for name in ("blocks", "pairs", "witness"):
        columns = zip(getattr(left, name), getattr(right, name), strict=True)
        assert all(np.array_equal(a, b) for a, b in columns), name
    if left.seeds is None:
        assert right.seeds is None
    else:
        assert np.array_equal(left.seeds, right.seeds)


def search(prep):
    report = Step3Report()
    rounds = _search_class(prep, report)
    return rounds, report


def assert_task_matches_inline(n, seed, constants, search_mode):
    prepared = prepared_classes(n, seed, constants, search_mode)
    for prep in prepared:
        before = owned_columns(prep.lanes)
        variants = [prep]
        if prep.schedule is not None:
            # The full schedule finds every findable pair whatever the
            # seeds; one repetition leaves the finds to chance, so the seed
            # column's copy shows in the result.
            variants.append(dataclasses.replace(prep, schedule=prep.schedule[:1]))
        for inline_prep in variants:
            copied = owned_columns(inline_prep.lanes)
            assert not np.shares_memory(copied.pairs[0], inline_prep.lanes.pairs[0])
            inline_rounds, inline = search(inline_prep)
            task_rounds, task = search(dataclasses.replace(inline_prep, lanes=copied))
            assert task_rounds == inline_rounds
            assert task.found_pairs == inline.found_pairs
            assert task.total_searches == inline.total_searches
            assert task.typicality_truncations == inline.typicality_truncations
            assert task.corrupted_repetitions == inline.corrupted_repetitions
        # The searches only read the views into the Step-2 table.
        assert_lanes_equal(prep.lanes, before)
    return prepared


class TestPoolAdapter:
    """What any executor of a class's search (a pool worker reading arena
    columns, say) relies on: the search is a function of its lane contents
    alone."""

    @pytest.mark.parametrize("n", [16, 48])
    def test_task_over_columns_matches_inline_search(self, n):
        assert_task_matches_inline(n, 3, CONSTANTS, "quantum")

    @pytest.mark.parametrize("search_mode", ["quantum", "classical"])
    def test_duplicated_classes_match_inline_search(self, search_mode):
        prepared = assert_task_matches_inline(48, 7, DUP_CONSTANTS, search_mode)
        assert any(prep.dup > 1 for prep in prepared)


def random_dict_plan(rng, num_nodes):
    node_physical = {}
    query_plan = {}
    dest_physical = {
        f"d{index}": int(rng.integers(0, num_nodes)) for index in range(12)
    }
    for index in range(int(rng.integers(1, 9))):
        label = f"s{index}"
        node_physical[label] = int(rng.integers(0, num_nodes))
        query_plan[label] = {
            f"d{int(dest)}": int(rng.integers(0, 40))
            for dest in rng.choice(12, size=int(rng.integers(1, 6)), replace=False)
        }
    return node_physical, query_plan, dest_physical


class TestFoldFoundPairs:
    """Deduplicating the found-pair rows before building tuples folds the
    same set as adding every duplicated row's tuple."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dedup_fold_matches_tuple_fold(self, seed):
        gen = np.random.default_rng(seed)
        rows = np.sort(gen.integers(0, 40, size=(300, 2)), axis=1)
        rows = rows[np.repeat(np.arange(300), gen.integers(1, 9, size=300))]
        existing = {(1, 2), (38, 39)}
        folded = set(existing)
        _fold_found_pairs(folded, rows)
        assert folded == existing | set(map(tuple, rows.tolist()))
        assert all(type(a) is int and type(b) is int for a, b in folded)

    def test_empty_rows_add_nothing(self):
        folded = {(0, 1)}
        _fold_found_pairs(folded, np.empty((0, 2), dtype=np.int64))
        assert folded == {(0, 1)}


class TestLoadEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("beta", [0.5, 5.0, 17.3, 1000.0])
    def test_query_loads_match_dict_walk(self, seed, beta):
        rng = np.random.default_rng(seed)
        num_nodes = 16
        node_physical, query_plan, dest_physical = random_dict_plan(rng, num_nodes)
        plan = reference.query_plan_from_mappings(node_physical, query_plan, dest_physical)
        src, dst = query_loads(num_nodes, plan, beta)
        ref_src, ref_dst = reference.query_loads_dicts(
            num_nodes, node_physical, query_plan, dest_physical, beta
        )
        assert np.array_equal(src, np.asarray(ref_src))
        assert np.array_equal(dst, np.asarray(ref_dst))
        assert evaluation_rounds(num_nodes, plan, beta) == (
            reference.evaluation_rounds_dicts(
                num_nodes, node_physical, query_plan, dest_physical, beta
            )
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_step0_loads_match_dict_walk(self, seed):
        rng = np.random.default_rng(100 + seed)
        num_nodes = 12
        source_physical = {}
        duplicate_physical = {}
        words_per_source = {}
        src_rows, dst_rows, words_rows = [], [], []
        for index in range(int(rng.integers(1, 10))):
            label = f"t{index}"
            host = int(rng.integers(0, num_nodes))
            duplicates = rng.integers(0, num_nodes, size=int(rng.integers(1, 5)))
            words = int(rng.integers(1, 50))
            source_physical[label] = host
            duplicate_physical[label] = duplicates.tolist()
            words_per_source[label] = words
            for phys in duplicates.tolist():
                src_rows.append(host)
                dst_rows.append(phys)
                words_rows.append(words)
        array_rounds = step0_duplication_loads(
            num_nodes,
            np.asarray(src_rows, dtype=np.int64),
            np.asarray(dst_rows, dtype=np.int64),
            np.asarray(words_rows, dtype=np.int64),
        )
        assert array_rounds == reference.step0_duplication_loads_dicts(
            num_nodes, source_physical, duplicate_physical, words_per_source
        )


class TestClassicalAblation:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_classical_finds_superset_of_quantum(self, n, seed):
        results = {}
        for mode in ("quantum", "classical"):
            network, partitions, assignment, table = build_env(
                n, seed, CONSTANTS
            )
            results[mode] = run_step3(
                network, partitions, CONSTANTS, assignment, table,
                rng=seed + 1, search_mode=mode,
            )
        # The linear scan is exact on the same domains; Grover can only
        # miss (verification forbids false positives in both modes).
        assert results["quantum"].found_pairs <= results["classical"].found_pairs

    @pytest.mark.parametrize("n", SIZES)
    def test_classical_round_charge_is_eval_r_times_max_domain(self, n):
        network, partitions, assignment, table = build_env(n, 9, CONSTANTS)
        report = run_step3(
            network, partitions, CONSTANTS, assignment, table,
            rng=2, search_mode="classical",
        )
        for alpha, eval_r in report.eval_rounds_per_alpha.items():
            max_domain = max(
                (
                    int(np.count_nonzero(assignment.grid[bu, bv] == alpha))
                    for (bu, bv, _x) in node_pairs_of(table)
                ),
                default=0,
            )
            if max_domain == 0:
                assert report.search_rounds_per_alpha[alpha] == 0.0
            else:
                assert report.search_rounds_per_alpha[alpha] == pytest.approx(
                    eval_r * max_domain
                )
