"""Telemetry against the real pipeline: coverage and non-interference.

Two properties, both load-bearing for the observability plane:

* **Coverage** — running ComputePairs (and the service layer) under a
  collector produces the expected span tree, per-phase congest ledger,
  and a consistent RNG accounting (span charges + unattributed bucket ==
  totals).
* **Non-interference** — installing a collector changes *nothing* about
  the computation: scope pairs, per-phase round ledger, and total rounds
  are byte-identical with telemetry on and off, because counting
  generators are stream-identical and the bridged tracer only mirrors
  records the router already produced.
"""

from __future__ import annotations

import repro
from repro import telemetry
from repro.core.compute_pairs import compute_pairs
from repro.core.constants import PaperConstants
from repro.core.problems import FindEdgesInstance
from repro.service.queries import QueryEngine, QueryRequest
from repro.telemetry import report

from tests.conftest import TEST_CONSTANTS

#: Span names every quantum ComputePairs run must produce.
EXPECTED_SPANS = {
    "compute_pairs",
    "compute_pairs.step0_setup",
    "compute_pairs.step1_load",
    "compute_pairs.step2_sample",
    "compute_pairs.step3_identify",
    "compute_pairs.step3_search",
    "quantum.batched_run",
    "step3.class",
}


def solve(graph, seed=7):
    instance = FindEdgesInstance(graph)
    return compute_pairs(instance, constants=TEST_CONSTANTS, rng=seed)


class TestComputePairsCoverage:
    def test_span_tree_and_attrs(self, small_undirected):
        with telemetry.collect() as collector:
            solution = solve(small_undirected)
        names = {record.name for record in collector.records}
        assert EXPECTED_SPANS <= names
        root = next(r for r in collector.records if r.name == "compute_pairs")
        assert root.parent_id is None
        assert root.attrs["n"] == 16
        assert root.attrs["search_mode"] == "quantum"
        assert root.attrs["rounds"] == solution.rounds
        steps = [r for r in collector.records if r.name.startswith("compute_pairs.")]
        assert all(step.parent_id is not None for step in steps)

    def test_congest_ledger_bridged(self, small_undirected):
        with telemetry.collect() as collector:
            solution = solve(small_undirected)
        assert solution.aborts == 0
        # Routed traffic and the analytic Step-3 charges (charge_local)
        # both reach the bridge, so the bridged phases are the ledger.
        bridged = {
            phase: entry["rounds"] for phase, entry in collector.congest.items()
        }
        assert bridged == solution.ledger.snapshot()
        assert any(phase.endswith(".search") for phase in bridged)

    def test_congest_rounds_sum_to_ledger_total_with_duplication(self):
        # class_bound_factor=0.333 forces duplicated (Fig. 5) classes.
        constants = PaperConstants(scale=0.5, class_bound_factor=0.333)
        graph = repro.random_undirected_graph(48, density=0.5, max_weight=7, rng=5)
        with telemetry.collect() as collector:
            solution = compute_pairs(
                FindEdgesInstance(graph), constants=constants, rng=1005
            )
            snapshot = collector.snapshot()
        assert solution.aborts == 0
        assert any(
            phase.endswith(".duplication")
            for phase, _rounds in solution.ledger.phases()
        )
        congest_rounds = sum(
            entry["rounds"] for entry in snapshot["congest"].values()
        )
        assert congest_rounds == solution.ledger.total

    def test_rng_accounting_consistent(self, small_undirected):
        with telemetry.collect() as collector:
            solve(small_undirected)
            snapshot = collector.snapshot()
        assert snapshot["rng"]["draws"] > 0
        assert report.consistency_problems(snapshot) == []

    def test_setup_draws_once_from_the_attempt_stream(self):
        # The network holds no generator: setup's only draw is the one the
        # attempt stream keeps so that every later variate stays pinned.
        graph = repro.random_undirected_graph(81, density=0.5, max_weight=7, rng=1)
        with telemetry.collect() as collector:
            compute_pairs(FindEdgesInstance(graph), rng=0)
        setup = [
            r for r in collector.records if r.name == "compute_pairs.step0_setup"
        ]
        assert setup
        assert [(r.rng_calls, r.rng_draws) for r in setup] == [(1, 1)] * len(setup)

    def test_phase_breakdown_from_real_run(self, small_undirected):
        with telemetry.collect() as collector:
            solve(small_undirected)
            breakdown = report.phase_breakdown(collector.snapshot())
        assert breakdown["schema"] == telemetry.SCHEMA
        assert EXPECTED_SPANS <= set(breakdown["phases"])
        assert all(entry["rounds"] >= 0 for entry in breakdown["congest"].values())


class TestNonInterference:
    def test_compute_pairs_byte_identical(self, small_undirected):
        plain = solve(small_undirected)
        with telemetry.collect():
            observed = solve(small_undirected)
        assert observed.pairs == plain.pairs
        assert observed.rounds == plain.rounds
        assert observed.ledger.snapshot() == plain.ledger.snapshot()
        assert observed.aborts == plain.aborts

    def test_service_stack_byte_identical(self, small_digraph):
        requests = [
            QueryRequest("dist", 0, 5),
            QueryRequest("path", 2, 7),
            QueryRequest("diameter"),
        ]

        def run():
            engine = QueryEngine(solver="reference")
            return [r.value for r in engine.query_batch(small_digraph, requests)]

        plain = run()
        with telemetry.collect() as collector:
            observed = run()
        assert observed == plain
        counters = collector.metrics.snapshot()["counters"]
        assert counters["queries.total"] == 3
        assert counters["queries.batches"] == 1
        assert counters["store.misses"] >= 1
        assert counters["jobs.submitted"] == 1


class TestServiceMetrics:
    def test_query_latency_histogram_populated(self, small_digraph):
        with telemetry.collect() as collector:
            engine = QueryEngine(solver="reference")
            engine.dist(small_digraph, 0, 3)
            engine.diameter(small_digraph)
        metrics = collector.metrics.snapshot()
        latency = metrics["histograms"]["queries.latency_seconds"]
        assert latency["count"] == 2
        assert metrics["counters"]["queries.dist"] == 1
        assert metrics["counters"]["queries.diameter"] == 1
        # Second query hits the store: one miss then one hit.
        assert metrics["counters"]["store.hits"] == 1

    def test_solver_spans_and_counters(self, small_digraph):
        with telemetry.collect() as collector:
            engine = QueryEngine(solver="reference")
            engine.dist(small_digraph, 0, 1)
        names = [record.name for record in collector.records]
        assert "solver.solve" in names
        assert "jobs.submit" in names
        assert "jobs.run" in names
        assert "queries.ensure_solved" in names
        counters = collector.metrics.snapshot()["counters"]
        assert counters["solver.solves"] == 1


def test_repro_stats_importable_offline():
    # The stats reader must not need a live collector.
    assert telemetry.active() is None
    assert callable(report.load_snapshot)
