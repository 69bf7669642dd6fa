"""Job engine: state machine, cache short-circuit, failure isolation,
process-pool execution."""

import os

import numpy as np
import pytest

import repro
from repro.errors import JobFailedError
from repro.service import (
    JobEngine,
    JobState,
    ResultStore,
    SolverCapabilities,
    available_solvers,
    make_solver,
    register_solver,
    solver_capabilities,
)


def negative_cycle_graph() -> repro.WeightedDigraph:
    return repro.WeightedDigraph.from_edges(3, [(0, 1, -5), (1, 0, 2), (1, 2, 1)])


class TestRegistry:
    def test_builtins_present(self):
        assert {"quantum", "classical", "reference", "floyd-warshall"} <= set(
            available_solvers()
        )

    def test_capabilities_declared(self):
        assert solver_capabilities("quantum").rounds_accounted
        assert not solver_capabilities("floyd-warshall").rounds_accounted

    def test_unknown_solver(self):
        with pytest.raises(ValueError, match="unknown solver"):
            make_solver("nope")

    def test_duplicate_registration_guarded(self):
        with pytest.raises(ValueError, match="already registered"):
            register_solver("reference", lambda options: None)

    def test_custom_solver_runs_through_engine(self):
        class ConstantSolver:
            name = "all-zero"
            capabilities = SolverCapabilities(rounds_accounted=False)

            def __init__(self, options):
                self.options = options

            def solve(self, graph):
                from repro.service.solvers import SolveOutcome

                distances = repro.floyd_warshall(graph)
                return SolveOutcome(distances=distances, rounds=0.0, solver=self.name)

        register_solver("test-constant", ConstantSolver, replace=True)
        engine = JobEngine(solver="test-constant")
        graph = repro.random_digraph_no_negative_cycle(8, rng=1)
        job = engine.submit(graph)
        artifact = engine.result(job.job_id)
        assert np.array_equal(artifact.distances, repro.floyd_warshall(graph))
        assert artifact.solver == "test-constant"


class TestStateMachine:
    def test_pending_to_done(self):
        engine = JobEngine(solver="floyd-warshall")
        graph = repro.random_digraph_no_negative_cycle(10, rng=2)
        job = engine.submit(graph)
        assert engine.poll(job.job_id) is JobState.PENDING
        engine.run(job.job_id)
        assert engine.poll(job.job_id) is JobState.DONE
        assert job.cache_hit is False
        assert np.array_equal(
            engine.result(job.job_id).distances, repro.floyd_warshall(graph)
        )

    def test_result_runs_pending_job(self):
        engine = JobEngine(solver="floyd-warshall")
        job = engine.submit(repro.random_digraph_no_negative_cycle(10, rng=3))
        artifact = engine.result(job.job_id)
        assert artifact.rounds == 0.0
        assert engine.poll(job.job_id) is JobState.DONE

    def test_resubmission_hits_cache(self):
        engine = JobEngine(solver="floyd-warshall")
        graph = repro.random_digraph_no_negative_cycle(10, rng=4)
        first = engine.submit(graph)
        engine.run_pending()
        assert engine.solver_invocations == 1
        second = engine.submit(repro.WeightedDigraph(graph.weights.copy()))
        assert second.state is JobState.DONE
        assert second.cache_hit is True
        assert engine.solver_invocations == 1
        assert second.artifact is first.artifact

    def test_unknown_job(self):
        with pytest.raises(KeyError):
            JobEngine().poll("job-404")

    def test_rejects_undirected(self):
        with pytest.raises(TypeError):
            JobEngine().submit(repro.random_undirected_graph(6, rng=1))


class TestFailures:
    def test_negative_cycle_fails_job(self):
        engine = JobEngine(solver="reference")
        job = engine.submit(negative_cycle_graph())
        engine.run_pending()
        assert job.state is JobState.FAILED
        assert job.error_type == "NegativeCycleError"
        with pytest.raises(JobFailedError) as excinfo:
            engine.result(job.job_id)
        assert excinfo.value.error_type == "NegativeCycleError"
        assert excinfo.value.job_id == job.job_id

    def test_failed_graph_is_not_cached(self):
        engine = JobEngine(solver="reference")
        job = engine.submit(negative_cycle_graph())
        engine.run_pending()
        from repro.service import artifact_key

        assert artifact_key(job.digest, job.solver) not in engine.store

    def test_bad_solver_name_fails_job_not_engine(self):
        engine = JobEngine(solver="does-not-exist")
        job = engine.submit(repro.random_digraph_no_negative_cycle(6, rng=5))
        engine.run_pending()
        assert job.state is JobState.FAILED
        assert job.error_type == "ValueError"


class TestParallelExecution:
    def test_batch_spreads_across_worker_processes(self, slow_solver):
        engine = JobEngine(solver=slow_solver(0.25))
        jobs = [
            engine.submit(repro.random_digraph_no_negative_cycle(10, rng=seed))
            for seed in range(4)
        ]
        engine.run_pending_parallel(max_workers=2)
        assert all(job.state is JobState.DONE for job in jobs)
        pids = {job.worker_pid for job in jobs}
        assert len(pids) >= 2, f"jobs ran in {pids}, expected >= 2 worker processes"
        assert os.getpid() not in pids
        for job in jobs:
            assert job.duration_s >= 0.25

    def test_failure_in_pool_does_not_crash_batch(self):
        engine = JobEngine(solver="reference")
        bad = engine.submit(negative_cycle_graph())
        good = [
            engine.submit(repro.random_digraph_no_negative_cycle(8, rng=seed))
            for seed in range(3)
        ]
        engine.run_pending_parallel(max_workers=2)
        assert bad.state is JobState.FAILED
        assert bad.error_type == "NegativeCycleError"
        assert all(job.state is JobState.DONE for job in good)
        for job in good:
            assert job.artifact is not None and job.artifact.digest == job.digest

    def test_parallel_results_match_ground_truth(self):
        engine = JobEngine(solver="floyd-warshall")
        graphs = [
            repro.random_digraph_no_negative_cycle(12, rng=seed) for seed in range(3)
        ]
        jobs = [engine.submit(graph) for graph in graphs]
        engine.run_pending_parallel(max_workers=2)
        for graph, job in zip(graphs, jobs):
            assert np.array_equal(
                engine.result(job.job_id).distances, repro.floyd_warshall(graph)
            )

    def test_shared_store_across_execution_modes(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        graph = repro.random_digraph_no_negative_cycle(9, rng=6)
        first = JobEngine(store=store, solver="floyd-warshall")
        first.result(first.submit(graph).job_id)
        # A second engine over the same cache dir: pure hit, zero solves.
        second = JobEngine(
            store=ResultStore(cache_dir=tmp_path), solver="floyd-warshall"
        )
        job = second.submit(graph)
        assert job.state is JobState.DONE
        assert job.cache_hit is True
        assert second.solver_invocations == 0


class TestJobTiming:
    def test_queue_wait_and_run_time_split(self):
        engine = JobEngine(solver="floyd-warshall")
        job = engine.submit(repro.random_digraph_no_negative_cycle(10, rng=6))
        assert job.submitted_s > 0.0
        assert job.queue_wait_s == 0.0  # not dispatched yet
        engine.run(job.job_id)
        assert job.queue_wait_s > 0.0  # submit-to-dispatch gap
        assert job.duration_s > 0.0  # worker-side solve time
        listed = {j.job_id: j for j in engine.jobs()}[job.job_id]
        assert listed.queue_wait_s == job.queue_wait_s

    def test_cache_hit_never_queues(self):
        engine = JobEngine(solver="floyd-warshall")
        graph = repro.random_digraph_no_negative_cycle(10, rng=7)
        engine.submit(graph)
        engine.run_pending()
        hit = engine.submit(repro.WeightedDigraph(graph.weights.copy()))
        assert hit.cache_hit is True
        assert hit.queue_wait_s == 0.0
        assert hit.duration_s == 0.0

    def test_wait_reflects_time_spent_pending(self):
        import time

        engine = JobEngine(solver="floyd-warshall")
        job = engine.submit(repro.random_digraph_no_negative_cycle(8, rng=9))
        time.sleep(0.05)
        engine.run(job.job_id)
        assert job.queue_wait_s >= 0.05

    def test_parallel_jobs_record_waits(self):
        engine = JobEngine(solver="floyd-warshall")
        for seed in range(3):
            engine.submit(repro.random_digraph_no_negative_cycle(8, rng=seed))
        jobs = engine.run_pending_parallel(max_workers=2)
        assert all(job.queue_wait_s > 0.0 for job in jobs)
        assert all(job.duration_s > 0.0 for job in jobs)


class TestReviewRegressions:
    def test_cache_key_includes_solver(self):
        """A closure computed by one solver must not answer for another."""
        store = ResultStore()
        engine = JobEngine(store, solver="floyd-warshall")
        graph = repro.random_digraph_no_negative_cycle(8, rng=10)
        engine.result(engine.submit(graph).job_id)
        second = JobEngine(store, solver="reference")
        other = second.submit(graph)
        assert other.cache_hit is False
        artifact = second.result(other.job_id)
        assert artifact.solver == "reference"
        assert engine.solver_invocations + second.solver_invocations == 2
        # Same solver again: now a hit, with matching attribution.
        again = second.submit(graph)
        assert again.cache_hit is True
        assert again.artifact.solver == "reference"

    def test_job_ledger_is_bounded(self):
        engine = JobEngine(solver="floyd-warshall", max_history=5)
        for seed in range(8):
            graph = repro.random_digraph_no_negative_cycle(6, rng=seed)
            engine.result(engine.submit(graph).job_id)
        assert len(engine.jobs()) <= 5

    def test_cache_hits_not_retained_in_ledger(self):
        engine = JobEngine(solver="floyd-warshall")
        graph = repro.random_digraph_no_negative_cycle(8, rng=11)
        engine.result(engine.submit(graph).job_id)
        before = len(engine.jobs())
        for _ in range(50):
            hit = engine.submit(graph)
            assert hit.cache_hit is True
        assert len(engine.jobs()) == before
