"""Recovery behavior of the service layer under injected faults.

The complementary half of tests/test_service_faults.py: given a sound
injection instrument, these suites prove the engine *survives* what it
injects — transient failures retry within policy, crashes rebuild the
pool, timeouts bound jobs, corrupt cache artifacts quarantine and
re-solve, and the query engine degrades through its fallback chain —
and that every recovered answer is identical to a fault-free solve.

Fault scenarios are *searched*, not hoped for: ``decide()`` is a pure
function of (seed, kind, site, token), so each test finds a seed that
produces exactly the wanted pattern (e.g. "fails attempt 1, survives
attempt 2") and the scenario replays forever.
"""

import os
import time

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.errors import JobFailedError
from repro.service import (
    JobEngine,
    JobState,
    QueryEngine,
    QueryRequest,
    ResultStore,
    RetryPolicy,
    artifact_key,
)
from repro.service import faults
from repro.service.faults import FaultConfig, decide
from repro.service.hashing import graph_digest

pytestmark = pytest.mark.faults

#: A retry policy fast enough for tests: generous attempts, millisecond
#: backoff, no cross-test timing sensitivity.
FAST_RETRIES = RetryPolicy(max_attempts=4, backoff_s=0.001, max_backoff_s=0.01)


@pytest.fixture(autouse=True)
def clean_slot():
    faults.uninstall()
    yield
    faults.uninstall()


def token(solver: str, graph, attempt: int) -> str:
    """The fault token the engine uses for (solver, graph, attempt)."""
    return f"{solver}:{graph_digest(graph)}:{attempt}"


def seed_failing_only_first_attempt(kind: str, solver: str, graph, rate: float) -> int:
    """A seed where ``kind`` fires on attempt 1 but on no later attempt."""
    tokens = [token(solver, graph, attempt) for attempt in range(1, 5)]
    for seed in range(2000):
        draws = [decide(seed, kind, "worker.solve", t, rate) for t in tokens]
        if draws[0] and not any(draws[1:]):
            return seed
    pytest.fail(f"no seed under 2000 produces a first-attempt-only {kind}")


class TestTransientRetry:
    def test_oserror_retried_to_done(self):
        graph = repro.random_digraph_no_negative_cycle(10, rng=2)
        seed = seed_failing_only_first_attempt("oserror", "floyd-warshall", graph, 0.5)
        engine = JobEngine(solver="floyd-warshall", retry_policy=FAST_RETRIES)
        job = engine.submit(graph)
        with telemetry.collect() as collector:
            with faults.inject(FaultConfig(seed=seed, oserror_rate=0.5)):
                engine.run_pending()
        assert job.state is JobState.DONE
        assert job.attempts == 2
        assert job.retry_wait_s > 0.0
        assert job.error is None and job.error_type is None
        assert np.array_equal(job.artifact.distances, repro.floyd_warshall(graph))
        counters = collector.metrics.snapshot()["counters"]
        assert counters["jobs.retries"] == 1
        assert counters["faults.injected.oserror"] == 1

    def test_scenario_replays_deterministically(self):
        graph = repro.random_digraph_no_negative_cycle(10, rng=2)
        seed = seed_failing_only_first_attempt("oserror", "floyd-warshall", graph, 0.5)

        def attempts_taken() -> int:
            engine = JobEngine(solver="floyd-warshall", retry_policy=FAST_RETRIES)
            job = engine.submit(graph)
            with faults.inject(FaultConfig(seed=seed, oserror_rate=0.5)):
                engine.run_pending()
            return job.attempts

        assert attempts_taken() == attempts_taken() == 2

    def test_budget_exhaustion_fails_with_last_error(self):
        graph = repro.random_digraph_no_negative_cycle(8, rng=3)
        engine = JobEngine(
            solver="floyd-warshall",
            retry_policy=RetryPolicy(max_attempts=3, backoff_s=0.001),
        )
        job = engine.submit(graph)
        with faults.inject(FaultConfig(oserror_rate=1.0)):
            engine.run_pending()
        assert job.state is JobState.FAILED
        assert job.attempts == 3
        assert job.error_type == "OSError"
        assert "injected transient OSError" in job.error

    def test_negative_cycle_never_retried(self):
        graph = repro.WeightedDigraph.from_edges(
            3, [(0, 1, -5), (1, 0, 2), (1, 2, 1)]
        )
        engine = JobEngine(solver="reference", retry_policy=FAST_RETRIES)
        job = engine.submit(graph)
        engine.run_pending()
        assert job.state is JobState.FAILED
        assert job.error_type == "NegativeCycleError"
        assert job.attempts == 1  # semantic failure: zero retries

    def test_traceback_preserved_on_failure(self):
        graph = repro.WeightedDigraph.from_edges(
            3, [(0, 1, -5), (1, 0, 2), (1, 2, 1)]
        )
        engine = JobEngine(solver="reference")
        job = engine.submit(graph)
        engine.run_pending()
        assert job.traceback is not None
        assert "NegativeCycleError" in job.traceback

    def test_parallel_retry_to_done(self):
        graph = repro.random_digraph_no_negative_cycle(10, rng=4)
        seed = seed_failing_only_first_attempt("oserror", "floyd-warshall", graph, 0.5)
        engine = JobEngine(solver="floyd-warshall", retry_policy=FAST_RETRIES)
        job = engine.submit(graph)
        with faults.inject(FaultConfig(seed=seed, oserror_rate=0.5)) as plane:
            engine.run_pending_parallel(max_workers=2)
            assert plane.injected["oserror"] == 1  # worker counts merged back
        assert job.state is JobState.DONE
        assert job.attempts == 2
        assert np.array_equal(job.artifact.distances, repro.floyd_warshall(graph))


class TestAttemptSpans:
    """One ``jobs.attempt`` span per attempt, inline and pooled alike."""

    def _retried_job(self, rng: int):
        graph = repro.random_digraph_no_negative_cycle(10, rng=rng)
        seed = seed_failing_only_first_attempt("oserror", "floyd-warshall", graph, 0.5)
        engine = JobEngine(solver="floyd-warshall", retry_policy=FAST_RETRIES)
        return engine, engine.submit(graph), FaultConfig(seed=seed, oserror_rate=0.5)

    def test_inline_attempts_recorded_in_parent(self):
        engine, job, config = self._retried_job(2)
        with telemetry.collect() as collector, faults.inject(config):
            engine.run_pending()
            snapshot = collector.snapshot()
        assert job.attempts == 2
        spans = [record for record in collector.records if record.name == "jobs.attempt"]
        assert [span.attrs for span in spans] == [
            {"job_id": job.job_id, "attempt": 1},
            {"job_id": job.job_id, "attempt": 2},
        ]
        assert snapshot["workers"] == []

    def test_pooled_attempts_arrive_in_worker_phases(self):
        engine, job, config = self._retried_job(4)
        with telemetry.collect() as collector, faults.inject(config):
            engine.run_pending_parallel(max_workers=2)
            snapshot = collector.snapshot()
        assert job.attempts == 2
        assert not any(record.name == "jobs.attempt" for record in collector.records)
        counts = [
            summary["phases"].get("jobs.attempt", {}).get("count", 0)
            for summary in snapshot["workers"]
        ]
        assert counts == [1, 1]  # one worker summary per attempt


class TestTimeouts:
    def test_sync_deadline_enforced(self, slow_solver):
        engine = JobEngine(solver=slow_solver(0.2), timeout_s=0.05)
        job = engine.submit(repro.random_digraph_no_negative_cycle(8, rng=5))
        with telemetry.collect() as collector:
            engine.run_pending()
        assert job.state is JobState.FAILED
        assert job.error_type == "JobTimeoutError"
        assert "timeout_s=0.05" in job.error
        assert collector.metrics.snapshot()["counters"]["jobs.timeouts"] == 1

    @pytest.mark.parametrize(
        "drain",
        [
            lambda engine: engine.run_pending(),
            lambda engine: engine.run_pending_parallel(max_workers=1),
        ],
        ids=["run_pending", "one_worker"],
    )
    def test_inline_budget_excludes_earlier_jobs(self, drain, slow_solver):
        # Each solve fits its budget alone but not behind another solve:
        # inline jobs must start their clocks when their own turn comes.
        engine = JobEngine(solver=slow_solver(0.2), timeout_s=0.35)
        jobs = [
            engine.submit(repro.random_digraph_no_negative_cycle(8, rng=rng))
            for rng in (11, 12, 13)
        ]
        drain(engine)
        assert [job.state for job in jobs] == [JobState.DONE] * 3
        assert jobs[2].queue_wait_s >= 0.4  # waited behind two solves

    def test_parallel_deadline_enforced(self, slow_solver):
        engine = JobEngine(solver=slow_solver(0.5))
        job = engine.submit(
            repro.random_digraph_no_negative_cycle(8, rng=6),
            deadline_s=time.perf_counter() + 0.05,
        )
        engine.run_pending_parallel(max_workers=2)
        assert job.state is JobState.FAILED
        assert job.error_type == "JobTimeoutError"

    def test_timeout_never_retried(self, slow_solver):
        engine = JobEngine(
            solver=slow_solver(0.2), retry_policy=FAST_RETRIES, timeout_s=0.05
        )
        job = engine.submit(repro.random_digraph_no_negative_cycle(8, rng=7))
        engine.run_pending()
        assert job.state is JobState.FAILED
        assert job.attempts == 1  # the budget is spent; no retry into it

    def test_per_submit_override_beats_engine_default(self, slow_solver):
        # A submission's deadline caps the engine's generous per-solver
        # budget.
        engine = JobEngine(solver=slow_solver(0.2), timeout_s=30.0)
        job = engine.submit(
            repro.random_digraph_no_negative_cycle(8, rng=8),
            deadline_s=time.perf_counter() + 0.05,
        )
        engine.run_pending()
        assert job.state is JobState.FAILED
        assert job.error_type == "JobTimeoutError"
        assert "deadline" in job.error


class TestEngineFallbackChain:
    """The job engine walks the fallback chain inside its attempt loop."""

    def test_pooled_fallback_attempts_run_in_workers(self):
        engine = JobEngine(solver="does-not-exist", fallback=("floyd-warshall",))
        graphs = [repro.random_digraph_no_negative_cycle(8, rng=rng) for rng in (1, 2, 3)]
        jobs = [engine.submit(graph) for graph in graphs]
        engine.run_pending_parallel(max_workers=2)
        for job, graph in zip(jobs, graphs):
            assert job.state is JobState.DONE
            assert job.solver == "floyd-warshall"
            assert job.degraded_from == "does-not-exist"
            assert job.attempts == 1
            assert np.array_equal(job.artifact.distances, repro.floyd_warshall(graph))
        pids = {job.worker_pid for job in jobs}
        assert None not in pids and os.getpid() not in pids
        assert engine.solver_invocations == 6

    def test_timeout_budget_restarts_per_solver(self, slow_solver):
        engine = JobEngine(
            solver=slow_solver(0.3), timeout_s=0.1, fallback=("floyd-warshall",)
        )
        job = engine.submit(repro.random_digraph_no_negative_cycle(8, rng=21))
        engine.run_pending()
        assert job.state is JobState.DONE
        assert job.degraded_from == "test-slow"
        assert job.solver == "floyd-warshall"
        assert job.queue_wait_s < 0.1  # the wait before the primary's dispatch

    def test_fallback_served_from_store(self):
        graph = repro.random_digraph_no_negative_cycle(8, rng=22)
        store = ResultStore()
        warm = JobEngine(store, solver="floyd-warshall")
        warm.result(warm.submit(graph).job_id)
        engine = JobEngine(store, solver="does-not-exist", fallback=("floyd-warshall",))
        job = engine.submit(graph)
        engine.run_pending()
        assert job.state is JobState.DONE
        assert job.cache_hit is True
        assert job.degraded_from == "does-not-exist"
        assert job.error is None
        assert engine.solver_invocations == 1  # only the failed primary ran

    @pytest.mark.parametrize("workers", [1, 2])
    def test_negative_cycle_bypasses_engine_chain(self, workers):
        graph = repro.WeightedDigraph.from_edges(3, [(0, 1, -5), (1, 0, 2), (1, 2, 1)])
        engine = JobEngine(solver="reference", fallback=("floyd-warshall",))
        job = engine.submit(graph)
        engine.run_pending_parallel(max_workers=workers)
        assert job.state is JobState.FAILED
        assert job.error_type == "NegativeCycleError"
        assert job.solver == "reference"
        assert job.degraded_from is None
        assert engine.solver_invocations == 1

    def test_batch_deadline_caps_the_whole_chain(self, slow_solver):
        # Every solver outlasts the batch budget: the deadline stops the
        # job after the primary instead of handing each fallback a fresh
        # copy of what is left.
        engine = QueryEngine(
            solver=slow_solver(0.25, "test-slow-primary"),
            fallback=(slow_solver(0.25, "test-slow-a"), slow_solver(0.25, "test-slow-b")),
        )
        graph = repro.random_digraph_no_negative_cycle(8, rng=23)
        started = time.perf_counter()
        with pytest.raises(JobFailedError) as excinfo:
            engine.query_batch(graph, [QueryRequest("diameter")], timeout_s=0.15)
        assert time.perf_counter() - started < 0.5
        assert excinfo.value.error_type == "JobTimeoutError"
        assert engine.solver_invocations == 1
        assert engine.degraded_solves == 0


class TestWorkerCrashRecovery:
    def test_broken_pool_rebuilt_and_job_recovered(self):
        graph = repro.random_digraph_no_negative_cycle(10, rng=9)
        seed = seed_failing_only_first_attempt("crash", "floyd-warshall", graph, 0.5)
        engine = JobEngine(solver="floyd-warshall", retry_policy=FAST_RETRIES)
        job = engine.submit(graph)
        with telemetry.collect() as collector:
            with faults.inject(FaultConfig(seed=seed, crash_rate=0.5)):
                engine.run_pending_parallel(max_workers=2)
        assert job.state is JobState.DONE
        assert job.attempts == 2
        assert engine.pool_rebuilds >= 1
        counters = collector.metrics.snapshot()["counters"]
        assert counters["jobs.worker_crashes"] >= 1
        assert counters["jobs.retries"] >= 1
        assert np.array_equal(job.artifact.distances, repro.floyd_warshall(graph))

    def test_crash_storm_fails_within_budget(self):
        graph = repro.random_digraph_no_negative_cycle(8, rng=10)
        engine = JobEngine(
            solver="floyd-warshall",
            retry_policy=RetryPolicy(max_attempts=2, backoff_s=0.001),
        )
        job = engine.submit(graph)
        with faults.inject(FaultConfig(crash_rate=1.0)):
            engine.run_pending_parallel(max_workers=2)
        assert job.state is JobState.FAILED
        assert job.error_type == "WorkerCrashError"
        assert job.attempts == 2

    def test_surviving_jobs_unharmed_by_neighbor_crash(self):
        graphs = [
            repro.random_digraph_no_negative_cycle(9, rng=seed) for seed in range(3)
        ]
        crash_target = graphs[0]
        # A seed where only graph 0's first attempt crashes.
        wanted = None
        for seed in range(4000):
            hits = [
                decide(
                    seed, "crash", "worker.solve",
                    token("floyd-warshall", graph, attempt), 0.3,
                )
                for graph in graphs
                for attempt in range(1, 4)
            ]
            if hits[0] and not any(hits[1:]):
                wanted = seed
                break
        assert wanted is not None, "no seed crashes only graph 0 attempt 1"
        engine = JobEngine(solver="floyd-warshall", retry_policy=FAST_RETRIES)
        jobs = [engine.submit(graph) for graph in graphs]
        with faults.inject(FaultConfig(seed=wanted, crash_rate=0.3)):
            engine.run_pending_parallel(max_workers=2)
        assert all(job.state is JobState.DONE for job in jobs)
        for graph, job in zip(graphs, jobs):
            assert np.array_equal(
                job.artifact.distances, repro.floyd_warshall(graph)
            ), "recovered artifacts must match fault-free ground truth"
        assert jobs[0].attempts == 2
        # Neighbors sharing the broken pool may have been in flight when it
        # died; they are re-dispatched (never more than one extra attempt
        # here, since only graph 0's draw fires).
        assert all(1 <= job.attempts <= 2 for job in jobs[1:])


class TestStoreIntegrity:
    def _persisted_store(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        graph = repro.random_digraph_no_negative_cycle(9, rng=11)
        engine = JobEngine(store=store, solver="floyd-warshall")
        engine.result(engine.submit(graph).job_id)
        key = artifact_key(graph_digest(graph), "floyd-warshall")
        return store, graph, key, store._artifact_path(key)

    def test_truncated_artifact_quarantined(self, tmp_path):
        store, _, key, path = self._persisted_store(tmp_path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        store.clear_memory()
        with telemetry.collect() as collector:
            assert store.get(key) is None
        assert store.stats.quarantined == 1
        assert not path.exists()
        assert path.with_suffix(".npz.quarantined").exists()
        counters = collector.metrics.snapshot()["counters"]
        assert counters["store.quarantined"] == 1
        assert counters["store.misses"] == 1

    def test_bitflipped_artifact_quarantined(self, tmp_path):
        store, _, key, path = self._persisted_store(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x10
        path.write_bytes(bytes(raw))
        store.clear_memory()
        assert store.get(key) is None
        assert store.stats.quarantined == 1

    def test_intact_artifact_still_round_trips(self, tmp_path):
        store, graph, key, _ = self._persisted_store(tmp_path)
        store.clear_memory()
        artifact = store.get(key)
        assert artifact is not None
        assert store.stats.quarantined == 0
        assert np.array_equal(artifact.distances, repro.floyd_warshall(graph))

    def test_quarantine_triggers_resolve(self, tmp_path):
        store, graph, key, path = self._persisted_store(tmp_path)
        path.write_bytes(b"not an npz archive")
        store.clear_memory()
        engine = JobEngine(store=store, solver="floyd-warshall")
        job = engine.submit(graph)
        assert job.cache_hit is False  # corrupt disk entry did not answer
        engine.run_pending()
        assert job.state is JobState.DONE
        store.clear_memory()
        assert store.get(key) is not None  # the re-solve re-persisted cleanly

    def test_injected_corruption_end_to_end(self, tmp_path):
        graph = repro.random_digraph_no_negative_cycle(9, rng=12)
        key = artifact_key(graph_digest(graph), "floyd-warshall")
        with faults.inject(FaultConfig(corrupt_rate=1.0, corrupt_mode="truncate")):
            store = ResultStore(cache_dir=tmp_path)
            engine = JobEngine(store=store, solver="floyd-warshall")
            engine.result(engine.submit(graph).job_id)
            store.clear_memory()
            assert store.get(key) is None  # every persist was corrupted
        assert store.stats.quarantined == 1


class TestGracefulDegradation:
    def test_fallback_serves_after_primary_fails(self):
        graph = repro.random_digraph_no_negative_cycle(9, rng=13)
        engine = QueryEngine(
            solver="does-not-exist", fallback=("floyd-warshall",)
        )
        with telemetry.collect() as collector:
            results = engine.query_batch(
                graph, [QueryRequest("dist", 0, 3), QueryRequest("diameter")]
            )
        assert all(result.degraded for result in results)
        assert all(result.fallback_solver == "floyd-warshall" for result in results)
        assert results[0].value == float(repro.floyd_warshall(graph)[0, 3])
        assert engine.degraded_solves == 1
        counters = collector.metrics.snapshot()["counters"]
        assert counters["queries.degraded"] == 1

    def test_unknown_fallback_rejected_up_front(self):
        with pytest.raises(repro.ServiceError, match="unknown fallback solver"):
            QueryEngine(solver="reference", fallback=("nope",))

    def test_healthy_primary_never_degrades(self):
        graph = repro.random_digraph_no_negative_cycle(9, rng=14)
        engine = QueryEngine(solver="floyd-warshall", fallback=("reference",))
        results = engine.query_batch(graph, [QueryRequest("diameter")])
        assert not results[0].degraded
        assert results[0].fallback_solver is None
        assert engine.degraded_solves == 0

    def test_negative_cycle_bypasses_fallback(self):
        graph = repro.WeightedDigraph.from_edges(
            3, [(0, 1, -5), (1, 0, 2), (1, 2, 1)]
        )
        engine = QueryEngine(solver="reference", fallback=("floyd-warshall",))
        assert engine.has_negative_cycle(graph) is True
        assert engine.degraded_solves == 0  # the answer, not a failure

    def test_exhausted_chain_reraises_last_failure(self):
        graph = repro.random_digraph_no_negative_cycle(8, rng=15)
        engine = QueryEngine(
            solver="reference",
            fallback=("floyd-warshall",),
            retry_policy=RetryPolicy(max_attempts=1),
        )
        with faults.inject(FaultConfig(oserror_rate=1.0)):
            with pytest.raises(JobFailedError) as excinfo:
                engine.dist(graph, 0, 1)
        assert excinfo.value.error_type == "OSError"

    def test_batch_deadline_propagates_to_solves(self, slow_solver):
        graph = repro.random_digraph_no_negative_cycle(8, rng=16)
        engine = QueryEngine(solver=slow_solver(0.3))
        with pytest.raises(JobFailedError) as excinfo:
            engine.query_batch(
                graph, [QueryRequest("diameter")], timeout_s=0.05
            )
        assert excinfo.value.error_type == "JobTimeoutError"
