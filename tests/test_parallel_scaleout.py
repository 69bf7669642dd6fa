"""Multi-process scale-out equivalence: the worker pool is a no-op
observationally.

Everything here runs with real worker processes (2 workers — the CI
``scaleout`` lane's width) and asserts byte-identity against the in-process
path: arena columns reaching pool workers read-only, whole
``compute_pairs`` solves run in a pool worker (same pairs, ordered
ledgers, details and driver RNG stream position), batch sweeps (same
distances and rounds at any worker count), job-engine sweeps, and worker
telemetry merged into the parent's collector.  The pool is shared by batch
sweeps and the job engine, so its lost-task reporting (dead workers,
deadlines) is pinned here too.
"""

import os
import pathlib
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.analysis.sweeps import sweep_apsp_batch, sweep_apsp_engine
from repro.core.compute_pairs import compute_pairs
from repro.core.constants import SIMULATION, PaperConstants
from repro.errors import JobTimeoutError, WorkerCrashError
from repro.parallel import ClassDispatcher, default_workers, solve_weights_batch
from repro.service import solvers as solvers_module
from repro.service.jobs import JobEngine, JobState
from repro.service.solvers import FloydWarshallSolver, SolveOptions, make_solver
from repro.telemetry import report as telemetry_report

pytestmark = pytest.mark.scaleout

WORKERS = 2
#: Forces duplicated (Fig. 5) classes next to plain ones at n <= 128.
DUP_CONSTANTS = PaperConstants(scale=0.5, class_bound_factor=0.333)


def _weight_stack(num_graphs: int, n: int) -> np.ndarray:
    """``(num_graphs, n, n)`` weights of graphs seeded ``0..num_graphs-1``."""
    return np.stack(
        [
            repro.random_digraph_no_negative_cycle(
                n, density=0.5, max_weight=6, rng=seed
            ).weights
            for seed in range(num_graphs)
        ]
    )


def _describe_arena_task(arena, spec: dict) -> dict:
    """Pool task: what the arena looks like from inside the task."""
    return {
        "pid": os.getpid(),
        "columns": {
            key: (column.dtype.str, column.shape, column.tobytes(), column.flags.writeable)
            for key, column in arena.items()
        },
    }


def _row_sum_task(arena, spec: dict) -> dict:
    """Pool task: one output value per row of ``[lo, hi)``."""
    lo, hi = spec["lo"], spec["hi"]
    return {"lo": lo, "rows": arena["x"][lo:hi].sum(axis=1)}


def _write_arena_task(arena, spec: dict) -> dict:
    arena["x"][0] = 1.0
    return {}


ARENA_COLUMNS = {
    "ints": np.arange(1000, dtype=np.int64),
    "pairs": np.arange(24, dtype=np.int64).reshape(12, 2),
    "flags": np.zeros((7, 33), dtype=bool),
    "weights": np.linspace(0.0, 1.0, 64).reshape(8, 8),
}


def _describe(workers: int) -> dict:
    with ClassDispatcher(workers) as dispatcher:
        arena = dispatcher.make_arena(ARENA_COLUMNS)
        [described] = dispatcher.map_arena(_describe_arena_task, arena, [None])
    return described


class TestShmArena:
    """The batch's read-only input columns, as tasks see them (the class
    keeps the name of the shared-memory arena it replaced)."""

    def test_round_trip_and_manifest(self):
        described = _describe(WORKERS)
        assert described["pid"] != os.getpid()
        assert set(described["columns"]) == set(ARENA_COLUMNS)
        for key, expected in ARENA_COLUMNS.items():
            dtype, shape, data, writeable = described["columns"][key]
            assert dtype == expected.dtype.str
            assert shape == expected.shape
            assert data == expected.tobytes()
            assert not writeable

    def test_writable_column_round_trips(self):
        x = np.arange(60, dtype=np.float64).reshape(20, 3)
        specs = [{"lo": lo, "hi": hi} for lo, hi in [(0, 7), (7, 8), (8, 20)]]
        with ClassDispatcher(WORKERS) as dispatcher:
            arena = dispatcher.make_arena({"x": x})
            chunks = dispatcher.map_arena(_row_sum_task, arena, specs)
        out = np.zeros(20)
        for chunk in chunks:
            out[chunk["lo"] : chunk["lo"] + len(chunk["rows"])] = chunk["rows"]
        assert out.tobytes() == x.sum(axis=1).tobytes()

    def test_local_arena_has_the_same_interface(self):
        inline, pooled = _describe(1), _describe(WORKERS)
        assert inline["columns"] == pooled["columns"]

    def test_inline_dispatcher_uses_local_arena(self):
        backing = np.zeros(4, dtype=np.int64)
        with ClassDispatcher(1) as dispatcher:
            arena = dispatcher.make_arena({"col": backing})
            [described] = dispatcher.map_arena(_describe_arena_task, arena, [None])
        assert described["pid"] == os.getpid()
        assert np.shares_memory(arena["col"], backing)
        assert backing.flags.writeable

    @pytest.mark.parametrize("workers", [1, WORKERS])
    def test_task_writing_its_arena_raises(self, workers):
        x = np.zeros(3)
        with ClassDispatcher(workers) as dispatcher:
            arena = dispatcher.make_arena({"x": x})
            with pytest.raises(ValueError, match="read-only"):
                dispatcher.map_arena(_write_arena_task, arena, [None])
        assert not x.any()


def _solve_outcome(
    weights: np.ndarray, seed: int, rng_contract: str = "v2",
    constants: PaperConstants = SIMULATION, search_mode: str = "quantum",
) -> dict:
    """Everything observable about one seeded ``compute_pairs`` solve."""
    instance = repro.FindEdgesInstance(repro.UndirectedWeightedGraph(weights))
    driver = np.random.default_rng(seed + 1000)
    solution = compute_pairs(
        instance, rng=driver, rng_contract=rng_contract,
        constants=constants, search_mode=search_mode,
    )
    return {
        "pairs": solution.pairs,
        "rounds": solution.rounds,
        "phases": list(solution.ledger.phases()),
        "table": solution.ledger.as_table(),
        "total": solution.ledger.total,
        "details": solution.details,
        # Stream-position probe: the solve consumed the driver generator
        # draw for draw.
        "probe": driver.integers(0, 2**63 - 1, size=4).tolist(),
    }


def _solve_task(arena, spec: dict) -> dict:
    """Pool task: one whole solve, its graph read from the arena."""
    return dict(_solve_outcome(arena["weights"], **spec), pid=os.getpid())


def _graph_weights(n: int, seed: int) -> np.ndarray:
    return repro.random_undirected_graph(
        n, density=0.5, max_weight=7, rng=seed
    ).weights


def _solve(n: int, seed: int, *, dispatched: bool, **spec) -> dict:
    weights = _graph_weights(n, seed)
    if not dispatched:
        return _solve_outcome(weights, seed, **spec)
    with ClassDispatcher(WORKERS) as dispatcher:
        arena = dispatcher.make_arena({"weights": weights})
        [outcome] = dispatcher.map_arena(_solve_task, arena, [dict(spec, seed=seed)])
    assert outcome.pop("pid") != os.getpid()
    return outcome


def assert_same_solve(dispatched: dict, in_process: dict) -> None:
    assert dispatched["pairs"] == in_process["pairs"]
    assert dispatched["rounds"] == in_process["rounds"]
    # The ledger total is a float sum in first-charge order, so the phases
    # must match as a sequence, not only as a mapping.
    assert dispatched["phases"] == in_process["phases"]
    assert dispatched["table"] == in_process["table"]
    assert dispatched["total"] == in_process["total"]
    assert dispatched["details"] == in_process["details"]
    assert dispatched["probe"] == in_process["probe"]


class TestDispatchedComputePairs:
    """A whole solve shipped to a pool worker — as the job engine ships
    quantum solves — is a pure function of its inputs: the worker's
    outcome equals the in-process one."""

    @pytest.mark.parametrize("n", [16, 48, 128])
    @pytest.mark.parametrize(
        "constants,search_mode",
        [
            (SIMULATION, "quantum"),
            (DUP_CONSTANTS, "quantum"),
            (DUP_CONSTANTS, "classical"),
        ],
        ids=["quantum", "dup-quantum", "dup-classical"],
    )
    def test_byte_identical_to_in_process(self, n, constants, search_mode):
        spec = {"constants": constants, "search_mode": search_mode}
        in_process = _solve(n, 5, dispatched=False, **spec)
        dispatched = _solve(n, 5, dispatched=True, **spec)
        if constants is DUP_CONSTANTS:
            assert any(
                phase.endswith(".duplication")
                for phase, _rounds in in_process["phases"]
            )
        assert_same_solve(dispatched, in_process)

    def test_byte_identical_under_contract_v1(self):
        in_process = _solve(16, 9, dispatched=False, rng_contract="v1")
        dispatched = _solve(16, 9, dispatched=True, rng_contract="v1")
        assert in_process["details"]["rng_contract"] == "v1"
        assert_same_solve(dispatched, in_process)

    def test_worker_telemetry_merges_into_parent(self):
        with telemetry.collect() as collector:
            _solve(16, 5, dispatched=True)
            snapshot = collector.snapshot()
        assert snapshot["workers"], "expected merged worker summaries"
        assert all(
            "pid" in summary and "phases" in summary
            for summary in snapshot["workers"]
        )
        # The parent's own snapshot stays internally consistent...
        assert telemetry_report.consistency_problems(snapshot) == []
        # ...and the breakdown folds the worker's search phases in.
        breakdown = telemetry_report.phase_breakdown(snapshot)
        assert breakdown["workers"] == len(snapshot["workers"])
        assert "step3.class" in breakdown["phases"]


class TestBatchSweep:
    def test_batch_solve_matches_inline_and_direct(self):
        weights = _weight_stack(40, 8)
        inline = solve_weights_batch(weights, workers=1)
        parallel = solve_weights_batch(weights, workers=WORKERS)
        assert np.array_equal(inline.distances, parallel.distances)
        assert np.array_equal(inline.rounds, parallel.rounds)
        for index in range(weights.shape[0]):
            truth = repro.floyd_warshall(repro.WeightedDigraph(weights[index]))
            assert np.array_equal(parallel.distances[index], truth)

    @pytest.mark.parametrize("workers", [1, WORKERS, 4])
    def test_per_graph_path_matches_direct_solves(self, workers):
        # "reference" has no solve_stack: each graph gets its own seed + i solver.
        weights = _weight_stack(5, 6)
        options = SolveOptions(seed=11)
        result = solve_weights_batch(
            weights, solver="reference", options=options, workers=workers
        )
        for index in range(weights.shape[0]):
            direct = make_solver(
                "reference", replace(options, seed=options.seed + index)
            ).solve(repro.WeightedDigraph(weights[index]))
            assert result.distances[index].tobytes() == direct.distances.tobytes()
            assert result.rounds[index] == direct.rounds

    def test_stacked_path_counts_every_graph(self):
        weights = _weight_stack(40, 8)
        with telemetry.collect() as collector:
            solve_weights_batch(weights, workers=1)
            snapshot = collector.snapshot()
        counters = snapshot["metrics"]["counters"]
        assert counters["solver.solves"] == 40
        assert counters["solver.floyd-warshall.solves"] == 40
        phases = telemetry_report.phase_breakdown(snapshot)["phases"]
        assert phases["solver.solve"]["count"] == 1  # one stacked call
        assert phases["parallel.solve_weights_batch"]["count"] == 1

    def test_stacked_sweep_starts_no_pool(self):
        weights = _weight_stack(40, 8)
        with telemetry.collect() as collector:
            result = solve_weights_batch(weights, workers=WORKERS)
            snapshot = collector.snapshot()
        assert result.workers == 1
        assert snapshot["workers"] == []
        solver = FloydWarshallSolver(SolveOptions())
        for index in range(weights.shape[0]):
            direct = solver.solve(repro.WeightedDigraph(weights[index]))
            assert result.distances[index].tobytes() == direct.distances.tobytes()
            assert result.rounds[index] == direct.rounds

    @pytest.mark.parametrize("solver", ["floyd-warshall", "reference"])
    @pytest.mark.parametrize("workers", [1, WORKERS])
    @pytest.mark.parametrize("num_graphs,n", [(0, 5), (3, 0), (1, 6)])
    def test_degenerate_batches_keep_their_shape(self, solver, workers, num_graphs, n):
        weights = _weight_stack(num_graphs, n) if num_graphs else np.zeros((0, n, n))
        result = solve_weights_batch(weights, solver=solver, workers=workers)
        assert result.distances.shape == (num_graphs, n, n)
        assert result.distances.dtype == np.float64
        assert result.rounds.shape == (num_graphs,)
        assert result.rounds.dtype == np.float64
        for index in range(num_graphs):
            truth = repro.floyd_warshall(repro.WeightedDigraph(weights[index]))
            assert result.distances[index].tobytes() == truth.tobytes()

    def test_worker_telemetry_merges_into_parent(self):
        # A per-graph solver: the stacked default never reaches a worker.
        weights = _weight_stack(8, 6)
        with telemetry.collect() as collector:
            solve_weights_batch(weights, solver="reference", workers=WORKERS)
            snapshot = collector.snapshot()
        assert snapshot["workers"], "expected merged worker summaries"
        assert all(
            "pid" in summary and "phases" in summary
            for summary in snapshot["workers"]
        )
        # The parent's own snapshot stays internally consistent...
        assert telemetry_report.consistency_problems(snapshot) == []
        # ...and the breakdown folds the workers' solve phases in.
        breakdown = telemetry_report.phase_breakdown(snapshot)
        assert breakdown["workers"] == len(snapshot["workers"])
        assert "solver.solve" in breakdown["phases"]

    def test_sweep_apsp_batch_is_worker_invariant(self):
        one = sweep_apsp_batch(12, 8, solver="reference", workers=1, base_seed=3)
        two = sweep_apsp_batch(12, 8, solver="reference", workers=WORKERS, base_seed=3)
        assert np.array_equal(one.distances, two.distances)
        assert np.array_equal(one.rounds, two.rounds)
        assert two.workers == WORKERS


class TestJobEngineWorkers:
    def test_auto_worker_default_and_gauge(self):
        engine = JobEngine(solver="floyd-warshall")
        for seed in range(4):
            engine.submit(
                repro.random_digraph_no_negative_cycle(
                    8, density=0.5, max_weight=6, rng=seed
                )
            )
        with telemetry.collect() as collector:
            jobs = engine.run_pending_parallel()  # None → cpu-derived
            snapshot = collector.snapshot()
        assert all(job.state.value == "done" for job in jobs)
        assert snapshot["metrics"]["gauges"]["jobs.workers"] == default_workers()

    def test_parallel_jobs_ship_worker_phase_summaries(self):
        engine = JobEngine(solver="floyd-warshall")
        for seed in range(3):
            engine.submit(
                repro.random_digraph_no_negative_cycle(
                    8, density=0.5, max_weight=6, rng=seed
                )
            )
        with telemetry.collect() as collector:
            engine.run_pending_parallel(max_workers=WORKERS)
            snapshot = collector.snapshot()
        assert snapshot["workers"]
        breakdown = telemetry_report.phase_breakdown(snapshot)
        assert "solver.solve" in breakdown["phases"]

    def test_engine_sweep_worker_invariant(self):
        sequential = sweep_apsp_engine(
            [8, 9], seeds=(0, 1), solver="floyd-warshall", workers=1
        )
        parallel = sweep_apsp_engine(
            [8, 9], seeds=(0, 1), solver="floyd-warshall", workers=WORKERS
        )
        assert [p.key for p in sequential] == [p.key for p in parallel]
        assert [p.rounds for p in sequential] == [p.rounds for p in parallel]
        assert all(p.exact for p in parallel)


def _sleep_task(arena, spec: dict) -> dict:
    """Pool task: record this worker's pid in ``pidfile`` (if given), then
    sleep ``sleep_s``."""
    if spec.get("pidfile"):
        pathlib.Path(spec["pidfile"]).write_text(str(os.getpid()))
    time.sleep(spec["sleep_s"])
    return {"tag": spec["tag"]}


def _exit_task(arena, spec: dict) -> dict:
    os._exit(13)


class _ExitsOnSeedSolver:
    """Test solver that kills its pool worker (``os._exit``) on one seed and
    solves like ``reference`` otherwise; in the parent it never exits."""

    def __init__(self, options: SolveOptions, parent_pid: int, exit_seed: int) -> None:
        self.options = options
        self.parent_pid = parent_pid
        self.exit_seed = exit_seed

    def solve(self, graph):
        if self.options.seed == self.exit_seed and os.getpid() != self.parent_pid:
            os._exit(13)
        return make_solver("reference", self.options).solve(graph)


class TestSharedPoolLostTasks:
    """The pool the sweeps and the job engine share reports lost tasks as
    values, in spec order, instead of raising or hanging."""

    def test_task_past_its_deadline_comes_back_as_timeout(self, tmp_path):
        pidfile = tmp_path / "stuck.pid"
        specs = [
            {"tag": "a", "sleep_s": 0.0},
            {"tag": "stuck", "sleep_s": 30.0, "pidfile": str(pidfile)},
            {"tag": "b", "sleep_s": 0.0},
        ]
        started = time.perf_counter()
        with ClassDispatcher(WORKERS) as dispatcher:
            arena = dispatcher.make_arena({})
            results = dispatcher.map_arena(
                _sleep_task, arena, specs, [None, started + 1.0, None]
            )
        elapsed = time.perf_counter() - started
        try:
            assert elapsed < 10.0
            assert results[0] == {"tag": "a"}
            assert isinstance(results[1], JobTimeoutError)
            assert results[2] == {"tag": "b"}
        finally:
            # The abandoned worker would otherwise hold interpreter exit.
            for _ in range(100):
                if pidfile.exists() and pidfile.read_text():
                    break
                time.sleep(0.05)
            os.kill(int(pidfile.read_text()), signal.SIGKILL)

    def test_dead_worker_comes_back_as_crash_and_the_next_call_recovers(self):
        with ClassDispatcher(WORKERS) as dispatcher:
            arena = dispatcher.make_arena({"x": np.arange(6.0).reshape(2, 3)})
            [lost] = dispatcher.map_arena(_exit_task, arena, [None])
            assert isinstance(lost, WorkerCrashError)
            chunks = dispatcher.map_arena(
                _row_sum_task, arena, [{"lo": 0, "hi": 1}, {"lo": 1, "hi": 2}]
            )
        assert [chunk["rows"].tolist() for chunk in chunks] == [[3.0], [12.0]]

    def test_per_graph_sweep_worker_killed_mid_chunk_raises(self, monkeypatch):
        # Graph 3 of 8 kills its worker after graphs 2 (same chunk) solved.
        name = "test-exits-in-worker-on-seed-3"
        parent_pid = os.getpid()
        monkeypatch.setitem(
            solvers_module._REGISTRY,
            name,
            solvers_module.SolverSpec(
                name=name,
                factory=lambda options: _ExitsOnSeedSolver(options, parent_pid, 3),
                capabilities=solvers_module.SolverCapabilities(),
            ),
        )
        weights = _weight_stack(8, 6)
        with pytest.raises(WorkerCrashError):
            solve_weights_batch(
                weights, solver=name, options=SolveOptions(seed=0), workers=WORKERS
            )
        # In-process the solver never exits: the sweep itself is sound.
        inline = solve_weights_batch(
            weights, solver=name, options=SolveOptions(seed=0), workers=1
        )
        assert inline.distances.shape == weights.shape


class TestJobEngineOnSharedPool:
    def _engine_with_jobs(self) -> JobEngine:
        engine = JobEngine(solver="reference", options=SolveOptions(seed=4))
        for seed in range(3):
            engine.submit(
                repro.random_digraph_no_negative_cycle(
                    8, density=0.5, max_weight=6, rng=seed
                )
            )
        engine.submit(
            repro.WeightedDigraph.from_edges(3, [(0, 1, -5), (1, 0, 2), (1, 2, 1)])
        )
        return engine

    def test_single_worker_runs_in_process_like_run_pending(self):
        inline = self._engine_with_jobs()
        pooled = inline.run_pending_parallel(max_workers=1)
        sequential = self._engine_with_jobs().run_pending()
        assert all(job.worker_pid == os.getpid() for job in pooled)
        assert [job.state for job in pooled] == [job.state for job in sequential]
        assert [job.state for job in pooled][-1] is JobState.FAILED
        assert [job.error_type for job in pooled] == [
            job.error_type for job in sequential
        ]
        for one, other in zip(pooled, sequential):
            if one.artifact is None:
                assert other.artifact is None
                continue
            assert one.artifact.distances.tobytes() == other.artifact.distances.tobytes()
            assert one.artifact.successors.tobytes() == other.artifact.successors.tobytes()
            assert one.artifact.rounds == other.artifact.rounds

    def test_pooled_jobs_merge_one_worker_summary_per_job(self):
        engine = self._engine_with_jobs()
        with telemetry.collect() as collector:
            jobs = engine.run_pending_parallel(max_workers=WORKERS)
            snapshot = collector.snapshot()
        assert len(snapshot["workers"]) == len(jobs)
        assert {summary["pid"] for summary in snapshot["workers"]} == {
            job.worker_pid for job in jobs
        }
        assert os.getpid() not in {job.worker_pid for job in jobs}
