"""Multi-process scale-out equivalence: the worker pool is a no-op
observationally.

Everything here runs with real worker processes (2 workers — the CI
``scaleout`` lane's width) and asserts byte-identity against the in-process
path: shared-memory arena round trips, whole ``compute_pairs`` solves run
in a pool worker (same pairs, ordered ledgers, details and driver RNG
stream position), batch sweeps (same distances and rounds at any worker
count), job-engine sweeps, and worker telemetry merged into the parent's
collector.  Platforms without working named shared
memory skip the whole module gracefully.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.analysis.sweeps import sweep_apsp_batch, sweep_apsp_engine
from repro.core.compute_pairs import compute_pairs
from repro.core.constants import SIMULATION, PaperConstants
from repro.parallel import (
    ClassDispatcher,
    LocalArena,
    ShmArena,
    default_workers,
    shm_available,
    solve_weights_batch,
)
from repro.service.jobs import JobEngine
from repro.service.solvers import SolveOptions, make_solver
from repro.telemetry import report as telemetry_report

pytestmark = [
    pytest.mark.scaleout,
    pytest.mark.skipif(
        not shm_available(), reason="named shared memory unavailable"
    ),
]

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


class TestShmArena:
    def test_round_trip_and_manifest(self):
        arrays = {
            "ints": np.arange(1000, dtype=np.int64),
            "pairs": np.arange(24, dtype=np.int64).reshape(12, 2),
            "flags": np.zeros((7, 33), dtype=bool),
            "weights": np.linspace(0.0, 1.0, 64).reshape(8, 8),
        }
        arena = ShmArena.create(arrays)
        try:
            attached = ShmArena.attach(arena.manifest)
            try:
                for key, expected in arrays.items():
                    view = attached[key]
                    assert view.dtype == expected.dtype
                    assert view.shape == expected.shape
                    assert np.array_equal(view, expected)
                    assert not view.flags.writeable
            finally:
                attached.close()
        finally:
            arena.dispose()

    def test_writable_column_round_trips(self):
        arena = ShmArena.create({"out": np.zeros(16, dtype=np.float64)})
        try:
            attached = ShmArena.attach(arena.manifest)
            attached.writable("out")[:] = np.arange(16, dtype=np.float64)
            attached.close()
            assert np.array_equal(arena["out"], np.arange(16, dtype=np.float64))
        finally:
            arena.dispose()

    def test_local_arena_has_the_same_interface(self):
        backing = np.zeros(4, dtype=np.int64)
        arena = LocalArena({"col": backing})
        assert not arena["col"].flags.writeable
        arena.writable("col")[:] = 7
        assert np.array_equal(backing, np.full(4, 7))
        assert "col" in arena and list(arena) == ["col"]
        arena.dispose()  # no-op, same lifecycle surface as ShmArena

    def test_inline_dispatcher_uses_local_arena(self):
        dispatcher = ClassDispatcher(1)
        assert not dispatcher.parallel
        arena = dispatcher.make_arena({"x": np.arange(3)})
        assert isinstance(arena, LocalArena)
        dispatcher.shutdown()


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
    """Pool task: one whole solve, its graph read zero-copy from the arena."""
    return _solve_outcome(arena["weights"], **spec)


def _graph_weights(n: int, seed: int) -> np.ndarray:
    return repro.random_undirected_graph(
        n, density=0.5, max_weight=7, rng=seed
    ).weights


def _solve(n: int, seed: int, *, dispatched: bool, **spec) -> dict:
    weights = _graph_weights(n, seed)
    if not dispatched:
        return _solve_outcome(weights, seed, **spec)
    with ClassDispatcher(WORKERS) as dispatcher:
        assert dispatcher.parallel
        arena = dispatcher.make_arena({"weights": weights})
        try:
            [outcome] = dispatcher.map_arena(
                _solve_task, arena, [dict(spec, seed=seed)]
            )
        finally:
            arena.dispose()
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

    @pytest.mark.parametrize("workers", [1, WORKERS])
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
        assert phases["solver.solve"]["count"] == 4  # one span per chunk
        assert phases["parallel.solve_weights_batch"]["count"] == 1

    def test_worker_telemetry_merges_into_parent(self):
        weights = _weight_stack(40, 8)
        with telemetry.collect() as collector:
            solve_weights_batch(weights, workers=WORKERS)
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
        one = sweep_apsp_batch(30, 8, workers=1, base_seed=3)
        two = sweep_apsp_batch(30, 8, workers=WORKERS, base_seed=3)
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
