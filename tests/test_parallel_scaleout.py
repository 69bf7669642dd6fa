"""Multi-process scale-out equivalence: the dispatched path is a no-op
observationally.

Everything here runs with real worker processes (2 workers — the CI
``scaleout`` lane's width) and asserts byte-identity against the in-process
path: same rounds, same per-phase ledgers, same found pairs, same parent
RNG stream position.  Platforms without working named shared memory skip
the whole module gracefully.
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


def _solve(
    n: int, seed: int, workers: int, rng_contract: str = "v2",
    constants: PaperConstants = SIMULATION, search_mode: str = "quantum",
):
    graph = repro.random_undirected_graph(
        n, density=0.5, max_weight=7, rng=seed
    )
    instance = repro.FindEdgesInstance(graph)
    driver = np.random.default_rng(seed + 1000)
    solution = compute_pairs(
        instance, rng=driver, workers=workers, rng_contract=rng_contract,
        constants=constants, search_mode=search_mode,
    )
    # Stream-position probe: dispatched runs must consume the parent
    # generator identically, draw for draw.
    probe = driver.integers(0, 2**63 - 1, size=4).tolist()
    return solution, probe


class TestDispatchedComputePairs:
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
        sequential, seq_probe = _solve(
            n, 5, 1, constants=constants, search_mode=search_mode
        )
        dispatched, par_probe = _solve(
            n, 5, WORKERS, constants=constants, search_mode=search_mode
        )
        if constants is DUP_CONSTANTS:
            assert any(
                phase.endswith(".duplication")
                for phase, _rounds in sequential.ledger.phases()
            )
        assert dispatched.pairs == sequential.pairs
        assert dispatched.rounds == sequential.rounds
        # The ledger total is a float sum in first-charge order, so the
        # phases must match as a sequence, not only as a mapping.
        assert list(dispatched.ledger.phases()) == list(sequential.ledger.phases())
        assert dispatched.ledger.as_table() == sequential.ledger.as_table()
        assert dispatched.ledger.total == sequential.ledger.total
        assert dispatched.details == sequential.details
        assert par_probe == seq_probe

    def test_byte_identical_under_contract_v1(self):
        sequential, seq_probe = _solve(16, seed=9, workers=1, rng_contract="v1")
        dispatched, par_probe = _solve(
            16, seed=9, workers=WORKERS, rng_contract="v1"
        )
        assert dispatched.pairs == sequential.pairs
        assert dispatched.ledger.snapshot() == sequential.ledger.snapshot()
        assert par_probe == seq_probe

    def test_worker_telemetry_merges_into_parent(self):
        with telemetry.collect() as collector:
            _solve(16, seed=5, workers=WORKERS)
            snapshot = collector.snapshot()
        assert snapshot["workers"], "expected merged worker summaries"
        assert all(
            "pid" in summary and "phases" in summary
            for summary in snapshot["workers"]
        )
        # The parent's own snapshot stays internally consistent...
        assert telemetry_report.consistency_problems(snapshot) == []
        # ...and the breakdown folds the workers' search phases in.
        breakdown = telemetry_report.phase_breakdown(snapshot)
        assert breakdown["workers"] == len(snapshot["workers"])
        assert "step3.class" in breakdown["phases"]


class TestBatchSweep:
    def test_batch_solve_matches_inline_and_direct(self):
        weights = np.stack(
            [
                repro.random_digraph_no_negative_cycle(
                    8, density=0.5, max_weight=6, rng=seed
                ).weights
                for seed in range(40)
            ]
        )
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
        weights = np.stack(
            [
                repro.random_digraph_no_negative_cycle(
                    6, density=0.5, max_weight=6, rng=seed
                ).weights
                for seed in range(5)
            ]
        )
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
        weights = np.stack(
            [
                repro.random_digraph_no_negative_cycle(
                    8, density=0.5, max_weight=6, rng=seed
                ).weights
                for seed in range(40)
            ]
        )
        with telemetry.collect() as collector:
            solve_weights_batch(weights, workers=1)
            snapshot = collector.snapshot()
        counters = snapshot["metrics"]["counters"]
        assert counters["solver.solves"] == 40
        assert counters["solver.floyd-warshall.solves"] == 40
        phases = telemetry_report.phase_breakdown(snapshot)["phases"]
        assert phases["solver.solve"]["count"] == 4  # one span per chunk
        assert phases["parallel.solve_weights_batch"]["count"] == 1

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
