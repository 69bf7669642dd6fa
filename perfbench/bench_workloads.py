"""The four perfbench workloads.

Each workload makes its inputs (and their ground truth) from the seed in
its constructor, then runs any number of measured units:

* ``WARMUP`` says whether one untimed unit first warms caches and lazy
  set-up.  ``pairs-n1024`` has none: its unit alone fills most of a run.
* :meth:`build` creates the program objects a unit needs.  It is timed as
  set-up: the instance, solvers, engines, store and dispatcher.
* :meth:`unit` is the measured work.  It drives only public APIs.
* :meth:`canonical` turns the unit's result into plain arrays and values,
  and :meth:`check` counts its operations and the wrong ones among them.
* :meth:`corrupt` returns a copy of those outputs with one answer made
  wrong; every run feeds it to :meth:`check` to prove the check bites.
* :meth:`digest` hashes the unit's outputs, so untraced and traced units
  can be compared byte for byte.

Why each workload exists, and which metric each layer should move on it,
is written down in ``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro
from repro.core.compute_pairs import compute_pairs
from repro.core.problems import FindEdgesInstance
from repro.parallel import solve_weights_batch
from repro.service import (
    JobEngine,
    JobState,
    QueryEngine,
    QueryRequest,
    ResultStore,
    SolveOptions,
    make_solver,
)

from bench_checks import (
    bad_answers,
    bad_distance_graphs,
    bad_triangle_pairs,
    floyd_warshall_stack,
)

#: Process pools never exceed the two cores of the reference host.
POOL_WORKERS = 2


@dataclass
class Unit:
    """What one measured unit produced."""

    output: Any
    graphs: int  # graphs (or instances) solved
    latencies_s: list = field(default_factory=list)  # per query batch (serving only)
    write_s: float = 0.0  # time spent solving; the unit wall unless serving
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0


def _sha256(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


class PairsN1024:
    """One inline ComputePairs solve at n = 1024 (the ROADMAP reference)."""

    name = "pairs-n1024"
    WARMUP = False
    #: Rounds and pair count of the default seed (0).
    PINNED = {"rounds": 194808.0, "pairs": 262028}

    def __init__(self, seed: int, scratch: pathlib.Path) -> None:
        self.seed = seed
        self.graph = repro.random_undirected_graph(
            1024, density=0.5, max_weight=7, rng=7 + 2 * seed
        )
        self.solve_rng = 8 + 2 * seed

    def build(self) -> FindEdgesInstance:
        return FindEdgesInstance(self.graph)

    def unit(self, instance: FindEdgesInstance) -> Unit:
        started = time.perf_counter()
        solution = compute_pairs(
            instance, rng=self.solve_rng, rng_contract="v2", workers=1
        )
        elapsed = time.perf_counter() - started
        return Unit(output=solution, graphs=1, write_s=elapsed)

    def canonical(self, unit: Unit) -> None:
        solution = unit.output
        pairs = np.array(sorted(solution.pairs), dtype=np.int64).reshape(-1, 2)
        unit.output = (pairs, solution.rounds, solution.ledger.snapshot())

    def check(self, unit: Unit) -> None:
        pairs, rounds, _ = unit.output
        wrong = bad_triangle_pairs(self.graph.weights, pairs) > 0
        if self.seed == 0:
            wrong |= rounds != self.PINNED["rounds"]
            wrong |= len(pairs) != self.PINNED["pairs"]
        unit.attempted, unit.failed = 1, int(wrong)

    def digest(self, unit: Unit) -> str:
        pairs, rounds, ledger = unit.output
        return _sha256(pairs.tobytes(), rounds, sorted(ledger.items()))

    def close(self, instance: FindEdgesInstance) -> None:
        pass

    def extras(self, instance: FindEdgesInstance, unit: Unit) -> dict:
        return {"workers": 1}

    def corrupt(self, output):
        """Add a non-edge pair, which closes no triangle at all."""
        pairs, rounds, ledger = output
        missing = ~np.isfinite(self.graph.weights)
        np.fill_diagonal(missing, False)
        a, b = np.argwhere(missing)[0]
        return (np.vstack([pairs, [[a, b]]]), rounds, ledger)


class ApspN32:
    """The full Theorem-1 pipeline on three n = 32 digraphs."""

    name = "apsp-n32"
    WARMUP = True
    GRAPHS = 3
    #: Rounds of graphs 0, 1, 2 under the default seed (0).
    PINNED_ROUNDS = (23756701.0, 23667370.0, 22979896.0)

    def __init__(self, seed: int, scratch: pathlib.Path) -> None:
        self.seed = seed
        self.seeds = [self.GRAPHS * seed + i for i in range(self.GRAPHS)]
        self.graphs = [
            repro.random_digraph_no_negative_cycle(32, density=0.4, max_weight=8, rng=s)
            for s in self.seeds
        ]
        self.truth = [floyd_warshall_stack(g.weights) for g in self.graphs]

    def build(self) -> list:
        return [make_solver("quantum", SolveOptions(scale=0.5, seed=s)) for s in self.seeds]

    def unit(self, solvers: list) -> Unit:
        outcomes = []
        started = time.perf_counter()
        for solver, graph in zip(solvers, self.graphs):
            outcomes.append(solver.solve(graph))
        elapsed = time.perf_counter() - started
        return Unit(output=outcomes, graphs=self.GRAPHS, write_s=elapsed)

    def canonical(self, unit: Unit) -> None:
        unit.output = [(o.distances, o.rounds, o.find_edges_calls) for o in unit.output]

    def check(self, unit: Unit) -> None:
        failed = 0
        for index, (distances, rounds, _) in enumerate(unit.output):
            wrong = not np.array_equal(distances, self.truth[index])
            if self.seed == 0:
                wrong |= rounds != self.PINNED_ROUNDS[index]
            failed += wrong
        unit.attempted, unit.failed = self.GRAPHS, failed

    def digest(self, unit: Unit) -> str:
        return _sha256(*[(d.tobytes(), r, c) for d, r, c in unit.output])

    def close(self, solvers: list) -> None:
        pass

    def extras(self, solvers: list, unit: Unit) -> dict:
        return {"workers": 1}

    def corrupt(self, output):
        distances, rounds, calls = output[0]
        distances = distances.copy()
        distances[0, 1] += 1.0
        return [(distances, rounds, calls), *output[1:]]


class ServeMixed:
    """Closed-loop serving: one client, write waves beside read batches.

    One ``ResultStore(capacity=8, num_shards=4)`` on disk is shared by a
    ``JobEngine`` and a ``QueryEngine`` (CLI defaults: solver ``reference``,
    scale 0.5).  Each of 8 waves submits 6 new n = 32 graphs, drains them
    over a 2-worker pool, then sends 300 ``query_batch`` calls of 16 dist,
    1 path and 1 diameter request on a graph drawn Zipf(1.3) over the
    graphs solved so far: the popular head stays in memory, the tail is
    loaded from disk.
    """

    name = "serve-mixed"
    WARMUP = True
    WAVES = 8
    JOBS_PER_WAVE = 6
    BATCHES_PER_WAVE = 300
    DISTS_PER_BATCH = 16
    ZIPF = 1.3

    def __init__(self, seed: int, scratch: pathlib.Path) -> None:
        self.seed = seed
        self.scratch = scratch
        rng = np.random.default_rng([seed, 0x5E7E])
        count = self.WAVES * self.JOBS_PER_WAVE
        self.graphs = [
            repro.random_digraph_no_negative_cycle(
                32, density=0.5, max_weight=8, rng=int(rng.integers(2**32))
            )
            for _ in range(count)
        ]
        self.truth = floyd_warshall_stack(np.stack([g.weights for g in self.graphs]))
        # plan[wave] = [(graph index, request triples, QueryRequest list)]
        self.plan = []
        for wave in range(self.WAVES):
            solved = (wave + 1) * self.JOBS_PER_WAVE
            popularity = np.arange(1, solved + 1, dtype=np.float64) ** -self.ZIPF
            picks = rng.choice(solved, size=self.BATCHES_PER_WAVE, p=popularity / popularity.sum())
            batches = []
            for graph_index in picks.tolist():
                ends = rng.integers(0, 32, size=(self.DISTS_PER_BATCH + 1, 2)).tolist()
                triples = [("dist", u, v) for u, v in ends[:-1]]
                triples += [("path", *ends[-1]), ("diameter", -1, -1)]
                requests = [QueryRequest(kind, u, v) for kind, u, v in triples]
                batches.append((graph_index, triples, requests))
            self.plan.append(batches)

    def build(self) -> dict:
        cache_dir = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        store = ResultStore(capacity=8, cache_dir=cache_dir, num_shards=4)
        options = SolveOptions(scale=0.5, seed=self.seed)
        return {
            "cache_dir": cache_dir,
            "store": store,
            "jobs": JobEngine(store, solver="reference", options=options),
            "queries": QueryEngine(solver="reference", options=options, store=store),
        }

    def unit(self, objects: dict) -> Unit:
        jobs, queries = objects["jobs"], objects["queries"]
        write_s = 0.0
        latencies = []
        answers = []
        finished = []
        for wave, batches in enumerate(self.plan):
            started = time.perf_counter()
            first = wave * self.JOBS_PER_WAVE
            for graph in self.graphs[first:first + self.JOBS_PER_WAVE]:
                jobs.submit(graph)
            finished += jobs.run_pending_parallel(max_workers=POOL_WORKERS)
            write_s += time.perf_counter() - started
            for graph_index, _, requests in batches:
                started = time.perf_counter()
                results = queries.query_batch(self.graphs[graph_index], requests)
                latencies.append(time.perf_counter() - started)
                answers.append([result.value for result in results])
        objects["finished"] = finished
        return Unit(
            output=(finished, answers, queries.solver_invocations),
            graphs=len(self.graphs),
            latencies_s=latencies,
            write_s=write_s,
        )

    def canonical(self, unit: Unit) -> None:
        finished, answers, solver_invocations = unit.output
        states = [job.state.name for job in finished]
        closures = [
            job.artifact.distances if job.state is JobState.DONE else None
            for job in finished
        ]
        unit.output = (states, closures, answers, solver_invocations)

    def check(self, unit: Unit) -> None:
        states, closures, answers, solver_invocations = unit.output
        failed = sum(
            closure is None or not np.array_equal(closure, self.truth[index])
            for index, closure in enumerate(closures)
        )
        failed += len(self.graphs) - len(closures)
        batches = [batch for wave in self.plan for batch in wave]
        for (graph_index, triples, _), values in zip(batches, answers):
            failed += bad_answers(
                self.graphs[graph_index].weights, self.truth[graph_index], triples, values
            ) > 0
        failed += len(batches) - len(answers)
        # Every answer must come from a stored closure, never a fresh solve.
        failed += min(solver_invocations, len(batches))
        unit.attempted = len(self.graphs) + len(batches)
        unit.failed = min(failed, unit.attempted)

    def digest(self, unit: Unit) -> str:
        states, closures, answers, solver_invocations = unit.output
        return _sha256(
            states,
            *[closure.tobytes() for closure in closures if closure is not None],
            answers,
            solver_invocations,
        )

    def close(self, objects: dict) -> None:
        shutil.rmtree(objects["cache_dir"], ignore_errors=True)
        if os.path.exists(objects["cache_dir"]):
            raise RuntimeError(f"store cache {objects['cache_dir']} was not removed")

    def extras(self, objects: dict, unit: Unit) -> dict:
        finished = objects["finished"]
        stats = objects["store"].stats
        lookups = stats.hits + stats.misses
        cache_dir = pathlib.Path(objects["cache_dir"])
        return {
            "workers": POOL_WORKERS,
            "jobs.queue_wait_s": sum(job.queue_wait_s for job in finished),
            "jobs.worker_run_s": sum(job.duration_s for job in finished),
            "jobs.retries": sum(max(0, job.attempts - 1) for job in finished),
            "jobs.failed": sum(job.state is JobState.FAILED for job in finished),
            "jobs.pool_rebuilds": objects["jobs"].pool_rebuilds,
            "store.hits": stats.hits,
            "store.misses": stats.misses,
            "store.disk_loads": stats.disk_loads,
            "store.evictions": stats.evictions,
            "store.quarantined": stats.quarantined,
            "store.memory_hit_ratio": (
                (stats.hits - stats.disk_loads) / lookups if lookups else 0.0
            ),
            "store.bytes_on_disk": sum(
                path.stat().st_size for path in cache_dir.rglob("*.npz")
            ),
        }

    def corrupt(self, output):
        states, closures, answers, solver_invocations = output
        first = [answers[0][0] + 1.0, *answers[0][1:]]  # first dist answer
        return (states, closures, [first, *answers[1:]], solver_invocations)


class SweepN16:
    """A 20,000-graph Floyd–Warshall sweep over the shared-memory pool."""

    name = "sweep-n16"
    WARMUP = True
    GRAPHS = 20000

    def __init__(self, seed: int, scratch: pathlib.Path) -> None:
        self.seed = seed
        first = self.GRAPHS * seed
        self.weights = np.stack(
            [
                repro.random_digraph_no_negative_cycle(
                    16, density=0.4, max_weight=8, rng=first + index
                ).weights
                for index in range(self.GRAPHS)
            ]
        )
        self.truth = floyd_warshall_stack(self.weights)

    def build(self) -> SolveOptions:
        return SolveOptions(seed=self.GRAPHS * self.seed)

    def unit(self, options: SolveOptions) -> Unit:
        started = time.perf_counter()
        result = solve_weights_batch(
            self.weights, solver="floyd-warshall", options=options, workers=POOL_WORKERS
        )
        elapsed = time.perf_counter() - started
        return Unit(output=result, graphs=self.GRAPHS, write_s=elapsed)

    def canonical(self, unit: Unit) -> None:
        unit.output = (unit.output.distances, unit.output.rounds)

    def check(self, unit: Unit) -> None:
        unit.attempted = self.GRAPHS
        unit.failed = bad_distance_graphs(unit.output[0], self.truth)

    def digest(self, unit: Unit) -> str:
        distances, rounds = unit.output
        return _sha256(distances.tobytes(), rounds.tobytes())

    def close(self, options: SolveOptions) -> None:
        pass

    def extras(self, options: SolveOptions, unit: Unit) -> dict:
        return {"workers": POOL_WORKERS}

    def corrupt(self, output):
        distances, rounds = output
        distances = distances.copy()
        distances[-1, 0, 1] -= 1.0
        return (distances, rounds)


WORKLOADS = {w.name: w for w in (PairsN1024, ApspN32, ServeMixed, SweepN16)}
