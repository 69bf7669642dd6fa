#!/usr/bin/env python
"""Domain scenario: a multi-region routing service on the query engine.

A routing service holds one latency digraph per region and answers a storm
of point queries — "fastest route from gateway u to host v?" — far more
often than topologies change.  The :mod:`repro.service` layer is built for
exactly this shape of traffic:

* the **job engine** solves all regions as a batch across worker processes;
* the **result store** caches each region's closure under its content
  address, so re-submitting an unchanged topology never re-solves;
* the **query engine** serves distance/path/diameter lookups from the
  cached closure — thousands of queries per solve.

Run:  python examples/routing_service_demo.py
"""

from __future__ import annotations

import os

import numpy as np

import repro
from repro.service import (
    JobEngine,
    JobState,
    QueryEngine,
    QueryRequest,
    ResultStore,
)


def make_region(seed: int, n: int = 12) -> repro.WeightedDigraph:
    """A strongly connected latency overlay: random links plus a ring."""
    base = repro.random_digraph_no_negative_cycle(
        n, density=0.35, max_weight=20, rng=seed
    ).weights.copy()
    for i in range(n):
        j = (i + 1) % n
        if not np.isfinite(base[i, j]):
            base[i, j] = 20.0
    return repro.WeightedDigraph(base)


def main() -> None:
    regions = {name: make_region(seed) for seed, name in enumerate(
        ["us-east", "eu-west", "ap-south"]
    )}

    # -- batch solve: all regions as jobs across two worker processes --------
    store = ResultStore()
    engine = JobEngine(store=store, solver="floyd-warshall")
    jobs = {name: engine.submit(graph) for name, graph in regions.items()}
    engine.run_pending_parallel(max_workers=2)
    pids = set()
    for name, job in jobs.items():
        assert job.state is JobState.DONE
        pids.add(job.worker_pid)
        print(f"{name}: solved as {job.job_id} in worker {job.worker_pid} "
              f"(digest {job.digest[:12]})")
    assert os.getpid() not in pids, "the batch runs in worker processes"

    # -- query traffic: thousands of lookups, zero further solves ------------
    queries = QueryEngine(solver="floyd-warshall", store=store)
    truths = {name: repro.floyd_warshall(graph) for name, graph in regions.items()}
    served = 0
    for name, graph in regions.items():
        n = graph.num_vertices
        requests = [
            QueryRequest("dist", u, v) for u in range(n) for v in range(n)
        ]
        results = queries.query_batch(graph, requests)
        for result in results:
            assert result.value == truths[name][result.request.u, result.request.v]
        served += len(results)
    assert queries.solver_invocations == 0, "every region was already cached"
    print(f"\nserved {served} distance queries from cache "
          f"(0 additional solves, {store.stats.hits} cache hits)")

    # -- route lookups with full paths ---------------------------------------
    graph = regions["us-east"]
    src, dst = 0, 7
    route = queries.path(graph, src, dst)
    assert route is not None and route[0] == src and route[-1] == dst
    assert repro.path_weight(graph.apsp_matrix(), route) == truths["us-east"][src, dst]
    print(f"\nus-east route {src} -> {dst}: {' -> '.join(map(str, route))} "
          f"(latency {truths['us-east'][src, dst]:.0f})")
    print(f"us-east diameter: {queries.diameter(graph):.0f}")

    # -- topology change: only the changed region re-solves ------------------
    updated = regions["eu-west"].weights.copy()
    edge = next(iter(regions["eu-west"].edges()))
    updated[edge[0], edge[1]] = edge[2] + 5
    new_graph = repro.WeightedDigraph(updated)
    queries.dist(new_graph, 0, 1)
    assert queries.solver_invocations == 1
    print("\neu-west topology change: exactly one re-solve, "
          f"{queries.solver_invocations} total query-engine solve(s)")


if __name__ == "__main__":
    main()
