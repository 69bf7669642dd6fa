"""Shared fixtures.

Every randomized test takes an explicit seed; fixtures provide graphs and
constants bundles sized so the interesting machinery engages while suites
stay fast.  ``TEST_CONSTANTS`` (scale 0.5) keeps the paper's constant ratios
but lets thresholds bite at ``n`` in the tens.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro
from repro.core.constants import PaperConstants
from repro.service import solvers as solvers_module


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "rng_contract: RNG consumption-contract equivalence and statistical"
        " suites (tests/test_rng_contract_v2.py)",
    )
    config.addinivalue_line(
        "markers",
        "faults: fault-injection and recovery suites (tests/test_service_faults.py,"
        " tests/test_service_recovery.py)",
    )
    config.addinivalue_line(
        "markers",
        "scaleout: multi-process scale-out equivalence suites"
        " (tests/test_parallel_scaleout.py)",
    )

#: Constants used by most protocol tests: large enough scale that Λx covers
#: every pair w.h.p. at n=16..36, small enough that classes beyond T0 occur.
TEST_CONSTANTS = PaperConstants(scale=0.5)

#: A lighter bundle for the larger (n ≥ 64) protocol tests.
LIGHT_CONSTANTS = PaperConstants(scale=0.15)


def prop1_sub_instance(n: int, seed: int, density: float = 0.6):
    """A Proposition-1 style sub-instance: the witness graph keeps only the
    pair graph's light edges (``|f| ≤ 3``), so pair weights exceed the
    witness bound and the coded two-hop threshold's clamp decides hits."""
    from repro.core.problems import FindEdgesInstance

    pair_graph = repro.random_undirected_graph(n, density=density, max_weight=40, rng=seed)
    light = np.where(np.abs(pair_graph.weights) <= 3, pair_graph.weights, np.inf)
    return FindEdgesInstance(repro.UndirectedWeightedGraph(light), pair_graph=pair_graph)


def node_pairs_of(table) -> dict:
    """A Step-2 :class:`~repro.core.quantum_step3.SearchTable` as the
    per-label dict the reference loop forms speak: ``(bu, bv, x) →
    (pairs, weights, witness)`` views for every live search node, in
    position order."""
    out = {}
    for position in np.flatnonzero(table.live).tolist():
        lo, hi = int(table.offsets[position]), int(table.offsets[position + 1])
        label = tuple(int(c) for c in np.unravel_index(position, table.shape))
        out[label] = (table.pairs[lo:hi], table.weights[lo:hi], table.witness[lo:hi])
    return out


def search_table_of(shape, node_pairs: dict):
    """The :class:`~repro.core.quantum_step3.SearchTable` of a per-label
    dict whose labels come in position order; labels absent from
    ``node_pairs`` are not live."""
    from repro.core.quantum_step3 import SearchTable

    positions = [int(np.ravel_multi_index(label, shape)) for label in node_pairs]
    assert positions == sorted(positions), "labels must come in position order"
    payloads = list(node_pairs.values())
    size = int(np.prod(shape))
    live = np.zeros(size, dtype=bool)
    live[positions] = True
    counts = np.zeros(size, dtype=np.int64)
    counts[positions] = [len(pairs) for pairs, _, _ in payloads]
    return SearchTable(
        shape=tuple(shape),
        offsets=np.concatenate([[0], np.cumsum(counts)]),
        pairs=np.concatenate([np.empty((0, 2), dtype=np.int64)] + [p for p, _, _ in payloads]),
        weights=np.concatenate([np.empty(0)] + [w for _, w, _ in payloads]),
        witness=np.concatenate(
            [np.empty((0, shape[2]), dtype=bool)] + [t for _, _, t in payloads]
        ),
        live=live,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_undirected():
    """A 16-vertex undirected weighted graph with many negative triangles."""
    return repro.random_undirected_graph(16, density=0.6, max_weight=8, rng=3)


@pytest.fixture
def small_digraph():
    """An 8-vertex digraph with negative edges but no negative cycle."""
    return repro.random_digraph_no_negative_cycle(
        8, density=0.5, max_weight=6, rng=4
    )


@pytest.fixture
def planted_graph():
    """A 20-vertex graph with 6 planted negative-triangle pairs."""
    graph, planted = repro.planted_negative_triangle_graph(
        20, num_planted=6, triangles_per_pair=2, rng=11
    )
    return graph, planted


class SlowSolver:
    """Floyd–Warshall that takes at least ``delay_s`` wall-clock seconds per
    solve, so timeouts fire and pooled work placement is observable."""

    capabilities = solvers_module.SolverCapabilities(rounds_accounted=False)

    def __init__(self, name: str, delay_s: float, options) -> None:
        self.name = name
        self.delay_s = delay_s
        self.options = options

    def solve(self, graph):
        started = time.perf_counter()
        outcome = solvers_module.FloydWarshallSolver(self.options).solve(graph)
        time.sleep(max(0.0, self.delay_s - (time.perf_counter() - started)))
        return outcome


@pytest.fixture
def slow_solver(monkeypatch):
    """``slow_solver(delay_s, name=...)`` registers a :class:`SlowSolver` for
    this test only and returns its name.  Pool workers forked during the
    test inherit the patched registry."""

    def register(delay_s: float, name: str = "test-slow") -> str:
        monkeypatch.setitem(
            solvers_module._REGISTRY,
            name,
            solvers_module.SolverSpec(
                name=name,
                factory=lambda options: SlowSolver(name, delay_s, options),
                capabilities=SlowSolver.capabilities,
            ),
        )
        return name

    return register
