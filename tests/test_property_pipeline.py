"""End-to-end property-based tests (hypothesis) across the full pipeline.

Each property runs the complete reduction machinery on randomized small
instances: generator → tripartite reductions → (reference-backed) solvers →
independent validation.  The reference FindEdges backend keeps these fast
enough for dozens of hypothesis examples while still exercising every
reduction (the quantum backend's equivalence to the reference is covered by
the integration tests).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.apsp_solver import QuantumAPSP
from repro.core.paths import APSPWithPaths
from repro.core.problems import FindEdgesInstance
from repro.matrix.witness import path_weight

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

graph_params = st.tuples(
    st.integers(min_value=0, max_value=10**6),  # seed
    st.integers(min_value=2, max_value=10),     # n
    st.sampled_from([0.2, 0.5, 0.9]),           # density
    st.sampled_from([1, 4, 25]),                # max weight
)


@settings(**SETTINGS)
@given(params=graph_params)
def test_property_pipeline_matches_floyd_warshall(params):
    seed, n, density, max_weight = params
    graph = repro.random_digraph_no_negative_cycle(
        n, density=density, max_weight=max_weight, rng=seed
    )
    report = repro.solve_apsp_reference_pipeline(graph)
    assert np.array_equal(report.distances, repro.floyd_warshall(graph))


@settings(**SETTINGS)
@given(params=graph_params)
def test_property_pipeline_output_validates(params):
    seed, n, density, max_weight = params
    graph = repro.random_digraph_no_negative_cycle(
        n, density=density, max_weight=max_weight, rng=seed
    )
    report = repro.solve_apsp_reference_pipeline(graph)
    assert repro.validate_apsp(graph, report.distances).valid


@settings(**SETTINGS)
@given(params=graph_params)
def test_property_paths_realize_distances(params):
    seed, n, density, max_weight = params
    graph = repro.random_digraph_no_negative_cycle(
        n, density=density, max_weight=max_weight, rng=seed
    )
    solver = APSPWithPaths(QuantumAPSP(backend=repro.ReferenceFindEdges()))
    report = solver.solve(graph)
    truth = repro.floyd_warshall(graph)
    assert np.array_equal(report.distances, truth)
    weights = graph.apsp_matrix()
    for i in range(n):
        for j in range(n):
            path = report.path(i, j)
            if path is None:
                assert not np.isfinite(truth[i, j])
            else:
                assert path_weight(weights, path) == truth[i, j]
                assert len(path) - 1 == report.hops[i, j]


@settings(**SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=3, max_value=14),
    density=st.sampled_from([0.3, 0.7]),
)
def test_property_find_edges_backends_agree(seed, n, density):
    graph = repro.random_undirected_graph(n, density=density, max_weight=6, rng=seed)
    instance = FindEdgesInstance(graph)
    reference = repro.ReferenceFindEdges().find_edges(instance).pairs
    dolev = repro.DolevFindEdges().find_edges(instance).pairs
    assert reference == dolev


@settings(**SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=2, max_value=8),
)
def test_property_sssp_consistent_with_apsp(seed, n):
    graph = repro.random_digraph_no_negative_cycle(n, density=0.5, rng=seed)
    truth = repro.floyd_warshall(graph)
    for source in range(0, n, max(1, n // 3)):
        report = repro.bellman_ford_distributed(graph, source)
        assert np.array_equal(report.distances, truth[source])
        assert repro.validate_sssp(graph, source, report.distances)


@settings(**SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=2, max_value=8),
    max_abs=st.sampled_from([1, 7, 40]),
)
def test_property_witnessed_product_consistent(seed, n, max_abs):
    rng = np.random.default_rng(seed)
    a = rng.integers(-max_abs, max_abs + 1, size=(n, n)).astype(float)
    b = rng.integers(-max_abs, max_abs + 1, size=(n, n)).astype(float)
    a[rng.random((n, n)) < 0.3] = np.inf
    b[rng.random((n, n)) < 0.3] = np.inf
    values, witnesses = repro.witnessed_distance_product(a, b)
    assert np.array_equal(values, repro.distance_product(a, b))
    finite = np.isfinite(values)
    ks = witnesses[finite]
    ii, jj = np.nonzero(finite)
    assert np.array_equal(a[ii, ks] + b[ks, jj], values[finite])
