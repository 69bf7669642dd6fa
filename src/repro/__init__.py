"""repro — Quantum distributed APSP in the CONGEST-CLIQUE model.

A from-scratch reproduction of Izumi & Le Gall, *"Quantum Distributed
Algorithm for the All-Pairs Shortest Path Problem in the CONGEST-CLIQUE
Model"* (PODC 2019, arXiv:1906.02456): the ``Õ(n^{1/4})``-round quantum APSP
algorithm, every substrate it stands on (a round-accurate CONGEST-CLIQUE
simulator, a Grover/state-vector quantum simulator, the multi-search
typicality machinery), and the classical ``Õ(n^{1/3})`` baselines it is
measured against.

Quickstart::

    import numpy as np
    import repro

    graph = repro.random_digraph_no_negative_cycle(10, rng=7)
    backend = repro.QuantumFindEdges(constants=repro.PaperConstants(scale=0.5), rng=7)
    report = repro.QuantumAPSP(backend=backend).solve(graph)
    assert np.array_equal(report.distances, repro.floyd_warshall(graph))
    print(f"solved in {report.rounds:.0f} simulated rounds")
"""

from repro._version import __version__
from repro.analysis import (
    ApspValidation,
    RoundModel,
    fit_exponent,
    format_table,
    validate_apsp,
    validate_sssp,
)
from repro.baselines import (
    CensorHillelAPSP,
    DolevFindEdges,
    GroverFreeFindEdges,
    SSSPReport,
    bellman_ford,
    bellman_ford_distributed,
    distributed_minplus_product,
    floyd_warshall,
)
from repro.congest import (
    BlockPartition,
    CliquePartitions,
    CongestClique,
    RoundLedger,
)
from repro.core import (
    PAPER,
    SIMULATION,
    APSPReport,
    APSPWithPaths,
    DiameterReport,
    FindEdgesInstance,
    FindEdgesSolution,
    PaperConstants,
    PathReport,
    QuantumAPSP,
    QuantumFindEdges,
    ReferenceFindEdges,
    compute_pairs,
    distance_product_via_find_edges,
    eccentricities,
    quantum_diameter,
    solve_apsp_reference_pipeline,
)
from repro.errors import (
    ConvergenceError,
    GraphError,
    JobFailedError,
    NegativeCycleError,
    NetworkError,
    PromiseViolationError,
    ProtocolAbortedError,
    QuantumSimulationError,
    ReproError,
    ServiceError,
)
from repro.graphs import (
    INF,
    UndirectedWeightedGraph,
    WeightedDigraph,
    negative_triangle_counts,
    negative_triangle_edges,
    negative_triangles,
    planted_negative_triangle_graph,
    random_digraph,
    random_undirected_graph,
    tripartite_from_matrices,
)
from repro.graphs.generators import random_digraph_no_negative_cycle
from repro.matrix import (
    apsp_distances,
    distance_product,
    minplus_closure,
    minplus_power,
    path_weight,
    reconstruct_path,
    successor_matrix,
    witnessed_distance_product,
)
from repro.quantum import (
    DistributedQuantumSearch,
    GroverAmplitudeTracker,
    GroverCircuit,
    MultiSearch,
    StateVector,
)
from repro.service import (
    ClosureArtifact,
    JobEngine,
    JobState,
    QueryEngine,
    QueryRequest,
    QueryResult,
    ResultStore,
    SolveOptions,
    available_solvers,
    graph_digest,
    make_solver,
    register_solver,
)

__all__ = [
    "__version__",
    # graphs
    "INF",
    "WeightedDigraph",
    "UndirectedWeightedGraph",
    "random_digraph",
    "random_digraph_no_negative_cycle",
    "random_undirected_graph",
    "planted_negative_triangle_graph",
    "tripartite_from_matrices",
    "negative_triangle_counts",
    "negative_triangle_edges",
    "negative_triangles",
    # congest
    "CongestClique",
    "RoundLedger",
    "BlockPartition",
    "CliquePartitions",
    # quantum
    "StateVector",
    "GroverCircuit",
    "GroverAmplitudeTracker",
    "DistributedQuantumSearch",
    "MultiSearch",
    # matrix
    "distance_product",
    "minplus_power",
    "minplus_closure",
    "apsp_distances",
    "witnessed_distance_product",
    "successor_matrix",
    "reconstruct_path",
    "path_weight",
    # core
    "PaperConstants",
    "PAPER",
    "SIMULATION",
    "FindEdgesInstance",
    "FindEdgesSolution",
    "compute_pairs",
    "QuantumFindEdges",
    "ReferenceFindEdges",
    "distance_product_via_find_edges",
    "QuantumAPSP",
    "APSPReport",
    "solve_apsp_reference_pipeline",
    "APSPWithPaths",
    "PathReport",
    "quantum_diameter",
    "eccentricities",
    "DiameterReport",
    # baselines
    "floyd_warshall",
    "bellman_ford",
    "bellman_ford_distributed",
    "SSSPReport",
    "DolevFindEdges",
    "CensorHillelAPSP",
    "distributed_minplus_product",
    "GroverFreeFindEdges",
    # analysis
    "RoundModel",
    "fit_exponent",
    "format_table",
    "validate_apsp",
    "validate_sssp",
    "ApspValidation",
    # service
    "ClosureArtifact",
    "JobEngine",
    "JobState",
    "QueryEngine",
    "QueryRequest",
    "QueryResult",
    "ResultStore",
    "SolveOptions",
    "available_solvers",
    "graph_digest",
    "make_solver",
    "register_solver",
    # errors
    "ReproError",
    "GraphError",
    "NegativeCycleError",
    "NetworkError",
    "ProtocolAbortedError",
    "PromiseViolationError",
    "QuantumSimulationError",
    "ConvergenceError",
    "ServiceError",
    "JobFailedError",
]
