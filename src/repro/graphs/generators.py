"""Graph and instance generators used by tests, examples and benchmarks.

The generators cover the workloads the paper's analysis cares about:

* uniformly random weighted digraphs (APSP inputs, Theorem 1);
* random undirected weighted graphs (FindEdges inputs);
* *planted* instances where the number of negative triangles per edge is
  controlled, to exercise the FindEdgesWithPromise promise boundary and the
  ``Tα`` classification of Algorithm IdentifyClass;
* the tripartite construction of Vassilevska Williams & Williams used by the
  distance-product reduction (Proposition 2).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graphs.digraph import INF, UndirectedWeightedGraph, WeightedDigraph
from repro.util.rng import RngLike, ensure_rng


def random_digraph(
    num_vertices: int,
    *,
    density: float = 0.5,
    max_weight: int = 16,
    allow_negative: bool = False,
    rng: RngLike = None,
) -> WeightedDigraph:
    """A random directed graph with integer weights.

    ``density`` is the independent probability of each ordered pair being an
    edge.  With ``allow_negative`` the weights are drawn from
    ``{-max_weight, ..., max_weight}``; negative-cycle-freeness is *not*
    guaranteed then (use :func:`random_digraph_no_negative_cycle` instead when
    the APSP pipeline is the consumer).
    """
    if not 0.0 <= density <= 1.0:
        raise GraphError(f"density must lie in [0, 1], got {density}")
    if max_weight < 0:
        raise GraphError("max_weight must be non-negative")
    generator = ensure_rng(rng)
    n = num_vertices
    low = -max_weight if allow_negative else 1
    high = max_weight
    if high < low:
        high = low
    weights = generator.integers(low, high + 1, size=(n, n)).astype(np.float64)
    mask = generator.random((n, n)) < density
    np.fill_diagonal(mask, False)
    matrix = np.where(mask, weights, INF)
    return WeightedDigraph(matrix)


def random_digraph_no_negative_cycle(
    num_vertices: int,
    *,
    density: float = 0.5,
    max_weight: int = 16,
    negative_fraction: float = 0.2,
    rng: RngLike = None,
) -> WeightedDigraph:
    """A random digraph with some negative edges but no negative cycle.

    Uses the standard potential trick: draw a random potential ``h`` on the
    vertices and non-negative base weights ``b``, then set
    ``w(i, j) = b(i, j) + h(i) - h(j)``.  Every cycle's weight equals the sum
    of base weights along it (potentials telescope), hence is non-negative,
    while individual edges can be negative.  ``negative_fraction`` tunes how
    aggressive the potentials are.
    """
    generator = ensure_rng(rng)
    n = num_vertices
    base = generator.integers(0, max_weight + 1, size=(n, n)).astype(np.float64)
    spread = max(1, int(round(max_weight * negative_fraction * 2)))
    potential = generator.integers(0, spread + 1, size=n).astype(np.float64)
    weights = base + potential[:, None] - potential[None, :]
    mask = generator.random((n, n)) < density
    np.fill_diagonal(mask, False)
    matrix = np.where(mask, weights, INF)
    return WeightedDigraph(matrix)


def random_undirected_graph(
    num_vertices: int,
    *,
    density: float = 0.5,
    max_weight: int = 16,
    allow_negative: bool = True,
    rng: RngLike = None,
) -> UndirectedWeightedGraph:
    """A random undirected weighted graph (FindEdges workload)."""
    if not 0.0 <= density <= 1.0:
        raise GraphError(f"density must lie in [0, 1], got {density}")
    generator = ensure_rng(rng)
    n = num_vertices
    low = -max_weight if allow_negative else 1
    weights = generator.integers(low, max_weight + 1, size=(n, n)).astype(np.float64)
    weights = np.triu(weights, k=1)
    weights = weights + weights.T
    mask = np.triu(generator.random((n, n)) < density, k=1)
    mask = mask | mask.T
    matrix = np.where(mask, weights, INF)
    return UndirectedWeightedGraph(matrix)


def planted_negative_triangle_graph(
    num_vertices: int,
    *,
    num_planted: int,
    triangles_per_pair: int = 1,
    base_weight: int = 8,
    rng: RngLike = None,
) -> tuple[UndirectedWeightedGraph, set[tuple[int, int]]]:
    """A graph with a controlled set of negative triangles.

    Builds a dense graph with strongly positive edge weights (no accidental
    negative triangles), then plants ``num_planted`` pairs ``{u, v}``, giving
    each exactly ``triangles_per_pair`` witnesses ``w`` by making the three
    edges of ``{u, v, w}`` sufficiently negative-summing.  Returns the graph
    and the set of planted pairs (the expected FindEdges output *restricted
    to planted pairs*; planting one triangle also puts its other two edges in
    negative triangles, so the full expected output is computed by the
    reference oracle in tests).

    The per-pair triangle count lets workloads sit on either side of the
    FindEdgesWithPromise promise ``Γ(u,v) ≤ 90 log n``.
    """
    generator = ensure_rng(rng)
    n = num_vertices
    if num_planted < 0:
        raise GraphError("num_planted must be non-negative")
    if triangles_per_pair < 1:
        raise GraphError("triangles_per_pair must be >= 1")
    if n < 3 and num_planted > 0:
        raise GraphError("need at least 3 vertices to plant a triangle")

    # Dense positive base: every edge weight in [base_weight, 2*base_weight].
    weights = generator.integers(base_weight, 2 * base_weight + 1, size=(n, n)).astype(
        np.float64
    )
    weights = np.triu(weights, k=1)
    weights = weights + weights.T
    np.fill_diagonal(weights, INF)

    # Choose planted pairs.
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if num_planted > len(all_pairs):
        raise GraphError("more planted pairs requested than pairs available")
    chosen = generator.choice(len(all_pairs), size=num_planted, replace=False)
    planted: set[tuple[int, int]] = set()
    for index in np.sort(chosen).tolist():
        u, v = all_pairs[index]
        planted.add((u, v))
        others = [w for w in range(n) if w not in (u, v)]
        witness_count = min(triangles_per_pair, len(others))
        witnesses = generator.choice(len(others), size=witness_count, replace=False)
        # Make the pair edge strongly negative so each chosen witness closes
        # a negative triangle: f(u,v) < -(f(u,w) + f(w,v)) for the heaviest w.
        worst = 0.0
        for widx in witnesses.tolist():
            w = others[widx]
            worst = max(worst, float(weights[u, w] + weights[w, v]))
        weights[u, v] = weights[v, u] = -(worst + 1.0)
    return UndirectedWeightedGraph(weights), planted


def tripartite_from_matrices(
    a: np.ndarray, b: np.ndarray, d: np.ndarray
) -> UndirectedWeightedGraph:
    """The Vassilevska Williams–Williams tripartite graph (Proposition 2).

    Given ``n × n`` matrices ``A``, ``B`` and a *guess* matrix ``D``, build
    the undirected tripartite graph on vertex classes ``I ∪ J ∪ K`` (vertices
    ``0..n-1``, ``n..2n-1``, ``2n..3n-1``) with

    * ``f(i, k) = A[i, k]``
    * ``f(j, k) = B[k, j]``
    * ``f(i, j) = -D[i, j]``

    so that ``{i, j}`` lies in a negative triangle iff
    ``min_k (A[i,k] + B[k,j]) < D[i,j]`` (Equation 1 of the paper).
    ``+inf`` entries yield absent edges; ``-inf`` entries of ``D`` yield
    absent ``(i, j)`` edges (a ``-inf`` guess means "already resolved").
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if not (a.shape == b.shape == d.shape) or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GraphError("A, B, D must be square matrices of identical shape")
    n = a.shape[0]
    size = 3 * n
    weights = np.full((size, size), INF)
    i_slice = slice(0, n)
    j_slice = slice(n, 2 * n)
    k_slice = slice(2 * n, 3 * n)
    # f(i, k) = A[i, k]
    weights[i_slice, k_slice] = a
    weights[k_slice, i_slice] = a.T
    # f(j, k) = B[k, j]  (note the transpose: row k of B, column j)
    weights[j_slice, k_slice] = b.T
    weights[k_slice, j_slice] = b
    # f(i, j) = -D[i, j]; a -inf guess encodes "no edge".
    d_edge = np.where(np.isfinite(d), -d, INF)
    weights[i_slice, j_slice] = d_edge
    weights[j_slice, i_slice] = d_edge.T
    return UndirectedWeightedGraph(weights)

