"""APSP from distance products (Proposition 3) and centralized references.

The reduction: encode the digraph as the matrix ``A_G`` (zero diagonal,
``w(i, j)`` on edges, ``+∞`` otherwise); then ``A_G^n`` under the distance
product holds all pairwise distances, and ``O(log n)`` squarings compute it.
``apsp_via_product`` runs this schedule with *any* product implementation:
the centralized numpy one here, the Censor-Hillel distributed product
(:class:`~repro.baselines.censor_hillel.CensorHillelAPSP`) or the
FindEdges-based one (:class:`~repro.core.apsp_solver.QuantumAPSP`), so both
distributed solvers share one squaring schedule and negative-cycle check.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import GraphError, NegativeCycleError
from repro.graphs.digraph import WeightedDigraph, validate_weight_entries
from repro.matrix.semiring import distance_product

ProductFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def detect_negative_cycle(distance_matrix: np.ndarray) -> bool:
    """True iff a (claimed) distance closure certifies a negative cycle,
    i.e. some diagonal entry went negative."""
    return bool((np.diag(distance_matrix) < 0).any())


def apsp_via_product(
    graph: WeightedDigraph,
    product: ProductFn = distance_product,
    *,
    check_negative_cycle: bool = True,
) -> np.ndarray:
    """All-pairs distances by ``⌈log2 n⌉`` squarings of ``A_G``.

    ``product`` is called ``⌈log2 max(n, 2)⌉`` times with equal operands:
    every solve squares at least once, so a one-vertex graph still runs
    (and a distributed product still charges) one product.  Plugging in a
    distributed implementation yields Proposition 3's round bound
    ``O(T(n, nW) · log n)``; such a ``product`` collects its own per-call
    reports.
    """
    matrix = graph.apsp_matrix()
    for _ in range(int(np.ceil(np.log2(max(graph.num_vertices, 2))))):
        matrix = product(matrix, matrix)
    if check_negative_cycle and detect_negative_cycle(matrix):
        raise NegativeCycleError("input graph contains a negative cycle")
    return matrix


#: Bytes of one relaxation block in :func:`apsp_distances_stack`: small
#: graphs are relaxed a few hundred at a time so the block and its ``through``
#: buffer stay in cache; a graph larger than this is relaxed on its own.
_BLOCK_BYTES = 1 << 19

#: Cap on the graphs in one block, so tiny ``n`` still gets blocks.
_MAX_BLOCK_GRAPHS = 256


def _block_graphs(n: int) -> int:
    return max(1, min(_MAX_BLOCK_GRAPHS, _BLOCK_BYTES // (8 * n * n or 1)))


def _relax_stack(weights: np.ndarray) -> np.ndarray:
    """Floyd–Warshall over a validated ``(G, n, n)`` stack.

    The input diagonal is ignored: each graph gets ``A_G``'s zero diagonal.
    Each entry sees the single-graph relaxation's float operations in the
    same ``k`` order, so a graph's closure does not depend on its stack.
    """
    num_graphs, n, _ = weights.shape
    out = np.empty_like(weights)
    diagonal = np.arange(n)
    block = _block_graphs(n)
    through = np.empty((min(block, num_graphs), n, n))
    for lo in range(0, num_graphs, block):
        dist = out[lo : lo + block]
        dist[...] = weights[lo : lo + block]
        dist[:, diagonal, diagonal] = 0.0
        relay = through[: len(dist)]
        for k in range(n):
            # Relax all pairs of every graph through intermediate vertex k.
            np.add(dist[:, :, k, None], dist[:, None, k, :], out=relay)
            np.minimum(dist, relay, out=dist)
    negative = (out[:, diagonal, diagonal] < 0).any(axis=1)
    if negative.any():
        index = int(np.argmax(negative))
        raise NegativeCycleError(f"input graph {index} contains a negative cycle")
    return out


def apsp_distances_stack(weights: np.ndarray) -> np.ndarray:
    """Floyd–Warshall closures of a ``(G, n, n)`` stack of weight matrices.

    Entries obey :class:`WeightedDigraph`'s rules (:class:`GraphError` on
    NaN, ``-inf`` or non-integer weights) and the input diagonal is ignored,
    so ``apsp_distances_stack(w)[i]`` equals
    ``apsp_distances(WeightedDigraph(w[i]))`` byte for byte.  Raises
    :class:`NegativeCycleError` naming the first graph with a negative
    cycle.
    """
    stack = np.asarray(weights, dtype=np.float64)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise GraphError(f"weights must be a (G, n, n) stack, got shape {stack.shape}")
    validate_weight_entries(stack, context="apsp_distances_stack")
    return _relax_stack(stack)


def apsp_distances(graph: WeightedDigraph) -> np.ndarray:
    """Centralized ground-truth APSP (numpy Floyd–Warshall).

    ``O(n³)``; raises :class:`NegativeCycleError` on negative cycles.  This
    is the oracle every distributed solver is verified against: the
    one-graph case of :func:`apsp_distances_stack`.
    """
    return _relax_stack(graph.weights[None])[0]


def batch_distance_lookup(
    distances: np.ndarray, pairs: "np.ndarray | list[tuple[int, int]]"
) -> np.ndarray:
    """Vectorized ``distances[u, v]`` gather for a batch of ``(u, v)`` pairs.

    The serving layer's hot path: answering a large batch of point queries
    against an already-computed closure is one fancy-indexing gather rather
    than a Python loop.  Pairs out of range raise :class:`GraphError`
    (negative indices would silently wrap).
    """
    closure = np.asarray(distances)
    index = np.asarray(pairs, dtype=np.int64)
    if index.size == 0:
        return np.empty(0, dtype=closure.dtype)
    if index.ndim != 2 or index.shape[1] != 2:
        raise GraphError(f"pairs must have shape (k, 2), got {index.shape}")
    n = closure.shape[0]
    if index.min() < 0 or index.max() >= n:
        raise GraphError(f"query pair out of range for n={n}")
    return closure[index[:, 0], index[:, 1]]
