"""Weighted graph containers.

Two containers are used throughout the library:

* :class:`WeightedDigraph` — the APSP input: a directed graph with integer
  weights, encoded as an ``n × n`` matrix over ``Z ∪ {+∞}`` exactly as in
  Section 3 of the paper (0 diagonal, ``w(i,j)`` on edges, ``+∞`` on
  non-edges).
* :class:`UndirectedWeightedGraph` — the FindEdges input: an undirected
  graph with an integer weight function ``f`` on its edges (weights may be
  negative; a *negative triangle* is a triangle whose three edge weights sum
  to a negative value, Definition 1).

Both wrap dense ``numpy`` arrays; ``+∞`` (``numpy.inf``) marks absent edges.
``-∞`` is rejected everywhere — the paper's matrices may contain ``-∞``
in principle but the APSP pipeline never produces one on inputs without
negative cycles, and allowing it would poison min-plus arithmetic.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GraphError

#: Canonical "no edge" marker.
INF = float("inf")


def validate_weight_entries(arr: np.ndarray, *, context: str) -> None:
    """The entry rules of every weight matrix, for an array of any shape
    (one matrix or a ``(G, n, n)`` stack): no NaN, no -inf, integer
    finite weights."""
    if np.isnan(arr).any():
        raise GraphError(f"{context}: weight matrix contains NaN")
    if np.isneginf(arr).any():
        raise GraphError(f"{context}: -inf weights are not supported")
    # With NaN and -inf gone, rounding moves only non-integer finite entries.
    if not np.array_equal(arr, np.round(arr)):
        raise GraphError(f"{context}: weights must be integers (stored as floats)")


def _validate_weight_matrix(matrix: np.ndarray, *, context: str) -> np.ndarray:
    """Common validation: square float array, no NaN, no -inf."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise GraphError(f"{context}: weight matrix must be square, got shape {arr.shape}")
    validate_weight_entries(arr, context=context)
    return arr


class WeightedDigraph:
    """A directed graph with integer edge weights and no self-loops.

    The canonical encoding follows the paper: ``matrix[i, j]`` is the weight
    of edge ``(i, j)``, ``+inf`` if the edge is absent, and the diagonal is
    identically 0 in the *APSP matrix* view (see :meth:`apsp_matrix`).
    Internally the diagonal stores ``+inf`` (no self-loops); the APSP matrix
    adds the zero diagonal of the standard reduction.
    """

    def __init__(self, weights: np.ndarray) -> None:
        arr = _validate_weight_matrix(weights, context="WeightedDigraph")
        arr = arr.copy()
        np.fill_diagonal(arr, INF)
        self._weights = arr
        self._weights.setflags(write=False)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_edges(
        cls, num_vertices: int, edges: Iterable[tuple[int, int, float]]
    ) -> "WeightedDigraph":
        """Build a digraph from ``(src, dst, weight)`` triples."""
        matrix = np.full((num_vertices, num_vertices), INF)
        for src, dst, weight in edges:
            if not (0 <= src < num_vertices and 0 <= dst < num_vertices):
                raise GraphError(f"edge ({src}, {dst}) out of range for n={num_vertices}")
            if src == dst:
                raise GraphError(f"self-loop on vertex {src} is not allowed")
            matrix[src, dst] = weight
        return cls(matrix)

    # -- basic accessors -----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._weights.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """The (read-only) ``n × n`` weight matrix with ``+inf`` non-edges."""
        return self._weights

    @property
    def num_edges(self) -> int:
        return int(np.isfinite(self._weights).sum())

    def has_edge(self, src: int, dst: int) -> bool:
        return bool(np.isfinite(self._weights[src, dst]))

    def weight(self, src: int, dst: int) -> float:
        return float(self._weights[src, dst])

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over ``(src, dst, weight)`` triples."""
        srcs, dsts = np.nonzero(np.isfinite(self._weights))
        for src, dst in zip(srcs.tolist(), dsts.tolist()):
            yield src, dst, float(self._weights[src, dst])

    def max_abs_weight(self) -> float:
        """Largest absolute finite weight (0 for an edgeless graph)."""
        finite = self._weights[np.isfinite(self._weights)]
        return float(np.abs(finite).max()) if finite.size else 0.0

    def out_row(self, vertex: int) -> np.ndarray:
        """Row ``vertex`` of the weight matrix — what the network node with
        this label receives as its share of the input (Section 2)."""
        return self._weights[vertex]

    def apsp_matrix(self) -> np.ndarray:
        """The matrix ``A_G`` of the APSP reduction (Section 3): zero
        diagonal, ``w(i,j)`` on edges, ``+inf`` elsewhere."""
        matrix = self._weights.copy()
        np.fill_diagonal(matrix, 0.0)
        return matrix

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return np.array_equal(self._weights, other._weights)

    def __repr__(self) -> str:
        return f"WeightedDigraph(n={self.num_vertices}, m={self.num_edges})"


class UndirectedWeightedGraph:
    """An undirected graph with an integer weight function on edges.

    This is the input type of FindEdges / FindEdgesWithPromise.  The weight
    matrix is symmetric with ``+inf`` marking absent edges and an all-``+inf``
    diagonal (no self-loops).
    """

    def __init__(self, weights: np.ndarray) -> None:
        arr = _validate_weight_matrix(weights, context="UndirectedWeightedGraph")
        arr = arr.copy()
        np.fill_diagonal(arr, INF)
        finite = np.isfinite(arr)
        if not np.array_equal(finite, finite.T):
            raise GraphError("edge set must be symmetric")
        if not np.array_equal(np.where(finite, arr, 0.0), np.where(finite, arr, 0.0).T):
            raise GraphError("weight function must be symmetric")
        self._weights = arr
        self._weights.setflags(write=False)

    @classmethod
    def from_edges(
        cls, num_vertices: int, edges: Iterable[tuple[int, int, float]]
    ) -> "UndirectedWeightedGraph":
        """Build from ``(u, v, weight)`` triples (order of ``u, v`` irrelevant)."""
        matrix = np.full((num_vertices, num_vertices), INF)
        for u, v, weight in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise GraphError(f"edge ({u}, {v}) out of range for n={num_vertices}")
            if u == v:
                raise GraphError(f"self-loop on vertex {u} is not allowed")
            matrix[u, v] = weight
            matrix[v, u] = weight
        return cls(matrix)

    @property
    def num_vertices(self) -> int:
        return self._weights.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """The (read-only) symmetric weight matrix."""
        return self._weights

    @property
    def num_edges(self) -> int:
        return int(np.isfinite(self._weights).sum()) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.isfinite(self._weights[u, v]))

    def weight(self, u: int, v: int) -> float:
        return float(self._weights[u, v])

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted array of neighbors of ``u`` — the share of the input that
        network node ``u`` receives (``N_G(u)`` in the paper)."""
        return np.nonzero(np.isfinite(self._weights[u]))[0]

    def edge_pairs(self) -> list[tuple[int, int]]:
        """All edges as ``(u, v)`` pairs with ``u < v``."""
        us, vs = np.nonzero(np.triu(np.isfinite(self._weights), k=1))
        return list(zip(us.tolist(), vs.tolist()))

    def subgraph_with_edges(self, keep_mask: np.ndarray) -> "UndirectedWeightedGraph":
        """Return the subgraph keeping only edges where ``keep_mask`` is true.

        ``keep_mask`` must be a symmetric boolean matrix; used by the edge
        sampling of Proposition 1 (Algorithm B).
        """
        mask = np.asarray(keep_mask, dtype=bool)
        if mask.shape != self._weights.shape:
            raise GraphError("keep_mask shape mismatch")
        if not np.array_equal(mask, mask.T):
            raise GraphError("keep_mask must be symmetric")
        matrix = np.where(mask, self._weights, INF)
        return UndirectedWeightedGraph(matrix)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UndirectedWeightedGraph):
            return NotImplemented
        return np.array_equal(self._weights, other._weights)

    def __repr__(self) -> str:
        return f"UndirectedWeightedGraph(n={self.num_vertices}, m={self.num_edges})"


def pair_key(u: int, v: int) -> tuple[int, int]:
    """Canonical (sorted) representation of an unordered vertex pair."""
    return (u, v) if u < v else (v, u)


def pairs_between(block_a: Sequence[int], block_b: Sequence[int]) -> list[tuple[int, int]]:
    """The set ``P(U, U')`` of the paper: unordered pairs ``{u, v}`` with
    ``u ∈ block_a``, ``v ∈ block_b`` and ``u ≠ v``, each listed once."""
    seen: set[tuple[int, int]] = set()
    for u in block_a:
        for v in block_b:
            if u != v:
                seen.add(pair_key(u, v))
    return sorted(seen)
