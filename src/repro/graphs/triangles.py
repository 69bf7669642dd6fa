"""Centralized reference routines for negative triangles.

These are the ground-truth oracles the distributed algorithms are tested
against.  A *negative triangle* (Definition 1) is a vertex triple
``{u, v, w}`` whose three edges exist and whose weights satisfy
``f(u,v) + f(u,w) + f(v,w) < 0``.  ``Γ(u, v)`` counts the negative triangles
through the pair ``{u, v}``.

Everything here is vectorized with numpy; the min-plus "two-hop" matrix
``H[u, v] = min_w (f(u,w) + f(w,v))`` drives the membership test, while the
count matrix is built by summing indicator slices.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.digraph import UndirectedWeightedGraph


def two_hop_minplus(weights: np.ndarray) -> np.ndarray:
    """``H[u, v] = min_w (weights[u, w] + weights[w, v])`` with ``+inf``
    treated as absence.  Runs in ``O(n^3)`` time but fully vectorized."""
    n = weights.shape[0]
    out = np.full((n, n), np.inf)
    for w in range(n):
        # Outer sum of column w and row w: candidate paths through w.
        candidate = weights[:, w][:, None] + weights[w, :][None, :]
        np.minimum(out, candidate, out=out)
    return out


def negative_triangle_counts(graph: UndirectedWeightedGraph) -> np.ndarray:
    """The full matrix of counts ``Γ(u, v)`` for all vertex pairs.

    Entry ``[u, v]`` is the number of vertices ``w`` closing a negative
    triangle with the edge ``{u, v}``; it is zero whenever ``{u, v}`` is not
    an edge.  The matrix is symmetric with a zero diagonal.  It is
    :func:`witnessed_negative_pair_counts` with the graph's weights as both
    the witness and the pair matrix.
    """
    return witnessed_negative_pair_counts(graph.weights, graph.weights)


def negative_triangle_edges(graph: UndirectedWeightedGraph) -> set[tuple[int, int]]:
    """All pairs ``{u, v}`` with ``Γ(u, v) > 0``, as sorted tuples.

    This is the reference output of the FindEdges problem.
    """
    counts = negative_triangle_counts(graph)
    us, vs = np.nonzero(np.triu(counts, k=1))
    return set(zip(us.tolist(), vs.tolist()))


def negative_triangles(graph: UndirectedWeightedGraph) -> list[tuple[int, int, int]]:
    """Enumerate all negative triangles as sorted triples ``(u, v, w)``.

    Cubic-time reference enumeration; intended for tests and small graphs.
    """
    f = graph.weights
    n = graph.num_vertices
    result: list[tuple[int, int, int]] = []
    for u in range(n):
        for v in range(u + 1, n):
            if not np.isfinite(f[u, v]):
                continue
            row = f[u] + f[v] + f[u, v]
            ws = np.nonzero(np.isfinite(row) & (row < 0))[0]
            for w in ws.tolist():
                if w > v:
                    result.append((u, v, w))
    return result


def max_triangle_count(graph: UndirectedWeightedGraph) -> int:
    """``max_{u,v} Γ(u, v)`` — used to check the FindEdgesWithPromise promise."""
    counts = negative_triangle_counts(graph)
    return int(counts.max()) if counts.size else 0


def witnessed_negative_pair_counts(
    witness_weights: np.ndarray, pair_weights: np.ndarray
) -> np.ndarray:
    """Asymmetric triangle counts: witnesses from one graph, pair weights
    from another.

    Entry ``[u, v]`` counts vertices ``w ∉ {u, v}`` with both witness edges
    ``{u, w}, {w, v}`` present in ``witness_weights`` and

        ``witness(u, w) + witness(w, v) < −pair(u, v)``

    i.e. the triangle ``{u, v, w}`` is negative when the pair edge weight is
    read from ``pair_weights``.  With both arguments equal to a graph's
    weight matrix this is :func:`negative_triangle_counts`.

    This asymmetric form is what Proposition 1's edge-sampling loop
    evaluates: Algorithm B samples the *witness* edges (so each triangle
    through ``{u, v}`` survives with probability ``p²``) while the queried
    pairs keep their original weights — the counting in the proposition's
    proof (``E[Γ_{G'}] = Γ_G · p²``) is exact only under this reading, and
    operationally ComputePairs already treats pair weights (loaded with the
    pair list in Step 2) separately from witness weights (loaded in Step 1).
    """
    witness = np.asarray(witness_weights, dtype=np.float64)
    pair = np.asarray(pair_weights, dtype=np.float64)
    if witness.shape != pair.shape or witness.ndim != 2:
        raise ValueError("witness and pair matrices must be square and congruent")
    n = witness.shape[0]
    counts = np.zeros((n, n), dtype=np.int64)
    pair_finite = np.isfinite(pair)
    for w in range(n):
        # For fixed w, pairs (u, v) with witness(u,w) + witness(w,v) < -pair(u,v).
        through = witness[:, w][:, None] + witness[w, :][None, :]
        ok = np.isfinite(through) & pair_finite & (through < -pair)
        # Exclude degenerate "triangles" touching w itself.
        ok[w, :] = False
        ok[:, w] = False
        counts += ok
    np.fill_diagonal(counts, 0)
    return counts

