"""Problem definitions: FindEdges and FindEdgesWithPromise (Section 3).

A :class:`FindEdgesInstance` generalizes the paper's input ``(G, S)``
slightly: the *witness* graph (whose edges close triangles) and the *pair*
weights (the third edge of each queried pair) may come from different
matrices.  With both equal this is exactly the paper's problem; the split is
what makes Proposition 1's edge-sampled sub-instances well-defined (see
:func:`repro.graphs.triangles.witnessed_negative_pair_counts`).

Solvers implement the :class:`FindEdgesBackend` protocol; the library ships
three: the centralized reference (tests/ground truth), the classical Dolev
et al. triangle-listing baseline, and the paper's quantum algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, runtime_checkable

import numpy as np

from repro.congest.accounting import RoundLedger
from repro.core.evaluation import CodedWeights, witnessed_two_hop
from repro.errors import GraphError, PromiseViolationError
from repro.graphs.digraph import UndirectedWeightedGraph, pair_key
from repro.graphs.triangles import witnessed_negative_pair_counts

#: A pair set is a set of canonical (sorted) vertex-index tuples.
PairSet = set[tuple[int, int]]


@dataclass
class FindEdgesInstance:
    """An instance of FindEdges / FindEdgesWithPromise.

    Parameters
    ----------
    graph:
        The witness graph ``G`` — its edges provide the two witness sides
        ``{u, w}, {w, v}`` of each triangle.
    scope:
        The pair set ``S ⊆ P(V)``; ``None`` means "all edges of the pair
        graph" (the plain FindEdges problem).
    pair_graph:
        Where the pair-edge weights ``f(u, v)`` are read from; defaults to
        ``graph``.  Proposition 1's loop passes the *sampled* graph as
        ``graph`` and the original graph here.
    """

    graph: UndirectedWeightedGraph
    scope: Optional[PairSet] = None
    pair_graph: Optional[UndirectedWeightedGraph] = None

    def __post_init__(self) -> None:
        pairs = self.pair_graph or self.graph
        if pairs.num_vertices != self.graph.num_vertices:
            raise GraphError("witness and pair graphs must have the same vertex set")
        if self.scope is not None:
            if self.scope:
                arr = np.array(list(self.scope), dtype=np.int64)
                arr.sort(axis=1)
                if int(arr.min()) < 0 or int(arr.max()) >= self.graph.num_vertices:
                    bad = arr[
                        (arr[:, 0] < 0) | (arr[:, 1] >= self.graph.num_vertices)
                    ][0]
                    raise GraphError(
                        f"scope pair ({int(bad[0])}, {int(bad[1])}) out of range"
                    )
                self.scope = set(map(tuple, arr.tolist()))
            else:
                self.scope = set()

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    def effective_pair_graph(self) -> UndirectedWeightedGraph:
        return self.pair_graph or self.graph

    def effective_scope(self) -> PairSet:
        """The scope, defaulting to all pair-graph edges."""
        if self.scope is not None:
            return self.scope
        return set(self.effective_pair_graph().edge_pairs())

    def scope_mask(self) -> np.ndarray:
        """The scope as a bool ``(n, n)`` matrix: ``True`` at ``[a, b]`` for
        every canonical scope pair ``(a, b)``, so upper-triangular.  The
        default scope (all pair-graph edges) builds straight from the
        weights, with no pair tuples."""
        if self.scope is None:
            return np.triu(np.isfinite(self.effective_pair_graph().weights), 1)
        mask = np.zeros((self.num_vertices, self.num_vertices), dtype=bool)
        if self.scope:
            pairs = np.array(list(self.scope), dtype=np.int64)
            mask[pairs[:, 0], pairs[:, 1]] = True
        return mask

    def triangle_counts(self) -> np.ndarray:
        """Ground-truth ``Γ(u, v)`` matrix of this instance (asymmetric
        counting; centralized, for verification and promise checks)."""
        return witnessed_negative_pair_counts(
            self.graph.weights, self.effective_pair_graph().weights
        )

    def reference_solution(self) -> PairSet:
        """Ground-truth output: scope pairs with ``Γ(u, v) > 0``.

        Uses the two-hop min-plus existence test rather than full triangle
        counting (``Γ > 0 ⟺ min_w two-hop < −f(u, v)``) — the counts are
        only needed by the promise checks.  The min-plus runs in the
        witness matrix's :class:`~repro.core.evaluation.CodedWeights` code
        (:func:`~repro.core.evaluation.witnessed_two_hop`, float64 only for
        weights outside the code) and compares against the coded
        threshold.
        """
        scope = self.effective_scope()
        if not scope:
            return set()
        pair_weights = self.effective_pair_graph().weights
        pairs = np.array(list(scope), dtype=np.int64)
        us, vs = pairs[:, 0], pairs[:, 1]
        rows = np.unique(us)
        cols = np.unique(vs)
        coded = CodedWeights.encode(self.graph.weights)
        two_hop = witnessed_two_hop(coded, rows, cols)
        w = pair_weights[us, vs]
        hit = np.isfinite(w) & (
            two_hop[np.searchsorted(rows, us), np.searchsorted(cols, vs)]
            < coded.threshold(w)
        )
        return set(map(tuple, pairs[hit].tolist()))

    def max_scope_triangle_count(self) -> int:
        """``max_{pair ∈ S} Γ(u, v)`` — the quantity the promise bounds."""
        scope = self.effective_scope()
        if not scope:
            return 0
        counts = self.triangle_counts()
        pairs = np.array(list(scope), dtype=np.int64)
        return int(counts[pairs[:, 0], pairs[:, 1]].max())

    def check_promise(self, bound: float) -> None:
        """Raise :class:`PromiseViolationError` unless ``Γ(u, v) ≤ bound``
        for every scope pair."""
        worst = self.max_scope_triangle_count()
        if worst > bound:
            raise PromiseViolationError(
                f"promise violated: max Γ over scope is {worst} > bound {bound:.1f}"
            )


@dataclass
class FindEdgesSolution:
    """Output of a FindEdges solver.

    ``pairs`` is the set of scope pairs reported to lie in a negative
    triangle; ``rounds`` the CONGEST-CLIQUE round charge; ``ledger`` the
    per-phase breakdown; ``aborts`` counts randomized-protocol retries that
    aborted before one succeeded.
    """

    pairs: PairSet
    rounds: float
    ledger: RoundLedger = field(default_factory=RoundLedger)
    aborts: int = 0
    details: dict = field(default_factory=dict)

    def errors_against(self, instance: FindEdgesInstance) -> tuple[PairSet, PairSet]:
        """``(false_positives, false_negatives)`` against ground truth."""
        truth = instance.reference_solution()
        return (self.pairs - truth, truth - self.pairs)

    def is_correct_for(self, instance: FindEdgesInstance) -> bool:
        false_pos, false_neg = self.errors_against(instance)
        return not false_pos and not false_neg


@runtime_checkable
class FindEdgesBackend(Protocol):
    """Anything that solves FindEdges instances.

    Implementations must handle arbitrary ``Γ`` (no promise) — solvers built
    around FindEdgesWithPromise wrap themselves in Proposition 1's reduction
    to meet this contract.
    """

    def find_edges(self, instance: FindEdgesInstance) -> FindEdgesSolution:
        """Solve the instance."""
        ...
