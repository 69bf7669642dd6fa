"""Proposition 2: distance products from negative-triangle detection.

Vassilevska Williams and Williams' reduction: to compute
``C = A ⋆ B`` build, for a guess matrix ``D``, the tripartite graph with
``f(i, k) = A[i, k]``, ``f(j, k) = B[k, j]`` and ``f(i, j) = −D[i, j]``;
then ``{i, j}`` lies in a negative triangle iff ``C[i, j] < D[i, j]``
(Equation 1).  Binary-searching every entry of ``D`` simultaneously pins
down every ``C[i, j]`` with ``O(log M)`` FindEdges calls.

An initial call with ``D ≡ 2M + 1`` separates the ``+∞`` entries (no
``k``-path at all) from the finite ones, which are then bisected inside
``[−2M, 2M]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.congest.accounting import RoundLedger
from repro.core.problems import FindEdgesBackend, FindEdgesInstance
from repro.errors import GraphError
from repro.graphs.digraph import validate_weight_entries
from repro.graphs.generators import tripartite_from_matrices

NEG_SENTINEL = float("-inf")


@dataclass
class DistanceProductReport:
    """Outcome of one Proposition-2 distance product."""

    product: np.ndarray
    rounds: float
    find_edges_calls: int
    ledger: RoundLedger = field(default_factory=RoundLedger)
    aborts: int = 0
    #: Rounds charged by aborted ComputePairs attempts, outside ``ledger``.
    aborted_rounds: float = 0.0


def _validate_operand(matrix: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise GraphError(f"{name} must be square")
    validate_weight_entries(arr, context=name)
    return arr


def distance_product_via_find_edges(
    a: np.ndarray,
    b: np.ndarray,
    backend: FindEdgesBackend,
) -> DistanceProductReport:
    """Compute ``A ⋆ B`` with ``O(log M)`` calls to a FindEdges solver.

    ``backend`` must solve the *unrestricted* FindEdges problem (the
    triangle counts of the constructed graphs are unbounded; promise-only
    solvers must be wrapped in Proposition 1 first, as
    :class:`repro.core.find_edges.QuantumFindEdges` does).
    """
    a = _validate_operand(a, "A")
    b = _validate_operand(b, "B")
    if a.shape != b.shape:
        raise GraphError(f"operand shapes differ: {a.shape} vs {b.shape}")
    n = a.shape[0]
    finite_values = np.concatenate(
        [a[np.isfinite(a)].ravel(), b[np.isfinite(b)].ravel()]
    )
    max_abs = float(np.abs(finite_values).max()) if finite_values.size else 0.0
    bound = int(max_abs)

    ledger = RoundLedger()
    total_rounds = 0.0
    calls = 0
    aborts = 0
    aborted_rounds = 0.0

    def run_call(d_matrix: np.ndarray, scope_pairs: set[tuple[int, int]]):
        nonlocal total_rounds, calls, aborts, aborted_rounds
        graph = tripartite_from_matrices(a, b, d_matrix)
        instance = FindEdgesInstance(graph, scope=scope_pairs)
        solution = backend.find_edges(instance)
        calls += 1
        total_rounds += solution.rounds
        aborts += solution.aborts
        aborted_rounds += solution.details.get("aborted_rounds", 0.0)
        ledger.merge(solution.ledger, prefix=f"product.call{calls}.")
        return solution.pairs

    def pair_mask(pairs: set[tuple[int, int]]) -> np.ndarray:
        """Solution pairs ``(i, n + j)`` as a boolean ``(n, n)`` mask."""
        mask = np.zeros((n, n), dtype=bool)
        if pairs:
            arr = np.array(list(pairs), dtype=np.int64)
            mask[arr[:, 0], arr[:, 1] - n] = True
        return mask

    def mask_scope(mask: np.ndarray) -> set[tuple[int, int]]:
        """The scope pairs ``(i, n + j)`` selected by a boolean mask."""
        us, vs = np.nonzero(mask)
        return set(zip(us.tolist(), (vs + n).tolist()))

    # Phase 1: +∞ detection.  C[i, j] is finite iff it is < 2M + 1.
    d0 = np.full((n, n), float(2 * bound + 1))
    finite_mask = pair_mask(run_call(d0, mask_scope(np.ones((n, n), dtype=bool))))

    # Phase 2: bisection over [−2M, 2M] for finite entries.
    lo = np.full((n, n), float(-2 * bound))
    hi = np.full((n, n), float(2 * bound + 1))
    while True:
        active = finite_mask & (hi - lo > 1)
        if not active.any():
            break
        mid = np.floor((lo + hi) / 2.0)
        d_matrix = np.where(active, mid, NEG_SENTINEL)
        below_mask = pair_mask(run_call(d_matrix, mask_scope(active)))
        hi = np.where(active & below_mask, mid, hi)
        lo = np.where(active & ~below_mask, mid, lo)

    product = np.where(finite_mask, lo, np.inf)
    return DistanceProductReport(
        product=product,
        rounds=total_rounds,
        find_edges_calls=calls,
        ledger=ledger,
        aborts=aborts,
        aborted_rounds=aborted_rounds,
    )
