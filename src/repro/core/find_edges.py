"""FindEdges solvers.

:class:`QuantumFindEdges` implements Proposition 1's randomized reduction
(Algorithm B): repeatedly run FindEdgesWithPromise on edge-sampled subgraphs
with geometrically increasing sampling rates, so that pairs involved in many
negative triangles are detected (and removed from the scope) early, and by
the final full-graph call every remaining pair satisfies the
``Γ(u, v) ≤ 90 log n`` promise.  Each inner call is Algorithm ComputePairs
(Theorem 2); the whole reduction costs ``O(T(n) log n)`` rounds.

:class:`ReferenceFindEdges` is the centralized ground-truth backend (zero
round charge) used for correctness tests and for running the APSP pipeline's
*logic* quickly; the classical message-accurate baseline lives in
:mod:`repro.baselines.dolev_triangles`.
"""

from __future__ import annotations

import numpy as np

from repro.congest.accounting import RoundLedger
from repro.core.compute_pairs import compute_pairs
from repro.core.constants import SIMULATION, PaperConstants
from repro.core.problems import FindEdgesInstance, FindEdgesSolution
from repro.util.rng import RngLike, ensure_rng, spawn_rng


class ReferenceFindEdges:
    """Centralized exact solver (tests / fast pipeline checks).

    Charges zero rounds: it exists to validate *logic* (e.g. that the
    Proposition 2 binary search recovers the distance product exactly),
    not to model communication.
    """

    def find_edges(self, instance: FindEdgesInstance) -> FindEdgesSolution:
        return FindEdgesSolution(
            pairs=instance.reference_solution(), rounds=0.0
        )


class QuantumFindEdges:
    """Proposition 1 wrapped around Algorithm ComputePairs.

    Parameters
    ----------
    constants:
        The constant bundle (scale knob included) threaded through every
        sub-protocol.
    search_mode:
        ``"quantum"`` or ``"classical"`` — forwarded to Step 3 (the
        classical mode yields the linear-scan ablation at identical
        structure).
    """

    def __init__(
        self,
        *,
        constants: PaperConstants = SIMULATION,
        rng: RngLike = None,
        search_mode: str = "quantum",
        amplification: float = 12.0,
        max_retries: int = 5,
    ) -> None:
        self.constants = constants
        self.rng = ensure_rng(rng)
        self.search_mode = search_mode
        self.amplification = amplification
        self.max_retries = max_retries

    def find_edges(self, instance: FindEdgesInstance) -> FindEdgesSolution:
        """Run Algorithm B of Proposition 1."""
        n = instance.num_vertices
        constants = self.constants
        pair_graph = instance.effective_pair_graph()
        remaining = set(instance.effective_scope())
        found: set[tuple[int, int]] = set()
        ledger = RoundLedger()
        aborts = 0
        aborted_rounds = 0.0
        calls = 0

        iteration = 0
        while constants.findedges_loop_threshold(n, iteration) <= n:
            probability = constants.findedges_sample_probability(n, iteration)
            sampled_graph = self._sample_edges(instance, probability)
            sub_instance = FindEdgesInstance(
                sampled_graph, scope=set(remaining), pair_graph=pair_graph
            )
            solution = self._solve_promise(sub_instance)
            ledger.merge(solution.ledger, prefix=f"findedges.loop{iteration}.")
            aborts += solution.aborts
            aborted_rounds += solution.details["aborted_rounds"]
            calls += 1
            found |= solution.pairs
            remaining -= solution.pairs
            iteration += 1

        final_instance = FindEdgesInstance(
            instance.graph, scope=set(remaining), pair_graph=pair_graph
        )
        solution = self._solve_promise(final_instance)
        ledger.merge(solution.ledger, prefix="findedges.final.")
        aborts += solution.aborts
        aborted_rounds += solution.details["aborted_rounds"]
        calls += 1
        found |= solution.pairs

        return FindEdgesSolution(
            pairs=found,
            rounds=ledger.total,
            ledger=ledger,
            aborts=aborts,
            details={
                "promise_calls": calls,
                "loop_iterations": iteration,
                "aborted_rounds": aborted_rounds,
            },
        )

    # -- internals -------------------------------------------------------

    def _solve_promise(self, instance: FindEdgesInstance) -> FindEdgesSolution:
        return compute_pairs(
            instance,
            constants=self.constants,
            rng=spawn_rng(self.rng),
            search_mode=self.search_mode,
            max_retries=self.max_retries,
            amplification=self.amplification,
        )

    def _sample_edges(self, instance: FindEdgesInstance, probability: float):
        """Keep each witness edge independently with the given probability
        (symmetric sampling: an undirected edge is kept or dropped whole)."""
        n = instance.num_vertices
        upper = np.triu(self.rng.random((n, n)) < probability, k=1)
        mask = upper | upper.T
        return instance.graph.subgraph_with_edges(mask)
