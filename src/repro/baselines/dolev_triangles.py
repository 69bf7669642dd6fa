"""Dolev–Lenzen–Peled deterministic triangle listing as a FindEdges backend.

"Tri, Tri Again" (DISC 2012): partition ``V`` into ``q ≈ n^{1/3}`` blocks of
``≈ n^{2/3}`` vertices; assign each unordered block triple (with repetition)
to one network node; that node gathers all edges between its blocks
(``O(n^{4/3})`` words ⇒ ``O(n^{1/3})`` rounds by Lemma 1) and lists the
triangles it can see locally.  Every triangle's block multiset is owned by
exactly one node, so the listing is complete and — being purely
combinatorial — works verbatim for *negative* triangles, which is why the
paper cites it as the classical comparator that algebraic (ring
matrix-multiplication) accelerations cannot replace.

The backend solves the (asymmetric) FindEdges problem exactly, with no
promise needed and deterministic output; its round charge is the exact
Lemma 1 cost of the gather traffic on the simulator.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

from repro.congest.accounting import RoundLedger
from repro.congest.batch import MessageBatch
from repro.congest.network import CongestClique
from repro.congest.partitions import BlockPartition
from repro.core.problems import FindEdgesInstance, FindEdgesSolution


def dolev_gather_batch(
    partition: BlockPartition, triples: list[tuple[int, int, int]]
) -> MessageBatch:
    """The Dolev gather traffic as one arithmetic batch (see
    :meth:`DolevFindEdges._charge_gather` for the pattern).  Triple entries
    may arrive in any order; each triple's *distinct* blocks send."""
    starts = partition.block_starts()
    sizes = partition.block_sizes()
    grid = np.sort(np.asarray(triples, dtype=np.int64), axis=1)
    keep = np.ones_like(grid, dtype=bool)
    keep[:, 1:] = grid[:, 1:] != grid[:, :-1]
    cell_triple = np.repeat(np.arange(grid.shape[0], dtype=np.int64), keep.sum(axis=1))
    cell_block = grid[keep]
    # Per-triple sender totals decide the 2-words-per-entry row width.
    sender_total = np.bincount(
        cell_triple, weights=sizes[cell_block].astype(np.float64),
        minlength=grid.shape[0],
    ).astype(np.int64)
    return MessageBatch.from_range_product(
        starts[cell_block],
        sizes[cell_block],
        cell_triple,
        2 * sender_total[cell_triple],
    )


class DolevFindEdges:
    """Classical ``Õ(n^{1/3})``-round exact FindEdges solver (deterministic:
    it takes no generator)."""

    def find_edges(self, instance: FindEdgesInstance) -> FindEdgesSolution:
        n = instance.num_vertices
        network = CongestClique(n)
        num_blocks = max(1, round(n ** (1.0 / 3.0)))
        partition = BlockPartition(n, min(num_blocks, n))
        triples = list(
            combinations_with_replacement(range(partition.num_blocks), 3)
        )
        network.register_scheme("dolev_triples", triples)

        self._charge_gather(network, partition, triples)
        found = self._detect(instance, partition, triples)

        scope = instance.effective_scope()
        return FindEdgesSolution(
            pairs=found & scope,
            rounds=network.ledger.total,
            ledger=network.ledger,
            details={"num_blocks": partition.num_blocks, "num_triples": len(triples)},
        )

    # -- communication -------------------------------------------------------

    def _charge_gather(
        self,
        network: CongestClique,
        partition: BlockPartition,
        triples: list[tuple[int, int, int]],
    ) -> None:
        """Each triple node gathers, from the row owners, the witness *and*
        pair weights between every pair of its blocks (two matrices per
        block pair, both needed for the asymmetric triangle test).

        Every vertex of each block ships its row restricted to the union of
        the triple's blocks (witness + pair weight: 2 words per entry).
        The batch is built arithmetically over the (triple, distinct block)
        incidence grid: triples arrive sorted, so deduplicating each row
        against its left neighbour masks out the repeats, and each surviving
        incidence cell is one contiguous sender range.  The loop form lives
        in :func:`repro.core._reference.dolev_gather_loops`.
        """
        network.deliver(
            dolev_gather_batch(partition, triples),
            "dolev.gather", scheme="base", dst_scheme="dolev_triples",
        )

    def list_negative_triangles(
        self, instance: FindEdgesInstance
    ) -> tuple[list[tuple[int, int, int]], float]:
        """Full triangle *listing* (the actual Dolev et al. result): every
        negative triangle of the instance as sorted ``(u, v, w)`` triples
        (witness from the witness graph, pair edge from the pair graph —
        for a plain instance all three edges come from the same graph).

        Returns ``(triangles, rounds)``; the round charge is the same
        gather as :meth:`find_edges` (listing is free once the blocks are
        local).
        """
        n = instance.num_vertices
        network = CongestClique(n)
        num_blocks = max(1, round(n ** (1.0 / 3.0)))
        partition = BlockPartition(n, min(num_blocks, n))
        triples = list(
            combinations_with_replacement(range(partition.num_blocks), 3)
        )
        network.register_scheme("dolev_triples", triples)
        self._charge_gather(network, partition, triples)

        witness = instance.graph.weights
        pair_w = instance.effective_pair_graph().weights
        scope = instance.effective_scope()
        found: set[tuple[int, int, int]] = set()
        for triple in triples:
            a, b, c = triple
            for x, y, z in {(a, b, c), (a, c, b), (b, c, a)}:
                block_x = partition.block(x)
                block_y = partition.block(y)
                block_z = partition.block(z)
                sub_pairs = pair_w[np.ix_(block_x, block_y)]
                left = witness[np.ix_(block_x, block_z)]
                right = witness[np.ix_(block_z, block_y)]
                # (|X|, |Z|, |Y|): triangle test per witness.
                sums = left[:, :, None] + right[None, :, :]
                hits = np.isfinite(sums) & (sums < -sub_pairs[:, None, :])
                xs, zs, ys = np.nonzero(hits)
                for xi, zi, yi in zip(xs.tolist(), zs.tolist(), ys.tolist()):
                    u = int(block_x[xi])
                    v = int(block_y[yi])
                    w = int(block_z[zi])
                    if u == v or u == w or v == w:
                        continue
                    if (min(u, v), max(u, v)) not in scope:
                        continue
                    found.add(tuple(sorted((u, v, w))))
        return sorted(found), network.ledger.total

    # -- local detection --------------------------------------------------------

    def _detect(
        self,
        instance: FindEdgesInstance,
        partition: BlockPartition,
        triples: list[tuple[int, int, int]],
    ) -> set[tuple[int, int]]:
        witness = instance.graph.weights
        pair_w = instance.effective_pair_graph().weights
        found: set[tuple[int, int]] = set()
        for triple in triples:
            # For the multiset {A, B, C}: every way to pick the pair blocks
            # (X, Y) and the witness block Z.
            a, b, c = triple
            for x, y, z in {(a, b, c), (a, c, b), (b, c, a)}:
                found |= self._pairs_with_witness(
                    witness, pair_w, partition.block(x), partition.block(y), partition.block(z)
                )
        return found

    @staticmethod
    def _pairs_with_witness(
        witness: np.ndarray,
        pair_w: np.ndarray,
        block_x: np.ndarray,
        block_y: np.ndarray,
        block_z: np.ndarray,
    ) -> set[tuple[int, int]]:
        """Pairs ``{u ∈ X, v ∈ Y}`` having some witness ``w ∈ Z`` with
        ``witness(u, w) + witness(w, v) < −pair(u, v)``."""
        left = witness[np.ix_(block_x, block_z)]      # (|X|, |Z|)
        right = witness[np.ix_(block_z, block_y)]     # (|Z|, |Y|)
        two_hop = (left[:, :, None] + right[None, :, :]).min(axis=1)  # (|X|, |Y|)
        pairs = pair_w[np.ix_(block_x, block_y)]
        hits = np.isfinite(pairs) & (two_hop < -pairs)
        result: set[tuple[int, int]] = set()
        xs, ys = np.nonzero(hits)
        for xi, yi in zip(xs.tolist(), ys.tolist()):
            u = int(block_x[xi])
            v = int(block_y[yi])
            if u != v:
                result.add((u, v) if u < v else (v, u))
        return result
