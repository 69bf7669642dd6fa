"""A Censor-Hillel-style classical distance-product APSP baseline.

Censor-Hillel et al. ("Algebraic methods in the congested clique") solve
general APSP in ``Õ(n^{1/3} log W)`` rounds — the bound the paper's quantum
algorithm breaks.  The semiring core is the cube-partition distance
product: each of the ``≈ n`` block triples ``(A, B, C)`` is owned by one
node, which gathers ``A[A, C]`` and ``B[C, B]`` (``Θ(n^{4/3})`` words ⇒
``O(n^{1/3})`` rounds), computes the local min-plus contribution, and ships
the ``|A| × |B|`` partial results to the row owners for the final min
(another ``Θ(n^{4/3})`` words per node).  Repeated squaring then gives APSP
in ``O(n^{1/3} log n)`` rounds; the ``log W`` factor of the paper's bound
comes from bit-by-bit weight handling that the simulator does not need to
reproduce (weights fit in one model word here), so this baseline is — if
anything — charged *fewer* rounds, making the measured quantum advantage
conservative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.congest.accounting import RoundLedger
from repro.congest.batch import MessageBatch
from repro.congest.network import CongestClique
from repro.congest.partitions import BlockPartition
from repro.graphs.digraph import WeightedDigraph
from repro.matrix.apsp import apsp_via_product
from repro.matrix.semiring import distance_product


def distributed_minplus_product(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, RoundLedger]:
    """One distributed distance product; returns ``(A ⋆ B, ledger)``.

    The numeric result is computed by the same min-plus kernel as the
    centralized reference (the block decomposition is exact, not
    approximate); the ledger charges the exact Lemma 1 cost of the gather
    and aggregate traffic of the cube partition.  Deterministic: it takes
    no generator.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("operands must be square matrices of equal shape")
    n = a.shape[0]
    network = CongestClique(n)
    collector = telemetry.active()
    if collector is not None:
        collector.attach(network)
    num_blocks = max(1, round(n ** (1.0 / 3.0)))
    partition = BlockPartition(n, min(num_blocks, n))
    q = partition.num_blocks
    triples = [(x, y, z) for x in range(q) for y in range(q) for z in range(q)]
    network.register_scheme("ch_triples", triples)

    gather, aggregate = censor_hillel_batches(partition, q)
    network.deliver(gather, "ch.gather", scheme="base", dst_scheme="ch_triples")
    network.deliver(
        aggregate, "ch.aggregate", scheme="ch_triples", dst_scheme="base"
    )

    return distance_product(a, b), network.ledger


def censor_hillel_batches(
    partition: BlockPartition, q: int
) -> tuple[MessageBatch, MessageBatch]:
    """The cube-partition traffic as arithmetic batches.

    Triple position ``p`` decomposes as ``(x, y, z) = (p // q², (p // q) % q,
    p % q)``.  The gather is two range-product families — triple ``p`` pulls
    ``A[X, Z]`` rows from ``X``'s vertices (``|Z|`` words each) and
    ``B[Z, Y]`` rows from ``Z``'s vertices (``|Y|`` words each) — and the
    aggregate is the mirrored scatter of the ``|Y|``-wide partial rows back
    to the owners in ``X``.  The loop form survives as
    :func:`repro.core._reference.censor_hillel_batches_loops`.
    """
    starts = partition.block_starts()
    sizes = partition.block_sizes()
    positions = np.arange(q * q * q, dtype=np.int64)
    x = positions // (q * q)
    y = (positions // q) % q
    z = positions % q
    gather = MessageBatch.concat(
        [
            MessageBatch.from_range_product(starts[x], sizes[x], positions, sizes[z]),
            MessageBatch.from_range_product(starts[z], sizes[z], positions, sizes[y]),
        ]
    )
    aggregate = MessageBatch.to_range_product(positions, starts[x], sizes[x], sizes[y])
    return gather, aggregate


@dataclass
class ClassicalAPSPReport:
    """Result of the classical baseline (mirrors ``APSPReport``)."""

    distances: np.ndarray
    rounds: float
    squarings: int
    ledger: RoundLedger = field(default_factory=RoundLedger)


class CensorHillelAPSP:
    """Classical ``Õ(n^{1/3})``-round APSP by repeated distributed squaring
    (Proposition 3's :func:`~repro.matrix.apsp.apsp_via_product` driving
    :func:`distributed_minplus_product`).  Deterministic: it takes no
    generator."""

    def solve(self, graph: WeightedDigraph) -> ClassicalAPSPReport:
        n = graph.num_vertices
        ledger = RoundLedger()
        totals: list[float] = []

        def square(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            step = len(totals)
            with telemetry.span("baseline.censor_hillel_squaring", n=n, step=step):
                product, product_ledger = distributed_minplus_product(a, b)
            ledger.merge(product_ledger, prefix=f"squaring{step}.")
            totals.append(product_ledger.total)
            return product

        distances = apsp_via_product(graph, square)
        rounds = 0.0
        for total in totals:  # left to right, as the squarings ran
            rounds += total
        return ClassicalAPSPReport(
            distances=distances, rounds=rounds, squarings=len(totals),
            ledger=ledger,
        )
