"""CONGEST-CLIQUE simulation substrate.

``n`` nodes over a fully connected network exchange messages of ``O(log n)``
bits (one *word*) per link per synchronous round.  The simulator is
word-accurate in what crosses node boundaries and round-accurate in cost:
all communication flows through the columnar message plane of
:mod:`repro.congest.batch` (word counts, no payloads) and is charged by
:func:`repro.congest.router.route_rounds` — the routing lemma of Dolev,
Lenzen and Peled (Lemma 1 of the paper) — over per-physical-node load
histograms.
"""

from repro.congest.accounting import RoundLedger
from repro.congest.batch import MessageBatch
from repro.congest.network import CongestClique
from repro.congest.partitions import BlockPartition, CliquePartitions

__all__ = [
    "MessageBatch",
    "CongestClique",
    "RoundLedger",
    "BlockPartition",
    "CliquePartitions",
]
