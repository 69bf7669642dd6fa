"""The CONGEST-CLIQUE network simulator.

:class:`CongestClique` models ``n`` physical nodes on a complete graph with
per-link bandwidth of one word per round.  Algorithms interact with it
through three operations:

* :meth:`CongestClique.register_scheme` — create a *labeling scheme* of
  ``size`` virtual nodes.  The paper uses four schemes for the same network
  (vertex labels ``V``, triple labels ``T = V × V × V′``, the third scheme
  ``V × V × [√n]``, and the bandwidth-duplication scheme
  ``Tα × [2^α / (720 log n)]``).  Each is a relabeling of the same ``n``
  nodes, so registering one is free and records only its size: a virtual
  node *is* its position, hosted on physical node ``position % n``.
* :meth:`CongestClique.deliver` — route a batch of messages; rounds are
  charged by Lemma 1 on the *physical* source/destination loads (virtual
  nodes hosted by the same physical node share its bandwidth).
* :meth:`CongestClique.broadcast_volume` (and its ``{position: words}``
  front :meth:`CongestClique.broadcast_all`) — concurrent full broadcasts.

Local computation at a node is free (the model only counts
communication), and what the messages carry does not enter the charge: a
round's cost depends only on how many words each node sends and receives.
So the simulator routes word counts — a
:class:`~repro.congest.batch.MessageBatch` of ``(source position,
destination position, size)`` columns — and the protocols compute each
node's received state directly from the instance.  Every charge goes
through :meth:`CongestClique._charge`, which writes the network's
:class:`~repro.congest.accounting.RoundLedger` and reports the charge to the
telemetry collector that was active when the network was built.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable

import numpy as np

from repro import telemetry
from repro.congest.accounting import RoundLedger
from repro.congest.batch import MessageBatch, int_column
from repro.congest.router import route_rounds
from repro.errors import NetworkError


class CongestClique:
    """A synchronous fully connected network of ``num_nodes`` nodes."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise NetworkError(f"need at least one node, got {num_nodes}")
        self.num_nodes = num_nodes
        self.ledger = RoundLedger()
        #: The telemetry collector installed when the network was built, or
        #: ``None``; it sees every charge and never affects one.
        self._collector = telemetry.active()
        #: Registered scheme sizes; the base scheme is one position per
        #: physical node.
        self._schemes: dict[str, int] = {"base": num_nodes}

    # -- labeling schemes ------------------------------------------------

    def register_scheme(self, name: str, size: int) -> None:
        """Create (or replace) a labeling scheme of ``size`` virtual nodes.

        A scheme is a relabeling of the same ``n`` nodes, so registering one
        is free: it records only the size.  A virtual node is its position
        ``0 … size − 1`` and is hosted round-robin on physical node
        ``position % num_nodes``.  When a scheme has more positions than
        physical nodes, several virtual nodes share one physical node (and
        hence its bandwidth); this is the standard virtual-node simulation
        argument and is how the implementation handles ``n`` that is not an
        exact fourth power.  Callers that think of a node as a tuple (the
        triple ``(bu, bv, bw)``, a duplicate ``(triple, y)``) compute its
        position with :func:`numpy.ravel_multi_index` over their grid.
        """
        if name == "base":
            raise NetworkError("the 'base' scheme is reserved")
        if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
            raise NetworkError(
                f"scheme {name!r} size must be an integer, got {size!r}"
            )
        if size < 0:
            raise NetworkError(f"scheme {name!r} size must be >= 0, got {size}")
        self._schemes[name] = int(size)

    def scheme_physical(self, name: str) -> np.ndarray:
        """Physical host per position of a registered scheme —
        ``arange(size) % num_nodes`` — as an array so call sites can build
        columnar batches arithmetically."""
        try:
            size = self._schemes[name]
        except KeyError:
            raise NetworkError(f"unknown labeling scheme {name!r}") from None
        return np.arange(size, dtype=np.int64) % self.num_nodes

    # -- communication ----------------------------------------------------

    def deliver(
        self,
        messages: MessageBatch,
        phase: str,
        *,
        scheme: str = "base",
        dst_scheme: str | None = None,
    ) -> float:
        """Route a batch of messages and charge rounds by Lemma 1.

        ``messages`` is a columnar :class:`MessageBatch` of positions
        in ``scheme`` (sources) and ``dst_scheme`` (destinations, defaulting
        to ``scheme``) with each message's size in words; only the sizes
        and the hosts' loads matter for the charge.  Returns the rounds
        charged.
        """
        if not isinstance(messages, MessageBatch):
            raise NetworkError(
                f"deliver takes a MessageBatch, got {type(messages).__name__}"
            )
        if not len(messages):
            return 0.0
        dst_scheme = dst_scheme or scheme
        src_physical = self.scheme_physical(scheme)
        dst_physical = self.scheme_physical(dst_scheme)
        if int(messages.src.min()) < 0 or int(messages.src.max()) >= src_physical.size:
            raise NetworkError(f"source position out of range in scheme {scheme!r}")
        if int(messages.dst.min()) < 0 or int(messages.dst.max()) >= dst_physical.size:
            raise NetworkError(
                f"destination position out of range in scheme {dst_scheme!r}"
            )
        src_load, dst_load = messages.loads(self.num_nodes, src_physical, dst_physical)
        return self._charge(
            phase, route_rounds(self.num_nodes, src_load, dst_load),
            lambda: (len(messages), messages.total_words),
        )

    def broadcast_all(
        self,
        sizes: Mapping[int, int],
        phase: str,
        *,
        scheme: str = "base",
    ) -> float:
        """Every position in ``sizes`` broadcasts ``sizes[position]`` words
        to all base nodes simultaneously — the ``{position: words}`` front of
        :meth:`broadcast_volume`, which charges it."""
        return self.broadcast_volume(
            list(sizes), list(sizes.values()), phase, scheme=scheme
        )

    def broadcast_volume(
        self,
        positions: np.ndarray,
        size_words: np.ndarray,
        phase: str,
        *,
        scheme: str = "base",
    ) -> float:
        """Concurrent full broadcasts in columnar form.

        ``positions[i]`` (a position in ``scheme``) broadcasts
        ``size_words[i]`` words to every base node.  A node can push one
        word to every other node per round (same word on all ``n − 1``
        links), so concurrent broadcasts of ``k_i`` words each finish in
        ``max_i k_i`` rounds — but when several virtual broadcasters share a
        physical node their words queue, so the charge is the maximum
        *per-physical-node* total broadcast size, computed with one
        histogram.
        """
        positions = int_column(positions, "broadcaster positions")
        sizes = int_column(size_words, "broadcast sizes")
        if positions.shape != sizes.shape or positions.ndim != 1:
            raise NetworkError("positions and size_words must align")
        if positions.size == 0:
            return 0.0
        if sizes.min() <= 0:
            raise NetworkError("broadcast of non-positive size")
        physical = self.scheme_physical(scheme)
        if int(positions.min()) < 0 or int(positions.max()) >= physical.size:
            raise NetworkError(f"broadcaster position out of range in {scheme!r}")
        per_physical = np.bincount(
            physical[positions], weights=sizes.astype(np.float64),
            minlength=self.num_nodes,
        )
        return self._charge(
            phase, float(per_physical.max()),
            lambda: (int(positions.size) * self.num_nodes,
                     int(sizes.sum()) * self.num_nodes),
        )

    def charge_local(self, phase: str, rounds: float = 0.0) -> None:
        """Explicitly record a phase (possibly zero rounds, for reporting).

        The charge is analytic — no messages move — so the collector sees
        zero messages and words.
        """
        self._charge(phase, rounds, lambda: (0, 0))

    def _charge(
        self, phase: str, rounds: float, volume: Callable[[], tuple[int, int]],
    ) -> float:
        """Charge ``rounds`` to ``phase`` in the ledger and report the charge
        to the collector — the one site every primitive charges through, so
        each ledger entry has its telemetry record.  ``volume`` returns
        ``(messages, words)`` and runs only when a collector is attached."""
        self.ledger.charge(phase, rounds)
        if self._collector is not None:
            num_messages, total_words = volume()
            self._collector.record_congest(phase, num_messages, total_words, rounds)
        return rounds

    def __repr__(self) -> str:
        return (
            f"CongestClique(n={self.num_nodes}, schemes={sorted(self._schemes)}, "
            f"rounds={self.ledger.total:.1f})"
        )
