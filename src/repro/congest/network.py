"""The CONGEST-CLIQUE network simulator.

:class:`CongestClique` models ``n`` physical nodes on a complete graph with
per-link bandwidth of one word per round.  Algorithms interact with it
through three operations:

* :meth:`CongestClique.register_scheme` — create a *labeling scheme*: a set
  of (virtual) node labels mapped onto the physical nodes.  The paper uses
  four schemes for the same network (vertex labels ``V``, triple labels
  ``T = V × V × V′``, the third scheme ``V × V × [√n]``, and the
  bandwidth-duplication scheme ``Tα × [2^α / (720 log n)]``); registering a
  scheme is free — it is a relabeling, not communication — and costs O(1)
  Python objects (schemes are lazy array-backed :class:`SchemeView` maps).
* :meth:`CongestClique.deliver` — route a batch of messages; rounds are
  charged by Lemma 1 on the *physical* source/destination loads (virtual
  labels hosted by the same physical node share its bandwidth).
* :meth:`CongestClique.broadcast_volume` (and its label-keyed front
  :meth:`CongestClique.broadcast_all`) — concurrent full broadcasts.

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
from typing import Callable, Hashable, Sequence

import numpy as np

from repro import telemetry
from repro.congest.accounting import RoundLedger
from repro.congest.batch import MessageBatch, int_column
from repro.congest.router import route_rounds
from repro.errors import NetworkError


class SchemeView(Mapping):
    """A labeling scheme: the read-only ``label → physical host`` Mapping.

    Registering a scheme stores only the label sequence (for the triple /
    search / duplication schemes an arithmetic constructor from
    :mod:`repro.congest.partitions` that stores no per-label objects) and
    the clique size — O(1) Python objects no matter how many virtual labels
    the scheme has.  Everything else is implicit:

    * a label's *position* is its index in registration order
      (``position_of`` inverts arithmetic constructors in O(1) and falls
      back to a lazily built dict for plain sequences);
    * its *physical host* is ``position % num_nodes`` (round-robin, the
      virtual-node simulation argument): ``view[label]`` for one label,
      :meth:`physical_array` per position for the columnar router.
    """

    __slots__ = ("name", "num_nodes", "_labels", "_positions", "_physical")

    def __init__(
        self, name: str, labels: Sequence[Hashable], num_nodes: int
    ) -> None:
        self.name = name
        self.num_nodes = num_nodes
        self._labels = labels
        self._positions: dict[Hashable, int] | None = None
        self._physical: np.ndarray | None = None

    # -- Mapping protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self):
        return iter(self._labels)

    def __getitem__(self, label: Hashable) -> int:
        """Physical host of ``label`` (KeyError if absent)."""
        return self.position_of(label) % self.num_nodes

    def __contains__(self, label: object) -> bool:
        try:
            self.position_of(label)
        except KeyError:
            return False
        return True

    # -- positions and physical hosts --------------------------------------

    def position_of(self, label: Hashable) -> int:
        """Position of ``label`` in registration order (KeyError if absent).

        Arithmetic label constructors answer in O(1); plain sequences go
        through the lazily built position dict.
        """
        arithmetic = getattr(self._labels, "position_of", None)
        if arithmetic is not None:
            return arithmetic(label)
        return self.positions()[label]

    def positions(self) -> dict[Hashable, int]:
        """The full ``label → position`` dict, built once on demand."""
        if self._positions is None:
            self._positions = {
                label: position for position, label in enumerate(self._labels)
            }
        return self._positions

    def positions_of_array(self, labels) -> np.ndarray:
        """Vectorized :meth:`position_of` over a ``(k, d)`` array of label
        component rows.

        Label constructors with a vectorized ``positions_of(rows)``
        (``GridLabels``) answer in pure index arithmetic; the rest fall back
        to the lazily built position dict row by row.  Raises :class:`KeyError` when any row is
        not a label of this scheme — the scalar contract, vectorized.
        """
        rows = np.asarray(labels)
        if rows.ndim != 2:
            raise KeyError(labels)
        vectorized = getattr(self._labels, "positions_of", None)
        if vectorized is not None:
            return np.asarray(vectorized(rows), dtype=np.int64)
        positions = self.positions()
        return np.fromiter(
            (positions[tuple(row)] for row in rows.tolist()),
            dtype=np.int64,
            count=int(rows.shape[0]),
        )

    def physical_array(self) -> np.ndarray:
        """Physical host per position — ``arange(len) % num_nodes``."""
        if self._physical is None:
            self._physical = (
                np.arange(len(self._labels), dtype=np.int64) % self.num_nodes
            )
        return self._physical

    def __repr__(self) -> str:
        return f"SchemeView(name={self.name!r}, labels={len(self._labels)})"


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
        self._schemes: dict[str, SchemeView] = {}
        # The base scheme: one label per physical node, identity placement
        # (position == label == physical index, a pure range).
        self._install_scheme("base", range(num_nodes))

    # -- labeling schemes ------------------------------------------------

    def _install_scheme(self, name: str, labels: Sequence[Hashable]) -> SchemeView:
        view = SchemeView(name, labels, self.num_nodes)
        self._schemes[name] = view
        return view

    def register_scheme(self, name: str, labels: Sequence[Hashable]) -> SchemeView:
        """Create (or replace) a labeling scheme.

        Labels are assigned to physical nodes round-robin in the given
        order.  When there are more labels than physical nodes, several
        virtual nodes share one physical node (and hence its bandwidth);
        this is the standard virtual-node simulation argument and is how the
        implementation handles ``n`` that is not an exact fourth power.

        Registration is O(1) Python objects: the labels are kept as given
        (arithmetic constructors such as
        :class:`~repro.congest.partitions.GridLabels` stay symbolic) and the
        returned :class:`SchemeView` computes positions and hosts from them;
        registration draws no randomness.  Label sequences that declare
        ``duplicate_free`` (distinct by construction) skip the duplicate
        scan.
        """
        if name == "base":
            raise NetworkError("the 'base' scheme is reserved")
        if not hasattr(labels, "__getitem__"):
            labels = list(labels)
        if not getattr(labels, "duplicate_free", False):
            if len(set(labels)) != len(labels):
                raise NetworkError(f"scheme {name!r} has duplicate labels")
        return self._install_scheme(name, labels)

    def scheme(self, name: str) -> SchemeView:
        """The ``label → physical host`` :class:`SchemeView` of a
        registered scheme."""
        try:
            return self._schemes[name]
        except KeyError:
            raise NetworkError(f"unknown labeling scheme {name!r}") from None

    def scheme_positions(self, name: str) -> dict[Hashable, int]:
        """Label → position (registration order) of a registered scheme.

        Positions are the label indices the columnar message plane routes
        on; for ``"base"`` the position equals the physical node index.
        Built lazily — the columnar hot path never asks for it.
        """
        return self.scheme(name).positions()

    def scheme_physical(self, name: str) -> np.ndarray:
        """Physical host per label position — ``position % num_nodes`` for
        round-robin schemes, exposed as an array so call sites can build
        columnar batches arithmetically."""
        return self.scheme(name).physical_array()

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

        ``messages`` is a columnar :class:`MessageBatch` of label positions
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
        sizes: Mapping[Hashable, int],
        phase: str,
        *,
        scheme: str = "base",
    ) -> float:
        """Every label in ``sizes`` broadcasts ``sizes[label]`` words to all
        base nodes simultaneously — the label-keyed front of
        :meth:`broadcast_volume`, which charges it."""
        view = self.scheme(scheme)
        try:
            positions = [view.position_of(label) for label in sizes]
        except KeyError as missing:
            raise NetworkError(
                f"unknown broadcaster label {missing.args[0]!r} in scheme {scheme!r}"
            ) from None
        return self.broadcast_volume(
            positions, list(sizes.values()), phase, scheme=scheme
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

        ``positions[i]`` (a label position in ``scheme``) broadcasts
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
