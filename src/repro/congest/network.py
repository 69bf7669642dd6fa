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
* :meth:`CongestClique.broadcast_all` — concurrent full broadcasts.

Node-local computation is free (the model only counts communication).

Routing runs on the columnar message plane of
:mod:`repro.congest.batch`: a :class:`MessageBatch` goes straight to the
vectorized load histograms, and an iterable of per-message
:class:`~repro.congest.message.Message` objects is columnarized first by
the :meth:`MessageBatch.from_messages` compatibility shim — both paths
charge identical Lemma 1 rounds.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Hashable, Iterable, Sequence, Union

import numpy as np

from repro.congest.accounting import RoundLedger
from repro.congest.batch import MessageBatch
from repro.congest.message import Message
from repro.congest.router import route_rounds
from repro.errors import NetworkError
from repro.util.rng import RngLike, ensure_rng, materialize_rng


class Node:
    """A (possibly virtual) network node.

    ``label`` identifies the node within its labeling scheme; ``physical``
    is the index of the physical clique node hosting it.  ``storage`` holds
    node-local state; ``inbox`` receives ``(src_label, payload)`` tuples from
    :meth:`CongestClique.deliver`.

    ``rng`` may be passed as a ready generator or as an integer seed; a seed
    is materialized into a generator lazily on first access.  Registering a
    scheme draws one seed per label from the network generator either way
    (so parent streams are identical), but skips the ``default_rng``
    construction for the overwhelmingly common case of virtual nodes whose
    local randomness is never used.
    """

    __slots__ = ("label", "physical", "storage", "inbox", "_rng")

    def __init__(self, label: Hashable, physical: int, rng) -> None:
        self.label = label
        self.physical = physical
        self.storage: dict[str, Any] = {}
        self.inbox: list[tuple[Hashable, Any]] = []
        self._rng = rng

    @property
    def rng(self) -> np.random.Generator:
        if not isinstance(self._rng, np.random.Generator):
            self._rng = materialize_rng(self._rng)
        return self._rng

    @rng.setter
    def rng(self, value) -> None:
        self._rng = value

    def drain_inbox(self) -> list[tuple[Hashable, Any]]:
        """Return and clear the inbox."""
        received = self.inbox
        self.inbox = []
        return received

    def __repr__(self) -> str:
        return f"Node(label={self.label!r}, physical={self.physical})"


class SchemeView(Mapping):
    """Array-backed lazy ``label → Node`` view of a labeling scheme.

    Registering a scheme stores only the label sequence (for the triple /
    search / duplication schemes an arithmetic constructor from
    :mod:`repro.congest.partitions` that stores no per-label objects), one
    ``int64`` seed array, and the clique size — O(1) Python objects no
    matter how many virtual labels the scheme has.  Everything else is
    implicit:

    * a label's *position* is its index in registration order
      (``position_of`` inverts arithmetic constructors in O(1) and falls
      back to a lazily built dict for plain sequences);
    * its *physical host* is ``position % num_nodes`` (round-robin, the
      virtual-node simulation argument), exposed in bulk as
      :meth:`physical_array` for the columnar router;
    * its :class:`Node` is materialized — with the seed the eager
      registration would have given it, so local RNG streams are identical
      — only when an algorithm touches ``scheme(name)[label]``, and cached
      so node-local state (storage, inbox) persists across lookups.

    The view satisfies the full read-only ``Mapping`` protocol, so call
    sites written against the historical dict-returning API keep working
    unchanged (``items()``/``values()`` simply materialize what they touch).
    """

    __slots__ = ("name", "num_nodes", "_labels", "_seeds", "_nodes",
                 "_positions", "_physical")

    def __init__(
        self, name: str, labels: Sequence[Hashable], seeds: np.ndarray,
        num_nodes: int,
    ) -> None:
        self.name = name
        self.num_nodes = num_nodes
        self._labels = labels
        self._seeds = seeds
        self._nodes: dict[int, Node] = {}
        self._positions: dict[Hashable, int] | None = None
        self._physical: np.ndarray | None = None

    # -- Mapping protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self):
        return iter(self._labels)

    def __getitem__(self, label: Hashable) -> Node:
        return self.node_at(self.position_of(label))

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

    def physical_of(self, label: Hashable) -> int:
        """Physical host of one label (no Node materialization)."""
        return self.position_of(label) % self.num_nodes

    def physical_array(self) -> np.ndarray:
        """Physical host per position — ``arange(len) % num_nodes``."""
        if self._physical is None:
            self._physical = (
                np.arange(len(self._labels), dtype=np.int64) % self.num_nodes
            )
        return self._physical

    def physical_lookup(self) -> "SchemePhysical":
        """A ``label → physical host`` Mapping that never creates Nodes."""
        return SchemePhysical(self)

    # -- lazy nodes --------------------------------------------------------

    def label_at(self, position: int) -> Hashable:
        return self._labels[position]

    def node_at(self, position: int) -> Node:
        """The (cached) Node at ``position``, materialized on first touch."""
        node = self._nodes.get(position)
        if node is None:
            node = Node(
                self._labels[position],
                position % self.num_nodes,
                int(self._seeds[position]),
            )
            self._nodes[position] = node
        return node

    @property
    def materialized_nodes(self) -> int:
        """How many Nodes have been created so far (tests and benchmarks
        assert registration stays at zero)."""
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"SchemeView(name={self.name!r}, labels={len(self._labels)}, "
            f"materialized={len(self._nodes)})"
        )


class SchemePhysical(Mapping):
    """Read-only ``label → physical host`` Mapping over a :class:`SchemeView`
    — what the evaluation-procedure accounting consumes, without forcing a
    Node (or even a dict entry) per label."""

    __slots__ = ("_view",)

    def __init__(self, view: SchemeView) -> None:
        self._view = view

    def __getitem__(self, label: Hashable) -> int:
        return self._view.physical_of(label)

    def __iter__(self):
        return iter(self._view)

    def __len__(self) -> int:
        return len(self._view)

    def __contains__(self, label: object) -> bool:
        return label in self._view


class CongestClique:
    """A synchronous fully connected network of ``num_nodes`` nodes."""

    def __init__(self, num_nodes: int, *, rng: RngLike = None) -> None:
        if num_nodes < 1:
            raise NetworkError(f"need at least one node, got {num_nodes}")
        self.num_nodes = num_nodes
        self.rng = ensure_rng(rng)
        self.ledger = RoundLedger()
        #: Optional observational tracer (see repro.congest.trace); never
        #: affects round charges or delivery semantics.
        self.tracer = None
        self._schemes: dict[str, SchemeView] = {}
        # The base scheme: one label per physical node, identity placement
        # (position == label == physical index, a pure range).
        self._install_scheme("base", range(num_nodes))

    def _draw_node_seeds(self, count: int) -> np.ndarray:
        """The per-label seeds :func:`~repro.util.rng.spawn_rng` would have
        drawn one by one — consumed in a single batched call, which leaves
        the parent stream byte-identical to ``count`` sequential scalar
        draws (property-tested in ``tests/test_step2_equivalence.py``),
        while generator construction stays lazy per node."""
        return self.rng.integers(0, 2**63 - 1, size=count)

    # -- labeling schemes ------------------------------------------------

    def _install_scheme(self, name: str, labels: Sequence[Hashable]) -> SchemeView:
        view = SchemeView(name, labels, self._draw_node_seeds(len(labels)), self.num_nodes)
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
        :class:`~repro.congest.partitions.GridLabels` stay symbolic), seeds
        are drawn in one batched call, and :class:`Node` objects materialize
        lazily through the returned :class:`SchemeView`.  Label sequences
        that declare ``duplicate_free`` (distinct by construction) skip the
        duplicate scan.
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
        """The label → node mapping of a registered scheme (a lazy
        :class:`SchemeView`; reads like the historical dict)."""
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

    def node(self, index: int) -> Node:
        """The base-scheme node with physical index ``index``."""
        return self._schemes["base"][index]

    def base_nodes(self) -> list[Node]:
        """All base-scheme nodes in index order."""
        base = self._schemes["base"]
        return [base.node_at(index) for index in range(self.num_nodes)]

    # -- communication ----------------------------------------------------

    def deliver(
        self,
        messages: Union[MessageBatch, Iterable[Message]],
        phase: str,
        *,
        scheme: str = "base",
        dst_scheme: str | None = None,
    ) -> float:
        """Route a batch of messages and charge rounds by Lemma 1.

        ``messages`` is either a columnar :class:`MessageBatch` (label
        positions resolved against ``scheme``/``dst_scheme``) or any
        iterable of :class:`Message` objects, which the compatibility shim
        columnarizes first; the Lemma 1 charge is identical either way.
        ``scheme``/``dst_scheme`` name the labeling schemes of the message
        sources and destinations (defaulting to the same scheme).  Returns
        the rounds charged.
        """
        dst_scheme = dst_scheme or scheme
        if not isinstance(messages, MessageBatch):
            messages = MessageBatch.from_messages(
                messages,
                self.scheme_positions(scheme),
                self.scheme_positions(dst_scheme),
                src_scheme=scheme,
                dst_scheme=dst_scheme,
            )
        return self._deliver_batch(messages, phase, scheme, dst_scheme)

    def _deliver_batch(
        self, batch: MessageBatch, phase: str, scheme: str, dst_scheme: str
    ) -> float:
        if not len(batch):
            return 0.0
        src_physical = self.scheme_physical(scheme)
        dst_physical = self.scheme_physical(dst_scheme)
        if batch.src.size and (
            int(batch.src.min()) < 0 or int(batch.src.max()) >= src_physical.size
        ):
            raise NetworkError(f"source position out of range in scheme {scheme!r}")
        if batch.dst.size and (
            int(batch.dst.min()) < 0 or int(batch.dst.max()) >= dst_physical.size
        ):
            raise NetworkError(
                f"destination position out of range in scheme {dst_scheme!r}"
            )
        src_load, dst_load = batch.loads(self.num_nodes, src_physical, dst_physical)
        rounds = route_rounds(self.num_nodes, src_load, dst_load)
        self.ledger.charge(phase, rounds)
        if batch.payloads is not None:
            src_view = self._schemes[scheme]
            dst_view = self._schemes[dst_scheme]
            for i in range(len(batch)):
                index = int(batch.payload_index[i])
                if index < 0:
                    continue
                dst_view.node_at(int(batch.dst[i])).inbox.append(
                    (src_view.label_at(int(batch.src[i])), batch.payloads[index])
                )
        if self.tracer is not None:
            self.tracer.record(
                phase,
                "deliver",
                num_messages=len(batch),
                total_words=batch.total_words,
                max_src_load=int(src_load.max()),
                max_dst_load=int(dst_load.max()),
                rounds=rounds,
            )
        return rounds

    def broadcast_all(
        self,
        payloads: dict[Hashable, tuple[Any, int]],
        phase: str,
        *,
        scheme: str = "base",
    ) -> float:
        """Every node in ``payloads`` broadcasts its payload to *all* base
        nodes simultaneously.

        ``payloads[label] = (payload, size_words)``.  A node can push one
        word to every other node per round (same word on all ``n − 1``
        links), so concurrent broadcasts of ``k_i`` words each finish in
        ``max_i k_i`` rounds — but when several virtual broadcasters share a
        physical node their words queue, so the charge is the maximum
        *per-physical-node* total broadcast size.  Payloads are appended to
        every base node's inbox as ``(src_label, payload)``.
        """
        if not payloads:
            return 0.0
        src_view = self.scheme(scheme)
        receivers = self.base_nodes()
        per_physical = [0] * self.num_nodes
        for label, (payload, size_words) in payloads.items():
            if size_words <= 0:
                raise NetworkError(f"broadcast of non-positive size from {label!r}")
            try:
                physical = src_view.physical_of(label)
            except KeyError:
                raise NetworkError(
                    f"unknown broadcaster label {label!r} in scheme {scheme!r}"
                ) from None
            per_physical[physical] += size_words
            for node in receivers:
                node.inbox.append((label, payload))
        rounds = float(max(per_physical))
        self.ledger.charge(phase, rounds)
        if self.tracer is not None:
            total = sum(size for _, size in payloads.values())
            self.tracer.record(
                phase,
                "broadcast",
                num_messages=len(payloads) * self.num_nodes,
                total_words=total * self.num_nodes,
                max_src_load=max(per_physical),
                max_dst_load=total,
                rounds=rounds,
            )
        return rounds

    def broadcast_volume(
        self,
        positions: np.ndarray,
        size_words: np.ndarray,
        phase: str,
        *,
        scheme: str = "base",
    ) -> float:
        """Payload-elided concurrent broadcasts in columnar form.

        ``positions[i]`` (a label position in ``scheme``) broadcasts
        ``size_words[i]`` words to every base node.  The charge is the same
        per-physical-node maximum as :meth:`broadcast_all` — computed with
        one histogram — but no inbox is touched, for protocols whose
        receiver-side state the simulator computes directly (e.g. the
        Bellman–Ford relaxations).
        """
        positions = np.asarray(positions, dtype=np.int64)
        sizes = np.asarray(size_words, dtype=np.int64)
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
        rounds = float(per_physical.max())
        self.ledger.charge(phase, rounds)
        if self.tracer is not None:
            total = int(sizes.sum())
            self.tracer.record(
                phase,
                "broadcast",
                num_messages=int(positions.size) * self.num_nodes,
                total_words=total * self.num_nodes,
                max_src_load=int(per_physical.max()),
                max_dst_load=total,
                rounds=rounds,
            )
        return rounds

    def charge_local(self, phase: str, rounds: float = 0.0) -> None:
        """Explicitly record a phase (possibly zero rounds, for reporting).

        The charge is analytic — no messages move — so the tracer sees a
        ``"local"`` event with zero messages and words.
        """
        self.ledger.charge(phase, rounds)
        if self.tracer is not None:
            self.tracer.record(
                phase,
                "local",
                num_messages=0,
                total_words=0,
                max_src_load=0,
                max_dst_load=0,
                rounds=rounds,
            )

    def __repr__(self) -> str:
        return (
            f"CongestClique(n={self.num_nodes}, schemes={sorted(self._schemes)}, "
            f"rounds={self.ledger.total:.1f})"
        )
