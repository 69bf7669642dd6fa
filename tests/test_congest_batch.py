"""The columnar message plane: batch validation, delivery semantics, and
the object/columnar compatibility-shim equivalence.

The load-bearing property: for any batch of messages, routing it as
per-message :class:`Message` objects and routing it as one columnar
:class:`MessageBatch` must charge *identical* Lemma 1 rounds — the shim is
a representation change, not a semantic one.
"""

import numpy as np
import pytest

from repro.congest.batch import MessageBatch
from repro.congest.message import Message
from repro.congest.network import CongestClique
from repro.errors import NetworkError


def random_batch(rng, num_nodes, num_messages, max_words=7):
    src = rng.integers(0, num_nodes, size=num_messages)
    dst = rng.integers(0, num_nodes, size=num_messages)
    size = rng.integers(1, max_words + 1, size=num_messages)
    return src, dst, size


class TestMessageBatchValidation:
    def test_rejects_misaligned_columns(self):
        with pytest.raises(NetworkError):
            MessageBatch(np.arange(3), np.arange(2), np.ones(3, dtype=np.int64))

    def test_rejects_non_positive_sizes(self):
        with pytest.raises(NetworkError):
            MessageBatch(np.arange(2), np.arange(2), np.array([1, 0]))

    def test_rejects_payloads_without_index(self):
        with pytest.raises(NetworkError):
            MessageBatch(
                np.arange(2), np.arange(2), np.ones(2, dtype=np.int64),
                payloads=["x"],
            )

    def test_rejects_out_of_range_payload_index(self):
        with pytest.raises(NetworkError):
            MessageBatch(
                np.arange(2), np.arange(2), np.ones(2, dtype=np.int64),
                payloads=["x"], payload_index=np.array([0, 1]),
            )

    def test_concatenate(self):
        a = MessageBatch(np.array([0]), np.array([1]), np.array([2]))
        b = MessageBatch(np.array([1]), np.array([0]), np.array([3]))
        merged = MessageBatch.concatenate([a, b, MessageBatch.empty()])
        assert len(merged) == 2
        assert merged.total_words == 5

    def test_empty(self):
        assert len(MessageBatch.empty()) == 0
        assert MessageBatch.empty().total_words == 0


class TestShimEquivalence:
    """Object-based and columnar deliveries charge identical rounds."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_batches_charge_identical_rounds(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(2, 9))
        num_messages = int(rng.integers(1, 120))
        src, dst, size = random_batch(rng, num_nodes, num_messages)

        objects = CongestClique(num_nodes)
        object_rounds = objects.deliver(
            [
                Message(int(s), int(d), None, size_words=int(w))
                for s, d, w in zip(src, dst, size)
            ],
            "phase",
        )
        columnar = CongestClique(num_nodes)
        columnar_rounds = columnar.deliver(
            MessageBatch(src, dst, size), "phase"
        )
        assert columnar_rounds == object_rounds
        assert columnar.ledger.snapshot() == objects.ledger.snapshot()

    @pytest.mark.parametrize("seed", range(5))
    def test_equivalence_across_virtual_schemes(self, seed):
        rng = np.random.default_rng(100 + seed)
        num_nodes = int(rng.integers(2, 7))
        labels = [("virt", i) for i in range(int(rng.integers(1, 4)) * num_nodes + 1)]
        num_messages = int(rng.integers(1, 80))
        src = rng.integers(0, num_nodes, size=num_messages)
        dst = rng.integers(0, len(labels), size=num_messages)
        size = rng.integers(1, 6, size=num_messages)

        objects = CongestClique(num_nodes)
        objects.register_scheme("virt", labels)
        object_rounds = objects.deliver(
            [
                Message(int(s), labels[int(d)], None, size_words=int(w))
                for s, d, w in zip(src, dst, size)
            ],
            "phase",
            scheme="base",
            dst_scheme="virt",
        )
        columnar = CongestClique(num_nodes)
        columnar.register_scheme("virt", labels)
        columnar_rounds = columnar.deliver(
            MessageBatch(src, dst, size), "phase", scheme="base", dst_scheme="virt"
        )
        assert columnar_rounds == object_rounds

    def test_empty_batch_is_free_both_ways(self):
        net = CongestClique(3)
        assert net.deliver([], "phase") == 0.0
        assert net.deliver(MessageBatch.empty(), "phase") == 0.0
        assert net.ledger.total == 0.0


class TestColumnarDelivery:
    def test_size_only_batch_skips_inboxes(self):
        net = CongestClique(3)
        net.deliver(
            MessageBatch(np.array([0, 1]), np.array([2, 2]), np.array([1, 1])),
            "phase",
        )
        assert net.node(2).inbox == []
        assert net.ledger.rounds("phase") == 2.0

    def test_payload_batch_delivers_to_inboxes(self):
        net = CongestClique(3)
        batch = MessageBatch(
            np.array([0, 1, 2]),
            np.array([2, 2, 0]),
            np.array([1, 1, 1]),
            payloads=["hello", "world"],
            payload_index=np.array([0, 1, -1]),  # third message is size-only
        )
        net.deliver(batch, "phase")
        assert net.node(2).drain_inbox() == [(0, "hello"), (1, "world")]
        assert net.node(0).inbox == []

    def test_position_out_of_range_raises(self):
        net = CongestClique(3)
        with pytest.raises(NetworkError):
            net.deliver(
                MessageBatch(np.array([0]), np.array([7]), np.array([1])), "bad"
            )

    def test_scheme_positions_and_physical(self):
        net = CongestClique(2)
        net.register_scheme("virt", ["a", "b", "c"])
        assert net.scheme_positions("virt") == {"a": 0, "b": 1, "c": 2}
        assert net.scheme_physical("virt").tolist() == [0, 1, 0]
        assert net.scheme_physical("base").tolist() == [0, 1]


class TestBroadcastVolume:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_broadcast_all_charge(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(2, 8))
        broadcasters = np.unique(
            rng.integers(0, num_nodes, size=int(rng.integers(1, num_nodes + 1)))
        )
        sizes = rng.integers(1, 9, size=broadcasters.size)

        legacy = CongestClique(num_nodes)
        legacy_rounds = legacy.broadcast_all(
            {
                int(b): (None, int(s))
                for b, s in zip(broadcasters, sizes)
            },
            "bcast",
        )
        columnar = CongestClique(num_nodes)
        columnar_rounds = columnar.broadcast_volume(broadcasters, sizes, "bcast")
        assert columnar_rounds == legacy_rounds
        # The columnar broadcast is payload-elided: no inbox writes.
        assert all(node.inbox == [] for node in columnar.base_nodes())

    def test_empty_is_free(self):
        net = CongestClique(3)
        rounds = net.broadcast_volume(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), "bcast"
        )
        assert rounds == 0.0

    def test_rejects_non_positive_sizes(self):
        net = CongestClique(3)
        with pytest.raises(NetworkError):
            net.broadcast_volume(np.array([0]), np.array([0]), "bcast")
