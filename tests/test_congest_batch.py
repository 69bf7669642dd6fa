"""The columnar message plane: batch validation, the Lemma 1 charge of a
delivered batch, and broadcasts.

The load-bearing property: for any batch, the columnar charge equals Lemma
1's ``2·⌈L/n⌉`` computed message by message from each label's physical
host — the bincount histograms are a representation change, not a
semantic one.
"""

import numpy as np
import pytest

from repro.congest.batch import MessageBatch
from repro.congest.network import CongestClique
from repro.congest.router import route_rounds
from repro.errors import NetworkError


def random_batch(rng, num_nodes, num_messages, max_words=7):
    src = rng.integers(0, num_nodes, size=num_messages)
    dst = rng.integers(0, num_nodes, size=num_messages)
    size = rng.integers(1, max_words + 1, size=num_messages)
    return src, dst, size


def lemma1_by_message(num_nodes, src_hosts, dst_hosts, src, dst, size):
    """Lemma 1's charge accumulated one message at a time."""
    src_load = [0] * num_nodes
    dst_load = [0] * num_nodes
    for s, d, w in zip(src.tolist(), dst.tolist(), size.tolist()):
        src_load[src_hosts[s]] += w
        dst_load[dst_hosts[d]] += w
    return route_rounds(num_nodes, src_load, dst_load)


class TestMessageBatchValidation:
    def test_rejects_misaligned_columns(self):
        with pytest.raises(NetworkError):
            MessageBatch(np.arange(3), np.arange(2), np.ones(3, dtype=np.int64))

    def test_rejects_non_positive_sizes(self):
        with pytest.raises(NetworkError):
            MessageBatch(np.arange(2), np.arange(2), np.array([1, 0]))

    @pytest.mark.parametrize(
        "src, dst, size",
        [
            ([0], [1], [1.5]),  # would charge 1 word if truncated
            ([0], [1], [2.0]),
            ([0.5], [1], [1]),
            ([0], [1.9], [1]),
            ([0], [1], [True]),
            ([0], [1], ["2"]),
        ],
    )
    def test_rejects_non_integer_columns(self, src, dst, size):
        with pytest.raises(NetworkError, match="integers"):
            MessageBatch(src, dst, size)

    def test_empty_columns_of_any_dtype_are_valid(self):
        batch = MessageBatch([], np.empty(0), np.empty(0, dtype=np.float32))
        assert len(batch) == 0 and batch.size_words.dtype == np.int64

    def test_builders_reject_fractional_words(self):
        with pytest.raises(NetworkError):
            MessageBatch.from_index_arrays([0, 1], [1, 0], 1.5)
        with pytest.raises(NetworkError):
            MessageBatch.from_cross_product([0, 1], [2], words=2.5)
        with pytest.raises(NetworkError):
            MessageBatch.from_range_product([0], [2], [1], [1.5])
        with pytest.raises(NetworkError):
            MessageBatch.from_range_product([0.5], [2], [1], [1])
        with pytest.raises(NetworkError):
            MessageBatch.to_range_product([1], [0], [2], 0.5)

    def test_concatenate(self):
        a = MessageBatch(np.array([0]), np.array([1]), np.array([2]))
        b = MessageBatch(np.array([1]), np.array([0]), np.array([3]))
        merged = MessageBatch.concat([a, b, MessageBatch.empty()])
        assert len(merged) == 2
        assert merged.total_words == 5

    def test_empty(self):
        assert len(MessageBatch.empty()) == 0
        assert MessageBatch.empty().total_words == 0


class TestLemma1Charge:
    """The columnar charge equals Lemma 1 accumulated message by message."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_batches_charge_lemma1(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(2, 9))
        num_messages = int(rng.integers(1, 120))
        src, dst, size = random_batch(rng, num_nodes, num_messages)

        net = CongestClique(num_nodes)
        rounds = net.deliver(MessageBatch(src, dst, size), "phase")
        hosts = list(range(num_nodes))
        assert rounds == lemma1_by_message(num_nodes, hosts, hosts, src, dst, size)
        assert net.ledger.snapshot() == {"phase": rounds}

    @pytest.mark.parametrize("seed", range(5))
    def test_virtual_schemes_charge_their_hosts(self, seed):
        rng = np.random.default_rng(100 + seed)
        num_nodes = int(rng.integers(2, 7))
        num_virtual = int(rng.integers(1, 4)) * num_nodes + 1
        num_messages = int(rng.integers(1, 80))
        src = rng.integers(0, num_nodes, size=num_messages)
        dst = rng.integers(0, num_virtual, size=num_messages)
        size = rng.integers(1, 6, size=num_messages)

        net = CongestClique(num_nodes)
        net.register_scheme("virt", num_virtual)
        rounds = net.deliver(
            MessageBatch(src, dst, size), "phase", scheme="base", dst_scheme="virt"
        )
        dst_hosts = [position % num_nodes for position in range(num_virtual)]
        assert rounds == lemma1_by_message(
            num_nodes, list(range(num_nodes)), dst_hosts, src, dst, size
        )

    def test_empty_batch_is_free(self):
        net = CongestClique(3)
        assert net.deliver(MessageBatch.empty(), "phase") == 0.0
        assert net.ledger.total == 0.0


class TestColumnarDelivery:
    def test_size_only_batch_charges(self):
        net = CongestClique(3)
        net.deliver(
            MessageBatch(np.array([0, 1]), np.array([2, 2]), np.array([1, 1])),
            "phase",
        )
        assert net.ledger.rounds("phase") == 2.0

    def test_position_out_of_range_raises(self):
        net = CongestClique(3)
        with pytest.raises(NetworkError):
            net.deliver(
                MessageBatch(np.array([0]), np.array([7]), np.array([1])), "bad"
            )


class TestBroadcastVolume:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_broadcast_all_charge(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(2, 8))
        broadcasters = np.unique(
            rng.integers(0, num_nodes, size=int(rng.integers(1, num_nodes + 1)))
        )
        sizes = rng.integers(1, 9, size=broadcasters.size)

        labelled = CongestClique(num_nodes)
        labelled_rounds = labelled.broadcast_all(
            {int(b): int(s) for b, s in zip(broadcasters, sizes)}, "bcast"
        )
        columnar = CongestClique(num_nodes)
        columnar_rounds = columnar.broadcast_volume(broadcasters, sizes, "bcast")
        assert columnar_rounds == labelled_rounds
        # Colocated broadcasters queue: the charge is the largest
        # per-host total, recomputed here one broadcaster at a time.
        per_host = [0] * num_nodes
        for b, s in zip(broadcasters.tolist(), sizes.tolist()):
            per_host[b] += s
        assert columnar_rounds == max(per_host)

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

    def test_rejects_non_integer_columns(self):
        net = CongestClique(3)
        with pytest.raises(NetworkError, match="integers"):
            net.broadcast_volume(np.array([0]), np.array([1.5]), "bcast")
        with pytest.raises(NetworkError, match="integers"):
            net.broadcast_volume(np.array([0.5]), np.array([1]), "bcast")
        with pytest.raises(NetworkError, match="integers"):
            net.broadcast_all({0: 2.5}, "bcast")
        assert net.ledger.total == 0.0
