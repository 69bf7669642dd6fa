"""Unit tests for the CONGEST-CLIQUE engine: ledger, router, network."""

import pytest

from repro.congest.accounting import RoundLedger
from repro.congest.batch import MessageBatch
from repro.congest.network import CongestClique
from repro.congest.router import balanced, route_rounds
from repro.errors import NetworkError


class TestRoundLedger:
    def test_charge_and_total(self):
        ledger = RoundLedger()
        ledger.charge("a", 2)
        ledger.charge("b", 3)
        ledger.charge("a", 1)
        assert ledger.total == 6
        assert ledger.rounds("a") == 3
        assert ledger.rounds("missing") == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RoundLedger().charge("x", -1)

    def test_merge_with_prefix(self):
        inner = RoundLedger()
        inner.charge("load", 4)
        outer = RoundLedger()
        outer.merge(inner, prefix="sub.")
        assert outer.rounds("sub.load") == 4

    def test_phase_order_preserved(self):
        ledger = RoundLedger()
        for name in ["z", "a", "m"]:
            ledger.charge(name, 1)
        assert [name for name, _ in ledger.phases()] == ["z", "a", "m"]

    def test_snapshot_is_copy(self):
        ledger = RoundLedger()
        ledger.charge("a", 1)
        snap = ledger.snapshot()
        snap["a"] = 99
        assert ledger.rounds("a") == 1

    def test_as_table_contains_total(self):
        ledger = RoundLedger()
        ledger.charge("phase", 5)
        assert "TOTAL" in ledger.as_table()
        assert "(no rounds charged)" in RoundLedger().as_table()


class TestRouter:
    def test_lemma1_balanced_two_rounds(self):
        # No node sources/sinks more than n words ⇒ exactly 2 rounds.
        n = 8
        src = [n] * n
        dst = [n] * n
        assert route_rounds(n, src, dst) == 2.0
        assert balanced(n, src, dst)

    def test_empty_batch_is_free(self):
        assert route_rounds(8, [0] * 8, [0] * 8) == 0.0

    def test_overloaded_source_scales_linearly(self):
        n = 8
        src = [0] * n
        src[3] = 5 * n
        dst = [0] * n
        assert route_rounds(n, src, dst) == 10.0  # 2·⌈5n/n⌉

    def test_destination_load_counts_too(self):
        n = 8
        dst = [0] * n
        dst[0] = 3 * n + 1
        assert route_rounds(n, [0] * n, dst) == 8.0  # 2·⌈(3n+1)/n⌉ = 2·4

    def test_max_of_src_and_dst(self):
        n = 4
        src = [2 * n] + [0] * (n - 1)
        dst = [5 * n] + [0] * (n - 1)
        assert route_rounds(n, src, dst) == 10.0


class TestCongestClique:
    def test_base_scheme(self):
        net = CongestClique(4)
        assert net.scheme_physical("base").tolist() == [0, 1, 2, 3]

    def test_rejects_empty_network(self):
        with pytest.raises(NetworkError):
            CongestClique(0)

    def test_register_scheme_round_robin(self):
        net = CongestClique(3)
        net.register_scheme("virt", 5)
        # Position p is hosted on p % n: positions 3 and 4 wrap around.
        assert net.scheme_physical("virt").tolist() == [0, 1, 2, 0, 1]
        net.register_scheme("empty", 0)
        assert net.scheme_physical("empty").size == 0

    @pytest.mark.parametrize("size", [-1, 2.0, True, "3", None])
    def test_register_scheme_rejects_bad_sizes(self, size):
        net = CongestClique(3)
        with pytest.raises(NetworkError):
            net.register_scheme("virt", size)

    def test_register_base_reserved(self):
        net = CongestClique(3)
        with pytest.raises(NetworkError):
            net.register_scheme("base", 1)

    def test_deliver_charges(self):
        net = CongestClique(4)
        rounds = net.deliver(MessageBatch([0, 2], [1, 1], [1, 1]), "test_phase")
        assert rounds == 2.0
        assert net.ledger.rounds("test_phase") == 2.0

    def test_deliver_rejects_non_batches(self):
        net = CongestClique(4)
        for messages in ([(0, 1, 1)], [], None):
            with pytest.raises(NetworkError, match="MessageBatch"):
                net.deliver(messages, "bad")
        assert net.ledger.total == 0.0

    def test_deliver_cross_scheme(self):
        net = CongestClique(4)
        net.register_scheme("virt", 2)
        rounds = net.deliver(
            MessageBatch([0], [1], [4]),
            "cross",
            scheme="base",
            dst_scheme="virt",
        )
        assert rounds == 2.0

    def test_deliver_unknown_label_raises(self):
        net = CongestClique(4)
        with pytest.raises(NetworkError):
            net.deliver(MessageBatch([0], [99], [1]), "bad")

    def test_virtual_nodes_share_bandwidth(self):
        # Two virtual destinations on the same physical node: their loads add.
        net = CongestClique(2)
        net.register_scheme("virt", 3)  # positions 0, 2 on phys 0; 1 on 1
        rounds = net.deliver(MessageBatch([0, 1], [0, 2], [2, 2]), "shared", dst_scheme="virt")
        # phys 0 sinks 4 words on a 2-node clique: 2·⌈4/2⌉ = 4 rounds.
        assert rounds == 4.0

    def test_broadcast_all_costs_max_payload(self):
        net = CongestClique(4)
        rounds = net.broadcast_all({0: 3, 1: 5}, "bcast")
        assert rounds == 5.0
        assert net.ledger.rounds("bcast") == 5.0

    def test_broadcast_all_empty_free(self):
        net = CongestClique(4)
        assert net.broadcast_all({}, "nothing") == 0.0

    def test_broadcast_virtual_colocation_queues(self):
        net = CongestClique(2)
        net.register_scheme("virt", 3)  # positions 0, 2 share phys 0
        rounds = net.broadcast_all({0: 2, 2: 3}, "bcast", scheme="virt")
        assert rounds == 5.0  # queued on the shared physical node

    def test_broadcast_all_out_of_range_position_raises(self):
        net = CongestClique(2)
        net.register_scheme("virt", 2)
        with pytest.raises(NetworkError, match="out of range"):
            net.broadcast_all({0: 1, 2: 1}, "bcast", scheme="virt")
        assert net.ledger.total == 0.0

    def test_unknown_scheme_raises(self):
        net = CongestClique(2)
        with pytest.raises(NetworkError):
            net.scheme_physical("nope")

    def test_charge_local(self):
        net = CongestClique(2)
        net.charge_local("setup", 7.0)
        assert net.ledger.rounds("setup") == 7.0
