"""Tests for the evaluation-procedure helpers (Figures 4 and 5)."""

import numpy as np
import pytest

import repro
from repro.core.constants import PAPER, PaperConstants
from repro.core.evaluation import (
    PAIR_QUERY_WORDS,
    CodedWeights,
    QueryPlan,
    block_two_hop,
    duplication_count,
    evaluation_rounds,
    query_loads,
    step0_duplication_loads,
)
from repro.graphs.triangles import two_hop_minplus

from tests.reference import block_two_hop_float, query_plan_from_mappings

INF = float("inf")


class TestBlockTwoHop:
    def test_matches_global_minplus_on_full_blocks(self):
        g = repro.random_undirected_graph(12, density=0.7, max_weight=6, rng=1)
        full = two_hop_minplus(g.weights)
        blocks = [np.arange(0, 6), np.arange(6, 12)]
        coded = CodedWeights.encode(g.weights)
        out = coded.decode(block_two_hop(coded, np.arange(12), np.arange(12), blocks))
        # Min across the two fine blocks equals the global two-hop min.
        assert np.allclose(out.min(axis=2), full)

    def test_single_witness_path(self):
        w = np.full((4, 4), INF)
        w[0, 2] = w[2, 0] = 3.0
        w[2, 1] = w[1, 2] = 4.0
        coded = CodedWeights.encode(w)
        out = coded.decode(
            block_two_hop(coded, np.array([0]), np.array([1]), [np.array([2]), np.array([3])])
        )
        assert out[0, 0, 0] == 7.0       # through w=2
        assert np.isinf(out[0, 0, 1])    # block {3} has no path

    def test_shape(self):
        w = np.full((6, 6), INF)
        out = block_two_hop(
            w, np.arange(2), np.arange(2, 5), [np.array([5]), np.array([0, 1])]
        )
        assert out.shape == (2, 3, 2)


def bounded_weights(n, bound, seed, inf_rate=0.3):
    """A random ``n × n`` matrix over ``{−bound..bound} ∪ {+∞}`` that
    attains ``|w| = bound`` (so the code choice is pinned)."""
    gen = np.random.default_rng(seed)
    weights = gen.integers(-bound, bound + 1, size=(n, n)).astype(np.float64)
    weights[gen.random((n, n)) < inf_rate] = INF
    weights[0, 1] = -bound
    return weights


def random_blocks(n, seed):
    """Unsorted, uneven coarse blocks and a fine partition of ``range(n)``."""
    gen = np.random.default_rng(seed)
    order = gen.permutation(n)
    fine_blocks = np.array_split(order, 4)
    return gen.permutation(n)[: n // 2], gen.permutation(n)[: n // 3], fine_blocks


def assert_matches_float(weights, expected_dtype, seed=0):
    block_u, block_v, fine_blocks = random_blocks(weights.shape[0], seed)
    coded = CodedWeights.encode(weights)
    assert coded.dtype == np.dtype(expected_dtype)
    reference = block_two_hop_float(weights, block_u, block_v, fine_blocks)
    for operand in (weights, coded):
        out = block_two_hop(operand, block_u, block_v, fine_blocks)
        assert out.dtype == np.dtype(expected_dtype)
        assert coded.decode(out).tobytes() == reference.tobytes()


class TestCodedTwoHop:
    """The integer-coded kernel stays in its code, decodes to the float64
    broadcast-min byte for byte, and takes the narrowest code Proposition
    2's bound allows."""

    @pytest.mark.parametrize(
        "bound, dtype",
        [
            (1, np.int8), (7, np.int8), (20, np.int8), (21, np.int16),
            (300, np.int16), (5460, np.int16), (5461, np.float64),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_bounded_blocks(self, bound, dtype, seed):
        assert_matches_float(bounded_weights(24, bound, seed), dtype, seed)

    @pytest.mark.parametrize("bound, dtype", [(20, np.int8), (5460, np.int16)])
    def test_all_negative_weights(self, bound, dtype):
        weights = -np.abs(bounded_weights(20, bound, 3, inf_rate=0.0))
        weights[weights == 0] = -1.0
        assert_matches_float(weights, dtype)

    @pytest.mark.parametrize("bound, dtype", [(7, np.int8), (300, np.int16)])
    def test_all_inf_rows_and_columns(self, bound, dtype):
        weights = bounded_weights(20, bound, 4)
        weights[[2, 5, 11], :] = INF
        weights[:, [3, 5, 17]] = INF
        assert_matches_float(weights, dtype)

    def test_all_inf_matrix(self):
        assert_matches_float(np.full((12, 12), INF), np.int8)

    def test_non_integral_weights_stay_float(self):
        weights = bounded_weights(20, 7, 5)
        weights[4, 6] = 2.5
        assert_matches_float(weights, np.float64)

    @pytest.mark.parametrize("special", [-INF, float("nan"), -0.0])
    def test_values_outside_the_code_stay_float(self, special):
        weights = bounded_weights(16, 7, 6)
        weights[3, 4] = special
        block_u, block_v, fine_blocks = random_blocks(16, 6)
        assert CodedWeights.encode(weights).dtype == np.float64
        with np.errstate(invalid="ignore"):  # −∞ + ∞ is NaN in both forms
            out = block_two_hop(weights, block_u, block_v, fine_blocks)
            reference = block_two_hop_float(weights, block_u, block_v, fine_blocks)
        assert out.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("bound", [0, 1, 7, 20, 21, 300, 5460])
    def test_threshold_is_the_decoded_comparison(self, bound):
        # Code values of the dtype against pair weights that are
        # non-integral, far outside the witness bound (the clamp), or
        # infinite: c < threshold(f) ⟺ decode(c) < −f.
        weights = np.full((3, 3), INF)
        weights[0, 1] = weights[1, 0] = bound
        coded = CodedWeights.encode(weights)
        info = np.iinfo(coded.dtype)
        edges = np.array([0, 2 * bound, 2 * bound + 1, coded.sentinel, 2 * coded.sentinel])
        near = (np.concatenate([edges, -edges])[:, None] + np.arange(-3, 4)).ravel()
        spread = np.linspace(-2 * bound - 1, 2 * coded.sentinel, 200).round()
        codes = np.unique(
            np.clip(np.concatenate([near, spread]), -2 * bound, 2 * coded.sentinel)
        ).astype(coded.dtype)
        assert codes.min() >= info.min and codes.max() <= info.max
        pair = np.concatenate([
            near.astype(np.float64), near + 0.5, spread, spread - 0.25,
            [-0.0, -1e9, 1e9, INF, -INF],
        ])
        got = codes[:, None] < coded.threshold(pair)[None, :]
        expected = coded.decode(codes)[:, None] < -pair[None, :]
        assert np.array_equal(got, expected)

    def test_threshold_clamp_is_load_bearing(self):
        # A pair weight below −(sentinel − bound) would read a coded +∞ as
        # a hit without the clamp.
        coded = CodedWeights.encode(bounded_weights(8, 2, 0))
        infinite = np.array([coded.sentinel - coded.bound], dtype=coded.dtype)
        deep = np.array([-float(coded.sentinel + 10)])
        assert infinite[0] < np.ceil(-deep[0])
        assert not (infinite < coded.threshold(deep)).any()

    def test_uncoded_threshold_is_the_negated_weight(self):
        weights = bounded_weights(8, 7, 1)
        weights[2, 3] = 0.5
        coded = CodedWeights.encode(weights)
        pair = np.array([1.5, -2.0, INF])
        assert coded.threshold(pair).tobytes() == (-pair).tobytes()
        assert coded.decode(weights).tobytes() == weights.tobytes()

    def test_sentinel_rule(self):
        coded = CodedWeights.encode(bounded_weights(16, 20, 7))
        assert coded.bound == 20 and coded.sentinel == 61
        # Two sentinels fit the dtype; one sentinel plus the most negative
        # weight still exceeds every finite two-hop sum.
        assert 2 * coded.sentinel <= np.iinfo(coded.dtype).max
        assert coded.sentinel - coded.bound > 2 * coded.bound


class TestDuplicationCount:
    def test_alpha_zero_is_one(self):
        assert duplication_count(PAPER, 256, 0) == 1

    def test_paper_formula(self):
        # 2^α / (720·log n): at n=256 (log=8), α=13 → 8192/5760 ≈ 1.42 → 1;
        # α=14 → 16384/5760 ≈ 2.8 → 3.
        assert duplication_count(PAPER, 256, 13) == 1
        assert duplication_count(PAPER, 256, 14) == 3

    def test_scale_lowers_denominator(self):
        small = PaperConstants(scale=0.01)
        assert duplication_count(small, 256, 8) > duplication_count(PAPER, 256, 8)

    def test_never_below_one(self):
        assert duplication_count(PAPER, 256, 1) == 1


class TestQueryPlan:
    def test_from_mappings_columnarizes_in_dict_order(self):
        plan = query_plan_from_mappings(
            {"s1": 0, "s2": 3},
            {"s1": {"d1": 3, "d2": 5}, "s2": {"d1": 2}},
            {"d1": 1, "d2": 2},
        )
        assert len(plan) == 3
        assert plan.src_phys.tolist() == [0, 0, 3]
        assert plan.dst_phys.tolist() == [1, 2, 1]
        assert plan.pair_counts.tolist() == [3, 5, 2]
        assert plan.src_phys.dtype == np.int64

    def test_misaligned_columns_rejected(self):
        with pytest.raises(ValueError):
            QueryPlan(np.zeros(2, dtype=np.int64), np.zeros(3, dtype=np.int64),
                      np.zeros(2, dtype=np.int64))

    def test_query_loads_bincount_and_cap(self):
        plan = QueryPlan(
            np.array([0, 0, 1]), np.array([2, 3, 2]), np.array([4, 9, 1])
        )
        src, dst = query_loads(4, plan, beta_pairs=5)
        # Counts capped at ⌈β⌉ = 5, times 3 words each.
        assert src.tolist() == [3 * (4 + 5), 3 * 1, 0, 0]
        assert dst.tolist() == [0, 0, 3 * (4 + 1), 3 * 5]


class TestEvaluationRounds:
    def test_simple_plan(self):
        # 4 nodes; one search node queries 2 destinations with 3 pairs each.
        plan = query_plan_from_mappings(
            {"s": 0}, {"s": {"d1": 3, "d2": 3}}, {"d1": 1, "d2": 2}
        )
        rounds = evaluation_rounds(4, plan, beta_pairs=10)
        # 6 pairs · 3 words = 18 source words on a 4-clique: one-way
        # 2·⌈18/4⌉ = 10, times 2 for the answers.
        assert rounds == 20.0

    def test_beta_caps_per_destination(self):
        plan = query_plan_from_mappings({"s": 0}, {"s": {"d": 1000}}, {"d": 1})
        capped = evaluation_rounds(4, plan, beta_pairs=5)
        uncapped = evaluation_rounds(4, plan, beta_pairs=2000)
        assert capped < uncapped
        # 5 pairs · 3 words = 15 → one-way 2·⌈15/4⌉ = 8 → 16 total.
        assert capped == 16.0

    def test_empty_plan_free(self):
        empty = query_plan_from_mappings({}, {}, {})
        assert len(empty) == 0
        assert evaluation_rounds(4, empty, beta_pairs=5) == 0.0

    def test_colocated_virtual_destinations_share_load(self):
        query_plan = {"s": {"d1": 4, "d2": 4}}
        shared = evaluation_rounds(
            4,
            query_plan_from_mappings({"s": 0}, query_plan, {"d1": 1, "d2": 1}),
            beta_pairs=10,
        )
        spread = evaluation_rounds(
            4,
            query_plan_from_mappings({"s": 0}, query_plan, {"d1": 1, "d2": 2}),
            beta_pairs=10,
        )
        assert shared >= spread


class TestStep0Duplication:
    def test_no_duplicates_free(self):
        # Duplicate hosted on the source's own physical node costs nothing.
        rounds = step0_duplication_loads(
            4, np.array([0]), np.array([0]), np.array([100])
        )
        assert rounds == 0.0

    def test_cross_node_duplication_charged(self):
        rounds = step0_duplication_loads(
            4, np.array([0, 0]), np.array([1, 2]), np.array([6, 6])
        )
        # Source ships 2 × 6 words: 2·⌈12/4⌉ = 6 rounds.
        assert rounds == 6.0
