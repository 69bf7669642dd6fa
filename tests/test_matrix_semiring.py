"""Unit + property tests for the min-plus matrix algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.matrix.semiring import (
    distance_product,
    is_minplus_matrix,
    minplus_closure,
    minplus_power,
)

INF = float("inf")


def brute_product(a, b):
    n, inner = a.shape
    cols = b.shape[1]
    out = np.full((n, cols), INF)
    for i in range(n):
        for j in range(cols):
            for k in range(inner):
                out[i, j] = min(out[i, j], a[i, k] + b[k, j])
    return out


def random_minplus(rng, n, inf_frac=0.3, max_abs=8):
    arr = rng.integers(-max_abs, max_abs + 1, size=(n, n)).astype(float)
    arr[rng.random((n, n)) < inf_frac] = INF
    return arr


class TestDistanceProduct:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        a = random_minplus(rng, 7)
        b = random_minplus(rng, 7)
        assert np.array_equal(distance_product(a, b), brute_product(a, b))

    def test_definition_example(self):
        a = np.array([[1.0, INF], [2.0, 3.0]])
        b = np.array([[5.0, 0.0], [INF, -4.0]])
        c = distance_product(a, b)
        assert c[0, 0] == 6.0      # 1 + 5
        assert c[0, 1] == 1.0      # 1 + 0
        assert c[1, 1] == -1.0     # min(2+0, 3−4)

    def test_all_inf_row(self):
        a = np.full((3, 3), INF)
        b = np.zeros((3, 3))
        assert np.isinf(distance_product(a, b)).all()

    def test_identity_element(self):
        # Min-plus identity: 0 diagonal, +inf elsewhere.
        rng = np.random.default_rng(1)
        a = random_minplus(rng, 6)
        identity = np.full((6, 6), INF)
        np.fill_diagonal(identity, 0.0)
        assert np.array_equal(distance_product(a, identity), a)
        assert np.array_equal(distance_product(identity, a), a)

    def test_rectangular_operands(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 5, size=(3, 4)).astype(float)
        b = rng.integers(0, 5, size=(4, 2)).astype(float)
        assert distance_product(a, b).shape == (3, 2)

    def test_rejects_inner_mismatch(self):
        with pytest.raises(GraphError):
            distance_product(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_rejects_neg_inf(self):
        a = np.zeros((2, 2))
        a[0, 0] = -INF
        with pytest.raises(GraphError):
            distance_product(a, np.zeros((2, 2)))

    def test_rejects_nan(self):
        a = np.zeros((2, 2))
        a[0, 0] = float("nan")
        with pytest.raises(GraphError):
            distance_product(a, np.zeros((2, 2)))


class TestMinplusPower:
    def test_power_one_is_copy(self):
        rng = np.random.default_rng(3)
        a = random_minplus(rng, 5)
        p = minplus_power(a, 1)
        assert np.array_equal(p, a)
        assert p is not a

    def test_power_two(self):
        rng = np.random.default_rng(4)
        a = random_minplus(rng, 5)
        assert np.array_equal(minplus_power(a, 2), distance_product(a, a))

    def test_power_three_associativity(self):
        rng = np.random.default_rng(5)
        a = random_minplus(rng, 5)
        left = distance_product(distance_product(a, a), a)
        assert np.array_equal(minplus_power(a, 3), left)

    def test_rejects_zero_exponent(self):
        with pytest.raises(GraphError):
            minplus_power(np.zeros((2, 2)), 0)

    def test_rejects_non_square(self):
        with pytest.raises(GraphError):
            minplus_power(np.zeros((2, 3)), 2)


class TestClosure:
    def test_closure_is_fixed_point(self):
        # Needs a negative-cycle-free input, else powers decrease forever.
        import repro

        g = repro.random_digraph_no_negative_cycle(8, density=0.5, rng=6)
        a = g.apsp_matrix()
        closure = minplus_closure(a)
        again = distance_product(closure, closure)
        assert np.array_equal(closure, again)

    def test_closure_path_example(self):
        # Chain 0 → 1 → 2 → 3 with unit weights.
        a = np.full((4, 4), INF)
        np.fill_diagonal(a, 0.0)
        a[0, 1] = a[1, 2] = a[2, 3] = 1.0
        closure = minplus_closure(a)
        assert closure[0, 3] == 3.0
        assert np.isinf(closure[3, 0])

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 8, 9, 16, 17])
    def test_squarings_are_ceil_log2_n(self, n):
        # Proposition 3's schedule: ⌈log2 n⌉ products with equal operands;
        # an empty or one-vertex matrix is already its closure.
        calls = []

        def counting_product(a, b):
            assert a is b
            calls.append(1)
            return distance_product(a, b)

        a = np.full((n, n), INF)
        np.fill_diagonal(a, 0.0)
        closure = minplus_closure(a, counting_product)
        assert len(calls) == (int(np.ceil(np.log2(n))) if n else 0)
        assert np.array_equal(closure, a)
        assert closure is not a

    def test_rejects_non_square(self):
        with pytest.raises(GraphError):
            minplus_closure(np.zeros((1, 3)))


class TestValidation:
    def test_accepts_valid(self):
        assert is_minplus_matrix(np.array([[0.0, INF], [3.0, 0.0]]))

    def test_rejects_non_square(self):
        assert not is_minplus_matrix(np.zeros((2, 3)))

    def test_rejects_fractional(self):
        assert not is_minplus_matrix(np.array([[0.5]]))

    def test_max_abs_enforced(self):
        assert is_minplus_matrix(np.array([[4.0]]), max_abs=4)
        assert not is_minplus_matrix(np.array([[5.0]]), max_abs=4)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), n=st.integers(2, 6))
def test_property_associativity(seed, n):
    """(A⋆B)⋆C == A⋆(B⋆C) — the semiring law the squaring schedule relies on."""
    rng = np.random.default_rng(seed)
    a = random_minplus(rng, n)
    b = random_minplus(rng, n)
    c = random_minplus(rng, n)
    left = distance_product(distance_product(a, b), c)
    right = distance_product(a, distance_product(b, c))
    assert np.array_equal(left, right)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), n=st.integers(2, 6))
def test_property_monotone_with_zero_diagonal(seed, n):
    """With zero diagonals, A⋆A ≤ A entrywise (paths can only improve)."""
    rng = np.random.default_rng(seed)
    a = random_minplus(rng, n)
    np.fill_diagonal(a, 0.0)
    squared = distance_product(a, a)
    assert (squared <= a).all()
