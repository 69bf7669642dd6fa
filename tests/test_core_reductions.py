"""Tests for Proposition 2: distance product via FindEdges binary search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.reductions import distance_product_via_find_edges
from repro.errors import GraphError
from repro.matrix.semiring import distance_product

INF = float("inf")


def random_operands(seed, n=5, max_abs=6, inf_frac=0.2):
    rng = np.random.default_rng(seed)
    a = rng.integers(-max_abs, max_abs + 1, size=(n, n)).astype(float)
    b = rng.integers(-max_abs, max_abs + 1, size=(n, n)).astype(float)
    a[rng.random((n, n)) < inf_frac] = INF
    b[rng.random((n, n)) < inf_frac] = INF
    return a, b


class TestWithReferenceBackend:
    @pytest.mark.parametrize("seed", range(6))
    def test_exact_product(self, seed):
        a, b = random_operands(seed)
        report = distance_product_via_find_edges(a, b, repro.ReferenceFindEdges())
        assert np.array_equal(report.product, distance_product(a, b))

    def test_handles_infinite_rows(self):
        a = np.full((4, 4), INF)
        b = np.zeros((4, 4))
        report = distance_product_via_find_edges(a, b, repro.ReferenceFindEdges())
        assert np.isinf(report.product).all()

    def test_handles_all_zero(self):
        a = np.zeros((3, 3))
        b = np.zeros((3, 3))
        report = distance_product_via_find_edges(a, b, repro.ReferenceFindEdges())
        assert np.array_equal(report.product, np.zeros((3, 3)))

    def test_call_count_logarithmic_in_m(self):
        a, b = random_operands(1, max_abs=4)
        small = distance_product_via_find_edges(a, b, repro.ReferenceFindEdges())
        a2, b2 = random_operands(1, max_abs=64)
        large = distance_product_via_find_edges(a2, b2, repro.ReferenceFindEdges())
        # log2(4·64+1) ≈ 8 vs log2(4·4+1) ≈ 4.1 (+1 infinity call each).
        assert small.find_edges_calls <= 7
        assert large.find_edges_calls <= 11
        assert large.find_edges_calls > small.find_edges_calls

    def test_negative_heavy_entries(self):
        a = np.full((3, 3), -5.0)
        b = np.full((3, 3), -5.0)
        report = distance_product_via_find_edges(a, b, repro.ReferenceFindEdges())
        assert (report.product == -10.0).all()

    def test_mixed_extremes(self):
        a = np.array([[3.0, INF], [-7.0, 0.0]])
        b = np.array([[INF, 2.0], [1.0, INF]])
        report = distance_product_via_find_edges(a, b, repro.ReferenceFindEdges())
        assert np.array_equal(report.product, distance_product(a, b))

    def test_rejects_neg_inf_operand(self):
        a = np.zeros((2, 2))
        a[0, 0] = -INF
        with pytest.raises(GraphError):
            distance_product_via_find_edges(a, np.zeros((2, 2)), repro.ReferenceFindEdges())

    def test_rejects_shape_mismatch(self):
        with pytest.raises(GraphError):
            distance_product_via_find_edges(
                np.zeros((2, 2)), np.zeros((3, 3)), repro.ReferenceFindEdges()
            )


class TestWithDistributedBackends:
    def test_dolev_backend_exact_with_rounds(self):
        a, b = random_operands(3, n=4)
        report = distance_product_via_find_edges(a, b, repro.DolevFindEdges())
        assert np.array_equal(report.product, distance_product(a, b))
        assert report.rounds > 0

    def test_quantum_backend_exact(self):
        from tests.conftest import TEST_CONSTANTS

        a, b = random_operands(4, n=4, max_abs=3)
        backend = repro.QuantumFindEdges(constants=TEST_CONSTANTS, rng=5)
        report = distance_product_via_find_edges(a, b, backend)
        assert np.array_equal(report.product, distance_product(a, b))
        assert report.rounds > 0
        assert report.ledger.total == pytest.approx(report.rounds)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_property_reduction_equals_reference(seed):
    """Binary search over negative-triangle calls always reproduces the
    numpy min-plus product exactly (integer entries, ±inf patterns)."""
    a, b = random_operands(seed, n=4, max_abs=5, inf_frac=0.3)
    report = distance_product_via_find_edges(a, b, repro.ReferenceFindEdges())
    assert np.array_equal(report.product, distance_product(a, b))
