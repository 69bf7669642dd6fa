"""Tests for the programmatic sweep API."""

import pytest

from repro.analysis.sweeps import SweepPoint, fit, sweep_compute_pairs, sweep_phase_rounds
from repro.core.constants import PaperConstants

from tests.conftest import TEST_CONSTANTS


class TestSweepComputePairs:
    def test_basic_sweep(self):
        points = sweep_compute_pairs([16, 24], constants=TEST_CONSTANTS, rng=1)
        assert [point.size for point in points] == [16, 24]
        for point in points:
            assert point.rounds > 0
            assert point.false_positives == 0
            assert "coverage" in point.details

    def test_workload_selection(self):
        points = sweep_compute_pairs(
            [16], constants=TEST_CONSTANTS, workload="bipartite_like", rng=2
        )
        assert points[0].truth_size == 0
        assert points[0].exact

    def test_classical_mode_exact(self):
        points = sweep_compute_pairs(
            [16], constants=TEST_CONSTANTS, search_mode="classical", rng=3
        )
        assert points[0].exact

    def test_deterministic_given_seed(self):
        a = sweep_compute_pairs([16], constants=TEST_CONSTANTS, rng=7)
        b = sweep_compute_pairs([16], constants=TEST_CONSTANTS, rng=7)
        assert a[0].rounds == b[0].rounds
        assert a[0].false_negatives == b[0].false_negatives


class TestSweepHelpers:
    def test_fit_on_synthetic_points(self):
        points = [
            SweepPoint(size=n, rounds=2.0 * n ** 0.5, truth_size=0,
                       false_positives=0, false_negatives=0)
            for n in (16, 64, 256)
        ]
        exponent, coeff, r2 = fit(points)
        assert exponent == pytest.approx(0.5)
        assert coeff == pytest.approx(2.0)
        assert r2 == pytest.approx(1.0)

    def test_fit_custom_field(self):
        points = [
            SweepPoint(size=n, rounds=1.0, truth_size=n * 3,
                       false_positives=0, false_negatives=0)
            for n in (16, 64)
        ]
        exponent, _, _ = fit(points, value=lambda p: p.truth_size)
        assert exponent == pytest.approx(1.0)

    def test_phase_rounds_extracts_dict_sums(self):
        points = [
            SweepPoint(
                size=16, rounds=1.0, truth_size=0, false_positives=0,
                false_negatives=0,
                details={"search_rounds_per_alpha": {0: 5.0, 1: 7.0}},
            )
        ]
        assert sweep_phase_rounds(points, "search_rounds_per_alpha") == [12.0]

    def test_phase_rounds_extracts_scalars(self):
        points = [
            SweepPoint(
                size=16, rounds=1.0, truth_size=0, false_positives=0,
                false_negatives=0, details={"coverage": 0.5},
            )
        ]
        assert sweep_phase_rounds(points, "coverage") == [0.5]


class TestSweepApspEngine:
    def test_sync_sweep_exact_and_counted(self):
        from repro.analysis.sweeps import sweep_apsp_engine

        points = sweep_apsp_engine([8, 12], seeds=(0, 1), solver="floyd-warshall")
        assert [point.key for point in points] == [
            (8, 0), (8, 1), (12, 0), (12, 1),
        ]
        assert all(point.exact for point in points)
        assert all(not point.cache_hit for point in points)

    def test_repeated_sweep_hits_shared_store(self):
        from repro.analysis.sweeps import sweep_apsp_engine
        from repro.service import ResultStore

        store = ResultStore()
        first = sweep_apsp_engine([8, 12], solver="floyd-warshall", store=store)
        second = sweep_apsp_engine([8, 12], solver="floyd-warshall", store=store)
        assert all(not point.cache_hit for point in first)
        assert all(point.cache_hit for point in second)
        assert [p.digest for p in first] == [p.digest for p in second]

    def test_parallel_sweep_matches_truth(self, slow_solver):
        from repro.analysis.sweeps import sweep_apsp_engine

        points = sweep_apsp_engine(
            [8, 10, 12], seeds=(0, 1), solver=slow_solver(0.15), workers=2
        )
        assert all(point.exact for point in points)
        assert len({point.worker_pid for point in points}) >= 2

    def test_zero_workers_is_rejected(self):
        from repro.analysis.sweeps import sweep_apsp_engine

        with pytest.raises(ValueError, match="max_workers must be >= 1"):
            sweep_apsp_engine([8], solver="floyd-warshall", workers=0)
