"""RNG consumption contract v2 ≡ v1 — the property-tested equivalence.

``rng_contract="v2"`` (the default since the batched-contract PR) draws all
active lanes' corruption flags and measurement batches from **one** batch
generator per class instead of walking per-lane generator streams.  The
contract governs Step 3 only: Step 2 draws one uniform block per segment
under both contracts.  The variates are no longer byte-identical to the sequential reference (v1, kept
in :mod:`repro.core._reference` and selectable everywhere), so correctness
here is *property*-based, with fixed seeds throughout (every test is
deterministic — a pass today is a pass forever):

* validity — everything v2 reports found is a true solution;
* distributional equivalence — per-search measurement marginals, per-lane
  round charges, and corruption counts match v1's empirical distributions
  under two-sample χ² tests against committed α=0.001 critical values;
* corruption frequency — within the Lemma-5 deviation-bound envelope
  (mean ``Σ δ_r``, 5σ Binomial slack);
* charge identity — for the same schedule the round/ledger charges of a
  full Step-3 (and full ComputePairs) run are identical under both
  contracts whenever a class cannot finish early (every committed
  simulation-regime table; see ``benchmarks/test_e1_apsp_rounds.py`` for
  the one pinned exception);
* committed-table regression — the v1 path regenerates every committed
  E1/E11 round value exactly; v2 reproduces E11's unchanged;
* telemetry — v2's batched draws land on the open span with exact
  per-call/per-element counts, and a traced v2 solve is self-consistent;
* pinned stream — v2's exact outputs on fixed seeds (a few classes and one
  ComputePairs solve) hash to recorded SHA-256 digests, so any change to
  the batch generator's draw order fails here, not only in perfbench.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.core.constants import PaperConstants
from repro.core.problems import FindEdgesInstance
from repro.core.quantum_step3 import run_step3
from repro.errors import QuantumSimulationError
from repro.quantum.batched import RNG_CONTRACTS, BatchedMultiSearch, _LaneTable
from repro.telemetry import report as telemetry_report

from test_step3_equivalence import CONSTANTS, build_env

pytestmark = pytest.mark.rng_contract

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"

#: Upper χ² critical values at α = 0.001 by degrees of freedom — committed
#: constants (no scipy dependency, no tunable threshold at runtime).
CHI2_CRITICAL_001 = {
    1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515, 6: 22.458,
    7: 24.322, 8: 26.124, 9: 27.877, 10: 29.588, 11: 31.264, 12: 32.909,
}


def chi_square_two_sample(counts_a, counts_b):
    """Two-sample χ² statistic over shared categories (zero cells dropped).

    With unequal totals the standard scaling ``K1 = √(N2/N1)``,
    ``K2 = √(N1/N2)`` applies; df = (number of non-empty cells) − 1.
    """
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    keep = (a + b) > 0
    a, b = a[keep], b[keep]
    k1 = math.sqrt(b.sum() / a.sum())
    k2 = math.sqrt(a.sum() / b.sum())
    stat = float((((k1 * a - k2 * b) ** 2) / (a + b)).sum())
    return stat, a.size - 1


def assert_distributions_close(counts_a, counts_b):
    stat, df = chi_square_two_sample(counts_a, counts_b)
    if df == 0:  # single shared category — identical support, nothing to test
        return
    assert df in CHI2_CRITICAL_001, f"df={df} outside committed table"
    assert stat <= CHI2_CRITICAL_001[df], (stat, df)


def make_lanes(structure_seed, *, num_lanes, max_items=6, max_searches=2,
               solution_rate=0.5, zero_solutions=False):
    """A fixed random lane structure (the *structure* seed is independent of
    the per-run consumption seeds the tests sweep)."""
    rng = np.random.default_rng(structure_seed)
    lanes = []
    for index in range(num_lanes):
        num_items = int(rng.integers(2, max_items + 1))
        num_searches = int(rng.integers(1, max_searches + 1))
        if zero_solutions:
            table = np.zeros((num_searches, num_items), dtype=bool)
        else:
            table = rng.random((num_searches, num_items)) < solution_rate
        lanes.append((f"lane{index}", num_items, table))
    return lanes


def run_contract(lanes, *, contract, seed, beta=None,
                 eval_rounds=2.0, amplification=12.0, batch_rng=None):
    """Run one batched multi-search exactly the way Step 3 does: one seed
    column drawn from the driver generator; per-lane children under v1, the
    whole column as the batch seed under v2."""
    seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=len(lanes))
    if batch_rng is None and contract == "v2":
        batch_rng = seeds
    batched = BatchedMultiSearch(
        beta=beta,
        eval_rounds=eval_rounds,
        amplification=amplification,
        rng_contract=contract,
        batch_rng=batch_rng,
    )
    for (key, num_items, table), lane_seed in zip(lanes, seeds):
        batched.add(key, num_items, table, rng=np.random.default_rng(int(lane_seed)))
    return batched


class TestContractSurface:
    def test_contract_registry(self):
        assert RNG_CONTRACTS == ("v1", "v2")

    def test_batched_rejects_unknown_contract(self):
        with pytest.raises(QuantumSimulationError, match="rng_contract"):
            BatchedMultiSearch(rng_contract="v3")

    def test_step3_rejects_unknown_contract(self):
        with pytest.raises(ValueError, match="rng_contract"):
            run_step3(None, None, None, None, None, rng=0, rng_contract="v0")

    def test_compute_pairs_rejects_unknown_contract(self):
        with pytest.raises(ValueError, match="rng_contract"):
            repro.compute_pairs(None, constants=None, rng=0, rng_contract="v0")


class TestFoundValuesAreSolutions:
    """v2 validity: every reported element really solves its search."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("beta", [None, 3.0])
    @pytest.mark.parametrize("early_stop", [True, False])
    def test_found_values_solve_their_search(self, seed, beta, early_stop):
        lanes = make_lanes(11, num_lanes=4, max_items=8, solution_rate=0.4)
        batched = run_contract(lanes, contract="v2", seed=seed, beta=beta)
        reports = batched.run([1, 2, 0, 3, 2, 1, 2], early_stop=early_stop)
        for (key, num_items, table) in lanes:
            found = reports[key].found
            for search, element in enumerate(found):
                if element >= 0:
                    assert element < num_items
                    assert table[search, element], (key, search, element)

    def test_zero_solution_lanes_find_nothing(self):
        lanes = make_lanes(13, num_lanes=3, zero_solutions=True)
        batched = run_contract(lanes, contract="v2", seed=0, beta=1.5)
        reports = batched.run([1, 2, 1, 2])
        for key, _items, _table in lanes:
            assert (reports[key].found == -1).all()
            # Never able to finish early → charged the whole schedule.
            assert reports[key].repetitions == 4


class TestMeasurementMarginals:
    """Per-search found-element marginals and per-lane charge distributions
    match v1 empirically (two-sample χ², N seeds per contract)."""

    SCHEDULE = [1, 2, 0, 3, 1, 2, 1, 3]
    NUM_SEEDS = 240

    def collect(self, contract, beta):
        lanes = make_lanes(5, num_lanes=3, max_items=6, max_searches=2)
        # Per (lane, search): histogram over categories {-1, 0, .., items-1}.
        marginals = [
            np.zeros((table.shape[0], num_items + 1), dtype=np.int64)
            for _key, num_items, table in lanes
        ]
        repetition_hist = [
            np.zeros(len(self.SCHEDULE) + 1, dtype=np.int64) for _ in lanes
        ]
        corrupted_hist = [
            np.zeros(len(self.SCHEDULE) + 1, dtype=np.int64) for _ in lanes
        ]
        for seed in range(self.NUM_SEEDS):
            batched = run_contract(lanes, contract=contract, seed=seed, beta=beta)
            reports = batched.run(self.SCHEDULE)
            for index, (key, _items, _table) in enumerate(lanes):
                report = reports[key]
                for search, element in enumerate(report.found):
                    marginals[index][search, element + 1] += 1
                repetition_hist[index][report.repetitions] += 1
                corrupted_hist[index][report.corrupted_repetitions] += 1
        return lanes, marginals, repetition_hist, corrupted_hist

    @pytest.mark.parametrize("beta", [None, 2.0])
    def test_marginals_match_v1(self, beta):
        lanes, m1, r1, c1 = self.collect("v1", beta)
        _lanes, m2, r2, c2 = self.collect("v2", beta)
        for index in range(len(lanes)):
            for search in range(m1[index].shape[0]):
                assert_distributions_close(m1[index][search], m2[index][search])
            assert_distributions_close(r1[index], r2[index])
            assert_distributions_close(c1[index], c2[index])


class TestCorruptionBounds:
    """Lemma 5 envelope: with zero-solution lanes (full schedule exposure)
    and finite β, corruption counts sit at mean ``Σ δ_r`` within 5σ."""

    SCHEDULE = [1, 1, 2, 1, 1, 2]
    NUM_SEEDS = 150
    BETA = 2.0

    def totals(self, contract):
        # Fixed shape chosen so every δ_r sits strictly inside (0, 1):
        # 3 searches over 10 items at β=2 gives δ ∈ {0.18.., 0.36..}.
        lanes = [
            (f"lane{index}", 10, np.zeros((3, 10), dtype=bool))
            for index in range(4)
        ]
        total = 0
        deltas = None
        for seed in range(self.NUM_SEEDS):
            batched = run_contract(
                lanes, contract=contract, seed=seed, beta=self.BETA
            )
            reports = batched.run(self.SCHEDULE)
            total += sum(reports[key].corrupted_repetitions for key, _i, _t in lanes)
            if deltas is None:
                # δ per (lane, repetition) — structural, identical every run.
                deltas = _LaneTable(
                    batched._lanes, np.asarray(self.SCHEDULE), batched.eval_rounds,
                    batched.beta,
                ).delta
        return total, deltas

    @pytest.mark.parametrize("contract", ["v1", "v2"])
    def test_corruption_within_lemma5_envelope(self, contract):
        total, deltas = self.totals(contract)
        assert 0.0 < deltas.min() and deltas.max() < 1.0  # non-degenerate
        mean_per_run = float(deltas.sum())
        var_per_run = float((deltas * (1.0 - deltas)).sum())
        expected = self.NUM_SEEDS * mean_per_run
        sigma = math.sqrt(self.NUM_SEEDS * var_per_run)
        assert abs(total - expected) <= 5.0 * sigma, (total, expected, sigma)


def run_step3_once(n, seed, contract):
    network, partitions, assignment, node_pairs = build_env(n, seed, CONSTANTS)
    generator = np.random.default_rng(seed + 77)
    report = run_step3(
        network, partitions, CONSTANTS, assignment, node_pairs,
        rng=generator, search_mode="quantum", rng_contract=contract,
    )
    return report, network.ledger.snapshot(), generator.random(8)


class TestChargeIdentity:
    """Same schedule ⇒ same round/ledger charges under both contracts.

    The driver generator's stream (schedule + seed-column draws) is
    contract-independent by construction; the *charges* additionally agree
    whenever some lane of each class runs the whole schedule — true on all
    these configs (and every committed simulation-regime table)."""

    @pytest.mark.parametrize(
        "n,seed", [(16, 0), (16, 1), (16, 2), (16, 3), (48, 0), (48, 1), (128, 0)]
    )
    def test_step3_charges_identical(self, n, seed):
        report1, ledger1, driver1 = run_step3_once(n, seed, "v1")
        report2, ledger2, driver2 = run_step3_once(n, seed, "v2")
        assert report1.eval_rounds_per_alpha == report2.eval_rounds_per_alpha
        assert report1.search_rounds_per_alpha == report2.search_rounds_per_alpha
        assert report1.duplication_per_alpha == report2.duplication_per_alpha
        assert report1.total_searches == report2.total_searches
        assert ledger1 == ledger2
        assert np.array_equal(driver1, driver2)

    def test_compute_pairs_charges_identical(self):
        outcomes = {}
        for contract in RNG_CONTRACTS:
            graph = repro.random_undirected_graph(
                81, density=0.3, max_weight=6, rng=4
            )
            solution = repro.compute_pairs(
                FindEdgesInstance(graph),
                constants=CONSTANTS,
                rng=4,
                rng_contract=contract,
            )
            assert solution.details["rng_contract"] == contract
            outcomes[contract] = solution
        assert outcomes["v1"].rounds == outcomes["v2"].rounds
        assert (
            outcomes["v1"].ledger.snapshot() == outcomes["v2"].ledger.snapshot()
        )


def load_metrics(name):
    return json.loads((RESULTS / f"{name}.json").read_text())


class TestCommittedTables:
    """The committed benchmark round columns, regenerated in-process.

    v1 must reproduce them byte-for-byte (it *is* the pre-contract
    consumption); v2 must leave the simulation-regime (E11) rounds
    unchanged — the charge identity above, exercised end to end."""

    def test_v1_regenerates_e1_rounds(self):
        # Mirrors benchmarks/test_e1_apsp_rounds.py::run_quantum (pinned to
        # v1 there — keep the two in sync).
        constants = PaperConstants(scale=0.5)
        for row in load_metrics("e1_apsp_rounds"):
            graph = repro.random_digraph_no_negative_cycle(
                row["n"], density=0.5, max_weight=6, rng=7
            )
            backend = repro.QuantumFindEdges(
                constants=constants, rng=7, rng_contract="v1"
            )
            report = repro.QuantumAPSP(backend=backend).solve(graph)
            assert report.rounds == row["rounds"], row

    @pytest.mark.parametrize("contract", ["v1", "v2"])
    def test_e11_rounds_contract_invariant(self, contract):
        # Mirrors benchmarks/test_e11_scale_sensitivity.py::run_at_scale.
        for row in load_metrics("e11_scale_sensitivity"):
            graph = repro.random_undirected_graph(
                row["n"], density=0.3, max_weight=6, rng=4
            )
            solution = repro.compute_pairs(
                FindEdgesInstance(graph),
                constants=PaperConstants(scale=row["scale"]),
                rng=4,
                rng_contract=contract,
            )
            assert solution.rounds == row["rounds"], (contract, row)


class _LoggingGenerator(np.random.Generator):
    """Ground truth for RNG accounting: logs every (method, size) draw while
    producing the byte-identical stream of a plain generator."""

    def __init__(self, bit_generator, log):
        super().__init__(bit_generator)
        self._log = log

    def random(self, *args, **kwargs):
        out = super().random(*args, **kwargs)
        self._log.append(("random", int(np.size(out))))
        return out

    def integers(self, *args, **kwargs):
        out = super().integers(*args, **kwargs)
        self._log.append(("integers", int(np.size(out))))
        return out


class TestTelemetryAttribution:
    SCHEDULE = [1, 2, 0, 3, 2, 1, 2]

    def test_v2_draws_charged_to_batched_span(self):
        lanes = make_lanes(11, num_lanes=4, max_items=8, solution_rate=0.4)
        seeds = np.random.default_rng(3).integers(0, 2**63 - 1, size=len(lanes))

        # Ground truth: same seed column through a logging generator.
        log = []
        logging_rng = _LoggingGenerator(
            np.random.default_rng(seeds).bit_generator, log
        )
        truth = run_contract(
            lanes, contract="v2", seed=3, beta=2.0, batch_rng=logging_rng
        ).run(self.SCHEDULE)
        assert log, "v2 run drew nothing?"

        # Counted run: materialize_rng builds a CountingGenerator from the
        # seed column because a collector is installed.
        with telemetry.collect() as collector:
            counted = run_contract(
                lanes, contract="v2", seed=3, beta=2.0
            ).run(self.SCHEDULE)
            snapshot = collector.snapshot()

        # Counting is stream-identical: same reports as the ground truth.
        for key, _items, _table in lanes:
            assert np.array_equal(truth[key].found, counted[key].found)
            assert truth[key].rounds == counted[key].rounds
            assert truth[key].corrupted_repetitions == (
                counted[key].corrupted_repetitions
            )

        spans = [s for s in snapshot["spans"] if s["name"] == "quantum.batched_run"]
        assert len(spans) == 1
        span = spans[0]
        assert span["attrs"]["rng_contract"] == "v2"
        assert span["rng_calls"] == len(log)
        assert span["rng_draws"] == sum(size for _method, size in log)
        # ≤ 3 batched calls per repetition: corruption, measurement, slots.
        assert span["rng_calls"] <= 3 * len(self.SCHEDULE)

    def test_v2_solve_snapshot_is_consistent(self):
        with telemetry.collect() as collector:
            graph = repro.random_undirected_graph(
                48, density=0.5, max_weight=7, rng=2
            )
            repro.compute_pairs(
                FindEdgesInstance(graph), constants=CONSTANTS, rng=2,
                rng_contract="v2",
            )
            snapshot = collector.snapshot()
        assert telemetry_report.consistency_problems(snapshot) == []
        assert snapshot["rng"]["calls"] > 0

    def test_v2_makes_fewer_generator_calls_than_v1(self):
        totals = {}
        for contract in RNG_CONTRACTS:
            with telemetry.collect() as collector:
                graph = repro.random_undirected_graph(
                    81, density=0.3, max_weight=6, rng=4
                )
                repro.compute_pairs(
                    FindEdgesInstance(graph),
                    constants=PaperConstants(scale=0.05),
                    rng=4,
                    rng_contract=contract,
                )
                totals[contract] = collector.snapshot()["rng"]["calls"]
        # Batching is the point: far fewer generator calls, same protocol.
        assert totals["v2"] < totals["v1"] / 2, totals


def bulk_registered(lanes, *, seed, beta):
    """A v2 batched search over ``lanes``, registered the way Step 3 does:
    one padded stack through :meth:`BatchedMultiSearch.add_lanes`, the
    per-lane seed column doubling as the batch seed."""
    seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=len(lanes))
    num_items = np.array([items for _key, items, _table in lanes])
    num_searches = np.array([table.shape[0] for _key, _items, table in lanes])
    stack = np.zeros(
        (len(lanes), num_searches.max(), num_items.max()), dtype=bool
    )
    for index, (_key, items, table) in enumerate(lanes):
        stack[index, :table.shape[0], :items] = table
    batched = BatchedMultiSearch(
        beta=beta, eval_rounds=1.5, rng_contract="v2", batch_rng=seeds
    )
    batched.add_lanes(
        [key for key, _items, _table in lanes], num_items, num_searches,
        stack, seeds=seeds,
    )
    return batched


class TestPinnedV2Stream:
    """v2's exact outputs, recorded as SHA-256 digests.

    Distributional tests cannot see a reordered draw; these can.  Each
    class digest covers, per lane in key order, the found mask, the found
    items (the measured slot resolved against the lane's table), rounds,
    repetitions, oracle calls and corrupted repetitions."""

    SCHEDULE = [1, 2, 0, 3, 2, 1, 2, 4, 1, 3, 2, 5]

    CLASSES = {
        # β far above every load: typical lanes, corruption draws near zero.
        "typical": (
            lambda: make_lanes(21, num_lanes=24, max_items=12, max_searches=4,
                               solution_rate=0.3),
            1, 100.0, True,
            "b94b5b9a12a4b8b95a1edd1bc46b76953a14fcc6bcae9da01102ec8eec797996",
        ),
        # β below m: corrupted repetitions and atypical (truncated) lanes.
        "corrupted": (
            lambda: make_lanes(22, num_lanes=24, max_items=10, max_searches=4,
                               solution_rate=0.3),
            2, 2.0, True,
            "ac1d036cd7d791d956e1b3f2b32515dfa7555a1cf564c82dfb67237d8e11488e",
        ),
        # Zero-solution lanes start frozen beside lanes that search.
        "zero_solutions": (
            lambda: [
                (f"zero{key}", items, table)
                for key, items, table in make_lanes(23, num_lanes=8,
                                                    zero_solutions=True)
            ] + make_lanes(24, num_lanes=8, solution_rate=0.2),
            3, None, True,
            "6ff0cf9b5d99c4ddac68061a8ff94fa6cae64afc7a2a3302ca2dc06c39279cfe",
        ),
        "no_early_stop": (
            lambda: make_lanes(25, num_lanes=24, max_items=12, max_searches=4,
                               solution_rate=0.3),
            4, 3.0, False,
            "1c0d74c398f820cc13aae182b7dbfa2cadaf5faebf0f205ba4a47fe790ec515e",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CLASSES))
    def test_class_reports_digest(self, name):
        make, seed, beta, early_stop, expected = self.CLASSES[name]
        lanes = make()
        reports = bulk_registered(lanes, seed=seed, beta=beta).run(
            self.SCHEDULE, early_stop=early_stop
        )
        digest = hashlib.sha256()
        for key, _items, _table in lanes:
            report = reports[key]
            digest.update(report.found_mask().tobytes())
            digest.update(np.asarray(report.found, dtype=np.int64).tobytes())
            digest.update(repr((
                report.rounds, report.repetitions, report.oracle_calls,
                report.corrupted_repetitions,
            )).encode())
        assert digest.hexdigest() == expected

    def test_compute_pairs_digest(self):
        # Dense enough that every lane of a class can finish early, so the
        # charged rounds depend on the draw stream (v1 differs here).
        graph = repro.random_undirected_graph(128, density=0.9, max_weight=6, rng=4)
        solution = repro.compute_pairs(
            FindEdgesInstance(graph), constants=PaperConstants(scale=0.15),
            rng=4, rng_contract="v2",
        )
        digest = hashlib.sha256()
        digest.update(repr(sorted(solution.pairs)).encode())
        digest.update(repr(solution.rounds).encode())
        digest.update(repr(sorted(solution.ledger.snapshot().items())).encode())
        assert digest.hexdigest() == (
            "db8b7e54fbfd56ac4dc9f1cf7e937ee27772256b47d88a54320f89a56fc6265c"
        )
