"""The batched Step-3 draws ≡ the sequential per-lane draws, in distribution.

Step 3 draws all active lanes' corruption flags and measurement batches
from **one** batch generator per class, seeded from the per-lane seed
column, instead of walking per-lane generator streams.  It governs Step 3
only: Step 2 draws one uniform block per segment.  The variates are not
byte-identical to the sequential per-lane draws — those live on as the test
reference :class:`tests.reference.LaneDraws`, which the loop runs
off through ``BatchedMultiSearch._run`` (and a whole Step 3 or ComputePairs
through :func:`tests.reference.run_lane_draws` patched in for
``BatchedMultiSearch.run``) — so correctness here is *property*-based, with
fixed seeds throughout (every test is deterministic — a pass today is a
pass forever):

* validity — everything the batch draws report found is a true solution;
* distributional equivalence — per-search measurement marginals, per-lane
  round charges, and corruption counts match the per-lane draws' empirical
  distributions under two-sample χ² tests against committed α=0.001
  critical values;
* corruption frequency — within the Lemma-5 deviation-bound envelope
  (mean ``Σ δ_r``, 5σ Binomial slack);
* charge identity — for the same schedule the round/ledger charges of a
  full Step-3 (and full ComputePairs) run are identical under both draw
  sources whenever a class cannot finish early (every committed
  simulation-regime table);
* committed-table regression — the pipeline regenerates every committed
  E1/E11 round value exactly, and E11's under both draw sources;
* one contract — ``compute_pairs`` accepts only ``rng_contract="v2"``;
* telemetry — the batched draws land on the open span with exact
  per-call/per-element counts, and a traced solve is self-consistent;
* pinned stream — the exact outputs on fixed seeds (a few classes and one
  ComputePairs solve) hash to recorded SHA-256 digests, so any change to
  the batch generator's draw order fails here, not only in perfbench;
  the charges of lanes holding a zero-solution search are pinned apart;
* findable measurement — a repetition draws one uniform per live findable
  search and none for a zero-solution search, and the per-lane draws
  still mirror ``MultiSearch.run`` with such searches present;
* lazy lane generators — registering lanes builds no generator.
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
from repro.quantum.amplitude import max_iterations
from repro.quantum.batched import BatchedMultiSearch, _BatchDraws, _LaneTable
from repro.quantum.multisearch import MultiSearch
from repro.telemetry import report as telemetry_report
from repro.util import rng as rng_module
from repro.util.rng import materialize_rng

from tests.reference import run_lane_draws

from test_quantum_batched import (
    assert_reports_identical, findable_rows, random_lanes, run_batched, run_sequential,
)
from test_step3_equivalence import CONSTANTS, build_env

pytestmark = pytest.mark.rng_contract

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"

#: The two draw sources: the class batch generator (what Step 3 runs) and
#: the sequential per-lane generators of ``tests.reference.LaneDraws``.
DRAWS = ("batch", "lanes")

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


def build_search(lanes, *, seed, beta=None, eval_rounds=2.0, batch_rng=None):
    """One batched multi-search set up exactly the way Step 3 does it: one
    seed column drawn from the driver generator, which seeds the batch
    generator (and, for the per-lane draws, one generator per lane)."""
    seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=len(lanes))
    batched = BatchedMultiSearch(
        beta=beta,
        eval_rounds=eval_rounds,
        batch_rng=seeds if batch_rng is None else batch_rng,
    )
    batched.add_lanes([key for key, _items, _table in lanes], *findable_rows(lanes))
    return batched


def run_draws(batched, schedule, draws, *, early_stop=True):
    """Run ``batched`` off the batch generator or the per-lane draws."""
    if draws == "batch":
        return batched.run(schedule, early_stop=early_stop)
    return run_lane_draws(batched, schedule, early_stop=early_stop)


def use_draws(patch, draws):
    """Make every ``BatchedMultiSearch.run`` under ``patch`` draw from
    ``draws``: unchanged for the batch generator, per lane otherwise."""
    if draws == "lanes":
        patch.setattr(BatchedMultiSearch, "run", run_lane_draws)


class TestOneContract:
    @pytest.mark.parametrize("contract", ["v1", "v0"])
    def test_compute_pairs_rejects_other_contracts(self, contract):
        with pytest.raises(ValueError, match="rng_contract"):
            repro.compute_pairs(None, constants=None, rng=0, rng_contract=contract)


class TestFoundValuesAreSolutions:
    """Validity: every reported element really solves its search."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("beta", [None, 3.0])
    @pytest.mark.parametrize("early_stop", [True, False])
    def test_found_values_solve_their_search(self, seed, beta, early_stop):
        lanes = make_lanes(11, num_lanes=4, max_items=8, solution_rate=0.4)
        batched = build_search(lanes, seed=seed, beta=beta)
        reports = batched.run([1, 2, 0, 3, 2, 1, 2], early_stop=early_stop)
        for (key, num_items, table) in lanes:
            found = reports[key].found
            for search, element in enumerate(found):
                if element >= 0:
                    assert element < num_items
                    assert table[search, element], (key, search, element)

    def test_zero_solution_lanes_find_nothing(self):
        lanes = make_lanes(13, num_lanes=3, zero_solutions=True)
        batched = build_search(lanes, seed=0, beta=1.5)
        reports = batched.run([1, 2, 1, 2])
        for key, _items, _table in lanes:
            assert (reports[key].found == -1).all()
            # Never able to finish early → charged the whole schedule.
            assert reports[key].repetitions == 4


class TestMeasurementMarginals:
    """Per-search found-element marginals and per-lane charge distributions
    match the per-lane draws' empirically (two-sample χ², N seeds per
    draw source)."""

    SCHEDULE = [1, 2, 0, 3, 1, 2, 1, 3]
    NUM_SEEDS = 240

    def collect(self, draws, beta):
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
            batched = build_search(lanes, seed=seed, beta=beta)
            reports = run_draws(batched, self.SCHEDULE, draws)
            for index, (key, _items, _table) in enumerate(lanes):
                report = reports[key]
                for search, element in enumerate(report.found):
                    marginals[index][search, element + 1] += 1
                repetition_hist[index][report.repetitions] += 1
                corrupted_hist[index][report.corrupted_repetitions] += 1
        return lanes, marginals, repetition_hist, corrupted_hist

    @pytest.mark.parametrize("beta", [None, 2.0])
    def test_marginals_match_lane_draws(self, beta):
        lanes, m1, r1, c1 = self.collect("lanes", beta)
        _lanes, m2, r2, c2 = self.collect("batch", beta)
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

    def totals(self, draws):
        # Fixed shape chosen so every δ_r sits strictly inside (0, 1):
        # 3 searches over 10 items at β=2 gives δ ∈ {0.18.., 0.36..}.
        lanes = [
            (f"lane{index}", 10, np.zeros((3, 10), dtype=bool))
            for index in range(4)
        ]
        total = 0
        deltas = None
        for seed in range(self.NUM_SEEDS):
            batched = build_search(lanes, seed=seed, beta=self.BETA)
            reports = run_draws(batched, self.SCHEDULE, draws)
            total += sum(reports[key].corrupted_repetitions for key, _i, _t in lanes)
            if deltas is None:
                # δ per (lane, repetition) — structural, identical every run.
                deltas = _LaneTable(
                    batched._lanes, np.asarray(self.SCHEDULE), batched.eval_rounds,
                    batched.beta,
                ).delta
        return total, deltas

    @pytest.mark.parametrize("draws", DRAWS)
    def test_corruption_within_lemma5_envelope(self, draws):
        total, deltas = self.totals(draws)
        assert 0.0 < deltas.min() and deltas.max() < 1.0  # non-degenerate
        mean_per_run = float(deltas.sum())
        var_per_run = float((deltas * (1.0 - deltas)).sum())
        expected = self.NUM_SEEDS * mean_per_run
        sigma = math.sqrt(self.NUM_SEEDS * var_per_run)
        assert abs(total - expected) <= 5.0 * sigma, (total, expected, sigma)


def run_step3_once(monkeypatch, n, seed, draws):
    network, partitions, assignment, table = build_env(n, seed, CONSTANTS)
    generator = np.random.default_rng(seed + 77)
    with monkeypatch.context() as patch:
        use_draws(patch, draws)
        report = run_step3(
            network, partitions, CONSTANTS, assignment, table,
            rng=generator, search_mode="quantum",
        )
    return report, network.ledger.snapshot(), generator.random(8)


class TestChargeIdentity:
    """Same schedule ⇒ same round/ledger charges under both draw sources.

    The driver generator's stream (schedule + seed-column draws) does not
    depend on the draw source; the *charges* additionally agree whenever
    some lane of each class runs the whole schedule — true on all these
    configs (and every committed simulation-regime table)."""

    @pytest.mark.parametrize(
        "n,seed", [(16, 0), (16, 1), (16, 2), (16, 3), (48, 0), (48, 1), (128, 0)]
    )
    def test_step3_charges_identical(self, monkeypatch, n, seed):
        report1, ledger1, driver1 = run_step3_once(monkeypatch, n, seed, "lanes")
        report2, ledger2, driver2 = run_step3_once(monkeypatch, n, seed, "batch")
        assert report1.eval_rounds_per_alpha == report2.eval_rounds_per_alpha
        assert report1.search_rounds_per_alpha == report2.search_rounds_per_alpha
        assert report1.duplication_per_alpha == report2.duplication_per_alpha
        assert report1.total_searches == report2.total_searches
        assert ledger1 == ledger2
        assert np.array_equal(driver1, driver2)

    def test_compute_pairs_charges_identical(self, monkeypatch):
        outcomes = {}
        for draws in DRAWS:
            graph = repro.random_undirected_graph(
                81, density=0.3, max_weight=6, rng=4
            )
            with monkeypatch.context() as patch:
                use_draws(patch, draws)
                outcomes[draws] = repro.compute_pairs(
                    FindEdgesInstance(graph), constants=CONSTANTS, rng=4
                )
        assert outcomes["lanes"].rounds == outcomes["batch"].rounds
        assert (
            outcomes["lanes"].ledger.snapshot()
            == outcomes["batch"].ledger.snapshot()
        )


def load_metrics(name):
    return json.loads((RESULTS / f"{name}.json").read_text())


class TestCommittedTables:
    """The committed benchmark round columns, regenerated in-process.

    The pipeline must reproduce them byte-for-byte; the per-lane draws must
    leave the simulation-regime (E11) rounds unchanged too — the charge
    identity above, exercised end to end."""

    def test_regenerates_e1_rounds(self):
        # Mirrors benchmarks/test_e1_apsp_rounds.py::run_quantum.
        constants = PaperConstants(scale=0.5)
        for row in load_metrics("e1_apsp_rounds"):
            graph = repro.random_digraph_no_negative_cycle(
                row["n"], density=0.5, max_weight=6, rng=7
            )
            backend = repro.QuantumFindEdges(constants=constants, rng=7)
            report = repro.QuantumAPSP(backend=backend).solve(graph)
            assert report.rounds == row["rounds"], row

    @pytest.mark.parametrize("draws", DRAWS)
    def test_e11_rounds_contract_invariant(self, monkeypatch, draws):
        # Mirrors benchmarks/test_e11_scale_sensitivity.py::run_at_scale.
        use_draws(monkeypatch, draws)
        for row in load_metrics("e11_scale_sensitivity"):
            graph = repro.random_undirected_graph(
                row["n"], density=0.3, max_weight=6, rng=4
            )
            solution = repro.compute_pairs(
                FindEdgesInstance(graph),
                constants=PaperConstants(scale=row["scale"]),
                rng=4,
            )
            assert solution.rounds == row["rounds"], (draws, row)


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
        truth = build_search(
            lanes, seed=3, beta=2.0, batch_rng=logging_rng
        ).run(self.SCHEDULE)
        assert log, "v2 run drew nothing?"

        # Counted run: materialize_rng builds a CountingGenerator from the
        # seed column because a collector is installed.
        with telemetry.collect() as collector:
            counted = build_search(lanes, seed=3, beta=2.0).run(self.SCHEDULE)
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
        assert span["rng_calls"] == len(log)
        assert span["rng_draws"] == sum(size for _method, size in log)
        # ≤ 3 batched calls per repetition: corruption, measurement, slots.
        assert span["rng_calls"] <= 3 * len(self.SCHEDULE)

    def test_v2_solve_snapshot_is_consistent(self):
        with telemetry.collect() as collector:
            graph = repro.random_undirected_graph(
                48, density=0.5, max_weight=7, rng=2
            )
            repro.compute_pairs(FindEdgesInstance(graph), constants=CONSTANTS, rng=2)
            snapshot = collector.snapshot()
        assert telemetry_report.consistency_problems(snapshot) == []
        assert snapshot["rng"]["calls"] > 0

    def test_batch_makes_fewer_generator_calls_than_lanes(self, monkeypatch):
        totals = {}
        for draws in DRAWS:
            with monkeypatch.context() as patch, telemetry.collect() as collector:
                use_draws(patch, draws)
                graph = repro.random_undirected_graph(
                    81, density=0.3, max_weight=6, rng=4
                )
                repro.compute_pairs(
                    FindEdgesInstance(graph),
                    constants=PaperConstants(scale=0.05),
                    rng=4,
                )
                totals[draws] = collector.snapshot()["rng"]["calls"]
        # Batching is the point: far fewer generator calls, same protocol.
        assert totals["batch"] < totals["lanes"] / 2, totals


def bulk_registered(lanes, *, seed, beta):
    """A batched search over ``lanes``, registered the way Step 3 does:
    the lanes' findable rows through :meth:`BatchedMultiSearch.add_lanes`, the
    per-lane seed column seeding the batch generator."""
    seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=len(lanes))
    batched = BatchedMultiSearch(beta=beta, eval_rounds=1.5, batch_rng=seeds)
    batched.add_lanes([key for key, _items, _table in lanes], *findable_rows(lanes))
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
            "b740cfb4c3c3671b998ebcf2a415b6a1cf10c4b2ec43c1e7eb9f1ff851ba5cc7",
        ),
        # β below m: corrupted repetitions and atypical (truncated) lanes.
        "corrupted": (
            lambda: make_lanes(22, num_lanes=24, max_items=10, max_searches=4,
                               solution_rate=0.3),
            2, 2.0, True,
            "e5c8c52d5832069ecfb11d91b5ad16af3d038ce083664a26e6e6a03cc5f9d2f1",
        ),
        # Zero-solution lanes start frozen beside lanes that search.
        "zero_solutions": (
            lambda: [
                (f"zero{key}", items, table)
                for key, items, table in make_lanes(23, num_lanes=8,
                                                    zero_solutions=True)
            ] + make_lanes(24, num_lanes=8, solution_rate=0.2),
            3, None, True,
            "ab603f2b718e2fd16f607131a73f9851ea8a34dae7a7b2a3927824e4f09936c9",
        ),
        "no_early_stop": (
            lambda: make_lanes(25, num_lanes=24, max_items=12, max_searches=4,
                               solution_rate=0.3),
            4, 3.0, False,
            "7824378662aeadb12a3b8471a319405d003cd1626e4779b69b68e1f2a801f706",
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
        # charged rounds depend on the draw stream (the per-lane draws
        # differ here).
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


def zero_solution_keys(batched):
    """Keys of the lanes holding a search with no (effective) solution: the
    lanes that left a search unregistered."""
    return {lane.key for lane in batched._lanes if lane.rows.size < lane.num_searches}


class TestPinnedZeroSolutionCharges:
    """The charges of every lane that holds a zero-solution search, in the
    :class:`TestPinnedV2Stream` classes, pinned apart from the stream.

    Such a lane is never measured on its zero-solution searches, but they
    stay pending: the lane can never stop early, so it charges the whole
    schedule, or fast-forwards to its end, whatever the stream draws.  The
    digests were recorded while those searches were still measured every
    repetition, so they hold across that change of the stream."""

    CHARGES = {
        "corrupted": "ddd773b966fc7391291f92f3086733c29615cdc8c722608a183c1cc437afa1da",
        "no_early_stop": "0ceec97aed605ad33fcb826a9be22686a3a16b43f8df595615fd1672a24e5ca1",
        "typical": "7ce4b29aebc337c0bb65b822bfca0d66111d60f002135f526244213f6e8e451c",
        "zero_solutions": "5c22900e199549e46116696733b5463766e9ed6c4b2a614c3725131fc1bea60a",
    }

    @pytest.mark.parametrize("name", sorted(CHARGES))
    def test_zero_solution_lane_charges_digest(self, name):
        make, seed, beta, early_stop, _stream = TestPinnedV2Stream.CLASSES[name]
        lanes = make()
        batched = bulk_registered(lanes, seed=seed, beta=beta)
        keys = zero_solution_keys(batched)
        assert keys, name
        reports = batched.run(TestPinnedV2Stream.SCHEDULE, early_stop=early_stop)
        charges = [
            (key, reports[key].rounds, reports[key].repetitions,
             reports[key].oracle_calls)
            for key, _items, _table in lanes
            if key in keys
        ]
        assert hashlib.sha256(repr(charges).encode()).hexdigest() == self.CHARGES[name]


class _SpyDraws(_BatchDraws):
    """The batch draws, checking each measurement batch against the live
    findable searches it tracks itself from the slots it hands out."""

    def __init__(self, rng, batched):
        super().__init__(rng)
        self.live = np.array(
            [int((lane.counts > 0).sum()) for lane in batched._lanes], dtype=np.int64
        )
        self.measured = 0
        self.pending = 0

    def uniforms(self, lanes, searches, table):
        owners = np.searchsorted(table.lane_off, searches, side="right") - 1
        assert np.isin(owners, lanes).all()
        assert (table.counts[searches] > 0).all()
        assert searches.size == int(self.live[lanes].sum())
        assert np.all(np.diff(searches) > 0)
        self.measured += searches.size
        # What a loop measuring every pending search would draw: the
        # unregistered (zero-solution) searches are always pending.
        self.pending += sum(
            table.lanes[lane].num_searches - table.lanes[lane].rows.size
            for lane in lanes.tolist()
        ) + searches.size
        return super().uniforms(lanes, searches, table)

    def slots(self, lanes, bounds):
        # Only findable searches are measured, so no bound is the lone
        # dummy slot of a zero-solution search.
        assert (bounds >= 2).all()
        slots = super().slots(lanes, bounds)
        np.subtract.at(self.live, lanes[slots < bounds - 1], 1)
        return slots


class TestFindableMeasurement:
    """A repetition measures only the findable pending searches."""

    @pytest.mark.parametrize("name", sorted(TestPinnedV2Stream.CLASSES))
    def test_draws_only_live_findable_searches(self, name):
        make, seed, beta, early_stop, _stream = TestPinnedV2Stream.CLASSES[name]
        batched = bulk_registered(make(), seed=seed, beta=beta)
        spy = _SpyDraws(materialize_rng(batched.batch_rng), batched)
        reports = batched._run(TestPinnedV2Stream.SCHEDULE, spy, early_stop=early_stop)
        assert 0 < spy.measured < spy.pending
        findable = sum(int((lane.counts > 0).sum()) for lane in batched._lanes)
        found = sum(int(report.found_mask().sum()) for report in reports.values())
        assert found == findable - int(spy.live.sum())

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("beta", [None, 2.0, 50.0])
    @pytest.mark.parametrize("early_stop", [True, False])
    def test_lane_draws_mirror_sequential(self, seed, beta, early_stop):
        # Some lanes hold only zero-solution searches, some none: with
        # β = 2 the former stay active (corruptible) and draw the
        # uniforms of searches the loop never measures.
        rng = np.random.default_rng(300 + seed)
        lanes = [
            (key, items, table & (rng.random(table.shape[0]) < 0.6)[:, None])
            for key, items, table in random_lanes(
                rng, num_lanes=9, max_items=7, max_searches=10, solution_rate=0.3
            )
        ]
        lanes[0] = (lanes[0][0], lanes[0][1], np.zeros_like(lanes[0][2]))
        cap = max_iterations(max(items for _key, items, _table in lanes) + 1)
        schedule = rng.integers(0, cap + 1, size=24).tolist()
        kwargs = dict(beta=beta, eval_rounds=1.5, amplification=12.0, seed=seed,
                      early_stop=early_stop)
        assert_reports_identical(
            run_sequential(lanes, schedule, **kwargs),
            run_batched(lanes, schedule, **kwargs),
        )


class TestLazyLaneGenerator:
    """Registering a lane builds no generator, and ``MultiSearch`` builds
    its generator on the first ``run``."""

    def count_generators(self, monkeypatch):
        built = []
        original = rng_module._new_generator

        def counting(seed):
            built.append(seed)
            return original(seed)

        monkeypatch.setattr(rng_module, "_new_generator", counting)
        return built

    def test_atypical_add_lanes_builds_no_generator(self, monkeypatch):
        # β = 0.5 truncates any lane with a solution: every such lane keeps
        # a truncated copy of its window.
        lanes = make_lanes(27, num_lanes=6, max_searches=4, solution_rate=0.6)
        built = self.count_generators(monkeypatch)
        batched = bulk_registered(lanes, seed=5, beta=0.5)
        assert any(not lane.typicality.solutions_typical for lane in batched._lanes)
        assert built == []

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_run_streams_unchanged(self, seed):
        # A seed builds ``default_rng(seed)`` at the first run, and later
        # runs continue that stream, as a generator passed in does.
        table = np.random.default_rng(seed).random((6, 5)) < 0.3
        runs = []
        for rng in (seed, np.random.default_rng(seed)):
            search = MultiSearch(
                5, [np.flatnonzero(row) for row in table], beta=1.5, rng=rng
            )
            runs.append([search.run(schedule=[1, 0, 2, 1, 3]) for _ in range(3)])
        for a, b in zip(*runs):
            assert np.array_equal(a.found, b.found)
            assert (a.rounds, a.repetitions, a.corrupted_repetitions) == (
                b.rounds, b.repetitions, b.corrupted_repetitions
            )
