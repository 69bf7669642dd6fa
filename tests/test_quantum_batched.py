"""BatchedMultiSearch ≡ per-node MultiSearch, exactly.

The class-level batching of Step 3 is an execution reorganization: for the
same inputs and the same shared schedule, the batched loop run off the
sequential per-lane draws (:class:`tests.reference.LaneDraws`) must
reproduce every field of every per-node
:class:`~repro.quantum.multisearch.MultiSearchReport` bit for bit — found
elements, round charges, repetition/oracle counts, corruption flags, and
the typicality truncation.  These property tests drive both implementations
from identically seeded generators across the interesting regimes:

* plain searches (``beta=None``) and typical inputs (large ``beta``);
* zero-solution searches (the lanes that can never early-stop — the case
  the freeze fast-path accelerates);
* atypical solution sets (``beta`` small enough to truncate);
* corrupted repetitions (``beta < m`` so Lemma 5's bound is non-zero);
* ``early_stop=False``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import QuantumSimulationError
from repro.quantum import batched as batched_module
from repro.quantum.amplitude import max_iterations
from repro.quantum.batched import BatchedMultiSearch, bool_sums
from repro.quantum.multisearch import MultiSearch

from tests.reference import LaneDraws, run_lane_draws


def random_lanes(rng, *, num_lanes, max_items, max_searches, solution_rate):
    """Random per-lane (key, num_items, solution table) inputs."""
    lanes = []
    for index in range(num_lanes):
        num_items = int(rng.integers(1, max_items + 1))
        num_searches = int(rng.integers(1, max_searches + 1))
        table = rng.random((num_searches, num_items)) < solution_rate
        lanes.append((f"lane{index}", num_items, table))
    return lanes


def run_sequential(lanes, schedule, *, beta, eval_rounds, amplification, seed,
                   early_stop=True):
    spawner = np.random.default_rng(seed)
    reports = {}
    for key, num_items, table in lanes:
        child = np.random.default_rng(int(spawner.integers(0, 2**63 - 1)))
        search = MultiSearch(
            num_items,
            [np.flatnonzero(row) for row in table],
            beta=beta,
            eval_rounds=eval_rounds,
            amplification=amplification,
            rng=child,
        )
        reports[key] = search.run(schedule=schedule, early_stop=early_stop)
    return reports


def run_batched(lanes, schedule, **kwargs):
    """The batched search over ``lanes``, run off the per-lane draws."""
    return run_bulk(lanes, schedule, **kwargs)[0]


def assert_reports_identical(sequential, batched):
    assert sequential.keys() == batched.keys()
    for key in sequential:
        a, b = sequential[key], batched[key]
        assert np.array_equal(a.found, b.found), key
        assert a.rounds == b.rounds, key
        assert a.repetitions == b.repetitions, key
        assert a.oracle_calls == b.oracle_calls, key
        assert a.corrupted_repetitions == b.corrupted_repetitions, key
        assert a.fidelity_bound_max == b.fidelity_bound_max, key
        assert a.typicality == b.typicality, key


BETA_REGIMES = [
    None,          # idealized C_m: no typicality machinery at all
    1000.0,        # typical: no truncation, zero corruption probability
    3.0,           # truncating: solution loads can exceed β/2
]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("beta", BETA_REGIMES)
def test_batched_equals_sequential(seed, beta):
    rng = np.random.default_rng(seed)
    lanes = random_lanes(
        rng, num_lanes=7, max_items=9, max_searches=12, solution_rate=0.25
    )
    cap = max_iterations(max(num_items for _, num_items, _ in lanes) + 1)
    schedule = rng.integers(0, cap + 1, size=25).tolist()
    kwargs = dict(beta=beta, eval_rounds=1.5, amplification=12.0, seed=seed)
    assert_reports_identical(
        run_sequential(lanes, schedule, **kwargs),
        run_batched(lanes, schedule, **kwargs),
    )


@pytest.mark.parametrize("seed", range(8))
def test_batched_equals_sequential_with_corruption(seed):
    # beta < m makes the uniform atypical mass positive, so repetitions can
    # be corrupted — the regime where lanes can never freeze.
    rng = np.random.default_rng(100 + seed)
    lanes = []
    for index in range(4):
        num_items = int(rng.integers(2, 5))
        num_searches = int(rng.integers(20, 40))
        table = rng.random((num_searches, num_items)) < 0.15
        lanes.append((f"lane{index}", num_items, table))
    schedule = rng.integers(0, 4, size=30).tolist()
    kwargs = dict(beta=8.0, eval_rounds=2.0, amplification=12.0, seed=seed)
    assert_reports_identical(
        run_sequential(lanes, schedule, **kwargs),
        run_batched(lanes, schedule, **kwargs),
    )


@pytest.mark.parametrize("seed", range(4))
def test_batched_equals_sequential_no_early_stop(seed):
    rng = np.random.default_rng(200 + seed)
    lanes = random_lanes(
        rng, num_lanes=5, max_items=6, max_searches=8, solution_rate=0.6
    )
    schedule = rng.integers(0, 7, size=20).tolist()
    kwargs = dict(
        beta=500.0, eval_rounds=1.0, amplification=12.0, seed=seed,
        early_stop=False,
    )
    assert_reports_identical(
        run_sequential(lanes, schedule, **kwargs),
        run_batched(lanes, schedule, **kwargs),
    )


def test_zero_solution_lanes_charge_full_schedule():
    # A lane with no solutions anywhere never finds and never stops early:
    # the freeze fast-path must still charge the whole schedule.
    table = np.zeros((5, 4), dtype=bool)
    batched = BatchedMultiSearch(beta=1000.0, eval_rounds=2.0)
    batched.add_lanes(["empty"], *findable_rows([("empty", 4, table)]))
    schedule = [1, 2, 0, 3]
    report = batched.run(schedule)["empty"]
    sequential = MultiSearch(
        4, [np.flatnonzero(row) for row in table], beta=1000.0, eval_rounds=2.0,
        rng=0,
    ).run(schedule=schedule)
    assert report.rounds == sequential.rounds
    assert report.repetitions == len(schedule)
    assert not report.found_mask().any()
    assert report.found_mask().size == 5


def test_empty_schedule_charges_nothing():
    batched = BatchedMultiSearch(beta=100.0)
    batched.add_lanes(["a"], *findable_rows([("a", 3, np.ones((2, 3), dtype=bool))]))
    report = batched.run([])["a"]
    assert report.rounds == 0.0
    assert report.repetitions == 0
    assert report.oracle_calls == 0


def test_duplicate_keys_rejected():
    batched = BatchedMultiSearch()
    table = np.ones((1, 3), dtype=bool)
    with pytest.raises(QuantumSimulationError):
        batched.add_lanes(
            ["a", "a"], *findable_rows([("a", 3, table), ("a", 3, table)])
        )


def test_atypical_lane_keeps_each_item_for_its_first_half_beta_searches():
    # β = 3: block 0 solves searches 0, 1 and 2, so its load 3 exceeds
    # β/2 and the truncated oracle keeps it for ⌊β/2⌋ = 1 search only —
    # search 0; searches 1 and 2 lose it (2 dropped entries).  Block 1
    # solves search 1 alone and stays.  Search 2 is left with no solution,
    # so it leaves the registered rows.
    table = np.array([[True, False], [True, True], [True, False]])
    num_items, num_searches, tables, rows, counts = findable_rows([("lane", 2, table)])
    batched = BatchedMultiSearch(beta=3.0)
    batched.add_lanes(["lane"], num_items, num_searches, tables, rows, counts)
    (lane,) = batched._lanes
    assert np.array_equal(lane.table, [[True, False], [False, True]])
    assert lane.rows.tolist() == [0, 1]
    assert lane.counts.tolist() == [1, 1]
    assert lane.num_searches == 3
    assert lane.typicality.truncated_entries == 2
    assert not lane.typicality.solutions_typical
    assert lane.typicality.max_solution_load == 3
    assert np.array_equal(tables[0], table)  # the caller's rows are untouched
    sequential = MultiSearch(2, [np.flatnonzero(row) for row in table], beta=3.0)
    assert sequential._eff_counts.tolist() == [1, 1, 0]
    effective = [marked.tolist() for marked in sequential._marked_effective]
    assert [effective[row] for row in lane.rows.tolist()] == [
        np.flatnonzero(row).tolist() for row in lane.table
    ]
    assert effective[2] == []
    assert sequential.typicality == lane.typicality


def findable_rows(lanes):
    """The bulk-registration view of per-lane tables: the per-lane
    (num_items, num_searches) columns, then each lane's findable rows with
    their search indices and solution counts."""
    num_items = np.array([items for _, items, _ in lanes], dtype=np.int64)
    num_searches = np.array([table.shape[0] for _, _, table in lanes], dtype=np.int64)
    counts = [table.sum(axis=1) for _, _, table in lanes]
    rows = [np.flatnonzero(count) for count in counts]
    tables = [table[row] for (_, _, table), row in zip(lanes, rows)]
    return num_items, num_searches, tables, rows, [c[r] for c, r in zip(counts, rows)]


def run_bulk(lanes, schedule, *, beta, eval_rounds, amplification, seed,
             early_stop=True):
    # ``amplification`` sets only run_sequential's repetitions: the batched
    # search runs the caller's schedule.
    spawner = np.random.default_rng(seed)
    batched = BatchedMultiSearch(beta=beta, eval_rounds=eval_rounds)
    # One batched draw — must equal len(lanes) sequential spawner draws.
    seeds = spawner.integers(0, 2**63 - 1, size=len(lanes))
    batched.add_lanes([key for key, _, _ in lanes], *findable_rows(lanes))
    reports = batched._run(schedule, LaneDraws(seeds), early_stop=early_stop)
    return reports, spawner


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("beta", BETA_REGIMES)
def test_add_lanes_equals_add_loop(seed, beta):
    # Bulk registration from the findable rows is bit-identical to the
    # per-node sequential searches — including atypical lanes (beta=3.0
    # truncates) — and its one seed draw consumes the parent stream like
    # per-lane spawns.
    rng = np.random.default_rng(300 + seed)
    lanes = random_lanes(
        rng, num_lanes=7, max_items=9, max_searches=12, solution_rate=0.3
    )
    cap = max_iterations(max(num_items for _, num_items, _ in lanes) + 1)
    schedule = rng.integers(0, cap + 1, size=25).tolist()
    kwargs = dict(beta=beta, eval_rounds=1.5, amplification=12.0, seed=seed)
    sequential = run_sequential(lanes, schedule, **kwargs)
    bulk, spawner = run_bulk(lanes, schedule, **kwargs)
    assert_reports_identical(sequential, bulk)
    # The bulk seed draw consumed the parent exactly like per-lane spawns.
    probe = np.random.default_rng(seed)
    probe.integers(0, 2**63 - 1, size=len(lanes))
    assert np.array_equal(spawner.random(8), probe.random(8))


@pytest.mark.parametrize("seed", range(4))
def test_add_lanes_equals_add_loop_with_corruption(seed):
    rng = np.random.default_rng(400 + seed)
    lanes = []
    for index in range(4):
        num_items = int(rng.integers(2, 5))
        num_searches = int(rng.integers(20, 40))
        table = rng.random((num_searches, num_items)) < 0.15
        lanes.append((f"lane{index}", num_items, table))
    schedule = rng.integers(0, 4, size=30).tolist()
    kwargs = dict(beta=8.0, eval_rounds=2.0, amplification=12.0, seed=seed)
    assert_reports_identical(
        run_sequential(lanes, schedule, **kwargs),
        run_bulk(lanes, schedule, **kwargs)[0],
    )


class TestAddLanesValidation:
    def good_inputs(self):
        # Lane "a": 2 searches over 3 items, both findable; lane "b": 3
        # searches over 4 items, only search 1 findable.
        return (
            ["a", "b"],
            np.array([3, 4]),
            np.array([2, 3]),
            [np.ones((2, 3), dtype=bool), np.ones((1, 4), dtype=bool)],
            [np.array([0, 1]), np.array([1])],
            [np.array([3, 3]), np.array([4])],
        )

    def test_accepts_well_formed_rows(self):
        batched = BatchedMultiSearch(beta=100.0)
        batched.add_lanes(*self.good_inputs())
        assert len(batched) == 2
        assert batched.registered == 3

    @pytest.mark.parametrize("rows", [[3], [-1], [1, 1], [1, 0]])
    def test_rejects_rows_outside_or_out_of_order(self, rows):
        keys, items, searches, tables, _rows, _counts = self.good_inputs()
        rows = np.array(rows)
        tables = [tables[0], np.ones((rows.size, 4), dtype=bool)]
        counts = [_counts[0], np.full(rows.size, 4)]
        batched = BatchedMultiSearch(beta=100.0)
        with pytest.raises(QuantumSimulationError):
            batched.add_lanes(keys, items, searches, tables, [_rows[0], rows], counts)

    def test_rejects_a_row_without_solutions(self):
        keys, items, searches, tables, rows, counts = self.good_inputs()
        counts = [counts[0], np.array([0])]
        batched = BatchedMultiSearch(beta=100.0)
        with pytest.raises(QuantumSimulationError):
            batched.add_lanes(keys, items, searches, tables, rows, counts)

    def test_rejects_misaligned_columns(self):
        keys, items, searches, tables, rows, counts = self.good_inputs()
        batched = BatchedMultiSearch(beta=100.0)
        with pytest.raises(QuantumSimulationError):
            batched.add_lanes(keys, items[:1], searches, tables, rows, counts)
        with pytest.raises(QuantumSimulationError):
            batched.add_lanes(keys, items, searches, tables[:1], rows, counts)

    def test_rejects_table_not_matching_its_rows(self):
        keys, items, searches, tables, rows, counts = self.good_inputs()
        batched = BatchedMultiSearch(beta=100.0)
        with pytest.raises(QuantumSimulationError):
            batched.add_lanes(keys, items + 10, searches, tables, rows, counts)
        with pytest.raises(QuantumSimulationError):
            batched.add_lanes(
                keys, items, searches, [tables[0], tables[0]], rows, counts
            )

    def test_rejects_duplicate_key_across_calls(self):
        batched = BatchedMultiSearch(beta=100.0)
        batched.add_lanes(
            ["a"], [3], [1], [np.ones((1, 3), dtype=bool)], [np.array([0])],
            [np.array([3])],
        )
        with pytest.raises(QuantumSimulationError):
            batched.add_lanes(*self.good_inputs())

    def test_empty_bulk_is_a_no_op(self):
        batched = BatchedMultiSearch(beta=100.0)
        batched.add_lanes(
            [], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), [], [], []
        )
        assert len(batched) == 0


def held_bytes(batched):
    """Bytes of the distinct buffers behind the arrays the lanes hold."""
    buffers = {}
    for lane in batched._lanes:
        for name in type(lane).__slots__:
            value = getattr(lane, name, None)
            if isinstance(value, np.ndarray):
                owner = value if value.base is None else value.base
                buffers[id(owner)] = owner.nbytes
    return sum(buffers.values())


@pytest.mark.parametrize("beta", [None, 1000.0])
def test_add_lanes_holds_no_solution_sized_column(beta):
    # Typical lanes keep the caller's findable rows with their indices and
    # counts, so what they hold is those rows' cells plus a few words per
    # findable search — however dense the solutions are (here about half
    # of every row), and nothing at all for the zero-solution searches.
    rng = np.random.default_rng(11)
    lanes = []
    for index in range(16):
        num_items = int(rng.integers(30, 41))
        num_searches = int(rng.integers(20, 25))
        table = rng.random((num_searches, num_items)) < 0.5
        table[rng.random(num_searches) < 0.5] = False
        lanes.append((f"lane{index}", num_items, table))
    columns = findable_rows(lanes)
    tables = columns[2]
    batched = BatchedMultiSearch(beta=beta)
    batched.add_lanes([key for key, _, _ in lanes], *columns)
    assert all(lane.typicality.truncated_entries == 0 for lane in batched._lanes)
    assert all(
        lane.table is table for lane, table in zip(batched._lanes, tables)
    )
    findable = sum(table.shape[0] for table in tables)
    assert batched.registered == findable
    assert findable < sum(table.shape[0] for _, _, table in lanes)
    cells = sum(table.nbytes for table in tables)
    assert held_bytes(batched) <= cells + 16 * findable


def registered(lanes, *, beta, seed):
    """A batched search over ``lanes``, registered from their findable rows,
    with the seed column drawn from ``seed`` seeding the batch generator."""
    seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=len(lanes))
    batched = BatchedMultiSearch(beta=beta, eval_rounds=1.5, batch_rng=seeds)
    batched.add_lanes([key for key, _, _ in lanes], *findable_rows(lanes))
    return batched


def raising_resolver(*args, **kwargs):
    raise AssertionError("a found item was resolved")


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("beta", BETA_REGIMES)
@pytest.mark.parametrize("draws", ["batch", "lanes"])
def test_found_resolves_only_when_read(monkeypatch, seed, beta, draws):
    # Runs and found masks never resolve an item; ``found`` resolves on
    # first read (off the per-lane draws: to the sequential reference's
    # values).  beta=3.0 makes some lanes atypical, so truncated windows
    # are covered too.
    rng = np.random.default_rng(500 + seed)
    lanes = random_lanes(
        rng, num_lanes=7, max_items=9, max_searches=12, solution_rate=0.3
    )
    cap = max_iterations(max(num_items for _, num_items, _ in lanes) + 1)
    schedule = rng.integers(0, cap + 1, size=25).tolist()
    batched = registered(lanes, beta=beta, seed=seed)
    with monkeypatch.context() as patch:
        patch.setattr(batched_module, "_resolve_slots", raising_resolver)
        if draws == "batch":
            reports = batched.run(schedule)
        else:
            reports = run_lane_draws(batched, schedule)
        masks = {key: report.found_mask() for key, report in reports.items()}
    for key, report in reports.items():
        assert np.array_equal(masks[key], report.found >= 0), key
    if draws == "lanes":
        kwargs = dict(beta=beta, eval_rounds=1.5, amplification=12.0, seed=seed)
        assert_reports_identical(run_sequential(lanes, schedule, **kwargs), reports)


class _RecordingLaneDraws(LaneDraws):
    """The per-lane draws, recording the lanes that drew flags, the lanes
    a measurement served, and the lanes owning a measured search."""

    def __init__(self, seeds):
        super().__init__(seeds)
        self.flagged = set()
        self.served = set()
        self.measured = set()

    def flags(self, lanes):
        self.flagged.update(lanes.tolist())
        return super().flags(lanes)

    def uniforms(self, lanes, searches, table):
        self.served.update(lanes.tolist())
        owners = np.searchsorted(table.lane_off, searches, side="right") - 1
        self.measured.update(owners.tolist())
        return super().uniforms(lanes, searches, table)


def run_recorded(lanes, schedule, *, beta, seed, early_stop=True):
    """The bulk registration of ``lanes`` run off recording per-lane draws
    seeded like :func:`run_sequential`'s spawns, with the sequential
    reports beside it."""
    kwargs = dict(beta=beta, eval_rounds=1.5, amplification=12.0, seed=seed)
    sequential = run_sequential(lanes, schedule, early_stop=early_stop, **kwargs)
    seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=len(lanes))
    batched = BatchedMultiSearch(beta=beta, eval_rounds=1.5)
    batched.add_lanes([key for key, _, _ in lanes], *findable_rows(lanes))
    draws = _RecordingLaneDraws(seeds)
    reports = batched._run(schedule, draws, early_stop=early_stop)
    assert_reports_identical(sequential, reports)
    return batched, reports, draws


class TestFindableOnlyRegistration:
    """Only findable rows enter the run; every report still covers all of
    its lane's searches, identical to the per-node ``MultiSearch``."""

    SCHEDULE = [1, 0, 2, 1, 3, 0, 2, 2, 1, 3, 1, 2, 0, 3, 1, 2]

    def interleaved(self):
        # Zero rows before, between and after findable ones.
        table = np.zeros((9, 5), dtype=bool)
        table[1, [0, 3]] = True
        table[4, 2] = True
        table[5, [1, 2, 4]] = True
        table[7, 0] = True
        return table

    @pytest.mark.parametrize("beta", [None, 1000.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_zero_rows_interleaved_between_findable_ones(self, beta, seed):
        table = self.interleaved()
        lanes = [("mixed", 5, table), ("dense", 4, np.ones((3, 4), dtype=bool))]
        batched, reports, _draws = run_recorded(
            lanes, self.SCHEDULE, beta=beta, seed=seed
        )
        assert batched._lanes[0].rows.tolist() == [1, 4, 5, 7]
        assert batched.registered == 4 + 3
        mask = reports["mixed"].found_mask()
        assert mask.size == 9
        assert not mask[[0, 2, 3, 6, 8]].any()

    def test_all_zero_lane_freezes_without_draws_when_beta_is_none(self):
        lanes = [
            ("zero", 4, np.zeros((6, 4), dtype=bool)),
            ("live", 4, self.interleaved()[:, :4]),
        ]
        batched, reports, draws = run_recorded(
            lanes, self.SCHEDULE, beta=None, seed=3
        )
        assert batched._lanes[0].rows.size == 0
        assert reports["zero"].repetitions == len(self.SCHEDULE)
        assert reports["zero"].found_mask().tolist() == [False] * 6
        assert 0 not in draws.flagged | draws.served
        assert 1 in draws.measured

    @pytest.mark.parametrize("seed", range(4))
    def test_all_zero_lane_still_draws_flags_under_finite_beta(self, seed):
        # β = 2 < m makes Lemma 5's bound positive: the lane can be
        # corrupted, so it stays active and draws a flag every repetition
        # although it registers nothing.
        lanes = [
            ("zero", 3, np.zeros((12, 3), dtype=bool)),
            ("live", 5, self.interleaved()),
        ]
        batched, reports, draws = run_recorded(
            lanes, self.SCHEDULE, beta=2.0, seed=seed
        )
        assert batched._lanes[0].rows.size == 0
        assert reports["zero"].fidelity_bound_max > 0
        assert reports["zero"].repetitions == len(self.SCHEDULE)
        assert 0 in draws.flagged
        assert 0 not in draws.measured

    @pytest.mark.parametrize("seed", range(4))
    def test_truncation_that_empties_a_findable_row(self, seed):
        # β = 3 keeps item 0 for search 1 only (its first ⌊β/2⌋ = 1
        # search), which leaves search 3 — findable before truncation —
        # with no solution: it drops out of the registered rows, and its
        # lane never stops early.
        table = np.zeros((5, 3), dtype=bool)
        table[1, 0] = True
        table[2, [0, 2]] = True
        table[3, 0] = True
        lanes = [("atypical", 3, table)]
        batched, reports, _draws = run_recorded(
            lanes, self.SCHEDULE, beta=3.0, seed=seed
        )
        (lane,) = batched._lanes
        assert lane.rows.tolist() == [1, 2]
        assert lane.typicality.truncated_entries == 2
        report = reports["atypical"]
        assert report.repetitions == len(self.SCHEDULE)
        assert not report.found_mask()[[0, 3, 4]].any()

    @pytest.mark.parametrize("seed", range(4))
    def test_found_maps_back_to_original_search_indices(self, seed):
        table = self.interleaved()
        batched, reports, _draws = run_recorded(
            [("mixed", 5, table)], self.SCHEDULE * 4, beta=None, seed=seed
        )
        report = reports["mixed"]
        found = report.found_searches()
        assert set(found.tolist()) <= {1, 4, 5, 7}
        assert found.size  # the long schedule finds something
        assert np.array_equal(found, np.flatnonzero(report.found_mask()))
        assert np.array_equal(found, np.flatnonzero(report.found >= 0))
        for search in found.tolist():
            assert table[search, report.found[search]]


@pytest.mark.parametrize("width", [1, 255, 256, 65535, 65536])
def test_bool_sums_are_exact_at_every_accumulator_width(width):
    # The accumulator narrows with the summed axis's length: a full row
    # or column of ``width`` ones must not wrap.
    table = np.ones((3, width), dtype=bool)
    table[1, ::2] = False
    rows = bool_sums(table, 1)
    assert rows.tolist() == [width, width // 2, width]
    assert bool_sums(np.asfortranarray(table.T), 0).tolist() == rows.tolist()
    assert bool_sums(table, 0).tolist() == table.sum(axis=0).tolist()
