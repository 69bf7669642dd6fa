"""BatchedMultiSearch ≡ per-node MultiSearch, exactly.

The class-level batching of Step 3 is an execution reorganization: for the
same inputs and the same shared schedule, the batched loop run off the
sequential per-lane draws (:class:`repro.core._reference.LaneDraws`) must
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

from repro.core._reference import LaneDraws, run_lane_draws
from repro.errors import QuantumSimulationError
from repro.quantum import batched as batched_module
from repro.quantum.amplitude import max_iterations
from repro.quantum.batched import BatchedMultiSearch
from repro.quantum.multisearch import MultiSearch


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
    batched.add_lanes(["empty"], [4], [5], table[None])
    schedule = [1, 2, 0, 3]
    report = batched.run(schedule)["empty"]
    sequential = MultiSearch(
        4, [np.flatnonzero(row) for row in table], beta=1000.0, eval_rounds=2.0,
        rng=0,
    ).run(schedule=schedule)
    assert report.rounds == sequential.rounds
    assert report.repetitions == len(schedule)
    assert not report.found_mask().any()


def test_empty_schedule_charges_nothing():
    batched = BatchedMultiSearch(beta=100.0)
    batched.add_lanes(["a"], [3], [2], np.ones((1, 2, 3), dtype=bool))
    report = batched.run([])["a"]
    assert report.rounds == 0.0
    assert report.repetitions == 0
    assert report.oracle_calls == 0


def test_duplicate_keys_rejected():
    batched = BatchedMultiSearch()
    with pytest.raises(QuantumSimulationError):
        batched.add_lanes(["a", "a"], [3, 3], [1, 1], np.ones((2, 1, 3), dtype=bool))


def test_atypical_lane_keeps_each_item_for_its_first_half_beta_searches():
    # β = 3: block 0 solves searches 0, 1 and 2, so its load 3 exceeds
    # β/2 and the truncated oracle keeps it for ⌊β/2⌋ = 1 search only —
    # search 0; searches 1 and 2 lose it (2 dropped entries).  Block 1
    # solves search 1 alone and stays.
    table = np.array([[True, False], [True, True], [True, False]])
    stack = table[None].copy()
    batched = BatchedMultiSearch(beta=3.0)
    batched.add_lanes(["lane"], [2], [3], stack)
    (lane,) = batched._lanes
    assert np.array_equal(lane.table, [[True, False], [False, True], [False, False]])
    assert lane.counts.tolist() == [1, 1, 0]
    assert lane.typicality.truncated_entries == 2
    assert not lane.typicality.solutions_typical
    assert lane.typicality.max_solution_load == 3
    assert np.array_equal(stack[0], table)  # the caller's stack is untouched
    sequential = MultiSearch(2, [np.flatnonzero(row) for row in table], beta=3.0)
    assert sequential._eff_counts.tolist() == lane.counts.tolist()
    assert [marked.tolist() for marked in sequential._marked_effective] == [
        np.flatnonzero(row).tolist() for row in lane.table
    ]
    assert sequential.typicality == lane.typicality


def padded_stack(lanes):
    """The bulk-registration view of per-lane tables: a padded 3-D bool
    stack plus the per-lane (num_items, num_searches) columns."""
    num_items = np.array([items for _, items, _ in lanes], dtype=np.int64)
    num_searches = np.array([table.shape[0] for _, _, table in lanes], dtype=np.int64)
    stack = np.zeros(
        (len(lanes), int(num_searches.max()), int(num_items.max())), dtype=bool
    )
    for index, (_, items, table) in enumerate(lanes):
        stack[index, : table.shape[0], :items] = table
    return num_items, num_searches, stack


def run_bulk(lanes, schedule, *, beta, eval_rounds, amplification, seed,
             early_stop=True):
    spawner = np.random.default_rng(seed)
    batched = BatchedMultiSearch(
        beta=beta, eval_rounds=eval_rounds, amplification=amplification
    )
    num_items, num_searches, stack = padded_stack(lanes)
    # One batched draw — must equal len(lanes) sequential spawner draws.
    seeds = spawner.integers(0, 2**63 - 1, size=len(lanes))
    batched.add_lanes([key for key, _, _ in lanes], num_items, num_searches, stack)
    reports = batched._run(schedule, LaneDraws(seeds), early_stop=early_stop)
    return reports, spawner


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("beta", BETA_REGIMES)
def test_add_lanes_equals_add_loop(seed, beta):
    # Bulk registration from the padded stack is bit-identical to the
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
        stack = np.zeros((2, 3, 4), dtype=bool)
        stack[0, :2, :3] = True
        stack[1] = True
        return (
            ["a", "b"],
            np.array([3, 4]),
            np.array([2, 3]),
            stack,
        )

    def test_accepts_well_formed_stack(self):
        keys, items, searches, stack = self.good_inputs()
        batched = BatchedMultiSearch(beta=100.0)
        batched.add_lanes(keys, items, searches, stack)
        assert len(batched) == 2

    def test_rejects_true_padding(self):
        keys, items, searches, stack = self.good_inputs()
        stack = stack.copy()
        stack[0, 2, 0] = True  # outside lane 0's (2, 3) window
        batched = BatchedMultiSearch(beta=100.0)
        with pytest.raises(QuantumSimulationError):
            batched.add_lanes(keys, items, searches, stack)

    def test_rejects_misaligned_columns(self):
        keys, items, searches, stack = self.good_inputs()
        batched = BatchedMultiSearch(beta=100.0)
        with pytest.raises(QuantumSimulationError):
            batched.add_lanes(keys, items[:1], searches, stack)

    def test_rejects_window_larger_than_stack(self):
        keys, items, searches, stack = self.good_inputs()
        batched = BatchedMultiSearch(beta=100.0)
        with pytest.raises(QuantumSimulationError):
            batched.add_lanes(keys, items + 10, searches, stack)

    def test_rejects_duplicate_key_across_paths(self):
        keys, items, searches, stack = self.good_inputs()
        batched = BatchedMultiSearch(beta=100.0)
        batched.add_lanes(["a"], [3], [1], np.ones((1, 1, 3), dtype=bool))
        with pytest.raises(QuantumSimulationError):
            batched.add_lanes(keys, items, searches, stack)

    def test_empty_bulk_is_a_no_op(self):
        batched = BatchedMultiSearch(beta=100.0)
        batched.add_lanes(
            [], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty((0, 1, 1), dtype=bool),
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
    # Bulk lanes keep their solution counts and bool views of the stack, so
    # what they hold is the stack's cells plus a few words per search —
    # however dense the solutions are (here about half of every window).
    rng = np.random.default_rng(11)
    lanes = []
    for index in range(16):
        num_items = int(rng.integers(30, 41))
        num_searches = int(rng.integers(20, 25))
        table = rng.random((num_searches, num_items)) < 0.5
        lanes.append((f"lane{index}", num_items, table))
    num_items, num_searches, stack = padded_stack(lanes)
    batched = BatchedMultiSearch(beta=beta)
    batched.add_lanes([key for key, _, _ in lanes], num_items, num_searches, stack)
    assert all(lane.typicality.truncated_entries == 0 for lane in batched._lanes)
    assert held_bytes(batched) <= stack.nbytes + 16 * int(num_searches.sum())


def registered(lanes, *, beta, seed):
    """A batched search over ``lanes``, registered from the padded stack,
    with the seed column drawn from ``seed`` seeding the batch generator."""
    seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=len(lanes))
    batched = BatchedMultiSearch(beta=beta, eval_rounds=1.5, batch_rng=seeds)
    num_items, num_searches, stack = padded_stack(lanes)
    batched.add_lanes([key for key, _, _ in lanes], num_items, num_searches, stack)
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
