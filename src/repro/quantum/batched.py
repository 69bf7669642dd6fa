"""Class-level batching of the Step-3 multi-searches.

:class:`~repro.quantum.multisearch.MultiSearch` simulates the ``m`` lockstep
Grover searches of *one* search node.  In Step 3 of ComputePairs every
search node of a class runs its searches against the *same* global iteration
schedule (each Grover step is one application of the network-wide evaluation
procedure), so the natural execution unit is the whole class:
:class:`BatchedMultiSearch` advances every node's BBHT counters
simultaneously, one repetition of the shared schedule at a time.

The batching is an execution reorganization, not a semantic change — it is
*exactly equivalent*, per node, to constructing a :class:`MultiSearch` and
calling :meth:`~repro.quantum.multisearch.MultiSearch.run` with the shared
schedule (property-tested in ``tests/test_quantum_batched.py``):

* each lane keeps its own generator and consumes it in the same order and
  with the same call shapes as the sequential run, so every measurement,
  corruption flag, and early stop lands identically;
* the per-repetition work that does *not* touch a generator is hoisted out
  of the loop and vectorized — Grover angles for every search, Lemma 5
  fidelity deltas and cumulative round/oracle charges for every lane, all
  in one class-wide pass (:class:`_LaneTable`) — which is where the
  speedup comes from: the sequential version recomputed all of it per
  node per repetition.

Lanes are registered either one at a time (:meth:`BatchedMultiSearch.add`,
which delegates the CSR layout and the Theorem 3 typicality truncation to
:class:`MultiSearch`) or in bulk (:meth:`BatchedMultiSearch.add_lanes`): a
padded 3-D witness-table stack whose per-lane windows become CSR slices of
one ``np.nonzero`` pass, with no per-lane :class:`MultiSearch` (and hence no
per-search Python array list) constructed at all.  Lane state is held
directly on the :class:`_Lane` — effective CSR columns, typicality report,
and a lazily materialized generator — and both registration paths produce
bit-identical runs.

What remains in the lockstep loop is the irreducible randomness, and *how*
it is consumed is governed by a versioned **RNG consumption contract**:

``rng_contract="v1"`` (the byte-identity contract, default here)
    Each lane consumes its private generator in the same order and with the
    same call shapes as the sequential :meth:`MultiSearch.run`, so every
    measurement, corruption flag, and early stop lands identically — the
    strongest possible equivalence, at the cost of a per-lane Python loop
    inside every repetition.

``rng_contract="v2"`` (the batched contract)
    One *batch generator* — seeded from the same per-lane seed column v1
    would have handed out — serves the whole class: per repetition it draws
    the corruption flags for all active lanes in one call, the measurement
    variates for every pending search of every non-corrupted lane in one
    flat call, and the measurement slots for all hits in one call.  Stream
    identity with v1 is deliberately broken; what is preserved (and
    property-tested in ``tests/test_rng_contract_v2.py``) is the
    distributional contract of Lemma 5 — per-search marginals, found-pair
    validity, corruption-rate bounds — plus the exact round/oracle charge
    identities, which depend only on the shared schedule.

Lanes drop out of the active set as they finish (every search found, or the
repetition budget exhausted) under both contracts, mirroring the per-node
early stop.

The contract governs Step 3 of ComputePairs only — this loop.  Step 2 draws
one uniform block per segment under either contract
(:func:`repro.core.compute_pairs._step2_sample`).
"""

from __future__ import annotations

import math
from typing import Hashable, Optional, Sequence

import numpy as np

from repro.errors import QuantumSimulationError
from repro.quantum.amplitude import max_iterations
from repro.quantum.multisearch import (
    MultiSearch,
    MultiSearchReport,
    TypicalityReport,
    solutions_are_typical,
    uniform_atypical_mass,
    untruncated_typicality,
)
from repro import telemetry
from repro.util.rng import RngLike, materialize_rng

#: The versioned RNG consumption contracts (see the module docstring).
RNG_CONTRACTS = ("v1", "v2")


class _Lane:
    """One search node's state inside the lockstep loop.

    Holds the effective (typicality-truncated) CSR directly — solutions of
    search ``ℓ`` are ``eff_flat[eff_offsets[ℓ] : eff_offsets[ℓ + 1]]`` — so
    bulk registration never constructs a :class:`MultiSearch`.  The
    generator may be stored as a bare seed and materializes on first use
    (frozen lanes never touch theirs).  The schedule-determined rows
    (``iters``, ``delta``, ``theta``, ``rounds_cum``, ``oracle_cum``) are
    views into the class-wide :class:`_LaneTable`.
    """

    __slots__ = (
        "key", "num_items", "num_searches",
        "eff_offsets", "eff_flat", "typicality", "_rng",
        "pending", "found", "theta", "counts", "padded",
        "iters", "delta", "rounds_cum", "oracle_cum", "live", "can_freeze",
        "last_rep", "corrupted", "fidelity_max",
    )

    def __init__(
        self,
        key: Hashable,
        num_items: int,
        num_searches: int,
        eff_counts: np.ndarray,
        eff_offsets: np.ndarray,
        eff_flat: np.ndarray,
        typicality: TypicalityReport,
        rng,
    ) -> None:
        self.key = key
        self.num_items = int(num_items)
        self.num_searches = int(num_searches)
        self.counts = eff_counts
        self.eff_offsets = eff_offsets
        self.eff_flat = eff_flat
        self.typicality = typicality
        self._rng = rng
        self.last_rep = -1
        self.corrupted = 0
        self.fidelity_max = 0.0

    @property
    def rng(self) -> np.random.Generator:
        if not isinstance(self._rng, np.random.Generator):
            self._rng = materialize_rng(self._rng)
        return self._rng

    def report(self) -> MultiSearchReport:
        executed = self.last_rep + 1
        return MultiSearchReport(
            found=self.found,
            rounds=float(self.rounds_cum[self.last_rep]) if executed else 0.0,
            repetitions=executed,
            oracle_calls=int(self.oracle_cum[self.last_rep]) if executed else 0,
            typicality=self.typicality,
            corrupted_repetitions=self.corrupted,
            fidelity_bound_max=self.fidelity_max,
        )


class _LaneTable:
    """Everything the shared schedule determines, for all lanes in one pass.

    The sequential run recomputes these values inside its repetition loop;
    they only depend on each lane's (static) solution counts and the
    schedule, so one class-wide pass up front suffices (row ``i`` is lane
    ``i``, searches are flat in lane order):

    * ``iters`` — the schedule clamped to each lane's BBHT cap;
    * ``rounds_cum`` / ``oracle_cum`` — the cumulative round/oracle charges,
      a row-wise cumsum that accumulates left to right exactly like the
      sequential ``total_rounds +=``;
    * ``delta`` / ``can_freeze`` — Lemma 5's per-repetition deviation
      bounds, and whether they are all zero;
    * ``theta`` — the per-search Grover angles: the probabilities for
      repetition ``k`` over any pending subset ``p`` are
      ``sin²((2k+1)·θ[p])``, elementwise identical to
      ``amplitude.batch_success_probability`` on that subset.

    Building the table hands each lane its rows as views, plus its ``live``
    count (searches with at least one solution).
    """

    def __init__(
        self,
        lanes: Sequence[_Lane],
        schedule: np.ndarray,
        eval_rounds: float,
        beta: Optional[float],
    ) -> None:
        num_lanes = len(lanes)
        items = np.fromiter((lane.num_items for lane in lanes), np.int64, num_lanes)
        searches = np.fromiter((lane.num_searches for lane in lanes), np.int64, num_lanes)
        padded_items = items + 1
        caps = np.array([max_iterations(p) for p in padded_items.tolist()], dtype=np.int64)
        self.iters = np.minimum(schedule[None, :], caps.reshape(num_lanes, 1))
        terms = self.iters + 1
        self.rounds_cum = np.cumsum(terms * eval_rounds, axis=1)
        self.oracle_cum = np.cumsum(terms, axis=1)

        if beta is not None:
            roots = np.array(
                [
                    math.sqrt(uniform_atypical_mass(p, m, beta))
                    for p, m in zip(padded_items.tolist(), searches.tolist())
                ],
                dtype=np.float64,
            )
            self.delta = np.minimum(1.0, 2.0 * self.iters * roots[:, None])
            # With every deviation bound at zero, repetitions can never be
            # corrupted — together with an empty live set this makes the
            # lane's remaining evolution fully deterministic.
            self.can_freeze = ~self.delta.any(axis=1)
        else:
            self.delta = None
            self.can_freeze = np.ones(num_lanes, dtype=bool)

        self.lane_off = np.zeros(num_lanes + 1, dtype=np.int64)
        np.cumsum(searches, out=self.lane_off[1:])
        self.counts = (
            np.concatenate([lane.counts for lane in lanes])
            if num_lanes
            else np.empty(0, dtype=np.int64)
        )
        self.theta = np.arcsin(
            np.sqrt(
                (self.counts + 1).astype(np.float64)
                / np.repeat(padded_items, searches)
            )
        )
        solvable = np.zeros(self.counts.size + 1, dtype=np.int64)
        np.cumsum(self.counts > 0, out=solvable[1:])
        self.live = solvable[self.lane_off[1:]] - solvable[self.lane_off[:-1]]

        no_delta = np.empty(0)
        bounds = self.lane_off.tolist()
        for index, lane in enumerate(lanes):
            lo, hi = bounds[index], bounds[index + 1]
            lane.iters = self.iters[index]
            lane.rounds_cum = self.rounds_cum[index]
            lane.oracle_cum = self.oracle_cum[index]
            lane.delta = no_delta if self.delta is None else self.delta[index]
            lane.can_freeze = bool(self.can_freeze[index])
            lane.theta = self.theta[lo:hi]
            lane.live = int(self.live[index])


class BatchedMultiSearch:
    """All search nodes of one class, advanced in vectorized lockstep.

    Parameters mirror :class:`MultiSearch` (``beta``, ``eval_rounds``,
    ``amplification`` are shared by the whole class); lanes are added with
    :meth:`add` (one label at a time) or :meth:`add_lanes` (a padded stack)
    in the same order the sequential implementation would have constructed
    them, each with its own generator (or seed).

    ``rng_contract`` selects the consumption contract (module docstring):
    ``"v1"`` runs each lane on its private generator, byte-identical to the
    sequential reference; ``"v2"`` runs all lanes off one batch generator,
    cross-lane vectorized.  Under v2 the per-lane generators are never
    touched; the batch generator materializes from ``batch_rng`` (a
    generator, an integer seed, or — the canonical Step-3 use — the whole
    per-lane seed column) at run time.

    Lane coupling: both contracts tie every lane of a class to shared
    per-class RNG state (the v2 batch generator consumes exactly three calls
    per repetition across *all* lanes), so one ``BatchedMultiSearch`` per
    class is the smallest unit that can run apart from the others —
    splitting a class's lanes across runs would change the streams.
    """

    def __init__(
        self,
        *,
        beta: Optional[float] = None,
        eval_rounds: float = 1.0,
        amplification: float = 12.0,
        rng_contract: str = "v1",
        batch_rng=None,
    ) -> None:
        if rng_contract not in RNG_CONTRACTS:
            raise QuantumSimulationError(
                f"unknown rng_contract {rng_contract!r}; expected one of {RNG_CONTRACTS}"
            )
        self.beta = beta
        self.eval_rounds = float(eval_rounds)
        self.amplification = float(amplification)
        self.rng_contract = rng_contract
        self.batch_rng = batch_rng
        self._lanes: list[_Lane] = []
        self._keys: set[Hashable] = set()

    def __len__(self) -> int:
        return len(self._lanes)

    def add(
        self,
        key: Hashable,
        num_items: int,
        marked_table: np.ndarray,
        *,
        rng: RngLike = None,
    ) -> None:
        """Register one search node (its domain size, truth table of marked
        blocks per search, and private generator) under ``key``.

        Construction delegates to :class:`MultiSearch`, so the CSR layout
        and the Theorem 3 typicality truncation are the sequential ones by
        definition.
        """
        if key in self._keys:
            raise QuantumSimulationError(f"duplicate search-node key {key!r}")
        self._keys.add(key)
        search = MultiSearch(
            num_items,
            marked_table=marked_table,
            beta=self.beta,
            eval_rounds=self.eval_rounds,
            amplification=self.amplification,
            rng=rng,
        )
        self._lanes.append(
            _Lane(
                key,
                search.num_items,
                search.num_searches,
                search._eff_counts,
                search._eff_offsets,
                search._eff_flat,
                search.typicality,
                search.rng,
            )
        )

    def add_lanes(
        self,
        keys: Sequence[Hashable],
        num_items: np.ndarray,
        num_searches: np.ndarray,
        tables: np.ndarray,
        *,
        seeds: np.ndarray,
    ) -> None:
        """Register many lanes at once from a padded witness-table stack.

        ``tables`` is a boolean ``(len(keys), max_m, max_X)`` stack; lane
        ``i`` reads the window ``tables[i, :num_searches[i], :num_items[i]]``
        and everything outside a lane's window must be ``False``.
        ``seeds[i]`` is the integer seed ``spawn_rng`` would have produced
        for that lane, so drawing the whole seed column in one batched
        parent call keeps the parent stream byte-identical to sequential
        per-lane ``add(..., rng=spawn_rng(parent))`` calls; per-lane
        generators materialize lazily on first use.

        The stack's CSR (rows sorted by lane, then search, then item) comes
        from a single ``np.nonzero`` pass, and each typical lane's effective
        solution columns are plain slices of it — no per-lane
        :class:`MultiSearch`, no per-search Python array list.  The rare
        atypical lane (Lemma 3 failed: some item is a solution of more than
        ``β/2`` of the lane's searches) falls back to the sequential
        truncation machinery, keeping the deterministic ``C̃_m`` behaviour
        bit-identical.  Property-tested equal to the :meth:`add` loop in
        ``tests/test_quantum_batched.py``.
        """
        num_items = np.asarray(num_items, dtype=np.int64)
        num_searches = np.asarray(num_searches, dtype=np.int64)
        tables = np.asarray(tables, dtype=bool)
        seeds = np.asarray(seeds)
        num_lanes = len(keys)
        if (
            tables.ndim != 3
            or tables.shape[0] != num_lanes
            or num_items.shape != (num_lanes,)
            or num_searches.shape != (num_lanes,)
            or seeds.shape != (num_lanes,)
        ):
            raise QuantumSimulationError("misaligned bulk-lane arrays")
        if num_lanes == 0:
            return
        if int(num_items.min()) < 1:
            raise QuantumSimulationError("num_items must be positive")
        if int(num_searches.min()) < 1:
            raise QuantumSimulationError("need at least one search per lane")
        if int(num_searches.max()) > tables.shape[1] or int(num_items.max()) > tables.shape[2]:
            raise QuantumSimulationError("lane window exceeds the padded stack")

        # One pass over the stack: per-(lane, search) solution counts, per-
        # (lane, item) loads, and the concatenated CSR value column.
        row_counts = tables.sum(axis=2, dtype=np.int64)   # (lanes, max_m)
        item_loads = tables.sum(axis=1, dtype=np.int64)   # (lanes, max_X)
        search_pad = np.arange(tables.shape[1])[None, :] >= num_searches[:, None]
        item_pad = np.arange(tables.shape[2])[None, :] >= num_items[:, None]
        if (row_counts * search_pad).any() or (item_loads * item_pad).any():
            raise QuantumSimulationError("padding outside a lane window must be False")
        # flatnonzero + modulo instead of 3-D nonzero: only the item column
        # is needed, and one nnz-sized output (instead of three) keeps the
        # per-chunk allocations arena-cached.
        flat_items = np.flatnonzero(tables) % tables.shape[2]
        lane_starts = np.zeros(num_lanes + 1, dtype=np.int64)
        np.cumsum(row_counts.sum(axis=1), out=lane_starts[1:])
        max_loads = item_loads.max(axis=1)

        # Every lane's CSR offsets are a prefix of its row of one row-wise
        # cumsum (padding counts are zero).
        offsets = np.zeros((num_lanes, tables.shape[1] + 1), dtype=np.int64)
        np.cumsum(row_counts, axis=1, out=offsets[:, 1:])
        lane_starts = lane_starts.tolist()
        columns = zip(
            keys, num_searches.tolist(), num_items.tolist(), max_loads.tolist(),
            seeds.tolist(),
        )
        for index, (key, m, items, max_load, seed) in enumerate(columns):
            if key in self._keys:
                raise QuantumSimulationError(f"duplicate search-node key {key!r}")
            self._keys.add(key)
            if self.beta is not None and not solutions_are_typical(self.beta, max_load):
                # Atypical solutions: delegate the deterministic truncation
                # to the sequential machinery (rare — Lemma 3 failing).
                search = MultiSearch(
                    items,
                    marked_table=tables[index, :m, :items],
                    beta=self.beta,
                    eval_rounds=self.eval_rounds,
                    amplification=self.amplification,
                    rng=int(seed),
                )
                self._lanes.append(
                    _Lane(
                        key, items, m, search._eff_counts, search._eff_offsets,
                        search._eff_flat, search.typicality, search.rng,
                    )
                )
                continue
            self._lanes.append(
                _Lane(
                    key, items, m, row_counts[index, :m], offsets[index, :m + 1],
                    flat_items[lane_starts[index]:lane_starts[index + 1]],
                    untruncated_typicality(self.beta, items, m, max_load),
                    int(seed),
                )
            )

    def run(
        self,
        schedule: Sequence[int],
        *,
        early_stop: bool = True,
    ) -> dict[Hashable, MultiSearchReport]:
        """Advance every lane through the shared iteration schedule.

        Under ``rng_contract="v1"`` the returned ``{key: report}`` mapping
        is identical to ``MultiSearch.run(schedule=schedule)`` per lane on
        the same inputs and generators; under ``"v2"`` it is identically
        distributed, with the same round/oracle charges for the same
        schedule.
        """
        with telemetry.span(
            "quantum.batched_run",
            lanes=len(self._lanes),
            repetitions=len(schedule),
            rng_contract=self.rng_contract,
        ):
            if self.rng_contract == "v2":
                return self._run_v2(schedule, early_stop=early_stop)
            return self._run(schedule, early_stop=early_stop)

    def _run(
        self,
        schedule: Sequence[int],
        *,
        early_stop: bool,
    ) -> dict[Hashable, MultiSearchReport]:
        repetitions = len(schedule)
        # Building the table hands every lane its schedule rows.
        _LaneTable(
            self._lanes, np.asarray(schedule, dtype=np.int64), self.eval_rounds, self.beta
        )
        active: list[_Lane] = []
        for lane in self._lanes:
            lane.pending = np.arange(lane.num_searches, dtype=np.int64)
            lane.found = np.full(lane.num_searches, -1, dtype=np.int64)
            lane.padded = lane.counts + 1
            if repetitions and lane.can_freeze and lane.live == 0:
                # No search can ever be found and no repetition can ever be
                # corrupted: the lane's whole evolution is deterministic, so
                # it charges the full schedule without touching its
                # generator (which nothing else observes).
                lane.last_rep = repetitions - 1
            else:
                active.append(lane)

        typical = self.beta is not None
        for rep in range(repetitions):
            if not active:
                break
            still: list[_Lane] = []
            for lane in active:
                lane.last_rep = rep  # this repetition's charge is incurred
                rng = lane.rng
                if typical:
                    delta = lane.delta[rep]
                    if delta > lane.fidelity_max:
                        lane.fidelity_max = delta
                    if rng.random() < delta:
                        # Corrupted repetition: verification discards it.
                        lane.corrupted += 1
                        still.append(lane)
                        continue
                pending = lane.pending
                if not pending.size:
                    # All found before a corrupted tail repetition — the
                    # sequential loop charges this repetition, then stops.
                    continue
                draws = rng.random(pending.size)
                iterations = lane.iters[rep]
                probs = np.sin((2 * iterations + 1) * lane.theta[pending]) ** 2
                hits = pending[draws < probs]
                if hits.size:
                    slots = rng.integers(0, lane.padded[hits])
                    real = slots < lane.counts[hits]
                    real_hits = hits[real]
                    if real_hits.size:
                        lane.found[real_hits] = lane.eff_flat[
                            lane.eff_offsets[real_hits] + slots[real]
                        ]
                        pending = pending[lane.found[pending] < 0]
                        lane.pending = pending
                        lane.live -= int(real_hits.size)
                if early_stop and not pending.size:
                    continue  # lane finished at the end of this repetition
                if lane.can_freeze and lane.live == 0 and pending.size:
                    # Only zero-solution searches remain and corruption is
                    # impossible: fast-forward to the end of the schedule.
                    # (An *empty* pending set instead stops at the top of
                    # the next repetition, charging exactly one more.)
                    lane.last_rep = repetitions - 1
                    continue
                still.append(lane)
            active = still
        return {lane.key: lane.report() for lane in self._lanes}

    def _run_v2(
        self,
        schedule: Sequence[int],
        *,
        early_stop: bool,
    ) -> dict[Hashable, MultiSearchReport]:
        """The batched contract: all lanes advance off one generator.

        Per repetition exactly three generator calls happen, regardless of
        lane count: corruption flags for the active lanes (lane order),
        measurement variates for every pending search of every
        non-corrupted lane (flat ``(lane, search)`` order), and measurement
        slots for the hits.  The control flow per lane — charge, corrupted
        skip, empty-pending drop-out, early stop, deterministic
        fast-forward — is the same as :meth:`_run`, expressed over flat
        cross-lane arrays instead of a per-lane inner loop.
        """
        repetitions = len(schedule)
        table = _LaneTable(
            self._lanes, np.asarray(schedule, dtype=np.int64), self.eval_rounds, self.beta
        )
        # Every lane's ``found`` is a view into one flat column.
        bounds = table.lane_off.tolist()
        found_all = np.full(bounds[-1], -1, dtype=np.int64)
        active_ix: list[int] = []
        for index, lane in enumerate(self._lanes):
            lane.found = found_all[bounds[index]:bounds[index + 1]]
            if repetitions and lane.can_freeze and lane.live == 0:
                # Deterministic lane (nothing findable, nothing corruptible):
                # charges the full schedule without consuming randomness.
                lane.last_rep = repetitions - 1
            else:
                active_ix.append(index)
        if not repetitions or not active_ix:
            return {lane.key: lane.report() for lane in self._lanes}

        brng = materialize_rng(self.batch_rng)
        active = np.asarray(active_ix, dtype=np.int64)
        active_lanes = [self._lanes[index] for index in active_ix]
        num_lanes = len(active_lanes)
        sizes = np.diff(table.lane_off)[active]
        lane_off = np.zeros(num_lanes + 1, dtype=np.int64)
        np.cumsum(sizes, out=lane_off[1:])
        search_lane = np.repeat(np.arange(num_lanes, dtype=np.int64), sizes)
        # The active lanes' searches, gathered out of the table's flat columns.
        flat_ix = (
            np.repeat(table.lane_off[:-1][active] - lane_off[:-1], sizes)
            + np.arange(lane_off[-1], dtype=np.int64)
        )
        theta = table.theta[flat_ix]
        counts = table.counts[flat_ix]
        padded = counts + 1
        iters_mat = table.iters[active]
        typical = self.beta is not None
        if typical:
            delta_mat = table.delta[active]

        pending = np.ones(lane_off[-1], dtype=bool)
        # Measurement slots of found searches; the solution *values* resolve
        # per lane after the loop — concatenating every lane's effective CSR
        # (``eff_flat``) up front would copy the whole class's solution
        # lists, which dwarfs the loop itself on large classes.
        found_slot = np.full(lane_off[-1], -1, dtype=np.int64)
        pend_count = sizes.copy()
        live = table.live[active]
        can_freeze = table.can_freeze[active]
        lane_active = np.ones(num_lanes, dtype=bool)
        last_rep = np.full(num_lanes, -1, dtype=np.int64)
        corrupted = np.zeros(num_lanes, dtype=np.int64)
        fidelity_max = np.zeros(num_lanes, dtype=np.float64)
        measuring = np.zeros(num_lanes, dtype=bool)
        # Working set: indices of pending searches in still-active lanes,
        # always ascending — so the measurement batch below keeps the
        # contract's flat (lane, search) draw order while per-repetition
        # work shrinks with completions exactly like the sequential form's.
        work = np.arange(lane_off[-1], dtype=np.int64)
        work_lane = search_lane

        for rep in range(repetitions):
            idx = np.flatnonzero(lane_active)
            if not idx.size:
                break
            last_rep[idx] = rep  # this repetition's charge is incurred
            meas_idx = idx
            any_corrupted = False
            if typical:
                delta_col = delta_mat[idx, rep]
                fidelity_max[idx] = np.maximum(fidelity_max[idx], delta_col)
                corr = brng.random(idx.size) < delta_col
                any_corrupted = bool(corr.any())
                if any_corrupted:
                    # Corrupted repetitions: verification discards them;
                    # the lanes stay active.
                    corrupted[idx[corr]] += 1
                    meas_idx = idx[~corr]
            # All found before a corrupted tail repetition: charge this
            # repetition, then stop (same as the sequential drop-out).
            exhausted = pend_count[meas_idx] == 0
            if exhausted.any():
                lane_active[meas_idx[exhausted]] = False
                meas_idx = meas_idx[~exhausted]
            if not meas_idx.size:
                continue
            if any_corrupted:
                measuring[:] = False
                measuring[meas_idx] = True
                picked = measuring[work_lane]
                flat = work[picked]
                flat_lane = work_lane[picked]
            else:
                # Every work entry belongs to a measured lane (exhausted
                # lanes have none), so the working set is measured whole.
                flat = work
                flat_lane = work_lane
            draws = brng.random(flat.size)
            probs = np.sin((2 * iters_mat[flat_lane, rep] + 1) * theta[flat]) ** 2
            hits = flat[draws < probs]
            shrunk = False
            if hits.size:
                slots = brng.integers(0, padded[hits])
                real = slots < counts[hits]
                real_hits = hits[real]
                if real_hits.size:
                    found_slot[real_hits] = slots[real]
                    pending[real_hits] = False
                    per_lane = np.bincount(
                        search_lane[real_hits], minlength=num_lanes
                    )
                    pend_count -= per_lane
                    live -= per_lane
                    shrunk = True
            if early_stop:
                done = meas_idx[pend_count[meas_idx] == 0]
                if done.size:
                    lane_active[done] = False  # finished this repetition
                    shrunk = True
            frozen = meas_idx[
                can_freeze[meas_idx]
                & (live[meas_idx] == 0)
                & (pend_count[meas_idx] > 0)
            ]
            if frozen.size:
                # Only zero-solution searches remain and corruption is
                # impossible: fast-forward to the end of the schedule.
                last_rep[frozen] = repetitions - 1
                lane_active[frozen] = False
                shrunk = True
            if shrunk:
                keep = pending[work] & lane_active[work_lane]
                work = work[keep]
                work_lane = work_lane[keep]

        hits = np.flatnonzero(found_slot >= 0)
        hit_bounds = np.searchsorted(hits, lane_off).tolist()
        starts = lane_off.tolist()
        lane_state = zip(
            live.tolist(), last_rep.tolist(), corrupted.tolist(), fidelity_max.tolist()
        )
        for index, (lane, state) in enumerate(zip(active_lanes, lane_state)):
            lo, hi = hit_bounds[index], hit_bounds[index + 1]
            if hi > lo:
                lane_hits = hits[lo:hi]
                local = lane_hits - starts[index]
                lane.found[local] = lane.eff_flat[
                    lane.eff_offsets[local] + found_slot[lane_hits]
                ]
            lane.live, lane.last_rep, lane.corrupted, lane.fidelity_max = state
        return {lane.key: lane.report() for lane in self._lanes}
