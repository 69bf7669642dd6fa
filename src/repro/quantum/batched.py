"""Class-level batching of the Step-3 multi-searches.

:class:`~repro.quantum.multisearch.MultiSearch` simulates the ``m`` lockstep
Grover searches of *one* search node.  In Step 3 of ComputePairs every
search node of a class runs its searches against the *same* global iteration
schedule (each Grover step is one application of the network-wide evaluation
procedure), so the natural execution unit is the whole class:
:class:`BatchedMultiSearch` advances every node's BBHT counters
simultaneously, one repetition of the shared schedule at a time.

The batching reorganizes the execution, not the search: the per-repetition
work that does *not* touch a generator is hoisted out of the loop and
vectorized — Grover angles for every search, Lemma 5 fidelity deltas and
cumulative round/oracle charges for every lane, all in one class-wide pass
(:class:`_LaneTable`) — and the loop itself runs over flat cross-lane
``(lane, search)`` arrays, so no step of it walks the lanes one at a time.

Lanes are registered in bulk (:meth:`BatchedMultiSearch.add_lanes`) from
their *findable* rows only.  A search with no solution can never be found,
so the simulation needs it for two things alone: its lane's search count
``m``, and the fact that a lane holding one never stops early.  Each lane
keeps its ``m``, the bool solution rows of its findable searches (the
caller's array, as handed over), their search indices and solution counts,
and its max item load (for the typicality check) — no solution list is
built.  A lane where Lemma 3 fails keeps a truncated copy of its rows
instead: each item stays a solution of only its first ``⌊β/2⌋`` searches,
the rule of :meth:`MultiSearch._apply_typicality` (zero rows do not move
that per-item count, so truncating the findable rows alone is exact), and a
row the truncation empties leaves the registered set.  A search's success
probability depends only on its solution count, and ComputePairs reads only
*whether* a search found something, so the loop records the measured slot
of each found search; the item itself (the slot-th ``True`` of the search's
row) resolves the first time a report's ``found`` is read, and
``found_mask()`` / ``found_searches()`` never resolve.  Reports index their
searches ``0..m-1``, registered or not.

One repetition loop draws its variates from one **batch generator** per
class (:class:`_BatchDraws`): per repetition it draws the corruption flags
for all active lanes in one call, the measurement variates for every
pending registered search of every non-corrupted lane in one flat call, and
the measurement slots for all hits in one call.  An unregistered
(zero-solution) search is never measured and draws nothing, but its lane
counts it as pending, so the lane neither stops early nor freezes any
differently and its charges are those of a loop that measured it.  The
generator is seeded from the per-lane seed column Step 3 draws off its
driver stream.  What the stream preserves is the distributional contract
of Lemma 5 — per-search marginals, found-pair validity, corruption-rate
bounds — plus the exact round/oracle charge identities, which depend only
on the shared schedule; ``tests/test_rng_contract_v2.py`` property-tests
these and pins the exact stream (and, separately, the charges of lanes
holding a zero-solution search) by digest.

The loop takes its draw source as an argument
(:meth:`BatchedMultiSearch._run`), so the sequential draws live on as a
test reference:
:class:`tests.reference.LaneDraws` gives each lane its own generator,
drawn with the call shapes of :meth:`MultiSearch.run` — including the
measurement uniforms of a lane's zero-solution searches, which it draws
and discards — and the loop then reproduces
``MultiSearch.run(schedule=...)`` per lane byte for byte
(``tests/test_quantum_batched.py``).  The control flow — charge, corrupted
skip, empty-pending drop-out, early stop, deterministic fast-forward — is
the same whichever source draws.

Lanes drop out of the active set as they finish (every search found, or the
repetition budget exhausted), mirroring the per-node early stop.

The batch generator governs Step 3 of ComputePairs only — this loop.  Step
2 draws one uniform block per segment
(:func:`repro.core.compute_pairs._step2_sample`).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Hashable, Optional, Sequence

import numpy as np

from repro.errors import QuantumSimulationError
from repro.quantum.amplitude import max_iterations
from repro.quantum.multisearch import (
    MultiSearchReport,
    TypicalityReport,
    solutions_are_typical,
    uniform_atypical_mass,
    untruncated_typicality,
)
from repro import telemetry
from repro.util.rng import materialize_rng


def bool_sums(table: np.ndarray, axis: int) -> np.ndarray:
    """The ``True`` counts of a bool table along ``axis``.

    Accumulates in the narrowest unsigned type that holds every sum
    exactly: uint8 and uint16 reductions run SIMD-wide, where an int64 one
    converts element by element.
    """
    bound = table.shape[axis]
    dtype = np.uint8 if bound < 1 << 8 else np.uint16 if bound < 1 << 16 else np.int64
    return np.add.reduce(table.view(np.uint8), axis=axis, dtype=dtype)


def _resolve_slots(table: np.ndarray, rows: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """The measured items of found searches: item ``i`` of the result is the
    ``slots[i]``-th ``True`` of ``table[rows[i]]``.

    A row's solutions are ascending in item order, so this is the item
    :meth:`MultiSearch.run` reads off the search's solution list at
    position ``slot``.
    """
    ranks = np.cumsum(table[rows], axis=1)
    return np.argmax(ranks > slots[:, None], axis=1)


class _Lane:
    """One registered search node.

    ``table`` is the effective (typicality-truncated) solution table of the
    lane's findable searches — the caller's rows, or a truncated copy of
    them for an atypical lane — ``rows`` their search indices (ascending,
    in ``0..num_searches-1``) and ``counts`` their solution counts, each at
    least one.  The lane's other searches have no solution.  The loop needs
    only the counts; a report resolves found items against the table.
    """

    __slots__ = (
        "key", "num_items", "num_searches", "table", "rows", "counts", "typicality",
    )

    def __init__(
        self,
        key: Hashable,
        num_items: int,
        num_searches: int,
        table: np.ndarray,
        rows: np.ndarray,
        counts: np.ndarray,
        typicality: TypicalityReport,
    ) -> None:
        self.key = key
        self.num_items = int(num_items)
        self.num_searches = int(num_searches)
        self.table = table
        self.rows = rows
        self.counts = counts
        self.typicality = typicality


class _LaneReport(MultiSearchReport):
    """A lane's :class:`MultiSearchReport` over all of its searches, kept as
    the measured slots of its registered ones.  ``found`` items resolve
    from the slots the first time they are read; :meth:`found_mask` and
    :meth:`found_searches` read the slots and never resolve."""

    def __init__(self, slots: np.ndarray, lane: _Lane, **fields) -> None:
        self._slots = slots
        self._rows = lane.rows
        self._num_searches = lane.num_searches
        self._table = lane.table
        super().__init__(found=None, **fields)

    @property
    def found(self) -> np.ndarray:
        if self._found is None:
            found = np.full(self._num_searches, -1, dtype=np.int64)
            hits = np.flatnonzero(self._slots >= 0)
            if hits.size:
                found[self._rows[hits]] = _resolve_slots(
                    self._table, hits, self._slots[hits]
                )
            self._found = found
            self._table = None
        return self._found

    @found.setter
    def found(self, value: Optional[np.ndarray]) -> None:
        # The dataclass ``__init__`` assigns ``found`` (``None`` here).
        self._found = value

    def found_mask(self) -> np.ndarray:
        mask = np.zeros(self._num_searches, dtype=bool)
        mask[self.found_searches()] = True
        return mask

    def found_searches(self) -> np.ndarray:
        return self._rows[self._slots >= 0]


class _LaneTable:
    """Everything the shared schedule determines, for all lanes in one pass.

    The sequential run recomputes these values inside its repetition loop;
    they only depend on each lane's (static) solution counts and the
    schedule, so one class-wide pass up front suffices (row ``i`` is lane
    ``i``; the registered searches are flat in lane order, lane ``i``
    owning ``lane_off[i]:lane_off[i + 1]``):

    * ``iters`` — the schedule clamped to each lane's BBHT cap;
    * ``rounds_cum`` / ``oracle_cum`` — the round/oracle charges after
      ``k`` repetitions in column ``k`` (column 0 is zero), a row-wise
      cumsum that accumulates left to right exactly like the sequential
      ``total_rounds +=``;
    * ``delta`` / ``can_freeze`` — Lemma 5's per-repetition deviation
      bounds (over each lane's full ``m``), and whether they are all zero;
    * ``theta`` — the per-search Grover angles: the probabilities for
      repetition ``k`` over any pending subset ``p`` are
      ``sin²((2k+1)·θ[p])``, elementwise identical to
      ``amplitude.batch_success_probability`` on that subset;
    * ``counts`` — the registered searches' solution counts (each at
      least one); ``searches`` — each lane's ``m``, registered or not;
      ``lanes`` — the lanes themselves, for a draw source that needs a
      lane's search indices.
    """

    def __init__(
        self,
        lanes: Sequence[_Lane],
        schedule: np.ndarray,
        eval_rounds: float,
        beta: Optional[float],
    ) -> None:
        num_lanes = len(lanes)
        self.lanes = lanes
        items = np.fromiter((lane.num_items for lane in lanes), np.int64, num_lanes)
        searches = np.fromiter((lane.num_searches for lane in lanes), np.int64, num_lanes)
        registered = np.fromiter((lane.rows.size for lane in lanes), np.int64, num_lanes)
        self.searches = searches
        padded_items = items + 1
        caps = np.array([max_iterations(p) for p in padded_items.tolist()], dtype=np.int64)
        self.iters = np.minimum(schedule[None, :], caps.reshape(num_lanes, 1))
        terms = self.iters + 1
        shape = (num_lanes, schedule.size + 1)
        self.rounds_cum = np.zeros(shape, dtype=np.float64)
        np.cumsum(terms * eval_rounds, axis=1, out=self.rounds_cum[:, 1:])
        self.oracle_cum = np.zeros(shape, dtype=np.int64)
        np.cumsum(terms, axis=1, out=self.oracle_cum[:, 1:])

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
            # corrupted — together with nothing findable left pending this
            # makes the lane's remaining evolution fully deterministic.
            self.can_freeze = ~self.delta.any(axis=1)
        else:
            self.delta = None
            self.can_freeze = np.ones(num_lanes, dtype=bool)

        self.lane_off = np.zeros(num_lanes + 1, dtype=np.int64)
        np.cumsum(registered, out=self.lane_off[1:])
        self.counts = (
            np.concatenate([lane.counts for lane in lanes], dtype=np.int64)
            if num_lanes
            else np.empty(0, dtype=np.int64)
        )
        self.theta = np.arcsin(
            np.sqrt(
                (self.counts + 1).astype(np.float64)
                / np.repeat(padded_items, registered)
            )
        )

    def probabilities(
        self, rep: int, searches: np.ndarray, lanes: np.ndarray
    ) -> np.ndarray:
        """``sin²((2k+1)·θ)`` of repetition ``rep`` for the given searches
        (``lanes[i]`` owns ``searches[i]``), computed in place."""
        probs = self.theta[searches]
        probs *= (2 * self.iters[:, rep] + 1)[lanes]
        np.sin(probs, out=probs)
        return np.square(probs, out=probs)


class _BatchDraws:
    """The draw source of the loop: one batch generator serves the whole
    class, one call per draw kind per repetition.  A source answers three
    calls — ``flags(lanes)`` (one corruption uniform per active lane),
    ``uniforms(lanes, searches, table)`` (one measurement uniform per
    entry of ``searches``: the ascending flat indices of the pending
    registered searches of the measured ``lanes``; unregistered,
    zero-solution searches get none) and ``slots(lanes, bounds)`` (one
    slot below ``bounds[i]`` per hit, ``lanes`` ascending)."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def flags(self, lanes: np.ndarray) -> np.ndarray:
        return self.rng.random(lanes.size)

    def uniforms(
        self, lanes: np.ndarray, searches: np.ndarray, table: _LaneTable
    ) -> np.ndarray:
        return self.rng.random(searches.size)

    def slots(self, lanes: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        return self.rng.integers(0, bounds)


class BatchedMultiSearch:
    """All search nodes of one class, advanced in vectorized lockstep.

    ``beta`` and ``eval_rounds`` mirror :class:`MultiSearch` and are shared
    by the whole class; the caller draws the repetition schedule, so there
    is no amplification knob here.  Lanes are added with :meth:`add_lanes`
    (each lane's findable rows).
    The batch generator materializes from ``batch_rng`` (a generator, an
    integer seed, or — the canonical Step-3 use — the whole per-lane seed
    column) at run time.

    Lane coupling: the batch generator consumes exactly three calls per
    repetition across *all* lanes, so one ``BatchedMultiSearch`` per class
    is the smallest unit that can run apart from the others — splitting a
    class's lanes across runs would change the stream.
    """

    def __init__(
        self,
        *,
        beta: Optional[float] = None,
        eval_rounds: float = 1.0,
        batch_rng=None,
    ) -> None:
        self.beta = beta
        self.eval_rounds = float(eval_rounds)
        self.batch_rng = batch_rng
        self._lanes: list[_Lane] = []
        self._keys: set[Hashable] = set()
        #: Searches that entered the run: the lanes' findable rows, after
        #: any typicality truncation.
        self.registered = 0

    def __len__(self) -> int:
        return len(self._lanes)

    def add_lanes(
        self,
        keys: Sequence[Hashable],
        num_items: np.ndarray,
        num_searches: np.ndarray,
        tables: Sequence[np.ndarray],
        rows: Sequence[np.ndarray],
        counts: Sequence[np.ndarray],
    ) -> None:
        """Register many lanes at once from their findable rows.

        Lane ``i`` runs ``num_searches[i]`` searches over ``num_items[i]``
        items, and only its findable searches (at least one solution) are
        passed: ``rows[i]`` holds their search indices (strictly
        ascending, below ``num_searches[i]``), ``tables[i]`` their
        ``(len(rows[i]), num_items[i])`` bool solution rows, and
        ``counts[i]`` the row sums of ``tables[i]`` (each at least one),
        taken as given.  Every other search of the lane has no solution.
        A lane may pass no rows: it still charges the schedule, and under
        finite ``β`` it still draws its corruption flags.

        Each typical lane keeps the caller's arrays — 1 byte per findable
        cell, no solution list.  The rare atypical lane (Lemma 3 failed:
        some item is a solution of more than ``β/2`` of the lane's
        searches) keeps a new table instead, in which each item stays a
        solution of only its first ``⌊β/2⌋`` searches in index order — the
        deterministic ``C̃_m`` truncation of
        :meth:`MultiSearch._apply_typicality` — and drops the rows that
        truncation empties; the caller's arrays are never written.
        ``tests/test_quantum_batched.py`` runs the lanes against per-lane
        :class:`MultiSearch` runs in every ``β`` regime.
        """
        num_items = np.asarray(num_items, dtype=np.int64)
        num_searches = np.asarray(num_searches, dtype=np.int64)
        num_lanes = len(keys)
        if (
            num_items.shape != (num_lanes,)
            or num_searches.shape != (num_lanes,)
            or not len(tables) == len(rows) == len(counts) == num_lanes
        ):
            raise QuantumSimulationError("misaligned bulk-lane arrays")
        if num_lanes == 0:
            return
        if int(num_items.min()) < 1:
            raise QuantumSimulationError("num_items must be positive")
        if int(num_searches.min()) < 1:
            raise QuantumSimulationError("need at least one search per lane")

        columns = zip(keys, num_items.tolist(), num_searches.tolist(), tables, rows, counts)
        for key, items, m, table, lane_rows, lane_counts in columns:
            if key in self._keys:
                raise QuantumSimulationError(f"duplicate search-node key {key!r}")
            if (
                table.dtype != np.bool_
                or table.shape != (lane_rows.size, items)
                or lane_counts.shape != lane_rows.shape
            ):
                raise QuantumSimulationError("misaligned bulk-lane arrays")
            max_load = 0
            if lane_rows.size:
                if not (
                    0 <= lane_rows[0]
                    and lane_rows[-1] < m
                    and (lane_rows[1:] > lane_rows[:-1]).all()
                ):
                    raise QuantumSimulationError(
                        "findable rows must be ascending search indices"
                    )
                if lane_counts.min() < 1:
                    raise QuantumSimulationError("a findable row needs a solution")
                max_load = int(bool_sums(table, 0).max())
            self._keys.add(key)
            typicality = untruncated_typicality(self.beta, items, m, max_load)
            if self.beta is not None and not solutions_are_typical(self.beta, max_load):
                # Atypical solutions (rare — Lemma 3 failing): the truncated
                # oracle keeps each item for its first ⌊β/2⌋ searches only,
                # and a search left with no solution is no longer findable.
                keep = math.floor(self.beta / 2.0)
                table = table & (np.cumsum(table, axis=0) <= keep)
                kept = table.sum(axis=1, dtype=np.int64)
                typicality = replace(
                    typicality,
                    solutions_typical=False,
                    truncated_entries=int(lane_counts.sum()) - int(kept.sum()),
                )
                findable = kept > 0
                table = table[findable]
                lane_rows = lane_rows[findable]
                lane_counts = kept[findable]
            self._lanes.append(
                _Lane(key, items, m, table, lane_rows, lane_counts, typicality)
            )
            self.registered += lane_rows.size

    def run(
        self,
        schedule: Sequence[int],
        *,
        early_stop: bool = True,
    ) -> dict[Hashable, MultiSearchReport]:
        """Advance every lane through the shared iteration schedule, drawing
        from the batch generator.

        The returned ``{key: report}`` mapping is identically distributed to
        ``MultiSearch.run(schedule=schedule)`` per lane, with the same
        round/oracle charges for the same schedule.
        """
        with telemetry.span(
            "quantum.batched_run",
            lanes=len(self._lanes),
            repetitions=len(schedule),
        ):
            return self._run(
                schedule, _BatchDraws(materialize_rng(self.batch_rng)),
                early_stop=early_stop,
            )

    def _run(
        self,
        schedule: Sequence[int],
        draws,
        *,
        early_stop: bool,
    ) -> dict[Hashable, MultiSearchReport]:
        """The lockstep repetition loop, over flat ``(lane, search)`` arrays,
        drawing every variate from ``draws`` (see :class:`_BatchDraws`).

        Per repetition, in lane order: every active lane is charged; under
        finite ``β`` it draws its corruption flag and a corrupted lane skips
        the measurement; a lane with nothing pending drops out (the
        sequential loop's break after a corrupted tail repetition); the
        other lanes measure every pending registered search and then stop
        early when all their searches are found, or fast-forward to the
        end of the schedule when only unregistered (zero-solution)
        searches remain and corruption is impossible.  Those searches are
        never measured — they cannot be found — but count as pending, so a
        lane holding one never stops early and charges what it would if
        they were measured.
        """
        lanes = self._lanes
        repetitions = len(schedule)
        table = _LaneTable(
            lanes, np.asarray(schedule, dtype=np.int64), self.eval_rounds, self.beta
        )
        num_lanes = len(lanes)
        found_slot = np.full(table.counts.size, -1, dtype=np.int64)
        pending = np.ones(table.counts.size, dtype=bool)
        # Every search of a lane is pending until found, registered or not;
        # ``live`` counts the pending registered (findable) ones.
        pend_count = table.searches.copy()
        live = np.diff(table.lane_off)
        last_rep = np.full(num_lanes, -1, dtype=np.int64)
        corrupted = np.zeros(num_lanes, dtype=np.int64)
        fidelity_max = np.zeros(num_lanes, dtype=np.float64)
        measuring = np.zeros(num_lanes, dtype=bool)
        # Deterministic lanes (nothing findable, nothing corruptible) charge
        # the full schedule without drawing, and start inactive.
        lane_active = ~(table.can_freeze & (live == 0))
        if repetitions:
            last_rep[~lane_active] = repetitions - 1
        # Working set: indices of the pending registered searches in
        # still-active lanes, always ascending — so a measurement batch
        # keeps the flat (lane, search) draw order while per-repetition work
        # shrinks with completions.  Lanes that start inactive register
        # no search.
        work = np.arange(table.counts.size)
        work_lane = np.repeat(np.arange(num_lanes), live)
        typical = self.beta is not None

        for rep in range(repetitions):
            idx = np.flatnonzero(lane_active)
            if not idx.size:
                break
            last_rep[idx] = rep  # this repetition's charge is incurred
            meas_idx = idx
            any_corrupted = False
            if typical:
                delta_col = table.delta[idx, rep]
                fidelity_max[idx] = np.maximum(fidelity_max[idx], delta_col)
                corr = draws.flags(idx) < delta_col
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
            hits = flat[
                draws.uniforms(meas_idx, flat, table)
                < table.probabilities(rep, flat, flat_lane)
            ]
            del flat, flat_lane  # let a rebuilt working set replace them
            shrunk = False
            if hits.size:
                hit_lane = np.searchsorted(table.lane_off, hits, side="right") - 1
                counts = table.counts[hits]
                slots = draws.slots(hit_lane, counts + 1)
                real = slots < counts
                real_hits = hits[real]
                if real_hits.size:
                    found_slot[real_hits] = slots[real]
                    pending[real_hits] = False
                    per_lane = np.bincount(hit_lane[real], minlength=num_lanes)
                    pend_count -= per_lane
                    live -= per_lane
                    shrunk = True
            if early_stop:
                done = meas_idx[pend_count[meas_idx] == 0]
                if done.size:
                    lane_active[done] = False  # finished this repetition
                    shrunk = True
            frozen = meas_idx[
                table.can_freeze[meas_idx]
                & (live[meas_idx] == 0)
                & (pend_count[meas_idx] > 0)
            ]
            if frozen.size:
                # Only unregistered searches remain and corruption is
                # impossible: fast-forward to the end of the schedule.
                last_rep[frozen] = repetitions - 1
                lane_active[frozen] = False
                shrunk = True
            if shrunk:
                keep = pending[work] & lane_active[work_lane]
                work = work[keep]
                work_lane = work_lane[keep]

        executed = last_rep + 1
        rows = np.arange(num_lanes)
        bounds = table.lane_off.tolist()
        state = zip(
            lanes, bounds, bounds[1:], executed.tolist(),
            table.rounds_cum[rows, executed].tolist(),
            table.oracle_cum[rows, executed].tolist(),
            corrupted.tolist(), fidelity_max.tolist(),
        )
        return {
            lane.key: _LaneReport(
                found_slot[lo:hi], lane, rounds=rounds, repetitions=reps,
                oracle_calls=oracle, typicality=lane.typicality,
                corrupted_repetitions=corrupt, fidelity_bound_max=fidelity,
            )
            for lane, lo, hi, reps, rounds, oracle, corrupt, fidelity in state
        }
