"""Distributed *multiple* quantum searches using only typical inputs.

This module implements Section 4.2 of the paper.  A node runs ``m``
independent Grover searches over a common domain ``X`` in lockstep, with one
shared evaluation procedure ``C_m`` that evaluates all ``m`` coordinates of
a query tuple simultaneously.  The key twist (Theorem 3) is that the
evaluation procedure ``C̃_m`` is only guaranteed correct on *typical* inputs
``Υβ(m, X)`` — tuples in which no element of ``X`` appears more than ``β``
times — because atypical tuples would congest the links toward the
overloaded element's host node.

Simulation model
----------------
Each search evolves exactly in its 2-D Grover subspace (per-search closed
form, vectorized over ``m``).  The typicality truncation is modeled two
ways, both faithful to the paper:

* **Solution truncation** — when the solution tuple itself is atypical
  (some ``w`` is a solution of more than ``β/2`` searches, i.e. Lemma 3's
  guarantee failed), the truncated oracle genuinely cannot mark the excess
  occurrences: the marked sets are truncated deterministically, turning
  those searches into potential false negatives, exactly as ``C̃_m`` would.
* **Fidelity-loss injection** — for typical solutions, the residual error
  from the non-typical tail of the superposition is bounded by Lemma 5:
  after ``k`` iterations ``‖Φ_k − Φ̃_k‖ ≤ 2k·√(|X|·exp(−2m/(9|X|)))``.
  Each repetition draws a "corrupted" flag with this probability (an
  adversarial worst case — total variation between the two output
  distributions is at most the vector norm of the difference); a corrupted
  repetition yields garbage measurements, which verification then discards.

The exact joint simulation :func:`exact_joint_state_simulation` (feasible
for tiny ``m`` and ``|X|``) computes the true truncated evolution and is
used by the tests and experiment E6 to validate Lemma 5's bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.congest.accounting import RoundLedger
from repro.errors import QuantumSimulationError
from repro.quantum.amplitude import batch_success_probability, max_iterations
from repro.util.mathutil import guarded_log
from repro.util.rng import RngLike, materialize_rng


def lemma5_truncated_mass_bound(num_items: int, num_searches: int) -> float:
    """Lemma 5: for any state in ``H_m``, the squared norm of its projection
    onto the atypical subspace is below ``|X| · exp(−2m / (9|X|))``."""
    if num_items < 1 or num_searches < 1:
        raise QuantumSimulationError("num_items and num_searches must be positive")
    return float(num_items) * math.exp(-2.0 * num_searches / (9.0 * num_items))


def theorem3_fidelity_bound(num_items: int, num_searches: int, iterations: int) -> float:
    """Accumulated deviation bound from the proof of Theorem 3:
    ``‖Φ_k − Φ̃_k‖ ≤ 2k · √(|X| · exp(−2m / (9|X|)))``, clamped to 1."""
    if iterations < 0:
        raise QuantumSimulationError("iterations must be non-negative")
    per_step = math.sqrt(lemma5_truncated_mass_bound(num_items, num_searches))
    return min(1.0, 2.0 * iterations * per_step)


def uniform_atypical_mass(num_items: int, num_searches: int, beta: float) -> float:
    """Tight version of Lemma 5's quantity for the uniform superposition:
    the probability that a uniform random tuple in ``X^m`` has some item
    appearing more than ``β`` times.

    Computed as the union bound ``|X| · P(Binomial(m, 1/|X|) > β)`` with the
    exact binomial survival function (via scipy when available, a Bernstein
    tail bound otherwise).  Lemma 5's Chernoff form
    ``|X|·exp(−2m/(9|X|))`` upper-bounds this but is vacuous at small ``m``;
    the simulator's fidelity-loss injection uses this tight value so the
    injected error reflects the instance actually being run, while the
    analytic bound remains available for reporting (E6).
    """
    if num_items < 1 or num_searches < 1:
        raise QuantumSimulationError("num_items and num_searches must be positive")
    if beta >= num_searches:
        return 0.0  # no frequency can exceed m
    p = 1.0 / num_items
    mean = num_searches * p
    threshold = math.floor(beta)
    try:
        from scipy.stats import binom

        tail = float(binom.sf(threshold, num_searches, p))
    except ImportError:  # pragma: no cover - scipy is present in the env
        excess = max(0.0, threshold + 1 - mean)
        if excess <= 0:
            tail = 1.0
        else:
            variance = num_searches * p * (1 - p)
            tail = math.exp(-(excess**2) / (2.0 * (variance + excess / 3.0)))
    return min(1.0, num_items * tail)


@dataclass
class TypicalityReport:
    """Outcome of checking Theorem 3's assumptions on a concrete instance.

    Attributes
    ----------
    domain_small_enough:
        ``|X| < m / (36 log m)`` — the assumption making Lemma 5's bound
        meaningful.
    beta_large_enough:
        ``β > 8m / |X|``.
    solutions_typical:
        The solution tuple lies in ``Υ_{β/2}(m, X)``: no ``w`` is a solution
        of more than ``β/2`` searches (Lemma 3 supplies this w.h.p. inside
        ComputePairs).
    max_solution_load:
        ``max_w |{ℓ : w ∈ A¹_ℓ}|`` observed.
    truncated_entries:
        Number of ``(search, solution)`` pairs dropped by the truncated
        oracle because their ``w`` exceeded the ``β/2`` load bound.
    """

    beta: float
    domain_small_enough: bool
    beta_large_enough: bool
    solutions_typical: bool
    max_solution_load: int
    truncated_entries: int

    @property
    def all_assumptions_hold(self) -> bool:
        return (
            self.domain_small_enough
            and self.beta_large_enough
            and self.solutions_typical
        )


def typicality_thresholds(
    beta: float, num_items: int, num_searches: int
) -> tuple[bool, bool]:
    """Theorem 3's structural assumptions for one lane:
    ``|X| < m / (36 log m)`` (the domain is small enough for Lemma 5's bound
    to bite) and ``β > 8m / |X|`` — the single source of truth shared by
    :class:`MultiSearch` and the bulk lane registration in
    :mod:`repro.quantum.batched`."""
    m = num_searches
    domain_ok = num_items < m / (36.0 * guarded_log(max(m, 2)))
    beta_ok = beta > 8.0 * m / num_items
    return domain_ok, beta_ok


def solutions_are_typical(beta: float, max_load: int) -> bool:
    """Lemma 3's guarantee holds: no item solves more than ``β/2`` of the
    lane's searches, so the truncated oracle leaves the solution set
    untouched."""
    return max_load <= beta / 2.0


def untruncated_typicality(
    beta: Optional[float], num_items: int, num_searches: int, max_load: int
) -> "TypicalityReport":
    """The :class:`TypicalityReport` of a lane the truncated oracle leaves
    untouched — ``beta`` disabled entirely, or solution loads within
    ``β/2``."""
    if beta is None:
        return TypicalityReport(
            beta=math.inf,
            domain_small_enough=True,
            beta_large_enough=True,
            solutions_typical=True,
            max_solution_load=max_load,
            truncated_entries=0,
        )
    domain_ok, beta_ok = typicality_thresholds(beta, num_items, num_searches)
    return TypicalityReport(
        beta=beta,
        domain_small_enough=domain_ok,
        beta_large_enough=beta_ok,
        solutions_typical=True,
        max_solution_load=max_load,
        truncated_entries=0,
    )


@dataclass
class MultiSearchReport:
    """Result of a lockstep multi-search run.

    ``found[ℓ]`` is the element of ``X`` found for search ``ℓ`` (or ``-1``);
    per-repetition round charges follow the BBHT schedule shared by all
    searches.
    """

    found: np.ndarray
    rounds: float
    repetitions: int
    oracle_calls: int
    typicality: TypicalityReport
    corrupted_repetitions: int
    fidelity_bound_max: float

    def found_mask(self) -> np.ndarray:
        """Boolean mask of searches that located a real solution."""
        return self.found >= 0

    def found_searches(self) -> np.ndarray:
        """Ascending indices of the searches that located a real solution."""
        return np.flatnonzero(self.found >= 0)


class MultiSearch:
    """``m`` lockstep Grover searches over ``{0, ..., num_items − 1}``.

    Parameters
    ----------
    num_items:
        Size of the shared domain ``X``.
    marked_sets:
        ``marked_sets[ℓ]`` is the array of solutions of search ``ℓ``
        (possibly empty).  The simulator needs the full truth tables for the
        same reason as :class:`~repro.quantum.distributed.DistributedQuantumSearch`.
    beta:
        The typicality threshold ``β`` of ``Υβ(m, X)``.  ``None`` disables
        the typicality machinery entirely (the idealized ``C_m`` of the
        plain multiple-search framework in Section 4.1).
    eval_rounds:
        Round cost of one application of the shared evaluation procedure.
    amplification:
        Repetition budget multiplier; ``⌈amplification · log2(max(m, 2))⌉``
        repetitions drive the per-search failure probability below
        ``1/m²`` (Theorem 3's ``1 − 2/m²`` overall).
    rng:
        Generator, seed or ``None`` (OS entropy); only :meth:`run` draws
        from it, and builds it on its first call.
    """

    def __init__(
        self,
        num_items: int,
        marked_sets: Sequence[np.ndarray],
        *,
        beta: Optional[float] = None,
        eval_rounds: float = 1.0,
        amplification: float = 12.0,
        rng: RngLike = None,
    ) -> None:
        if num_items < 1:
            raise QuantumSimulationError("num_items must be positive")
        if not marked_sets:
            raise QuantumSimulationError("need at least one search")
        self.num_items = int(num_items)
        self.eval_rounds = float(eval_rounds)
        self.amplification = float(amplification)
        # Materialized on first use in :meth:`run`: a search that is built
        # but never run (say, to read its typicality report) builds no
        # generator.
        self._rng = rng
        self.beta = None if beta is None else float(beta)

        self.num_searches = len(marked_sets)
        arrays = [np.asarray(marked, dtype=np.int64).ravel() for marked in marked_sets]
        lengths = np.array([arr.size for arr in arrays], dtype=np.int64)
        flat = np.concatenate(arrays)
        rows = np.repeat(np.arange(self.num_searches), lengths)
        if flat.size and (flat.min() < 0 or flat.max() >= num_items):
            bad = (flat < 0) | (flat >= num_items)
            index = int(rows[np.argmax(bad)])
            raise QuantumSimulationError(
                f"search {index}: marked element out of range [0, {num_items})"
            )
        # Sort by (search, item) and drop duplicates — the vectorized
        # equivalent of a per-set np.unique.
        order = np.lexsort((flat, rows))
        flat = flat[order]
        rows = rows[order]
        if flat.size:
            keep = np.empty(flat.size, dtype=bool)
            keep[0] = True
            keep[1:] = (flat[1:] != flat[:-1]) | (rows[1:] != rows[:-1])
            flat = flat[keep]
            rows = rows[keep]
        counts = np.bincount(rows, minlength=self.num_searches)
        # CSR layout: solutions of search ℓ are flat[offsets[ℓ]:offsets[ℓ+1]].
        offsets = np.zeros(self.num_searches + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self._marked_original = [
            flat[offsets[i]:offsets[i + 1]] for i in range(self.num_searches)
        ]
        self._marked_effective, self.typicality = self._apply_typicality(
            self._marked_original, flat
        )
        self._eff_counts = np.array(
            [marked.size for marked in self._marked_effective], dtype=np.int64
        )
        self._eff_offsets = np.zeros(self.num_searches + 1, dtype=np.int64)
        np.cumsum(self._eff_counts, out=self._eff_offsets[1:])
        self._eff_flat = np.concatenate(self._marked_effective)

    # -- typicality -----------------------------------------------------------

    def _apply_typicality(
        self, marked_sets: list[np.ndarray], flat: np.ndarray
    ) -> tuple[list[np.ndarray], TypicalityReport]:
        """Check Theorem 3's assumptions and truncate atypical solutions.

        The truncated oracle keeps, for each overloaded ``w``, only the
        first ``⌊β/2⌋`` searches (in index order) that have ``w`` marked;
        later searches lose that solution — a deterministic, reproducible
        stand-in for ``C̃_m``'s arbitrary behaviour on atypical tuples.
        ``flat`` is the concatenation of ``marked_sets`` (the CSR value
        column), so the per-item load histogram is one ``bincount``.
        """
        m = self.num_searches
        n_items = self.num_items
        load = np.bincount(flat, minlength=n_items)
        max_load = int(load.max()) if n_items else 0

        if self.beta is None or solutions_are_typical(self.beta, max_load):
            report = untruncated_typicality(self.beta, n_items, m, max_load)
            return marked_sets, report

        beta = self.beta
        domain_ok, beta_ok = typicality_thresholds(beta, n_items, m)
        half_beta = beta / 2.0

        keep_budget = np.full(n_items, int(math.floor(half_beta)), dtype=np.int64)
        truncated: list[np.ndarray] = []
        dropped = 0
        for marked in marked_sets:
            if marked.size == 0:
                truncated.append(marked)
                continue
            allowed = keep_budget[marked] > 0
            kept = marked[allowed]
            keep_budget[kept] -= 1
            dropped += int(marked.size - kept.size)
            truncated.append(kept)
        report = TypicalityReport(
            beta=beta,
            domain_small_enough=domain_ok,
            beta_large_enough=beta_ok,
            solutions_typical=False,
            max_solution_load=max_load,
            truncated_entries=dropped,
        )
        return truncated, report

    # -- execution --------------------------------------------------------------

    def max_repetitions(self) -> int:
        return max(
            1, int(math.ceil(self.amplification * guarded_log(max(self.num_searches, 2))))
        )

    def run(
        self,
        ledger: Optional[RoundLedger] = None,
        phase: str = "multisearch",
        *,
        early_stop: bool = True,
        schedule: Optional[Sequence[int]] = None,
    ) -> MultiSearchReport:
        """Run the lockstep BBHT protocol.

        All ``m`` searches execute the same iteration counts (one shared
        evaluation per iteration); after each repetition the measured tuple
        is verified with one more evaluation, so false positives are
        impossible and a repetition's failures are retried.  With
        ``early_stop`` the loop ends once every search has found a solution
        (observable by the node through the verification results).

        ``schedule``, when given, fixes the per-repetition iteration counts
        instead of drawing them randomly — ComputePairs passes one global
        schedule to every network node because the evaluation procedure is a
        single network-wide simultaneous protocol, so all nodes' searches
        advance in the same rounds.
        """
        self._rng = rng = materialize_rng(self._rng)
        m = self.num_searches
        padded_items = self.num_items + 1  # dummy solution slot
        solution_counts = self._eff_counts
        padded_counts = solution_counts + 1
        iteration_cap = max_iterations(padded_items)
        repetitions = len(schedule) if schedule is not None else self.max_repetitions()

        found = np.full(m, -1, dtype=np.int64)
        total_rounds = 0.0
        oracle_calls = 0
        corrupted = 0
        fidelity_max = 0.0
        executed = 0

        for rep_index in range(repetitions):
            executed += 1
            if schedule is not None:
                iterations = min(int(schedule[rep_index]), iteration_cap)
            else:
                iterations = int(rng.integers(0, iteration_cap + 1))
            total_rounds += (iterations + 1) * self.eval_rounds
            oracle_calls += iterations + 1

            if self.beta is not None:
                # Per-repetition deviation: the Theorem 3 accumulation
                # (2k · √mass) with the *exact* atypical mass of the uniform
                # superposition instead of its Chernoff upper bound.
                mass = uniform_atypical_mass(padded_items, m, self.beta)
                delta = min(1.0, 2.0 * iterations * math.sqrt(mass))
                fidelity_max = max(fidelity_max, delta)
                if rng.random() < delta:
                    # Adversarial fidelity loss: this repetition's joint
                    # measurement is garbage; verification rejects it all.
                    corrupted += 1
                    continue

            pending_indices = np.nonzero(found < 0)[0]
            if pending_indices.size == 0:
                break
            probs = batch_success_probability(
                padded_items, padded_counts[pending_indices], iterations
            )
            hit_marked = rng.random(probs.size) < probs
            hits = pending_indices[hit_marked]
            if hits.size:
                # Measure uniformly over each hit search's padded solution
                # set (the dummy occupies one slot); a dummy measurement
                # verifies as "not a real solution" and the search retries.
                slots = rng.integers(0, padded_counts[hits])
                real = slots < solution_counts[hits]
                real_hits = hits[real]
                found[real_hits] = self._eff_flat[
                    self._eff_offsets[real_hits] + slots[real]
                ]
            if early_stop and (found >= 0).all():
                break

        if ledger is not None:
            ledger.charge(phase, total_rounds)
        return MultiSearchReport(
            found=found,
            rounds=total_rounds,
            repetitions=executed,
            oracle_calls=oracle_calls,
            typicality=self.typicality,
            corrupted_repetitions=corrupted,
            fidelity_bound_max=fidelity_max,
        )


def exact_joint_state_simulation(
    num_items: int,
    marked_sets: Sequence[np.ndarray],
    beta: float,
    iterations: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact joint evolution of ``m`` Grover searches with the truncated
    oracle ``C̃_m`` versus the ideal oracle ``C_m``.

    Returns ``(state_ideal, state_truncated, deviation_norm)`` where the
    states are the full joint amplitude tensors of shape ``(N,)*m`` after
    ``iterations`` Grover steps and ``deviation_norm = ‖Φ − Φ̃‖``.

    The truncated oracle applies **no** phase flips on basis tuples outside
    ``Υβ(m, X)`` (an arbitrary-but-fixed choice of ``C̃_m``'s behaviour);
    on typical tuples it matches the ideal oracle.  Exponential in ``m``
    (``N^m`` amplitudes) — only for validating Lemma 5 / Theorem 3 at small
    sizes (E6).
    """
    m = len(marked_sets)
    if m < 1:
        raise QuantumSimulationError("need at least one search")
    if num_items ** m > 4_000_000:
        raise QuantumSimulationError(
            f"joint space of size {num_items}^{m} too large for exact simulation"
        )
    shape = (num_items,) * m

    marked_masks = []
    for marked in marked_sets:
        mask = np.zeros(num_items, dtype=bool)
        mask[np.asarray(marked, dtype=np.int64)] = True
        marked_masks.append(mask)

    # Typicality mask over the joint basis: frequency of each item ≤ β.
    grids = np.meshgrid(*[np.arange(num_items)] * m, indexing="ij")
    freq_ok = np.ones(shape, dtype=bool)
    for item in range(num_items):
        count = np.zeros(shape, dtype=np.int16)
        for grid in grids:
            count += grid == item
        freq_ok &= count <= beta

    # Per-coordinate phase contributions: (−1)^{#marked coordinates}.
    phase_ideal = np.ones(shape)
    for axis, mask in enumerate(marked_masks):
        shape_axis = [1] * m
        shape_axis[axis] = num_items
        sign = np.where(mask, -1.0, 1.0).reshape(shape_axis)
        phase_ideal = phase_ideal * sign
    phase_truncated = np.where(freq_ok, phase_ideal, 1.0)

    def diffusion(state: np.ndarray) -> np.ndarray:
        # Apply the per-search diffusion 2|s⟩⟨s| − I along each axis.
        for axis in range(m):
            mean = state.mean(axis=axis, keepdims=True)
            state = 2.0 * mean - state
        return state

    initial = np.full(shape, num_items ** (-m / 2.0))
    state_ideal = initial.copy()
    state_truncated = initial.copy()
    for _ in range(iterations):
        state_ideal = diffusion(state_ideal * phase_ideal)
        state_truncated = diffusion(state_truncated * phase_truncated)
    deviation = float(np.linalg.norm(state_ideal - state_truncated))
    return state_ideal, state_truncated, deviation


def atypical_mass(state: np.ndarray, beta: float) -> float:
    """Squared norm of a joint state's projection onto the atypical subspace
    (``Lemma 5``'s left-hand side), for states produced by
    :func:`exact_joint_state_simulation`."""
    m = state.ndim
    num_items = state.shape[0]
    grids = np.meshgrid(*[np.arange(num_items)] * m, indexing="ij")
    freq_ok = np.ones(state.shape, dtype=bool)
    for item in range(num_items):
        count = np.zeros(state.shape, dtype=np.int16)
        for grid in grids:
            count += grid == item
        freq_ok &= count <= beta
    return float((np.abs(state) ** 2)[~freq_ok].sum())
