"""Step 3 of Algorithm ComputePairs: the quantum searches (Section 5.3).

For every class ``α``, every search node ``(u, v, x)`` runs one quantum
search per kept pair over the domain ``X = Tα[u, v]`` — "is there a fine
block ``w`` of class ``α`` containing a witness ``w`` that closes a negative
triangle with this pair?".  All searches across all nodes advance in
lockstep because each Grover iteration is one application of the *global*
evaluation procedure (Figure 4 for ``α = 0``, Figure 5 with bandwidth
duplication for ``α > 0``); the network-wide round charge of a phase is
therefore the shared iteration schedule's cost, with the evaluation round
cost measured from the procedure's actual message pattern.

The per-class accounting and lane setup are pure index arithmetic, end
to end:

* the search labels, their pair counts and their physical hosts live in one
  :class:`_SearchArrays` column set (label positions resolved in bulk by
  ``SchemeView.positions_of_array``);
* IdentifyClass's one output is the class grid
  (:class:`~repro.core.identify_class.ClassAssignment`), row-major in the
  triple scheme's label order: the class order is ``np.unique(grid)``, a
  duplicated class's triples are ``argwhere(grid == α)`` and their scheme
  positions ``flatnonzero(grid == α)``;
* the per-node domains are the CSR of
  :meth:`~repro.core.identify_class.ClassAssignment.domain_csr` —
  label offsets plus flat fine-block ids, no per-label dict;
* the Fig. 4/5 query plan is a columnar
  :class:`~repro.core.evaluation.QueryPlan` built by ``repeat``/``stack``
  over the CSR (duplication destinations via
  ``ProductLabels.positions_at``), with loads reduced by ``np.bincount``;
* the per-node searches register in bulk, findable rows only:
  :func:`register_class_lanes` gathers each lane's witness rows over its
  domain once, counts every search's class-``α`` solutions off that
  window, and hands
  :meth:`repro.quantum.batched.BatchedMultiSearch.add_lanes` just the
  searches with at least one (with their indices and counts).  A search
  with none can never be found: it lives on only in its lane's ``m``, which
  keeps the lane from stopping early and sets Lemma 5's penalty, the
  schedule length and ``total_searches``.  The class's batch generator is
  seeded from one batched seed column drawn in the order the per-label
  reference draws it, so measurements stay byte-identical.  The found
  pairs are read off each report's ``found_searches()``, so no found item
  is ever resolved and no pair of an unfound search is touched.

The per-label dict forms survive in :mod:`repro.core._reference`
(``run_step3_loops`` and friends) and ``tests/test_step3_equivalence.py``
property-tests the two drivers byte-identical — rounds, per-node loads,
RNG streams, and found pairs.

The per-node searches are simulated by one
:class:`repro.quantum.batched.BatchedMultiSearch` per class — every search
node is a lane of the same lockstep schedule, with the typicality machinery
of Theorem 3 (``β = 800 · 2^α · √n · log n``) enforced per lane exactly as
the sequential :class:`repro.quantum.multisearch.MultiSearch` does:
solution sets that overload one block (Lemma 3 failing) are truncated
exactly as ``C̃_m`` would (at lane registration, on the lane's findable
rows),
and Lemma 5's fidelity penalty is injected per repetition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.congest.gridops import expand_ranges
from repro.congest.network import CongestClique
from repro.congest.partitions import CliquePartitions, ProductLabels
from repro.core.constants import PaperConstants
from repro.core.evaluation import (
    QueryPlan,
    duplication_count,
    evaluation_rounds,
    step0_duplication_loads,
)
from repro.core.identify_class import ClassAssignment
from repro.errors import NetworkError
from repro import telemetry
from repro.quantum.amplitude import max_iterations
from repro.quantum.batched import BatchedMultiSearch, bool_sums
from repro.util.mathutil import guarded_log
from repro.util.rng import ensure_rng

#: Per-node search payload: canonical pairs (k, 2), their weights (k,) and
#: their witness truth table over all fine blocks (k, num_fine).
NodePairs = Mapping[tuple[int, int, int], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass
class Step3Report:
    """Diagnostics of the search phase."""

    found_pairs: set[tuple[int, int]] = field(default_factory=set)
    eval_rounds_per_alpha: dict[int, float] = field(default_factory=dict)
    search_rounds_per_alpha: dict[int, float] = field(default_factory=dict)
    #: The full schedule's charge per class (:func:`_scheduled_rounds`);
    #: never in the ledger, which holds the charged rounds.
    scheduled_rounds_per_alpha: dict[int, float] = field(default_factory=dict)
    duplication_per_alpha: dict[int, int] = field(default_factory=dict)
    typicality_truncations: int = 0
    corrupted_repetitions: int = 0
    total_searches: int = 0


@dataclass
class _SearchArrays:
    """Columnar view of the search labels: one row per ``node_pairs`` key
    (in dict order — the order every per-label loop used), with the pair
    counts and the labels' physical hosts resolved in bulk."""

    keys: list
    components: np.ndarray   # (L, 3) int64 label rows
    num_pairs: np.ndarray    # (L,) kept pairs per label
    physical: np.ndarray     # (L,) physical host of each search label

    @classmethod
    def build(cls, network: CongestClique, node_pairs: NodePairs) -> "_SearchArrays":
        keys = list(node_pairs)
        components = np.asarray(keys, dtype=np.int64).reshape(len(keys), 3)
        num_pairs = np.fromiter(
            (len(node_pairs[key][0]) for key in keys),
            dtype=np.int64,
            count=len(keys),
        )
        view = network.scheme("search")
        positions = view.positions_of_array(components)
        return cls(keys, components, num_pairs, positions % view.num_nodes)


def run_step3(
    network: CongestClique,
    partitions: CliquePartitions,
    constants: PaperConstants,
    assignment: ClassAssignment,
    node_pairs: NodePairs,
    *,
    rng=None,
    search_mode: str = "quantum",
    amplification: float = 12.0,
) -> Step3Report:
    """Execute Step 3 and return the union of detected pairs.

    ``node_pairs[(bu, bv, x)] = (pairs, weights, witness_table)`` where
    ``witness_table[ℓ, w]`` says whether fine block ``w`` contains a witness
    for pair ``ℓ`` — the truth tables the evaluation procedure would compute
    (see the simulation contract in :mod:`repro.quantum.distributed`).

    ``search_mode`` selects ``"quantum"`` (Grover, ``O(√|X|)`` evaluations)
    or ``"classical"`` (linear scan over ``X``, ``|X|`` evaluations) — the
    latter is the ablation baseline quantifying exactly where the quantum
    speedup enters.

    The batched searches advance all lanes of a class off one batch
    generator seeded from the per-lane seed column (see
    :mod:`repro.quantum.batched`).

    One loop in class order runs three phases per class:

    1. *prepare* (:func:`_prepare_class`) — everything network- or
       RNG-coupled: domain CSR, duplication scheme, oracle price, schedule
       and seed-column draws;
    2. *search* (:func:`_search_class`) — the class's lanes, off views into
       ``node_pairs``; found pairs and tallies go into the report;
    3. *fold* — the ``.duplication`` then ``.search`` ledger charges.
    """
    if search_mode not in ("quantum", "classical"):
        raise ValueError(f"unknown search_mode {search_mode!r}")
    generator = ensure_rng(rng)
    arrays = _SearchArrays.build(network, node_pairs)

    report = Step3Report()
    for alpha in np.unique(assignment.grid).tolist():
        with telemetry.span("step3.class_prep", alpha=alpha):
            prep = _prepare_class(
                network, partitions, constants, assignment, arrays,
                node_pairs, alpha, generator, search_mode, amplification,
            )
        report.duplication_per_alpha[alpha] = prep.dup
        if prep.duplication is not None:
            network.charge_local(f"step3.alpha{alpha}.duplication", prep.duplication)
        if prep.lanes is None:  # no populated domain: nothing searched or charged
            report.eval_rounds_per_alpha[alpha] = 0.0
            report.search_rounds_per_alpha[alpha] = 0.0
            report.scheduled_rounds_per_alpha[alpha] = 0.0
            continue
        rounds = _search_class(prep, report, amplification)
        report.eval_rounds_per_alpha[alpha] = prep.eval_rounds
        # All nodes search in the same (global) rounds: the phase costs the
        # longest node schedule, not the sum.
        network.charge_local(f"step3.alpha{alpha}.search", rounds)
        report.search_rounds_per_alpha[alpha] = rounds
    return report


@dataclass
class ClassLanes:
    """One class's search lanes as per-lane views, in registration order.

    ``blocks[i]`` is lane ``i``'s domain (fine-block ids), ``pairs[i]`` its
    ``(m, 2)`` kept pairs and ``witness[i]`` their ``(m, num_fine)`` truth
    table — all views into ``node_pairs`` and the domain CSR, nothing
    copied; ``items`` / ``searches`` are the matching lengths and ``seeds``
    the batched seed column (``None`` for the classical scan).
    """

    items: np.ndarray
    searches: np.ndarray
    blocks: list[np.ndarray]
    pairs: list[np.ndarray]
    witness: list[np.ndarray]
    seeds: np.ndarray | None

    def __len__(self) -> int:
        return int(self.items.size)

    @classmethod
    def from_labels(
        cls,
        arrays: _SearchArrays,
        node_pairs: NodePairs,
        domain_csr: tuple[np.ndarray, np.ndarray, np.ndarray],
        lane_indices: np.ndarray,
        seeds: np.ndarray | None,
    ) -> "ClassLanes":
        counts, offsets, flat_blocks = domain_csr
        index_list = lane_indices.tolist()
        payloads = [node_pairs[arrays.keys[ix]] for ix in index_list]
        return cls(
            counts[lane_indices],
            arrays.num_pairs[lane_indices],
            [flat_blocks[offsets[ix]:offsets[ix + 1]] for ix in index_list],
            [payload[0] for payload in payloads],
            [payload[2] for payload in payloads],
            seeds,
        )


@dataclass
class _PreparedClass:
    """Outcome of :func:`_prepare_class`.  ``lanes`` is ``None`` (and the
    search fields unset) when no label has a populated domain: nothing to
    search or charge."""

    alpha: int
    dup: int
    duplication: float | None = None  # Fig. 5 Step-0 rounds, charged at fold
    beta: float = 0.0
    eval_rounds: float = 0.0
    max_domain: int = 0
    #: The shared iteration schedule; ``None`` runs the classical scan.
    schedule: list[int] | None = None
    lanes: ClassLanes | None = None


def class_query_plan(
    network: CongestClique,
    arrays: _SearchArrays,
    domain_csr: tuple[np.ndarray, np.ndarray, np.ndarray],
    beta: float,
    dup: int,
    *,
    prefix_of: np.ndarray | None = None,
) -> QueryPlan:
    """The class's evaluation query plan as columnar index arithmetic.

    Per search label with kept pairs and a non-empty domain, one row per
    destination: every fine block of the label's domain (times ``dup``
    duplicates for ``α > 0``, destinations resolved through ``prefix_of``,
    the triple-position → duplication-prefix map).  ``per_dest`` is the
    Fig. 4 pair budget ``min(num_pairs, ⌈β⌉)``, split ``⌈per_dest/dup⌉``
    per duplicate by Fig. 5.  The dict-of-dicts form survives as
    :func:`repro.core._reference.step3_query_plan_dicts`.
    """
    counts, offsets, flat_blocks = domain_csr
    queried = (counts > 0) & (arrays.num_pairs > 0)
    per_dest = np.minimum(arrays.num_pairs[queried], int(np.ceil(beta)))
    queried_counts = counts[queried]
    flat_ix = expand_ranges(offsets[:-1][queried], queried_counts)
    dest_rows = np.stack(
        [
            np.repeat(arrays.components[queried, 0], queried_counts),
            np.repeat(arrays.components[queried, 1], queried_counts),
            flat_blocks[flat_ix],
        ],
        axis=1,
    )
    triple_positions = network.scheme("triple").positions_of_array(dest_rows)
    entry_src = np.repeat(arrays.physical[queried], queried_counts)
    if dup > 1:
        if prefix_of is None:
            raise NetworkError("duplicated query plan needs the prefix map")
        prefixes = prefix_of[triple_positions]
        if prefixes.size and int(prefixes.min()) < 0:
            raise NetworkError("domain block outside the duplication scheme")
        share = np.maximum(1, -(-per_dest // dup))
        dup_positions = (
            prefixes[:, None] * dup + np.arange(dup, dtype=np.int64)[None, :]
        ).ravel()
        return QueryPlan(
            np.repeat(entry_src, dup),
            dup_positions % network.num_nodes,
            np.repeat(np.repeat(share, queried_counts), dup),
        )
    return QueryPlan(
        entry_src,
        triple_positions % network.num_nodes,
        np.repeat(per_dest, queried_counts),
    )


def _prepare_class(
    network: CongestClique,
    partitions: CliquePartitions,
    constants: PaperConstants,
    assignment: ClassAssignment,
    arrays: _SearchArrays,
    node_pairs: NodePairs,
    alpha: int,
    generator,
    search_mode: str,
    amplification: float,
) -> _PreparedClass:
    """Network- and RNG-coupled prep of one class.

    Builds the domain CSR, registers the duplication scheme and prices its
    Fig. 5 Step-0 replication (charged at fold time), prices one oracle
    application, and — quantum only — draws the iteration schedule and the
    lane seed column from ``generator``.  The class's lanes are views into
    ``node_pairs`` and the CSR; nothing is copied.
    """
    n = partitions.num_vertices
    beta = constants.eval_beta(n, alpha)
    dup = duplication_count(constants, n, alpha)
    prep = _PreparedClass(alpha, dup)

    # Per-node search domains for this class, as one CSR over the labels.
    counts, offsets, flat_blocks = assignment.domain_csr(
        arrays.components[:, 0], arrays.components[:, 1], alpha
    )
    in_domain = counts > 0
    if not in_domain.any():
        return prep

    # --- destination labels (duplicated triple nodes) and Step 0 price ---
    # Positions and physical hosts are pure arithmetic off the scheme views;
    # no per-label dict entry is built for any of this.
    prefix_of: np.ndarray | None = None
    if dup > 1:
        # The grid is row-major in the triple scheme's label order: a
        # triple's flat index is its scheme position.
        in_class = assignment.grid == alpha
        alpha_rows = np.argwhere(in_class)
        alpha_positions = np.flatnonzero(in_class)
        dup_labels = ProductLabels(alpha_rows, dup)
        network.register_scheme(f"step3_dup_alpha{alpha}", dup_labels)
        # Fig. 5 Step 0: replicate the Step-1 data to the duplicates (once).
        size_u = partitions.coarse.max_block_size
        size_w = partitions.fine.max_block_size
        words = size_u * size_w * 2  # F_uw plus F_wv
        num_alpha = int(alpha_positions.size)
        dup_positions = dup_labels.positions_at(
            np.repeat(np.arange(num_alpha, dtype=np.int64), dup),
            np.tile(np.arange(dup, dtype=np.int64), num_alpha),
        )
        prep.duplication = step0_duplication_loads(
            network.num_nodes,
            np.repeat(alpha_positions % network.num_nodes, dup),
            dup_positions % network.num_nodes,
            np.full(dup_positions.size, words, dtype=np.int64),
        )
        prefix_of = np.full(assignment.grid.size, -1, dtype=np.int64)
        prefix_of[alpha_positions] = np.arange(num_alpha, dtype=np.int64)

    # --- evaluation round cost of one oracle application -----------------
    plan = class_query_plan(
        network, arrays, (counts, offsets, flat_blocks), beta, dup,
        prefix_of=prefix_of,
    )
    # An oracle application always costs at least one round of interaction.
    eval_r = max(evaluation_rounds(network.num_nodes, plan, beta), 1.0)
    max_domain = int(counts[in_domain].max())
    lane_indices = np.nonzero(in_domain & (arrays.num_pairs > 0))[0]

    # --- the driver-stream draws (quantum only) ---------------------------
    # Lane seeds are one batched draw — the exact values sequential
    # per-label draws would have produced — and the seed column seeds the
    # class's one batch generator.
    schedule = None
    seeds = None
    if search_mode == "quantum":
        max_m = int(arrays.num_pairs[in_domain].max())
        cap = max_iterations(max_domain + 1)
        repetitions = max(
            1, int(np.ceil(amplification * guarded_log(max(max_m, 2))))
        )
        schedule = generator.integers(0, cap + 1, size=repetitions).tolist()
        seeds = np.empty(0, dtype=np.int64)
        if lane_indices.size:
            seeds = generator.integers(0, 2**63 - 1, size=lane_indices.size)
    prep.beta = float(beta)
    prep.eval_rounds = float(eval_r)
    prep.max_domain = max_domain
    prep.schedule = schedule
    prep.lanes = ClassLanes.from_labels(
        arrays, node_pairs, (counts, offsets, flat_blocks), lane_indices, seeds
    )
    return prep


def _search_class(
    prep: _PreparedClass,
    report: Step3Report,
    amplification: float,
) -> float:
    """Run one class's searches, fold its found pairs and its search /
    truncation / corruption tallies into ``report``, and return the phase
    rounds.

    Quantum: one :class:`BatchedMultiSearch` for the whole class — every
    search node is a lane of the same lockstep schedule.  Classical: the
    linear-scan ablation, where every node checks each block of its domain
    with one evaluation — ``|X| · r`` rounds instead of ``Õ(√|X|) · r``,
    and deterministic (exact) detection.
    """
    lanes = prep.lanes
    mode = "classical" if prep.schedule is None else "quantum"
    found_chunks: list[np.ndarray] = []
    searches = int(lanes.searches.sum())
    report.total_searches += searches
    with telemetry.span("step3.class", alpha=prep.alpha, mode=mode) as span:
        if prep.schedule is None:
            rounds = prep.eval_rounds * prep.max_domain
            scheduled = rounds
            registered = searches
            for blocks, pairs, table in zip(lanes.blocks, lanes.pairs, lanes.witness):
                found_chunks.append(pairs[table[:, blocks].any(axis=1)])
        else:
            batched = BatchedMultiSearch(
                beta=prep.beta, eval_rounds=prep.eval_rounds,
                amplification=amplification, batch_rng=lanes.seeds,
            )
            register_class_lanes(batched, lanes)
            registered = batched.registered
            results = list(batched.run(prep.schedule).values())
            rounds = max([0.0] + [result.rounds for result in results])
            scheduled = _scheduled_rounds(prep)
            if registered:
                # Reports come back in registration order, aligned with
                # lanes.pairs; each names its found searches by index.
                found_chunks.extend(
                    pairs[result.found_searches()]
                    for pairs, result in zip(lanes.pairs, results)
                )
            report.typicality_truncations += sum(
                result.typicality.truncated_entries for result in results
            )
            report.corrupted_repetitions += sum(
                result.corrupted_repetitions for result in results
            )
        span.set("searches", searches).set("registered", registered)
    report.scheduled_rounds_per_alpha[prep.alpha] = scheduled
    if found_chunks:
        _fold_found_pairs(report.found_pairs, np.concatenate(found_chunks))
    return rounds


def _scheduled_rounds(prep: _PreparedClass) -> float:
    """The charge of the class's full iteration schedule at its largest
    searched domain, ``Σ_k (min(s_k, cap) + 1) · eval_rounds`` — what a
    lane of that domain charges when it never stops early, and what
    Theorem 3 bounds.  Summed left to right, as the lanes' charges are."""
    if not len(prep.lanes):
        return 0.0
    cap = max_iterations(int(prep.lanes.items.max()) + 1)
    steps = np.minimum(prep.schedule, cap) + 1
    return float(np.cumsum(steps * prep.eval_rounds)[-1])


def _fold_found_pairs(found_pairs: set, found: np.ndarray) -> None:
    """Add the ``(k, 2)`` pair rows of ``found`` to ``found_pairs``.

    A pair is typically found by several of its ``Λx`` sets, so the rows
    are deduplicated first, on a bool mark over the pair-key space
    ``a·stride + b`` (at most ``n²`` bytes, an eighth of the weight
    matrix); then one Python tuple is built per distinct pair (``tolist``
    yields Python ints, as per-pair adds would).
    """
    if not found.size:
        return
    stride = int(found.max()) + 1
    marked = np.zeros(stride * stride, dtype=bool)
    marked[found[:, 0] * stride + found[:, 1]] = True
    keys = np.flatnonzero(marked)
    found_pairs.update(zip((keys // stride).tolist(), (keys % stride).tolist()))


def register_class_lanes(batched: BatchedMultiSearch, lanes: ClassLanes) -> None:
    """Register the class's search lanes, each with its findable rows only.

    Per lane, one gather of the witness rows over the lane's domain (the
    class-``α`` blocks of its coarse pair, which every ``x`` of the segment
    shares) gives each search's class-``α`` solution count.  A search with
    none can never be found, so only its lane's ``m`` carries it; the
    findable rows go to
    :meth:`~repro.quantum.batched.BatchedMultiSearch.add_lanes` with their
    search indices and these counts.  A lane whose every search is
    findable hands over the gathered window itself.  Lane keys are
    ordinals: results come back in registration order, aligned with
    ``lanes.pairs``.
    """
    tables = []
    rows = []
    counts = []
    for blocks, witness in zip(lanes.blocks, lanes.witness):
        window = witness[:, blocks]
        solutions = bool_sums(window, 1)
        findable = np.flatnonzero(solutions)
        if findable.size < solutions.size:
            window = window[findable]
            solutions = solutions[findable]
        tables.append(window)
        rows.append(findable)
        counts.append(solutions)
    batched.add_lanes(range(len(lanes)), lanes.items, lanes.searches, tables, rows, counts)
