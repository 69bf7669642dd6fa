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

* a search node is its position in the row-major ``(C, C, F)`` grid, hosted
  on physical node ``position % n``; Step 2 hands over one columnar
  :class:`SearchTable` in that order (CSR offsets per position over the
  kept pairs, their weights and witness rows), and each lane's pairs are a
  slice of it;
* IdentifyClass's one output is the class grid
  (:class:`~repro.core.identify_class.ClassAssignment`), row-major in the
  same ``(C, C, F)`` grid: the class order is ``np.unique(grid)``, and a
  duplicated class's triple positions are ``flatnonzero(grid == α)``;
* the per-node domains are the CSR of
  :meth:`~repro.core.identify_class.ClassAssignment.domain_csr` —
  offsets per position plus flat fine-block ids, no per-node dict;
* the Fig. 4/5 query plan is a columnar
  :class:`~repro.core.evaluation.QueryPlan` built by ``repeat`` and
  ``np.ravel_multi_index`` over the CSR (duplicate ``y`` of the ``i``-th
  class-``α`` triple sits at position ``i · dup + y``), with loads reduced
  by ``np.bincount``;
* the per-node searches register in bulk, findable rows only:
  :func:`register_class_lanes` gathers each lane's witness rows over its
  domain once, counts every search's class-``α`` solutions off that
  window, and hands
  :meth:`repro.quantum.batched.BatchedMultiSearch.add_lanes` just the
  searches with at least one (with their indices and counts).  A search
  with none can never be found: it lives on only in its lane's ``m``, which
  keeps the lane from stopping early and sets Lemma 5's penalty, the
  schedule length and ``total_searches``.  The class's batch generator is
  seeded from one batched seed column drawn in the order the per-node
  reference draws it, so measurements stay byte-identical.  The found
  pairs are read off each report's ``found_searches()``, so no found item
  is ever resolved and no pair of an unfound search is touched.

``tests/test_step3_equivalence.py`` property-tests this driver
byte-identical to the per-label dict driver
:func:`tests.reference.run_step3_loops` — rounds, per-node loads, RNG
streams, and found pairs.

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

import numpy as np

from repro.congest.gridops import expand_ranges
from repro.congest.network import CongestClique
from repro.congest.partitions import CliquePartitions
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
class SearchTable:
    """Step 2's output and Step 3's input: every search node's kept pairs,
    in search-scheme position order.

    Position ``p`` of the row-major ``shape = (C, C, F)`` grid is the search
    node ``(bu, bv, x) = unravel_index(p, shape)``.  Its kept pairs are rows
    ``offsets[p] : offsets[p + 1]`` of the columns ``pairs`` (``(k, 2)``
    canonical pairs), ``weights`` (``(k,)``) and ``witness`` (``(k, F)``:
    ``witness[ℓ, w]`` says whether fine block ``w`` contains a witness for
    pair ``ℓ``, the truth tables the evaluation procedure would compute —
    see the simulation contract in :mod:`repro.quantum.distributed`).
    ``live[p]`` is False when the node's coarse block pair has no pairs at
    all: such a block pair registers no search node.
    """

    shape: tuple[int, int, int]
    offsets: np.ndarray
    pairs: np.ndarray
    weights: np.ndarray
    witness: np.ndarray
    live: np.ndarray
    #: Kept pairs per position, ``diff(offsets)``.
    num_pairs: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.num_pairs = np.diff(self.offsets)


def run_step3(
    network: CongestClique,
    partitions: CliquePartitions,
    constants: PaperConstants,
    assignment: ClassAssignment,
    table: SearchTable,
    *,
    rng=None,
    search_mode: str = "quantum",
    amplification: float = 12.0,
) -> Step3Report:
    """Execute Step 3 on Step 2's :class:`SearchTable` and return the union
    of detected pairs.

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
       ``table``; found pairs and tallies go into the report;
    3. *fold* — the ``.duplication`` then ``.search`` ledger charges.
    """
    if search_mode not in ("quantum", "classical"):
        raise ValueError(f"unknown search_mode {search_mode!r}")
    generator = ensure_rng(rng)

    report = Step3Report()
    for alpha in np.unique(assignment.grid).tolist():
        with telemetry.span("step3.class_prep", alpha=alpha):
            prep = _prepare_class(
                network, partitions, constants, assignment, table,
                alpha, generator, search_mode, amplification,
            )
        report.duplication_per_alpha[alpha] = prep.dup
        if prep.duplication is not None:
            network.charge_local(f"step3.alpha{alpha}.duplication", prep.duplication)
        if prep.lanes is None:  # no populated domain: nothing searched or charged
            report.eval_rounds_per_alpha[alpha] = 0.0
            report.search_rounds_per_alpha[alpha] = 0.0
            report.scheduled_rounds_per_alpha[alpha] = 0.0
            continue
        rounds = _search_class(prep, report)
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
    table — all views into the :class:`SearchTable` and the domain CSR,
    nothing copied; ``items`` / ``searches`` are the matching lengths and
    ``seeds`` the batched seed column (``None`` for the classical scan).
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
    def from_table(
        cls,
        table: SearchTable,
        domain_csr: tuple[np.ndarray, np.ndarray, np.ndarray],
        lane_indices: np.ndarray,
        seeds: np.ndarray | None,
    ) -> "ClassLanes":
        counts, offsets, flat_blocks = domain_csr
        rows = list(zip(
            table.offsets[lane_indices].tolist(),
            table.offsets[lane_indices + 1].tolist(),
        ))
        return cls(
            counts[lane_indices],
            table.num_pairs[lane_indices],
            [flat_blocks[offsets[ix]:offsets[ix + 1]] for ix in lane_indices.tolist()],
            [table.pairs[lo:hi] for lo, hi in rows],
            [table.witness[lo:hi] for lo, hi in rows],
            seeds,
        )


@dataclass
class _PreparedClass:
    """Outcome of :func:`_prepare_class`.  ``lanes`` is ``None`` (and the
    search fields unset) when no search node has a populated domain:
    nothing to search or charge."""

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
    table: SearchTable,
    domain_csr: tuple[np.ndarray, np.ndarray, np.ndarray],
    beta: float,
    dup: int,
    *,
    prefix_of: np.ndarray | None = None,
) -> QueryPlan:
    """The class's evaluation query plan as columnar index arithmetic.

    Per search node with kept pairs and a non-empty domain, one row per
    destination: every fine block ``bw`` of the node's domain, i.e. the
    triple ``(bu, bv, bw)`` at its row-major position in the grid (times
    ``dup`` duplicates for ``α > 0``, destinations resolved through
    ``prefix_of``, the triple-position → duplication-prefix map).
    ``per_dest`` is the Fig. 4 pair budget ``min(num_pairs, ⌈β⌉)``, split
    ``⌈per_dest/dup⌉`` per duplicate by Fig. 5.
    """
    counts, offsets, flat_blocks = domain_csr
    queried = (counts > 0) & (table.num_pairs > 0)
    per_dest = np.minimum(table.num_pairs[queried], int(np.ceil(beta)))
    queried_counts = counts[queried]
    flat_ix = expand_ranges(offsets[:-1][queried], queried_counts)
    sources = np.repeat(np.flatnonzero(queried), queried_counts)
    bu, bv, _x = np.unravel_index(sources, table.shape)
    triple_positions = np.ravel_multi_index(
        (bu, bv, flat_blocks[flat_ix]), table.shape
    )
    entry_src = sources % network.num_nodes
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
    table: SearchTable,
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
    ``table`` and the CSR; nothing is copied.
    """
    n = partitions.num_vertices
    beta = constants.eval_beta(n, alpha)
    dup = duplication_count(constants, n, alpha)
    prep = _PreparedClass(alpha, dup)

    # Per-node search domains for this class, as one CSR over the positions.
    counts, offsets, flat_blocks = assignment.domain_csr(alpha)
    in_domain = (counts > 0) & table.live
    if not in_domain.any():
        return prep

    # --- destination nodes (duplicated triple nodes) and Step 0 price ----
    # Positions and physical hosts are pure arithmetic; nothing is built
    # per node.
    prefix_of: np.ndarray | None = None
    if dup > 1:
        # The grid is row-major in the triple scheme's position order: a
        # triple's flat index is its position.  Duplicate ``y`` of the
        # ``i``-th class-α triple sits at position ``i · dup + y``.
        alpha_positions = np.flatnonzero(assignment.grid == alpha)
        num_alpha = int(alpha_positions.size)
        dup_scheme = f"step3_dup_alpha{alpha}"
        network.register_scheme(dup_scheme, num_alpha * dup)
        # Fig. 5 Step 0: replicate the Step-1 data to the duplicates (once).
        size_u = partitions.coarse.max_block_size
        size_w = partitions.fine.max_block_size
        words = size_u * size_w * 2  # F_uw plus F_wv
        prep.duplication = step0_duplication_loads(
            network.num_nodes,
            np.repeat(alpha_positions % network.num_nodes, dup),
            network.scheme_physical(dup_scheme),
            np.full(num_alpha * dup, words, dtype=np.int64),
        )
        prefix_of = np.full(assignment.grid.size, -1, dtype=np.int64)
        prefix_of[alpha_positions] = np.arange(num_alpha, dtype=np.int64)

    # --- evaluation round cost of one oracle application -----------------
    plan = class_query_plan(
        network, table, (counts, offsets, flat_blocks), beta, dup,
        prefix_of=prefix_of,
    )
    # An oracle application always costs at least one round of interaction.
    eval_r = max(evaluation_rounds(network.num_nodes, plan, beta), 1.0)
    max_domain = int(counts[in_domain].max())
    lane_indices = np.nonzero(in_domain & (table.num_pairs > 0))[0]

    # --- the driver-stream draws (quantum only) ---------------------------
    # Lane seeds are one batched draw — the exact values sequential
    # per-node draws would have produced — and the seed column seeds the
    # class's one batch generator.
    schedule = None
    seeds = None
    if search_mode == "quantum":
        max_m = int(table.num_pairs[in_domain].max())
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
    prep.lanes = ClassLanes.from_table(
        table, (counts, offsets, flat_blocks), lane_indices, seeds
    )
    return prep


def _search_class(prep: _PreparedClass, report: Step3Report) -> float:
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
                beta=prep.beta, eval_rounds=prep.eval_rounds, batch_rng=lanes.seeds,
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
