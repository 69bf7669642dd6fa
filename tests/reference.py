"""Reference forms of the protocol hot paths — the executable
specification the byte-identity and fidelity suites compare against.

Nothing in ``src/repro`` imports this module
(``tests/test_package_boundary.py`` fails if anything does); the suites in
``tests/`` and ``benchmarks/`` import it as ``from tests import
reference``.  It imports only numpy and ``repro``.

Every arithmetic batch builder in the library replaced a per-message Python
loop, and the segmented Step-2 sampler replaced a per-search-node loop.
The loops live on here, written in the most literal node-major form
("for each triple node, for each sender, append one message"; "for each
search node, draw, check balance, slice"):
``tests/test_builder_equivalence.py`` asserts that the arithmetic builders
produce identical :class:`~repro.congest.batch.MessageBatch` contents (in
:func:`canonical_order`) and identical ``router.batch_loads`` histograms,
and ``tests/test_step2_equivalence.py`` asserts that
:func:`repro.core.compute_pairs._step2_sample` reproduces
:func:`step2_sample_loops` byte for byte — node pairs, weights, witness
tables, coverage, delivered batches, round charges, and the RNG stream.
The loop forms keep their per-label dicts (``node_pairs[(bu, bv, x)]``);
they get a label's host by arithmetic, as the row-major position
``ravel_multi_index(label, shape) % n``.

The Step-3 accounting forms live here too: the dict-of-dicts query plans
(:func:`step3_query_plan_dicts`, columnarized by
:func:`query_plan_from_mappings`), the dict-walking load/round computations
(:func:`query_loads_dicts`, :func:`evaluation_rounds_dicts`,
:func:`step0_duplication_loads_dicts`) and the per-label class driver
(:func:`run_step3_loops`) that ``repro.core.evaluation`` /
``repro.core.quantum_step3`` replaced with the columnar
:class:`~repro.core.evaluation.QueryPlan` and bulk lane registration —
``tests/test_step3_equivalence.py`` asserts rounds, per-node loads, RNG
streams, and found pairs identical byte for byte.

The ComputePairs kernels that went array-native keep their earlier forms
here as well: :func:`block_two_hop_float`, the float64 broadcast-min that
the integer-coded :func:`repro.core.evaluation.block_two_hop` replaced
(``tests/test_core_evaluation.py`` asserts byte identity after decoding),
:func:`witnessed_two_hop_min`, the float64 ground-truth loop that the
coded :func:`repro.core.evaluation.witnessed_two_hop` replaced (run on an
instance by :func:`reference_solution_float`),
:func:`run_identify_class_broadcast_all`, IdentifyClass with its two
broadcasts keyed by label through
:meth:`~repro.congest.network.CongestClique.broadcast_all`
(``tests/test_core_fidelity.py`` asserts the same classes, ledger and
per-phase telemetry entries as the columnar form), and
:func:`classify_triples_loops`, IdentifyClass's per-sample assembly of
``R`` on float64 tables (``tests/test_core_identify_class.py`` asserts the
same classes).

The sequential Step-3 draws live here too: :class:`LaneDraws` gives each
lane of a :class:`~repro.quantum.batched.BatchedMultiSearch` its own
generator, drawn with the call shapes of
:meth:`~repro.quantum.multisearch.MultiSearch.run`, so the batched loop run
off it (``BatchedMultiSearch._run``) reproduces the per-node sequential
searches byte for byte (``tests/test_quantum_batched.py``).

Nothing here is called on a hot path — the point of these functions is to
be obviously correct, not fast.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping, Sequence

import numpy as np

from repro.congest.batch import MessageBatch
from repro.congest.network import CongestClique
from repro.congest.partitions import BlockPartition, CliquePartitions
from repro.congest.router import route_rounds
from repro.core.evaluation import QueryPlan
from repro.errors import ProtocolAbortedError
from repro.util.rng import ensure_rng


def _batch_from_lists(src: list[int], dst: list[int], size: list[int]) -> MessageBatch:
    return MessageBatch(
        np.array(src, dtype=np.int64),
        np.array(dst, dtype=np.int64),
        np.array(size, dtype=np.int64),
    )


def canonical_order(batch: MessageBatch) -> MessageBatch:
    """``batch`` with its messages in canonical ``(dst, src, size)`` order.

    Delivery and Lemma 1 charges are order-invariant, so two builders are
    equivalent iff their canonically ordered batches are identical — the
    comparison the property tests use.
    """
    order = np.lexsort((batch.size_words, batch.src, batch.dst))
    return MessageBatch(batch.src[order], batch.dst[order], batch.size_words[order])


def block_two_hop_float(
    weights: np.ndarray,
    block_u: np.ndarray,
    block_v: np.ndarray,
    fine_blocks: Sequence[np.ndarray],
) -> np.ndarray:
    """The float64 two-hop broadcast-min that the integer-coded
    :func:`repro.core.evaluation.block_two_hop` replaced:
    ``H[a, b, w] = min_{w ∈ fine_blocks[w]} (weights[u_a, w] + weights[w, v_b])``."""
    out = np.empty((len(block_u), len(block_v), len(fine_blocks)))
    rows_u = weights[np.ix_(block_u, np.arange(weights.shape[0]))]
    for index, fine in enumerate(fine_blocks):
        left = rows_u[:, fine]
        right = weights[np.ix_(fine, block_v)]
        out[:, :, index] = (left[:, :, None] + right[None, :, :]).min(axis=1)
    return out


def witnessed_two_hop_min(
    witness_weights: np.ndarray,
    rows: np.ndarray | None = None,
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """``out[u, v] = min_{w ∉ {u, v}} (witness(u, w) + witness(w, v))``
    in float64, one witness at a time — the ground-truth loop that the
    coded :func:`repro.core.evaluation.witnessed_two_hop` replaced in
    :meth:`~repro.core.problems.FindEdgesInstance.reference_solution`
    (``tests/test_core_problems.py`` asserts the same pair sets through
    :func:`reference_solution_float`).

    The min-plus square of the witness matrix with the diagonal forced to
    ``+∞``, so degenerate witnesses ``w ∈ {u, v}`` never contribute
    (``witness(u, u)`` would be the excluded edge).  A pair lies in a
    negative triangle iff ``out[u, v] < −pair(u, v)``.  ``rows``/``cols``
    restrict the output to ``out[np.ix_(rows, cols)]``; the witness axis
    always ranges over all vertices.
    """
    w = np.asarray(witness_weights, dtype=np.float64).copy()
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("witness matrix must be square")
    np.fill_diagonal(w, np.inf)
    n = w.shape[0]
    left = w if rows is None else w[rows, :]
    right = w if cols is None else w[:, cols]
    out = np.full((left.shape[0], right.shape[1]), np.inf)
    for k in range(n):
        np.minimum(out, left[:, k][:, None] + right[k, :][None, :], out=out)
    return out


def reference_solution_float(instance) -> set:
    """``FindEdgesInstance.reference_solution()`` in the float64 form the
    coded min-plus replaced: :func:`witnessed_two_hop_min` over the scope's
    rows and columns, each pair compared against ``−f``."""
    scope = instance.effective_scope()
    if not scope:
        return set()
    pairs = np.array(list(scope), dtype=np.int64)
    us, vs = pairs[:, 0], pairs[:, 1]
    rows, cols = np.unique(us), np.unique(vs)
    two_hop = witnessed_two_hop_min(instance.graph.weights, rows, cols)
    w = instance.effective_pair_graph().weights[us, vs]
    hit = np.isfinite(w) & (
        two_hop[np.searchsorted(rows, us), np.searchsorted(cols, vs)] < -w
    )
    return set(map(tuple, pairs[hit].tolist()))


def run_identify_class_broadcast_all(
    network: CongestClique,
    instance,
    partitions: CliquePartitions,
    constants,
    two_hop_for,
    coded,
    rng=None,
):
    """IdentifyClass with both broadcasts as ``{position: words}`` dicts —
    the :meth:`~repro.congest.network.CongestClique.broadcast_all` form that
    :func:`repro.core.identify_class.run_identify_class` replaced with
    position-array ``broadcast_volume`` charges.  Each sampler broadcasts
    ``2·|Λ(u)|`` words (a partner id and a pair weight per sample); the
    class announcements go out one word each on a separately registered
    scheme with one position per triple.
    """
    import math

    from repro.core.identify_class import classify_triples, sample_partners

    sampled = sample_partners(instance, constants, ensure_rng(rng))
    network.broadcast_all(
        {u: 2 * int(chosen.size) for u, chosen in sampled.items()},
        "identify_class.broadcast_samples",
    )
    assignment = classify_triples(
        instance, partitions, constants, two_hop_for, coded, sampled
    )
    num_triples = math.prod(partitions.grid_shape)
    network.register_scheme("identify_class_announce", num_triples)
    network.broadcast_all(
        {position: 1 for position in range(num_triples)},
        "identify_class.broadcast_classes", scheme="identify_class_announce",
    )
    return assignment


def classify_triples_loops(
    instance, partitions: CliquePartitions, constants, two_hop_for, sampled
):
    """Step 2 of IdentifyClass one sample at a time, on float64 tables —
    the form :func:`repro.core.identify_class.classify_triples` replaced
    with a canonical-key ``np.unique``, a group-by over coarse block pairs
    and the coded threshold.  ``R`` is assembled with a ``seen`` set and
    per-orientation tuple appends, and a block pair's hits compare its
    decoded two-hop values against ``−f``.
    """
    from repro.core.identify_class import ClassAssignment, _class_of

    n = instance.num_vertices
    pair_weights = instance.effective_pair_graph().weights
    coarse_of = partitions.coarse.block_index_array()
    coarse_start = {
        index: int(block[0]) for index, block in enumerate(partitions.coarse.blocks())
    }
    by_block_pair: dict = defaultdict(list)
    seen: set[tuple[int, int]] = set()
    for u, chosen in sampled.items():
        for v in chosen.tolist():
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in seen:
                continue
            seen.add((a, b))
            weight = float(pair_weights[a, b])
            bu, bv = int(coarse_of[a]), int(coarse_of[b])
            by_block_pair[(bu, bv)].append((a, b, weight))
            if bu != bv:
                by_block_pair[(bv, bu)].append((b, a, weight))

    num_fine = partitions.num_fine
    num_coarse = partitions.num_coarse
    grid = np.empty((num_coarse, num_coarse, num_fine), dtype=np.int64)
    for bu in range(num_coarse):
        for bv in range(num_coarse):
            entries = by_block_pair.get((bu, bv), ())
            if entries:
                two_hop = two_hop_for(bu, bv)
                rows = np.array([a - coarse_start[bu] for a, _, _ in entries])
                cols = np.array([b - coarse_start[bv] for _, b, _ in entries])
                weights = np.array([w for _, _, w in entries])
                counts = (two_hop[rows, cols, :] < -weights[:, None]).sum(axis=0)
            else:
                counts = np.zeros(num_fine, dtype=np.int64)
            for bw in range(num_fine):
                grid[bu, bv, bw] = _class_of(float(counts[bw]), n, constants)
    return ClassAssignment(grid=grid, sample_size=len(seen))


def step1_batch_loops(partitions: CliquePartitions) -> MessageBatch:
    """Step 1 of ComputePairs (Figure 1), one message at a time.

    For every triple node ``(bu, bv, bw)`` (destination position in the
    triple scheme's registration order): every ``u`` in coarse block ``bu``
    sends its fine-block-``bw`` row slice, and every ``w`` in fine block
    ``bw`` sends its coarse-block-``bv`` row slice.
    """
    coarse = partitions.coarse
    fine = partitions.fine
    num_fine = partitions.num_fine
    src: list[int] = []
    dst: list[int] = []
    size: list[int] = []
    for bu in range(partitions.num_coarse):
        for bv in range(partitions.num_coarse):
            for bw in range(num_fine):
                position = (bu * partitions.num_coarse + bv) * num_fine + bw
                size_fine = len(fine.block(bw))
                size_coarse = len(coarse.block(bv))
                for u in coarse.block(bu).tolist():
                    src.append(u)
                    dst.append(position)
                    size.append(size_fine)
                for w in fine.block(bw).tolist():
                    src.append(w)
                    dst.append(position)
                    size.append(size_coarse)
    return _batch_from_lists(src, dst, size)


def dolev_gather_loops(
    partition: BlockPartition, triples: Sequence[tuple[int, int, int]]
) -> MessageBatch:
    """The Dolev–Lenzen–Peled gather: every vertex of each *distinct* block
    of a triple ships its row restricted to the union of the triple's blocks
    (2 words per entry: witness weight plus pair weight)."""
    src: list[int] = []
    dst: list[int] = []
    size: list[int] = []
    for position, triple in enumerate(triples):
        blocks = sorted(set(triple))
        senders = [
            int(v) for block in blocks for v in partition.block(block).tolist()
        ]
        for v in senders:
            src.append(v)
            dst.append(position)
            size.append(2 * len(senders))
    return _batch_from_lists(src, dst, size)


def censor_hillel_batches_loops(
    partition: BlockPartition, triples: Sequence[tuple[int, int, int]]
) -> tuple[MessageBatch, MessageBatch]:
    """The Censor-Hillel cube-partition traffic: per triple ``(x, y, z)``,
    the gather of ``A[X, Z]`` rows (from ``X``'s vertices, ``|Z|`` words
    each) and ``B[Z, Y]`` rows (from ``Z``'s vertices, ``|Y|`` words each),
    and the aggregate shipping each ``|Y|``-wide partial row back to its
    owner in ``X``.  Returns ``(gather, aggregate)``."""
    g_src: list[int] = []
    g_dst: list[int] = []
    g_size: list[int] = []
    a_src: list[int] = []
    a_dst: list[int] = []
    a_size: list[int] = []
    for position, (x, y, z) in enumerate(triples):
        size_y = len(partition.block(y))
        size_z = len(partition.block(z))
        for u in partition.block(x).tolist():
            g_src.append(u)
            g_dst.append(position)
            g_size.append(size_z)
        for w in partition.block(z).tolist():
            g_src.append(w)
            g_dst.append(position)
            g_size.append(size_y)
        for u in partition.block(x).tolist():
            a_src.append(position)
            a_dst.append(u)
            a_size.append(size_y)
    return (
        _batch_from_lists(g_src, g_dst, g_size),
        _batch_from_lists(a_src, a_dst, a_size),
    )


def _step2_empty_node_entry(num_fine: int):
    return (
        np.empty((0, 2), dtype=np.int64),
        np.empty(0),
        np.empty((0, num_fine), dtype=bool),
    )


def _step2_witness_table(
    pairs: np.ndarray,
    two_hop: np.ndarray,
    weights: np.ndarray,
    bu: int,
    bv: int,
    start_u: int,
    start_v: int,
    coarse,
) -> np.ndarray:
    """``table[ℓ, w] = True`` iff fine block ``w`` contains a witness
    closing a negative triangle with pair ``ℓ`` (one node at a time)."""
    if len(pairs) == 0:
        return np.empty((0, two_hop.shape[2]), dtype=bool)
    a = pairs[:, 0]
    b = pairs[:, 1]
    a_in_u = coarse.block_index_array()[a] == bu
    rows = np.where(a_in_u, a - start_u, b - start_u)
    cols = np.where(a_in_u, b - start_v, a - start_v)
    values = two_hop[rows, cols, :]  # (num_pairs, num_fine)
    return values < -weights[:, None]


def step2_sample_loops(
    network: CongestClique,
    partitions: CliquePartitions,
    instance,
    constants,
    rng: np.random.Generator,
    two_hop_for,
):
    """Step 2 of ComputePairs, one search node at a time — the loop form
    :func:`repro.core.compute_pairs._step2_sample` replaced with a single
    segmented pass.

    Draws one ``(F, |P(u, v)|)`` uniform block per coarse block pair (the
    stream layout the segmented pass must reproduce), then iterates every
    ``(bu, bv, x)`` search node in Python: per-node balance check (Lemma 2
    (i)), per-node ``np.unique`` owner loads, per-node eligibility filter
    and witness-table slice.
    """
    n = instance.num_vertices
    rate = constants.lambda_rate(n)
    balance = constants.balance_bound(n)
    scope = instance.effective_scope()
    pair_weights = instance.effective_pair_graph().weights
    coarse = partitions.coarse

    scope_mask = np.zeros((n, n), dtype=bool)
    if scope:
        scope_rows = np.fromiter((a for a, _ in scope), dtype=np.int64, count=len(scope))
        scope_cols = np.fromiter((b for _, b in scope), dtype=np.int64, count=len(scope))
        scope_mask[scope_rows, scope_cols] = True
    eligible_mask = scope_mask & np.isfinite(pair_weights)
    covered_mask = np.zeros((n, n), dtype=bool)

    search_positions: list[np.ndarray] = []
    owner_vertices: list[np.ndarray] = []
    owner_counts: list[np.ndarray] = []
    node_pairs: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    num_fine = partitions.num_fine

    for bu in range(partitions.num_coarse):
        for bv in range(partitions.num_coarse):
            all_pairs = partitions.block_pairs(bu, bv)
            if len(all_pairs) == 0:
                continue
            block_u = coarse.block(bu)
            start_u = int(block_u[0])
            start_v = int(coarse.block(bv)[0])
            masks = rng.random((num_fine, len(all_pairs))) < rate
            for x in range(partitions.num_fine):
                label = (bu, bv, x)
                lam = all_pairs[masks[x]]
                if len(lam) == 0:
                    node_pairs[label] = _step2_empty_node_entry(partitions.num_fine)
                    continue
                touching_u = np.concatenate([lam[:, 0], lam[:, 1]])
                touching_u = touching_u[
                    (touching_u >= block_u[0]) & (touching_u <= block_u[-1])
                ]
                if touching_u.size:
                    max_count = int(
                        np.bincount(touching_u - int(block_u[0])).max()
                    )
                    if max_count > balance:
                        raise ProtocolAbortedError(
                            "compute_pairs.step2",
                            f"Λ_{x}({bu},{bv}) unbalanced: "
                            f"{max_count} > {balance:.1f}",
                        )
                owners, counts = np.unique(lam[:, 0], return_counts=True)
                position = (bu * partitions.num_coarse + bv) * num_fine + x
                search_positions.append(
                    np.full(owners.size, position, dtype=np.int64)
                )
                owner_vertices.append(owners)
                owner_counts.append(counts)
                kept = lam[eligible_mask[lam[:, 0], lam[:, 1]]]
                covered_mask[kept[:, 0], kept[:, 1]] = True
                weights = pair_weights[kept[:, 0], kept[:, 1]]
                witness_table = _step2_witness_table(
                    kept, two_hop_for(bu, bv), weights, bu, bv, start_u, start_v, coarse
                )
                node_pairs[label] = (kept, weights, witness_table)

    if search_positions:
        nodes = np.concatenate(search_positions)
        owners = np.concatenate(owner_vertices)
        counts = np.concatenate(owner_counts)
    else:
        nodes = owners = counts = np.empty(0, dtype=np.int64)
    network.deliver(
        MessageBatch(nodes, owners, counts),
        "compute_pairs.step2_request", scheme="search", dst_scheme="base",
    )
    network.deliver(
        MessageBatch(owners, nodes, 2 * counts),
        "compute_pairs.step2_reply", scheme="base", dst_scheme="search",
    )

    num_eligible = int(np.count_nonzero(eligible_mask))
    coverage = (
        1.0
        if num_eligible == 0
        else int(np.count_nonzero(covered_mask & eligible_mask)) / num_eligible
    )
    return node_pairs, coverage


# ---------------------------------------------------------------------------
# Step-3 evaluation accounting, dict-walking forms
# ---------------------------------------------------------------------------

#: Words per queried pair / per answer (mirrors repro.core.evaluation).
_PAIR_QUERY_WORDS = 3


def query_plan_from_mappings(
    node_physical: Mapping[object, int],
    query_plan: Mapping[object, Mapping[object, int]],
    dest_physical: Mapping[object, int],
) -> QueryPlan:
    """Columnarize a dict-of-dicts plan into a
    :class:`~repro.core.evaluation.QueryPlan`, one row per
    ``query_plan[src_label][dst_label]`` entry in dict order."""
    src: list[int] = []
    dst: list[int] = []
    counts: list[int] = []
    for src_label, destinations in query_plan.items():
        src_phys = int(node_physical[src_label])
        for dst_label, num_pairs in destinations.items():
            src.append(src_phys)
            dst.append(int(dest_physical[dst_label]))
            counts.append(int(num_pairs))
    return QueryPlan(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(counts, dtype=np.int64),
    )


def query_loads_dicts(
    num_nodes: int,
    node_physical: Mapping[object, int],
    query_plan: Mapping[object, Mapping[object, int]],
    dest_physical: Mapping[object, int],
    beta_pairs: float,
) -> tuple[list[int], list[int]]:
    """Source/destination word loads of one forward evaluation delivery,
    one ``query_plan[src_label][dst_label] = num_pairs`` dict entry at a
    time — the form :func:`repro.core.evaluation.query_loads` replaced with
    ``np.bincount`` over the columnar :class:`~repro.core.evaluation.QueryPlan`.
    """
    src_load = [0] * num_nodes
    dst_load = [0] * num_nodes
    for src_label, destinations in query_plan.items():
        src_phys = node_physical[src_label]
        for dst_label, num_pairs in destinations.items():
            capped = min(int(num_pairs), int(np.ceil(beta_pairs)))
            if capped <= 0:
                continue
            words = _PAIR_QUERY_WORDS * capped
            src_load[src_phys] += words
            dst_load[dest_physical[dst_label]] += words
    return src_load, dst_load


def evaluation_rounds_dicts(
    num_nodes: int,
    node_physical: Mapping[object, int],
    query_plan: Mapping[object, Mapping[object, int]],
    dest_physical: Mapping[object, int],
    beta_pairs: float,
) -> float:
    """Round cost of one evaluation application from the dict-of-dicts plan
    (forward queries plus answers along the reversed pattern)."""
    src_load, dst_load = query_loads_dicts(
        num_nodes, node_physical, query_plan, dest_physical, beta_pairs
    )
    one_way = route_rounds(num_nodes, src_load, dst_load)
    return 2.0 * one_way


def step0_duplication_loads_dicts(
    num_nodes: int,
    source_physical: Mapping[object, int],
    duplicate_physical: Mapping[object, Sequence[int]],
    words_per_source: Mapping[object, int],
) -> float:
    """Fig. 5 Step 0 charge, walking one ``label → [duplicate hosts]`` dict
    entry at a time (duplicates hosted on the source's own physical node are
    free)."""
    src_load = [0] * num_nodes
    dst_load = [0] * num_nodes
    for label, duplicates in duplicate_physical.items():
        words = int(words_per_source[label])
        for phys in duplicates:
            if phys == source_physical[label]:
                continue
            src_load[source_physical[label]] += words
            dst_load[phys] += words
    return route_rounds(num_nodes, src_load, dst_load)


def step3_domains_dicts(assignment, node_pairs, alpha: int) -> dict:
    """Per-search-node domains of class ``alpha``, one class-grid row read
    per label — the form the CSR of
    :meth:`~repro.core.identify_class.ClassAssignment.domain_csr` replaced."""
    domains: dict[tuple[int, int, int], list[int]] = {}
    for label in node_pairs:
        bu, bv, _x = label
        blocks = np.flatnonzero(assignment.grid[bu, bv] == alpha).tolist()
        if blocks:
            domains[label] = blocks
    return domains


def step3_query_plan_dicts(domains, node_pairs, beta: float, dup: int) -> dict:
    """The class query plan as a dict of dicts, one Python entry per
    (search label × block × duplicate) — what the Step-3 driver built
    before the columnar :class:`~repro.core.evaluation.QueryPlan` of
    ``repro.core.quantum_step3.class_query_plan``."""
    query_plan: dict[object, dict[object, int]] = {}
    for label, blocks in domains.items():
        bu, bv, _x = label
        num_pairs = len(node_pairs[label][0])
        if num_pairs == 0:
            continue
        per_dest = min(num_pairs, int(np.ceil(beta)))
        plan: dict[object, int] = {}
        for bw in blocks:
            if dup > 1:
                share = max(1, -(-per_dest // dup))
                for y in range(dup):
                    plan[(bu, bv, bw, y)] = share
            else:
                plan[(bu, bv, bw)] = per_dest
        query_plan[label] = plan
    return query_plan


def run_step3_loops(
    network: CongestClique,
    partitions: CliquePartitions,
    constants,
    assignment,
    node_pairs,
    *,
    rng=None,
    search_mode: str = "quantum",
    amplification: float = 12.0,
):
    """Step 3 with per-label dict accounting and one lane registration per
    label — the executable specification that
    ``tests/test_step3_equivalence.py`` compares the array-backed driver
    against (rounds, loads, RNG streams, found pairs, all byte-identical).
    """
    from repro.core.quantum_step3 import Step3Report

    if search_mode not in ("quantum", "classical"):
        raise ValueError(f"unknown search_mode {search_mode!r}")
    generator = ensure_rng(rng)
    report = Step3Report()
    all_alphas = np.unique(assignment.grid).tolist()
    for alpha in all_alphas:
        _run_class_loops(
            network,
            partitions,
            constants,
            assignment,
            node_pairs,
            alpha,
            report,
            generator,
            search_mode,
            amplification,
        )
    return report


def _run_class_loops(
    network, partitions, constants, assignment, node_pairs, alpha, report,
    generator, search_mode, amplification,
) -> None:
    from repro.core.evaluation import duplication_count
    from repro.quantum.amplitude import max_iterations
    from repro.quantum.batched import BatchedMultiSearch
    from repro.util.mathutil import guarded_log

    n = partitions.num_vertices
    beta = constants.eval_beta(n, alpha)
    dup = duplication_count(constants, n, alpha)
    report.duplication_per_alpha[alpha] = dup

    domains = step3_domains_dicts(assignment, node_pairs, alpha)
    if not domains:
        report.eval_rounds_per_alpha[alpha] = 0.0
        report.search_rounds_per_alpha[alpha] = 0.0
        return

    shape = partitions.grid_shape
    num_nodes = network.num_nodes
    triple_physical = {
        label: int(np.ravel_multi_index(label, shape)) % num_nodes
        for label in np.ndindex(*shape)
    }
    if dup > 1:
        alpha_triples = [
            tuple(row) for row in np.argwhere(assignment.grid == alpha).tolist()
        ]
        network.register_scheme(f"step3_dup_alpha{alpha}", len(alpha_triples) * dup)
        # Duplicate y of the prefix-th class-α triple sits at prefix·dup + y.
        dest_physical = {
            triple + (y,): (prefix * dup + y) % num_nodes
            for prefix, triple in enumerate(alpha_triples)
            for y in range(dup)
        }
        size_u = partitions.coarse.max_block_size
        size_w = partitions.fine.max_block_size
        words = size_u * size_w * 2  # F_uw plus F_wv
        duplicate_physical = {
            triple: [dest_physical[triple + (y,)] for y in range(dup)]
            for triple in alpha_triples
        }
        step0 = step0_duplication_loads_dicts(
            num_nodes,
            triple_physical,
            duplicate_physical,
            {label: words for label in duplicate_physical},
        )
        network.charge_local(f"step3.alpha{alpha}.duplication", step0)
    else:
        dest_physical = triple_physical

    node_physical = {
        label: int(np.ravel_multi_index(label, shape)) % num_nodes
        for label in node_pairs
    }
    query_plan = step3_query_plan_dicts(domains, node_pairs, beta, dup)
    eval_r = evaluation_rounds_dicts(
        network.num_nodes, node_physical, query_plan, dest_physical, beta
    )
    eval_r = max(eval_r, 1.0)
    report.eval_rounds_per_alpha[alpha] = eval_r

    if search_mode == "classical":
        max_domain = max(len(blocks) for blocks in domains.values())
        rounds = eval_r * max_domain
        for label, blocks in domains.items():
            pairs, _weights, witness_table = node_pairs[label]
            if len(pairs) == 0:
                continue
            columns = np.array(blocks, dtype=np.int64)
            hit = witness_table[:, columns].any(axis=1)
            report.total_searches += len(pairs)
            for index in np.nonzero(hit)[0].tolist():
                u, v = pairs[index]
                report.found_pairs.add((int(u), int(v)))
        network.charge_local(f"step3.alpha{alpha}.search", rounds)
        report.search_rounds_per_alpha[alpha] = rounds
        return

    max_domain = max(len(blocks) for blocks in domains.values())
    max_m = max(len(node_pairs[label][0]) for label in domains)
    cap = max_iterations(max_domain + 1)
    repetitions = max(
        1, int(np.ceil(amplification * guarded_log(max(max_m, 2))))
    )
    schedule = generator.integers(0, cap + 1, size=repetitions).tolist()

    lane_pairs = {
        label: node_pairs[label][0] for label in domains if len(node_pairs[label][0])
    }
    # One lane seed per label off the driver stream; the seed column seeds
    # the class's batch generator.
    seeds = [int(generator.integers(0, 2**63 - 1)) for _ in lane_pairs]
    batched = BatchedMultiSearch(beta=beta, eval_rounds=eval_r, batch_rng=seeds)
    for label, pairs in lane_pairs.items():
        columns = np.array(domains[label], dtype=np.int64)
        table = node_pairs[label][2][:, columns]
        counts = table.sum(axis=1)
        rows = np.flatnonzero(counts)
        batched.add_lanes(
            [label], [columns.size], [len(pairs)], [table[rows]], [rows], [counts[rows]]
        )

    phase_rounds = 0.0
    for label, result in batched.run(schedule).items():
        pairs = lane_pairs[label]
        report.total_searches += int(result.found.size)
        report.typicality_truncations += result.typicality.truncated_entries
        report.corrupted_repetitions += result.corrupted_repetitions
        phase_rounds = max(phase_rounds, result.rounds)
        for index in np.nonzero(result.found_mask())[0].tolist():
            u, v = pairs[index]
            report.found_pairs.add((int(u), int(v)))
    network.charge_local(f"step3.alpha{alpha}.search", phase_rounds)
    report.search_rounds_per_alpha[alpha] = phase_rounds


class LaneDraws:
    """The sequential draw source of the Step-3 loop: one generator per lane
    seed, drawn with the call shapes of :meth:`MultiSearch.run` —
    ``random()``, ``random(k)`` and ``integers(0, bounds)``.

    Passed to ``BatchedMultiSearch._run`` in place of the batch generator,
    it puts every lane's measurements, corruption flags and early stop
    exactly where ``MultiSearch(rng=seeds[i]).run(schedule=...)`` puts
    them.  Lane streams are independent, so drawing one kind for every
    lane before the next kind changes no lane's stream.
    """

    def __init__(self, seeds) -> None:
        self.rngs = [ensure_rng(seed) for seed in seeds]

    def flags(self, lanes: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (self.rngs[lane].random() for lane in lanes.tolist()),
            np.float64, lanes.size,
        )

    def uniforms(self, lanes: np.ndarray, searches: np.ndarray, table) -> np.ndarray:
        # ``MultiSearch.run`` draws over a lane's whole pending set: the
        # measured ``searches`` (every pending registered search of the
        # lane) plus its unregistered zero-solution searches, which are
        # never found and so always pending.  Only the measured entries are
        # handed back; the loop never measures the rest.  Their hits need
        # no mirror in ``slots``: a zero-solution search's
        # ``integers(0, 1)`` slot consumes no variate.
        lo = table.lane_off[lanes]
        starts = np.searchsorted(searches, lo).tolist()
        ends = np.searchsorted(searches, table.lane_off[lanes + 1]).tolist()
        parts = []
        for lane, a, s, e in zip(lanes.tolist(), lo.tolist(), starts, ends):
            record = table.lanes[lane]
            measured = np.zeros(record.num_searches, dtype=bool)
            measured[record.rows[searches[s:e] - a]] = True
            pending = np.ones(record.num_searches, dtype=bool)
            pending[record.rows] = False
            pending |= measured
            parts.append(self.rngs[lane].random(int(pending.sum()))[measured[pending]])
        return np.concatenate(parts)

    def slots(self, lanes: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        # ``lanes`` is ascending: one ``integers`` call per run of a lane.
        cuts = np.flatnonzero(lanes[1:] != lanes[:-1]) + 1
        owners = lanes[np.concatenate(([0], cuts))].tolist()
        return np.concatenate([
            self.rngs[lane].integers(0, part)
            for lane, part in zip(owners, np.split(bounds, cuts))
        ])


def run_lane_draws(batched, schedule, *, early_stop: bool = True):
    """``BatchedMultiSearch.run`` off :class:`LaneDraws` over the search's
    seed column (``batched.batch_rng``): the sequential per-lane streams,
    through the same loop.  Patched in for ``BatchedMultiSearch.run``, it
    runs a whole Step 3 (or ComputePairs) on those streams."""
    return batched._run(schedule, LaneDraws(batched.batch_rng), early_stop=early_stop)
