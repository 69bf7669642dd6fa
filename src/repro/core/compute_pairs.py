"""Algorithm ComputePairs (Figure 1) — the Õ(n^{1/4})-round solver for
FindEdgesWithPromise (Theorem 2).

The three steps, each charged on a :class:`CongestClique` by its word counts:

1. **Load** — every triple node ``(u, v, w) ∈ T = V × V × V′`` gathers the
   witness weights ``f(u, w)`` for ``{u, w} ∈ P(u, w)`` and ``f(w, v)`` for
   ``{w, v} ∈ P(w, v)``; ``Θ(n^{5/4})`` words per node ⇒ ``O(n^{1/4})``
   rounds by Lemma 1.
2. **Sample** — every search node ``(u, v, x) ∈ V × V × [√n]`` draws its
   random pair set ``Λx(u, v) ⊆ P(u, v)`` with rate ``10 log n / √n``,
   aborts unless all sets are *well-balanced* (Lemma 2), and loads the pair
   weights and scope membership of its sampled pairs.
3. **Search** — Algorithm IdentifyClass partitions the triples into load
   classes, then each node runs one quantum search per kept pair over each
   class's blocks (:mod:`repro.core.quantum_step3`).

Aborts (low-probability bad events of the randomized constructions) raise
:class:`ProtocolAbortedError` internally; :func:`compute_pairs` retries with
fresh randomness a bounded number of times, mirroring the paper's
"with probability ≥ 1 − 2/n the protocol does not abort".
"""

from __future__ import annotations

import math

import numpy as np

from repro.congest.batch import MessageBatch
from repro.congest.network import CongestClique
from repro.congest.partitions import CliquePartitions
from repro.core.constants import SIMULATION, PaperConstants
from repro.core.evaluation import CodedWeights, block_two_hop
from repro.core.identify_class import run_identify_class
from repro.core.problems import FindEdgesInstance, FindEdgesSolution
from repro.core.quantum_step3 import SearchTable, run_step3
from repro.errors import ConvergenceError, ProtocolAbortedError
from repro import telemetry
from repro.util.rng import RngLike, ensure_rng, spawn_rng

def compute_pairs(
    instance: FindEdgesInstance,
    *,
    constants: PaperConstants = SIMULATION,
    rng: RngLike = None,
    search_mode: str = "quantum",
    max_retries: int = 5,
    amplification: float = 12.0,
    rng_contract: str = "v2",
    workers: int = 1,
) -> FindEdgesSolution:
    """Solve FindEdgesWithPromise with Algorithm ComputePairs.

    Returns the detected scope pairs together with the full round ledger.
    Retries up to ``max_retries`` times on protocol aborts; raises
    :class:`ConvergenceError` if every attempt aborts (probability
    ``O(n^{-max_retries})`` under the paper's parameters).  ``rounds`` and
    ``ledger`` cover the successful attempt; the rounds the aborted ones
    charged are summed in ``details["aborted_rounds"]``.

    The solve runs in-process.  ``workers`` accepts only ``1`` and
    ``rng_contract`` only ``"v2"`` (Step 3 draws from one batch generator
    per class, :mod:`repro.quantum.batched`), for callers that still pass
    them; the worker pool serves batch sweeps and the job engine
    (:mod:`repro.parallel`).
    """
    if rng_contract != "v2":
        raise ValueError(
            f"compute_pairs has one RNG contract; got rng_contract={rng_contract!r}"
        )
    if workers != 1:
        raise ValueError(f"compute_pairs runs in-process; got workers={workers!r}")
    generator = ensure_rng(rng)
    aborts = 0
    aborted_rounds = 0.0
    with telemetry.span(
        "compute_pairs",
        n=instance.num_vertices,
        search_mode=search_mode,
    ) as outer:
        for _ in range(max_retries):
            try:
                solution = _compute_pairs_once(
                    instance,
                    constants=constants,
                    rng=spawn_rng(generator),
                    search_mode=search_mode,
                    amplification=amplification,
                )
            except ProtocolAbortedError as error:
                aborts += 1
                aborted_rounds += error.rounds
                continue
            solution.aborts = aborts
            solution.details["aborted_rounds"] = aborted_rounds
            outer.set("aborts", aborts).set("rounds", solution.rounds)
            return solution
    raise ConvergenceError(
        f"ComputePairs aborted {max_retries} times in a row; "
        "constants.scale may be too aggressive for this n"
    )


def _compute_pairs_once(
    instance: FindEdgesInstance,
    *,
    constants: PaperConstants,
    rng: np.random.Generator,
    search_mode: str,
    amplification: float,
) -> FindEdgesSolution:
    n = instance.num_vertices
    with telemetry.span("compute_pairs.step0_setup", n=n):
        # Discarded on purpose: the pinned outputs (perfbench's seed-0
        # rounds, pairs and digests) were recorded with this variate
        # consumed here, so every later Step-2, IdentifyClass and Step-3
        # draw depends on it.
        rng.integers(0, 2**63 - 1)
        network = CongestClique(n)
        partitions = CliquePartitions(n)
        witness = instance.graph.weights

        num_triples = math.prod(partitions.grid_shape)
        network.register_scheme("triple", num_triples)
        network.register_scheme("search", num_triples)

    with telemetry.span("compute_pairs.step1_load", n=n):
        _step1_load(network, partitions)

    # Local two-hop tables: what the triple nodes (u, v, ·) jointly
    # compute from the weights gathered in Step 1 (free: local computation).
    # The witness matrix is encoded for the integer kernel once per solve,
    # and the tables stay in that code: Step 2 and IdentifyClass compare
    # them against the coded threshold.
    fine_blocks = partitions.fine.blocks()
    coded_witness = CodedWeights.encode(witness)
    cache: dict[tuple[int, int], np.ndarray] = {}

    def two_hop_for(bu: int, bv: int) -> np.ndarray:
        key = (bu, bv)
        if key not in cache:
            cache[key] = block_two_hop(
                coded_witness,
                partitions.coarse.block(bu),
                partitions.coarse.block(bv),
                fine_blocks,
            )
        return cache[key]

    try:
        with telemetry.span("compute_pairs.step2_sample", n=n):
            table, coverage = _step2_sample(
                network, partitions, instance, constants, rng, two_hop_for,
                coded_witness,
            )

        with telemetry.span("compute_pairs.step3_identify", n=n):
            assignment = run_identify_class(
                network, instance, partitions, constants, two_hop_for,
                coded_witness, rng,
            )
    except ProtocolAbortedError as error:
        # Step 2 and IdentifyClass are the abort sites; the retry loop
        # reports what this attempt charged as ``aborted_rounds``.
        error.rounds = network.ledger.total
        raise
    # IdentifyClass is the tables' last reader: free them before Step 3
    # allocates its lane stacks.
    cache.clear()

    with telemetry.span("compute_pairs.step3_search", n=n):
        step3 = run_step3(
            network,
            partitions,
            constants,
            assignment,
            table,
            rng=rng,
            search_mode=search_mode,
            amplification=amplification,
        )

    details = {
        "coverage": coverage,
        "num_search_nodes": int(np.count_nonzero(table.live)),
        "total_kept_pairs": len(table.pairs),
        "classes": np.unique(assignment.grid).tolist(),
        "eval_rounds_per_alpha": step3.eval_rounds_per_alpha,
        "search_rounds_per_alpha": step3.search_rounds_per_alpha,
        "scheduled_rounds_per_alpha": step3.scheduled_rounds_per_alpha,
        "duplication_per_alpha": step3.duplication_per_alpha,
        "typicality_truncations": step3.typicality_truncations,
        "corrupted_repetitions": step3.corrupted_repetitions,
        "total_searches": step3.total_searches,
    }
    return FindEdgesSolution(
        pairs=step3.found_pairs,
        rounds=network.ledger.total,
        ledger=network.ledger,
        details=details,
    )


def step1_batch(partitions: CliquePartitions) -> MessageBatch:
    """The Step-1 gather traffic as one arithmetic batch.

    Pure index arithmetic over the flattened ``(bu, bv, bw)`` grid: triple
    node ``t`` decomposes as ``bu = t // (C·F)``, ``bv = (t // F) % C``,
    ``bw = t % F``, and both message families are range-product cells —
    the u-side sends coarse block ``bu`` (one ``|bw|``-word row slice per
    vertex), the w-side sends fine block ``bw`` (one ``|bv|``-word slice
    per vertex).  No Python loop at any ``n``.
    """
    num_coarse = partitions.num_coarse
    num_fine = partitions.num_fine
    coarse_starts = partitions.coarse.block_starts()
    coarse_sizes = partitions.coarse.block_sizes()
    fine_starts = partitions.fine.block_starts()
    fine_sizes = partitions.fine.block_sizes()

    triples = np.arange(num_coarse * num_coarse * num_fine, dtype=np.int64)
    bu = triples // (num_coarse * num_fine)
    bv = (triples // num_fine) % num_coarse
    bw = triples % num_fine

    u_side = MessageBatch.from_range_product(
        coarse_starts[bu], coarse_sizes[bu], triples, fine_sizes[bw]
    )
    w_side = MessageBatch.from_range_product(
        fine_starts[bw], fine_sizes[bw], triples, coarse_sizes[bv]
    )
    return MessageBatch.concat([u_side, w_side])


def _step1_load(network: CongestClique, partitions: CliquePartitions) -> None:
    """Step 1: ship the witness-weight slices to the triple nodes.

    Row owner ``u`` (a base node) sends, for each triple node
    ``(u, v, w)`` with ``u ∈ u``, its row restricted to the fine block
    ``w`` (``f(u, w)`` values); and for each triple node with ``w ∈ w``, its
    row restricted to the coarse block ``v`` (``f(w, v)`` values).

    The traffic is :func:`step1_batch`, routed as word counts: the
    simulator computes the resulting node-local two-hop tables directly
    from the instance matrix (:func:`repro.core.evaluation.block_two_hop`),
    and ``tests/test_core_fidelity.py`` checks that the rows this batch
    addresses to each triple node are exactly what that computation reads.
    """
    network.deliver(
        step1_batch(partitions),
        "compute_pairs.step1_load", scheme="base", dst_scheme="triple",
    )


def _step2_sample(
    network: CongestClique,
    partitions: CliquePartitions,
    instance: FindEdgesInstance,
    constants: PaperConstants,
    rng: np.random.Generator,
    two_hop_for,
    coded: CodedWeights,
) -> tuple[SearchTable, float]:
    """Step 2 as one segmented pass: sample every ``Λx(u, v)``, enforce
    well-balancedness, and load the pair weights / scope membership of the
    sampled pairs — with no per-search-node Python loop.

    Every coarse block pair ``(bu, bv)`` with at least one pair in
    ``P(u, v)`` is a *segment* (a block pair without pairs registers no
    search node); one uniform draw per segment covers its
    ``(x, pair)`` cell grid and consumes the generator stream exactly as
    the per-node loop form's draws did (the loop form is
    :func:`tests.reference.step2_sample_loops`, and the
    byte-identity — kept pairs, weights, witness tables, coverage,
    delivered batches, rounds, RNG stream — is property-tested in
    ``tests/test_step2_equivalence.py``).  Per segment, balance checks
    (Lemma 2 (i)) run as one bincount over ``(x, block-local vertex)``
    keys, owner loads as one ``np.unique`` over ``(x, owner)`` keys,
    eligibility/coverage as one mask, and the witness truth tables build in
    one fancy-index — all ``√n`` search nodes of the segment at once, on
    cache-sized arrays.  ``two_hop_for(bu, bv)`` returns the segment's
    :func:`~repro.core.evaluation.block_two_hop` table in ``coded``'s
    code, which the kept pairs' gathered rows are compared against
    through :meth:`~repro.core.evaluation.CodedWeights.threshold` —
    nothing is decoded.

    Returns ``(table, coverage)``: ``table`` is the
    :class:`~repro.core.quantum_step3.SearchTable` of every search node's
    kept (in-scope) pairs in search-scheme position order — segment by
    segment, ``x`` ascending within one, as the pairs are sampled — and
    ``coverage`` is the fraction of in-scope pairs covered by at least one
    ``Λx`` set (Lemma 2 (ii) says it is 1 w.h.p.).  The table is
    allocated once the kept rows are counted, and each segment's pairs,
    weights and witness rows are written straight into it.
    """
    n = instance.num_vertices
    rate = constants.lambda_rate(n)
    balance = constants.balance_bound(n)
    pair_weights = instance.effective_pair_graph().weights
    coarse = partitions.coarse
    num_coarse = partitions.num_coarse
    num_fine = partitions.num_fine

    # Scope membership and eligibility as boolean matrices (canonical pair
    # positions), so sampled pairs filter with one fancy index instead of a
    # per-row set lookup.
    eligible_mask = instance.scope_mask() & np.isfinite(pair_weights)
    covered_mask = np.zeros((n, n), dtype=bool)

    starts = coarse.block_starts()
    sizes = coarse.block_sizes()
    max_block = coarse.max_block_size
    request_nodes: list[np.ndarray] = []
    request_owners: list[np.ndarray] = []
    request_counts: list[np.ndarray] = []
    # Per segment: kept pairs per x (zeros for a segment without pairs),
    # and the kept pairs' endpoints.
    count_chunks: list[np.ndarray] = []
    kept: list[tuple[int, int, np.ndarray, np.ndarray]] = []
    live = np.zeros((num_coarse * num_coarse, num_fine), dtype=bool)

    # One pass over the coarse block pairs (the segments).  Per segment the
    # draw covers the flat ``F·|P|`` cell grid — the row-major (F, |P|)
    # block the loop form drew, so the uniforms are identical — and every
    # stage below handles all ``√n`` search nodes of the segment at once
    # on arrays that are still cache-hot from the draw.
    for bu in range(num_coarse):
        for bv in range(num_coarse):
            pairs = partitions.block_pairs(bu, bv)
            num_pairs = len(pairs)
            seg = bu * num_coarse + bv
            if num_pairs == 0:
                count_chunks.append(np.zeros(num_fine, dtype=np.int64))
                continue
            live[seg] = True
            uniforms = rng.random(num_fine * num_pairs)
            # The flat cell index splits into (x, pair) coordinates — in the
            # same per-node, pair-ascending order as the loop form.
            x_of, j_of = np.divmod(np.flatnonzero(uniforms < rate), num_pairs)
            a = pairs[j_of, 0]
            b = pairs[j_of, 1]

            # Well-balancedness (Lemma 2 (i)): count sampled pairs per
            # (x, block-u vertex) in one bincount over all x of the segment;
            # abort on the first violating x, exactly as the per-node loop did
            # (segments are visited in its (bu, bv) order, so the first
            # violating key here is the loop's first violating node).
            start_u = int(starts[bu])
            size_u = int(sizes[bu])
            ends = np.concatenate([a, b])
            end_x = np.concatenate([x_of, x_of])
            in_u = (ends >= start_u) & (ends < start_u + size_u)
            balance_keys = end_x[in_u] * max_block + (ends[in_u] - start_u)
            if balance_keys.size:
                per_vertex = np.bincount(balance_keys)
                if int(per_vertex.max()) > balance:
                    first_x = int(np.nonzero(per_vertex > balance)[0][0]) // max_block
                    max_count = int(
                        per_vertex[first_x * max_block : (first_x + 1) * max_block].max()
                    )
                    raise ProtocolAbortedError(
                        "compute_pairs.step2",
                        f"Λ_{first_x}({bu},{bv}) unbalanced: "
                        f"{max_count} > {balance:.1f}",
                    )

            # Owner loads: the request names each pair (1 word) at its owner
            # (the pair's first endpoint), the reply carries weight plus
            # membership (2 words).  A bincount over (x, owner) keys — the
            # key space is only F·n — replaces the loop form's per-node
            # np.unique sort; nonzero of the counts enumerates x-major then
            # owner-ascending, exactly the concatenation the loop produced.
            key_counts = np.bincount(x_of * n + a)
            unique_keys = np.nonzero(key_counts)[0]
            request_nodes.append(seg * num_fine + unique_keys // n)
            request_owners.append(unique_keys % n)
            request_counts.append(key_counts[unique_keys])

            # Eligibility, coverage and the kept pairs — one mask and one
            # fancy-index for the whole segment.  x_of is non-decreasing
            # (sample order), so the segment's kept rows are already in
            # position order.
            elig = eligible_mask[a, b]
            ka = a[elig]
            kb = b[elig]
            covered_mask[ka, kb] = True
            count_chunks.append(np.bincount(x_of[elig], minlength=num_fine))
            kept.append((bu, bv, ka, kb))

    if request_nodes:
        nodes = np.concatenate(request_nodes)
        owners = np.concatenate(request_owners)
        counts = np.concatenate(request_counts)
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
    offsets = np.zeros(live.size + 1, dtype=np.int64)
    np.cumsum(np.concatenate(count_chunks), out=offsets[1:])
    table = SearchTable(
        shape=partitions.grid_shape,
        offsets=offsets,
        pairs=np.empty((int(offsets[-1]), 2), dtype=np.int64),
        weights=np.empty(int(offsets[-1])),
        witness=np.empty((int(offsets[-1]), num_fine), dtype=bool),
        live=live.ravel(),
    )
    # Fill the table's columns segment by segment, in position order, so no
    # column is ever copied.  witness[ℓ, w] = True iff fine block w contains
    # a witness closing a negative triangle with pair ℓ:
    # min_{w∈w}(f(a,w) + f(w,b)) < −f(a,b).  Canonical pairs may have their
    # first endpoint in either block; the two-hop tensor is symmetric in the
    # pair (undirected weights), so a swapped pair indexes as
    # [b_local, a_local].
    hi = 0
    for bu, bv, ka, kb in kept:
        lo, hi = hi, hi + ka.size
        table.pairs[lo:hi, 0] = ka
        table.pairs[lo:hi, 1] = kb
        table.weights[lo:hi] = pair_weights[ka, kb]
        if not ka.size:
            continue
        start_u = int(starts[bu])
        start_v = int(starts[bv])
        a_in_u = (ka >= start_u) & (ka < start_u + int(sizes[bu]))
        rows_local = np.where(a_in_u, ka - start_u, kb - start_u)
        cols_local = np.where(a_in_u, kb - start_v, ka - start_v)
        two_hop = two_hop_for(bu, bv)
        # One row take on the (a, b)-major rows of the coded tensor, compared
        # against each pair's coded threshold.
        np.less(
            two_hop.reshape(-1, num_fine).take(
                rows_local * two_hop.shape[1] + cols_local, axis=0
            ),
            coded.threshold(table.weights[lo:hi])[:, None],
            out=table.witness[lo:hi],
        )
    return table, coverage
