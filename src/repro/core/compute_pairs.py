"""Algorithm ComputePairs (Figure 1) — the Õ(n^{1/4})-round solver for
FindEdgesWithPromise (Theorem 2).

The three steps, all message-accurate on a :class:`CongestClique`:

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

from typing import Optional

import numpy as np

from repro.congest.batch import MessageBatch
from repro.congest.message import Message
from repro.congest.network import CongestClique
from repro.congest.partitions import CliquePartitions
from repro.core.constants import SIMULATION, PaperConstants
from repro.core.evaluation import CodedWeights, block_two_hop
from repro.core.identify_class import run_identify_class
from repro.core.problems import FindEdgesInstance, FindEdgesSolution
from repro.core.quantum_step3 import run_step3
from repro.errors import ConvergenceError, ProtocolAbortedError
from repro import telemetry
from repro.quantum.batched import RNG_CONTRACTS
from repro.util.rng import RngLike, ensure_rng, spawn_rng

#: Rows per witness-table gather chunk in Step 2 — sized so the float
#: gather temporary (chunk × √n entries) stays cache-resident.
_WITNESS_CHUNK = 32768


def _contract_attrs(search_mode: str, rng_contract: str) -> dict:
    """The ``rng_contract`` report of a solve: empty for classical search,
    whose Step 3 draws no randomness."""
    return {} if search_mode == "classical" else {"rng_contract": rng_contract}


def compute_pairs(
    instance: FindEdgesInstance,
    *,
    constants: PaperConstants = SIMULATION,
    rng: RngLike = None,
    search_mode: str = "quantum",
    max_retries: int = 5,
    amplification: float = 12.0,
    attach_payloads: bool = False,
    rng_contract: str = "v2",
    workers: int = 1,
) -> FindEdgesSolution:
    """Solve FindEdgesWithPromise with Algorithm ComputePairs.

    Returns the detected scope pairs together with the full round ledger.
    Retries up to ``max_retries`` times on protocol aborts; raises
    :class:`ConvergenceError` if every attempt aborts (probability
    ``O(n^{-max_retries})`` under the paper's parameters).

    ``rng_contract`` selects Step 3's RNG consumption contract (see
    :mod:`repro.quantum.batched`): ``"v2"`` (default) batches the
    cross-lane repetition draws; ``"v1"`` is the sequential-reference
    consumption, byte-identical to :mod:`repro.core._reference`.  Step 3's
    variates are identically distributed under both.  Step 2 draws one
    uniform block per segment under either contract.  Classical search
    draws no Step-3 randomness, so its solves report no contract.

    The solve runs in-process.  ``workers`` accepts only ``1``, for callers
    that still pass it; the worker pool serves batch sweeps and the job
    engine (:mod:`repro.parallel`).
    """
    if rng_contract not in RNG_CONTRACTS:
        raise ValueError(f"unknown rng_contract {rng_contract!r}")
    if workers != 1:
        raise ValueError(f"compute_pairs runs in-process; got workers={workers!r}")
    generator = ensure_rng(rng)
    aborts = 0
    with telemetry.span(
        "compute_pairs",
        n=instance.num_vertices,
        search_mode=search_mode,
        **_contract_attrs(search_mode, rng_contract),
    ) as outer:
        for _ in range(max_retries):
            try:
                solution = _compute_pairs_once(
                    instance,
                    constants=constants,
                    rng=spawn_rng(generator),
                    search_mode=search_mode,
                    amplification=amplification,
                    attach_payloads=attach_payloads,
                    rng_contract=rng_contract,
                )
            except ProtocolAbortedError:
                aborts += 1
                continue
            solution.aborts = aborts
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
    attach_payloads: bool = False,
    rng_contract: str = "v2",
) -> FindEdgesSolution:
    n = instance.num_vertices
    with telemetry.span("compute_pairs.step0_setup", n=n):
        # Discarded on purpose: the pinned outputs (perfbench's seed-0
        # rounds, pairs and digests) were recorded with this variate
        # consumed here, so every later Step-2, IdentifyClass and Step-3
        # draw depends on it.
        rng.integers(0, 2**63 - 1)
        network = CongestClique(n)
        collector = telemetry.active()
        if collector is not None:
            collector.attach(network)
        partitions = CliquePartitions(n)
        witness = instance.graph.weights

        network.register_scheme("triple", partitions.triple_labels())
        network.register_scheme("search", partitions.search_labels())

    with telemetry.span("compute_pairs.step1_load", n=n):
        _step1_load(network, partitions, witness if attach_payloads else None)

    # Node-local two-hop tables: what the triple nodes (u, v, ·) jointly
    # compute from the weights gathered in Step 1 (free: local computation).
    # The witness matrix is encoded for the integer kernel once per solve.
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

    with telemetry.span("compute_pairs.step2_sample", n=n):
        node_pairs, coverage = _step2_sample(
            network, partitions, instance, constants, rng, two_hop_for
        )

    with telemetry.span("compute_pairs.step3_identify", n=n):
        assignment = run_identify_class(
            network, instance, partitions, constants, two_hop_for, rng
        )
    # IdentifyClass is the tables' last reader: free them before Step 3
    # allocates its lane stacks.
    cache.clear()

    with telemetry.span("compute_pairs.step3_search", n=n):
        step3 = run_step3(
            network,
            partitions,
            constants,
            assignment,
            node_pairs,
            rng=rng,
            search_mode=search_mode,
            amplification=amplification,
            rng_contract=rng_contract,
        )

    details = {
        **_contract_attrs(search_mode, rng_contract),
        "coverage": coverage,
        "num_search_nodes": len(node_pairs),
        "total_kept_pairs": int(sum(len(p) for p, _, _ in node_pairs.values())),
        "classes": sorted(set(assignment.classes.values())),
        "eval_rounds_per_alpha": step3.eval_rounds_per_alpha,
        "search_rounds_per_alpha": step3.search_rounds_per_alpha,
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
    per vertex).  No Python loop at any ``n``; the loop form survives as
    :func:`repro.core._reference.step1_batch_loops`.
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


def _step1_load(
    network: CongestClique,
    partitions: CliquePartitions,
    witness: np.ndarray | None = None,
) -> None:
    """Step 1: ship the witness-weight slices to the triple nodes.

    Row owner ``u`` (a base node) sends, for each triple node
    ``(u, v, w)`` with ``u ∈ u``, its row restricted to the fine block
    ``w`` (``f(u, w)`` values); and for each triple node with ``w ∈ w``, its
    row restricted to the coarse block ``v`` (``f(w, v)`` values).

    By default payloads are elided (the simulator computes the resulting
    node-local tables directly from the instance matrix) and the traffic is
    a columnar :class:`MessageBatch` built arithmetically — sizes are exact
    either way, so the Lemma 1 charge is exact.  Passing the ``witness``
    matrix attaches the *actual* row slices, tagged with their role, so the
    fidelity tests can rebuild each triple node's local tables purely from
    its inbox and prove the elision faithful; that path keeps per-message
    objects (the payloads are per-message anyway).
    """
    coarse = partitions.coarse
    fine = partitions.fine
    if witness is None:
        network.deliver(
            step1_batch(partitions),
            "compute_pairs.step1_load", scheme="base", dst_scheme="triple",
        )
        return
    messages: list[Message] = []
    for bu in range(partitions.num_coarse):
        rows_u = coarse.block(bu)
        for bv in range(partitions.num_coarse):
            for bw in range(partitions.num_fine):
                label = (bu, bv, bw)
                fine_block = fine.block(bw)
                coarse_block = coarse.block(bv)
                size_fine = len(fine_block)
                size_coarse = len(coarse_block)
                for u in rows_u.tolist():
                    payload = ("uw", u, witness[u, fine_block].copy())
                    messages.append(Message(u, label, payload, size_words=size_fine))
                for w in fine_block.tolist():
                    payload = ("wv", w, witness[w, coarse_block].copy())
                    messages.append(Message(w, label, payload, size_words=size_coarse))
    network.deliver(
        messages, "compute_pairs.step1_load", scheme="base", dst_scheme="triple"
    )


def _step2_sample(
    network: CongestClique,
    partitions: CliquePartitions,
    instance: FindEdgesInstance,
    constants: PaperConstants,
    rng: np.random.Generator,
    two_hop_for,
):
    """Step 2 as one segmented pass: sample every ``Λx(u, v)``, enforce
    well-balancedness, and load the pair weights / scope membership of the
    sampled pairs — with no per-search-node Python loop.

    Every coarse block pair ``(bu, bv)`` with at least one pair in
    ``P(u, v)`` is a *segment*; one uniform draw per segment covers its
    ``(x, pair)`` cell grid and consumes the generator stream exactly as
    the per-node loop form's draws did (the loop form
    survives as :func:`repro.core._reference.step2_sample_loops` and the
    byte-identity — node pairs, weights, witness tables, coverage,
    delivered batches, rounds, RNG stream — is property-tested in
    ``tests/test_step2_equivalence.py``).  Per segment, balance checks
    (Lemma 2 (i)) run as one bincount over ``(x, block-local vertex)``
    keys, owner loads as one ``np.unique`` over ``(x, owner)`` keys,
    eligibility/coverage as one mask, and the witness truth tables build in
    one fancy-index — all ``√n`` search nodes of the segment at once, on
    cache-sized arrays.

    Returns ``(node_pairs, coverage)`` where ``node_pairs`` maps each search
    label to ``(pairs, weights, witness_table)`` for its kept (in-scope)
    pairs, and ``coverage`` is the fraction of in-scope pairs covered by at
    least one ``Λx`` set (Lemma 2 (ii) says it is 1 w.h.p.).
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
    node_pairs: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # One pass over the coarse block pairs (the segments).  Per segment the
    # draw covers the flat ``F·|P|`` cell grid — the row-major (F, |P|)
    # block the loop form drew, so the uniforms are identical — and every
    # stage below handles all ``√n`` search nodes of the segment at once
    # on arrays that are still cache-hot from the draw.
    for bu in range(num_coarse):
        for bv in range(num_coarse):
            pairs = partitions.block_pairs(bu, bv)
            num_pairs = len(pairs)
            if num_pairs == 0:
                continue
            seg = bu * num_coarse + bv
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

            # Eligibility, coverage, kept pairs, and the witness truth tables —
            # one mask and one fancy-index for the whole segment.
            # table[ℓ, w] = True iff fine block w contains a witness closing a
            # negative triangle with pair ℓ: min_{w∈w}(f(a,w) + f(w,b)) < −f(a,b).
            # Canonical pairs may have their first endpoint in either block; the
            # two-hop tensor is symmetric in the pair (undirected weights), so a
            # swapped pair indexes as [b_local, a_local].
            elig = eligible_mask[a, b]
            ka = a[elig]
            kb = b[elig]
            kx = x_of[elig]
            covered_mask[ka, kb] = True
            kept_pairs = np.stack([ka, kb], axis=1)
            kept_weights = pair_weights[ka, kb]
            tables = np.empty((int(ka.size), num_fine), dtype=bool)
            if ka.size:
                a_in_u = (ka >= start_u) & (ka < start_u + size_u)
                start_v = int(starts[bv])
                rows_local = np.where(a_in_u, ka - start_u, kb - start_u)
                cols_local = np.where(a_in_u, kb - start_v, ka - start_v)
                two_hop = two_hop_for(bu, bv)
                # One row take per chunk on the (a, b)-major rows of the
                # tensor; chunks keep the (rows, fine) float temporary
                # cache-resident instead of streaming RAM.
                two_hop_rows = two_hop.reshape(-1, num_fine)
                cells = rows_local * two_hop.shape[1] + cols_local
                bounds = -kept_weights[:, None]
                for chunk_lo in range(0, int(ka.size), _WITNESS_CHUNK):
                    part = slice(chunk_lo, min(chunk_lo + _WITNESS_CHUNK, int(ka.size)))
                    np.less(
                        two_hop_rows.take(cells[part], axis=0), bounds[part],
                        out=tables[part],
                    )

            # Per-label views: slice the segment's kept arrays back into the
            # node dict (Step 3's interface).  kx is non-decreasing (sample
            # order), so each x owns one contiguous slice; labels whose Λx is
            # empty or fully filtered get canonical empty views.
            x_bounds = np.searchsorted(kx, np.arange(num_fine + 1))
            for x in range(num_fine):
                x_lo, x_hi = int(x_bounds[x]), int(x_bounds[x + 1])
                node_pairs[(bu, bv, x)] = (
                    kept_pairs[x_lo:x_hi],
                    kept_weights[x_lo:x_hi],
                    tables[x_lo:x_hi],
                )

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
    return node_pairs, coverage
