"""Algorithm IdentifyClass (Figure 2) — classifying triples by triangle load.

Each triple ``(u, v, w) ∈ T`` is assigned a class index ``c_{uvw}``
approximating ``log(|Δ(u, v; w)| / n)``, where ``Δ(u, v; w)`` is the set of
scope pairs in ``P(u, v)`` having a negative-triangle witness inside the
fine block ``w`` (Definition 3).  The classification drives the per-class
load balancing of Step 3: class-``α`` triples answer queries about many
pairs, so they get ``~2^α`` bandwidth duplicates (Section 5.3.2), and
Lemma 4 caps how many such triples can exist.

The protocol is sampling-based: every vertex samples its scope partners
with probability ``10 log n / n``, the samples (with their pair weights) are
broadcast, and each triple node counts locally how many sampled pairs it
witnesses — an unbiased estimator ``d_{uvw}`` of
``|Δ(u, v; w)| · 10 log n / n`` that Proposition 5 shows lands in the right
class with high probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.congest.gridops import expand_ranges
from repro.congest.network import CongestClique
from repro.congest.partitions import CliquePartitions
from repro.core.constants import PaperConstants
from repro.core.evaluation import CodedWeights
from repro.core.problems import FindEdgesInstance
from repro.errors import ProtocolAbortedError
from repro.util.rng import RngLike, ensure_rng


@dataclass
class ClassAssignment:
    """Output of IdentifyClass.

    ``grid[bu, bv, bw] = α`` is the class of triple ``(bu, bv, bw)``: an
    int64 ``(num_coarse, num_coarse, num_fine)`` array.  It is row-major in
    the triple scheme's position order, so a triple's flat index is its
    position in that scheme, and ``Tα[u, v]`` (the per-block-pair domain
    of Step 3's searches, Section 5.3) is ``flatnonzero(grid[bu, bv] == α)``.
    """

    grid: np.ndarray
    sample_size: int = 0

    def domain_csr(self, alpha: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The class-``alpha`` domains of every search node, in CSR form.

        The search scheme shares the triple scheme's ``(C, C, F)`` grid, and
        the domain of search node ``(bu, bv, x)`` at position ``p`` is
        ``Tα[bu, bv]``.  The return value ``(counts, offsets, flat)`` lays
        those domains out back to back in position order: node ``p``'s
        fine-block ids are ``flat[offsets[p] : offsets[p + 1]]``
        (``counts[p]`` of them, zero when the class is empty for that block
        pair).  Because the domain depends only on ``(bu, bv)``, the class
        mask of every block pair is laid out once and every node gathers its
        slice arithmetically — no per-node lookup.
        """
        num_coarse, _, num_fine = self.grid.shape
        in_class = (self.grid == alpha).reshape(num_coarse * num_coarse, num_fine)
        grid_counts = in_class.sum(axis=1)
        grid_offsets = np.zeros(grid_counts.size + 1, dtype=np.int64)
        np.cumsum(grid_counts, out=grid_offsets[1:])
        grid_flat = np.nonzero(in_class)[1]
        counts = np.repeat(grid_counts, num_fine)
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        flat = grid_flat[expand_ranges(np.repeat(grid_offsets[:-1], num_fine), counts)]
        return counts, offsets, flat


def run_identify_class(
    network: CongestClique,
    instance: FindEdgesInstance,
    partitions: CliquePartitions,
    constants: PaperConstants,
    two_hop_for,
    coded: CodedWeights,
    rng: RngLike = None,
) -> ClassAssignment:
    """Execute Algorithm IdentifyClass on the network.

    ``two_hop_for(bu, bv)`` must return the block two-hop tensor
    ``H[a, b, w]`` of :func:`repro.core.evaluation.block_two_hop` in
    ``coded``'s code — the values the triple nodes hold locally after
    Step 1 of ComputePairs.

    Both broadcasts are ``broadcast_volume`` charges over position arrays:
    every node learns ``R`` and the classes from the broadcasts, so the
    simulator assembles them once from the samples.  The samples charge
    ``2·|Λ(u)|`` words per broadcaster ``u`` (a partner id and a pair
    weight per sample); the class announcements one word per triple node,
    charged on the ``"triple"`` scheme's hosts.  Phases, rounds and
    telemetry entries are those of the ``{position: words}``
    ``broadcast_all`` form
    :func:`tests.reference.run_identify_class_broadcast_all`
    (``tests/test_core_fidelity.py``).

    Raises :class:`ProtocolAbortedError` when some ``|Λ(u)|`` exceeds the
    ``20 log n`` abort threshold (probability ``≤ 1/n`` by Proposition 5);
    the caller retries with fresh randomness.
    """
    sampled = sample_partners(instance, constants, ensure_rng(rng))
    broadcasters = np.fromiter(sampled.keys(), dtype=np.int64, count=len(sampled))
    sizes = np.fromiter(
        (2 * chosen.size for chosen in sampled.values()),
        dtype=np.int64,
        count=len(sampled),
    )
    network.broadcast_volume(broadcasters, sizes, "identify_class.broadcast_samples")
    assignment = classify_triples(
        instance, partitions, constants, two_hop_for, coded, sampled
    )
    # The grid is row-major in the triple scheme's position order, so
    # triple i sits at position i.
    num_triples = assignment.grid.size
    network.broadcast_volume(
        np.arange(num_triples, dtype=np.int64),
        np.ones(num_triples, dtype=np.int64),
        "identify_class.broadcast_classes",
        scheme="triple",
    )
    return assignment


def sample_partners(
    instance: FindEdgesInstance,
    constants: PaperConstants,
    generator: np.random.Generator,
) -> dict[int, np.ndarray]:
    """Step 1 of IdentifyClass: every node ``u`` samples its scope partners
    into ``Λ(u)`` at rate ``10 log n / n``; nodes with an empty sample are
    left out.  Aborts when some ``|Λ(u)|`` exceeds ``20 log n``."""
    n = instance.num_vertices
    # node u's local view of S: the partners v with {u, v} ∈ S, listed in
    # the scope set's iteration order, which fixes which partner each
    # uniform below samples.  Pair i contributes the events (u_i → v_i) and
    # (v_i → u_i) in that order; a stable sort by owner groups them per
    # node exactly as appending while iterating the set would.
    scope = instance.effective_scope()
    owners = np.fromiter(chain.from_iterable(scope), dtype=np.int64, count=2 * len(scope))
    others = owners.reshape(-1, 2)[:, ::-1].ravel()
    partners = others[np.argsort(owners, kind="stable")]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners, minlength=n), out=offsets[1:])

    rate = constants.identify_rate(n)
    abort_bound = constants.identify_abort_bound(n)
    sampled: dict[int, np.ndarray] = {}
    for u in range(n):
        own = partners[offsets[u]:offsets[u + 1]]
        if own.size == 0:
            continue
        mask = generator.random(own.size) < rate
        chosen = own[mask]
        if chosen.size > abort_bound:
            raise ProtocolAbortedError(
                "identify_class",
                f"|Λ({u})| = {chosen.size} exceeds bound {abort_bound:.1f}",
            )
        if chosen.size:
            sampled[u] = chosen
    return sampled


def classify_triples(
    instance: FindEdgesInstance,
    partitions: CliquePartitions,
    constants: PaperConstants,
    two_hop_for,
    coded: CodedWeights,
    sampled: dict[int, np.ndarray],
) -> ClassAssignment:
    """Step 2 of IdentifyClass (node-local): assemble the broadcast sample
    set ``R`` and let every triple node count its witnessed sampled pairs
    ``d_{uvw}`` and pick its class.

    ``R`` is built from arrays: one ``np.unique`` over canonical pair keys
    drops the pairs both endpoints sampled, and one stable sort groups the
    pairs by the coarse block pair that owns them, registered under both
    orientations — the triple nodes ``(bu, bv, ·)`` and ``(bv, bu, ·)``
    each count the pair (``P(u, v)`` is unordered).  A block pair's hits
    compare its coded two-hop rows against
    :meth:`~repro.core.evaluation.CodedWeights.threshold`; the counts are
    sums, so the grouping order does not reach the classes.
    """
    n = instance.num_vertices
    pair_weights = instance.effective_pair_graph().weights
    num_coarse = partitions.num_coarse
    num_fine = partitions.num_fine
    coarse_of = partitions.coarse.block_index_array()
    coarse_start = partitions.coarse.block_starts()

    if sampled:
        owners = np.repeat(
            np.fromiter(sampled.keys(), dtype=np.int64, count=len(sampled)),
            [chosen.size for chosen in sampled.values()],
        )
        partners = np.concatenate(list(sampled.values()))
        keys = np.unique(np.minimum(owners, partners) * n + np.maximum(owners, partners))
    else:
        keys = np.empty(0, dtype=np.int64)
    a, b = np.divmod(keys, n)
    thresholds = coded.threshold(pair_weights[a, b])
    bu, bv = coarse_of[a], coarse_of[b]
    # Both orientations: (a, b) under (bu, bv), and (b, a) under (bv, bu)
    # when the blocks differ.
    swap = bu != bv
    block_pair = np.concatenate([bu * num_coarse + bv, (bv * num_coarse + bu)[swap]])
    rows = np.concatenate([a - coarse_start[bu], (b - coarse_start[bv])[swap]])
    cols = np.concatenate([b - coarse_start[bv], (a - coarse_start[bu])[swap]])
    bounds = np.concatenate([thresholds, thresholds[swap]])
    order = np.argsort(block_pair, kind="stable")
    group_ends = np.searchsorted(
        block_pair[order], np.arange(1, num_coarse * num_coarse + 1)
    )

    grid = np.empty((num_coarse, num_coarse, num_fine), dtype=np.int64)
    group_start = 0
    for pair_id, group_end in enumerate(group_ends.tolist()):
        cu, cv = divmod(pair_id, num_coarse)
        if group_end > group_start:
            group = order[group_start:group_end]
            two_hop = two_hop_for(cu, cv)
            # (num_entries, num_fine): does block w witness pair (a, b)?
            hits = two_hop[rows[group], cols[group], :] < bounds[group, None]
            counts = hits.sum(axis=0).tolist()
        else:
            counts = [0] * num_fine
        group_start = group_end
        grid[cu, cv] = [_class_of(float(count), n, constants) for count in counts]

    return ClassAssignment(grid=grid, sample_size=int(keys.size))


def _class_of(estimate: float, n: int, constants: PaperConstants) -> int:
    """The smallest ``c ≥ 0`` with ``d_{uvw} < 10 · 2^c · log n`` (scaled)."""
    alpha = 0
    while estimate >= constants.class_threshold(n, alpha):
        alpha += 1
        if alpha > 64:  # can't happen: estimate ≤ n², threshold doubles
            raise RuntimeError("class index runaway")
    return alpha
