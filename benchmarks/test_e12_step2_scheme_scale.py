"""E12 (scheme + Step-2 scale) — the zero-object hot paths of PR 4.

What this regenerates: wall time of labeling-scheme registration (the
triple scheme and a bandwidth-duplication scheme) and of the Step-2
sampling pass at ``n ∈ {81, 256, 625, 1296}``, measured against the eager
one-Node-per-label and per-search-node loop forms preserved in
``repro.core._reference`` — the registration must allocate zero ``Node``
objects up front and Step-2 must charge identical rounds to the loop form.

``test_e12_pr4_zero_object_speedup`` additionally records the PR-4
acceptance measurements: ``register_scheme`` at ``n = 2048`` (eager vs
lazy, ≥ 3×) and the ``n = 256`` ComputePairs profile showing Step 2 is no
longer the dominant entry (``results/pr4_zero_object_speedup.txt``).
"""

from __future__ import annotations

import cProfile
import pstats
import time

import numpy as np
import pytest

import repro
from repro.analysis import format_table
from repro.congest.network import CongestClique
from repro.congest.partitions import CliquePartitions, ProductLabels
from repro.core import _reference as reference
from repro.core.compute_pairs import _step2_sample
from repro.core.constants import PaperConstants
from repro.core.evaluation import block_two_hop
from repro.core.problems import FindEdgesInstance

from benchmarks.conftest import write_metrics, write_result

SIZES = [81, 256, 625, 1296]
SCALE = 0.05  # the SIMULATION regime full solves run at
DUPLICATION = 4


def register_timings(n: int) -> dict:
    """Wall time of lazy vs eager registration for the triple scheme and a
    duplication-style scheme (labels built the way quantum_step3 builds
    them), plus the up-front Node count of the lazy path."""
    partitions = CliquePartitions(n)
    labels = partitions.triple_labels()
    triples = list(labels)

    lazy_net = CongestClique(n)
    start = time.perf_counter()
    view = lazy_net.register_scheme("triple", partitions.triple_labels())
    dup_view = lazy_net.register_scheme(
        "dup", ProductLabels(triples, DUPLICATION)
    )
    lazy_wall = time.perf_counter() - start
    materialized = view.materialized_nodes + dup_view.materialized_nodes

    eager_net = CongestClique(n)
    start = time.perf_counter()
    eager = reference.register_scheme_eager(eager_net, "triple", triples)
    reference.register_scheme_eager(
        eager_net, "dup",
        [triple + (y,) for triple in triples for y in range(DUPLICATION)],
    )
    eager_wall = time.perf_counter() - start

    # Same placements either way.
    probe = triples[len(triples) // 2]
    assert view[probe].physical == eager[probe].physical
    return {
        "labels": len(labels) * (1 + DUPLICATION),
        "lazy_wall": lazy_wall,
        "eager_wall": eager_wall,
        "materialized": materialized,
    }


def step2_environment(n: int, seed: int, two_hop_cache: dict):
    graph = repro.random_undirected_graph(n, density=0.4, max_weight=6, rng=3)
    instance = FindEdgesInstance(graph)
    constants = PaperConstants(scale=SCALE)
    rng = np.random.default_rng(seed)
    network = CongestClique(n)
    partitions = CliquePartitions(n)
    network.register_scheme("triple", partitions.triple_labels())
    network.register_scheme("search", partitions.search_labels())

    def two_hop_for(bu, bv):
        if (bu, bv) not in two_hop_cache:
            two_hop_cache[(bu, bv)] = block_two_hop(
                graph.weights,
                partitions.coarse.block(bu),
                partitions.coarse.block(bv),
                partitions.fine.blocks(),
            )
        return two_hop_cache[(bu, bv)]

    return network, partitions, instance, constants, rng, two_hop_for


def step2_timings(n: int) -> dict:
    """Segmented pass vs per-node loop on one seeded instance, with the
    node-local two-hop tensors pre-built (they are Step-1 state, not
    Step-2 work); identical round charges asserted."""
    cache: dict = {}
    warm = step2_environment(n, 5, cache)
    partitions, two_hop_for = warm[1], warm[5]
    for bu in range(partitions.num_coarse):
        for bv in range(partitions.num_coarse):
            two_hop_for(bu, bv)

    # Best of two alternating trials per form — single runs on shared
    # hardware are noisy at the larger sizes.
    segmented_walls, loop_walls, ledgers = [], [], []
    for _ in range(2):
        env = step2_environment(n, 5, cache)
        start = time.perf_counter()
        _step2_sample(*env)
        segmented_walls.append(time.perf_counter() - start)
        ledgers.append(env[0].ledger.snapshot())

        env = step2_environment(n, 5, cache)
        start = time.perf_counter()
        reference.step2_sample_loops(*env)
        loop_walls.append(time.perf_counter() - start)
        ledgers.append(env[0].ledger.snapshot())
    assert all(ledger == ledgers[0] for ledger in ledgers[1:])

    rounds = sum(ledgers[0].values())
    return {
        "segmented_wall": min(segmented_walls),
        "loop_wall": min(loop_walls),
        "rounds": rounds,
    }


def test_e12_step2_scheme_scale(benchmark):
    rows = []
    metrics = []
    for n in SIZES:
        register = register_timings(n)
        step2 = step2_timings(n)
        assert register["materialized"] == 0
        rows.append(
            [
                n,
                register["labels"],
                round(register["eager_wall"] * 1e3, 2),
                round(register["lazy_wall"] * 1e3, 3),
                round(step2["loop_wall"] * 1e3, 1),
                round(step2["segmented_wall"] * 1e3, 1),
                step2["rounds"],
            ]
        )
        metrics.append(
            {
                "n": n,
                "wall_seconds": round(step2["segmented_wall"], 4),
                "rounds": step2["rounds"],
                "step2_loop_wall_seconds": round(step2["loop_wall"], 4),
                "register_wall_seconds": round(register["lazy_wall"], 6),
                "register_eager_wall_seconds": round(register["eager_wall"], 6),
                "register_labels": register["labels"],
                "materialized_nodes": register["materialized"],
            }
        )
    table = format_table(
        [
            "n",
            "labels",
            "reg eager ms",
            "reg lazy ms",
            "step2 loop ms",
            "step2 seg ms",
            "step2 rounds",
        ],
        rows,
        title=(
            "E12  zero-object hot paths at scale\n"
            "scheme registration (triple + 4x duplication): eager Node-per-"
            "label loop\nvs lazy array-backed views (0 Nodes up front); "
            "Step-2 sampling: per-node\nloop form vs one segmented pass "
            f"(scale={SCALE}); identical round charges\nasserted per size"
        ),
    )
    write_result("e12_step2_scheme_scale", table)
    write_metrics("e12_step2_scheme_scale", metrics)

    benchmark.pedantic(step2_timings, args=(81,), rounds=1, iterations=1)


def test_e12_pr4_zero_object_speedup():
    # Acceptance 1: register_scheme at n = 2048 — O(1) Node objects up
    # front and >= 3x wall time against the eager loop.
    n = 2048
    register = register_timings(n)
    assert register["materialized"] == 0
    register_speedup = register["eager_wall"] / register["lazy_wall"]
    assert register_speedup >= 3.0

    # Acceptance 2: the full quantum ComputePairs solve at n = 256
    # completes with Step 2 no longer the dominant profile entry.
    graph = repro.random_undirected_graph(256, density=0.4, max_weight=6, rng=3)
    instance = FindEdgesInstance(graph)
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    solution = repro.compute_pairs(
        instance, constants=PaperConstants(scale=SCALE), rng=5
    )
    profile.disable()
    total_wall = time.perf_counter() - start

    def cumulative(suffix: str) -> float:
        stats = pstats.Stats(profile)
        for (filename, _line, name), entry in stats.stats.items():
            if name == suffix and "repro" in filename:
                return entry[3]  # cumulative seconds
        return 0.0

    step2_cum = cumulative("_step2_sample")
    step3_cum = cumulative("run_step3")
    assert solution.rounds > 0
    assert step2_cum < step3_cum, "step 2 may not dominate the search phase"
    assert step2_cum < 0.5 * total_wall

    lines = [
        "PR 4  zero-object hot paths: array-backed schemes + one-pass Step-2",
        "register_scheme: lazy array-backed SchemeView (labels symbolic,",
        "seeds one batched draw, Nodes on first touch) vs the eager",
        "Node-per-label loop preserved in core/_reference.py; identical",
        "seeds, streams, and placements (tests/test_step2_equivalence.py).",
        f"n=2048 triple + 4x duplication schemes ({register['labels']} labels):",
        f"eager {register['eager_wall']*1e3:.2f} ms -> lazy "
        f"{register['lazy_wall']*1e3:.3f} ms "
        f"({register_speedup:.0f}x, acceptance >= 3x), 0 Nodes materialized.",
        "step2: one segmented pass over the coarse block pairs (all sqrt(n)",
        "search nodes of a segment vectorized per stage, witness tables",
        "gathered in cache-sized chunks) vs the per-node loop form;",
        "byte-identical outputs and round charges property-tested at",
        "n in {16, 48, 128} and asserted per e12 size.",
        f"ComputePairs n=256 (quantum, scale={SCALE}): total "
        f"{total_wall:.2f} s, step2 {step2_cum:.2f} s "
        f"({100 * step2_cum / total_wall:.0f}%), step3 search "
        f"{step3_cum:.2f} s ({100 * step3_cum / total_wall:.0f}%) — "
        "step 2 is no longer the dominant profile entry.",
    ]
    write_result("pr4_zero_object_speedup", "\n".join(lines))
    write_metrics(
        "pr4_zero_object_speedup",
        [
            {
                "n": 2048,
                "wall_seconds": round(register["lazy_wall"], 6),
                "rounds": None,
                "register_eager_wall_seconds": round(register["eager_wall"], 6),
                "register_speedup": round(register_speedup, 1),
                "materialized_nodes": register["materialized"],
            },
            {
                "n": 256,
                "wall_seconds": round(total_wall, 4),
                "rounds": solution.rounds,
                "step2_cumulative_seconds": round(step2_cum, 4),
                "step3_cumulative_seconds": round(step3_cum, 4),
            },
        ],
    )


def test_smoke_e12_scheme_and_step2():
    # Registration allocates no Nodes and preserves the eager stream; the
    # segmented Step-2 matches the loop form's outputs and charges.
    n = 81
    register = register_timings(n)
    assert register["materialized"] == 0

    cache: dict = {}
    env = step2_environment(n, 9, cache)
    node_pairs, coverage = _step2_sample(*env)
    ledger = env[0].ledger.snapshot()
    env = step2_environment(n, 9, cache)
    loop_pairs, loop_coverage = reference.step2_sample_loops(*env)
    assert env[0].ledger.snapshot() == ledger
    assert coverage == loop_coverage
    assert list(node_pairs) == list(loop_pairs)
    for label, (pairs, weights, table) in loop_pairs.items():
        got_pairs, got_weights, got_table = node_pairs[label]
        assert np.array_equal(got_pairs, pairs)
        assert np.array_equal(got_weights, weights)
        assert np.array_equal(got_table, table)
