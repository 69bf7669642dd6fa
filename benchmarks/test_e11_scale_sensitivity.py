"""E11 — sensitivity to the constants' scale knob.

The paper's constants (`90 log n`, `10 log n/√n`, ...) are asymptotic; the
library's ``scale`` knob shrinks them coherently so the machinery engages
at simulation sizes (DESIGN.md, "Key design decisions").  This experiment
sweeps the knob at fixed ``n`` and reports what each regime does to
correctness and cost — documenting that the default simulation scales sit
on the flat (correct) part of the curve:

* large scale → sampling rates saturate, coverage is certain, rounds peak;
* small scale → rounds shrink but coverage gaps appear as misses
  (never false positives — verification is unconditional).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro
from repro.analysis import format_table
from repro.congest.network import CongestClique
from repro.congest.partitions import CliquePartitions
from repro.core.compute_pairs import step1_batch
from repro.core.constants import PaperConstants
from repro.core.problems import FindEdgesInstance

from benchmarks.conftest import write_metrics, write_result
from tests import reference

N = 81


def run_at_scale(scale: float, seed: int):
    graph = repro.random_undirected_graph(N, density=0.3, max_weight=6, rng=seed)
    instance = FindEdgesInstance(graph)
    solution = repro.compute_pairs(
        instance, constants=PaperConstants(scale=scale), rng=seed
    )
    truth = instance.reference_solution()
    return solution, truth


def test_e11_scale_sensitivity(benchmark):
    rows = []
    miss_by_scale = {}
    metrics = []
    for scale in [0.01, 0.05, 0.2, 1.0]:
        start = time.perf_counter()
        solution, truth = run_at_scale(scale, seed=4)
        metrics.append(
            {
                "n": N,
                "wall_seconds": round(time.perf_counter() - start, 4),
                "rounds": solution.rounds,
                "scale": scale,
            }
        )
        false_pos = len(solution.pairs - truth)
        missed = len(truth - solution.pairs)
        miss_by_scale[scale] = missed / max(1, len(truth))
        rows.append(
            [
                scale,
                solution.rounds,
                len(truth),
                false_pos,
                missed,
                solution.details["coverage"],
                max(solution.details["classes"]),
            ]
        )
    table = format_table(
        ["scale", "rounds", "truth", "false+", "missed", "coverage", "max class"],
        rows,
        title=(
            f"E11  scale-knob sensitivity at n={N}\n"
            "verification forbids false positives at every scale; misses are\n"
            "coverage gaps that close as the sampling rates approach the paper's"
        ),
    )
    write_result("e11_scale_sensitivity", table)
    write_metrics("e11_scale_sensitivity", metrics)

    assert all(row[3] == 0 for row in rows)  # never false positives
    assert miss_by_scale[1.0] == 0.0         # paper constants: exact
    assert miss_by_scale[1.0] <= miss_by_scale[0.01]

    benchmark.pedantic(run_at_scale, args=(0.05, 5), rounds=1, iterations=1)


def step1_wall(n: int, builder) -> tuple[float, float]:
    """(wall seconds, charged rounds) of building + delivering the Step-1
    gather with the given builder on a fresh clique."""
    network = CongestClique(n)
    partitions = CliquePartitions(n)
    network.register_scheme("triple", int(np.prod(partitions.grid_shape)))
    start = time.perf_counter()
    batch = builder(partitions)
    network.deliver(
        batch, "compute_pairs.step1_load", scheme="base", dst_scheme="triple"
    )
    wall = time.perf_counter() - start
    return wall, network.ledger.rounds("compute_pairs.step1_load")


def test_e11_builder_scaling_large_n(benchmark):
    """PR 3's array-major acceptance unit: the Step-1 builder at
    n = 1024/2048, node-major loops vs arithmetic index grids.

    The full solver is far out of reach at these sizes — the builders were
    the wall (ROADMAP: "Larger-n congest scaling"), so this measures
    exactly the refactored layer: batch construction + vectorized Lemma 1
    accounting, with round charges asserted identical between the two
    builders.
    """
    rows = []
    metrics = []
    for n in [256, 1024, 2048]:
        loop_wall, loop_rounds = step1_wall(n, reference.step1_batch_loops)
        array_wall, array_rounds = step1_wall(n, step1_batch)
        assert loop_rounds == array_rounds  # accounting unchanged
        speedup = loop_wall / array_wall if array_wall else float("inf")
        rows.append(
            [
                n,
                len(step1_batch(CliquePartitions(n))),
                round(loop_wall * 1000, 1),
                round(array_wall * 1000, 2),
                array_rounds,
                f"{speedup:.0f}x",
            ]
        )
        metrics.append(
            {
                "n": n,
                "wall_seconds": round(array_wall, 5),
                "rounds": array_rounds,
                "loop_builder_wall_seconds": round(loop_wall, 5),
            }
        )
    table = format_table(
        ["n", "messages", "loop ms", "array ms", "rounds", "speedup"],
        rows,
        title=(
            "PR 3  array-major Step-1 builder at large n\n"
            "build + deliver one Step-1 gather: node-major loop builder\n"
            "(tests/reference.py) vs arithmetic index grids (step1_batch);\n"
            "identical Lemma 1 round charges, asserted per size.\n"
            "Acceptance units vs the PR 2 tree on the same container:\n"
            "e1 n=16 quantum solve 2.64s -> 0.57s (4.7x; PR2 published 2.83s);\n"
            "e10b full step-1 gather (network + scheme + build + deliver)\n"
            "n=81 2.3ms -> 0.6ms (4.0x), n=625 19.9ms -> 5.7ms (3.5x),\n"
            "n=2048 98ms -> 32ms (3.1x); round charges identical everywhere"
        ),
    )
    write_result("pr3_array_major_speedup", table)
    write_metrics("pr3_array_major_speedup", metrics)

    benchmark.pedantic(
        step1_wall, args=(1024, step1_batch), rounds=1, iterations=1
    )
