"""E2 — Theorem 2: FindEdgesWithPromise in ``Õ(n^{1/4})`` rounds, w.h.p.

What this regenerates: Algorithm ComputePairs' measured round counts and
error rates over an ``n`` sweep, with the per-phase breakdown.  The
clean-exponent component is Step 1 (the ``Θ(n^{5/4})``-word gather ⇒
``~n^{1/4}`` rounds); the search phase carries the Theorem 3 polylogs.
The classical Dolev listing at the same sizes shows the ``n^{1/3}``
comparator's slope.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.analysis import fit_exponent, format_table
from repro.core.constants import PaperConstants
from repro.core.problems import FindEdgesInstance

from benchmarks.conftest import write_result

SIZES = [81, 256, 625]
CONSTANTS = PaperConstants(scale=0.05)


def run_compute_pairs(n: int, seed: int):
    graph = repro.random_undirected_graph(n, density=0.3, max_weight=6, rng=seed)
    instance = FindEdgesInstance(graph)
    solution = repro.compute_pairs(instance, constants=CONSTANTS, rng=seed)
    return instance, solution


def test_e2_find_edges_promise(benchmark):
    rows = []
    step1_rounds = []
    total_rounds = []
    dolev_rounds = []
    for n in SIZES:
        instance, solution = run_compute_pairs(n, seed=1)
        truth = instance.reference_solution()
        false_pos = len(solution.pairs - truth)
        false_neg = len(truth - solution.pairs)
        dolev = repro.DolevFindEdges().find_edges(instance)
        assert dolev.pairs == truth
        assert false_pos == 0  # verification forbids false positives
        assert false_neg <= max(2, len(truth) // 100)  # w.h.p. recall
        step1 = solution.ledger.rounds("compute_pairs.step1_load")
        step1_rounds.append(step1)
        total_rounds.append(solution.rounds)
        dolev_rounds.append(dolev.rounds)
        rows.append(
            [
                n,
                solution.rounds,
                step1,
                dolev.rounds,
                len(truth),
                false_neg,
                solution.details["coverage"],
            ]
        )

    total_exp, _, _ = fit_exponent(SIZES, total_rounds)
    step1_exp, _, _ = fit_exponent(SIZES, step1_rounds)
    dolev_exp, _, _ = fit_exponent(SIZES, dolev_rounds)
    table = format_table(
        ["n", "rounds", "step1", "dolev", "truth", "missed", "coverage"],
        rows,
        title=(
            "E2  FindEdgesWithPromise rounds (Theorem 2)\n"
            f"fitted exponents: total={total_exp:.2f} (n^{{1/4}}·polylog), "
            f"step1={step1_exp:.2f} (paper: 1/4), dolev={dolev_exp:.2f} (paper: 1/3)"
        ),
    )
    write_result("e2_find_edges_promise", table)

    assert 0.05 < step1_exp < 0.45
    benchmark.pedantic(run_compute_pairs, args=(81, 2), rounds=1, iterations=1)
