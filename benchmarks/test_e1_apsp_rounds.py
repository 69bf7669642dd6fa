"""E1 — Theorem 1 headline: end-to-end APSP round counts.

Paper claim: quantum APSP runs in ``Õ(n^{1/4} log W)`` rounds vs. the
classical ``Õ(n^{1/3} log W)`` (Censor-Hillel et al.), with the output
correct w.h.p.

What this regenerates: for a sweep of graph sizes, the measured simulator
rounds of (a) the full quantum solver, (b) the Dolev-backed classical
triangle solver through the same reduction stack, (c) the direct
Censor-Hillel semiring baseline — plus correctness against Floyd–Warshall
and the analytic model's predictions.  At simulation sizes the *absolute*
winner is the classical baseline (the quantum side's polylog factors and
constants dominate — see E9 for the crossover analysis); the reproduced
shape is the exponent gap visible in the fitted slopes and the model.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro
from repro.analysis import RoundModel, fit_exponent, format_table
from repro.core.constants import PaperConstants

from benchmarks.conftest import write_metrics, write_result

SIZES = [8, 12, 16]
CONSTANTS = PaperConstants(scale=0.5)
MAX_WEIGHT = 6


def run_quantum(n: int, seed: int):
    graph = repro.random_digraph_no_negative_cycle(
        n, density=0.5, max_weight=MAX_WEIGHT, rng=seed
    )
    truth = repro.floyd_warshall(graph)
    backend = repro.QuantumFindEdges(constants=CONSTANTS, rng=seed)
    report = repro.QuantumAPSP(backend=backend).solve(graph)
    return graph, truth, report


def test_e1_apsp_rounds(benchmark):
    model = RoundModel()
    rows = []
    quantum_rounds = []
    classical_rounds = []
    metrics = []
    for n in SIZES:
        start = time.perf_counter()
        graph, truth, q_report = run_quantum(n, seed=7)
        wall = time.perf_counter() - start
        metrics.append(
            {"n": n, "wall_seconds": round(wall, 4), "rounds": q_report.rounds}
        )
        dolev = repro.QuantumAPSP(backend=repro.DolevFindEdges()).solve(graph)
        ch = repro.CensorHillelAPSP().solve(graph)
        assert np.array_equal(q_report.distances, truth)
        assert np.array_equal(dolev.distances, truth)
        assert np.array_equal(ch.distances, truth)
        quantum_rounds.append(q_report.rounds)
        classical_rounds.append(ch.rounds)
        rows.append(
            [
                n,
                q_report.rounds,
                dolev.rounds,
                ch.rounds,
                model.quantum_apsp_rounds(n, MAX_WEIGHT),
                model.classical_apsp_rounds(n, MAX_WEIGHT),
                True,
            ]
        )

    q_exp, _, _ = fit_exponent(SIZES, quantum_rounds)
    c_exp, _, _ = fit_exponent(SIZES, classical_rounds)
    table = format_table(
        ["n", "quantum", "dolev-apsp", "censor-hillel", "model-q", "model-c", "exact"],
        rows,
        title=(
            "E1  end-to-end APSP rounds (Theorem 1)\n"
            f"fitted exponent: quantum={q_exp:.2f}, censor-hillel={c_exp:.2f} "
            "(paper: 1/4 vs 1/3 up to polylogs; small-n fits are "
            "polylog-inflated — see E2/E9 for the asymptotic shape)"
        ),
    )
    write_result("e1_apsp_rounds", table)
    write_metrics("e1_apsp_rounds", metrics)

    # All solvers correct on every size; benchmark one quantum solve.
    benchmark.pedantic(run_quantum, args=(8, 3), rounds=1, iterations=1)
