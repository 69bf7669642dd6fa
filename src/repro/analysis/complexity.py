"""Analytic round model and scaling-exponent fits.

The simulator measures exact Lemma-1 round charges, but full simulation is
cubic-ish in ``n``; the closed-form model here extends the curves to any
``n`` for the crossover figure (E9).  The model's constants are deliberately
simple multiples of the paper's step-by-step analysis; tests assert it
tracks the simulator's measured totals within a constant factor on the sizes
where both run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.util.mathutil import guarded_log


def fit_exponent(sizes, values) -> tuple[float, float, float]:
    """Least-squares fit of ``values ≈ coeff · sizes^exponent``.

    Returns ``(exponent, coeff, r_squared)`` from a degree-1 polyfit in
    log–log space.  The headline claims are exponent claims (``1/4`` vs.
    ``1/3``); benchmarks report this fit next to the raw series.
    """
    xs = np.log(np.asarray(sizes, dtype=np.float64))
    ys = np.log(np.asarray(values, dtype=np.float64))
    if xs.size < 2:
        raise ValueError("need at least two points to fit an exponent")
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = slope * xs + intercept
    residual = float(((ys - predicted) ** 2).sum())
    total = float(((ys - ys.mean()) ** 2).sum())
    r_squared = 1.0 if total == 0 else 1.0 - residual / total
    return float(slope), float(math.exp(intercept)), r_squared


@dataclass(frozen=True)
class RoundModel:
    """Closed-form round counts following the paper's analysis.

    Every method returns *rounds* for a problem on ``n`` graph vertices.
    Polylog factors are kept explicit (base-2 logs, clamped at 1); leading
    constants are free parameters so the model can be anchored to the
    simulator at small ``n``.
    """

    load_constant: float = 4.0        # Step 1: 2·⌈2n^{5/4}/n⌉
    eval_constant: float = 2.0        # evaluation procedure per oracle call
    amplification: float = 12.0       # BBHT repetitions multiplier
    dolev_constant: float = 6.0       # classical gather: 2·⌈3n^{4/3}/n⌉
    identify_constant: float = 60.0   # IdentifyClass broadcasts

    # -- quantum side ------------------------------------------------------

    def compute_pairs_rounds(self, n: int) -> float:
        """Theorem 2: one run of Algorithm ComputePairs, ``Õ(n^{1/4})``."""
        log_n = guarded_log(n)
        step1 = self.load_constant * n ** 0.25
        identify = self.identify_constant * log_n
        # Step 3: per class, (BBHT repetitions) × (max iterations) oracle
        # calls at O(log² n) rounds each; iterations over |X| ≤ √n blocks
        # cost (π/4)·n^{1/4} each.
        iterations = (math.pi / 4.0) * n ** 0.25
        repetitions = self.amplification * log_n
        eval_rounds = self.eval_constant * log_n ** 2
        num_classes = log_n  # α ranges over O(log n) non-empty classes
        step3 = num_classes * repetitions * iterations * eval_rounds
        return step1 + identify + step3

    def find_edges_loop_iterations(self, n: int, sample_factor: float = 60.0) -> int:
        """Number of Proposition 1 loop iterations: the largest ``i`` with
        ``60·2^i·log n ≤ n`` (plus the final full-graph call counts
        separately)."""
        log_n = guarded_log(n)
        count = 0
        while sample_factor * (2.0 ** count) * log_n <= n:
            count += 1
        return count

    def find_edges_rounds(self, n: int) -> float:
        """Proposition 1: ``O(log n)`` promise calls."""
        calls = self.find_edges_loop_iterations(n) + 1
        return calls * self.compute_pairs_rounds(n)

    def distance_product_rounds(self, n: int, max_entry: float) -> float:
        """Proposition 2: ``O(log M)`` FindEdges calls on ``3n`` vertices."""
        calls = max(1.0, math.ceil(math.log2(max(4.0 * max_entry + 1.0, 2.0)))) + 1.0
        return calls * self.find_edges_rounds(3 * n)

    def quantum_apsp_rounds(self, n: int, max_weight: float) -> float:
        """Theorem 1: ``Õ(n^{1/4} log W)`` end to end."""
        squarings = max(1.0, math.ceil(guarded_log(n)))
        return squarings * self.distance_product_rounds(n, n * max_weight)

    # -- classical side ---------------------------------------------------------

    def dolev_find_edges_rounds(self, n: int) -> float:
        """Dolev et al. triangle listing: ``O(n^{1/3})`` (no promise loop)."""
        return self.dolev_constant * n ** (1.0 / 3.0)

    def classical_apsp_rounds(self, n: int, max_weight: float) -> float:
        """Censor-Hillel-style APSP: ``Õ(n^{1/3} log W)``."""
        squarings = max(1.0, math.ceil(guarded_log(n)))
        calls = (
            max(1.0, math.ceil(math.log2(max(4.0 * n * max_weight + 1.0, 2.0)))) + 1.0
        )
        return squarings * calls * self.dolev_find_edges_rounds(3 * n)

    # -- leading terms (polylogs stripped) -----------------------------------

    def quantum_apsp_leading(self, n: int) -> float:
        """The quantum headline's leading term ``C · n^{1/4}``.

        The full model above keeps every polylog factor (log-repetitions,
        log²-evaluations, log-classes, log-promise-loop, log-squarings,
        log-M binary search); those factors stack to ~log⁶ on the quantum
        side against ~log² classically, which pushes the *constant-explicit*
        crossover astronomically far out — an honest observation about the
        paper's Õ(·) that EXPERIMENTS.md reports.  The leading-term view
        isolates the exponent claim itself (n^{1/4} vs n^{1/3}).
        """
        return self.load_constant * n ** 0.25

    def classical_apsp_leading(self, n: int) -> float:
        """The classical comparator's leading term ``C · n^{1/3}``."""
        return self.dolev_constant * n ** (1.0 / 3.0)

    def leading_crossover_n(self) -> float:
        """``n`` where the leading terms cross:
        ``load·n^{1/4} = dolev·n^{1/3}`` ⇒ ``n = (load/dolev)^{12}``."""
        ratio = self.load_constant / self.dolev_constant
        return float(ratio ** 12.0)

    # -- step-3 search comparison (ablation E9b) ---------------------------------

    def grover_step3_rounds(self, n: int) -> float:
        """Quantum Step 3 only: ``Õ(n^{1/4})`` evaluations of ``O(log² n)``."""
        log_n = guarded_log(n)
        return (
            self.amplification
            * log_n
            * (math.pi / 4.0)
            * n ** 0.25
            * self.eval_constant
            * log_n ** 2
        )

    def linear_step3_rounds(self, n: int) -> float:
        """Classical Step 3: all ``√n`` blocks scanned once."""
        log_n = guarded_log(n)
        return n ** 0.5 * self.eval_constant * log_n ** 2

    def crossover_n(self, limit: float = 2.0 ** 60) -> float:
        """The ``n`` beyond which the full model's quantum APSP beats the
        classical APSP, by doubling search up to ``limit``.

        With every polylog kept, the quantum side carries ~log⁴ more
        factors than the classical one, so this typically returns ``inf``
        within any physical ``limit`` — see :meth:`leading_crossover_n` for
        the exponent-level crossover.  Both numbers are reported by E9.
        """
        n = 4
        while n < limit:
            if self.quantum_apsp_rounds(n, 4.0) < self.classical_apsp_rounds(n, 4.0):
                return float(n)
            n *= 2
        return math.inf
