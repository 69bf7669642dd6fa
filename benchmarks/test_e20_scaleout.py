"""E20 — multi-process scale-out of per-graph batch sweeps.

What this regenerates: the scaling behavior of the sweep worker pool
across worker counts — a 4-graph APSP sweep (``n = 8``) of the quantum
Theorem-1 pipeline through :func:`repro.parallel.solve_weights_batch`,
one solver per graph seeded ``seed + i``, graph chunks spread over the
pool, at 1/2/4/8 workers.  The pool's workers receive the weight stack
once, at start, and return each chunk's distances and rounds.

The one contract asserted here (and in the bench-smoke lane via
``test_smoke_e20_scaleout``): every pooled run is **byte-identical** to
the in-process run — same distances, same rounds — at every worker count.

Speedup is recorded, not asserted.  The committed table records ``cores``
next to speedup and efficiency, since no width beyond the host's cores can
gain.

e20 used to time a 10 000-graph stacked Floyd–Warshall sweep, where the
pool read 0.45x–0.55x of the inline wall, so stacked sweeps now always
solve in-process and never reach the pool.  Before that it timed one
``n = 1024`` quantum ``compute_pairs`` solve with its Step-3 classes
dispatched to workers (0.78x / 0.79x / 0.69x at 2 / 4 / 8 workers on
2 cores); that path was deleted too.

The wall-clock columns vary per host; every other column is
deterministic.
"""

from __future__ import annotations

import os
import time

import numpy as np

import repro
from repro.analysis import format_table
from repro.parallel import solve_weights_batch

from benchmarks.conftest import write_metrics, write_result

WORKER_COUNTS = [1, 2, 4, 8]
SWEEP_SOLVER = "quantum"
SWEEP_GRAPHS = 4
SWEEP_N = 8
CORES = os.cpu_count() or 1


def run_sweep_scaling(
    num_graphs: int, n: int, worker_counts: list[int]
) -> list[dict]:
    """One ``num_graphs``-wide APSP batch per worker count."""
    weights = np.stack(
        [
            repro.random_digraph_no_negative_cycle(
                n, density=0.4, max_weight=8, rng=seed
            ).weights
            for seed in range(num_graphs)
        ]
    )
    rows = []
    baseline = None
    for workers in worker_counts:
        started = time.perf_counter()
        result = solve_weights_batch(weights, solver=SWEEP_SOLVER, workers=workers)
        wall = time.perf_counter() - started
        fingerprint = (result.distances.tobytes(), result.rounds.tobytes())
        if baseline is None:
            baseline = {"wall": wall, "fingerprint": fingerprint}
        speedup = baseline["wall"] / wall if wall > 0 else 0.0
        rows.append(
            {
                "phase": "sweep",
                "n": n,
                "graphs": num_graphs,
                "workers": workers,
                "wall_seconds": wall,
                "rounds": float(result.rounds.sum()),
                "speedup": speedup,
                "efficiency": speedup / workers,
                "identical_to_sequential": fingerprint == baseline["fingerprint"],
            }
        )
    return rows


def assert_contract(rows: list[dict]) -> None:
    for row in rows:
        assert row["identical_to_sequential"], (
            f"{row['phase']} at {row['workers']} workers diverged from the "
            "in-process run — the sweep plane must be observationally a no-op"
        )


def render_table(rows: list[dict]) -> str:
    lines = [
        "E20 — multi-process scale-out "
        f"({SWEEP_SOLVER} sweep of {SWEEP_GRAPHS} graphs at n={SWEEP_N}; "
        f"host cores={CORES})",
        format_table(
            ["phase", "workers", "wall s", "speedup", "efficiency", "identical"],
            [
                [
                    row["phase"],
                    row["workers"],
                    f"{row['wall_seconds']:.3f}",
                    f"{row['speedup']:.2f}x",
                    f"{row['efficiency']:.2f}",
                    "yes" if row["identical_to_sequential"] else "NO",
                ]
                for row in rows
            ],
        ),
    ]
    lines.append(
        f"note: {CORES} core(s); asserted: byte-identity at every worker "
        "count; speedup and efficiency are recorded, not asserted"
    )
    return "\n".join(lines)


def metric_records(rows: list[dict]) -> list[dict]:
    return [{**row, "cores": CORES} for row in rows]


def test_e20_scaleout(benchmark):
    rows = benchmark.pedantic(
        lambda: run_sweep_scaling(SWEEP_GRAPHS, SWEEP_N, WORKER_COUNTS),
        rounds=1,
        iterations=1,
    )
    assert_contract(rows)
    write_result("e20_scaleout", render_table(rows))
    write_metrics("e20_scaleout", metric_records(rows))


def test_smoke_e20_scaleout():
    """Bench-smoke lane: the byte-identity contract at 2 workers on a
    small sweep — no tables written."""
    rows = run_sweep_scaling(2, 4, [1, 2])
    assert_contract(rows)
    assert [row["workers"] for row in rows] == [1, 2]
