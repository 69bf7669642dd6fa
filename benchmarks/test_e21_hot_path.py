"""E21 — the array-native ComputePairs hot path, layer by layer.

What this regenerates: the wall time of the three layers that dominated
an ``n = 1024`` quantum ``compute_pairs`` solve, each in its previous form
beside its array-native form, at ``n ∈ {256, 1024}`` on the
``pairs-n1024`` input family (``density = 0.5``, weights in ``{−7..7}``):

* ``block_two_hop`` — the float64 broadcast-min
  (:func:`repro.core._reference.block_two_hop_float`) against the
  integer-coded kernel (:func:`repro.core.evaluation.block_two_hop` on a
  pre-encoded :class:`~repro.core.evaluation.CodedWeights`), over every
  fine block of one coarse block pair;
* ``fold`` — folding the Step-3 found-pair rows into the pair set: one
  tuple per duplicated row against deduplicating the rows first
  (:func:`repro.core.quantum_step3._fold_found_pairs`).  The rows are the
  pairs each ``Λx`` set holds a witness for — every copy a classical scan
  would report, so the duplication is that of a real solve;
* ``identify_class`` — IdentifyClass with its two broadcasts writing every
  payload into every inbox (``broadcast_all``, the form preserved in
  :mod:`repro.core._reference`) against the payload-free
  ``broadcast_volume`` charges; both off the same cached two-hop tables.

Each form is timed as the minimum of 5 runs.  The deterministic columns —
``H`` byte equality, the distinct-pair count and the broadcast rounds —
are asserted equal between the two forms; the wall-clock columns vary per
host.
"""

from __future__ import annotations

import os
import time

import numpy as np

import repro
from repro.analysis import format_table
from repro.congest.network import CongestClique
from repro.congest.partitions import CliquePartitions
from repro.core._reference import block_two_hop_float, run_identify_class_broadcast_all
from repro.core.compute_pairs import _step2_sample
from repro.core.constants import SIMULATION
from repro.core.evaluation import CodedWeights, block_two_hop
from repro.core.identify_class import run_identify_class
from repro.core.problems import FindEdgesInstance
from repro.core.quantum_step3 import _fold_found_pairs

from benchmarks.conftest import write_metrics, write_result

SIZES = [256, 1024]
REPEATS = 5
CORES = os.cpu_count() or 1
BROADCAST_PHASES = (
    "identify_class.broadcast_samples",
    "identify_class.broadcast_classes",
)


def min_time(run, prepare=lambda: None, repeats: int = REPEATS):
    """``(min wall seconds, last result)`` of ``run(prepare())``; the
    preparation is not timed."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        state = prepare()
        started = time.perf_counter()
        result = run(state)
        best = min(best, time.perf_counter() - started)
    return best, result


def build_inputs(n: int) -> dict:
    """The instance, its coded witness matrix, its cached two-hop tables
    and the found-pair rows of its Step-2 samples."""
    graph = repro.random_undirected_graph(n, density=0.5, max_weight=7, rng=7)
    instance = FindEdgesInstance(graph)
    partitions = CliquePartitions(n)
    network = CongestClique(n)
    network.register_scheme("triple", partitions.triple_labels())
    network.register_scheme("search", partitions.search_labels())
    coded = CodedWeights.encode(graph.weights)
    fine_blocks = partitions.fine.blocks()
    cache: dict = {}

    def two_hop_for(bu, bv):
        if (bu, bv) not in cache:
            cache[(bu, bv)] = block_two_hop(
                coded,
                partitions.coarse.block(bu),
                partitions.coarse.block(bv),
                fine_blocks,
            )
        return cache[(bu, bv)]

    node_pairs, _coverage = _step2_sample(
        network, partitions, instance, SIMULATION, np.random.default_rng(8), two_hop_for
    )
    found_rows = np.concatenate(
        [pairs[table.any(axis=1)] for pairs, _weights, table in node_pairs.values()]
    )
    return {
        "graph": graph,
        "instance": instance,
        "partitions": partitions,
        "coded": coded,
        "two_hop_for": two_hop_for,
        "found_rows": found_rows,
    }


def two_hop_row(n: int, inputs: dict) -> dict:
    partitions = inputs["partitions"]
    args = (
        partitions.coarse.block(0),
        partitions.coarse.block(min(1, partitions.num_coarse - 1)),
        partitions.fine.blocks(),
    )
    before, reference = min_time(
        lambda _: block_two_hop_float(inputs["graph"].weights, *args)
    )
    after, coded = min_time(lambda _: block_two_hop(inputs["coded"], *args))
    return {
        "layer": "block_two_hop",
        "detail": f"code={inputs['coded'].dtype}, {len(args[2])} fine blocks",
        "identical": coded.tobytes() == reference.tobytes(),
        "rounds": None,
        "distinct_pairs": None,
        "before": before,
        "after": after,
    }


def fold_row(n: int, inputs: dict) -> dict:
    rows = inputs["found_rows"]

    def tuple_fold(found_pairs):
        found_pairs.update(map(tuple, rows.tolist()))
        return found_pairs

    def dedup_fold(found_pairs):
        _fold_found_pairs(found_pairs, rows)
        return found_pairs

    before, reference = min_time(tuple_fold, set)
    after, folded = min_time(dedup_fold, set)
    return {
        "layer": "fold",
        "detail": f"{len(rows)} rows",
        "identical": folded == reference,
        "rounds": None,
        "distinct_pairs": len(folded),
        "before": before,
        "after": after,
    }


def identify_row(n: int, inputs: dict) -> dict:
    """Whole IdentifyClass runs, off the cached two-hop tables: the two
    forms differ only in their broadcasts."""

    def fresh_network():
        network = CongestClique(n)
        network.register_scheme("triple", inputs["partitions"].triple_labels())
        return network

    def run_with(identify):
        def run(network):
            identify(
                network, inputs["instance"], inputs["partitions"], SIMULATION,
                inputs["two_hop_for"], rng=9,
            )
            return network.ledger.snapshot()

        return run

    before, reference = min_time(run_with(run_identify_class_broadcast_all), fresh_network)
    after, ledger = min_time(run_with(run_identify_class), fresh_network)
    return {
        "layer": "identify_class",
        "detail": "broadcast_all -> broadcast_volume",
        "identical": ledger == reference,
        "rounds": sum(ledger[phase] for phase in BROADCAST_PHASES),
        "distinct_pairs": None,
        "before": before,
        "after": after,
    }


def run_layers(sizes: list[int]) -> list[dict]:
    rows = []
    for n in sizes:
        inputs = build_inputs(n)
        for measure in (two_hop_row, fold_row, identify_row):
            row = measure(n, inputs)
            rows.append(
                {
                    "n": n,
                    **row,
                    "wall_seconds": row["after"],
                    "speedup": row["before"] / row["after"] if row["after"] > 0 else 0.0,
                }
            )
    return rows


def assert_contract(rows: list[dict]) -> None:
    for row in rows:
        assert row["identical"], (
            f"{row['layer']} at n={row['n']}: the array-native form diverged "
            "from the form it replaced"
        )


def render_table(rows: list[dict]) -> str:
    lines = [
        "E21 — array-native ComputePairs hot path, per layer "
        f"(min of {REPEATS}; host cores={CORES})",
        format_table(
            [
                "layer", "n", "before s", "after s", "speedup",
                "identical", "rounds", "distinct pairs", "detail",
            ],
            [
                [
                    row["layer"],
                    row["n"],
                    f"{row['before']:.4f}",
                    f"{row['after']:.4f}",
                    f"{row['speedup']:.1f}x",
                    "yes" if row["identical"] else "NO",
                    "-" if row["rounds"] is None else f"{row['rounds']:.0f}",
                    "-" if row["distinct_pairs"] is None else row["distinct_pairs"],
                    row["detail"],
                ]
                for row in rows
            ],
        ),
        "note: asserted: H bytes, distinct pairs and broadcast ledgers equal "
        "between the forms; wall times are recorded, not asserted",
    ]
    return "\n".join(lines)


def metric_records(rows: list[dict]) -> list[dict]:
    return [
        {
            "n": row["n"],
            "wall_seconds": row["after"],
            "rounds": row["rounds"],
            "layer": row["layer"],
            "before_seconds": row["before"],
            "after_seconds": row["after"],
            "speedup": row["speedup"],
            "identical": row["identical"],
            "distinct_pairs": row["distinct_pairs"],
            "detail": row["detail"],
            "cores": CORES,
        }
        for row in rows
    ]


def test_e21_hot_path(benchmark):
    rows = benchmark.pedantic(lambda: run_layers(SIZES), rounds=1, iterations=1)
    assert_contract(rows)
    write_result("e21_hot_path", render_table(rows))
    write_metrics("e21_hot_path", metric_records(rows))


def test_smoke_e21_hot_path():
    """Bench-smoke lane: every layer's two forms agree at n = 64 — no
    tables written."""
    rows = run_layers([64])
    assert_contract(rows)
    assert [row["layer"] for row in rows] == [
        "block_two_hop", "fold", "identify_class",
    ]
