"""Fast self-test of the perfbench benchmark.

The benchmark itself (``perfbench/run.py``) is not a test and takes
minutes; this file checks, in seconds, the parts a wrong benchmark would
hide behind: every output check counts a corrupted answer as failed,
tracing leaves outputs byte-identical and its self times add up, and
``BENCHMARK.json`` names exactly the workloads and metrics ``run.py``
prints.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import numpy as np

import repro
from repro.core.compute_pairs import compute_pairs
from repro.core.problems import FindEdgesInstance
from repro.matrix import reconstruct_path, successor_matrix

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench_checks import (  # noqa: E402
    bad_answers,
    bad_distance_graphs,
    bad_triangle_pairs,
    floyd_warshall_stack,
)
import bench_trace  # noqa: E402


def _load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_triangle_check_counts_a_corrupted_pair():
    graph = repro.random_undirected_graph(24, density=0.6, max_weight=8, rng=3)
    found = np.array(sorted(FindEdgesInstance(graph).reference_solution()))
    assert len(found) > 0
    assert bad_triangle_pairs(graph.weights, found) == 0
    missing = ~np.isfinite(graph.weights)
    np.fill_diagonal(missing, False)
    corrupted = np.vstack([found, np.argwhere(missing)[:1]])
    assert bad_triangle_pairs(graph.weights, corrupted) == 1


def test_distance_check_counts_a_corrupted_graph():
    graphs = [
        repro.random_digraph_no_negative_cycle(12, density=0.4, max_weight=8, rng=seed)
        for seed in range(3)
    ]
    truth = floyd_warshall_stack(np.stack([g.weights for g in graphs]))
    for graph, closure in zip(graphs, truth):
        np.testing.assert_array_equal(closure, repro.floyd_warshall(graph))
    corrupted = truth.copy()
    corrupted[1, 0, 2] += 1.0
    assert bad_distance_graphs(truth, truth) == 0
    assert bad_distance_graphs(corrupted, truth) == 1


def test_answer_check_counts_each_corrupted_kind():
    graph = repro.random_digraph_no_negative_cycle(12, density=0.5, max_weight=8, rng=5)
    truth = floyd_warshall_stack(graph.weights)
    path = reconstruct_path(successor_matrix(graph.apsp_matrix(), truth), 0, 7)
    requests = [("dist", 0, 7), ("path", 0, 7), ("diameter", -1, -1)]
    values = [float(truth[0, 7]), path, float(truth.max())]
    assert bad_answers(graph.weights, truth, requests, values) == 0
    wrong_path = [0, *path[2:]] if len(path) > 2 else [0, 3, 7]
    for index, wrong in enumerate([values[0] + 1.0, wrong_path, values[2] - 1.0]):
        corrupted = list(values)
        corrupted[index] = wrong
        assert bad_answers(graph.weights, truth, requests, corrupted) == 1


def test_tracing_is_observational_and_reconciles():
    instance = FindEdgesInstance(
        repro.random_undirected_graph(48, density=0.5, max_weight=7, rng=1)
    )
    module = importlib.import_module("repro.core.compute_pairs")
    original = module.block_two_hop
    plain = compute_pairs(instance, rng=2)
    with bench_trace.tracing() as collector:
        with collector.span(bench_trace.ROOT):
            traced = compute_pairs(instance, rng=2)
    assert module.block_two_hop is original
    assert traced.pairs == plain.pairs
    assert traced.rounds == plain.rounds
    assert traced.ledger.snapshot() == plain.ledger.snapshot()

    names, layers = bench_trace.aggregate(collector.records)
    root = names[bench_trace.ROOT]
    assert _load_run_module().trace_problems(layers, root.wall) == []
    assert names["evaluation:block_two_hop"].count > 0
    assert names["compute_pairs"].attrs["rounds"] == plain.rounds


def test_trace_check_flags_time_outside_every_layer():
    run = _load_run_module()
    assert run.trace_problems({"evaluation": 0.98, "unattributed": 0.02}, 1.0) == []
    outside = run.trace_problems({"evaluation": 0.5, "unattributed": 0.5}, 1.0)
    assert len(outside) == 1 and "no layer" in outside[0]
    assert len(run.trace_problems({"evaluation": 0.9}, 1.0)) == 1  # 0.1 s unaccounted


def test_benchmark_json_matches_run_py():
    run = _load_run_module()
    from bench_workloads import WORKLOADS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
