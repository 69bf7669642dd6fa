"""Per-layer tracing for the traced benchmark run.

:func:`tracing` wraps public entry points of :mod:`repro` where their
callers look them up (module globals such as
``repro.core.compute_pairs.block_two_hop``, and methods on the layer
classes), and installs a :mod:`repro.telemetry` collector.  Every wrapper
opens a span on that collector, so the wrapper spans and the library's own
spans (the ComputePairs steps, ``solver.solve``, ``jobs.*``, ``queries.*``)
form one tree in memory.  A span's self time is its duration minus its
direct children's, so the self times of all spans under the benchmark's
root span add up to the root's duration; the root's own self time is the
unattributed remainder.

Wrapper spans are named ``<layer>:<call>``; :data:`LIBRARY_LAYERS` assigns
the library's dotted span names to layers.  Nothing here changes what the
wrapped calls compute, and the wrappers are removed when the ``with`` block
ends, so untraced runs execute the unmodified library.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import defaultdict
from typing import Callable, Iterator, Optional

from repro import telemetry
from repro.congest.batch import MessageBatch


def _two_hop_attrs(args, kwargs, result) -> dict:
    weights, block_u, block_v = args[:3]
    return {
        "cells": len(block_u) * len(block_v) * weights.shape[0],
        "bytes": result.nbytes,
    }


def _step3_attrs(args, kwargs, result) -> dict:
    return {"found_pairs": len(result.found_pairs), "searches": result.total_searches}


def _deliver_attrs(args, kwargs, result) -> dict:
    messages = args[1] if len(args) > 1 else kwargs["messages"]
    if isinstance(messages, MessageBatch):
        return {"messages": len(messages), "words": messages.total_words}
    return {}  # Message-object deliveries (payload fidelity path): timed only


def _arena_attrs(args, kwargs, result) -> dict:
    arrays = args[1] if len(args) > 1 else kwargs["arrays"]
    return {"bytes": sum(int(array.nbytes) for array in arrays.values())}


def _map_attrs(args, kwargs, result) -> dict:
    return {"tasks": len(args[3] if len(args) > 3 else kwargs["specs"])}


#: ``(module, attribute path, span name, attrs(args, kwargs, result))``.
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.core.compute_pairs", "block_two_hop", "evaluation:block_two_hop", _two_hop_attrs),
    ("repro.core.compute_pairs", "run_identify_class", "identify_class:run", None),
    ("repro.core.compute_pairs", "run_step3", "quantum_step3:run_step3", _step3_attrs),
    ("repro.core.quantum_step3", "register_class_lanes", "quantum_step3:register_class_lanes", None),
    ("repro.quantum.batched", "BatchedMultiSearch.add_lanes", "batched:add_lanes",
     lambda a, k, r: {"lanes": len(a[1] if len(a) > 1 else k["keys"])}),
    ("repro.quantum.batched", "BatchedMultiSearch.run", "batched:run", None),
    ("repro.congest.network", "CongestClique.deliver", "congest:deliver", _deliver_attrs),
    ("repro.congest.network", "CongestClique.broadcast_all", "congest:broadcast_all", None),
    ("repro.congest.network", "CongestClique.broadcast_volume", "congest:broadcast_volume", None),
    ("repro.congest.network", "CongestClique.register_scheme", "congest:register_scheme", None),
    ("repro.core.find_edges", "QuantumFindEdges.find_edges", "find_edges:find_edges", None),
    ("repro.core.apsp_solver", "distance_product_via_find_edges", "reductions:distance_product", None),
    ("repro.core.apsp_solver", "QuantumAPSP.solve", "apsp_solver:solve", None),
    ("repro.service.store", "ResultStore.put", "store:put", None),
    ("repro.service.jobs", "JobEngine.submit", "jobs:submit", None),
    ("repro.service.jobs", "JobEngine.run_pending_parallel", "jobs:run_pending_parallel", None),
    ("repro.service.queries", "QueryEngine.query_batch", "queries:query_batch", None),
    ("repro.service.queries", "batch_distance_lookup", "matrix:batch_distance_lookup", None),
    ("repro.service.queries", "reconstruct_path", "matrix:reconstruct_path", None),
    ("repro.parallel.dispatch", "ClassDispatcher.__init__", "parallel:dispatcher_start", None),
    ("repro.parallel.dispatch", "ClassDispatcher.make_arena", "parallel:make_arena", _arena_attrs),
    ("repro.parallel.dispatch", "ClassDispatcher.map_arena", "parallel:map_arena", _map_attrs),
    ("repro.parallel.dispatch", "ClassDispatcher.shutdown", "parallel:shutdown", None),
)

#: Layer of each span name the library itself opens (prefix match).
LIBRARY_LAYERS: tuple[tuple[str, str], ...] = (
    ("compute_pairs", "compute_pairs"),
    ("step3.", "quantum_step3"),
    ("quantum.batched_run", "batched"),
    ("solver.solve", "solvers"),
    ("jobs.", "jobs"),
    ("queries.", "queries"),
    ("baseline.", "baselines"),
)

#: Name of the benchmark's root span around one measured unit.
ROOT = "bench:unit"


def _wrap(original: Callable, name: str, attrs: Optional[Callable]) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        collector = telemetry.active()
        if collector is None:  # forked pool workers uninstall the collector
            return original(*args, **kwargs)
        with collector.span(name) as span:
            result = original(*args, **kwargs)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
        return result

    return wrapper


def _store_get(original: Callable) -> Callable:
    """``ResultStore.get`` wrapper that tags each call memory/disk/miss."""

    @functools.wraps(original)
    def wrapper(self, key):
        collector = telemetry.active()
        if collector is None:
            return original(self, key)
        in_memory = key in self
        with collector.span("store:get") as span:
            result = original(self, key)
            source = "memory" if in_memory else ("miss" if result is None else "disk")
            span.attrs["source"] = source
        return result

    return wrapper


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


@contextlib.contextmanager
def tracing() -> Iterator[telemetry.TelemetryCollector]:
    """Install the wrappers and a fresh collector; restore both on exit."""
    store_module = importlib.import_module("repro.service.store")
    patches = [
        (*_resolve(module, path), name, attrs) for module, path, name, attrs in TARGETS
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
    originals.append(
        (store_module.ResultStore, "get", store_module.ResultStore.get)
    )
    try:
        for owner, attr, name, attrs in patches:
            setattr(owner, attr, _wrap(getattr(owner, attr), name, attrs))
        store_module.ResultStore.get = _store_get(store_module.ResultStore.get)
        with telemetry.collect() as collector:
            yield collector
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def layer_of(name: str) -> str:
    if name == ROOT:
        return "unattributed"
    if ":" in name:
        return name.split(":", 1)[0]
    for prefix, layer in LIBRARY_LAYERS:
        if name.startswith(prefix):
            return layer
    return "other"


class Aggregate:
    """Per-name span totals: count, inclusive and self seconds, attr sums."""

    def __init__(self) -> None:
        self.count = 0
        self.wall = 0.0
        self.self_s = 0.0
        self.attrs: dict[str, float] = defaultdict(float)

    def add(self, record) -> None:
        self.count += 1
        self.wall += record.duration_s
        self.self_s += record.duration_s - record.children_s
        for key, value in record.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self.attrs[key] += value

    def mean(self, scale: float) -> float:
        return self.wall / self.count * scale if self.count else 0.0


def aggregate(records) -> tuple[dict[str, Aggregate], dict[str, float]]:
    """``(per span name, self seconds per layer)`` over closed spans.

    ``store:get`` spans are also totalled per source as
    ``store:get[memory]``, ``store:get[disk]`` and ``store:get[miss]``.
    """
    names: dict[str, Aggregate] = defaultdict(Aggregate)
    layers: dict[str, float] = defaultdict(float)
    for record in records:
        names[record.name].add(record)
        if "source" in record.attrs:
            names[f"{record.name}[{record.attrs['source']}]"].add(record)
        layers[layer_of(record.name)] += record.duration_s - record.children_s
    return names, dict(layers)


def layer_metrics(
    collector: telemetry.TelemetryCollector,
    extras: dict,
    wall_traced: float,
    wall_untraced: float,
) -> tuple[dict[str, float], dict[str, float]]:
    """The per-layer metrics of one traced unit, and its layer self times.

    ``extras`` carries what spans cannot see: public job and store fields
    (``jobs.*`` and ``store.*`` counts, worker-side run times) that the
    workload read off its engine after the unit.
    """
    names, layers = aggregate(collector.records)
    agg = names.__getitem__  # a missing name reads as an empty aggregate

    def layer(name: str) -> float:
        return layers.get(name, 0.0)

    worker_solve_s = sum(
        summary["phases"].get("solver.solve", {}).get("wall_seconds", 0.0)
        for summary in collector.worker_summaries
    )
    found = agg("quantum_step3:run_step3").attrs["found_pairs"]
    searches = agg("quantum_step3:run_step3").attrs["searches"]
    wave_s = agg("jobs:run_pending_parallel").wall
    batches = agg("queries:query_batch").count
    metrics = {
        "compute_pairs.calls": agg("compute_pairs").count,
        "compute_pairs.aborts": agg("compute_pairs").attrs["aborts"],
        "compute_pairs.step0_setup_s": agg("compute_pairs.step0_setup").wall,
        "compute_pairs.step1_load_s": agg("compute_pairs.step1_load").wall,
        "compute_pairs.step2_sample_self_s": agg("compute_pairs.step2_sample").self_s,
        "compute_pairs.step3_identify_s": agg("compute_pairs.step3_identify").wall,
        "compute_pairs.step3_search_s": agg("compute_pairs.step3_search").wall,
        "evaluation.block_two_hop_s": agg("evaluation:block_two_hop").wall,
        "evaluation.block_two_hop_calls": agg("evaluation:block_two_hop").count,
        "evaluation.block_two_hop_cells": agg("evaluation:block_two_hop").attrs["cells"],
        "evaluation.block_two_hop_bytes": agg("evaluation:block_two_hop").attrs["bytes"],
        "identify_class.self_s": layer("identify_class"),
        "quantum_step3.self_s": layer("quantum_step3"),
        "quantum_step3.register_lanes_s": agg("quantum_step3:register_class_lanes").wall,
        "quantum_step3.found_pairs": found,
        "quantum_step3.searches": searches,
        "quantum_step3.found_per_search": found / searches if searches else 0.0,
        "batched.add_lanes_s": agg("batched:add_lanes").wall,
        "batched.run_s": agg("batched:run").wall,
        "batched.lanes": agg("batched:add_lanes").attrs["lanes"],
        "congest.deliver_s": agg("congest:deliver").wall,
        "congest.deliver_calls": agg("congest:deliver").count,
        "congest.messages": agg("congest:deliver").attrs["messages"],
        "congest.words": agg("congest:deliver").attrs["words"],
        "congest.broadcast_all_s": agg("congest:broadcast_all").wall,
        "congest.broadcast_volume_s": agg("congest:broadcast_volume").wall,
        "congest.register_scheme_s": agg("congest:register_scheme").wall,
        "congest.rounds": agg("compute_pairs").attrs["rounds"],
        "find_edges.calls": agg("find_edges:find_edges").count,
        "find_edges.self_s": layer("find_edges"),
        "reductions.self_s": layer("reductions"),
        "apsp_solver.self_s": layer("apsp_solver"),
        "solvers.solve_s": agg("solver.solve").wall + worker_solve_s,
        "jobs.submit_ms": agg("jobs:submit").mean(1e3),
        "jobs.wave_s": wave_s,
        "jobs.dispatch_overhead_s": (
            wave_s - extras.get("jobs.worker_run_s", 0.0) / extras["workers"]
            if wave_s else 0.0
        ),
        "store.get_memory_ms": agg("store:get[memory]").mean(1e3),
        "store.get_disk_ms": agg("store:get[disk]").mean(1e3),
        "store.put_ms": agg("store:put").mean(1e3),
        "queries.batch_self_ms": layer("queries") / batches * 1e3 if batches else 0.0,
        "queries.batches": batches,
        "matrix.reconstruct_path_us": agg("matrix:reconstruct_path").mean(1e6),
        "matrix.batch_distance_lookup_us": agg("matrix:batch_distance_lookup").mean(1e6),
        "parallel.dispatcher_start_s": agg("parallel:dispatcher_start").wall,
        "parallel.make_arena_s": agg("parallel:make_arena").wall,
        "parallel.map_arena_s": agg("parallel:map_arena").wall,
        "parallel.shutdown_s": agg("parallel:shutdown").wall,
        "parallel.arena_bytes": agg("parallel:make_arena").attrs["bytes"],
        "parallel.tasks": agg("parallel:map_arena").attrs["tasks"],
        "trace.overhead_share": wall_traced / wall_untraced - 1.0,
        "trace.unattributed_s": layer("unattributed"),
    }
    for key, value in extras.items():
        if key != "workers":
            metrics[key] = value
    return metrics, layers
