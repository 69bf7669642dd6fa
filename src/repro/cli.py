"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``apsp``        solve APSP on a graph file (or a generated instance),
                report distances shape, rounds, per-phase breakdown, and
                verify against Floyd–Warshall.
``find-edges``  detect edges in negative triangles with a chosen backend.
``diameter``    the §4.1 quantum diameter computation.
``generate``    write a random instance to a graph file.
``validate``    certificate-check a distance matrix against a graph.
``model``       print the analytic round model's predictions for an n sweep.
``query``       answer dist/path/diameter queries from a cached closure
                through the service layer.
``serve-batch`` solve a batch of graphs as jobs, optionally across worker
                processes, against a shared result cache.
``stats``       read a ``--trace`` telemetry JSON, print the per-span
                rollup, and exit 1 if the snapshot is internally
                inconsistent.

``query`` and ``serve-batch`` accept ``--trace <path>`` (write the full
telemetry snapshot as versioned JSON) and ``--verbose`` (print a one-line
cache/latency summary); either flag enables the telemetry collector for
the duration of the command.

Graph files use the formats of :mod:`repro.graphs.io` (``.npz`` or edge-list
text, selected by extension).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

import numpy as np

import repro
from repro import telemetry
from repro.errors import TelemetryError
from repro.graphs import io as graph_io
from repro.quantum.batched import RNG_CONTRACTS
from repro.service import (
    JobEngine,
    JobState,
    QueryEngine,
    QueryRequest,
    ResultStore,
    RetryPolicy,
    SolveOptions,
    available_solvers,
)


def _load_graph(path: str):
    return graph_io.load_graph(path)


def _save_graph(graph, path: str) -> None:
    graph_io.save_graph(graph, path)


def _make_backend(name: str, scale: float, seed: int, rng_contract: str = "v2"):
    constants = repro.PaperConstants(scale=scale)
    if name == "quantum":
        return repro.QuantumFindEdges(
            constants=constants, rng=seed, rng_contract=rng_contract
        )
    if name == "classical":
        return repro.GroverFreeFindEdges(constants=constants, rng=seed)
    if name == "dolev":
        return repro.DolevFindEdges()
    if name == "reference":
        return repro.ReferenceFindEdges()
    raise SystemExit(f"unknown backend {name!r}")


def _cmd_apsp(args: argparse.Namespace) -> int:
    if args.graph:
        graph = _load_graph(args.graph)
        if not isinstance(graph, repro.WeightedDigraph):
            raise SystemExit("apsp expects a directed graph")
    else:
        graph = repro.random_digraph_no_negative_cycle(
            args.n, density=args.density, max_weight=args.max_weight, rng=args.seed
        )
    backend = _make_backend(args.backend, args.scale, args.seed, args.rng_contract)
    report = repro.QuantumAPSP(backend=backend).solve(graph)
    truth = repro.floyd_warshall(graph)
    exact = np.array_equal(report.distances, truth)
    print(f"n={graph.num_vertices} backend={args.backend} rounds={report.rounds:,.0f}")
    print(f"exact={exact} squarings={report.squarings} "
          f"find_edges_calls={report.find_edges_calls}")
    if args.verbose:
        print(report.ledger.as_table())
    if args.out:
        np.savez_compressed(args.out, distances=report.distances)
        print(f"distances written to {args.out}")
    return 0 if exact else 1


def _cmd_find_edges(args: argparse.Namespace) -> int:
    if args.graph:
        graph = _load_graph(args.graph)
        if not isinstance(graph, repro.UndirectedWeightedGraph):
            raise SystemExit("find-edges expects an undirected graph")
    else:
        graph = repro.random_undirected_graph(
            args.n, density=args.density, max_weight=args.max_weight, rng=args.seed
        )
    instance = repro.FindEdgesInstance(graph)
    backend = _make_backend(args.backend, args.scale, args.seed, args.rng_contract)
    solution = backend.find_edges(instance)
    truth = instance.reference_solution()
    print(
        f"n={graph.num_vertices} backend={args.backend} "
        f"found={len(solution.pairs)}/{len(truth)} rounds={solution.rounds:,.0f}"
    )
    false_pos = solution.pairs - truth
    print(f"false_positives={len(false_pos)} missed={len(truth - solution.pairs)}")
    if args.verbose:
        for pair in sorted(solution.pairs):
            print(f"  {pair}")
    return 0 if not false_pos else 1


def _cmd_diameter(args: argparse.Namespace) -> int:
    if args.graph:
        graph = _load_graph(args.graph)
    else:
        graph = repro.random_digraph_no_negative_cycle(
            args.n, density=args.density, max_weight=args.max_weight, rng=args.seed
        )
    report = repro.quantum_diameter(graph, rng=args.seed)
    exact = float(repro.eccentricities(graph).max())
    print(
        f"diameter={report.diameter:g} exact={exact:g} "
        f"searches={report.search_calls} rounds={report.rounds:,.0f}"
    )
    return 0 if report.diameter == exact else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "digraph":
        graph = repro.random_digraph_no_negative_cycle(
            args.n, density=args.density, max_weight=args.max_weight, rng=args.seed
        )
    elif args.kind == "undirected":
        graph = repro.random_undirected_graph(
            args.n, density=args.density, max_weight=args.max_weight, rng=args.seed
        )
    else:  # planted
        graph, planted = repro.planted_negative_triangle_graph(
            args.n, num_planted=max(1, args.n // 5), rng=args.seed
        )
        print(f"planted pairs: {sorted(planted)}")
    _save_graph(graph, args.out)
    print(f"{graph!r} written to {args.out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    if not isinstance(graph, repro.WeightedDigraph):
        raise SystemExit("validate expects a directed graph")
    with np.load(args.distances) as data:
        distances = data["distances"]
    validation = repro.validate_apsp(graph, distances)
    print(
        f"zero_diagonal={validation.zero_diagonal} dominant={validation.dominant} "
        f"tight={validation.tight} unreachable_ok={validation.unreachable_consistent}"
    )
    print(f"valid={validation.valid}")
    return 0 if validation.valid else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.telemetry import report as telemetry_report

    try:
        snapshot = telemetry_report.load_snapshot(args.trace)
    except FileNotFoundError:
        raise SystemExit(f"no such trace file: {args.trace}")
    except (json.JSONDecodeError, TelemetryError) as error:
        raise SystemExit(f"not a telemetry trace: {error}")
    problems = telemetry_report.consistency_problems(snapshot)
    if args.json:
        print(
            json.dumps(
                telemetry_report.phase_breakdown(snapshot),
                indent=2, sort_keys=True, default=_json_default,
            )
        )
    else:
        print(
            telemetry_report.format_snapshot(
                snapshot, title=f"telemetry trace {args.trace}"
            )
        )
    for problem in problems:
        print(f"inconsistency: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_model(args: argparse.Namespace) -> int:
    model = repro.RoundModel()
    rows = []
    for k in range(args.min_exp, args.max_exp + 1, args.step):
        n = 2 ** k
        rows.append(
            [
                f"2^{k}",
                model.quantum_apsp_leading(n),
                model.classical_apsp_leading(n),
                model.quantum_apsp_rounds(n, args.max_weight),
                model.classical_apsp_rounds(n, args.max_weight),
            ]
        )
    print(
        repro.format_table(
            ["n", "quantum (leading)", "classical (leading)", "quantum (full)", "classical (full)"],
            rows,
            title="analytic round model",
        )
    )
    return 0


def _make_store(args: argparse.Namespace) -> ResultStore:
    cache_dir = getattr(args, "cache_dir", None)
    num_shards = getattr(args, "shards", None) or 1
    if cache_dir:
        return ResultStore(cache_dir=cache_dir, num_shards=num_shards)
    return ResultStore(num_shards=num_shards)


def _retry_policy(args: argparse.Namespace):
    """A :class:`RetryPolicy` honoring ``--retries`` (None = engine default)."""
    retries = getattr(args, "retries", None)
    if retries is None:
        return None
    try:
        return RetryPolicy(max_attempts=retries, seed=args.seed)
    except ValueError as error:
        raise SystemExit(f"bad --retries: {error}")


def _json_default(value):
    """JSON fallback for numpy scalars landing in span attributes."""
    if hasattr(value, "item"):
        return value.item()
    return str(value)


@contextmanager
def _maybe_collect(args: argparse.Namespace):
    """Install a telemetry collector when ``--trace``/``--verbose`` ask for
    one; write the trace file on the way out.  Yields the collector or
    ``None`` (telemetry stays fully disabled)."""
    trace = getattr(args, "trace", None)
    if not trace and not getattr(args, "verbose", False):
        yield None
        return
    with telemetry.collect() as collector:
        yield collector
    if trace:
        with open(trace, "w", encoding="utf-8") as handle:
            json.dump(
                collector.snapshot(), handle,
                indent=2, sort_keys=True, default=_json_default,
            )
            handle.write("\n")
        print(f"telemetry trace written to {trace}")


def _quantile_text(collector, name: str) -> str:
    """``mean=…s p95=…s`` for a recorded histogram (empty string if none)."""
    if collector is None or name not in collector.metrics:
        return ""
    histogram = collector.metrics.histogram(name)
    if histogram.count == 0:
        return ""
    return f"mean={histogram.mean:.4f}s p95={histogram.quantile(0.95):.4f}s"


def _verbose_summary(collector) -> None:
    """The ``--verbose`` one-liner: cache traffic + wall-time quantiles."""
    if collector is None:
        return
    counters = collector.metrics.snapshot()["counters"]
    parts = [
        f"store hits={counters.get('store.hits', 0):.0f}"
        f" misses={counters.get('store.misses', 0):.0f}"
        f" evictions={counters.get('store.evictions', 0):.0f}"
    ]
    query_text = _quantile_text(collector, "queries.latency_seconds")
    if query_text:
        parts.append(f"query {query_text}")
    wait_text = _quantile_text(collector, "jobs.queue_wait_seconds")
    if wait_text:
        parts.append(f"job wait {wait_text}")
    run_text = _quantile_text(collector, "jobs.run_seconds")
    if run_text:
        parts.append(f"job run {run_text}")
    recovery = [
        (label, counters.get(name, 0))
        for label, name in (
            ("retries", "jobs.retries"),
            ("timeouts", "jobs.timeouts"),
            ("worker crashes", "jobs.worker_crashes"),
            ("quarantined", "store.quarantined"),
            ("degraded", "queries.degraded"),
        )
        if counters.get(name, 0)
    ]
    if recovery:
        parts.append(
            "recovery "
            + " ".join(f"{label}={count:.0f}" for label, count in recovery)
        )
    parts.append(f"rng draws={collector.rng_draws}")
    print(f"telemetry: {'; '.join(parts)}")


def _cmd_query(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    if not isinstance(graph, repro.WeightedDigraph):
        raise SystemExit("query expects a directed graph")
    requests = [QueryRequest("dist", u, v) for u, v in args.dist or []]
    requests += [QueryRequest("path", u, v) for u, v in args.path or []]
    if args.negative_cycle:
        requests.append(QueryRequest("negative-cycle"))
    if args.diameter or not requests:
        requests.append(QueryRequest("diameter"))
    with _maybe_collect(args) as collector:
        engine = QueryEngine(
            solver=args.solver,
            options=SolveOptions(
                scale=args.scale, seed=args.seed,
                rng_contract=args.rng_contract,
            ),
            store=_make_store(args),
            fallback=args.fallback,
            retry_policy=_retry_policy(args),
            timeout_s=args.timeout,
        )
        try:
            results = engine.query_batch(graph, requests, timeout_s=args.timeout)
        except (repro.GraphError, repro.ServiceError) as error:
            raise SystemExit(f"query failed: {error}")
        # A batch answered on a negative-cycle graph carries None for every
        # dist/path/diameter request — distances are undefined there.
        negative = any(
            r.request.kind == "negative-cycle" and r.value for r in results
        )
        for result in results:
            req = result.request
            if negative and result.value is None:
                label = req.kind if req.u < 0 else f"{req.kind} {req.u} -> {req.v}"
                print(f"{label}: undefined (graph has a negative cycle)")
            elif req.kind == "dist":
                print(f"dist {req.u} -> {req.v}: {result.value:g}")
            elif req.kind == "path":
                rendered = (
                    " -> ".join(map(str, result.value))
                    if result.value is not None
                    else "unreachable"
                )
                print(f"path {req.u} -> {req.v}: {rendered}")
            else:
                print(f"{req.kind}: {result.value}")
        degraded = {r.fallback_solver for r in results if r.degraded}
        if degraded:
            print(
                f"degraded: {args.solver!r} failed, answers served by "
                f"fallback solver(s) {', '.join(sorted(map(repr, degraded)))}"
            )
        stats = engine.store.stats
        print(
            f"served {len(results)} queries with {engine.solver_invocations} solve(s) "
            f"[cache hits={stats.hits} misses={stats.misses}]"
        )
        _verbose_summary(collector)
    return 0


def _cmd_serve_batch(args: argparse.Namespace) -> int:
    if args.workers < 0:
        raise SystemExit(f"bad --workers: must be >= 0, got {args.workers}")
    graphs = []
    labels = []
    if args.graphs:
        for path in args.graphs:
            graph = _load_graph(path)
            if not isinstance(graph, repro.WeightedDigraph):
                raise SystemExit(f"{path}: serve-batch expects directed graphs")
            graphs.append(graph)
            labels.append(path)
    else:
        for index in range(args.count):
            graphs.append(
                repro.random_digraph_no_negative_cycle(
                    args.n,
                    density=args.density,
                    max_weight=args.max_weight,
                    rng=args.seed + index,
                )
            )
            labels.append(f"generated[seed={args.seed + index}]")
    with _maybe_collect(args) as collector:
        engine = JobEngine(
            store=_make_store(args),
            solver=args.solver,
            options=SolveOptions(
                scale=args.scale, seed=args.seed,
                rng_contract=args.rng_contract,
            ),
            retry_policy=_retry_policy(args),
            timeout_s=args.timeout,
            fallback=args.fallback,
        )
        jobs = [engine.submit(graph) for graph in graphs]
        engine.run_pending_parallel(max_workers=args.workers or None)
        failed = 0
        for label, job in zip(labels, jobs):
            line = (
                f"{job.job_id} {job.digest[:12]} {job.state.value:>7}"
                f" solver={job.solver}"
            )
            if job.degraded_from is not None:
                line += f" degraded(from={job.degraded_from})"
            if job.attempts > 1:
                line += f" attempts={job.attempts} retry_wait={job.retry_wait_s:.3f}s"
            if job.state is JobState.DONE:
                line += (
                    f" rounds={job.artifact.rounds:,.0f}"
                    f" cache_hit={job.cache_hit}"
                )
                if job.worker_pid is not None:
                    line += f" pid={job.worker_pid}"
            elif job.state is JobState.FAILED:
                failed += 1
                line += f" error={job.error_type}: {job.error}"
            if not job.cache_hit:
                line += f" wait={job.queue_wait_s:.3f}s run={job.duration_s:.3f}s"
            print(f"{line}  ({label})")
            if job.state is JobState.FAILED and args.verbose and job.traceback:
                print("  worker traceback (truncated):")
                for traceback_line in job.traceback.rstrip().splitlines():
                    print(f"    {traceback_line}")
        stats = engine.store.stats
        print(
            f"{len(jobs)} job(s), {failed} failed, {engine.solver_invocations} solve(s) "
            f"[cache hits={stats.hits} misses={stats.misses}]"
        )
        _verbose_summary(collector)
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quantum distributed APSP in the CONGEST-CLIQUE model "
        "(Izumi & Le Gall, PODC 2019) — reproduction CLI.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {repro.__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_backend=True):
        p.add_argument("--graph", help="graph file (.npz or edge list)")
        p.add_argument("--n", type=int, default=10, help="generated-instance size")
        p.add_argument("--density", type=float, default=0.5)
        p.add_argument("--max-weight", type=int, default=8)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--verbose", action="store_true")
        if needs_backend:
            p.add_argument(
                "--backend",
                choices=["quantum", "classical", "dolev", "reference"],
                default="quantum",
            )
            p.add_argument(
                "--scale",
                type=float,
                default=0.5,
                help="constants scale knob (1.0 = the paper's constants)",
            )
            p.add_argument(
                "--rng-contract",
                choices=RNG_CONTRACTS,
                default="v2",
                help="RNG consumption contract of the quantum backend "
                "(v2 = batched draws, v1 = sequential reference streams)",
            )

    p_apsp = sub.add_parser("apsp", help="solve all-pairs shortest paths")
    add_common(p_apsp)
    p_apsp.add_argument("--out", help="write distances to this .npz")
    p_apsp.set_defaults(func=_cmd_apsp)

    p_fe = sub.add_parser("find-edges", help="find edges in negative triangles")
    add_common(p_fe)
    p_fe.set_defaults(func=_cmd_find_edges)

    p_diam = sub.add_parser("diameter", help="quantum diameter (§4.1 example)")
    add_common(p_diam, needs_backend=False)
    p_diam.set_defaults(func=_cmd_diameter)

    p_gen = sub.add_parser("generate", help="write a random instance")
    add_common(p_gen, needs_backend=False)
    p_gen.add_argument(
        "--kind", choices=["digraph", "undirected", "planted"], default="digraph"
    )
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_val = sub.add_parser("validate", help="certificate-check a distance matrix")
    p_val.add_argument("--graph", required=True)
    p_val.add_argument("--distances", required=True, help=".npz with 'distances'")
    p_val.set_defaults(func=_cmd_validate)

    def add_service_common(p):
        p.add_argument(
            "--solver",
            choices=available_solvers(),
            default="reference",
            help="registered solver used on cache misses",
        )
        p.add_argument("--scale", type=float, default=0.5)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--rng-contract",
            choices=RNG_CONTRACTS,
            default="v2",
            help="RNG consumption contract for contract-aware solvers",
        )
        p.add_argument("--cache-dir", help="persist closures as .npz under this dir")
        p.add_argument(
            "--shards", type=int, default=1, metavar="N",
            help="split the result store across N digest-prefix shards "
            "(own lock/LRU budget/quarantine per shard; 1 keeps the flat "
            "layout)",
        )
        p.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="wall-clock budget of each solver a job runs, across its "
            "retry attempts; it starts over for every fallback solver "
            "(query: also one deadline over the whole batch)",
        )
        p.add_argument(
            "--retries", type=int, default=None, metavar="ATTEMPTS",
            help="max solve attempts per job for transient failures "
            "(1 disables retries; default: engine policy)",
        )
        p.add_argument(
            "--fallback", action="append", choices=available_solvers(),
            metavar="SOLVER",
            help="fallback solver tried, with fresh retries and --timeout "
            "budget, when the primary fails for any reason but a negative "
            "cycle (repeatable; ordered)",
        )
        p.add_argument(
            "--trace",
            help="write the telemetry snapshot (spans, metrics, RNG, congest) "
            "to this JSON file",
        )
        p.add_argument(
            "--verbose", action="store_true",
            help="print a cache/latency telemetry summary line",
        )

    p_query = sub.add_parser(
        "query", help="answer point queries from a cached closure"
    )
    p_query.add_argument("--graph", required=True, help="graph file (.npz or edge list)")
    add_service_common(p_query)
    p_query.add_argument(
        "--dist", nargs=2, type=int, metavar=("U", "V"), action="append",
        help="distance query (repeatable)",
    )
    p_query.add_argument(
        "--path", nargs=2, type=int, metavar=("U", "V"), action="append",
        help="shortest-path query (repeatable)",
    )
    p_query.add_argument("--diameter", action="store_true")
    p_query.add_argument("--negative-cycle", action="store_true")
    p_query.set_defaults(func=_cmd_query)

    p_serve = sub.add_parser(
        "serve-batch", help="solve a batch of graphs as (optionally parallel) jobs"
    )
    p_serve.add_argument(
        "--graphs", nargs="+", help="graph files; omit to generate instances"
    )
    add_service_common(p_serve)
    p_serve.add_argument("--count", type=int, default=4, help="generated-batch size")
    p_serve.add_argument("--n", type=int, default=12)
    p_serve.add_argument("--density", type=float, default=0.5)
    p_serve.add_argument("--max-weight", type=int, default=8)
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width of the one attempt loop; 1 runs jobs "
        "inline, 0 derives the width from the machine's cpu count (capped)",
    )
    p_serve.set_defaults(func=_cmd_serve_batch)

    p_stats = sub.add_parser(
        "stats", help="summarize a telemetry trace written by --trace"
    )
    p_stats.add_argument("trace", help="telemetry JSON file (repro.telemetry/v1)")
    p_stats.add_argument(
        "--json", action="store_true",
        help="emit the phase-breakdown rollup as JSON instead of tables",
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_model = sub.add_parser("model", help="analytic round-model table")
    p_model.add_argument("--min-exp", type=int, default=4)
    p_model.add_argument("--max-exp", type=int, default=32)
    p_model.add_argument("--step", type=int, default=4)
    p_model.add_argument("--max-weight", type=int, default=8)
    p_model.set_defaults(func=_cmd_model)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
