"""perfbench: the repo benchmark for the quantum APSP reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload pairs-n1024 --seed 0 --seconds 12 --trace 0

The program under test is imported from ``src/`` next to this directory.
One run builds the workload's inputs from ``--seed``, then repeats set-up
and the measured unit until ``--seconds`` have passed (at least one unit),
checking every unit's outputs against ground truth.

* ``--trace 0`` measures the end-to-end metrics with tracing off.
* ``--trace 1`` alternates untraced and traced units and reports the
  per-layer metrics of the traced ones (medians); it also checks that the
  traced outputs are byte-identical to the untraced ones, that the
  per-layer self times add up to the traced wall time, and that no more
  than a small share of that wall time lies outside every layer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record with
the host fingerprint, per-unit timings and (when traced) the layer self
times and spans is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = HERE / "out"

#: ``(name, unit)`` of every end-to-end metric (reported with ``--trace 0``).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
)

#: ``(name, unit)`` of every per-layer metric (reported with ``--trace 1``).
PER_LAYER = (
    ("compute_pairs.calls", "count"),
    ("compute_pairs.aborts", "count"),
    ("compute_pairs.step0_setup_s", "s"),
    ("compute_pairs.step1_load_s", "s"),
    ("compute_pairs.step2_sample_self_s", "s"),
    ("compute_pairs.step3_identify_s", "s"),
    ("compute_pairs.step3_search_s", "s"),
    ("evaluation.block_two_hop_s", "s"),
    ("evaluation.block_two_hop_calls", "count"),
    ("evaluation.block_two_hop_cells", "count"),
    ("evaluation.block_two_hop_bytes", "bytes"),
    ("identify_class.self_s", "s"),
    ("quantum_step3.self_s", "s"),
    ("quantum_step3.register_lanes_s", "s"),
    ("quantum_step3.found_pairs", "count"),
    ("quantum_step3.searches", "count"),
    ("quantum_step3.found_per_search", "ratio"),
    ("batched.add_lanes_s", "s"),
    ("batched.run_s", "s"),
    ("batched.lanes", "count"),
    ("congest.deliver_s", "s"),
    ("congest.deliver_calls", "count"),
    ("congest.messages", "count"),
    ("congest.words", "words"),
    ("congest.broadcast_all_s", "s"),
    ("congest.broadcast_volume_s", "s"),
    ("congest.register_scheme_s", "s"),
    ("congest.rounds", "rounds"),
    ("find_edges.calls", "count"),
    ("find_edges.self_s", "s"),
    ("reductions.self_s", "s"),
    ("apsp_solver.self_s", "s"),
    ("solvers.solve_s", "s"),
    ("jobs.submit_ms", "ms"),
    ("jobs.wave_s", "s"),
    ("jobs.queue_wait_s", "s"),
    ("jobs.worker_run_s", "s"),
    ("jobs.dispatch_overhead_s", "s"),
    ("jobs.retries", "count"),
    ("jobs.failed", "count"),
    ("jobs.pool_rebuilds", "count"),
    ("store.get_memory_ms", "ms"),
    ("store.get_disk_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.disk_loads", "count"),
    ("store.evictions", "count"),
    ("store.memory_hit_ratio", "ratio"),
    ("store.bytes_on_disk", "bytes"),
    ("store.quarantined", "count"),
    ("queries.batch_self_ms", "ms"),
    ("queries.batches", "count"),
    ("matrix.reconstruct_path_us", "us"),
    ("matrix.batch_distance_lookup_us", "us"),
    ("parallel.dispatcher_start_s", "s"),
    ("parallel.make_arena_s", "s"),
    ("parallel.map_arena_s", "s"),
    ("parallel.shutdown_s", "s"),
    ("parallel.arena_bytes", "bytes"),
    ("parallel.tasks", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_s", "s"),
)

#: Per-layer times whose share of the traced wall the run prints; the
#: ROADMAP profile of ``pairs-n1024`` predicts ~30%, ~30%, ~12% and ~5%.
SHARES = (
    "evaluation.block_two_hop_s",
    "quantum_step3.self_s",
    "identify_class.self_s",
    "batched.run_s",
)

#: Import-time samples (fresh interpreters) behind ``setup_s``.
IMPORT_SAMPLES = 5

#: Allowed gap between the traced wall and the summed self times.  Self
#: times telescope to the root span, so this only catches clock skew
#: between the root span and the unit timer, or spans that overlap.
RECONCILE_TOLERANCE_S = 1e-3

#: Largest share of the traced wall that may lie outside every layer: the
#: benchmark's own loop plus any library code that no span covers.
UNATTRIBUTED_MAX_SHARE = 0.05


def import_seconds() -> float:
    """Median time to ``import repro`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = "import time; t = time.perf_counter(); import repro; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, cwd=REPO,
            capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def host_fingerprint() -> dict:
    import numpy

    commit = None
    if (REPO / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def shm_segments() -> set:
    """Shared-memory blocks (``psm_*``) currently in ``/dev/shm``."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


def stop_resource_tracker() -> None:
    """Stop and reap the tracker process ``multiprocessing`` starts for the
    sweep's shared-memory arenas; left alone it outlives the run briefly."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the peak of its largest child.

    Pool workers are forked, so a worker's peak includes the pages it
    shares with the parent: on ``serve-mixed`` and ``sweep-n16`` the
    parent's resident data is counted twice.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def percentile(samples, q: float) -> float:
    import numpy

    return float(numpy.percentile(numpy.asarray(samples, dtype=float), q))


def trace_problems(layers: dict, wall_s: float) -> list:
    """What the layer self times of one traced unit fail to explain."""
    problems = []
    gap = sum(layers.values()) - wall_s
    if abs(gap) > RECONCILE_TOLERANCE_S:
        problems.append(f"layer self times miss the traced wall by {gap:.6f} s")
    share = layers.get("unattributed", 0.0) / wall_s
    if share > UNATTRIBUTED_MAX_SHARE:
        problems.append(
            f"{share:.1%} of the traced wall lies in no layer "
            f"(at most {UNATTRIBUTED_MAX_SHARE:.0%} allowed)"
        )
    return problems


class Run:
    """One benchmark run: repeated set-up + unit + check, then the report."""

    def __init__(self, workload, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.setups: list[float] = []
        self.warmup = []  # untraced, checked but not timed
        self.units = []  # untraced, timed
        self.traced = []  # (unit, per-layer metrics, layer self times)
        self.last_trace = None  # the last traced unit's collector (its spans)
        self.digests: set[str] = set()
        self.problems: list[str] = []

    def once(self, traced: bool):
        import bench_trace

        workload = self.workload
        shm_before = shm_segments()
        started = time.perf_counter()
        objects = workload.build()
        self.setups.append(time.perf_counter() - started)
        try:
            if traced:
                with bench_trace.tracing() as collector:
                    started = time.perf_counter()
                    with collector.span(bench_trace.ROOT):
                        unit = workload.unit(objects)
                    unit.wall_s = time.perf_counter() - started
                extras = workload.extras(objects, unit)
            else:
                started = time.perf_counter()
                unit = workload.unit(objects)
                unit.wall_s = time.perf_counter() - started
        finally:
            workload.close(objects)
        leaked = shm_segments() - shm_before
        if leaked:
            self.problems.append(f"shared memory left behind: {sorted(leaked)}")
        workload.canonical(unit)
        workload.check(unit)
        self.digests.add(workload.digest(unit))
        if not traced and not self.warmup and not self.units:
            self.self_test(unit)
        unit.output = None  # outputs of past units would grow the peak RSS
        if not traced:
            self.units.append(unit)
            return
        untraced = statistics.median(u.wall_s for u in self.units)
        metrics, layers = bench_trace.layer_metrics(collector, extras, unit.wall_s, untraced)
        self.problems += trace_problems(layers, unit.wall_s)
        self.traced.append((unit, metrics, layers))
        self.last_trace = collector

    def self_test(self, unit) -> None:
        """Feed one corrupted answer to the check; it must count as failed."""
        probe = type(unit)(output=self.workload.corrupt(unit.output), graphs=unit.graphs)
        self.workload.check(probe)
        if probe.failed < 1:
            self.problems.append("self-test: a corrupted answer passed the check")

    def measure(self) -> None:
        if self.workload.WARMUP:
            self.once(traced=False)
            self.warmup.append(self.units.pop())
        started = time.perf_counter()
        while True:
            self.once(traced=False)
            if self.trace:
                self.once(traced=True)
            if time.perf_counter() - started >= self.seconds:
                break
        if len(self.digests) != 1:
            self.problems.append(
                f"{len(self.digests)} distinct outputs across units"
                + (" (traced vs untraced)" if self.trace else "")
            )

    @property
    def all_units(self):
        return self.warmup + self.units + [entry[0] for entry in self.traced]

    def end_to_end(self) -> dict:
        units = self.units
        wall = statistics.median(unit.wall_s for unit in units)
        latencies = [sample for unit in units for sample in unit.latencies_s]
        if latencies:  # one sample per query batch: 2400 per serving unit
            p50, p99 = percentile(latencies, 50), percentile(latencies, 99)
        else:
            # This workload serves no queries, but every run reports every
            # end-to-end metric: both read the median unit time.
            p50 = p99 = wall
        # Read the peak before the import probes: a forked child counts the
        # parent's resident pages until it execs.
        rss_mb = peak_rss_mb()
        return {
            "setup_s": import_seconds() + statistics.median(self.setups),
            "wall_s": wall,
            "peak_rss_mb": rss_mb,
            "jobs_per_s": statistics.median(unit.graphs / unit.write_s for unit in units),
            "query_p50_ms": p50 * 1e3,
            "query_p99_ms": p99 * 1e3,
        }

    def per_layer(self) -> dict:
        names = [name for name, _ in PER_LAYER]
        return {
            name: statistics.median(entry[1].get(name, 0.0) for entry in self.traced)
            for name in names
        }


def write_record(run: Run, args, values: dict, host: dict) -> pathlib.Path:
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "metrics": values,
        "warmup_walls_s": [unit.wall_s for unit in run.warmup],
        "unit_walls_s": [unit.wall_s for unit in run.units],
        "traced_walls_s": [entry[0].wall_s for entry in run.traced],
        "setups_s": run.setups,
        "problems": run.problems,
    }
    if run.traced:
        collector = run.last_trace
        record["layers_self_s"] = run.traced[-1][2]
        record["spans"] = [
            [r.name, r.span_id, r.parent_id, r.start_s, r.duration_s, r.children_s]
            for r in collector.records
        ]
        record["worker_summaries"] = collector.worker_summaries
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=float))
    return path


def print_layers(run: Run, values: dict) -> None:
    unit, _, layers = run.traced[-1]
    print(f"# layer self times of the last traced unit (wall {unit.wall_s:.3f} s):")
    for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
        print(f"#   {layer:<16} {seconds:10.4f} s  {100 * seconds / unit.wall_s:5.1f}%")
    wall = statistics.median(entry[0].wall_s for entry in run.traced)
    print(f"# shares of the traced wall_s ({wall:.3f} s):")
    for name in SHARES:
        print(f"#   {name:<28} {100 * values[name] / wall:5.1f}%")


def parse_args(argv):
    from bench_workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    sys.path.insert(0, str(SRC))
    try:
        import repro  # the program under test
    except ImportError as error:
        print(f"perfbench: cannot import repro from {SRC}: {error}", file=sys.stderr)
        return 2
    if SRC not in pathlib.Path(repro.__file__).resolve().parents:
        print(f"perfbench: repro was imported from outside {SRC}", file=sys.stderr)
        return 2
    from bench_workloads import WORKLOADS

    args = parse_args(argv)
    host = host_fingerprint()
    host["loadavg_start"] = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    run = Run(workload, args.seconds, bool(args.trace))
    run.measure()
    stop_resource_tracker()
    if args.trace:
        values, units = run.per_layer(), dict(PER_LAYER)
    else:
        values, units = run.end_to_end(), dict(END_TO_END)
    host["loadavg_end"] = os.getloadavg()
    units_run = run.all_units
    attempted = sum(unit.attempted for unit in units_run)
    failed = sum(unit.failed for unit in units_run)
    record = write_record(run, args, values, host)
    print(f"# host {json.dumps(host)}")
    print(
        f"# units {len(run.warmup)} warm-up, {len(run.units)} untraced, "
        f"{len(run.traced)} traced; record {record.relative_to(REPO)}"
    )
    if args.trace:
        print_layers(run, values)
    for problem in run.problems:
        print(f"# PROBLEM {problem}")
    result = {
        "correct": failed == 0 and not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
