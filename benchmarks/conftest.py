"""Benchmark-harness helpers.

Each ``test_eN_*.py`` regenerates one experiment from DESIGN.md's index:
it sweeps the workload, prints the paper-shaped table, writes it under
``benchmarks/results/`` (the files EXPERIMENTS.md cites) when
``REPRO_BENCH_WRITE=1``, and times one
representative unit through the ``benchmark`` fixture so the whole suite
runs under ``pytest benchmarks/ --benchmark-only``.

Heavy experiments use ``benchmark.pedantic(..., rounds=1, iterations=1)``:
the sweep itself is the measurement; re-running it for timing statistics
would multiply minutes of simulation for no extra information.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import report as telemetry_report

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(autouse=True)
def _bench_telemetry():
    """Run every benchmark under a telemetry collector.

    Strictly observational — counting generators are stream-identical and
    the bridged tracer only mirrors records, so the committed tables stay
    byte-identical (e17 asserts the overhead contract).  The collector is
    what lets :func:`write_metrics` attach the ``phase_breakdown`` column
    to every result row.

    Multi-process benchmarks report their workers' phases too: worker
    summaries shipped back by the :mod:`repro.parallel` dispatcher (which
    batch sweeps and the job engine share) land in this collector via
    :meth:`~repro.telemetry.collector.TelemetryCollector.merge_worker`,
    and :func:`~repro.telemetry.report.phase_breakdown` folds them into the
    per-phase totals — so a pooled run's breakdown shows the solve work
    itself, not just the parent's dispatch overhead.
    """
    with telemetry.collect() as collector:
        yield collector


#: Results are written only when this environment variable is ``1``, so a
#: plain ``pytest`` run leaves the committed ``benchmarks/results/`` alone.
WRITE_ENV = "REPRO_BENCH_WRITE"


def _persist(path: pathlib.Path, text: str) -> str:
    """Write ``text`` to ``path`` when asked to; say what happened."""
    if os.environ.get(WRITE_ENV) != "1":
        return f"[not written; set {WRITE_ENV}=1 to write {path}]"
    RESULTS_DIR.mkdir(exist_ok=True)
    path.write_text(text)
    return f"[written to {path}]"


def write_result(name: str, text: str) -> None:
    """Print an experiment's table; persist it under benchmarks/results/
    when ``REPRO_BENCH_WRITE=1``."""
    note = _persist(RESULTS_DIR / f"{name}.txt", text + "\n")
    print(f"\n{text}\n{note}")


def current_commit() -> str:
    """Short hash of HEAD, or "unknown" outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def write_metrics(experiment: str, records: list[dict]) -> None:
    """Print machine-readable metrics; persist them as
    ``results/<experiment>.json`` when ``REPRO_BENCH_WRITE=1``.

    Each record carries the cross-PR diffable schema — ``experiment``,
    ``n``, ``wall_seconds``, ``rounds``, ``commit`` — plus any extra keys
    the experiment finds useful; ``tools/bench_summary.py`` rolls every
    such file into ``BENCH_SUMMARY.json`` for trajectory diffs.

    When the ambient telemetry collector is live (the autouse
    ``_bench_telemetry`` fixture), every record additionally carries the
    test-so-far ``phase_breakdown`` — per-span wall/self seconds, RNG
    draws, and per-phase congest rounds (``repro.telemetry/v1``, validated
    by ``tools/bench_summary.py --check``).
    """
    commit = current_commit()
    breakdown = None
    collector = telemetry.active()
    if collector is not None:
        breakdown = telemetry_report.phase_breakdown(collector.snapshot())
    payload = [
        {
            "experiment": experiment,
            "n": record.get("n"),
            "wall_seconds": record.get("wall_seconds"),
            "rounds": record.get("rounds"),
            "commit": commit,
            **({"phase_breakdown": breakdown} if breakdown is not None else {}),
            **{
                key: value
                for key, value in record.items()
                if key not in ("n", "wall_seconds", "rounds")
            },
        }
        for record in records
    ]
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    note = _persist(RESULTS_DIR / f"{experiment}.json", text)
    print(f"\n{json.dumps(records, default=str)}\n{note}")


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
