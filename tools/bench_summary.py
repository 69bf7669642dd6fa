#!/usr/bin/env python
"""Roll the machine-readable benchmark metrics into one summary file.

Benchmark runs emit ``benchmarks/results/<experiment>.json`` records with
the schema ``{experiment, n, wall_seconds, rounds, commit}`` (see
``write_metrics`` in ``benchmarks/conftest.py``).  This script collects
every such file into ``BENCH_SUMMARY.json`` at the repository root, keyed
by experiment, so the performance trajectory is diffable across PRs with
plain ``git diff``.

Besides the raw per-experiment records, the summary carries a
``trajectory`` table — one ``{experiment, commit, n, wall_seconds}`` row
per measurement, merged with the rows already in the committed summary —
so the cross-PR speedup history stays machine-readable even though each
benchmark run overwrites its own results file with the current commit's
numbers.

Usage::

    python tools/bench_summary.py [--output BENCH_SUMMARY.json] [--check]

``--check`` validates instead of (only) writing: every record must carry a
non-empty ``commit`` and a numeric ``wall_seconds``, experiment ids across
``benchmarks/test_eN_*.py`` must be unique (two files once both claimed
e12), any ``phase_breakdown`` column must match the ``repro.telemetry/v1``
schema, and the committed summary's trajectory must already contain the
current records — so half-filled result rows, id collisions, malformed
telemetry columns, and a stale ``BENCH_SUMMARY.json`` all fail CI instead
of silently polluting the cross-PR trajectory.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"
BENCH_DIR = REPO_ROOT / "benchmarks"

_EXPERIMENT_FILE = re.compile(r"test_e(\d+)[a-z]?_")

#: The telemetry snapshot schema ``phase_breakdown`` columns must carry
#: (see ``repro.telemetry.report.phase_breakdown``).
_BREAKDOWN_SCHEMA = "repro.telemetry/v1"
_PHASE_NUMERIC_KEYS = ("count", "wall_seconds", "self_seconds", "rng_calls", "rng_draws")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def breakdown_problems(where: str, breakdown) -> list[str]:
    """Schema violations of one record's ``phase_breakdown`` column."""
    if not isinstance(breakdown, dict):
        return [f"{where}: phase_breakdown is not an object"]
    problems: list[str] = []
    schema = breakdown.get("schema")
    if schema != _BREAKDOWN_SCHEMA:
        problems.append(
            f"{where}: phase_breakdown schema {schema!r} != {_BREAKDOWN_SCHEMA!r}"
        )
    phases = breakdown.get("phases")
    if not isinstance(phases, dict):
        problems.append(f"{where}: phase_breakdown.phases is not an object")
    else:
        for name, entry in sorted(phases.items()):
            if not isinstance(entry, dict):
                problems.append(f"{where}: phase {name!r} is not an object")
                continue
            for key in _PHASE_NUMERIC_KEYS:
                if not _is_number(entry.get(key)):
                    problems.append(
                        f"{where}: phase {name!r} missing numeric {key!r}"
                    )
    rng = breakdown.get("rng")
    if not isinstance(rng, dict) or not all(
        _is_number(rng.get(key)) for key in ("calls", "draws")
    ):
        problems.append(f"{where}: phase_breakdown.rng missing calls/draws")
    congest = breakdown.get("congest")
    if not isinstance(congest, dict):
        problems.append(f"{where}: phase_breakdown.congest is not an object")
    else:
        for phase, entry in sorted(congest.items()):
            if not isinstance(entry, dict) or not all(
                _is_number(entry.get(key)) for key in ("rounds", "words")
            ):
                problems.append(
                    f"{where}: congest phase {phase!r} missing rounds/words"
                )
    return problems


#: Row schema of the e19 fault-recovery experiment: the recovery contract
#: columns trajectory diffs depend on (``recovered_identical`` is the
#: byte-identity assertion's verdict, so it must be a real boolean).
_E19_NUMERIC_KEYS = ("fault_rate", "goodput_jobs_per_s", "retries")


def e19_problems(where: str, record: dict) -> list[str]:
    """Schema violations of one e19 fault-recovery record."""
    problems = []
    for key in _E19_NUMERIC_KEYS:
        if not _is_number(record.get(key)):
            problems.append(f"{where}: missing numeric {key!r}")
    if not isinstance(record.get("recovered_identical"), bool):
        problems.append(f"{where}: missing boolean 'recovered_identical'")
    return problems


#: Row schema of the e20 scale-out experiment: the scaling columns the
#: trajectory depends on, plus the byte-identity verdict of the pooled
#: run (``identical_to_sequential``) and the host ``cores`` count that
#: makes speedup rows from small machines interpretable.
_E20_NUMERIC_KEYS = ("workers", "speedup", "efficiency", "cores")


def e20_problems(where: str, record: dict) -> list[str]:
    """Schema violations of one e20 scale-out record."""
    problems = []
    for key in _E20_NUMERIC_KEYS:
        if not _is_number(record.get(key)):
            problems.append(f"{where}: missing numeric {key!r}")
    if not isinstance(record.get("identical_to_sequential"), bool):
        problems.append(f"{where}: missing boolean 'identical_to_sequential'")
    return problems


def phase_rollup(experiments: dict[str, list]) -> dict:
    """Per-experiment telemetry phases: ``{experiment: {phase: wall_seconds}}``.

    Every record of one results file shares the test-wide breakdown (the
    benchmark conftest snapshots one collector per test), so the first
    record carrying one represents the run.
    """
    rollup: dict[str, dict] = {}
    for experiment, records in sorted(experiments.items()):
        for record in records:
            if not isinstance(record, dict):
                continue
            breakdown = record.get("phase_breakdown")
            if isinstance(breakdown, dict) and isinstance(
                breakdown.get("phases"), dict
            ):
                rollup[experiment] = {
                    name: entry.get("wall_seconds")
                    for name, entry in sorted(breakdown["phases"].items())
                    if isinstance(entry, dict)
                }
                break
    return rollup


def experiment_id_collisions(bench_dir: pathlib.Path) -> list[str]:
    """Benchmark files that claim an already-taken ``eN`` experiment id."""
    owners: dict[str, list[str]] = {}
    for path in sorted(bench_dir.glob("test_e*_*.py")):
        match = _EXPERIMENT_FILE.match(path.name)
        if match is None:
            continue
        owners.setdefault(f"e{match.group(1)}", []).append(path.name)
    return [
        f"duplicate experiment id {experiment}: {', '.join(files)}"
        for experiment, files in sorted(owners.items())
        if len(files) > 1
    ]


def trajectory_rows(experiments: dict[str, list]) -> list[dict]:
    """The ``experiment × commit × n × wall_seconds`` rows of the current
    result records (rows without a commit or wall time are left to
    ``check`` to flag)."""
    rows = []
    for experiment, records in sorted(experiments.items()):
        for index, record in enumerate(records):
            if not isinstance(record, dict):
                continue
            commit = record.get("commit")
            wall = record.get("wall_seconds")
            if not commit or not isinstance(wall, (int, float)) or isinstance(wall, bool):
                continue
            rows.append(
                {
                    "experiment": experiment,
                    "commit": str(commit),
                    "row": index,
                    "n": record.get("n"),
                    "wall_seconds": wall,
                }
            )
    return rows


def _trajectory_key(row: dict) -> tuple:
    # The row index disambiguates experiments that emit several records for
    # the same n (e.g. scale sweeps) — a re-run at the same commit replaces
    # its own rows positionally.
    return (
        str(row.get("experiment")),
        str(row.get("commit")),
        str(row.get("row")),
        str(row.get("n")),
    )


def merge_trajectory(previous: list, current: list[dict]) -> list[dict]:
    """Merge the committed summary's trajectory with the current rows.

    Keyed by ``(experiment, commit, row, n)``; a re-run at the same commit
    replaces its old rows, rows from earlier commits survive — that is the
    cross-PR history.
    """
    merged: dict[tuple, dict] = {}
    for row in previous:
        if isinstance(row, dict):
            merged[_trajectory_key(row)] = row
    for row in current:
        merged[_trajectory_key(row)] = row
    return sorted(
        merged.values(),
        key=_trajectory_key,
    )


def collect(
    results_dir: pathlib.Path,
    skipped: list[str] | None = None,
    previous_trajectory: list | None = None,
) -> dict:
    """Collect per-experiment records; unreadable files are skipped with a
    warning and, when ``skipped`` is given, recorded there so ``--check``
    can fail on them instead of silently dropping the experiment."""
    experiments: dict[str, list] = {}
    for path in sorted(results_dir.glob("*.json")):
        try:
            records = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            print(f"warning: skipping malformed {path.name}: {error}", file=sys.stderr)
            if skipped is not None:
                skipped.append(f"{path.name}: malformed JSON ({error})")
            continue
        if not isinstance(records, list):
            print(f"warning: skipping non-list {path.name}", file=sys.stderr)
            if skipped is not None:
                skipped.append(f"{path.name}: not a list of records")
            continue
        experiments[path.stem] = records
    commits = sorted(
        {
            str(record.get("commit"))
            for records in experiments.values()
            for record in records
            if record.get("commit")
        }
    )
    trajectory = merge_trajectory(
        previous_trajectory or [], trajectory_rows(experiments)
    )
    return {
        "experiments": experiments,
        "commits": commits,
        "num_experiments": len(experiments),
        "num_records": sum(len(records) for records in experiments.values()),
        "trajectory": trajectory,
        "phase_rollup": phase_rollup(experiments),
    }


def check(summary: dict, committed: dict | None = None) -> list[str]:
    """Schema problems in the collected records (empty list = healthy).

    Each record needs a non-empty ``commit`` and a numeric ``wall_seconds``;
    experiments whose runs predate the machine-readable schema surface here
    the next time they regenerate, instead of degrading the summary.  The
    trajectory rows must be well-formed, and — when the committed summary is
    supplied — must already include every current record, so a results
    refresh that skipped ``bench_summary.py`` fails loudly.
    """
    problems: list[str] = []
    for experiment, records in summary["experiments"].items():
        for index, record in enumerate(records):
            where = f"{experiment}.json row {index}"
            if not isinstance(record, dict):
                problems.append(f"{where}: not an object")
                continue
            if not record.get("commit"):
                problems.append(f"{where}: missing commit")
            wall = record.get("wall_seconds")
            if not isinstance(wall, (int, float)) or isinstance(wall, bool):
                problems.append(f"{where}: missing wall_seconds")
            if "phase_breakdown" in record:
                problems.extend(
                    breakdown_problems(where, record["phase_breakdown"])
                )
            if experiment.startswith("e19"):
                problems.extend(e19_problems(where, record))
            if experiment.startswith("e20"):
                problems.extend(e20_problems(where, record))
    for index, row in enumerate(summary.get("trajectory", [])):
        where = f"trajectory row {index}"
        if not isinstance(row, dict):
            problems.append(f"{where}: not an object")
            continue
        if not row.get("commit"):
            problems.append(f"{where}: missing commit")
        wall = row.get("wall_seconds")
        if not isinstance(wall, (int, float)) or isinstance(wall, bool):
            problems.append(f"{where}: missing wall_seconds")
    if committed is not None:
        committed_keys = {
            _trajectory_key(row)
            for row in committed.get("trajectory", [])
            if isinstance(row, dict)
        }
        for row in trajectory_rows(summary["experiments"]):
            if _trajectory_key(row) not in committed_keys:
                problems.append(
                    "committed trajectory is stale: missing "
                    f"{row['experiment']} @ {row['commit']} (n={row['n']}) — "
                    "re-run tools/bench_summary.py"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--results-dir", type=pathlib.Path, default=RESULTS_DIR,
        help="directory holding the per-experiment *.json metric files",
    )
    parser.add_argument(
        "--bench-dir", type=pathlib.Path, default=BENCH_DIR,
        help="directory holding the benchmarks (experiment-id uniqueness)",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=REPO_ROOT / "BENCH_SUMMARY.json",
        help="where to write the rolled-up summary",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="validate record schemas (commit, wall_seconds), experiment-id "
        "uniqueness, and trajectory freshness, and exit non-zero on "
        "problems instead of writing the summary",
    )
    args = parser.parse_args(argv)
    if not args.results_dir.is_dir():
        print(f"error: no results directory at {args.results_dir}", file=sys.stderr)
        return 1
    committed: dict | None = None
    if args.output.is_file():
        try:
            committed = json.loads(args.output.read_text())
        except json.JSONDecodeError as error:
            # A corrupt committed summary must never silently disable the
            # freshness check or drop the merged trajectory history.
            print(f"error: cannot parse {args.output}: {error}", file=sys.stderr)
            return 1
    previous_trajectory = (committed or {}).get("trajectory", [])
    skipped: list[str] = []
    summary = collect(args.results_dir, skipped, previous_trajectory)
    if args.check:
        problems = [f"unreadable file — {reason}" for reason in skipped]
        problems += experiment_id_collisions(args.bench_dir)
        problems += check(summary, committed)
        for problem in problems:
            print(f"check: {problem}", file=sys.stderr)
        print(
            f"checked {summary['num_records']} records across "
            f"{summary['num_experiments']} experiments "
            f"({len(summary['trajectory'])} trajectory rows) — "
            f"{len(problems)} problem(s)"
        )
        return 1 if problems else 0
    args.output.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(
        f"wrote {args.output} — {summary['num_experiments']} experiments, "
        f"{summary['num_records']} records, "
        f"{len(summary['trajectory'])} trajectory rows"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
