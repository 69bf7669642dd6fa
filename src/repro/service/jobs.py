"""The job engine: submit/poll/await APSP solves with a state machine.

Every solve is a :class:`Job` walking ``PENDING → RUNNING → DONE/FAILED``.
Submission is cheap: the engine digests the graph, consults the
:class:`~repro.service.store.ResultStore`, and completes the job
immediately on a cache hit (``cache_hit=True``, no solver invoked).
Pending jobs run either synchronously (:meth:`JobEngine.run_pending`) or,
for multi-graph batches, on the library's one worker pool,
:class:`~repro.parallel.ClassDispatcher`
(:meth:`JobEngine.run_pending_parallel`).

Worker hygiene: the worker function never lets an exception escape — it
returns an error payload instead, so a solver raising (say)
:class:`~repro.errors.NegativeCycleError` yields a ``FAILED`` job with the
error type preserved rather than poisoning the pool (some library
exceptions have non-default constructors and would not survive pickling
back through the pool).  Each payload also records the worker PID and
a truncated traceback for failures, so callers can verify placement and
debug ``FAILED`` jobs from ``serve-batch`` output.

Fault tolerance (the recovery layer over that hygiene):

* a :class:`RetryPolicy` re-dispatches *transient* failures — the worker
  classifies its exception (:class:`~repro.errors.TransientError` mixin or
  ``OSError``); :class:`~repro.errors.NegativeCycleError` is semantic and
  never retried — with exponential backoff and deterministic seeded
  jitter, recorded on the job as ``attempts`` / ``retry_wait_s``;
* a per-job wall-clock budget (``timeout_s``, spanning all attempts and
  backoff) is enforced in both execution paths; exhaustion fails the job
  with :class:`~repro.errors.JobTimeoutError` (terminal — the budget is
  spent, so timeouts are not themselves retried);
* a worker process dying mid-solve is reported by the dispatcher as a
  :class:`~repro.errors.WorkerCrashError` value for every in-flight job;
  :meth:`JobEngine.run_pending_parallel` classifies those jobs as
  transient failures, starts a fresh pool for the next attempt round, and
  re-dispatches whatever retry budget allows;
* when the fault-injection plane (:mod:`repro.service.faults`) is
  installed, its picklable config ships into the workers, so injected
  crashes/latency/errors exercise exactly these paths deterministically.

Recovery events flow into telemetry as ``jobs.retries``, ``jobs.timeouts``,
and ``jobs.worker_crashes`` counters plus per-attempt ``jobs.attempt``
spans.  Pooled workers' telemetry reaches the parent through the
dispatcher's summary merge.
"""

from __future__ import annotations

import itertools
import os
import time
import traceback as traceback_module
import zlib
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from repro import telemetry
from repro.errors import (
    JobFailedError, JobTimeoutError, NegativeCycleError, TransientError, WorkerCrashError,
)
from repro.graphs.digraph import WeightedDigraph
from repro.matrix.witness import successor_matrix
from repro.service import faults
from repro.service.hashing import graph_digest
from repro.service.solvers import SolveOptions, make_solver
from repro.service.store import ClosureArtifact, ResultStore, artifact_key

#: Worker tracebacks are truncated to this many characters (keep the tail —
#: the raise site — since that is what debugging needs).
TRACEBACK_LIMIT = 2000


def _count(name: str, amount: float = 1.0) -> None:
    """Bump a job-engine counter when telemetry is enabled."""
    collector = telemetry.active()
    if collector is not None:
        collector.metrics.inc(name, amount)


class JobState(Enum):
    """Lifecycle of a submitted solve."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass(frozen=True)
class RetryPolicy:
    """How the engine re-dispatches transient failures.

    ``max_attempts`` bounds dispatches per job (1 disables retries).  The
    wait before attempt ``k`` (k ≥ 2) grows exponentially —
    ``backoff_s · multiplier^(k−2)``, capped at ``max_backoff_s`` — and is
    stretched by a *deterministic* jitter factor drawn from the policy
    seed and the job's digest, so concurrent retries de-synchronize
    without making any run irreproducible.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff_s and max_backoff_s must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def backoff_before(self, attempt: int, token: str = "") -> float:
        """Seconds to wait before dispatching ``attempt`` (attempt ≥ 2)."""
        if attempt <= 1:
            return 0.0
        base = min(
            self.backoff_s * self.backoff_multiplier ** (attempt - 2),
            self.max_backoff_s,
        )
        if self.jitter <= 0 or base <= 0:
            return base
        key = zlib.crc32(f"retry:{token}:{attempt}".encode())
        rng = np.random.default_rng([self.seed, key])
        return base * (1.0 + self.jitter * float(rng.random()))


@dataclass
class Job:
    """One submitted APSP instance and its progress.

    ``duration_s`` is the worker-side solve time of the last attempt;
    ``queue_wait_s`` is the submit-to-first-dispatch wait (0 for cache
    hits, which never queue).  Both are surfaced separately so saturated
    pools are distinguishable from slow solves.  ``submitted_s`` is the
    submission instant as a process-local :func:`time.perf_counter`
    reading.

    Attempt history: ``attempts`` counts dispatches, ``retry_wait_s``
    accumulates the backoff the engine slept between them, and
    ``traceback`` preserves the (truncated) worker-side traceback of the
    last failure.  ``timeout_s`` is the job's total wall-clock budget;
    ``deadline_s`` is the perf-counter instant it expires (stamped at
    first dispatch).
    """

    job_id: str
    digest: str
    solver: str
    options: SolveOptions
    state: JobState = JobState.PENDING
    artifact: Optional[ClosureArtifact] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    traceback: Optional[str] = None
    cache_hit: bool = False
    worker_pid: Optional[int] = None
    duration_s: float = 0.0
    submitted_s: float = 0.0
    queue_wait_s: float = 0.0
    attempts: int = 0
    retry_wait_s: float = 0.0
    timeout_s: Optional[float] = None
    deadline_s: Optional[float] = None
    not_before_s: float = 0.0

    @property
    def remaining_s(self) -> Optional[float]:
        """Seconds left in the job's budget (``None`` = unbounded)."""
        if self.deadline_s is None:
            return None
        return self.deadline_s - time.perf_counter()


def _solve_in_worker(
    weights: np.ndarray,
    solver_name: str,
    options: SolveOptions,
    fault_config=None,
    fault_token: str = "",
) -> dict:
    """Solve one instance; always returns a payload, never raises.

    Runs identically in-process and inside pool workers (via
    :func:`_job_task`).  Failure payloads classify the exception
    (``transient``) and carry a truncated traceback.  When a
    :class:`~repro.service.faults.FaultConfig` rides along, a short-lived
    worker-side :class:`~repro.service.faults.FaultPlane` injects at the
    ``worker.solve`` site and its counters return in the payload (a
    crashed worker, by design, reports nothing).
    """
    started = time.perf_counter()
    plane = (
        faults.FaultPlane(fault_config, mirror_telemetry=False)
        if fault_config is not None
        else None
    )
    try:
        if plane is not None:
            plane.maybe_crash("worker.solve", fault_token)
            plane.maybe_delay("worker.solve", fault_token)
            plane.maybe_oserror("worker.solve", fault_token)
        graph = WeightedDigraph(weights)
        outcome = make_solver(solver_name, options).solve(graph)
        successors = successor_matrix(graph.apsp_matrix(), outcome.distances)
        return {
            "ok": True,
            "distances": outcome.distances,
            "successors": successors,
            "rounds": float(outcome.rounds),
            "pid": os.getpid(),
            "duration_s": time.perf_counter() - started,
            **({"faults": plane.snapshot()} if plane is not None else {}),
        }
    except Exception as error:  # noqa: BLE001 — the job ledger is the handler
        transient = isinstance(error, (TransientError, OSError)) and not isinstance(
            error, NegativeCycleError
        )
        return {
            "ok": False,
            "error_type": type(error).__name__,
            "error": str(error),
            "transient": transient,
            "traceback": traceback_module.format_exc()[-TRACEBACK_LIMIT:],
            "pid": os.getpid(),
            "duration_s": time.perf_counter() - started,
            **({"faults": plane.snapshot()} if plane is not None else {}),
        }


def _job_task(arena, spec: tuple) -> dict:
    """Dispatcher task: one attempt of one job, its weights read from the
    arena under the job's id."""
    job_id, *solve_args = spec
    return _solve_in_worker(arena[job_id], *solve_args)


def _crash_payload(detail: str, duration_s: float) -> dict:
    """The payload the engine synthesizes for a worker that died without
    reporting (a :class:`~repro.errors.WorkerCrashError` value)."""
    return {
        "ok": False,
        "error_type": "WorkerCrashError",
        "error": detail,
        "transient": True,
        "traceback": None,
        "pid": None,
        "duration_s": duration_s,
    }


class JobEngine:
    """Submit, execute, and await APSP jobs against a shared result store.

    Parameters
    ----------
    store:
        Shared :class:`ResultStore` (a fresh in-memory one by default).
    solver / options:
        Defaults applied to submissions that do not override them.
    retry_policy:
        How transient failures are re-dispatched (default
        :class:`RetryPolicy()`; pass ``RetryPolicy(max_attempts=1)`` to
        disable retries).
    timeout_s:
        Default per-job wall-clock budget across attempts and backoff
        (``None`` = unbounded); overridable per submission.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        *,
        solver: str = "reference",
        options: Optional[SolveOptions] = None,
        max_history: int = 1024,
        retry_policy: Optional[RetryPolicy] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        self.store = store if store is not None else ResultStore()
        self.default_solver = solver
        self.default_options = options if options is not None else SolveOptions()
        self.max_history = max_history
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.default_timeout_s = timeout_s
        self.solver_invocations = 0
        self.pool_rebuilds = 0
        self._jobs: dict[str, Job] = {}
        self._graphs: dict[str, WeightedDigraph] = {}
        self._ids = itertools.count(1)

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        graph: WeightedDigraph,
        *,
        solver: Optional[str] = None,
        options: Optional[SolveOptions] = None,
        timeout_s: Optional[float] = None,
    ) -> Job:
        """Register a solve.  Returns the job — already ``DONE`` (with
        ``cache_hit=True``) when the store holds this graph's closure *for
        this solver*.

        Cache-hit jobs are complete on return and are **not** retained in
        the engine's ledger (their artifact is on the returned object), so
        a long-lived engine serving cached traffic does not accumulate job
        records; solved jobs are additionally trimmed to ``max_history``.
        """
        if not isinstance(graph, WeightedDigraph):
            raise TypeError("the job engine solves WeightedDigraph instances")
        with telemetry.span("jobs.submit") as span:
            job = Job(
                job_id=f"job-{next(self._ids)}",
                digest=graph_digest(graph),
                solver=solver if solver is not None else self.default_solver,
                options=options if options is not None else self.default_options,
                submitted_s=time.perf_counter(),
                timeout_s=timeout_s if timeout_s is not None else self.default_timeout_s,
            )
            span.set("job_id", job.job_id).set("solver", job.solver)
            cached = self.store.get(artifact_key(job.digest, job.solver))
            if cached is not None:
                job.state = JobState.DONE
                job.artifact = cached
                job.cache_hit = True
                span.set("cache_hit", True)
                _count("jobs.submitted")
                _count("jobs.cache_hits")
                return job
            self._jobs[job.job_id] = job
            self._graphs[job.job_id] = graph
            self._trim_history()
            _count("jobs.submitted")
            return job

    def _trim_history(self) -> None:
        if len(self._jobs) <= self.max_history:
            return
        for job_id in list(self._jobs):
            if len(self._jobs) <= self.max_history:
                break
            if self._jobs[job_id].state in (JobState.DONE, JobState.FAILED):
                del self._jobs[job_id]
                self._graphs.pop(job_id, None)

    # -- inspection ----------------------------------------------------------

    def job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"unknown job {job_id!r}") from None

    def poll(self, job_id: str) -> JobState:
        """Current state of a job."""
        return self.job(job_id).state

    def jobs(self) -> list[Job]:
        """All jobs in submission order."""
        return list(self._jobs.values())

    def pending(self) -> list[Job]:
        return [job for job in self._jobs.values() if job.state is JobState.PENDING]

    # -- execution -----------------------------------------------------------

    def _fault_args(self, job: Job) -> tuple:
        """The ``(fault_config, fault_token)`` pair shipped to the worker.

        The token binds the injection draw to (solver, graph, attempt), so
        retries — and fallback solvers over the same graph — see fresh
        deterministic draws instead of replaying the fault.
        """
        plane = faults.active()
        if plane is None or not plane.config.any_rate:
            return (None, "")
        return (plane.config, f"{job.solver}:{job.digest}:{job.attempts}")

    def run(self, job_id: str) -> Job:
        """Execute one pending job synchronously in this process,
        retrying transient failures per the engine's :class:`RetryPolicy`.

        The per-job budget (``timeout_s``) is enforced between and *after*
        attempts: a synchronous solve cannot be preempted mid-call, so an
        attempt that returns past its deadline is failed as a timeout
        (its result is discarded — the caller asked for a bound).
        """
        job = self.job(job_id)
        if job.state is not JobState.PENDING:
            return job
        graph = self._graphs[job.job_id]
        with telemetry.span("jobs.run", job_id=job.job_id, solver=job.solver):
            while True:
                self._dispatch(job)
                fault_config, fault_token = self._fault_args(job)
                with telemetry.span(
                    "jobs.attempt", job_id=job.job_id, attempt=job.attempts
                ):
                    payload = _solve_in_worker(
                        graph.weights, job.solver, job.options,
                        fault_config, fault_token,
                    )
                self._merge_worker_faults(payload)
                if self._timed_out(job):
                    self._finish_timeout(job, payload)
                    break
                if payload["ok"]:
                    self._finish_done(job, payload)
                    break
                if not self._retry(job, payload, sleep=True):
                    self._finish_failed(job, payload)
                    break
        del self._graphs[job.job_id]
        return job

    def run_pending(self) -> list[Job]:
        """Drain the pending queue synchronously; returns the jobs run."""
        ran = [self.run(job.job_id) for job in self.pending()]
        return ran

    def run_pending_parallel(self, max_workers: Optional[int] = None) -> list[Job]:
        """Drain the pending queue on a :class:`~repro.parallel.ClassDispatcher`.

        ``max_workers=None`` (the default) derives the worker count from
        ``os.cpu_count()``, capped (see
        :func:`repro.parallel.default_workers`); the count used is recorded
        in the ``jobs.workers`` telemetry gauge.  Like every
        ``ClassDispatcher(1)``, ``max_workers=1`` runs the jobs in this
        process, checking deadlines after each attempt as :meth:`run` does.

        Each attempt round is one ``map_arena`` call over the jobs in
        submission order; a failed solve fails only its job, and transient
        failures re-dispatch next round within the retry/timeout budget.  A
        dying worker (e.g. an injected ``os._exit``) fails every job in
        flight with a transient ``WorkerCrashError``, and a job running past
        its deadline fails with ``JobTimeoutError``.  A round that lost a
        job counts one ``pool_rebuilds``; the next round starts a fresh pool.
        """
        from repro.parallel import ClassDispatcher, default_workers

        todo = self.pending()
        if not todo:
            return []
        if max_workers is None:
            max_workers = default_workers()
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        collector = telemetry.active()
        if collector is not None:
            collector.metrics.set_gauge("jobs.workers", max_workers)
        with telemetry.span(
            "jobs.run_parallel", jobs=len(todo), max_workers=max_workers
        ), ClassDispatcher(max_workers) as dispatcher:
            pending = list(todo)
            while pending:
                pending = self._parallel_round(dispatcher, pending)
        for job in todo:
            self._graphs.pop(job.job_id, None)
        return todo

    def _parallel_round(self, dispatcher, jobs: list[Job]) -> list[Job]:
        """Dispatch one attempt for every job; collect, classify, decide.

        Returns the jobs to re-dispatch.
        """
        wait = max(job.not_before_s for job in jobs) - time.perf_counter()
        if wait > 0:  # honor the backoff stamped by the previous attempts
            time.sleep(wait)
        specs = []
        for job in jobs:
            self._dispatch(job)
            specs.append((job.job_id, job.solver, job.options, *self._fault_args(job)))
        arena = dispatcher.make_arena(
            {job.job_id: self._graphs[job.job_id].weights for job in jobs}
        )
        started = time.perf_counter()
        results = dispatcher.map_arena(
            _job_task, arena, specs, [job.deadline_s for job in jobs]
        )
        retry_jobs: list[Job] = []
        lost = False
        for job, payload in zip(jobs, results):
            if isinstance(payload, JobTimeoutError):
                self._finish_timeout(job, None)
                lost = True
                continue
            if isinstance(payload, WorkerCrashError):
                payload = _crash_payload(str(payload), time.perf_counter() - started)
                _count("jobs.worker_crashes")
                lost = True
            self._merge_worker_faults(payload)
            if self._timed_out(job):
                self._finish_timeout(job, payload)
            elif payload["ok"]:
                self._finish_done(job, payload)
            elif self._retry(job, payload, sleep=False):
                retry_jobs.append(job)
            else:
                self._finish_failed(job, payload)
        if lost:
            self.pool_rebuilds += 1
        return retry_jobs

    def result(self, job_id: str) -> ClosureArtifact:
        """The job's artifact; runs the job now if still pending.

        Raises :class:`JobFailedError` for ``FAILED`` jobs.
        """
        job = self.job(job_id)
        if job.state is JobState.PENDING:
            job = self.run(job_id)
        if job.state is JobState.FAILED:
            raise JobFailedError(job.job_id, job.error_type or "Exception",
                                 job.error or "")
        assert job.artifact is not None
        return job.artifact

    # -- transitions ---------------------------------------------------------

    def _dispatch(self, job: Job) -> None:
        """PENDING → RUNNING: stamp queue wait / deadline, count the attempt."""
        now = time.perf_counter()
        if job.attempts == 0:
            job.queue_wait_s = max(0.0, now - job.submitted_s)
            if job.timeout_s is not None:
                job.deadline_s = now + job.timeout_s
            collector = telemetry.active()
            if collector is not None:
                collector.metrics.observe("jobs.queue_wait_seconds", job.queue_wait_s)
        job.attempts += 1
        job.state = JobState.RUNNING
        self.solver_invocations += 1
        _count("jobs.dispatched")

    def _timed_out(self, job: Job) -> bool:
        remaining = job.remaining_s
        return remaining is not None and remaining <= 0

    def _retry(self, job: Job, payload: dict, *, sleep: bool) -> bool:
        """Queue a transient failure for another attempt if budget allows.

        Synchronous execution sleeps the backoff here; the parallel path
        stamps ``not_before_s`` and sleeps just before re-dispatch.
        """
        if not payload.get("transient", False):
            return False
        if job.attempts >= self.retry_policy.max_attempts:
            return False
        wait = self.retry_policy.backoff_before(job.attempts + 1, job.digest)
        remaining = job.remaining_s
        if remaining is not None and remaining <= wait:
            return False  # the budget cannot absorb the backoff
        job.state = JobState.PENDING
        job.retry_wait_s += wait
        job.error = payload.get("error")
        job.error_type = payload.get("error_type")
        job.traceback = payload.get("traceback")
        _count("jobs.retries")
        if sleep:
            if wait > 0:
                time.sleep(wait)
        else:
            job.not_before_s = time.perf_counter() + wait
        return True

    def _observe_finish(self, job: Job, ok: bool) -> None:
        collector = telemetry.active()
        if collector is not None:
            collector.metrics.observe("jobs.run_seconds", job.duration_s)
            collector.metrics.inc("jobs.done" if ok else "jobs.failed")

    def _merge_worker_faults(self, payload: dict) -> None:
        counts = payload.get("faults")
        if counts:
            plane = faults.active()
            if plane is not None:
                plane.merge_counts(counts)

    def _finish_done(self, job: Job, payload: dict) -> None:
        job.worker_pid = payload.get("pid")
        job.duration_s = float(payload.get("duration_s", 0.0))
        job.error = None
        job.error_type = None
        job.traceback = None
        artifact = ClosureArtifact(
            digest=job.digest,
            distances=payload["distances"],
            successors=payload["successors"],
            rounds=payload["rounds"],
            solver=job.solver,
        )
        self.store.put(artifact)
        job.artifact = artifact
        job.state = JobState.DONE
        self._observe_finish(job, ok=True)

    def _finish_failed(self, job: Job, payload: dict) -> None:
        job.worker_pid = payload.get("pid")
        job.duration_s = float(payload.get("duration_s", 0.0))
        job.error = payload["error"]
        job.error_type = payload["error_type"]
        job.traceback = payload.get("traceback")
        job.state = JobState.FAILED
        self._observe_finish(job, ok=False)

    def _finish_timeout(self, job: Job, payload: Optional[dict]) -> None:
        """FAILED with ``JobTimeoutError``: the wall budget is spent."""
        detail = f"exceeded timeout_s={job.timeout_s:g} after {job.attempts} attempt(s)"
        if payload is not None and not payload.get("ok", False):
            detail += f" (last error: {payload.get('error_type')})"
        _count("jobs.timeouts")
        self._finish_failed(
            job,
            {
                "error": detail,
                "error_type": "JobTimeoutError",
                "traceback": (payload or {}).get("traceback"),
                "pid": (payload or {}).get("pid"),
                "duration_s": (payload or {}).get("duration_s", 0.0),
            },
        )
