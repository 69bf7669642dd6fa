"""Exception hierarchy for the ``repro`` library.

All library-specific failures derive from :class:`ReproError` so that callers
can catch everything coming out of this package with a single handler while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class GraphError(ReproError):
    """Raised when a graph input is malformed (bad shape, bad weights, ...)."""


class NegativeCycleError(GraphError):
    """Raised when an APSP computation detects a negative-weight cycle.

    The paper's APSP reduction (Proposition 3) assumes the input digraph has
    no negative cycle; distances are undefined otherwise.
    """


class NetworkError(ReproError):
    """Raised on misuse of the CONGEST-CLIQUE simulator."""


class BandwidthExceededError(NetworkError):
    """Raised when a single message exceeds the per-link per-round budget
    and cannot be fragmented (should not happen with the library's own
    algorithms; guards against user-written node programs)."""


class ProtocolAbortedError(ReproError):
    """Raised when a randomized protocol aborts, as the paper's algorithms
    do on low-probability bad events (e.g. an unbalanced ``Λx(u,v)`` in
    Algorithm ComputePairs, or an oversized ``Λ(u)`` in IdentifyClass).

    Callers are expected to retry with fresh randomness; the top-level
    solvers do this automatically a bounded number of times.
    """

    def __init__(self, stage: str, detail: str = "") -> None:
        self.stage = stage
        self.detail = detail
        message = f"protocol aborted at stage {stage!r}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class PromiseViolationError(ReproError):
    """Raised when an input violates a problem promise and strict checking
    is enabled (e.g. ``Γ(u,v)`` above the FindEdgesWithPromise bound)."""


class QuantumSimulationError(ReproError):
    """Raised on misuse of the quantum substrate (bad marked sets, zero-size
    search spaces, dimension overflow in the state-vector simulator, ...)."""


class ConvergenceError(ReproError):
    """Raised when an iterative procedure (binary search of Proposition 2,
    retry loops around randomized protocols) exhausts its iteration budget
    without reaching its goal."""


class TelemetryError(ReproError):
    """Raised on misuse of the telemetry plane (:mod:`repro.telemetry`):
    bad histogram bounds, metric-kind collisions, malformed snapshots."""


class TransientError:
    """Mixin marking a failure as *transient* — safe to retry.

    The job engine's :class:`~repro.service.jobs.RetryPolicy` re-dispatches
    a failed solve only when the worker classified its exception as
    transient: an instance of this mixin or of :class:`OSError` (I/O
    hiccups, injected faults, worker-side timeouts).  Semantic failures —
    :class:`NegativeCycleError` above all — are never transient: retrying a
    deterministic solve over the same input cannot change the answer.
    """


class ServiceError(ReproError):
    """Raised on misuse of the serving layer (:mod:`repro.service`)."""


class FaultInjectionError(ServiceError):
    """Raised on misuse of the fault-injection plane
    (:mod:`repro.service.faults`): rates outside ``[0, 1]``, unknown
    corruption modes, double installation."""


class WorkerCrashError(ServiceError, TransientError):
    """A worker process died mid-task: :class:`repro.parallel.ClassDispatcher`
    returns it as each lost task's value, the job engine retries those jobs
    on a fresh pool, and a per-graph batch sweep raises it.  Transient by
    definition: the crash says nothing about the input."""


class JobTimeoutError(ServiceError):
    """Raised (as a job failure classification) when a job exhausted its
    wall-clock budget (``timeout_s``) across all attempts.  *Not*
    transient — the deadline is already spent, so there is no budget left
    to retry into."""


class JobFailedError(ServiceError):
    """Raised when awaiting a job whose solve failed.

    Carries the original failure as ``error_type`` (the exception class
    name, preserved across process-pool workers) and ``detail`` (its
    message) so callers can branch on the cause — e.g. the query engine
    maps ``NegativeCycleError`` failures to a ``True`` negative-cycle
    answer.
    """

    def __init__(self, job_id: str, error_type: str, detail: str = "") -> None:
        self.job_id = job_id
        self.error_type = error_type
        self.detail = detail
        message = f"job {job_id} failed with {error_type}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
