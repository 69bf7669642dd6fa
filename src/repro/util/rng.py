"""Random-number-generator plumbing.

Every randomized component in the library accepts a ``rng`` argument that may
be ``None`` (fresh entropy), an integer seed, or an existing
:class:`numpy.random.Generator`.  Using a single convention everywhere makes
experiments reproducible end to end: the benchmark harness seeds one
generator and threads it through the whole stack.

When a telemetry collector is installed (:mod:`repro.telemetry`), the
generators built here are :class:`~repro.telemetry.rngcount.CountingGenerator`
instances instead of plain ones.  They are **stream-identical** — a counting
generator over the same seed produces byte-for-byte the same variates as
``np.random.default_rng(seed)`` — but report each draw to the collector,
which charges it to the innermost open span.  Generators passed in from
outside are returned as-is (wrapping them would change object identity and
double-count draws of already-counting parents).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro import telemetry as _telemetry

RngLike = Union[None, int, np.random.Generator]

#: Entropy accepted by :func:`_new_generator`: anything
#: ``np.random.default_rng`` takes as a ``SeedSequence`` seed — ``None``,
#: one integer, or a whole integer column (the Step-3 batch generator).
SeedLike = Union[None, int, Sequence[int], np.ndarray]


def _new_generator(seed: SeedLike) -> np.random.Generator:
    """A fresh generator for ``seed`` — counting iff telemetry is active."""
    collector = _telemetry.active()
    if collector is None:
        return np.random.default_rng(seed)
    return collector.counting_generator(seed)


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    ``None`` creates a generator from OS entropy; an ``int`` seeds a new
    generator deterministically; an existing generator is returned as-is.
    """
    if rng is None:
        return _new_generator(None)
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return _new_generator(int(rng))
    raise TypeError(f"cannot build a Generator from {type(rng).__name__}")


def spawn_rng(rng: np.random.Generator) -> np.random.Generator:
    """Derive an independent child generator from ``rng``.

    Used to give a sub-computation (a ComputePairs attempt, a Proposition-1
    run, a sweep instance, a Step-3 search lane) its own stream, so its
    draws do not shift the parent stream's later variates.
    """
    seed = int(rng.integers(0, 2**63 - 1))
    return _new_generator(seed)


def materialize_rng(value) -> np.random.Generator:
    """Turn a lazily stored seed-or-generator into a generator.

    Components that defer generator construction (the Step-3 batch
    generator) store the raw value and call this at first use, so the
    decision to count draws is made when the stream is actually
    materialized — under whatever collector is installed *then*.

    Besides ``None``, an integer or a generator, ``value`` may be a whole
    integer seed column (any sequence or array): Step 3 seeds each class's
    batch generator from its per-lane seed column, so the batched stream
    is a deterministic function of the driver stream.
    """
    if isinstance(value, np.random.Generator):
        return value
    if value is None:
        return _new_generator(None)
    if isinstance(value, (int, np.integer)):
        return _new_generator(int(value))
    return _new_generator(np.asarray(value))
