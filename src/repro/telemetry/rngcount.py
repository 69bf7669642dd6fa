"""RNG-draw accounting: a stream-identical counting Generator.

:class:`CountingGenerator` subclasses :class:`numpy.random.Generator` and
forwards every drawing method to the base implementation unchanged, so its
output stream is **byte-identical** to a plain ``default_rng`` over the
same bit generator (property-tested in ``tests/test_telemetry.py``).  The
only addition is accounting: after each draw it reports ``(1 call,
size-of-output variates)`` to its collector, which charges the innermost
open span of the calling thread — the ledger that shows, per phase, how
many generator calls and variates a solve makes (the Step-3 batch
generator's at most three calls per repetition, say).

Counting generators are only ever constructed while a collector is
installed (see :func:`repro.util.rng.ensure_rng`); disabled runs use plain
generators, so the no-telemetry cost of the accounting is zero.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: The Generator drawing methods that get counted.  Everything the library
#: (and its plausible extensions) draws through; each forwards verbatim.
_DRAW_METHODS = (
    "random",
    "integers",
    "standard_normal",
    "normal",
    "uniform",
    "exponential",
    "choice",
    "permutation",
    "binomial",
    "poisson",
    "geometric",
)


class CountingGenerator(np.random.Generator):
    """A ``numpy.random.Generator`` that reports draw counts to a collector.

    ``collector`` may be ``None`` (counting disabled; still stream-identical)
    — the per-draw cost is then one attribute check.
    """

    def __init__(self, bit_generator, collector=None) -> None:
        super().__init__(bit_generator)
        self._collector = collector

    def shuffle(self, x, axis: int = 0):  # returns None; count the permuted length
        result = super().shuffle(x, axis=axis)
        collector = self._collector
        if collector is not None:
            collector.record_draws(1, int(np.shape(x)[axis]) if np.ndim(x) else 0)
        return result


def _counted(method_name: str):
    base = getattr(np.random.Generator, method_name)

    def wrapper(self, *args, **kwargs):
        out = base(self, *args, **kwargs)
        collector = self._collector
        if collector is not None:
            collector.record_draws(1, int(np.size(out)))
        return out

    wrapper.__name__ = method_name
    wrapper.__qualname__ = f"CountingGenerator.{method_name}"
    wrapper.__doc__ = base.__doc__
    return wrapper


for _name in _DRAW_METHODS:
    setattr(CountingGenerator, _name, _counted(_name))
del _name


def counting_generator(
    seed: Optional[int] = None, collector=None
) -> CountingGenerator:
    """A counting generator seeded exactly like ``np.random.default_rng(seed)``
    (same bit-generator construction, hence the same stream)."""
    return CountingGenerator(np.random.default_rng(seed).bit_generator, collector)
