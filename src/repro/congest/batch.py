"""Columnar message batches — the CONGEST-CLIQUE message plane.

A :class:`MessageBatch` holds one routed batch as three parallel ``int64``
columns: source position, destination position, and size in words.  A
position is a virtual node of a labeling scheme, hosted on physical node
``position % n`` (for the ``"base"`` scheme, position == physical node
index), so the router resolves a million messages to physical loads with
two ``np.bincount`` calls.

Batches carry no payloads.  A round's cost depends only on how many words
each node sends and receives, so the simulator routes word counts and the
protocols compute each receiving node's local state directly from the
instance; ``tests/test_core_fidelity.py`` checks, for Step 1 of
ComputePairs, that the rows a batch addresses to each triple node are
exactly the data that node's local computation uses.

Batches are *built* arithmetically too: the composable constructors
(:meth:`MessageBatch.from_index_arrays`, :meth:`MessageBatch.concat`,
:meth:`MessageBatch.from_cross_product`,
:meth:`MessageBatch.from_range_product`,
:meth:`MessageBatch.to_range_product`) express the gather/scatter patterns
of the protocols as index arithmetic over block grids, so call sites never
loop over messages to assemble a batch.  The loop builders they replaced
are the test references in :mod:`tests.reference`, property-tested
equivalent by ``tests/test_builder_equivalence.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.congest.gridops import expand_ranges, repeat_per_cell
from repro.errors import NetworkError


def int_column(values, what: str) -> np.ndarray:
    """``values`` as an ``int64`` array, or :class:`NetworkError` when its
    entries are not integers.

    Positions index virtual nodes and sizes count words, so a fraction is a
    caller's bug that a cast would hide (``1.5`` words would silently
    charge one).  An empty column is valid whatever its dtype.
    """
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        raise NetworkError(f"{what} must be integers, got dtype {array.dtype}")
    return array.astype(np.int64, copy=False)


class MessageBatch:
    """A batch of point-to-point messages in columnar form.

    Parameters
    ----------
    src, dst:
        Integer arrays of positions within the source/destination labeling
        schemes (``0 … size − 1`` of ``register_scheme``; for ``"base"``,
        the position is the physical node index).
    size_words:
        Per-message sizes in model words (positive integers).
    """

    __slots__ = ("src", "dst", "size_words")

    def __init__(
        self, src: np.ndarray, dst: np.ndarray, size_words: np.ndarray
    ) -> None:
        self.src = int_column(src, "source positions")
        self.dst = int_column(dst, "destination positions")
        self.size_words = int_column(size_words, "size_words")
        if not (self.src.shape == self.dst.shape == self.size_words.shape):
            raise NetworkError("src, dst, and size_words must have equal length")
        if self.src.ndim != 1:
            raise NetworkError("batch columns must be one-dimensional")
        if self.size_words.size and int(self.size_words.min()) <= 0:
            raise NetworkError("size_words must be positive")

    def __len__(self) -> int:
        return int(self.src.size)

    @property
    def total_words(self) -> int:
        return int(self.size_words.sum())

    @classmethod
    def empty(cls) -> "MessageBatch":
        zero = np.empty(0, dtype=np.int64)
        return cls(zero, zero.copy(), zero.copy())

    @classmethod
    def concat(cls, batches: Sequence["MessageBatch"]) -> "MessageBatch":
        """Stack batches into one."""
        batches = [batch for batch in batches if len(batch)]
        if not batches:
            return cls.empty()
        return cls(
            np.concatenate([batch.src for batch in batches]),
            np.concatenate([batch.dst for batch in batches]),
            np.concatenate([batch.size_words for batch in batches]),
        )

    # -- composable arithmetic constructors -------------------------------

    @classmethod
    def from_index_arrays(
        cls, src: np.ndarray, dst: np.ndarray, size_words: np.ndarray | int
    ) -> "MessageBatch":
        """Size-only batch from parallel position arrays.

        The named form of the raw constructor: ``size_words`` may be a
        scalar (every message the same size), and everything is coerced to
        ``int64`` columns with the usual validation.
        """
        src = int_column(src, "source positions")
        if np.ndim(size_words) == 0:
            size_words = np.full(src.shape, size_words)
        return cls(src, dst, size_words)

    @classmethod
    def from_cross_product(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        *,
        words: np.ndarray | int = 1,
        per: str = "dst",
    ) -> "MessageBatch":
        """Every source × every destination, in destination-major order.

        ``words`` is a scalar, or a per-``dst`` / per-``src`` array selected
        by ``per`` — e.g. every row owner sending its block-restricted row
        slice to every triple node uses ``per="dst"`` with the slice widths.
        """
        src = int_column(src, "source positions")
        dst = int_column(dst, "destination positions")
        words = int_column(words, "words")
        if src.ndim != 1 or dst.ndim != 1:
            raise NetworkError("cross-product factors must be one-dimensional")
        if per not in ("src", "dst"):
            raise NetworkError(f"per must be 'src' or 'dst', got {per!r}")
        full_src = np.tile(src, dst.size)
        full_dst = np.repeat(dst, src.size)
        if words.ndim == 0:
            size = np.full(full_src.shape, words)
        elif per == "dst":
            if words.shape != dst.shape:
                raise NetworkError("per-dst words must align with dst")
            size = np.repeat(words, src.size)
        else:
            if words.shape != src.shape:
                raise NetworkError("per-src words must align with src")
            size = np.tile(words, dst.size)
        return cls(full_src, full_dst, size)

    @classmethod
    def from_range_product(
        cls,
        src_starts: np.ndarray,
        src_counts: np.ndarray,
        dst: np.ndarray,
        words: np.ndarray | int,
    ) -> "MessageBatch":
        """Gather pattern over grid cells: cell ``i`` has every position in
        ``arange(src_starts[i], src_starts[i] + src_counts[i])`` send
        ``words[i]`` words to ``dst[i]``.

        This is the workhorse of the array-major builders — a block index
        grid (e.g. all ``(bu, bv, bw)`` triples) flattened to cell arrays
        expands to the full message set in five vectorized operations.
        """
        src_starts = int_column(src_starts, "source starts")
        src_counts = int_column(src_counts, "source counts")
        dst = int_column(dst, "destination positions")
        words = int_column(words, "words")
        if dst.shape != src_counts.shape:
            raise NetworkError("cell columns must align")
        return cls(
            expand_ranges(src_starts, src_counts),
            repeat_per_cell(dst, src_counts),
            repeat_per_cell(words, src_counts),
        )

    @classmethod
    def to_range_product(
        cls,
        src: np.ndarray,
        dst_starts: np.ndarray,
        dst_counts: np.ndarray,
        words: np.ndarray | int,
    ) -> "MessageBatch":
        """Scatter pattern over grid cells: cell ``i`` has ``src[i]`` send
        ``words[i]`` words to every position in the destination range —
        the mirror image of :meth:`from_range_product` (e.g. a triple node
        shipping per-row partial results back to the row owners)."""
        src = int_column(src, "source positions")
        dst_starts = int_column(dst_starts, "destination starts")
        dst_counts = int_column(dst_counts, "destination counts")
        words = int_column(words, "words")
        if src.shape != dst_counts.shape:
            raise NetworkError("cell columns must align")
        return cls(
            repeat_per_cell(src, dst_counts),
            expand_ranges(dst_starts, dst_counts),
            repeat_per_cell(words, dst_counts),
        )

    # -- vectorized accounting --------------------------------------------

    def loads(
        self,
        num_nodes: int,
        src_physical: np.ndarray,
        dst_physical: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-physical-node word-load histograms (Lemma 1's vectors),
        resolved through the schemes' position → physical maps."""
        from repro.congest.router import batch_loads

        return batch_loads(
            num_nodes,
            src_physical[self.src],
            dst_physical[self.dst],
            self.size_words,
        )
