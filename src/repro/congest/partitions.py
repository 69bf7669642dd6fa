"""Vertex partitions and labeling schemes of Section 5.1.

The algorithm uses two partitions of the vertex set ``V``:

* ``V`` (here: the *coarse* partition) — ``n^{1/4}`` blocks of ``n^{3/4}``
  vertices each;
* ``V′`` (the *fine* partition) — ``√n`` blocks of ``√n`` vertices each;

and three derived labeling schemes for the network nodes:

* the *triple* scheme ``T = V × V × V′`` (``|T| = n`` for fourth-power
  ``n``) — node ``(u, v, w)`` gathers the edge weights between its blocks;
* the *search* scheme ``V × V × [√n]`` — node ``(u, v, x)`` owns the random
  pair set ``Λ_x(u, v)`` and runs the quantum searches for those pairs;
* per-class *duplication* schemes ``Tα × [2^α / (720 log n)]`` used by the
  ``α > 0`` evaluation procedure (built ad hoc in ``repro.core.evaluation``).

For general ``n`` (the paper assumes ``n^{1/4}, √n, n^{3/4}`` integral and
says to round otherwise), block counts are rounded and schemes may carry
slightly more than ``n`` labels; the network maps surplus virtual labels
onto physical nodes round-robin, which preserves all load/round accounting
(shared bandwidth is charged per physical node).

Label sets are *arithmetic constructors* (:class:`GridLabels`,
:class:`ProductLabels`, :class:`DistinctLabels`): sequence views that
compute the label at a position — and the position of a label — instead of
storing per-label tuples, and that declare themselves duplicate-free by
construction.  Registering a scheme built on one is O(1) Python objects
(see :class:`repro.congest.network.SchemeView`).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product
from typing import Hashable, Iterable, Iterator

import numpy as np

from repro.errors import NetworkError


class GridLabels(Sequence):
    """Arithmetic label constructor: all index tuples over a dense grid.

    The label at position ``p`` is the row-major decomposition of ``p`` over
    ``shape`` — e.g. ``GridLabels(C, C, F)[p] = (p // (C·F), (p // F) % C,
    p % F)``, exactly the ``(bu, bv, bw)`` triples the paper's schemes use.
    Nothing is stored per label: ``position_of`` inverts the arithmetic, so
    a :class:`~repro.congest.network.CongestClique` scheme built on top of
    this is O(1) Python objects, and the duplicate-label check is skipped
    (``duplicate_free`` — a dense grid cannot repeat a tuple).
    """

    __slots__ = ("shape", "_strides", "_size")

    #: Distinct by construction: registration skips the ``set()`` scan.
    duplicate_free = True

    def __init__(self, *shape: int) -> None:
        if not shape:
            raise NetworkError("grid labels need at least one dimension")
        self.shape = tuple(int(dim) for dim in shape)
        if min(self.shape) < 1:
            raise NetworkError(f"grid dimensions must be positive, got {shape}")
        strides: list[int] = []
        size = 1
        for dim in reversed(self.shape):
            strides.append(size)
            size *= dim
        self._strides = tuple(reversed(strides))
        self._size = size

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, position: int) -> tuple[int, ...]:
        position = int(position)
        if position < 0:
            position += self._size
        if not 0 <= position < self._size:
            raise IndexError(position)
        return tuple(
            (position // stride) % dim
            for stride, dim in zip(self._strides, self.shape)
        )

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return product(*(range(dim) for dim in self.shape))

    def position_of(self, label: Hashable) -> int:
        """Position of ``label`` in registration order (row-major).

        Raises :class:`KeyError` for anything that is not an in-range index
        tuple — the mapping-lookup contract the network's schemes rely on.
        """
        if not isinstance(label, tuple) or len(label) != len(self.shape):
            raise KeyError(label)
        position = 0
        for component, dim, stride in zip(label, self.shape, self._strides):
            if not isinstance(component, (int, np.integer)):
                raise KeyError(label)
            if not 0 <= component < dim:
                raise KeyError(label)
            position += int(component) * stride
        return position

    def positions_of(self, labels) -> np.ndarray:
        """Vectorized :meth:`position_of`: a ``(k, ndim)`` integer array of
        label component rows maps to a ``(k,)`` position array with one dot
        product against the row-major strides.  Raises :class:`KeyError` on
        non-integer components or out-of-range rows (same contract as the
        scalar form)."""
        try:
            rows = np.asarray(labels)
        except Exception:
            raise KeyError(labels) from None
        if rows.ndim != 2 or rows.shape[1] != len(self.shape):
            raise KeyError(labels)
        if rows.dtype.kind not in "iu":
            # The scalar form rejects non-integer components; a silent
            # float truncation would map a foreign label to a position.
            raise KeyError(labels)
        rows = rows.astype(np.int64)
        if rows.size:
            shape = np.asarray(self.shape, dtype=np.int64)
            bad = (rows < 0) | (rows >= shape[None, :])
            if bad.any():
                raise KeyError(tuple(rows[np.nonzero(bad.any(axis=1))[0][0]]))
        return rows @ np.asarray(self._strides, dtype=np.int64)

    def __contains__(self, label: object) -> bool:
        try:
            self.position_of(label)
        except KeyError:
            return False
        return True

    def __repr__(self) -> str:
        return f"GridLabels{self.shape}"


class ProductLabels(Sequence):
    """Arithmetic label constructor ``prefixes × range(count)``.

    The label at position ``p`` is ``prefixes[p // count] + (p % count,)`` —
    the shape of the bandwidth-duplication schemes ``Tα × [2^α/(720 log n)]``
    (Section 5.3.2), where ``prefixes`` are the class-``α`` triples and
    ``count`` the duplication factor.  Duplicate-free whenever the prefixes
    are distinct, which the callers guarantee by construction (they pass
    dict keys or rows of a class mask).

    ``prefixes`` may be a ``(k, d)`` integer array, in which case no
    per-label (or per-prefix) Python tuple exists until a label is actually
    touched — the registration-time representation of the duplication
    schemes built by ``repro.core.quantum_step3``.
    """

    __slots__ = ("_prefixes", "_prefix_rows", "_count", "_prefix_positions")

    duplicate_free = True

    def __init__(self, prefixes: Iterable[tuple] | np.ndarray, count: int) -> None:
        if isinstance(prefixes, np.ndarray):
            if prefixes.ndim != 2:
                raise NetworkError("array prefixes must be a (k, d) component grid")
            self._prefix_rows: np.ndarray | None = prefixes.astype(np.int64)
            self._prefixes: list[tuple] | None = None
        else:
            self._prefix_rows = None
            self._prefixes = list(prefixes)
        self._count = int(count)
        if self._count < 1:
            raise NetworkError(f"label product needs count >= 1, got {count}")
        self._prefix_positions: dict[tuple, int] | None = None

    @property
    def count(self) -> int:
        return self._count

    @property
    def num_prefixes(self) -> int:
        if self._prefix_rows is not None:
            return int(self._prefix_rows.shape[0])
        return len(self._prefixes)

    def _prefix(self, index: int) -> tuple:
        if self._prefix_rows is not None:
            return tuple(int(c) for c in self._prefix_rows[index])
        return self._prefixes[index]

    def __len__(self) -> int:
        return self.num_prefixes * self._count

    def __getitem__(self, position: int) -> tuple:
        position = int(position)
        if position < 0:
            position += len(self)
        if not 0 <= position < len(self):
            raise IndexError(position)
        prefix, suffix = divmod(position, self._count)
        return self._prefix(prefix) + (suffix,)

    def __iter__(self) -> Iterator[tuple]:
        for index in range(self.num_prefixes):
            prefix = self._prefix(index)
            for suffix in range(self._count):
                yield prefix + (suffix,)

    def position_of(self, label: Hashable) -> int:
        if not isinstance(label, tuple) or len(label) < 2:
            raise KeyError(label)
        suffix = label[-1]
        if not isinstance(suffix, (int, np.integer)) or not 0 <= suffix < self._count:
            raise KeyError(label)
        if self._prefix_positions is None:
            self._prefix_positions = {
                self._prefix(index): index for index in range(self.num_prefixes)
            }
        try:
            prefix_position = self._prefix_positions[label[:-1]]
        except (KeyError, TypeError):
            raise KeyError(label) from None
        return prefix_position * self._count + int(suffix)

    def positions_at(self, prefix_positions, suffixes) -> np.ndarray:
        """Vectorized position lookup from *prefix indices* (not tuples) and
        suffixes: ``prefix_positions * count + suffixes``, with the same
        :class:`KeyError` contract as :meth:`position_of` on out-of-range
        components."""
        prefix_arr = np.asarray(prefix_positions, dtype=np.int64)
        suffix_arr = np.asarray(suffixes, dtype=np.int64)
        if prefix_arr.shape != suffix_arr.shape:
            raise KeyError((prefix_positions, suffixes))
        if prefix_arr.size:
            if int(prefix_arr.min()) < 0 or int(prefix_arr.max()) >= self.num_prefixes:
                raise KeyError("prefix position out of range")
            if int(suffix_arr.min()) < 0 or int(suffix_arr.max()) >= self._count:
                raise KeyError("suffix out of range")
        return prefix_arr * self._count + suffix_arr

    def __contains__(self, label: object) -> bool:
        try:
            self.position_of(label)
        except KeyError:
            return False
        return True

    def __repr__(self) -> str:
        return f"ProductLabels({self.num_prefixes} prefixes × {self._count})"


class DistinctLabels(Sequence):
    """Mark a label sequence as duplicate-free by construction.

    For callers whose labels come from an already-deduplicated source (dict
    keys, set iteration) — registration trusts the promise and skips the
    ``set()`` duplicate scan that would otherwise rebuild exactly the
    structure the caller started from.
    """

    __slots__ = ("_labels",)

    duplicate_free = True

    def __init__(self, labels: Iterable[Hashable]) -> None:
        self._labels = labels if isinstance(labels, (list, tuple)) else list(labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __getitem__(self, position: int) -> Hashable:
        return self._labels[position]

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._labels)

    def __contains__(self, label: object) -> bool:
        return label in self._labels

    def __repr__(self) -> str:
        return f"DistinctLabels({len(self._labels)} labels)"


class BlockPartition:
    """A partition of ``range(n)`` into ``num_blocks`` contiguous blocks
    whose sizes differ by at most one."""

    def __init__(self, num_vertices: int, num_blocks: int) -> None:
        if num_vertices < 1:
            raise NetworkError("partition needs at least one vertex")
        if not 1 <= num_blocks <= num_vertices:
            raise NetworkError(
                f"num_blocks must lie in [1, {num_vertices}], got {num_blocks}"
            )
        self.num_vertices = num_vertices
        self.num_blocks = num_blocks
        boundaries = np.linspace(0, num_vertices, num_blocks + 1).round().astype(int)
        self._boundaries = boundaries.astype(np.int64)
        self._blocks = [
            np.arange(boundaries[i], boundaries[i + 1]) for i in range(num_blocks)
        ]
        self._block_of = np.empty(num_vertices, dtype=np.int64)
        for index, block in enumerate(self._blocks):
            self._block_of[block] = index

    def block(self, index: int) -> np.ndarray:
        """Vertices of block ``index`` (sorted array)."""
        return self._blocks[index]

    def blocks(self) -> list[np.ndarray]:
        """All blocks in index order."""
        return list(self._blocks)

    def block_of(self, vertex: int) -> int:
        """Index of the block containing ``vertex``."""
        return int(self._block_of[vertex])

    def block_index_array(self) -> np.ndarray:
        """Array mapping each vertex to its block index."""
        return self._block_of.copy()

    def block_starts(self) -> np.ndarray:
        """First vertex of each block (blocks are contiguous ranges) —
        the grid inputs of the arithmetic batch builders."""
        return self._boundaries[:-1].copy()

    def block_sizes(self) -> np.ndarray:
        """Number of vertices in each block, as an array."""
        return np.diff(self._boundaries)

    @property
    def max_block_size(self) -> int:
        return max(len(block) for block in self._blocks)

    def __repr__(self) -> str:
        return (
            f"BlockPartition(n={self.num_vertices}, blocks={self.num_blocks}, "
            f"max_size={self.max_block_size})"
        )


class CliquePartitions:
    """The coarse (``V``) and fine (``V′``) partitions plus the label sets
    of the triple and search schemes, for a clique of ``n`` nodes."""

    def __init__(self, num_vertices: int) -> None:
        n = num_vertices
        if n < 1:
            raise NetworkError("need at least one vertex")
        self.num_vertices = n
        num_coarse = max(1, round(n ** 0.25))
        num_fine = max(1, round(n ** 0.5))
        self.coarse = BlockPartition(n, min(num_coarse, n))
        self.fine = BlockPartition(n, min(num_fine, n))

    @property
    def num_coarse(self) -> int:
        return self.coarse.num_blocks

    @property
    def num_fine(self) -> int:
        return self.fine.num_blocks

    def triple_labels(self) -> GridLabels:
        """Labels of the triple scheme ``T = V × V × V′`` as
        ``(coarse_u, coarse_v, fine_w)`` index triples — an arithmetic
        :class:`GridLabels` view, so registering the scheme stores no
        per-label Python objects."""
        return GridLabels(self.num_coarse, self.num_coarse, self.num_fine)

    def search_labels(self) -> GridLabels:
        """Labels of the search scheme ``V × V × [√n]`` as
        ``(coarse_u, coarse_v, x)`` index triples (arithmetic view, like
        :meth:`triple_labels`)."""
        return GridLabels(self.num_coarse, self.num_coarse, self.num_fine)

    def block_pairs(self, coarse_u: int, coarse_v: int) -> np.ndarray:
        """The pair set ``P(u, v)`` for two coarse blocks, as an array of
        shape ``(num_pairs, 2)`` of canonical (sorted) vertex pairs.

        For ``u = v`` these are the unordered pairs within the block; for
        ``u ≠ v`` the cross pairs.  Matches the paper's
        ``P(U, U') = {{u, v} : u ∈ U, v ∈ U', u ≠ v}``.
        """
        block_u = self.coarse.block(coarse_u)
        block_v = self.coarse.block(coarse_v)
        if coarse_u == coarse_v:
            uu, vv = np.triu_indices(len(block_u), k=1)
            pairs = np.stack([block_u[uu], block_u[vv]], axis=1)
        else:
            grid_u, grid_v = np.meshgrid(block_u, block_v, indexing="ij")
            pairs = np.stack([grid_u.ravel(), grid_v.ravel()], axis=1)
            pairs = np.sort(pairs, axis=1)
        return pairs

    def __repr__(self) -> str:
        return (
            f"CliquePartitions(n={self.num_vertices}, "
            f"coarse={self.num_coarse}×{self.coarse.max_block_size}, "
            f"fine={self.num_fine}×{self.fine.max_block_size})"
        )
