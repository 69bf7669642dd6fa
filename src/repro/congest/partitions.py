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
  ``α > 0`` evaluation procedure (registered per class by
  ``repro.core.quantum_step3``).

For general ``n`` (the paper assumes ``n^{1/4}, √n, n^{3/4}`` integral and
says to round otherwise), block counts are rounded and schemes may carry
slightly more than ``n`` positions; the network maps surplus virtual nodes
onto physical nodes round-robin, which preserves all load/round accounting
(shared bandwidth is charged per physical node).

The triple and search schemes share one ``(C, C, F)`` grid
(:attr:`CliquePartitions.grid_shape`): a node is its row-major position in
that grid, and nothing is stored per node.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NetworkError


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
    """The coarse (``V``) and fine (``V′``) partitions plus the grid of the
    triple and search schemes, for a clique of ``n`` nodes."""

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

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        """``(C, C, F)``: the grid of the triple scheme ``T = V × V × V′``
        and of the search scheme ``V × V × [√n]``.  A node ``(bu, bv, w)``
        of either scheme sits at the row-major position
        ``ravel_multi_index((bu, bv, w), grid_shape)``."""
        return (self.num_coarse, self.num_coarse, self.num_fine)

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
