"""Evaluation procedures for the Step-3 quantum searches (Figures 4 and 5).

The quantum searches of ComputePairs query, for a pair ``{u, v}`` and a fine
block ``w``, whether some ``w ∈ w`` closes a negative triangle — i.e.
whether ``min_{w∈w}(f(u, w) + f(w, v)) < −f(u, v)``.  (The paper's
Inequality (2) prints this test as ``min ≤ f(u, v)``; the negative-triangle
definition it is checking — ``f(u,v) + f(u,w) + f(w,v) < 0`` — requires the
strict ``< −f(u, v)`` form, which is what this implementation uses.)

Two pieces live here:

* :func:`block_two_hop` — the node-local computation performed by the triple
  node ``(u, v, w)`` from the weights it gathered in Step 1.  In the
  simulator this is evaluated directly from the instance's weight matrix,
  in the integer code of :class:`CodedWeights` when the weights are the
  bounded integers of Proposition 2, and stays in that code: readers
  compare against :meth:`CodedWeights.threshold`.  It decodes to what the
  triple nodes would compute byte for byte and costs no rounds (local
  computation is free in the model).  :func:`witnessed_two_hop`, the
  ground truth's min-plus over every witness, shares its kernel.
* the **round costs** of one application of the evaluation procedure:
  :func:`fig4_eval_rounds` for class ``α = 0`` and :func:`fig5_eval_rounds`
  for ``α > 0`` (with the bandwidth-duplication labeling
  ``Tα × [2^α / (720·log n)]``).  These compute the exact Lemma-1 charge of
  the procedure's message pattern: each search node sends each queried pair
  (2 vertex ids + 1 weight = 3 words) to the responsible (duplicated) triple
  node, per-destination loads capped at ``β`` pairs by the typicality
  truncation, and the answers (1 word per pair) flow back — "with the same
  complexity as Step 1" (Fig. 4), hence the factor 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.congest.partitions import CliquePartitions
from repro.congest.router import route_rounds
from repro.core.constants import PaperConstants

#: Words per queried pair in the forward direction: two endpoint ids and the
#: pair weight (Fig. 4 Step 1: "together to each pair sent, its weight").
PAIR_QUERY_WORDS = 3
#: Words per answer in the backward direction (one bit, one-word granularity).
PAIR_ANSWER_WORDS = 1


#: Integer codes of the two-hop kernel, narrowest first.  Proposition 2
#: runs ComputePairs on weights in ``{−M..M} ∪ {+∞}``; a code with sentinel
#: ``s = 3M + 1`` for ``+∞`` fits a dtype when ``2s`` (two sentinels summed)
#: does: int8 up to M = 20, int16 up to M = 5460.
_TWO_HOP_CODES = (np.int8, np.int16)


@dataclass(frozen=True)
class CodedWeights:
    """A witness matrix in the two-hop kernel's narrowest exact code.

    ``matrix`` holds the weights as int8/int16 with ``+∞`` stored as
    ``sentinel = 3·bound + 1`` (``bound`` is the largest finite ``|f|``).
    Every finite two-hop sum lies in ``[−2·bound, 2·bound]`` and every sum
    with a ``+∞`` term is at least ``sentinel − bound = 2·bound + 1``, so
    the integer broadcast-min is exact and decodes back to the float64 one
    byte for byte.  Weights that are not all integral (or are ``−∞``/NaN,
    or are ``−0.0``, whose sign float addition keeps) or whose bound is too
    large for int16 keep the float64 matrix and ``sentinel = None``.

    :meth:`encode` reads the whole matrix, so a solve encodes its witness
    matrix once and hands the result to every :func:`block_two_hop` call.
    """

    matrix: np.ndarray
    sentinel: int | None
    bound: int

    @classmethod
    def encode(cls, weights: np.ndarray) -> "CodedWeights":
        weights = np.asarray(weights, dtype=np.float64)
        finite = np.isfinite(weights)
        values = weights[finite]
        bound = int(np.abs(values).max()) if values.size else 0
        integral = (
            bool((finite | (weights == np.inf)).all())
            and bool((values == np.rint(values)).all())
            and not np.signbit(values[values == 0]).any()
        )
        if integral:
            sentinel = 3 * bound + 1
            for dtype in _TWO_HOP_CODES:
                if 2 * sentinel <= np.iinfo(dtype).max:
                    matrix = np.where(finite, weights, sentinel).astype(dtype)
                    return cls(matrix, sentinel, bound)
        return cls(weights, None, bound)

    @property
    def shape(self) -> tuple[int, ...]:
        """The matrix shape, so code that sizes the work from
        ``weights.shape`` reads coded and plain weights alike."""
        return self.matrix.shape

    @property
    def dtype(self) -> np.dtype:
        return self.matrix.dtype

    def threshold(self, pair_weights: np.ndarray) -> np.ndarray:
        """Per-pair bounds for comparing two-hop tables in this code.

        A table entry ``c`` satisfies ``c < threshold(f)`` exactly when the
        two-hop value it codes is below ``−f`` — the negative-triangle test
        of a pair with weight ``f``.  In the integer code the bound is
        ``t = min(⌈−f⌉, sentinel − bound)``, clipped to the dtype: the
        ceiling makes the strict test exact for integral ``c``, and the
        clamp keeps every coded ``+∞`` (``c ≥ sentinel − bound``) a miss
        even when ``−f`` exceeds every finite sum, as it can when the pair
        weights come from another graph than the witnesses (Proposition 1's
        edge-sampled sub-instances).  Uncoded tables compare against
        ``−f`` itself.
        """
        bounds = -np.asarray(pair_weights, dtype=np.float64)
        if self.sentinel is None:
            return bounds
        info = np.iinfo(self.dtype)
        clamped = np.minimum(np.ceil(bounds), self.sentinel - self.bound)
        return np.clip(clamped, info.min, info.max).astype(self.dtype)

    def decode(self, table: np.ndarray) -> np.ndarray:
        """A two-hop table in this code as float64 values, coded ``+∞``
        (``≥ sentinel − bound``) back to ``+inf`` — the tables the float64
        kernels compute, for readers outside the kernel."""
        if self.sentinel is None:
            return np.asarray(table, dtype=np.float64)
        decoded = table.astype(np.float64)
        decoded[table >= self.sentinel - self.bound] = np.inf
        return decoded


#: Bytes of the ``(rows, witnesses, cols)`` broadcast temporary per
#: min-plus chunk.  One chunk covers a ``block_two_hop`` fine block at
#: n = 1024 in int8 and int16; on the ground-truth kernel at n = 1296,
#: 4 MB and 16 MB chunks ran alike and 64 MB chunks 35% slower.
_MIN_PLUS_BYTES = 1 << 22


def _min_plus(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> None:
    """``out[i, j] = min_k (left[i, k] + right[k, j])``, in the operands'
    dtype, broadcast over row chunks of at most ``_MIN_PLUS_BYTES``."""
    cells = left.shape[1] * right.shape[1] * left.itemsize
    step = max(1, _MIN_PLUS_BYTES // max(1, cells))
    for lo in range(0, left.shape[0], step):
        # (rows, k, 1) + (1, k, cols) → min over the witness axis.  Assigned,
        # not reduced with ``out=``: a strided ``out`` (one fine-block layer
        # of ``block_two_hop``'s table) makes the reduction 4x slower.
        out[lo:lo + step] = (left[lo:lo + step, :, None] + right[None, :, :]).min(axis=1)


def block_two_hop(
    weights: np.ndarray | CodedWeights,
    block_u: np.ndarray,
    block_v: np.ndarray,
    fine_blocks: Sequence[np.ndarray],
) -> np.ndarray:
    """``H[a, b, w] = min_{w ∈ fine_blocks[w]} (weights[u_a, w] + weights[w, v_b])``,
    in the :class:`CodedWeights` code.

    The slice of two-hop min-plus values the triple nodes ``(u, v, ·)``
    jointly hold after Step 1 of ComputePairs, one layer per fine block.
    Shape ``(len(block_u), len(block_v), len(fine_blocks))``, in the code's
    dtype: int8 for the bounded weights of Proposition 2 (int16 for larger
    bounds), where entries ``≥ sentinel − bound`` stand for ``+∞`` (no
    witness path); float64 weights outside the code run the same kernel
    uncoded.  Nothing is decoded: readers compare against
    :meth:`CodedWeights.threshold`, and :meth:`CodedWeights.decode` gives
    the float64 values.  Pass ``CodedWeights.encode(weights)`` to encode
    once for many calls; a plain matrix is encoded per call.
    """
    coded = weights if isinstance(weights, CodedWeights) else CodedWeights.encode(weights)
    code = coded.matrix
    out = np.empty((len(block_u), len(block_v), len(fine_blocks)), dtype=code.dtype)
    rows_u = code[block_u]
    for index, fine in enumerate(fine_blocks):
        _min_plus(rows_u[:, fine], code[np.ix_(fine, block_v)], out[:, :, index])
    return out


def witnessed_two_hop(
    coded: CodedWeights, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """``out[i, j] = min_{w ∉ {u, v}} (f(u, w) + f(w, v))`` for
    ``u = rows[i]``, ``v = cols[j]``, over every witness ``w`` — the
    ground-truth two-hop of
    :meth:`~repro.core.problems.FindEdgesInstance.reference_solution`,
    in ``coded``'s code (compare with :meth:`CodedWeights.threshold`).

    The diagonal is forced to the code's ``+∞`` so the degenerate
    witnesses ``w ∈ {u, v}`` never contribute, and the witness axis runs
    through :func:`_min_plus` in row chunks, so the ``(rows, n, cols)``
    temporary stays bounded.
    """
    matrix = coded.matrix.copy()
    np.fill_diagonal(matrix, np.inf if coded.sentinel is None else coded.sentinel)
    out = np.empty((len(rows), len(cols)), dtype=matrix.dtype)
    _min_plus(matrix[rows], matrix[:, cols], out)
    return out


def duplication_count(constants: PaperConstants, n: int, alpha: int) -> int:
    """Size of the duplication index set ``[2^α / (720 log n)]`` for class
    ``α`` (Section 5.3.2), at least 1.  The ``720 log n`` denominator uses
    the same (scaled) constant as Lemma 4 so that ``|Tα| × duplication ≤ n``
    keeps holding under the scale knob."""
    if alpha == 0:
        return 1
    denom = constants.class_bound_factor * constants.scale * constants.log_n(n)
    return max(1, int(round((2.0 ** alpha) / denom)))


@dataclass(frozen=True)
class QueryPlan:
    """Columnar form of one class's evaluation query plan.

    One row per (search node, destination) entry.  ``src_phys``/``dst_phys``
    are the entry's *physical* hosts (label positions already reduced mod
    ``n``), ``pair_counts`` the number of queried pairs, all ``int64``
    columns; loads reduce with one ``np.bincount`` per direction and the
    β-cap is one ``np.minimum``.
    """

    src_phys: np.ndarray
    dst_phys: np.ndarray
    pair_counts: np.ndarray

    def __post_init__(self) -> None:
        for name in ("src_phys", "dst_phys", "pair_counts"):
            column = np.asarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, column)
        if not (self.src_phys.shape == self.dst_phys.shape == self.pair_counts.shape):
            raise ValueError("QueryPlan columns must align")
        if self.src_phys.ndim != 1:
            raise ValueError("QueryPlan columns must be 1-D")

    def __len__(self) -> int:
        return int(self.src_phys.size)


def query_loads(
    num_nodes: int, plan: QueryPlan, beta_pairs: float
) -> tuple[np.ndarray, np.ndarray]:
    """Source/destination word loads of one forward evaluation delivery.

    Per-destination pair counts are capped at ``β`` by the typicality
    truncation (`np.minimum`) before conversion to words; the per-physical-
    node histograms are one ``np.bincount`` per direction — byte-identical
    to the dict walk :func:`tests.reference.query_loads_dicts`
    (``tests/test_step3_equivalence.py``).
    """
    capped = np.minimum(plan.pair_counts, int(np.ceil(beta_pairs)))
    np.maximum(capped, 0, out=capped)
    words = (PAIR_QUERY_WORDS * capped).astype(np.float64)
    src_load = np.bincount(plan.src_phys, weights=words, minlength=num_nodes)
    dst_load = np.bincount(plan.dst_phys, weights=words, minlength=num_nodes)
    return src_load.astype(np.int64), dst_load.astype(np.int64)


def evaluation_rounds(num_nodes: int, plan: QueryPlan, beta_pairs: float) -> float:
    """Round cost of one application of the evaluation procedure.

    Forward (queries) plus backward (answers); the backward direction moves
    ``PAIR_ANSWER_WORDS / PAIR_QUERY_WORDS`` as many words along the reversed
    pattern, which Lemma 1 charges at most as much as the forward direction,
    so the paper's "same complexity" is charged as a second forward cost.
    """
    src_load, dst_load = query_loads(num_nodes, plan, beta_pairs)
    one_way = route_rounds(num_nodes, src_load, dst_load)
    return 2.0 * one_way


def step0_duplication_loads(
    num_nodes: int,
    src_phys: np.ndarray,
    dst_phys: np.ndarray,
    size_words: np.ndarray,
) -> float:
    """Round cost of Fig. 5's Step 0: every class-``α`` triple node
    broadcasts its Step-1 data to its duplicate labels (once per class, not
    per oracle call — the duplicated data is classical and static).

    One row per (source triple, duplicate) entry: ``src_phys[i]`` ships
    ``size_words[i]`` words to ``dst_phys[i]``; rows whose duplicate is
    hosted on the source's own physical node are free (one mask), and the
    loads are two ``np.bincount`` histograms.
    """
    src_phys = np.asarray(src_phys, dtype=np.int64)
    dst_phys = np.asarray(dst_phys, dtype=np.int64)
    words = np.asarray(size_words, dtype=np.float64)
    moved = src_phys != dst_phys
    src_load = np.bincount(src_phys[moved], weights=words[moved], minlength=num_nodes)
    dst_load = np.bincount(dst_phys[moved], weights=words[moved], minlength=num_nodes)
    return route_rounds(num_nodes, src_load.astype(np.int64), dst_load.astype(np.int64))
