"""The (min, +) semiring on matrices over ``Z ∪ {+∞}``.

``+∞`` is the semiring zero (absent edge / unreachable); ``-∞`` is rejected
on input — the APSP pipeline never produces one on negative-cycle-free
graphs, and admitting it would require ``∞ + (−∞)`` conventions that the
paper never needs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import GraphError

#: A distance-product implementation: ``product(A, B) = A ⋆ B``.
ProductFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _check_operand(matrix: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise GraphError(f"{name} must be 2-D, got {arr.ndim}-D")
    if np.isnan(arr).any():
        raise GraphError(f"{name} contains NaN")
    if np.isneginf(arr).any():
        raise GraphError(f"{name} contains -inf")
    return arr


def is_minplus_matrix(matrix: np.ndarray, *, max_abs: float | None = None) -> bool:
    """True iff ``matrix`` is a valid min-plus operand (square, no NaN/-inf,
    finite entries integral and bounded by ``max_abs`` when given)."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        return False
    if np.isnan(arr).any() or np.isneginf(arr).any():
        return False
    finite = arr[np.isfinite(arr)]
    if finite.size and not np.array_equal(finite, np.round(finite)):
        return False
    if max_abs is not None and finite.size and np.abs(finite).max() > max_abs:
        return False
    return True


def distance_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The distance product ``A ⋆ B`` (Definition 2).

    ``C[i, j] = min_k (A[i, k] + B[k, j])``, with ``+∞`` behaving as the
    additive identity of ``min``.  ``O(n³)`` time, vectorized row-block-wise
    to bound peak memory at ``O(block · n²)`` instead of ``O(n³)``.
    """
    a = _check_operand(a, "A")
    b = _check_operand(b, "B")
    if a.shape[1] != b.shape[0]:
        raise GraphError(f"inner dimensions differ: {a.shape} vs {b.shape}")
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.empty((rows, cols))
    # Block size chosen so each broadcast slab stays around ~8M doubles.
    block = max(1, min(rows, int(8_000_000 // max(1, inner * cols)) or 1))
    for start in range(0, rows, block):
        stop = min(start + block, rows)
        # (blk, inner, 1) + (1, inner, cols) → (blk, inner, cols), min over k.
        slab = a[start:stop, :, None] + b[None, :, :]
        out[start:stop] = slab.min(axis=1)
    return out


def minplus_power(matrix: np.ndarray, exponent: int) -> np.ndarray:
    """``matrix^exponent`` under the distance product, by repeated squaring.

    Requires ``exponent ≥ 1``.  Because APSP matrices have a zero diagonal,
    powers are monotone and ``A^k`` for any ``k ≥ n − 1`` equals the closure;
    callers exploit this by passing any power of two ``≥ n − 1``.
    """
    if exponent < 1:
        raise GraphError(f"exponent must be >= 1, got {exponent}")
    arr = _check_operand(matrix, "matrix")
    if arr.shape[0] != arr.shape[1]:
        raise GraphError("matrix must be square")
    result: np.ndarray | None = None
    base = arr
    remaining = exponent
    while remaining:
        if remaining & 1:
            result = base.copy() if result is None else distance_product(result, base)
        remaining >>= 1
        if remaining:
            base = distance_product(base, base)
    assert result is not None
    return result


def minplus_closure(matrix: np.ndarray, product: ProductFn = distance_product) -> np.ndarray:
    """The APSP closure ``A^{n}`` of a zero-diagonal matrix by ``⌈log2 n⌉``
    squarings with ``product`` — the ``O(log n)``-product schedule of
    Proposition 3.

    ``product`` is called with equal operands.  A matrix with ``n ≤ 1``
    rows is already its closure: it runs no product and comes back as a
    copy.
    """
    result = _check_operand(matrix, "matrix").copy()
    n = result.shape[0]
    if result.shape[1] != n:
        raise GraphError("matrix must be square")
    # (n - 1).bit_length() == ⌈log2 n⌉ for n ≥ 1, in exact integer arithmetic.
    for _ in range(max(n - 1, 0).bit_length()):
        result = product(result, result)
    return result
