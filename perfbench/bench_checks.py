"""Ground truth and per-operation output checks for the perfbench workloads.

Every check here is plain numpy written independently of the code under
test, so a check can never pass because the library agrees with itself.
Each function returns how many operations it found wrong; the benchmark
counts those as failed operations.
"""

from __future__ import annotations

import numpy as np

#: Found pairs checked per vectorised chunk: the (chunk, n) float64
#: temporaries stay near 32 MB at n = 1024, far below the solve's own peak.
_PAIR_CHUNK = 4096


def floyd_warshall_stack(weights: np.ndarray) -> np.ndarray:
    """All-pairs distances of one ``(n, n)`` or a ``(G, n, n)`` stack of
    weight matrices (``+inf`` = no edge, the diagonal is taken as 0)."""
    dist = np.array(weights, dtype=np.float64, copy=True)
    single = dist.ndim == 2
    if single:
        dist = dist[None]
    n = dist.shape[-1]
    diag = np.arange(n)
    dist[:, diag, diag] = 0.0
    for k in range(n):
        np.minimum(dist, dist[:, :, k:k + 1] + dist[:, k:k + 1, :], out=dist)
    return dist[0] if single else dist


def bad_triangle_pairs(weights: np.ndarray, pairs: np.ndarray) -> int:
    """How many found pairs ``(a, b)`` do *not* close a negative triangle.

    A pair is good when ``{a, b}`` is an edge and some third vertex ``w``
    has ``f(a, w) + f(w, b) < -f(a, b)``.  ``weights`` is the symmetric
    undirected matrix (``+inf`` = no edge), so row ``b`` is column ``b``.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    bad = 0
    for lo in range(0, len(pairs), _PAIR_CHUNK):
        a = pairs[lo:lo + _PAIR_CHUNK, 0]
        b = pairs[lo:lo + _PAIR_CHUNK, 1]
        two_hop = weights[a] + weights[b]
        rows = np.arange(len(a))
        two_hop[rows, a] = np.inf  # a triangle needs a third vertex
        two_hop[rows, b] = np.inf
        pair_weight = weights[a, b]
        good = (a != b) & np.isfinite(pair_weight) & (two_hop.min(axis=1) < -pair_weight)
        bad += int(np.count_nonzero(~good))
    return bad


def bad_distance_graphs(distances: np.ndarray, truth: np.ndarray) -> int:
    """How many graphs of a ``(G, n, n)`` stack differ from ground truth."""
    distances = np.asarray(distances).reshape(truth.shape)
    same = (distances == truth).reshape(len(truth), -1).all(axis=1)
    return int(np.count_nonzero(~same))


def path_ok(weights: np.ndarray, truth: np.ndarray, u: int, v: int, path) -> bool:
    """Whether ``path`` is a shortest ``u → v`` path (``None`` iff unreachable)."""
    if not np.isfinite(truth[u, v]):
        return path is None
    if not path or path[0] != u or path[-1] != v:
        return False
    steps = np.asarray(path, dtype=np.int64)
    weight = float(weights[steps[:-1], steps[1:]].sum())
    return weight == float(truth[u, v])


def bad_answers(weights: np.ndarray, truth: np.ndarray, requests, values) -> int:
    """How many answers of one query batch are wrong.

    ``requests`` are ``(kind, u, v)`` triples and ``values`` the answers in
    the same order: a distance, a vertex path, or the diameter.
    """
    if len(values) != len(requests):
        return len(requests)
    diameter = float(truth.max())
    bad = 0
    for (kind, u, v), value in zip(requests, values):
        if kind == "dist":
            ok = value == float(truth[u, v])
        elif kind == "path":
            ok = path_ok(weights, truth, u, v, value)
        else:
            ok = value == diameter
        bad += not ok
    return bad
