"""Min-plus (tropical) matrix algebra.

The distance product ``(A ⋆ B)[i, j] = min_k (A[i, k] + B[k, j])``
(Definition 2) and the standard APSP-by-repeated-squaring reduction
(Proposition 3).  Everything here is centralized numpy used both as ground
truth and as node-local computation inside the distributed algorithms; the
*distributed* distance product via FindEdges (Proposition 2) lives in
:mod:`repro.core.reductions`.
"""

from repro.matrix.semiring import (
    distance_product,
    is_minplus_matrix,
    minplus_closure,
    minplus_power,
)
from repro.matrix.apsp import (
    apsp_distances,
    apsp_distances_stack,
    apsp_via_product,
    batch_distance_lookup,
    detect_negative_cycle,
)
from repro.matrix.witness import (
    path_weight,
    reconstruct_path,
    successor_matrix,
    witnessed_distance_product,
)

__all__ = [
    "witnessed_distance_product",
    "successor_matrix",
    "reconstruct_path",
    "path_weight",
    "distance_product",
    "minplus_power",
    "minplus_closure",
    "is_minplus_matrix",
    "apsp_distances",
    "apsp_distances_stack",
    "apsp_via_product",
    "batch_distance_lookup",
    "detect_negative_cycle",
]
