"""The Grover-free ablation: ComputePairs with linear-scan Step 3.

Replacing the quantum searches of Step 3 with a classical scan over each
class's blocks costs ``|X| · r`` rounds instead of ``Õ(√|X|) · r`` — the
paper notes Step 3 "can easily be implemented in O(√n) rounds in the
classical setting".  Everything else (Steps 1–2, IdentifyClass, the
evaluation procedures and their load balancing) is identical, so comparing
this backend to :class:`~repro.core.find_edges.QuantumFindEdges` isolates
exactly the rounds the quantum search saves.
"""

from __future__ import annotations

from repro.core.constants import SIMULATION, PaperConstants
from repro.core.find_edges import QuantumFindEdges
from repro.util.rng import RngLike


class GroverFreeFindEdges(QuantumFindEdges):
    """ComputePairs with ``search_mode="classical"`` (see module docstring).

    Deterministic detection (no Grover failure probability), classical
    round cost.  Its Step 3 draws no schedule and no seeds, so it takes no
    RNG consumption contract.
    """

    def __init__(
        self,
        *,
        constants: PaperConstants = SIMULATION,
        rng: RngLike = None,
        amplification: float = 12.0,
        max_retries: int = 5,
    ) -> None:
        super().__init__(
            constants=constants,
            rng=rng,
            search_mode="classical",
            amplification=amplification,
            max_retries=max_retries,
        )
