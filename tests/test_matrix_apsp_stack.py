"""Parity of the stacked Floyd–Warshall kernel with the one-graph oracle."""

import numpy as np
import pytest

import repro
from repro.errors import GraphError, NegativeCycleError
from repro.graphs.digraph import WeightedDigraph
from repro.matrix import apsp
from repro.matrix.apsp import apsp_distances_stack
from repro.service.solvers import make_solver

INF = float("inf")
SIZES = [1, 2, 8, 16, 33]


def random_stack(n: int, graphs: int, seed: int) -> np.ndarray:
    return np.stack(
        [
            repro.random_digraph_no_negative_cycle(
                n, density=0.4, max_weight=8, rng=seed + index
            ).weights
            for index in range(graphs)
        ]
    )


def per_graph(weights: np.ndarray) -> np.ndarray:
    return np.stack([repro.floyd_warshall(WeightedDigraph(w)) for w in weights])


@pytest.mark.parametrize("n", SIZES)
def test_byte_identical_to_per_graph_oracle(n):
    graphs = apsp._MAX_BLOCK_GRAPHS + 45
    assert graphs > apsp._block_graphs(n)  # the stack spans several blocks
    weights = random_stack(n, graphs, seed=100 * n)
    stacked = apsp_distances_stack(weights)
    assert stacked.shape == weights.shape
    assert stacked.tobytes() == per_graph(weights).tobytes()


@pytest.mark.parametrize("n", SIZES)
def test_input_diagonal_is_ignored(n):
    weights = random_stack(n, 40, seed=7)
    diagonal = np.arange(n)
    noisy = weights.copy()
    noisy[:, diagonal, diagonal] = np.random.default_rng(n).integers(-9, 9, (40, n))
    noisy[::3, diagonal, diagonal] = INF
    stacked = apsp_distances_stack(noisy)
    assert stacked.tobytes() == per_graph(noisy).tobytes()
    assert stacked.tobytes() == apsp_distances_stack(weights).tobytes()
    assert (stacked[:, diagonal, diagonal] == 0).all()


@pytest.mark.parametrize("n", [0, 1, 5])
def test_empty_stack(n):
    assert apsp_distances_stack(np.empty((0, n, n))).shape == (0, n, n)


@pytest.mark.parametrize(
    "bad, message",
    [(np.nan, "NaN"), (-INF, "-inf"), (2.5, "integers")],
)
def test_invalid_entries_raise_graph_error(bad, message):
    weights = random_stack(6, 10, seed=3)
    weights[7, 2, 4] = bad
    with pytest.raises(GraphError, match=message):
        apsp_distances_stack(weights)


def test_non_square_stack_raises_graph_error():
    with pytest.raises(GraphError):
        apsp_distances_stack(np.zeros((3, 4, 5)))
    with pytest.raises(GraphError):
        apsp_distances_stack(np.zeros((4, 4)))


@pytest.mark.parametrize("index", [0, 299, 300])
def test_negative_cycle_names_the_graph(index):
    weights = random_stack(5, 301, seed=11)
    weights[index] = WeightedDigraph.from_edges(5, [(1, 3, -4), (3, 1, 2)]).weights
    with pytest.raises(NegativeCycleError, match=rf"\bgraph {index}\b"):
        apsp_distances_stack(weights)


class TestSolveStack:
    def test_matches_per_graph_solves(self):
        solver = make_solver("floyd-warshall")
        weights = random_stack(9, 12, seed=5)
        outcome = solver.solve_stack(weights)
        assert outcome.rounds == 0.0
        assert outcome.details == {"graphs": 12}
        for index, w in enumerate(weights):
            single = solver.solve(WeightedDigraph(w))
            assert outcome.distances[index].tobytes() == single.distances.tobytes()
