"""Graph construction: weights and their sign check."""

from fractions import Fraction

import pytest

from netmoments.graphs import Graph, GraphDataError, make_graph, parse_graph


def test_unweighted_edges_share_one_weight():
    G = make_graph(4, [(0, 1), (2, 1), (3, 2)])
    weights = list(G.edges.values())
    assert weights == [1, 1, 1]
    assert all(w is weights[0] for w in weights)
    assert parse_graph("0 1\n1 2\n").edges[(0, 1)] is weights[0]


@pytest.mark.parametrize("w", [Fraction(-1, 3), -2])
def test_negative_weights_are_rejected(w):
    with pytest.raises(GraphDataError, match="negative weight"):
        Graph(n=2, edges={(0, 1): w}, weighted=True)
    with pytest.raises(GraphDataError, match="negative weight"):
        make_graph(2, [(0, 1, w)], weighted=True)
    assert make_graph(2, [(0, 1, 0)], weighted=True).edges[(0, 1)] == 0
