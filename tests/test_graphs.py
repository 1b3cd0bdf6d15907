"""Graph construction and parsing: weights, node ids, malformed text."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from netmoments.graphs import (Graph, GraphDataError, UNIT, make_graph,
                               parse_graph)

from conftest import edge_lists


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


def test_node_ids_from_2_63_are_rejected():
    top = 2 ** 63 - 1   # the largest id an int64 holds
    assert make_graph(top + 1, [(0, top)]).n == 2 ** 63
    assert parse_graph(f"0 1\n1 {top}\n").n == 2 ** 63
    with pytest.raises(GraphDataError, match="below 2"):
        make_graph(2 ** 64 + 1, [(0, 2 ** 64)])
    with pytest.raises(GraphDataError, match="below 2"):
        Graph(n=2 ** 63 + 1, edges={(0, 1): UNIT})
    with pytest.raises(GraphDataError,
                       match="line 2: node id 18446744073709551616 "):
        parse_graph("0 1\n1 18446744073709551616\n")
    with pytest.raises(GraphDataError, match="attributes line 1"):
        parse_graph("0 1\n", attr_text=f"{2 ** 63}\ta\n")


def test_a_node_labelled_twice_is_refused():
    with pytest.raises(GraphDataError,
                       match="attributes line 3: node 0 labelled twice"):
        parse_graph("0 1\n", attr_text="0\ta\n1\tb\n0\tb\n")
    with pytest.raises(GraphDataError, match="line 2: node 1 labelled"):
        parse_graph("0 1\n", attr_text="1 a\n1 a\n0 b\n")


def test_weight_exponents_are_bounded():
    assert parse_graph("0 1 1e4300", weighted=True).edges[(0, 1)] == \
        10 ** 4300
    assert parse_graph("0 1 2.5E-3", weighted=True).edges[(0, 1)] == \
        Fraction(1, 400)
    # Fraction would expand 10^1000000000 digit by digit
    for token in ("1e4301", "1e-1000000000", "1e1_000_000_000"):
        with pytest.raises(GraphDataError, match="bad weight"):
            parse_graph(f"0 1 {token}", weighted=True)


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.booleans(), st.data())
def test_parse_graph_returns_a_graph_or_a_data_error(directed, weighted,
                                                     data):
    text = data.draw(edge_lists(weighted))
    nodes = data.draw(st.one_of(st.none(), st.integers(-1, 2 ** 64)))
    try:
        G = parse_graph(text, directed=directed, weighted=weighted,
                        nodes=nodes)
    except GraphDataError:
        return
    assert 0 < G.n <= 2 ** 63
    assert all(0 <= u < G.n and 0 <= v < G.n for u, v in G.edges)


def test_new_node_labels_are_checked_alone():
    # local statistics relabel an already checked graph: its edges are
    # not checked again, its new labels are
    G = make_graph(4, [(0, 1), (1, 2)])
    H = G._with_node_attrs({0: 1, 1: 0, 2: 0})
    assert (H.n, H.edges, H.node_attrs) == (4, G.edges, {0: 1, 1: 0, 2: 0})
    assert G.node_attrs is None
    for labels in ({4: 1}, {-1: 0}):
        with pytest.raises(GraphDataError, match="attribute for unknown"):
            G._with_node_attrs(labels)
