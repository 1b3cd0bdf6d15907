"""Node-local and edge-local moments and cumulants."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from netmoments.classes import named_class
from netmoments.counting import OrderCapError, full_counts
from netmoments.graphs import GraphDataError, make_graph
from netmoments.localstats import edge_local_cumulants, node_local_cumulants

from conftest import edge_local_reference, node_local_reference, random_graph


def test_star_center():
    G = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    s = node_local_cumulants(G, 0)
    assert s.moments["self"] == 1
    assert s.moments["other"] == 0
    assert s.moments["triangle"] == 0
    assert s.kappa_triangle == 0


def test_p4_leaf_plug_in():
    G = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    s = node_local_cumulants(G, 0)
    mu = s.moments
    assert mu["self"] == Fraction(1, 3)
    assert mu["other"] == Fraction(2, 3)
    assert mu["wedge-center"] == 0
    assert mu["wedge-end"] == Fraction(1, 6)
    want = (mu["triangle"] - mu["wedge-center"] * mu["other"]
            - 2 * mu["wedge-end"] * mu["self"]
            + 2 * mu["self"] ** 2 * mu["other"])
    assert s.kappa_triangle == want == Fraction(1, 27)


def test_p3_middle_edge():
    G = make_graph(3, [(0, 1), (1, 2)])
    s = edge_local_cumulants(G, (0, 1))
    assert s.moments["wedge-attached"] == Fraction(1, 2)
    assert s.moments["triangle"] == 0
    mu = s.moments
    want = (mu["triangle"] - 2 * mu["wedge-attached"] * mu["detached"]
            - mu["wedge-detached"] * mu["star"]
            + 2 * mu["star"] * mu["detached"] ** 2)
    assert s.kappa_triangle == want


def test_triangle_plus_isolated_edge():
    G = make_graph(4, [(0, 1), (1, 2), (0, 2)])
    s = edge_local_cumulants(G, (0, 1))
    assert s.moments["triangle"] == Fraction(1, 2)
    assert s.to_json_dict()["anchor"] == [0, 1]


def test_anchor_errors():
    G = make_graph(4, [(0, 1), (1, 2)])
    with pytest.raises(GraphDataError):
        edge_local_cumulants(G, (0, 3))
    with pytest.raises(GraphDataError):
        node_local_cumulants(G, 7)
    with pytest.raises(ValueError):
        node_local_cumulants(G, 0, r_max=4)
    for r_max in (0, -1, 4):
        for call, anchor in ((node_local_cumulants, 0),
                             (edge_local_cumulants, (0, 1))):
            with pytest.raises(OrderCapError if r_max > 3 else ValueError):
                call(G, anchor, r_max=r_max)


def test_aggregation_identities():
    rng = random.Random(21)
    wid = named_class("simple", "wedge").id
    tid = named_class("simple", "triangle").id
    for _ in range(20):
        n = rng.randint(4, 9)
        G = random_graph(rng, n)
        counts = full_counts(G, 3)
        half = Fraction((n - 1) * (n - 2), 2)
        total_wc = sum(node_local_cumulants(G, v).moments["wedge-center"]
                       * half for v in range(n))
        assert total_wc == counts.get(wid, 0)
        total_tri = sum(edge_local_cumulants(G, e).moments["triangle"]
                        * (n - 2) for e in G.edges)
        assert total_tri == 3 * counts.get(tid, 0)


def assert_same_stats(got, want):
    assert list(got.moments.items()) == list(want.moments.items())
    assert got.kappa_triangle == want.kappa_triangle
    assert got.kappa_scaled == want.kappa_scaled
    assert got.to_json_dict() == want.to_json_dict()


@st.composite
def simple_graphs(draw):
    n = draw(st.integers(3, 12))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return make_graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=60, deadline=None)
@given(simple_graphs())
def test_local_statistics_match_the_closed_forms(G):
    for r_max in (1, 2, 3):
        for v in range(G.n):
            if r_max == 3 and G.n < 4:
                with pytest.raises(GraphDataError):
                    node_local_cumulants(G, v, r_max)
                continue
            assert_same_stats(node_local_cumulants(G, v, r_max),
                              node_local_reference(G, v, r_max))
        for e in G.edges:
            assert_same_stats(edge_local_cumulants(G, e, r_max),
                              edge_local_reference(G, e, r_max))


@pytest.mark.parametrize("n, anchor", [(3, (0, 1)), (3, (1, 2)), (4, (0, 2))])
def test_anchor_as_the_only_edge(n, anchor):
    # every node with an edge is in the anchor: one node outside it is
    # labelled too, or the alphabet would be {1} and star would count 0
    G = make_graph(n, [anchor])
    for r_max in (1, 2, 3):
        s = edge_local_cumulants(G, anchor, r_max)
        assert s.moments["star"] == 1
        assert_same_stats(s, edge_local_reference(G, anchor, r_max))
    for v in anchor:
        assert_same_stats(node_local_cumulants(G, v, 2),
                          node_local_reference(G, v, 2))


def test_isolated_and_edgeless_node_anchors():
    G = make_graph(5, [(1, 2), (2, 3), (1, 3), (3, 4)])
    s = node_local_cumulants(G, 0)
    assert s.moments["self"] == s.moments["wedge-center"] == 0
    assert s.moments["other"] == Fraction(4, 6)
    assert_same_stats(s, node_local_reference(G, 0))
    empty = make_graph(4, [])
    for v in range(4):
        s = node_local_cumulants(empty, v)
        assert set(s.moments.values()) == {0}
        assert_same_stats(s, node_local_reference(empty, v))
