"""Subgraph counting: brute-force parity, caps, closed-form identities."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from netmoments.classes import class_id, ClassGraph, named_class
from netmoments import counting
from netmoments.counting import (ORDER_CAPS, OrderCapError, check_order,
                                 count_connected, full_counts)
from netmoments.graphs import Graph, make_graph

from conftest import brute_canonical, random_graph, random_weighted_graph


def brute_counts(G, r_max):
    """Count every class by explicit edge-subset enumeration, classified by
    brute-force canonicalization (independent oracle)."""
    out = {}
    edges = sorted(G.edges)
    directed = G.directed
    colors = None
    if G.node_attrs is not None:
        colors = [G.color_of(v) for v in range(G.n)]
    for r in range(1, r_max + 1):
        for sub in itertools.combinations(edges, r):
            key = brute_canonical(list(sub), directed=directed, colors=colors)
            out[key] = out.get(key, 0) + 1
    return out


def pipeline_as_brute(G, r_max):
    """full_counts keyed by the oracle's canonical form for comparison."""
    out = {}
    colors = None
    if G.node_attrs is not None:
        colors = list(range(max(G.color_of(v) for v in range(G.n)) + 1))
    for sid, c in full_counts(G, r_max).items():
        cg = _rep_of(G, sid)
        key = brute_canonical([(u, v) for u, v, _ in cg.edges],
                              directed=cg.directed,
                              colors=cg.colors if G.node_attrs is not None
                              else None)
        out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def _rep_of(G, sid):
    from netmoments.classes import universe_index
    labels = 2
    if G.node_attrs is not None:
        labels = len(G.labels())
    return universe_index(sid.mode, sid.r, labels)[sid.key].graph


def test_brute_force_parity_simple():
    rng = random.Random(11)
    for _ in range(15):
        G = random_graph(rng, rng.randint(4, 8))
        assert pipeline_as_brute(G, 4) == brute_counts(G, 4)


def test_brute_force_parity_directed():
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randint(3, 6)
        edges = [(u, v) for u in range(n) for v in range(n)
                 if u != v and rng.random() < 0.35]
        G = make_graph(n, edges, directed=True)
        if not G.edges:
            continue
        assert pipeline_as_brute(G, 3) == brute_counts(G, 3)


def test_brute_force_parity_attributed():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(4, 7)
        G = random_graph(rng, n)
        attrs = {v: rng.choice(["purple", "green"]) for v in range(n)}
        attrs[0], attrs[1] = "purple", "green"
        G = Graph(n=n, edges=dict(G.edges), node_attrs=attrs)
        assert pipeline_as_brute(G, 3) == brute_counts(G, 3)


def test_weighted_wedge_count_is_product_of_weights():
    # a single wedge with edge weights 2 and 3 counts as 2 x 3 = 6
    G = Graph(n=3, edges={(0, 1): Fraction(2), (1, 2): Fraction(3)},
              weighted=True)
    wid = named_class("weighted", "wedge").id
    assert count_connected(G, 2)[wid] == 6


def test_weighted_counts_match_explicit_sums():
    # compare connected weighted counts against direct per-pair and
    # per-triple weight sums
    rng = random.Random(14)
    nc = lambda a: named_class("weighted", a).id
    for _ in range(10):
        G = random_weighted_graph(rng, 6, p=0.6, max_w=3)
        if not G.edges:
            continue
        got = full_counts(G, 3)
        w = lambda u, v: G.edges.get((min(u, v), max(u, v)), Fraction(0))
        n = G.n
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        triples = list(itertools.combinations(range(n), 3))
        assert got[nc("edge")] == sum(w(*p) for p in pairs)
        assert got[nc("double-edge")] == sum(w(*p) ** 2 for p in pairs)
        assert got[nc("triple-edge")] == sum(w(*p) ** 3 for p in pairs)
        assert got[nc("wedge")] == sum(
            w(i, j) * w(j, k) + w(j, k) * w(k, i) + w(k, i) * w(i, j)
            for i, j, k in triples)
        assert got[nc("double-edge-wedge")] == sum(
            w(i, j) ** 2 * w(j, k) + w(j, k) ** 2 * w(k, i)
            + w(k, i) ** 2 * w(i, j) + w(i, j) * w(j, k) ** 2
            + w(j, k) * w(k, i) ** 2 + w(k, i) * w(i, j) ** 2
            for i, j, k in triples)
        # disconnected two-parallel from the pair-product identity
        c1 = got[nc("edge")]
        assert got[nc("two-parallel")] == (
            c1 * c1 / 2 - got[nc("double-edge")] / 2 - got[nc("wedge")])


def test_order_caps():
    G = make_graph(3, [(0, 1)])
    with pytest.raises(OrderCapError):
        check_order("simple", 7)
    with pytest.raises(OrderCapError):
        full_counts(G, ORDER_CAPS["simple"] + 1)


def test_split_tables_are_shared_across_orders():
    # The split tables of one order |c| + |h| are built together, once, and
    # serve every derivation plan that reaches that order.
    G = random_graph(random.Random(5), 6, 0.6)
    counting._derivation_plan.cache_clear()
    counting._split_coefficients.cache_clear()
    full_counts(G, 5)
    assert counting._split_coefficients.cache_info().misses == 4  # orders 2-5
    full_counts(G, 6)
    info = counting._split_coefficients.cache_info()
    assert info.misses == 5
    assert info.hits > 0


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.integers(0, 2 ** 36 - 1))
def test_second_order_pair_identity(n, bits):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    G = make_graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
    c = full_counts(G, 2)
    m = G.m
    wid = named_class("simple", "wedge").id
    pid = named_class("simple", "two-parallel").id
    assert math.comb(m, 2) == c.get(wid, 0) + c.get(pid, 0)
