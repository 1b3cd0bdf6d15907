"""Subgraph counting: brute-force parity, caps, closed-form identities,
and the simple-mode homomorphism engine against ESU."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from netmoments.classes import class_id, ClassGraph, named_class
from netmoments import counting
from netmoments.cli import main
from netmoments.counting import (ORDER_CAPS, OrderCapError, check_order,
                                 count_connected, esu_counts, full_counts)
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


# ---------------------------------------------------------------------------
# Simple mode: homomorphism counts against ESU and the brute-force oracle

def _as_brute(G, counts):
    """Counts keyed by the oracle's canonical form."""
    out = {}
    for sid, c in counts.items():
        cg = _rep_of(G, sid)
        out[brute_canonical([(u, v) for u, v, _ in cg.edges])] = c
    return out


def _edge_set_connected(sub):
    reach, rest = set(sub[0]), set(sub[1:])
    while rest:
        touching = {e for e in rest if not reach.isdisjoint(e)}
        if not touching:
            return False
        reach.update(x for e in touching for x in e)
        rest -= touching
    return True


def _connected_brute(G, r_max):
    """brute_counts restricted to connected edge subsets."""
    out = {}
    for r in range(1, r_max + 1):
        for sub in itertools.combinations(sorted(G.edges), r):
            if _edge_set_connected(sub):
                key = brute_canonical(list(sub))
                out[key] = out.get(key, 0) + 1
    return out


_PAIRS8 = [(u, v) for u in range(8) for v in range(u + 1, 8)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.sets(st.sampled_from(_PAIRS8), max_size=12),
       st.integers(0, 3), st.integers(0, 50), st.integers(1, 6))
@example(2, {(0, 1)}, 0, 0, 6)        # the single-edge graph
@example(8, set(), 2, 0, 3)           # isolated nodes only
@example(3, {(0, 1)}, 3, 40, 6)       # one edge among isolated nodes
def test_simple_counts_match_esu_and_brute(n, pairs, extra, shift, r):
    edges = [(u + shift, v + shift) for u, v in pairs if v < n]
    G = make_graph(n + shift + extra, edges)
    got = count_connected(G, r)
    assert got == esu_counts(G, r)
    assert all(isinstance(c, int) and c > 0 for c in got.values())
    assert _as_brute(G, got) == _connected_brute(G, r)


def test_simple_mode_never_enumerates(monkeypatch):
    calls = []
    real = counting.connected_edge_subsets

    def counted(slots, max_size):
        calls.append(max_size)
        return real(slots, max_size)

    monkeypatch.setattr(counting, "connected_edge_subsets", counted)
    G = random_graph(random.Random(21), 9, 0.5)
    for r in range(1, ORDER_CAPS["simple"] + 1):
        full_counts(G, r)
    assert calls == []
    esu_counts(G, 2)
    assert calls == [2]


def _star(k):
    return ClassGraph.make(k + 1, [(0, i, 1) for i in range(1, k + 1)])


def test_star_counts_are_exact_in_int64():
    # 2 * 500 * 500^5 is past float64's exact integers, within int64
    assert 2 ** 53 < 2 * 500 ** 6 < 2 ** 63
    G = make_graph(501, [(0, i) for i in range(1, 501)])
    for r, dtype in ((5, np.float64), (6, np.int64)):
        _, _, nodes, walk = counting._hom_basis(r)
        assert counting._Host(G, nodes, walk, r).dtype == dtype
    want = {class_id(_star(k), "simple"): math.comb(500, k)
            for k in range(1, 7)}
    assert count_connected(G, 6) == want


def test_exactness_cap_refuses_before_allocating(tmp_path, capsys):
    G = make_graph(2001, [(0, i) for i in range(1, 2001)])
    counting._hom_basis(6)
    tracemalloc.start()
    try:
        with pytest.raises(OrderCapError, match="2\\^63"):
            count_connected(G, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20   # A @ A of this star has 4,000,000 entries
    assert count_connected(G, 3)[named_class("simple", "claw").id] == \
        math.comb(2000, 3)
    path = tmp_path / "star.txt"
    path.write_text("".join(f"0 {i}\n" for i in range(1, 2001)))
    assert main(["count", str(path), "--order", "6"]) == 4
    assert "2^63" in capsys.readouterr().err


def test_walk_cap_refuses_before_allocating(tmp_path, capsys):
    # A @ A of a star with 3,000 leaves has 9,000,000 entries
    G = make_graph(3001, [(0, i) for i in range(1, 3001)])
    counting._hom_basis(4)
    tracemalloc.start()
    try:
        with pytest.raises(OrderCapError, match="walks of length 2"):
            count_connected(G, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    path = tmp_path / "star.txt"
    path.write_text("".join(f"0 {i}\n" for i in range(1, 3001)))
    assert main(["count", str(path), "--order", "4"]) == 4
    assert "walks" in capsys.readouterr().err


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_matrix_products_walk_at_most_three_steps():
    # the square needs A @ A; the six-cycle, eliminated greedily by the
    # shortest product, would need four-step walks
    assert [counting._hom_basis(r)[3] for r in range(1, 7)] == \
        [0, 0, 0, 2, 3, 3]


def test_memory_follows_edges_not_node_ids():
    count_connected(make_graph(3, [(0, 1), (1, 2)]), 5)  # warm the basis
    G = make_graph(3_000_001, [(0, 1), (1, 3_000_000)])
    got = {}
    assert _peak_bytes(lambda: got.update(count_connected(G, 5))) < 2 ** 20
    assert got == {named_class("simple", "edge").id: 2,
                   named_class("simple", "wedge").id: 1}


def test_order_three_builds_no_node_square_array():
    rng = random.Random(22)
    n = 20_000
    edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(40_000)}
    G = make_graph(n, sorted(edges))
    count_connected(make_graph(3, [(0, 1), (1, 2)]), 3)  # warm the basis
    got = {}
    # one n x n float64 array would be 3.2 GB, a boolean one 400 MB
    assert _peak_bytes(lambda: got.update(count_connected(G, 3))) < 2 ** 25
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    assert got[named_class("simple", "wedge").id] == sum(
        d * (d - 1) // 2 for d in deg)


def test_order_three_star_counts_without_wedges():
    # 60001 * 60000^3 is past 2^63, but no hom value exceeds 2 * 60000^3;
    # numbered by id, the hub would be the apex of C(60000, 2) wedges and
    # each array over them would take 14 GB
    G = make_graph(60_001, [(0, i) for i in range(1, 60_001)])
    count_connected(make_graph(3, [(0, 1), (1, 2)]), 3)  # warm the basis
    got = {}
    assert _peak_bytes(lambda: got.update(count_connected(G, 3))) < 2 ** 25
    assert got[named_class("simple", "claw").id] == math.comb(60_000, 3)
    assert got[named_class("simple", "wedge").id] == math.comb(60_000, 2)


def test_order_four_products_follow_walks():
    rng = random.Random(22)
    n = 20_000
    edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(40_000)}
    G = make_graph(n, sorted(edges))
    count_connected(make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 4)
    got = {}
    # one n x n float64 array would be 3.2 GB; A @ A has about 400,000
    # entries here
    assert _peak_bytes(lambda: got.update(count_connected(G, 4))) < 2 ** 26
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    common = {}
    for around in nbrs:
        for pair in itertools.combinations(sorted(around), 2):
            common[pair] = common.get(pair, 0) + 1
    squares = sum(c * (c - 1) // 2 for c in common.values()) // 2
    assert squares and got[named_class("simple", "square").id] == squares
