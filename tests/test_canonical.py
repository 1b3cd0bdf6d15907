"""Canonical search: pinned key format, automorphism counts, input limits."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from netmoments.canonical import canonicalize
from netmoments.classes import universe

from conftest import brute_aut_count, group_closure

# SHA-256 over (key, aut) of the inputs in _golden_items (the universes at each
# mode's order cap), recorded before the canonical search was rewritten.  Keys appear in every JSON payload through
# SubgraphId.key, so any change here is a change of output format.
GOLDEN_DIGEST = ("d8ac2f91b41018792794abd699a8ee49"
                 "bd731a0473f029d9e1e705df4e2fd4f1")


def _all_graphs(n, directed):
    if directed:
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    else:
        pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield [(u, v, 1) for i, (u, v) in enumerate(pairs) if bits >> i & 1]


def _golden_items():
    for n in range(6):
        for edges in _all_graphs(n, directed=False):
            res = canonicalize(n, edges)
            yield res.key.hex(), res.aut
    for n in range(4):
        for edges in _all_graphs(n, directed=True):
            res = canonicalize(n, edges, directed=True)
            yield res.key.hex(), res.aut
    for mode, cap in (("simple", 6), ("directed", 5), ("weighted", 5),
                      ("attributed", 3), ("bipartite", 4)):
        for r, infos in sorted(universe(mode, cap).items()):
            for ci in infos:
                yield f"{mode}:{r}:{ci.id.key}", ci.aut


def golden_digest():
    h = hashlib.sha256()
    for key, aut in _golden_items():
        h.update(f"{key} {aut}\n".encode())
    return h.hexdigest()


def test_keys_and_aut_match_golden_digest():
    assert golden_digest() == GOLDEN_DIGEST


@st.composite
def small_graphs(draw):
    core = draw(st.integers(1, 6))
    isolated = draw(st.integers(0, 7 - core))
    k = core + isolated
    directed = draw(st.booleans())
    if directed:
        pairs = [(u, v) for u in range(core) for v in range(core) if u != v]
    else:
        pairs = list(itertools.combinations(range(core), 2))
    max_val = draw(st.sampled_from([1, 1, 3]))
    values = draw(st.lists(st.integers(0, max_val), min_size=len(pairs),
                           max_size=len(pairs)))
    edges = [(u, v, val) for (u, v), val in zip(pairs, values) if val]
    n_colors = draw(st.sampled_from([1, 1, 2, 3]))
    colors = draw(st.lists(st.integers(0, n_colors - 1), min_size=k,
                           max_size=k))
    return k, edges, directed, colors


@settings(max_examples=80, deadline=None)
@given(small_graphs(), st.randoms())
def test_aut_matches_brute_force(graph, rnd):
    k, edges, directed, colors = graph
    res = canonicalize(k, edges, directed=directed, colors=colors)
    assert res.aut == brute_aut_count(k, edges, directed, colors)
    perm = list(range(k))
    rnd.shuffle(perm)
    moved = [(perm[u], perm[v], val) for u, v, val in edges]
    moved_colors = [0] * k
    for x in range(k):
        moved_colors[perm[x]] = colors[x]
    again = canonicalize(k, moved, directed=directed, colors=moved_colors)
    assert (again.key, again.aut) == (res.key, res.aut)


def test_one_byte_limits():
    assert canonicalize(2, [(0, 1, 255)], colors=(255, 0)).aut == 1
    with pytest.raises(ValueError, match="at most 256 labels"):
        canonicalize(2, [(0, 1, 1)], colors=(256, 0))
    with pytest.raises(ValueError, match="edge values"):
        canonicalize(2, [(0, 1, 256)])


@settings(max_examples=80, deadline=None)
@given(small_graphs())
def test_group_generators_and_canonical_order(graph):
    k, edges, directed, colors = graph
    res = canonicalize(k, edges, directed=directed, colors=colors)
    adj = {}
    for u, v, val in edges:
        adj[(u, v)] = val
        if not directed:
            adj[(v, u)] = val
    for g in res.generators:
        assert all(colors[g[x]] == colors[x] for x in range(k))
        assert {(g[u], g[v]): val for (u, v), val in adj.items()} == adj
    assert len(group_closure(k, res.generators)) == res.aut
    # the order lays the graph out as the key's rows
    order = res.order
    assert sorted(order) == list(range(k))
    rows = []
    for d in range(k):
        if directed:
            rows += [adj.get((order[d], order[e]), 0) for e in range(d)]
        rows += [adj.get((order[d], order[e]), 0) for e in range(d + 1, k)]
    assert res.key[2 + k:] == bytes(rows)
