"""Seeded generators and shuffling null models."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from netmoments import models
from netmoments.cli import main
from netmoments.graphs import Graph, GraphDataError, SizeCapError, make_graph
from netmoments.models import (bipartite_geometric, er, shuffle, ssbm,
                               ssbm_rates)


def test_er_deterministic_and_seed_sensitive():
    a = er(20, 0.3, seed=1)
    b = er(20, 0.3, seed=1)
    c = er(20, 0.3, seed=2)
    assert a.edges == b.edges
    assert a.edges != c.edges
    with pytest.raises(GraphDataError):
        er(10, 1.5)


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def _er_by_list(n, p, seed):
    """er as a list of every node pair in row-major order."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    u = _rng(seed).random(len(pairs))
    return make_graph(n, [pairs[i] for i in np.flatnonzero(u < float(p))])


def _ssbm_by_list(n, a, b, seed):
    """ssbm as a loop over the row-major list of node pairs."""
    half = n // 2
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    u01 = _rng(seed).random(len(pairs))
    return make_graph(n, [(u, v) for i, (u, v) in enumerate(pairs)
                          if u01[i] < (a if (u < half) == (v < half) else b)])


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_generators_match_pair_list_construction(seed):
    for n in (1, 2, 5, 17, 40, 81):
        for p in (0.0, 0.12, Fraction(1, 3), 1):
            got, want = er(n, p, seed=seed), _er_by_list(n, p, seed)
            assert (got.n, list(got.edges.items())) == \
                (want.n, list(want.edges.items()))
    for n in (2, 6, 40, 128):
        for a, b in ((0.5, 0.1), (Fraction(1, 3), 0), (1, 0.25)):
            got, want = ssbm(n, a=a, b=b, seed=seed), _ssbm_by_list(
                n, a, b, seed)
            assert (got.n, list(got.edges.items())) == \
                (want.n, list(want.edges.items()))
    G = ssbm(80, assortativity=0.5, mean_degree=6.0, seed=seed)
    a, b = ssbm_rates(80, 0.5, 6.0)
    assert list(G.edges.items()) == list(
        _ssbm_by_list(80, a, b, seed).edges.items())


def test_er_density_sane():
    G = er(60, 0.25, seed=3)
    density = G.m / (60 * 59 / 2)
    assert 0.15 < density < 0.35


def test_ssbm_rates_mapping():
    # rho = 0 is ER: a = b
    a, b = ssbm_rates(10, 0.0, 3.0)
    assert a == pytest.approx(b)
    # mean degree is preserved: d = a (n/2 - 1) + b n/2
    for rho in (-0.6, 0.0, 0.7):
        a, b = ssbm_rates(10, rho, 3.0)
        assert a * 4 + b * 5 == pytest.approx(3.0)
        assert (a - b) / (a + b) == pytest.approx(rho)


def test_ssbm_extremes():
    # rho = +1: no cross edges; rho = -1: bipartite, no triangles
    G = ssbm(12, assortativity=1.0, mean_degree=3.0, seed=5)
    assert all((u < 6) == (v < 6) for u, v in G.edges)
    H = ssbm(12, assortativity=-1.0, mean_degree=3.0, seed=5)
    assert all((u < 6) != (v < 6) for u, v in H.edges)
    with pytest.raises(GraphDataError):
        ssbm(11, assortativity=0.0, mean_degree=3.0)
    with pytest.raises(GraphDataError):
        ssbm(10, assortativity=1.0, mean_degree=9.0)  # a would exceed 1


def test_bipartite_geometric():
    G = bipartite_geometric(20, 0.5, 3.0, seed=6)
    assert G.m == 30
    half = 10
    assert all((u < half) != (v < half) for u, v in G.edges)
    assert G.node_attrs[0] == "left" and G.node_attrs[19] == "right"
    with pytest.raises(GraphDataError):
        bipartite_geometric(40, 0.9, 4.0, seed=6)   # cap too tight
    with pytest.raises(GraphDataError):
        bipartite_geometric(21, 0.5, 3.0)


def test_missing_or_degenerate_parameters_are_data_errors():
    # each refused before any draw, with a message naming the parameter
    for call, message in (
            (lambda: er(5, None), "er needs p"),
            (lambda: er(0, 0.5), "node count must be positive"),
            (lambda: bipartite_geometric(6, None, 1.0), "needs f and"),
            (lambda: bipartite_geometric(6, 0.5, None), "needs f and"),
            (lambda: bipartite_geometric(-2, 0.5, 1.0),
             "node count must be positive"),
            (lambda: ssbm(0, assortativity=-1.0, mean_degree=1.0),
             "node count must be positive"),
            (lambda: ssbm_rates(2, 1.0, 1.0), "leaves no node pairs")):
        with pytest.raises(GraphDataError, match=message):
            call()
    for d in (float("inf"), float("nan"), -2.0, 3.5):
        with pytest.raises(GraphDataError, match=r"must lie in \[0, n/2\]"):
            bipartite_geometric(6, 0.5, d)


def _bipartite_by_list(n, f, mean_degree, seed):
    """bipartite_geometric's edges, its candidate pairs from a loop over
    every (left, right) pair."""
    rng = _rng(seed)
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    half = n // 2
    cand = [(u, v) for u in range(half) for v in range(half, n)
            if float(pts[u] @ pts[v]) >= 2 * f - 1]
    keep = rng.choice(len(cand), size=round(n * mean_degree / 2),
                      replace=False)
    return [cand[int(i)] for i in keep]


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_bipartite_geometric_matches_pair_loop(seed):
    for n, f, d in ((2, 0.0, 1.0), (20, 0.5, 3.0), (60, 0.0, 5.0),
                    (120, 0.8, 4.0), (200, 0.3, 10.0)):
        G = bipartite_geometric(n, f, d, seed=seed)
        assert list(G.edges) == _bipartite_by_list(n, f, d, seed)


def test_generators_refuse_past_the_pair_cap(monkeypatch, capsys):
    tracemalloc.start()
    try:
        for args in (["er", "--p", "0.001"],
                     ["ssbm", "--a", "0.1", "--b", "0.01"],
                     ["bipartite-geometric", "--f", "0.5",
                      "--mean-degree", "3"]):
            assert main(["generate", "--n", "100000", "--model", *args]) == 4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20   # er alone would hold about 165 GB of pairs
    assert capsys.readouterr().err.count("2^24") == 3
    with pytest.raises(SizeCapError):
        er(5794, 0.1)       # C(5794, 2) is just past 2^24
    # the cap counts the pairs each model draws over
    monkeypatch.setattr(models, "MAX_PAIRS", 45)
    assert er(10, 1.0).m == ssbm(10, a=1, b=1).m == 45
    assert bipartite_geometric(12, 0.0, 6.0).m == 36
    with pytest.raises(SizeCapError):
        er(11, 0.5)
    with pytest.raises(SizeCapError):
        ssbm(12, a=0.5, b=0.5)
    with pytest.raises(SizeCapError):
        bipartite_geometric(14, 0.0, 1.0)


def test_shuffle_attributes():
    attrs = {0: "a", 1: "a", 2: "b", 3: "b", 4: "b"}
    G = make_graph(5, [(0, 1), (1, 2), (3, 4)], node_attrs=attrs)
    S = shuffle(G, "attributes", seed=7)
    assert S.edges == G.edges
    assert sorted(S.node_attrs.values()) == sorted(attrs.values())
    with pytest.raises(GraphDataError):
        shuffle(make_graph(3, [(0, 1)]), "attributes")


def test_shuffle_orientations():
    G = make_graph(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4)],
                   directed=True)
    S = shuffle(G, "orientations", seed=8)
    # reciprocal pair survives; undirected skeleton is unchanged
    assert (0, 1) in S.edges and (1, 0) in S.edges
    skel = lambda H: sorted((min(u, v), max(u, v)) for u, v in H.edges)
    assert skel(S) == skel(G)
    with pytest.raises(GraphDataError):
        shuffle(make_graph(3, [(0, 1)]), "orientations")


def test_shuffle_weights():
    G = Graph(n=4, edges={(0, 1): Fraction(5), (1, 2): Fraction(1),
                          (2, 3): Fraction(2)}, weighted=True)
    S = shuffle(G, "weights", seed=9)
    assert sorted(S.edges) == sorted(G.edges)
    assert sorted(S.edges.values()) == sorted(G.edges.values())
    with pytest.raises(GraphDataError):
        shuffle(make_graph(3, [(0, 1)]), "weights")
    with pytest.raises(GraphDataError):
        shuffle(G, "bogus")
