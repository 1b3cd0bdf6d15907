"""Class universes, canonical labeling, aliases, complete counts."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from netmoments import classes
from netmoments.canonical import canonicalize, orbits
from netmoments.classes import (MODES, class_id, class_info, ClassGraph,
                                complete_count, named_class, unit_subclasses,
                                universe)
from netmoments.counting import ORDER_CAPS

from conftest import (group_closure, per_mask_unit_subclasses, unit_subset,
                      unpruned_universe)

# every mode at its order cap, and a four-letter alphabet
CAPPED = [(mode, ORDER_CAPS[mode], 2) for mode in MODES] + [
    ("attributed", ORDER_CAPS["attributed"], 4)]


def test_simple_universe_sizes():
    u = universe("simple", 4)
    # connected + disconnected classes with exactly r edges
    assert [len(u[r]) for r in (1, 2, 3, 4)] == [1, 2, 5, 11]


def test_universe_builds_each_order_once():
    # labels spelled out, as the library calls it: lru_cache keys on the
    # arguments as given
    classes.universe.cache_clear()
    small = universe("simple", 5, 2)
    big = universe("simple", 6, 2)
    assert all(big[r] is small[r] for r in range(1, 6))
    assert classes.universe.cache_info().misses == 6
    with pytest.raises(ValueError, match="at least 1"):
        universe("simple", 0)


@pytest.mark.parametrize("mode, r_max, labels", CAPPED)
def test_universe_matches_unpruned_build(mode, r_max, labels):
    # one extension per automorphism orbit of moves finds every class,
    # each with the graph that classifying every extension keeps first
    got = universe(mode, r_max, labels)
    assert {r: [(ci.id, ci.graph, ci.aut) for ci in infos]
            for r, infos in got.items()} == unpruned_universe(mode, r_max,
                                                              labels)


@pytest.mark.parametrize("mode, r_max, labels", CAPPED)
def test_disconnected_generators_match_a_whole_graph_search(monkeypatch, mode,
                                                           r_max, labels):
    # the components' generators, lifted, and the swaps of identical
    # components generate the group that one search of the whole graph
    # finds, and no search runs for them
    graphs = [ci.graph for infos in universe(mode, r_max, labels).values()
              for ci in infos if not ci.connected]
    assert graphs
    for cg in graphs:
        classes.canonical_class(cg)
    searched = []
    real = classes.canonicalize
    monkeypatch.setattr(classes, "canonicalize",
                        lambda *args, **kwargs: searched.append(args))
    lifted = [classes.automorphism_generators(cg) for cg in graphs]
    assert not searched
    for cg, gens in zip(graphs, lifted):
        res = real(cg.k, cg.edges, directed=cg.directed, colors=cg.colors)
        edges = {(u, v): val for u, v, val in cg.edges}
        for g in gens:
            assert [cg.colors[x] for x in g] == list(cg.colors)
            assert {_arc(g, cg.directed, u, v): val
                    for (u, v), val in edges.items()} == edges
        assert len(group_closure(cg.k, gens)) == res.aut
        assert _node_orbits(cg.k, gens) == _node_orbits(cg.k, res.generators)


def _arc(g, directed, u, v):
    u, v = g[u], g[v]
    return (u, v) if directed or u < v else (v, u)


def _node_orbits(k, generators):
    return list(orbits(range(k), generators, lambda g, x: g[x]))


@pytest.mark.parametrize("mode, r_max, labels", CAPPED)
def test_unit_subclasses_match_per_mask_classifier(monkeypatch, mode, r_max,
                                                   labels):
    # built in universe order, every table past order 1 copies the
    # subsets without one unit from the table of the class it grew from
    monkeypatch.setattr(classes, "_unit_tables", {})
    copied = []
    real = classes._parent_table

    def parent_table(cg, mode):
        got = real(cg, mode)
        copied.append(got[0] is not None)
        return got

    monkeypatch.setattr(classes, "_parent_table", parent_table)
    for r, infos in universe(mode, r_max, labels).items():
        for ci in infos:
            copied.clear()
            assert unit_subclasses(ci.graph, mode) == \
                per_mask_unit_subclasses(ci.graph, mode)
            assert copied == [r > 1]


def test_unit_subclasses_of_graphs_outside_a_universe(monkeypatch):
    # isolated nodes, colors, values above 1 and both orientations; for
    # half of the graphs the table of the graph left by one unit, on the
    # nodes still touched, is built first and read from
    monkeypatch.setattr(classes, "_unit_tables", {})
    rng = random.Random(7)
    copied = 0
    for _ in range(300):
        k = rng.randint(1, 6)
        directed = rng.random() < 0.4
        value = {}
        for _ in range(rng.randint(0, 5)):
            u, v = rng.sample(range(k), 2) if k > 1 else (0, 0)
            if u != v:
                value[(u, v) if directed else (min(u, v), max(u, v))] = \
                    rng.randint(1, 2)
        cg = ClassGraph.make(k, [(u, v, val) for (u, v), val in value.items()],
                             directed=directed,
                             colors=[rng.randint(0, 2) for _ in range(k)])
        mode = "directed" if directed else rng.choice(["weighted",
                                                       "attributed"])
        full = (1 << cg.r) - 1
        if cg.r and rng.random() < 0.5:
            unit_subclasses(unit_subset(cg, full ^ 1 << rng.randrange(cg.r)),
                            mode)
        copied += classes._parent_table(cg, mode)[0] is not None
        assert unit_subclasses(cg, mode) == per_mask_unit_subclasses(cg, mode)
    assert copied > 100


def test_class_info_finds_components_once(monkeypatch):
    calls = []
    real = ClassGraph.components

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(ClassGraph, "components", counted)
    cg = ClassGraph.make(7, [(0, 1, 1), (1, 2, 1), (3, 4, 1), (5, 6, 1)])
    classes.canonical_class.cache_clear()
    assert not class_info(cg, "simple").connected
    assert calls.count(cg) == 1
    assert class_info(cg, "simple").aut == 16  # wedge 2, edges 2 * 2 * 2!
    assert calls.count(cg) == 1


def test_canonical_facts_are_cached_once(monkeypatch):
    # each graph's (key, |Aut|, connected), each connected graph's search
    # and each mode's aliases live in one memo each, which reports itself
    for memo in (classes.canonical_class, classes._search,
                 classes._alias_registry):
        assert memo.cache_info().maxsize is None
    classes.canonical_class.cache_clear()
    classes._search.cache_clear()
    searched = []
    real = classes.canonicalize
    monkeypatch.setattr(classes, "canonicalize", lambda *args, **kwargs:
                        searched.append(args) or real(*args, **kwargs))
    # two triangles and an edge: the generators, asked for first, search
    # the two distinct components once each, and classifying searches
    # nothing more
    cg = ClassGraph.make(8, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1),
                             (4, 5, 1), (3, 5, 1), (6, 7, 1)])
    gens = classes.automorphism_generators(cg)
    assert len(group_closure(cg.k, gens)) == 6 * 6 * 2 * 2
    assert class_info(cg, "simple").aut == 144
    assert len(searched) == 2
    assert classes._search.cache_info().currsize == 2
    assert classes.canonical_class.cache_info().currsize == 3


def test_unit_subclasses_index_units_by_bitmask():
    nc = lambda mode, a: named_class(mode, a).id
    path = unit_subclasses(named_class("simple", "path").graph, "simple")
    # edges (0,1), (1,2), (2,3) on bits 0, 1, 2
    assert path[0] is None
    assert path[0b011] == nc("simple", "wedge")
    assert path[0b101] == nc("simple", "two-parallel")
    assert path[0b111] == nc("simple", "path")
    # the double edge (0,1) holds bits 0 and 1, the edge (1,2) bit 2
    dew = unit_subclasses(named_class("weighted", "double-edge-wedge").graph,
                          "weighted")
    assert dew[0b001] == dew[0b010] == dew[0b100] == nc("weighted", "edge")
    assert dew[0b011] == nc("weighted", "double-edge")
    assert dew[0b101] == nc("weighted", "wedge")
    assert dew[0b111] == nc("weighted", "double-edge-wedge")


def test_disjoint_union_and_connectivity():
    edge = named_class("directed", "edge").graph
    wedge = named_class("directed", "wedge-in-out").graph
    union = ClassGraph.disjoint_union([edge, wedge])
    assert union == ClassGraph.make(5, [(0, 1, 1), (2, 3, 1), (3, 4, 1)],
                                    directed=True)
    assert not class_info(union, "directed").connected
    assert class_info(wedge, "directed").connected
    assert class_info(ClassGraph.make(0, []), "simple").connected


def test_directed_universe_first_orders():
    u = universe("directed", 2)
    assert len(u[1]) == 1
    # reciprocal, three wedge orientations, one disjoint-pair class
    assert len(u[2]) == 5


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 7), st.integers(0, 2 ** 21 - 1), st.randoms())
def test_canonical_form_is_relabel_invariant(n, bits, rnd):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
    perm = list(range(n))
    rnd.shuffle(perm)
    mapped = [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges]
    a = canonicalize(n, [(u, v, 1) for u, v in edges])
    b = canonicalize(n, [(u, v, 1) for u, v in mapped])
    assert a.key == b.key
    assert a.aut == b.aut


def test_named_class_normalizations():
    # complete-host counts behind each moment denominator
    n = 13
    C = math.comb
    cases = {
        "edge": C(n, 2),
        "wedge": 3 * C(n, 3),
        "two-parallel": 3 * C(n, 4),
        "triangle": C(n, 3),
        "claw": 4 * C(n, 4),
        "path": 12 * C(n, 4),
        "wedge+edge": 30 * C(n, 5),
        "three-parallel": 15 * C(n, 6),
        "triangle-edge": 12 * C(n, 4),
        "square": 3 * C(n, 4),
        "diamond": 6 * C(n, 4),
        "K4": C(n, 4),
    }
    for alias, want in cases.items():
        ci = named_class("simple", alias)
        assert complete_count(ci, n) == want, alias


def test_directed_normalizations():
    n = 9
    C = math.comb
    cases = {
        "edge": 2 * C(n, 2),
        "reciprocal": C(n, 2),
        "wedge-in-in": 3 * C(n, 3),
        "wedge-out-out": 3 * C(n, 3),
        "wedge-in-out": 6 * C(n, 3),
        "reciprocal-wedge-in": 6 * C(n, 3),
        "reciprocal-wedge-out": 6 * C(n, 3),
        "triangle-trans": 6 * C(n, 3),
        "triangle-cyclic": 2 * C(n, 3),
        "reciprocal-triangle-in-in": 3 * C(n, 3),
        "reciprocal-triangle-out-out": 3 * C(n, 3),
        "reciprocal-triangle-in-out": 6 * C(n, 3),
        "double-reciprocal": 3 * C(n, 3),
        "triad-minus-one": 6 * C(n, 3),
        "complete-triad": C(n, 3),
    }
    for alias, want in cases.items():
        ci = named_class("directed", alias)
        assert complete_count(ci, n) == want, alias


def test_attributed_normalizations():
    np_, ng = 7, 5
    pools = {0: np_, 1: ng}
    C = math.comb
    E = ClassGraph.make
    cases = [
        (E(2, [(0, 1, 1)], colors=(0, 0)), C(np_, 2)),
        (E(2, [(0, 1, 1)], colors=(0, 1)), np_ * ng),
        (E(3, [(0, 1, 1), (1, 2, 1)], colors=(0, 0, 0)), 3 * C(np_, 3)),
        # wedge, center purple, ends purple and green
        (E(3, [(0, 1, 1), (1, 2, 1)], colors=(0, 0, 1)),
         2 * C(np_, 2) * ng),
        # wedge, center purple, both ends green
        (E(3, [(0, 1, 1), (1, 2, 1)], colors=(1, 0, 1)), np_ * C(ng, 2)),
        (E(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)], colors=(0, 0, 0)),
         C(np_, 3)),
        (E(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)], colors=(0, 0, 1)),
         C(np_, 2) * ng),
        (E(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)], colors=(0, 0, 0, 0)),
         4 * C(np_, 4)),
        (E(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)], colors=(0, 0, 0, 1)),
         3 * C(np_, 3) * ng),
        (E(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)], colors=(0, 0, 1, 1)),
         2 * C(np_, 2) * C(ng, 2)),
        (E(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)], colors=(0, 1, 1, 1)),
         np_ * C(ng, 3)),
    ]
    from netmoments.classes import class_info
    for cg, want in cases:
        ci = class_info(cg, "attributed")
        assert complete_count(ci, np_ + ng, label_counts=pools) == want


def test_class_id_roundtrip():
    for alias in ("edge", "wedge", "triangle", "claw", "K4"):
        ci = named_class("simple", alias)
        assert ci.id.alias == alias
        assert class_id(ci.graph, "simple") == ci.id


def test_ids_are_one_object_per_class():
    # ids compare by identity, so a class's id is one object however it is
    # reached: classified again, copied, deep-copied or through a pickle
    for mode, r in (("simple", 5), ("directed", 3), ("attributed", 2)):
        for infos in universe(mode, r).values():
            for ci in infos:
                sid = ci.id
                assert class_id(ci.graph, mode) is sid
                assert copy.copy(sid) is sid and copy.deepcopy(sid) is sid
                assert pickle.loads(pickle.dumps(sid)) is sid
    wedge = named_class("simple", "wedge").id
    assert copy.deepcopy({wedge: [wedge]}) == {wedge: [wedge]}
    assert wedge != named_class("simple", "edge").id
    assert hash(wedge) == object.__hash__(wedge)
