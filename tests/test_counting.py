"""Subgraph counting: brute-force parity, caps, closed-form identities,
and the homomorphism engine of every mode against ESU."""

import hashlib
import inspect
import itertools
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from netmoments.classes import (class_id, ClassGraph, complete_count,
                                named_class, universe, universe_index)
from netmoments import counting
from netmoments.cli import main
from netmoments.counting import (ORDER_CAPS, OrderCapError, check_order,
                                 count_connected, full_counts)
from netmoments.ergm import _edges, enumerate_classes
from netmoments.graphs import Graph, GraphDataError, make_graph, UNIT
from netmoments.moments import moments

from conftest import (brute_canonical, esu_counts, mode_graphs, node_colors,
                      PAIRS8, random_graph, random_weighted_graph)


def brute_counts(G, r_max):
    """Count every class by explicit edge-subset enumeration, classified by
    brute-force canonicalization (independent oracle)."""
    out = {}
    edges = sorted(G.edges)
    directed = G.directed
    colors = None
    if G.node_attrs is not None:
        colors = node_colors(G)
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
        colors = list(range(max(node_colors(G)) + 1))
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
    counting._derivation_positions.cache_clear()
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
# Homomorphism counts against ESU and the brute-force oracle

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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.sets(st.sampled_from(PAIRS8), max_size=12),
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


@pytest.mark.parametrize("mode", ["simple", "directed", "weighted",
                                  "attributed", "bipartite"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_counts_match_esu_in_every_mode(mode, data):
    G = data.draw(mode_graphs(mode))
    r = ORDER_CAPS[mode]
    want = {sid: c for sid, c in esu_counts(G, r).items() if c}
    got = count_connected(G, r)
    assert got == want
    kind = Fraction if mode == "weighted" else int
    assert all(type(c) is kind for c in got.values())


def _stack(n, rows):
    """The (B, n, n) boolean adjacency stack of simple graphs on n nodes,
    each row given by its edges (u, v)."""
    stack = np.zeros((len(rows), n, n), dtype=bool)
    for b, edges in enumerate(rows):
        for u, v in edges:
            stack[b, u, v] = stack[b, v, u] = True
    return stack


def _disjoint_union(parts):
    """The graphs of one mode side by side, each part's nodes after the
    last part's."""
    starts = list(itertools.accumulate((H.n for H in parts), initial=0))
    first = parts[0]
    return Graph(
        n=starts[-1],
        edges={(u + at, v + at): w for at, H in zip(starts, parts)
               for (u, v), w in H.edges.items()},
        directed=first.directed, weighted=first.weighted,
        node_attrs=None if first.node_attrs is None else {
            v + at: label for at, H in zip(starts, parts)
            for v, label in H.node_attrs.items()},
        bipartite=first.bipartite)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stack_counts_match_each_graph(data):
    # a stack of 1-4 simple graphs on `size` nodes (some may have no edges)
    # gives every graph's own counts, as columns; the derivation runs on
    # the columns, where a scalar stands for every graph
    size = data.draw(st.integers(3, 6))
    pairs = [(u, v) for u, v in PAIRS8 if v < size]
    graphs = [make_graph(size, data.draw(st.lists(
        st.sampled_from(pairs), unique=True, max_size=8)))
        for _ in range(data.draw(st.integers(1, 4)))]
    stack = _stack(size, [H.edges for H in graphs])
    r = data.draw(st.integers(1, ORDER_CAPS["simple"]))
    for count in (count_connected, full_counts):
        columns = count(stack, r)
        own = [count(H, r) for H in graphs]
        assert set(columns) == set().union(*own)
        for sid, column in columns.items():
            if count is count_connected or isinstance(column, np.ndarray):
                assert column.shape == (len(graphs),)
            else:
                column = [column] * len(graphs)
            for got, counts in zip(column, own):
                want = counts.get(sid, 0)
                assert got == want and type(got) is type(want)


_INCONSISTENT = """
import numpy as np
from netmoments.classes import named_class
from netmoments.counting import derive_disconnected
from netmoments.graphs import make_graph

def derive(edge, wedge, G):
    ids = (named_class("simple", name).id for name in ("edge", "wedge"))
    try:
        derive_disconnected(dict(zip(ids, (edge, wedge))), G, 2)
    except ValueError as e:
        return str(e)

graph = make_graph(3, [(0, 1)])
stack = np.zeros((2, 3, 3), dtype=bool)
stack[:, 0, 1] = stack[:, 1, 0] = True
column = derive(np.array([3, 1], dtype=object), np.array([0, 5], dtype=object),
                stack)
print(derive(3, 0, graph), column == derive(1, 5, graph), column)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_inconsistent_column_raises_as_its_block(flags):
    # one edge with five wedges has -5 two-parallel pairs; in a stack's
    # column with a consistent block the derivation raises what that block
    # raises alone, and the check is no assert, so it holds under python -O
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(counting.__file__).parents[1]))
    proc = subprocess.run([sys.executable, *flags, "-c", _INCONSISTENT],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split(maxsplit=2) == [
        "None", "True", "negative derived count for "
        f"{named_class('simple', 'two-parallel').id.serialize()}: "
        "inconsistent input counts\n"]


# Weights of one part: small (a float64 host), 2^8 to 2^9 (int64 at order 5
# on these parts) or fractions over large primes (object)
_PART_WEIGHTS = [st.builds(Fraction, st.integers(0, 3)),
                 st.builds(Fraction, st.integers(2 ** 8, 2 ** 9)),
                 st.builds(Fraction, st.integers(0, 9),
                           st.sampled_from([998_244_353, 1_000_000_007]))]


@st.composite
def sparse_unions(draw, mode):
    """(union, parts): graphs of the mode on 8-16 nodes, each a random
    spanning tree plus a few more edges (or arcs), drawn until their
    disjoint union has more than DENSE_NODES nodes, none of them isolated.
    Every part uses the whole label alphabet, and a weighted part takes one
    kind of _PART_WEIGHTS, up to a largest kind drawn for the union."""
    alphabet = draw(st.integers(1, 3)) if mode == "attributed" else 2
    kinds = _PART_WEIGHTS[:draw(st.integers(1, 3))]
    parts = []
    while sum(H.n for H in parts) <= counting.DENSE_NODES:
        size = draw(st.integers(8, 16))
        attrs = None
        if mode in ("attributed", "bipartite"):
            attrs = {v: "abc"[v] for v in range(alphabet)}
            attrs.update({v: "abc"[draw(st.integers(0, alphabet - 1))]
                          for v in range(alphabet, size)})
        ok = [(u, v) for u in range(size) for v in range(size)
              if u != v and (mode == "directed" or u < v)
              and (mode != "bipartite" or attrs[u] != attrs[v])]
        chosen = set()
        for v in range(1, size):
            u = draw(st.sampled_from([u for u in range(v) if (u, v) in ok]))
            chosen.add((v, u) if mode == "directed" and draw(st.booleans())
                       else (u, v))
        chosen.update(draw(st.lists(st.sampled_from(ok), max_size=size)))
        weight = draw(st.sampled_from(kinds))
        parts.append(Graph(
            n=size, edges={e: draw(weight) if mode == "weighted" else UNIT
                           for e in sorted(chosen)},
            directed=mode == "directed", weighted=mode == "weighted",
            node_attrs=attrs, bipartite=mode == "bipartite"))
    return _disjoint_union(parts), parts


@pytest.mark.parametrize("mode", ["simple", "directed", "weighted",
                                  "attributed", "bipartite"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_sparse_union_counts_add_up_dense_parts(mode, data):
    # connected counts add over a disjoint union: the union's host is past
    # DENSE_NODES and sparse, while each float64 part is dense, whatever
    # its program (attributed mode has no matrix step at its cap)
    union, parts = data.draw(sparse_unions(mode))
    r = ORDER_CAPS[mode]
    _, nodes, walk = counting._hom_basis(r, mode, 2)
    host = counting._Host(union, nodes, walk, r)
    assert host.n > counting.DENSE_NODES and not host.dense
    want = {}
    for H in parts:
        part = counting._Host(H, nodes, walk, r)
        assert part.dense == (part.dtype is np.float64)
        for sid, c in count_connected(H, r).items():
            want[sid] = want.get(sid, 0) + c
    assert count_connected(union, r) == want


def _cycle(k):
    return make_graph(k, [(v, v + 1) for v in range(k - 1)] + [(0, k - 1)])


def _recorded_hosts(monkeypatch):
    """The list of every _Host that count_connected builds from now on."""
    made = []

    class Recorded(counting._Host):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(counting, "_Host", Recorded)
    return made


def test_dense_form_selection(monkeypatch):
    # dense for a float64 host with at most DENSE_NODES non-isolated nodes,
    # whatever its program; the int64 and object hosts are in
    # test_weighted_dtypes_match_esu
    k = counting.DENSE_NODES
    for r in (3, 4):
        _, nodes, walk = counting._hom_basis(r, "simple", 2)
        paths = [class_id(ClassGraph.make(
            s + 1, [(v, v + 1, 1) for v in range(s)]), "simple")
            for s in range(1, r + 1)]
        for size, dense in ((k, True), (k + 1, False)):
            G = _cycle(size)
            assert counting._Host(G, nodes, walk, r).dense is dense
            assert count_connected(G, r) == dict.fromkeys(paths, size)
        for n in (k, 1000):   # isolated nodes, on either side of the bound
            padded = Graph(n=n, edges=_cycle(64).edges)
            host = counting._Host(padded, nodes, walk, r)
            assert host.dense and host.n == 64
            assert count_connected(padded, r) == dict.fromkeys(paths, 64)
    # order 3 has no matrix step, in either form
    programs, nodes, walk = counting._hom_basis(3, "simple", 2)
    assert walk == 0
    matrix_ops = {counting._op_adj, counting._op_arc, counting._op_arc_t,
                  counting._op_weight, counting._op_path, counting._op_had,
                  counting._op_matmul, counting._op_mv, counting._op_quad}
    for _, steps in programs:
        assert not matrix_ops & {op for op, _, _ in steps}
    # every step of a dense host reads its boolean rows or its adjacency
    # array, so it builds none of the sparse forms, at order 3 too; a host
    # past the bound builds its wedge list and no n' x n' array
    hosts = _recorded_hosts(monkeypatch)
    sparse_forms = {"edges", "lists", "wedges", "triangles"}
    G = random_graph(random.Random(40), 40, 0.12)
    for r in (3, 4, 5, 6):
        count_connected(G, r)
        host = hosts.pop()
        assert host.dense and "linked" in host.__dict__
        assert not sparse_forms & set(host.__dict__)
    count_connected(random_graph(random.Random(41), k + 16, 0.1), 3)
    host = hosts.pop()
    assert host.n > k and not host.dense
    assert "wedges" in host.__dict__
    assert not {"linked", "adjacency"} & set(host.__dict__)


def _spread_ids(G, rng):
    """G with its nodes renamed to distinct ids below 2^40."""
    ids = rng.sample(range(2 ** 40), G.n)
    edges = {}
    for (u, v), w in G.edges.items():
        a, b = ids[u], ids[v]
        edges[(a, b) if G.directed or a < b else (b, a)] = w
    return Graph(n=2 ** 40, edges=edges, directed=G.directed,
                 weighted=G.weighted)


def _form_cases():
    """(graph, order) for the dense/sparse differential: simple graphs at
    orders 3-6, and at orders 3-5 on 65 to DENSE_NODES nodes, none
    isolated, or with ids spread among isolated nodes below DENSE_NODES,
    10^6 and 2^40; attributed at its cap, bipartite at orders 3-4,
    directed and weighted at orders 4-5, each also with ids spread below
    2^40."""
    rng = random.Random(42)
    for r in (3, 4, 5, 6):
        for n, p in ((10, 0.6), (30, 0.2), (64, 0.08)):
            yield random_graph(rng, n, p), r
    for r in (3, 4, 5):
        for n in (65, 88, counting.DENSE_NODES):
            path = {(v, v + 1): UNIT for v in range(n - 1)}
            yield Graph(n=n, edges={**path, **random_graph(
                rng, n, 4 / n).edges}), r
        for n in (counting.DENSE_NODES, 10 ** 6, 2 ** 40):
            ids = sorted(rng.sample(range(n), 40))
            yield Graph(n=n, edges={(ids[u], ids[v]): UNIT for u, v in
                                    random_graph(rng, 40, 0.15).edges}), r
    for n in (12, 30):
        G = random_graph(rng, n, 0.3)
        attrs = {v: rng.choice("abc") for v in range(n)}
        attrs.update({0: "a", 1: "b", 2: "c"})
        yield Graph(n=n, edges=G.edges, node_attrs=attrs), 3
        attrs = {v: "ab"[v % 2] for v in range(n)}
        for r in (3, 4):
            yield Graph(n=n, edges={(u, v): UNIT for u, v in G.edges
                                    if (u + v) % 2}, node_attrs=attrs,
                        bipartite=True), r
    for r in (4, 5):
        for n in (8, 20):
            arcs = [(u, v) for u in range(n) for v in range(n)
                    if u != v and rng.random() < 0.2]
            for G in (make_graph(n, arcs, directed=True),
                      random_weighted_graph(rng, n, 0.3)):
                yield G, r
                yield _spread_ids(G, rng), r


def _ops(program):
    return {op for op, _, _ in program[1]}


def test_dense_and_sparse_forms_count_alike(monkeypatch):
    # the same graphs counted twice, the second time with every host
    # sparse, and the class table on 4 nodes as one stack against its rows
    # counted sparse; every step with a dense branch must have run in the
    # program of every form
    hosts = _recorded_hosts(monkeypatch)
    ran = {"dense": set(), "sparse": set(), "stack": set()}
    for G, r in _form_cases():
        mode, labels = counting.graph_mode(G)
        programs = counting._hom_basis(r, mode, labels)[0]
        dense = count_connected(G, r)
        with monkeypatch.context() as patch:
            patch.setattr(counting, "DENSE_NODES", 0)
            sparse = count_connected(G, r)
        sparse_host, dense_host = hosts.pop(), hosts.pop()
        assert not sparse_host.dense
        if dense_host.dense:
            ran["dense"] |= _ops(programs[True])
        ran["sparse"] |= _ops(programs[False])
        assert dense.keys() == sparse.keys()
        for sid, got in dense.items():
            assert got == sparse[sid] and type(got) is type(sparse[sid])
    reps = [_edges(word, 4) for word in enumerate_classes(4).reps]
    for r in (3, 4, 5, 6):
        ran["stack"] |= _ops(counting._hom_basis(r, "simple", 2)[0][True])
        stack = count_connected(_stack(4, reps), r)
        with monkeypatch.context() as patch:
            patch.setattr(counting, "DENSE_NODES", 0)
            rows = [count_connected(make_graph(4, list(rep)), r)
                    if rep else {} for rep in reps]
        assert all(not host.dense for host in hosts[1:])
        hosts.clear()
        assert set(stack) == set().union(*rows)
        for sid, column in stack.items():
            assert list(column) == [row.get(sid, 0) for row in rows]
            assert all(type(c) is int for c in column)
    branch = re.compile(r"\bh\.(dense|matrix)\b")
    branched = {op for op in counting._OPS.values()
                if branch.search(inspect.getsource(op))}
    assert {counting._op_tri, counting._op_k4, counting._op_spread,
            counting._op_adj, counting._op_path, counting._op_had,
            counting._op_mv, counting._op_frob} <= branched
    for form in ran.values():
        assert branched - {counting._op_arc, counting._op_arc_t,
                           counting._op_weight} <= form
    assert branched <= ran["dense"] and branched <= ran["sparse"]
    assert {counting._op_edge, counting._op_quad} <= ran["sparse"]


def _hom_values(program, host):
    """Each row's hom values, quotient by quotient, of a program run on a
    host."""
    rows, steps = program
    vals = counting._run(steps, host)
    return [[vals[slot] for slot in slots] for _, _, slots, _ in rows]


@pytest.mark.parametrize("mode", sorted(ORDER_CAPS))
def test_dense_and_sparse_programs_give_equal_hom_values(mode, monkeypatch):
    # every universe's two programs, hom value by hom value: the dense one
    # on each graph of the form cases (all dense), the sparse one on the same
    # graph with its host sparse; a dense program counts plain triangles
    # only, and no other step reads the sparse forms
    for G in (G for G, _ in _form_cases() if G.mode() == mode):
        _, labels = counting.graph_mode(G)
        for r in range(1, ORDER_CAPS[mode] + 1):
            (sparse, dense), nodes, walk = counting._hom_basis(r, mode,
                                                               labels)
            host = counting._Host(G, nodes, walk, r)
            assert host.dense
            assert not {counting._op_edge, counting._op_quad} & _ops(dense)
            assert all(not args for op, args, _ in dense[1]
                       if op is counting._op_tri)
            with monkeypatch.context() as patch:
                patch.setattr(counting, "DENSE_NODES", 0)
                sparse_host = counting._Host(G, nodes, walk, r)
            got = _hom_values(dense, host)
            assert got == _hom_values(sparse, sparse_host)
            assert all(type(v) is int for row in got for v in row)


def test_stack_hom_values_match_its_rows(monkeypatch):
    # the dense program on a stack of random graphs on 7 nodes, one of
    # them edgeless, against the sparse program on each graph
    rng = random.Random(44)
    rows = [[]] + [[e for e in itertools.combinations(range(7), 2)
                    if rng.random() < p] for p in (0.2, 0.4, 0.6, 0.9)
                   for _ in range(3)]
    stack = _stack(7, rows)
    for r in range(1, 7):
        (sparse, dense), nodes, walk = counting._hom_basis(r, "simple", 2)
        got = _hom_values(dense, counting._Host(stack, nodes, walk, r))
        with monkeypatch.context() as patch:
            patch.setattr(counting, "DENSE_NODES", 0)
            want = [_hom_values(sparse, counting._Host(
                make_graph(7, edges), nodes, walk, r)) if edges else None
                for edges in rows]
        for i, row in enumerate(got):
            for j, column in enumerate(row):
                assert [0 if w is None else w[i][j] for w in want] == \
                    list(column)
                assert all(type(v) is int for v in column)


def test_dense_programs_read_the_products_they_build():
    # the simple order-5 dense program reads its triangles from T = A o A^2,
    # and its edges and quadratic forms from spread and matrix-vector
    # steps, with three n' x n' products: A^2, A diag(deg) A and A A^2;
    # at order 3 it builds none and counts plain triangles over boolean rows
    products = {counting._op_path, counting._op_matmul}
    five = [op for op, _, _ in counting._hom_basis(5, "simple", 2)[0][1][1]]
    assert not {counting._op_tri, counting._op_edge, counting._op_quad} & \
        set(five)
    assert sum(op in products for op in five) <= 3
    three = _ops(counting._hom_basis(3, "simple", 2)[0][1])
    assert counting._op_tri in three and not products & three
    # labelled triangles at order 3 read A o A diag(z) A, one product per
    # label z, shared by every triangle whose last weight is z
    for labels in (1, 3):
        steps = counting._hom_basis(3, "attributed", labels)[0][1][1]
        ops = [op for op, _, _ in steps]
        assert counting._op_tri not in ops and counting._op_matmul not in ops
        assert sum(op is counting._op_path for op in ops) == labels


def test_malformed_stacks_are_refused():
    # a stack is checked like any input: 3-d, boolean, square, symmetric,
    # with a zero diagonal and 1 to DENSE_NODES nodes a graph
    good = _stack(4, [[(0, 1), (1, 2)], [(2, 3)]])
    arc = good.copy()
    arc[0, 0, 3] = True
    loop = good.copy()
    loop[1, 2, 2] = True
    for bad in (good.astype(np.int64), good.astype(np.float64), good[0],
                good[..., None], good[:, :3], arc, loop,
                np.zeros((2, 0, 0), dtype=bool)):
        for count in (count_connected, full_counts):
            with pytest.raises(ValueError,
                               match="count larger graphs one at a time"):
                count(bad, 2)
    # no edges: no column, and every derived count is a scalar zero
    for edgeless in (np.zeros((3, 3, 3), dtype=bool),
                     np.zeros((0, 3, 3), dtype=bool)):
        assert count_connected(edgeless, 2) == {}
        assert full_counts(edgeless, 2) == full_counts(
            make_graph(3, []), 2) == dict.fromkeys(
                (ci.id for infos in universe("simple", 2).values()
                 for ci in infos), 0)


def test_blocks_past_dense_nodes_are_refused():
    # a stack holds dense graphs; larger graphs are counted one at a time
    k = counting.DENSE_NODES + 1
    with pytest.raises(ValueError, match="count larger graphs one at a time"):
        count_connected(_stack(k, [_cycle(k).edges] * 2), 4)
    G = _disjoint_union([_cycle(k), _cycle(k)])
    assert count_connected(G, 4) == {sid: 2 * c for sid, c in
                                     count_connected(_cycle(k), 4).items()}
    columns = count_connected(_stack(64, [_cycle(64).edges] * 2), 4)
    assert {sid: list(c) for sid, c in columns.items()} == {
        sid: [c, c] for sid, c in count_connected(_cycle(64), 4).items()}


@pytest.mark.parametrize("n, r", [(6, 4), (5, 6), (7, 3)])
def test_stack_is_counted_in_slices(monkeypatch, n, r):
    # with a lower cap the program runs on slices of the stack, each
    # slice's largest array within the cap: n^3 per graph where K4 or the
    # order-3 triangles read rows of common neighbours, else n^2; the
    # columns do not change
    reps = [_edges(word, n) for word in enumerate_classes(n).reps]
    stack = _stack(n, reps)
    want = count_connected(stack, r)
    slices = []
    blocks = counting._Host.blocks

    def recorded(host, lo, hi):
        slices.append((lo, hi))
        return blocks(host, lo, hi)

    monkeypatch.setattr(counting._Host, "blocks", recorded)
    for cap in (counting.MATRIX_WALKS, 10 * n ** 3):
        monkeypatch.setattr(counting, "MATRIX_WALKS", cap)
        slices.clear()
        got = count_connected(stack, r)
        size = cap // n ** (3 if r in (3, 6) else 2)
        assert slices == [(lo, lo + size)
                          for lo in range(0, len(reps), size)]
    assert len(slices) > 2
    assert got.keys() == want.keys()
    for sid, column in got.items():
        assert column.tolist() == want[sid].tolist()


@pytest.mark.parametrize("shift", [3_100_000_000, 5_000_000_000, 10 ** 12])
def test_directed_counts_with_large_node_ids(shift, tmp_path, capsys):
    # pairs were coded as min * n + max over the ids, past 2^63 from about
    # sqrt(2^63) = 3.04e9
    arcs = [(0, 1), (1, 0), (1, 2), (3, 1)]
    small = make_graph(4, arcs, directed=True)
    big = make_graph(shift + 4, [(u if u == 0 else u + shift,
                                  v if v == 0 else v + shift)
                                 for u, v in arcs], directed=True)
    assert full_counts(big, 3) == full_counts(small, 3)
    path = tmp_path / "arcs.txt"
    path.write_text(f"0 {shift}\n{shift} 0\n{shift} {shift + 1}\n")
    assert main(["count", str(path), "--directed", "--order", "2"]) == 0
    got = {c["alias"]: c["value"]["numer"] for c in
           json.loads(capsys.readouterr().out)["result"]["counts"]}
    assert got["edge"] == "3" and got["reciprocal"] == "1"
    assert got["wedge-out-out"] == got["wedge-in-out"] == "1"


def _weighted_star(weights):
    return Graph(n=len(weights) + 1, weighted=True,
                 edges={(0, i + 1): Fraction(w) for i, w in
                        enumerate(weights)})


@pytest.mark.parametrize("weights, dtype", [
    ([1, 2, 3, 1, 2], np.float64),
    ([2 ** 9, 3, 2 ** 9 - 1, 5, 2 ** 8, 1], np.int64),
    ([Fraction(1, 998_244_353), Fraction(5, 1_000_000_007), 2, 0, 7],
     object),
])
def test_weighted_dtypes_match_esu(weights, dtype):
    # float64, int64 and Python ints each count what ESU counts
    G = _weighted_star(weights)
    _, nodes, walk = counting._hom_basis(5, "weighted", 2)
    host = counting._Host(G, nodes, walk, 5)
    assert host.dtype == dtype
    assert host.dense == (dtype is np.float64)   # int64 and object: sparse
    assert count_connected(G, 5) == {
        sid: c for sid, c in esu_counts(G, 5).items() if c}


def test_counts_past_int64_are_exact():
    # a weighted star: each connected class is a star of edge multiplicities
    # m_1..m_k, counted by the sum over ordered k-tuples of distinct leaves
    # of the products of w_i^m_i, divided by the orders of equal m_i; the
    # order-5 sums are far past 2^63
    rng = random.Random(23)
    weights = [rng.randrange(2 ** 40, 2 ** 41) for _ in range(10)]
    G = _weighted_star(weights)
    _, nodes, walk = counting._hom_basis(5, "weighted", 2)
    assert counting._Host(G, nodes, walk, 5).dtype is object
    got = count_connected(G, 5)
    index = universe_index("weighted", 5)
    assert len(got) == 18   # the partitions of 1..5
    for sid, c in got.items():
        mults = [val for _, _, val in index[sid.key].graph.edges]
        ties = math.prod(math.factorial(mults.count(m)) for m in set(mults))
        want = sum(math.prod(w ** m for w, m in zip(leaves, mults))
                   for leaves in itertools.permutations(weights, len(mults)))
        assert c == want // ties and want % ties == 0
    assert got[class_id(_star(5), "weighted")] > 2 ** 200


def test_no_mode_enumerates(monkeypatch):
    calls = []
    real = counting.connected_edge_subsets

    def counted(slots, max_size):
        calls.append(max_size)
        return real(slots, max_size)

    monkeypatch.setattr(counting, "connected_edge_subsets", counted)
    rng = random.Random(21)
    G = random_graph(rng, 9, 0.5)
    arcs = [(u, v) for u in range(7) for v in range(7)
            if u != v and rng.random() < 0.3]
    labels = {v: "ab"[v % 2] for v in range(9)}
    graphs = [
        G,
        make_graph(7, arcs, directed=True),
        random_weighted_graph(rng, 8, 0.5),
        Graph(n=9, edges=dict(G.edges), node_attrs=labels),
        Graph(n=9, edges={(u, v): w for (u, v), w in G.edges.items()
                          if (u + v) % 2}, node_attrs=labels,
              bipartite=True),
    ]
    for H in graphs:
        for r in range(1, ORDER_CAPS[H.mode()] + 1):
            moments(H, r)
    assert calls == []
    esu_counts(G, 2)
    assert calls == [2]


@pytest.mark.parametrize("flag", [["--directed"],
                                  ["--bipartite", "--attributes", "{attrs}"],
                                  ["--attributes", "{attrs}"]])
def test_weights_with_another_mode_are_refused(flag, tmp_path, capsys):
    # the classes of these modes carry no edge values; counting weights
    # against them gave wrong derived counts
    arcs = make_graph(4, [(0, 1, 2), (1, 2, 3), (2, 3, 1)], directed=True,
                      weighted=True)
    labels = {0: "a", 1: "b", 2: "a", 3: "b"}
    labelled = Graph(n=4, edges={(0, 1): Fraction(2), (2, 3): Fraction(5)},
                     weighted=True, node_attrs=labels)
    for G in (arcs, labelled):
        for fn in (count_connected, full_counts, moments):
            with pytest.raises(GraphDataError, match="--weighted"):
                fn(G, 2)
    graph = tmp_path / "g.txt"
    graph.write_text("0 1 2\n1 2 3\n2 3 1\n")
    attrs = tmp_path / "attrs.txt"
    attrs.write_text("".join(f"{v}\t{labels[v]}\n" for v in range(4)))
    flag = [str(attrs) if a == "{attrs}" else a for a in flag]
    assert main(["count", str(graph), "--weighted", *flag]) == 2
    assert "cannot be combined" in capsys.readouterr().err


def _star(k):
    return ClassGraph.make(k + 1, [(0, i, 1) for i in range(1, k + 1)])


def test_star_counts_are_exact_in_int64():
    # 2 * 500 * 500^5 is past float64's exact integers, within int64
    assert 2 ** 53 < 2 * 500 ** 6 < 2 ** 63
    G = make_graph(501, [(0, i) for i in range(1, 501)])
    for r, dtype in ((5, np.float64), (6, np.int64)):
        _, nodes, walk = counting._hom_basis(r, "simple", 2)
        assert counting._Host(G, nodes, walk, r).dtype == dtype
    want = {class_id(_star(k), "simple"): math.comb(500, k)
            for k in range(1, 7)}
    assert count_connected(G, 6) == want


def test_star_order_six_refuses_before_allocating(tmp_path, capsys):
    # 2 * 2000 * 2000^5 is past 2^63, which only moves the sums to Python
    # ints; the 8,000,000 walks of length 3 are past the walk cap
    G = make_graph(2001, [(0, i) for i in range(1, 2001)])
    counting._hom_basis(6, "simple", 2)
    tracemalloc.start()
    try:
        with pytest.raises(OrderCapError, match="walks of length 3"):
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
    assert "walks" in capsys.readouterr().err


def test_walk_cap_covers_every_mode():
    # the same 3,000-leaf star, as arcs both ways and as weighted edges
    leaves = range(1, 3001)
    arcs = make_graph(3001, [(0, i) for i in leaves]
                      + [(i, 0) for i in leaves], directed=True)
    weighted = make_graph(3001, [(0, i, i) for i in leaves], weighted=True)
    for G in (arcs, weighted):
        with pytest.raises(OrderCapError, match="walks of length 2"):
            count_connected(G, 4)


@pytest.mark.parametrize("n, r", [(48, 5), (64, 5), (64, 6)])
def test_walk_cap_leaves_dense_hosts_alone(n, r):
    # K48 has 4,983,504 walks of length 3, past the cap, but a dense host
    # holds its products as n x n arrays and is not refused
    G = make_graph(n, list(itertools.combinations(range(n), 2)))
    _, nodes, walk = counting._hom_basis(r, "simple", 2)
    assert counting._Host(G, nodes, walk, r).dense
    counts = full_counts(G, r)
    assert counts == {ci.id: complete_count(ci, n)
                      for infos in universe("simple", r).values()
                      for ci in infos}


def test_walk_cap_refuses_before_allocating(tmp_path, capsys):
    # A @ A of a star with 3,000 leaves has 9,000,000 entries
    G = make_graph(3001, [(0, i) for i in range(1, 3001)])
    counting._hom_basis(4, "simple", 2)
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
    assert [counting._hom_basis(r, "simple", 2)[2] for r in range(1, 7)] == \
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


# SHA-256 of "<id> <count>\n" lines, ids sorted, of the order-6 counts below,
# recorded before program values were freed after their last use
ORDER_SIX_DIGEST = ("2ebc5ad24c91ce50081524f906bade23"
                    "6da38aec12a71b4b0d2a1f73035b8828")


def test_order_six_frees_program_values():
    rng = random.Random(22)
    n = 20_000
    edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(40_000)}
    G = make_graph(n, sorted(edges))
    count_connected(make_graph(3, [(0, 1), (1, 2)]), 6)  # warm the basis
    got = {}
    # 118 MB measured; holding every value to the end peaked at 210 MB
    assert _peak_bytes(lambda: got.update(count_connected(G, 6))) < 2 ** 27
    text = "".join(f"{sid.serialize()} {c}\n" for sid, c in
                   sorted(got.items(), key=lambda kv: kv[0].serialize()))
    assert hashlib.sha256(text.encode()).hexdigest() == ORDER_SIX_DIGEST
