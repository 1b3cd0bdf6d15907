"""Exact small-n maximum-entropy models: enumeration, fitting, histograms."""

import dataclasses
import hashlib
import inspect
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from array import array
from fractions import Fraction
from functools import lru_cache

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import netmoments
from netmoments import counting, ergm
from netmoments.canonical import canonicalize, orbits
from netmoments.classes import (ClassGraph, class_id, complete_count,
                                named_class, universe, universe_index)
from netmoments.counting import OrderCapError, full_counts
from netmoments.graphs import make_graph
from netmoments.ergm import (degeneracy_diagnostics, enumerate_classes,
                             ergm_distribution, fit_ergm,
                             InfeasibleTargetError, SizeCapError)
from netmoments.moments import MomentVector

from conftest import (brute_canonical, dedupe_all_classes, lp_first_fit_ergm,
                      per_row_statistic_counts)

nc = lambda a: named_class("simple", a).id


def _targets(n, values):
    return MomentVector(n=n, mode="simple", r_max=max(s.r for s in values),
                        values=values)


def achieved_moments(model):
    """The fitted model's expected count of each statistic over its count
    in K_n."""
    index = universe_index("simple", max(s.r for s in model.statistics))
    return {sid: model.achieved_counts[j]
            / float(complete_count(index[sid.key], model.n))
            for j, sid in enumerate(model.statistics)}


def test_enumeration_counts():
    assert len(enumerate_classes(3)) == 4
    assert len(enumerate_classes(4)) == 11
    assert len(enumerate_classes(5)) == 34
    assert len(enumerate_classes(6)) == 156
    for n in range(1, 7):
        reps, keys, auts, mults = table_rows(enumerate_classes(n))
        assert len(set(keys)) == len(reps)
        assert auts == [canonicalize(n, [(u, v, 1) for u, v in edges]).aut
                        for edges in reps]


def decoded(t):
    """The table's representatives as edge tuples."""
    return [ergm._edges(word, t.n) for word in t.reps]


def table_rows(t):
    """(reps, keys, auts, mults) of a table: reps as edge tuples, each key
    searched from its representative (None on no nodes), each |Aut| read
    as n! // mult."""
    nfact = math.factorial(t.n)
    reps = decoded(t)
    keys = [canonicalize(t.n, [(u, v, 1) for u, v in rep]).key if t.n
            else None for rep in reps]
    return reps, keys, [nfact // mult for mult in t.mults], t.mults


# SHA-256 over the rows (rep, key, aut, mult) of the n=8 table, recorded
# with the enumeration that canonicalized every child.  The row order
# reaches every fit through the order of its sums, and so the printed beta.
TABLE_DIGEST_8 = ("4ec916e628c6de7763c1ff3d4ca44d58"
                  "0d114eb3a4e5a50392190d24d50df7d5")


def table_digest(t, rows=None):
    h = hashlib.sha256()
    for row in zip(*(rows or table_rows(t))):
        h.update(repr(row).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("n", range(8))
def test_enumeration_matches_dedupe_all(n):
    assert table_rows(enumerate_classes(n)) == dedupe_all_classes(n)


def test_enumeration_n8_matches_pinned_digest():
    assert table_digest(enumerate_classes(8)) == TABLE_DIGEST_8


def test_enumeration_counts_match_graph_atlas():
    atlas = {}
    for g in nx.graph_atlas_g():
        nm = (g.number_of_nodes(), g.number_of_edges())
        atlas[nm] = atlas.get(nm, 0) + 1
    ours = {}
    for n in range(8):
        for word in enumerate_classes(n).reps:
            key = (n, word.bit_count())
            ours[key] = ours.get(key, 0) + 1
    assert ours == atlas


def counted_build(monkeypatch, n):
    """A table built with no cached one, with the (node count, key) of
    each canonical search the build made."""
    searches = []

    def counted(*args, **kwargs):
        res = canonicalize(*args, **kwargs)
        searches.append((args[0], res.key))
        return res

    monkeypatch.setattr(ergm, "canonicalize", counted)
    monkeypatch.setattr(ergm, "_CLASS_TABLE_CACHE", {})
    table = enumerate_classes(n)
    monkeypatch.setattr(ergm, "canonicalize", canonicalize)
    return table, searches


def unsearched_rows(table, searches):
    """The rows whose class the build never searched."""
    searched = {key for k, key in searches if k == table.n}
    return [i for i, key in enumerate(table_rows(table)[1])
            if key not in searched]


def test_enumeration_canonicalizes_once_per_class(monkeypatch):
    table, searches = counted_build(monkeypatch, 7)
    assert len(searches) < 4000   # every child of every parent: 11,291
    # the last level makes no search: each class on 1 to 6 nodes is
    # searched once, for the generators the next level reads, and no
    # class on 7 nodes is (565 searches when the 357 classes whose new
    # node ties for the largest code were searched, 1,252 with one search
    # per class)
    assert len(searches) == 208
    assert len(set(searches)) == 208
    assert max(k for k, _ in searches) == 6
    assert len(unsearched_rows(table, searches)) == 1044


def test_reading_a_table_makes_no_search(monkeypatch):
    # a table keeps no keys, so neither repr() nor == searches any (9,584
    # searches when the keys the build left unsearched were filled on read)
    first, _ = counted_build(monkeypatch, 8)
    second, searches = counted_build(monkeypatch, 8)
    searches.clear()
    monkeypatch.setattr(ergm, "canonicalize", lambda *args, **kwargs:
                        searches.append(args) or canonicalize(*args,
                                                              **kwargs))
    assert repr(first).startswith(
        "GraphClassTable(n=8, reps=array('q', [0, 2097152, ")
    assert first == second and first is not second
    assert not searches
    assert {f.name for f in dataclasses.fields(first)} == {
        "n", "reps", "mults"}


@pytest.mark.parametrize("n", range(1, 8))
def test_unsearched_classes_take_aut_from_the_parent(monkeypatch, n):
    # every class's multiplicity is counted with no search of it
    table, searches = counted_build(monkeypatch, n)
    unsearched = unsearched_rows(table, searches)
    assert len(unsearched) == len(table)
    nfact = math.factorial(n)
    reps = decoded(table)
    for i in unsearched:
        res = canonicalize(n, [(u, v, 1) for u, v in reps[i]])
        assert nfact // table.mults[i] == res.aut


def node_codes(adj):
    """The _pack_codes of every node of each graph of an int64 (..., n, n)
    adjacency array, from its powers."""
    deg = adj.sum(axis=-1)
    walk2 = np.matvec(adj, deg)
    square = adj @ adj
    return ergm._pack_codes(deg, (square * adj).sum(axis=-1) // 2, walk2,
                            np.matvec(adj, walk2),
                            (square * square).sum(axis=-1))


@pytest.mark.parametrize("n", range(9))
def test_node_codes_tell_every_class_apart(n):
    # the sorted codes are a complete invariant: one per class (with four
    # fields, 12,325 for the 12,346 classes at n=8), and the graph on no
    # nodes has one, with no codes
    table = enumerate_classes(n)
    assert len(set(ergm.graph_invariants(table.stack(np.int64)))) == \
        len(table)


@pytest.mark.parametrize("k", range(7))
def test_node_codes_of_children_match_their_adjacency(k):
    # each child's codes, computed incrementally from its parent's, are
    # those of its explicit adjacency
    masks = np.arange(1 << k)
    for parent in enumerate_classes(k).reps:
        children = ergm._adjacency(parent | masks << (k * (k - 1) // 2),
                                   k + 1)
        assert np.array_equal(
            ergm._node_codes(ergm._adjacency([parent], k)[0], k),
            node_codes(children))


@st.composite
def _graph_words(draw, max_nodes):
    """(n, word) of a graph on 0 to max_nodes nodes, any set of pairs."""
    n = draw(st.integers(0, max_nodes))
    return n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1))


@settings(max_examples=300, deadline=None)
@given(_graph_words(9))
@example((9, 1 << 35))                  # the pair (7, 8) alone
@example((9, (1 << 36) - 1))            # K9
def test_a_graph_word_holds_one_bit_per_pair(case):
    # bit v(v-1)/2 + u is the pair u < v: the adjacency is symmetric 0/1
    # with a zero diagonal, and its pairs, read by (v, u), are the edges
    n, word = case
    adj = ergm._adjacency([word], n)
    assert adj.shape == (1, n, n) and adj.dtype == np.int64
    adj = adj[0]
    assert set(np.unique(adj).tolist()) <= {0, 1}
    assert (adj == adj.T).all() and not adj.diagonal().any()
    assert ergm._edges(word, n) == tuple(
        (u, v) for v in range(n) for u in range(v) if adj[v, u])


@settings(max_examples=300, deadline=None)
@given(_graph_words(8).flatmap(lambda case: st.tuples(
    st.just(case), st.integers(0, (1 << case[0]) - 1))))
@example(((8, 0), 1 << 7))              # bit 35: node 8 joined to node 7
def test_a_child_word_joins_node_k_to_the_mask(case):
    (k, parent), mask = case
    want = np.zeros((k + 1, k + 1), dtype=np.int64)
    want[:k, :k] = ergm._adjacency([parent], k)[0]
    want[:k, k] = want[k, :k] = [mask >> j & 1 for j in range(k)]
    child = parent | mask << (k * (k - 1) // 2)
    assert np.array_equal(ergm._adjacency([child], k + 1)[0], want)


# builds with a coarser invariant than the node codes, in a fresh
# interpreter, plain and under -O: each outcome is "same" for the table of
# the real invariant, "different", or the AssertionError raised
_COARSE_BUILDS = """
import json
from netmoments import ergm
real = ergm._invariants
want = [ergm.enumerate_classes(n) for n in range(8)]
out = {}
for kind, invariants in [
        ("constant", lambda codes: [b""] * len(codes)),
        ("degrees", lambda codes: real(codes >> 33))]:
    ergm._invariants = invariants
    for n in range(8):
        ergm._CLASS_TABLE_CACHE.clear()
        try:
            table = ergm.enumerate_classes(n)
            out[f"{kind} {n}"] = "same" if table == want[n] else "different"
        except AssertionError as exc:
            out[f"{kind} {n}"] = f"AssertionError: {exc}"
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def coarse_builds():
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(netmoments.__file__).parents[1]))
    outcomes = {}
    for optimize in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *optimize, "-c",
                               _COARSE_BUILDS],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        outcomes[tuple(optimize)] = json.loads(proc.stdout)
    return outcomes


@pytest.mark.parametrize("n", [6, 7])
def test_shared_invariants_search_the_unsearched_keys(coarse_builds, n):
    # with the degree sequence as invariant, classes on 5 nodes share one
    # and their candidates disagree on |T|: the build refuses with an
    # explicit raise, also under -O, rather than search keys to tell them
    # apart
    for outcomes in coarse_builds.values():
        assert outcomes[f"degrees {n}"] == (
            "AssertionError: candidates of one class on 5 nodes disagree on "
            "its nodes with the largest code")


def tied_orbits(n, rep):
    """|T|, the nodes of rep with the largest invariant code, and the
    number of automorphism orbits on T: the times the build makes the
    class."""
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in rep:
        adj[u, v] = adj[v, u] = 1
    codes = node_codes(adj).tolist()
    top = [v for v in range(n) if codes[v] == max(codes)]
    if len(top) == 1:
        return 1, 1
    gens = canonicalize(n, [(u, v, 1) for u, v in rep]).generators
    return len(top), sum(1 for _ in orbits(top, gens, lambda g, v: g[v]))


@pytest.mark.parametrize("n", range(2, 8))
def test_tied_classes_take_aut_by_orbit_counting(monkeypatch, n):
    # a class whose largest code is shared by T nodes is counted with no
    # search: mult |T| = n * sum of mult(parent) |orbit of the mask| over
    # its candidates, and up to 7 nodes each is made once
    table, searches = counted_build(monkeypatch, n)
    unsearched = set(unsearched_rows(table, searches))
    nfact = math.factorial(n)
    tied = 0
    for i, rep in enumerate(decoded(table)):
        size, made = tied_orbits(n, rep)
        if size > 1:
            tied += 1
            assert made == 1 and i in unsearched
            res = canonicalize(n, [(u, v, 1) for u, v in rep])
            assert nfact // table.mults[i] == res.aut
    assert tied == {2: 2, 3: 3, 4: 8, 5: 19, 6: 80, 7: 357}[n]


def test_tied_candidates_that_repeat_a_class_are_merged(monkeypatch):
    # from n=8 some classes have two or more automorphism orbits of nodes
    # with the largest code, and the build makes them once per orbit: the
    # counting rule sums those candidates into one row, with no search on
    # 8 nodes (1,504 searches when each repeated candidate was searched)
    table, searches = counted_build(monkeypatch, 8)
    assert len(searches) == 1252
    assert max(k for k, _ in searches) == 7
    tied_classes = candidates = repeated = 0
    nfact = math.factorial(8)
    for rep, mult in zip(decoded(table), table.mults):
        size, made = tied_orbits(8, rep)
        if size > 1:
            tied_classes += 1
            candidates += made
        if made > 1:
            repeated += 1
            res = canonicalize(8, [(u, v, 1) for u, v in rep])
            assert nfact // mult == res.aut
    assert (tied_classes, candidates) == (2740, 2773)
    assert repeated == 33
    assert table_digest(table) == TABLE_DIGEST_8


@pytest.mark.parametrize("n", range(7))
def test_an_invariant_that_tells_no_class_apart(coarse_builds, n):
    # with one invariant for every child the build can tell no two
    # classes apart: from 2 nodes on it refuses with an explicit raise,
    # also under -O, and below 2 nodes there is one class to find
    for outcomes in coarse_builds.values():
        outcome = outcomes[f"constant {n}"]
        if n < 2:
            assert outcome == "same"
        else:
            assert outcome.startswith("AssertionError: ")


# an orbit size that does not divide the parent's group order, or one that
# does but is wrong, is refused by an explicit raise, so also under -O
_WRONG_ORBIT_SIZES = """
from netmoments import ergm
real = ergm._orbit_minima
ergm._orbit_minima = lambda k, gens: (real(k, gens)[0], WRONG)
try:
    ergm.enumerate_classes(6)
except AssertionError as exc:
    print(exc)
"""


@pytest.mark.parametrize("wrong, message", [
    ("real(k, gens)[1] * 2", "does not divide an automorphism group"),
    ("real(k, gens)[1] ** 0",
     "candidates on 3 nodes do not count whole classes")],
    ids=["doubled", "all-one"])
@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "O"])
def test_wrong_orbit_sizes_are_refused(wrong, message, optimize):
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(netmoments.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, *optimize, "-c",
         _WRONG_ORBIT_SIZES.replace("WRONG", wrong)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert message in proc.stdout


def test_enumeration_n7_peak_memory(monkeypatch):
    # a table holds one int64 word per class, not an edge tuple: the n=7
    # traced peak was 1.8 MiB with a tuple per neighbour
    monkeypatch.setattr(ergm, "_CLASS_TABLE_CACHE", {})
    tracemalloc.start()
    try:
        enumerate_classes(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20


def test_enumeration_multiplicities_n3():
    t = enumerate_classes(3)
    assert sorted(t.mults) == [1, 1, 3, 3]
    assert sum(t.mults) == 8


def test_size_cap():
    for n in (10, 11):
        with pytest.raises(SizeCapError, match="capped at n=9"):
            enumerate_classes(n)


def test_order_one_fit_is_logit():
    p = 0.3
    model = fit_ergm(_targets(6, {nc("edge"): Fraction(3, 10)}), 6)
    assert model.beta[nc("edge")] == pytest.approx(math.log(p / (1 - p)),
                                                   abs=1e-6)
    assert achieved_moments(model)[nc("edge")] == pytest.approx(p, abs=1e-9)


def test_order_one_model_is_er_binomial():
    p = 0.3
    model = fit_ergm(_targets(6, {nc("edge"): Fraction(3, 10)}), 6)
    h = ergm_distribution(model, nc("edge"))
    npairs = 15
    for s, q in zip(h.support, h.probabilities):
        want = math.comb(npairs, int(s)) * p ** s * (1 - p) ** (npairs - s)
        assert q == pytest.approx(want, rel=1e-6)
    assert h.mean == pytest.approx(npairs * p, rel=1e-9)


def test_second_order_fit_matches_targets():
    p = Fraction(2, 5)
    targets = _targets(7, {nc("edge"): p, nc("wedge"): p * p,
                           nc("two-parallel"): p * p})
    model = fit_ergm(targets, 7)
    assert model.residual <= 1e-8
    got = achieved_moments(model)
    assert got[nc("wedge")] == pytest.approx(float(p * p), abs=1e-8)


def _separates(direction, t, X):
    """Whether d.t > d.x for every row x of X, in Fractions, with d the
    direction read exactly and t the exact target counts."""
    d = [Fraction(v) for v in direction.tolist()]
    rows = np.unique(X, axis=0).astype(np.int64).tolist()
    return (sum(map(Fraction.__mul__, d, t))
            > max(sum(map(Fraction.__mul__, d, x)) for x in rows))


def test_infeasible_target_outside_hull():
    # many wedges with almost no edges is unrealizable
    targets = _targets(6, {nc("edge"): Fraction(1, 100),
                           nc("wedge"): Fraction(9, 10),
                           nc("two-parallel"): Fraction(1, 100)})
    sids = tuple(targets.values)
    with pytest.raises(InfeasibleTargetError,
                       match="outside the convex hull") as ei:
        fit_ergm(targets, 6, sids)
    index = universe_index("simple", 2)
    t = [targets.values[s] * complete_count(index[s.key], 6) for s in sids]
    assert _separates(ei.value.direction, t,
                      enumerate_classes(6).statistic_counts(sids))


def test_boundary_target_is_infeasible_with_direction():
    targets = _targets(6, {nc("edge"): Fraction(1)})
    with pytest.raises(InfeasibleTargetError) as ei:
        fit_ergm(targets, 6)
    assert ei.value.direction is not None


def test_histogram_and_diagnostics_json():
    model = fit_ergm(_targets(5, {nc("edge"): Fraction(1, 2)}), 5)
    h = ergm_distribution(model, nc("wedge"))
    assert h.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    diag = degeneracy_diagnostics(h)
    assert diag["modality"] == len(diag["modes"])
    doc = h.to_json_dict()
    assert doc["statistic"]["alias"] == "wedge"
    assert model.to_json_dict()["n"] == 5


def _brute_statistic_matrix(table, sids):
    """c_g per class row by enumerating every r-edge subset of the row's
    representative and classifying it with the brute-force oracle."""
    targets = {}
    for sid in sids:
        cg = universe_index("simple", sid.r)[sid.key].graph
        targets[sid] = brute_canonical([(u, v) for u, v, _ in cg.edges])
    X = np.zeros((len(table), len(sids)))
    for i, edges in enumerate(decoded(table)):
        for r in {sid.r for sid in sids}:
            found = {}
            for sub in itertools.combinations(edges, r):
                key = brute_canonical(list(sub))
                found[key] = found.get(key, 0) + 1
            for j, sid in enumerate(sids):
                if sid.r == r:
                    X[i, j] = found.get(targets[sid], 0)
    return X


def test_statistic_counts_match_pipeline():
    table = enumerate_classes(5)
    sids = (nc("edge"), nc("wedge"), nc("two-parallel"), nc("triangle"),
            nc("path"), nc("wedge+edge"), nc("three-parallel"))
    X = table.statistic_counts(sids)
    assert (X == _brute_statistic_matrix(table, sids)).all()


_PATH4 = class_id(ClassGraph.make(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1),
                                      (3, 4, 1)]), "simple")
_ORDER_FOUR = {
    "connected": (nc("square"), nc("triangle-edge"), nc("four-star"), _PATH4),
    "disconnected": tuple(ci.id for ci in universe("simple", 4)[4]
                          if not ci.connected),
}


@pytest.mark.parametrize("group", sorted(_ORDER_FOUR))
def test_statistic_counts_order_four(group):
    table = enumerate_classes(6)
    sids = _ORDER_FOUR[group]
    X = table.statistic_counts(sids)
    assert (X == _brute_statistic_matrix(table, sids)).all()
    # a statistic that was not fitted gets its column from the same path
    model = fit_ergm(_targets(6, {nc("edge"): Fraction(2, 5)}), 6)
    p = np.exp(model.log_probs)
    for j, sid in enumerate(sids):
        h = ergm_distribution(model, sid)
        col = X[:, j]
        assert (h.support == np.unique(col)).all()
        assert h.mean == pytest.approx(float(p @ col), rel=1e-12)
        want = [p[col == s].sum() for s in h.support]
        assert h.probabilities == pytest.approx(want, rel=1e-12)


def test_statistic_counts_one_full_count_per_table(monkeypatch):
    # one stack counts every row, and a lower cap only slices it inside
    # count_connected: still one full_counts call
    table = enumerate_classes(6)
    calls = []

    def counted(G, r_max):
        calls.append((G.shape, r_max))
        return full_counts(G, r_max)

    monkeypatch.setattr(ergm, "full_counts", counted)
    sids = (nc("edge"), nc("triangle"), nc("square"), _PATH4)
    X = table.statistic_counts(sids)
    monkeypatch.setattr(counting, "MATRIX_WALKS", 3000)
    assert (table.statistic_counts(sids) == X).all()
    assert calls == [((len(table), 6, 6), 4)] * 2


def test_statistic_counts_derive_once_per_run(monkeypatch):
    # the derivation runs on the run's columns, not once per row: n=7 at
    # order 2 is one run of 1,044 rows
    table = enumerate_classes(7)
    calls = []
    derive = counting.derive_disconnected

    def counted(counts, G, r_max):
        calls.append(G.shape)
        return derive(counts, G, r_max)

    monkeypatch.setattr(counting, "derive_disconnected", counted)
    table.statistic_counts((nc("edge"), nc("wedge"), nc("two-parallel")))
    assert calls == [(len(table), 7, 7)] and len(table) == 1044


def _all_ids(r):
    return tuple(ci.id for infos in universe("simple", r).values()
                 for ci in infos)


@pytest.mark.parametrize("n", range(1, 8))
def test_statistic_counts_match_per_row_reference(n):
    # every class through each order, compared row for row (same order)
    table = enumerate_classes(n)
    for r in range(1, 5):
        sids = _all_ids(r)
        assert table.statistic_counts(sids).tobytes() == \
            per_row_statistic_counts(table, sids).tobytes()


@pytest.mark.parametrize("n, r, cap", [(6, 4, 400), (6, 5, 2500),
                                       (7, 4, 1000), (5, 6, 400)])
def test_statistic_counts_in_slices(monkeypatch, n, r, cap):
    # with a lower cap the stack is counted in slices of the table, in
    # table order, and the matrix does not change
    table = enumerate_classes(n)
    sids = _all_ids(r)
    want = per_row_statistic_counts(table, sids)
    monkeypatch.setattr(counting, "MATRIX_WALKS", cap)
    slices = []
    blocks = counting._Host.blocks

    def recorded(host, lo, hi):
        slices.append((lo, hi))
        return blocks(host, lo, hi)

    monkeypatch.setattr(counting._Host, "blocks", recorded)
    assert table.statistic_counts(sids).tobytes() == want.tobytes()
    assert len(slices) > 2
    assert [lo for lo, _ in slices[1:]] == [hi for _, hi in slices[:-1]]
    assert slices[0][0] == 0 and slices[-2][1] < len(table) <= slices[-1][1]


def test_walk_cap_refuses_sparse_hosts_only(monkeypatch):
    # K6 has 150 walks of length 2; past the cap only a sparse host is
    # refused, and a row is never counted on one
    monkeypatch.setattr(counting, "MATRIX_WALKS", 149)
    table = enumerate_classes(6)
    sids = (nc("square"),)
    want = per_row_statistic_counts(table, sids)
    assert (table.statistic_counts(sids) == want).all()
    assert want[-1, 0] == 45   # K6 is the last row
    monkeypatch.setattr(counting, "DENSE_NODES", 0)
    with pytest.raises(OrderCapError, match="walks of length 2"):
        per_row_statistic_counts(table, sids)


def test_order_five_counts_at_n8():
    # the n=8 table is one stack of 12,346 graphs; sampled rows match the
    # reference
    table = enumerate_classes(8)
    sids = (nc("edge"), nc("triangle"), _PATH4, _ORDER_FOUR["connected"][0],
            class_id(ClassGraph.make(6, [(0, 1, 1), (1, 2, 1), (2, 3, 1),
                                         (3, 4, 1), (4, 5, 1)]), "simple"))
    X = table.statistic_counts(sids)
    rows = list(range(0, len(table), 97)) + [10572, 10573, len(table) - 1]
    sample = ergm.GraphClassTable(
        n=8, reps=array("q", [table.reps[i] for i in rows]), mults=None)
    assert (X[rows] == per_row_statistic_counts(sample, sids)).all()


# ---------------------------------------------------------------------------
# fit_ergm runs the hull LP only for a target on or past some column's
# range, or when the fit fails; the reference checks the hull first.

_STAT_SETS = (("edge",), ("edge", "wedge"), ("edge", "wedge", "two-parallel"),
              ("edge", "triangle"))


@lru_cache(maxsize=None)
def _support(n, aliases):
    """The distinct rows of the statistic matrix, and the hull facets
    (vertices, outward normal) that no axis is normal to."""
    from scipy.spatial import ConvexHull
    X = enumerate_classes(n).statistic_counts(tuple(nc(a) for a in aliases))
    pts = np.unique(X, axis=0)
    facets = []
    if len(aliases) > 1:
        hull = ConvexHull(pts)
        facets = [(pts[simplex], eq[:-1]) for simplex, eq
                  in zip(hull.simplices, hull.equations)
                  if np.count_nonzero(np.abs(eq[:-1]) > 1e-9) > 1]
    return pts, facets


def _mixture(draw, rows):
    """A convex combination of rows with positive rational weights."""
    ws = draw(st.lists(st.integers(1, 5), min_size=len(rows),
                       max_size=len(rows)))
    return [sum(Fraction(int(x)) * w for x, w in zip(col, ws)) / sum(ws)
            for col in np.asarray(rows).T]


@st.composite
def _fit_case(draw):
    """(n, aliases, target counts) of one of five kinds: a mixture of class
    rows, a point with one component at its range's end, a point on a
    non-axis facet, a point past such a facet, or a point in the box."""
    n = draw(st.integers(5, 7))
    kind = draw(st.sampled_from(["mixture", "axis", "facet", "outside",
                                 "box"]))
    sets = _STAT_SETS[1:] if kind in ("facet", "outside") else _STAT_SETS
    aliases = draw(st.sampled_from(sets))
    pts, facets = _support(n, aliases)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    if kind in ("facet", "outside"):
        verts, normal = draw(st.sampled_from(facets))
        t = _mixture(draw, verts)
        if kind == "outside":
            s = Fraction(draw(st.integers(1, 24)), 8)
            t = [x + s * Fraction(float(d)) for x, d in zip(t, normal)]
    elif kind == "box":
        t = [Fraction(int(a)) + Fraction(int(b - a))
             * Fraction(draw(st.integers(1, 99)), 100)
             for a, b in zip(lo, hi)]
    else:
        picks = draw(st.lists(st.integers(0, len(pts) - 1), min_size=1,
                              max_size=4))
        t = _mixture(draw, pts[picks])
        if kind == "axis":
            j = draw(st.integers(0, len(t) - 1))
            t[j] = Fraction(int(draw(st.sampled_from([lo[j], hi[j]]))))
    return n, aliases, t


def _count_targets(n, aliases, t):
    """The target moments whose counts on n nodes are t."""
    index = universe_index("simple", 3)
    return _targets(n, {nc(a): x / complete_count(index[nc(a).key], n)
                        for a, x in zip(aliases, t)})


def _fit_outcome(fit, n, aliases, t):
    """The fit's beta and ln Z as hex floats, or its error's type, message
    and direction."""
    targets = _count_targets(n, aliases, t)
    try:
        model = fit(targets, n)
    except Exception as exc:
        d = getattr(exc, "direction", None)
        return type(exc), str(exc), None if d is None else d.tolist()
    return [b.hex() for b in model.beta.values()], model.log_z.hex()


@settings(max_examples=60, deadline=None)
@given(_fit_case())
@example((7, ("edge", "wedge", "two-parallel"),     # a facet's centroid,
          [Fraction(23, 3), Fraction(62, 3), Fraction(19, 3)]))  # diverges
def test_fit_matches_lp_first_reference(case):
    n, aliases, t = case
    assert (_fit_outcome(fit_ergm, n, aliases, t)
            == _fit_outcome(lp_first_fit_ergm, n, aliases, t))


@pytest.mark.parametrize("n, t, message", [
    (6, [Fraction(3, 20), Fraction(54), Fraction(9, 20)],
     "outside the convex hull"),
    (7, [Fraction(23, 3), Fraction(62, 3), Fraction(19, 3)],
     "fit diverging")])
def test_hull_check_runs_one_lp_over_the_distinct_tuples(monkeypatch, n, t,
                                                         message):
    # an outside target, and a facet centroid whose fit fails
    import scipy.optimize
    linprog = scipy.optimize.linprog
    calls = []

    def recording(*args, **kwargs):
        calls.append(inspect.signature(linprog).bind(*args, **kwargs)
                     .arguments)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", recording)
    aliases = ("edge", "wedge", "two-parallel")
    with pytest.raises(InfeasibleTargetError, match=message):
        fit_ergm(_count_targets(n, aliases, t), n)
    X = enumerate_classes(n).statistic_counts(tuple(nc(a) for a in aliases))
    [call] = calls
    assert call["A_ub"].shape[0] == len(np.unique(X, axis=0))
    assert call.get("A_eq") is None


@st.composite
def _hull_case(draw):
    """(n, aliases, target counts, whether they are outside the hull): an
    exact mixture of statistic tuples, a facet's centroid or another point
    of a facet, or a facet point moved s >= 1/8 along its outward normal."""
    n = draw(st.integers(5, 7))
    kind = draw(st.sampled_from(["mixture", "centroid", "facet",
                                 "outside"]))
    sets = _STAT_SETS if kind == "mixture" else _STAT_SETS[1:]
    aliases = draw(st.sampled_from(sets))
    pts, facets = _support(n, aliases)
    if kind == "mixture":
        picks = draw(st.lists(st.integers(0, len(pts) - 1), min_size=1,
                              max_size=4))
        return n, aliases, _mixture(draw, pts[picks]), False
    verts, normal = draw(st.sampled_from(facets))
    if kind == "centroid":
        return n, aliases, [Fraction(int(c), len(verts))
                            for c in verts.sum(axis=0)], False
    t = _mixture(draw, verts)
    if kind == "outside":
        s = Fraction(draw(st.integers(1, 24)), 8)
        t = [x + s * Fraction(float(d)) for x, d in zip(t, normal)]
    return n, aliases, t, kind == "outside"


@settings(max_examples=100, deadline=None)
@given(_hull_case())
@example((5, ("edge", "wedge"), [Fraction(28, 3), Fraction(26)], False))
@example((5, ("edge", "wedge", "two-parallel"),      # a facet's centroid
          [Fraction(25, 3), Fraction(61, 3), Fraction(31, 3)], False))
def test_hull_check_is_exact(case):
    # a point of the closed hull is never outside it, and a point 1/8 or
    # more past a facet always is, with an exactly separating direction;
    # the examples are facet points that a float comparison of the LP's
    # direction puts outside
    n, aliases, t, outside = case
    X = enumerate_classes(n).statistic_counts(tuple(nc(a) for a in aliases))
    try:
        ergm._check_hull(X, t)
        error = None
    except InfeasibleTargetError as exc:
        error = exc
    if outside:
        assert "outside the convex hull" in str(error)
        assert _separates(error.direction, t, X)
    else:
        assert error is None or "sits on the hull boundary" in str(error)


_FRESH_CLI = """
import sys
from netmoments.cli import main
code = main(sys.argv[1:])
print(f"exit={code} " + " ".join(f"{name}={name in sys.modules}"
                                 for name in ("scipy.optimize", "numpy.ma")),
      file=sys.stderr)
"""


def _fresh_cli(*argv):
    """(exit code, which of scipy.optimize and numpy.ma were imported,
    stderr) of main(argv) in a new interpreter."""
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(netmoments.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _FRESH_CLI, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    *_, last = proc.stderr.strip().splitlines()
    fields = dict(field.split("=") for field in last.split())
    code = int(fields.pop("exit"))
    imported = {name for name, got in fields.items() if got == "True"}
    return code, imported, proc.stderr


@pytest.mark.parametrize("command", [["fit"], ["dist", "--statistic",
                                                "wedge"]])
def test_feasible_cli_fit_skips_scipy_optimize(tmp_path, command):
    path = tmp_path / "p4.txt"
    path.write_text("0 1\n1 2\n2 3\n")
    code, imported, err = _fresh_cli("ergm", command[0], str(path),
                                     "--order", "2", *command[1:])
    assert code == 0, err
    assert "scipy.optimize" not in imported


@pytest.mark.parametrize("command, options", [
    (["ergm", "dist"], ["--order", "2", "--statistic", "wedge"]),
    (["count"], ["--directed", "--order", "3"])])
def test_cold_cli_skips_numpy_ma(tmp_path, command, options):
    # np.unique imports numpy.ma on its first call
    path = tmp_path / "cycle.txt"
    path.write_text("0 1\n1 2\n2 0\n2 3\n")
    code, imported, err = _fresh_cli(*command, str(path), *options)
    assert code == 0, err
    assert "numpy.ma" not in imported


def test_infeasible_cli_fit_reports_the_hull_direction(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text("0 1\n1 2\n2 3\n")
    code, imported, err = _fresh_cli("ergm", "fit", str(path), "--order",
                                     "2", "--eta", "1/3")
    assert code == 3
    assert "scipy.optimize" in imported
    assert ("target lies outside the convex hull of realizable counts; "
            "violated support direction" in err)
