"""Exact small-n maximum-entropy models: enumeration, fitting, histograms."""

import hashlib
import itertools
import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from netmoments import ergm
from netmoments.canonical import canonicalize
from netmoments.classes import (ClassGraph, class_id, named_class, universe,
                                universe_index)
from netmoments.counting import full_counts
from netmoments.ergm import (degeneracy_diagnostics, enumerate_classes,
                             ergm_distribution, fit_ergm,
                             InfeasibleTargetError, SizeCapError)
from netmoments.moments import MomentVector

from conftest import brute_canonical, dedupe_all_classes

nc = lambda a: named_class("simple", a).id


def _targets(n, values):
    return MomentVector(n=n, mode="simple", r_max=max(s.r for s in values),
                        values=values)


def test_enumeration_counts():
    assert len(enumerate_classes(3)) == 4
    assert len(enumerate_classes(4)) == 11
    assert len(enumerate_classes(5)) == 34
    assert len(enumerate_classes(6)) == 156
    for n in range(1, 7):
        t = enumerate_classes(n)
        assert t.keys == [canonicalize(n, [(u, v, 1) for u, v in edges]).key
                          for edges in t.reps]


# SHA-256 over the rows (rep, key, aut, mult) of the n=8 table, recorded
# with the enumeration that canonicalized every child.  The row order
# reaches every fit through the order of its sums, and so the printed beta.
TABLE_DIGEST_8 = ("4ec916e628c6de7763c1ff3d4ca44d58"
                  "0d114eb3a4e5a50392190d24d50df7d5")


def table_digest(t):
    h = hashlib.sha256()
    for row in zip(t.reps, t.keys, t.auts, t.mults):
        h.update(repr(row).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("n", range(8))
def test_enumeration_matches_dedupe_all(n):
    t = enumerate_classes(n)
    assert (t.reps, t.keys, t.auts, t.mults) == dedupe_all_classes(n)


def test_enumeration_n8_matches_pinned_digest():
    assert table_digest(enumerate_classes(8)) == TABLE_DIGEST_8


def test_enumeration_counts_match_graph_atlas():
    atlas = {}
    for g in nx.graph_atlas_g():
        nm = (g.number_of_nodes(), g.number_of_edges())
        atlas[nm] = atlas.get(nm, 0) + 1
    ours = {}
    for n in range(8):
        for rep in enumerate_classes(n).reps:
            ours[(n, len(rep))] = ours.get((n, len(rep)), 0) + 1
    assert ours == atlas


def test_enumeration_canonicalizes_once_per_class(monkeypatch):
    calls = []
    canonicalize = ergm.canonicalize

    def counted(*args, **kwargs):
        calls.append(args[0])
        return canonicalize(*args, **kwargs)

    monkeypatch.setattr(ergm, "canonicalize", counted)
    monkeypatch.setattr(ergm, "_CLASS_TABLE_CACHE", {})
    enumerate_classes(7)
    assert len(calls) < 4000   # every child of every parent: 11,291
    # up to 7 nodes no child is canonicalized only to be rejected, and no
    # two classes share an invariant, so each class costs one search
    assert len(calls) == sum(ergm.KNOWN_CLASS_COUNTS[k] for k in range(1, 8))


def test_enumeration_multiplicities_n3():
    t = enumerate_classes(3)
    assert sorted(t.mults) == [1, 1, 3, 3]
    assert sum(t.mults) == 8


def test_size_cap():
    with pytest.raises(SizeCapError):
        enumerate_classes(10)
    with pytest.raises(SizeCapError):
        enumerate_classes(11, allow_large=True)


def test_order_one_fit_is_logit():
    p = 0.3
    model = fit_ergm(_targets(6, {nc("edge"): Fraction(3, 10)}), 6)
    assert model.beta[nc("edge")] == pytest.approx(math.log(p / (1 - p)),
                                                   abs=1e-6)
    assert model.achieved_moments()[nc("edge")] == pytest.approx(p, abs=1e-9)


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
    got = model.achieved_moments()
    assert got[nc("wedge")] == pytest.approx(float(p * p), abs=1e-8)


def test_infeasible_target_outside_hull():
    # many wedges with almost no edges is unrealizable
    targets = _targets(6, {nc("edge"): Fraction(1, 100),
                           nc("wedge"): Fraction(9, 10),
                           nc("two-parallel"): Fraction(1, 100)})
    with pytest.raises(InfeasibleTargetError) as ei:
        fit_ergm(targets, 6)
    assert "eta" in str(ei.value) or ei.value.direction is not None


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
    for i, edges in enumerate(table.reps):
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


def test_statistic_counts_one_full_count_per_row(monkeypatch):
    table = enumerate_classes(6)
    calls = []

    def counted(G, r_max):
        calls.append(r_max)
        return full_counts(G, r_max)

    monkeypatch.setattr(ergm, "full_counts", counted)
    sids = (nc("edge"), nc("triangle"), nc("square"), _PATH4)
    table.statistic_counts(sids)
    assert calls == [4] * len(table)
