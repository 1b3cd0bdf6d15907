"""Acceptance criteria.

Each test name carries its criterion number; conftest.py prints a
per-criterion PASS/FAIL summary at the end of the run.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from netmoments.classes import named_class, universe, universe_index
from netmoments.counting import full_counts
from netmoments.cumulants import moments_to_cumulants, scale_cumulants
from netmoments.editgraph import build_edit_graph, laplacian_spectrum
from netmoments.ergm import (_edges, enumerate_classes, ergm_distribution,
                             fit_ergm)
from netmoments.graphs import make_graph
from netmoments.graphsum import (distribution_cumulants, GraphDistribution,
                                 sum_distributions)
from netmoments.localstats import edge_local_cumulants, node_local_cumulants
from netmoments.models import er, ssbm
from netmoments.moments import moments, MomentVector
from netmoments.unbiased import (partial_unbiased_moments, unbiased_cumulants,
                                 UnbiasingConfig, variance_kappa1)

from conftest import brute_canonical, random_graph

nc = lambda a: named_class("simple", a).id


# ---------------------------------------------------------------------------
# 1. Oracle equivalence of moments on all 1044 classes at n=7

def test_criterion_01_oracle_moments():
    table = enumerate_classes(7)
    assert len(table) == 1044
    r_max = 4
    # oracle normalization: complete-graph counts per canonical form
    k7 = [(u, v) for u in range(7) for v in range(u + 1, 7)]

    def brute(edges):
        out = {}
        for r in range(1, r_max + 1):
            for sub in itertools.combinations(edges, r):
                key = brute_canonical(list(sub))
                out[key] = out.get(key, 0) + 1
        return out

    complete = brute(k7)
    # map pipeline ids to oracle canonical forms
    key_of = {}
    for infos in universe("simple", r_max).values():
        for ci in infos:
            key_of[ci.id] = brute_canonical(
                [(u, v) for u, v, _ in ci.graph.edges])
    for word in table.reps:
        G = make_graph(7, list(_edges(word, 7)))
        got = {key_of[sid]: v for sid, v in moments(G, r_max).values.items()}
        oracle = {key: Fraction(c, complete[key])
                  for key, c in brute(sorted(G.edges)).items()}
        for key, mu in oracle.items():
            assert got[key] == mu
        for key, mu in got.items():
            assert oracle.get(key, 0) == mu


# ---------------------------------------------------------------------------
# 2. Disconnected-count identities on 500 random graphs, n <= 50

def test_criterion_02_disconnected_identities():
    rng = random.Random(42)
    for _ in range(500):
        n = rng.randint(4, 50)
        G = random_graph(rng, n, p=rng.uniform(0.05, 0.3))
        c = full_counts(G, 3)
        g = lambda a: c.get(nc(a), 0)
        m = g("edge")
        assert math.comb(m, 2) == g("wedge") + g("two-parallel")
        assert math.comb(m, 3) == (g("three-parallel") + g("triangle")
                                   + g("claw") + g("path") + g("wedge+edge"))
        assert g("wedge") * (m - 2) == (g("wedge+edge") + 3 * g("triangle")
                                        + 3 * g("claw") + 2 * g("path"))


# ---------------------------------------------------------------------------
# 3. ER nullity: mu_rg = p^r gives kappa_rg = 0 for 2 <= r <= 6

def test_criterion_03_er_nullity():
    for p in (Fraction(1, 3), Fraction(7, 10)):
        values = {ci.id: p ** r
                  for r, infos in universe("simple", 6).items()
                  for ci in infos}
        m = MomentVector(n=100, mode="simple", r_max=6, values=values)
        k = moments_to_cumulants(m)
        for sid, v in k.values.items():
            if sid.r >= 2:
                assert v == 0, sid.serialize()


# ---------------------------------------------------------------------------
# 4. Formula fixtures: symbolic term-for-term comparison, zero tolerance

def test_criterion_04_formula_fixtures():
    from formula_fixtures import fixtures, machine_expression
    rows = fixtures()
    assert len(rows) == 44
    for mode, classes, name, ref in rows:
        got = machine_expression(classes[name], mode)
        assert sympy.expand(got - ref) == 0, f"{mode}:{name}"


# ---------------------------------------------------------------------------
# 5. Unbiasedness under subsampling: n=60 parent, 10^4 20-node subsamples

def test_criterion_05_subsample_unbiasedness():
    parent = er(60, 0.12, seed=7)
    target = unbiased_cumulants(moments(parent, 3))
    aliases = ("edge", "wedge", "triangle", "claw", "path")
    sids = [nc(a) for a in aliases]
    num = 10 ** 4
    rng = np.random.Generator(np.random.Philox(key=11))
    samples = {sid: np.empty(num) for sid in sids}
    for i in range(num):
        nodes = rng.choice(60, size=20, replace=False)
        sub = parent.induced_subgraph([int(x) for x in nodes])
        kc = unbiased_cumulants(moments(sub, 3))
        for sid in sids:
            samples[sid][i] = float(kc.values[sid])
    for sid in sids:
        mean = samples[sid].mean()
        se = samples[sid].std(ddof=1) / math.sqrt(num)
        assert abs(mean - float(target.values[sid])) <= 4 * se, sid.alias


# ---------------------------------------------------------------------------
# 6. Variance closed form, algebraic and empirical

def test_criterion_06_variance_closed_form():
    # algebraic: ER targets simplify to 2 p (1 - p) / (n (n - 1))
    for n in (5, 20, 37):
        for p in (Fraction(1, 4), Fraction(3, 10), Fraction(9, 10)):
            mt = MomentVector(n=n, mode="simple", r_max=2,
                              values={nc("edge"): p, nc("wedge"): p * p,
                                      nc("two-parallel"): p * p})
            assert variance_kappa1(mt, n) == 2 * p * (1 - p) / (n * (n - 1))
    # empirical: edge density of ER(20, 0.3) over 10^5 samples; the edge
    # count is binomial over the 190 node pairs, which is the full
    # sampling distribution of the density
    n, p, num = 20, 0.3, 10 ** 5
    pairs = n * (n - 1) // 2
    rng = np.random.Generator(np.random.Philox(key=13))
    density = rng.binomial(pairs, p, size=num) / pairs
    want = 2 * p * (1 - p) / (n * (n - 1))
    assert abs(density.var(ddof=1) - want) / want < 0.03


# ---------------------------------------------------------------------------
# 7. Additivity of cumulants over the graph sum

def _random_distribution(rng, n, size=3):
    weights = [rng.randint(1, 5) for _ in range(size)]
    total = sum(weights)
    support = []
    for w in weights:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [pr for pr in pairs if rng.random() < 0.5]
        support.append((make_graph(n, edges), Fraction(w, total)))
    return GraphDistribution(n=n, support=support)


def test_criterion_07_additivity():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.choice([3, 4])
        a = _random_distribution(rng, n, size=rng.randint(1, 3))
        b = _random_distribution(rng, n, size=rng.randint(1, 3))
        ka = distribution_cumulants(a, 3)
        kb = distribution_cumulants(b, 3)
        ks = distribution_cumulants(sum_distributions(a, b), 3)
        for sid, v in ks.values.items():
            assert v == ka.values[sid] + kb.values[sid], sid.serialize()
    # the mixture configuration: edge densities 5/6 and 2/3 sum to 3/2
    a = GraphDistribution(3, [
        (make_graph(3, [(0, 1)]), Fraction(1, 4)),
        (make_graph(3, [(0, 1), (1, 2), (0, 2)]), Fraction(3, 4))])
    b = GraphDistribution.point_mass(make_graph(3, [(0, 1), (1, 2)]))
    ks = distribution_cumulants(sum_distributions(a, b), 2)
    eid = named_class("weighted", "edge").id
    assert ks.values[eid] == Fraction(3, 2)


# ---------------------------------------------------------------------------
# 8. Weighted counting: wedge with weights 2 and 3 counts as 6

def test_criterion_08_weighted_wedge():
    from netmoments.graphs import Graph
    G = Graph(n=3, edges={(0, 1): Fraction(2), (1, 2): Fraction(3)},
              weighted=True)
    wid = named_class("weighted", "wedge").id
    assert full_counts(G, 2)[wid] == 6


# ---------------------------------------------------------------------------
# 9. Edit-graph spectra

def test_criterion_09_edit_graph_spectrum():
    h3 = build_edit_graph(3)
    spec3, res3 = laplacian_spectrum(h3)
    assert spec3 == [(0, 1), (1, 1), (2, 1), (3, 1)]
    assert res3 < 1e-8
    h4 = build_edit_graph(4)
    assert len(h4) == 11
    assert (h4.adjacency.sum(axis=1) == 6).all()
    spec4, res4 = laplacian_spectrum(h4)
    assert spec4 == [(0, 1), (1, 1), (2, 2), (3, 3), (4, 2), (5, 1), (6, 1)]
    assert res4 < 1e-8


# ---------------------------------------------------------------------------
# 10. Degeneracy reproduction at n=8

DOUBLE_HUB = [(0, 5), (0, 6), (1, 6), (2, 6), (3, 6), (4, 6), (5, 6),
              (0, 7), (1, 7), (2, 7), (3, 7), (4, 7), (5, 7), (6, 7)]


def test_criterion_10_degeneracy():
    G = make_graph(8, DOUBLE_HUB)
    m = moments(G, 2)
    eid, wid, pid = nc("edge"), nc("wedge"), nc("two-parallel")
    # 2-statistic model pinned to the observed (edge, wedge) pair
    from netmoments.moments import vector_like
    two = vector_like(m, {eid: m.values[eid], wid: m.values[wid]})
    model2 = fit_ergm(two, 8, statistic_ids=(eid, wid))
    h2 = ergm_distribution(model2, eid)
    assert h2.modality >= 2
    support = list(h2.support)
    mean_idx = int(np.argmin(np.abs(h2.support - h2.mean)))
    step_dist = min(abs(mean_idx - support.index(mo)) for mo in h2.modes)
    assert step_dist > 3
    # 3-statistic eta-unbiased model
    kc = unbiased_cumulants(m)
    targets = partial_unbiased_moments(kc, UnbiasingConfig(eta=Fraction(1, 9)),
                                       n_model=8)
    model3 = fit_ergm(targets, 8)
    h3 = ergm_distribution(model3, eid)
    assert h3.modality == 1
    mean_idx = int(np.argmin(np.abs(h3.support - h3.mean)))
    assert abs(mean_idx - support_index(h3)) <= 1


def support_index(h):
    return list(h.support).index(h.modes[0])


# ---------------------------------------------------------------------------
# 11. ERGM fit contract: 20 feasible second-order targets at n=7

def test_criterion_11_fit_contract():
    rng = random.Random(31)
    for _ in range(20):
        # strictly interior targets: a two-component ER mixture
        p = Fraction(rng.randint(25, 75), 100)
        q = Fraction(rng.randint(25, 75), 100)
        lam = Fraction(rng.randint(20, 80), 100)
        values = {nc(a): lam * p ** r + (1 - lam) * q ** r
                  for a, r in (("edge", 1), ("wedge", 2),
                               ("two-parallel", 2))}
        targets = MomentVector(n=7, mode="simple", r_max=2, values=values)
        model = fit_ergm(targets, 7)
        assert model.residual <= 1e-8


# ---------------------------------------------------------------------------
# 12. Assortativity sign and cross-density invariance of the scaled
#     triangle cumulant (with the clustering coefficient as a foil)

def _cell_stats(n, rho, mean_degree, seeds):
    tid, wid = nc("triangle"), nc("wedge")
    kt, ct = [], []
    for seed in range(seeds):
        cell_seed = ((n * 1000003 + (int(rho * 10) & 0xff) * 4099
                      + int(mean_degree)) << 16) + seed
        G = ssbm(n, assortativity=rho, mean_degree=mean_degree,
                 seed=cell_seed)
        m = moments(G, 3)
        k = moments_to_cumulants(m)
        k1 = k.values[nc("edge")]
        kt.append(float(k.values[tid] / k1 ** 3))
        ct.append(float(m.values[tid] / m.values[wid]))
    kt, ct = np.array(kt), np.array(ct)
    sem = lambda x: x.std(ddof=1) / math.sqrt(len(x))
    return (kt.mean(), sem(kt)), (ct.mean(), sem(ct))


def test_criterion_12_assortativity_property():
    seeds = 200
    rhos = (-0.6, -0.3, 0.3, 0.6)
    degrees = (6.0, 12.0)
    ns = (64, 128)
    stats = {}
    for n in ns:
        for rho in rhos:
            for d in degrees:
                stats[(n, rho, d)] = _cell_stats(n, rho, d, seeds)
    # sign of the scaled triangle cumulant matches the assortativity sign
    for (n, rho, d), ((km, kse), _) in stats.items():
        assert math.copysign(1, km) == math.copysign(1, rho), (n, rho, d)
    # cross-density invariance of kappa~ within 3-SE bands
    for n in ns:
        for rho in rhos:
            (k1m, k1se), _ = stats[(n, rho, degrees[0])]
            (k2m, k2se), _ = stats[(n, rho, degrees[1])]
            band = 3 * math.sqrt(k1se ** 2 + k2se ** 2)
            assert abs(k1m - k2m) <= band, (n, rho)
    # the clustering coefficient is NOT density-invariant in at least one
    # high-assortativity cell
    violated = False
    for n in ns:
        for rho in (-0.6, 0.6):
            _, (c1m, c1se) = stats[(n, rho, degrees[0])]
            _, (c2m, c2se) = stats[(n, rho, degrees[1])]
            band = 3 * math.sqrt(c1se ** 2 + c2se ** 2)
            if abs(c1m - c2m) > band:
                violated = True
    assert violated


# ---------------------------------------------------------------------------
# 13. Local-cumulant aggregation identities on 200 random graphs

def test_criterion_13_local_aggregation():
    rng = random.Random(37)
    wid, tid = nc("wedge"), nc("triangle")
    for _ in range(200):
        n = rng.randint(4, 12)
        G = random_graph(rng, n, p=rng.uniform(0.2, 0.8))
        counts = full_counts(G, 3)
        half = Fraction((n - 1) * (n - 2), 2)
        total_wc = sum(node_local_cumulants(G, v).moments["wedge-center"]
                       * half for v in range(n))
        assert total_wc == counts.get(wid, 0)
        total_tri = sum(edge_local_cumulants(G, e).moments["triangle"]
                        * (n - 2) for e in G.edges)
        assert total_tri == 3 * counts.get(tid, 0)
