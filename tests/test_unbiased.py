"""Unbiased cumulants, partial unbiasing, variance, and Z-tests."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from netmoments import unbiased
from netmoments.classes import (ClassGraph, class_id, named_class, universe,
                                universe_positions)
from netmoments.counting import ORDER_CAPS
from netmoments.cumulants import moments_to_cumulants
from netmoments.graphs import make_graph, parse_graph
from netmoments.moments import moments, vector_like
from netmoments.unbiased import (bootstrap_variance, partial_unbiased_moments,
                                 unbiased_cumulants, UnbiasingConfig,
                                 variance_kappa1, z_test)

from conftest import fraction_kappa_check, random_graph

nc = lambda a: named_class("simple", a).id


def test_p4_unbiased_wedge():
    G = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    kc = unbiased_cumulants(moments(G, 2))
    # kappa-check_wedge = mu_wedge - mu_parallel = 1/6 - 1/3
    assert kc.values[nc("wedge")] == Fraction(-1, 6)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 8), st.integers(0, 2 ** 28 - 1))
def test_disconnected_unbiased_cumulants_vanish(n, bits):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    G = make_graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
    from netmoments.classes import universe_index
    kc = unbiased_cumulants(moments(G, 4))
    index = universe_index("simple", 4)
    for sid, v in kc.values.items():
        if not index[sid.key].connected:
            assert v == 0, sid.serialize()


def test_exact_unbiasedness_over_all_subsets():
    # the mean of kappa-check over all induced k-subgraphs equals the
    # parent's kappa-check, exactly (rational arithmetic, full enumeration)
    rng = random.Random(7)
    G = random_graph(rng, 9, p=0.45)
    parent = unbiased_cumulants(moments(G, 3))
    k = 6
    acc = None
    count = 0
    for nodes in itertools.combinations(range(G.n), k):
        sub = G.induced_subgraph(list(nodes))
        kc = unbiased_cumulants(moments(sub, 3))
        if acc is None:
            acc = dict(kc.values)
        else:
            for sid, v in kc.values.items():
                acc[sid] += v
        count += 1
    for sid, total in acc.items():
        assert total / count == parent.values[sid], sid.alias


def _mode_graph(mode, n, bits, weights):
    """A graph of the given mode on n nodes: bits picks the node pairs
    (arcs when directed), weights the edge values and node labels."""
    if mode == "directed":
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    elif mode == "bipartite":
        pairs = [(u, v) for u in range(n // 2) for v in range(n // 2, n)]
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
    if mode == "weighted":
        return make_graph(n, [(u, v, 1 + weights[i % len(weights)] % 3)
                              for i, (u, v) in enumerate(edges)],
                          weighted=True)
    if mode == "attributed":
        return make_graph(n, edges, node_attrs={
            v: "abc"[weights[v % len(weights)] % 3] for v in range(n)})
    if mode == "bipartite":
        return make_graph(n, edges, bipartite=True, node_attrs={
            v: "left" if v < n // 2 else "right" for v in range(n)})
    return make_graph(n, edges, directed=mode == "directed")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ORDER_CAPS)), st.integers(2, 8),
       st.integers(0, 2 ** 56 - 1), st.lists(st.integers(0, 8), min_size=1,
                                             max_size=8), st.data())
def test_kappa_check_matches_fraction_evaluation(mode, n, bits, weights,
                                                 data):
    if mode == "directed":
        n = min(n, 5)
    G = _mode_graph(mode, n, bits, weights)
    m = moments(G, data.draw(st.integers(1, min(ORDER_CAPS[mode], 4))))
    got, want = unbiased_cumulants(m), fraction_kappa_check(m)
    assert got.values == want.values
    assert all(type(x) is Fraction for x in got.values.values())
    assert got.absent == want.absent


def test_unrealizable_unions_make_kappa_check_absent():
    # at n=9 every order-5 class's kappa-check needs the moment of five
    # disjoint edges, which need ten nodes
    G = make_graph(9, [(i, i + 1, 1 + i % 3) for i in range(8)] + [(0, 4, 2)],
                   weighted=True)
    m = moments(G, 5)
    matching = class_id(ClassGraph.make(
        10, [(2 * i, 2 * i + 1, 1) for i in range(5)]), "weighted")
    assert m.absent == {matching: "class unrealizable at n=9"}
    kc = unbiased_cumulants(m)
    order5 = {ci.id for ci in universe("weighted", 5)[5]}
    assert set(kc.absent) == order5
    assert set(kc.values) == set(m.values) - order5
    reason = (f"needs moment of {matching.serialize()}, class unrealizable "
              f"at n=9")
    assert set(kc.absent.values()) == {reason, m.absent[matching]}
    assert kc.absent[named_class("weighted", "diamond").id] == reason
    assert kc.absent == fraction_kappa_check(m).absent


def test_disconnected_kappa_check_plan_must_vanish(monkeypatch):
    plans = unbiased._kappa_check_plans.__wrapped__
    _, at = universe_positions("simple", 2, 2)
    two_edges = at[named_class("simple", "two-parallel").id.key]
    assert plans("simple", 2, 2)[0][two_edges] == (False, ((two_edges, 0),))
    poly = unbiased.cumulant_moment_polynomial

    def skewed(cg, mode):
        # one more of every two-factor monomial: the plan of two disjoint
        # edges then sums to mu(two edges) instead of zero
        return {mono: c + (len(mono) == 2) for mono, c in
                poly(cg, mode).items()}

    monkeypatch.setattr(unbiased, "cumulant_moment_polynomial", skewed)
    with pytest.raises(AssertionError, match="not identically zero"):
        plans("simple", 2, 2)


def test_unbiasing_config_population():
    assert UnbiasingConfig(eta=Fraction(1, 11)).population(10) == 11
    assert UnbiasingConfig(eta=Fraction(1)).population(10) is None
    for eta in (Fraction(-1), Fraction(3, 2), Fraction(-3)):
        with pytest.raises(ValueError, match=r"eta must lie in \[0, 1\]"):
            UnbiasingConfig(eta=eta)


def test_partial_unbiasing_eta_zero_recovers_moments():
    rng = random.Random(3)
    G = random_graph(rng, 8)
    m = moments(G, 2)
    kc = unbiased_cumulants(m)
    back = partial_unbiased_moments(kc, UnbiasingConfig(eta=Fraction(0)),
                                    n_model=G.n)
    assert back.values[nc("edge")] == m.values[nc("edge")]
    assert back.values[nc("wedge")] == m.values[nc("wedge")]
    assert back.values[nc("two-parallel")] == m.values[nc("two-parallel")]


def test_partial_unbiasing_eta_one_limit():
    rng = random.Random(4)
    G = random_graph(rng, 8)
    kc = unbiased_cumulants(moments(G, 2))
    out = partial_unbiased_moments(kc, UnbiasingConfig(eta=Fraction(1)),
                                   n_model=G.n)
    k1 = kc.values[nc("edge")]
    assert out.values[nc("two-parallel")] == k1 * k1
    assert out.values[nc("wedge")] == kc.values[nc("wedge")] + k1 * k1


def test_partial_unbiasing_rejects_third_order():
    rng = random.Random(5)
    G = random_graph(rng, 7)
    kc = unbiased_cumulants(moments(G, 3))
    with pytest.raises(ValueError):
        partial_unbiased_moments(kc, UnbiasingConfig(eta=Fraction(1, 2)),
                                 n_model=G.n)


def test_variance_closed_form_er():
    # ER targets mu1 = p, mu_wedge = mu_par = p^2 simplify to
    # 2 p (1 - p) / (n (n - 1))
    for n, p in ((20, Fraction(1, 2)), (11, Fraction(3, 10))):
        values = {nc("edge"): p, nc("wedge"): p * p,
                  nc("two-parallel"): p * p}
        from netmoments.moments import MomentVector
        mt = MomentVector(n=n, mode="simple", r_max=2, values=values)
        got = variance_kappa1(mt, n)
        assert got == 2 * p * (1 - p) / (n * (n - 1))
    # plug-in fixture
    values = {nc("edge"): Fraction(1, 2), nc("wedge"): Fraction(1, 4),
              nc("two-parallel"): Fraction(1, 4)}
    from netmoments.moments import MomentVector
    mt = MomentVector(n=20, mode="simple", r_max=2, values=values)
    assert variance_kappa1(mt, 20) == Fraction(1, 760)


def test_z_test_edge_exact_variance():
    rng = random.Random(7)
    G = random_graph(rng, 12, p=0.4)
    m = moments(G, 2)
    res = z_test(nc("edge"), m)
    assert not res.approximate_variance
    assert res.z_squared >= 0
    assert 0 <= res.p_value <= 1
    doc = res.to_json_dict()
    assert doc["alias"] == "edge"


def test_z_test_higher_order_needs_variance():
    rng = random.Random(10)
    G = random_graph(rng, 10)
    m = moments(G, 2)
    with pytest.raises(ValueError):
        z_test(nc("wedge"), m)
    res = z_test(nc("wedge"), m, variance=0.01)
    assert res.approximate_variance


def test_bootstrap_variance_deterministic():
    rng = random.Random(11)
    G = random_graph(rng, 14, p=0.4)
    a = bootstrap_variance(G, nc("wedge"), 2, num_samples=40, seed=5)
    b = bootstrap_variance(G, nc("wedge"), 2, num_samples=40, seed=5)
    c = bootstrap_variance(G, nc("wedge"), 2, num_samples=40, seed=6)
    assert a == b
    assert a != c
    assert a >= 0


@pytest.mark.parametrize("samples", [1, 0, -3])
def test_bootstrap_needs_two_samples(samples):
    # the sample variance of fewer than two samples is NaN
    G = random_graph(random.Random(11), 14, p=0.4)
    with pytest.raises(ValueError, match="needs at least 2 samples"):
        bootstrap_variance(G, nc("wedge"), 2, num_samples=samples)


@pytest.mark.parametrize("variance", [0.0, -1.0, float("nan")])
def test_z_test_needs_a_positive_variance(variance):
    m = moments(random_graph(random.Random(10), 10), 2)
    with pytest.raises(ValueError, match="variance must be positive"):
        z_test(nc("wedge"), m, variance=variance)



@pytest.mark.parametrize("weight, variance, what", [
    ("1e4300", 1.0, "kappa-check"),
    ("1", Fraction(10 ** 400), "variance"),
    ("1", float("inf"), "variance"),
    ("1e200", 1.0, "z-squared")])
def test_z_test_past_the_float_range_is_a_data_error(weight, variance,
                                                      what):
    # exact values no float holds are refused, not raised as OverflowError
    G = parse_graph(f"0 1 1\n1 2 2\n2 3 {weight}\n0 3 1\n", weighted=True)
    m = moments(G, 1)
    (sid,) = m.values
    with pytest.raises(ValueError, match=f"^{what} of edge is past the "
                                         "float range$"):
        z_test(sid, m, variance=variance)


def test_z_test_refuses_a_z_squared_past_the_float_range():
    # kappa-check^2 / variance overflows in the division, which raises
    # nothing: z-squared was inf and its payload printed Infinity
    m = moments(make_graph(4, [(0, 1), (1, 2), (2, 3)]), 2)
    with pytest.raises(ValueError, match="^z-squared of wedge is past the "
                                         "float range$"):
        z_test(nc("wedge"), m, variance=1e-320)
