"""Moment/cumulant conversion, scaling, and clustering coefficients."""

import dataclasses
import hashlib
import importlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netmoments import counting, cumulants, unbiased
from netmoments.classes import (named_class, unit_subclasses, universe,
                                universe_index, universe_positions)
from netmoments.cumulants import (_expansion_for_graph, BELL,
                                  clustering_coefficients,
                                  cumulant_moment_polynomial,
                                  cumulants_to_moments, IncompleteVectorError,
                                  moments_to_cumulants, scale_cumulants,
                                  signed_root)
from netmoments.graphs import make_graph
from netmoments.moments import (_complete_counts, _kept_counts, moments,
                                moments_from_counts, MomentVector, N_KEPT,
                                vector_like)
from netmoments.unbiased import unbiased_cumulants

from conftest import (fraction_conversion, fraction_kappa_check, mode_graphs,
                      random_graph)


P4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])


def test_partition_totals_are_bell_numbers():
    for alias, r in (("edge", 1), ("wedge", 2), ("triangle", 3),
                     ("diamond", 5), ("K4", 6)):
        ci = named_class("simple", alias)
        assert sum(m for _, m in _expansion_for_graph(ci.graph, "simple")) \
            == BELL[r]


def test_path_expansion_term_structure():
    # mu_path = kappa_path + 2 kappa_wedge kappa_edge + kappa_par kappa_edge
    #           + kappa_edge^3
    nc = lambda a: named_class("simple", a).id
    terms = dict(_expansion_for_graph(named_class("simple", "path").graph,
                                      "simple"))
    assert terms[(nc("path"),)] == 1
    assert terms[(nc("edge"), nc("wedge"))] == 2
    assert terms[(nc("edge"), nc("two-parallel"))] == 1
    assert terms[(nc("edge"), nc("edge"), nc("edge"))] == 1


def test_triangle_expansion_term_structure():
    nc = lambda a: named_class("simple", a).id
    terms = dict(_expansion_for_graph(named_class("simple", "triangle").graph,
                                      "simple"))
    assert terms == {(nc("triangle"),): 1,
                     (nc("edge"), nc("wedge")): 3,
                     (nc("edge"), nc("edge"), nc("edge")): 1}


def test_p4_moments_and_wedge_cumulant():
    m = moments(P4, 2)
    assert m.values[named_class("simple", "edge").id] == Fraction(1, 2)
    assert m.values[named_class("simple", "wedge").id] == Fraction(1, 6)
    assert m.values[named_class("simple", "two-parallel").id] == Fraction(1, 3)
    k = moments_to_cumulants(m)
    assert k.values[named_class("simple", "wedge").id] == Fraction(-1, 12)


def test_triangle_plus_isolated_cumulant():
    G = make_graph(4, [(0, 1), (1, 2), (0, 2)])
    k = moments_to_cumulants(moments(G, 3))
    assert k.values[named_class("simple", "triangle").id] == Fraction(1, 8)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 8), st.integers(0, 2 ** 28 - 1))
def test_round_trip_is_exact(n, bits):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    G = make_graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
    m = moments(G, 4)
    back = cumulants_to_moments(moments_to_cumulants(m))
    assert back.values == m.values


def test_er_distribution_moments_have_zero_cumulants():
    # distribution-level input mu_rg = p^r for every class
    p = Fraction(2, 7)
    values = {ci.id: p ** r for r, infos in universe("simple", 4).items()
              for ci in infos}
    m = MomentVector(n=50, mode="simple", r_max=4, values=values)
    k = moments_to_cumulants(m)
    eid = named_class("simple", "edge").id
    assert k.values[eid] == p
    assert all(v == 0 for sid, v in k.values.items() if sid != eid)


def test_incomplete_vector_raises():
    m = moments(P4, 2)
    del m.values[named_class("simple", "edge").id]
    with pytest.raises(IncompleteVectorError):
        moments_to_cumulants(m)


def test_scaled_cumulants_and_signed_root():
    m = moments(P4, 2)
    k = moments_to_cumulants(m)
    scaled, roots = scale_cumulants(k)
    wid = named_class("simple", "wedge").id
    # kappa_wedge / kappa_edge^2 = (-1/12) / (1/4)
    assert scaled.values[wid] == Fraction(-1, 3)
    assert roots[wid] == pytest.approx(-(1 / 3) ** 0.5)
    # override exponent
    _, roots4 = scale_cumulants(k, root_exponent=4)
    assert roots4[wid] == pytest.approx(-(1 / 3) ** 0.25)
    # an exponent below 1 is refused, not read as the class's order
    for exponent in (0, -3, Fraction(1, 2)):
        with pytest.raises(ValueError, match="root exponent must be at "
                                             "least 1"):
            scale_cumulants(k, root_exponent=exponent)


def test_signed_root_basics():
    assert signed_root(0, 3) == 0.0
    assert signed_root(Fraction(-8), 3) == pytest.approx(-2.0)


def test_scaling_rejects_zero_edge_density():
    G = make_graph(4, [])
    k = moments_to_cumulants(moments(G, 2))
    with pytest.raises(ValueError):
        scale_cumulants(k)


def test_clustering_triangle_plus_isolated():
    G = make_graph(4, [(0, 1), (1, 2), (0, 2)])
    c = clustering_coefficients(moments(G, 3))
    assert c["C_triangle"] == 1


def test_clustering_square_complete_bipartite():
    attrs = {0: "left", 1: "left", 2: "right", 3: "right"}
    G = make_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)], node_attrs=attrs,
                   bipartite=True)
    c = clustering_coefficients(moments(G, 4))
    assert c["C_square"] == 1


def test_clustering_square_simple_mode():
    G = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    c = clustering_coefficients(moments(G, 4))
    assert c["C_square"] == 1


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_graph_round_trip_weighted(seed):
    from conftest import random_weighted_graph
    rng = random.Random(seed)
    G = random_weighted_graph(rng, 6)
    if not G.edges:
        return
    m = moments(G, 3)
    back = cumulants_to_moments(moments_to_cumulants(m))
    assert back.values == m.values


RATIONAL_CASES = (("simple", 5, 2), ("directed", 3, 2), ("weighted", 4, 2),
                  ("attributed", 2, 3), ("bipartite", 4, 2))
PRIMES = (2, 3, 5, 7, 11, 13, 1009, 65537, 1048573, 1048583)

# zeros, negatives, and denominators that are mostly pairwise coprime
RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
              st.integers(1, 2 ** 20)),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
              st.sampled_from(PRIMES)))


def _convert_both(convert, v, direction):
    """(result, None) or (None, error message) of the library and of the
    term-by-term Fraction reference."""
    out = []
    for fn in (convert, lambda x: fraction_conversion(x, direction)):
        try:
            out.append((fn(v), None))
        except IncompleteVectorError as exc:
            out.append((None, str(exc)))
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RATIONAL_CASES), st.data())
def test_conversions_match_fraction_evaluation(case, data):
    mode, r_max, labels = case
    sids = [ci.id for infos in universe(mode, r_max, labels).values()
            for ci in infos]
    values = {sid: data.draw(RATIONALS) for sid in sids}
    if data.draw(st.booleans()):
        del values[data.draw(st.sampled_from(sids))]
    v = MomentVector(n=9, mode=mode, r_max=r_max, values=values,
                     labels=labels)
    for convert, direction in ((moments_to_cumulants, "moment"),
                               (cumulants_to_moments, "cumulant")):
        (got, err), (want, want_err) = _convert_both(convert, v, direction)
        assert err == want_err
        if err is None:
            assert got.values == want.values
            assert all(type(x) is Fraction for x in got.values.values())


CAP_CASES = tuple((mode, cap, 3 if mode == "attributed" else 2)
                  for mode, cap in counting.ORDER_CAPS.items())


def _outcome(fn, v):
    """(result, None) or (None, (exception type, message)) of fn(v)."""
    try:
        return fn(v), None
    except Exception as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CAP_CASES), st.data())
def test_recursion_matches_fraction_references_at_the_caps(case, data):
    # classes on more than n nodes are absent, as in moments at n; the
    # present values come in a shuffled key order, and one or two classes
    # that a present class's expansion reads may be missing
    mode, cap, labels = case
    infos = [ci for infos in universe(mode, cap, labels).values()
             for ci in infos]
    n = data.draw(st.integers(2, 2 * cap - 1))
    present = [ci for ci in infos if ci.graph.k <= n]
    values = {ci.id: data.draw(RATIONALS) for ci in present}
    values = {sid: values[sid]
              for sid in data.draw(st.permutations(list(values)))}
    absent = {ci.id: f"class unrealizable at n={n}" for ci in infos
              if ci.graph.k > n}
    required = sorted({sid for ci in present
                       for sid in unit_subclasses(ci.graph, mode)[1:-1]},
                      key=lambda s: (s.r, s.key))
    deleted = bool(required) and data.draw(st.booleans())
    if deleted:
        for sid in data.draw(st.lists(st.sampled_from(required), min_size=1,
                                      max_size=2, unique=True)):
            del values[sid]
    v = MomentVector(n=n, mode=mode, r_max=cap, values=values,
                     absent=absent, labels=labels)
    for convert, direction in ((moments_to_cumulants, "moment"),
                               (cumulants_to_moments, "cumulant")):
        got, err = _outcome(convert, v)
        want, want_err = _outcome(
            lambda x: fraction_conversion(x, direction), v)
        assert err == want_err
        assert (err is not None) == deleted
        if err is None:
            assert got.values == want.values
            assert list(got.values) == list(want.values)
    if not deleted:
        got, want = unbiased_cumulants(v), fraction_kappa_check(v)
        assert got.values == want.values
        assert got.absent == want.absent


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RATIONAL_CASES), st.data())
def test_missing_classes_raise_the_reference_error(case, data):
    # with several classes missing, the error names the first one in the
    # expansion's term order, as the reference does
    mode, r_max, labels = case
    infos = [ci for infos in universe(mode, r_max, labels).values()
             for ci in infos]
    values = {ci.id: Fraction(1, 1 + i) for i, ci in enumerate(infos)}
    sids = [ci.id for ci in infos if ci.id.r < r_max]
    for sid in data.draw(st.lists(st.sampled_from(sids), min_size=2,
                                  max_size=4, unique=True)):
        del values[sid]
    v = MomentVector(n=9, mode=mode, r_max=r_max, values=values,
                     labels=labels)
    for convert, direction in ((moments_to_cumulants, "moment"),
                               (cumulants_to_moments, "cumulant")):
        assert _outcome(convert, v)[1] == _outcome(
            lambda x: fraction_conversion(x, direction), v)[1]


def test_broken_first_unit_pairs_raise(monkeypatch):
    pairs = cumulants._first_unit_pairs

    def short(cg, mode):
        # one unit subset fewer for every class past the edge
        out = pairs(cg, mode)
        if out:
            key = next(iter(out))
            out[key] -= 1
        return out

    monkeypatch.setattr(cumulants, "_first_unit_pairs", short)
    cumulants._conversion_plans.cache_clear()
    try:
        with pytest.raises(AssertionError,
                           match=r"count 0 unit subsets, not 2\^1 - 1 = 1"):
            moments_to_cumulants(moments(P4, 2))
    finally:
        cumulants._conversion_plans.cache_clear()


def test_pivot_units_take_the_fewest_products():
    # the 45 simple classes through order 5 take 302 binary products with
    # unit 0 as every pivot; the pivots with the fewest distinct pairs
    # take 247
    plans = cumulants._conversion_plans("simple", 5, 2)
    for direction in ("moment", "cumulant"):
        assert len(plans[direction]) == 45
        assert sum(len(terms) for _, terms in plans[direction]) == 247


def test_coprime_denominators_convert_exactly():
    # 45 classes with pairwise coprime 20-bit denominators: the common
    # denominator has about 900 bits and its fifth power about 4,500
    sids = [ci.id for infos in universe("simple", 5).values() for ci in infos]
    primes = (p for p in range(2 ** 20 - 1, 2 ** 19, -2)
              if all(p % q for q in range(3, int(p ** 0.5) + 1, 2)))
    rng = random.Random(5)
    v = MomentVector(n=40, mode="simple", r_max=5, values={
        sid: Fraction(rng.randrange(-2 ** 30, 2 ** 30), p)
        for sid, p in zip(sids, primes)})
    k = moments_to_cumulants(v)
    assert k.values == fraction_conversion(v, "moment").values
    assert cumulants_to_moments(k).values == v.values


def test_conversions_build_one_fraction_per_class(monkeypatch):
    # every value of a counted moment vector, of each conversion and of a
    # connected class's kappa-check is one moments.exact call, and none of
    # these paths runs Fraction.__new__
    G = random_graph(random.Random(4), 12, p=0.4)
    m = moments(G, 5)  # the complete counts at n = 12, made once
    made, news = [], []
    exact = importlib.import_module("netmoments.moments").exact

    def counted(n, d):
        made.append((n, d))
        return exact(n, d)

    for module in ("moments", "cumulants", "unbiased"):
        monkeypatch.setattr(importlib.import_module(f"netmoments.{module}"),
                            "exact", counted)
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        news.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    if hasattr(Fraction, "_from_coprime_ints"):
        # Python 3.12+ builds arithmetic results without __new__
        coprime = Fraction._from_coprime_ints.__func__

        def counted_coprime(cls, *args):
            news.append(args)
            return coprime(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(counted_coprime))
    assert Fraction(1, 2) + Fraction(1, 3) and len(news) == 3
    del news[:]
    m = moments(G, 5)
    assert len(made) == len(m.values)
    index = universe_index("simple", 5)
    connected = [sid for sid in m.values if index[sid.key].connected]
    assert 0 < len(connected) < len(m.values)
    # the carried counts on the per-n plans, built and then read back,
    # and a copy of the values on their common denominator
    outputs = []
    for v in [m, m, vector_like(m, m.values)]:
        del made[:]
        k = moments_to_cumulants(v)
        assert len(k.values) == len(made) == len(m.values)
        del made[:]
        kc = unbiased_cumulants(v)
        assert len(made) == len(connected)
        del made[:]
        assert cumulants_to_moments(k).values == m.values
        assert len(made) == len(m.values)
        outputs += [k, kc]
    assert not news
    # kappa-check builds no Fraction for a disconnected class: each one is
    # the same zero
    zeros = [v for sid, v in kc.values.items() if sid not in connected]
    assert len(zeros) == len(m.values) - len(connected)
    assert zeros[0] == 0 and all(v is zeros[0] for v in zeros)
    for vector in [m, *outputs]:
        assert all(type(v) is Fraction and type(v.numerator) is int
                   and type(v.denominator) is int
                   for v in vector.values.values())


def _same_conversions(m, other):
    # the first conversion of a vector that carries its counts builds the
    # per-n plans of its (n, label pools) unless they are kept, and the
    # second reads them back
    for convert in (moments_to_cumulants, unbiased_cumulants):
        want = convert(other)
        for _ in range(2):
            got = convert(m)
            assert got.values == want.values
            assert list(got.values) == list(want.values)
            assert got.absent == want.absent


@pytest.mark.parametrize("mode", ["simple", "directed", "weighted",
                                  "attributed", "bipartite"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_carried_form_converts_as_the_values_do(mode, data):
    # moments() carries its counts into the conversions; a copy of the
    # same values has no carried form and goes by scaled_positions.  Up
    # to 52 isolated nodes, labelled from the graph's own labels, take n
    # to 60 and widen the label pools; simple graphs go to order 6.  One
    # unlabelled graph in four is relabelled onto distinct node ids below
    # 2^40 instead, at n = 2^40 (labelled graphs label every node, so
    # they cannot be that large)
    G = data.draw(mode_graphs(mode))
    if G.node_attrs is None and not data.draw(st.integers(0, 3)):
        ids = data.draw(st.lists(st.integers(0, 2 ** 40 - 1), min_size=G.n,
                                 max_size=G.n, unique=True))
        edges = {}
        for (u, v), w in G.edges.items():
            u, v = ids[u], ids[v]
            edges[(u, v) if G.directed or u < v else (v, u)] = w
        G = dataclasses.replace(G, n=2 ** 40, edges=edges)
    else:
        extra = data.draw(st.integers(0, 60 - G.n))
        attrs = G.node_attrs
        if attrs is not None:
            labels = st.sampled_from(sorted(set(attrs.values())))
            attrs = {**attrs, **{v: data.draw(labels)
                                 for v in range(G.n, G.n + extra)}}
        G = dataclasses.replace(G, n=G.n + extra, node_attrs=attrs)
    r_max = data.draw(st.sampled_from([5, 6])) if mode == "simple" else \
        min(counting.ORDER_CAPS[mode], 5)
    m = moments(G, r_max)
    plain = vector_like(m, m.values)
    assert (m.carried() is not None) == (mode != "weighted")
    assert plain.carried() is None
    _same_conversions(m, plain)


def test_edited_values_drop_the_carried_form():
    m = moments(random_graph(random.Random(8), 9), 4)
    sid = named_class("simple", "triangle").id
    m.values[sid] = m.values[sid] + 1
    assert m.carried() is None
    fresh = vector_like(m, m.values)
    for convert in (moments_to_cumulants, unbiased_cumulants):
        assert convert(m).values == convert(fresh).values
    assert moments_to_cumulants(m).values != moments_to_cumulants(
        moments(random_graph(random.Random(8), 9), 4)).values


def test_edited_n_and_pools_leave_the_carried_form_as_made():
    # the carried form is keyed by n and the label pools as they were when
    # the vector was made, so editing them afterwards changes nothing the
    # conversions return; a vector whose universe (r_max here) is edited
    # has no carried form
    rng = random.Random(9)
    colored = make_graph(10, [(u, v) for u in range(10)
                              for v in range(u + 1, 10) if rng.random() < 0.4],
                         node_attrs={v: "ab"[v % 3 == 0] for v in range(10)})
    for G, r_max in ((random_graph(rng, 12), 5), (colored, 3)):
        m = moments(G, r_max)
        key = m.carried()[0]
        m.n += 7
        if m.label_counts is not None:
            m.label_counts[0] += 5
        assert m.carried()[0] == key and key[3] == G.n
        _same_conversions(m, vector_like(m, m.values))
        if m.label_counts is not None:
            m.label_counts = {0: 1, 1: 1}
            _same_conversions(m, vector_like(m, m.values))
        else:
            m.r_max += 1
            assert m.carried() is None
            _same_conversions(m, vector_like(m, m.values))


def test_numpy_integer_counts_read_as_python_ints():
    # counts at n = 300 through order 5 cast to np.int64: each is read by
    # operator.index, so no value holds a numpy integer and nothing the
    # conversions multiply wraps at 2^63
    rng = random.Random(14)
    G = make_graph(300, [(u, v) for u in range(24) for v in range(u + 1, 24)
                         if rng.random() < 0.3])
    counts = counting.full_counts(G, 5)
    m = moments_from_counts(counts, 300, "simple", 5)
    wide = moments_from_counts({sid: np.int64(c) for sid, c in counts.items()},
                               300, "simple", 5)
    assert all(type(v.numerator) is int for v in wide.values.values())
    assert wide.values == m.values and wide.absent == m.absent
    assert wide.carried() == m.carried()
    _same_conversions(wide, m)
    _same_conversions(wide, vector_like(m, m.values))


@settings(max_examples=40, deadline=None)
@given(universe_at=st.sampled_from([("simple", 5, 2), ("simple", 6, 2),
                                    ("directed", 4, 2), ("attributed", 3, 3),
                                    ("bipartite", 4, 2)]),
       pools=st.lists(st.integers(0, 150), min_size=3, max_size=3))
def test_per_class_scales_divide_the_graded_scale(universe_at, pools):
    # Q_S divides D^r, D the lcm of the complete counts (the common
    # denominator of a counted vector's values), and each kappa-check
    # scale divides D
    mode, r_max, labels = universe_at
    n = sum(pools[:labels]) or 1
    pools = tuple(enumerate(pools[:labels])) if mode in (
        "attributed", "bipartite") else None
    key = (mode, r_max, labels, n, pools)
    C = [c for _, c in _complete_counts(*key)]
    D = math.lcm(*(c for c in C if c))
    graded = cumulants._conversion_plans(mode, r_max, labels)["moment"]
    plan = cumulants._counts_plan(graded, key)
    checks, _ = unbiased._counts_plan(
        unbiased._kappa_check_plans(mode, r_max, labels)[0], key)
    infos, _ = universe_positions(mode, r_max, labels)
    for ci, c, step, q_check in zip(infos, C, plan, checks):
        assert (step is None) == (c == 0)
        if step is not None:
            q, a, _ = step
            assert D ** ci.id.r % q == 0 and a * c == q
            assert D % q_check == 0


def test_per_n_invariants_raise(monkeypatch):
    # a scale that is not a multiple of what it divides by, and a complete
    # count that is not an integer, raise under python -O too
    for q, d in ((10, 4), (10, 0)):
        with pytest.raises(ArithmeticError, match="is not a multiple"):
            cumulants.multiplier(q, d)
    monkeypatch.setattr(importlib.import_module("netmoments.moments"),
                        "complete_count",
                        lambda ci, n, label_counts=None: Fraction(3, 2))
    _kept_counts.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="is not an integer"):
            moments(P4, 2)
    finally:
        _kept_counts.cache_clear()


def test_per_n_state_stays_bounded():
    # 200 distinct n keep at most N_KEPT complete-count tables and per-n
    # plans per universe, dropping the least recently used: n = 5, used
    # on every step, stays.  A plan is built the first time its n comes
    # up and read back from then on, and every vector converts as the
    # common-denominator path does
    rng = random.Random(12)
    for cache in (cumulants._conversion_plans, unbiased._kappa_check_plans,
                  _kept_counts):
        cache.cache_clear()
    conversion = cumulants._conversion_plans("simple", 3, 2)["per_n"]
    check = unbiased._kappa_check_plans("simple", 3, 2)[1]
    kept = _kept_counts("simple", 3, 2)
    steady = moments(make_graph(5, [(0, 1), (1, 2), (2, 3)]), 3)
    _same_conversions(steady, vector_like(steady, steady.values))
    five = steady.carried()[0]
    held = conversion[five], check[five]
    for n in range(6, 206):
        edges = [(u, v) for u in range(6) for v in range(u + 1, 6)
                 if rng.random() < 0.6]
        m = moments(make_graph(n, edges), 3)
        key = m.carried()[0]
        assert key not in conversion and key not in check
        moments_to_cumulants(m)
        unbiased_cumulants(m)
        built = conversion[key], check[key]
        assert type(built[0]) is type(built[1]) is tuple
        _same_conversions(m, vector_like(m, m.values))
        assert conversion[key] is built[0] and check[key] is built[1]
        _same_conversions(steady, vector_like(steady, steady.values))
        assert max(map(len, (conversion, check, kept))) <= N_KEPT
    assert conversion[five] is held[0] and check[five] is held[1]


def test_conversions_build_no_partition_expansion():
    m = moments(random_graph(random.Random(6), 9, p=0.5), 6)
    cumulants._conversion_plans.cache_clear()
    cumulants._expansion_for_graph.cache_clear()
    assert cumulants_to_moments(moments_to_cumulants(m)).values == m.values
    info = cumulants._expansion_for_graph.cache_info()
    assert info.hits == info.misses == 0


def test_partition_expansion_checked_once_per_class(monkeypatch):
    k = moments_to_cumulants(moments(random_graph(random.Random(5), 10), 5))
    checked = []
    check = cumulants._check_expansion

    def counted(sid, terms):
        checked.append(sid)
        check(sid, terms)

    monkeypatch.setattr(cumulants, "_check_expansion", counted)
    cumulants._expansion_for_graph.cache_clear()
    for _ in range(3):
        cumulants_to_moments(k)
        for sid in k.values:
            _expansion_for_graph(universe_index("simple", 5)[sid.key].graph,
                                 "simple")
    assert sorted(checked, key=lambda s: (s.r, s.key)) == \
        sorted(k.values, key=lambda s: (s.r, s.key))


# SHA-256 over the edge-partition expansions, the kappa polynomials (as sets
# of monomials) and the derivation plans in _combinatorics_items, recorded
# before all three were moved onto one unit-subset table per class.
COMBINATORICS_DIGEST = ("4d010611cbfafe4815dadcd9b376d837"
                        "4d172b1a0e2d3388e85f29a2aad73603")
COMBINATORICS_CASES = (("simple", 6, 2), ("directed", 5, 2),
                       ("weighted", 5, 2), ("attributed", 3, 2),
                       ("attributed", 3, 3), ("bipartite", 4, 2))


def _ids(sids):
    return ",".join(sid.serialize() for sid in sids)


def _terms(pairs):
    return [f"{_ids(ids)}*{n}" for ids, n in pairs]


def _combinatorics_items():
    for mode, cap, labels in COMBINATORICS_CASES:
        for r, infos in sorted(universe(mode, cap, labels).items()):
            for ci in infos:
                yield "exp " + " ".join(_terms(_expansion_for_graph(ci.graph,
                                                                    mode)))
                poly = cumulant_moment_polynomial(ci.graph, mode)
                yield "poly " + " ".join(sorted(_terms(poly.items())))
        for r in range(1, cap + 1):
            ids, n_connected, steps = counting._derivation_positions(
                mode, r, labels)
            yield "plan " + _ids(ids[:n_connected])
            for sid, (c, h, terms, self_coeff) in zip(ids[n_connected:],
                                                      steps):
                yield (f"step {_ids((sid, ids[c], ids[h]))} {self_coeff} "
                       + " ".join(_terms(((ids[g],), n) for g, n in terms)))


def test_combinatorics_match_golden_digest():
    h = hashlib.sha256()
    for item in _combinatorics_items():
        h.update(item.encode() + b"\n")
    assert h.hexdigest() == COMBINATORICS_DIGEST
