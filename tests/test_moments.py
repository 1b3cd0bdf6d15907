"""Graph moments: normalization, bounds, serialization."""

import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from netmoments.classes import named_class, universe
from netmoments.counting import ORDER_CAPS
from netmoments.cumulants import cumulants_to_moments, moments_to_cumulants
from netmoments.graphs import Graph, make_graph, UNIT
from netmoments.moments import (exact, moments, moments_from_counts,
                                MomentVector, rational_json)
from netmoments.unbiased import unbiased_cumulants

from conftest import random_graph


def test_complete_graph_moments_are_one():
    G = make_graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    m = moments(G, 4)
    assert all(v == 1 for v in m.values.values())


def test_empty_graph_moments_are_zero():
    G = make_graph(6, [])
    m = moments(G, 3)
    assert all(v == 0 for v in m.values.values())


def test_unrealizable_classes_are_absent():
    # n=4 cannot host the 5-node wedge+edge class
    G = make_graph(4, [(0, 1), (1, 2)])
    m = moments(G, 3)
    weid = named_class("simple", "wedge+edge").id
    assert weid not in m.values
    assert weid in m.absent


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 8), st.integers(0, 2 ** 28 - 1))
def test_moments_lie_in_unit_interval(n, bits):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    G = make_graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
    m = moments(G, 3)
    for sid, v in m.values.items():
        assert 0 <= v <= 1, sid.serialize()


def test_json_round_trip():
    rng = random.Random(3)
    G = random_graph(rng, 7)
    m = moments(G, 3)
    doc = json.loads(json.dumps(m.to_json_dict()))
    assert doc["n"] == 7 and doc["mode"] == "simple"
    for entry in doc["moments"]:
        v = Fraction(int(entry["numer"]), int(entry["denom"]))
        assert 0 <= v <= 1


def test_rationals_have_one_json_form():
    assert json.dumps(rational_json(Fraction(-6, 8))) == \
        '{"numer": "-3", "denom": "4"}'
    assert rational_json(5) == {"numer": "5", "denom": "1"}


def test_wedge_moment_small_example():
    G = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])  # 4-cycle
    m = moments(G, 2)
    assert m.values[named_class("simple", "edge").id] == Fraction(2, 3)
    assert m.values[named_class("simple", "wedge").id] == Fraction(1, 3)
    assert m.values[named_class("simple", "two-parallel").id] == Fraction(2, 3)


@settings(max_examples=300, deadline=None)
@given(st.integers(-2 ** 300, 2 ** 300), st.integers(1, 2 ** 300),
       st.integers(1, 5))
def test_exact_is_the_fraction(n, d, k):
    # exact(n, d) is Fraction(n, d) to every reader: type, value, hash,
    # repr and arithmetic; a common factor k is reduced away
    got, want = exact(n * k, d * k), Fraction(n, d)
    assert type(got) is Fraction
    assert type(got.numerator) is int and type(got.denominator) is int
    assert (got.numerator, got.denominator) == (want.numerator,
                                                want.denominator)
    assert got == want and hash(got) == hash(want)
    assert repr(got) == repr(want) and str(got) == str(want)
    third = Fraction(1, 3)
    assert got + third == want + third and got * got == want * want
    assert got - want == 0 and -got == -want
    if n:
        assert 1 / got == 1 / want


_NOT_POSITIVE = """
from netmoments.moments import exact
for d in (0, -1, -2 ** 300):
    try:
        exact(1, d)
    except ArithmeticError as e:
        print(e)
    else:
        print("returned")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_exact_refuses_a_denominator_below_one(flags):
    # the check is no assert, so it holds under python -O
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(exact.__code__.co_filename)
                              .parents[1]))
    proc = subprocess.run([sys.executable, *flags, "-c", _NOT_POSITIVE],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 and "returned" not in lines
    assert all("needs d > 0" in line for line in lines)


def test_every_entry_point_checks_the_order():
    # an order below 1 or past the mode's cap raises from the counts and
    # vector entry points as it does from moments(), before any universe
    # is built (order 9 was a 2,263-class universe, 1.7 s)
    labels = {0: "a", 1: "b", 2: "a"}
    graphs = {"simple": make_graph(3, [(0, 1), (1, 2)]),
              "directed": make_graph(3, [(0, 1), (1, 2)], directed=True),
              "weighted": make_graph(3, [(0, 1, 2), (1, 2, 1)],
                                     weighted=True),
              "attributed": Graph(n=3, edges={(0, 1): UNIT},
                                  node_attrs=labels),
              "bipartite": Graph(n=3, edges={(0, 1): UNIT},
                                 node_attrs=labels, bipartite=True)}
    before = universe.cache_info()
    for mode, G in graphs.items():
        assert G.mode() == mode
        for r in (0, ORDER_CAPS[mode] + 1):
            with pytest.raises(ValueError) as want:
                moments(G, r)
            vector = MomentVector(n=5, mode=mode, r_max=r)
            for call in (lambda: moments_from_counts({}, 4, mode, r),
                         lambda: moments_to_cumulants(vector),
                         lambda: cumulants_to_moments(vector),
                         lambda: unbiased_cumulants(vector)):
                with pytest.raises(ValueError) as got:
                    call()
                assert type(got.value) is type(want.value)
                assert str(got.value) == str(want.value)
    assert universe.cache_info() == before
