"""Moment/cumulant conversion on the partition lattice.

A moment factors over set partitions of the subject's edge units:

    mu_g = sum over partitions pi of E(g) of prod over blocks B of kappa_{g_B}

where g_B is the sub(multi)graph on the edge units of block B, keeping the
subject's node colors.  The Moebius function of the partition lattice
(Rota 1964) inverts this exactly:

    kappa_g = sum over pi of (-1)^(b-1) (b-1)! prod over B of mu_{g_B}

with b the number of blocks.  Both sums group partitions by the multiset of
block classes, and every block class is read from the class's unit-subset
table (classes.unit_subclasses).  The expansion and the kappa polynomial
are kept for the unbiased estimator; the conversions run the pivot-unit
recursion instead (Smith 1995).  Every partition of g's units is the
block B holding a chosen pivot unit u plus a partition of the rest, so

    mu_g = sum over B holding u of kappa_{g_B} mu_{g minus B}

(mu of no units is 1): one binary product per distinct pair (class of
B, class of the rest), times the number of subsets B giving that pair.
Any unit will do as u; each class takes the one with the fewest distinct
pairs (the 45 simple classes through order 5: 247 products, 302 with
unit 0 throughout).  Solved for kappa_g, the same terms convert the other
way.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .classes import ClassGraph, class_id, unit_subclasses, universe_positions
from .counting import check_order
from .moments import (MomentVector, _complete_counts, exact, per_n,
                      vector_like)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


@lru_cache(maxsize=None)
def _block_masks(r):
    """Every set partition of r units as a tuple of block bitmasks, blocks
    in order of their first unit (restricted-growth order)."""
    out = []

    def rec(i, masks):
        if i == r:
            out.append(tuple(masks))
            return
        for b in range(len(masks)):
            masks[b] |= 1 << i
            rec(i + 1, masks)
            masks[b] &= ~(1 << i)
        masks.append(1 << i)
        rec(i + 1, masks)
        masks.pop()

    rec(0, [])
    return tuple(out)


@lru_cache(maxsize=None)
def _expansion_for_graph(cg: ClassGraph, mode: str):
    """The class's expansion terms, checked once per (class graph, mode):
    sorted by block count, so the one-block term comes first."""
    if cg.r > 6:
        raise ValueError("partition expansion capped at order 6")
    sub = unit_subclasses(cg, mode)
    agg = {}
    for masks in _block_masks(cg.r):
        key = tuple(sorted((sub[m] for m in masks),
                           key=lambda s: (s.r, s.key)))
        agg[key] = agg.get(key, 0) + 1
    terms = tuple(sorted(agg.items(), key=lambda kv: (len(kv[0]), kv[0][0].key)))
    _check_expansion(sub[-1], terms)
    return terms


def _check_expansion(sid, terms):
    """The partition multiplicities sum to Bell(r), and the one-block
    term is the subject itself, once."""
    total = sum(m for _, m in terms)
    if total != BELL[sid.r]:
        raise AssertionError(
            f"partition multiplicities of {sid.serialize()} sum to "
            f"{total}, not Bell({sid.r}) = {BELL[sid.r]}")
    if terms[0] != ((sid,), 1):
        raise AssertionError(
            f"self multiplicity of {sid.serialize()} is not 1")


@lru_cache(maxsize=None)
def cumulant_moment_polynomial(cg: ClassGraph, mode: str):
    """kappa_g as {sorted tuple of SubgraphIds (a monomial) -> int coeff}:
    the expansion terms with Moebius coefficients (-1)^(b-1) (b-1)! times
    the term's multiplicity, b being the number of blocks."""
    return {parts: (-1) ** (len(parts) - 1) * math.factorial(len(parts) - 1)
            * mult for parts, mult in _expansion_for_graph(cg, mode)}


class IncompleteVectorError(ValueError):
    """A required class is missing from the input vector."""


def scaled_positions(values, at, size):
    """(L, x) for L the lcm of the values' denominators: x[at[id.key]] is
    L * value as an int, None where the vector has no value."""
    lcm = math.lcm(*(v.denominator for v in values.values()))
    x = [None] * size
    for sid, v in values.items():
        x[at[sid.key]] = v.numerator * (lcm // v.denominator)
    return lcm, x


def _first_unit_pairs(cg: ClassGraph, mode: str):
    """{(class of B, class of the rest): count} over the unit subsets B
    that hold the pivot unit and not every unit, read from the class's
    unit-subset table.  Any unit can come first in the recursion; the
    pivot is the one whose subsets fall into the fewest distinct pairs,
    the lowest such unit on a tie."""
    sub = unit_subclasses(cg, mode)
    full = len(sub) - 1
    best = None
    for unit in range(full.bit_length()):
        pairs = {}
        for mask in range(1, full):
            if mask >> unit & 1:
                key = (sub[mask], sub[full ^ mask])
                pairs[key] = pairs.get(key, 0) + 1
        if best is None or len(pairs) < len(best):
            best = pairs
    return best


@lru_cache(maxsize=None)
def _conversion_plans(mode: str, r_max: int, labels: int):
    """The pivot-unit recursion of every class of a universe, compiled to
    positions (classes.universe_positions): one plan per direction, keyed
    by what the input vector holds ("moment" or "cumulant"), and under
    "per_n" the plans _counts_plan builds from the "moment" one for
    vectors that carry their counts.

    The plans are graded: a class S of r edge units reads its input as
    X_S = v_S L^r and makes Y_S = out_S L^r, L being the lcm of the
    input values' denominators (scaled_positions).  The powers of L then
    match in every term, so each plan holds (r, terms) per position,
    terms (a, b, coeff) read as coeff * Y[a] * X[b]:
        to cumulants (X = mu L^r, Y = kappa L^r):
            Y_S = X_S - sum c Y_B X_rest
        to moments (X = kappa L^r, Y = mu L^r):
            Y_S = X_S + sum c Y_rest X_B"""
    infos, at = universe_positions(mode, r_max, labels)
    to_cumulants, to_moments = [], []
    for ci in infos:
        r = ci.id.r
        pairs = _first_unit_pairs(ci.graph, mode)
        total = sum(pairs.values())
        if total != 2 ** (r - 1) - 1:
            raise AssertionError(
                f"first-unit pairs of {ci.id.serialize()} count {total} "
                f"unit subsets, not 2^{r - 1} - 1 = {2 ** (r - 1) - 1}")
        to_cumulants.append((r, tuple(
            (at[b.key], at[rest.key], -c) for (b, rest), c in pairs.items())))
        to_moments.append((r, tuple(
            (at[rest.key], at[b.key], c) for (b, rest), c in pairs.items())))
    return {"moment": tuple(to_cumulants), "cumulant": tuple(to_moments),
            "per_n": {}}


def multiplier(q, d):
    """q / d for a scale q that d must divide."""
    if not d or q % d:
        raise ArithmeticError(f"scale {q} is not a multiple of {d}")
    return q // d


def _counts_plan(graded, key):
    """The recursion to cumulants for a vector of counts (the carried form
    of MomentVector.carried, made at key), per position: (Q, a, terms),
    None where the class is unrealizable.  With C_S the complete counts
    (moments._complete_counts), mu_S = count_S / C_S, and kappa_S =
    K_S / Q_S on the per-class scale
        Q_S = lcm(C_S, Q_B C_rest over the class's terms),
    so that
        K_S = a count_S + sum coeff K_B count_rest,
    a = Q_S / C_S and coeff = -c Q_S / (Q_B C_rest) exact integers.  At
    simple order 5, Q_S has at most 83 bits at n = 40 and 143 at
    n = 300."""
    C = [c for _, c in _complete_counts(*key)]
    Q = [0] * len(C)
    plan = []
    for p, (_, terms) in enumerate(graded):
        if not C[p]:
            plan.append(None)
            continue
        scales = [Q[b] * C[rest] for b, rest, _ in terms]
        q = Q[p] = math.lcm(C[p], *scales)
        plan.append((q, multiplier(q, C[p]), tuple(
            (b, rest, c * multiplier(q, scale))
            for (b, rest, c), scale in zip(terms, scales))))
    return tuple(plan)


def _missing_factor(v, ci, what):
    """The error for a class whose expansion reads a class the vector
    lacks: the first such factor in expansion-term order."""
    for parts, _ in _expansion_for_graph(ci.graph, v.mode):
        for pid in parts:
            if pid not in v.values:
                return IncompleteVectorError(
                    f"{what} vector lacks class {pid.serialize()} "
                    f"(alias {pid.alias}) needed for "
                    f"{ci.id.alias or ci.id.serialize()}")


def _convert(v: MomentVector, what):
    """Run the plan for a vector of `what` values in (r, key) order over
    Python ints, building one Fraction per class with moments.exact.  A
    moment vector that carries its counts (MomentVector.carried) runs on
    the per-class scales of _counts_plan, built the first time its (n,
    label pools) comes up.  Any other vector runs the graded plan on the
    lcm L of its values' denominators (scaled_positions), each input
    graded to x L^(r-1) once, when its class comes up.  A class whose
    recursion reads an absent value raises, as it would from the full
    expansion: both read every proper sub-edge-set class.  An order past
    the mode's cap, or below 1, raises before any plan is built."""
    check_order(v.mode, v.r_max)
    infos, at = universe_positions(v.mode, v.r_max, v.labels)
    plans = _conversion_plans(v.mode, v.r_max, v.labels)
    carried = v.carried() if what == "moment" else None
    out = {}
    if carried is not None:
        key, counts = carried
        plan = per_n(plans["per_n"], key,
                     lambda key: _counts_plan(plans["moment"], key))
        k = [None] * len(infos)
        for p, count in enumerate(counts):
            if count is None:
                continue
            q, a, terms = plan[p]
            acc = a * count
            for b, rest, coeff in terms:
                acc += coeff * k[b] * counts[rest]
            k[p] = acc
            out[infos[p].id] = exact(acc, q)
        return vector_like(v, out)
    plan = plans[what]
    lcm, x = scaled_positions(v.values, at, len(infos))
    powers = [lcm ** e for e in range(v.r_max + 1)]
    graded = [None] * len(infos)
    y = [None] * len(infos)
    for p, value in enumerate(x):
        if value is None:
            continue
        r, terms = plan[p]
        acc = graded[p] = value * powers[r - 1]
        try:
            for a, b, coeff in terms:
                acc += coeff * y[a] * graded[b]
        except TypeError:
            raise _missing_factor(v, infos[p], what) from None
        y[p] = acc
        out[infos[p].id] = exact(acc, powers[r])
    return vector_like(v, out)


def moments_to_cumulants(m: MomentVector):
    """kappa_S = mu_S - sum over unit subsets B holding S's pivot unit,
    B != S, of kappa_B mu_(S minus B)."""
    return _convert(m, "moment")


def cumulants_to_moments(k: MomentVector):
    """mu_S = sum over unit subsets B holding S's pivot unit of kappa_B
    mu_(S minus B); exact inverse of moments_to_cumulants."""
    return _convert(k, "cumulant")


def edge_class_id(mode):
    from .classes import named_class, universe
    if mode == "attributed":
        raise ValueError("attributed mode has several first-order classes")
    if mode == "bipartite":
        (only,) = universe("bipartite", 1)[1]
        return only.id
    return named_class(mode, "edge").id


def signed_root(value, exponent):
    x = float(value)
    if x == 0.0:
        return 0.0
    return math.copysign(abs(x) ** (1.0 / exponent), x)


def scale_cumulants(k: MomentVector, root_exponent=None):
    """Scaled cumulants kappa~ = kappa / kappa_edge^r plus the float signed
    root used for presentation.

    root_exponent overrides the per-class default exponent r.  Returns
    (scaled MomentVector, dict SubgraphId -> float signed root).
    """
    if root_exponent is not None and root_exponent < 1:
        raise ValueError(
            f"root exponent must be at least 1, got {root_exponent}")
    eid = edge_class_id(k.mode)
    k1 = k.values.get(eid)
    if not k1:
        raise ValueError("scaled cumulants undefined: edge density is zero")
    scaled = {}
    roots = {}
    for sid, v in k.values.items():
        s = v / k1 ** sid.r
        scaled[sid] = s
        roots[sid] = signed_root(s, root_exponent or sid.r)
    return vector_like(k, scaled), roots


@lru_cache(maxsize=None)
def _clustering_ids(mode):
    """(wedge, triangle, three-path, square) ids of a mode; bipartite
    paths and squares alternate labels."""
    alternating = (0, 1, 0, 1) if mode == "bipartite" else None

    def sid(k, edges, colors=None):
        return class_id(ClassGraph.make(k, [(u, v, 1) for u, v in edges],
                                        colors=colors), mode)

    return (sid(3, [(0, 1), (1, 2)]), sid(3, [(0, 1), (1, 2), (0, 2)]),
            sid(4, [(0, 1), (1, 2), (2, 3)], alternating),
            sid(4, [(0, 1), (1, 2), (2, 3), (0, 3)], alternating))


def _find_moment(m: MomentVector, sid):
    value = m.values.get(sid)
    if value is None:
        raise IncompleteVectorError(
            f"moment vector lacks class {sid.serialize()}")
    return value


def clustering_coefficients(m: MomentVector):
    """Classical clustering baselines: C_triangle = mu_triangle / mu_wedge,
    C_square = mu_square / mu_threepath (the bipartite analogue).

    Returns a dict; each coefficient is present only when its classes exist
    in the vector and its denominator is nonzero: a graph with no wedges
    (or no three-paths) has no C_triangle (or C_square).
    """
    out = {}
    if m.mode not in ("simple", "weighted", "bipartite"):
        return out
    wedge_id, tri_id, path_id, square_id = _clustering_ids(m.mode)
    if m.mode in ("simple", "weighted") and m.r_max >= 3:
        wedge = _find_moment(m, wedge_id)
        tri = _find_moment(m, tri_id)
        if wedge != 0:
            out["C_triangle"] = tri / wedge
    if m.mode in ("simple", "bipartite") and m.r_max >= 4:
        # bipartite paths and squares alternate labels
        path = _find_moment(m, path_id)
        square = _find_moment(m, square_id)
        if path != 0:
            out["C_square"] = square / path
    return out
