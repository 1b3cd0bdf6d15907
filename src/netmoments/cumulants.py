"""Moment/cumulant conversion: Moebius inversion on the partition lattice.

A moment factors over set partitions of the subject's edge units:

    mu_g = sum over partitions pi of E(g) of prod over blocks B of kappa_{g_B}

where g_B is the sub(multi)graph on the edge units of block B, keeping the
subject's node colors.  The Moebius function of the partition lattice
(Rota 1964) inverts this exactly:

    kappa_g = sum over pi of (-1)^(b-1) (b-1)! prod over B of mu_{g_B}

with b the number of blocks.  Both sums group partitions by the multiset of
block classes, and every block class is read from the class's unit-subset
table (classes.unit_subclasses).  One evaluator serves both directions:
cumulants_to_moments evaluates the expansion on kappa, moments_to_cumulants
evaluates the kappa polynomial on mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .classes import (ClassGraph, SubgraphId, class_id, unit_subclasses,
                      universe_index)
from .moments import MomentVector, vector_like

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


@dataclass(frozen=True)
class EdgePartitionExpansion:
    subject: SubgraphId
    terms: tuple  # of (sorted tuple of part SubgraphIds, multiplicity)

    def total_multiplicity(self):
        return sum(m for _, m in self.terms)


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


def edge_partitions(ci_or_graph, mode="simple"):
    """Edge-partition expansion of a class.

    Accepts a ClassInfo (from a universe) or a bare ClassGraph.
    """
    if isinstance(ci_or_graph, ClassGraph):
        cg = ci_or_graph
        sid = class_id(cg, mode)
    else:
        cg = ci_or_graph.graph
        sid = ci_or_graph.id
        mode = sid.mode
    return EdgePartitionExpansion(subject=sid,
                                  terms=_expansion_for_graph(cg, mode))


@lru_cache(maxsize=None)
def cumulant_moment_polynomial(cg: ClassGraph, mode: str):
    """kappa_g as {sorted tuple of SubgraphIds (a monomial) -> int coeff}:
    the expansion terms with Moebius coefficients (-1)^(b-1) (b-1)! times
    the term's multiplicity, b being the number of blocks."""
    return {parts: (-1) ** (len(parts) - 1) * math.factorial(len(parts) - 1)
            * mult for parts, mult in edge_partitions(cg, mode).terms}


class IncompleteVectorError(ValueError):
    """A required class is missing from the input vector."""


def common_denominator(values):
    """(L, {id: L * value}) for L the lcm of the values' denominators: the
    numerators over one common denominator, as ints."""
    lcm = math.lcm(*(v.denominator for v in values.values()))
    return lcm, {sid: v.numerator * (lcm // v.denominator)
                 for sid, v in values.items()}


def _evaluate(v: MomentVector, terms_of, what):
    """Each class's sum of coeff * prod of values over its (monomial,
    coeff) terms, classes by order.  With every value N/L, a term of b
    blocks is scaled by L^(r - b), r >= b being the class's edge units, so
    each class sums ints and builds one Fraction over L^r."""
    index = universe_index(v.mode, v.r_max, v.labels)
    lcm, num = common_denominator(v.values)
    powers = [lcm ** b for b in range(v.r_max + 1)]
    out = {}
    for sid in sorted(v.values, key=lambda s: (s.r, s.key)):
        ci = index[sid.key]
        acc = 0
        for parts, coeff in terms_of(ci):
            prod = coeff * powers[sid.r - len(parts)]
            try:
                for pid in parts:
                    prod *= num[pid]
            except KeyError as exc:
                pid = exc.args[0]
                raise IncompleteVectorError(
                    f"{what} vector lacks class {pid.serialize()} "
                    f"(alias {pid.alias}) needed for "
                    f"{ci.id.alias or ci.id.serialize()}") from None
            acc += prod
        out[ci.id] = Fraction(acc, powers[sid.r])
    return vector_like(v, out)


def moments_to_cumulants(m: MomentVector):
    """Evaluate each class's kappa polynomial on the moments."""
    return _evaluate(m, lambda ci: cumulant_moment_polynomial(
        ci.graph, m.mode).items(), "moment")


def cumulants_to_moments(k: MomentVector):
    """Evaluate each class's partition expansion on the cumulants; exact
    inverse of moments_to_cumulants."""
    return _evaluate(k, lambda ci: _expansion_for_graph(ci.graph, k.mode),
                     "cumulant")


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


def _find_moment(m: MomentVector, k, edges, colors=None):
    cg = ClassGraph.make(k, [(u, v, 1) for u, v in edges],
                         directed=False, colors=colors)
    sid = class_id(cg, m.mode)
    if sid not in m.values:
        raise IncompleteVectorError(
            f"moment vector lacks class {sid.serialize()}")
    return m.values[sid]


def clustering_coefficients(m: MomentVector):
    """Classical clustering baselines: C_triangle = mu_triangle / mu_wedge,
    C_square = mu_square / mu_threepath (the bipartite analogue).

    Returns a dict; each coefficient is present only when its classes exist
    in the vector, and raises on a zero denominator.
    """
    out = {}
    if m.mode in ("simple", "weighted"):
        wedge = _find_moment(m, 3, [(0, 1), (1, 2)])
        if m.r_max >= 3:
            tri = _find_moment(m, 3, [(0, 1), (1, 2), (0, 2)])
            if wedge == 0:
                raise ZeroDivisionError("C_triangle undefined: no wedges")
            out["C_triangle"] = tri / wedge
    if m.mode == "bipartite" and m.r_max >= 4:
        # alternating-label path and square
        path = _find_moment(m, 4, [(0, 1), (1, 2), (2, 3)],
                            colors=(0, 1, 0, 1))
        square = _find_moment(m, 4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                              colors=(0, 1, 0, 1))
        if path == 0:
            raise ZeroDivisionError("C_square undefined: no three-paths")
        out["C_square"] = square / path
    elif m.mode == "simple" and m.r_max >= 4:
        path = _find_moment(m, 4, [(0, 1), (1, 2), (2, 3)])
        square = _find_moment(m, 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        if path != 0:
            out["C_square"] = square / path
    return out
