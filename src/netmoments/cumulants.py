"""Moment/cumulant conversion via edge-partition expansions.

A moment factors over set partitions of the subject's edge units:

    mu_g = sum over partitions pi of E(g) of prod over parts p of kappa_{g_p}

where g_p is the sub(multi)graph induced by the edges in part p, keeping the
subject's node colors.  The system is triangular in edge count, so it can be
solved exactly in either direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .classes import ClassGraph, SubgraphId, class_id, universe_index
from .moments import MomentVector, vector_like

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


@dataclass(frozen=True)
class EdgePartitionExpansion:
    subject: SubgraphId
    terms: tuple  # of (sorted tuple of part SubgraphIds, multiplicity)

    def total_multiplicity(self):
        return sum(m for _, m in self.terms)


def _restricted_growth_strings(r):
    """All set partitions of range(r) as block-index strings."""
    out = []

    def rec(prefix, maxi):
        i = len(prefix)
        if i == r:
            out.append(tuple(prefix))
            return
        for b in range(maxi + 2):
            prefix.append(b)
            rec(prefix, max(maxi, b))
            prefix.pop()

    rec([], -1)
    return out


@lru_cache(maxsize=None)
def _expansion_for_graph(cg: ClassGraph, mode: str):
    units = []
    for u, v, val in cg.edges:
        units.extend([(u, v)] * val)
    r = len(units)
    agg = {}
    for rgs in _restricted_growth_strings(r):
        blocks = {}
        for unit, b in zip(units, rgs):
            blocks.setdefault(b, []).append(unit)
        part_ids = []
        for members in blocks.values():
            slot_mult = {}
            for uv in members:
                slot_mult[uv] = slot_mult.get(uv, 0) + 1
            sub = ClassGraph.make(
                cg.k, [(u, v, m) for (u, v), m in slot_mult.items()],
                directed=cg.directed, colors=cg.colors).relabel_compact()
            part_ids.append(class_id(sub, mode))
        key = tuple(sorted(part_ids, key=lambda s: (s.r, s.key)))
        agg[key] = agg.get(key, 0) + 1
    terms = tuple(sorted(agg.items(), key=lambda kv: (len(kv[0]), kv[0][0].key)))
    return terms


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
    if sid.r > 6:
        raise ValueError("partition expansion capped at order 6")
    terms = _expansion_for_graph(cg, mode)
    exp = EdgePartitionExpansion(subject=sid, terms=terms)
    if exp.total_multiplicity() != BELL[sid.r]:
        raise AssertionError(
            f"partition multiplicities of {sid.serialize()} sum to "
            f"{exp.total_multiplicity()}, not Bell({sid.r}) = {BELL[sid.r]}")
    return exp


class IncompleteVectorError(ValueError):
    """A required class is missing from the input vector."""


def _class_infos(m: MomentVector):
    index = universe_index(m.mode, m.r_max, m.labels)
    infos = [index[sid.key] for sid in m.values]
    infos.sort(key=lambda ci: (ci.id.r, ci.id.key))
    return infos


def moments_to_cumulants(m: MomentVector):
    """Invert the partition expansion; exact and triangular in edge count."""
    kappa = {}
    for ci in _class_infos(m):
        exp = edge_partitions(ci)
        acc = m.values[ci.id]
        self_mult = None
        for parts, mult in exp.terms:
            if parts == (ci.id,):
                self_mult = mult
                continue
            prod = mult
            for pid in parts:
                if pid not in kappa:
                    raise IncompleteVectorError(
                        f"moment vector lacks class {pid.serialize()} "
                        f"(alias {pid.alias}) needed for "
                        f"{ci.id.alias or ci.id.serialize()}")
                prod = prod * kappa[pid]
            acc = acc - prod
        if self_mult != 1:
            raise AssertionError(
                f"self multiplicity of {ci.id.serialize()} is {self_mult}, "
                "not 1")
        kappa[ci.id] = acc
    return vector_like(m, kappa)


def cumulants_to_moments(k: MomentVector):
    """Forward partition expansion; exact inverse of moments_to_cumulants."""
    mu = {}
    for ci in _class_infos(k):
        exp = edge_partitions(ci)
        acc = 0
        for parts, mult in exp.terms:
            prod = mult
            for pid in parts:
                if pid not in k.values:
                    raise IncompleteVectorError(
                        f"cumulant vector lacks class {pid.serialize()}")
                prod = prod * k.values[pid]
            acc = acc + prod
        mu[ci.id] = acc
    return vector_like(k, mu)


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
