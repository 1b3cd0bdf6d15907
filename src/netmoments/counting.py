"""Subgraph counting: connected counts by enumeration, disconnected counts
derived from connected ones.

Counts are per edge-subset instance (automorphism-deduplicated).  In weighted
mode each instance is a multiset of edge slots and is counted with
multiplicity equal to the product of its edge weights (a slot used k times
contributes its weight to the k-th power).

Disconnected counts are never enumerated.  For a disconnected class
g = c (+) h (first component and remainder), counting ordered pairs of an
instance of c and an instance of h gives the exact linear identity

    c_c * c_h = sum over classes g' of N(g', c, h) * c_{g'}

where in unweighted modes the pair's union is taken as an edge set (so g'
ranges over classes with at most |c|+|h| edges), and in weighted mode slot
multiplicities add (so g' has exactly |c|+|h| edge units).  The unknown c_g
appears with the disjoint-split coefficient; every other unknown term has
fewer connected components, so solving classes in order of increasing edge
count and component count is triangular.

The coefficients N depend only on |c|+|h|: _split_coefficients builds every
table of one order in one pass over each class's pairs of unit subsets,
read from its unit-subset table (classes.unit_subclasses), so no part is
canonicalized again.  Everything in the solve that depends only on the
universe (the solving order, each class's split into first component and
remainder, and its table) is built once per (mode, r_max, labels) by
_derivation_plan; a call to derive_disconnected only does the arithmetic.
full_counts is the one count path: every other module that needs class
counts of a graph, the ERGM statistic matrix included, goes through it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .classes import (ClassGraph, class_id, named_class, unit_subclasses,
                      universe)

ORDER_CAPS = {"simple": 6, "directed": 5, "weighted": 5, "attributed": 3,
              "bipartite": 4}


class OrderCapError(ValueError):
    """Requested order exceeds the supported cap for the mode."""


def check_order(mode, r_max):
    cap = ORDER_CAPS[mode]
    if r_max > cap:
        raise OrderCapError(
            f"order {r_max} exceeds the cap {cap} for mode {mode!r}")
    if r_max < 1:
        raise ValueError("order must be at least 1")


# ---------------------------------------------------------------------------
# Classification of small edge sets

class _Classifier:
    """Maps concrete edge sets of a host graph to SubgraphIds, memoized on a
    relabeled signature so canonicalization runs once per shape."""

    def __init__(self, mode, directed, host_colors=None):
        self.mode = mode
        self.directed = directed
        self.host_colors = host_colors  # node -> color, or None
        self.cache = {}

    def classify(self, slots, mults=None):
        """slots: tuple of (u, v) host pairs (ordered if directed);
        mults: per-slot multiplicities (weighted mode)."""
        remap = {}
        sig_edges = []
        for idx, (u, v) in enumerate(slots):
            a = remap.setdefault(u, len(remap))
            b = remap.setdefault(v, len(remap))
            val = 1 if mults is None else mults[idx]
            sig_edges.append((a, b, val))
        if self.host_colors is None:
            colors = (0,) * len(remap)
        else:
            colors = tuple(self.host_colors[x] for x in remap)
        sig = (tuple(sig_edges), colors)
        sid = self.cache.get(sig)
        if sid is None:
            cg = ClassGraph.make(len(remap), sig_edges, directed=self.directed,
                                 colors=colors)
            sid = class_id(cg, self.mode)
            self.cache[sig] = sid
        return sid


def graph_mode_colors(G):
    """(mode, per-node color list or None) for a host Graph."""
    mode = G.mode()
    if mode in ("attributed", "bipartite"):
        labs = G.labels()
        idx = {l: i for i, l in enumerate(labs)}
        return mode, [idx[G.node_attrs[v]] for v in range(G.n)]
    return mode, None


# ---------------------------------------------------------------------------
# Connected edge-subset enumeration (ESU on the line graph)

def _line_graph(slots):
    """Adjacency lists over edge indices; arcs sharing a node are adjacent."""
    by_node = {}
    for i, (u, v) in enumerate(slots):
        by_node.setdefault(u, []).append(i)
        by_node.setdefault(v, []).append(i)
    adj = [set() for _ in slots]
    for members in by_node.values():
        for a, b in itertools.combinations(members, 2):
            adj[a].add(b)
            adj[b].add(a)
    return adj


def connected_edge_subsets(slots, max_size):
    """Yield every connected edge subset (as a sorted tuple of slot indices)
    of size 1..max_size exactly once."""
    adj = _line_graph(slots)

    def extend(sub, ext, nbrs, root):
        yield tuple(sub)
        if len(sub) == max_size:
            return
        ext = list(ext)
        while ext:
            w = ext.pop()
            new_nbrs = nbrs | adj[w]
            new_ext = [u for u in ext]
            for u in adj[w]:
                if u > root and u not in nbrs and u != w:
                    new_ext.append(u)
            sub.append(w)
            yield from extend(sub, new_ext, new_nbrs, root)
            sub.pop()

    for root in range(len(slots)):
        ext = [u for u in adj[root] if u > root]
        yield from extend([root], ext, adj[root] | {root}, root)


def count_connected(G, r_max):
    """Connected-class counts for every connected class with <= r_max edges.

    Returns dict SubgraphId -> count (int for unweighted modes, Fraction for
    weighted).  Classes that do not occur are absent from the dict.
    """
    mode, colors = graph_mode_colors(G)
    check_order(mode, r_max)
    if mode == "simple" and not G.weighted and r_max <= 3:
        return _fast_counts_simple(G, r_max)
    slots = sorted(G.edges)
    weighted = G.weighted
    clf = _Classifier(mode, G.directed, colors)
    counts = {}
    if not weighted:
        for sub in connected_edge_subsets(slots, r_max):
            sid = clf.classify(tuple(slots[i] for i in sub))
            counts[sid] = counts.get(sid, 0) + 1
        return counts

    # weighted: distribute multiplicities over each connected slot subset
    weights = [G.edges[s] for s in slots]
    comp_cache = {}
    for sub in connected_edge_subsets(slots, r_max):
        s = len(sub)
        pair = tuple(slots[i] for i in sub)
        for mults in _compositions_upto(s, r_max, comp_cache):
            sid = clf.classify(pair, mults)
            w = Fraction(1)
            for i, mexp in zip(sub, mults):
                w *= weights[i] ** mexp
            counts[sid] = counts.get(sid, Fraction(0)) + w
    return counts


def _compositions_upto(s, r_max, cache):
    """All tuples of s positive ints with sum <= r_max."""
    got = cache.get(s)
    if got is None:
        got = []
        for total in range(s, r_max + 1):
            got.extend(_compositions(total, s))
        cache[s] = got
    return got


def _compositions(total, parts):
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def _fast_counts_simple(G, r_max):
    """Specialized counters for simple graphs through third order: degrees
    give stars, neighbor intersections give triangles, a walk correction
    gives paths."""
    n = G.n
    adj = [0] * n
    deg = [0] * n
    for (u, v) in G.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        deg[u] += 1
        deg[v] += 1
    m = len(G.edges)
    counts = {}

    def put(alias, value):
        if value:
            counts[named_class("simple", alias).id] = value

    put("edge", m)
    if r_max >= 2:
        put("wedge", sum(d * (d - 1) // 2 for d in deg))
    if r_max >= 3:
        tri2 = 0
        path = 0
        for (u, v) in G.edges:
            tri2 += (adj[u] & adj[v]).bit_count()
            path += (deg[u] - 1) * (deg[v] - 1)
        tri = tri2 // 3
        put("triangle", tri)
        put("claw", sum(d * (d - 1) * (d - 2) // 6 for d in deg))
        put("path", path - 3 * tri)
    return counts


# ---------------------------------------------------------------------------
# Disconnected counts from connected counts

@lru_cache(maxsize=None)
def _split_coefficients(mode, order, labels):
    """Every coefficient table with |c| + |h| = order, in one pass:
    {(c key, h key): {SubgraphId g' -> N(g', c, h)}}.

    N counts the ways to cut g' into an instance of c and one of h, read
    from g's unit-subset table.  Unweighted: c is a subset of g's edges and
    h is the rest plus order - |g| edges of c.  Weighted: c takes the first
    i units of each edge and h the others, so |g| = order.  One table per
    (c, h) serves every r_max that reaches its order."""
    tables = {}
    for r, infos in universe(mode, order, labels).items():
        for ci in infos:
            sub = unit_subclasses(ci.graph, mode)
            full = len(sub) - 1
            if mode != "weighted":
                pairs = [(c, full ^ c | x) for c in range(1, full + 1)
                         for x in _submasks(c, order - r)]
            elif r == order:
                pairs = [(c, full ^ c) for c in _prefix_masks(ci.graph)]
            else:
                continue
            for c, h in pairs:
                if c and h:
                    table = tables.setdefault((sub[c].key, sub[h].key), {})
                    table[ci.id] = table.get(ci.id, 0) + 1
    return tables


def _submasks(mask, size):
    """The submasks of mask with `size` bits set."""
    bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
    return [sum(pick) for pick in itertools.combinations(bits, size)]


def _prefix_masks(cg):
    """Unit masks that take the first i units of each edge, for every i."""
    masks = [0]
    start = 0
    for _, _, val in cg.edges:
        masks = [m | ((1 << i) - 1) << start for m in masks
                 for i in range(val + 1)]
        start += val
    return masks


@lru_cache(maxsize=None)
def _derivation_plan(mode, r_max, labels):
    """The graph-independent half of derive_disconnected, built once per
    universe.

    Returns (connected ids, steps).  Each step is (id, first-component id,
    remainder id, other terms as (id, coefficient) pairs, self coefficient)
    and the steps are in solving order: edge count, then component count.
    """
    uni = universe(mode, r_max, labels)
    connected = []
    steps = []
    for r in range(1, r_max + 1):
        connected.extend(ci.id for ci in uni[r] if ci.connected)
        disc = [(ci, ci.graph.components()) for ci in uni[r]
                if not ci.connected]
        disc.sort(key=lambda pair: len(pair[1]))
        for ci, comps in disc:
            c_id = class_id(comps[0], mode)
            h_id = class_id(ClassGraph.disjoint_union(comps[1:]), mode)
            table = _split_coefficients(mode, r, labels).get(
                (c_id.key, h_id.key), {})
            if ci.id not in table:
                raise AssertionError(
                    f"disjoint split missing for {ci.id.serialize()}")
            terms = tuple((gid, coeff) for gid, coeff in table.items()
                          if gid != ci.id)
            steps.append((ci.id, c_id, h_id, terms, table[ci.id]))
    return tuple(connected), tuple(steps)


def derive_disconnected(connected_counts, G, r_max):
    """Extend connected counts to every class with <= r_max edges.

    Returns dict SubgraphId -> count covering the full universe (zero counts
    included).  Only arithmetic runs per call: the solving order and the
    split coefficients come from _derivation_plan.  Raises ValueError on a
    negative derived count, which signals inconsistent input counts.
    """
    mode, _ = graph_mode_colors(G)
    check_order(mode, r_max)
    labels = len(G.labels()) if G.node_attrs is not None else 2
    connected, steps = _derivation_plan(mode, r_max, labels)
    zero = Fraction(0) if G.weighted else 0
    counts = {sid: connected_counts.get(sid, zero) for sid in connected}
    for sid, c_id, h_id, terms, self_coeff in steps:
        acc = counts[c_id] * counts[h_id]
        for gid, coeff in terms:
            acc -= coeff * counts[gid]
        if G.weighted:
            value = Fraction(acc, self_coeff)
        else:
            value, rem = divmod(acc, self_coeff)
            if rem:
                raise AssertionError(
                    f"non-integer derived count for {sid.serialize()}")
            value = int(value)
        if value < 0:
            raise ValueError(
                f"negative derived count for {sid.serialize()}: "
                "inconsistent input counts")
        counts[sid] = value
    return counts


def full_counts(G, r_max):
    """Connected enumeration plus disconnected derivation."""
    return derive_disconnected(count_connected(G, r_max), G, r_max)
