"""Isomorphism classes of small substructures.

A substructure class is a small vertex-colored (multi)graph together with a
feature mode.  Modes:

  simple      undirected, unweighted
  directed    directed, unweighted
  weighted    undirected multigraph shapes (edge value = multiplicity)
  attributed  undirected with node labels from a finite alphabet
  bipartite   attributed with two labels and no same-label edges

Edge values are multiplicities (>= 1; above 1 only in weighted mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .canonical import canonicalize, orbits

MODES = ("simple", "directed", "weighted", "attributed", "bipartite")


@dataclass(frozen=True)
class ClassGraph:
    """Normalized representative of a substructure class."""
    k: int
    directed: bool
    colors: tuple            # per-node color
    edges: tuple             # tuples (u, v, value); undirected has u < v

    @staticmethod
    def make(k, edges, directed=False, colors=None):
        if colors is None:
            colors = (0,) * k
        norm = {}
        for u, v, val in edges:
            if u == v:
                raise ValueError("self-loop in class graph")
            if not directed and u > v:
                u, v = v, u
            if (u, v) in norm:
                raise ValueError("duplicate edge in class graph")
            norm[(u, v)] = val
        es = tuple(sorted((u, v, val) for (u, v), val in norm.items()))
        return ClassGraph(k=k, directed=directed, colors=tuple(colors), edges=es)

    @property
    def r(self):
        """Total edge count, with multiplicity."""
        return sum(val for _, _, val in self.edges)

    @staticmethod
    def disjoint_union(graphs):
        """The graphs side by side, nodes numbered in the order given."""
        edges = []
        colors = []
        directed = False
        for g in graphs:
            offset = len(colors)
            for u, v, val in g.edges:
                edges.append((u + offset, v + offset, val))
            colors.extend(g.colors)
            directed = g.directed
        return ClassGraph.make(len(colors), edges, directed=directed,
                               colors=colors)

    def components(self):
        """Connected components as compact ClassGraphs, in the order of
        component_nodes."""
        return [self._induced(nodes) for nodes in self.component_nodes()]

    def component_nodes(self):
        """The nodes of each connected component, ascending, components in
        order of least node (isolated nodes are components of their own)."""
        parent = list(range(self.k))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v, _ in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        groups = {}
        for x in range(self.k):
            groups.setdefault(find(x), []).append(x)
        return list(groups.values())

    def _induced(self, nodes):
        """The subgraph on the ascending nodes, which no edge leaves,
        renumbered in order."""
        remap = {x: i for i, x in enumerate(nodes)}
        es = [(remap[u], remap[v], val) for u, v, val in self.edges
              if u in remap]
        return ClassGraph.make(len(nodes), es, directed=self.directed,
                               colors=tuple(self.colors[x] for x in nodes))


@dataclass(frozen=True, eq=False)
class SubgraphId:
    """Canonical isomorphism-class identifier.

    _subgraph_id makes the one id of each (mode, r, key), so ids compare
    and hash by identity, in C: they key every count and moment table.
    Copies and pickles come back as that same object (__reduce__)."""
    mode: str
    r: int
    key: str                     # canonical encoding, hex
    alias: str = None

    def __reduce__(self):
        return _subgraph_id, (self.mode, self.r, self.key)

    def serialize(self):
        s = f"{self.mode}:{self.r}:{self.key}"
        if self.alias:
            s += f":{self.alias}"
        return s

    def __repr__(self):
        return f"SubgraphId({self.serialize()})"


@dataclass(frozen=True)
class ClassInfo:
    id: SubgraphId
    graph: ClassGraph
    aut: int
    connected: bool


@lru_cache(maxsize=None)
def canonical_class(cg):
    """(key hex, automorphism count, connected) of a ClassGraph, cached.

    Disconnected graphs are canonicalized per component: the combined key is
    the sorted concatenation of component keys, and the automorphism count is
    the product of component counts times a factorial for each set of
    identical components.  This keeps the canonical search inside single
    components, which are small.  The components are found once per new
    graph."""
    comps = cg.components()
    if len(comps) <= 1:
        res = _search(cg)
        return res.key.hex(), res.aut, True
    keys = []
    aut = 1
    for comp in comps:
        ck, ca, _ = canonical_class(comp)
        keys.append(ck)
        aut *= ca
    counts = {}
    for ck in keys:
        counts[ck] = counts.get(ck, 0) + 1
    for c in counts.values():
        aut *= math.factorial(c)
    combined = bytes([len(comps), int(cg.directed)]) + b"".join(
        bytes.fromhex(ck) + b"\xff" for ck in sorted(keys))
    return combined.hex(), aut, False


@lru_cache(maxsize=None)
def _search(cg):
    """The canonical search of a connected ClassGraph, cached."""
    return canonicalize(cg.k, cg.edges, directed=cg.directed,
                        colors=cg.colors)


def automorphism_generators(cg):
    """Node permutations that generate cg's automorphism group, with no
    search beyond those of its components.  A connected graph's are those
    of its search.  An automorphism of a disconnected graph permutes its
    components, so its group is generated by each component's generators,
    lifted to cg's nodes, and by the swap of each component with the next
    identical one, slot for slot through their canonical orders."""
    if canonical_class(cg)[2]:
        return _search(cg).generators
    gens = []
    last = {}       # component key -> its last copy's nodes, by slot
    for nodes in cg.component_nodes():
        res = _search(cg._induced(nodes))
        for g in res.generators:
            perm = list(range(cg.k))
            for x, gx in zip(nodes, g):
                perm[x] = nodes[gx]
            gens.append(tuple(perm))
        slots = [nodes[v] for v in res.order]
        if res.key in last:
            perm = list(range(cg.k))
            for a, b in zip(last[res.key], slots):
                perm[a], perm[b] = b, a
            gens.append(tuple(perm))
        last[res.key] = slots
    return tuple(gens)


# (mode, r, key) -> its SubgraphId; ids compare by identity, so an entry
# is never dropped
_IDS = {}


def _subgraph_id(mode, r, key):
    """The one SubgraphId of a class."""
    sid = _IDS.get((mode, r, key))
    if sid is None:
        sid = _IDS[mode, r, key] = SubgraphId(
            mode, r, key, _alias_registry(mode).get(key))
    return sid


def class_id(cg, mode):
    key, _, _ = canonical_class(cg)
    return _subgraph_id(mode, cg.r, key)


def class_info(cg, mode):
    key, aut, connected = canonical_class(cg)
    return ClassInfo(id=_subgraph_id(mode, cg.r, key), graph=cg, aut=aut,
                     connected=connected)


_unit_tables = {}


def unit_subclasses(cg, mode):
    """SubgraphId of every subset of cg's edge units, indexed by bitmask.

    An edge of value v holds v units on consecutive bits, edges in cg.edges
    order; a subset keeps the colors of the nodes it touches and drops the
    rest.  Entry 0 (the empty subset) is None.  Partition expansions, split
    tables and the kappa polynomial all read their sub-edge-set classes
    from here.

    Each table is built once per (cg, mode).  When the table of cg without
    one unit u is already built, as that of the class a universe class was
    extended from is, the subsets without u are read from it in order and
    only those with u are classified."""
    table = _unit_tables.get((cg, mode))
    if table is not None:
        return table
    units = [(u, v) for u, v, val in cg.edges for _ in range(val)]
    parent, bit = _parent_table(cg, mode)
    table = [None]
    for mask in range(1, 1 << len(units)):
        if parent is not None and not mask >> bit & 1:
            low = mask & ((1 << bit) - 1)
            table.append(parent[(mask >> (bit + 1) << bit) | low])
            continue
        value = {}
        for b, uv in enumerate(units):
            if mask >> b & 1:
                value[uv] = value.get(uv, 0) + 1
        table.append(class_id(_compact(cg, value), mode))
    table = _unit_tables[cg, mode] = tuple(table)
    return table


def _parent_table(cg, mode):
    """(table, bit) for the first edge whose last unit, on that bit, leaves
    a graph whose unit-subset table is built; (None, None) if none does.
    That graph lists its units in cg's order with this one left out."""
    bit = -1
    value = {(u, v): val for u, v, val in cg.edges}
    for (u, v), val in list(value.items()):
        bit += val
        value[u, v] = val - 1
        table = _unit_tables.get((_compact(cg, value), mode))
        if table is not None:
            return table, bit
        value[u, v] = val
    return None, None


def _compact(cg, value):
    """The graph of edge values {(u, v): value} on the nodes of cg that an
    edge of positive value touches, numbered in order, with their colors.
    value lists cg's pairs in cg.edges order, and numbering the nodes in
    order keeps them sorted, so the edges need no normalizing."""
    value = {uv: val for uv, val in value.items() if val}
    nodes = sorted({x for uv in value for x in uv})
    at = {x: i for i, x in enumerate(nodes)}
    return ClassGraph(
        k=len(nodes), directed=cg.directed,
        colors=tuple(cg.colors[x] for x in nodes),
        edges=tuple((at[u], at[v], val) for (u, v), val in value.items()))


# ---------------------------------------------------------------------------
# Universe generation

def _moves(cg, mode, labels):
    """Every way to add one edge unit to cg, as (u, v, colors of the fresh
    nodes): fresh nodes are numbered cg.k and up, and (u, v) gets one unit
    more.  In order: a new edge between existing nodes, a new edge to one
    fresh node (both orientations when directed), an edge on two fresh
    nodes, and in weighted mode one more unit on an existing edge."""
    k, directed = cg.k, cg.directed
    fresh = range(labels) if mode in ("attributed", "bipartite") else [0]

    def edge_ok(cu, cv):
        return mode != "bipartite" or cu != cv

    present = {(u, v) for u, v, _ in cg.edges}
    moves = [(u, v, ()) for u in range(k) for v in range(k)
             if u != v and (directed or u < v) and (u, v) not in present
             and edge_ok(cg.colors[u], cg.colors[v])]
    for u in range(k):
        for c in fresh:
            if edge_ok(cg.colors[u], c):
                moves.append((u, k, (c,)))
                if directed:
                    moves.append((k, u, (c,)))
    moves += [(k, k + 1, (ca, cb)) for ca in fresh for cb in fresh
              if edge_ok(ca, cb)]
    if mode == "weighted":
        moves += [(u, v, ()) for u, v, _ in cg.edges]
    return moves


def _extensions(cg, mode, labels):
    """The graphs of cg plus one edge unit, one per orbit of cg's
    automorphisms on _moves: automorphic moves give isomorphic graphs
    (McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998),
    and each orbit keeps its first move."""
    k = cg.k
    gens = [g + (k, k + 1) for g in automorphism_generators(cg)]

    def image(g, move):
        u, v, fresh = move
        u, v = g[u], g[v]
        return (u, v, fresh) if cg.directed or u < v else (v, u, fresh)

    edges = {(a, b): val for a, b, val in cg.edges}
    out = []
    for (u, v, fresh), _ in orbits(_moves(cg, mode, labels), gens, image):
        value = dict(edges)
        value[u, v] = value.get((u, v), 0) + 1
        out.append(ClassGraph.make(
            k + len(fresh), [(a, b, val) for (a, b), val in value.items()],
            directed=cg.directed, colors=cg.colors + fresh))
    return out


@lru_cache(maxsize=None)
def universe(mode, r_max, labels=2):
    """Per-order lists of ClassInfo for every class with 1..r_max edges.

    Returns a dict order -> list of ClassInfo (canonical dedupe, stable
    order).  labels is the alphabet size for attributed/bipartite modes.
    Order r_max extends the cached universe(mode, r_max - 1, labels), so
    each order is built once and its list is shared by every larger
    universe.  The cache keys on the call as spelled, and the library
    passes labels explicitly.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if r_max < 1:
        raise ValueError("a universe needs order at least 1")
    if r_max == 1:
        out = {}
        bases = [ClassGraph.make(0, (), directed=mode == "directed")]
    else:
        out = dict(universe(mode, r_max - 1, labels))
        bases = [ci.graph for ci in out[r_max - 1]]
    nxt = {}
    for cg in bases:
        for ext in _extensions(cg, mode, labels):
            info = class_info(ext, mode)
            if info.id not in nxt:
                nxt[info.id] = info
    out[r_max] = sorted(nxt.values(), key=lambda ci: ci.id.key)
    return out


@lru_cache(maxsize=None)
def universe_positions(mode, r_max, labels=2):
    """(ClassInfos, {key: position}) over every class of the universe,
    ordered by edge count then key: the positions that compiled plans index
    a universe by, so a vector is read into a list once per call."""
    infos = tuple(ci for r in range(1, r_max + 1)
                  for ci in universe(mode, r_max, labels)[r])
    return infos, {ci.id.key: p for p, ci in enumerate(infos)}


def universe_index(mode, r_max, labels=2):
    """Map canonical key -> ClassInfo over all orders of the universe."""
    table = {}
    for infos in universe(mode, r_max, labels).values():
        for ci in infos:
            table[ci.id.key] = ci
    return table


# ---------------------------------------------------------------------------
# Complete counts

def complete_count(ci, n, label_counts=None):
    """Count of the class in the complete host on n nodes, exact rational.

    For attributed/bipartite modes label_counts maps color -> available node
    count.  Returns 0 when n (or a label pool) is too small.
    """
    cg = ci.graph
    mode = ci.id.mode
    if any(val > 1 for _, _, val in cg.edges) and mode != "weighted":
        raise ValueError("multiplicities only occur in weighted mode")

    if mode in ("attributed", "bipartite"):
        if label_counts is None:
            raise ValueError("attributed complete counts need label_counts")
        pools = dict(label_counts)
    else:
        pools = {0: n}

    need = {}
    for c in cg.colors:
        need[c] = need.get(c, 0) + 1
    total = 1
    for c, kc in need.items():
        avail = pools.get(c, 0)
        if avail < kc:
            return Fraction(0)
        total *= math.perm(avail, kc)
    return Fraction(total, ci.aut)


# ---------------------------------------------------------------------------
# Aliases for the named substructures

@lru_cache(maxsize=None)
def _named_classes(mode):
    E = ClassGraph.make
    if mode == "simple" or mode == "weighted":
        named = {
            "edge": E(2, [(0, 1, 1)]),
            "wedge": E(3, [(0, 1, 1), (1, 2, 1)]),
            "two-parallel": E(4, [(0, 1, 1), (2, 3, 1)]),
            "triangle": E(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]),
            "claw": E(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)]),
            "path": E(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]),
            "wedge+edge": E(5, [(0, 1, 1), (1, 2, 1), (3, 4, 1)]),
            "three-parallel": E(6, [(0, 1, 1), (2, 3, 1), (4, 5, 1)]),
            "triangle-edge": E(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)]),
            "square": E(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]),
            "four-star": E(5, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)]),
            "diamond": E(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 3, 1), (2, 3, 1)]),
            "K4": E(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1),
                        (2, 3, 1)]),
        }
        if mode == "weighted":
            named.update({
                "double-edge": E(2, [(0, 1, 2)]),
                "triple-edge": E(2, [(0, 1, 3)]),
                "double-edge-wedge": E(3, [(0, 1, 2), (1, 2, 1)]),
                "double-edge+edge": E(4, [(0, 1, 2), (2, 3, 1)]),
            })
        return named
    if mode == "directed":
        D = lambda k, es: E(k, es, directed=True)
        return {
            "edge": D(2, [(0, 1, 1)]),
            "reciprocal": D(2, [(0, 1, 1), (1, 0, 1)]),
            "wedge-in-in": D(3, [(0, 1, 1), (2, 1, 1)]),
            "wedge-out-out": D(3, [(1, 0, 1), (1, 2, 1)]),
            "wedge-in-out": D(3, [(0, 1, 1), (1, 2, 1)]),
            "reciprocal-wedge-in": D(3, [(0, 1, 1), (1, 0, 1), (2, 1, 1)]),
            "reciprocal-wedge-out": D(3, [(0, 1, 1), (1, 0, 1), (1, 2, 1)]),
            "triangle-trans": D(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]),
            "triangle-cyclic": D(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)]),
            "reciprocal-triangle-in-in":
                D(3, [(0, 1, 1), (1, 0, 1), (0, 2, 1), (1, 2, 1)]),
            "reciprocal-triangle-out-out":
                D(3, [(0, 1, 1), (1, 0, 1), (2, 0, 1), (2, 1, 1)]),
            "reciprocal-triangle-in-out":
                D(3, [(0, 1, 1), (1, 0, 1), (0, 2, 1), (2, 1, 1)]),
            "double-reciprocal":
                D(3, [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)]),
            "triad-minus-one":
                D(3, [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1), (0, 2, 1)]),
            "complete-triad":
                D(3, [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1), (0, 2, 1),
                      (2, 0, 1)]),
        }
    return {}


@lru_cache(maxsize=None)
def _alias_registry(mode):
    """Canonical key -> alias of each named class of the mode."""
    return {canonical_class(cg)[0]: alias
            for alias, cg in _named_classes(mode).items()}


@lru_cache(maxsize=None)
def named_class(mode, alias):
    """ClassInfo for one of the built-in named substructures."""
    cg = _named_classes(mode).get(alias)
    if cg is None:
        raise KeyError(f"no named class {alias!r} in mode {mode!r}")
    return class_info(cg, mode)
