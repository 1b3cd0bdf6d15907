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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .canonical import canonicalize

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
        """Connected components as compact ClassGraphs (isolated nodes
        become single-node components)."""
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
        comps = []
        for nodes in groups.values():
            remap = {x: i for i, x in enumerate(nodes)}
            nodeset = set(nodes)
            es = [(remap[u], remap[v], val) for u, v, val in self.edges
                  if u in nodeset]
            comps.append(ClassGraph.make(
                len(nodes), es, directed=self.directed,
                colors=tuple(self.colors[x] for x in nodes)))
        return comps


@dataclass(frozen=True)
class SubgraphId:
    """Canonical isomorphism-class identifier."""
    mode: str
    r: int
    key: str                     # canonical encoding, hex
    alias: str = field(default=None, compare=False, hash=False)

    def __post_init__(self):
        # ids key every count and moment table, so the hash is computed once
        object.__setattr__(self, "_hash", hash((self.mode, self.r, self.key)))

    def __hash__(self):
        return self._hash

    def serialize(self):
        s = f"{self.mode}:{self.r}:{self.key}"
        if self.alias:
            s += f":{self.alias}"
        return s

    @staticmethod
    def parse(text):
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(f"bad SubgraphId: {text!r}")
        mode, r, key = parts[0], int(parts[1]), parts[2]
        alias = parts[3] if len(parts) == 4 else None
        return SubgraphId(mode=mode, r=r, key=key, alias=alias)

    def __repr__(self):
        return f"SubgraphId({self.serialize()})"


@dataclass(frozen=True)
class ClassInfo:
    id: SubgraphId
    graph: ClassGraph
    aut: int
    connected: bool


_canon_cache = {}


def canonical_class(cg):
    """(key hex, automorphism count, connected) of a ClassGraph, cached.

    Disconnected graphs are canonicalized per component: the combined key is
    the sorted concatenation of component keys, and the automorphism count is
    the product of component counts times a factorial for each set of
    identical components.  This keeps the canonical search inside single
    components, which are small.  The components are found once per new
    graph."""
    got = _canon_cache.get(cg)
    if got is not None:
        return got
    comps = cg.components()
    if len(comps) <= 1:
        res = canonicalize(cg.k, cg.edges, directed=cg.directed,
                           colors=cg.colors)
        got = (res.key.hex(), res.aut, True)
    else:
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
        got = (combined.hex(), aut, False)
    _canon_cache[cg] = got
    return got


@lru_cache(maxsize=None)
def _subgraph_id(mode, r, key):
    """One SubgraphId object per class, so that dictionaries keyed by ids
    find them by identity."""
    return SubgraphId(mode=mode, r=r, key=key,
                      alias=_alias_registry(mode).get(key))


def class_id(cg, mode):
    key, _, _ = canonical_class(cg)
    return _subgraph_id(mode, cg.r, key)


def class_info(cg, mode):
    key, aut, connected = canonical_class(cg)
    return ClassInfo(id=_subgraph_id(mode, cg.r, key), graph=cg, aut=aut,
                     connected=connected)


@lru_cache(maxsize=None)
def unit_subclasses(cg, mode):
    """SubgraphId of every subset of cg's edge units, indexed by bitmask.

    An edge of value v holds v units on consecutive bits, edges in cg.edges
    order; a subset keeps the colors of the nodes it touches and drops the
    rest.  Entry 0 (the empty subset) is None.  Partition expansions, split
    tables and the kappa polynomial all read their sub-edge-set classes
    from here."""
    units = [(u, v) for u, v, val in cg.edges for _ in range(val)]
    out = [None]
    for mask in range(1, 1 << len(units)):
        value = {}
        for bit, uv in enumerate(units):
            if mask >> bit & 1:
                value[uv] = value.get(uv, 0) + 1
        nodes = sorted({x for uv in value for x in uv})
        at = {x: i for i, x in enumerate(nodes)}
        sub = ClassGraph.make(
            len(nodes), [(at[u], at[v], val) for (u, v), val in value.items()],
            directed=cg.directed, colors=tuple(cg.colors[x] for x in nodes))
        out.append(class_id(sub, mode))
    return tuple(out)


# ---------------------------------------------------------------------------
# Universe generation

def _extensions(cg, mode, labels):
    """All classes obtainable from cg by adding a single edge unit."""
    directed = cg.directed
    out = []
    present = {(u, v) for u, v, _ in cg.edges}

    color_options = (range(labels) if mode in ("attributed", "bipartite")
                     else [0])

    def edge_ok(cu, cv):
        if mode == "bipartite":
            return cu != cv
        return True

    # new edge between existing nodes
    for u in range(cg.k):
        for v in range(cg.k):
            if u == v:
                continue
            if not directed and u > v:
                continue
            if (u, v) in present:
                continue
            if directed and (u, v) in present:
                continue
            if not edge_ok(cg.colors[u], cg.colors[v]):
                continue
            out.append(ClassGraph.make(
                cg.k, list(cg.edges) + [(u, v, 1)],
                directed=directed, colors=cg.colors))

    # new edge from an existing node to a fresh node (both orientations when
    # directed)
    for u in range(cg.k):
        for c in color_options:
            if not edge_ok(cg.colors[u], c):
                continue
            out.append(ClassGraph.make(
                cg.k + 1, list(cg.edges) + [(u, cg.k, 1)],
                directed=directed, colors=cg.colors + (c,)))
            if directed:
                out.append(ClassGraph.make(
                    cg.k + 1, list(cg.edges) + [(cg.k, u, 1)],
                    directed=directed, colors=cg.colors + (c,)))

    # new isolated edge on two fresh nodes
    for ca in color_options:
        for cb in color_options:
            if not edge_ok(ca, cb):
                continue
            out.append(ClassGraph.make(
                cg.k + 2, list(cg.edges) + [(cg.k, cg.k + 1, 1)],
                directed=directed, colors=cg.colors + (ca, cb)))

    # increment multiplicity of an existing edge
    if mode == "weighted":
        for idx, (u, v, val) in enumerate(cg.edges):
            es = list(cg.edges)
            es[idx] = (u, v, val + 1)
            out.append(ClassGraph.make(cg.k, es, directed=directed,
                                       colors=cg.colors))
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


_alias_cache = {}


def _alias_registry(mode):
    reg = _alias_cache.get(mode)
    if reg is None:
        reg = {}
        for alias, cg in _named_classes(mode).items():
            key, _, _ = canonical_class(cg)
            reg[key] = alias
        _alias_cache[mode] = reg
    return reg


@lru_cache(maxsize=None)
def named_class(mode, alias):
    """ClassInfo for one of the built-in named substructures."""
    cg = _named_classes(mode).get(alias)
    if cg is None:
        raise KeyError(f"no named class {alias!r} in mode {mode!r}")
    return class_info(cg, mode)
