"""Subgraph counting: connected counts from homomorphism counts (simple
graphs) or by enumeration (every other mode), disconnected counts derived
from connected ones.

Counts are per edge-subset instance (automorphism-deduplicated).  In weighted
mode each instance is a multiset of edge slots and is counted with
multiplicity equal to the product of its edge weights (a slot used k times
contributes its weight to the k-th power).

Simple graphs use the homomorphism basis (Curticapean, Dell & Marx,
"Homomorphisms are a good basis for counting small subgraphs", STOC 2017).
Every injective map of a connected class H into G is a homomorphism of one
quotient H/pi, and Moebius inversion over the partition lattice gives

    c_H = (1 / |Aut H|) * sum over pi of mu(pi) * hom(H/pi, G),
    mu(pi) = prod over blocks B of pi of (-1)^(|B|-1) (|B|-1)!

where pi ranges over the partitions of H's nodes into independent sets (any
other quotient has a loop, and no homomorphism into a simple graph).  The
coefficients are graph-independent: _hom_basis builds them once per order
and compiles hom(F, G) of every quotient class F into one program whose
steps are shared between patterns.  A pattern's pendant trees become
per-node weight vectors (the tree message A @ w, read from the adjacency
lists); a triangle core is summed over the host's triangle list and K4 over
its triangles' common neighbours, so orders <= 3 never build an n x n
array; any other core is contracted with sparse matrix products over the
non-isolated nodes, one node with at most two neighbours at a time, each
product as large as the walks it counts.  The arithmetic is float64 while
the bound 2m * Delta^(k-2) on every partial sum (m edges, maximum degree
Delta, k the largest pattern's node count) stays below 2^53, int64 below
2^63; past that, or past MATRIX_WALKS walks for the matrix products, the
order is refused with OrderCapError before any array is built.  Hom values
enter the sums as Python ints, and each division by |Aut H| is checked.

Every other mode enumerates each connected edge subset (ESU on the line
graph) and classifies it.  esu_counts runs that engine on any graph, and is
the oracle the simple-mode counts are tested against.

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

import functools
import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .classes import ClassGraph, class_id, unit_subclasses, universe

ORDER_CAPS = {"simple": 6, "directed": 5, "weighted": 5, "attributed": 3,
              "bipartite": 4}


class OrderCapError(ValueError):
    """Requested order exceeds the supported cap for the mode, or the exact
    integer range of simple-mode counting on the given graph."""


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
    weighted).  Classes that do not occur are absent from the dict.  Simple
    graphs are counted from homomorphism counts, every other mode by ESU.
    """
    if G.mode() == "simple":
        check_order("simple", r_max)
        return _count_simple(G, r_max)
    return esu_counts(G, r_max)


def esu_counts(G, r_max):
    """count_connected by enumeration: every connected edge subset of G with
    <= r_max edges is classified, in any mode."""
    mode, colors = graph_mode_colors(G)
    check_order(mode, r_max)
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


# ---------------------------------------------------------------------------
# Simple graphs: counts from homomorphism counts

def _count_simple(G, r_max):
    """count_connected of a simple graph: one run of the hom program, then
    each class's Moebius sum divided by |Aut|, checked."""
    rows, program, pattern_nodes, walk = _hom_basis(r_max)
    if not G.edges:
        return {}
    host = _Host(G, pattern_nodes, walk, r_max)
    vals = []
    for op, args in program:
        vals.append(op(host, *map(vals.__getitem__, args)))
    counts = {}
    for sid, aut, slots, coeffs in rows:
        total = sum(map(operator.mul, coeffs, map(vals.__getitem__, slots)))
        value, rem = divmod(total, aut)
        if rem or value < 0:
            raise AssertionError(
                f"homomorphism sum {total} for {sid.serialize()} is not "
                f"a count times |Aut| = {aut}")
        if value:
            counts[sid] = value
    return counts


@lru_cache(maxsize=None)
def _hom_basis(r_max):
    """The graph-independent half of simple-mode counting, built once per
    order.

    Returns (rows, program, pattern nodes, walk length).  Each row is
    (id, |Aut|, program slots, coefficients) for one connected class with
    <= r_max edges; the slots hold hom(F, G) of its quotient classes F.
    The program runs once per graph (see _Host); pattern nodes is the
    largest quotient's node count, which sets the exactness bound, and
    walk length the longest walk a matrix step enumerates (0 if none).
    """
    connected = {ci.id.key: ci
                 for infos in universe("simple", r_max, 2).values()
                 for ci in infos if ci.connected}
    quotient_keys = {}
    rows = []
    for ci in connected.values():
        terms = {}
        for blocks, edges, mu in _quotients(ci.graph):
            key = quotient_keys.get((blocks, edges))
            if key is None:
                quotient = ClassGraph.make(blocks,
                                           [(a, b, 1) for a, b in edges])
                key = quotient_keys[blocks, edges] = class_id(
                    quotient, "simple").key
            terms[key] = terms.get(key, 0) + mu
        rows.append((ci, {key: c for key, c in terms.items() if c}))
    patterns = sorted({key for _, terms in rows for key in terms})
    exprs = [_hom_expression(connected[key].graph) for key in patterns]
    slots, program = _compile(exprs)
    slot = dict(zip(patterns, slots))
    rows = tuple((ci.id, ci.aut, tuple(slot[key] for key in sorted(terms)),
                  tuple(terms[key] for key in sorted(terms)))
                 for ci, terms in rows)
    return (rows, program, max(connected[key].graph.k for key in patterns),
            max(map(_walk_length, exprs)))


def _quotients(cg):
    """(block count, quotient edges, mu) for every partition of cg's nodes
    into independent sets.  Nodes join blocks in index order, each one only
    a block holding none of its neighbours, so no other partition is
    built."""
    nbrs = [0] * cg.k
    for u, v, _ in cg.edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    members = []
    block = [0] * cg.k
    out = []

    def place(v):
        if v == cg.k:
            mu = 1
            for m in members:
                mu *= (-1) ** (m.bit_count() - 1) * math.factorial(
                    m.bit_count() - 1)
            edges = {(min(block[a], block[b]), max(block[a], block[b]))
                     for a, b, _ in cg.edges}
            out.append((len(members), tuple(sorted(edges)), mu))
            return
        for i, m in enumerate(members):
            if not nbrs[v] & m:
                members[i] = m | 1 << v
                block[v] = i
                place(v + 1)
                members[i] = m
        block[v] = len(members)
        members.append(1 << v)
        place(v + 1)
        members.pop()

    place(0)
    return out


# Expressions of hom(F, G) are nested tuples (op, *operands) over the host's
# arrays: vectors over its nodes, matrices over pairs, and Python ints.
ONE = ("one",)
ADJ = ("adj",)


def _product(op, factors):
    """Elementwise product, "mul" of vectors or "had" of matrices,
    flattened and sorted so that equal products share one program step."""
    items = []
    for f in factors:
        if f != ONE:
            items.extend(f[1:] if f[0] == op else (f,))
    if len(items) <= 1:
        return items[0] if items else ONE
    return (op,) + tuple(sorted(items, key=repr))


def _mul(*vectors):
    return _product("mul", vectors)


def _transpose(m):
    """The transpose, pushed down to the (symmetric) adjacency matrix."""
    if m[0] == "path":
        return ("path", _transpose(m[3]), m[2], _transpose(m[1]))
    if m[0] == "had":
        return _product("had", [_transpose(x) for x in m[1:]])
    return m


def _total(w):
    """The sum of a vector expression; a product's is a dot product."""
    if w[0] == "mul":
        return ("dot", _mul(*w[1:-1]), w[-1])
    return ("sum", w)


def _spread(w):
    """A @ w; A @ 1 is the degree vector."""
    return ("deg",) if w == ONE else ("spread", w)


def _apply(m, w):
    """Matrix expression times vector expression."""
    return _spread(w) if m == ADJ else ("mv", m, w)


def _hom_expression(cg):
    """hom(cg, G) as an expression.

    Pendant trees are stripped in rounds of leaves, each leaf's weight
    moving to its neighbour as A @ w.  A tree ends at its centre: one node
    (the sum of its weight) or one edge (the sum over arcs x -> y of
    w_x w_y, which is the degree-weighted sum when one side is 1).  A
    triangle core is read from the host's triangle list and a K4 core
    from its triangles' common neighbours.  Any other core is eliminated
    one node at a time: a node with one neighbour x multiplies x's weight
    by (F_xv @ w_v), a node with two neighbours x, y joins
    F_xv diag(w_v) F_vy to the factor between x and y, and the last pair
    is the quadratic form w_x F_xy w_y.  _elimination_order keeps the
    walks the products count short: the square needs only A @ A, and no
    core within the order cap walks further than three steps.  Within the
    order cap every core other than K4 has such a node at every step."""
    weight = [ONE] * cg.k
    nbrs = {v: set() for v in range(cg.k)}
    factors = {}
    for u, v, _ in cg.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
        factors[u, v] = [ADJ]

    def factor(x, y):
        m = _product("had", factors[min(x, y), max(x, y)])
        return m if x < y else _transpose(m)

    def remove(v):
        for x in nbrs.pop(v):
            nbrs[x].discard(v)
            del factors[min(x, v), max(x, v)]

    while len(nbrs) > 2:
        leaves = [v for v in sorted(nbrs) if len(nbrs[v]) == 1]
        if not leaves:
            break
        for v in leaves:
            if len(nbrs) > 1 and len(nbrs[v]) == 1:
                (x,) = nbrs[v]
                weight[x] = _mul(weight[x], _spread(weight[v]))
                remove(v)
    core = sorted(nbrs)
    if len(core) == 1:
        return _total(weight[core[0]])
    if len(core) == 2:
        x, y = (weight[v] for v in core)
        if ONE in (x, y):
            return _total(_mul(_spread(ONE), x, y))
        return ("edge",) + tuple(sorted((x, y), key=repr))
    if len(core) == 3:
        if all(weight[v] == ONE for v in core):
            return ("tri",)
        return ("tri",) + tuple(sorted((weight[v] for v in core), key=repr))
    if len(core) == 4 and len(factors) == 6:
        if any(weight[v] != ONE for v in core):
            raise AssertionError("K4 with pendant trees is beyond the cap")
        return ("k4",)
    for v in _elimination_order(tuple(sorted(factors))):
        around = sorted(nbrs[v])
        if len(around) == 1:
            (x,) = around
            weight[x] = _mul(weight[x], _apply(factor(x, v), weight[v]))
            remove(v)
        else:
            x, y = around
            path = ("path", factor(x, v), weight[v], factor(v, y))
            remove(v)
            factors.setdefault((x, y), []).append(path)
            nbrs[x].add(y)
            nbrs[y].add(x)
    x, y = sorted(nbrs)
    return ("quad", weight[x], factor(x, y), weight[y])


@lru_cache(maxsize=None)
def _elimination_order(edges):
    """The order in which _hom_expression eliminates the nodes of a core
    with these edges, all but two, each with one or two neighbours when
    its turn comes.  Of all such orders it takes one whose products walk
    the least: the longest walk a product counts first, then the sum of
    their lengths.  Nodes with one neighbour go first, which builds no
    matrix.  For the six-cycle, eliminating the node with the shortest
    product each time walks four steps; the best order walks three."""
    best = [None, None]

    def search(nbrs, lengths, order, cost):
        if best[0] is not None and cost >= best[0]:
            return
        if len(nbrs) <= 2:
            best[:] = cost, order
            return
        ones = [v for v in sorted(nbrs) if len(nbrs[v]) == 1]
        for v in ones[:1] or [v for v in sorted(nbrs) if len(nbrs[v]) == 2]:
            around = sorted(nbrs[v])
            rest = {x: nb - {v} for x, nb in nbrs.items() if x != v}
            left = {p: l for p, l in lengths.items() if v not in p}
            step = cost
            if len(around) == 2:
                x, y = around
                walk = lengths[min(x, v), max(x, v)] + \
                    lengths[min(v, y), max(v, y)]
                left[x, y] = min(left.get((x, y), walk), walk)
                rest[x] = rest[x] | {y}
                rest[y] = rest[y] | {x}
                step = (max(cost[0], walk), cost[1] + walk)
            search(rest, left, order + (v,), step)

    nodes = {x for e in edges for x in e}
    search({v: frozenset(y for e in edges if v in e for y in e if y != v)
            for v in nodes},
           dict.fromkeys(edges, 1), (), (0, 0))
    if best[1] is None:
        raise AssertionError(f"no elimination order for the core {edges}")
    return best[1]


def _length(m):
    """The longest walk a matrix expression's entries count: its nonzeros
    lie among those of A^length."""
    if m[0] == "path":
        return _length(m[1]) + _length(m[3])
    if m[0] == "had":
        return min(map(_length, m[1:]))
    return 1


def _walk_length(e):
    """The longest _length of a matrix step in e, 0 if it has none.  A
    step of length L builds at most as many entries as the host has walks
    of length L."""
    inner = max(map(_walk_length, e[1:]), default=0)
    if e[0] in ("adj", "path", "had"):
        return max(inner, _length(e))
    return inner


def _compile(exprs):
    """One program for all expressions, each distinct subexpression one
    step in dependency order.  Returns (the slot of each expression,
    program), a step being (function, operand slots)."""
    slots = {}
    program = []

    def visit(e):
        got = slots.get(e)
        if got is None:
            args = tuple(visit(a) for a in e[1:])
            program.append((_OPS[e[0]], args))
            got = slots[e] = len(program) - 1
        return got

    return [visit(e) for e in exprs], tuple(program)


# The matrix products of a hom program hold about 100 bytes per walk they
# enumerate (order 6 on a sparse 20,000-node graph); past this many walks
# the order is refused.
MATRIX_WALKS = 2 ** 22


class _Host:
    """The non-isolated nodes of a simple graph, numbered 0..n'-1 by
    (degree, id), in the arrays a hom program reads: the edges as (u, v)
    pairs with u < v and the degrees, then on first use the sorted edges,
    the adjacency lists (which are the sparse adjacency matrix) and the
    triangles.

    Numbering by degree puts the apex of every wedge b - a - c with
    a < b < c at its lowest-degree node, so there are O(m sqrt(m)) of them
    and a star has none.  The dtype is float64 while 2m * Delta^(k-2)
    (k = pattern nodes) bounds every partial sum below 2^53, int64 below
    2^63: each partial sum is the hom count of a connected pattern with at
    most k nodes, one arc and k-2 steps along a spanning tree.  A program
    whose matrix steps reach walks of length L also needs at most
    MATRIX_WALKS walks of that length.  Either cap is checked before
    anything but the edge list and degrees is built."""

    def __init__(self, G, pattern_nodes, walk, r_max):
        ends = np.fromiter(itertools.chain.from_iterable(G.edges),
                           dtype=np.int64, count=2 * len(G.edges))
        # the ends sorted by id come in one run per node; each run's
        # length is the node's degree, and the runs are renumbered by rank
        order = ends.argsort()
        ids = ends[order]
        run = np.ones(len(ends) + 1, dtype=bool)
        np.not_equal(ids[1:], ids[:-1], out=run[1:-1])
        starts = np.flatnonzero(run)
        deg = starts[1:] - starts[:-1]
        by_degree = deg.argsort(kind="stable")
        ends[order] = by_degree.argsort().repeat(deg)
        a, b = ends[0::2], ends[1::2]
        self.first, self.second = np.minimum(a, b), np.maximum(a, b)
        self.deg, self.n = deg[by_degree], len(deg)
        top = int(self.deg[-1])
        bound = len(ends) * top ** (pattern_nodes - 2)
        if bound >= 2 ** 63:
            raise OrderCapError(
                f"order {r_max} on a graph with {len(G.edges)} edges and "
                f"maximum degree {top} needs counts up to 2*{len(G.edges)}*"
                f"{top}^{pattern_nodes - 2} >= 2^63, beyond exact 64-bit "
                "arithmetic; use a lower order")
        self.dtype = np.float64 if bound < 2 ** 53 else np.int64
        if walk:
            w = self.deg.astype(self.dtype)
            for _ in range(walk - 1):
                w = _op_spread(self, w)
            if int(w.sum()) > MATRIX_WALKS:
                raise OrderCapError(
                    f"order {r_max} needs the graph's {int(w.sum())} walks "
                    f"of length {walk}, more than the {MATRIX_WALKS} the "
                    "matrix products are capped at; use a lower order")

    @functools.cached_property
    def edges(self):
        """(codes, u, v, ends of the runs): the edges u < v as codes
        u * n' + v, sorted, so the neighbours of x above it run up to
        ends[x]."""
        codes = self.first * self.n + self.second
        codes.sort()
        u, v = np.divmod(codes, self.n)
        return codes, u, v, np.bincount(u, minlength=self.n).cumsum()

    @functools.cached_property
    def lists(self):
        """(arcs, neighbours, start of each node's run): both directions
        of every edge as sorted codes x * n' + y, and adjacency lists."""
        codes, u, v, _ = self.edges
        arcs = np.concatenate((codes, v * self.n + u))
        arcs.sort()
        return arcs, arcs % self.n, self.deg.cumsum() - self.deg

    def has_edge(self, a, b):
        """Elementwise: is (a, b), a < b, an edge?"""
        codes = self.edges[0]
        want = a * self.n + b
        return codes.take(codes.searchsorted(want), mode="clip") == want

    @functools.cached_property
    def wedges(self):
        """(count, b, c, closed): each path b - a - c with a < b < c, where
        (a, b) is the i-th edge, repeated count[i] times, and c a later
        neighbour of a; and whether b and c are adjacent.  The closed
        wedges are the triangles, once each."""
        _, u, v, ends = self.edges
        stop = ends[u]
        count = stop - np.arange(1, len(u) + 1)
        b, c = v.repeat(count), v[_runs(stop, count)]
        return count, b, c, self.has_edge(b, c)

    @functools.cached_property
    def triangles(self):
        """(a, b, c) arrays, a < b < c, one entry per triangle."""
        count, b, c, closed = self.wedges
        a = self.edges[1].repeat(count)
        return a[closed], b[closed], c[closed]


def _runs(stops, counts):
    """The positions stops[i] - counts[i] .. stops[i] - 1, for each i in
    turn."""
    return np.arange(counts.sum()) + (stops - counts.cumsum()).repeat(counts)


def _op_one(h):
    return np.ones(h.n, dtype=h.dtype)


def _op_deg(h):
    return h.deg.astype(h.dtype)


def _op_spread(h, w):
    _, nbr, starts = h.lists
    return np.add.reduceat(w[nbr], starts)


def _op_product(h, *operands):
    return functools.reduce(operator.mul, operands)


def _op_sum(h, w):
    return int(w.sum())


def _op_dot(h, x, y):
    return int(x @ y)


def _op_edge(h, x, y):
    a, b = h.first, h.second
    if x is y:
        return 2 * int(x[a] @ x[b])
    return int(x[a] @ y[b] + x[b] @ y[a])


def _op_tri(h, *w):
    if not w:
        return 6 * int(np.count_nonzero(h.wedges[3]))
    a, b, c = h.triangles
    x, y, z = w
    return int((x[a] * (y[b] * z[c] + y[c] * z[b])
                + x[b] * (y[a] * z[c] + y[c] * z[a])
                + x[c] * (y[a] * z[b] + y[b] * z[a])).sum())


def _op_k4(h):
    """24 times the K4s: triangles a < b < c and a neighbour d > c of c
    adjacent to a and b."""
    codes, _, v, ends = h.edges
    a, b, c = h.triangles
    stop = ends[c]
    count = stop - codes.searchsorted(c * (h.n + 1))
    d = v[_runs(stop, count)]
    return 24 * int(np.count_nonzero(h.has_edge(a.repeat(count), d)
                                     & h.has_edge(b.repeat(count), d)))


# A matrix over node pairs is sparse: (codes, values), the codes x * n' + y
# of its nonzero entries sorted.

def _op_adj(h):
    arcs = h.lists[0]
    return arcs, np.ones(len(arcs), dtype=h.dtype)


def _op_path(h, left, w, right):
    """left @ diag(w) @ right: every walk i -> k in left continued by one
    k -> j in right, summed per (i, j)."""
    (lc, lv), (rc, rv) = left, right
    i, k = np.divmod(lc, h.n)
    stop = rc.searchsorted((k + 1) * h.n)
    count = stop - rc.searchsorted(k * h.n)
    at = _runs(stop, count)
    codes = i.repeat(count) * h.n + rc[at] % h.n
    vals = (lv * w[k]).repeat(count) * rv[at]
    order = codes.argsort()
    codes = codes[order]
    first = np.ones(len(codes), dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    first = np.flatnonzero(first)
    return codes[first], np.add.reduceat(vals[order], first)


def _op_had(h, *matrices):
    """The elementwise product."""
    def had(x, y):
        (xc, xv), (yc, yv) = x, y
        if not len(yc):
            return y
        at = yc.searchsorted(xc)
        hit = yc.take(at, mode="clip") == xc
        return xc[hit], xv[hit] * yv[at[hit]]
    return functools.reduce(had, matrices)


def _op_mv(h, m, w):
    codes, vals = m
    total = np.concatenate(([0], (vals * w[codes % h.n]).cumsum()))
    return np.diff(total[codes.searchsorted(np.arange(h.n + 1) * h.n)])


def _op_quad(h, x, m, y):
    codes, vals = m
    i, j = np.divmod(codes, h.n)
    return int((x[i] * vals) @ y[j])


_OPS = {"one": _op_one, "deg": _op_deg, "spread": _op_spread,
        "mul": _op_product, "sum": _op_sum, "dot": _op_dot,
        "edge": _op_edge, "tri": _op_tri, "k4": _op_k4, "adj": _op_adj,
        "path": _op_path, "had": _op_had, "mv": _op_mv,
        "quad": _op_quad}


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
