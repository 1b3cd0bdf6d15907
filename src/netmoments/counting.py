"""Subgraph counting: connected counts from homomorphism counts in every
mode, disconnected counts derived from connected ones.

Counts are per edge-subset instance (automorphism-deduplicated).  In weighted
mode each instance is a multiset of edge slots and is counted with
multiplicity equal to the product of its edge weights (a slot used k times
contributes its weight to the k-th power).  Weights combine with no other
mode: such a graph is refused with GraphDataError.

Connected counts use the homomorphism basis (Curticapean, Dell & Marx,
"Homomorphisms are a good basis for counting small subgraphs", STOC 2017;
Lovasz, "Large Networks and Graph Limits", 2012, for weighted and
node-coloured homomorphism numbers).  Every injective map of a connected
class H into G is a homomorphism of one quotient H/pi, and Moebius inversion
over the partition lattice gives

    c_H = (1 / |Aut H|) * sum over pi of mu(pi) * hom(H/pi, G),
    mu(pi) = prod over blocks B of pi of (-1)^(|B|-1) (|B|-1)!

where pi ranges over the partitions of H's nodes into independent sets of
one colour (any other quotient has a loop or a two-coloured node, and no
homomorphism).  Pattern edges onto one pair of blocks merge: arcs of one
orientation into one arc, weighted edges into one edge of their summed
value.  On the host a pattern edge is a matrix factor: ADJ, the arc matrix
A or its transpose by orientation (a reciprocal pair is A o A^T), or for
value v the elementwise power W^v of the weight matrix.  A labelled pattern
node starts from its label's indicator vector.

The coefficients are graph-independent: _hom_basis builds them once per
(order, mode, labels) and compiles hom(F, G) of every quotient class F into
one program per form of host, its steps shared between patterns.  The
first time a host of a form runs, _hom_function turns that program into
one generated Python function: a line per step calling the step's op, a
del of each value right after its last use, and each class's Moebius sum
written out with its integer coefficients, so no interpreter loop runs
per step or per term.  A pattern's pendant trees become per-node weight
vectors (the tree message F @ w); any core but a triangle or K4 is
contracted with matrix products, one node with at most two neighbours at
a time.  _Host holds the graph's arrays and picks an exact dtype and,
from the host alone, a form.  A float64 graph with at most DENSE_NODES
non-isolated nodes is dense: its matrices are n' x n' arrays, and its
program (_dense_expressions) reads triangles from T = A o A^2 and edge
sums from BLAS matrix-vector products; K4, and plain triangles at order
3, count the boolean rows of common neighbours.  Any other host is
sparse: triangles and K4s come from its degree-ordered wedge list, so a
simple graph at orders <= 3 builds no n x n array, each product is as
large as the walks it counts, and a program past MATRIX_WALKS walks is
refused (OrderCapError).  Hom values enter the sums as Python ints, and
each division by |Aut H| is checked.

connected_edge_subsets (ESU on the line graph) is no count path: the
benchmark (perfbench/run.py) times it alone, and the tests classify its
subsets as the counting oracle.

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
_derivation_positions; a call to derive_disconnected only does the
arithmetic.
full_counts is the one count path: every other module that needs class
counts of a graph goes through it (the ERGM statistic matrix included), or
through count_connected where connected classes suffice (the local
statistics, as attributed counts with the anchor's nodes labelled 1).

Many small simple graphs on n nodes each, such as the rows of a class
table, are counted as one stack: their (B, n, n) boolean adjacency
arrays.  Every step runs on the stack along its last axes, one sum per
graph.  The Moebius sums and the derivation then run on the graphs'
columns at once: they only multiply, add and divide exactly, which object
arrays of Python ints do elementwise.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .classes import ClassGraph, class_id, unit_subclasses, universe
from .graphs import GraphDataError

ORDER_CAPS = {"simple": 6, "directed": 5, "weighted": 5, "attributed": 3,
              "bipartite": 4}


class OrderCapError(ValueError):
    """Requested order exceeds the supported cap for the mode, or the walks
    its matrix products would enumerate on the given graph."""


def check_order(mode, r_max):
    cap = ORDER_CAPS[mode]
    if r_max > cap:
        raise OrderCapError(
            f"order {r_max} exceeds the cap {cap} for mode {mode!r}")
    if r_max < 1:
        raise ValueError("order must be at least 1")


def graph_mode(G):
    """(mode, label count) of a host Graph: the key of its class universe.
    Weighted and directed classes are unlabelled, and weighted ones
    undirected, so weights or node labels on a graph of another mode are
    refused, not counted against classes without them.  A stack (see
    count_connected) is simple once it passes its checks."""
    if isinstance(G, np.ndarray):
        if not (G.ndim == 3 and G.dtype == bool
                and G.shape[1] == G.shape[2] <= DENSE_NODES
                and G.shape[2] and not G.diagonal(0, 1, 2).any()
                and (G == G.mT).all()):
            raise ValueError(
                f"a stack is a (B, n, n) symmetric boolean array with a zero "
                f"diagonal and 1 to {DENSE_NODES} nodes a graph; count "
                "larger graphs one at a time")
        return "simple", 2
    mode = G.mode()
    if G.weighted and mode != "weighted":
        raise GraphDataError(
            f"edge weights cannot be combined with {mode} mode: weighted "
            "classes are undirected and unlabelled; count the graph "
            "without weights (drop --weighted)")
    if mode == "directed" and G.node_attrs is not None:
        raise GraphDataError(
            "node labels cannot be combined with directed mode: directed "
            "classes are unlabelled; count the graph without labels (drop "
            "--attributes and --bipartite)")
    return mode, len(G.labels()) if G.node_attrs is not None else 2


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


# ---------------------------------------------------------------------------
# Connected counts from homomorphism counts

def count_connected(G, r_max):
    """Connected-class counts for every connected class with <= r_max edges.

    Returns dict SubgraphId -> count (int for unweighted modes, Fraction for
    weighted).  Classes that count zero are absent from the dict.  Every
    mode runs the generated function of its host's form (see
    _hom_function and _Host), which returns each class's Moebius sum;
    each is divided by |Aut|, checked, and in weighted mode by D^r.

    G is a Graph, or a stack of B simple graphs on n nodes each: a
    (B, n, n) symmetric boolean numpy array with a zero diagonal and
    1 <= n <= DENSE_NODES, G[b] the adjacency array of graph b.  Each count
    of a stack is a column: an object array holding graph b's count at b.
    A class is absent only if it counts zero in every graph.  The stack is
    counted in slices of at most MATRIX_WALKS entries.
    """
    mode, labels = graph_mode(G)
    check_order(mode, r_max)
    programs, pattern_nodes, walk = _hom_basis(r_max, mode, labels)
    stack = isinstance(G, np.ndarray)
    if not (G.any() if stack else G.edges):
        return {}
    host = _Host(G, pattern_nodes, walk, r_max)
    rows, program = programs[host.dense]
    hom = _hom_function(r_max, mode, labels, host.dense)
    if stack:
        rows_read = any(op in (_op_k4, _op_tri) for op, _, _ in program)
        size = max(1, MATRIX_WALKS // host.n ** (3 if rows_read else 2))
        parts = [hom(host.blocks(lo, lo + size))
                 for lo in range(0, len(G), size)]
        totals = [np.concatenate(column) for column in zip(*parts)]
    else:
        totals = hom(host)
    nonzero = np.any if stack else bool
    counts = {}
    for (sid, aut, _, _), total in zip(rows, totals):
        value = total // aut
        if nonzero(total % aut) or nonzero(value < 0):
            raise AssertionError(
                f"homomorphism sum {total} for {sid.serialize()} is not "
                f"a count times |Aut| = {aut}")
        if nonzero(value):
            counts[sid] = value if host.scale is None else \
                value * Fraction(1, host.scale ** sid.r)
    return counts


@lru_cache(maxsize=None)
def _hom_basis(r_max, mode, labels):
    """The graph-independent half of counting, built once per universe.

    Returns (programs, pattern nodes, walk length).  programs is
    (sparse, dense): the program a host of that form runs once per graph
    (see _Host; the dense one is compiled from _dense_expressions), as
    (rows, steps), from which _hom_function generates its function.  Each
    row is (id, |Aut|, slots, coefficients) for one connected class with
    <= r_max edges; the slots hold hom(F, G) of its quotient classes F.
    Pattern nodes is the largest quotient's node count, which sets the
    exactness bound, and walk length the longest walk a sparse matrix
    product enumerates (0 if none).
    """
    connected = {ci.id.key: ci
                 for infos in universe(mode, r_max, labels).values()
                 for ci in infos if ci.connected}
    quotient_keys = {}
    rows = []
    for ci in connected.values():
        terms = {}
        for quotient, mu in _quotients(ci.graph, mode):
            key = quotient_keys.get(quotient)
            if key is None:
                blocks, edges, tint = quotient
                key = quotient_keys[quotient] = class_id(ClassGraph.make(
                    blocks, edges, directed=ci.graph.directed, colors=tint),
                    mode).key
            terms[key] = terms.get(key, 0) + mu
        rows.append((ci, {key: c for key, c in sorted(terms.items()) if c}))
    patterns = sorted({key for _, terms in rows for key in terms})
    exprs = [_hom_expression(connected[key].graph, mode) for key in patterns]
    programs = []
    for form in (exprs, _dense_expressions(exprs)):
        slots, steps = _compile(form)
        slot = dict(zip(patterns, slots))
        programs.append((tuple((ci.id, ci.aut, tuple(map(slot.get, terms)),
                                tuple(terms.values()))
                               for ci, terms in rows), steps))
    return (tuple(programs), max(connected[key].graph.k for key in patterns),
            max(map(_walk_length, exprs)))


def _quotients(cg, mode):
    """((block count, edges, block colours), mu) for every partition of
    cg's nodes into independent sets of one colour.  Nodes join blocks in
    index order, each one only a block of its colour holding none of its
    neighbours, so no other partition is built.  Edges onto one pair of
    blocks merge: into one arc per orientation, or in weighted mode into
    one edge of their summed value."""
    nbrs = [0] * cg.k
    for u, v, _ in cg.edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    members = []
    tint = []
    block = [0] * cg.k
    out = []

    def place(v):
        if v == cg.k:
            mu = 1
            for m in members:
                mu *= (-1) ** (m.bit_count() - 1) * math.factorial(
                    m.bit_count() - 1)
            edges = {}
            for a, b, val in cg.edges:
                x, y = block[a], block[b]
                if not cg.directed and x > y:
                    x, y = y, x
                merged = edges.get((x, y), 0) + val
                edges[x, y] = merged if mode == "weighted" else 1
            out.append(((len(members),
                         tuple((x, y, val) for (x, y), val
                               in sorted(edges.items())),
                         tuple(tint)), mu))
            return
        for i, m in enumerate(members):
            if not nbrs[v] & m and tint[i] == cg.colors[v]:
                members[i] = m | 1 << v
                block[v] = i
                place(v + 1)
                members[i] = m
        block[v] = len(members)
        members.append(1 << v)
        tint.append(cg.colors[v])
        place(v + 1)
        members.pop()
        tint.pop()

    place(0)
    return out


# Expressions of hom(F, G) are nested tuples (op, *operands) over the host's
# arrays: vectors over its nodes, matrices over pairs, and Python ints.  An
# operand that is not a tuple is a literal, such as a label's colour.
ONE = ("one",)
ADJ = ("adj",)          # the adjacency matrix of an undirected graph
ARC = ("arc",)          # A[x, y] = 1 for an arc x -> y
ARC_T = ("arc_t",)      # A transposed
WEIGHT = ("weight",)    # the integer-scaled weight matrix


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
    """The transpose, pushed down to the host's matrices."""
    if m[0] == "path":
        return ("path", _transpose(m[3]), m[2], _transpose(m[1]))
    if m[0] == "had":
        return _product("had", [_transpose(x) for x in m[1:]])
    return {ARC: ARC_T, ARC_T: ARC}.get(m, m)


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


def _hom_expression(cg, mode):
    """hom(cg, G) as an expression.

    Pendant trees are stripped in rounds of leaves, each leaf's weight
    moving to its neighbour as F @ w.  A tree ends at its centre: one node
    (the sum of its weight) or one edge, the quadratic form w_x F w_y,
    which for F = ADJ is the sum over arcs x -> y of w_x w_y (the
    degree-weighted sum when one side is 1).  A triangle core of ADJ
    factors is a "tri" step and a K4 core a "k4" step, read from the
    host's triangles or rows of common neighbours (see _dense_expressions
    for a dense host).  Any other core is eliminated one node at a time: a
    node with one neighbour x multiplies x's weight by (F_xv @ w_v), a node
    with two neighbours x, y joins F_xv diag(w_v) F_vy to the factor
    between x and y, and the last pair is the quadratic form
    w_x F_xy w_y.  With both weights 1 and F_xy the elementwise product of
    two factors P and Q, that form is one step, "frob", the sum of the
    entries of P * Q, one vdot on a dense graph.  _elimination_order keeps the
    walks the products count short: the square needs only A @ A, and no
    core within the order cap walks further than three steps.  Within the
    order cap every core other than K4 has such a node at every step."""
    if mode in ("attributed", "bipartite"):
        weight = [("label", c) for c in cg.colors]
    else:
        weight = [ONE] * cg.k
    nbrs = {v: set() for v in range(cg.k)}
    factors = {}
    for u, v, val in cg.edges:   # each factor oriented from min to max
        nbrs[u].add(v)
        nbrs[v].add(u)
        factors.setdefault((min(u, v), max(u, v)), []).extend(
            [WEIGHT] * val if mode == "weighted" else
            [ARC if u < v else ARC_T] if mode == "directed" else [ADJ])

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
                weight[x] = _mul(weight[x], _apply(factor(x, v), weight[v]))
                remove(v)
    core = sorted(nbrs)
    plain = all(f == [ADJ] for f in factors.values())
    if len(core) == 1:
        return _total(weight[core[0]])
    if len(core) == 2 and plain:
        x, y = (weight[v] for v in core)
        if ONE in (x, y):
            return _total(_mul(_spread(ONE), x, y))
        return ("edge",) + tuple(sorted((x, y), key=repr))
    if len(core) == 3 and plain:
        if all(weight[v] == ONE for v in core):
            return ("tri",)
        return ("tri",) + tuple(sorted((weight[v] for v in core), key=repr))
    if len(core) == 4 and len(factors) == 6 and plain:
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
    m = factor(x, y)
    if weight[x] == weight[y] == ONE and m[0] == "had" and len(m) == 3:
        return ("frob",) + m[1:]
    return ("quad", weight[x], m, weight[y])


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
    """The longest _length of a matrix product in e, 0 if it has none.  A
    product of length L builds at most as many entries as the host has
    walks of length L; the host's own matrices hold one entry per arc."""
    if not isinstance(e, tuple):
        return 0
    inner = max(map(_walk_length, e[1:]), default=0)
    return max(inner, _length(e)) if e[0] == "path" else inner


def _dense_expressions(exprs):
    """The expressions of a dense host (n' x n' matrices), rewritten in one
    pass so that _compile shares the new steps.  Ordered triangles weighted
    x, y, z (interchangeable, a ONE last) are quad(x, A o A diag(z) A, y),
    the plain ones T = A o A^2 summed once the patterns build A^2 (order 4
    on); quad(x, m, y) is x . (m @ y) and edge(x, y) x . (A @ y).  A path
    of weight ONE is a plain product, and frob(A, Y @ A) or frob(A, A @ Y)
    is frob(Y, A^2), A being symmetric."""
    done = {}

    def rewrite(e):
        if e not in done:
            done[e] = _dense_node(*(rewrite(a) if isinstance(a, tuple) else a
                                    for a in e))
        return done[e]

    dense = [rewrite(e) for e in exprs]
    if ("path", ADJ, ONE, ADJ) in done:
        dense = [_dense_node("tri", ONE, ONE, ONE) if e == ("tri",) else e
                 for e in dense]
    return dense


def _dense_node(op, *args):
    """One node of a dense expression, its operands already rewritten."""
    if op == "path" and args[1] == ONE:
        return ("matmul", args[0], args[2])
    if op == "tri" and args:
        x, y, z = sorted(args, key=lambda w: (w == ONE, repr(w)))
        op, args = "quad", (x, _product("had", [
            ADJ, _dense_node("path", ADJ, z, ADJ)]), y)
    if op == "quad":
        mv = ("mv",) + args[1:]
        return ("sum", mv) if args[0] == ONE else ("dot", args[0], mv)
    if op == "edge":   # never with a ONE (see _hom_expression)
        return ("dot", args[0], _spread(args[1]))
    if op == "frob" and args[0] == ADJ and args[1][0] == "matmul" \
            and ADJ in args[1][1:]:
        left, right = args[1][1:]
        return ("frob", right if left == ADJ else left,
                _dense_node("path", ADJ, ONE, ADJ))
    return (op,) + args


def _compile(exprs):
    """One program for all expressions, each distinct subexpression one
    step in dependency order.  Returns (the slot of each expression,
    steps); a step is (function, operand slots, slots freed after it)."""
    slots = {}
    program = []

    def visit(e):
        got = slots.get(e)
        if got is None:
            if isinstance(e, tuple):
                args = tuple(visit(a) for a in e[1:])
                program.append((_OPS[e[0]], args))
            else:
                program.append((functools.partial(_op_literal, e), ()))
            got = slots[e] = len(program) - 1
        return got

    out = [visit(e) for e in exprs]
    keep = set(out)
    last = {arg: step for step, (_, args) in enumerate(program)
            for arg in args if arg not in keep}
    return out, tuple(
        (op, args, tuple(dict.fromkeys(a for a in args
                                       if last.get(a) == step)))
        for step, (op, args) in enumerate(program))


def _hom_source(rows, steps):
    """(source, names): the Python source of one program as a function
    hom(h) of the host, and the ops it calls by name.  Step i is the line
    v<i> = <op>(h, <operand values>), calling its op by the op's own name
    (a literal's as _literal<i>), followed by a del of the values it
    frees; the function returns one integer-coefficient Moebius sum per
    row, in row order.  Only the program's ops, slots and coefficients
    enter the source."""
    names = {}
    lines = ["def hom(h):"]
    for i, (op, args, dead) in enumerate(steps):
        name = f"_literal{i}" if isinstance(op, functools.partial) \
            else op.__name__
        names[name] = op
        lines.append(f"    v{i} = {name}(h{''.join(f', v{a}' for a in args)})")
        if dead:
            lines.append(f"    del {', '.join(f'v{a}' for a in dead)}")
    lines.append("    return (")
    for _, _, slots, coeffs in rows:
        terms = []
        for slot, c in zip(slots, coeffs):
            factor = "" if abs(c) == 1 else f"{abs(c)} * "
            terms.append(f"{'-' if c < 0 else '+'} {factor}v{slot}")
        lines.append(f"        {' '.join(terms).removeprefix('+ ')},")
    lines.append("    )")
    return "\n".join(lines) + "\n", names


@lru_cache(maxsize=None)
def _hom_function(r_max, mode, labels, dense):
    """The program _hom_basis builds for this universe and host form as
    one Python function of a _Host, which returns the Moebius sum of each
    row (see _hom_source).  Generated and compiled once, the first time a
    host of that form runs; it sees its ops and literals and no builtins.
    """
    source, names = _hom_source(*_hom_basis(r_max, mode, labels)[0][dense])
    namespace = {"__builtins__": {}, **names}
    exec(compile(source, f"<hom program: {mode} order {r_max}, {labels} "
                 f"labels, {'dense' if dense else 'sparse'}>", "exec"),
         namespace)
    return namespace["hom"]


# The matrix products of a hom program hold about 100 bytes per walk they
# enumerate (order 6 on a sparse 20,000-node graph); past this many walks
# the order is refused.
MATRIX_WALKS = 2 ** 22

# A float64 graph with at most this many non-isolated nodes is dense (see
# _Host): the largest n at which the dense form was never slower than the
# sparse one.  count_connected in us, dense / sparse, min of 15 interleaved
# rounds on a loaded 2-CPU host (OpenBLAS), on ER graphs of mean degree d
# with no isolated node:
#
#    d order   n = 64      80        96        112        128
#    2   3     69/80      67/81     67/82     78/94      86/101
#    2   4    218/280    179/264   213/270   293/311    620/377
#    2   5    478/687    425/729   575/819  1031/868   1271/972
#    6   3     87/113     95/124   120/157    84/99     140/170
#    6   4    240/703    446/1154  219/542   507/627    957/1016
#    6   5    382/2176   453/2772  479/2198  974/2733  1310/3765
#   12   3     81/115     99/145   180/258   134/215    142/218
#   12   4    182/853    223/1100  277/1328  759/1824   531/2351
#   12   5    351/5301   464/7925  573/9860  888/13542 1309/16286
#
# At d = 6 and n = 80 / 96 / 112: directed order 4 855/1903, 1129/1832 and
# 1644/2032; weighted order 4 441/1379, 556/1569 and 873/2742; attributed
# order 3 657/738, 638/729 and 1213/1373.  At 112 nodes, d = 2 and order
# 5, dense won two earlier runs (617/657 and 584/591) and lost this one:
# its BLAS products suffer more from a loaded host than the sparse steps.
DENSE_NODES = 96


def unique(values, inverse=False):
    """np.unique of a 1-d array (and its inverse), by a sort and a mask of
    the sorted values that differ from their left neighbour: np.unique
    itself imports numpy.ma on its first call."""
    order = values.argsort() if inverse else None
    ordered = values[order] if inverse else np.sort(values)
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    if not inverse:
        return ordered[first]
    rank = np.empty(len(ordered), dtype=np.intp)
    rank[order] = first.cumsum() - 1
    return ordered[first], rank


def _ranked(ends, n):
    """(ids, ranks): the ids in ends (each below n), sorted, and each end
    replaced by its id's rank; by a table over the ids, or by a sort where
    the ids are spread wider than there are ends.  Where no id is missing
    the ranks are the ends themselves.  At 80 nodes and 542 ends, on a
    2-CPU x86-64 host, the table took 5.3 us, 11.6 with the cumsum, and
    unique 28.5."""
    if n > len(ends):
        return unique(ends, inverse=True)
    seen = np.zeros(n, dtype=bool)
    seen[ends] = True
    ids = np.flatnonzero(seen)
    return ids, ends if len(ids) == n else (seen.cumsum() - 1)[ends]


class _Host:
    """The arrays a hom program reads: one graph's non-isolated nodes, or a
    stack of graphs (see count_connected).

    One graph: the skeleton is the simple graph of the linked node pairs,
    on n' nodes.  Built at once: the skeleton's edges (first, second)
    u < v and degrees, the arcs (tail, head) in G.edges order, each node's
    label index and the weights scaled to integers by scale, the lcm of
    their denominators (both None if unweighted).  The dtype is float64
    while 2m * Delta^(k-2) * W^r (m skeleton edges, Delta its maximum
    degree, k = pattern nodes, W the largest scaled weight, r = r_max)
    bounds every partial sum below 2^53, int64 below 2^63, and object
    (Python ints) past that: each partial sum is a hom value of a
    connected pattern with at most k nodes and r edge units, one arc and
    k-2 steps along a spanning tree.

    dense picks the form, and with it the program (see _hom_basis): a
    float64 host with n' <= DENSE_NODES is dense, and numbers its nodes by
    rank of id.  Built on first use: the boolean n' x n' array linked;
    the adjacency and arc arrays in the host's dtype, for the matrix
    steps; common, each edge's row of its ends' common neighbours.  Every
    step is a BLAS product, an elementwise one or a count over boolean
    rows.  Every entry of these arrays and of the products the program
    builds (T = A o A^2 and A diag(z) A among them), and every per-node
    or per-pair term, is a sum of nonnegative integers, each a partial hom
    sum of the pattern the step counts (some nodes' images fixed), so it
    is under the same 2^53 bound and the order BLAS sums in cannot round.

    Any other host is sparse and numbers its nodes by (skeleton degree,
    id), which puts the apex of every wedge b - a - c with a < b < c at
    its lowest-degree node, so there are O(m sqrt(m)) of them and a star
    has none.  Built on first use: the sorted skeleton edges, the
    adjacency lists (the sparse matrix ADJ), the wedges and triangles.  A
    matrix is sparse, its nonzero entries as sorted codes x * n' + y and
    values, and a program whose products walk L steps needs at most
    MATRIX_WALKS skeleton walks of that length, checked before any matrix
    is built.

    A stack is dense in every dtype.  Each graph keeps its n nodes,
    isolated ones included; vectors are (B, n) arrays, matrices (B, n, n),
    and the bound is taken over the whole stack.  Each step runs along the
    last axes as on one graph, so a scalar step sums once per graph, and
    the program is the dense one.  blocks(lo, hi) is the host of a
    slice, with its own linked array.  first and second list every pair
    u < v of a graph, and common keeps the rows of the linked ones.
    """

    def __init__(self, G, pattern_nodes, walk, r_max):
        self.scale, self.weights, top_weight = None, None, 1
        self.stack = isinstance(G, np.ndarray)
        if self.stack:
            self.linked, self.n = G, G.shape[-1]
            self.deg = G.sum(-1)
            self.first, self.second = np.triu_indices(self.n, 1)
            links, top = int(self.deg.sum()), int(self.deg.max())
        else:
            ids, ends = _ranked(np.fromiter(
                itertools.chain.from_iterable(G.edges), dtype=np.int64,
                count=2 * len(G.edges)), G.n)
            n = self.n = len(ids)
            pairs = ends   # the skeleton's edges, end by end
            if G.directed:   # a reciprocal pair of arcs is one skeleton edge
                # coded over the ranks: a code over the ids themselves
                # passes 2^63 for ids past about 3 * 10^9
                a, b = ends[0::2], ends[1::2]
                codes = unique(np.minimum(a, b) * n + np.maximum(a, b))
                pairs = np.stack(np.divmod(codes, n), 1).ravel()
            deg = np.bincount(pairs, minlength=n)
            links, top = len(pairs), int(deg.max())
            if G.weighted:
                self.scale = math.lcm(*(w.denominator
                                        for w in G.edges.values()))
                self.weights = [w.numerator * (self.scale // w.denominator)
                                for w in G.edges.values()]
                top_weight = max(max(self.weights), 1)
        bound = links * top ** (pattern_nodes - 2) * top_weight ** r_max
        self.dtype = (np.float64 if bound < 2 ** 53 else
                      np.int64 if bound < 2 ** 63 else object)
        self.dense = self.stack or \
            self.dtype is np.float64 and self.n <= DENSE_NODES
        if self.stack:
            return
        if not self.dense:   # renumbered by (degree, id)
            by_degree = deg.argsort(kind="stable")
            rank = by_degree.argsort()
            ends = rank[ends]
            pairs = rank[pairs] if G.directed else ends
            ids, deg = ids[by_degree], deg[by_degree]
        self.tail, self.head, self.deg = ends[0::2], ends[1::2], deg
        a, b = pairs[0::2], pairs[1::2]
        self.first, self.second = np.minimum(a, b), np.maximum(a, b)
        if G.node_attrs is not None:
            index = {label: i for i, label in enumerate(G.labels())}
            self.color = np.array([index[G.node_attrs[v]]
                                   for v in ids.tolist()])
        if walk and not self.dense:
            w = self.deg.astype(np.float64)
            for _ in range(walk - 1):
                w = _op_spread(self, w)
            if w.sum() > MATRIX_WALKS:
                raise OrderCapError(
                    f"order {r_max} needs the graph's {int(w.sum())} walks "
                    f"of length {walk}, more than the {MATRIX_WALKS} the "
                    "matrix products are capped at; use a lower order")

    def blocks(self, lo, hi):
        """The host of graphs lo .. hi - 1 of a stack."""
        part = copy.copy(self)
        part.deg, part.linked = self.deg[lo:hi], self.linked[lo:hi]
        return part

    @functools.cached_property
    def linked(self):
        """The skeleton's n' x n' boolean adjacency array on a dense host."""
        linked = np.zeros((self.n, self.n), dtype=bool)
        linked[self.first, self.second] = True
        linked[self.second, self.first] = True
        return linked

    @functools.cached_property
    def adjacency(self):
        """linked in the host's dtype, for the matrix steps."""
        return self.linked.astype(self.dtype)

    @functools.cached_property
    def common(self):
        """For each linked pair (first, second), the boolean row of its
        ends' common neighbours, on a dense host."""
        common = self.linked.take(self.first, -2) & self.linked.take(
            self.second, -2)
        if self.stack:   # the rows of pairs not linked in a graph: False
            common &= self.linked[..., self.first, self.second, None]
        return common

    @functools.cached_property
    def arcs(self):
        """The n' x n' array of arcs (scaled weights) on a dense host."""
        return self.matrix(self.tail, self.head, self.weights)

    @functools.cached_property
    def edges(self):
        """(codes, u, v, ends of the runs): the skeleton edges u < v as
        codes u * n' + v, sorted, so the neighbours of x above it run up
        to ends[x]."""
        codes = self.first * self.n + self.second
        codes.sort()
        u, v = np.divmod(codes, self.n)
        return codes, u, v, np.bincount(u, minlength=self.n).cumsum()

    @functools.cached_property
    def lists(self):
        """(arcs, neighbours, start of each node's run): both directions
        of every skeleton edge as sorted codes x * n' + y, and adjacency
        lists."""
        codes, u, v, _ = self.edges
        arcs = np.concatenate((codes, v * self.n + u))
        arcs.sort()
        return arcs, arcs % self.n, self.deg.cumsum() - self.deg

    def has_edge(self, a, b):
        """Elementwise: is (a, b), a < b, a skeleton edge?"""
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

    def matrix(self, rows, cols, values=None):
        """The matrix with these entries (ones by default), in the host's
        form; no entry is given twice."""
        if self.dense:
            m = np.zeros((self.n, self.n), dtype=self.dtype)
            m[rows, cols] = 1 if values is None else values
            return m
        codes = rows * self.n + cols
        order = codes.argsort()
        if values is None:
            return codes[order], np.ones(len(codes), dtype=self.dtype)
        return codes[order], np.array(values, dtype=self.dtype)[order]


def _runs(stops, counts):
    """The positions stops[i] - counts[i] .. stops[i] - 1, for each i in
    turn."""
    return np.arange(counts.sum()) + (stops - counts.cumsum()).repeat(counts)


def _exact(total):
    """A scalar step's total as a Python int, or on a stack an object array
    of one Python int per graph."""
    if not isinstance(total, np.ndarray):
        return int(total)
    return (total if total.dtype == object else
            total.astype(np.int64)).astype(object)


def _op_literal(value, h):
    return value


def _op_one(h):
    return np.ones(h.deg.shape, dtype=h.dtype)


def _op_label(h, color):
    return (h.color == color).astype(h.dtype)


def _op_deg(h):
    return h.deg.astype(h.dtype)


def _op_spread(h, w):
    if h.dense:
        return np.matvec(h.adjacency, w)
    _, nbr, starts = h.lists
    return np.add.reduceat(w[nbr], starts)


def _op_product(h, *operands):
    return functools.reduce(operator.mul, operands)


# The scalar steps (sum, dot, edge, tri, k4, quad, frob) return a
# Python int, or on a stack an object array of one Python int per graph.

def _op_sum(h, w):
    return _exact(w.sum(-1))


def _op_dot(h, x, y):
    return _exact(np.vecdot(x, y))


def _op_edge(h, x, y):
    a, b = h.first, h.second
    if x is y:
        return 2 * int(x[a] @ x[b])
    return int(x[a] @ y[b] + x[b] @ y[a])


def _op_tri(h, *w):
    if h.dense:   # only the plain triangles of order 3 (_dense_expressions)
        return _exact(2 * np.count_nonzero(
            h.common, axis=(-2, -1) if h.stack else None))
    if not w:
        return 6 * int(np.count_nonzero(h.wedges[3]))
    a, b, c = h.triangles
    x, y, z = w
    return int((x[a] * (y[b] * z[c] + y[c] * z[b])
                + x[b] * (y[a] * z[c] + y[c] * z[a])
                + x[c] * (y[a] * z[b] + y[b] * z[a])).sum())


def _op_k4(h):
    """24 times the K4s: triangles a < b < c and a neighbour d > c of c
    adjacent to a and b.  On a dense host: for each linked pair (first,
    second), the ordered pairs of adjacent common neighbours of its ends,
    two per edge of each K4."""
    if h.dense:
        common = h.common.astype(h.dtype)
        return _exact(2 * ((common @ h.adjacency) * common).sum((-2, -1)))
    codes, _, v, ends = h.edges
    a, b, c = h.triangles
    stop = ends[c]
    count = stop - codes.searchsorted(c * (h.n + 1))
    d = v[_runs(stop, count)]
    a = a.repeat(count)
    hit = h.has_edge(a, d) & h.has_edge(b.repeat(count), d)
    return 24 * int(np.count_nonzero(hit))


# A matrix over node pairs is an array on a dense host (see _Host), and
# otherwise sparse: (codes, values), the codes x * n' + y of its nonzero
# entries sorted.

def _op_adj(h):
    if h.dense:
        return h.adjacency
    arcs = h.lists[0]
    return arcs, np.ones(len(arcs), dtype=h.dtype)


def _op_arc(h):
    return h.arcs if h.dense else h.matrix(h.tail, h.head)


def _op_arc_t(h):
    return h.arcs.mT if h.dense else h.matrix(h.head, h.tail)


def _op_weight(h):
    if h.dense:
        return h.arcs + h.arcs.mT
    return h.matrix(np.concatenate((h.tail, h.head)),
                    np.concatenate((h.head, h.tail)), h.weights * 2)


def _op_path(h, left, w, right):
    """left @ diag(w) @ right: every walk i -> k in left continued by one
    k -> j in right, summed per (i, j)."""
    if h.dense:
        return (left * w[..., None, :]) @ right
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


def _op_matmul(h, left, right):
    return left @ right


def _op_had(h, *matrices):
    """The elementwise product."""
    if h.dense:
        return _op_product(h, *matrices)

    def had(x, y):
        (xc, xv), (yc, yv) = x, y
        if not len(yc):
            return y
        at = yc.searchsorted(xc)
        hit = yc.take(at, mode="clip") == xc
        return xc[hit], xv[hit] * yv[at[hit]]
    return functools.reduce(had, matrices)


def _op_mv(h, m, w):
    if h.dense:
        return np.matvec(m, w)
    codes, vals = m
    total = np.concatenate(([0], (vals * w[codes % h.n]).cumsum()))
    return np.diff(total[codes.searchsorted(np.arange(h.n + 1) * h.n)])


def _op_frob(h, p, q):
    """The sum of the entries of the elementwise product p * q."""
    if h.stack:
        return _exact((p * q).sum((-2, -1)))
    if h.dense:
        return int(np.vdot(p, q))
    return int(_op_had(h, p, q)[1].sum())


def _op_quad(h, x, m, y):
    codes, vals = m
    i, j = np.divmod(codes, h.n)
    return int((x[i] * vals) @ y[j])


_OPS = {"one": _op_one, "label": _op_label, "deg": _op_deg,
        "spread": _op_spread, "mul": _op_product, "sum": _op_sum,
        "dot": _op_dot, "edge": _op_edge, "tri": _op_tri, "k4": _op_k4,
        "adj": _op_adj, "arc": _op_arc, "arc_t": _op_arc_t,
        "weight": _op_weight, "path": _op_path, "matmul": _op_matmul,
        "had": _op_had, "mv": _op_mv, "quad": _op_quad, "frob": _op_frob}


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
def _derivation_positions(mode, r_max, labels):
    """The graph-independent half of derive_disconnected, built once per
    universe.

    Returns (ids, connected count, steps).  ids lists the connected ids,
    then the disconnected ones in solving order: edge count, then
    component count.  The step of the disconnected class at position p is
    (first-component position, remainder position, other terms as
    (position, coefficient) pairs, self coefficient).
    """
    uni = universe(mode, r_max, labels)
    connected = []
    splits = []
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
            splits.append((ci.id, c_id, h_id, table))
    ids = tuple(connected) + tuple(split[0] for split in splits)
    at = {sid: p for p, sid in enumerate(ids)}
    return ids, len(connected), tuple(
        (at[c_id], at[h_id], tuple((at[gid], coeff)
                                   for gid, coeff in table.items()
                                   if gid != sid), table[sid])
        for sid, c_id, h_id, table in splits)


def derive_disconnected(connected_counts, G, r_max):
    """Extend connected counts to every class with <= r_max edges.

    Returns dict SubgraphId -> count covering the full universe (zero counts
    included).  For a stack G the counts are columns, as count_connected
    returns them; the steps then run on the columns, and a count read from
    no column (a missing class is a scalar zero) stands for every graph.
    Only arithmetic runs per call, on a list indexed by the positions of
    _derivation_positions.  Raises ValueError on a negative derived count
    in any graph, which signals inconsistent input counts.
    """
    mode, labels = graph_mode(G)
    check_order(mode, r_max)
    ids, n_connected, steps = _derivation_positions(mode, r_max, labels)
    weighted = mode == "weighted"
    zero = Fraction(0) if weighted else 0
    counts = [connected_counts.get(sid, zero) for sid in ids[:n_connected]]
    nonzero = np.any if isinstance(G, np.ndarray) else bool
    for c, h, terms, self_coeff in steps:
        acc = counts[c] * counts[h]
        for g, coeff in terms:
            acc -= coeff * counts[g]
        if weighted:
            value = acc * Fraction(1, self_coeff)
        else:
            value = acc // self_coeff
            if nonzero(acc % self_coeff):
                raise AssertionError(
                    f"non-integer derived count for "
                    f"{ids[len(counts)].serialize()}")
        if nonzero(value < 0):
            raise ValueError(
                f"negative derived count for {ids[len(counts)].serialize()}: "
                "inconsistent input counts")
        counts.append(value)
    return dict(zip(ids, counts))


def full_counts(G, r_max):
    """Connected counts plus disconnected derivation of a Graph, or of every
    graph of a stack at once as columns (see count_connected and
    derive_disconnected)."""
    return derive_disconnected(count_connected(G, r_max), G, r_max)
