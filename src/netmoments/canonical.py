"""Canonical forms for small vertex-colored (multi)graphs.

Canonicalization works on graphs with at most ~9 nodes.  Iterative color
refinement orders the nodes into cells; the canonical key is then the
lexicographically smallest row-major encoding of the edge values over all
orderings that keep the cells in place.  The search for it fills canonical
slots one at a time and keeps only the partial orderings whose current row
is smallest, in the spirit of individualization-refinement (McKay and
Piperno, "Practical graph isomorphism, II").  Edge values are small
nonnegative integers (multiplicities); node colors are integers below 256.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import or_


@dataclass(frozen=True)
class CanonicalResult:
    key: bytes      # canonical encoding, identical for all isomorphic inputs
    aut: int        # order of the automorphism group
    order: tuple    # the input node at each canonical slot
    generators: tuple   # permutations (perm[v] = image of v) generating Aut


def _refine_colors(k, colors, adj):
    """Iteratively split node colors by the multiset of colored neighborhoods.

    adj is a k x k array of edge values (for undirected graphs it is
    symmetric).  Returns a tuple of stable integer colors.

    Node i's signature is its color followed by the sorted codes
    color_j << 16 | adj[i][j] << 8 | adj[j][i] over j != i.  Edge values
    lie below 256, so the codes sort as the (color, out, in) triples they
    encode, and the colors rank as with the triples themselves.
    """
    rows = [[adj[i][j] << 8 | adj[j][i] for j in range(k)] for i in range(k)]
    colors = list(colors)
    while True:
        high = [c << 16 for c in colors]
        sigs = []
        for i in range(k):
            codes = list(map(or_, high, rows[i]))
            del codes[i]
            codes.sort()
            sigs.append((colors[i], *codes))
        rank = {s: c for c, s in enumerate(sorted(set(sigs)))}
        new_colors = [rank[s] for s in sigs]
        if new_colors == colors:
            return tuple(colors)
        colors = new_colors


def canonicalize(k, edges, directed=False, colors=None):
    """Canonical form of a small colored multigraph.

    edges: iterable of (u, v, value) with value >= 1; for undirected graphs
    each unordered pair appears once.  colors: per-node ints (default all 0).
    The result also holds one canonical ordering and generators of the
    automorphism group, read from the orderings the search ends on.
    """
    if colors is None:
        colors = (0,) * k
    colors = tuple(colors)
    if max(colors, default=0) > 255:
        raise ValueError("node colors are encoded in one byte: "
                         "at most 256 labels are supported")
    adj = [[0] * k for _ in range(k)]
    for u, v, val in edges:
        if val > 255:
            raise ValueError("edge values are encoded in one byte: "
                             f"got {val}")
        adj[u][v] = val
        if not directed:
            adj[v][u] = val

    if k == 0:
        return CanonicalResult(key=bytes([0, int(directed)]), aut=1,
                               order=(), generators=())

    refined = _refine_colors(k, colors, adj)
    earlier_twin, twin_factor = _twins(k, adj, refined, directed)
    row, orders = _search(k, adj, refined, directed, earlier_twin)
    # Refinement only splits colors, so the cells in slot order carry the
    # input colors in ascending order.
    key = bytes([k, int(directed)]) + bytes(sorted(colors)) + bytes(row)
    return CanonicalResult(key=key, aut=len(orders) * twin_factor,
                           order=orders[0],
                           generators=_generators(k, orders, earlier_twin))


def _search(k, adj, refined, directed, earlier_twin):
    """Smallest row-major encoding over the orderings the refined cells
    allow, and the orderings (node per slot) that reach it.

    Row d holds the values from the node at slot d to the later slots, and
    for directed graphs first to the earlier slots too.  Slots are filled in
    order, each from the first remaining cell.  Once node v is placed, its
    row is smallest when every remaining cell is split by the value from v,
    in ascending order.  Keeping only the partial orderings with the
    smallest row d at each slot therefore ends on the lexicographic minimum,
    and every survivor is one automorphism.

    A partial ordering is (placed nodes, {unplaced node: cell id}).  Placing
    v gives node x the cell id 256 * id + value from v, so ids sort in cell
    order, the first cell holds the smallest id, and the sorted ids of the
    unplaced nodes are the later part of row d (value = id % 256).

    Twins (nodes of one cell that an automorphism swaps with each other
    alone) always share a cell, so they are placed in index order only, and
    each twin class multiplies the count by |class|!.
    """
    live = [((), dict(enumerate(refined)))]
    key = []
    for d in range(k):
        best = None
        survivors = []
        for placed, cell in live:
            first = min(cell.values())
            for v, c in cell.items():
                if c != first or earlier_twin[v] in cell:
                    continue
                to_v = adj[v]
                split = {x: 256 * cx + to_v[x] for x, cx in cell.items()
                         if x != v}
                row = sorted(split.values())
                if directed:
                    row[:0] = [to_v[u] for u in placed]
                if best is None or row < best:
                    best = row
                    survivors = []
                if row == best:
                    survivors.append((placed + (v,), split))
        live = survivors
        if directed:
            key += best[:d]
            best = best[d:]
        key += [c & 255 for c in best]
    return key, [placed for placed, _ in live]


def _generators(k, orders, earlier_twin):
    """Permutations that generate the automorphism group.

    The orderings the search ends on are the canonical orderings that place
    twins in index order, one per coset of the twin swaps.  Mapping slot s
    of the first ordering to slot s of another is an automorphism, and
    every automorphism is one of these composed with twin swaps; swapping
    each twin with the one before it generates the swaps.
    """
    gens = []
    for other in orders[1:]:
        perm = [0] * k
        for u, v in zip(orders[0], other):
            perm[u] = v
        gens.append(tuple(perm))
    for v, u in enumerate(earlier_twin):
        if u is not None:
            perm = list(range(k))
            perm[u], perm[v] = v, u
            gens.append(tuple(perm))
    return tuple(gens)


def orbits(items, generators, image):
    """(first item, size) of each orbit of the group the permutations
    generate, acting on items by image(perm, item), in order of first
    item.  The items must be closed under the action."""
    seen = set()
    for first in items:
        if first in seen:
            continue
        seen.add(first)
        orbit = [first]
        for item in orbit:
            for g in generators:
                other = image(g, item)
                if other not in seen:
                    seen.add(other)
                    orbit.append(other)
        yield first, len(orbit)


def _twins(k, adj, refined, directed):
    """Twin classes: the earlier node of each node's class (None for the
    first) and the product of |class|! over the classes.  Swapping u and v
    is an automorphism when u's row and column, with entries u and v
    exchanged, equal v's row and column."""
    cols = [list(col) for col in zip(*adj)] if directed else None

    def swapped(line, u, v):
        line = list(line)
        line[u], line[v] = line[v], line[u]
        return line

    earlier = [None] * k
    factor = 1
    classes = {}
    for v in range(k):
        for cls in classes.setdefault(refined[v], []):
            u = cls[0]
            if swapped(adj[u], u, v) == adj[v] and (
                    not directed or swapped(cols[u], u, v) == cols[v]):
                earlier[v] = cls[-1]
                cls.append(v)
                factor *= len(cls)
                break
        else:
            classes[refined[v]].append([v])
    return earlier, factor
