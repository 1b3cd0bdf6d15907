"""Canonical forms for small vertex-colored (multi)graphs.

Canonicalization works on graphs with at most ~9 nodes: iterative color
refinement followed by exhaustive permutation within the refined cells.
Edge values are small nonnegative integers (multiplicities, possibly with a
mark bit folded in); node colors are small nonnegative integers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# Above this many candidate permutations, switch to the vectorized search.
_NUMPY_THRESHOLD = 3000


@dataclass(frozen=True)
class CanonicalResult:
    key: bytes      # canonical encoding, identical for all isomorphic inputs
    aut: int        # order of the automorphism group
    perm: tuple     # perm[i] = original node placed at canonical position i


def _refine_colors(k, colors, adj):
    """Iteratively split node colors by the multiset of colored neighborhoods.

    adj is a k x k array of edge values (for undirected graphs it is
    symmetric).  Returns a tuple of stable integer colors.
    """
    colors = list(colors)
    while True:
        sigs = []
        for i in range(k):
            nbr = sorted((colors[j], adj[i][j], adj[j][i])
                         for j in range(k) if j != i)
            sigs.append((colors[i], tuple(nbr)))
        order = sorted(set(sigs))
        rank = {s: c for c, s in enumerate(order)}
        new_colors = [rank[s] for s in sigs]
        if new_colors == colors:
            return tuple(colors)
        colors = new_colors


def _candidate_perms(k, refined):
    """All orderings compatible with the refined cells, as tuples where
    position i holds the original node id placed at canonical slot i."""
    cells = {}
    for node, c in enumerate(refined):
        cells.setdefault(c, []).append(node)
    cell_lists = [cells[c] for c in sorted(cells)]
    for combo in itertools.product(*(itertools.permutations(c) for c in cell_lists)):
        yield tuple(itertools.chain.from_iterable(combo))


def _perm_count(refined):
    total = 1
    counts = {}
    for c in refined:
        counts[c] = counts.get(c, 0) + 1
    for v in counts.values():
        total *= math.factorial(v)
    return total


def _pair_order(k, directed):
    if directed:
        return [(i, j) for i in range(k) for j in range(k) if i != j]
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


def canonicalize(k, edges, directed=False, colors=None):
    """Canonical form of a small colored multigraph.

    edges: iterable of (u, v, value) with value >= 1; for undirected graphs
    each unordered pair appears once.  colors: per-node ints (default all 0).
    """
    if colors is None:
        colors = (0,) * k
    colors = tuple(colors)
    adj = [[0] * k for _ in range(k)]
    for u, v, val in edges:
        adj[u][v] = val
        if not directed:
            adj[v][u] = val

    if k == 0:
        return CanonicalResult(key=bytes([0, int(directed)]), aut=1, perm=())

    refined = _refine_colors(k, colors, adj)
    pairs = _pair_order(k, directed)

    if _perm_count(refined) > _NUMPY_THRESHOLD:
        best_row, aut, best_perm = _search_numpy(k, adj, refined, pairs)
    else:
        best_row, aut, best_perm = _search_python(k, adj, refined, pairs)

    init = tuple(colors[p] for p in best_perm)
    key = bytes([k, int(directed)]) + bytes(init) + bytes(best_row)
    return CanonicalResult(key=key, aut=aut, perm=best_perm)


def _search_python(k, adj, refined, pairs):
    best = None
    best_perm = None
    aut = 0
    for p in _candidate_perms(k, refined):
        row = tuple(adj[p[i]][p[j]] for i, j in pairs)
        if best is None or row < best:
            best, best_perm, aut = row, p, 1
        elif row == best:
            aut += 1
    return best, aut, best_perm


def _search_numpy(k, adj, refined, pairs):
    perms = np.array(list(_candidate_perms(k, refined)), dtype=np.int64)
    A = np.array(adj, dtype=np.int64)
    cols = np.empty((perms.shape[0], len(pairs)), dtype=np.int64)
    for idx, (i, j) in enumerate(pairs):
        cols[:, idx] = A[perms[:, i], perms[:, j]]
    order = np.lexsort(cols.T[::-1])
    best_idx = order[0]
    best_row = cols[best_idx]
    aut = int(np.all(cols == best_row, axis=1).sum())
    return tuple(int(x) for x in best_row), aut, tuple(int(x) for x in perms[best_idx])
