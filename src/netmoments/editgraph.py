"""The weighted directed edit graph H_n and its Laplacian spectrum.

Nodes are isomorphism classes of simple graphs on n nodes; a directed edge
i -> j with weight w means w single node-pair edits (adding or removing one
edge) turn a representative of class i into a graph of class j.  Every
node's out-degree is C(n,2).  The Laplacian L = D_out - A^T has an exactly
integral spectrum: the multiplicity of eigenvalue r equals the number of
distinct subgraph classes with exactly r edges embeddable in n nodes.

build_edit_graph classifies one edge removal per automorphism orbit of
each representative's edges by its node invariants, and derives every
addition from the removals through the classes' multiplicities (see its
docstring).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import canonicalize, orbits
from .ergm import (SizeCapError, _adjacency, _edges, enumerate_classes,
                   graph_invariants)

EDIT_NODE_CAP = 6


@dataclass
class EditGraph:
    n: int
    table: object            # GraphClassTable of the class nodes
    adjacency: np.ndarray    # integer weights, adjacency[i, j] = w(i -> j)

    def __len__(self):
        return len(self.table)

    def laplacian(self):
        """L = (D_out - A^T) / 2.

        The half-step normalization corresponds to resampling a node pair
        rather than flipping it (a lazy edit walk).  Under the raw flip
        walk every edit switches edge-count parity and all eigenvalues
        double; with the lazy normalization the eigenvalue r counts the
        subgraph classes with exactly r edges, which is the structural
        fact this module exists to expose.
        """
        out_deg = self.adjacency.sum(axis=1)
        return (np.diag(out_deg.astype(np.float64))
                - self.adjacency.T) / 2.0


def build_edit_graph(n):
    """Construct H_n from edge removals.

    Each representative is canonicalized once, for generators of its
    automorphism group.  Removing edges of one automorphism orbit gives
    isomorphic graphs (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 1998), so one removal per edge orbit, the
    representative's word with that edge's bit cleared, is classified and
    weighted by the orbit's size.  A removal's class is read from its
    sorted node codes (ergm.graph_invariants), which tell every class
    apart.  Additions follow from the removals: the labelled graphs of
    class i and of class j one edge apart are counted from either side,
    so mult_i * w(i -> j) = mult_j * w(j -> i), and each division is
    checked to be exact."""
    if n > EDIT_NODE_CAP:
        raise SizeCapError(f"edit graph capped at n={EDIT_NODE_CAP}")
    table = enumerate_classes(n)
    k = len(table)
    rows, removals, sizes = [], [], []
    for j, word in enumerate(table.reps):
        edges = _edges(word, n)
        res = canonicalize(n, [(u, v, 1) for u, v in edges])
        for (u, v), size in _edge_orbits(edges, res.generators):
            rows.append(j)
            removals.append(word & ~(1 << (v * (v - 1) // 2 + u)))
            sizes.append(size)
    adj = np.zeros((k, k), dtype=np.int64)
    if removals:
        class_of = {inv: c for c, inv
                    in enumerate(graph_invariants(table.stack(np.int64)))}
        if len(class_of) < k:
            raise AssertionError(
                f"classes on {n} nodes share a node invariant")
        found = [class_of.get(inv)
                 for inv in graph_invariants(_adjacency(removals, n))]
        if None in found:
            raise AssertionError(
                f"an edge removal on {n} nodes matches no class")
        np.add.at(adj, (rows, found), sizes)
    mults = table.mults
    for j, i in zip(*np.nonzero(adj)):   # removals j -> i, additions i -> j
        added, rem = divmod(mults[j] * int(adj[j, i]), mults[i])
        if rem:
            raise AssertionError(
                f"edit-graph weights of classes {i} and {j} do not balance "
                "their multiplicities")
        adj[i, j] = added
    if not (adj.sum(axis=1) == n * (n - 1) // 2).all():
        raise AssertionError(
            f"edit-graph out-degrees differ from C({n},2)")
    return EditGraph(n=n, table=table, adjacency=adj)


def _edge_orbits(edges, generators):
    """(first edge, size) of each orbit of the node permutations on the
    edges u < v, in order of first edge."""
    return orbits(edges, generators, _edge_image)


def _edge_image(g, edge):
    u, v = g[edge[0]], g[edge[1]]
    return (u, v) if u < v else (v, u)


SPECTRUM_TOL = 1e-8  # the spectrum is integral: a larger residual is a bug


def laplacian_spectrum(h: EditGraph):
    """Eigenvalues of L = D_out - A^T, snapped to integers.

    Returns a sorted list of (eigenvalue, multiplicity) pairs.  A residual
    above SPECTRUM_TOL signals a construction bug and raises.
    """
    vals = np.linalg.eigvals(h.laplacian())
    snapped = np.rint(vals.real)
    residual = np.abs(vals - snapped).max()
    if residual > SPECTRUM_TOL:
        raise AssertionError(
            f"non-integral edit-graph eigenvalue (residual {residual:.3e})")
    out = {}
    for v in snapped.astype(int):
        out[v] = out.get(v, 0) + 1
    return sorted(out.items()), float(residual)
