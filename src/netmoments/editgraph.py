"""The weighted directed edit graph H_n and its Laplacian spectrum.

Nodes are isomorphism classes of simple graphs on n nodes; a directed edge
i -> j with weight w means w single node-pair edits (adding or removing one
edge) turn a representative of class i into a graph of class j.  Every
node's out-degree is C(n,2).  The Laplacian L = D_out - A^T has an exactly
integral spectrum: the multiplicity of eigenvalue r equals the number of
distinct subgraph classes with exactly r edges embeddable in n nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import canonicalize
from .ergm import SizeCapError, enumerate_classes

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
    """Construct H_n by toggling every node pair of every class
    representative and classifying the result."""
    if n > EDIT_NODE_CAP:
        raise SizeCapError(f"edit graph capped at n={EDIT_NODE_CAP}")
    table = enumerate_classes(n)
    key_to_index = {key: i for i, key in enumerate(table.keys)}
    k = len(table)
    adj = np.zeros((k, k), dtype=np.int64)
    for i, edges in enumerate(table.reps):
        es = set(edges)
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) in es:
                    toggled = es - {(u, v)}
                else:
                    toggled = es | {(u, v)}
                key = canonicalize(n, [(a, b, 1) for a, b in toggled]).key
                adj[i, key_to_index[key]] += 1
    if not (adj.sum(axis=1) == n * (n - 1) // 2).all():
        raise AssertionError(
            f"edit-graph out-degrees differ from C({n},2)")
    return EditGraph(n=n, table=table, adjacency=adj)


def laplacian_spectrum(h: EditGraph, tol=1e-8):
    """Eigenvalues of L = D_out - A^T, snapped to integers.

    Returns a sorted list of (eigenvalue, multiplicity) pairs.  A residual
    above `tol` signals a construction bug and raises.
    """
    vals = np.linalg.eigvals(h.laplacian())
    snapped = np.rint(vals.real)
    residual = np.abs(vals - snapped).max()
    if residual > tol:
        raise AssertionError(
            f"non-integral edit-graph eigenvalue (residual {residual:.3e})")
    out = {}
    for v in snapped.astype(int):
        out[v] = out.get(v, 0) + 1
    return sorted(out.items()), float(residual)


def zero_eigenvector_residuals(h: EditGraph):
    """Residuals of the eigenvalue-0 pair: uniform left eigenvector and
    multiplicity-proportional right eigenvector."""
    L = h.laplacian()
    left = np.ones(len(h))
    right = np.array(h.table.mults, dtype=np.float64)
    right /= right.sum()
    scale = np.abs(L).max()
    return (float(np.abs(left @ L).max()) / scale,
            float(np.abs(L @ right).max()) / scale)
