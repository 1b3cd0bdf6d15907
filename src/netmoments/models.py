"""Seeded random-graph generators and feature-shuffling null models.

All randomness comes from numpy's counter-based Philox generator keyed by
the seed, so every draw is reproducible and independent of scheduling.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, GraphDataError, SizeCapError, make_graph

# Node pairs a generator may draw over.  er and ssbm hold about 33 bytes
# per pair of an n-node graph (two int64 indices, a uniform draw, a mask
# and for ssbm the pair's probability); bipartite_geometric holds the dot
# products of the two halves.  2^24 pairs allow n = 5,793 for er and ssbm
# and n = 8,192 for bipartite_geometric, about 0.6 GB at the cap.
MAX_PAIRS = 1 << 24


def seeded_rng(seed):
    """numpy's Philox generator keyed by seed, whose keys are 128-bit."""
    if not 0 <= seed < 2 ** 128:
        raise GraphDataError(f"seed must be in [0, 2^128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def _check_pairs(model, n, pairs):
    """Refuse before any pair array exists."""
    if n <= 0:
        raise GraphDataError("node count must be positive")
    if pairs > MAX_PAIRS:
        raise SizeCapError(
            f"{model} with n={n} draws over {pairs} node pairs; generators "
            f"are capped at 2^24 = {MAX_PAIRS} pairs")


def er(n, p, seed=0):
    """Erdos-Renyi G(n, p)."""
    _check_pairs("er", n, n * (n - 1) // 2)
    if p is None:
        raise GraphDataError("er needs p")
    p = float(p)
    if not 0 <= p <= 1:
        raise GraphDataError("p must lie in [0, 1]")
    iu, iv = np.triu_indices(n, 1)
    keep = seeded_rng(seed).random(iu.size) < p
    return make_graph(n, zip(iu[keep].tolist(), iv[keep].tolist()))


def ssbm_rates(n, assortativity, mean_degree):
    """Map (assortativity, mean degree) chart coordinates to the within and
    between probabilities (a, b) of SSBM(n, 2, a, b).

    Convention: assortativity rho = (a - b)/(a + b) at fixed mean degree
    d = a(n/2 - 1) + b n/2, so rho = 0 is ER, +1 two disjoint ER blocks,
    and -1 a random bipartite graph.
    """
    rho = float(assortativity)
    d = float(mean_degree)
    if not -1 <= rho <= 1:
        raise GraphDataError("assortativity must lie in [-1, 1]")
    if n % 2:
        raise GraphDataError("SSBM with 2 communities needs even n")
    denom = (1 + rho) * (n / 2 - 1) / 2 + (1 - rho) * (n / 2) / 2
    if denom <= 0:
        raise GraphDataError(
            f"assortativity {rho} leaves no node pairs to draw for n={n}")
    s = d / denom
    a, b = s * (1 + rho) / 2, s * (1 - rho) / 2
    if not (0 <= a <= 1 and 0 <= b <= 1):
        raise GraphDataError(
            f"mean degree {d} infeasible at assortativity {rho} for n={n}")
    return a, b


def ssbm(n, a=None, b=None, assortativity=None, mean_degree=None, seed=0):
    """Symmetric stochastic block model with 2 equal communities.

    Give either the raw probabilities (a within, b between) or the chart
    coordinates (assortativity, mean_degree); see ssbm_rates for the
    mapping.
    """
    _check_pairs("ssbm", n, n * (n - 1) // 2)
    if a is None or b is None:
        if assortativity is None or mean_degree is None:
            raise GraphDataError(
                "ssbm needs (a, b) or (assortativity, mean_degree)")
        a, b = ssbm_rates(n, assortativity, mean_degree)
    if n % 2:
        raise GraphDataError("SSBM with 2 communities needs even n")
    if not (0 <= a <= 1 and 0 <= b <= 1):
        raise GraphDataError("probabilities must lie in [0, 1]")
    half = n // 2
    iu, iv = np.triu_indices(n, 1)
    prob = np.where((iu < half) == (iv < half), a, b)
    keep = seeded_rng(seed).random(iu.size) < prob
    return make_graph(n, zip(iu[keep].tolist(), iv[keep].tolist()))


def bipartite_geometric(n, f, mean_degree, seed=0):
    """Bipartite geometric model: two equal groups on the unit sphere.

    Cross-group pairs within a spherical cap of area fraction 1 - f are
    admissible; a uniform subset of the admissible pairs is kept to match
    the requested mean degree.  f near 1 forces tight neighborhoods (high
    clustering propensity); f = 0 admits every pair (random bipartite).
    """
    if f is None or mean_degree is None:
        raise GraphDataError("bipartite-geometric needs f and mean_degree")
    if n % 2:
        raise GraphDataError("bipartite model needs even n")
    _check_pairs("bipartite-geometric", n, (n // 2) ** 2)
    f = float(f)
    if not 0 <= f < 1:
        raise GraphDataError("f must lie in [0, 1)")
    d = float(mean_degree)
    if not 0 <= d <= n / 2:
        raise GraphDataError(
            f"mean degree {mean_degree} must lie in [0, n/2] for n={n}")
    rng = seeded_rng(seed)
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    half = n // 2
    # cap of geodesic half-angle theta has area fraction (1 - cos theta)/2
    cos_min = 2 * f - 1
    # every (left, right) dot product as a 1x3 @ 3x1 product, the
    # arithmetic of pts[u] @ pts[v]; nonzero lists pairs row by row
    dots = np.matmul(pts[:half, None, None, :], pts[None, half:, :, None])
    cu, cv = np.nonzero(dots[:, :, 0, 0] >= cos_min)
    target = round(n * d / 2)
    if target > cu.size:
        raise GraphDataError(
            f"mean degree {mean_degree} infeasible: wants {target} edges "
            f"but only {cu.size} admissible pairs")
    keep = rng.choice(cu.size, size=target, replace=False)
    attrs = {v: ("left" if v < half else "right") for v in range(n)}
    return make_graph(n, zip(cu[keep].tolist(), (cv[keep] + half).tolist()),
                      node_attrs=attrs, bipartite=True)


def shuffle(G: Graph, mode, seed=0):
    """Feature-shuffling null models.

    attributes: permute node labels (label counts preserved);
    orientations: re-draw each non-reciprocal edge's direction uniformly
    (undirected skeleton preserved); weights: permute weights over edges.
    """
    rng = seeded_rng(seed)
    if mode == "attributes":
        if G.node_attrs is None:
            raise GraphDataError("attribute shuffle needs node attributes")
        if G.bipartite:
            raise GraphDataError(
                "attribute shuffle would break bipartiteness")
        vals = [G.node_attrs[v] for v in range(G.n)]
        perm = rng.permutation(G.n)
        attrs = {v: vals[int(perm[v])] for v in range(G.n)}
        return Graph(n=G.n, edges=dict(G.edges), directed=G.directed,
                     weighted=G.weighted, node_attrs=attrs)
    if mode == "orientations":
        if not G.directed:
            raise GraphDataError("orientation shuffle needs a directed graph")
        es = {}
        for (u, v), w in G.edges.items():
            if (v, u) in G.edges:
                es[(u, v)] = w          # reciprocal pairs keep both arcs
            elif rng.random() < 0.5:
                es[(u, v)] = w
            else:
                es[(v, u)] = w
        return Graph(n=G.n, edges=es, directed=True, weighted=G.weighted,
                     node_attrs=G.node_attrs)
    if mode == "weights":
        if not G.weighted:
            raise GraphDataError("weight shuffle needs a weighted graph")
        keys = sorted(G.edges)
        ws = [G.edges[k] for k in keys]
        perm = rng.permutation(len(keys))
        es = {k: ws[int(perm[i])] for i, k in enumerate(keys)}
        return Graph(n=G.n, edges=es, directed=G.directed, weighted=True,
                     node_attrs=G.node_attrs, bipartite=G.bipartite)
    raise GraphDataError(f"unknown shuffle mode {mode!r}")
