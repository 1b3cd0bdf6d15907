"""Node-local and edge-local moments and cumulants.

A node or edge of interest is given a distinguished identity; moments are
counts of substructures touching (or avoiding) it, normalized by the
corresponding counts in the complete graph with the same distinguished
element.  Closed forms are implemented through the local triangle cumulant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cumulants import signed_root
from .graphs import GraphDataError


@dataclass
class LocalStats:
    anchor: object
    mode: str
    moments: dict = field(default_factory=dict)   # name -> Fraction
    kappa_triangle: Fraction = None
    kappa_scaled: Fraction = None          # None when the scaling vanishes
    kappa_root: float = None

    def to_json_dict(self):
        def frac(v):
            return {"numer": str(v.numerator), "denom": str(v.denominator)}
        out = {"anchor": list(self.anchor) if isinstance(self.anchor, tuple)
               else self.anchor,
               "mode": self.mode,
               "moments": {k: frac(v) for k, v in self.moments.items()}}
        if self.kappa_triangle is not None:   # third order only
            out["kappa_triangle"] = frac(self.kappa_triangle)
        if self.kappa_scaled is not None:
            out["kappa_scaled"] = frac(self.kappa_scaled)
            out["signed_root"] = self.kappa_root
        return out


def node_local_cumulants(G, v, r_max=3):
    """Local moments anchored at node v, the local triangle cumulant, and
    its scaled form.  Requires n >= 3, and n >= 4 at third order."""
    if r_max > 3:
        raise ValueError("local statistics implemented through order 3")
    if not (0 <= v < G.n):
        raise GraphDataError(f"node {v} out of range")
    if G.mode() != "simple":
        raise ValueError("local statistics implemented for simple graphs")
    n = G.n
    if n < 3:   # the other-edge moment divides by C(n - 1, 2)
        raise GraphDataError("local node moments need n >= 3")
    if r_max >= 3 and n < 4:
        raise GraphDataError("third-order local moments need n >= 4")
    nbr = G.neighbors()
    deg_v = len(nbr[v])
    m = G.m
    # counts
    c_self = deg_v
    c_other = m - deg_v
    c_wcenter = deg_v * (deg_v - 1) // 2
    c_wend = sum(len(nbr[u]) - 1 for u in nbr[v])
    c_tri = sum(1 for u in nbr[v] for w in nbr[v]
                if u < w and w in nbr[u])
    half = Fraction((n - 1) * (n - 2), 2)   # C(n-1, 2)
    mu = {"self": Fraction(c_self, n - 1),
          "other": Fraction(c_other) / half}
    if r_max >= 2:
        mu["wedge-center"] = Fraction(c_wcenter) / half
        mu["wedge-end"] = Fraction(c_wend) / (2 * half)
    stats = LocalStats(anchor=v, mode="local-node", moments=mu)
    if r_max >= 3:
        mu["triangle"] = Fraction(c_tri) / half
        kappa = (mu["triangle"]
                 - mu["wedge-center"] * mu["other"]
                 - 2 * mu["wedge-end"] * mu["self"]
                 + 2 * mu["self"] ** 2 * mu["other"])
        stats.kappa_triangle = kappa
        scale = mu["self"] ** 2 * mu["other"]
        if scale != 0:
            stats.kappa_scaled = kappa / scale
            stats.kappa_root = signed_root(stats.kappa_scaled, 3)
    return stats


def edge_local_cumulants(G, e, r_max=3):
    """Local moments anchored at edge e = (u, v), the local triangle
    cumulant, and its scaled form.  The anchor edge must be present."""
    if r_max > 3:
        raise ValueError("local statistics implemented through order 3")
    if G.mode() != "simple":
        raise ValueError("local statistics implemented for simple graphs")
    u, v = e
    if not G.has_edge(u, v):
        raise GraphDataError(
            f"edge ({u},{v}) absent: local statistics anchor on present "
            "edges only")
    u, v = min(u, v), max(u, v)
    n = G.n
    if n < 3:
        raise GraphDataError("local edge moments need n >= 3")
    nbr = G.neighbors()
    m = G.m
    # wedges through the anchor edge: third node adjacent to exactly one end
    # of (u, v) plus anchor-edge... the attached wedge uses the anchor edge
    # and one more edge sharing a node with it
    c_watt = (len(nbr[u]) - 1) + (len(nbr[v]) - 1)
    c_tri = sum(1 for w in nbr[u] if w in nbr[v])
    # wedges avoiding the anchor edge
    total_wedges = sum(len(s) * (len(s) - 1) // 2 for s in nbr.values())
    c_wdet = total_wedges - c_watt
    pairs = n * (n - 1) // 2
    mu = {"star": Fraction(1),
          "detached": Fraction(m - 1, pairs - 1)}
    if r_max >= 2:
        mu["wedge-attached"] = Fraction(c_watt, 2 * (n - 2))
        det_den = 3 * (n * (n - 1) * (n - 2) // 6) - 2 * (n - 2)
        mu["wedge-detached"] = Fraction(c_wdet, det_den)
    stats = LocalStats(anchor=(u, v), mode="local-edge", moments=mu)
    if r_max >= 3:
        mu["triangle"] = Fraction(c_tri, n - 2)
        kappa = (mu["triangle"]
                 - 2 * mu["wedge-attached"] * mu["detached"]
                 - mu["wedge-detached"] * mu["star"]
                 + 2 * mu["star"] * mu["detached"] ** 2)
        stats.kappa_triangle = kappa
        scale = mu["star"] * mu["detached"] ** 2
        if scale != 0:
            stats.kappa_scaled = kappa / scale
            stats.kappa_root = signed_root(stats.kappa_scaled, 3)
    return stats
