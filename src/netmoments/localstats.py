"""Node-local and edge-local moments and cumulants.

A local statistic is an attributed one: the anchor's nodes (the node, or
both ends of the edge) carry label 1 and every other node label 0.  Each
local moment sums the counts of the attributed classes _TABLE lists, over
their complete_counts with label pools {1: |anchor|, 0: n - |anchor|}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .classes import ClassGraph, class_info, complete_count, named_class
from .counting import check_order, count_connected
from .cumulants import signed_root
from .graphs import GraphDataError
from .moments import rational_json

# Each local moment in payload order: its name, the simple named class of
# its classes' shape and the node labels of each class it sums, in the
# named class's node order (a wedge's centre is its middle node).
_TABLE = {
    "node": (("self", "edge", (1, 0)), ("other", "edge", (0, 0)),
             ("wedge-center", "wedge", (0, 1, 0)),
             ("wedge-end", "wedge", (1, 0, 0)),
             ("triangle", "triangle", (1, 0, 0))),
    "edge": (("star", "edge", (1, 1)), ("detached", "edge", (0, 0), (1, 0)),
             ("wedge-attached", "wedge", (1, 1, 0)),
             ("wedge-detached", "wedge", (0, 0, 0), (1, 0, 0), (1, 0, 1),
              (0, 1, 0)),
             ("triangle", "triangle", (1, 1, 0))),
}


@dataclass
class LocalStats:
    anchor: object
    mode: str
    moments: dict = field(default_factory=dict)   # name -> Fraction
    kappa_triangle: Fraction = None
    kappa_scaled: Fraction = None          # None when the scaling vanishes
    kappa_root: float = None

    def to_json_dict(self):
        out = {"anchor": list(self.anchor) if isinstance(self.anchor, tuple)
               else self.anchor,
               "mode": self.mode,
               "moments": {k: rational_json(v)
                           for k, v in self.moments.items()}}
        if self.kappa_triangle is not None:   # third order only
            out["kappa_triangle"] = rational_json(self.kappa_triangle)
        if self.kappa_scaled is not None:
            out["kappa_scaled"] = rational_json(self.kappa_scaled)
            out["signed_root"] = self.kappa_root
        return out


@lru_cache(maxsize=None)
def _classes(kind):
    """(name, ClassInfos) of each local moment of an anchor kind."""
    return tuple((name, tuple(class_info(ClassGraph.make(
        len(c), named_class("simple", shape).graph.edges, colors=c),
        "attributed") for c in colorings))
        for name, shape, *colorings in _TABLE[kind])


def _local_stats(G, anchor, kind, r_max, kappa):
    """LocalStats of G through order r_max.  The moments are read off G
    with the anchor's nodes labelled 1; at third order kappa(moments) gives
    the local triangle cumulant and its scale.  Only the nodes with an edge
    and the anchor are labelled, so ids may run to 2^63; if no node with
    an edge lies outside the anchor, one node outside it is labelled 0
    too, which keeps the label alphabet {0, 1}."""
    labels = dict.fromkeys(itertools.chain.from_iterable(G.edges), 0)
    labels.update(dict.fromkeys(anchor, 1))
    if len(labels) == len(anchor):
        labels[next(x for x in range(3) if x not in anchor)] = 0
    counts = count_connected(G._with_node_attrs(labels), r_max)
    pools = {1: len(anchor), 0: G.n - len(anchor)}
    mu = {name: Fraction(sum(counts.get(ci.id, 0) for ci in infos),
                         sum(complete_count(ci, G.n, pools) for ci in infos))
          for name, infos in _classes(kind) if infos[0].id.r <= r_max}
    stats = LocalStats(anchor=anchor if kind == "edge" else anchor[0],
                       mode=f"local-{kind}", moments=mu)
    if r_max >= 3:
        stats.kappa_triangle, scale = kappa(mu)
        if scale != 0:
            stats.kappa_scaled = stats.kappa_triangle / scale
            stats.kappa_root = signed_root(stats.kappa_scaled, 3)
    return stats


def node_local_cumulants(G, v, r_max=3):
    """Local moments anchored at node v, the local triangle cumulant, and
    its scaled form.  Requires n >= 3, and n >= 4 at third order."""
    check_order("attributed", r_max)
    if not (0 <= v < G.n):
        raise GraphDataError(f"node {v} out of range")
    if G.mode() != "simple":
        raise ValueError("local statistics implemented for simple graphs")
    if G.n < 3:   # the other-edge moment divides by C(n - 1, 2)
        raise GraphDataError("local node moments need n >= 3")
    if r_max >= 3 and G.n < 4:
        raise GraphDataError("third-order local moments need n >= 4")
    return _local_stats(G, (v,), "node", r_max, lambda mu: (
        mu["triangle"]
        - mu["wedge-center"] * mu["other"]
        - 2 * mu["wedge-end"] * mu["self"]
        + 2 * mu["self"] ** 2 * mu["other"],
        mu["self"] ** 2 * mu["other"]))


def edge_local_cumulants(G, e, r_max=3):
    """Local moments anchored at edge e = (u, v), the local triangle
    cumulant, and its scaled form.  The anchor edge must be present.  The
    moments mix classes, so no attributed cumulant is this cumulant."""
    check_order("attributed", r_max)
    if G.mode() != "simple":
        raise ValueError("local statistics implemented for simple graphs")
    u, v = e
    if not G.has_edge(u, v):
        raise GraphDataError(
            f"edge ({u},{v}) absent: local statistics anchor on present "
            "edges only")
    if G.n < 3:
        raise GraphDataError("local edge moments need n >= 3")
    return _local_stats(G, (min(u, v), max(u, v)), "edge", r_max, lambda mu: (
        mu["triangle"]
        - 2 * mu["wedge-attached"] * mu["detached"]
        - mu["wedge-detached"] * mu["star"]
        + 2 * mu["star"] * mu["detached"] ** 2,
        mu["star"] * mu["detached"] ** 2))
