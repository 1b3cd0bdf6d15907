"""Observed-network representation and edge-list parsing."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


class GraphDataError(ValueError):
    """Malformed input data (edge lists, attribute files, flags)."""


UNIT = Fraction(1)  # the weight of every unweighted edge


@dataclass(frozen=True)
class Graph:
    """One observed network.

    edges maps a node pair to an exact rational weight (1 for unweighted
    graphs).  Undirected pairs are stored as (u, v) with u < v; directed
    pairs are ordered.
    """
    n: int
    edges: dict
    directed: bool = False
    weighted: bool = False
    node_attrs: dict = None
    bipartite: bool = False

    def __post_init__(self):
        if self.n <= 0:
            raise GraphDataError("node count must be positive")
        for (u, v), w in self.edges.items():
            if u == v:
                raise GraphDataError(f"self-loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphDataError(f"edge ({u},{v}) outside [0,{self.n})")
            if not self.directed and u > v:
                raise GraphDataError("undirected edges must be stored u < v")
            if w.numerator < 0:
                raise GraphDataError(f"negative weight on edge ({u},{v})")
        if self.node_attrs is not None:
            for v in self.node_attrs:
                if not (0 <= v < self.n):
                    raise GraphDataError(f"attribute for unknown node {v}")
        if self.bipartite:
            if self.node_attrs is None:
                raise GraphDataError("bipartite graphs need node attributes")
            labels = set(self.node_attrs.values())
            if len(labels) != 2:
                raise GraphDataError("bipartite graphs need exactly two labels")
            for (u, v) in self.edges:
                if self.node_attrs.get(u) == self.node_attrs.get(v):
                    raise GraphDataError(
                        f"edge ({u},{v}) joins same-label nodes")

    @property
    def m(self):
        return len(self.edges)

    def labels(self):
        """Sorted attribute alphabet (empty when unattributed)."""
        if self.node_attrs is None:
            return []
        return sorted(set(self.node_attrs.values()))

    def label_counts(self):
        """Map color index (position in labels()) -> node count."""
        labs = self.labels()
        idx = {l: i for i, l in enumerate(labs)}
        counts = {i: 0 for i in idx.values()}
        for v in range(self.n):
            lab = self.node_attrs.get(v)
            if lab is None:
                raise GraphDataError(f"node {v} has no attribute label")
            counts[idx[lab]] += 1
        return counts

    def color_of(self, v):
        labs = self.labels()
        idx = {l: i for i, l in enumerate(labs)}
        return idx[self.node_attrs[v]]

    def mode(self):
        if self.directed:
            return "directed"
        if self.bipartite:
            return "bipartite"
        if self.node_attrs is not None:
            return "attributed"
        if self.weighted:
            return "weighted"
        return "simple"

    def has_edge(self, u, v):
        if self.directed:
            return (u, v) in self.edges
        return (min(u, v), max(u, v)) in self.edges

    def neighbors(self):
        """Undirected adjacency sets (direction ignored)."""
        nbr = [set() for _ in range(self.n)]
        for (u, v) in self.edges:
            nbr[u].add(v)
            nbr[v].add(u)
        return nbr

    def induced_subgraph(self, nodes):
        """Induced subgraph on the given node list; nodes are relabeled by
        position in the list."""
        remap = {x: i for i, x in enumerate(nodes)}
        nodeset = set(nodes)
        es = {}
        for (u, v), w in self.edges.items():
            if u in nodeset and v in nodeset:
                a, b = remap[u], remap[v]
                if not self.directed and a > b:
                    a, b = b, a
                es[(a, b)] = w
        attrs = None
        if self.node_attrs is not None:
            attrs = {remap[x]: self.node_attrs[x] for x in nodes}
        return Graph(n=len(nodes), edges=es, directed=self.directed,
                     weighted=self.weighted, node_attrs=attrs,
                     bipartite=self.bipartite)


def make_graph(n, edge_list, directed=False, weighted=False, node_attrs=None,
               bipartite=False):
    """Build a Graph from (u, v) or (u, v, w) tuples."""
    es = {}
    for e in edge_list:
        if len(e) == 2:
            u, v = e
            w = UNIT
        else:
            u, v, w = e
            w = Fraction(w)
        if u == v:
            raise GraphDataError(f"self-loop at node {u}")
        if not directed and u > v:
            u, v = v, u
        if (u, v) in es:
            raise GraphDataError(f"duplicate edge ({u},{v})")
        es[(u, v)] = w
    return Graph(n=n, edges=es, directed=directed, weighted=weighted,
                 node_attrs=node_attrs, bipartite=bipartite)


def parse_graph(text, directed=False, weighted=False, nodes=None,
                attr_text=None, bipartite=False):
    """Parse a whitespace-separated edge list: lines "u v [w]".

    '#' starts a comment.  n is the --nodes override or 1 + max node id.
    attr_text holds "node<TAB>label" lines.
    """
    edges = {}
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3) or (len(parts) == 3 and not weighted):
            if len(parts) == 3 and not weighted:
                raise GraphDataError(
                    f"line {lineno}: weight given without weighted mode")
            raise GraphDataError(f"line {lineno}: expected 'u v [w]'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphDataError(f"line {lineno}: node ids must be integers")
        if u < 0 or v < 0:
            raise GraphDataError(f"line {lineno}: negative node id")
        if u == v:
            raise GraphDataError(f"line {lineno}: self-loop at node {u}")
        w = UNIT
        if len(parts) == 3:
            try:
                w = Fraction(parts[2])
            except (ValueError, ZeroDivisionError):
                raise GraphDataError(f"line {lineno}: bad weight {parts[2]!r}")
            if w < 0:
                raise GraphDataError(f"line {lineno}: negative weight")
        a, b = (u, v) if directed or u < v else (v, u)
        if (a, b) in edges:
            raise GraphDataError(f"line {lineno}: duplicate edge ({u},{v})")
        edges[(a, b)] = w
        max_id = max(max_id, u, v)

    attrs = None
    if attr_text is not None:
        attrs = {}
        for lineno, raw in enumerate(attr_text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise GraphDataError(
                    f"attributes line {lineno}: expected 'node<TAB>label'")
            try:
                v = int(parts[0])
            except ValueError:
                raise GraphDataError(
                    f"attributes line {lineno}: node id must be an integer")
            attrs[v] = parts[1].strip()
            max_id = max(max_id, v)

    n = nodes if nodes is not None else max_id + 1
    if n <= 0:
        raise GraphDataError("empty input and no --nodes given")
    if attrs is not None:
        missing = [v for v in range(n) if v not in attrs]
        if missing:
            raise GraphDataError(f"nodes without attribute label: {missing}")
        for v in attrs:
            if v >= n:
                raise GraphDataError(f"attribute for unknown node {v}")
    return Graph(n=n, edges=edges, directed=directed, weighted=weighted,
                 node_attrs=attrs, bipartite=bipartite)


def format_edge_list(G):
    """Serialize a Graph back to the edge-list format (exact weights)."""
    lines = []
    for (u, v), w in sorted(G.edges.items()):
        if G.weighted:
            lines.append(f"{u} {v} {w}")
        else:
            lines.append(f"{u} {v}")
    return "\n".join(lines) + ("\n" if lines else "")
