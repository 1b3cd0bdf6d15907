"""Graph moments: subgraph counts normalized by their complete-graph counts."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .classes import complete_count, universe
from .counting import full_counts, graph_mode_colors, check_order


@dataclass
class MomentVector:
    """Map from SubgraphId to an exact rational moment.

    Classes whose complete count vanishes at this n are absent (their moment
    is undefined, not zero); `absent` records them with a reason.
    """
    n: int
    mode: str
    r_max: int
    values: dict = field(default_factory=dict)
    absent: dict = field(default_factory=dict)
    labels: int = 2
    label_counts: dict = None

    def get(self, sid, default=None):
        return self.values.get(sid, default)

    def __getitem__(self, sid):
        return self.values[sid]

    def __contains__(self, sid):
        return sid in self.values

    def items(self):
        return self.values.items()

    def by_alias(self):
        """Alias (or serialized id) -> value, for display and tests."""
        out = {}
        for sid, v in self.values.items():
            out[sid.alias or sid.serialize()] = v
        return out

    def to_json_dict(self):
        entries = []
        for sid in sorted(self.values, key=lambda s: (s.r, s.key)):
            v = self.values[sid]
            entries.append({"id": sid.serialize(), "alias": sid.alias,
                            "numer": str(v.numerator),
                            "denom": str(v.denominator)})
        return {"n": self.n, "mode": self.mode, "moments": entries}


def moments(G, r_max):
    """Moments of every realizable class with at most r_max edges."""
    mode, _ = graph_mode_colors(G)
    check_order(mode, r_max)
    counts = full_counts(G, r_max)
    label_counts = G.label_counts() if G.node_attrs is not None else None
    labels = len(G.labels()) if G.node_attrs is not None else 2
    return moments_from_counts(counts, G.n, mode, r_max,
                               labels=labels, label_counts=label_counts)


def moments_from_counts(counts, n, mode, r_max, labels=2, label_counts=None):
    """Normalize a full count dict (as from full_counts) into moments."""
    mv = MomentVector(n=n, mode=mode, r_max=r_max, labels=labels,
                      label_counts=label_counts)
    pools = None if label_counts is None else tuple(sorted(
        label_counts.items()))
    for sid, denom in _complete_counts(mode, r_max, labels, n, pools):
        if denom == 0:
            mv.absent[sid] = f"class unrealizable at n={n}"
            continue
        mv.values[sid] = Fraction(counts.get(sid, 0) * denom.denominator,
                                  denom.numerator)
    return mv


@lru_cache(maxsize=None)
def _complete_counts(mode, r_max, labels, n, pools):
    """(id, complete count) of every class with at most r_max edges, in
    universe order; pools is label_counts as sorted (label, count) pairs."""
    label_counts = None if pools is None else dict(pools)
    return tuple((ci.id, complete_count(ci, n, label_counts))
                 for r in range(1, r_max + 1)
                 for ci in universe(mode, r_max, labels)[r])


def vector_like(template, values):
    """A MomentVector sharing template's metadata with new values."""
    return MomentVector(n=template.n, mode=template.mode, r_max=template.r_max,
                        values=dict(values), absent=dict(template.absent),
                        labels=template.labels,
                        label_counts=template.label_counts)
