"""Graph moments: subgraph counts normalized by their complete-graph counts."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import is_

from .classes import complete_count, universe
from .counting import full_counts, graph_mode, check_order


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
    # (keys, values, D, x) from moments_from_counts; not a dataclass field
    _carried = None

    def carried(self):
        """(D, x) for a vector made by moments_from_counts from integer
        counts: x[p] = D * value at universe position p
        (classes.universe_positions), None where there is no value.  None
        once `values` no longer holds the very keys and value objects it
        was made with."""
        if self._carried is None:
            return None
        keys, vals, lcm, x = self._carried
        d = self.values
        if len(d) == len(keys) and all(map(is_, d, keys)) \
                and all(map(is_, d.values(), vals)):
            return lcm, x
        return None

    def get(self, sid, default=None):
        return self.values.get(sid, default)

    def __getitem__(self, sid):
        return self.values[sid]

    def __contains__(self, sid):
        return sid in self.values

    def items(self):
        return self.values.items()

    def to_json_dict(self):
        entries = [{"id": sid.serialize(), "alias": sid.alias,
                    **rational_json(self.values[sid])}
                   for sid in sorted(self.values, key=lambda s: (s.r, s.key))]
        return {"n": self.n, "mode": self.mode, "moments": entries}


def rational_json(v):
    """The JSON form of an exact rational: numerator and denominator as
    decimal strings."""
    v = Fraction(v)
    return {"numer": str(v.numerator), "denom": str(v.denominator)}


def moments(G, r_max):
    """Moments of every realizable class with at most r_max edges."""
    mode, labels = graph_mode(G)
    check_order(mode, r_max)
    counts = full_counts(G, r_max)
    label_counts = G.label_counts() if G.node_attrs is not None else None
    return moments_from_counts(counts, G.n, mode, r_max,
                               labels=labels, label_counts=label_counts)


def moments_from_counts(counts, n, mode, r_max, labels=2, label_counts=None):
    """Normalize a full count dict (as from full_counts) into moments.

    Integer counts (every mode but weighted) also give the vector's carried
    form (MomentVector.carried): each moment count * den / num over the one
    denominator D of _complete_counts, so the conversions read the counts'
    integers instead of rebuilding them from the Fractions."""
    mv = MomentVector(n=n, mode=mode, r_max=r_max, labels=labels,
                      label_counts=label_counts)
    pools = None if label_counts is None else tuple(sorted(
        label_counts.items()))
    lcm, rows = _complete_counts(mode, r_max, labels, n, pools)
    x = []
    for sid, num, den, scale in rows:
        if not num:
            mv.absent[sid] = f"class unrealizable at n={n}"
            x.append(None)
            continue
        count = counts.get(sid, 0)
        mv.values[sid] = Fraction(count * den, num)
        x.append(count * scale)
    if mode != "weighted":
        mv._carried = (tuple(mv.values), tuple(mv.values.values()), lcm, x)
    return mv


@lru_cache(maxsize=None)
def _complete_counts(mode, r_max, labels, n, pools):
    """(D, rows): rows holds (id, numerator, denominator, den * D / num)
    of the complete count num / den of every class with at most r_max
    edges, as ints in universe order, and D is the lcm of the nonzero
    numerators (47 bits for simple order 5 at n=40); the last field is 0
    where num is 0.  pools is label_counts as sorted (label, count)
    pairs."""
    label_counts = None if pools is None else dict(pools)
    counts = [(ci.id, complete_count(ci, n, label_counts))
              for r in range(1, r_max + 1)
              for ci in universe(mode, r_max, labels)[r]]
    lcm = math.lcm(*(c.numerator for _, c in counts if c))
    return lcm, tuple((sid, c.numerator, c.denominator,
                       c.denominator * lcm // c.numerator if c else 0)
                      for sid, c in counts)


def vector_like(template, values):
    """A MomentVector sharing template's metadata with new values."""
    return MomentVector(n=template.n, mode=template.mode, r_max=template.r_max,
                        values=dict(values), absent=dict(template.absent),
                        labels=template.labels,
                        label_counts=template.label_counts)
