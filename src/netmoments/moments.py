"""Graph moments: subgraph counts normalized by their complete-graph counts."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import index, is_

from .classes import complete_count, universe_positions
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
    # (keys, values, key, counts) from moments_from_counts; not a field
    _carried = None

    def carried(self):
        """(key, counts) for a vector made by moments_from_counts from
        integer counts: key is (mode, r_max, labels, n, pools) as it was
        at construction, and counts[p] the class count as a Python int at
        universe position p (classes.universe_positions), None where the
        class is unrealizable.  The value at p is counts[p] / C, C the
        complete count (_complete_counts at key); moments_to_cumulants and
        unbiased_cumulants run their per-n plans for key on these counts
        in place of the values.  None once `values` no longer holds the
        very keys and value objects it was made with, or once mode, r_max
        or labels, which name the universe, differ from key's; n and
        label_counts are read from key alone."""
        if self._carried is None:
            return None
        keys, vals, key, counts = self._carried
        d = self.values
        if key[:3] == (self.mode, self.r_max, self.labels) \
                and len(d) == len(keys) and all(map(is_, d, keys)) \
                and all(map(is_, d.values(), vals)):
            return key, counts
        return None

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


def exact(n, d):
    """n / d as a reduced Fraction, for Python ints n and d > 0.

    Fraction(n, d) checks its arguments' types and signs before its gcd;
    the pipeline's ints need only the gcd, so this makes the object and
    sets its two slots itself.  The result is an ordinary Fraction."""
    if d <= 0:
        raise ArithmeticError(f"exact(n, d) needs d > 0, not d = {d}")
    g = math.gcd(n, d)
    f = object.__new__(Fraction)
    f._numerator = n // g
    f._denominator = d // g
    return f


def moments(G, r_max):
    """Moments of every realizable class with at most r_max edges."""
    mode, labels = graph_mode(G)
    counts = full_counts(G, r_max)
    label_counts = G.label_counts() if G.node_attrs is not None else None
    return moments_from_counts(counts, G.n, mode, r_max,
                               labels=labels, label_counts=label_counts)


def moments_from_counts(counts, n, mode, r_max, labels=2, label_counts=None):
    """Normalize a full count dict (as from full_counts) into moments.

    Integer counts (every mode but weighted) are read as Python ints
    (operator.index, so numpy integers neither wrap nor leak into the
    values), made into values by exact, and the vector carries them
    (MomentVector.carried) for the conversions to read instead of the
    Fractions.  Weighted counts are Fractions and go through Fraction.
    An order past the mode's cap, or below 1, raises as it does from
    moments, before any universe is built."""
    check_order(mode, r_max)
    mv = MomentVector(n=n, mode=mode, r_max=r_max, labels=labels,
                      label_counts=label_counts)
    pools = None if label_counts is None else tuple(sorted(
        label_counts.items()))
    integral = mode != "weighted"
    carried = []
    for sid, c in _complete_counts(mode, r_max, labels, n, pools):
        if not c:
            mv.absent[sid] = f"class unrealizable at n={n}"
            carried.append(None)
            continue
        count = counts.get(sid, 0)
        if integral:
            count = index(count)
            mv.values[sid] = exact(count, c)
        else:
            mv.values[sid] = Fraction(count, c)
        carried.append(count)
    if integral:
        mv._carried = (tuple(mv.values), tuple(mv.values.values()),
                       (mode, r_max, labels, n, pools), carried)
    return mv


# Per-n state (the complete counts here, and the conversion and kappa-check
# plans built on them) is kept per universe for this many (n, label pools)
# at most.
N_KEPT = 16


def per_n(kept, key, build):
    """kept[key], one universe's per-n state at key, made by build(key)
    the first time key comes up.  A hit moves its key to the end, and once
    N_KEPT are kept the first key goes: the least recently used is
    dropped."""
    value = kept.pop(key, None)
    if value is None:
        if len(kept) >= N_KEPT:
            del kept[next(iter(kept))]
        value = build(key)
    kept[key] = value
    return value


@lru_cache(maxsize=None)
def _kept_counts(mode, r_max, labels):
    """The complete counts of one universe, by (n, pools), for per_n."""
    return {}


def _complete_counts(mode, r_max, labels, n, pools):
    """(id, C) per class with at most r_max edges, in universe order, C
    the class's count in the complete graph on n nodes (with these label
    pools, label_counts as sorted (label, count) pairs), 0 where the class
    is unrealizable.  C counts copies, so it is an int; a fractional one
    raises."""
    def build(_):
        label_counts = None if pools is None else dict(pools)
        rows = []
        for ci in universe_positions(mode, r_max, labels)[0]:
            c = complete_count(ci, n, label_counts)
            if c.denominator != 1:
                raise ArithmeticError(
                    f"complete count {c} of {ci.id.serialize()} at n={n} "
                    "is not an integer")
            rows.append((ci.id, c.numerator))
        return tuple(rows)
    return per_n(_kept_counts(mode, r_max, labels), (n, pools), build)


def vector_like(template, values):
    """A MomentVector sharing template's metadata with new values."""
    return MomentVector(n=template.n, mode=template.mode, r_max=template.r_max,
                        values=dict(values), absent=dict(template.absent),
                        labels=template.labels,
                        label_counts=template.label_counts)
