"""Per-layer metrics from the spans of a traced run.

An operation record is a dict with "op" (the op id its spans carry), "name"
and "wall" (traced seconds).  Time metrics are means per operation, so the
layers of one operation add up to its wall time together with
`trace.unattributed_s`.  "Input-graph" calls are those made outside the
ERGM and edit-graph layers, which call the counting layer once per class.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import ATTRS, END, NAME, OP, PARENT, START

# layers whose count_connected/derive calls are not on the input graph
CLASS_TABLE_LAYERS = ("ergm.", "editgraph.")
ESU_MIN_ORDER = 4  # simple-mode counting uses closed forms through order 3


def dur(span):
    return span[END] - span[START]


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        self.by_op = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_op[s[OP]].append(i)
            if s[PARENT] is not None:
                self.children[s[PARENT]].append(i)

    def ancestors(self, i):
        p = self.spans[i][PARENT]
        while p is not None:
            yield self.spans[p][NAME]
            p = self.spans[p][PARENT]

    def self_time(self, i):
        return dur(self.spans[i]) - sum(dur(self.spans[c])
                                        for c in self.children[i])

    def find(self, op, name, input_graph=False):
        """Outermost spans called `name` in one operation."""
        out = []
        for i in self.by_op[op]:
            if self.spans[i][NAME] != name:
                continue
            anc = list(self.ancestors(i))
            if name in anc:
                continue
            if input_graph and any(a.startswith(CLASS_TABLE_LAYERS)
                                   for a in anc):
                continue
            out.append(i)
        return out

    def top_level(self, op):
        return [i for i in self.by_op[op] if self.spans[i][PARENT] is None
                and not self.spans[i][ATTRS].get("side")]


def layer_values(index, ops):
    """Metrics from the given operations, leaving out those whose layer none
    of them exercised.  Adds each operation's unattributed time to its
    record."""
    spans = index.spans
    ids = [o["op"] for o in ops]
    n_ops = len(ids)

    def per_op(name, input_graph=False, self_time=False, keep=None):
        found = [i for op in ids for i in index.find(op, name, input_graph)
                 if keep is None or keep(spans[i])]
        if not found:
            return None
        total = sum(index.self_time(i) if self_time else dur(spans[i])
                    for i in found)
        return total / n_ops

    def first_attr(name, attr, keep=lambda s: True):
        for op in ids:
            for i in index.find(op, name):
                if keep(spans[i]) and spans[i][ATTRS].get(attr):
                    return spans[i][ATTRS][attr]
        return None

    out = {}
    cc = per_op("counting.count_connected", input_graph=True)
    cc_esu = per_op("counting.count_connected", input_graph=True,
                    keep=lambda s: s[ATTRS].get("r", 0) >= ESU_MIN_ORDER)
    esu = [i for op in ids for i in index.find(op, "counting.esu")]
    out["counting.count_connected_s"] = cc
    if esu and cc_esu is not None:
        esu_time = sum(dur(spans[i]) for i in esu)
        subsets = [spans[i][ATTRS]["subsets"] for i in esu]
        out["counting.esu_s"] = esu_time / n_ops
        out["counting.classify_s"] = cc_esu - esu_time / n_ops
        out["counting.esu_subsets"] = statistics.fmean(subsets[:4])
        out["counting.subsets_per_s"] = sum(subsets) / esu_time
    out["counting.derive_s"] = per_op("counting.derive", input_graph=True)
    out["moments.normalize_s"] = per_op("moments.normalize", input_graph=True)
    out["cumulants.to_cumulants_s"] = per_op("cumulants.to_cumulants")
    out["cumulants.scale_s"] = per_op("cumulants.scale")
    out["unbiased.kappa_check_s"] = per_op("unbiased.kappa_check")
    out["classes.universe_s"] = per_op(
        "classes.universe", keep=lambda s: s[ATTRS].get("miss"))

    def enum7(s):
        return s[ATTRS].get("n") == 7 and s[ATTRS].get("canon")
    enum = [dur(spans[i]) for op in ids
            for i in index.find(op, "ergm.enumerate") if enum7(spans[i])]
    if enum:
        canon = first_attr("ergm.enumerate", "canon", enum7)
        out["ergm.enumerate_s"] = statistics.median(enum)
        out["ergm.canonicalizations"] = canon
        out["canonical.per_call_us"] = statistics.median(enum) / canon * 1e6
    out["ergm.stat_matrix_s"] = per_op("ergm.stat_matrix")
    fallback = [sum(1 for i in index.by_op[op]
                    if spans[i][NAME] == "counting.full_counts"
                    and "ergm.stat_matrix" in index.ancestors(i))
                for op in ids]
    if out["ergm.stat_matrix_s"] is not None:
        out["ergm.stat_matrix_fallback_rows"] = max(fallback)
    out["ergm.fit_other_s"] = per_op("ergm.fit", self_time=True)
    out["ergm.dist_s"] = per_op("ergm.dist")
    out["editgraph.build_s"] = per_op("editgraph.build", self_time=True)
    out["editgraph.canonicalizations"] = first_attr("editgraph.build",
                                                    "canon")
    out["editgraph.spectrum_s"] = per_op("editgraph.spectrum")
    out["graphs.parse_s"] = per_op("graphs.parse")
    startup = [dur(spans[i]) for op in ids
               for i in index.find(op, "cli.startup")]
    if startup:
        out["cli.startup_s"] = statistics.median(startup)
    gen = [dur(spans[i]) for op in ids
           for i in index.find(op, "models.generate")]
    if gen:
        out["models.generate_s"] = statistics.fmean(gen)
    for o in ops:
        o["unattributed_s"] = o["wall"] - sum(
            dur(spans[i]) for i in index.top_level(o["op"]))
    remainder = statistics.fmean(o["unattributed_s"] for o in ops)
    out["trace.unattributed_s"] = remainder
    if startup:
        out["cli.other_s"] = remainder
    return {k: v for k, v in out.items() if v is not None}


def cache_ratios(stats):
    """Hit ratios from {cache: [hits, misses]}."""
    out = {}
    for key, name in (("split", "counting.split_cache_hit_ratio"),
                      ("universe", "classes.universe_cache_hit_ratio"),
                      ("expansion", "cumulants.expansion_cache_hit_ratio"),
                      ("poly", "unbiased.poly_cache_hit_ratio")):
        hits, misses = stats[key]
        if hits + misses:
            out[name] = hits / (hits + misses)
    return out
