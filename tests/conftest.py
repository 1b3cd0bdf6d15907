"""Shared test helpers: random graph factories and brute-force oracles."""

import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from netmoments.graphs import Graph, make_graph, UNIT

CRITERIA = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.rsplit("::", 1)[-1]
    if "test_acceptance" in report.nodeid and name.startswith(
            "test_criterion_") and report.when == "call":
        num = int(name.split("_")[2])
        CRITERIA[num] = (report.outcome, name)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERIA:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for num in sorted(CRITERIA):
        outcome, name = CRITERIA[num]
        label = name.split(f"test_criterion_{num:02d}_")[-1]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        tw.write_line(f"criterion {num:2d} ({label}): {verdict}")


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return make_graph(n, edges)


def random_weighted_graph(rng, n, p=0.5, max_w=3):
    edges = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges[(u, v)] = Fraction(rng.randint(1, max_w))
    return Graph(n=n, edges=edges, weighted=True)


PAIRS8 = [(u, v) for u in range(8) for v in range(u + 1, 8)]
_ARCS8 = [(u, v) for u in range(8) for v in range(8) if u != v]
# Weights: zero, small integers, and fractions over large coprime primes,
# whose common denominator puts order-5 sums past 2^63
_WEIGHTS = st.builds(Fraction, st.integers(0, 9),
                     st.sampled_from([1, 1, 2, 3, 998_244_353,
                                      1_000_000_007]))


@st.composite
def mode_graphs(draw, mode):
    """A graph of the mode on 2-8 nodes with at most 12 edges (or arcs)."""
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u, v in (_ARCS8 if mode == "directed" else PAIRS8)
             if v < n and u < n]
    attrs = None
    if mode == "attributed":
        alphabet = draw(st.integers(1, 3))
        attrs = {v: "abc"[draw(st.integers(0, alphabet - 1))]
                 for v in range(n)}
    elif mode == "bipartite":
        attrs = {v: draw(st.sampled_from("ab")) for v in range(2, n)}
        attrs.update({0: "a", 1: "b"})
        pairs = [(u, v) for u, v in pairs if attrs[u] != attrs[v]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=12))
    weights = [draw(_WEIGHTS) if mode == "weighted" else UNIT
               for _ in chosen]
    return Graph(n=n, edges=dict(zip(chosen, weights)),
                 directed=mode == "directed", weighted=mode == "weighted",
                 node_attrs=attrs, bipartite=mode == "bipartite")


def _mostly(common, rare):
    """common three times in four, rare otherwise."""
    return st.integers(0, 3).flatmap(lambda k: rare if k == 0 else common)


# Edge-list text: lines "u v [w]" with ids from negative to past 2^70 and
# rational or malformed weights, some lines of junk tokens, and comments
# and blank lines
_ID = _mostly(st.integers(0, 15), _mostly(st.integers(-2, 2 ** 62), st.one_of(
    st.integers(2 ** 63 - 2, 2 ** 63 + 1), st.integers(2 ** 63, 2 ** 70))))
_MALFORMED = st.sampled_from([
    "1e4300", "1e4301", "1e-999999999", "1/0", "2/-3", "0x1f", "1_0", "٣",
    "+2", "--", "#", "a", "1e", "e5", "nan", "-inf", "9" * 5000])
_WEIGHT = st.one_of(st.integers(0, 9).map(str),
                    st.fractions(min_value=-1, max_value=10 ** 6).map(str),
                    st.floats(0, 1e6).map(str), _MALFORMED)
_PAIR = st.tuples(_ID.map(str), _ID.map(str)).map(list)
_WEIGHTED = st.tuples(_PAIR, _WEIGHT).map(lambda e: e[0] + [e[1]])
_JUNK = st.lists(st.one_of(_ID.map(str), _WEIGHT), max_size=4)


def edge_lists(weighted):
    """Edge-list text whose lines mostly carry a weight when weighted is
    true and mostly not otherwise."""
    edge = _mostly(_WEIGHTED, _PAIR) if weighted else _mostly(
        _PAIR, _mostly(_PAIR, _WEIGHTED))
    line = st.tuples(_mostly(edge, _mostly(edge, _JUNK)),
                     st.sampled_from(["", "", "# comment", "#1 2"]))
    return st.lists(line.map(lambda l: " ".join(l[0]) + l[1]),
                    max_size=6).map("\n".join)


# ---------------------------------------------------------------------------
# Brute-force canonical form: minimum labeled edge tuple over permutations,
# memoized on a relabeled key.  Independent of the package's canonicalizer.

_brute_cache = {}


def node_colors(G):
    """Each node's label as its index in G.labels(), by node."""
    index = {label: i for i, label in enumerate(G.labels())}
    return [index[G.node_attrs[v]] for v in range(G.n)]


def _relabel_key(edges, directed, colors=None):
    remap = {}
    out = []
    for item in edges:
        u, v = item[0], item[1]
        for x in (u, v):
            if x not in remap:
                remap[x] = len(remap)
        rest = item[2:] if len(item) > 2 else ()
        out.append((remap[u], remap[v]) + tuple(rest))
    cols = None
    if colors is not None:
        cols = tuple(colors[x] for x in sorted(remap, key=remap.get))
    return (tuple(sorted(out)), directed, cols)


def brute_canonical(edges, directed=False, colors=None):
    """Canonical form by explicit minimization over node permutations."""
    key = _relabel_key(edges, directed, colors)
    got = _brute_cache.get(key)
    if got is not None:
        return got
    r_edges, _, r_cols = key
    nodes = sorted({x for e in r_edges for x in e[:2]})
    k = len(nodes)
    best = None
    for perm in itertools.permutations(range(k)):
        mapped = []
        for item in r_edges:
            u, v = perm[item[0]], perm[item[1]]
            if not directed and u > v:
                u, v = v, u
            mapped.append((u, v) + tuple(item[2:]))
        cand_cols = None
        if r_cols is not None:
            inv = [0] * k
            for i, pi in enumerate(perm):
                inv[pi] = i
            cand_cols = tuple(r_cols[inv[i]] for i in range(k))
        cand = (tuple(sorted(mapped)), cand_cols)
        if best is None or cand < best:
            best = cand
    _brute_cache[key] = best
    return best


def brute_aut_count(k, edges, directed=False, colors=None):
    """Automorphism count by trying every node permutation: edges are
    (u, v, value) triples, colors per-node ints (default all equal)."""
    colors = tuple(colors) if colors is not None else (0,) * k
    adj = {}
    for u, v, val in edges:
        adj[(u, v)] = val
        if not directed:
            adj[(v, u)] = val
    pairs = [(u, v) for u in range(k) for v in range(k) if u != v]
    count = 0
    for perm in itertools.permutations(range(k)):
        if all(colors[perm[x]] == colors[x] for x in range(k)) and all(
                adj.get((perm[u], perm[v]), 0) == adj.get((u, v), 0)
                for u, v in pairs):
            count += 1
    return count


def group_closure(k, generators):
    """Every node permutation that the generators generate."""
    group, todo = {tuple(range(k))}, [tuple(range(k))]
    while todo:
        p = todo.pop()
        for g in generators:
            q = tuple(g[x] for x in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return group


# ---------------------------------------------------------------------------
# Term-by-term Fraction evaluation of the conversions and of kappa-check:
# the reference for the library's evaluation over one common denominator.

def fraction_conversion(v, direction):
    """moments_to_cumulants ("moment") or cumulants_to_moments
    ("cumulant") of v, each term multiplied and added as a Fraction."""
    from netmoments.classes import universe_index
    from netmoments.cumulants import (_expansion_for_graph,
                                      cumulant_moment_polynomial,
                                      IncompleteVectorError)
    from netmoments.moments import vector_like
    index = universe_index(v.mode, v.r_max, v.labels)
    infos = sorted((index[sid.key] for sid in v.values),
                   key=lambda ci: (ci.id.r, ci.id.key))
    out = {}
    for ci in infos:
        if direction == "moment":
            terms = cumulant_moment_polynomial(ci.graph, v.mode).items()
        else:
            terms = _expansion_for_graph(ci.graph, v.mode)
        acc = 0
        for parts, coeff in terms:
            try:
                prod = v.values[parts[0]]
                for pid in parts[1:]:
                    prod = prod * v.values[pid]
            except KeyError as exc:
                pid = exc.args[0]
                raise IncompleteVectorError(
                    f"{direction} vector lacks class {pid.serialize()} "
                    f"(alias {pid.alias}) needed for "
                    f"{ci.id.alias or ci.id.serialize()}") from None
            acc = acc + (prod if coeff == 1 else coeff * prod)
        out[ci.id] = acc
    return vector_like(v, out)


def fraction_kappa_check(m):
    """unbiased_cumulants(m), each monomial's disjoint union classified on
    the spot and its moment added as a Fraction."""
    from netmoments.classes import ClassGraph, class_id, universe_index
    from netmoments.cumulants import cumulant_moment_polynomial
    from netmoments.moments import vector_like
    index = universe_index(m.mode, m.r_max, m.labels)
    out = {}
    absent = dict(m.absent)
    for sid in m.values:
        acc = 0
        poly = cumulant_moment_polynomial(index[sid.key].graph, m.mode)
        for mono, coeff in poly.items():
            uid = class_id(ClassGraph.disjoint_union(
                [index[pid.key].graph for pid in mono]), m.mode)
            if uid not in m.values:
                absent[sid] = (f"needs moment of "
                               f"{uid.alias or uid.serialize()}, "
                               f"{m.absent[uid]}")
                break
            acc = acc + coeff * m.values[uid]
        else:
            out[sid] = acc
    kv = vector_like(m, out)
    kv.absent = absent
    return kv


# ---------------------------------------------------------------------------
# Class enumeration that canonicalizes every child: the reference for the
# canonical augmentation in ergm.enumerate_classes.

def dedupe_all_classes(n):
    """(reps, keys, auts, mults) of the classes on n nodes: every (parent,
    neighbour mask) child is canonicalized, parents in order and masks
    ascending, and the first child of each key is kept."""
    import math
    from netmoments.canonical import canonicalize
    classes = {None: ((), 1)}  # key -> (edges, aut); start with no nodes
    for k in range(n):
        nxt = {}
        for edges, _ in classes.values():
            for mask in range(1 << k):
                child = edges + tuple((j, k) for j in range(k)
                                      if mask >> j & 1)
                res = canonicalize(k + 1, [(u, v, 1) for u, v in child])
                nxt.setdefault(res.key, (child, res.aut))
        classes = nxt
    nfact = math.factorial(n)
    return ([edges for edges, _ in classes.values()], list(classes),
            [aut for _, aut in classes.values()],
            [nfact // aut for _, aut in classes.values()])


# ---------------------------------------------------------------------------
# Substructure classes without orbit pruning or shared tables: the references
# for classes.universe and classes.unit_subclasses.

def unpruned_universe(mode, r_max, labels):
    """{order: [(id, graph, aut)]} from classifying every one-unit
    extension of every class, bases in order and moves in the order
    documented in classes._moves, keeping the first graph of each class
    and sorting each order by key."""
    from netmoments.classes import ClassGraph, class_info
    directed = mode == "directed"
    colors = range(labels) if mode in ("attributed", "bipartite") else [0]

    def ok(cu, cv):
        return mode != "bipartite" or cu != cv

    def grown(cg, u, v, fresh=()):
        value = {(a, b): val for a, b, val in cg.edges}
        value[u, v] = value.get((u, v), 0) + 1
        return ClassGraph.make(cg.k + len(fresh),
                               [(a, b, val) for (a, b), val in value.items()],
                               directed=directed, colors=cg.colors + fresh)

    out = {}
    bases = [ClassGraph.make(0, [], directed=directed)]
    for r in range(1, r_max + 1):
        found = {}
        for cg in bases:
            k = cg.k
            present = {(u, v) for u, v, _ in cg.edges}
            exts = [grown(cg, u, v) for u in range(k) for v in range(k)
                    if u != v and (directed or u < v)
                    and (u, v) not in present
                    and ok(cg.colors[u], cg.colors[v])]
            for u in range(k):
                for c in colors:
                    if ok(cg.colors[u], c):
                        exts.append(grown(cg, u, k, (c,)))
                        if directed:
                            exts.append(grown(cg, k, u, (c,)))
            exts += [grown(cg, k, k + 1, (ca, cb)) for ca in colors
                     for cb in colors if ok(ca, cb)]
            if mode == "weighted":
                exts += [grown(cg, u, v) for u, v, _ in cg.edges]
            for ext in exts:
                ci = class_info(ext, mode)
                found.setdefault(ci.id, ci)
        infos = sorted(found.values(), key=lambda ci: ci.id.key)
        out[r] = [(ci.id, ci.graph, ci.aut) for ci in infos]
        bases = [ci.graph for ci in infos]
    return out


def unit_subset(cg, mask):
    """The ClassGraph the units of mask span (see classes.unit_subclasses):
    the nodes they touch, in order, with their colors."""
    from netmoments.classes import ClassGraph
    units = [(u, v) for u, v, val in cg.edges for _ in range(val)]
    value = {}
    for bit, uv in enumerate(units):
        if mask >> bit & 1:
            value[uv] = value.get(uv, 0) + 1
    nodes = sorted({x for uv in value for x in uv})
    at = {x: i for i, x in enumerate(nodes)}
    return ClassGraph.make(
        len(nodes), [(at[u], at[v], val) for (u, v), val in value.items()],
        directed=cg.directed, colors=tuple(cg.colors[x] for x in nodes))


def per_mask_unit_subclasses(cg, mode):
    """classes.unit_subclasses with every subset of units classified."""
    from netmoments.classes import class_id
    return (None, *(class_id(unit_subset(cg, mask), mode)
                    for mask in range(1, 1 << cg.r)))


# ---------------------------------------------------------------------------
# Class-table passes one row at a time: the references for the bulk
# ergm.GraphClassTable.statistic_counts and editgraph.build_edit_graph.

def per_row_statistic_counts(table, sids):
    """The statistic matrix from one full_counts call per class row."""
    import numpy as np
    from netmoments.counting import full_counts
    from netmoments.ergm import _edges
    r_max = max((sid.r for sid in sids), default=1)
    cols = np.empty((len(table.reps), len(sids)), dtype=np.float64)
    for i, word in enumerate(table.reps):
        counts = full_counts(make_graph(table.n, list(_edges(word, table.n))),
                             r_max)
        cols[i] = [counts.get(sid, 0) for sid in sids]
    return cols


def toggle_edit_graph(n):
    """The edit graph's adjacency from toggling every node pair of every
    class representative and canonicalizing the result."""
    import numpy as np
    from netmoments.canonical import canonicalize
    from netmoments.ergm import _edges, enumerate_classes
    table = enumerate_classes(n)
    reps = [_edges(word, n) for word in table.reps]
    key_to_index = {canonicalize(n, [(u, v, 1) for u, v in edges]).key: i
                    for i, edges in enumerate(reps)}
    adj = np.zeros((len(table), len(table)), dtype=np.int64)
    for i, edges in enumerate(reps):
        es = set(edges)
        for u in range(n):
            for v in range(u + 1, n):
                toggled = es ^ {(u, v)}
                key = canonicalize(n, [(a, b, 1) for a, b in toggled]).key
                adj[i, key_to_index[key]] += 1
    return adj


# ---------------------------------------------------------------------------
# The ERGM fit that checks the hull with an LP before every Newton fit: the
# reference for ergm.fit_ergm, which runs the LP only when a target fails.

def lp_first_fit_ergm(targets, n, statistic_ids=None):
    """fit_ergm with _check_hull ahead of the fit, for every target."""
    import numpy as np
    from netmoments import ergm
    from netmoments.classes import complete_count, universe_index
    if statistic_ids is None:
        statistic_ids = sorted(targets.values, key=lambda s: (s.r, s.key))
    statistic_ids = tuple(statistic_ids)
    table = ergm.enumerate_classes(n)
    X = table.statistic_counts(statistic_ids)
    logw = np.log(np.array(table.mults, dtype=np.float64))
    index = universe_index("simple", max(s.r for s in statistic_ids))
    exact = [targets.values[sid] * complete_count(index[sid.key], n)
             for sid in statistic_ids]
    t = np.array([float(x) for x in exact])
    ergm._check_hull(X, exact)
    beta, lz, logp, achieved, residual = ergm._newton(X, logw, t)
    return ergm.ErgmModel(n=n, statistics=statistic_ids,
                          beta={sid: float(b) for sid, b
                                in zip(statistic_ids, beta)},
                          log_z=float(lz), target_counts=t,
                          achieved_counts=achieved, residual=residual,
                          table=table, stat_matrix=X, log_probs=logp)


# ---------------------------------------------------------------------------
# Counting by enumeration: every connected edge subset (ESU on the line
# graph) classified on the spot.  The reference for counting.count_connected,
# which counts every mode from homomorphism counts.

class Classifier:
    """Maps concrete edge sets of a host graph to SubgraphIds, memoized on a
    relabeled signature so canonicalization runs once per shape."""

    def __init__(self, mode, directed, host_colors=None):
        self.mode = mode
        self.directed = directed
        self.host_colors = host_colors  # node -> color, or None
        self.cache = {}

    def classify(self, slots, mults=None):
        """slots: tuple of (u, v) host pairs (ordered if directed);
        mults: per-slot multiplicities (weighted mode)."""
        from netmoments.classes import ClassGraph, class_id
        remap = {}
        sig_edges = []
        for idx, (u, v) in enumerate(slots):
            a = remap.setdefault(u, len(remap))
            b = remap.setdefault(v, len(remap))
            val = 1 if mults is None else mults[idx]
            sig_edges.append((a, b, val))
        if self.host_colors is None:
            colors = (0,) * len(remap)
        else:
            colors = tuple(self.host_colors[x] for x in remap)
        sig = (tuple(sig_edges), colors)
        sid = self.cache.get(sig)
        if sid is None:
            cg = ClassGraph.make(len(remap), sig_edges, directed=self.directed,
                                 colors=colors)
            sid = class_id(cg, self.mode)
            self.cache[sig] = sid
        return sid


def esu_counts(G, r_max):
    """count_connected by enumeration: every connected edge subset of G with
    <= r_max edges is classified, in any mode.  Weighted counts are
    Fractions, zero counts of zero-weight edges included."""
    from netmoments.counting import check_order, connected_edge_subsets
    mode = G.mode()
    check_order(mode, r_max)
    colors = None
    if mode in ("attributed", "bipartite"):
        colors = node_colors(G)
    slots = sorted(G.edges)
    clf = Classifier(mode, G.directed, colors)
    counts = {}
    if not G.weighted:
        for sub in connected_edge_subsets(slots, r_max):
            sid = clf.classify(tuple(slots[i] for i in sub))
            counts[sid] = counts.get(sid, 0) + 1
        return counts

    # weighted: distribute multiplicities over each connected slot subset
    weights = [G.edges[s] for s in slots]
    for sub in connected_edge_subsets(slots, r_max):
        pair = tuple(slots[i] for i in sub)
        for mults in compositions_upto(len(sub), r_max):
            sid = clf.classify(pair, mults)
            w = Fraction(1)
            for i, mexp in zip(sub, mults):
                w *= weights[i] ** mexp
            counts[sid] = counts.get(sid, Fraction(0)) + w
    return counts


def hom_universes():
    """(r, mode, labels) of every universe up to each mode's cap, the
    attributed ones with 1 to 3 labels."""
    from netmoments.counting import ORDER_CAPS
    for mode, cap in sorted(ORDER_CAPS.items()):
        for labels in (1, 2, 3) if mode == "attributed" else (2,):
            for r in range(1, cap + 1):
                yield r, mode, labels


def run_steps(steps, host):
    """The reference interpreter of a hom program's steps (see
    counting._compile): each step's value on the host, in step order, a
    value set to None after the step that frees it."""
    vals = []
    for op, args, dead in steps:
        vals.append(op(host, *map(vals.__getitem__, args)))
        for slot in dead:
            vals[slot] = None
    return vals


def hom_values(program, host):
    """Each row's hom values, quotient by quotient, of a program
    (rows, steps) run on a host by run_steps."""
    rows, steps = program
    vals = run_steps(steps, host)
    return [[vals[slot] for slot in slots] for _, _, slots, _ in rows]


def moebius_sums(program, host):
    """Each row's Moebius sum of its hom values and coefficients, as
    count_connected divides it by |Aut|, by the reference interpreter."""
    return [sum(map(operator.mul, coeffs, values)) for (_, _, _, coeffs),
            values in zip(program[0], hom_values(program, host))]


def compositions_upto(s, r_max):
    """All tuples of s positive ints with sum <= r_max."""
    return [c for total in range(s, r_max + 1)
            for c in compositions(total, s)]


def compositions(total, parts):
    if parts == 1:
        return [(total,)]
    return [(first,) + rest for first in range(1, total - parts + 2)
            for rest in compositions(total - first, parts - 1)]


def _neighbor_sets(G):
    nbr = {}
    for u, v in G.edges:
        nbr.setdefault(u, set()).add(v)
        nbr.setdefault(v, set()).add(u)
    return nbr


def _with_local_kappa(stats, kappa, scale):
    from netmoments.cumulants import signed_root
    stats.kappa_triangle = kappa
    if scale != 0:
        stats.kappa_scaled = kappa / scale
        stats.kappa_root = signed_root(stats.kappa_scaled, 3)
    return stats


def node_local_reference(G, v, r_max=3):
    """node_local_cumulants by closed forms over v's neighbourhood, for a
    simple graph with n >= 3 (n >= 4 at third order)."""
    from netmoments.localstats import LocalStats
    nbr = _neighbor_sets(G)
    mine = nbr.get(v, set())
    n, deg = G.n, len(mine)
    half = Fraction((n - 1) * (n - 2), 2)   # C(n-1, 2)
    mu = {"self": Fraction(deg, n - 1),
          "other": Fraction(G.m - deg) / half}
    if r_max >= 2:
        mu["wedge-center"] = Fraction(deg * (deg - 1) // 2) / half
        mu["wedge-end"] = Fraction(sum(len(nbr[u]) - 1 for u in mine)) \
            / (2 * half)
    stats = LocalStats(anchor=v, mode="local-node", moments=mu)
    if r_max < 3:
        return stats
    mu["triangle"] = Fraction(sum(1 for u in mine for w in mine
                                  if u < w and w in nbr[u])) / half
    kappa = (mu["triangle"] - mu["wedge-center"] * mu["other"]
             - 2 * mu["wedge-end"] * mu["self"]
             + 2 * mu["self"] ** 2 * mu["other"])
    return _with_local_kappa(stats, kappa, mu["self"] ** 2 * mu["other"])


def edge_local_reference(G, e, r_max=3):
    """edge_local_cumulants by closed forms around the present edge e, for
    a simple graph with n >= 3."""
    from netmoments.localstats import LocalStats
    nbr = _neighbor_sets(G)
    u, v = min(e), max(e)
    n = G.n
    # wedges through the anchor edge: the anchor and one more edge at u or v
    attached = len(nbr[u]) - 1 + len(nbr[v]) - 1
    detached = sum(len(s) * (len(s) - 1) // 2 for s in nbr.values()) \
        - attached
    mu = {"star": Fraction(1),
          "detached": Fraction(G.m - 1, n * (n - 1) // 2 - 1)}
    if r_max >= 2:
        mu["wedge-attached"] = Fraction(attached, 2 * (n - 2))
        mu["wedge-detached"] = Fraction(
            detached, 3 * (n * (n - 1) * (n - 2) // 6) - 2 * (n - 2))
    stats = LocalStats(anchor=(u, v), mode="local-edge", moments=mu)
    if r_max < 3:
        return stats
    mu["triangle"] = Fraction(len(nbr[u] & nbr[v]), n - 2)
    kappa = (mu["triangle"] - 2 * mu["wedge-attached"] * mu["detached"]
             - mu["wedge-detached"] * mu["star"]
             + 2 * mu["star"] * mu["detached"] ** 2)
    return _with_local_kappa(stats, kappa, mu["star"] * mu["detached"] ** 2)
