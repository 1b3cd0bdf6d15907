"""Exact small-n maximum-entropy graph models.

The model family is p(G) proportional to ER_{n,1/2}(G) * exp(sum_g beta_g
c_g(G)) over all simple graphs on n nodes.  Everything is computed exactly
over the isomorphism-class table: each class contributes its labeled
multiplicity n!/|Aut| as base-measure weight.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .canonical import canonicalize
from .classes import complete_count, universe_index
from .counting import full_counts, unique
from .graphs import SizeCapError
from .moments import MomentVector

_CLASS_TABLE_CACHE = {}

KNOWN_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044,
                      8: 12346, 9: 274668, 10: 12005168}


@dataclass
class GraphClassTable:
    n: int
    reps: list          # representative edge tuples
    mults: list         # labeled multiplicities n!/|Aut|

    def __len__(self):
        return len(self.reps)

    def stack(self, dtype):
        """The representatives' adjacency arrays as one (rows, n, n)
        array of 0/1 entries, rows in table order."""
        sizes = np.fromiter(map(len, self.reps), dtype=np.intp,
                            count=len(self.reps))
        ends = np.fromiter(itertools.chain.from_iterable(
            itertools.chain.from_iterable(self.reps)), dtype=np.intp,
            count=2 * int(sizes.sum()))
        stack = np.zeros((len(self.reps), self.n, self.n), dtype=dtype)
        stack[np.arange(len(self.reps)).repeat(sizes), ends[0::2],
              ends[1::2]] = 1
        stack |= stack.mT
        return stack

    def statistic_counts(self, sids):
        """Matrix of c_g per class row for the given statistic ids, rows in
        table order.

        Counts through the largest statistic order with one full_counts
        call on the stack of the representatives' adjacency arrays, which
        gives each class's counts as a column over the rows.
        """
        r_max = max((sid.r for sid in sids), default=1)
        counts = full_counts(self.stack(bool), r_max)
        cols = np.empty((len(self.reps), len(sids)), dtype=np.float64)
        for j, sid in enumerate(sids):
            cols[:, j] = counts.get(sid, 0)
        return cols


def enumerate_classes(n, allow_large=False):
    """All isomorphism classes of simple graphs on n nodes, with labeled
    multiplicities.

    Classes on k + 1 nodes grow from the classes on k nodes by adding node
    k with a neighbour mask.  _augment finds each class once, and
    _first_children puts them in the order, and with the representatives,
    of the walk over (parent in table order, mask ascending) that keeps
    the first child of each class.
    """
    if n < 0:
        raise ValueError(f"node count must be nonnegative, got n={n}")
    if n > 10 or (n > 9 and not allow_large):
        raise SizeCapError(
            f"class enumeration capped at n=9 (n=10 behind allow_large); "
            f"got n={n}")
    if n in _CLASS_TABLE_CACHE:
        return _CLASS_TABLE_CACHE[n]
    grown = [((), (), 1)]                  # the graph with no nodes
    reps, auts = [()], [1]
    for k in range(n):
        nxt, found = _augment(k, grown, last=k + 1 == n)
        reps, auts = _first_children(k, reps, grown, *found)
        grown = nxt
    nfact = math.factorial(n)
    mults = [nfact // aut for aut in auts]
    expected = KNOWN_CLASS_COUNTS.get(n)
    if expected is not None and len(reps) != expected:
        raise AssertionError(
            f"enumeration found {len(reps)} classes at n={n}, "
            f"expected {expected}")
    if sum(mults) != 1 << (n * (n - 1) // 2):
        raise AssertionError(
            f"class multiplicities at n={n} sum to {sum(mults)}, "
            f"not 2^C(n,2)")
    table = GraphClassTable(n=n, reps=reps, mults=mults)
    _CLASS_TABLE_CACHE[n] = table
    return table


def _child_edges(parent, k, mask):
    """The parent's edges, then (j, k) for every bit j of mask, ascending.
    The (j, k) pairs are shared by every child on k + 1 nodes."""
    pairs = _new_pairs(k)
    return parent + tuple(pairs[j] for j in range(k) if mask >> j & 1)


@lru_cache(maxsize=None)
def _new_pairs(k):
    """The edges (j, k) that can join node k to nodes 0..k-1, by j."""
    return tuple((j, k) for j in range(k))


@lru_cache(maxsize=None)
def _mask_bits(k):
    """Row mask holds the bits of mask over columns 0..k-1 (read-only, as
    every caller shares it)."""
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    bits.setflags(write=False)
    return bits


def _pack_codes(deg, tri, walk2, walk3):
    """Node invariant codes: each packs the node's degree, the edges among
    its neighbours and its 2- and 3-step walk counts, in that order of
    significance; each field fits its bits for up to 10 nodes."""
    return deg << 23 | tri << 17 | walk2 << 10 | walk3


def graph_invariants(stack):
    """The invariant of each graph of an int64 (rows, n, n) adjacency
    stack that _first_children reads classes by: its sorted node codes."""
    deg = stack.sum(axis=2)
    walk2 = np.matvec(stack, deg)
    tri = ((stack @ stack) * stack).sum(axis=2) // 2
    return _invariants(_pack_codes(deg, tri, walk2, np.matvec(stack, walk2)))


def _node_codes(parent, k):
    """Invariant code (_pack_codes) of every node (column) of every child
    (row, by mask) of a k-node parent."""
    adj = np.zeros((k, k), dtype=np.int64)
    for u, v in parent:
        adj[u, v] = adj[v, u] = 1
    bits = _mask_bits(k)

    def walk(x):
        """x summed over each node's neighbours in every child."""
        out = np.empty_like(x)
        out[:, :k] = x[:, :k] @ adj + bits * x[:, k:]
        out[:, k] = (bits * x[:, :k]).sum(axis=1)
        return out

    deg = walk(np.ones((1 << k, k + 1), dtype=np.int64))
    walk2 = walk(deg)
    inside = bits @ adj                 # neighbours of node j in the mask
    tri = np.empty_like(deg)
    tri[:, :k] = ((adj @ adj) * adj).sum(axis=1) // 2 + bits * inside
    tri[:, k] = (bits * inside).sum(axis=1) // 2
    return _pack_codes(deg, tri, walk2, walk(walk2))


def _invariants(codes):
    """One hashable invariant per row: the row's codes, sorted, as bytes."""
    codes = np.sort(codes, axis=1)
    return codes.view(f"S{codes.itemsize * codes.shape[1]}").ravel().tolist()


def _orbit_minima(k, generators):
    """The least mask of each mask's orbit under the group the node
    permutations generate on masks over k nodes, by mask, and the size of
    each orbit, by its least mask."""
    masks = np.arange(1 << k)
    least = masks
    images = [_mask_bits(k) @ (1 << np.array(g)) for g in generators]
    while True:
        prev = least
        for image in images:
            least = np.minimum(least, least[image])
        if np.array_equal(least, prev):
            return least, np.bincount(least, minlength=1 << k)


def _orbit(v, generators):
    """The nodes the permutations map v to, v included."""
    seen, todo = {v}, [v]
    while todo:
        x = todo.pop()
        for g in generators:
            if g[x] not in seen:
                seen.add(g[x])
                todo.append(g[x])
    return seen


def _augment(k, grown, last):
    """Each class on k + 1 nodes once, by canonical augmentation (McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 1998).

    grown holds one graph per class on k nodes with generators and the
    order of its automorphism group.  Each graph takes one mask per orbit
    of its automorphisms, and the child is kept only if node k lies in the
    automorphism orbit of the child's canonical node: the first node in
    canonical order among those with the largest invariant code.  Comparing
    codes drops most children before any canonical search.

    On the last level a child whose node k alone has the largest code is
    kept unsearched: node k is its canonical node, and every automorphism
    fixes it, so the child's automorphisms are those of the parent that
    fix the mask, |Aut| / |orbit of the mask| of them (orbit-stabilizer).
    Its key is left None.

    Returns the kept children with their generators and group orders (none
    on the last level, from which nothing grows), and the (keys, auts,
    invariants, sources) of their classes, where source p << k | mask is
    the child of grown[p] by mask.
    """
    nxt, keys, auts, invariants = [], [], [], []
    sources = array("q")
    for p, (parent, generators, parent_aut) in enumerate(grown):
        codes = _node_codes(parent, k)
        top = codes[:, k]
        rest = codes[:, :k].max(axis=1, initial=-1)
        least, orbit_sizes = _orbit_minima(k, generators)
        masks = np.flatnonzero((top >= rest) & (least == np.arange(1 << k)))
        sizes = orbit_sizes[masks].tolist()
        tied = (top == rest)[masks].tolist()
        for mask, size, tie, inv in zip(masks.tolist(), sizes, tied,
                                        _invariants(codes[masks])):
            if last and not tie:
                aut, rem = divmod(parent_aut, size)
                if rem:
                    raise AssertionError(
                        f"a mask orbit of {size} does not divide an "
                        f"automorphism group of order {parent_aut}")
                key = None
            else:
                edges = _child_edges(parent, k, mask)
                res = canonicalize(k + 1, [(u, v, 1) for u, v in edges])
                if tie:
                    row = codes[mask].tolist()
                    first = next(v for v in res.order if row[v] == row[k])
                    if k not in _orbit(first, res.generators):
                        continue
                if not last:
                    nxt.append((edges, res.generators, res.aut))
                key, aut = res.key, res.aut
            keys.append(key)
            auts.append(aut)
            invariants.append(inv)
            sources.append(p << k | mask)
    return nxt, (keys, auts, invariants, sources)


def _first_children(k, parents, grown, keys, auts, invariants, sources):
    """(reps, auts) of the classes on k + 1 nodes in the order in
    which the walk over (parent, mask ascending) first reaches them, each
    with that first child as representative.  A child's class is read from
    its invariant when only one class has it, and from its canonical key
    otherwise, so the classes that share an invariant have their missing
    keys searched first, on the children of grown that _augment found them
    by.  A key found twice means a class was made twice."""
    classes_of = {}                 # invariant -> classes that have it
    for c, inv in enumerate(invariants):
        classes_of.setdefault(inv, []).append(c)
    for cs in classes_of.values():
        if len(cs) == 1:
            continue
        for c in cs:
            if keys[c] is None:
                p, mask = divmod(sources[c], 1 << k)
                edges = _child_edges(grown[p][0], k, mask)
                keys[c] = canonicalize(
                    k + 1, [(u, v, 1) for u, v in edges]).key
    index = {key: c for c, key in enumerate(keys) if key is not None}
    if len(index) < len(keys) - keys.count(None):
        raise AssertionError(
            f"canonical augmentation made a class on {k + 1} nodes twice")
    unseen = {inv: len(cs) for inv, cs in classes_of.items()}
    reps = {}                       # class -> first child, in walk order
    for parent in parents:
        for mask, inv in enumerate(_invariants(_node_codes(parent, k))):
            if not unseen.get(inv, 1):
                continue
            edges = _child_edges(parent, k, mask)
            cs = classes_of.get(inv, ())
            c = cs[0] if len(cs) == 1 else index.get(canonicalize(
                k + 1, [(u, v, 1) for u, v in edges]).key)
            if c is None:
                raise AssertionError(
                    f"a child on {k + 1} nodes matches no enumerated class")
            if c not in reps:
                reps[c] = edges
                unseen[inv] -= 1
        if len(reps) == len(keys):
            break
    return list(reps.values()), [auts[c] for c in reps]


class InfeasibleTargetError(ValueError):
    """Target statistics on or outside the convex hull of realizable
    count tuples."""

    def __init__(self, message, direction=None):
        super().__init__(message)
        self.direction = direction


@dataclass
class ErgmModel:
    n: int
    statistics: tuple      # SubgraphIds
    beta: dict             # SubgraphId -> float
    log_z: float
    target_counts: np.ndarray
    achieved_counts: np.ndarray
    residual: float
    table: GraphClassTable = field(repr=False)
    stat_matrix: np.ndarray = field(repr=False)
    log_probs: np.ndarray = field(repr=False)

    def achieved_moments(self):
        index = universe_index("simple", max(s.r for s in self.statistics))
        out = {}
        for j, sid in enumerate(self.statistics):
            denom = complete_count(index[sid.key], self.n)
            out[sid] = self.achieved_counts[j] / float(denom)
        return out

    def to_json_dict(self):
        return {
            "n": self.n,
            "statistics": [{"id": s.serialize(), "alias": s.alias}
                           for s in self.statistics],
            "beta": {(s.alias or s.serialize()): repr(self.beta[s])
                     for s in self.statistics},
            "log_z": self.log_z,
            "target_counts": [float(t) for t in self.target_counts],
            "achieved_counts": [float(a) for a in self.achieved_counts],
            "residual": self.residual,
        }


def _check_hull(X, t):
    """Raise InfeasibleTargetError when t is outside the convex hull of the
    rows of X, or on an axis-aligned face of it (some component at its
    column's minimum or maximum).

    Finds a maximum-margin separating direction via linear programming; a
    nonnegative optimal margin means no point of the hull lies strictly
    beyond t in that direction.  A target on any other face of the hull
    passes and is left to the fit.
    """
    from scipy.optimize import linprog

    k = X.shape[1]
    # membership: lambda >= 0, sum lambda = 1, X^T lambda = t
    A_eq = np.vstack([X.T, np.ones((1, X.shape[0]))])
    b_eq = np.concatenate([t, [1.0]])
    res = linprog(c=np.zeros(X.shape[0]), A_eq=A_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if not res.success:
        # separating direction: max t.d - s with s >= x_i.d, |d|_inf <= 1
        c = np.concatenate([-t, [1.0]])
        A_ub = np.hstack([X, -np.ones((X.shape[0], 1))])
        lp = linprog(c=c, A_ub=A_ub, b_ub=np.zeros(X.shape[0]),
                     bounds=[(-1, 1)] * k + [(None, None)], method="highs")
        direction = None
        if lp.success and -lp.fun > 1e-9:
            direction = lp.x[:k]
        raise InfeasibleTargetError(
            "target lies outside the convex hull of realizable counts"
            + ("" if direction is None else
               f"; violated support direction {np.round(direction, 6).tolist()}"
               "; consider reducing the unbiasing parameter eta"),
            direction=direction)
    # boundary check along each axis: strict interior requires strict
    # inequalities against the support extremes
    for j in range(k):
        lo, hi = X[:, j].min(), X[:, j].max()
        if not (lo < t[j] < hi):
            d = np.zeros(k)
            d[j] = 1.0 if t[j] >= hi else -1.0
            raise InfeasibleTargetError(
                f"target component {j} sits on the hull boundary "
                f"(value {t[j]}, support [{lo}, {hi}]); consider reducing "
                "the unbiasing parameter eta", direction=d)


def _logsumexp(a):
    mx = a.max()
    return mx + math.log(np.exp(a - mx).sum())


def fit_ergm(targets: MomentVector, n, statistic_ids=None, allow_large=False,
             tol=1e-8, max_iter=200):
    """Fit beta so the model's expected counts match the target moments.

    Damped Newton on the convex dual f(beta) = ln Z - beta.t with Armijo
    backtracking; the Hessian is the statistic covariance, PSD by
    construction.

    A fit that reaches tol is a distribution over the classes whose mean
    is t, so t is in the hull and no LP is needed.  The hull is checked
    (with scipy's linprog) only for a target on or outside some column's
    support range, or when the fit fails: a target outside the hull then
    reports the hull's error, as if it had been checked first.
    """
    if statistic_ids is None:
        statistic_ids = sorted(targets.values, key=lambda s: (s.r, s.key))
    statistic_ids = tuple(statistic_ids)
    repeated = ", ".join(dict.fromkeys(
        s.alias or s.serialize() for s in statistic_ids
        if statistic_ids.count(s) > 1))
    if repeated:
        raise ValueError(f"statistics given more than once: {repeated}")
    missing = ", ".join(s.alias or s.serialize() for s in statistic_ids
                        if s not in targets.values)
    if missing or not statistic_ids:
        raise ValueError(f"no target moment for {missing or 'any statistic'}"
                         ": fit classes within the targets' order and n")
    table = enumerate_classes(n, allow_large=allow_large)
    X = table.statistic_counts(statistic_ids)
    logw = np.log(np.array(table.mults, dtype=np.float64))
    index = universe_index("simple", max(s.r for s in statistic_ids))
    t = np.array([float(targets.values[sid]
                        * complete_count(index[sid.key], n))
                  for sid in statistic_ids])
    if not np.all((X.min(axis=0) < t) & (t < X.max(axis=0))):
        _check_hull(X, t)       # raises: t is on or past some column's range
    try:
        beta, lz, logp, achieved, residual = _newton(X, logw, t, tol,
                                                     max_iter)
    except Exception:
        _check_hull(X, t)
        raise
    return ErgmModel(n=n, statistics=statistic_ids,
                     beta={sid: float(b) for sid, b
                           in zip(statistic_ids, beta)},
                     log_z=float(lz), target_counts=t,
                     achieved_counts=achieved, residual=residual,
                     table=table, stat_matrix=X, log_probs=logp)


def _newton(X, logw, t, tol, max_iter):
    """(beta, ln Z, log p, achieved counts, residual) of the fit to t."""
    beta = np.zeros(X.shape[1])

    def dual(b):
        return _logsumexp(logw + X @ b) - b @ t

    f = dual(beta)
    for it in range(max_iter):
        a = logw + X @ beta
        a -= a.max()
        p = np.exp(a)
        p /= p.sum()
        mean = p @ X
        grad = mean - t
        scale = max(np.abs(t).max(), 1.0)
        resid = np.abs(grad).max() / scale
        if resid <= tol * 1e-2:
            break
        centered = X - mean
        H = (centered * p[:, None]).T @ centered
        # covariance matrix: PSD up to rounding
        min_eig = np.linalg.eigvalsh(H).min()
        if not min_eig > -1e-6 * max(1.0, H.max()):
            raise AssertionError(
                f"statistic covariance is not PSD (min eigenvalue "
                f"{min_eig:.3e})")
        try:
            step = np.linalg.solve(H + 1e-12 * np.eye(len(beta)), -grad)
        except np.linalg.LinAlgError:
            step = -grad
        if not np.all(np.isfinite(step)):
            step = -grad
        # Armijo backtracking
        alpha = 1.0
        for _ in range(60):
            cand = beta + alpha * step
            fc = dual(cand)
            if fc <= f + 1e-4 * alpha * (grad @ step):
                beta, f = cand, fc
                break
            alpha *= 0.5
        else:
            step = -grad
            alpha = 1.0 / max(1.0, np.abs(grad).max())
            beta = beta + alpha * step
            f = dual(beta)
        if np.abs(beta).max() > 500:
            raise InfeasibleTargetError(
                "fit diverging: target appears to lie on the hull boundary; "
                "consider reducing the unbiasing parameter eta",
                direction=beta / np.abs(beta).max())

    a = logw + X @ beta
    lz = _logsumexp(a)
    logp = a - lz
    p = np.exp(logp)
    if not abs(p.sum() - 1.0) < 1e-12:
        raise AssertionError(
            f"class probabilities sum to {p.sum()!r}, not 1")
    achieved = p @ X
    scale = max(np.abs(t).max(), 1.0)
    residual = float(np.abs(achieved - t).max() / scale)
    if residual > tol:
        raise InfeasibleTargetError(
            f"fit did not reach tolerance (residual {residual:.3e}); target "
            "may lie too close to the hull boundary")
    return beta, lz, logp, achieved, residual


@dataclass
class StatHistogram:
    statistic: object
    support: np.ndarray
    probabilities: np.ndarray
    mean: float
    modes: list
    modality: int

    def to_json_dict(self):
        return {
            "statistic": {"id": self.statistic.serialize(),
                          "alias": self.statistic.alias},
            "support": [int(s) for s in self.support],
            "probabilities": [float(p) for p in self.probabilities],
            "mean": self.mean,
            "modes": [int(m) for m in self.modes],
            "modality": self.modality,
        }


def ergm_distribution(model: ErgmModel, sid):
    """Exact marginal distribution of one statistic under the model."""
    if sid in model.statistics:
        col = model.stat_matrix[:, model.statistics.index(sid)]
    else:
        col = model.table.statistic_counts((sid,))[:, 0]
    p = np.exp(model.log_probs)
    support = unique(col)
    probs = np.array([p[col == s].sum() for s in support])
    mean = float((p * col).sum())
    modes, modality = _modes(probs)
    return StatHistogram(statistic=sid, support=support, probabilities=probs,
                         mean=mean, modes=[int(support[i]) for i in modes],
                         modality=modality)


def _modes(probs, min_separation=3, mass_floor=0.10):
    """Indices of large-scale modes.

    Exact histograms over graph classes show two kinds of small-scale
    structure that are not degeneracy: flat plateaus and short-period
    (parity) wiggles.  So: plateau-merge, find local maxima, merge maxima
    closer than min_separation support steps (keeping the taller), then
    split the support at the minima between surviving maxima and drop any
    basin carrying less than mass_floor of the probability, folding it into
    its neighbor.  What remains are the macroscopic modes.
    """
    groups = []  # (start, end, value)
    i = 0
    while i < len(probs):
        j = i
        while j + 1 < len(probs) and np.isclose(probs[j + 1], probs[i],
                                                rtol=1e-12, atol=0):
            j += 1
        groups.append((i, j, probs[i]))
        i = j + 1
    locmax = []
    for gi, (s, e, v) in enumerate(groups):
        left = groups[gi - 1][2] if gi > 0 else -1.0
        right = groups[gi + 1][2] if gi + 1 < len(groups) else -1.0
        if v > left and v > right:
            locmax.append([(s + e) // 2, v])
    # merge short-range (parity-scale) maxima, keeping the taller
    merged = True
    while merged and len(locmax) > 1:
        merged = False
        for gi in range(len(locmax) - 1):
            if locmax[gi + 1][0] - locmax[gi][0] < min_separation:
                keep = locmax[gi] if locmax[gi][1] >= locmax[gi + 1][1] \
                    else locmax[gi + 1]
                locmax[gi:gi + 2] = [keep]
                merged = True
                break
    # basins: split at the minimum between consecutive maxima
    cuts = [0]
    for gi in range(len(locmax) - 1):
        lo, hi = locmax[gi][0], locmax[gi + 1][0]
        cuts.append(lo + int(np.argmin(probs[lo:hi + 1])))
    cuts.append(len(probs))
    basins = [(cuts[gi], cuts[gi + 1], locmax[gi][0])
              for gi in range(len(locmax))]
    # fold negligible basins into their heavier neighbor
    while len(basins) > 1:
        masses = [probs[s:e].sum() for s, e, _ in basins]
        smallest = int(np.argmin(masses))
        if masses[smallest] >= mass_floor:
            break
        if smallest == 0:
            nbr = 1
        elif smallest == len(basins) - 1:
            nbr = smallest - 1
        else:
            nbr = smallest - 1 if masses[smallest - 1] >= masses[smallest + 1] \
                else smallest + 1
        lo = min(smallest, nbr)
        s0, _, _ = basins[lo]
        _, e1, _ = basins[lo + 1]
        peak_idx = basins[lo][2] if probs[basins[lo][2]] >= \
            probs[basins[lo + 1][2]] else basins[lo + 1][2]
        basins[lo:lo + 2] = [(s0, e1, peak_idx)]
    modes = [b[2] for b in basins]
    return modes, len(modes)


def degeneracy_diagnostics(h: StatHistogram):
    """Modality report: local maxima, distance from the mean to the nearest
    mode in support steps, and a bimodality verdict."""
    support = h.support
    nearest = None
    if h.modes:
        mean_idx = int(np.argmin(np.abs(support - h.mean)))
        nearest = min(abs(mean_idx - int(np.argmin(np.abs(support - m))))
                      for m in h.modes)
    return {
        "modes": h.modes,
        "modality": h.modality,
        "mean": h.mean,
        "mean_to_nearest_mode_steps": nearest,
        "bimodal": h.modality >= 2,
    }
