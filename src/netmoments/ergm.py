"""Exact small-n maximum-entropy graph models.

The model family is p(G) proportional to ER_{n,1/2}(G) * exp(sum_g beta_g
c_g(G)) over all simple graphs on n nodes.  Everything is computed exactly
over the isomorphism-class table: each class contributes its labeled
multiplicity n!/|Aut| as base-measure weight.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .canonical import canonicalize
from .classes import complete_count, universe_index
from .counting import full_counts, unique
from .graphs import SizeCapError
from .moments import MomentVector

_CLASS_TABLE_CACHE = {}

KNOWN_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044,
                      8: 12346, 9: 274668}


@dataclass
class GraphClassTable:
    n: int
    reps: array         # representatives as graph words (_adjacency)
    mults: list         # labeled multiplicities n!/|Aut|

    def __len__(self):
        return len(self.reps)

    def stack(self, dtype):
        """The representatives' adjacency arrays as one (rows, n, n)
        array of 0/1 entries, rows in table order."""
        return _adjacency(self.reps, self.n, dtype)

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


def enumerate_classes(n):
    """All isomorphism classes of simple graphs on n nodes, with labeled
    multiplicities.

    Classes on k + 1 nodes grow from the table on k nodes in one pass over
    its representatives (_next_level), each child adding node k with a
    neighbour mask.  Rows are in the order of the walk over (parent in
    table order, mask ascending), each with the first child of its class
    as representative.  Below the last level each representative is
    searched once, for the generators of its automorphism group that the
    next level reads; multiplicities are counted, with no search.
    """
    if n < 0:
        raise ValueError(f"node count must be nonnegative, got n={n}")
    if n > 9:
        raise SizeCapError(f"class enumeration capped at n=9; got n={n}")
    if n in _CLASS_TABLE_CACHE:
        return _CLASS_TABLE_CACHE[n]
    reps, generators, mults = array("q", [0]), [()], [1]   # no nodes
    for k in range(n):
        reps, mults = _next_level(k, reps, generators, mults)
        if k + 1 < n:
            generators = [canonicalize(k + 1, [(u, v, 1) for u, v
                                               in _edges(rep, k + 1)])
                          .generators for rep in reps]
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


def _adjacency(words, n, dtype=np.int64):
    """The graphs on n nodes that words hold, as one (rows, n, n) array of
    0/1 entries.

    A graph word has bit v(v-1)/2 + u set for each edge u < v, so the
    pairs of node k are the k bits from k(k-1)/2 up, and a child of a
    k-node parent is parent | mask << k(k-1)/2.  np.tril_indices lists
    the pairs (v, u) in that bit order.
    """
    words = np.asarray(words, dtype="<i8")
    v, u = np.tril_indices(n, -1)
    bits = np.unpackbits(words.view(np.uint8).reshape(-1, 8), axis=1,
                         count=len(v), bitorder="little")
    adj = np.zeros((len(words), n, n), dtype=dtype)
    adj[:, v, u] = adj[:, u, v] = bits
    return adj


def _edges(word, n):
    """The edges (u, v), u < v, of a graph word on n nodes, in bit
    order."""
    pairs = ((u, v) for v in range(n) for u in range(v))
    return tuple(pair for b, pair in enumerate(pairs) if word >> b & 1)


@lru_cache(maxsize=None)
def _mask_bits(k):
    """Row mask holds the bits of mask over columns 0..k-1 (read-only, as
    every caller shares it)."""
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    bits.setflags(write=False)
    return bits


def _pack_codes(deg, tri, walk2, walk3, closed4):
    """Node invariant codes: each packs the node's degree, the edges among
    its neighbours, its 2- and 3-step walk counts and its closed 4-step
    walks, in that order of significance; each field fits its bits for up
    to 9 nodes, and the sorted codes tell apart every class on up to 9
    nodes."""
    return deg << 33 | tri << 27 | walk2 << 20 | walk3 << 10 | closed4


def graph_invariants(stack):
    """The invariant of each graph of an int64 (rows, n, n) adjacency
    stack that _next_level reads classes by: its sorted node codes."""
    deg = stack.sum(axis=2)
    walk2 = np.matvec(stack, deg)
    square = stack @ stack
    tri = (square * stack).sum(axis=2) // 2
    return _invariants(_pack_codes(deg, tri, walk2, np.matvec(stack, walk2),
                                   (square * square).sum(axis=2)))


def _node_codes(adj, k):
    """Invariant code (_pack_codes) of every node (column) of every child
    (row, by mask) of a k-node parent with int64 adjacency adj."""
    bits = _mask_bits(k)

    def walk(x):
        """x summed over each node's neighbours in every child."""
        out = np.empty_like(x)
        out[:, :k] = x[:, :k] @ adj + bits * x[:, k:]
        out[:, k] = (bits * x[:, :k]).sum(axis=1)
        return out

    deg = walk(np.ones((1 << k, k + 1), dtype=np.int64))
    walk2 = walk(deg)
    square = adj @ adj
    inside = bits @ adj                 # neighbours of node j in the mask
    tri = np.empty_like(deg)
    tri[:, :k] = (square * adj).sum(axis=1) // 2 + bits * inside
    tri[:, k] = (bits * inside).sum(axis=1) // 2
    # (A^4)_vv, the sum over u of (A^2)_vu^2, with the child's A^2 in
    # blocks: square + b b^T, the column inside and the corner |b|
    inside2 = inside * inside
    closed4 = np.empty_like(deg)
    closed4[:, :k] = ((square * square).sum(axis=1) + inside2
                      + bits * (2 * (bits @ square) + deg[:, k:]))
    closed4[:, k] = inside2.sum(axis=1) + deg[:, k] ** 2
    return _pack_codes(deg, tri, walk2, walk(walk2), closed4)


def _invariants(codes):
    """One hashable invariant per row: the row's codes, sorted, as bytes."""
    codes = np.sort(codes, axis=1)
    if not codes.shape[1]:
        return [b""] * len(codes)       # graphs on no nodes
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


def _next_level(k, parents, generators, parent_mults):
    """(reps, mults) of the classes on k + 1 nodes, from one pass over the
    classes on k nodes: parents (graph words) in table order, with
    generators of each one's automorphism group and its multiplicity.

    One _node_codes call per parent gives each child (parent, mask) its
    invariant, numbered in the order in which the walk first reaches it.
    The invariant tells every class apart, so each number is a class, and
    the first child of it is the representative.  The call also gives the
    candidates: one mask per orbit of the parent's automorphisms where the
    new node has the largest code (McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 1998).  Counting the labelled graphs of a
    class C with one node of T, C's nodes with the largest code, marked,
    once from C and once by deleting the marked node, gives

        mult(C) |T| = (k + 1) * sum over the candidates (P, mask) of C
                      of mult(P) |orbit of the mask|

    so no class is searched.
    """
    number = {}                 # invariant -> its number, in walk order
    walk = array("i")           # the invariant number of each child
    of, weights, ties = array("q"), array("q"), array("q")  # by candidate
    group = math.factorial(k)
    for p, adj in enumerate(_adjacency(parents, k)):
        codes = _node_codes(adj, k)
        numbers = [number.setdefault(inv, len(number))
                   for inv in _invariants(codes)]
        walk.extend(numbers)
        top = codes[:, k]
        least, orbit_sizes = _orbit_minima(k, generators[p])
        masks = np.flatnonzero((top >= codes[:, :k].max(axis=1, initial=-1))
                               & (least == np.arange(1 << k)))
        sizes, aut = orbit_sizes[masks], group // parent_mults[p]
        if (aut % sizes).any():
            raise AssertionError(
                f"a mask orbit of {sizes[aut % sizes > 0][0]} does not "
                f"divide an automorphism group of order {aut}")
        of.extend([numbers[m] for m in masks.tolist()])
        weights.extend((parent_mults[p] * sizes).tolist())
        ties.extend((codes[masks] == top[masks, None]).sum(axis=1).tolist())
    of = np.frombuffer(of, dtype=np.int64)
    ties = np.frombuffer(ties, dtype=np.int64)
    tops = np.zeros(len(number), dtype=np.int64)
    tops[of] = ties
    if not tops.all():
        raise AssertionError(
            f"a child on {k + 1} nodes matches no enumerated class")
    if (tops[of] != ties).any():
        raise AssertionError(
            f"candidates of one class on {k + 1} nodes disagree on its "
            "nodes with the largest code")
    marked = np.zeros(len(number), dtype=np.int64)
    np.add.at(marked, of, np.frombuffer(weights, dtype=np.int64))
    mults, rest = np.divmod((k + 1) * marked, tops)
    if rest.any():
        raise AssertionError(
            f"candidates on {k + 1} nodes do not count whole classes")
    # each class's first child: where the running maximum number rises
    # (an int32 -1 keeps the difference in int32: at n=9, 3.16 M children)
    walk = np.frombuffer(walk, dtype=np.intc)
    firsts = np.flatnonzero(np.diff(np.maximum.accumulate(walk),
                                    prepend=np.intc(-1)))
    reps = (np.asarray(parents)[firsts >> k]
            | (firsts & ((1 << k) - 1)) << (k * (k - 1) // 2))
    return array("q", reps.tobytes()), mults.tolist()


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
    """Raise InfeasibleTargetError when the exact target t (Fractions) is
    outside the convex hull of the rows of X, or on an axis-aligned face of
    it (some component at its column's minimum or maximum).

    One LP over the distinct rows x finds the d, |d|_inf <= 1, maximising
    d.t - max d.x.  t is outside when d.t > max d.x holds in Fractions for
    that d: no d passes for a t in the closed hull, so the LP's rounding
    needs no margin.  A target on any other face passes to the fit.
    """
    from scipy.optimize import linprog

    # np.unique(X, axis=0) by a lexicographic sort and a mask of the rows
    # that differ from their left neighbour, several times faster
    ordered = X[np.lexsort(X.T[::-1])]
    first = np.ones(len(ordered), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    rows = ordered[first]
    k = len(t)
    # max d.t - s with s >= d.x for every row
    lp = linprog(c=np.append([-float(x) for x in t], 1.0),
                 A_ub=np.hstack([rows, -np.ones((len(rows), 1))]),
                 b_ub=np.zeros(len(rows)),
                 bounds=[(-1, 1)] * k + [(None, None)], method="highs")
    if not lp.success:
        raise AssertionError(f"the hull LP failed: {lp.message}")
    direction = lp.x[:k]
    d = np.array([Fraction(v) for v in direction.tolist()], dtype=object)
    support = (rows.astype(np.int64).astype(object) @ d).max()
    if d @ np.array(t, dtype=object) > support:
        raise InfeasibleTargetError(
            "target lies outside the convex hull of realizable counts; "
            f"violated support direction {np.round(direction, 6).tolist()}"
            "; consider reducing the unbiasing parameter eta",
            direction=direction)
    # strict interior needs each component strictly inside its range
    for j, (lo, hi) in enumerate(zip(X.min(axis=0).tolist(),
                                     X.max(axis=0).tolist())):
        if not lo < t[j] < hi:
            axis = np.zeros(k)
            axis[j] = 1.0 if t[j] >= hi else -1.0
            raise InfeasibleTargetError(
                f"target component {j} sits on the hull boundary "
                f"(value {float(t[j])}, support [{lo}, {hi}]); consider "
                "reducing the unbiasing parameter eta", direction=axis)


def _logsumexp(a):
    mx = a.max()
    return mx + math.log(np.exp(a - mx).sum())


FIT_TOL = 1e-8          # largest relative residual of the counts a fit leaves
FIT_MAX_ITER = 200      # Newton steps a fit takes before FIT_TOL judges it


def fit_ergm(targets: MomentVector, n, statistic_ids=None):
    """Fit beta so the model's expected counts match the target moments.

    Damped Newton on the convex dual f(beta) = ln Z - beta.t with Armijo
    backtracking; the Hessian is the statistic covariance, PSD by
    construction.

    A fit that reaches FIT_TOL is a distribution over the classes whose mean
    is t, so t is in the hull and no LP is needed.  _check_hull runs on the
    exact target counts only for a target on or past some column's integer
    range, or when the fit fails: a target outside the hull then reports
    the hull's error, as if it had been checked first.  The fit runs on
    the counts as floats.
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
    table = enumerate_classes(n)
    X = table.statistic_counts(statistic_ids)
    logw = np.log(np.array(table.mults, dtype=np.float64))
    index = universe_index("simple", max(s.r for s in statistic_ids))
    exact = [targets.values[sid] * complete_count(index[sid.key], n)
             for sid in statistic_ids]
    t = np.array([float(x) for x in exact])
    if not all(lo < x < hi for x, lo, hi in zip(
            exact, X.min(axis=0).tolist(), X.max(axis=0).tolist())):
        _check_hull(X, exact)   # raises: t is on or past some column's range
    try:
        beta, lz, logp, achieved, residual = _newton(X, logw, t)
    except Exception:
        _check_hull(X, exact)
        raise
    return ErgmModel(n=n, statistics=statistic_ids,
                     beta={sid: float(b) for sid, b
                           in zip(statistic_ids, beta)},
                     log_z=float(lz), target_counts=t,
                     achieved_counts=achieved, residual=residual,
                     table=table, stat_matrix=X, log_probs=logp)


def _newton(X, logw, t):
    """(beta, ln Z, log p, achieved counts, residual) of the fit to t."""
    beta = np.zeros(X.shape[1])

    def dual(b):
        return _logsumexp(logw + X @ b) - b @ t

    f = dual(beta)
    for it in range(FIT_MAX_ITER):
        a = logw + X @ beta
        a -= a.max()
        p = np.exp(a)
        p /= p.sum()
        mean = p @ X
        grad = mean - t
        scale = max(np.abs(t).max(), 1.0)
        resid = np.abs(grad).max() / scale
        if resid <= FIT_TOL * 1e-2:
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
    if residual > FIT_TOL:
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


MODE_SEPARATION = 3     # closer maxima (support steps) are parity wiggles
MODE_MASS_FLOOR = 0.10  # a basin with less mass is folded into a neighbor


def _modes(probs):
    """Indices of large-scale modes.

    Exact histograms over graph classes show two kinds of small-scale
    structure that are not degeneracy: flat plateaus and short-period
    (parity) wiggles.  So: plateau-merge, find local maxima, merge maxima
    closer than MODE_SEPARATION support steps (keeping the taller), then
    split the support at the minima between surviving maxima and drop any
    basin carrying less than MODE_MASS_FLOOR of the probability, folding it
    into its neighbor.  What remains are the macroscopic modes.
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
            if locmax[gi + 1][0] - locmax[gi][0] < MODE_SEPARATION:
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
        if masses[smallest] >= MODE_MASS_FLOOR:
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
