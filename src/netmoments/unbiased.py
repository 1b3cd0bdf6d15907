"""Unbiased cumulant estimators, partial unbiasing, and Z-score tests.

The unbiased estimator kappa-check of a cumulant takes the cumulant's moment
polynomial (cumulants.cumulant_moment_polynomial, the Moebius inversion of
its edge-partition expansion) and replaces every product of moments with
the single moment of the disjoint union of the factors.  This makes the
estimator exactly unbiased under random node subsampling, and makes
kappa-check of every disconnected class identically zero.  Partial
unbiasing has closed forms through second order, and the exact variance
exists for the simple edge class only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .classes import ClassGraph, class_id, named_class, universe_positions
from .cumulants import (cumulant_moment_polynomial, IncompleteVectorError,
                        multiplier, scaled_positions)
from .graphs import SizeCapError
from .models import seeded_rng
from .moments import (MomentVector, _complete_counts, exact, per_n,
                      rational_json, vector_like)


@lru_cache(maxsize=None)
def _kappa_check_plans(mode: str, r_max: int, labels: int):
    """(plans, per-n plans).  plans holds, per universe position
    (classes.universe_positions), (connected, ((union position, coeff),
    ...)): each class's moment polynomial with every monomial replaced by
    the class of the disjoint union of its factors, like terms summed in
    order of first appearance.  A union has the class's edge count, so it
    is in the same universe.  Terms that sum to zero stay, so a union
    absent from the vector still makes the estimator absent.  Monomials
    recur across classes, so each union is classified once.  The per-n
    plans, by (n, label pools), are those _counts_plan builds from plans
    for vectors that carry their counts."""
    infos, at = universe_positions(mode, r_max, labels)
    unions = {}
    plans = []
    for ci in infos:
        plan = {}
        for mono, coeff in cumulant_moment_polynomial(ci.graph, mode).items():
            u = unions.get(mono)
            if u is None:
                u = unions[mono] = at[class_id(ClassGraph.disjoint_union(
                    [infos[at[pid.key]].graph for pid in mono]), mode).key]
            plan[u] = plan.get(u, 0) + coeff
        if not ci.connected and any(plan.values()):
            raise AssertionError(
                f"unbiased cumulant of disconnected class "
                f"{ci.id.serialize()} is not identically zero")
        plans.append((ci.connected, tuple(plan.items())))
    return tuple(plans), {}


def _counts_plan(plans, key):
    """kappa-check for a vector of counts (the carried form of
    MomentVector.carried, made at key): (scales, plans), per position the
    lcm Q of the nonzero complete counts C_u of the class's unions
    (moments._complete_counts) and (connected, ((union position,
    coeff * Q / C_u), ...)), so that the estimator is the sum of its
    terms times count_u, over Q.  An unrealizable union keeps its coeff:
    its count is None, so the estimator is absent, as it is for the same
    values without their counts."""
    C = [c for _, c in _complete_counts(*key)]
    scales, out = [], []
    for connected, plan in plans:
        q = math.lcm(*(C[u] for u, _ in plan if C[u]))
        scales.append(q)
        out.append((connected, tuple(
            (u, coeff * multiplier(q, C[u]) if C[u] else coeff)
            for u, coeff in plan)))
    return tuple(scales), tuple(out)


# kappa-check of every disconnected class, shared: Fractions are immutable
_ZERO = Fraction(0)


def unbiased_cumulants(m: MomentVector):
    """kappa-check for every class in the vector.

    Derived generically: take the moment polynomial of each cumulant and
    replace each monomial with the moment of the disjoint union of its
    factors.  Disconnected classes come out exactly zero: their plans sum
    to zero term by term (checked when the plans are built), so once no
    union they read is absent they take the shared zero with no
    arithmetic.  The estimator is linear in the moments, so each connected
    class sums integer numerators over one denominator and builds one
    Fraction (moments.exact): a vector that carries its counts
    (MomentVector.carried) sums them on the per-class scales of
    _counts_plan, built the first time its (n, label pools) comes up;
    any other vector sums its values on their common denominator
    (scaled_positions).
    """
    infos, at = universe_positions(m.mode, m.r_max, m.labels)
    plans, counts_plans = _kappa_check_plans(m.mode, m.r_max, m.labels)
    carried = m.carried()
    if carried is not None:
        key, x = carried
        scales, rows = per_n(counts_plans, key,
                             lambda key: _counts_plan(plans, key))
    else:
        lcm, x = scaled_positions(m.values, at, len(infos))
        scales, rows = [lcm] * len(plans), plans
    complete = None not in x
    out = {}
    absent = dict(m.absent)
    for sid in m.values:
        p = at[sid.key]
        connected, plan = rows[p]
        if not connected and complete:
            out[sid] = _ZERO
            continue
        acc = 0
        try:
            for u, coeff in plan:
                acc += coeff * x[u]
        except TypeError:
            uid = next(infos[u].id for u, _ in plan if x[u] is None)
            if uid not in m.absent:
                raise IncompleteVectorError(
                    f"moment vector lacks disjoint-union class "
                    f"{uid.alias or uid.serialize()} needed for unbiased "
                    f"{sid.alias or sid.serialize()}") from None
            absent[sid] = (f"needs moment of "
                           f"{uid.alias or uid.serialize()}, "
                           f"{m.absent[uid]}")
            continue
        out[sid] = exact(acc, scales[p]) if connected else _ZERO
    kv = vector_like(m, out)
    kv.absent = absent
    return kv


# ---------------------------------------------------------------------------
# Partial unbiasing (eta), second order

@dataclass(frozen=True)
class UnbiasingConfig:
    """eta in [0,1]; eta = 1 - n/N relates the observed n to the population
    size N.  eta=1 (N infinite) is full unbiasing; eta=0 (N=n) is none."""
    eta: Fraction

    def __post_init__(self):
        if not 0 <= self.eta <= 1:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")

    def population(self, n):
        """N as an exact rational, or None for eta=1 (infinite)."""
        if self.eta == 1:
            return None
        return Fraction(n) / (1 - Fraction(self.eta))


def _simple_ids():
    nc = lambda a: named_class("simple", a).id
    return nc("edge"), nc("wedge"), nc("two-parallel")


def partial_unbiased_moments(k: MomentVector, cfg: UnbiasingConfig, n_model):
    """Second-order moment targets mu-check for a model on n_model nodes.

    Inverts the unbiased-cumulant expressions on a population of N nodes
    (N from cfg and the vector's own n); the single-network product
    constraint pins down the disconnected moments.  Only orders <= 2 have
    closed forms; higher orders are rejected.
    """
    if k.mode != "simple":
        raise ValueError("partial unbiasing implemented for simple mode")
    eid, wid, pid = _simple_ids()
    extra = [sid for sid in k.values if sid.r > 2]
    if extra:
        raise ValueError(
            "partial unbiasing has closed forms only through second order")
    if eid not in k.values:
        raise IncompleteVectorError("edge cumulant required")
    k1 = k.values[eid]
    kw = k.values.get(wid, 0)
    out = {eid: k1}
    N = cfg.population(k.n)
    if wid in k.values or pid in k.values:
        if N is None:
            mu_w = kw + k1 * k1
            mu_p = k1 * k1
        else:
            if N < 4:
                raise ValueError("population N must be at least 4 at order 2")
            h1 = N * (N - 1) / 2
            hw = 3 * _binom(N, 3)
            hp = 3 * _binom(N, 4)
            tot = hw + hp
            mu_w = (hp * kw + h1 * h1 * k1 * k1 / 2 - h1 * k1 / 2) / tot
            mu_p = (-hw * kw + h1 * h1 * k1 * k1 / 2 - h1 * k1 / 2) / tot
        out[wid] = mu_w
        out[pid] = mu_p
    return MomentVector(n=n_model, mode="simple", r_max=min(k.r_max, 2),
                        values=out)


def _binom(x, r):
    out = Fraction(1)
    for i in range(r):
        out *= (x - i)
    return out / math.factorial(r)


# ---------------------------------------------------------------------------
# Variance and tests

def variance_kappa1(m_targets: MomentVector, n):
    """Exact variance of the edge-density estimator under the model whose
    second-order moment targets are given.  Falls back to the fully
    unbiased constraint mu_parallel = mu_edge^2 when the parallel moment is
    absent."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    eid, wid, pid = _simple_ids()
    mu1 = m_targets.values[eid]
    muw = m_targets.values.get(wid, mu1 * mu1)
    mup = m_targets.values.get(pid, mu1 * mu1)
    nn = Fraction(n * (n - 1))
    return (2 / nn * mu1 + Fraction(4 * (n - 2)) / nn * muw
            + Fraction((n - 2) * (n - 3)) / nn * mup - mu1 * mu1)


@dataclass
class TestResult:
    subgraph: object
    kappa_check: Fraction
    variance: float
    z_squared: float
    p_value: float
    sign: str
    approximate_variance: bool
    caveat: str = "normal approximation is asymptotic in n"

    def to_json_dict(self):
        return {
            "id": self.subgraph.serialize(),
            "alias": self.subgraph.alias,
            "kappa_check": rational_json(self.kappa_check),
            "variance": self.variance,
            "z_squared": self.z_squared,
            "p_value": self.p_value,
            "sign": self.sign,
            "approximate_variance": self.approximate_variance,
            "caveat": self.caveat,
        }


def _float(value, what, sid):
    """value as a float; the `what` of class sid past the float range is a
    data error."""
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if math.isinf(x):
        raise ValueError(f"{what} of {sid.alias or sid.serialize()} is past "
                         "the float range")
    return x


def z_test(sid, m: MomentVector, variance=None):
    """Z-score test of kappa-check against the null kappa-check = 0.

    For the simple edge class the exact closed-form variance is used when
    none is supplied; every other class requires a (bootstrap) variance
    from the caller.
    """
    kc = unbiased_cumulants(m)
    if sid not in kc.values:
        raise ValueError(f"no kappa-check of {sid.alias or sid.serialize()}: "
                         f"{kc.absent.get(sid, 'class not in the vector')}")
    kval = kc.values[sid]
    approx = True
    if variance is None:
        eid, wid, pid = _simple_ids()
        if sid != eid:
            raise ValueError(
                "closed-form variance exists only for the simple edge class; "
                "supply a bootstrap variance for every other class")
        targets = {eid: m.values[eid]}
        if wid in kc.values:
            targets[wid] = kc.values[wid] + m.values[eid] ** 2
        targets[pid] = m.values[eid] ** 2
        variance = variance_kappa1(vector_like(m, targets), m.n)
        approx = False
    var = _float(variance, "variance", sid)
    if not var > 0:
        raise ValueError(f"variance must be positive, got {var}")
    k = _float(kval, "kappa-check", sid)
    z2 = _float(k * k / var, "z-squared", sid)   # * and / overflow to inf
    p = math.erfc(math.sqrt(z2) / math.sqrt(2.0))
    sign = "zero" if kval == 0 else ("positive" if kval > 0 else "negative")
    return TestResult(subgraph=sid, kappa_check=Fraction(kval), variance=var,
                      z_squared=z2, p_value=p, sign=sign,
                      approximate_variance=approx)


# Each bootstrap sample builds an induced subgraph over a node list of the
# subsample's size in Python.
BOOTSTRAP_NODES = 1 << 16


def bootstrap_variance(G, sid, r_max, num_samples=200, seed=0):
    """Approximate Var(kappa-check) by node subsampling.

    Draws induced subgraphs of 70% of the n nodes (and at least the 2r
    nodes on which every class with r edges is realizable, r + 2 at r = 1),
    computes kappa-check on each, and rescales the empirical variance by the
    leading 1/n rate.  Clearly an approximation; exact closed forms exist
    only at first order.
    """
    import numpy as np
    from .moments import moments as _moments

    n = G.n
    if num_samples < 2:
        raise ValueError(
            f"the bootstrap variance needs at least 2 samples, got "
            f"{num_samples}")
    if n > BOOTSTRAP_NODES:
        raise SizeCapError(
            f"the bootstrap draws subgraphs from all {n} nodes, isolated "
            f"ones too, and is capped at 2^16 = {BOOTSTRAP_NODES} nodes")
    subsample = max(sid.r + 2, 2 * sid.r, (7 * n) // 10)
    if subsample >= n:
        raise ValueError("subsample size must be below n")
    rng = seeded_rng(seed)
    vals = []
    for _ in range(num_samples):
        nodes = rng.choice(n, size=subsample, replace=False)
        sub = G.induced_subgraph([int(x) for x in nodes])
        kc = unbiased_cumulants(_moments(sub, r_max))
        vals.append(_float(kc.values[sid], "kappa-check on a subsample",
                           sid))
    with np.errstate(over="ignore", invalid="ignore"):
        var_sub = np.var(vals, ddof=1) * subsample / n
    return _float(var_sub, "variance", sid)
