"""Seeded workload inputs, made with the benchmark's own generators.

Nothing here imports netmoments, so a change to `netmoments.models` cannot
change the traffic.  Every generator draws from a `random.Random` seeded
with a string, which Python hashes the same way on every run.
"""

from __future__ import annotations

import random

import numpy as np

# Held-out seed: use it only to check a claim after the change is written.
HELD_OUT_SEED = 9001

# esu-o5 keeps each graph's count of 5-step walks (1^T A^5 1) within
# +-WALK_WINDOW of WALK_TARGET.  ESU work tracks that count closely (on
# G(40, 0.12) its log regresses on log-work with residual sd 0.03), so the
# median of ~15 operations is steady across seeds while the graphs stay
# random.  One target for both families keeps the op times in one cluster.
WALK_TARGET = 158_000
WALK_WINDOW = 0.03


def rng_for(*parts):
    return random.Random(":".join(str(p) for p in parts))


def gnp(n, p, rng):
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p]


def ssbm_rates(n, rho, mean_degree):
    """Within/between probabilities of a two-block SSBM with assortativity
    rho = (a - b)/(a + b) and mean degree a(n/2 - 1) + b n/2."""
    half = n // 2
    s = mean_degree / ((1 + rho) * (half - 1) / 2 + (1 - rho) * half / 2)
    return s * (1 + rho) / 2, s * (1 - rho) / 2


def ssbm(n, rho, mean_degree, rng):
    a, b = ssbm_rates(n, rho, mean_degree)
    half = n // 2
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < (a if (u < half) == (v < half) else b)]


def adjacency(n, edges):
    A = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        A[u, v] = A[v, u] = 1
    return A


def walks5(n, edges):
    x = np.ones(n, dtype=np.int64)
    A = adjacency(n, edges)
    for _ in range(5):
        x = A @ x
    return int(x.sum())


def relabel(n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def esu_graphs(seed):
    """Endless stream of (family, n, edges) for esu-o5: ER G(40, 0.12) and a
    two-block SSBM (n=40, rho=0.5, mean degree 4.5), alternating."""
    rng = rng_for("esu-o5", seed)
    families = (("er", lambda: gnp(40, 0.12, rng)),
                ("ssbm", lambda: ssbm(40, 0.5, 4.5, rng)))
    i = 0
    while True:
        name, draw = families[i % 2]
        while True:
            edges = draw()
            if abs(walks5(40, edges) / WALK_TARGET - 1) <= WALK_WINDOW:
                break
        yield name, 40, edges
        i += 1


def esu_warmup_graph():
    """Seed-independent graph for the warm-up operation, so that setup time
    measures the same work in every run."""
    return next(esu_graphs("warmup"))


BATCH_RHOS = (-0.6, -0.3, 0.3, 0.6)


def batch_graphs(seed):
    """Endless stream of (rho, n, edges): SSBM n=80, mean degree 6, cycling
    through the assortativity values of the acceptance suite's chart."""
    rng = rng_for("batch-o3", seed)
    i = 0
    while True:
        rho = BATCH_RHOS[i % len(BATCH_RHOS)]
        yield rho, 80, ssbm(80, rho, 6.0, rng)
        i += 1


def batch_warmup_graph():
    return next(batch_graphs("warmup"))


# ---------------------------------------------------------------------------
# cli-cold: a fixed pool of base graphs, relabeled per seed.
#
# The CLI payload depends only on the isomorphism class of the input, so
# payload digests recorded once per base graph check every run.  Each base
# graph is drawn from a fixed construction seed.  The n=6 order-4 fits need
# a target strictly inside the hull of realizable counts (otherwise the
# documented outcome is exit 3); construction seeds 0 and 1 give such
# targets, while seeds 2, 5 and 9 of G(6, 0.6) do not.

POOL_SHAPES = {"er14": (14, 0.27), "n7": (7, 0.5), "n6": (6, 0.6)}
POOL_SIZE = 2  # base graph b comes from construction seed b


def pool():
    """{kind: [(n, edges) per base graph]}."""
    return {kind: [(n, gnp(n, p, rng_for("pool", kind, b)))
                   for b in range(POOL_SIZE)]
            for kind, (n, p) in POOL_SHAPES.items()}


# (name, input kind or None, CLI arguments; "{graph}" is the input path)
CLI_MIX = (
    ("cumulants-o6", "er14",
     ["cumulants", "{graph}", "--order", "6", "--scaled"]),
    ("unbiased-o6", "er14", ["unbiased", "{graph}", "--order", "6"]),
    ("ergm-fit-o2", "n7",
     ["ergm", "fit", "{graph}", "--order", "2", "--eta", "1/9"]),
    ("ergm-dist-o2", "n7",
     ["ergm", "dist", "{graph}", "--order", "2", "--eta", "1/9",
      "--statistic", "triangle"]),
    ("ergm-fit-o4", "n6", ["ergm", "fit", "{graph}", "--order", "4"]),
    ("editgraph-6", None, ["editgraph", "--nodes", "6"]),
)

CLI_WARMUP = ["editgraph", "--nodes", "6"]
CLI_MAX_ORDER = 6  # highest counting order in the mix


def cli_round(seed, round_index):
    """One round of the CLI mix over every base graph, in a seeded order:
    a list of (name, base index, n, relabeled edges, argv template).  n and
    edges are None for commands without an input graph."""
    rng = rng_for("cli-cold", seed, round_index)
    base = pool()
    out = []
    for b in range(POOL_SIZE):
        for name, kind, args in CLI_MIX:
            if kind is None:
                out.append((name, b, None, None, args))
            else:
                n, edges = base[kind][b]
                out.append((name, b, n, relabel(n, edges, rng), args))
    rng.shuffle(out)
    return out
