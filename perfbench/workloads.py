"""Operations of the three workloads and the checks made on their outputs.

The checks run outside the timed region.  Each returns a list of problems;
an empty list means the operation's output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np

import inputs

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

ESU_ORDER = 5
BATCH_ORDER = 3


def source_present():
    return (SRC / "netmoments" / "__init__.py").is_file()


def use_source():
    """Import netmoments from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import netmoments
    if Path(netmoments.__file__).resolve().parent != SRC / "netmoments":
        raise RuntimeError(f"netmoments imported from {netmoments.__file__}")
    return netmoments


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


# ---------------------------------------------------------------------------
# Library workloads

def esu_op(G):
    from netmoments import moments, moments_to_cumulants, unbiased_cumulants
    m = moments(G, ESU_ORDER)
    return m, moments_to_cumulants(m), unbiased_cumulants(m), None


def batch_op(G):
    from netmoments import (clustering_coefficients, moments,
                            moments_to_cumulants, unbiased_cumulants)
    m = moments(G, BATCH_ORDER)
    return (m, moments_to_cumulants(m), unbiased_cumulants(m),
            clustering_coefficients(m))


def check_library(n, edges, r_max, result):
    """Invariants of one library operation's output."""
    from netmoments.classes import complete_count, named_class, universe_index
    from netmoments.cumulants import cumulants_to_moments
    m, k, kc, cc = result
    problems = []
    index = universe_index("simple", r_max)
    # every r-edge subset falls in exactly one class
    mass = defaultdict(Fraction)
    for sid, mu in m.values.items():
        mass[sid.r] += mu * complete_count(index[sid.key], n)
    for r in range(1, r_max + 1):
        if mass[r] != math.comb(len(edges), r):
            problems.append(f"order {r}: class counts sum to {mass[r]}, "
                            f"not C({len(edges)}, {r})")
    A = inputs.adjacency(n, edges)
    triangles = int(np.trace(A @ A @ A)) // 6
    tri = named_class("simple", "triangle").id
    if m.values[tri] * complete_count(index[tri.key], n) != triangles:
        problems.append("triangle count differs from trace(A^3)/6")
    if cumulants_to_moments(k).values != m.values:
        problems.append("cumulants_to_moments does not reproduce the moments")
    for sid, v in kc.values.items():
        if not index[sid.key].connected and v != 0:
            problems.append(f"kappa-check nonzero on disconnected {sid}")
    if cc is not None:
        wedges = int(sum(d * (d - 1) // 2 for d in A.sum(axis=1)))
        if cc.get("C_triangle") != Fraction(3 * triangles, wedges):
            problems.append("C_triangle differs from 3 triangles / wedges")
    return problems


def same_result(a, b):
    """Traced and untraced runs of one operation agree exactly."""
    def vals(x):
        return x if x is None or isinstance(x, dict) else x.values
    return all(vals(x) == vals(y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# CLI workload

# Floats that are conversions of exact values, so identical on every machine.
# Other floats come from iterative numerics and are checked by tolerance.
EXACT_FLOAT_KEYS = {"target_counts"}


def exact_payload(obj):
    """The payload without floats computed by numerics: the values the north
    star fixes."""
    if isinstance(obj, dict):
        return {k: v if k in EXACT_FLOAT_KEYS else exact_payload(v)
                for k, v in obj.items() if not isinstance(v, float)}
    if isinstance(obj, list):
        return [exact_payload(v) for v in obj if not isinstance(v, float)]
    return obj


def payload_digest(result):
    text = json.dumps(exact_payload(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests():
    with open(DIGESTS) as fh:
        return json.load(fh)["digests"]


def cli_argv(cmd, inputs_dir):
    """CLI arguments for one entry of inputs.cli_round; writes its input
    graph, if any, under inputs_dir."""
    name, base, n, edges, args = cmd
    if edges is None:
        return list(args)
    path = inputs_dir / f"{name}-b{base}.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    rel = str(path.relative_to(ROOT))
    return [rel if a == "{graph}" else a for a in args] + ["--nodes", str(n)]


def run_cli(argv):
    """Run one CLI command in a fresh interpreter under the speed sampler.
    Returns (returncode, stdout, speed samples)."""
    speedfile = OUT / f"child-speed-{os.getpid()}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "cli", str(speedfile),
         *argv], cwd=ROOT, env=child_env(), capture_output=True, timeout=170)
    samples = []
    if speedfile.exists():
        with open(speedfile) as fh:
            samples = json.load(fh)
        speedfile.unlink()
    return proc.returncode, proc.stdout, samples


def check_cli(cmd, returncode, stdout, digests):
    name, base = cmd[0], cmd[1]
    if returncode != 0:
        return [f"{name}: exit code {returncode}"]
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError) as exc:
        return [f"{name}: unreadable output ({exc})"]
    problems = []
    want = digests.get(name, {}).get(str(base))
    got = payload_digest(result)
    if got != want:
        problems.append(f"{name} base {base}: payload digest {got[:12]} "
                        f"!= recorded {str(want)[:12]}")
    if name.startswith("ergm-fit") and not result["residual"] <= 1e-8:
        problems.append(f"{name}: ERGM residual {result['residual']}")
    if name.startswith("ergm-dist") and \
            abs(sum(result["probabilities"]) - 1) > 1e-9:
        problems.append(f"{name}: probabilities do not sum to 1")
    if name.startswith("editgraph"):
        if not result["integrality_residual"] <= 1e-8:
            problems.append("edit-graph spectrum not integral")
        if sum(e["multiplicity"] for e in result["spectrum"]) != \
                result["nodes"]:
            problems.append("edit-graph spectrum size != class count")
    return problems
