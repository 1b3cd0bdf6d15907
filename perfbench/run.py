"""netmoments benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload esu-o5 --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists):
  esu-o5    warm library, order-5 moments -> cumulants -> kappa-check on
            ER/SSBM graphs with n=40 (ESU enumeration and classification)
  batch-o3  warm library, order-3 pipeline plus clustering on many SSBM
            graphs with n=80 (closed-form counting and per-call overhead)
  cli-cold  one fresh interpreter per CLI command over a fixed command mix
            (class enumeration, universe build, ERGM, edit graph)

--trace 0 measures with nothing instrumented and prints the end-to-end
metrics.  --trace 1 runs every operation twice, plain and with spans around
each public function of netmoments, and prints the per-layer metrics.  The
last line of standard output is one JSON object; the lines before it, and
the report and span files under .perfbench_out/, hold the details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import inputs
import layers
import workloads
from speed import Sampler, reference_seconds
from tracer import ATTRS, NAME, OP, PARENT, Tracer, cache_stats
from workloads import HERE, OUT, ROOT, SRC

SETUP_PROBES = 5
SWEEP_OP_BASE = 1_000_000  # op ids of the cold sweep in warm trace runs


# ---------------------------------------------------------------------------
# environment and repository facts

def environment():
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "commit": commit, "src_sha256": h.hexdigest()}


def src_loc():
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


# ---------------------------------------------------------------------------
# shared pieces

def setup_seconds(workload):
    """Fresh interpreter: spawn to end of the warm-up operation, without the
    input generation, in reference seconds.  Returns the median over
    SETUP_PROBES processes and the raw wall values."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "setup", workload],
            cwd=ROOT, env=workloads.child_env(), capture_output=True,
            text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr[-2000:]}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        raw.append(probe["done"] - t0 - probe["gen_s"])
        (ref,) = reference_seconds(probe["samples"], [(t0, probe["done"])])
        scaled.append(ref * raw[-1] / (probe["done"] - t0))
    return statistics.median(scaled), raw


class Tally:
    """Attempted and failed operations with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def checked(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a crashing check is a failed operation
        return [f"check raised {exc!r}"]


def timing_metrics(times, samples, spans, report):
    """End-to-end timing metrics in reference seconds; `spans` holds each
    operation's (start, end) on the monotonic clock."""
    scaled = reference_seconds(samples, spans)
    report["op_s"] = scaled
    report["wall_op_p50_s"] = statistics.median(times)
    report["wall_ops_per_s"] = len(times) / sum(times)
    report["op_p90_s"] = p90(scaled)
    return {"op_p50_s": statistics.median(scaled),
            "ops_per_s": len(scaled) / sum(scaled)}


def p90(times):
    return statistics.quantiles(times, n=10)[-1] if len(times) >= 100 \
        else None


def side_esu(tracer, edges, r, op):
    """Iterate connected_edge_subsets alone, as count_connected does."""
    from netmoments.counting import connected_edge_subsets
    t0 = time.monotonic()
    k = sum(1 for _ in connected_edge_subsets(sorted(edges), r))
    tracer.add("counting.esu", t0, time.monotonic(), op=op, side=True,
               subsets=k)


def side_generate(tracer, op, make):
    """Time the repository's own generator on comparable parameters."""
    t0 = time.monotonic()
    make()
    tracer.add("models.generate", t0, time.monotonic(), op=op, side=True)


def esu_calls(tracer, first_span):
    """ESU-path count_connected calls on the input graph since first_span."""
    out = []
    for i in range(first_span, len(tracer.spans)):
        s = tracer.spans[i]
        if s[NAME] == "counting.count_connected" and \
                s[ATTRS].get("r", 0) >= layers.ESU_MIN_ORDER:
            p, inside = s[PARENT], False
            while p is not None:
                inside |= tracer.spans[p][NAME].startswith(
                    layers.CLASS_TABLE_LAYERS)
                p = tracer.spans[p][PARENT]
            if not inside:
                out.append(s[ATTRS]["r"])
    return out


# ---------------------------------------------------------------------------
# library workloads

class LibrarySpec:
    def __init__(self, op, order, stream, warmup, generate):
        self.op, self.order = op, order
        self.stream, self.warmup, self.generate = stream, warmup, generate


def _esu_generate(tag, i):
    from netmoments import models
    if tag == "er":
        return lambda: models.er(40, 0.12, seed=i)
    return lambda: models.ssbm(40, assortativity=0.5, mean_degree=4.5,
                               seed=i)


def _batch_generate(tag, i):
    from netmoments import models
    return lambda: models.ssbm(80, assortativity=tag, mean_degree=6.0,
                               seed=i)


LIBRARY = {
    "esu-o5": LibrarySpec(workloads.esu_op, workloads.ESU_ORDER,
                          inputs.esu_graphs, inputs.esu_warmup_graph,
                          _esu_generate),
    "batch-o3": LibrarySpec(workloads.batch_op, workloads.BATCH_ORDER,
                            inputs.batch_graphs, inputs.batch_warmup_graph,
                            _batch_generate),
}


def trace_library_op(spec, tracer, G, tag, result, op, untraced, records):
    """Run one operation again with spans, plus the side measurements.
    Returns the problems found."""
    tracer.op = op
    first = len(tracer.spans)
    with tracer.instrument():
        t0 = time.monotonic()
        traced = spec.op(G)
        wall = time.monotonic() - t0
    records.append({"op": op, "name": str(tag), "wall": wall,
                    "untraced": untraced})
    for r in esu_calls(tracer, first):
        side_esu(tracer, G.edges, r, op)
    side_generate(tracer, op, spec.generate(tag, op))
    if not workloads.same_result(result, traced):
        return ["traced result differs from untraced"]
    return []


def run_library(args, report):
    spec = LIBRARY[args.workload]
    if not args.trace:
        setup, probes = setup_seconds(args.workload)
        report["setup_probes_s"] = probes
    workloads.use_source()
    from netmoments import make_graph
    _, wn, wedges = spec.warmup()
    tracer = Tracer()
    if args.trace:
        tracer.op = 0
        with tracer.instrument():
            spec.op(make_graph(wn, wedges))
    else:
        spec.op(make_graph(wn, wedges))

    tally, times, spans, records = Tally(), [], [], []
    stream = spec.stream(args.seed)
    with Sampler() as sampler:
        start = time.monotonic()
        while time.monotonic() - start < args.seconds:
            tag, n, edges = next(stream)
            G = make_graph(n, edges)
            t0 = time.monotonic()
            try:
                result, error = spec.op(G), None
            except Exception as exc:
                result, error = None, f"operation raised {exc!r}"
            spans.append((t0, time.monotonic()))
            times.append(spans[-1][1] - t0)
            if error:
                tally.record([error])
                continue
            problems = checked(workloads.check_library, n, edges,
                               spec.order, result)
            if args.trace:
                problems += trace_library_op(spec, tracer, G, tag, result,
                                             len(times), times[-1], records)
            tally.record(problems)

    report["samples"] = len(times)
    if not args.trace:
        metrics = timing_metrics(times, sampler.samples, spans, report)
        metrics["setup_s"] = setup
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return tally, metrics

    stats = cache_stats()
    sweep = run_cli_round_traced(tracer, args.seed, SWEEP_OP_BASE, tally,
                                 [], bases=(0,))
    index = layers.SpanIndex(tracer.spans)
    own = layers.layer_values(index, records)
    # warm workloads build the class universe once per process
    own["classes.universe_s"] = sum(
        layers.dur(s) for s in tracer.spans if s[NAME] == "classes.universe"
        and s[ATTRS].get("miss") and s[OP] < SWEEP_OP_BASE)
    own.update(layers.cache_ratios(stats))
    metrics = dict(layers.layer_values(index, sweep))
    metrics.update(own)
    report["sources"] = {k: "workload" if k in own else "cold-sweep"
                         for k in metrics}
    finish_trace(metrics, records, spec.order, report, tracer)
    return tally, metrics


# ---------------------------------------------------------------------------
# CLI workload

def run_cli_traced(tracer, argv, op, caches):
    """One CLI command in a fresh interpreter with spans; its cache
    statistics go to `caches`.  Returns (wall, returncode, stdout)."""
    spanfile = OUT / f"child-spans-{os.getpid()}.json"
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "trace", str(spanfile),
         *argv], cwd=ROOT, env=workloads.child_env(), capture_output=True,
        timeout=170)
    wall = time.monotonic() - t0
    if spanfile.exists():
        with open(spanfile) as fh:
            child = json.load(fh)
        spanfile.unlink()
        offset = len(tracer.spans)
        for s in child["spans"]:
            if s[PARENT] is not None:
                s[PARENT] += offset
            s[OP] = op
            tracer.spans.append(s)
        tracer.add("cli.startup", t0, child["t_import"], op=op)
        caches.append(child["cache"])
    return wall, proc.returncode, proc.stdout


CLI_KIND = {name: kind for name, kind, _ in inputs.CLI_MIX}


def run_cli_round_traced(tracer, seed, op_base, tally, caches, bases=None,
                         untraced=None, round_index=0):
    """One traced round of the CLI mix (only the given base graphs, if
    any); returns its operation records.  With `untraced`, each command also
    runs plain first and its time is appended there."""
    from netmoments import models
    digests = workloads.load_digests()
    inputs_dir = OUT / "inputs"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for k, cmd in enumerate(inputs.cli_round(seed, round_index)):
        if bases is not None and cmd[1] not in bases:
            continue
        op = op_base + k
        argv = workloads.cli_argv(cmd, inputs_dir)
        problems = []
        if untraced is not None:
            t0 = time.monotonic()
            code, out, _ = workloads.run_cli(argv)
            untraced.append(time.monotonic() - t0)
            problems += checked(workloads.check_cli, cmd, code, out, digests)
        first = len(tracer.spans)
        wall, code, out = run_cli_traced(tracer, argv, op, caches)
        problems += checked(workloads.check_cli, cmd, code, out, digests)
        tally.record(problems)
        rec = {"op": op, "name": cmd[0], "wall": wall}
        if untraced is not None:
            rec["untraced"] = untraced[-1]
        records.append(rec)
        if cmd[3] is not None:
            for r in esu_calls(tracer, first):
                side_esu(tracer, cmd[3], r, op)
            n, p = inputs.POOL_SHAPES[CLI_KIND[cmd[0]]]
            side_generate(tracer, op, lambda: models.er(n, p, seed=op))
    return records


def run_cli_workload(args, report):
    if not args.trace:
        setup, probes = setup_seconds("cli-cold")
        report["setup_probes_s"] = probes
    digests = workloads.load_digests()
    inputs_dir = OUT / "inputs"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    code, _, _ = workloads.run_cli(list(inputs.CLI_WARMUP))
    if code != 0:
        raise RuntimeError(f"warm-up command exited with {code}")

    tally, times, spans, records, caches = Tally(), [], [], [], []
    samples, names = [], []
    tracer = Tracer()
    if args.trace:
        workloads.use_source()
    start = time.monotonic()
    rounds = 0
    # whole rounds only: every run covers each base graph equally often
    while rounds == 0 or time.monotonic() - start < args.seconds:
        if args.trace:
            records += run_cli_round_traced(
                tracer, args.seed, rounds * 1000, tally, caches,
                untraced=times, round_index=rounds)
        else:
            for cmd in inputs.cli_round(args.seed, rounds):
                argv = workloads.cli_argv(cmd, inputs_dir)
                t0 = time.monotonic()
                try:
                    code, out, child = workloads.run_cli(argv)
                except subprocess.TimeoutExpired:
                    code, out, child = None, b"", []
                spans.append((t0, time.monotonic()))
                samples += child
                times.append(spans[-1][1] - t0)
                names.append(cmd[0])
                tally.record(checked(workloads.check_cli, cmd, code, out,
                                     digests))
        rounds += 1

    report["samples"] = len(times)
    report["rounds"] = rounds
    report["commands"] = names
    if not args.trace:
        metrics = timing_metrics(times, samples, spans, report)
        metrics["setup_s"] = setup
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return tally, metrics

    index = layers.SpanIndex(tracer.spans)
    metrics = layers.layer_values(index, records)
    totals = {k: [sum(c[k][0] for c in caches), sum(c[k][1] for c in caches)]
              for k in caches[0]}
    metrics.update(layers.cache_ratios(totals))
    report["sources"] = {k: "workload" for k in metrics}
    finish_trace(metrics, records, inputs.CLI_MAX_ORDER, report, tracer)
    return tally, metrics


def finish_trace(metrics, records, order, report, tracer):
    from netmoments.classes import universe
    metrics["classes.universe_classes"] = sum(
        len(v) for v in universe("simple", order).values())
    metrics["repo.src_loc"] = src_loc()
    # paired per operation, median: robust to the host's speed swings
    metrics["trace.overhead_s"] = statistics.median(
        r["wall"] - r["untraced"] for r in records)
    metrics["trace.overhead_ratio"] = statistics.median(
        r["wall"] / r["untraced"] - 1 for r in records)
    spans_path = OUT / f"spans-{report['workload']}-seed{report['seed']}.json"
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op",
                              "attrs"],
                   "ops": records, "spans": tracer.spans}, fh)
    report["spans_file"] = str(spans_path.relative_to(ROOT))


# ---------------------------------------------------------------------------

def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["esu-o5", "batch-o3", "cli-cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not workloads.source_present():
        print(f"netmoments source not found under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and its children, so the speed samples are
    # taken where the timed work runs.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"# running unpinned: {exc}")
    OUT.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment()}
    if args.workload == "cli-cold":
        tally, values = run_cli_workload(args, report)
    else:
        tally, values = run_library(args, report)

    units = declared_metrics(args.trace)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 3
    report.update(attempted=tally.attempted, failed=tally.failed,
                  fail_ratio=tally.failed / max(tally.attempted, 1),
                  problems=tally.problems, metrics=values)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    env = report["environment"]
    print(f"# {args.workload} seed={args.seed} samples={report['samples']} "
          f"fail_ratio={report['fail_ratio']:.4f} "
          f"op_p90_s={report.get('op_p90_s')} report={OUT.name}/{name}")
    print(f"# python {env['python']} numpy {env['numpy']} scipy "
          f"{env['scipy']} nproc {env['nproc']} commit {env['commit']}")
    for p in tally.problems[:10]:
        print(f"# problem: {p}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
