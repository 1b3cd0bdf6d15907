"""Command-line interface: reproducible runs over all library modules.

Every JSON document embeds a run manifest (command, flags, input digests,
seed, library version); identical manifests give byte-identical payloads.
Exit codes: 0 success, 1 usage, 2 data error, 3 infeasible ERGM target,
4 size or order cap.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .classes import named_class
from .counting import OrderCapError, full_counts, graph_mode
from .cumulants import (clustering_coefficients, moments_to_cumulants,
                        scale_cumulants)
from .editgraph import build_edit_graph, laplacian_spectrum
from .ergm import (InfeasibleTargetError, SizeCapError, degeneracy_diagnostics,
                   ergm_distribution, fit_ergm)
from .graphs import Graph, GraphDataError, format_edge_list, parse_graph
from .graphsum import (GraphDistribution, distribution_cumulants,
                       sum_distributions)
from .localstats import edge_local_cumulants, node_local_cumulants
from .models import bipartite_geometric, er, shuffle as shuffle_graph, ssbm
from .moments import moments, rational_json, vector_like
from .unbiased import (UnbiasingConfig, bootstrap_variance,
                       partial_unbiased_moments, unbiased_cumulants, z_test)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _manifest(args):
    skip = {"command", "sub", "func", "out", "pretty", "csv", "inputs"}
    flags = {}
    for k, v in sorted(vars(args).items()):
        if k in skip:
            continue
        flags[k] = v if not isinstance(v, Fraction) else str(v)
    man = {
        "command": args.command + (f" {args.sub}" if hasattr(args, "sub")
                                   else ""),
        "flags": flags,
        "inputs": getattr(args, "inputs", {}),
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }
    digest = hashlib.sha256(
        json.dumps(man, sort_keys=True).encode()).hexdigest()
    man["digest"] = digest
    man["timestamp"] = datetime.now(timezone.utc).isoformat()
    return man


def _read(path, inputs):
    """The text of an input file, decoded as text mode would, and the
    sha256 of its bytes in inputs[path]; one that cannot be read is a data
    error."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise GraphDataError(f"cannot read {path}: {exc.strerror}") from None
    inputs[path] = hashlib.sha256(data).hexdigest()
    return io.TextIOWrapper(io.BytesIO(data)).read()


def _load_graph(args):
    """The input graph; args.inputs gets the digests of the files read."""
    args.inputs = {}
    text = (sys.stdin.read() if args.graph == "-"
            else _read(args.graph, args.inputs))
    attr_text = (_read(args.attributes, args.inputs) if args.attributes
                 else None)
    return parse_graph(text, directed=args.directed, weighted=args.weighted,
                       nodes=args.nodes, attr_text=attr_text,
                       bipartite=args.bipartite)


def _alias_to_id(mode, alias):
    try:
        return named_class(mode, alias).id
    except KeyError:
        raise UsageError(f"unknown subgraph alias {alias!r} in mode {mode}")


def _vector_payload(v, extra=None):
    out = v.to_json_dict()
    if v.absent:
        out["absent"] = {(sid.alias or sid.serialize()): reason
                         for sid, reason in v.absent.items()}
    if extra:
        out.update(extra)
    return out


# ---------------------------------------------------------------------------
# subcommands

def _cmd_count(args):
    G = _load_graph(args)
    counts = full_counts(G, args.order)
    return {"n": G.n, "mode": G.mode(),
            "counts": [{"id": sid.serialize(), "alias": sid.alias,
                        "value": rational_json(c)}
                       for sid, c in sorted(counts.items(),
                                            key=lambda kv: (kv[0].r,
                                                            kv[0].key))]}


def _cmd_moments(args):
    G = _load_graph(args)
    return _vector_payload(moments(G, args.order))


def _cmd_cumulants(args):
    if args.root_exponent is not None:
        if not args.scaled:
            raise UsageError("--root-exponent needs --scaled")
        if args.root_exponent < 1:
            raise UsageError("--root-exponent must be at least 1, "
                             f"got {args.root_exponent}")
    G = _load_graph(args)
    m = moments(G, args.order)
    k = moments_to_cumulants(m)
    extra = {}
    cc = clustering_coefficients(m)
    if cc:
        extra["clustering"] = {name: rational_json(v)
                               for name, v in cc.items()}
    if args.scaled:
        scaled, roots = scale_cumulants(k, root_exponent=args.root_exponent)
        extra["scaled"] = [{"id": sid.serialize(), "alias": sid.alias,
                            "value": rational_json(v),
                            "signed_root": roots[sid]}
                           for sid, v in sorted(scaled.values.items(),
                                                key=lambda kv: (kv[0].r,
                                                                kv[0].key))]
    return _vector_payload(k, extra)


def _cmd_unbiased(args):
    G = _load_graph(args)
    kc = unbiased_cumulants(moments(G, args.order))
    return _vector_payload(kc)


def _cmd_ztest(args):
    G = _load_graph(args)
    mode, _ = graph_mode(G)
    if mode in ("attributed", "bipartite"):
        raise GraphDataError(
            f"ztest tests a named subgraph, and named subgraphs exist only "
            f"in simple, weighted and directed mode, not in {mode} mode; "
            "test the graph without labels (drop --attributes and "
            "--bipartite)")
    sid = _alias_to_id(mode, args.subgraph)
    order = max(args.order, 2, sid.r)
    m = moments(G, order)
    if sid == named_class("simple", "edge").id:
        res = z_test(sid, m)
    else:
        var = bootstrap_variance(G, sid, order, num_samples=args.samples,
                                 seed=args.seed)
        res = z_test(sid, m, variance=var)
    return res.to_json_dict()


def _cmd_local(args):
    G = _load_graph(args)
    if (args.node is None) == (args.edge is None):
        raise UsageError("local needs exactly one of --node or --edge")
    if args.node is not None:
        stats = node_local_cumulants(G, args.node, r_max=args.order)
    else:
        stats = edge_local_cumulants(G, tuple(args.edge), r_max=args.order)
    return stats.to_json_dict()


def _ergm_targets(args, G):
    m = moments(G, args.order)
    if args.eta == 0:
        return m
    kc = unbiased_cumulants(m)
    cfg = UnbiasingConfig(eta=args.eta)
    return partial_unbiased_moments(kc, cfg, G.n)


def _fit_from_args(args):
    G = _load_graph(args)
    if G.mode() != "simple":
        raise GraphDataError("ergm fitting is implemented for simple graphs")
    targets = _ergm_targets(args, G)
    sids = None
    if args.statistics is not None:
        sids = [_alias_to_id("simple", a)
                for a in args.statistics.split(",")]
        targets = vector_like(targets, {sid: targets.values[sid] for sid
                                        in sids if sid in targets.values})
    return G, fit_ergm(targets, G.n, statistic_ids=sids)


def _cmd_ergm_fit(args):
    G, model = _fit_from_args(args)
    out = model.to_json_dict()
    out["eta"] = str(args.eta)
    return out


def _cmd_ergm_dist(args):
    G, model = _fit_from_args(args)
    sid = _alias_to_id("simple", args.statistic)
    h = ergm_distribution(model, sid)
    out = h.to_json_dict()
    out["diagnostics"] = degeneracy_diagnostics(h)
    out["eta"] = str(args.eta)
    return out


def _cmd_editgraph(args):
    if args.nodes < 0:
        raise UsageError(f"--nodes must be nonnegative, got {args.nodes}")
    h = build_edit_graph(args.nodes)
    spectrum, residual = laplacian_spectrum(h)
    return {"n": args.nodes, "nodes": len(h),
            "out_degree": args.nodes * (args.nodes - 1) // 2,
            "spectrum": [{"eigenvalue": int(ev), "multiplicity": int(mult)}
                         for ev, mult in spectrum],
            "integrality_residual": residual}


def _cmd_generate(args):
    if args.model == "er":
        return er(args.n, args.p, seed=args.seed)
    if args.model == "ssbm":
        if args.a is not None or args.b is not None:
            return ssbm(args.n, args.a, args.b, seed=args.seed)
        return ssbm(args.n, assortativity=args.assortativity,
                    mean_degree=args.mean_degree, seed=args.seed)
    return bipartite_geometric(args.n, args.f, args.mean_degree,
                               seed=args.seed)


def _cmd_shuffle(args):
    G = _load_graph(args)
    return shuffle_graph(G, args.mode, seed=args.seed)


def _cmd_sum_demo(args):
    from .graphs import make_graph
    edge = make_graph(3, [(0, 1)])
    tri = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    wedge = make_graph(3, [(0, 1), (1, 2)])
    a = GraphDistribution(3, [(edge, Fraction(1, 4)), (tri, Fraction(3, 4))])
    b = GraphDistribution.point_mass(wedge)
    s = sum_distributions(a, b)
    ka = distribution_cumulants(a, 2)
    kb = distribution_cumulants(b, 2)
    ks = distribution_cumulants(s, 2)
    def pack(v):
        return {(sid.alias or sid.serialize()): rational_json(x)
                for sid, x in sorted(v.values.items(),
                                     key=lambda kv: (kv[0].r, kv[0].key))}
    additive = all(ks.values[sid] == ka.values[sid] + kb.values[sid]
                   for sid in ks.values)
    return {"a": pack(ka), "b": pack(kb), "a_plus_b": pack(ks),
            "additive": additive,
            "support_size": len(s.support)}


# ---------------------------------------------------------------------------
# output formatting

def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            key = v.get("alias") or v.get("id") if isinstance(v, dict) else i
            _flatten(f"{prefix}[{key}]", v, rows)
    else:
        rows.append((prefix, obj))


def _emit(doc, args):
    if args.csv:
        rows = []
        _flatten("", doc, rows)
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["key", "value"])
        for k, v in rows:
            w.writerow([k, v])
        text = buf.getvalue()
    elif args.pretty:
        rows = []
        _flatten("", doc, rows)
        width = max((len(k) for k, _ in rows), default=0)
        text = "\n".join(f"{k:<{width}}  {v}" for k, v in rows) + "\n"
    else:
        text = json.dumps(doc, indent=2) + "\n"
    _write(text, args.out)


def _emit_graph(G, manifest, args):
    header = "# manifest " + json.dumps(manifest, sort_keys=True) + "\n"
    text = header + format_edge_list(G)
    if G.node_attrs is not None:
        attr_lines = "".join(f"# attr {v} {G.node_attrs[v]}\n"
                             for v in range(G.n))
        text += attr_lines
    text += f"# nodes {G.n}\n"
    _write(text, args.out)


def _write(text, path):
    """text to the --out path, or to stdout without one; a path that
    cannot be written is a usage error."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# parser

def _add_command(subs, name, func, *, graph=True, order=None, seed=False,
                 formats=True):
    """A subcommand parser with the flags `func`, `_load_graph` and the
    emitters read: the input graph and its mode, --order, --seed, and the
    output path and formats."""
    p = subs.add_parser(name)
    if graph:
        p.add_argument("graph", help="edge-list file ('-' for stdin)")
        p.add_argument("--directed", action="store_true")
        p.add_argument("--weighted", action="store_true")
        p.add_argument("--attributes", metavar="FILE")
        p.add_argument("--bipartite", action="store_true")
        p.add_argument("--nodes", type=int, default=None)
    if order is not None:
        p.add_argument("--order", type=int, default=order)
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH")
    if formats:
        p.add_argument("--csv", action="store_true")
        p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=func)
    return p


def build_parser():
    root = _Parser(prog="netmoments",
                   description="graph moments and cumulants toolkit")
    subs = root.add_subparsers(dest="command", required=True)

    _add_command(subs, "count", _cmd_count, order=3)
    _add_command(subs, "moments", _cmd_moments, order=3)

    p = _add_command(subs, "cumulants", _cmd_cumulants, order=3)
    p.add_argument("--scaled", action="store_true")
    p.add_argument("--root-exponent", type=int, default=None)

    _add_command(subs, "unbiased", _cmd_unbiased, order=3)

    p = _add_command(subs, "ztest", _cmd_ztest, order=2, seed=True)
    p.add_argument("--subgraph", default="edge")
    p.add_argument("--samples", type=int, default=200)

    p = _add_command(subs, "local", _cmd_local, order=3)
    p.add_argument("--node", type=int, default=None)
    p.add_argument("--edge", type=int, nargs=2, default=None)

    p = subs.add_parser("ergm")
    esubs = p.add_subparsers(dest="sub", required=True)
    for name, fn in (("fit", _cmd_ergm_fit), ("dist", _cmd_ergm_dist)):
        ep = _add_command(esubs, name, fn, order=2)
        ep.add_argument("--eta", type=Fraction, default=Fraction(0))
        ep.add_argument("--statistics", default=None,
                        help="comma-separated aliases (default: all classes "
                             "through --order)")
        if name == "dist":
            ep.add_argument("--statistic", default="edge")

    p = _add_command(subs, "editgraph", _cmd_editgraph, graph=False)
    p.add_argument("--nodes", type=int, required=True)

    p = _add_command(subs, "generate", _cmd_generate, graph=False,
                     seed=True, formats=False)
    p.add_argument("--model", required=True,
                   choices=["er", "ssbm", "bipartite-geometric"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--assortativity", type=float, default=None)
    p.add_argument("--mean-degree", type=float, default=None)
    p.add_argument("--f", type=float, default=None)

    p = _add_command(subs, "shuffle", _cmd_shuffle, seed=True, formats=False)
    p.add_argument("--mode", required=True,
                   choices=["attributes", "orientations", "weights"])

    _add_command(subs, "sum-demo", _cmd_sum_demo, graph=False)

    return root


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        result = args.func(args)
        manifest = _manifest(args)
        if isinstance(result, Graph):
            _emit_graph(result, manifest, args)
        else:
            _emit({"manifest": manifest, "result": result}, args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except GraphDataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleTargetError as exc:
        print(f"infeasible target: {exc}", file=sys.stderr)
        return 3
    except (SizeCapError, OrderCapError) as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
