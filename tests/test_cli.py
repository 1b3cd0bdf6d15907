"""Command-line interface: payloads, manifests, exit codes, round trips."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import resource
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import netmoments
from netmoments import cli
from netmoments.cli import build_parser, main

from conftest import edge_lists


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


@pytest.fixture
def p4(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text("0 1\n1 2\n2 3\n")
    return str(path)


def frac(entry):
    return Fraction(int(entry["numer"]), int(entry["denom"]))


def test_count(capsys, p4):
    doc = run_json(capsys, "count", p4, "--order", "2")
    by_alias = {c["alias"]: frac(c["value"]) for c in doc["result"]["counts"]}
    assert by_alias["edge"] == 3
    assert by_alias["wedge"] == 2
    assert by_alias["two-parallel"] == 1


def test_moments_and_manifest_determinism(capsys, p4):
    a = run_json(capsys, "moments", p4, "--order", "2")
    b = run_json(capsys, "moments", p4, "--order", "2")
    assert a["manifest"]["digest"] == b["manifest"]["digest"]
    assert a["result"] == b["result"]
    c = run_json(capsys, "moments", p4, "--order", "3")
    assert c["manifest"]["digest"] != a["manifest"]["digest"]
    vals = {m["alias"]: frac(m) for m in a["result"]["moments"]}
    assert vals["edge"] == Fraction(1, 2)
    assert vals["wedge"] == Fraction(1, 6)


def test_manifest_digest_ignores_environment(capsys, p4, monkeypatch):
    a = run_json(capsys, "moments", p4, "--order", "2")
    monkeypatch.setenv("GC_THREADS", "8")
    b = run_json(capsys, "moments", p4, "--order", "2")
    assert a["manifest"]["digest"] == b["manifest"]["digest"]
    assert "threads" not in b["manifest"]["flags"]


def test_cumulants_scaled(capsys, p4):
    doc = run_json(capsys, "cumulants", p4, "--order", "2", "--scaled")
    scaled = {s["alias"]: s for s in doc["result"]["scaled"]}
    assert frac(scaled["wedge"]["value"]) == Fraction(-1, 3)
    assert scaled["wedge"]["signed_root"] == pytest.approx(-(1 / 3) ** 0.5)


def test_unbiased(capsys, p4):
    doc = run_json(capsys, "unbiased", p4, "--order", "2")
    vals = {m["alias"]: frac(m) for m in doc["result"]["moments"]}
    assert vals["wedge"] == Fraction(-1, 6)
    assert vals["two-parallel"] == 0


@pytest.fixture
def dense(tmp_path):
    # 8-node graph with enough structure for a positive exact edge variance
    import random
    rng = random.Random(2)
    pairs = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    lines = "".join(f"{u} {v}\n" for u, v in pairs if rng.random() < 0.5)
    path = tmp_path / "dense.txt"
    path.write_text(lines)
    return str(path)


def test_ztest(capsys, dense):
    doc = run_json(capsys, "ztest", dense, "--subgraph", "edge")
    assert doc["result"]["alias"] == "edge"
    assert 0 <= doc["result"]["p_value"] <= 1


def test_local(capsys, p4):
    doc = run_json(capsys, "local", p4, "--node", "0")
    assert frac(doc["result"]["moments"]["self"]) == Fraction(1, 3)
    doc = run_json(capsys, "local", p4, "--edge", "1", "2")
    assert doc["result"]["anchor"] == [1, 2]


def test_editgraph(capsys):
    doc = run_json(capsys, "editgraph", "--nodes", "4")
    assert doc["result"]["nodes"] == 11
    assert doc["result"]["out_degree"] == 6
    mults = [s["multiplicity"] for s in doc["result"]["spectrum"]]
    assert mults == [1, 1, 2, 3, 2, 1, 1]


_MODE_FLAGS = [["--directed"], ["--weighted"], ["--bipartite"],
               ["--attributes", "labels.txt"]]


@pytest.mark.parametrize("command", [["editgraph", "--nodes", "3"],
                                     ["sum-demo"]])
@pytest.mark.parametrize("flag", _MODE_FLAGS)
def test_simple_only_commands_refuse_mode_flags(capsys, command, flag):
    # both commands build simple graphs of their own and declare no mode
    # flag, so argparse refuses one before anything runs
    assert main([*command, *flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag[0]}" in captured.err


def test_generate_round_trip(capsys, tmp_path):
    out = tmp_path / "g.txt"
    code, _ = run(capsys, "generate", "--model", "er", "--n", "12",
                  "--p", "0.4", "--seed", "3", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert text.startswith("# manifest ")
    doc = run_json(capsys, "moments", str(out), "--order", "2")
    assert doc["result"]["n"] == 12
    # same seed, same graph
    out2 = tmp_path / "g2.txt"
    run(capsys, "generate", "--model", "er", "--n", "12", "--p", "0.4",
        "--seed", "3", "--out", str(out2))
    strip = lambda t: [l for l in t.splitlines() if not l.startswith("#")]
    assert strip(out2.read_text()) == strip(text)


def _without_timestamp(text):
    """Generated edge-list text with the manifest's timestamp dropped."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("# manifest "):
            man = json.loads(line[len("# manifest "):])
            del man["timestamp"]
            lines[i] = "# manifest " + json.dumps(man, sort_keys=True) + "\n"
    return "".join(lines)


# sha256 of each output without its timestamp, recorded when the command
# still went through models.generate; the refused parameter sets are in
# test_generate_without_a_model_parameter_is_a_data_error
@pytest.mark.parametrize("argv, want", [
    (["er", "--n", "12", "--p", "0.3", "--seed", "5"],
     "00af62a1339ecdd9c9096aa7fba569b0fe8105df23a119f280eca0638a70c945"),
    (["er", "--n", "9", "--p", "1"],
     "c22a20e446a81b660a2e571d6b57c7862ae4196e5c4a54ef172aa65a9da71cb7"),
    (["ssbm", "--n", "12", "--a", "0.6", "--b", "0.1", "--seed", "2"],
     "c425d0b3973c39db65a6a17e3b9c6c6049165634efa9e1da8f3c2e65a54db958"),
    (["ssbm", "--n", "20", "--assortativity", "0.4", "--mean-degree", "3",
      "--seed", "1"],
     "f87a1eb32fac8195b86d3cdee0069c1f0a7f260765b517dcee7770cffb8c566b"),
    # raw probabilities win over chart coordinates
    (["ssbm", "--n", "10", "--a", "0.5", "--b", "0.2", "--assortativity",
      "0.3", "--mean-degree", "2"],
     "40dd7b24ef82962d9933db5b0668e390e2a02eed633615d53edf732d30c9572d"),
    (["bipartite-geometric", "--n", "16", "--f", "0.5", "--mean-degree",
      "2", "--seed", "3"],
     "2d4e30bfdbedef3f808ecc122b69be112222aaf411a1075c44d6584ca044c985")])
def test_generate_output_is_pinned(capsys, argv, want):
    code = main(["generate", "--model", *argv])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert hashlib.sha256(_without_timestamp(captured.out).encode()) \
        .hexdigest() == want


def test_manifest_hashes_the_bytes_it_parsed(capsys, tmp_path, monkeypatch):
    # the inputs are rewritten after parsing, before the manifest is made
    graph, attrs = tmp_path / "g.txt", tmp_path / "labels.txt"
    parsed = {graph: b"0 1\r\n1 2\n", attrs: b"0\ta\n1\tb\n2\ta\n"}
    for path, data in parsed.items():
        path.write_bytes(data)
    parse = cli.parse_graph

    def parse_then_rewrite(*args, **kwargs):
        G = parse(*args, **kwargs)
        graph.write_bytes(b"0 1\n")
        attrs.write_bytes(b"0\ta\n1\ta\n2\ta\n")
        return G

    monkeypatch.setattr(cli, "parse_graph", parse_then_rewrite)
    doc = run_json(capsys, "moments", str(graph), "--attributes", str(attrs),
                   "--order", "2")
    assert doc["manifest"]["inputs"] == {
        str(path): hashlib.sha256(data).hexdigest()
        for path, data in parsed.items()}
    assert doc["result"]["n"] == 3


def test_input_is_decoded_as_text_mode_decodes_it(capsys, tmp_path):
    crlf, lf = tmp_path / "crlf.txt", tmp_path / "lf.txt"
    crlf.write_bytes(b"0 1\r\n1 2\r2 3\r\n")
    lf.write_bytes(b"0 1\n1 2\n2 3\n")
    a = run_json(capsys, "cumulants", str(crlf), "--order", "3")
    b = run_json(capsys, "cumulants", str(lf), "--order", "3")
    assert a["result"] == b["result"]
    assert a["manifest"]["inputs"] == {
        str(crlf): hashlib.sha256(crlf.read_bytes()).hexdigest()}
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0 1\n\xff\xfe 2\n")
    assert main(["moments", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "Traceback" not in err


def test_shuffle(capsys, tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("0 1 5\n1 2 1\n2 3 2\n")
    code, out = run(capsys, "shuffle", str(path), "--weighted",
                    "--mode", "weights", "--seed", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    weights = sorted(l.split()[2] for l in lines)
    assert weights == ["1", "2", "5"]


def test_ergm_fit_and_dist(capsys, p4):
    doc = run_json(capsys, "ergm", "fit", p4, "--order", "2")
    assert doc["result"]["residual"] <= 1e-8
    doc = run_json(capsys, "ergm", "dist", p4, "--order", "1",
                   "--statistic", "edge")
    assert sum(doc["result"]["probabilities"]) == pytest.approx(1.0)
    assert doc["result"]["mean"] == pytest.approx(3.0, abs=1e-8)


def test_sum_demo(capsys):
    doc = run_json(capsys, "sum-demo")
    assert doc["result"]["additive"] is True
    assert frac(doc["result"]["a_plus_b"]["edge"]) == Fraction(3, 2)


def test_csv_and_pretty(capsys, p4):
    code, out = run(capsys, "moments", p4, "--order", "1", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "key,value"
    code, out = run(capsys, "moments", p4, "--order", "1", "--pretty")
    assert code == 0
    assert "result" in out


def test_exit_codes(capsys, tmp_path, p4):
    # usage: unknown subcommand / missing required
    assert main(["nope"]) == 1
    assert main(["local", p4]) == 1
    # data error: malformed edge list
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n1 zebra\n")
    assert main(["moments", str(bad)]) == 2
    # size/order cap
    assert main(["moments", p4, "--order", "9"]) == 4
    assert main(["editgraph", "--nodes", "8"]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("argv, code, message", [
    (["cumulants", "{missing}"], 2,
     "data error: cannot read {missing}: No such file or directory"),
    (["cumulants", "{dir}"], 2,
     "data error: cannot read {dir}: Is a directory"),
    (["cumulants", "{p4}", "--attributes", "{missing}"], 2,
     "data error: cannot read {missing}: No such file or directory"),
    (["cumulants", "{p4}", "--out", "{missing}/x"], 1,
     "usage error: cannot write {missing}/x: No such file or directory"),
    (["cumulants", "{p4}", "--out", "{dir}"], 1,
     "usage error: cannot write {dir}: Is a directory"),
    (["generate", "--model", "er", "--n", "5", "--p", "0.5", "--out", "{dir}"],
     1, "usage error: cannot write {dir}: Is a directory")],
    ids=["missing-graph", "directory-graph", "missing-attributes",
         "missing-out-directory", "directory-out", "directory-out-graph"])
def test_file_errors_name_the_path(capsys, tmp_path, p4, argv, code, message):
    paths = {"missing": str(tmp_path / "missing"), "dir": str(tmp_path),
             "p4": p4}
    assert main([arg.format(**paths) for arg in argv]) == code
    err = capsys.readouterr().err
    assert err == message.format(**paths) + "\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("nodes", ["0", "-2"])
def test_nonpositive_nodes_is_a_data_error(capsys, p4, nodes):
    assert main(["count", p4, "--nodes", nodes]) == 2
    err = capsys.readouterr().err
    assert f"--nodes must be positive, got {nodes}" in err
    assert "empty input" not in err


def test_empty_input_without_nodes_is_a_data_error(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# no edges\n")
    assert main(["count", str(empty)]) == 2
    assert "empty input and no --nodes given" in capsys.readouterr().err


def test_too_many_labels_is_a_data_error(capsys, tmp_path):
    n = 257
    graph = tmp_path / "path.txt"
    graph.write_text("".join(f"{v} {v + 1}\n" for v in range(n - 1)))
    attrs = tmp_path / "labels.txt"
    attrs.write_text("".join(f"{v}\tL{v:03d}\n" for v in range(n)))
    code = main(["count", str(graph), "--attributes", str(attrs),
                 "--order", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "node colors are encoded in one byte" in err
    assert "at most 256 labels" in err


@pytest.mark.parametrize("edges, labels, message", [
    ("0 1\n1 2\n2 3\n", "1\ta\n3\tb\n", "2 nodes without attribute "
     "label, the first 2: [0, 2]"),
    ("0 1\n1 300000000\n", "0\ta\n1\tb\n300000000\ta\n",
     "299999998 nodes without attribute label, the first 10: "
     "[2, 3, 4, 5, 6, 7, 8, 9, 10, 11]")])
def test_unlabelled_nodes_are_a_data_error(tmp_path, edges, labels,
                                           message):
    # the check reads the labelled ids, not every id below n: under a
    # 1 GiB address space a list of 299,999,998 unlabelled ids would die
    # with a MemoryError (exit 1)
    graph = tmp_path / "graph.txt"
    graph.write_text(edges)
    attrs = tmp_path / "labels.txt"
    attrs.write_text(labels)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(pathlib.Path(netmoments.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "netmoments.cli", "count", str(graph),
         "--attributes", str(attrs), "--order", "1"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (2 ** 30, 2 ** 30)))
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize("command", [["count"], ["moments"],
                                     ["ztest", "--samples", "3"]])
@pytest.mark.parametrize("bipartite", [[], ["--bipartite"]])
def test_directed_graphs_with_labels_are_a_data_error(capsys, tmp_path,
                                                      command, bipartite):
    # directed classes are unlabelled: the labels used to be dropped and
    # the graph counted as a directed one, with exit 0
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n2 1\n")
    attrs = tmp_path / "labels.txt"
    attrs.write_text("0\ta\n1\tb\n2\ta\n")
    flags = ["--directed", "--attributes", str(attrs), *bipartite]
    assert main([command[0], str(graph), *command[1:], *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "data error: node labels cannot be combined with directed " \
        "mode" in captured.err
    # shuffling orientations counts nothing, so it keeps the labels
    assert main(["shuffle", str(graph), *flags, "--mode", "orientations",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "# attr 0 a\n# attr 1 b\n# attr 2 a\n" in out


@pytest.mark.parametrize("subgraph", [[], ["--subgraph", "wedge"]])
@pytest.mark.parametrize("bipartite", [[], ["--bipartite"]])
def test_ztest_of_a_labelled_graph_is_a_data_error(capsys, tmp_path,
                                                   monkeypatch, subgraph,
                                                   bipartite):
    # named subgraphs exist in simple, weighted and directed mode only:
    # every alias used to be unknown in a labelled mode (a usage error,
    # exit 1), whatever --subgraph named
    import netmoments.cli as cli
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 0\n")
    attrs = tmp_path / "labels.txt"
    attrs.write_text("0\ta\n1\tb\n2\ta\n3\tb\n")
    monkeypatch.setattr(cli, "moments", None)     # refused before counting
    assert main(["ztest", str(graph), "--attributes", str(attrs),
                 *bipartite, *subgraph, "--samples", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    mode = "bipartite" if bipartite else "attributed"
    assert (f"data error: ztest tests a named subgraph, and named "
            f"subgraphs exist only in simple, weighted and directed mode, "
            f"not in {mode} mode") in captured.err


def test_a_node_labelled_twice_is_a_data_error(capsys, tmp_path, p4):
    # the second label used to replace the first
    attrs = tmp_path / "labels.txt"
    attrs.write_text("0\ta\n1\tb\n2\ta\n0\tb\n3\tb\n")
    assert main(["count", p4, "--attributes", str(attrs)]) == 2
    assert "data error: attributes line 4: node 0 labelled twice\n" in \
        capsys.readouterr().err


def test_infeasible_exit_code(capsys, tmp_path):
    # complete graph: boundary targets, eta-unbiased fit infeasible
    k5 = tmp_path / "k5.txt"
    k5.write_text("".join(f"{u} {v}\n" for u in range(5)
                          for v in range(u + 1, 5)))
    assert main(["ergm", "fit", str(k5), "--order", "2",
                 "--eta", "1/11"]) == 3
    capsys.readouterr()


def test_node_ids_past_int64_are_a_data_error(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("0 1\n1 18446744073709551616\n")
    assert main(["count", str(path)]) == 2
    assert "line 2: node id 18446744073709551616 is not below 2^63" in \
        capsys.readouterr().err
    path.write_text(f"0 1\n1 {2 ** 63 - 1}\n")   # the largest int64 id
    doc = run_json(capsys, "count", str(path), "--order", "2")
    assert doc["result"]["n"] == 2 ** 63
    got = {c["alias"]: frac(c["value"]) for c in doc["result"]["counts"]}
    assert got["edge"] == 2 and got["wedge"] == 1


@pytest.mark.parametrize("text, flags", [
    ("0 1\n2 3\n", ["--order", "3"]),                 # a perfect matching
    ("", ["--order", "3", "--nodes", "5"]),            # no edges
    ("0 1\n2 3\n", ["--order", "1"]),                 # no wedge class
    ("0 1\n2 3\n", ["--order", "4", "--bipartite",    # no three-paths
                     "--attributes"]),
])
def test_cumulants_leave_out_undefined_clustering(capsys, tmp_path, text,
                                                  flags):
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    labels = tmp_path / "labels.txt"
    labels.write_text("0\ta\n1\tb\n2\ta\n3\tb\n")
    if flags[-1] == "--attributes":
        flags = flags + [str(labels)]
    doc = run_json(capsys, "cumulants", str(graph), *flags)
    assert "clustering" not in doc["result"]


def test_local_node_moments_need_three_nodes(capsys, tmp_path, p4):
    path = tmp_path / "g.txt"
    for text, n in (("", "1"), ("0 1\n", "2")):
        path.write_text(text)
        assert main(["local", str(path), "--node", "0", "--order", "1",
                     "--nodes", n]) == 2
        assert "local node moments need n >= 3" in capsys.readouterr().err
    # below third order there is no triangle cumulant
    doc = run_json(capsys, "local", p4, "--node", "1", "--order", "2")
    assert "kappa_triangle" not in doc["result"]


@pytest.mark.parametrize("anchor", [["--node", "1"], ["--edge", "1", "2"]])
def test_local_order_is_checked_like_every_command(capsys, p4, anchor):
    for order in ("0", "-1"):
        assert main(["local", p4, *anchor, "--order", order]) == 2
        assert "order must be at least 1" in capsys.readouterr().err
    # local statistics are attributed ones: the attributed cap applies
    assert main(["local", p4, *anchor, "--order", "4"]) == 4
    assert "exceeds the cap 3 for mode 'attributed'" in \
        capsys.readouterr().err


def test_local_on_ids_near_2_to_the_40(tmp_path):
    # only the nodes with an edge and the anchor are labelled: under a
    # 1 GiB address space a label per id below n would die with a
    # MemoryError (exit 1)
    graph = tmp_path / "graph.txt"
    graph.write_text("0 1\n1 2\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(pathlib.Path(netmoments.__file__).parents[1]))
    n = 2 ** 40
    for anchor, name, want in ((["--node", "1"], "self", Fraction(2, n - 1)),
                               (["--edge", "0", "1"], "wedge-attached",
                                Fraction(1, 2 * (n - 2)))):
        proc = subprocess.run(
            [sys.executable, "-m", "netmoments.cli", "local", str(graph),
             *anchor, "--nodes", str(n)],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (2 ** 30, 2 ** 30)))
        assert proc.returncode == 0, proc.stderr
        assert frac(json.loads(proc.stdout)["result"]["moments"][name]) == \
            want


@pytest.mark.parametrize("eta", ["-1", "3/2", "-3"])
def test_eta_outside_the_unit_interval_is_a_data_error(capsys, tmp_path,
                                                       eta):
    # eta = -1 used to end in a diverging fit (exit 3), and 3/2 and -3 in
    # an impossible population size
    path = tmp_path / "g8.txt"
    path.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n0 7\n0 4\n")
    for command in ("fit", "dist"):
        assert main(["ergm", command, str(path), "--order", "2",
                     "--eta", eta]) == 2
        assert f"eta must lie in [0, 1], got {eta}" in \
            capsys.readouterr().err


def test_statistic_without_a_target_is_a_data_error(capsys, p4, tmp_path):
    # a statistic past --order, or a graph too small for any class, used
    # to end in a KeyError traceback or an internal message
    assert main(["ergm", "fit", p4, "--order", "1",
                 "--statistics", "edge,triangle"]) == 2
    assert "no target moment for triangle" in capsys.readouterr().err
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(["ergm", "fit", str(empty), "--nodes", "1",
                 "--order", "1"]) == 2
    assert "no target moment for any statistic" in capsys.readouterr().err


def test_repeated_or_empty_statistics_are_refused(capsys, tmp_path):
    # a repeated statistic split its coefficient over two identical
    # columns, and beta kept half of it; an empty list fitted every class
    c4 = tmp_path / "c4.txt"
    c4.write_text("0 1\n1 2\n2 3\n0 3\n")
    doc = run_json(capsys, "ergm", "fit", str(c4), "--statistics", "edge")
    assert float(doc["result"]["beta"]["edge"]) == pytest.approx(
        math.log(2))
    assert main(["ergm", "fit", str(c4), "--statistics", "edge,edge"]) == 2
    assert "data error: statistics given more than once: edge\n" in \
        capsys.readouterr().err
    assert main(["ergm", "dist", str(c4),
                 "--statistics", "wedge,edge,wedge"]) == 2
    assert "statistics given more than once: wedge\n" in \
        capsys.readouterr().err
    assert main(["ergm", "fit", str(c4), "--statistics", ""]) == 1
    assert "unknown subgraph alias ''" in capsys.readouterr().err


@pytest.mark.parametrize("exponent", ["0", "-2"])
def test_root_exponent_below_one_is_a_usage_error(capsys, p4, exponent):
    assert main(["cumulants", p4, "--order", "2", "--scaled",
                 "--root-exponent", exponent]) == 1
    assert f"--root-exponent must be at least 1, got {exponent}" in \
        capsys.readouterr().err
    # without --scaled there is no root to take
    assert main(["cumulants", p4, "--order", "2",
                 "--root-exponent", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--root-exponent needs --scaled" in captured.err


def test_ztest_small_and_large_graphs(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(["ztest", str(empty), "--nodes", "1", "--order", "1"]) == 2
    assert "no kappa-check of edge: class unrealizable at n=1" in \
        capsys.readouterr().err
    # the triangle's kappa-check reads the moment of three disjoint edges,
    # so the bootstrap draws subgraphs on 6 of these 7 nodes, not on
    # max(r + 2, 7n / 10) = 5
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n0 6\n0 3\n1 5\n0 2\n")
    doc = run_json(capsys, "ztest", str(path), "--subgraph", "triangle",
                   "--samples", "20")
    assert doc["result"]["approximate_variance"] is True
    assert doc["result"]["variance"] > 0
    # each sample lists its nodes in Python: refused before the first
    assert main(["ztest", str(path), "--subgraph", "triangle",
                 "--nodes", str(2 ** 16 + 1)]) == 4
    assert "capped at 2^16" in capsys.readouterr().err


@pytest.mark.parametrize("mode, text", [
    ("--weighted", "0 1 2\n1 2 1\n2 3 3\n0 3 1\n0 2 1\n1 3 2\n"),
    ("--directed", "0 1\n1 2\n2 0\n2 3\n3 0\n1 3\n0 4\n4 5\n5 1\n"
                   "3 5\n")])
def test_ztest_bootstraps_the_edge_of_other_modes(capsys, tmp_path, mode,
                                                  text):
    # the closed-form variance covers the simple edge only; the edge class
    # of another mode used to exit 2 with "exists only for the edge class"
    path = tmp_path / "g.txt"
    path.write_text(text)
    doc = run_json(capsys, "ztest", str(path), mode, "--subgraph", "edge",
                   "--samples", "3")
    assert doc["result"]["alias"] == "edge"
    assert doc["result"]["approximate_variance"] is True


def _main_in_process(argv, stdin_text=""):
    """(exit code, stderr) of main(argv) with stdin_text on stdin."""
    err = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, err.getvalue()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([["count"], ["moments"], ["cumulants"],
                        ["cumulants", "--scaled"], ["unbiased"], ["ztest"],
                        ["ztest", "--subgraph", "three-parallel",
                         "--samples", "3"],
                        ["local", "--node", "0"],
                        ["local", "--edge", "0", "1"]]),
       st.integers(-1, 4), st.sampled_from(["simple", "directed", "weighted"]),
       st.one_of(st.none(), st.integers(-1, 2 ** 64)), st.data())
def test_cli_exits_with_a_documented_code(command, order, mode, nodes, data):
    text = data.draw(edge_lists(mode == "weighted"))
    argv = [command[0], "-", *command[1:], "--order", str(order)]
    if mode != "simple":
        argv.append(f"--{mode}")
    if nodes is not None:
        argv += ["--nodes", str(nodes)]
    code, _ = _main_in_process(argv, text)
    assert code in range(5)


@pytest.mark.parametrize("samples", [["--samples", "5"], []])
def test_ztest_past_the_float_range_is_a_data_error(samples):
    # an edge weight of 1e4300 is an exact rational no float can hold
    code, err = _main_in_process(
        ["ztest", "-", "--weighted", "--subgraph", "edge", *samples],
        "0 1 1\n1 2 2\n2 3 1e4300\n0 3 1\n")
    assert (code, err) == (2, "data error: kappa-check on a subsample of "
                              "edge is past the float range\n")


def test_ztest_bootstrap_variance_past_the_float_range(tmp_path):
    # the subsamples' kappa-checks are finite, their squares are not: numpy
    # printed "RuntimeWarning: overflow encountered in square" on stderr
    graph = tmp_path / "graph.txt"
    graph.write_text("0 1 1\n1 2 1e200\n2 3 1\n0 3 1\n3 4 2\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(pathlib.Path(netmoments.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "netmoments.cli", "ztest", str(graph),
         "--weighted", "--subgraph", "edge", "--samples", "5"],
        capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (
        2, "data error: variance of edge is past the float range\n")
    assert "Infinity" not in proc.stdout


_SMALL_EDGES = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6))
                        .filter(lambda e: e[0] != e[1]),
                        unique_by=lambda e: frozenset(e), max_size=14).map(
    lambda pairs: "".join(f"{u} {v}\n" for u, v in pairs))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([["fit"], ["dist"], ["dist", "--statistic", "wedge"],
                        ["fit", "--statistics", "edge,triangle"]]),
       _SMALL_EDGES, st.integers(-1, 5),
       st.sampled_from(["0", "1/9", "1", "-1", "3/2"]),
       st.one_of(st.none(), st.integers(1, 7)))
def test_ergm_exits_with_a_documented_code(command, text, order, eta,
                                           nodes):
    # graphs of at most 7 nodes: n = 8 takes seconds to enumerate
    argv = ["ergm", command[0], "-", *command[1:], "--order", str(order),
            "--eta", eta]
    if nodes is not None:
        argv += ["--nodes", str(nodes)]
    code, _ = _main_in_process(argv, text)
    assert code in range(5)


@pytest.mark.parametrize("samples", ["0", "1", "-3"])
def test_ztest_needs_two_bootstrap_samples(capsys, dense, samples):
    # the sample variance of fewer than two samples is NaN, which JSON has
    # no number for
    assert main(["ztest", dense, "--subgraph", "wedge",
                 "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs at least 2 samples" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["--model", "er", "--n", "5"], "er needs p"),
    (["--model", "bipartite-geometric", "--n", "6", "--mean-degree", "1"],
     "bipartite-geometric needs f and mean_degree"),
    (["--model", "bipartite-geometric", "--n", "6", "--f", "0.5"],
     "bipartite-geometric needs f and mean_degree"),
    (["--model", "ssbm", "--n", "6", "--a", "0.5"],
     "ssbm needs (a, b) or (assortativity, mean_degree)"),
    # one raw probability is not completed by chart coordinates
    (["--model", "ssbm", "--n", "6", "--b", "0.5", "--assortativity", "0.2",
      "--mean-degree", "1"],
     "ssbm needs (a, b) or (assortativity, mean_degree)")])
def test_generate_without_a_model_parameter_is_a_data_error(capsys, argv,
                                                            message):
    assert main(["generate", *argv]) == 2
    assert f"data error: {message}" in capsys.readouterr().err


_MODEL_PARAMETER = st.one_of(
    st.none(), st.floats(-3, 12), st.sampled_from(
        [float("nan"), float("inf"), float("-inf"), 1e300, -0.0]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["er", "ssbm", "bipartite-geometric"]),
       st.one_of(st.none(), st.integers(-2, 12)),
       st.fixed_dictionaries({flag: _MODEL_PARAMETER for flag in (
           "--p", "--a", "--b", "--assortativity", "--mean-degree",
           "--f")}),
       st.one_of(st.integers(-3, 3), st.just(2 ** 128)))
def test_generate_exits_with_a_documented_code(model, n, params, seed):
    # every model with missing, NaN, infinite or out-of-range parameters
    argv = ["generate", "--model", model, "--seed", str(seed)]
    if n is not None:
        argv += ["--n", str(n)]
    for flag, value in params.items():
        if value is not None:   # "=" keeps "-inf" from reading as an option
            argv.append(f"{flag}={value!r}")
    code, err = _main_in_process(argv)
    assert code in range(5) and "Traceback" not in err
    _assert_seed_refused(argv, seed, code, err)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["attributes", "orientations", "weights"]),
       st.sampled_from(["simple", "directed", "weighted"]),
       st.one_of(st.integers(-1, 3), st.just(2 ** 128)), st.data())
def test_shuffle_exits_with_a_documented_code(mode, kind, seed, data):
    text = data.draw(edge_lists(kind == "weighted"))
    argv = ["shuffle", "-", "--mode", mode, "--seed", str(seed)]
    if kind != "simple":
        argv.append(f"--{kind}")
    code, err = _main_in_process(argv, text)
    assert code in range(5) and "Traceback" not in err
    _assert_seed_refused(argv, seed, code, err, text)


_BAD_ATTRIBUTE_LINE = st.tuples(
    st.one_of(st.integers(-2, 9), st.sampled_from(
        [2 ** 63, 2 ** 64, "x", "1.5", "0x1", ""])),
    st.sampled_from(["a", "b", "", "a b", "# c"])).map(
    lambda line: f"{line[0]}\t{line[1]}".strip())


@st.composite
def _attribute_files(draw):
    """Each node of _SMALL_EDGES labelled once from a small alphabet; one
    file in four then loses lines and gains lines with repeated, extra,
    negative or non-integer ids or without a label, or is empty."""
    lines = [f"{v}\t{label}" for v, label in enumerate(draw(st.lists(
        st.sampled_from(["a", "b", "c"]), min_size=7, max_size=7)))]
    if draw(st.integers(0, 3)):
        return "\n".join(lines)
    if draw(st.integers(0, 4)) == 0:
        return ""
    for at in sorted(draw(st.sets(st.integers(0, 6), max_size=3)),
                     reverse=True):
        del lines[at]
    for line in draw(st.lists(_BAD_ATTRIBUTE_LINE, min_size=1,
                              max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([["count"], ["moments"], ["cumulants"], ["unbiased"],
                        ["ztest", "--samples", "3"], ["local", "--node", "0"],
                        ["shuffle", "--mode", "attributes"],
                        ["shuffle", "--mode", "orientations"]]),
       st.sampled_from([[], ["--bipartite"], ["--directed"],
                        ["--weighted"]]),
       _SMALL_EDGES, _attribute_files(), st.integers(-1, 4))
def test_attributes_exit_with_a_documented_code(tmp_path_factory, command,
                                                flags, edges, labels,
                                                order):
    # attribute files with repeated, missing, extra, non-integer and
    # negative ids, and empty ones
    attrs = tmp_path_factory.getbasetemp() / "fuzzed-labels.txt"
    attrs.write_text(labels)
    argv = [command[0], "-", *command[1:], *flags, "--attributes",
            str(attrs)]
    if command[0] != "shuffle":
        argv += ["--order", str(order)]
    code, err = _main_in_process(argv, edges)
    assert code in range(5) and "Traceback" not in err


def _assert_seed_refused(argv, seed, code, err, stdin_text=""):
    # a seed outside Philox's 128-bit keys fails whatever else the command
    # does, and where the same command runs with seed 0, it fails on the
    # seed, by name
    if 0 <= seed < 2 ** 128:
        return
    assert code != 0
    at = argv.index("--seed") + 1
    valid = argv[:at] + ["0"] + argv[at + 1:]
    if _main_in_process(valid, stdin_text)[0] == 0:
        assert code == 2
        assert f"data error: seed must be in [0, 2^128), got {seed}\n" \
            in err


@pytest.mark.parametrize("seed", ["-1", str(2 ** 128)])
def test_ztest_seed_out_of_range_is_a_data_error(capsys, dense, seed):
    assert main(["ztest", dense, "--subgraph", "wedge", "--samples", "2",
                 "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"data error: seed must be in [0, 2^128), got {seed}\n"


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["editgraph", "sum-demo"]),
       st.one_of(st.none(), st.integers(-3, 9)),
       st.lists(st.sampled_from(_MODE_FLAGS + [
           ["--csv"], ["--pretty"], ["--allow-large"], ["--order", "9"],
           ["--order", "-1"], ["--seed", "-1"]]), max_size=3))
def test_editgraph_and_sum_demo_exit_with_a_documented_code(command, nodes,
                                                            flags):
    argv = [command, *(arg for flag in flags for arg in flag)]
    if nodes is not None:
        argv += ["--nodes", str(nodes)]
    code, err = _main_in_process(argv)
    assert "Traceback" not in err
    if any(flag not in (["--csv"], ["--pretty"]) for flag in flags):
        assert code == 1    # a flag neither command declares
    elif command == "sum-demo":
        assert code == (0 if nodes is None else 1)
    elif nodes is None or nodes < 0:
        assert code == 1
    else:
        assert code == (4 if nodes > 6 else 0)


_MODES = ["--directed", "--weighted", "--attributes", "--bipartite"]
_INPUT = [*_MODES, "--nodes"]
_FORMATS = ["--out", "--csv", "--pretty"]

# the option strings of each subcommand, "-h" aside
_OPTIONS = {
    "count": [*_INPUT, "--order", *_FORMATS],
    "moments": [*_INPUT, "--order", *_FORMATS],
    "cumulants": [*_INPUT, "--order", *_FORMATS, "--scaled",
                  "--root-exponent"],
    "unbiased": [*_INPUT, "--order", *_FORMATS],
    "ztest": [*_INPUT, "--order", "--seed", *_FORMATS, "--subgraph",
              "--samples"],
    "local": [*_INPUT, "--order", *_FORMATS, "--node", "--edge"],
    "ergm fit": [*_INPUT, "--order", *_FORMATS, "--eta", "--statistics"],
    "ergm dist": [*_INPUT, "--order", *_FORMATS, "--eta", "--statistics",
                  "--statistic"],
    "editgraph": ["--nodes", *_FORMATS],
    "generate": ["--seed", "--out", "--model", "--n", "--p", "--a", "--b",
                 "--assortativity", "--mean-degree", "--f"],
    "shuffle": [*_INPUT, "--seed", "--out", "--mode"],
    "sum-demo": _FORMATS,
}

# (command, flag) pairs that every subcommand once accepted and ignored,
# and --allow-large, which ergm read until the n=10 table went
_REMOVED = [
    *((command, flag) for command in ("count", "moments", "cumulants",
                                      "unbiased", "local")
      for flag in ("--seed", "--allow-large")),
    ("ztest", "--allow-large"),
    *((command, flag) for command in ("ergm fit", "ergm dist")
      for flag in ("--seed", "--allow-large")),
    *(("editgraph", flag) for flag in ("--order", "--seed", "--allow-large",
                                       *_MODES)),
    *(("generate", flag) for flag in ("--order", "--nodes", "--csv",
                                      "--pretty", "--allow-large", *_MODES)),
    *(("shuffle", flag) for flag in ("--order", "--csv", "--pretty",
                                     "--allow-large")),
    *(("sum-demo", flag) for flag in ("--order", "--nodes", "--seed",
                                      "--allow-large", *_MODES)),
]

_FLAG_VALUES = {"--order": "2", "--seed": "1", "--nodes": "4",
                "--attributes": "labels.txt"}


def _subcommand_parsers():
    """{"count": parser, ..., "ergm fit": parser, "ergm dist": parser}."""
    def choices(parser):
        action, = (a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        return action.choices
    out = {}
    for name, parser in choices(build_parser()).items():
        if name == "ergm":
            out.update((f"ergm {sub}", ep)
                       for sub, ep in choices(parser).items())
        else:
            out[name] = parser
    return out


@pytest.fixture
def valid_argv(tmp_path, p4, dense):
    """An argv per subcommand that exits 0."""
    weighted = tmp_path / "w.txt"
    weighted.write_text("0 1 5\n1 2 1\n2 3 2\n")
    return {
        "count": ["count", p4, "--order", "2"],
        "moments": ["moments", p4, "--order", "2"],
        "cumulants": ["cumulants", p4, "--order", "2"],
        "unbiased": ["unbiased", p4, "--order", "2"],
        "ztest": ["ztest", dense],
        "local": ["local", p4, "--node", "0"],
        "ergm fit": ["ergm", "fit", p4],
        "ergm dist": ["ergm", "dist", p4, "--order", "1"],
        "editgraph": ["editgraph", "--nodes", "3"],
        "generate": ["generate", "--model", "er", "--n", "5", "--p", "0.5"],
        "shuffle": ["shuffle", str(weighted), "--weighted", "--mode",
                    "weights"],
        "sum-demo": ["sum-demo"],
    }


def test_each_subcommand_declares_only_the_flags_it_reads(capsys,
                                                          valid_argv):
    parsers = _subcommand_parsers()
    assert set(parsers) == set(_OPTIONS) == set(valid_argv)
    for name, parser in parsers.items():
        options = [s for a in parser._actions for s in a.option_strings
                   if s not in ("-h", "--help")]
        assert sorted(options) == sorted(_OPTIONS[name]), name
    assert sum(map(len, _OPTIONS.values())) == 109
    # no subcommand gained an option: the 152 that all of them accepted
    # before are the 109 declared ones and the 43 refused ones
    assert len(set(_REMOVED)) == 43
    assert not any(flag in _OPTIONS[name] for name, flag in _REMOVED)
    for name, flag in _REMOVED:
        argv = [*valid_argv[name], flag]
        if flag in _FLAG_VALUES:
            argv.append(_FLAG_VALUES[flag])
        assert main(argv) == 1, (name, flag)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"usage error: unrecognized arguments: {flag}" in \
            captured.err
    # a manifest records exactly the flags its command declares
    for name, argv in valid_argv.items():
        code, out = run(capsys, *argv)
        assert code == 0, name
        if out.startswith("# manifest "):
            manifest = json.loads(out.splitlines()[0][len("# manifest "):])
        else:
            manifest = json.loads(out)["manifest"]
        dests = {a.dest for a in parsers[name]._actions} - {
            "help", "out", "csv", "pretty"}
        assert set(manifest["flags"]) == dests, name
        assert manifest["command"] == name
        assert manifest["seed"] == (0 if "seed" in dests else None), name


def test_readme_command_lines_parse():
    # every example in README's "Command line" block is a valid argv
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.splitlines() if line]
    assert lines and all(line[0] == "netmoments" for line in lines)
    commands = set()
    for line in lines:
        args = build_parser().parse_args(line[1:])
        commands.add(args.command)
    assert commands == {name.split()[0] for name in _OPTIONS}
