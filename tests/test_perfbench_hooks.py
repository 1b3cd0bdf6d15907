"""The benchmark's tracer names library functions and caches by string; a
rename or move in the package must not leave a traced run pointing at
nothing."""

import importlib
import importlib.util
import os
import pathlib
import random
import subprocess
import sys

import pytest

TRACER = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
          / "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _module(short):
    return importlib.import_module("netmoments." + short)


def test_traced_functions_resolve():
    tracer = _tracer()
    for mod, name in list(tracer.TRACED) + [tracer.COUNTED]:
        assert callable(getattr(_module(mod), name, None)), (mod, name)


def test_traced_methods_exist():
    for mod, cls, meth in _tracer().TRACED_METHODS:
        assert callable(vars(getattr(_module(mod), cls)).get(meth)), \
            (mod, cls, meth)


def test_reported_caches_have_cache_info():
    for mod, name in _tracer().CACHES.values():
        assert callable(getattr(getattr(_module(mod), name), "cache_info",
                                None)), (mod, name)


def test_esu_side_run_import_resolves():
    # perfbench/run.py times connected_edge_subsets on its own; no count
    # path calls it any more, so only this test notices if it goes
    run = TRACER.with_name("run.py").read_text()
    assert "from netmoments.counting import connected_edge_subsets" in run
    assert callable(getattr(_module("counting"), "connected_edge_subsets",
                            None))


def test_class_table_passes_leave_the_spans_a_trace_reads(monkeypatch):
    # perfbench/layers.py reads ergm.stat_matrix_fallback_rows from the
    # full_counts spans inside ergm.stat_matrix, editgraph.
    # canonicalizations from the canonicalize calls build_edit_graph makes
    # itself, and ergm.enumerate_s, ergm.canonicalizations and
    # canonical.per_call_us from the ergm.enumerate spans of cold n=7
    # builds that canonicalize; without any of them, `run.py --trace 1`
    # exits 3
    tracer_mod = _tracer()
    NAME, PARENT, ATTRS = tracer_mod.NAME, tracer_mod.PARENT, tracer_mod.ATTRS
    ergm, editgraph = _module("ergm"), _module("editgraph")
    edge = _module("classes").named_class("simple", "edge").id
    table = ergm.enumerate_classes(5)
    monkeypatch.setattr(ergm, "_CLASS_TABLE_CACHE", {})
    tracer = tracer_mod.Tracer()
    with tracer.instrument():
        table.statistic_counts((edge,))
        editgraph.build_edit_graph(5)
        ergm.enumerate_classes(7)
    spans = tracer.spans

    def inside(i, name):
        while spans[i][PARENT] is not None:
            i = spans[i][PARENT]
            if spans[i][NAME] == name:
                return True
        return False

    assert any(s[NAME] == "counting.full_counts"
               and inside(i, "ergm.stat_matrix")
               for i, s in enumerate(spans))
    builds = [s for s in spans if s[NAME] == "editgraph.build"]
    assert builds and builds[0][ATTRS].get("canon", 0) > 0
    assert any(s[NAME] == "ergm.enumerate" and s[ATTRS].get("n") == 7
               and s[ATTRS].get("canon", 0) > 0 for s in spans)


def test_order5_pipeline_leaves_the_spans_a_trace_reads():
    # perfbench/layers.py reads esu-o5's counting, normalize, cumulant and
    # kappa-check times from these spans of each operation; a call that
    # leaves the traced path drops its metric from `run.py --trace 1`
    import netmoments
    tracer_mod = _tracer()
    NAME, PARENT, OP = tracer_mod.NAME, tracer_mod.PARENT, tracer_mod.OP
    rng = random.Random(11)
    graphs = [netmoments.make_graph(14, [
        (u, v) for u in range(14) for v in range(u + 1, 14)
        if rng.random() < 0.3]) for _ in range(3)]
    tracer = tracer_mod.Tracer()
    with tracer.instrument():
        for op, G in enumerate(graphs):
            tracer.op = op
            m = netmoments.moments(G, 5)
            netmoments.moments_to_cumulants(m)
            netmoments.unbiased_cumulants(m)
    spans = tracer.spans

    def chain(i):
        out = []
        while i is not None:
            out.append(spans[i][NAME])
            i = spans[i][PARENT]
        return out

    for op in range(len(graphs)):
        mine = [i for i, s in enumerate(spans) if s[OP] == op]
        names = [spans[i][NAME] for i in mine]
        for name in ("moments.normalize", "cumulants.to_cumulants",
                     "unbiased.kappa_check"):
            assert names.count(name) == 1, (op, name, names)
        counted = [i for i in mine
                   if spans[i][NAME] == "counting.count_connected"]
        assert counted
        for i in counted:
            assert chain(i) == ["counting.count_connected",
                                "counting.full_counts", "moments.moments"]


@pytest.mark.parametrize("module", ["netmoments.cli", "netmoments"])
def test_imports_load_every_traced_module(module):
    # the tracer reads each module it instruments from sys.modules after
    # `import netmoments.cli` (child.py trace) or `import netmoments`; a
    # module loaded lazily would make `run.py --trace 1` raise KeyError
    tracer = _tracer()
    wanted = ({mod for mod, _ in tracer.TRACED}
              | {mod for mod, _, _ in tracer.TRACED_METHODS}
              | {tracer.COUNTED[0]}
              | {mod for mod, _ in tracer.CACHES.values()})
    root = pathlib.Path(_module("counting").__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(root))
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert {"netmoments." + mod for mod in wanted} <= loaded
