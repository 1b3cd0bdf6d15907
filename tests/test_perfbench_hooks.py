"""The benchmark's tracer names library functions and caches by string; a
rename or move in the package must not leave a traced run pointing at
nothing."""

import importlib
import importlib.util
import pathlib

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
