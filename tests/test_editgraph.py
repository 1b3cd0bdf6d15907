"""Edit-graph construction and Laplacian spectrum."""

import dataclasses

import numpy as np
import pytest

from netmoments import editgraph, ergm
from netmoments.classes import universe
from netmoments.cli import main
from netmoments.editgraph import build_edit_graph, laplacian_spectrum
from netmoments.ergm import SizeCapError, enumerate_classes

from conftest import toggle_edit_graph


def count_vectors(h, r_max):
    """Matrix whose rows are {class -> c_g(class)} over every subgraph g
    with at most r_max edges (the empty subgraph contributes the all-ones
    row)."""
    sids = [ci.id for infos in universe("simple", r_max).values()
            for ci in infos if ci.graph.k <= h.n]
    return np.vstack([np.ones(len(h)), h.table.statistic_counts(sids).T])


def left_eigenspace_rank_match(h, r_max):
    """Rank comparison of span{left eigenvectors, eigenvalue <= r_max}
    against span{subgraph-count vectors with <= r_max edges}.

    Returns (eigen_rank, count_rank, joint_rank); the span claim holds when
    all three agree.
    """
    vals, vecs = np.linalg.eig(h.laplacian().T)
    keep = np.rint(vals.real) <= r_max
    eig_rows = vecs[:, keep].real.T
    cnt_rows = count_vectors(h, r_max)
    tol = 1e-8 * max(len(h), 1)
    r_eig = np.linalg.matrix_rank(eig_rows, tol=tol)
    r_cnt = np.linalg.matrix_rank(cnt_rows, tol=tol)
    r_joint = np.linalg.matrix_rank(np.vstack([eig_rows, cnt_rows]), tol=tol)
    return r_eig, r_cnt, r_joint


def test_n3_spectrum():
    h = build_edit_graph(3)
    assert len(h) == 4
    assert (h.adjacency.sum(axis=1) == 3).all()
    spec, residual = laplacian_spectrum(h)
    assert spec == [(0, 1), (1, 1), (2, 1), (3, 1)]
    assert residual < 1e-8


def test_n4_spectrum():
    h = build_edit_graph(4)
    assert len(h) == 11
    assert (h.adjacency.sum(axis=1) == 6).all()
    spec, residual = laplacian_spectrum(h)
    assert spec == [(0, 1), (1, 1), (2, 2), (3, 3), (4, 2), (5, 1), (6, 1)]
    assert residual < 1e-8


def test_zero_eigenvectors():
    # eigenvalue 0: uniform left eigenvector, multiplicity-proportional
    # right eigenvector
    h = build_edit_graph(4)
    L = h.laplacian()
    right = np.array(h.table.mults, dtype=np.float64)
    right /= right.sum()
    scale = np.abs(L).max()
    assert np.abs(np.ones(len(h)) @ L).max() / scale < 1e-12
    assert np.abs(L @ right).max() / scale < 1e-12


def test_left_eigenspace_spans_count_vectors():
    h = build_edit_graph(4)
    for r in (1, 2, 3):
        r_eig, r_cnt, r_joint = left_eigenspace_rank_match(h, r)
        assert r_eig == r_cnt == r_joint


def test_left_eigenspace_spans_count_vectors_n5():
    h = build_edit_graph(5)
    for r in (1, 2, 3):
        r_eig, r_cnt, r_joint = left_eigenspace_rank_match(h, r)
        assert r_eig == r_cnt == r_joint


def test_node_cap():
    with pytest.raises(SizeCapError):
        build_edit_graph(7)


def test_negative_node_count_is_refused(capsys):
    for fn in (enumerate_classes, build_edit_graph):
        with pytest.raises(ValueError, match="nonnegative, got n=-1"):
            fn(-1)
    assert main(["editgraph", "--nodes", "-2"]) == 1
    assert "--nodes must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("n", range(7))
def test_adjacency_matches_toggle_reference(n):
    h = build_edit_graph(n)
    want = toggle_edit_graph(n)
    assert h.adjacency.dtype == want.dtype
    assert h.adjacency.tobytes() == want.tobytes()


def _counted_canonicalize(monkeypatch):
    calls = []
    real = editgraph.canonicalize

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(editgraph, "canonicalize", counted)
    return calls


def test_one_canonicalization_per_edge_orbit(monkeypatch):
    # one search per representative, for its automorphisms: the 572 edge
    # orbits at n=6 are classified by invariant (728 searches when
    # each orbit was canonicalized, 156 * 15 = 2,340 when toggling every
    # pair), and no search of the fresh table's rows runs on top
    monkeypatch.setattr(ergm, "_CLASS_TABLE_CACHE", {})
    enumerate_classes(6)
    calls = _counted_canonicalize(monkeypatch)
    counts = []
    for _ in range(2):
        calls.clear()
        build_edit_graph(6)
        counts.append(len(calls))
    assert counts == [156, 156]


@pytest.mark.parametrize("shared", ["degrees", "all"])
@pytest.mark.parametrize("n", [5, 6])
def test_shared_invariants_fall_back_to_canonical_keys(monkeypatch, n,
                                                        shared):
    # with the degree sequence as invariant some classes share one, and
    # with a constant all do: the build refuses with an explicit raise
    # rather than search canonical keys
    def invariants(stack):
        if shared == "all":
            return [b""] * len(stack)
        return [bytes(sorted(row)) for row in stack.sum(axis=2).tolist()]

    monkeypatch.setattr(editgraph, "graph_invariants", invariants)
    with pytest.raises(AssertionError,
                       match=f"classes on {n} nodes share a node invariant"):
        build_edit_graph(n)


def test_a_removal_that_matches_no_class_is_refused(monkeypatch):
    # an invariant no representative has is an explicit error, not a
    # KeyError
    real = editgraph.graph_invariants
    calls = []

    def invariants(stack):
        calls.append(1)
        return [b"!" * (len(calls) > 1) + inv for inv in real(stack)]

    monkeypatch.setattr(editgraph, "graph_invariants", invariants)
    with pytest.raises(AssertionError,
                       match="an edge removal on 5 nodes matches no class"):
        build_edit_graph(5)


def test_broken_multiplicities_are_refused(monkeypatch):
    table = enumerate_classes(5)
    mults = list(table.mults)
    mults[3] += 1
    monkeypatch.setattr(editgraph, "enumerate_classes",
                        lambda n: dataclasses.replace(table, mults=mults))
    with pytest.raises(AssertionError, match="do not balance"):
        build_edit_graph(5)


def test_missing_removals_are_refused(monkeypatch):
    # dropping every orbit after the first keeps the multiplicity identity
    # (additions follow removals) but leaves rows short of C(n,2)
    real = editgraph._edge_orbits
    monkeypatch.setattr(editgraph, "_edge_orbits",
                        lambda edges, gens: list(real(edges, gens))[:1])
    with pytest.raises(AssertionError, match="out-degrees"):
        build_edit_graph(5)
