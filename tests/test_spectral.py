"""Eigensolver against the numpy oracle, plus the spectral certificates."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

import gf_reference
import graph_reference
from ramseyforge import geometry as geo
from ramseyforge import graphcore as gc
from ramseyforge import spectral as sp
from ramseyforge.gf import spec_for
from ramseyforge.graphcore import Graph


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen():
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
    )
    return Graph.from_edges(10, edges)


def random_graph(n, p, rng):
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


# --- eigensolver -------------------------------------------------------------


def test_matches_numpy_on_random_symmetric():
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randint(1, 35)
        M = np.array([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)], float)
        M = (M + M.T) / 2.0
        mine = sp.symmetric_eigenvalues(M)
        ref = np.sort(np.linalg.eigvalsh(M))[::-1]
        assert np.max(np.abs(mine - ref)) < 1e-9


def test_matches_numpy_on_random_graphs():
    rng = random.Random(7)
    for _ in range(25):
        G = random_graph(rng.randint(2, 60), rng.uniform(0.1, 0.9), rng)
        mine = np.array(sp.spectrum(G).eigenvalues)
        ref = np.sort(np.linalg.eigvalsh(sp.adjacency_matrix(G)))[::-1]
        assert np.max(np.abs(mine - ref)) < 1e-9


def test_adjacency_matrix():
    G = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert np.array_equal(
        sp.adjacency_matrix(G), np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], float)
    )
    # n = 0, 1 and the word boundaries of the packed rows, against the edge list
    rng = random.Random(32)
    for n in (0, 1, 63, 64, 65):
        G = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3])
        want = np.zeros((n, n))
        for u, v in graph_reference.edges(G):
            want[u, v] = want[v, u] = 1.0
        A = sp.adjacency_matrix(G)
        assert A.dtype == float and A.shape == (n, n) and np.array_equal(A, want)


def test_symmetric_eigenvalues_guards():
    with pytest.raises(ValueError):
        sp.symmetric_eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sp.symmetric_eigenvalues(np.array([[0, 1], [2, 0]], float))
    with pytest.raises(ValueError):
        sp.symmetric_eigenvalues(np.zeros((sp.MAX_SPECTRUM_N + 1, sp.MAX_SPECTRUM_N + 1)))
    with pytest.raises(ValueError):
        sp.spectrum(Graph(sp.MAX_SPECTRUM_N + 1, [0] * (sp.MAX_SPECTRUM_N + 1)))


def test_one_by_one_matrix_gets_the_eigenpair_checks():
    # a 1 x 1 matrix was returned as its entry, unchecked, so [[inf]] gave
    # [inf] while [[inf, 0], [0, 1]] was refused
    for x in (math.inf, -math.inf):
        with np.errstate(invalid="ignore"), pytest.raises(ArithmeticError, match="residual"):
            sp.symmetric_eigenvalues(np.array([[x]]))
    for x in (0.0, -0.0, -3.5, 7.25, 1e300, 5e-324):
        vals = sp.symmetric_eigenvalues(np.array([[x]]))
        assert vals.shape == (1,) and vals[0].tobytes() == np.float64(x).tobytes()


def corrupted_eigh(monkeypatch, corrupt):
    """Make spectral's LAPACK call hand back eigenpairs passed through corrupt."""
    eigh = np.linalg.eigh

    def fake(M):
        vals, V = eigh(M)
        return corrupt(vals.copy(), V.copy())

    monkeypatch.setattr(sp.np.linalg, "eigh", fake)


@pytest.mark.parametrize("shift", [1e-3, float("nan")])
def test_residual_check_rejects_a_perturbed_eigenpair(monkeypatch, shift):
    def corrupt(vals, V):
        vals[4] += shift
        return vals, V

    A = sp.adjacency_matrix(petersen())
    assert sp.symmetric_eigenvalues(A)[0] == pytest.approx(3.0)
    corrupted_eigh(monkeypatch, corrupt)
    with pytest.raises(ArithmeticError, match="residual"):
        sp.symmetric_eigenvalues(A)
    with pytest.raises(ArithmeticError):
        sp.spectrum(petersen())


def test_orthonormality_check_rejects_a_repeated_eigenvector(monkeypatch):
    # a copied eigenpair has zero residual but drops an eigenvalue: only the
    # Gram matrix sees it
    def corrupt(vals, V):
        vals[0], V[:, 0] = vals[1], V[:, 1]
        return vals, V

    corrupted_eigh(monkeypatch, corrupt)
    with pytest.raises(ArithmeticError, match="orthonormal"):
        sp.symmetric_eigenvalues(sp.adjacency_matrix(cycle_graph(7)))


def test_known_spectra():
    vals = sp.spectrum(Graph.from_edges(3, [(0, 1), (1, 2)])).eigenvalues
    assert vals == pytest.approx((math.sqrt(2), 0.0, -math.sqrt(2)), abs=1e-12)

    r = sp.spectrum(complete_bipartite(4, 4))
    assert r.eigenvalues == pytest.approx((4.0,) + (0.0,) * 6 + (-4.0,), abs=1e-9)
    assert r.is_regular and r.d == 4 and r.lam == pytest.approx(4.0)

    rp = sp.spectrum(petersen())
    assert rp.eigenvalues == pytest.approx((3.0,) + (1.0,) * 5 + (-2.0,) * 4, abs=1e-9)

    rc = sp.spectrum(cycle_graph(7))
    want = sorted((2 * math.cos(2 * math.pi * k / 7) for k in range(7)), reverse=True)
    assert rc.eigenvalues == pytest.approx(tuple(want), abs=1e-9)


def test_irregular_report():
    G = Graph.from_edges(3, [(0, 1)])
    r = sp.spectrum(G)
    assert not r.is_regular
    assert r.d == pytest.approx(2 / 3)
    assert r.lambda1 == pytest.approx(1.0)
    assert r.lam == pytest.approx(1.0) and r.lam_min == pytest.approx(-1.0)


def test_disjoint_union_spectrum():
    rng = random.Random(3)
    for _ in range(5):
        G1 = random_graph(rng.randint(2, 15), 0.5, rng)
        G2 = random_graph(rng.randint(2, 15), 0.5, rng)
        union = Graph.from_edges(
            G1.n + G2.n,
            list(graph_reference.edges(G1)) + [(u + G1.n, v + G1.n) for u, v in graph_reference.edges(G2)],
        )
        merged = sorted(
            sp.spectrum(G1).eigenvalues + sp.spectrum(G2).eigenvalues, reverse=True
        )
        assert np.array(sp.spectrum(union).eigenvalues) == pytest.approx(
            np.array(merged), abs=1e-9
        )


def test_trace_checks():
    rng = random.Random(12)
    for _ in range(10):
        G = random_graph(rng.randint(2, 40), rng.uniform(0.2, 0.8), rng)
        tc = sp.trace_checks(G, sp.spectrum(G))
        assert tc["ok"], tc
        assert tc["triangleCount"] == gc.triangle_count(G)


def test_polarity_incidence_spectrum():
    # adjacency plus the absolute-point diagonal has spectrum {q+1, ±sqrt(q)}
    for q in (2, 3, 5):
        G = geo.polarity_graph(q)
        A = sp.adjacency_matrix(G)
        for i in gf_reference.absolute_points_by_objects(spec_for(q)):
            A[i, i] = 1.0
        vals = sp.symmetric_eigenvalues(A)
        assert vals[0] == pytest.approx(q + 1, abs=1e-9)
        root = math.sqrt(q)
        assert max(abs(abs(v) - root) for v in vals[1:]) < 1e-9


# --- walk bound ---------------------------------------------------------------


def test_tree_walk_counts():
    assert [sp.tree_walk_lower_bound(3, k) for k in (1, 2, 3, 4)] == [3, 6, 24, 120]
    assert sp.tree_walk_lower_bound(1, 1) == 1
    assert sp.tree_walk_lower_bound(1, 4) == 0
    assert sp.tree_walk_lower_bound(0, 2) == 0
    with pytest.raises(ValueError):
        sp.tree_walk_lower_bound(3, 0)


def test_tree_walks_bound_closed_walks():
    # tr(A^{2k}) counts closed walks, which dominate n * tree walks
    for G in (cycle_graph(9), petersen(), complete_bipartite(3, 3)):
        r = sp.spectrum(G)
        for k in range(1, 6):
            walks = sum(v ** (2 * k) for v in r.eigenvalues)
            assert walks >= G.n * sp.tree_walk_lower_bound(int(r.d), k) * (1 - 1e-9)


def test_alon_boppana():
    rp = sp.spectrum(petersen())
    assert all(sp.alon_boppana_check(rp, k) for k in range(1, 11))
    # perfect matching is tight at k=1
    rm = sp.spectrum(Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)]))
    assert sp.alon_boppana_check(rm, 1)
    for n in (8, 13):
        rc = sp.spectrum(cycle_graph(n))
        assert sp.alon_boppana_check(rc, 2)
    with pytest.raises(ValueError):
        sp.alon_boppana_check(sp.spectrum(Graph.from_edges(3, [(0, 1)])), 2)
    with pytest.raises(ValueError):
        sp.alon_boppana_check(rp, 0)


# --- ratio bound ---------------------------------------------------------------


def test_hoffman_tight_cases():
    assert sp.hoffman_bound(sp.spectrum(complete_bipartite(5, 5))) == pytest.approx(5.0)
    assert sp.hoffman_bound(sp.spectrum(petersen())) == pytest.approx(4.0)


def test_hoffman_dominates_alpha():
    rng = random.Random(5)
    seen = 0
    while seen < 12:
        n = rng.randint(4, 14)
        G = random_graph(n, 0.5, rng)
        if G.edge_count == 0 or len(set(G.degrees)) != 1:
            continue
        seen += 1
        bound = sp.hoffman_bound(sp.spectrum(G))
        assert bound + 1e-9 >= gc.independence_number(G).value
    # regular instances from the constructions
    for G in (geo.bip_graph(5, 2, "symmetrized"), cycle_graph(11)):
        bound = sp.hoffman_bound(sp.spectrum(G))
        assert bound + 1e-9 >= gc.independence_number(G).value


def test_hoffman_guards():
    with pytest.raises(ValueError):
        sp.hoffman_bound(sp.spectrum(Graph.from_edges(3, [(0, 1)])))
    with pytest.raises(ValueError):
        sp.hoffman_bound(sp.spectrum(Graph(3, [0, 0, 0])))  # edgeless: d = lam_min
