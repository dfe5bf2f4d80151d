"""Projective points, polarity graphs, the Hermitian unital, character graphs."""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter

import numpy as np
import pytest

from ramseyforge import geometry as geo
from ramseyforge import graphcore as gc
from ramseyforge.gf import (
    modulus_table,
    op_tables,
    quadratic_character,
    smallest_nonresidue,
    spec_for,
)


# --- projective points -------------------------------------------------------


def test_point_normalization():
    F = spec_for(5)
    a = geo.ProjectivePoint([F.element(2), F.element(4), F.element(1)])
    b = geo.ProjectivePoint([F.element(4), F.element(3), F.element(2)])  # 2x scaled
    assert a == b and hash(a) == hash(b)
    assert a.coords[0] == F.one()
    assert geo.ProjectivePoint(a.coords) == a  # idempotent
    with pytest.raises(ValueError):
        geo.ProjectivePoint([F.zero(), F.zero()])
    with pytest.raises(ValueError):
        geo.ProjectivePoint([F.one(), spec_for(3).one()])
    with pytest.raises(ValueError):
        geo.ProjectivePoint([])


def test_pg_point_counts():
    assert len(geo.enumerate_pg_points(1, spec_for(2))) == 3
    assert len(geo.enumerate_pg_points(2, spec_for(3))) == 13
    assert len(geo.enumerate_pg_points(2, spec_for(4))) == 21
    pts = geo.enumerate_pg_points(3, spec_for(5))
    assert len(pts) == (5**4 - 1) // 4 == len(set(pts))


def test_pg_point_order():
    F = spec_for(9)
    pts = geo.enumerate_pg_points(1, F)
    keys = [tuple(F.index(c) for c in p.coords) for p in pts]
    assert keys == sorted(keys)
    assert keys[0] == (0, F.index(F.one()))  # point at infinity first
    assert len(pts) == 10


@pytest.mark.parametrize("dim, q", [(1, 2), (1, 9), (2, 3), (2, 4), (2, 8), (3, 5), (4, 3)])
def test_pg_points_are_the_normalized_nonzero_vectors(dim, q):
    # every nonzero vector of GF(q)^(dim+1), scaled by the inverse of its
    # first nonzero coordinate, then sorted as index rows
    F = spec_for(q)
    rows = set()
    for vec in itertools.product(list(F.elements()), repeat=dim + 1):
        pivot = next((c for c in vec if c), None)
        if pivot is not None:
            rows.add(tuple(F.index(c / pivot) for c in vec))
    pts = geo.enumerate_pg_points(dim, F)
    assert [tuple(F.index(c) for c in p.coords) for p in pts] == sorted(rows)


def test_pg_point_guards():
    with pytest.raises(ValueError):
        geo.enumerate_pg_points(0, spec_for(3))
    with pytest.raises(ValueError):
        geo.enumerate_pg_points(7, spec_for(8))  # (8^8-1)/7 > 1e6


# --- polarity graphs ---------------------------------------------------------


def test_polarity_fano():
    G = geo.polarity_graph(2)
    assert G.n == 7
    assert Counter(G.degrees) == {3: 4, 2: 3}
    assert geo.polarity_absolute_points(2) == (2, 4, 5)


def absolute_points_by_objects(q):
    """Reference: test u.u = 0 point by point in FieldElement arithmetic."""
    spec = spec_for(q)
    out = []
    for i, pt in enumerate(geo.enumerate_pg_points(2, spec)):
        if not sum((c * c for c in pt.coords), spec.zero()):
            out.append(i)
    return tuple(out)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27])
def test_polarity_absolute_points_match_object_arithmetic(q):
    assert geo.polarity_absolute_points(q) == absolute_points_by_objects(q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_polarity_parameters(q):
    G = geo.polarity_graph(q)
    absolute = geo.polarity_absolute_points(q)
    assert G.n == q * q + q + 1
    assert Counter(G.degrees) == {q: q + 1, q + 1: q * q}
    # absolute points are exactly the degree-q vertices
    assert set(absolute) == {v for v in range(G.n) if G.degrees[v] == q}
    if q <= 5:
        assert gc.is_pattern_free(G, gc.ForbiddenPattern.c4()) == (True, None)


def test_polarity_matches_direct_arithmetic():
    # re-derive q=3 adjacency with plain field arithmetic (no index tables)
    F = spec_for(3)
    pts = geo.enumerate_pg_points(2, F)
    edges = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dot = sum((a * b for a, b in zip(pts[i], pts[j])), F.zero())
            if not dot:
                edges.append((i, j))
    assert geo.polarity_graph(3) == gc.Graph.from_edges(len(pts), edges)


def form_values(spec, L, R, weights):
    """Reference, one row of L at a time: the index of Q(x, y) for each x
    in L and y in R, summing weights[j] x_j y_j through the field's index
    tables (the row-by-row form evaluation the constructions once ran)."""
    t = op_tables(spec)
    add, mul = np.array(t.add), np.array(t.mul)
    for x in L:
        acc = np.zeros(len(R), dtype=np.int64)
        for j, w in enumerate(weights):
            acc = add[acc, mul[mul[w, x[j]], R[:, j]]]
        yield acc


def packed(bits) -> int:
    return sum(1 << int(j) for j in np.flatnonzero(bits))


def polarity_rows_by_form(q, vertices):
    """Reference rows of ER_q for `vertices`: the points y with x.y = 0,
    minus x itself."""
    spec = spec_for(q)
    P = geo._point_rows(2, spec)
    one = spec.index(spec.one())
    return [
        packed(acc == 0) & ~(1 << v)
        for v, acc in zip(vertices, form_values(spec, P[vertices], P, (one,) * 3))
    ]


POLARITY_ORDERS = [q for q in modulus_table() if q <= geo.MAX_POLARITY_ORDER]


@pytest.mark.parametrize("q", POLARITY_ORDERS)
def test_polarity_rows_match_form_evaluation(q):
    # the rows come from the polar lines, not from the form; every row is
    # compared up to q = 32, and 40 seeded rows above
    G = geo.polarity_graph(q)
    n = q * q + q + 1
    vertices = list(range(n)) if q <= 32 else sorted(random.Random(q).sample(range(n), 40))
    assert G.n == n
    assert [G.rows[v] for v in vertices] == polarity_rows_by_form(q, vertices)


@pytest.mark.parametrize("q", [q for q in POLARITY_ORDERS if q <= 27])
def test_polarity_adjacency_square_identity(q):
    # with the loops of the absolute points put back, A'^2 = J + qI: each
    # row has q + 1 bits and any two rows share exactly one
    G = geo.polarity_graph(q)
    rows = list(G.rows)
    for v in geo.polarity_absolute_points(q):
        rows[v] |= 1 << v
    assert all(row.bit_count() == q + 1 for row in rows)
    assert all((a & b).bit_count() == 1 for a, b in itertools.combinations(rows, 2))


def test_polarity_large_order():
    G = geo.polarity_graph(27)
    assert G.n == 27 * 27 + 27 + 1
    assert Counter(G.degrees) == {27: 28, 28: 729}


def test_polarity_graph_81_time():
    # Graph()'s per-edge check was most of this build: 0.88-1.05 s on a
    # 2-core host, and 0.2 s with its keys compared as arrays
    start = time.perf_counter()
    G = geo.polarity_graph(81)
    assert time.perf_counter() - start < 0.5
    assert G.n == 81 * 81 + 81 + 1 and G.edge_count == 81 * 82 * 82 // 2


def test_polarity_rejects():
    with pytest.raises(ValueError):
        geo.polarity_graph(6)
    with pytest.raises(ValueError):
        geo.polarity_graph(121)


# --- Hermitian unital --------------------------------------------------------


@pytest.mark.parametrize(
    "q,v,b", [(2, 9, 12), (3, 28, 63), (4, 65, 208)]
)
def test_unital_design(q, v, b):
    D = geo.hermitian_unital(q)
    assert D.v == v == q**3 + 1
    assert len(D.blocks) == b == q * q * (q * q - q + 1)
    assert D.block_size == q + 1
    assert D.point_degree == q * q
    assert D.is_steiner()


def test_unital_points_satisfy_form():
    # independent re-check: norms really sum to zero, via x^(q+1) directly
    D = geo.hermitian_unital(3)
    F = spec_for(9)
    for pt in D.points:
        s = sum((c**4 for c in pt.coords), F.zero())
        assert not s


@pytest.mark.parametrize("q,n,r,d", [(2, 12, 4, 3), (3, 63, 9, 4)])
def test_unital_line_hypergraph(q, n, r, d):
    H = geo.unital_line_hypergraph(q)
    assert H.n == n and H.r == r
    assert len(H.edges) == q**3 + 1
    assert H.is_regular() and H.regular_degree() == d


def test_unital_hypergraph_duality():
    D = geo.hermitian_unital(2)
    H = geo.unital_line_hypergraph(2)
    # hyperedge p contains block b iff block b contains point p
    for p, e in enumerate(H.edges):
        for b in e:
            assert p in D.blocks[b]


def unital_blocks_by_form(q):
    """Reference: one line of PG(2, q^2) at a time, its points on the curve."""
    spec = spec_for(q * q)
    P = geo._point_rows(2, spec)
    curve = P[[not sum((c ** (q + 1) for c in pt), spec.zero()) for pt in geo.enumerate_pg_points(2, spec)]]
    one = spec.index(spec.one())
    blocks = []
    for acc in form_values(spec, P, curve, (one,) * 3):
        hits = tuple(np.flatnonzero(acc == 0).tolist())
        assert len(hits) in (1, q + 1)
        if len(hits) > 1:
            blocks.append(hits)
    return tuple(blocks)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_unital_blocks_match_line_by_line_evaluation(q):
    assert geo.hermitian_unital(q).blocks == unital_blocks_by_form(q)


def test_unital_rejects_a_line_meeting_the_curve_oddly(monkeypatch):
    # a line meeting the curve in neither 1 nor q + 1 points is an error
    polar_lines = geo._polar_lines

    def first_line_off_the_curve(spec, X):
        lines = polar_lines(spec, X)
        lines[0] = 0  # every point of the first line is (0,0,1), off the curve
        return lines

    monkeypatch.setattr(geo, "_polar_lines", first_line_off_the_curve)
    with pytest.raises(AssertionError, match="line meets curve in 0 points"):
        geo.hermitian_unital(3)


def test_unital_rejects():
    with pytest.raises(ValueError):
        geo.hermitian_unital(6)
    with pytest.raises(ValueError):
        geo.hermitian_unital(16)


def test_block_design_validation():
    F = spec_for(3)
    pts = geo.enumerate_pg_points(1, F)
    with pytest.raises(ValueError):
        geo.BlockDesign(pts, [(0, 1, 2), (0, 1, 3)])  # pair in two blocks
    with pytest.raises(ValueError):
        geo.BlockDesign(pts, [(0, 0, 1)])
    with pytest.raises(ValueError):
        geo.BlockDesign(pts, [(0, 1, 9)])
    with pytest.raises(ValueError):
        geo.BlockDesign(pts, [(0, 1), (2, 3), (0, 2)])  # mixed point degrees
    with pytest.raises(ValueError):
        geo.BlockDesign(pts, [(0, 1), (0, 2, 3)])  # mixed block sizes
    with pytest.raises(ValueError):
        geo.BlockDesign(pts, [])  # no blocks
    with pytest.raises(ValueError):
        geo.BlockDesign(pts, [()])  # empty block
    D = geo.BlockDesign(pts, [(0, 1), (2, 3)])
    assert D.block_size == 2 and D.point_degree == 1 and not D.is_steiner()
    assert isinstance(D, gc.LinearHypergraph) and D.edges == D.blocks == ((0, 1), (2, 3))


# --- character graphs --------------------------------------------------------


S1_VERTICES = {3: 1, 5: 3, 7: 3, 9: 5, 11: 5, 13: 7}
S1_CANONICAL_EDGES = {3: 0, 5: 0, 7: 2, 9: 6, 11: 3, 13: 8}


@pytest.mark.parametrize("q", sorted(S1_VERTICES))
def test_bip_s1(q):
    sym = geo.bip_graph(q, 1, "symmetrized")
    canon = geo.bip_graph(q, 1)
    assert sym.n == canon.n == S1_VERTICES[q]
    assert sym.edge_count == 0
    # the literal rule on canonical representatives is NOT edgeless for q >= 7
    assert canon.edge_count == S1_CANONICAL_EDGES[q]


SYM_COUNTS = {
    (5, 2): (10, 15),
    (7, 2): (28, 42),
    (9, 2): (36, 90),
    (11, 2): (66, 165),
    (13, 2): (78, 273),
    (3, 3): (15, 45),
    (5, 3): (65, 325),
}


@pytest.mark.parametrize("q,s", sorted(SYM_COUNTS))
def test_bip_symmetrized_counts(q, s):
    G = geo.bip_graph(q, s, "symmetrized")
    assert (G.n, G.edge_count) == SYM_COUNTS[(q, s)]
    assert len(set(G.degrees)) == 1  # vertex-transitive form => regular


def test_bip_freeness_small():
    for q in (5, 7):
        G = geo.bip_graph(q, 2, "symmetrized")
        assert gc.is_pattern_free(G, gc.ForbiddenPattern.clique(3)) == (True, None)
    for q in (3, 5):
        G = geo.bip_graph(q, 3, "symmetrized")
        assert gc.is_pattern_free(G, gc.ForbiddenPattern.clique(4)) == (True, None)
    # canonical variant keeps freeness only for small q
    assert gc.is_pattern_free(geo.bip_graph(5, 2), gc.ForbiddenPattern.clique(3))[0]
    assert not gc.is_pattern_free(geo.bip_graph(7, 2), gc.ForbiddenPattern.clique(3))[0]


def test_bip_neighborhoods():
    # neighborhood of any vertex induces the construction one rank down:
    # for s=2 an edgeless graph, for s=3 a triangle-free graph
    G = geo.bip_graph(7, 2, "symmetrized")
    for v in range(G.n):
        assert G.induced(list(G.neighbors(v))).edge_count == 0
    G = geo.bip_graph(5, 3, "symmetrized")
    for v in range(G.n):
        N = G.induced(list(G.neighbors(v)))
        assert gc.is_pattern_free(N, gc.ForbiddenPattern.clique(3)) == (True, None)


def test_bip_matches_direct_arithmetic():
    # re-derive q=3, s=2 both variants with plain field arithmetic
    F = spec_for(3)
    xi = smallest_nonresidue(F)
    pts = geo.enumerate_pg_points(2, F)

    def Q(x, y):
        acc = xi * x[0] * y[0]
        for a, b in zip(x.coords[1:], y.coords[1:]):
            acc = acc + a * b
        return acc

    verts = [p for p in pts if quadratic_character(Q(p, p)) == 1]
    assert len(verts) == geo.bip_graph(3, 2).n == 6
    for variant, rule in (
        ("canonical", lambda v: quadratic_character(v) == 1),
        ("symmetrized", lambda v: not v),
    ):
        edges = [
            (i, j)
            for i in range(len(verts))
            for j in range(i + 1, len(verts))
            if rule(Q(verts[i], verts[j]))
        ]
        assert geo.bip_graph(3, 2, variant) == gc.Graph.from_edges(len(verts), edges)


@pytest.mark.parametrize("q,s", [(3, 2), (3, 4), (5, 3), (7, 2), (7, 3), (9, 3), (13, 2)])
def test_bip_rows_match_form_evaluation(q, s):
    spec = spec_for(q)
    _, V, weights = geo._square_type(q, s)
    chi = np.array(op_tables(spec).chi)
    canonical, symmetrized = [], []
    for v, acc in enumerate(form_values(spec, V, V, weights)):
        canonical.append(packed(chi[acc] == 1) & ~(1 << v))
        symmetrized.append(packed(acc == 0) & ~(1 << v))
    assert list(geo.bip_graph(q, s, "canonical").rows) == canonical
    assert list(geo.bip_graph(q, s, "symmetrized").rows) == symmetrized


def test_bip_vertex_points_agree():
    pts = geo.bip_vertex_points(5, 2)
    G = geo.bip_graph(5, 2)
    assert len(pts) == G.n
    F = spec_for(5)
    xi = smallest_nonresidue(F)
    for p in pts:
        val = xi * p[0] * p[0] + p[1] * p[1] + p[2] * p[2]
        assert quadratic_character(val) == 1


def test_bip_rejects():
    with pytest.raises(ValueError):
        geo.bip_graph(4, 2)  # even order
    with pytest.raises(ValueError):
        geo.bip_graph(15, 2)
    with pytest.raises(ValueError):
        geo.bip_graph(17, 2)
    with pytest.raises(ValueError):
        geo.bip_graph(5, 0)
    with pytest.raises(ValueError):
        geo.bip_graph(5, 5)
    with pytest.raises(ValueError):
        geo.bip_graph(5, 2, variant="averaged")


# --- reflections -----------------------------------------------------------------


def reference_reflections(points, weights) -> list[tuple[int, ...]]:
    """Every reflection x -> x - 2 B(x, v) / B(v, v) v in an anisotropic
    point v, replayed in field-element arithmetic on the point objects."""
    index = {p: i for i, p in enumerate(points)}
    zero = points[0].spec.zero()
    two = points[0].spec.one() + points[0].spec.one()

    def form(x, y):
        return sum((w * a * b for w, a, b in zip(weights, x, y)), zero)

    perms = []
    for v in points:
        if not form(v, v):
            continue
        images = []
        for x in points:
            scale = two * form(x, v) / form(v, v)
            images.append(index[geo.ProjectivePoint([a - scale * b for a, b in zip(x, v)])])
        perms.append(tuple(images))
    return perms


def two_level_orbits(n: int, perms) -> list:
    """The orbits of the group, and for the least vertex of each orbit, the
    orbits of the generators that fix it."""
    full = (1 << n) - 1
    top = gc._orbits(n, perms, full)
    return [top] + [gc._orbits(n, [p for p in perms if p[r] == r], full) for r, _ in top]


REFLECTION_CASES = [("er", q, None) for q in (3, 5, 7)] + [
    ("bip", q, s) for q, s in ((5, 2), (7, 2), (9, 2), (3, 3))
]


@pytest.mark.parametrize("family,q,s", REFLECTION_CASES)
def test_kept_reflections_have_the_orbits_of_all(family, q, s):
    # the few reflections kept are automorphisms, and at both levels of
    # orbital branching their orbits are those of every reflection
    spec = spec_for(q)
    one = spec.one()
    if family == "er":
        G, kept = geo.polarity_graph(q), geo.polarity_reflections(q)
        points, weights = geo.enumerate_pg_points(2, spec), (one, one, one)
    else:
        G, kept = geo.bip_graph(q, s, "symmetrized"), geo.bip_reflections(q, s)
        points, weights = geo.bip_vertex_points(q, s), (smallest_nonresidue(spec),) + (one,) * s
    everything = reference_reflections(points, weights)
    assert set(kept) <= set(everything) and len(kept) < len(everything)
    gc.Automorphisms(G, everything)
    assert two_level_orbits(G.n, kept) == two_level_orbits(G.n, everything)


def test_reflections_need_odd_order():
    with pytest.raises(ValueError, match="odd"):
        geo.polarity_reflections(4)
    with pytest.raises(ValueError, match="odd"):
        geo.bip_reflections(8, 2)
