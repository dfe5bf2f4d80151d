"""Projective points, polarity graphs, the Hermitian unital, character graphs.

Each build is compared against gf_reference's element arithmetic, an oracle
independent of the numpy tables the builds gather through."""

from __future__ import annotations

import itertools
import random
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import gf_reference as ref
import graph_reference
from ramseyforge import geometry as geo
from ramseyforge import graphcore as gc
from ramseyforge.gf import op_tables, spec_for


# --- projective points -------------------------------------------------------


def test_pg_point_counts():
    assert len(geo._point_rows(1, spec_for(2))) == 3
    assert len(geo._point_rows(2, spec_for(3))) == 13
    assert len(geo._point_rows(2, spec_for(4))) == 21
    rows = geo._point_rows(3, spec_for(5))
    assert len(rows) == (5**4 - 1) // 4 == len(set(map(tuple, rows.tolist())))


def test_pg_point_order():
    F = spec_for(9)
    keys = [tuple(row) for row in geo._point_rows(1, F).tolist()]
    assert keys == sorted(keys)
    assert keys[0] == (0, F.one)  # point at infinity first
    assert len(keys) == 10


@pytest.mark.parametrize("dim, q", [(1, 2), (1, 9), (2, 3), (2, 4), (2, 8), (3, 5), (4, 3)])
def test_pg_points_are_the_normalized_nonzero_vectors(dim, q):
    # every nonzero vector of GF(q)^(dim+1), scaled by the inverse of its
    # first nonzero coordinate, then sorted as index rows
    F = spec_for(q)
    rows = {
        tuple(map(ref.index, ref.normalized(vec)))
        for vec in itertools.product(ref.elements(F), repeat=dim + 1)
        if any(vec)
    }
    assert [tuple(row) for row in geo._point_rows(dim, F).tolist()] == sorted(rows)


def test_pg_point_guards():
    with pytest.raises(ValueError):
        geo._point_rows(0, spec_for(3))
    with pytest.raises(ValueError):
        geo._point_rows(7, spec_for(8))  # (8^8-1)/7 > 1e6


def pg_points(dim, spec):
    """The points of PG(dim, q) in vertex order, as element tuples."""
    return ref.points(geo._point_rows(dim, spec), spec)


# --- polarity graphs ---------------------------------------------------------


def test_polarity_fano():
    G = geo.polarity_graph(2)
    assert G.n == 7
    assert Counter(G.degrees) == {3: 4, 2: 3}
    assert ref.absolute_points_by_objects(spec_for(2)) == (2, 4, 5)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27])
def test_polarity_absolute_points_match_object_arithmetic(q):
    # the reference lists the points in the documented vertex order itself
    spec = spec_for(q)
    assert ref.projective_points(spec, 2) == pg_points(2, spec)
    G = geo.polarity_graph(q)
    degree_q = tuple(v for v in range(G.n) if G.degrees[v] == q)
    assert degree_q == ref.absolute_points_by_objects(spec)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_polarity_parameters(q):
    G = geo.polarity_graph(q)
    graph_reference.assert_simple(G)
    absolute = ref.absolute_points_by_objects(spec_for(q))
    assert G.n == q * q + q + 1
    assert Counter(G.degrees) == {q: q + 1, q + 1: q * q}
    # absolute points are exactly the degree-q vertices
    assert set(absolute) == {v for v in range(G.n) if G.degrees[v] == q}
    if q <= 5:
        assert gc.is_pattern_free(G, gc.ForbiddenPattern.c4()) == (True, None)


def test_polarity_matches_direct_arithmetic():
    # re-derive q=3 adjacency with plain field arithmetic (no index tables)
    pts = pg_points(2, spec_for(3))
    edges = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dot = sum(a * b for a, b in zip(pts[i], pts[j]))
            if not dot:
                edges.append((i, j))
    assert geo.polarity_graph(3) == gc.Graph.from_edges(len(pts), edges)


def form_values(spec, L, R, weights):
    """Reference, one row of L at a time: the index of Q(x, y) for each x
    in L and y in R, summing weights[j] x_j y_j through the field's index
    tables (the row-by-row form evaluation the constructions once ran)."""
    add, mul, _, _, _ = op_tables(spec)
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
    return [
        packed(acc == 0) & ~(1 << v)
        for v, acc in zip(vertices, form_values(spec, P[vertices], P, (spec.one,) * 3))
    ]


POLARITY_ORDERS = [q for q in ref.ORDERS if q <= geo.MAX_POLARITY_ORDER]


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
    for v in ref.absolute_points_by_objects(spec_for(q)):
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


def dual(blocks, v):
    """Reference dual: for each of the v points, the indices of the blocks
    through it, ascending."""
    return tuple(tuple(b for b, block in enumerate(blocks) if p in block) for p in range(v))


@pytest.mark.parametrize(
    "q,v,b", [(2, 9, 12), (3, 28, 63), (4, 65, 208)]
)
def test_unital_design(q, v, b):
    H = geo.unital_line_hypergraph(q)
    assert len(H.edges) == v == q**3 + 1
    assert H.n == b == q * q * (q * q - q + 1)
    assert H.r == q * q
    assert H.regular_degree() == q + 1
    # a 2-design: any two points lie on exactly one common block
    assert all(len(set(x) & set(y)) == 1 for x, y in itertools.combinations(H.edges, 2))


def unital_points(q):
    """Reference: the points of PG(2, q^2) whose norms x^(q+1) sum to zero,
    taken straight from element powers."""
    return [pt for pt in pg_points(2, spec_for(q * q)) if not sum(c ** (q + 1) for c in pt)]


def test_unital_points_satisfy_form():
    # independent re-check: the curve has one hyperedge per point, and the
    # points of each block lie on the line through its first two points
    H = geo.unital_line_hypergraph(3)
    pts = unital_points(3)
    assert len(pts) == len(H.edges)
    for block in dual(H.edges, H.n):
        (x0, x1, x2), (y0, y1, y2) = pts[block[0]], pts[block[1]]
        line = (x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0)
        assert all(not sum(a * b for a, b in zip(line, pts[i])) for i in block)


@pytest.mark.parametrize("q,n,r,d", [(2, 12, 4, 3), (3, 63, 9, 4)])
def test_unital_line_hypergraph(q, n, r, d):
    H = geo.unital_line_hypergraph(q)
    assert H.n == n and H.r == r
    assert len(H.edges) == q**3 + 1
    assert len(set(H.degrees)) == 1 and H.regular_degree() == d


def unital_blocks_by_form(q):
    """Reference: one line of PG(2, q^2) at a time, its points on the curve."""
    spec = spec_for(q * q)
    P = geo._point_rows(2, spec)
    curve = P[[not sum(c ** (q + 1) for c in pt) for pt in pg_points(2, spec)]]
    blocks = []
    for acc in form_values(spec, P, curve, (spec.one,) * 3):
        hits = tuple(np.flatnonzero(acc == 0).tolist())
        assert len(hits) in (1, q + 1)
        if len(hits) > 1:
            blocks.append(hits)
    return tuple(blocks)


def test_unital_hypergraph_duality():
    # block b contains point p iff hyperedge p contains vertex b: the dual
    # of the dual is the unital, block by block
    H = geo.unital_line_hypergraph(2)
    assert dual(H.edges, H.n) == unital_blocks_by_form(2)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_unital_blocks_match_line_by_line_evaluation(q):
    blocks = unital_blocks_by_form(q)
    assert geo.unital_line_hypergraph(q).edges == dual(blocks, q**3 + 1)


def repeats_a_pair(sets) -> bool:
    """Reference pair count: whether some pair of points lies in two of the sets."""
    counts = Counter(p for s in sets for p in itertools.combinations(sorted(s), 2))
    return any(c > 1 for c in counts.values())


@pytest.mark.parametrize("q", [2, 3])
def test_primal_and_dual_linearity_agree(q, monkeypatch):
    # the builder refuses blocks in which a pair of points lies in two
    # blocks, and the dual of blocks it takes is linear: two points share at
    # most one block.  Swapping a point x of block i for a point y of block
    # j keeps every block size and point degree, so only the pair check can
    # refuse the swapped design.
    v, blocks = q**3 + 1, unital_blocks_by_form(q)
    rng = random.Random(q)
    seen = set()
    for trial in range(40):
        B = [list(block) for block in blocks]
        for _ in range(trial % 4):
            i, j = rng.sample(range(len(B)), 2)
            xs, ys = set(B[i]) - set(B[j]), set(B[j]) - set(B[i])
            if xs and ys:
                x, y = rng.choice(sorted(xs)), rng.choice(sorted(ys))
                B[i][B[i].index(x)], B[j][B[j].index(y)] = y, x
        monkeypatch.setattr(geo, "_unital_blocks", lambda q, B=B: np.array(B).ravel())
        linear = not repeats_a_pair(B)
        try:
            H = geo.unital_line_hypergraph(q)
        except AssertionError as exc:
            assert not linear and "not a 2-design" in str(exc)
        else:
            assert linear and not repeats_a_pair(H.edges)
            assert H.edges == dual(B, v)
        seen.add(linear)
    assert seen == {True, False}


def test_unital_rejects_a_line_meeting_the_curve_oddly(monkeypatch):
    # a line meeting the curve in neither 1 nor q + 1 points is an error
    polar_lines = geo._polar_lines

    def first_line_off_the_curve(spec, X):
        lines = polar_lines(spec, X)
        lines[0] = 0  # every point of the first line is (0,0,1), off the curve
        return lines

    monkeypatch.setattr(geo, "_polar_lines", first_line_off_the_curve)
    with pytest.raises(AssertionError, match="line meets curve in 0 points"):
        geo.unital_line_hypergraph(3)


def test_unital_rejects():
    with pytest.raises(ValueError):
        geo.unital_line_hypergraph(6)
    with pytest.raises(ValueError):
        geo.unital_line_hypergraph(16)


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
        assert G.induced(list(graph_reference.neighbors(G, v))).edge_count == 0
    G = geo.bip_graph(5, 3, "symmetrized")
    for v in range(G.n):
        N = G.induced(list(graph_reference.neighbors(G, v)))
        assert gc.is_pattern_free(N, gc.ForbiddenPattern.clique(3)) == (True, None)


def least_nonresidue(spec):
    """Reference: the first element with chi = -1, in element arithmetic."""
    return next(a for a in ref.elements(spec) if ref.quadratic_character(a) == -1)


def test_bip_matches_direct_arithmetic():
    # re-derive q=3, s=2 both variants with plain field arithmetic
    F = spec_for(3)
    xi = least_nonresidue(F)

    def Q(x, y):
        return xi * x[0] * y[0] + sum(a * b for a, b in zip(x[1:], y[1:]))

    verts = [p for p in pg_points(2, F) if ref.quadratic_character(Q(p, p)) == 1]
    assert len(verts) == geo.bip_graph(3, 2).n == 6
    for variant, rule in (
        ("canonical", lambda v: ref.quadratic_character(v) == 1),
        ("symmetrized", lambda v: not v),
    ):
        edges = [
            (i, j)
            for i in range(len(verts))
            for j in range(i + 1, len(verts))
            if rule(Q(verts[i], verts[j]))
        ]
        assert geo.bip_graph(3, 2, variant) == gc.Graph.from_edges(len(verts), edges)


@pytest.mark.parametrize("q,s", [(3, 2), (3, 4), (5, 3), (5, 4), (7, 2), (7, 3), (9, 3), (11, 3), (13, 2)])
def test_bip_rows_match_form_evaluation(q, s):
    spec = spec_for(q)
    _, V, weights = geo._square_type(q, s)
    chi = op_tables(spec).chi
    canonical, symmetrized = [], []
    for v, acc in enumerate(form_values(spec, V, V, weights)):
        canonical.append(packed(chi[acc] == 1) & ~(1 << v))
        symmetrized.append(packed(acc == 0) & ~(1 << v))
    assert list(geo.bip_graph(q, s, "canonical").rows) == canonical
    assert list(geo.bip_graph(q, s, "symmetrized").rows) == symmetrized


def test_bip_graph_memory():
    # both arcs of every edge, keyed in both orientations, peaked at 23.0
    # MiB; each edge once, from the columns at or past its row, at 11.5 MiB
    tracemalloc.start()
    try:
        G = geo.bip_graph(7, 4, "canonical")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.n == len(geo._square_type(7, 4)[1])
    assert peak < 17 * 2**20


@pytest.mark.parametrize("q,s", [(5, 2), (7, 2), (3, 3)])
@pytest.mark.parametrize("variant", ["canonical", "symmetrized"])
def test_bip_graph_rows_are_simple(q, s, variant):
    graph_reference.assert_simple(geo.bip_graph(q, s, variant))


def test_bip_vertex_points_agree():
    # the vertices are exactly the points x of PG(2, 5), in point order, with
    # chi(a x0^2 + x1^2 + x2^2) = 1 for the least non-residue a
    F = spec_for(5)
    xi = least_nonresidue(F)
    _, V, _ = geo._square_type(5, 2)
    pts = pg_points(2, F)
    square = [p for p in pts if ref.quadratic_character(xi * p[0] * p[0] + p[1] * p[1] + p[2] * p[2]) == 1]
    assert ref.points(V, F) == square and len(square) == geo.bip_graph(5, 2).n


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
    two = ref.element(points[0][0].spec, 2)

    def form(x, y):
        return sum(w * a * b for w, a, b in zip(weights, x, y))

    perms = []
    for v in points:
        if not form(v, v):
            continue
        images = []
        for x in points:
            scale = two * form(x, v) / form(v, v)
            images.append(index[ref.normalized([a - scale * b for a, b in zip(x, v)])])
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
    one = ref.element(spec, 1)
    if family == "er":
        G, kept = geo.polarity_graph(q), geo.polarity_reflections(q)
        points, weights = pg_points(2, spec), (one, one, one)
    else:
        G, kept = geo.bip_graph(q, s, "symmetrized"), geo.bip_reflections(q, s)
        points = ref.points(geo._square_type(q, s)[1], spec)
        weights = (least_nonresidue(spec),) + (one,) * s
    everything = reference_reflections(points, weights)
    assert set(kept) <= set(everything) and len(kept) < len(everything)
    gc.Automorphisms(G, everything)
    assert two_level_orbits(G.n, kept) == two_level_orbits(G.n, everything)


def test_reflections_need_odd_order():
    with pytest.raises(ValueError, match="odd"):
        geo.polarity_reflections(4)
    with pytest.raises(ValueError, match="odd"):
        geo.bip_reflections(8, 2)
