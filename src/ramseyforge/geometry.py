"""Finite-geometry constructions.

The orthogonal polarity graph on PG(2,q), the line hypergraph (the dual) of
the Hermitian unital, and the quadratic-character graphs on the square-type
points of PG(s,q).  Points are rows of element indices (see gf), and every
form and polar line is evaluated by gathering through the field's operation
tables.
"""

from __future__ import annotations

import itertools

import numpy as np

from .gf import FieldSpec, op_tables, smallest_nonresidue, spec_for
from .graphcore import Graph, LinearHypergraph, _merge_orbits, _pair_rows

MAX_POINTS = 1_000_000
MAX_POLARITY_ORDER = 81
MAX_UNITAL_ORDER = 8
MAX_CHARACTER_ORDER = 13
MAX_CHARACTER_DIM = 4

BIP_VARIANTS = ("canonical", "symmetrized")


def _point_rows(dim: int, spec: FieldSpec) -> np.ndarray:
    """Element-index rows of the points of PG(dim, q), each normalized so
    that its first nonzero entry is one.  Canonical order: the leading one
    moves from the last position to the first, and for each position the
    entries after it run lexicographically in index order."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    q = spec.q
    count = (q ** (dim + 1) - 1) // (q - 1)
    if count > MAX_POINTS:
        raise ValueError(f"PG({dim},{q}) has {count} points, over the cap {MAX_POINTS}")
    blocks = []
    for lead in range(dim, -1, -1):
        tails = np.array(list(itertools.product(range(q), repeat=dim - lead)), dtype=np.int32)
        block = np.zeros((len(tails), dim + 1), dtype=np.int32)
        block[:, lead] = spec.one
        block[:, lead + 1 :] = tails
        blocks.append(block)
    return np.concatenate(blocks)


# -- table-driven bilinear forms ------------------------------------------


def _powers(mul: np.ndarray, e: int, one: int) -> np.ndarray:
    """Index of x^e for every element x, by square-and-multiply gathers."""
    result = np.full(len(mul), one, dtype=mul.dtype)
    base = np.arange(len(mul), dtype=mul.dtype)
    while e:
        if e & 1:
            result = mul[result, base]
        base = mul[base, base]
        e >>= 1
    return result


def _form_diagonal(P, weights, add, mul) -> np.ndarray:
    """Index of Q(x, x) for every row x of P, Q the weighted dot product."""
    W = np.asarray(weights, dtype=np.int32)
    T = mul[mul[W[None, :], P], P]
    acc = T[:, 0]
    for j in range(1, P.shape[1]):
        acc = add[acc, T[:, j]]
    return acc


def _form_matrix(L, R, weights, add, mul) -> np.ndarray:
    """acc[i, j] is the index of Q(L[i], R[j]), for a few rows L."""
    S = mul[np.asarray(weights, dtype=np.int32)[None, :], L]
    acc = mul[S[:, None, 0], R[None, :, 0]]
    for j in range(1, L.shape[1]):
        acc = add[acc, mul[S[:, None, j], R[None, :, j]]]
    return acc


def _keys(rows: np.ndarray, q: int) -> np.ndarray:
    """One integer per row of element indices (the last axis), distinct for
    distinct rows."""
    key = np.zeros(rows.shape[:-1], dtype=np.int64)
    for j in range(rows.shape[-1]):
        key = key * q + rows[..., j]
    return key


# -- reflections ------------------------------------------------------------
#
# For odd q and v with Q(v) = Q(v, v) != 0, the reflection
# r_v(x) = x - 2 Q(x, v) / Q(v) * v preserves the form, so it maps each point
# to one with the same square class of Q(x, x) and keeps Q(x, y) = 0: it is
# an automorphism of the polarity graph (the dot product) and of the
# symmetrized character graph.  The reflections generate O(Q)
# (Cartan-Dieudonne), and by Witt's theorem O(Q) is transitive on the points
# of each square class (Q(x, x) zero, a square, or a non-square).


def _reflection_generators(spec: FieldSpec, V: np.ndarray, weights) -> list[tuple[int, ...]]:
    """Reflections in vertices, as permutations of the rows of V, a union of
    square classes of the form with these weights.  Few are kept, with the
    orbits of all of them: first those that merge orbits, in vertex order,
    until there is one orbit per square class; then, for the least vertex r
    of each class, those of the reflections fixing r (in r itself or in a
    v with Q(v, r) = 0) that merge orbits of the kept ones fixing r.  These
    are the two levels of orbits that graphcore's orbital branching uses."""
    if spec.q % 2 == 0:
        raise ValueError("reflections need an odd field order")
    add, mul, neg, chi, inv = op_tables(spec)
    n, q, one = len(V), spec.q, spec.one
    minus_two = neg[add[one, one]]
    vertex_of = np.full(q ** V.shape[1], -1, dtype=np.int64)
    vertex_of[_keys(V, q)] = np.arange(n)
    norm = _form_diagonal(V, weights, add, mul)
    square_class = chi[norm]
    classes = sorted(set(square_class.tolist()))
    chunk = max(1, 2**14 // n)  # mirrors whose images are computed at once

    def reflections(mirrors: np.ndarray) -> np.ndarray:
        """One row per mirror v: the vertex permutation of r_v."""
        form = _form_matrix(V[mirrors], V, weights, add, mul)
        scale = mul[mul[form, inv[norm[mirrors]][:, None]], minus_two]
        image = add[V, mul[scale[:, :, None], V[mirrors][:, None, :]]]
        lead = np.take_along_axis(image, (image != 0).argmax(axis=2)[:, :, None], axis=2)
        return vertex_of[_keys(mul[inv[lead], image], q)]

    kept: list[tuple[int, ...]] = []

    def keep_joining(parent: list[int], mirrors: np.ndarray, orbits: int | None = None) -> None:
        """Keep each reflection in `mirrors` that merges classes of the
        union-find forest `parent`; given the count of its classes, stop at
        one per square class."""
        for start in range(0, len(mirrors), chunk):
            for perm in reflections(mirrors[start : start + chunk]).tolist():
                if orbits == len(classes):
                    return
                merged = _merge_orbits(parent, perm)
                if merged:
                    kept.append(tuple(perm))
                    if orbits is not None:
                        orbits -= merged

    anisotropic = norm != 0
    keep_joining(list(range(n)), np.flatnonzero(anisotropic), n)
    for c in classes:
        r = int(np.flatnonzero(square_class == c)[0])
        parent = list(range(n))
        for perm in kept:
            if perm[r] == r:
                _merge_orbits(parent, perm)
        fixing = (_form_matrix(V[r : r + 1], V, weights, add, mul)[0] == 0) | (np.arange(n) == r)
        keep_joining(parent, np.flatnonzero(fixing & anisotropic))
    return kept


# -- polarity graph ---------------------------------------------------------


def _polarity_setup(q) -> tuple[FieldSpec, np.ndarray, tuple[int, int, int]]:
    """GF(q), the point rows of PG(2, q), and the weights of the dot product."""
    spec = spec_for(q)
    if spec.q > MAX_POLARITY_ORDER:
        raise ValueError(f"polarity graph supported for q <= {MAX_POLARITY_ORDER}")
    return spec, _point_rows(2, spec), (spec.one,) * 3


def _polar_lines(spec: FieldSpec, X: np.ndarray) -> np.ndarray:
    """Row i lists the vertex indices of the q+1 points y of PG(2, q) with
    X[i].y = 0, solved for with one coordinate free, and indexed by the order
    of _point_rows: (0,0,1) is 0, (0,1,b) is 1 + b and (1,a,b) is 1 + q + aq + b."""
    add, mul, neg, _, inv = op_tables(spec)
    q = spec.q
    free = np.arange(q, dtype=np.int32)[None, :]  # the free coordinate of the line's points
    x0, x1, x2 = (c[:, None] for c in X.T)
    # x2 != 0: (1, a, -(x0 + x1 a)/x2) for each a, and (0, 1, -x1/x2)
    solved = mul[neg[add[x0, mul[x1, free]]], inv[x2]]
    line = np.where(
        x2 != 0,
        1 + q + free * q + solved,
        # x2 = 0 != x1: (1, -x0/x1, b) for each b; x = (1, 0, 0): (0, 1, b)
        np.where(x1 != 0, 1 + q + mul[neg[x0], inv[x1]] * q + free, 1 + free),
    )
    # and (0, 1, -x1/x2), or (0, 0, 1) when x2 = 0
    return np.hstack([line, np.where(x2 != 0, 1 + mul[neg[x1], inv[x2]], 0)])


def polarity_graph(q) -> Graph:
    """Orthogonal polarity graph on the points of PG(2, q): u ~ v iff v is on
    the polar line u.v = 0.  Self-orthogonal (absolute) points keep their
    vertex but lose the loop, so q+1 vertices have degree q and the rest q+1."""
    spec, P, _ = _polarity_setup(q)
    lines = _polar_lines(spec, P)
    u = np.repeat(np.arange(len(P), dtype=np.int32), lines.shape[1])
    v = lines.ravel()
    # v is on u's polar line exactly when u is on v's: each edge once, as u < v
    return Graph(len(P), _pair_rows(len(P), [np.stack((u, v), axis=1)[u < v]]))


def polarity_reflections(q) -> list[tuple[int, ...]]:
    """Automorphisms of polarity_graph(q), odd q, as vertex permutations:
    reflections in the dot product with the orbits of all of them (see
    _reflection_generators)."""
    spec, P, dot = _polarity_setup(q)
    return _reflection_generators(spec, P, dot)


# -- Hermitian unital -------------------------------------------------------


def _unital_blocks(q) -> np.ndarray:
    """The Hermitian unital of order q as one flat array of curve indices:
    the curve norm(x0) + norm(x1) + norm(x2) = 0 in PG(2, q^2) has q^3+1
    points, numbered in point order, and block i, the points of the i-th
    secant line, is entries i(q+1) .. i(q+1)+q."""
    spec0 = spec_for(q)
    if spec0.q > MAX_UNITAL_ORDER:
        raise ValueError(f"hermitian unital supported for q <= {MAX_UNITAL_ORDER}")
    spec = spec_for(q * q)
    P = _point_rows(2, spec)
    add, mul, _, _, _ = op_tables(spec)
    N = _powers(mul, q + 1, spec.one)[P]  # the norm x^(q+1) of each coordinate
    on_curve = add[add[N[:, 0], N[:, 1]], N[:, 2]] == 0
    curve = np.nonzero(on_curve)[0]
    if len(curve) != q**3 + 1:
        raise AssertionError(f"curve has {len(curve)} points, expected {q**3 + 1}")
    # every line of PG(2,q^2), the polar line of a point, meets the curve in
    # exactly 1 (tangent) or q+1 (secant) points
    lines = _polar_lines(spec, P)
    hits = on_curve[lines]
    counts = hits.sum(axis=1)
    odd = (counts != 1) & (counts != q + 1)
    if odd.any():
        raise AssertionError(f"line meets curve in {counts[odd][0]} points")
    secants = counts == q + 1
    curve_index = np.cumsum(on_curve) - 1
    return curve_index[lines[secants][hits[secants]]]


def unital_line_hypergraph(q) -> LinearHypergraph:
    """Dual of the Hermitian unital: one vertex per block, one hyperedge per
    unital point collecting the q^2 blocks through it, in ascending order.
    The blocks are checked to form a 2-(q^3+1, q+1, 1) design, so two
    points share exactly one block, and two blocks share at most one point:
    the dual is linear, which LinearHypergraph takes on trust."""
    blocks = _unital_blocks(q)  # the PG(2, q^2) arrays are freed here
    v, b = q**3 + 1, len(blocks) // (q + 1)
    # a 2-(q^3+1, q+1, 1) design: q^2 blocks through every point, the
    # b C(q+1, 2) pairs inside the blocks all distinct (no pair in two
    # blocks), and b C(q+1, 2) = C(v, 2), so they are every pair of points
    a, c = np.triu_indices(q + 1, 1)
    rows = np.sort(blocks.reshape(b, q + 1), axis=1)
    seen = np.zeros(v * v, bool)
    seen[rows[:, a] * v + rows[:, c]] = True
    if (
        (np.bincount(blocks, minlength=v) != q * q).any()
        or b != q * q * (q * q - q + 1)
        or b * (q + 1) * q != v * (v - 1)
        or np.count_nonzero(seen) != b * len(a)
    ):
        raise AssertionError("unital block structure is not a 2-design")
    through = np.argsort(blocks, kind="stable").reshape(v, q * q) // (q + 1)
    return LinearHypergraph(b, tuple(map(tuple, through.tolist())))


# -- quadratic-character graphs ---------------------------------------------


def _square_type(q, s: int) -> tuple[FieldSpec, np.ndarray, tuple[int, ...]]:
    """GF(q), the rows of the square-type points x of PG(s, q), those with
    chi(Q(x, x)) = 1, and the weights of Q(x, y) = a*x0*y0 + x1*y1 + ... +
    xs*ys with a the least non-residue."""
    spec = spec_for(q)
    if spec.q % 2 == 0:
        raise ValueError("the character graph needs an odd field order")
    if spec.q > MAX_CHARACTER_ORDER:
        raise ValueError(f"character graph supported for q <= {MAX_CHARACTER_ORDER}")
    if not 1 <= s <= MAX_CHARACTER_DIM:
        raise ValueError(f"s must be in 1..{MAX_CHARACTER_DIM}")
    weights = (smallest_nonresidue(spec),) + (spec.one,) * s
    P = _point_rows(s, spec)
    add, mul, _, chi, _ = op_tables(spec)
    return spec, P[chi[_form_diagonal(P, weights, add, mul)] == 1], weights


def bip_graph(q, s: int, variant: str = "canonical") -> Graph:
    """Quadratic-character graph on the square-type points of PG(s, q).

    The canonical variant joins x ~ y when chi(Q(x, y)) = 1, evaluated on
    the normalized representatives; the rule is sensitive to representative
    rescaling (chi(Q(ux, vy)) = chi(uv) chi(Q(x, y))), so its subgraph
    structure can vary with q — even the s = 1 edgeless claim fails
    canonically for some q (q = 7 has two edges).  The symmetrized variant
    joins x ~ y when Q(x, y) = 0, which is representative-independent and
    edgeless at s = 1: the polar point y = (x1, -a*x0) of a square-type
    point x has Q(y, y) = a * Q(x, x), never square-type.
    """
    if variant not in BIP_VARIANTS:
        raise ValueError(f"variant must be one of {BIP_VARIANTS}")
    spec, V, weights = _square_type(q, s)
    add, mul, _, chi, _ = op_tables(spec)
    n = len(V)
    edges = []
    step = max(1, 2**16 // n)  # rows per block: about 2**16 form values
    for start in range(0, n, step):
        # Q(x, y) = Q(y, x), so a block of rows is evaluated only against the
        # columns from its first row on, and each edge is kept once, as u < v
        acc = _form_matrix(V[start : start + step], V[start:], weights, add, mul)
        u, v = np.nonzero(chi[acc] == 1 if variant == "canonical" else acc == 0)
        u += start
        v += start
        edges.append(np.stack((u, v), axis=1)[u < v].astype(np.int32))
    return Graph(n, _pair_rows(n, edges))


def bip_reflections(q, s: int) -> list[tuple[int, ...]]:
    """Automorphisms of bip_graph(q, s, "symmetrized") as vertex
    permutations: reflections in the form Q with the orbits of all of them
    (see _reflection_generators).  The canonical variant's rule
    chi(Q(x, y)) = 1 depends on the representatives, which a reflection
    rescales, so it gets none."""
    spec, V, weights = _square_type(q, s)
    return _reflection_generators(spec, V, weights)
