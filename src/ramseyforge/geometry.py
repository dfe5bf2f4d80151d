"""Finite-geometry constructions.

Projective points over GF(q), the orthogonal polarity graph on PG(2,q), the
Hermitian unital with its dual line hypergraph, and the quadratic-character
graphs on the square-type points of PG(s,q).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from .gf import (
    FieldElement,
    FieldSpec,
    conjugate_norm,
    op_tables,
    smallest_nonresidue,
    spec_for,
)
from .graphcore import Graph, LinearHypergraph

MAX_POINTS = 1_000_000
MAX_POLARITY_ORDER = 81
MAX_UNITAL_ORDER = 8
MAX_CHARACTER_ORDER = 13
MAX_CHARACTER_DIM = 4

BIP_VARIANTS = ("canonical", "symmetrized")


class ProjectivePoint:
    """A point of PG(dim, q): a nonzero coordinate vector, normalized so
    that the first nonzero entry is one."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[FieldElement]):
        coords = tuple(coords)
        if not coords:
            raise ValueError("empty coordinate vector")
        spec = coords[0].spec
        if any(c.spec != spec for c in coords[1:]):
            raise ValueError("coordinates from different fields")
        pivot = next((c for c in coords if c), None)
        if pivot is None:
            raise ValueError("the zero vector is not a projective point")
        if pivot != spec.one():
            inv = pivot.inverse()
            coords = tuple(c * inv for c in coords)
        self.coords = coords

    @property
    def spec(self) -> FieldSpec:
        return self.coords[0].spec

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i) -> FieldElement:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjectivePoint) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        inner = ":".join(repr(c) for c in self.coords)
        return f"({inner})"


def enumerate_pg_points(dim: int, spec: FieldSpec) -> list[ProjectivePoint]:
    """All points of PG(dim, q), in canonical lexicographic order on the
    normalized coordinate tuples (field elements in canonical order)."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    q = spec.q
    count = (q ** (dim + 1) - 1) // (q - 1)
    if count > MAX_POINTS:
        raise ValueError(f"PG({dim},{q}) has {count} points, over the cap {MAX_POINTS}")
    elems = list(spec.elements())
    zero, one = spec.zero(), spec.one()
    points = []
    # ascending lex order = descending position of the leading one
    for lead in range(dim, -1, -1):
        head = (zero,) * lead + (one,)
        for tail in itertools.product(elems, repeat=dim - lead):
            points.append(ProjectivePoint(head + tail))
    assert len(points) == count
    return points


# -- table-driven bilinear forms ------------------------------------------
#
# All adjacency loops below run on element *indices* in the canonical order
# (index 0 is the zero element) so numpy can gather through the add/mul
# tables instead of doing polynomial arithmetic point by point.


def _np_tables(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    t = op_tables(spec)
    return np.array(t.add, dtype=np.int32), np.array(t.mul, dtype=np.int32)


def _index_matrix(points: Sequence[ProjectivePoint], spec: FieldSpec) -> np.ndarray:
    idx = spec.index
    return np.array([[idx(c) for c in pt.coords] for pt in points], dtype=np.int32)


def _form_diagonal(P, weights, add, mul) -> np.ndarray:
    """Index of Q(x, x) for every row x of P, Q the weighted dot product."""
    W = np.asarray(weights, dtype=np.int32)
    T = mul[mul[W[None, :], P], P]
    acc = T[:, 0]
    for j in range(1, P.shape[1]):
        acc = add[acc, T[:, j]]
    return acc


def _form_rows(L, R, weights, add, mul):
    """Yield (i, acc) where acc[j] is the index of Q(L[i], R[j])."""
    W = np.asarray(weights, dtype=np.int32)
    S = mul[W[None, :], L]
    m = L.shape[1]
    for i in range(L.shape[0]):
        acc = mul[S[i, 0], R[:, 0]]
        for j in range(1, m):
            acc = add[acc, mul[S[i, j], R[:, j]]]
        yield i, acc


def _pack_row(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


# -- polarity graph ---------------------------------------------------------


def polarity_graph(q) -> Graph:
    """Orthogonal polarity graph on the points of PG(2, q): u ~ v iff
    u.v = 0.  Self-orthogonal (absolute) points keep their vertex but lose
    the loop, so q+1 vertices have degree q and the rest degree q+1."""
    spec = spec_for(q)
    if spec.q > MAX_POLARITY_ORDER:
        raise ValueError(f"polarity graph supported for q <= {MAX_POLARITY_ORDER}")
    points = enumerate_pg_points(2, spec)
    P = _index_matrix(points, spec)
    add, mul = _np_tables(spec)
    one = spec.index(spec.one())
    rows = []
    for i, acc in _form_rows(P, P, (one, one, one), add, mul):
        bits = acc == 0
        bits[i] = False
        rows.append(_pack_row(bits))
    return Graph(len(points), rows)


def polarity_absolute_points(q) -> tuple[int, ...]:
    """Vertex indices of the absolute points (u.u = 0) of polarity_graph(q)."""
    spec = spec_for(q)
    if spec.q > MAX_POLARITY_ORDER:
        raise ValueError(f"polarity graph supported for q <= {MAX_POLARITY_ORDER}")
    out = []
    for i, pt in enumerate(enumerate_pg_points(2, spec)):
        if not sum((c * c for c in pt.coords), spec.zero()):
            out.append(i)
    return tuple(out)


# -- Hermitian unital -------------------------------------------------------


class BlockDesign(LinearHypergraph):
    """Linear hypergraph whose vertices are geometric points: the blocks are
    its hyperedges, so any two points share at most one block, and every
    point lies in the same number of blocks."""

    __slots__ = ("points",)

    def __init__(self, points: Sequence[ProjectivePoint], blocks: Iterable[Iterable[int]]):
        self.points = tuple(points)
        super().__init__(len(self.points), blocks)
        if not self.is_regular():
            raise ValueError(f"mixed point degrees {sorted(set(self.degrees))}")

    @property
    def v(self) -> int:
        return self.n

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return self.edges

    @property
    def block_size(self) -> int:
        return self.r

    @property
    def point_degree(self) -> int:
        return self.degrees[0]

    def is_steiner(self) -> bool:
        """True when every point pair lies in exactly one block."""
        covered = sum(len(b) * (len(b) - 1) // 2 for b in self.blocks)
        return covered == self.v * (self.v - 1) // 2

    def __repr__(self) -> str:
        return (
            f"BlockDesign(v={self.v}, blocks={len(self.blocks)}, "
            f"k={self.block_size}, r={self.point_degree})"
        )


def hermitian_unital(q) -> BlockDesign:
    """The Hermitian unital of order q: the q^3+1 points of the curve
    norm(x0) + norm(x1) + norm(x2) = 0 in PG(2, q^2), with one block per
    secant line (q+1 points each, q^2(q^2-q+1) blocks in total)."""
    spec0 = spec_for(q)
    if spec0.q > MAX_UNITAL_ORDER:
        raise ValueError(f"hermitian unital supported for q <= {MAX_UNITAL_ORDER}")
    q = spec0.q
    spec = spec_for(q * q)
    points = enumerate_pg_points(2, spec)
    P = _index_matrix(points, spec)
    add, mul = _np_tables(spec)
    norm_idx = np.array(
        [spec.index(conjugate_norm(e)) for e in spec.elements()], dtype=np.int32
    )
    N = norm_idx[P]
    on_curve = add[add[N[:, 0], N[:, 1]], N[:, 2]] == 0
    curve = np.nonzero(on_curve)[0]
    if len(curve) != q**3 + 1:
        raise AssertionError(f"curve has {len(curve)} points, expected {q**3 + 1}")
    curve_points = [points[int(i)] for i in curve]
    R = P[curve]

    # every line of PG(2,q^2), taken as a dual coordinate vector, meets the
    # curve in exactly 1 (tangent) or q+1 (secant) points
    one = spec.index(spec.one())
    blocks = []
    for _, acc in _form_rows(P, R, (one, one, one), add, mul):
        hits = np.nonzero(acc == 0)[0]
        if len(hits) == 1:
            continue
        if len(hits) != q + 1:
            raise AssertionError(f"line meets curve in {len(hits)} points")
        blocks.append(tuple(int(t) for t in hits))
    design = BlockDesign(curve_points, blocks)
    if len(design.blocks) != q * q * (q * q - q + 1) or not design.is_steiner():
        raise AssertionError("unital block structure is not a 2-design")
    return design


def unital_line_hypergraph(q) -> LinearHypergraph:
    """Dual of the Hermitian unital: one vertex per block, one hyperedge per
    unital point collecting the q^2 blocks through it."""
    design = hermitian_unital(q)
    return LinearHypergraph(len(design.blocks), design.incidence())


# -- quadratic-character graphs ---------------------------------------------


def bip_vertex_points(q, s: int) -> list[ProjectivePoint]:
    """Canonical representatives x in PG(s, q) with chi(Q(x, x)) = 1, for
    Q(x, y) = a*x0*y0 + x1*y1 + ... + xs*ys with a the least non-residue."""
    spec = _character_spec(q, s)
    points = enumerate_pg_points(s, spec)
    P = _index_matrix(points, spec)
    add, mul = _np_tables(spec)
    chi = np.array(op_tables(spec).chi, dtype=np.int8)
    diag = _form_diagonal(P, _character_weights(spec, s), add, mul)
    keep = np.nonzero(chi[diag] == 1)[0]
    return [points[int(i)] for i in keep]


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
    spec = _character_spec(q, s)
    points = enumerate_pg_points(s, spec)
    P = _index_matrix(points, spec)
    add, mul = _np_tables(spec)
    chi = np.array(op_tables(spec).chi, dtype=np.int8)
    weights = _character_weights(spec, s)
    diag = _form_diagonal(P, weights, add, mul)
    keep = np.nonzero(chi[diag] == 1)[0]
    V = P[keep]
    rows = []
    for i, acc in _form_rows(V, V, weights, add, mul):
        if variant == "canonical":
            bits = chi[acc] == 1
        else:
            bits = acc == 0
        bits[i] = False
        rows.append(_pack_row(bits))
    return Graph(len(keep), rows)


def _character_spec(q, s: int) -> FieldSpec:
    spec = spec_for(q)
    if spec.q % 2 == 0:
        raise ValueError("the character graph needs an odd field order")
    if spec.q > MAX_CHARACTER_ORDER:
        raise ValueError(f"character graph supported for q <= {MAX_CHARACTER_ORDER}")
    if not 1 <= s <= MAX_CHARACTER_DIM:
        raise ValueError(f"s must be in 1..{MAX_CHARACTER_DIM}")
    return spec


def _character_weights(spec: FieldSpec, s: int) -> tuple[int, ...]:
    xi = spec.index(smallest_nonresidue(spec))
    return (xi,) + (spec.index(spec.one()),) * s
