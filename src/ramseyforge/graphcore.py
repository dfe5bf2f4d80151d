"""Graph and linear-hypergraph core: exact forbidden-subgraph checkers, an
exact independence-number solver, and edge-list interchange.

Graphs are immutable bitset adjacency rows (Python ints), so all set algebra
in the solvers is word-parallel.  Every solver is deterministic: vertex
orders, tie-breaks and witnesses depend only on the input, and exhausting a
node budget raises UndecidedError rather than ever returning a wrong answer.
"""

from __future__ import annotations

import io
import json
import re
import sys
from dataclasses import dataclass
from itertools import chain, repeat
from operator import index, rshift
from typing import Iterable, Iterator, Sequence

import numpy as np

sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))


class UndecidedError(RuntimeError):
    """A solver ran out of budget before reaching a definite answer."""


def _iter_bits(mask: int) -> Iterator[int]:
    """The set bits of mask, ascending; the mask is shifted past each one."""
    v = -1
    while mask:
        step = (mask & -mask).bit_length()
        v += step
        mask >>= step
        yield v


# Up to this many bits in len(rows) x len(order), _relabel gathers through a
# bit matrix of that size, unpacked at one byte per bit; past it, through edge
# arrays.  Matrix against arrays (2-core x86-64, CPython 3.11, numpy 2.4,
# best of 9 rounds): the deletion loop's ER_13 subgraphs of n = m = 44 / 183
# take 23 / 104 us against 134 / 295 us.  Past 2^20 bits the arrays are
# quicker: 512 / 1024 rows of ER_49 take 1.2 / 3.3 ms against 1.0 / 2.6 ms,
# 512 / 1024 rows of ER_81 1.6 / 6.0 ms against 1.3 / 3.0 ms, and 32 / 64
# rows of a star with 2^15 leaves 90 / 183 us against 65 / 64 us.
_DENSE_BITS = 2**20


def _relabel(rows: Sequence[int], order: Sequence[int]) -> list[int]:
    """Rows of the subgraph induced on the distinct vertices `order`, in
    which vertex i is order[i].  `rows` are a Graph's rows: symmetric and
    loopless.  While len(rows) * len(order) is at most _DENSE_BITS, the kept
    rows are unpacked into a bit matrix whose columns `order`, padded to
    whole bytes with the zero column n, are packed back as one flat run.
    Past it the kept rows are masked to the kept vertices, their edges read
    by _edge_arrays, relabelled and rebuilt by _pair_rows, so each row
    costs time linear in its length and its kept degree."""
    n, m = len(rows), len(order)
    if 0 < n * m <= _DENSE_BITS:
        width, kept = (n >> 3) + 1, (m + 7) >> 3  # so column n, past every vertex, is zero
        data = b"".join([rows[v].to_bytes(width, "little") for v in order])
        matrix = np.frombuffer(data, np.uint8).reshape(m, width)
        bits = np.unpackbits(matrix, axis=1, bitorder="little")[:, [*order, *[n] * (-m % 8)]]
        packed = np.packbits(bits, bitorder="little").tobytes()
        return [int.from_bytes(packed[i : i + kept], "little") for i in range(0, m * kept, kept)]
    pos = np.full(n, -1)
    pos[order] = np.arange(m)
    mask = int.from_bytes(np.packbits(pos >= 0, bitorder="little").tobytes(), "little")
    # masked first, so only kept columns are unpacked and looked up in pos;
    # each kept edge is read once, from the row of its lower endpoint
    skip = np.asarray(order, np.int64) + 1
    edges = _edge_arrays([rows[v] & mask for v in order], skip)
    return _pair_rows(m, [np.stack((r, pos[c]), axis=1) for r, c in edges])


# Rows change to and from (row, column) arrays a block of rows at a time:
# _edge_arrays scans about _SCAN_BYTES of the rows' bytes per block, and
# _pair_rows ORs endpoints into a zeroed buffer of about _ROW_BYTES.  A block
# holds one more row when that row alone is longer.
_SCAN_BYTES = 2**16
_ROW_BYTES = 2**16


def _byte_blocks(ends: np.ndarray, size: int) -> Iterator[tuple[int, int]]:
    """Row ranges [lo, hi) of about `size` units (bytes, or arcs) each, for
    rows whose lengths in those units have the running sums `ends`.  Empty
    rows ride in their neighbours' blocks, so all-empty rows give no block."""
    total = int(ends[-1]) if len(ends) else 0
    lo = 0
    for hi in np.searchsorted(ends, np.arange(size, total + size, size), side="right").tolist():
        if hi > lo:
            yield lo, hi
            lo = hi


def _edge_arrays(rows: Sequence[int], skip: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (row, column) of every set bit of `rows` at or above bit skip[v]
    of row v, in row-major order, one block of rows at a time; skip 1..n
    gives a Graph's edges u < v.  Row v is read as the little-endian bytes
    of row >> skip[v] and only the nonzero bytes are unpacked, so the cost
    is linear in the rows' total byte length and empty rows cost no scan."""
    size = (np.maximum(np.fromiter(map(int.bit_length, rows), np.int64, len(rows)) - skip, 0) + 7) >> 3
    ends = np.cumsum(size)
    starts = ends - size
    for lo, hi in _byte_blocks(ends, _SCAN_BYTES):
        shifted = map(rshift, rows[lo:hi], skip[lo:hi].tolist())
        data = b"".join(map(int.to_bytes, shifted, size[lo:hi].tolist(), repeat("little")))
        buf = np.frombuffer(data, np.uint8)
        at = np.flatnonzero(buf)
        # a bool view: np.flatnonzero takes a faster path on bools than on bytes
        hit = np.flatnonzero(np.unpackbits(buf[at], bitorder="little").view(bool))
        at += starts[lo]
        r = np.searchsorted(ends, at, side="right")  # the row of each nonzero byte
        at = (at - starts[r]) * 8 + skip[r]
        byte = hit >> 3
        yield r[byte], at[byte] + (hit & 7)


def _vertex_pairs(n: int, pairs: np.ndarray) -> np.ndarray:
    """`pairs` as an (m, 2) array of the edges of a graph on 0..n-1;
    ValueError naming the first loop or out-of-range edge in their order."""
    if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
        raise ValueError("each edge needs two vertices")
    pairs = pairs.reshape(-1, 2)
    u, v = pairs.T
    bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if bad.any():
        a, b = pairs[bad.argmax()].tolist()
        raise ValueError(f"loop at vertex {a}" if a == b else f"edge ({a},{b}) out of range")
    return pairs


def _pair_rows(n: int, blocks: Sequence[np.ndarray]) -> list[int]:
    """Rows of the graph on 0..n-1 whose edges are the rows of the (m, 2)
    arrays `blocks`, which are in range and loopless; an edge may come in
    either orientation, and more than once.  Both endpoints of each are
    sorted by row once, as keys r*n + c.  Each row is laid out over the
    bytes from its lowest to its top bit, and a block of rows is built by
    one byte-OR per endpoint into a zeroed buffer, then read out row by row
    with int.from_bytes and shifted into place."""
    m = sum(map(len, blocks))
    # int32 when the keys, and the bit offsets of the rows laid end to end, fit
    key = np.empty(2 * m, np.int32 if n * (n + 8) < 2**31 else np.int64)
    i = 0
    for pairs in blocks:
        u, v = pairs.T
        for half, a, b in ((key[i : i + len(u)], u, v), (key[m + i : m + i + len(u)], v, u)):
            half[:] = a
            half *= n
            half += b
        i += len(u)
    key.sort()
    first = np.searchsorted(key, np.arange(n + 1, dtype=key.dtype) * n)  # each row's first key
    filled = np.flatnonzero(first[1:] > first[:-1])
    low = np.zeros(n, np.int64)  # each row's lowest byte
    low[filled] = (key[first[filled]] - filled * n) >> 3
    size = np.zeros(n, np.int64)
    size[filled] = ((key[first[filled + 1] - 1] - filled * n) >> 3) - low[filled] + 1
    ends = np.cumsum(size)
    starts = ends - size
    rows = [0] * n
    for lo, hi in _byte_blocks(ends, _ROW_BYTES):
        base = int(starts[lo])
        # key r*n + c becomes bit c - 8*low[r] of row r's bytes in the buffer
        shift = (starts[lo:hi] - base - low[lo:hi]) * 8 - np.arange(lo, hi) * n
        at = key[first[lo] : first[hi]] + np.repeat(shift, np.diff(first[lo : hi + 1]))
        buf = np.zeros(int(ends[hi - 1]) - base, np.uint8)
        np.bitwise_or.at(buf, at >> 3, (1 << (at & 7)).astype(np.uint8))
        data = memoryview(buf)
        rows[lo:hi] = [
            int.from_bytes(data[a:b], "little") << c
            for a, b, c in zip(
                (starts[lo:hi] - base).tolist(), (ends[lo:hi] - base).tolist(), (low[lo:hi] * 8).tolist()
            )
        ]
    return rows


class Graph:
    """Immutable simple graph on vertices 0..n-1 with bitset adjacency rows.

    Graph(n, rows) takes its rows as built: n of them, each in range,
    loopless and symmetric, which every builder here guarantees.  Outside
    data enters through read_graph and from_edges, which check every pair."""

    __slots__ = ("n", "rows", "degrees", "edge_count")

    def __init__(self, n: int, rows: Iterable[int]):
        self.n = n
        self.rows = tuple(rows)
        self.degrees = tuple(map(int.bit_count, self.rows))
        self.edge_count = sum(self.degrees) // 2

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError("negative vertex count")
        pairs = np.array(list(edges))
        if pairs.size and pairs.dtype.kind not in "iuO":
            raise TypeError(f"edges must be pairs of ints, not {pairs.dtype}")
        pairs = _vertex_pairs(n, pairs).astype(np.int64, copy=False)
        return cls(n, _pair_rows(n, [pairs]))

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph; vertices must be strictly increasing and in
        0..n-1 (vertex i of the result is vertices[i]).  All n vertices give
        the graph itself."""
        vs = list(vertices)
        if any(b <= a for a, b in zip(vs, vs[1:])):
            raise ValueError("vertices must be strictly increasing")
        if vs and not 0 <= vs[0] <= vs[-1] < self.n:
            raise ValueError(f"vertex {next(v for v in vs if not 0 <= v < self.n)} out of range")
        return self if len(vs) == self.n else Graph(len(vs), _relabel(self.rows, vs))

    def drop_vertex(self, v: int) -> "Graph":
        """The graph with vertex v deleted; each later vertex moves down one
        label, as in induced().  Every row has v's bit spliced out."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        low = (1 << v) - 1
        rows = self.rows
        return Graph(self.n - 1, [r & low | r >> (v + 1) << v for r in rows[:v] + rows[v + 1 :]])

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(self.n, [full ^ row ^ (1 << v) for v, row in enumerate(self.rows)])

    def subgraph_edge_count(self, mask: int) -> int:
        """Number of edges inside the vertex subset given as a bitmask."""
        return sum((self.rows[v] & mask).bit_count() for v in _iter_bits(mask)) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


class LinearHypergraph:
    """Uniform hypergraph in which any two hyperedges share at most one vertex.

    The hyperedges are taken as built: a sequence of sorted tuples, each of
    r >= 1 distinct vertices in 0..n-1, no two of them sharing a vertex
    pair.  Nothing is re-checked here: unital_line_hypergraph, the one
    builder, checks that its blocks form a 2-design, which makes its dual
    linear."""

    __slots__ = ("n", "edges", "r", "degrees")

    def __init__(self, n: int, edges: Sequence[tuple[int, ...]]):
        self.n = n
        self.edges = edges
        self.r = len(edges[0])
        vertices = np.fromiter(chain.from_iterable(edges), np.intp)
        self.degrees = tuple(np.bincount(vertices, minlength=n).tolist())

    def regular_degree(self) -> int:
        if len(set(self.degrees)) != 1:
            raise ValueError("hypergraph is not regular")
        return self.degrees[0]

    def __repr__(self) -> str:
        return f"LinearHypergraph(n={self.n}, edges={len(self.edges)}, r={self.r})"


@dataclass(frozen=True)
class ForbiddenPattern:
    """A forbidden subgraph: clique(s), odd_cycle(k), or the 4-cycle."""

    kind: str
    size: int

    @classmethod
    def clique(cls, s: int) -> "ForbiddenPattern":
        if s < 3:
            raise ValueError("clique patterns need s >= 3")
        return cls("clique", s)

    @classmethod
    def odd_cycle(cls, k: int) -> "ForbiddenPattern":
        if k < 3 or k % 2 == 0:
            raise ValueError("odd cycle patterns need odd k >= 3")
        return cls("odd_cycle", k)

    @classmethod
    def c4(cls) -> "ForbiddenPattern":
        return cls("c4", 4)

    @classmethod
    def parse(cls, name: str) -> "ForbiddenPattern":
        name = name.strip().lower()
        if name == "triangle":
            return cls.clique(3)
        if name == "c4":
            return cls.c4()
        if name.startswith("k") and name[1:].isdigit():
            return cls.clique(int(name[1:]))
        if name.startswith("c") and name[1:].isdigit():
            k = int(name[1:])
            if k % 2 == 0:
                raise ValueError(f"unsupported even cycle pattern {name}")
            return cls.odd_cycle(k)
        raise ValueError(f"unknown pattern {name!r}")

    @property
    def name(self) -> str:
        if self.kind == "clique":
            return f"k{self.size}"
        return f"c{self.size}" if self.kind == "odd_cycle" else "c4"


# --- clique / independence engine ------------------------------------------


class _Stop(Exception):
    """Ends a clique search early; args[0] is its status."""


def _color_classes(P: int, others: Sequence[int]) -> list[int]:
    """Greedy colouring of the vertices in P as class bit masks, in colour
    order.  Each class takes the lowest uncoloured vertex, then the lowest
    one adjacent to none it holds; others[v] masks the vertices that v is
    not adjacent to in the searched graph, without v itself, so one AND
    both drops v and keeps the vertices v may share a class with."""
    classes = []
    while P:
        avail, cls = P, 0
        while avail:
            low = avail & -avail
            cls |= low
            avail &= others[low.bit_length() - 1]
        classes.append(cls)
        P ^= cls
    return classes


def _max_clique_search(
    G: Graph, budget: int | None, target: int | None, complement: bool = False, floor: int = 0
):
    """Branch-and-bound maximum clique with greedy-coloring bounds, of G or,
    with complement=True, of its complement (a maximum independent set).

    Returns (best, best_set_in_input_labels, status, nodes) where status is
    'complete', 'target' (early stop at target size) or 'budget', and nodes
    counts the search nodes expanded: at most budget + 1.
    Vertices are relabeled by descending degree in the searched graph (ties
    by index), which fixes the search tree and therefore the witness
    deterministically.  The rows are relabeled once and flipped once, each
    to full ^ row ^ (1 << v) as in Graph.complement.  The searched graph's
    non-neighbour masks (`others`, to colour on) are the rows when the
    complement is searched and the flipped rows otherwise, and its
    neighbour masks (`adj`, to branch on) are the other list.  Only
    cliques larger than `floor` are sought: with nothing larger, best is 0
    and the set empty; floor=0 is the plain search.

    Every node is coloured: a cut on its candidate count alone would never
    fire below the root.  A vertex of colour c met a member of each lower
    class, all still candidates when it is branched on, so its child has at
    least c - 1 candidates and passes any cut that the vertex passed."""
    n = G.n
    if n == 0:
        return 0, (), "complete", 0
    # a stable sort, reversed or not, keeps ties in index order
    order = sorted(range(n), key=G.degrees.__getitem__, reverse=not complement)
    rows = _relabel(G.rows, order)
    full = (1 << n) - 1
    flipped = [full ^ row ^ (1 << v) for v, row in enumerate(rows)]
    others, adj = (rows, flipped) if complement else (flipped, rows)
    best: tuple[int, ...] = ()
    cut = floor  # the size a clique must exceed to be kept
    nodes = 0
    R: list[int] = []

    def expand(P: int) -> None:
        # this branching order and cut fix the search tree, and with it the
        # witness and the node at which a budget runs out
        nonlocal best, cut, nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise _Stop("budget")
        size = len(R)
        classes = _color_classes(P, others)
        for c in range(len(classes), 0, -1):
            cls = classes[c - 1]
            while cls:
                if size + c <= cut:
                    return
                v = cls.bit_length() - 1
                bit = 1 << v
                cls ^= bit
                P ^= bit
                R.append(v)
                sub = P & adj[v]
                if sub:
                    expand(sub)
                elif size >= cut:  # R, of size + 1, exceeds the cut
                    best = tuple(R)
                    cut = len(best)
                    if target is not None and cut >= target:
                        raise _Stop("target")
                R.pop()

    try:
        expand((1 << n) - 1)
        status = "complete"
    except _Stop as stop:
        status = stop.args[0]
    return len(best), tuple(sorted(order[v] for v in best)), status, nodes


# --- verified symmetry and orbital branching ----------------------------------


def _root(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v


def _merge_orbits(parent: list[int], perm: Sequence[int]) -> int:
    """Join each vertex u with perm[u] in the union-find forest `parent`,
    whose roots are the least vertices of their classes; returns how many
    merges that took.  Over a group's generators the classes become its
    orbits."""
    merged = 0
    for u, v in enumerate(perm):
        if u != v:
            u, v = _root(parent, u), _root(parent, v)
            if u != v:
                parent[max(u, v)] = min(u, v)
                merged += 1
    return merged


def _orbits(n: int, perms: Sequence[Sequence[int]], within: int) -> list[tuple[int, int]]:
    """(least vertex, bit mask) of each orbit of the group `perms` generate
    that lies in the invariant vertex set `within`, by least vertex."""
    parent = list(range(n))
    for perm in perms:
        _merge_orbits(parent, perm)
    masks: dict[int, int] = {}
    for v in _iter_bits(within):
        root = _root(parent, v)
        masks[root] = masks.get(root, 0) | 1 << v
    return sorted(masks.items())


class Automorphisms:
    """Vertex permutations of one graph, each checked to map every adjacency
    row onto the row of its image: perm[u] ~ perm[w] exactly when u ~ w.
    That is, relabelling G by perm leaves its rows as they were.  Any group
    they generate is a subgroup of Aut(G), which is all that orbital
    branching needs."""

    __slots__ = ("rows", "perms")

    def __init__(self, G: Graph, perms: Iterable[Sequence[int]]):
        n, rows = G.n, G.rows
        checked = []
        for i, perm in enumerate(perms):
            try:
                p = tuple(map(index, perm))
            except TypeError:
                raise ValueError(f"generator {i} has a label that is not an integer") from None
            if len(p) != n:
                raise ValueError(f"generator {i} has {len(p)} labels for {n} vertices")
            if sorted(p) != list(range(n)):
                raise ValueError(f"generator {i} is not a permutation of 0..{n - 1}")
            for u, (row, image) in enumerate(zip(rows, _relabel(rows, list(p)))):
                if row != image:
                    raise ValueError(
                        f"generator {i} does not map row {u} onto the row of its image {p[u]}"
                    )
            checked.append(p)
        self.rows = rows
        self.perms = tuple(checked)


def _orbital_alpha(
    G: Graph, symmetry: Automorphisms, floor: int, target: int | None, budget: int | None
):
    """(size, sorted set, status) of a largest independent set of G if it
    has more than `floor` vertices, else (floor, (), status); status is as
    in _max_clique_search.  With a target, any set of at least that size may
    be returned early; the budget bounds the nodes of all leaf searches
    together, and on its exhaustion the best set so far is returned.

    Two levels of orbital branching (Ostrowski, Linderoth, Rossi and
    Smriglio, Math. Program. 126, 2011).  Take the orbits O_1, O_2, ... of
    the generated group by least vertex r_j.  A set meeting O_j first can be
    mapped into one that holds r_j, so it lies in r_j's non-neighbours
    outside O_1..O_{j-1}: an invariant set of the generators that fix r_j,
    whose orbits split it the same way one level down.  Each leaf is the
    plain search on its candidate set, seeking only sets above the best
    size so far, with what is left of the budget; the set kept is r, r2 and
    the leaf's set."""
    if symmetry.rows != G.rows:
        raise ValueError("automorphisms belong to another graph")
    rows, n = G.rows, G.n
    full = (1 << n) - 1
    best, witness = floor, ()
    left = budget  # nodes the later leaf searches may expand
    seen = 0  # vertices of the orbits already branched on
    for r, orbit in _orbits(n, symmetry.perms, full):
        cand = full & ~(rows[r] | seen | 1 << r)
        seen |= orbit
        if best < 1:
            best, witness = 1, (r,)
        if 1 + cand.bit_count() <= best:
            continue
        fixing = [p for p in symmetry.perms if p[r] == r]
        seen2 = 0
        for r2, orbit2 in _orbits(n, fixing, cand):
            leaf = cand & ~(rows[r2] | seen2 | 1 << r2)
            seen2 |= orbit2
            if best < 2:
                best, witness = 2, (r, r2)
            if 2 + leaf.bit_count() <= best:
                continue
            vs = list(_iter_bits(leaf))
            size, found, status, used = _max_clique_search(
                Graph(len(vs), _relabel(rows, vs)),
                left,
                None if target is None else target - 2,
                True,
                best - 2,
            )
            if left is not None:
                left -= used
            if size:
                best = 2 + size
                witness = tuple(sorted((r, r2, *map(vs.__getitem__, found))))
            if status != "complete":
                return best, witness, status
    return best, witness, "complete"


@dataclass(frozen=True)
class AlphaResult:
    """Independence-number result: exact when lower == upper."""

    lower: int
    upper: int
    witness: tuple[int, ...]

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> int:
        if not self.exact:
            raise UndecidedError(
                f"independence number only bracketed in [{self.lower}, {self.upper}]"
            )
        return self.lower


def independence_number(
    G: Graph, budget: int | None = None, symmetry: Automorphisms | None = None
) -> AlphaResult:
    """Exact independence number with witness (the maximum clique of the
    complement); on budget exhaustion returns a certified interval, which
    is exact when its ends meet.  Always >= the greedy Turan floor.

    Given automorphisms of G, alpha and its witness come from orbital
    branching, whose leaf searches share the budget; the interval's upper
    end is the same greedy-colouring bound of all of G."""
    if symmetry is None:
        best, witness, status, _ = _max_clique_search(G, budget, None, True)
    else:
        best, witness, status = _orbital_alpha(G, symmetry, 0, None, budget)
    upper = best
    if status != "complete":
        # the colors of a greedy coloring of the complement bound its clique
        # number; G.n > 0 here, as the empty graph always completes
        upper = len(_color_classes((1 << G.n) - 1, G.rows))
    floor = -(-G.n // ((max(G.degrees) if G.n else 0) + 1))
    if upper < floor:  # pragma: no cover - would be a solver bug
        raise AssertionError("independence bound fell below the Turan floor")
    return AlphaResult(best, upper, witness)


def _find_clique(
    G: Graph, s: int, budget: int | None, complement: bool, symmetry: Automorphisms | None = None
):
    if s <= 0:
        return ()
    if s > G.n:  # no set has more than n distinct vertices
        return None
    if s == 1:
        return (0,)
    if s == 2:  # the lexicographically first edge of the searched graph
        flip = (1 << G.n) - 1 if complement else 0
        for u, row in enumerate(G.rows):
            rest = (row ^ flip) >> (u + 1)
            if rest:
                return u, u + (rest & -rest).bit_length()
        return None
    if symmetry is None:
        # seeking only s-sets prunes just the subtrees whose colour bound
        # rules out one, and the cut does not steer the branching: the first
        # s-set in search order, the witness, is the floor-0 search's
        best, witness, status, _ = _max_clique_search(G, budget, s, complement, s - 1)
    else:  # only independence searches are given automorphisms
        best, witness, status = _orbital_alpha(G, symmetry, s - 1, s, budget)
    if status == "budget":
        search = "independent set" if complement else "clique"
        raise UndecidedError(f"{search}({s}) search exhausted budget {budget}")
    return witness[:s] if best >= s else None  # a sorted set's prefix stays sorted


def find_clique(G: Graph, s: int, budget: int | None = None) -> tuple[int, ...] | None:
    """A clique of size s (canonically ordered) or None; raises UndecidedError
    if the budget ran out before the search was decided."""
    return _find_clique(G, s, budget, False)


def find_independent_set(
    G: Graph, t: int, budget: int | None = None, symmetry: Automorphisms | None = None
):
    """An independent set of size t (a t-clique of the complement), or None;
    raises UndecidedError if the budget ran out first.  Given automorphisms
    of G, orbital branching decides whether one exists and returns it, its
    leaf searches sharing the budget."""
    return _find_clique(G, t, budget, True, symmetry)


# --- forbidden patterns ------------------------------------------------------


def _find_c4(G: Graph) -> list[int] | None:
    """A 4-cycle [a, w', b, w], or None.  G has a 4-cycle exactly when two
    vertices a < b share two neighbours w' < w.  The centres w are scanned in
    order; co[a] holds the vertices b > a that share an earlier centre with a,
    as bit b - a - 1 (only pairs a < b are ever asked about), so w is the
    first centre at which a pair of its neighbours repeats, (a, b) is the
    lexicographically first such pair, and w' is their only common neighbour
    below w.  Each row is walked by shifting it past its next neighbour a,
    which leaves `above` = row >> (a + 1), in the frame of co[a]."""
    rows = G.rows
    co = [0] * G.n
    for w in range(G.n):
        above, a = rows[w], -1
        while above:
            step = (above & -above).bit_length()
            a += step
            above >>= step
            hit = co[a] & above
            if hit:
                b = a + (hit & -hit).bit_length()
                both = rows[a] & rows[b]
                return [a, (both & -both).bit_length() - 1, b, w]
            co[a] |= above
    return None


def _bfs_levels(rows: Sequence[int], root: int, within: int) -> Iterator[tuple[list[int], int]]:
    """The breadth-first levels from root through the vertices of the mask
    `within`, each as its vertices in reach order (by the vertex above that
    first reaches them, then ascending) and its bit mask, built when asked."""
    level, mask = [root], 1 << root
    unseen = within & ~mask
    while level:
        yield level, mask
        nxt, mask = [], 0
        for u in level:
            new = rows[u] & unseen
            if new:
                unseen ^= new
                mask |= new
                nxt.extend(_iter_bits(new))
        level = nxt


def _odd_girth(G: Graph) -> tuple[int, list[int]] | None:
    """(odd girth, witness cycle) or None if bipartite.  The shortest odd
    walk from a root closes at its first level to hold an edge uv: u first
    in reach order, v least.  Paths step back to each vertex's first
    reacher, the first adjacent vertex of the level above in reach order."""
    rows, full = G.rows, (1 << G.n) - 1
    girth, best = G.n + 1, None  # the shortest odd closed walk found: (levels, u, v)
    for r in range(G.n):
        if girth == 3:
            break
        levels = []
        for level, mask in _bfs_levels(rows, r, full):
            levels.append(level)
            u = next((u for u in level if rows[u] & mask), None)
            if u is not None:
                girth, best = 2 * len(levels) - 1, (levels, u, next(_iter_bits(rows[u] & mask)))
            if 2 * len(levels) + 1 >= girth:
                break  # no deeper level closes a shorter odd walk
    if best is None:
        return None
    levels, u, v = best
    path_u, path_v = [u], [v]
    for level in levels[-2::-1]:
        for path in (path_u, path_v):
            path.append(next(w for w in level if rows[w] >> path[-1] & 1))
    # the record is an odd closed walk of the least length found, the odd
    # girth g, so the paths meet only at r: else a shorter odd walk closes
    cycle = path_u + path_v[-2::-1]
    return len(cycle), cycle


def _iter_cycles_exact(G: Graph, k: int, budget: int | None) -> Iterator[list[int]]:
    """All simple cycles of length exactly k (k >= 3), canonically: smallest
    vertex first, second vertex smaller than the last (one orientation per
    cycle).  The walk keeps its own stack; each vertex it enters is a node.
    Path vertex i lies within k - i of s, so vertex k - 1 closes the cycle."""
    if k > G.n:  # a simple k-cycle needs k distinct vertices
        return
    nodes = 0
    full = (1 << G.n) - 1
    for s in range(G.n):
        allowed = full >> (s + 1) << (s + 1)
        dist = [k] * G.n  # from s over the later vertices, k where k or more
        for d, (level, _) in zip(range(k), _bfs_levels(G.rows, s, allowed)):
            for v in level:
                dist[v] = d
        path, used, stack = [], 0, [iter([s])]  # stack[i] yields the choices for path[i]
        while stack:
            v = next(stack[-1], None)
            if v is None:
                stack.pop()
                if path:
                    used ^= 1 << path.pop()
            elif dist[v] <= k - len(path):  # v can still close a k-cycle
                nodes += 1
                if budget is not None and nodes > budget:
                    raise UndecidedError(f"cycle({k}) enumeration exhausted budget {budget}")
                if len(path) < k - 1:
                    path.append(v)
                    used |= 1 << v
                    stack.append(_iter_bits(G.rows[v] & allowed & ~used))
                elif path[1] < v:
                    yield path + [v]


# While n * n is at most _MATRIX_BITS, the C4 and K_s screens and
# triangle_count read the rows as a packed matrix: n rows of ceil(n / 64)
# uint64 words, about n^2/8 bytes, 1 MiB at the cap (n <= 2896; the
# relabelled ER_49 of the build-check benchmark, n = 2451, takes 0.75 MiB).
# Each gather of matrix rows holds about _GATHER_WORDS words (256 KiB), or
# one vertex's neighbour rows where those are more.  Past the cap the matrix
# would outgrow the memory the rows' walks need (the C4 check of a star with
# 4095 leaves peaks at 1.2 MiB), so _find_c4 walks the rows and common
# neighbours are counted one edge at a time: ER_81 (n = 6643) takes that path.
_MATRIX_BITS = 2**23
_GATHER_WORDS = 2**15
# _ABOVE[u, v] is v > u: the bits of a one-word row u above the diagonal.
_ABOVE = np.arange(64) > np.arange(64)[:, None]


def _row_matrix(rows: Sequence[int]) -> np.ndarray:
    """The rows as an (n, ceil(n / 64)) uint64 matrix: bit v of row u is bit
    v & 63 of word v >> 6."""
    width = (len(rows) + 63) >> 6 << 3
    data = b"".join(map(int.to_bytes, rows, repeat(width), repeat("little")))
    return np.frombuffer(data, "<u8").reshape(len(rows), width >> 3)


def _c4_screen(G: Graph) -> bool:
    """True when no two vertices share two neighbours, so G has no 4-cycle.
    The rows of a's neighbours w all hold a, so their union has at most
    sum(deg w) - deg a + 1 vertices, with equality exactly when they meet only
    in a.  Each vertex's neighbour rows are gathered from the packed matrix,
    OR-reduced with np.bitwise_or.reduceat and counted; a gather takes whole
    vertices, about _GATHER_WORDS words of them.  The caller keeps n * n
    within _MATRIX_BITS."""
    rows = G.rows
    M = _row_matrix(rows)
    deg = np.array(G.degrees, np.int64)
    step = max(1, _GATHER_WORDS // max(M.shape[1], 1))
    for r, c in _edge_arrays(rows, np.zeros(G.n, np.int64)):
        # _edge_arrays' blocks hold whole rows, and each row's arcs in a run
        first = np.flatnonzero(np.diff(r, prepend=-1))
        ends = np.append(first[1:], len(r))
        for lo, hi in _byte_blocks(ends, step):
            a, b = first[lo], ends[hi - 1]
            at = first[lo:hi] - a
            union = np.bitwise_or.reduceat(M[c[a:b]], at)
            bound = np.add.reduceat(deg[c[a:b]], at) - (ends[lo:hi] - first[lo:hi]) + 1
            if (np.bitwise_count(union).sum(axis=1) < bound).any():
                return False
    return True


def _common_counts(rows: Sequence[int]) -> Iterator[np.ndarray]:
    """The number of common neighbours of u and v for each edge uv, u < v,
    in edge order, as one int64 array per block of edges.  While n * n is at
    most _MATRIX_BITS a block is one kernel over the packed rows: the rows
    of u and v are gathered about _GATHER_WORDS words at a time, ANDed, and
    their popcounts summed.  Rows of one word (n <= 64) are unpacked all at
    once to list the edges, quicker than _edge_arrays' set-up: on a 2-core
    x86-64 host the K4 screen of a q = 3 transfer graph (n = 63) takes 27 us
    so, and 55 us through _edge_arrays.  Past the cap each edge's two int
    rows are ANDed and counted, one block of _edge_arrays at a time."""
    n = len(rows)
    if n * n > _MATRIX_BITS:
        for r, c in _edge_arrays(rows, np.arange(1, n + 1)):
            counts = ((rows[u] & rows[v]).bit_count() for u, v in zip(r.tolist(), c.tolist()))
            yield np.fromiter(counts, np.int64, len(r))
        return
    M = _row_matrix(rows)
    if 0 < n <= 64:
        bits = np.unpackbits(M.view(np.uint8), axis=1, bitorder="little").view(bool)
        at = np.flatnonzero(bits & _ABOVE[:n])
        edges = [(at >> 6, at & 63)]
    else:
        edges = _edge_arrays(rows, np.arange(1, n + 1))
    step = max(1, _GATHER_WORDS // max(M.shape[1], 1))
    for r, c in edges:
        for i in range(0, len(r), step):
            both = M[r[i : i + step]]
            both &= M[c[i : i + step]]
            yield np.bitwise_count(both).sum(axis=1, dtype=np.int64)


def _edge_with_common(rows: Sequence[int], k: int) -> bool:
    """True when some edge uv has k common neighbours of u and v, compared
    one block of _common_counts at a time: the packed kernel within
    _MATRIX_BITS, the per-edge count past it."""
    return any((counts >= k).any() for counts in _common_counts(rows))


def is_pattern_free(
    G: Graph, F: ForbiddenPattern, budget: int | None = None
) -> tuple[bool, list[int] | None]:
    """True iff no copy of F occurs in G; on False the witness is a concrete
    vertex list (clique members, or cycle in traversal order) that
    re-validates against the adjacency.  Two screens decide the free case
    without a search: an unbudgeted K_s check passes when no edge has s - 2
    common neighbours (_edge_with_common), and a C4 check with n * n within
    _MATRIX_BITS when _c4_screen finds no two vertices sharing two
    neighbours.  Otherwise the search runs and finds the witness: the same
    one, screened or not."""
    if F.kind == "clique":
        # the endpoints of an edge of a K_s share s - 2 neighbours; under a
        # budget the search itself must run, so that exhausting it still
        # reports undecided
        if budget is None and not _edge_with_common(G.rows, F.size - 2):
            return True, None
        w = find_clique(G, F.size, budget)
        return (True, None) if w is None else (False, list(w))
    if F.kind == "c4":
        if G.n * G.n <= _MATRIX_BITS and _c4_screen(G):
            return True, None
        w = _find_c4(G)
        return (True, None) if w is None else (False, w)
    if F.kind == "odd_cycle":
        og = _odd_girth(G)
        if og is None or og[0] > F.size:
            return True, None
        if og[0] == F.size:
            return False, og[1]
        w = next(_iter_cycles_exact(G, F.size, budget), None)
        return (True, None) if w is None else (False, w)
    raise ValueError(f"unknown pattern kind {F.kind}")


def triangle_count(G: Graph) -> int:
    """Exact number of triangles: each of its three edges uv counts it once
    among the common neighbours of u and v."""
    return sum(int(counts.sum()) for counts in _common_counts(G.rows)) // 3


# --- text interchange ---------------------------------------------------------


def _write_header(fh, header: dict | None, **fields) -> None:
    """The '# {json}' header line: `header` with `fields` set, keys sorted."""
    fh.write("# " + json.dumps({**(header or {}), **fields}, sort_keys=True) + "\n")


def write_graph(G: Graph, fh, header: dict | None = None) -> None:
    """Edge-list text: a '# {json}' header line, then one 'u v' line per edge
    in sorted order (0-based)."""
    _write_header(fh, header, n=G.n)
    for r, c in _edge_arrays(G.rows, np.arange(1, G.n + 1)):
        fh.write(("%d %d\n" * len(r)) % tuple(np.stack((r, c), axis=1).ravel().tolist()))


# Largest vertex count the edge-list readers accept.  Each Graph row is an
# n-bit int, so n edge lines that all touch vertex n - 1 cost about n^2/8
# bytes; at 2^15 that worst case is 128 MiB for the rows.  _find_c4's masks
# keep only the bits above each vertex, about n^2/16 bytes: 64 MiB at the
# cap.  The pattern screens' packed matrix, also n^2/8 bytes, is built only
# while n^2 is within _MATRIX_BITS, so it never passes 1 MiB.  read_graph
# adds 16 bytes per edge line (its int32 pair, and an int32 key per
# endpoint: at the cap int32 holds every key r*n + c), a block of text held
# as 4 * _READ_CHARS bytes, and a row buffer of _ROW_BYTES plus at most one
# row of n/8 bytes.  The largest graph the tool builds, ER_81, has 6643
# vertices.
MAX_READ_VERTICES = 2**15

# A line whose first word starts with '#'; the reader skips it.
_COMMENT_LINE = re.compile(r"^[^\S\n]*#.*$", re.MULTILINE)
# The reader parses the body about this many characters at a time, each
# block cut at a line end.
_READ_CHARS = 2**16


def _read_header(fh) -> dict:
    """The '# {json}' header: a JSON object whose "n" is an int in
    0..MAX_READ_VERTICES, else ValueError."""
    first = fh.readline()
    if not first.startswith("#"):
        raise ValueError("missing graph header line")
    try:
        header = json.loads(first[1:].strip())
    except RecursionError:
        raise ValueError("graph header JSON nests too deeply") from None
    if not isinstance(header, dict):
        raise ValueError("graph header must be a JSON object")
    n = header.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n <= MAX_READ_VERTICES:
        raise ValueError(f"graph header needs an integer n in 0..{MAX_READ_VERTICES}")
    return header


def _edge_lines(text: str) -> np.ndarray | None:
    """The (m, 2) int32 array of the edge lines `text`, blank lines skipped,
    or None unless every other line holds two vertex numbers."""
    try:
        pairs = np.loadtxt(io.StringIO(text), np.int32, comments=None, ndmin=2)
    except ValueError:
        return None
    return pairs if pairs.shape[1] == 2 else None


def read_graph(fh) -> tuple[Graph, dict]:
    """The graph of write_graph's text.  Each later line holds two vertices
    or is skipped: blank lines, and lines whose first word starts with '#'.
    A '#' after a vertex is not a comment.  A malformed line is named by its
    file line number, the header being line 1."""
    header = _read_header(fh)
    n = header["n"]
    blocks = []
    line = 2  # the file line the next block starts on
    while block := fh.read(_READ_CHARS):
        block += fh.readline()
        if "#" in block:
            block = _COMMENT_LINE.sub("", block)  # comment lines become blank
        if block and not block.isspace():
            pairs = _edge_lines(block)
            if pairs is None:  # loadtxt parses each line on its own, so one fails alone
                # a blank line fails too when a carriage return ends it early
                i, text = next(
                    (i, text) for i, text in enumerate(block.split("\n"))
                    if (text.strip() or "\r" in text[:-1]) and _edge_lines(text) is None
                )
                raise ValueError(f"line {line + i} is not two vertex numbers: {text!r}")
            blocks.append(_vertex_pairs(n, pairs))
        line += block.count("\n")
    return Graph(n, _pair_rows(n, blocks)), header


def write_hypergraph(H: LinearHypergraph, fh, header: dict | None = None) -> None:
    """Hyperedge-list text: a '# {json}' header line, then one line per
    hyperedge listing its vertices."""
    _write_header(fh, header, n=H.n, r=H.r)
    for e in H.edges:
        fh.write(" ".join(str(v) for v in e) + "\n")

