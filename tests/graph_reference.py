"""Reference checks on graphs and linear hypergraphs, written for clarity.

An oracle for the tests: a bit-by-bit check that a Graph's rows make a
simple graph, a witness checker that re-reads a returned clique or cycle
edge by edge, a shadow graph built pair by pair, a strong-freeness
test that lists every copy of a pattern in the shadow graph and 2-colours
each hyperedge's part of it, a reader of write_hypergraph's text, the
recursive cycle walk, on breadth-first distances of its own, that
graphcore's explicit-stack walk must match, the per-slot coloring that
transfer's array pass must match, and the m-subset search without the
counting cut that containers' search must match.  Only the tests import
this module.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from ramseyforge.graphcore import (
    ForbiddenPattern,
    Graph,
    LinearHypergraph,
    UndecidedError,
    _iter_bits,
    _read_header,
)
from ramseyforge.transfer import _MASK64, _splitmix64


def assert_simple(G: Graph) -> None:
    """Assert, one bit at a time, that G has n rows of non-negative ints
    with no bit past n - 1 and none on the diagonal, that u is in row v
    exactly when v is in row u, and that G.degrees and G.edge_count count
    those bits.  Graph() trusts its rows; this re-reads what a builder made."""
    n, rows = G.n, G.rows
    assert n >= 0 and len(rows) == n, f"{len(rows)} rows for n = {n}"
    degrees, edges = [0] * n, 0
    for v, row in enumerate(rows):
        assert isinstance(row, int) and row >= 0 and row >> n == 0, f"row {v} out of range"
        assert not row >> v & 1, f"loop at vertex {v}"
        for u in range(n):
            if row >> u & 1:
                assert rows[u] >> v & 1, f"{u} in row {v} but {v} not in row {u}"
                degrees[v] += 1
                edges += u < v
    assert G.degrees == tuple(degrees), "degrees do not count the rows' bits"
    assert G.edge_count == edges, f"edge_count {G.edge_count}, rows hold {edges} edges"


def validate_witness(G: Graph, F: ForbiddenPattern, witness: Sequence[int]) -> bool:
    """True iff `witness` is a copy of F in G: distinct vertices that form a
    clique of F's size, or a cycle of F's length in the listed order."""
    w = list(witness)
    if len(set(w)) != len(w):
        return False
    if F.kind == "clique":
        return len(w) == F.size and all(
            G.has_edge(a, b) for i, a in enumerate(w) for b in w[i + 1 :]
        )
    k = F.size
    if len(w) != k:
        return False
    return all(G.has_edge(w[i], w[(i + 1) % k]) for i in range(k))


def shadow(H: LinearHypergraph) -> Graph:
    """The graph joining every pair of vertices that share a hyperedge."""
    return Graph.from_edges(H.n, {p for e in H.edges for p in itertools.combinations(e, 2)})


def read_hypergraph(fh) -> tuple[LinearHypergraph, dict]:
    """The hypergraph of write_hypergraph's text: the graph reader's header,
    then one hyperedge per line; blank lines and '#' lines are skipped."""
    header = _read_header(fh)
    lines = (words for words in map(str.split, fh) if words and words[0][0] != "#")
    return LinearHypergraph(header["n"], [tuple(map(int, words)) for words in lines]), header


def later_distances(G: Graph, s: int) -> list[int]:
    """The distance from s of each vertex over paths whose other vertices
    all exceed s, n + 1 where there is none: a breadth-first search with a
    queue of vertices and a neighbour list per vertex, read with has_edge."""
    neighbours = [[v for v in range(G.n) if G.has_edge(u, v)] for u in range(G.n)]
    dist = [G.n + 1] * G.n
    dist[s] = 0
    queue = [s]
    for u in queue:
        for v in neighbours[u]:
            if v > s and dist[v] > G.n:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def iter_cycles_exact(G: Graph, k: int, budget: int | None) -> Iterator[list[int]]:
    """graphcore._iter_cycles_exact as a recursive walk, one call per path
    vertex: the same cycles in the same order, and the same node count."""
    if k > G.n:
        return
    nodes = [0]
    full = (1 << G.n) - 1
    for s in range(G.n):
        allowed = full >> (s + 1) << (s + 1)
        dist = later_distances(G, s)
        path = [s]

        def walk(u: int, remaining: int, used: int) -> Iterator[list[int]]:
            nodes[0] += 1
            if budget is not None and nodes[0] > budget:
                raise UndecidedError(f"cycle({k}) enumeration exhausted budget {budget}")
            if remaining == 0:
                if G.rows[u] >> s & 1 and path[1] < path[-1]:
                    yield list(path)
                return
            for v in _iter_bits(G.rows[u] & allowed & ~used):
                if dist[v] <= remaining:
                    path.append(v)
                    yield from walk(v, remaining - 1, used | (1 << v))
                    path.pop()

        yield from walk(s, k - 1, 1 << s)


def induced_piece_bipartite(copy_vertices, copy_edges, inside) -> bool:
    """2-color the subgraph of the copy induced by the vertices in `inside`."""
    verts = [v for v in copy_vertices if v in inside]
    adj = {v: [] for v in verts}
    vset = set(verts)
    for a, b in copy_edges:
        if a in vset and b in vset:
            adj[a].append(b)
            adj[b].append(a)
    color = {}
    for start in verts:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in color:
                    color[v] = color[u] ^ 1
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def two_coloring_strong_freeness(H: LinearHypergraph, F: ForbiddenPattern):
    """(True, None) when every copy of F in H's shadow has a hyperedge whose
    part of the copy is not 2-colourable, else (False, the first copy that
    has none).  Copies are listed with cliques lexicographic and cycles from
    their smallest vertex, second vertex below the last."""
    S = shadow(H)
    k = F.size
    if F.kind == "clique":
        copies = [
            c for c in itertools.combinations(range(H.n), k)
            if all(S.has_edge(a, b) for a, b in itertools.combinations(c, 2))
        ]
        edge_sets = [set(itertools.combinations(c, 2)) for c in copies]
    else:
        copies = [
            p for p in itertools.permutations(range(H.n), k)
            if p[0] == min(p) and p[1] < p[-1]
            and all(S.has_edge(p[i], p[(i + 1) % k]) for i in range(k))
        ]
        edge_sets = [{tuple(sorted((c[i], c[(i + 1) % k]))) for i in range(k)} for c in copies]
    for copy, copy_edges in zip(copies, edge_sets):
        if all(induced_piece_bipartite(copy, copy_edges, set(e)) for e in H.edges):
            return False, list(copy)
    return True, None


def slot_coloring(H: LinearHypergraph, seed: int) -> tuple[int, ...]:
    """transfer.random_coloring one slot at a time: bit j of mask e is the
    top bit of splitmix64(state ^ ((e << 20) | j)), state = splitmix64(seed)."""
    state = _splitmix64(seed & _MASK64)
    masks = []
    for e in range(len(H.edges)):
        b = 0
        for j in range(H.r):
            b |= (_splitmix64(state ^ ((e << 20) | j)) >> 63) << j
        masks.append(b)
    return tuple(masks)


def uncut_m_subset(G: Graph, m: int, bound: int, first: bool):
    """containers._sparse_m_subset without its counting cut: a branch is
    cut only once its own edge count reaches the bound."""
    n, rows = G.n, G.rows
    chosen: list[int] = []
    found = None

    def extend(start: int, mask: int, edges: int) -> bool:
        nonlocal bound, found
        if len(chosen) == m:
            bound, found = edges, (edges, tuple(chosen))
            return first
        for v in range(start, n - m + len(chosen) + 1):
            e = edges + (rows[v] & mask).bit_count()
            if e < bound:
                chosen.append(v)
                if extend(v + 1, mask | 1 << v, e):
                    return True
                chosen.pop()
        return False

    extend(0, 0, 0)
    return found
