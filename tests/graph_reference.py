"""Reference checks on graphs and linear hypergraphs, written for clarity.

An oracle for the tests: a witness checker that re-reads a returned clique
or cycle edge by edge, a shadow graph built pair by pair, a strong-freeness
test that lists every copy of a pattern in the shadow graph and 2-colours
each hyperedge's part of it, and a reader of write_hypergraph's text.  Only
the tests import this module.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from ramseyforge.graphcore import ForbiddenPattern, Graph, LinearHypergraph, _read_header


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
