"""Expected values derived by the benchmark's own route.

Nothing here imports ramseyforge: every value an op's output is checked
against comes from plain arithmetic, a second construction, or brute force,
so a defect in the program cannot also hide in its oracle.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np

MASK64 = (1 << 64) - 1
WEYL = 0x9E3779B97F4A7C15


# -- counter-based randomness (splitmix64), written out independently --------


def splitmix64(x: int) -> int:
    x = (x + WEYL) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def derive(master: int, index: int) -> int:
    """The child-seed chain the certificates and trials document."""
    return splitmix64((master ^ (index * WEYL)) & MASK64)


def sampled_vertices(n: int, p: float, seed: int) -> list[int]:
    """Vertices kept by the documented per-vertex draw at probability p."""
    if p >= 1:
        return list(range(n))
    cut = int(p * 2.0**64)
    return [v for v in range(n) if derive(seed, v) < cut]


def transfer_kept_edges(seed: int, hyperedges: int, r: int) -> int:
    """Bichromatic pairs kept by one seeded per-hyperedge coloring: a
    hyperedge with k slots of colour 1 keeps k (r - k) of its pairs."""
    state = splitmix64(seed & MASK64)
    kept = 0
    for e in range(hyperedges):
        ones = sum(splitmix64(state ^ ((e << 20) | j)) >> 63 for j in range(r))
        kept += ones * (r - ones)
    return kept


# -- finite geometry over prime fields and GF(2^k) ---------------------------


def _pg2_points(q: int) -> list[tuple[int, int, int]]:
    return [(0, 0, 1)] + [(0, 1, c) for c in range(q)] + [
        (1, b, c) for b in range(q) for c in range(q)
    ]


def _gf2k_mul(a: int, b: int, modulus: int, k: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> k & 1:
            a ^= modulus
    return r


def er_graph(q: int) -> list[set[int]]:
    """Adjacency sets of a graph isomorphic to the polarity graph ER_q, for
    q prime or q = 8: points of PG(2, q), u ~ v iff u.v = 0, loops dropped."""
    if q == 8:
        # GF(8) = GF(2)[x]/(x^3 + x + 1); any irreducible cubic gives an
        # isomorphic field and therefore an isomorphic graph

        def dot(x, y):
            return (
                _gf2k_mul(x[0], y[0], 0b1011, 3)
                ^ _gf2k_mul(x[1], y[1], 0b1011, 3)
                ^ _gf2k_mul(x[2], y[2], 0b1011, 3)
            )

    elif q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1)):

        def dot(x, y):
            return (x[0] * y[0] + x[1] * y[1] + x[2] * y[2]) % q

    else:
        raise ValueError(f"no independent ER construction for q={q}")
    return _orthogonality_graph(_pg2_points(q), dot)


def bip_symmetrized_graph(q: int) -> list[set[int]]:
    """Adjacency sets of bip(q, 2) symmetrized for an odd prime q: the points
    x of PG(2, q) with Q(x, x) a nonzero square, Q = a x0 y0 + x1 y1 + x2 y2
    with a the least non-residue, x ~ y iff Q(x, y) = 0."""
    squares = {x * x % q for x in range(1, q)}
    a = min(x for x in range(1, q) if x not in squares)

    def form(x, y):
        return (a * x[0] * y[0] + x[1] * y[1] + x[2] * y[2]) % q

    return _orthogonality_graph([x for x in _pg2_points(q) if form(x, x) in squares], form)


def _orthogonality_graph(pts, form) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in pts]
    for i, j in itertools.combinations(range(len(pts)), 2):
        if form(pts[i], pts[j]) == 0:
            adj[i].add(j)
            adj[j].add(i)
    return adj


def independent_set(adj: list[set[int]], size: int, seed: int = 1, tries: int = 20000):
    """An explicit independent set of the given size found by randomized
    min-degree greedy, or None.  Callers re-check it against the edges."""
    rng = random.Random(seed)
    n = len(adj)
    for _ in range(tries):
        order = sorted(range(n), key=lambda v: len(adj[v]) + 3 * rng.random())
        chosen: list[int] = []
        banned: set[int] = set()
        for v in order:
            if v not in banned:
                chosen.append(v)
                banned |= adj[v]
                banned.add(v)
        if len(chosen) >= size:
            return sorted(chosen[:size])
    return None


def is_independent(adj: list[set[int]], vertices) -> bool:
    vs = list(vertices)
    return len(set(vs)) == len(vs) and all(not (adj[u] & set(vs)) for u in vs)


# -- graphs as edge-list text -------------------------------------------------


def parse_edge_list(text: str) -> tuple[dict, np.ndarray]:
    """(header, edges as an (m, 2) int array) of the documented edge-list
    text: a '# {json}' header line, then one 'u v' line per edge."""
    head, _, body = text.partition("\n")
    if not head.startswith("#"):
        raise ValueError("missing header line")
    header = json.loads(head[1:])
    edges = np.array(body.split(), dtype=np.int64).reshape(-1, 2)
    return header, edges


def format_edge_list(n: int, edges: np.ndarray) -> str:
    lines = [f"# {json.dumps({'n': n})}"]
    lines.extend(f"{u} {v}" for u, v in edges.tolist())
    return "\n".join(lines) + "\n"


def relabel(n: int, edges: np.ndarray, seed: int) -> np.ndarray:
    """The same graph under a seeded vertex permutation, edges sorted."""
    perm = np.array(random.Random(seed).sample(range(n), n), dtype=np.int64)
    e = np.sort(perm[edges], axis=1)
    return e[np.lexsort((e[:, 1], e[:, 0]))]


def shadow_edges(hyperedges: list[list[int]]) -> np.ndarray:
    pairs = [(u, v) for e in hyperedges for u, v in itertools.combinations(sorted(e), 2)]
    return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


def triangle_count(n: int, edges: np.ndarray) -> int:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges.tolist():
        adj[u].add(v)
        adj[v].add(u)
    return sum(len(adj[u] & adj[v]) for u, v in edges.tolist()) // 3


def random_graph_edges(n: int, seed: int) -> list[tuple[int, int]]:
    """G(n, 1/2) from a seeded generator."""
    rng = random.Random(seed)
    return [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.5]


def min_density_at(n: int, edges, m: int) -> Fraction:
    """Brute-force minimum of e(X) / C(m, 2) over all m-subsets X.  By the
    averaging lemma this is also the minimum over |X| >= m."""
    A = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        A[u, v] = A[v, u] = 1
    subsets = np.array(list(itertools.combinations(range(n), m)), dtype=np.int64)
    counts = np.zeros(len(subsets), dtype=np.int64)
    for i, j in itertools.combinations(range(m), 2):
        counts += A[subsets[:, i], subsets[:, j]]
    return Fraction(int(counts.min()), math.comb(m, 2))
