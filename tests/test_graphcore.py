"""Graph model, exact solvers, pattern freeness, hypergraphs, interchange."""

from __future__ import annotations

import gc as collector
import hashlib
import io
import itertools
import json
import math
import random
import re
import time
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_reference as ref
from ramseyforge import certify as ce
from ramseyforge import geometry as geo
from ramseyforge import graphcore as gc
from ramseyforge.graphcore import ForbiddenPattern, Graph, LinearHypergraph


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def brute_alpha(G: Graph) -> int:
    """Independent reference: largest t with a size-t independent set, by
    direct subset scan."""
    best = 0
    for mask in range(1 << G.n):
        size = mask.bit_count()
        if size > best and G.subgraph_edge_count(mask) == 0:
            best = size
    return best


# --- Graph model ----------------------------------------------------------


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(ValueError, match="negative"):
        Graph.from_edges(-1, [])


def test_graph_init_linear_on_empty_rows():
    # Graph() must cost O(1) per empty row: an n-bit mask per row makes an
    # empty graph quadratic in n
    start = time.perf_counter()
    G = Graph(300_000, [0] * 300_000)
    assert time.perf_counter() - start < 1.0
    assert G.edge_count == 0


def test_simple_graph_oracle_rejects_bad_rows():
    ref.assert_simple(Graph(3, [0b110, 0b001, 0b001]))
    for n, rows in (
        (2, [0b10, 0b00]),  # 1 in row 0 only
        (1, [0b1]),  # loop
        (3, [0, 1 << 3, 0]),  # out of range
        (3, [0, -1, 0]),
        (3, [0, 0]),  # a row short
    ):
        with pytest.raises(AssertionError):
            ref.assert_simple(Graph(n, rows))
    G = Graph(2, [0b10, 0b01])
    G.edge_count = 2
    with pytest.raises(AssertionError, match="edge_count"):
        ref.assert_simple(G)
    G = Graph(2, [0b10, 0b01])
    G.degrees = (1, 0)
    with pytest.raises(AssertionError, match="degrees"):
        ref.assert_simple(G)


def test_graph_builders_make_simple_graphs():
    rng = random.Random(24)
    for _ in range(40):
        n = rng.randint(0, 30)
        G = random_graph(n, rng.random(), rng)  # from_edges
        ref.assert_simple(G)
        text = io.StringIO()
        gc.write_graph(G, text)
        text.seek(0)
        back, _ = gc.read_graph(text)
        ref.assert_simple(back)
        assert back == G
        ref.assert_simple(G.complement())
        ref.assert_simple(G.induced(sorted(rng.sample(range(n), rng.randint(0, n)))))


@pytest.mark.parametrize(
    "family, params", [("er", {"q": 7}), ("bip", {"q": 7, "s": 2, "variant": "symmetrized"})]
)
def test_orbital_leaves_are_simple(monkeypatch, family, params):
    leaves = []
    search = gc._max_clique_search

    def capture(G, *args):
        leaves.append(G)
        return search(G, *args)

    monkeypatch.setattr(gc, "_max_clique_search", capture)
    G = ce.build_family(family, params)
    assert gc.independence_number(G, None, ce.family_symmetry(family, params, G)).exact
    assert len(leaves) > 1
    for leaf in leaves:
        ref.assert_simple(leaf)


def test_keys_past_int32():
    # n * n passes 2^31 from n = 46341, so the keys r*n + c are int64 there
    n = 50_000
    G = Graph.from_edges(n, [(n - 1, n - 2), (0, n - 1)])
    assert list(G.edges()) == [(0, n - 1), (n - 2, n - 1)]


def complete_rows(n: int) -> list[int]:
    full = (1 << n) - 1
    return [full ^ (1 << v) for v in range(n)]


def test_graph_init_on_complete_graph():
    # checking each edge's mirror bit by shifting through the row took
    # 1.94 s on K_2048 (2-core host); Graph() now only counts each row's bits
    rows = complete_rows(2048)
    start = time.perf_counter()
    G = Graph(2048, rows)
    assert time.perf_counter() - start < 0.8
    assert G.edge_count == 2048 * 2047 // 2


def test_edges_of_complete_graph():
    # _iter_bits shifted the rest of each 2048-bit row past every bit: 1.0 s
    # to list K_2048's edges (2-core host), and 0.3-0.4 s from edge arrays.
    # Timed as timeit times, with the cyclic collector off: the collections
    # that two million new tuples set off depend on the test process's heap.
    G = Graph(2048, complete_rows(2048))
    collector.disable()
    try:
        start = time.perf_counter()
        edges = list(G.edges())
        elapsed = time.perf_counter() - start
    finally:
        collector.enable()
    assert elapsed < 0.5
    assert len(edges) == G.edge_count and edges[:2] == [(0, 1), (0, 2)] and edges[-1] == (2046, 2047)


@pytest.mark.parametrize("count", [0, 1, 2, 39, 40, 41, 63, 64, 65, 200, 2000])
def test_bit_lists_and_masks_agree_with_single_bits(count):
    rng = random.Random(count)
    for top in (count, 3 * count + 7, 5000):
        bits = sorted(rng.sample(range(top + 1), min(count, top + 1)))
        mask = sum(1 << b for b in bits)
        assert list(gc._iter_bits(mask)) == bits


def test_relabel_linear_in_row_length():
    # the centre row of a star with 2^17 leaves was assembled one power of
    # two at a time, copying the growing sum: 2.5 s on a 2-core host where
    # reading the masked rows' edges with _edge_arrays and rebuilding the
    # relabelled rows with _pair_rows takes 0.11 s
    n = 2**17 + 1
    rows = [(1 << n) - 2] + [1] * (n - 1)
    order = [0, *range(n - 1, 0, -1)]  # the leaves reversed
    start = time.perf_counter()
    relabelled = gc._relabel(rows, order)
    assert time.perf_counter() - start < 1.0
    assert relabelled == rows


def reference_relabel(rows, order):
    """_relabel one bit at a time: bit i of new row j is bit order[i] of
    rows[order[j]]."""
    return [sum(1 << i for i, u in enumerate(order) if rows[v] >> u & 1) for v in order]


def test_packed_relabel_matches_per_bit_relabel(monkeypatch):
    # orders are empty, single, sorted or shuffled as the search's degree
    # order is, and rows keep bits of vertices outside the order; the rows
    # are a Graph's, symmetric and loopless, as _relabel takes them
    rng = random.Random(1515)
    cases = []
    for n in (0, 1, 2, 7, 8, 9, 15, 17, 63, 65, 106, 183):
        rows = random_graph(n, 0.5, rng).rows
        for m in {m for m in (0, 1, n // 3, n - 1, n) if 0 <= m <= n}:
            order = rng.sample(range(n), m)
            cases += [(rows, order), (rows, sorted(order))]
    for rows, order in cases:
        assert gc._relabel(rows, order) == reference_relabel(rows, order)
    side = math.isqrt(gc._DENSE_BITS)
    assert side * side == gc._DENSE_BITS
    for n in (side, side + 1):  # bit matrix at n * n = _DENSE_BITS, edge arrays past it
        for p in (20 / n, 0.5):  # sparse rows, and dense ones
            rows = random_graph(n, p, rng).rows
            cases += [(rows, rng.sample(range(n), n)), (rows, rng.sample(range(n), n // 2))]
    for rows, order in cases:
        want = gc._relabel(rows, order)
        for dense_bits in (0, len(rows) * len(order)):  # edge arrays, bit matrix
            monkeypatch.setattr(gc, "_DENSE_BITS", dense_bits)
            assert gc._relabel(rows, order) == want
        monkeypatch.undo()


def test_edge_array_relabel_reads_only_kept_columns(monkeypatch):
    # the kept rows are masked before they are read, so a few rows of a star
    # cost their kept bits, not the length of the centre row
    n = 2**15 + 1
    rows = [(1 << n) - 2] + [1] * (n - 1)
    order = [0, 5, 3, n - 1]
    read, edge_arrays = [], gc._edge_arrays
    monkeypatch.setattr(gc, "_edge_arrays", lambda kept_rows, skip: read.extend(kept_rows) or edge_arrays(kept_rows, skip))
    monkeypatch.setattr(gc, "_DENSE_BITS", 0)
    assert gc._relabel(rows, order) == reference_relabel(rows, order)
    kept = sum(1 << v for v in order)
    assert len(read) == len(order) and all(row & ~kept == 0 for row in read)


def test_edge_array_relabel_reads_each_kept_edge_once(monkeypatch):
    # each kept row is read from just past its own vertex, so an edge is
    # yielded once, from its lower endpoint's row, not from both its rows
    yielded, edge_arrays = [], gc._edge_arrays

    def counted(kept_rows, skip):
        for r, c in edge_arrays(kept_rows, skip):
            yielded.append(len(r))
            yield r, c

    monkeypatch.setattr(gc, "_edge_arrays", counted)
    monkeypatch.setattr(gc, "_DENSE_BITS", 0)
    rng = random.Random(2627)
    for n in (0, 1, 2, 9, 40, 130):
        G = random_graph(n, rng.random(), rng)
        for m in (n, n // 2):
            order = rng.sample(range(n), m)
            yielded.clear()
            relabelled = gc._relabel(G.rows, order)
            assert relabelled == reference_relabel(G.rows, order)
            assert sum(yielded) == sum(map(int.bit_count, relabelled)) // 2


def test_induced_matches_pair_scan():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(0, 30)
        G = random_graph(n, rng.random(), rng)
        vs = sorted(rng.sample(range(n), rng.randint(0, n)))
        want = [(i, j) for i, a in enumerate(vs) for j, b in enumerate(vs) if i < j and G.has_edge(a, b)]
        assert list(G.induced(vs).edges()) == want
    with pytest.raises(ValueError):
        petersen().induced([2, 1])


def test_graph_accessors():
    G = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert G.degrees == (1, 2, 2, 1)
    assert G.edge_count == 3
    assert list(G.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert G.neighbors(1) == (0, 2)
    assert G.has_edge(2, 1) and not G.has_edge(0, 3)
    assert G.subgraph_edge_count(0b0111) == 2
    H = G.induced([1, 2, 3])
    assert H.edge_count == 2 and H.n == 3
    with pytest.raises(ValueError):
        G.induced([2, 1])
    C = G.complement()
    assert C.edge_count == 6 - 3


def test_hypergraph_validation():
    # the record takes its sorted hyperedges as built and derives r and the degrees
    H = LinearHypergraph(5, ((0, 1, 2), (2, 3, 4)))
    assert H.r == 3 and H.degrees == (1, 1, 2, 1, 1) and H.edges == ((0, 1, 2), (2, 3, 4))
    assert len(set(H.degrees)) != 1
    with pytest.raises(ValueError):
        H.regular_degree()


def test_pattern_parse():
    assert ForbiddenPattern.parse("k4") == ForbiddenPattern.clique(4)
    assert ForbiddenPattern.parse("triangle") == ForbiddenPattern.clique(3)
    assert ForbiddenPattern.parse("c4") == ForbiddenPattern.c4()
    assert ForbiddenPattern.parse("c5") == ForbiddenPattern.odd_cycle(5)
    assert ForbiddenPattern.parse("k4").name == "k4"
    for bad in ("c6", "k2", "c2", "path"):
        with pytest.raises(ValueError):
            ForbiddenPattern.parse(bad)


# --- clique and independence -------------------------------------------------


def test_independence_small_cases():
    assert gc.independence_number(cycle_graph(5)).value == 2
    assert gc.independence_number(petersen()).value == 4
    assert gc.independence_number(complete_graph(6)).value == 1
    empty = Graph(5, [0] * 5)
    r = gc.independence_number(empty)
    assert r.value == 5 and r.witness == (0, 1, 2, 3, 4)


def test_independence_disjoint_cliques():
    # m disjoint copies of K_{d+1}: alpha = m, one vertex per clique
    m, d = 4, 3
    edges = []
    for c in range(m):
        base = c * (d + 1)
        edges += [
            (base + i, base + j) for i in range(d + 1) for j in range(i + 1, d + 1)
        ]
    G = Graph.from_edges(m * (d + 1), edges)
    res = gc.independence_number(G)
    assert res.value == m
    assert gc.Graph.subgraph_edge_count(G, sum(1 << v for v in res.witness)) == 0


def test_independence_matches_brute_force():
    rng = random.Random(20260814)
    for _ in range(40):
        n = rng.randint(1, 14)
        G = random_graph(n, rng.uniform(0.1, 0.9), rng)
        res = gc.independence_number(G)
        assert res.exact
        assert res.value == brute_alpha(G)
        mask = sum(1 << v for v in res.witness)
        assert G.subgraph_edge_count(mask) == 0 and len(res.witness) == res.value


def test_turan_floor():
    rng = random.Random(99)
    for _ in range(30):
        G = random_graph(rng.randint(1, 16), rng.random(), rng)
        floor = -(-G.n // (max(G.degrees) + 1))
        assert gc.independence_number(G).value >= floor


def test_budget_gives_certified_interval():
    rng = random.Random(5)
    G = random_graph(40, 0.5, rng)
    res = gc.independence_number(G, budget=3)
    assert not res.exact
    assert res.lower <= res.upper
    exact = gc.independence_number(G).value
    assert res.lower <= exact <= res.upper
    with pytest.raises(gc.UndecidedError):
        res.value


def test_closed_budget_interval_is_decided():
    # the budget runs out after the search has found a 3-set and the
    # colouring bound is 3 too, so alpha is decided though the search is not
    G = Graph.from_edges(9, [
        (0, 5), (1, 2), (1, 6), (1, 7), (1, 8), (2, 4), (2, 5), (2, 7), (2, 8), (3, 4),
        (3, 6), (3, 7), (3, 8), (4, 5), (4, 6), (4, 8), (5, 6), (5, 7), (7, 8),
    ])
    res = gc.independence_number(G, budget=3)
    assert (res.lower, res.upper, res.witness) == (3, 3, (0, 4, 7))
    assert res.exact and res.value == 3 == brute_alpha(G)


def complete_tripartite(k: int) -> Graph:
    return Graph.from_edges(
        3 * k, [(u, v) for u in range(3 * k) for v in range(u + 1, 3 * k) if u // k != v // k]
    )


def test_budget_interval_independence_bound_from_complement():
    # K_{10,10,10}: alpha = 10 (one part), omega = 3; the search stops at
    # once, so the upper end is the coloring bound, which must bound alpha
    res = gc.independence_number(complete_tripartite(10), budget=1)
    assert not res.exact
    assert res.lower <= 10 <= res.upper


def test_independence_queries_build_no_complement(monkeypatch):
    def refuse(self):
        raise AssertionError("complement graph built")

    monkeypatch.setattr(Graph, "complement", refuse)
    assert gc.independence_number(complete_tripartite(10)).value == 10
    res = gc.independence_number(complete_tripartite(10), budget=1)
    assert not res.exact and res.upper >= 10
    G = random_graph(30, 0.4, random.Random(8))
    for t in (0, 1, 2, 3, 6):
        assert len(gc.find_independent_set(G, t)) == t
    assert gc.find_independent_set(complete_graph(5), 2) is None


def test_undecided_searches_name_what_they_seek():
    G = random_graph(30, 0.5, random.Random(3))
    with pytest.raises(gc.UndecidedError, match=r"^clique\(6\) search exhausted budget 1$"):
        gc.find_clique(G, 6, budget=1)
    with pytest.raises(gc.UndecidedError, match=r"^independent set\(6\) search exhausted budget 1$"):
        gc.find_independent_set(G, 6, budget=1)


def test_independence_equals_clique_of_complement():
    # the complement is searched inside the search frame; every answer,
    # witness and budget outcome must equal the search on the complement
    # graph
    undecided = []

    def outcome(query, *args):
        try:
            return query(*args)
        except gc.UndecidedError as exc:
            undecided.append(exc)
            return str(exc)

    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(0, 40)
        G = random_graph(n, rng.uniform(0.05, 0.95), rng)
        C = G.complement()
        alpha = gc.independence_number(G).value
        for budget in (None, 1, 3, 50):
            for t in range(alpha + 2):
                got = outcome(gc.find_independent_set, G, t, budget)
                want = outcome(gc.find_clique, C, t, budget)
                if isinstance(want, str):  # the same search, named for what it seeks
                    want = want.replace("clique(", "independent set(")
                assert got == want
    assert undecided


def reference_color_order(P: int, adj) -> tuple[list[int], list[int]]:
    """Greedy colouring of P: the vertices grouped by colour class, with
    their 1-based colours, in two parallel lists."""
    order, colors, un, c = [], [], P, 0
    while un:
        c += 1
        avail = un
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= ~(adj[v] | (1 << v))
            un &= ~(1 << v)
            order.append(v)
            colors.append(c)
    return order, colors


def reference_clique_search(G: Graph, budget, target, complement=False):
    """Reference branch and bound with greedy-colouring bounds: a state
    object and one exception per way of stopping.  It relabels by descending
    degree in the searched graph and builds the searched rows in full."""

    class Exhausted(Exception):
        pass

    class TargetReached(Exception):
        pass

    class State:
        best, best_set, nodes = 0, (), 0

    st = State()

    def expand(R, P, adj):
        st.nodes += 1
        if budget is not None and st.nodes > budget:
            raise Exhausted
        order, colors = reference_color_order(P, adj)
        for i in range(len(order) - 1, -1, -1):
            if len(R) + colors[i] <= st.best:
                return
            v = order[i]
            R.append(v)
            new_p = P & adj[v]
            if new_p:
                expand(R, new_p, adj)
            elif len(R) > st.best:
                st.best, st.best_set = len(R), tuple(R)
                if target is not None and st.best >= target:
                    raise TargetReached
            R.pop()
            P &= ~(1 << v)

    n = G.n
    if n == 0:
        return 0, (), "complete", 0
    sign = 1 if complement else -1
    perm = sorted(range(n), key=lambda v: (sign * G.degrees[v], v))
    inv = sorted(range(n), key=perm.__getitem__)
    adj = [0] * n
    for old in range(n):
        adj[inv[old]] = sum(1 << inv[u] for u in G.neighbors(old))
    if complement:
        adj = [((1 << n) - 1) ^ row ^ (1 << i) for i, row in enumerate(adj)]
    status = "complete"
    try:
        expand([], (1 << n) - 1, adj)
    except TargetReached:
        status = "target"
    except Exhausted:
        status = "budget"
    return st.best, tuple(sorted(perm[v] for v in st.best_set)), status, st.nodes


def reference_interval(G: Graph, budget, complement: bool) -> gc.AlphaResult:
    best, witness, status, _ = reference_clique_search(G, budget, None, complement)
    if status == "complete":
        return gc.AlphaResult(best, best, witness)
    # the colours of the searched graph, in its own labels, bound its clique number
    H = G.complement() if complement else G
    colors = reference_color_order((1 << H.n) - 1, H.rows)[1]
    return gc.AlphaResult(best, colors[-1], witness)


def test_clique_search_matches_reference():
    # the same search tree as the reference, node for node: every size,
    # witness, status and node count, including the node at which a budget
    # runs out
    rng = random.Random(1509)
    statuses = Counter()
    for _ in range(120):
        G = random_graph(rng.randint(0, 30), rng.uniform(0.1, 0.9), rng)
        for budget in (None, 1, 3, 17, 200):
            for complement in (False, True):
                for target in (None, 2, 3, 5, 8):
                    got = gc._max_clique_search(G, budget, target, complement)
                    assert got == reference_clique_search(G, budget, target, complement)
                    statuses[got[2]] += 1
            assert gc.independence_number(G, budget) == reference_interval(G, budget, True)
    assert min(statuses[s] for s in ("complete", "target", "budget")) > 100


def test_find_clique_seeks_only_s_sets_with_the_same_witness():
    # the floor s - 1 prunes only subtrees that hold no s-set and does not
    # steer the branching: the first s-set, the witness, is the floor-0
    # search's, and a budget that decided that search decides this one
    rng = random.Random(1717)
    decided_by_floor = 0
    for _ in range(50):
        G = random_graph(rng.randint(4, 26), rng.uniform(0.2, 0.8), rng)
        for s in range(3, 8):
            for complement in (False, True):
                find = gc.find_independent_set if complement else gc.find_clique
                for budget in (None, 4, 30, 300):
                    best, witness, status, _ = gc._max_clique_search(G, budget, s, complement)
                    try:
                        got = find(G, s, budget)
                    except gc.UndecidedError:
                        assert status == "budget"
                        continue
                    if status == "budget":
                        decided_by_floor += 1
                        continue
                    assert got == (witness[:s] if best >= s else None)
    assert decided_by_floor > 0


def test_sizes_above_n_are_not_searched(monkeypatch):
    # no clique or independent set has more than n vertices
    def refuse(*args, **kwargs):
        raise AssertionError("searched for a set larger than the graph")

    monkeypatch.setattr(gc, "_max_clique_search", refuse)
    for G in (Graph(0, []), petersen(), complete_graph(6), Graph(5, [0] * 5)):
        assert gc.find_clique(G, G.n + 1) is None
        assert gc.find_independent_set(G, G.n + 1, budget=1) is None
        if G.n >= 2:
            assert gc.is_pattern_free(G, ForbiddenPattern.clique(G.n + 1)) == (True, None)


def test_find_clique_and_independent_set():
    G = petersen()
    assert gc.find_clique(G, 3) is None
    w = gc.find_independent_set(G, 4)
    assert w is not None and len(w) == 4
    assert G.subgraph_edge_count(sum(1 << v for v in w)) == 0
    with pytest.raises(gc.UndecidedError):
        gc.find_clique(complete_graph(30), 25, budget=2)


# --- verified symmetry ------------------------------------------------------------


def reflection_graphs():
    """(name, graph, reflections) for the criterion-5 families with
    reflections whose plain alpha takes under a second."""
    for q in (3, 5, 7):
        yield f"er{q}", geo.polarity_graph(q), geo.polarity_reflections(q)
    for q, s in ((5, 1), (7, 1), (5, 2), (7, 2), (9, 2), (11, 2), (13, 2), (3, 3), (5, 3)):
        yield f"bip({q},{s})", geo.bip_graph(q, s, "symmetrized"), geo.bip_reflections(q, s)


def test_automorphisms_reject_non_automorphisms():
    G = geo.polarity_graph(5)
    reflection = list(geo.polarity_reflections(5)[0])
    gc.Automorphisms(G, [reflection])
    swapped = reflection[:]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    repeated = reflection[:]
    repeated[1] = repeated[0]
    with pytest.raises(ValueError) as rejected:
        gc.Automorphisms(G, [reflection, swapped])
    assert str(rejected.value) == "generator 1 does not map row 0 onto the row of its image 1"
    for bad, reason in (
        (swapped, "does not map row"),
        (repeated, "not a permutation"),
        (reflection[:-1], "labels for"),
        ([float(v) for v in reflection], "not an integer"),
    ):
        with pytest.raises(ValueError, match=reason):
            gc.Automorphisms(G, [reflection, bad])
    symmetry = gc.Automorphisms(G, [reflection])
    with pytest.raises(ValueError, match="another graph"):
        gc.independence_number(G.drop_vertex(0), symmetry=symmetry)


def test_automorphisms_past_the_dense_relabel():
    # ER_37 has 1407 vertices, and 1407^2 bits pass _DENSE_BITS, so the
    # generators are checked on _relabel's edge-array path
    G = geo.polarity_graph(37)
    assert G.n**2 > gc._DENSE_BITS
    reflections = geo.polarity_reflections(37)
    assert len(gc.Automorphisms(G, reflections).perms) == len(reflections) == 11
    swapped = list(reflections[0])
    swapped[0], swapped[1] = swapped[1], swapped[0]
    with pytest.raises(ValueError) as rejected:
        gc.Automorphisms(G, [reflections[0], swapped])
    assert str(rejected.value) == "generator 1 does not map row 0 onto the row of its image 1"


def is_sorted_independent_set(G, vs, size):
    return (
        len(vs) == size
        and list(vs) == sorted(set(vs))
        and all(0 <= v < G.n for v in vs)
        and G.subgraph_edge_count(sum(1 << v for v in vs)) == 0
    )


def test_orbital_alpha_matches_plain_search():
    # the same alpha, and the same answer to "is there a t-set" at
    # t = alpha and alpha + 1; each orbital witness is a sorted independent
    # set of the size asked for; half the generators give the same alpha
    for name, G, perms in reflection_graphs():
        plain = gc.independence_number(G)
        symmetry = gc.Automorphisms(G, perms)
        orbital = gc.independence_number(G, symmetry=symmetry)
        assert (orbital.lower, orbital.upper, orbital.exact) == (plain.lower, plain.upper, True)
        a = plain.value
        assert is_sorted_independent_set(G, orbital.witness, a), name
        for t in (3, a - 1, a):
            found = gc.find_independent_set(G, t, symmetry=symmetry)
            assert is_sorted_independent_set(G, found, t), (name, t)
        assert gc.find_independent_set(G, a + 1, symmetry=symmetry) is None, name
        half = gc.Automorphisms(G, perms[::2])
        assert gc.independence_number(G, symmetry=half).value == a, name


def test_orbital_alpha_small_witnesses():
    # alpha 1 and 2 are settled by the branch vertices alone, before any leaf
    # search; the rotations of a cycle and a clique are automorphisms
    clique = Graph.from_edges(4, itertools.combinations(range(4), 2))
    for G in (cycle_graph(5), cycle_graph(6), cycle_graph(7), clique):
        symmetry = gc.Automorphisms(G, [[(v + 1) % G.n for v in range(G.n)]])
        a = gc.independence_number(G).value
        result = gc.independence_number(G, symmetry=symmetry)
        assert result.exact and is_sorted_independent_set(G, result.witness, a), G


def test_orbital_searches_make_no_whole_graph_search(monkeypatch):
    # orbital branching returns its own witness: the plain engine runs on
    # the leaves only, never on all of G
    search = gc._max_clique_search
    searched = []

    def recorded(G, *args):
        searched.append(G.n)
        return search(G, *args)

    monkeypatch.setattr(gc, "_max_clique_search", recorded)
    for name, G, perms in reflection_graphs():
        symmetry = gc.Automorphisms(G, perms)
        a = gc.independence_number(G, symmetry=symmetry).value
        gc.find_independent_set(G, a, symmetry=symmetry)
        gc.find_independent_set(G, a + 1, symmetry=symmetry)
        assert searched and max(searched) < G.n, name
        searched.clear()


def test_orbital_alpha_bip_7_3():
    G = geo.bip_graph(7, 3, "symmetrized")
    result = gc.independence_number(G, symmetry=gc.Automorphisms(G, geo.bip_reflections(7, 3)))
    assert result.exact and result.value == 30
    assert len(result.witness) == 30
    assert G.subgraph_edge_count(sum(1 << v for v in result.witness)) == 0


def test_budgeted_orbital_searches_share_the_budget(monkeypatch):
    # a budget bounds the orbital leaf searches together; each interval holds
    # alpha, its witness is an independent set, and a decided search for an
    # independent t-set gives the unbudgeted answer
    search = gc._max_clique_search
    used = []

    def recorded(*args):
        result = search(*args)
        used.append(result[3])
        return result

    monkeypatch.setattr(gc, "_max_clique_search", recorded)
    for G, perms in (
        (geo.bip_graph(11, 2, "symmetrized"), geo.bip_reflections(11, 2)),
        (geo.polarity_graph(7), geo.polarity_reflections(7)),
    ):
        symmetry = gc.Automorphisms(G, perms)
        alpha = gc.independence_number(G, symmetry=symmetry).value
        sets = {t: gc.find_independent_set(G, t, symmetry=symmetry) for t in (alpha, alpha + 1)}
        exact = []
        for budget in (1, 30, 300, 3000, 10**6):
            used.clear()
            result = gc.independence_number(G, budget, symmetry)
            assert result.lower <= alpha <= result.upper, (G, budget)
            assert is_sorted_independent_set(G, result.witness, result.lower), (G, budget)
            assert sum(used) <= budget + 1, (G, budget)
            exact.append(result.exact)
            for t, found in sets.items():
                used.clear()
                try:
                    assert gc.find_independent_set(G, t, budget, symmetry) == found
                except gc.UndecidedError:
                    pass
                assert sum(used) <= budget + 1, (G, budget, t)
        # the plain search on all of G is still undecided after 3000 nodes
        assert not exact[0] and exact[3:] == [True, True], G


def test_drop_vertex_matches_induced():
    rng = random.Random(2210)
    for _ in range(40):
        n = rng.randint(1, 40)
        G = random_graph(n, rng.random(), rng)
        alive = sorted(rng.sample(range(n), rng.randint(1, n)))
        sub = G.induced(alive)
        while alive:
            victim = rng.randrange(len(alive))
            del alive[victim]
            sub = sub.drop_vertex(victim)
            want = G.induced(alive)
            assert (sub.n, sub.rows, sub.degrees, sub.edge_count) == (
                want.n, want.rows, want.degrees, want.edge_count
            )
            ref.assert_simple(sub)
    with pytest.raises(ValueError):
        petersen().drop_vertex(10)


# --- pattern freeness ------------------------------------------------------------


def test_clique_pattern():
    free, witness = gc.is_pattern_free(complete_graph(4), ForbiddenPattern.clique(4))
    assert not free and ref.validate_witness(complete_graph(4), ForbiddenPattern.clique(4), witness)
    assert gc.is_pattern_free(petersen(), ForbiddenPattern.clique(3)) == (True, None)


def test_clique_screen_keeps_the_search_answer():
    # seeded random graphs, K_s free and not, with and without an edge whose
    # endpoints share s - 2 neighbours: the screened check answers as the
    # plain search, witness included
    rng = random.Random(12)
    seen = Counter()
    for _ in range(300):
        G = random_graph(rng.randint(4, 24), rng.uniform(0.05, 0.6), rng)
        for s in (3, 4, 5):
            w = gc.find_clique(G, s)
            want = (True, None) if w is None else (False, list(w))
            assert gc.is_pattern_free(G, ForbiddenPattern.clique(s)) == want
            seen[want[0], gc._edge_with_common(G.rows, s - 2)] += 1
    # free graphs passed and failed by the screen, and graphs with a K_s
    assert set(seen) == {(True, False), (True, True), (False, True)}
    assert min(seen.values()) >= 50


def test_clique_screen_matches_pair_scan_on_dense_rows():
    # dense rows, whose bytes are nearly all nonzero and unpacked
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(60, 120)
        G = random_graph(n, rng.uniform(0.4, 0.9), rng)
        common = max(
            (G.rows[u] & G.rows[v]).bit_count()
            for u, v in itertools.combinations(range(n), 2)
            if G.has_edge(u, v)
        )
        for k in (common, common + 1):
            assert gc._edge_with_common(G.rows, k) == (k <= common)


def test_clique_screen_linear_in_row_length():
    # the centre row of a star with 2^18 leaves was shifted past each of its
    # bits in turn: 5.5 s on a 2-core host where reading its edges with
    # _edge_arrays, which unpacks only the nonzero bytes, takes 0.09 s
    n = 2**18 + 1
    rows = [(1 << n) - 2] + [1] * (n - 1)
    start = time.perf_counter()
    assert not gc._edge_with_common(rows, 1)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13])
def test_clique_screen_decides_polarity_k4_without_search(q, monkeypatch):
    # two vertices of the C4-free ER_q share at most one neighbour, so no
    # edge can lie in a K4 and the search never runs
    def refuse(*args, **kwargs):
        raise AssertionError("clique search ran")

    G = geo.polarity_graph(q)
    monkeypatch.setattr(gc, "_max_clique_search", refuse)
    assert gc.is_pattern_free(G, ForbiddenPattern.clique(4)) == (True, None)
    assert gc.is_pattern_free(G, ForbiddenPattern.clique(5)) == (True, None)
    with pytest.raises(AssertionError, match="clique search ran"):
        gc.is_pattern_free(G, ForbiddenPattern.clique(4), budget=10**6)


def test_c4_pattern():
    K22 = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    free, w = gc.is_pattern_free(K22, ForbiddenPattern.c4())
    assert not free and ref.validate_witness(K22, ForbiddenPattern.c4(), w)
    assert gc.is_pattern_free(petersen(), ForbiddenPattern.c4()) == (True, None)
    assert gc.is_pattern_free(cycle_graph(4), ForbiddenPattern.c4())[0] is False


def pair_dict_c4(G: Graph):
    """Reference 4-cycle search: record each pair of neighbours of every
    centre w in a dict; the first pair seen twice closes a 4-cycle."""
    seen = {}
    for w in range(G.n):
        nbrs = G.neighbors(w)
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                pair = (nbrs[i], nbrs[j])
                if pair in seen:
                    return [pair[0], seen[pair], pair[1], w]
                seen[pair] = w
    return None


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, k in zip(pairs, keep) if k])


@settings(max_examples=400, deadline=None)
@given(small_graphs())
def test_c4_matches_common_neighbour_scan(G):
    has_c4 = any(
        (G.rows[a] & G.rows[b]).bit_count() >= 2 for a, b in itertools.combinations(range(G.n), 2)
    )
    free, witness = gc.is_pattern_free(G, ForbiddenPattern.c4())
    assert free == (not has_c4)
    assert witness == pair_dict_c4(G)
    if not free:
        assert ref.validate_witness(G, ForbiddenPattern.c4(), witness)


def test_c4_check_memory():
    # storing every pair of neighbours of every centre takes 13 MB here;
    # one common-neighbour mask per vertex takes well under 2 MB
    G = geo.polarity_graph(23)
    tracemalloc.start()
    try:
        assert gc.is_pattern_free(G, ForbiddenPattern.c4()) == (True, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_c4_check_memory_on_star():
    # a star fills each leaf's mask with every other leaf; keeping only the
    # bits above the leaf halves that, from 2.27 MiB to 1.20 MiB here
    n = 4096
    star = Graph.from_edges(n, [(i, n - 1) for i in range(n - 1)])
    tracemalloc.start()
    try:
        assert gc.is_pattern_free(star, ForbiddenPattern.c4()) == (True, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.7 * 2**20


def test_odd_cycle_pattern():
    for n in (5, 7, 9):
        free, w = gc.is_pattern_free(cycle_graph(n), ForbiddenPattern.odd_cycle(n))
        assert not free and ref.validate_witness(cycle_graph(n), ForbiddenPattern.odd_cycle(n), w)
    # C7 contains no C5
    assert gc.is_pattern_free(cycle_graph(7), ForbiddenPattern.odd_cycle(5)) == (True, None)
    # bipartite graphs contain no odd cycle at all
    K33 = Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    assert gc.is_pattern_free(K33, ForbiddenPattern.odd_cycle(5)) == (True, None)
    # triangle plus pendant path has odd girth 3 but no C5 (forces exact search)
    G = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])
    assert gc.is_pattern_free(G, ForbiddenPattern.odd_cycle(5)) == (True, None)
    # Petersen: girth 5, so C5 exists but no C3
    free, w = gc.is_pattern_free(petersen(), ForbiddenPattern.odd_cycle(5))
    assert not free and ref.validate_witness(petersen(), ForbiddenPattern.odd_cycle(5), w)


def pendant_cycles() -> list[Graph]:
    """Odd cycles hanging off vertex 0 by a path, and a triangle and a C5 both
    hanging off it: the first breadth-first search, from 0, meets each cycle
    as a closed walk through the path, not as a simple cycle."""

    def cycle(start: int, k: int) -> list[tuple[int, int]]:
        return [(start + i, start + (i + 1) % k) for i in range(k)]

    graphs = []
    for k, tail in ((3, 1), (3, 2), (5, 1), (5, 3), (7, 2)):
        graphs.append(Graph.from_edges(tail + k, [(i, i + 1) for i in range(tail)] + cycle(tail, k)))
    graphs.append(Graph.from_edges(9, [(0, 1), (0, 4)] + cycle(1, 3) + cycle(4, 5)))
    return graphs


def test_odd_cycle_matches_brute_force():
    rng = random.Random(321)
    graphs = [random_graph(rng.randint(3, 9), rng.uniform(0.2, 0.7), rng) for _ in range(30)]
    for G in graphs + pendant_cycles():
        n, shortest = G.n, None
        for k in (3, 5, 7):
            if k > n:
                continue
            brute = False
            for perm in itertools.permutations(range(n), k):
                if perm[0] == min(perm) and all(
                    G.has_edge(perm[i], perm[(i + 1) % k]) for i in range(k)
                ):
                    brute = True
                    break
            shortest = shortest or (k if brute else None)
            free, w = gc.is_pattern_free(G, ForbiddenPattern.odd_cycle(k))
            assert free == (not brute)
            if not free:
                assert ref.validate_witness(G, ForbiddenPattern.odd_cycle(k), w)
        if shortest is not None:  # the witness is a simple cycle of odd-girth length
            girth, cycle = gc._odd_girth(G)
            assert girth == shortest
            assert ref.validate_witness(G, ForbiddenPattern.odd_cycle(girth), cycle)


def test_odd_girth_pinned():
    # the odd girth and witness cycle of 300 random graphs, 184 of them not
    # bipartite, hashed as the breadth-first search from each root in turn
    # first found them
    rng = random.Random(2029)
    results = []
    for _ in range(300):
        n, p = rng.randint(1, 20), rng.uniform(0.05, 0.5)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        results.append(gc._odd_girth(Graph.from_edges(n, edges)))
    assert sum(r is not None for r in results) == 184
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == "f1211c91a0ddf1bd4add1989c42a8cb3e29f4f561e4145d5f335fbab0a0f2502"


def test_odd_cycle_longer_than_graph_is_not_searched():
    # a simple k-cycle needs k vertices, so these are decided without a search
    start = time.perf_counter()
    assert gc.is_pattern_free(geo.polarity_graph(4), ForbiddenPattern.odd_cycle(23)) == (True, None)
    assert time.perf_counter() - start < 1.0
    assert gc.is_pattern_free(cycle_graph(7), ForbiddenPattern.odd_cycle(7))[0] is False


def walk_until_undecided(walk, G: Graph, k: int, budget) -> tuple[list, bool]:
    """The cycles a walk yields, and whether its budget ran out after them."""
    cycles = []
    try:
        for cycle in walk(G, k, budget):
            cycles.append(cycle)
    except gc.UndecidedError:
        return cycles, True
    return cycles, False


def test_cycle_walk_matches_recursive_reference():
    # the same cycles in the same order, and the budget runs out after the
    # same cycle: both walks count one node per path vertex entered
    rng = random.Random(2027)
    seen = Counter()
    for _ in range(30):
        G = random_graph(rng.randint(3, 12), rng.uniform(0.2, 0.6), rng)
        for k in (3, 5, 7, 9):
            for budget in (None, 1, 5, 50):
                got = walk_until_undecided(gc._iter_cycles_exact, G, k, budget)
                assert got == walk_until_undecided(ref.iter_cycles_exact, G, k, budget)
                seen[got[1], bool(got[0])] += 1
    assert len(seen) == 4  # found cycles and none, with and without running out


def test_triangle_count_matches_spectra_free_reference():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(3, 14)
        G = random_graph(n, rng.random(), rng)
        brute = sum(
            1
            for a, b, c in itertools.combinations(range(n), 3)
            if G.has_edge(a, b) and G.has_edge(b, c) and G.has_edge(a, c)
        )
        assert gc.triangle_count(G) == brute


# --- linear hypergraphs -----------------------------------------------------


@st.composite
def linear_hypergraphs(draw):
    """Small linear uniform hypergraphs: of the drawn hyperedges, each is
    kept unless it repeats a vertex pair of one kept before it."""
    n = draw(st.integers(2, 9))
    r = draw(st.integers(1, min(n, 4)))
    edge = st.lists(st.integers(0, n - 1), min_size=r, max_size=r, unique=True)
    edges, pairs = [], set()
    for e in draw(st.lists(edge, min_size=1, max_size=7)):
        e = tuple(sorted(e))
        if pairs.isdisjoint(itertools.combinations(e, 2)):
            pairs.update(itertools.combinations(e, 2))
            edges.append(e)
    return n, tuple(edges)


@settings(max_examples=400, deadline=None)
@given(linear_hypergraphs())
def test_linearity_matches_pair_count_oracle(case):
    n, edges = case
    H = LinearHypergraph(n, edges)
    assert H.r == len(edges[0])
    degrees = Counter(v for e in edges for v in e)
    assert H.degrees == tuple(degrees[v] for v in range(n))
    if len(set(H.degrees)) == 1:
        assert H.regular_degree() == H.degrees[0]
    else:
        with pytest.raises(ValueError, match="not regular"):
            H.regular_degree()
    assert H.edges == edges


# --- interchange ------------------------------------------------------------------


def test_graph_io_roundtrip():
    G = petersen()
    buf = io.StringIO()
    gc.write_graph(G, buf, {"family": "petersen"})
    text = buf.getvalue()
    assert text.splitlines()[0].startswith("# {")
    G2, header = gc.read_graph(io.StringIO(text))
    assert G2 == G and header["family"] == "petersen" and header["n"] == 10


def reference_edge_list(G: Graph) -> str:
    """write_graph's body, from a pair scan."""
    return "".join(f"{u} {v}\n" for u in range(G.n) for v in range(u + 1, G.n) if G.has_edge(u, v))


def reference_read(text: str) -> Graph:
    """The edge-list reader before the numpy parse: each line's words, with
    int() of each and a loop and range check per edge, in file order."""
    fh = io.StringIO(text)
    first = fh.readline()
    if not first.startswith("#"):
        raise ValueError("missing header line")
    header = json.loads(first[1:].strip())
    n = header.get("n") if isinstance(header, dict) else None
    if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n <= gc.MAX_READ_VERTICES:
        raise ValueError("bad n")
    rows = [0] * n
    for words in map(str.split, fh):
        if words and words[0][0] != "#":
            u, v = words
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(n, rows)


# (body after a '# {"n": 11}' header, the edges it gives or ValueError); the
# reference reader gives the same for each
READER_CASES = [
    ("0 1\n1 2 # c\n", ValueError),  # no comment after a vertex
    ("0 1 2\n", ValueError),
    ("0 1 2\n3 4 5\n", ValueError),  # six words, but not in pairs
    ("1\n", ValueError),
    ("1\n2\n", ValueError),
    ("a b\n", ValueError),
    ("1.5 2\n", ValueError),
    ("-1 2\n", ValueError),
    ("11 0\n", ValueError),
    ("0 11\n", ValueError),
    ("0 0\n", ValueError),
    ("99999999999999999999 1\n", ValueError),  # never an OverflowError
    ("\n\n0 1\n\n", {(0, 1)}),
    ("#x\n0 1\n  # y\n", {(0, 1)}),
    ("+1 2\n", {(1, 2)}),
    (" 1\t2 \r\n", {(1, 2)}),
    ("1 2\n2 1\n1 2\n", {(1, 2)}),
    ("", set()),
    ("\n  \n# only a comment", set()),
]


@pytest.mark.parametrize("body, want", READER_CASES)
def test_reader_semantics(body, want):
    text = '# {"n": 11}\n' + body
    if want is ValueError:
        with pytest.raises(ValueError):
            gc.read_graph(io.StringIO(text))
        with pytest.raises(ValueError):
            reference_read(text)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty body warns nothing
        G, _ = gc.read_graph(io.StringIO(text))
    assert set(G.edges()) == want and G == reference_read(text)


@pytest.mark.parametrize("read_chars", [5, 40, 2**16])
@pytest.mark.parametrize("bad", ["0 1 # x", "0 1 2", "0 x", "7", "99999999999 1", "1\r2", "\r  ", "\r\r"])
def test_reader_names_the_malformed_line(read_chars, bad):
    # past the first block of the body, after comment and blank lines; the
    # header is line 1
    good = "0 1\n# note\n\n2 1\n" * (read_chars // 12 + 3)
    text = '# {"n": 3}\n' + good + "1 2\n" + bad + "\n0 1 2\n"
    line = 1 + good.count("\n") + 2
    message = f"line {line} is not two vertex numbers: {bad!r}"
    with mock.patch.object(gc, "_READ_CHARS", read_chars):
        with pytest.raises(ValueError, match=re.escape(message)):
            gc.read_graph(io.StringIO(text))


def test_reader_range_is_per_header():
    with pytest.raises(ValueError, match=re.escape("edge (0,5) out of range")):
        gc.read_graph(io.StringIO('# {"n": 3}\n0 5\n'))


def test_reader_names_the_first_bad_edge():
    body = "0 1\n7 2\n3 3\n0 12\n4 4\n"
    for text_chars in (1, 5, 2**16):  # one block of lines, or several
        with mock.patch.object(gc, "_READ_CHARS", text_chars):
            for lines, message in ((body, "edge (7,2) out of range"), (body.replace("7 2", "1 2"), "loop at vertex 3")):
                with pytest.raises(ValueError, match=re.escape(message)):
                    gc.read_graph(io.StringIO('# {"n": 5}\n' + lines))
    with pytest.raises(ValueError, match=re.escape("loop at vertex 3")):
        Graph.from_edges(5, [(0, 1), (3, 3), (0, 12)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(3, [(10**20, 1)])
    with pytest.raises(TypeError):
        Graph.from_edges(3, [(0.0, 1.0)])


NOISE_LINES = ["", "  ", "# note", "   #x 1 2"]


@st.composite
def noisy_edge_lists(draw):
    """A random graph and its edge list with comment and blank lines, reversed
    and repeated edges inserted, and the block sizes of the conversions."""
    n = draw(st.integers(0, 24))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    G = Graph.from_edges(n, [p for p, k in zip(pairs, keep) if k])
    edges = list(G.edges())
    styles = draw(st.lists(st.integers(0, 9), min_size=len(edges), max_size=len(edges)))
    lines = []
    for (u, v), style in zip(edges, styles):
        lines.append([f"{u} {v}", f"{v} {u}", f" {u}\t{v} \r"][style % 3])
        if style >= 3:  # one more line after it: noise, or the edge again
            lines.append((NOISE_LINES + [f"{u} {v}", f"{v} {u}", f"{u}  {v}"])[style - 3])
    sizes = draw(st.tuples(st.sampled_from([1, 7, 2**16]), st.sampled_from([1, 5, 2**16]),
                           st.sampled_from([40, 2**16])))
    return G, "\n".join(lines), sizes


@settings(max_examples=60, deadline=None)
@given(noisy_edge_lists(), st.permutations(range(24)))
def test_graph_io_roundtrip_with_noise(case, perm):
    # the other bulk readers of rows are checked under the same block sizes
    G, body, (scan_bytes, row_bytes, read_chars) = case
    common = [
        (G.rows[u] & G.rows[v]).bit_count()
        for u, v in itertools.combinations(range(G.n), 2) if G.has_edge(u, v)
    ]
    triangles = sum(
        1 for a, b, c in itertools.combinations(range(G.n), 3)
        if G.has_edge(a, b) and G.has_edge(b, c) and G.has_edge(a, c)
    )
    order = [v for v in perm if v < G.n]
    with mock.patch.multiple(gc, _SCAN_BYTES=scan_bytes, _ROW_BYTES=row_bytes, _READ_CHARS=read_chars,
                             _DENSE_BITS=0):
        buf = io.StringIO()
        gc.write_graph(G, buf)
        assert buf.getvalue() == f'# {{"n": {G.n}}}\n' + reference_edge_list(G)
        assert gc.read_graph(io.StringIO(buf.getvalue()))[0] == G
        H, _ = gc.read_graph(io.StringIO(f'# {{"n": {G.n}}}\n{body}'))
        for k in (1, 2):
            assert gc._edge_with_common(G.rows, k) == any(c >= k for c in common)
        assert gc.triangle_count(G) == triangles
        for kept in (order, order[: G.n // 2]):
            assert gc._relabel(G.rows, kept) == reference_relabel(G.rows, kept)
    assert H == G and list(H.edges()) == list(G.edges())


MUTATION_CHARS = "0123456789  \t\n\r#+-_.ae\x0b\x0c\x1c\x85\xa0\u3000\u0661\x00,"


@settings(max_examples=150, deadline=None)
@given(noisy_edge_lists(), st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 2),
                                              st.sampled_from(MUTATION_CHARS)), min_size=1, max_size=6))
def test_reader_mutations_match_reference(case, edits):
    G, body, (_, _, read_chars) = case
    text = list(f'# {{"n": {G.n}}}\n{body}')
    for at, kind, ch in edits:  # insert, replace or delete one character
        at %= len(text) + 1
        if kind == 0:
            text.insert(at, ch)
        elif at < len(text):
            text[at : at + 1] = [ch] if kind == 1 else []
    text = "".join(text)
    try:
        want = reference_read(text)
    except ValueError:
        want = ValueError
    with mock.patch.object(gc, "_READ_CHARS", read_chars):
        try:
            got = gc.read_graph(io.StringIO(text))[0]
        except ValueError:
            # what the reference took is refused only for the declared reasons:
            # a digit-group underscore, a non-ASCII digit, a carriage return
            # inside a line
            assert want is ValueError or re.search(r"_|[^\x00-\x7f]|\r(?!\n)", text)
            return
    assert got == want


def test_hypergraph_io_roundtrip():
    H = LinearHypergraph(5, [(0, 1, 2), (2, 3, 4)])
    buf = io.StringIO()
    gc.write_hypergraph(H, buf, {"family": "demo"})
    H2, header = ref.read_hypergraph(io.StringIO(buf.getvalue()))
    assert H2.edges == H.edges and header["r"] == 3


def test_read_graph_requires_header():
    with pytest.raises(ValueError):
        gc.read_graph(io.StringIO("0 1\n"))


@pytest.mark.parametrize(
    "header",
    ['[1]', '{"n": 3.7}', '{"n": 100000000000}', '{"n": -1}', '{"n": true}', '{}', '{"n": "3"}'],
)
def test_readers_reject_malformed_header(header):
    for reader in (gc.read_graph, ref.read_hypergraph):
        with pytest.raises(ValueError, match="header"):
            reader(io.StringIO(f"# {header}\n0 1\n"))


def test_reader_vertex_cap():
    assert gc.read_graph(io.StringIO('# {"n": 0}\n'))[0].n == 0
    with pytest.raises(ValueError, match="header"):
        gc.read_graph(io.StringIO(f'# {{"n": {gc.MAX_READ_VERTICES + 1}}}\n'))
