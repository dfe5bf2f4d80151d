"""Per-hyperedge colorings, bichromatic subgraphs, concentration reports."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

import graph_reference as ref
from ramseyforge import geometry as geo
from ramseyforge import graphcore as gc
from ramseyforge import transfer as tr
from ramseyforge.graphcore import ForbiddenPattern, LinearHypergraph


@pytest.fixture(scope="module")
def unital3():
    return geo.unital_line_hypergraph(3)


def test_coloring_determinism(unital3):
    a = tr.random_coloring(unital3, 123)
    b = tr.random_coloring(unital3, 123)
    c = tr.random_coloring(unital3, 124)
    assert a == b and a != c
    assert len(a) == len(unital3.edges) and all(0 <= bits < 1 << unital3.r for bits in a)


def test_coloring_bits_are_fair():
    H = LinearHypergraph(10000, [(2 * i, 2 * i + 1) for i in range(5000)])
    ones = sum(b.bit_count() for b in tr.random_coloring(H, 99))
    assert abs(ones / 10000 - 0.5) < 0.02


@pytest.mark.parametrize("r", [1, 2, 8, 9, 16, 64])
def test_coloring_matches_per_slot_reference(r):
    # masks of one to eight bytes, on and just past a byte boundary, over
    # about 4096 slots; seeds at both ends of the 64-bit range, and -1,
    # which the seed's 64-bit mask takes to 2^64 - 1
    H = LinearHypergraph(4096, [range(e * r, e * r + r) for e in range(4096 // r)])
    for seed in (0, 1, 2**63, 2**64 - 1, -1):
        assert tr.random_coloring(H, seed) == ref.slot_coloring(H, seed), seed


def test_single_pair_edge_mean():
    H = LinearHypergraph(2, [(0, 1)])
    kept = [
        tr.bichromatic_subgraph(H, tr.random_coloring(H, s)).edge_count
        for s in range(400)
    ]
    assert set(kept) <= {0, 1}
    assert abs(sum(kept) / 400 - 0.5) < 0.1


def test_derive_seed_chain():
    assert tr.derive_seed(1, 0) != tr.derive_seed(1, 1)
    assert tr.derive_seed(1, 5) == tr.derive_seed(1, 5)
    assert 0 <= tr.derive_seed(2**63, 7) < 2**64


def test_bichromatic_examples():
    H = LinearHypergraph(4, [(0, 1, 2, 3)])
    mono = tr.bichromatic_subgraph(H, (0b0000,))
    assert mono.edge_count == 0
    balanced = tr.bichromatic_subgraph(H, (0b0011,))
    assert balanced.edge_count == 4  # 2+2 split keeps 4 of the 6 pairs
    assert not ref.has_edge(balanced, 0, 1) and not ref.has_edge(balanced, 2, 3)
    lopsided = tr.bichromatic_subgraph(H, (0b0001,))
    assert lopsided.edge_count == 3


def test_bichromatic_subset_of_shadow(unital3):
    shadow = ref.shadow(unital3)
    G = tr.bichromatic_subgraph(unital3, tr.random_coloring(unital3, 5))
    for u, v in ref.edges(G):
        assert ref.has_edge(shadow, u, v)


def test_bichromatic_replays_bit_exact(unital3):
    # every kept pair's common hyperedge colors the ends differently,
    # re-derived from the raw generator
    seed = 31
    coloring = tr.random_coloring(unital3, seed)
    G = tr.bichromatic_subgraph(unital3, coloring)
    state = tr._splitmix64(seed)
    for u, v in ref.edges(G):
        common = [e for e, edge in enumerate(unital3.edges) if u in edge and v in edge]
        assert len(common) == 1
        e = common[0]
        edge = unital3.edges[e]
        cu = tr._splitmix64(state ^ ((e << 20) | edge.index(u))) >> 63
        cv = tr._splitmix64(state ^ ((e << 20) | edge.index(v))) >> 63
        assert cu != cv


def pairwise_bichromatic(H, coloring):
    """Reference: join each 0-slot vertex to each 1-slot vertex of every
    hyperedge, pair by pair, refusing a pair kept twice."""
    seen = set()
    for edge, b in zip(H.edges, coloring):
        ones = [v for j, v in enumerate(edge) if b >> j & 1]
        zeros = [v for j, v in enumerate(edge) if not b >> j & 1]
        for u in zeros:
            for v in ones:
                pair = (min(u, v), max(u, v))
                assert pair not in seen
                seen.add(pair)
    return gc.Graph.from_edges(H.n, seen)


@pytest.mark.parametrize("q", [2, 3])
def test_bichromatic_matches_pairwise_reference(q):
    H = geo.unital_line_hypergraph(q)
    for seed in range(150):
        coloring = tr.random_coloring(H, seed)
        G = tr.bichromatic_subgraph(H, coloring)
        ref.assert_simple(G)
        assert G == pairwise_bichromatic(H, coloring)
    # the all-zero and all-one colorings keep nothing; a 1/r split keeps r-1 per edge
    for bits in (0, (1 << H.r) - 1):
        none = (bits,) * len(H.edges)
        assert tr.bichromatic_subgraph(H, none).edge_count == 0
    one = (1,) * len(H.edges)
    assert tr.bichromatic_subgraph(H, one) == pairwise_bichromatic(H, one)
    assert tr.bichromatic_subgraph(H, one).edge_count == len(H.edges) * (H.r - 1)


def test_bichromatic_validation(unital3):
    with pytest.raises(ValueError):
        tr.bichromatic_subgraph(unital3, (0,))


def test_transfer_params(unital3):
    # the colored graph's targets: the shadow's alpha = dr/2n halved, m = ceil(2n/r)
    p = tr.derive_transfer_params(unital3)
    assert p.alpha == Fraction(1, 7) and p.m == 14
    assert p.provenance == "transfer-derived"
    one_edge = LinearHypergraph(6, [(0, 1, 2, 3, 4, 5)])
    pb = tr.derive_transfer_params(one_edge)
    assert pb.alpha == Fraction(1, 4) and pb.m == 2
    # dr/2n = 3/2 is clamped to 1 before halving
    repeated = LinearHypergraph(1, [(0,)] * 3)
    assert tr.derive_transfer_params(repeated).alpha == Fraction(1, 2)
    irregular = LinearHypergraph(5, [(0, 1, 2), (2, 3, 4)])
    with pytest.raises(ValueError):
        tr.derive_transfer_params(irregular)


def test_transfer_convexity_identity(unital3):
    # with X = V: sum_e C(|e ∩ X|, 2) = (dn/r) C(r, 2) >= (dr/2n) C(n, 2)
    d = unital3.regular_degree()
    n, r = unital3.n, unital3.r
    lhs = len(unital3.edges) * math.comb(r, 2)
    assert lhs == d * n // r * math.comb(r, 2)
    assert Fraction(lhs) >= Fraction(d * r, 2 * n) * math.comb(n, 2)


def test_transfer_preserves_strong_freeness(unital3):
    k4 = ForbiddenPattern.clique(4)
    for s in range(10):
        G = tr.bichromatic_subgraph(unital3, tr.random_coloring(unital3, s))
        assert gc.is_pattern_free(G, k4) == (True, None)


def test_concentration_report(unital3):
    rep = tr.concentration_check(unital3, 12, 7, pattern=ForbiddenPattern.clique(4))
    assert rep.shadow_edges == 1008
    assert rep.expected_kept_per_edge == 18.0
    assert len(rep.trials) == 12
    assert rep.all_fractions_ok and rep.all_pattern_free
    assert abs(rep.mean_kept_per_edge - 18.0) / 18.0 < 0.05
    for t in rep.trials:
        assert t.fraction_ok == (0.4 <= t.edges_kept / 1008 <= 0.6)
    # deterministic replay
    rep2 = tr.concentration_check(unital3, 12, 7, pattern=ForbiddenPattern.clique(4))
    assert rep2.trials == rep.trials


@pytest.mark.parametrize("q", [3, 4])
def test_concentration_counts_the_shadow(q):
    # |E| C(r, 2) shadow edges, as the hyperedges of a linear hypergraph
    # share no pair
    H = geo.unital_line_hypergraph(q)
    rep = tr.concentration_check(H, 1, 0, samples=1)
    assert rep.shadow_edges == ref.shadow(H).edge_count


def test_concentration_without_pattern(unital3):
    rep = tr.concentration_check(unital3, 3, 1)
    assert rep.all_pattern_free is None
    assert all(t.pattern_free is None for t in rep.trials)


def test_concentration_guards():
    small = geo.unital_line_hypergraph(2)  # 54 shadow edges
    with pytest.raises(ValueError):
        tr.concentration_check(small, 5, 0)
    H = geo.unital_line_hypergraph(3)
    with pytest.raises(ValueError):
        tr.concentration_check(H, 0, 0)
