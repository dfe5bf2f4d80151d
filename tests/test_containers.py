"""Pseudorandomness parameters and their exhaustive and sampled checks."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

import graph_reference as ref
from ramseyforge import containers as ct
from ramseyforge import geometry as geo
from ramseyforge import graphcore as gc
from ramseyforge.graphcore import Graph


def complete_graph(n):
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def random_graph(n, p, rng):
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


# --- params -------------------------------------------------------------------


def test_params_validation():
    p = ct.PseudorandomParams(Fraction(1, 3), 4, "exact-checked")
    assert p.alpha == Fraction(1, 3)
    assert ct.PseudorandomParams("2/5", 1, "mixing-derived").alpha == Fraction(2, 5)
    with pytest.raises(ValueError):
        ct.PseudorandomParams(Fraction(3, 2), 4, "exact-checked")
    with pytest.raises(ValueError):
        ct.PseudorandomParams(Fraction(-1, 2), 4, "exact-checked")
    with pytest.raises(ValueError):
        ct.PseudorandomParams(Fraction(1, 2), 0, "exact-checked")
    with pytest.raises(ValueError):
        ct.PseudorandomParams(Fraction(1, 2), 4, "guessed")


def test_mixing_derived_params():
    G = geo.polarity_graph(3)
    p = ct.mixing_derived_params(G)
    assert p.alpha == Fraction(G.edge_count, 13 * 13)  # irregular: average-degree form
    assert p.provenance == "mixing-derived"
    # regular case: exact d/(2n)
    C8 = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
    p8 = ct.mixing_derived_params(C8)
    assert p8.alpha == Fraction(2, 16) == Fraction(1, 8)
    with pytest.raises(ValueError):
        ct.mixing_derived_params(Graph(3, [0, 0, 0]))


# --- pseudorandomness check ------------------------------------------------------


def test_check_trivial_cases():
    rng = random.Random(0)
    G = random_graph(10, 0.4, rng)
    zero = ct.PseudorandomParams(Fraction(0), 1, "exact-checked")
    assert ct.check_pseudorandom(G, zero).ok
    one = ct.PseudorandomParams(Fraction(1), 2, "exact-checked")
    assert ct.check_pseudorandom(complete_graph(6), one).ok


def test_check_finds_first_violator():
    P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    res = ct.check_pseudorandom(P3, ct.PseudorandomParams(Fraction(1), 2, "exact-checked"))
    assert not res.ok and res.violator == (0, 2)


def test_check_vacuous_when_m_exceeds_n():
    G = geo.polarity_graph(3)
    p = ct.mixing_derived_params(G)
    assert p.m > G.n  # desk-scale spectra put m past n here
    assert ct.check_pseudorandom(G, p).ok


def test_exhaustive_check_matches_scan_over_all_sizes():
    # oracle: every subset of every size >= max(m, 2), in (size, combinations)
    # order, with e(X) counted pair by pair
    def first_violator(G, alpha, m):
        for size in range(max(m, 2), G.n + 1):
            for X in itertools.combinations(range(G.n), size):
                e = sum(ref.has_edge(G, u, v) for u, v in itertools.combinations(X, 2))
                if e < alpha * math.comb(size, 2):
                    return X
        return None

    rng = random.Random(404)
    outcomes = set()
    for _ in range(80):
        n = rng.randint(2, 9)
        G = random_graph(n, rng.uniform(0.3, 0.95), rng)
        alpha = Fraction(rng.randint(0, 10), 10)
        m = rng.randint(1, n)
        res = ct.check_pseudorandom(G, ct.PseudorandomParams(alpha, m, "exact-checked"))
        expected = first_violator(G, alpha, m)
        assert res.violator == expected and res.ok == (expected is None)
        outcomes.add(res.ok)
    assert outcomes == {True, False}


def test_check_exhaustive_guard():
    G = Graph(30, [0] * 30)
    p = ct.PseudorandomParams(Fraction(1, 2), 2, "exact-checked")
    with pytest.raises(ValueError):
        ct.check_pseudorandom(G, p)
    with pytest.raises(ValueError):
        ct.check_pseudorandom(G, p, mode="approximate")


def test_check_sampled_mode():
    rng = random.Random(1)
    G = random_graph(40, 0.5, rng)
    alpha_val = gc.independence_number(G).value
    # m above the independence number: some alpha>0 holds on samples
    p = ct.PseudorandomParams(Fraction(1, 1000), alpha_val + 1, "exact-checked")
    r1 = ct.check_pseudorandom(G, p, mode="sampled", samples=50, seed=9)
    r2 = ct.check_pseudorandom(G, p, mode="sampled", samples=50, seed=9)
    assert r1 == r2  # seeded determinism
    # impossible demand is caught by sampling, smallest violator reported
    hard = ct.PseudorandomParams(Fraction(1), 2, "exact-checked")
    res = ct.check_pseudorandom(G, hard, mode="sampled", samples=20, seed=3)
    assert not res.ok and len(res.violator) >= 2
    # no subset reaches k = max(m, 2) > n, so none can violate
    for m in (41, 60):
        beyond = ct.PseudorandomParams(Fraction(1), m, "exact-checked")
        for samples in (1, 20):
            assert ct.check_pseudorandom(G, beyond, mode="sampled", samples=samples) == (True, None)


def test_sampled_check_draws_samples_subsets(monkeypatch):
    # exactly `samples` draws, all of size k = max(m, 2), whatever the verdict
    G = random_graph(40, 0.5, random.Random(5))
    drawn = []
    sample = random.Random.sample

    def counted(self, population, k, **kwargs):
        drawn.append(k)
        return sample(self, population, k, **kwargs)

    monkeypatch.setattr(random.Random, "sample", counted)
    for alpha in (Fraction(0), Fraction(1, 2), Fraction(1)):
        for m, samples in ((1, 7), (12, 3), (39, 5), (40, 4), (41, 6)):
            drawn.clear()
            params = ct.PseudorandomParams(alpha, m, "exact-checked")
            ct.check_pseudorandom(G, params, mode="sampled", samples=samples, seed=m)
            assert drawn == ([max(m, 2)] * samples if m <= G.n else []), (alpha, m)


def sampled_reference(G, params, samples, seed):
    # `samples` draws of one rng.sample each at k = max(m, 2) only, e(X)
    # counted pair by pair, smallest sorted violator; no k-subset when k > n
    n, k = G.n, max(params.m, 2)
    if k > n:
        return ct.PseudorandomCheck(True, None)
    rng = random.Random(seed)
    bad = []
    for _ in range(samples):
        X = tuple(sorted(rng.sample(range(n), k)))
        e = sum(ref.has_edge(G, u, v) for u, v in itertools.combinations(X, 2))
        if e < params.alpha * math.comb(k, 2):
            bad.append(X)
    return ct.PseudorandomCheck(not bad, min(bad, default=None))


def test_sampled_mode_matches_per_subset_reference():
    rng = random.Random(606)
    outcomes = set()
    for _ in range(100):
        n = rng.randint(10, 130)
        p = rng.uniform(0.1, 0.9)
        G = random_graph(n, p, rng)
        # demands around the density make both verdicts common
        alpha = min(Fraction(1), Fraction(p * rng.uniform(0.3, 1.1)).limit_denominator(50))
        m = rng.choice((1, 2, rng.randint(2, n), n, n + 1))
        params = ct.PseudorandomParams(alpha, m, "exact-checked")
        samples, seed = rng.randint(1, 6), rng.getrandbits(32)
        res = ct.check_pseudorandom(G, params, mode="sampled", samples=samples, seed=seed)
        assert res == sampled_reference(G, params, samples, seed), (n, alpha, m, samples, seed)
        outcomes.add(res.ok)
    assert outcomes == {True, False}


@pytest.mark.parametrize("samples", [0, -5])
def test_sampled_mode_rejects_empty_sample_budget(samples):
    G = random_graph(12, 0.5, random.Random(3))
    p = ct.PseudorandomParams(Fraction(1, 2), 3, "exact-checked")
    with pytest.raises(ValueError):
        ct.check_pseudorandom(G, p, mode="sampled", samples=samples)
    vacuous = ct.PseudorandomParams(Fraction(1, 2), 13, "exact-checked")
    with pytest.raises(ValueError):
        ct.check_pseudorandom(G, vacuous, mode="sampled", samples=samples)


def test_sparse_m_subset_matches_uncut_search():
    # the counting cut drops only subtrees without an improving leaf, so for
    # every m, bound and mode the search returns the uncut search's (e, X)
    rng = random.Random(2601)
    for n in (1, 2, 3, 5, 8, 11, 14, 16):
        G = random_graph(n, rng.uniform(0.2, 0.8), rng)
        for m in range(1, n + 1):
            for bound in range(math.comb(m, 2) + 2):
                for first in (True, False):
                    expected = ref.uncut_m_subset(G, m, bound, first)
                    assert ct._sparse_m_subset(G, m, bound, first) == expected, (n, m, bound, first)


def test_exact_alpha_hand_values():
    P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert ct.exact_alpha_m(P4, 3) == Fraction(1, 3)
    assert ct.exact_alpha_m(P4, 4) == Fraction(1, 2)
    C5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert ct.exact_alpha_m(C5, 2) == 0
    assert ct.exact_alpha_m(C5, 3) == Fraction(1, 3)
    assert ct.exact_alpha_m(complete_graph(5), 2) == 1
    with pytest.raises(ValueError):
        ct.exact_alpha_m(C5, 1)
    with pytest.raises(ValueError):
        ct.exact_alpha_m(C5, 6)


def test_exact_alpha_matches_brute_force():
    def density(G, X):
        return Fraction(G.subgraph_edge_count(sum(1 << v for v in X)), math.comb(len(X), 2))

    def brute(G, m):  # every subset of every size >= m
        sizes = range(m, G.n + 1)
        return min(density(G, X) for k in sizes for X in itertools.combinations(range(G.n), k))

    rng = random.Random(77)
    cases = []
    for _ in range(10):
        n = rng.randint(4, 10)
        G = random_graph(n, rng.uniform(0.3, 0.8), rng)
        cases.append((G, rng.randint(2, n)))
    for n in range(4, 13):
        G = random_graph(n, rng.uniform(0.2, 0.9), rng)
        cases += [(G, 2), (G, n), (G, rng.randint(2, n))]
        # an independent m-set forces 0, K_n forces 1
        m = rng.randint(2, n)
        hole = set(rng.sample(range(n), m))
        G0 = Graph.from_edges(n, [e for e in ref.edges(G) if not set(e) <= hole])
        assert ct.exact_alpha_m(G0, m) == brute(G0, m) == 0
        assert ct.exact_alpha_m(complete_graph(n), m) == 1
    for G, m in cases:
        expected = brute(G, m)
        assert ct.exact_alpha_m(G, m) == expected
        params = ct.PseudorandomParams(expected, m, "exact-checked")
        assert ct.check_pseudorandom(G, params).ok
        if expected < 1:  # any larger alpha has a violator
            above = ct.PseudorandomParams(expected + Fraction(1, 1000), m, "exact-checked")
            assert not ct.check_pseudorandom(G, above).ok
    # G(18, 1/2) at m = 9, against the minimum over the m-subsets alone
    G = random_graph(18, 0.5, random.Random(18))
    expected = min(density(G, X) for X in itertools.combinations(range(18), 9))
    assert ct.exact_alpha_m(G, 9) == expected
