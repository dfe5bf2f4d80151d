"""(alpha, m)-pseudorandomness: parameters from the mixing lemma, and
exhaustive or sampled checks of them.

A graph is (alpha, m)-pseudorandom when every vertex subset X with
|X| >= m spans at least alpha * C(|X|, 2) edges.  These are the parameters
behind the container count C(n, s) * C(m, t - s) of independent t-sets; the
certificates here decide alpha < t by exact search instead, so the count
itself is not computed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .graphcore import Graph
from .spectral import spectrum

MAX_EXHAUSTIVE_N = 24

PROVENANCES = ("exact-checked", "mixing-derived", "transfer-derived")


@dataclass(frozen=True)
class PseudorandomParams:
    """An (alpha, m) pair with a record of where it came from."""

    alpha: Fraction
    m: int
    provenance: str

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if not 0 <= self.alpha <= 1:
            raise ValueError("alpha must lie in [0, 1]")
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 1:
            raise ValueError("m must be an integer >= 1")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"provenance must be one of {PROVENANCES}")


class PseudorandomCheck(NamedTuple):
    ok: bool
    violator: tuple[int, ...] | None


def mixing_derived_params(G: Graph) -> PseudorandomParams:
    """Parameters from the mixing lemma: alpha = d/(2n) (exact; E/n^2 when
    irregular), m = ceil(2 lambda n / d).  For |X| >= m the lemma gives
    lambda |X| <= (d/2n)|X|^2, hence e(X) >= (d/2n) C(|X|, 2)."""
    if G.edge_count == 0:
        raise ValueError("an edgeless graph has no mixing parameters")
    report = spectrum(G)
    n = G.n
    if report.is_regular:
        alpha = Fraction(int(report.d), 2 * n)
    else:
        alpha = Fraction(G.edge_count, n * n)
    m = max(1, math.ceil(2.0 * report.lam * n / report.d))
    return PseudorandomParams(alpha, m, "mixing-derived")


def _sparse_m_subset(
    G: Graph, m: int, bound: int, first: bool
) -> tuple[int, tuple[int, ...]] | None:
    """Depth-first search over the m-subsets X of G for e(X) < bound.

    Vertices are tried in index order, "include v" before "exclude v", so
    m-subsets are reached in itertools.combinations order.  Each leaf
    reached lowers the bound to its own count, so the search ends on the
    first sparsest m-subset; with `first` it stops at the first leaf
    instead.  Returns (e(X), X), or None when no m-subset spans fewer than
    `bound` edges.

    A node holds the chosen set S and still needs `need` vertices from
    those >= start.  Any completion T gives e(S + T) = e(S) + e(T) + the
    sum over w in T of |N(w) & S|, at least e(S) plus the `need` smallest
    values of |N(w) & S|; once that reaches the bound the node is cut.  A
    cut drops only subtrees whose every leaf is at or above the current
    bound, which never rises, so the search meets the same improving
    leaves in the same order and returns what the uncut search returns.
    """
    n, rows = G.n, G.rows
    chosen: list[int] = []
    found: tuple[int, tuple[int, ...]] | None = None

    def extend(start: int, mask: int, edges: int) -> bool:
        nonlocal bound, found
        need = m - len(chosen)
        if not need:
            bound, found = edges, (edges, tuple(chosen))
            return first
        gains = [(row & mask).bit_count() for row in rows[start:]]
        if edges + sum(sorted(gains)[:need]) >= bound:
            return False
        for v in range(start, n - need + 1):
            e = edges + gains[v - start]
            if e < bound:
                chosen.append(v)
                if extend(v + 1, mask | 1 << v, e):
                    return True
                chosen.pop()
        return False

    extend(0, 0, 0)
    return found


def check_pseudorandom(
    G: Graph,
    params: PseudorandomParams,
    mode: str = "exhaustive",
    samples: int = 200,
    seed: int = 0,
) -> PseudorandomCheck:
    """Check e(X) >= alpha C(|X|, 2) for subsets of size >= m.

    No size above k = max(m, 2) needs a look: e(X)/C(k, 2) is the average
    of e(Y)/C(k-1, 2) over the (k-1)-subsets Y of X, so a violator of size
    k has one of size k - 1.  Both modes therefore test the k-subsets
    against ceil(alpha C(k, 2)) edges.  Exhaustive mode (n <= 24) searches
    them in combinations order, cutting every node that no completion can
    take below the bound, and returns the first violator.  Sampled mode draws
    `samples` >= 1 seeded uniform k-subsets, counts their edges on G's rows
    and reports the smallest sorted violator; with k > n there is nothing
    to draw and nothing that can violate.
    """
    n = G.n
    k = max(params.m, 2)
    bound = math.ceil(params.alpha * math.comb(k, 2))
    if mode == "exhaustive":
        if n > MAX_EXHAUSTIVE_N:
            raise ValueError(f"exhaustive mode needs n <= {MAX_EXHAUSTIVE_N}")
        hit = _sparse_m_subset(G, k, bound, first=True)
        return PseudorandomCheck(True, None) if hit is None else PseudorandomCheck(False, hit[1])
    if mode != "sampled":
        raise ValueError("mode must be 'exhaustive' or 'sampled'")
    if samples < 1:
        raise ValueError("sampled mode needs samples >= 1")
    if k > n:
        return PseudorandomCheck(True, None)
    rng = random.Random(seed)
    draws = (tuple(sorted(rng.sample(range(n), k))) for _ in range(samples))
    bad = [X for X in draws if G.subgraph_edge_count(sum(1 << v for v in X)) < bound]
    return PseudorandomCheck(not bad, min(bad, default=None))


def exact_alpha_m(G: Graph, m: int) -> Fraction:
    """The largest valid alpha for a given m: the exact minimum of
    e(X)/C(|X|, 2) over all subsets with |X| >= m.  By the averaging lemma
    (see check_pseudorandom) the minimum is reached at |X| = m, so this is
    min e(X) / C(m, 2) over the m-subsets, found by a pruned search."""
    n = G.n
    if n > MAX_EXHAUSTIVE_N:
        raise ValueError(f"exact alpha needs n <= {MAX_EXHAUSTIVE_N}")
    if not 2 <= m <= n:
        raise ValueError("need 2 <= m <= n")
    pairs = math.comb(m, 2)
    edges, _ = _sparse_m_subset(G, m, pairs + 1, first=False)
    return Fraction(edges, pairs)
