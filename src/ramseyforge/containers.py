"""(alpha, m)-pseudorandomness, fingerprint compression of independent
sets, and the independent-set count bounds.

A graph is (alpha, m)-pseudorandom when every vertex subset X with
|X| >= m spans at least alpha * C(|X|, 2) edges.  The fingerprint procedure
compresses an independent set to at most s picked vertices plus its trace
on a remainder of at most m vertices, which is what drives the
C(n,s) * C(m, t-s) count bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .graphcore import Graph
from .spectral import SpectralReport, spectrum

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


def mixing_derived_params(G: Graph, report: SpectralReport | None = None) -> PseudorandomParams:
    """Parameters from the mixing lemma: alpha = d/(2n) (exact; E/n^2 when
    irregular), m = ceil(2 lambda n / d).  For |X| >= m the lemma gives
    lambda |X| <= (d/2n)|X|^2, hence e(X) >= (d/2n) C(|X|, 2)."""
    if G.edge_count == 0:
        raise ValueError("an edgeless graph has no mixing parameters")
    if report is None:
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
    m-subsets are reached in itertools.combinations order.  The edge count
    is kept as the subset grows, and a branch is cut once it reaches the
    bound: adding vertices never removes edges.  Each leaf reached lowers
    the bound to its own count, so the search ends on the first sparsest
    m-subset; with `first` it stops at the first leaf instead.  Returns
    (e(X), X), or None when no m-subset spans fewer than `bound` edges.
    """
    n, rows = G.n, G.rows
    chosen: list[int] = []
    found: tuple[int, tuple[int, ...]] | None = None

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
    them in combinations order, cutting every branch whose edges already
    reach the bound, and returns the first violator.  Sampled mode draws
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


# -- fingerprints -------------------------------------------------------------


@dataclass(frozen=True)
class Fingerprint:
    """Picked vertices in pick order, plus the surviving vertex set."""

    vertices: tuple[int, ...]
    remainder: tuple[int, ...]


def fingerprint(G: Graph, I: Iterable[int], s: int, m: int) -> Fingerprint:
    """Compress an independent set: repeatedly order the current graph by
    non-increasing degree (ties by vertex index), pick the first vertex of I
    in that order, and delete its closed neighborhood.  Stops once at most m
    vertices remain or s vertices are picked.

    When G is (alpha, m)-pseudorandom and exp(-alpha s) n <= m, the
    remainder is guaranteed to reach size <= m; callers that know alpha
    re-check this.  Unpicked vertices of I are never deleted (I is
    independent), so I = picked union (I intersect remainder).
    """
    iset = frozenset(I)
    if not all(isinstance(v, int) and 0 <= v < G.n for v in iset):
        raise ValueError("independent set out of range")
    imask = 0
    for v in iset:
        imask |= 1 << v
    if G.subgraph_edge_count(imask) != 0:
        raise ValueError("input set is not independent")
    if s < 1:
        raise ValueError("s must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")

    rows = G.rows
    alive = (1 << G.n) - 1
    remaining = sorted(iset)
    picked: list[int] = []
    while alive.bit_count() > m and len(picked) < s and remaining:
        # first I-vertex in the degree ordering = max degree, ties by index
        pick = min(remaining, key=lambda v: (-(rows[v] & alive).bit_count(), v))
        picked.append(pick)
        remaining.remove(pick)
        alive &= ~(rows[pick] | 1 << pick)
    remainder = []
    while alive:
        v = (alive & -alive).bit_length() - 1
        alive ^= 1 << v
        remainder.append(v)
    return Fingerprint(tuple(picked), tuple(remainder))


def reconstruct_independent_set(
    G: Graph, fp: Fingerprint, tail: Iterable[int], s: int, m: int
) -> tuple[int, ...]:
    """Rebuild I from (fingerprint, I intersect remainder) and verify the
    pair replays to the same fingerprint."""
    tail = tuple(sorted(set(tail)))
    if not set(tail) <= set(fp.remainder):
        raise ValueError("tail is not contained in the remainder")
    I = tuple(sorted(set(fp.vertices) | set(tail)))
    if fingerprint(G, I, s, m) != fp:
        raise ValueError("pair does not replay to the same fingerprint")
    return I


# -- count bounds --------------------------------------------------------------


def count_bound(n: int, m: int, s: int, t: int) -> int:
    """C(n, s) * C(m, t - s): the exact container bound on the number of
    independent sets of size t."""
    if not n >= m >= t >= s >= 1:
        raise ValueError("need n >= m >= t >= s >= 1")
    return math.comb(n, s) * math.comb(m, t - s)


class NdlBound(NamedTuple):
    value: float
    base: float
    threshold: float
    applicable: bool


def count_bound_ndl(n: int, d: float, lam: float, t: int) -> NdlBound:
    """Spectral count bound (4 e^2 lambda / ln^2 n)^t, valid once
    t >= 2 n (ln n)^2 / d.  The threshold is reported and `applicable`
    says whether t clears it; at desk scale it usually does not, and the
    value must then not be quoted as a bound."""
    if n < 2:
        raise ValueError("need n >= 2")
    if d <= 0 or lam < 0:
        raise ValueError("need d > 0 and lambda >= 0")
    if t < 1:
        raise ValueError("need t >= 1")
    log_n = math.log(n)
    base = 4.0 * math.e**2 * lam / log_n**2
    threshold = 2.0 * n * log_n**2 / d
    try:
        value = base**t
    except OverflowError:
        value = math.inf
    return NdlBound(value, base, threshold, t >= threshold)
