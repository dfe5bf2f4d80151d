"""(alpha, m)-pseudorandomness, fingerprint compression of independent
sets, and the independent-set count bounds.

A graph is (alpha, m)-pseudorandom when every vertex subset X with
|X| >= m spans at least alpha * C(|X|, 2) edges.  The fingerprint procedure
compresses an independent set to at most s picked vertices plus its trace
on a remainder of at most m vertices, which is what drives the
C(n,s) * C(m, t-s) count bound.
"""

from __future__ import annotations

import itertools
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


def _violates(edge_count2: int, size: int, alpha: Fraction) -> bool:
    # e(X) < alpha C(size, 2), all-integer
    return edge_count2 * alpha.denominator < alpha.numerator * size * (size - 1)


def check_pseudorandom(
    G: Graph,
    params: PseudorandomParams,
    mode: str = "exhaustive",
    samples: int = 200,
    seed: int = 0,
) -> PseudorandomCheck:
    """Check e(X) >= alpha C(|X|, 2) for subsets of size >= m.

    Exhaustive mode (n <= 24) scans the subsets of size max(m, 2) in
    combinations order and returns the first violator.  No larger size needs
    a scan: e(X)/C(k, 2) is the average of e(Y)/C(k-1, 2) over the
    (k-1)-subsets Y of X, so a violator of size k has one of size k - 1.
    Sampled mode draws `samples` seeded uniform subsets per size class and
    reports the smallest violator found, so reports merge deterministically.
    """
    n = G.n
    alpha = params.alpha
    lo = max(params.m, 2)
    if mode == "exhaustive":
        if n > MAX_EXHAUSTIVE_N:
            raise ValueError(f"exhaustive mode needs n <= {MAX_EXHAUSTIVE_N}")
        for X in itertools.combinations(range(n), lo):
            mask = 0
            for v in X:
                mask |= 1 << v
            if _violates(2 * G.subgraph_edge_count(mask), lo, alpha):
                return PseudorandomCheck(False, X)
        return PseudorandomCheck(True, None)
    if mode != "sampled":
        raise ValueError("mode must be 'exhaustive' or 'sampled'")
    rng = random.Random(seed)
    best: tuple[int, tuple[int, ...]] | None = None
    for size in range(lo, n + 1):
        for _ in range(samples):
            X = tuple(sorted(rng.sample(range(n), size)))
            mask = 0
            for v in X:
                mask |= 1 << v
            if _violates(2 * G.subgraph_edge_count(mask), size, alpha):
                if best is None or (size, X) < best:
                    best = (size, X)
    if best is None:
        return PseudorandomCheck(True, None)
    return PseudorandomCheck(False, best[1])


def exact_alpha_m(G: Graph, m: int) -> Fraction:
    """The largest valid alpha for a given m: the exact minimum of
    e(X)/C(|X|, 2) over all subsets with |X| >= m (full subset scan)."""
    n = G.n
    if n > MAX_EXHAUSTIVE_N:
        raise ValueError(f"exact alpha needs n <= {MAX_EXHAUSTIVE_N}")
    if not 2 <= m <= n:
        raise ValueError("need 2 <= m <= n")
    rows = G.rows
    best: Fraction | None = None

    def scan(v: int, mask: int, size: int, edges: int) -> None:
        nonlocal best
        if best == 0:
            return
        if size + (n - v) < m:
            return
        if v == n:
            if size >= m:
                ratio = Fraction(edges, size * (size - 1) // 2)
                if best is None or ratio < best:
                    best = ratio
            return
        scan(v + 1, mask, size, edges)
        scan(v + 1, mask | 1 << v, size + 1, edges + (rows[v] & mask).bit_count())

    scan(0, 0, 0, 0)
    assert best is not None
    return best


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
