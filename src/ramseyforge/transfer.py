"""Randomized transference: per-hyperedge 2-colorings of a strongly
F-free linear hypergraph, the bichromatic shadow subgraph they induce, and
the pseudorandomness parameters the construction targets.

Every random bit comes from a counter-based generator keyed by
(seed, hyperedge index, vertex slot), so colorings replay bit-exactly from
the seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .containers import PseudorandomParams, check_pseudorandom
from .graphcore import ForbiddenPattern, Graph, LinearHypergraph, is_pattern_free, shadow_graph

_MASK64 = (1 << 64) - 1
_WEYL = 0x9E3779B97F4A7C15

MIN_CONCENTRATION_SHADOW_EDGES = 100


def _splitmix64(x: int) -> int:
    x = (x + _WEYL) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master: int, index: int) -> int:
    """Child seed for an indexed trial; fixed chain so runs replay."""
    return _splitmix64((master ^ (index * _WEYL)) & _MASK64)


def _slot_bit(seed_state: int, edge_index: int, slot: int) -> int:
    return _splitmix64(seed_state ^ ((edge_index << 20) | slot)) >> 63


@dataclass(frozen=True)
class EdgeColoring:
    """One independent fair 2-coloring per hyperedge.

    bits[e] holds one bit per vertex slot of hyperedge e (slot order =
    position in the edge tuple).  A vertex may receive different colors in
    different hyperedges; the draws are per-edge, not per-vertex.
    """

    bits: tuple[int, ...]
    seed: int

    def color(self, edge_index: int, slot: int) -> int:
        return self.bits[edge_index] >> slot & 1


def random_coloring(H: LinearHypergraph, seed: int) -> EdgeColoring:
    """Seeded coloring: the bit of (edge e, slot j) is a fixed function of
    (seed, e, j), independent and fair across slots."""
    if H.r >= 1 << 20:
        raise ValueError("hyperedge size out of range for slot derivation")
    state = _splitmix64(seed & _MASK64)
    bits = []
    for e in range(len(H.edges)):
        b = 0
        for j in range(H.r):
            b |= _slot_bit(state, e, j) << j
        bits.append(b)
    return EdgeColoring(tuple(bits), seed)


def bichromatic_subgraph(H: LinearHypergraph, coloring: EdgeColoring) -> Graph:
    """Subgraph of the shadow keeping exactly the pairs whose (unique)
    common hyperedge colors their two ends differently."""
    if len(coloring.bits) != len(H.edges):
        raise ValueError("coloring does not match the hypergraph")
    rows = [0] * H.n
    for edge, b in zip(H.edges, coloring.bits):
        ones = sum(1 << v for j, v in enumerate(edge) if b >> j & 1)
        zeros = sum(1 << v for j, v in enumerate(edge) if not b >> j & 1)
        for v in edge:
            rows[v] |= zeros if ones >> v & 1 else ones
    # symmetric, loopless and in range: "ones" get "zeros" and "zeros" get "ones"
    return Graph._valid(H.n, rows)


class TransferParams(NamedTuple):
    shadow: PseudorandomParams
    colored: PseudorandomParams


def derive_transfer_params(H: LinearHypergraph) -> TransferParams:
    """Shadow targets alpha = dr/2n, m = ceil(2n/r); the coloring keeps
    each pair with probability 1/2, so the subgraph targets halve alpha."""
    d = H.regular_degree()
    n, r = H.n, H.r
    alpha = Fraction(d * r, 2 * n)
    if alpha > 1:
        alpha = Fraction(1)  # clamp: denser-than-complete never arises from linearity
    m = math.ceil(Fraction(2 * n, r))
    shadow = PseudorandomParams(alpha, m, "transfer-derived")
    colored = PseudorandomParams(alpha / 2, m, "transfer-derived")
    return TransferParams(shadow, colored)


class TrialResult(NamedTuple):
    trial: int
    seed: int
    edges_kept: int
    fraction: float
    fraction_ok: bool
    pattern_free: bool | None
    pseudorandom_sampled: bool


@dataclass(frozen=True)
class TransferReport:
    params: TransferParams
    shadow_edges: int
    hyperedge_count: int
    expected_kept_per_edge: float
    mean_kept_per_edge: float
    trials: tuple[TrialResult, ...]
    all_fractions_ok: bool
    all_pattern_free: bool | None


def concentration_check(
    H: LinearHypergraph,
    trials: int,
    seed: int,
    pattern: ForbiddenPattern | None = None,
    samples: int = 20,
) -> TransferReport:
    """Run seeded coloring trials and report, per trial: kept-edge counts
    and fraction (target [0.4, 0.6]), sampled (alpha', m')-pseudorandomness,
    and exact pattern-freeness when a pattern is given.

    Expected kept pairs per hyperedge is C(r,2)/2 exactly: each pair of
    slots differs with probability 1/2.
    """
    shadow = shadow_graph(H)
    if shadow.edge_count < MIN_CONCENTRATION_SHADOW_EDGES:
        raise ValueError(
            f"concentration check needs >= {MIN_CONCENTRATION_SHADOW_EDGES} shadow edges"
        )
    if trials < 1:
        raise ValueError("need at least one trial")
    params = derive_transfer_params(H)
    results = []
    kept_total = 0
    for t in range(trials):
        trial_seed = derive_seed(seed, t)
        coloring = random_coloring(H, trial_seed)
        G = bichromatic_subgraph(H, coloring)
        kept = G.edge_count
        kept_total += kept
        fraction = kept / shadow.edge_count
        free = None
        if pattern is not None:
            free = is_pattern_free(G, pattern)[0]
        pseudo = check_pseudorandom(
            G,
            params.colored,
            mode="sampled",
            samples=samples,
            seed=derive_seed(trial_seed, 2),
        ).ok
        results.append(
            TrialResult(
                trial=t,
                seed=trial_seed,
                edges_kept=kept,
                fraction=fraction,
                fraction_ok=0.4 <= fraction <= 0.6,
                pattern_free=free,
                pseudorandom_sampled=pseudo,
            )
        )
    edge_count = len(H.edges)
    expected = math.comb(H.r, 2) / 2.0
    report = TransferReport(
        params=params,
        shadow_edges=shadow.edge_count,
        hyperedge_count=edge_count,
        expected_kept_per_edge=expected,
        mean_kept_per_edge=kept_total / (trials * edge_count),
        trials=tuple(results),
        all_fractions_ok=all(r.fraction_ok for r in results),
        all_pattern_free=None if pattern is None else all(r.pattern_free for r in results),
    )
    return report
