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

import numpy as np

from .containers import PseudorandomParams, check_pseudorandom
from .graphcore import ForbiddenPattern, Graph, LinearHypergraph, is_pattern_free

_MASK64 = (1 << 64) - 1
_WEYL = 0x9E3779B97F4A7C15

MIN_CONCENTRATION_SHADOW_EDGES = 100


def _splitmix64(x: int) -> int:
    """splitmix64's output function; on a uint64 array it works elementwise,
    the array's wrapping arithmetic doing what the masks do for an int."""
    x = (x + _WEYL) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master: int, index: int) -> int:
    """Child seed for an indexed trial; fixed chain so runs replay."""
    return _splitmix64((master ^ (index * _WEYL)) & _MASK64)


def random_coloring(H: LinearHypergraph, seed: int) -> tuple[int, ...]:
    """One independent fair 2-coloring per hyperedge, as one bit mask per
    hyperedge: bit j of mask e colors slot j (position j in the edge tuple)
    of hyperedge e, and is a fixed function of (seed, e, j): the top bit of
    splitmix64(state ^ ((e << 20) | j)), with state = splitmix64(seed).  A
    vertex may get different colors in different hyperedges.  All E * r
    slot bits are drawn in one uint64 array pass, whose wrapping arithmetic
    is splitmix64's mod 2^64, so a coloring replays bit for bit; each
    hyperedge's r bits are packed little-endian into its mask."""
    if H.r >= 1 << 20:
        raise ValueError("hyperedge size out of range for slot derivation")
    state = _splitmix64(seed & _MASK64)
    u64 = np.uint64
    x = np.arange(len(H.edges), dtype=u64)[:, None] << u64(20) | np.arange(H.r, dtype=u64)
    bits = _splitmix64(x ^ u64(state)) >> 63
    packed = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    width, raw = packed.shape[1], packed.tobytes()
    return tuple(int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width))


def bichromatic_subgraph(H: LinearHypergraph, coloring: tuple[int, ...]) -> Graph:
    """Subgraph of the shadow keeping exactly the pairs whose (unique)
    common hyperedge colors their two ends differently."""
    if len(coloring) != len(H.edges):
        raise ValueError("coloring does not match the hypergraph")
    rows = [0] * H.n
    for edge, b in zip(H.edges, coloring):
        ones = sum(1 << v for j, v in enumerate(edge) if b >> j & 1)
        zeros = sum(1 << v for j, v in enumerate(edge) if not b >> j & 1)
        for v in edge:
            rows[v] |= zeros if ones >> v & 1 else ones
    # symmetric, loopless and in range: "ones" get "zeros" and "zeros" get "ones"
    return Graph(H.n, rows)


def derive_transfer_params(H: LinearHypergraph) -> PseudorandomParams:
    """Targets of the colored subgraph: the shadow's alpha = dr/2n and
    m = ceil(2n/r), with alpha halved, as the coloring keeps each pair
    with probability 1/2."""
    d = H.regular_degree()
    n, r = H.n, H.r
    alpha = Fraction(d * r, 2 * n)
    if alpha > 1:  # only an r = 1 hypergraph that repeats a hyperedge has dr > 2n
        alpha = Fraction(1)
    return PseudorandomParams(alpha / 2, math.ceil(Fraction(2 * n, r)), "transfer-derived")


class TrialResult(NamedTuple):
    trial: int
    seed: int
    edges_kept: int
    fraction_ok: bool
    pattern_free: bool | None
    pseudorandom_sampled: bool


@dataclass(frozen=True)
class TransferReport:
    shadow_edges: int
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
    # a linear hypergraph's hyperedges share no pair
    shadow_edges = len(H.edges) * math.comb(H.r, 2)
    if shadow_edges < MIN_CONCENTRATION_SHADOW_EDGES:
        raise ValueError(
            f"concentration check needs >= {MIN_CONCENTRATION_SHADOW_EDGES} shadow edges"
        )
    if trials < 1:
        raise ValueError("need at least one trial")
    colored = derive_transfer_params(H)
    results = []
    kept_total = 0
    for t in range(trials):
        trial_seed = derive_seed(seed, t)
        G = bichromatic_subgraph(H, random_coloring(H, trial_seed))
        kept = G.edge_count
        kept_total += kept
        free = None
        if pattern is not None:
            free = is_pattern_free(G, pattern)[0]
        pseudo = check_pseudorandom(
            G,
            colored,
            mode="sampled",
            samples=samples,
            seed=derive_seed(trial_seed, 2),
        ).ok
        results.append(
            TrialResult(
                trial=t,
                seed=trial_seed,
                edges_kept=kept,
                fraction_ok=0.4 <= kept / shadow_edges <= 0.6,
                pattern_free=free,
                pseudorandom_sampled=pseudo,
            )
        )
    return TransferReport(
        shadow_edges=shadow_edges,
        expected_kept_per_edge=math.comb(H.r, 2) / 2.0,
        mean_kept_per_edge=kept_total / (trials * len(H.edges)),
        trials=tuple(results),
        all_fractions_ok=all(r.fraction_ok for r in results),
        all_pattern_free=None if pattern is None else all(r.pattern_free for r in results),
    )
