"""Replayable Ramsey lower-bound certificates.

A certificate names its witness graph indirectly: (family, params, seed,
deletion trace) pin down a reconstruction recipe instead of shipping a vertex
list.  Verification rebuilds the ambient graph from scratch, replays the
sample and the deletions, and re-runs both exact checks (pattern-freeness,
independence number < t).  Nothing in a certificate is trusted; VALID means
the replay passed both checks just now.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

from . import __version__
from .geometry import (
    bip_graph,
    bip_reflections,
    polarity_graph,
    polarity_reflections,
    unital_line_hypergraph,
)
from .graphcore import (
    AlphaResult,
    Automorphisms,
    ForbiddenPattern,
    Graph,
    UndecidedError,
    find_independent_set,
    is_pattern_free,
)
from .transfer import bichromatic_subgraph, derive_seed, random_coloring

TOOL_VERSION = __version__


# --- threshold formulas ------------------------------------------------------


def t_transfer(n: int, r: int, d: int) -> int:
    """Independence threshold ceil(256 n (ln n)^2 / (r d)) for the colored
    subgraph of an r-uniform d-regular linear hypergraph on n vertices."""
    if n < 1 or r < 1 or d < 1:
        raise ValueError("need n, r, d >= 1")
    return math.ceil(256 * n * math.log(n) ** 2 / (r * d))


# --- certificates ------------------------------------------------------------


def sampled_vertices(n: int, p: float, seed: int) -> list[int]:
    """Independent inclusion of each vertex with probability p, driven by the
    per-index seed chain so the draw replays from (n, p, seed) alone."""
    if not 0 < p <= 1:
        raise ValueError("need 0 < p <= 1")
    if p >= 1:
        return list(range(n))
    cut = int(p * 2.0**64)
    return [v for v in range(n) if derive_seed(seed, v) < cut]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# JSON key of each certificate field: (attribute, JSON type)
_FIELDS = {
    "family": ("family", str), "params": ("params", dict), "pattern": ("pattern", str),
    "t": ("t", int), "witnessCount": ("witness_count", int), "seed": ("seed", int),
    "deletionTrace": ("deletion_trace", list), "valid": ("valid", bool),
    "toolVersion": ("tool_version", str),
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_INT, _NUMBER = (_is_int, "an int"), (_is_number, "a number")
_VARIANT = (lambda value: value in ("canonical", "symmetrized"), "'canonical' or 'symmetrized'")

# params key of each family's certificates: (check its value passes, what that is)
_PARAMS = {
    "er": {"q": _INT, "p": _NUMBER},
    "bip": {"q": _INT, "s": _INT, "variant": _VARIANT, "p": _NUMBER},
    "unital-transfer": {"q": _INT, "colorSeed": _INT, "p": _NUMBER},
}


@dataclass(frozen=True)
class RamseyCertificate:
    """Claim r(pattern, t) > witness_count, backed by a replayable witness.

    The witness is sampled_vertices(n, params["p"], seed) minus the deletion
    trace, inside the graph rebuilt by build_family(family, params).
    """

    family: str
    params: dict
    pattern: str
    t: int
    witness_count: int
    seed: int
    deletion_trace: tuple[int, ...]
    valid: bool
    tool_version: str = TOOL_VERSION

    def claim(self) -> str:
        return f"r({self.pattern}, {self.t}) > {self.witness_count}"

    def to_json(self) -> str:
        payload = {key: getattr(self, attr) for key, (attr, _) in _FIELDS.items()}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "RamseyCertificate":
        """Parse a certificate; ValueError unless it is a JSON object whose
        fields, and the params of a known family, have the types to_json
        writes.  A params key left out, or an unknown family, is left to
        verification: the rebuild uses the key's default or fails."""
        try:
            raw = json.loads(text)
        except RecursionError:
            raise ValueError("certificate JSON nests too deeply") from None
        if not isinstance(raw, dict):
            raise ValueError("certificate must be a JSON object")
        fields = {}
        for key, (attr, kind) in _FIELDS.items():
            value = raw.get(key)
            if not (_is_int(value) if kind is int else isinstance(value, kind)):
                raise ValueError(f"certificate field {key!r} must be {kind.__name__}")
            fields[attr] = value
        if not all(_is_int(v) for v in fields["deletion_trace"]):
            raise ValueError("certificate field 'deletionTrace' must list ints")
        keys = _PARAMS.get(fields["family"])
        for key, value in fields["params"].items() if keys else ():  # else the rebuild fails
            if key not in keys:
                raise ValueError(f"certificate field 'params' takes no key {key!r}")
            check, kind = keys[key]
            if not check(value):
                raise ValueError(f"certificate field 'params' key {key!r} must be {kind}")
        return cls(**{**fields, "deletion_trace": tuple(fields["deletion_trace"])})


def build_family(family: str, params: dict) -> Graph:
    """Reconstruct the ambient graph a certificate refers to."""
    if family == "er":
        return polarity_graph(params["q"])
    if family == "bip":
        return bip_graph(params["q"], params["s"], params.get("variant", "symmetrized"))
    if family == "unital-transfer":
        H = unital_line_hypergraph(params["q"])
        return bichromatic_subgraph(H, random_coloring(H, params["colorSeed"]))
    raise ValueError(f"unknown certificate family {family!r}")


def family_symmetry(family: str, params: dict, G: Graph) -> Automorphisms | None:
    """Verified reflections of G = build_family(family, params), for the
    exact searches on the whole of G; None for the families without them:
    even q, the canonical bip variant and unital-transfer."""
    if family == "er" and params["q"] % 2:
        return Automorphisms(G, polarity_reflections(params["q"]))
    if family == "bip" and params.get("variant", "symmetrized") == "symmetrized":
        return Automorphisms(G, bip_reflections(params["q"], params["s"]))
    return None


def check_ambient(G: Graph, F: ForbiddenPattern, budget: int | None = None) -> None:
    """Raise ValueError unless G is F-free: every witness is an induced
    subgraph of G, so no certificate exists over an ambient copy of F."""
    free, witness = is_pattern_free(G, F, budget)
    if not free:
        raise ValueError(f"ambient graph contains {F.name}: {witness}")


def sample_and_delete(
    G: Graph,
    F: ForbiddenPattern,
    t: int,
    p: float,
    seed: int,
    family: str,
    params: dict,
    budget: int | None = None,
    alpha: AlphaResult | None = None,
) -> RamseyCertificate:
    """Sample vertices with probability p, then, while the induced subgraph
    still has an independent set of size t, delete one vertex of a found set
    (largest degree in the current subgraph, ties to the smallest label).

    With p = 1 the whole procedure is deterministic, so repeated runs agree
    exactly.  If the exact solver runs out of budget, UndecidedError
    propagates and no certificate is made, so every one returned is proved
    (valid=True).  Given alpha = independence_number(G), a t above
    alpha.upper leaves nothing to search.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    check_ambient(G, F, budget)
    alive = sampled_vertices(G.n, p, seed)
    trace: list[int] = []
    sub = G.induced(alive)
    while alive and (alpha is None or alpha.upper >= t):
        found = find_independent_set(sub, t, budget)
        if found is None:
            break
        victim = max(found, key=lambda i: (sub.degrees[i], -i))
        trace.append(alive[victim])
        del alive[victim]
        sub = sub.drop_vertex(victim)
    # G is F-free, so G[alive] is too, and the last round (or alpha) found
    # no independent t-set: the loop has proved both claims
    return RamseyCertificate(
        family=family,
        params={**params, "p": p},
        pattern=F.name,
        t=t,
        witness_count=len(alive),
        seed=seed,
        deletion_trace=tuple(trace),
        valid=True,
    )


class VerificationResult(NamedTuple):
    status: str  # "VALID" | "INVALID" | "UNVERIFIED"
    pattern_free: bool | None
    alpha_less_than_t: bool | None
    witness_count_ok: bool
    detail: str


def verify_certificate(
    cert: RamseyCertificate, budget: int | None = None
) -> VerificationResult:
    """Rebuild the witness from the certificate fields alone and re-run both
    exact checks.  The certificate's own valid bit is ignored."""
    try:
        G = build_family(cert.family, cert.params)
        F = ForbiddenPattern.parse(cert.pattern)
        sampled = sampled_vertices(G.n, float(cert.params.get("p", 1.0)), cert.seed)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        return VerificationResult("INVALID", None, None, False, f"reconstruction failed: {exc}")
    pool = set(sampled)
    for v in cert.deletion_trace:
        if v not in pool:
            return VerificationResult(
                "INVALID", None, None, False,
                f"deletion trace names vertex {v} outside the surviving sample",
            )
        pool.discard(v)
    alive = sorted(pool)
    if len(alive) != cert.witness_count:
        return VerificationResult(
            "INVALID", None, None, False,
            f"witness has {len(alive)} vertices, certificate says {cert.witness_count}",
        )
    sub = G.induced(alive)
    symmetry = family_symmetry(cert.family, cert.params, G) if sub is G else None
    try:
        free, copy = is_pattern_free(sub, F, budget)
        found = find_independent_set(sub, cert.t, budget, symmetry)
    except UndecidedError as exc:
        return VerificationResult(
            "UNVERIFIED", None, None, True, f"exact checks exceeded budget: {exc}"
        )
    alpha_ok = found is None
    if free and alpha_ok:
        return VerificationResult("VALID", True, True, True, f"claim {cert.claim()} replayed")
    # each failed check with its witness, as vertices of the rebuilt graph
    failed = [] if free else [f"{F.name} found: {[alive[v] for v in copy]}"]
    if not alpha_ok:
        failed.append(f"independent set of size t = {cert.t} found: {[alive[v] for v in found]}")
    return VerificationResult("INVALID", free, alpha_ok, True, "; ".join(failed))

