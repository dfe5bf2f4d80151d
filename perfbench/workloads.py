"""The four workloads: op lists, set-up ops and each op's output check.

An op list is a pure function of (workload, seed, pass index): every per-op
seed, relabelling and random graph below is derived from the workload seed,
and the program only ever sees the generated inputs.  Where an op's cost
depends on its seed (sampled certificates, transfer trials, random graphs),
each pass draws fresh seeds, so a run's median pass covers many inputs
rather than one batch.  Checks compare outputs with values from oracle.py and return a list
of problems (empty = pass).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

WORKLOADS = ("certify", "spectrum", "pseudorandom", "build-check")


@dataclass
class Op:
    """One closed-loop operation: a CLI command run through cli.dispatch, or
    one library call `call(prog)` where no command exists."""

    label: str
    argv: list[str] | None = None
    call: Callable | None = None
    out: str | None = None  # the file the command writes with --out
    check: Callable[[dict], list[str]] | None = None
    after: Callable[[], None] | None = None  # derives the next op's input
    inputs: tuple = ()  # seed-derived input description, for op-list identity

    def signature(self) -> tuple:
        return (self.label, tuple(self.argv or ()), self.inputs)


@dataclass
class Plan:
    fields: tuple[int, ...]  # field orders whose gf tables set-up fills
    setup_ops: list[Op]
    ops_for: Callable[[int], list[Op]]  # the op list of a pass, by pass index
    # Pass times are reported at the reference host speed (hostspeed.py):
    # measured * (REF_S / kernel time) ** speed_exponent.  1 where the ops
    # are pure-Python work like the kernel, whose time follows the host's
    # speed one for one; 0.5 for the numpy and memory-bound workloads, whose
    # time follows it in part (over four ten-run sets 0.5 was the steadiest
    # of 0, 0.5, 0.75 and 1 on both; see NOTES.md, "Noise").
    speed_exponent: float = 1.0


def _seed32(seed: int, index: int) -> int:
    return oracle.derive(seed, index) >> 32


def _read(path: str) -> str:
    return Path(path).read_text()


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _close(problems: list[str], what: str, got, want, tol=1e-6) -> None:
    if not isinstance(got, (int, float)) or abs(got - want) > tol:
        problems.append(f"{what}: got {got!r}, want {want} +- {tol}")


# -- smoke ops: every layer once, on tiny inputs, during set-up ----------------


def _smoke_ops(work: str) -> list[Op]:
    er5, cert = f"{work}/smoke-er5.txt", f"{work}/smoke-cert.json"
    edges = oracle.random_graph_edges(10, 7)
    ops = [
        Op("smoke construct er 5", ["construct", "er", "--q", "5", "--out", er5], out=er5),
        Op("smoke check c4", ["check", "--pattern", "c4", "--in", er5]),
        Op("smoke spectrum", ["spectrum", "--in", er5]),
        Op("smoke containers", ["containers", "--in", er5, "--mode", "sampled", "--samples", "4"]),
        # t below alpha(ER_5) = 10, so the deletion loop finds witnesses too
        Op("smoke certify", ["certify", "--family", "er", "--q", "5", "--pattern", "c4", "--t", "8", "--out", cert],
           out=cert),
        Op("smoke verify", ["verify", "--cert", cert]),
        Op("smoke transfer", ["transfer", "--q", "3", "--trials", "1", "--samples", "2"]),
        Op("smoke construct unital 2", ["construct", "unital", "--q", "2", "--out", f"{work}/smoke-u2.txt"]),
        _alpha_m_op("smoke exact_alpha_m", 10, edges, 5),
    ]
    return ops


# -- shared checks -------------------------------------------------------------


def _alpha_m_op(label: str, n: int, edges, m: int) -> Op:
    """containers.exact_alpha_m on the graph with these edges; the call
    builds the Graph, as a library user would."""
    def call(prog):
        return prog.containers.exact_alpha_m(prog.graphcore.Graph.from_edges(n, edges), m)

    def check(res):
        problems: list[str] = []
        _expect(problems, "exact_alpha_m", res["value"], _min_density(n, tuple(edges), m))
        return problems

    return Op(label, call=call, check=check, inputs=(n, m, tuple(edges)))


@lru_cache(maxsize=None)
def _min_density(n: int, edges: tuple, m: int) -> Fraction:
    return oracle.min_density_at(n, edges, m)


def _check_er_file(path: str, q: int) -> Callable[[dict], list[str]]:
    def check(res):
        problems: list[str] = []
        header, edges = oracle.parse_edge_list(_read(path))
        n = q * q + q + 1
        _expect(problems, "header", header, {"family": "er", "q": q, "n": n})
        _expect(problems, "edges", len(edges), q * (q + 1) ** 2 // 2)
        if len(edges) and not (edges[:, 0] < edges[:, 1]).all():
            problems.append("edge not written as u < v")
        _expect(problems, "distinct edges", len({tuple(e) for e in edges.tolist()}), len(edges))
        deg = np.bincount(edges.ravel(), minlength=n)
        _expect(problems, "degree-q vertices", int((deg == q).sum()), q + 1)
        _expect(problems, "degree-(q+1) vertices", int((deg == q + 1).sum()), q * q)
        return problems

    return check


def _check_free(pattern: str) -> Callable[[dict], list[str]]:
    def check(res):
        problems: list[str] = []
        _expect(problems, "check output", json.loads(res["stdout"]), {"pattern": pattern, "free": True, "witness": None})
        return problems

    return check


def _relabel_to(src: str, dst: str, seed: int) -> Callable[[], None]:
    def after():
        header, edges = oracle.parse_edge_list(_read(src))
        n = int(header["n"])
        Path(dst).write_text(oracle.format_edge_list(n, oracle.relabel(n, edges, seed)))

    return after


# -- certify -------------------------------------------------------------------

CERT_Q, CERT_P, CERT_T, CERT_SAMPLED = 13, 0.5, 26, 4


def _check_cert(path: str, family: str, params: dict, pattern: str, t: int | None, seed: int,
                full_proof=None) -> Callable[[dict], list[str]]:
    def check(res):
        problems: list[str] = []
        cert = json.loads(_read(path))
        _expect(problems, "family", cert.get("family"), family)
        _expect(problems, "params", cert.get("params"), params)
        _expect(problems, "pattern", cert.get("pattern"), pattern)
        _expect(problems, "seed", cert.get("seed"), seed)
        _expect(problems, "valid", cert.get("valid"), True)
        if t is not None:
            _expect(problems, "t", cert.get("t"), t)
        n = full_proof[1] if full_proof else CERT_Q * CERT_Q + CERT_Q + 1
        sample = oracle.sampled_vertices(n, params["p"], seed)
        trace = cert.get("deletionTrace", [])
        if len(set(trace)) != len(trace) or not set(trace) <= set(sample):
            problems.append("deletion trace repeats a vertex or leaves the sample")
        _expect(problems, "witnessCount", cert.get("witnessCount"), len(sample) - len(trace))
        if full_proof:
            # t - 1 <= alpha: exhibit an independent set of size t - 1
            adj = full_proof[0]()
            found = oracle.independent_set(adj, cert["t"] - 1)
            if found is None or not oracle.is_independent(adj, found):
                problems.append(f"no independent set of size t-1={cert['t'] - 1} found")
            _expect(problems, "deletion trace at p=1", trace, [])
        return problems

    return check


def _check_verify(cert_path: str, n: int, p: float) -> Callable[[dict], list[str]]:
    def check(res):
        problems: list[str] = []
        out = json.loads(res["stdout"])
        cert = json.loads(_read(cert_path))
        count = len(oracle.sampled_vertices(n, p, cert["seed"])) - len(cert["deletionTrace"])
        _expect(problems, "status", out.get("status"), "VALID")
        _expect(problems, "claim", out.get("claim"), f"r({cert['pattern']}, {cert['t']}) > {count}")
        for key in ("patternFree", "alphaLessThanT", "witnessCountOk"):
            _expect(problems, key, out.get(key), True)
        return problems

    return check


@lru_cache(maxsize=None)
def _er7():
    return oracle.er_graph(7)


@lru_cache(maxsize=None)
def _bip11():
    return oracle.bip_symmetrized_graph(11)


def _certify_ops(seed: int, index: int, work: str) -> list[Op]:
    ops = []
    n = CERT_Q * CERT_Q + CERT_Q + 1
    for i in range(CERT_SAMPLED):
        s = _seed32(oracle.derive(seed, index), 1000 + i)
        path = f"{work}/cert-{i}.json"
        argv = ["certify", "--family", "er", "--q", str(CERT_Q), "--pattern", "c4", "--p", str(CERT_P),
                "--t", str(CERT_T), "--seed", str(s), "--out", path]
        params = {"p": CERT_P, "q": CERT_Q}
        ops.append(Op(f"certify er{CERT_Q} sampled #{i}", argv, out=path,
                      check=_check_cert(path, "er", params, "c4", CERT_T, s)))
        ops.append(Op(f"verify er{CERT_Q} sampled #{i}", ["verify", "--cert", path],
                      check=_check_verify(path, n, CERT_P)))
    full = [
        ("er7", ["--family", "er", "--q", "7", "--pattern", "c4"], "er", {"p": 1.0, "q": 7}, "c4", (_er7, 57)),
        ("bip11", ["--family", "bip", "--q", "11", "--s", "2", "--pattern", "triangle"], "bip",
         {"p": 1.0, "q": 11, "s": 2, "variant": "symmetrized"}, "k3", (_bip11, len(_bip11()))),
    ]
    for name, args, family, params, pattern, proof in full:
        path = f"{work}/cert-{name}.json"
        ops.append(Op(f"certify {name} p=1", ["certify", *args, "--out", path], out=path,
                      check=_check_cert(path, family, params, pattern, None, 0, full_proof=proof)))
        ops.append(Op(f"verify {name} p=1", ["verify", "--cert", path],
                      check=_check_verify(path, proof[1], 1.0)))
    return ops


def _certify_plan(seed: int, work: str) -> Plan:
    return Plan((CERT_Q, 7, 11), [], lambda index: _certify_ops(seed, index, work))


# -- spectrum ------------------------------------------------------------------

SPECTRUM_Q = (23, 25, 27)


@lru_cache(maxsize=None)
def _file_facts(text: str) -> tuple[int, int, int]:
    header, edges = oracle.parse_edge_list(text)
    n = int(header["n"])
    return n, len(edges), oracle.triangle_count(n, edges)


def _check_spectrum(path: str, q: int | None) -> Callable[[dict], list[str]]:
    def check(res):
        problems: list[str] = []
        out = json.loads(res["stdout"])
        n, m, triangles = _file_facts(_read(path))
        tc = out.get("traceChecks", {})
        _expect(problems, "traceChecks.ok", tc.get("ok"), True)
        _expect(problems, "traceChecks.triangleCount", tc.get("triangleCount"), triangles)
        if q is None:  # the unital-4 shadow: 75-regular on 208 vertices
            _expect(problems, "n", out.get("n"), 208)
            _expect(problems, "edgeCount", tc.get("edgeCount"), 65 * math.comb(16, 2))
            _expect(problems, "regular", out.get("regular"), True)
            _close(problems, "lambda1", out.get("lambda1"), 75.0)
            _close(problems, "hoffman", out.get("hoffman"), 13.0)
            _expect(problems, "alonBoppana", out.get("alonBoppana"), True)
            return problems
        _expect(problems, "n", out.get("n"), q * q + q + 1)
        _expect(problems, "edgeCount", tc.get("edgeCount"), q * (q + 1) ** 2 // 2)
        _expect(problems, "regular", out.get("regular"), False)
        d = 2 * m / n
        _close(problems, "d", out.get("d"), d, 1e-9)
        lam1 = out.get("lambda1")
        if not isinstance(lam1, float) or not d - 1e-9 <= lam1 <= q + 1 + 1e-9:
            problems.append(f"lambda1 {lam1!r} outside [average degree, max degree]")
        _expect(problems, "hoffman", out.get("hoffman"), None)
        _expect(problems, "alonBoppana", out.get("alonBoppana"), None)
        return problems

    return check


def _shadow_file(src: str, dst: str, seed: int) -> Callable[[], None]:
    def after():
        lines = _read(src).splitlines()
        header = json.loads(lines[0][1:])
        hyperedges = [[int(x) for x in line.split()] for line in lines[1:] if line.strip()]
        n = int(header["n"])
        shadow = oracle.shadow_edges(hyperedges)
        Path(dst).write_text(oracle.format_edge_list(n, oracle.relabel(n, shadow, seed)))

    return after


def _spectrum_plan(seed: int, work: str) -> Plan:
    setup, ops = [], []
    for q in SPECTRUM_Q:
        raw, path, s = f"{work}/er{q}-raw.txt", f"{work}/er{q}.txt", _seed32(seed, 2000 + q)
        setup.append(Op(f"input er{q}", ["construct", "er", "--q", str(q), "--out", raw], out=raw,
                        check=_check_er_file(raw, q), after=_relabel_to(raw, path, s)))
        ops.append(Op(f"spectrum er{q}", ["spectrum", "--in", path], check=_check_spectrum(path, q),
                      inputs=("relabel", s)))
    raw, path, s = f"{work}/u4-raw.txt", f"{work}/u4-shadow.txt", _seed32(seed, 2100)
    setup.append(Op("input unital 4", ["construct", "unital", "--q", "4", "--out", raw], out=raw,
                    after=_shadow_file(raw, path, s)))
    ops.append(Op("spectrum unital-4 shadow", ["spectrum", "--in", path], check=_check_spectrum(path, None),
                  inputs=("relabel", s)))
    return Plan((*SPECTRUM_Q, 16), setup, lambda index: ops, speed_exponent=0.5)


# -- pseudorandom --------------------------------------------------------------

TRANSFER_RUNS, TRANSFER_TRIALS = 1, 25
ALPHA_GRAPHS, ALPHA_N = 2, 18
UNITAL3_POINTS, UNITAL3_R = 28, 9  # hyperedges and their size in the q=3 line hypergraph
UNITAL3_SHADOW = UNITAL3_POINTS * math.comb(UNITAL3_R, 2)


def _check_transfer(seed: int, trials: int) -> Callable[[dict], list[str]]:
    def check(res):
        problems: list[str] = []
        lines = [json.loads(line) for line in res["stdout"].splitlines()]
        _expect(problems, "lines", len(lines), trials + 1)
        kept_total = 0
        for t, row in enumerate(lines[:-1]):
            trial_seed = oracle.derive(seed, t)
            kept = oracle.transfer_kept_edges(trial_seed, UNITAL3_POINTS, UNITAL3_R)
            kept_total += kept
            _expect(problems, f"trial {t}", (row.get("trial"), row.get("seed")), (t, trial_seed))
            _expect(problems, f"trial {t} edgesKept", row.get("edgesKept"), kept)
            if not 0.4 * UNITAL3_SHADOW <= kept <= 0.6 * UNITAL3_SHADOW:
                problems.append(f"trial {t} keeps {kept} of {UNITAL3_SHADOW} edges")
            _expect(problems, f"trial {t} patternFree", row.get("patternFree"), True)
            _expect(problems, f"trial {t} (alpha', m')", (row.get("alphaPrime"), row.get("mPrime")), ("1/7", 14))
        summary = lines[-1]
        _expect(problems, "trials", summary.get("trials"), trials)
        _expect(problems, "shadowEdges", summary.get("shadowEdges"), UNITAL3_SHADOW)
        _expect(problems, "allFractionsOk", summary.get("allFractionsOk"), True)
        _expect(problems, "allPatternFree", summary.get("allPatternFree"), True)
        _expect(problems, "expectedKeptPerEdge", summary.get("expectedKeptPerEdge"), math.comb(UNITAL3_R, 2) / 2)
        _close(problems, "meanKeptPerEdge", summary.get("meanKeptPerEdge"),
               kept_total / (trials * UNITAL3_POINTS), 1e-12)
        return problems

    return check


def _pseudorandom_plan(seed: int, work: str) -> Plan:
    def ops_for(index: int) -> list[Op]:
        ops = []
        pass_seed = oracle.derive(seed, index)
        for i in range(TRANSFER_RUNS):
            s = _seed32(pass_seed, 3000 + i)
            ops.append(Op(f"transfer q3 #{i}", ["transfer", "--q", "3", "--trials", str(TRANSFER_TRIALS),
                                                 "--pattern", "k4", "--seed", str(s)],
                          check=_check_transfer(s, TRANSFER_TRIALS)))
        for i in range(ALPHA_GRAPHS):
            edges = oracle.random_graph_edges(ALPHA_N, oracle.derive(pass_seed, 4000 + i))
            ops.append(_alpha_m_op(f"exact_alpha_m G({ALPHA_N},1/2) #{i}", ALPHA_N, edges, ALPHA_N // 2))
        return ops

    return Plan((9,), [], ops_for)


# -- build-check ---------------------------------------------------------------


def _check_unital_file(path: str, q: int) -> Callable[[dict], list[str]]:
    def check(res):
        problems: list[str] = []
        lines = _read(path).splitlines()
        n, r = q * q * (q * q - q + 1), q * q
        _expect(problems, "header", json.loads(lines[0][1:]), {"family": "unital", "q": q, "n": n, "r": r})
        rows = [[int(x) for x in line.split()] for line in lines[1:]]
        _expect(problems, "hyperedges", len(rows), q**3 + 1)
        if any(len(row) != r or row != sorted(set(row)) for row in rows):
            problems.append("hyperedge not a sorted set of q^2 vertices")
        deg = [0] * n
        for row in rows:
            for v in row:
                deg[v] += 1
        _expect(problems, "vertex degrees", set(deg), {q + 1})
        return problems

    return check


def _build_check_plan(seed: int, work: str) -> Plan:
    ops = []
    q = 49
    raw, path, s = f"{work}/er{q}.txt", f"{work}/er{q}-relabelled.txt", _seed32(seed, 5000 + q)
    ops.append(Op(f"construct er {q}", ["construct", "er", "--q", str(q), "--out", raw], out=raw,
                  check=_check_er_file(raw, q), after=_relabel_to(raw, path, s)))
    for pattern in ("c4", "k4"):
        ops.append(Op(f"check {pattern} er{q}", ["check", "--pattern", pattern, "--in", path],
                      check=_check_free(pattern), inputs=("relabel", s)))
    out = f"{work}/unital8.txt"
    ops.append(Op("construct unital 8", ["construct", "unital", "--q", "8", "--out", out], out=out,
                  check=_check_unital_file(out, 8)))
    return Plan((49, 64), [], lambda index: ops, speed_exponent=0.5)


_PLANS = {
    "certify": _certify_plan,
    "spectrum": _spectrum_plan,
    "pseudorandom": _pseudorandom_plan,
    "build-check": _build_check_plan,
}


def plan(workload: str, seed: int, work: str) -> Plan:
    p = _PLANS[workload](seed, work)
    p.setup_ops = _smoke_ops(work) + p.setup_ops
    return p
