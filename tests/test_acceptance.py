"""Shipping gate: one test per advertised guarantee, each printing a verdict.

Every check here re-derives its expected values from first principles
(counting, exhaustive search, independent arithmetic); nothing is trusted
from the modules under test beyond the operation being exercised.
"""

from __future__ import annotations

import contextlib
import json
import math
import subprocess
import sys
import time

import pytest

import gf_reference
import graph_reference as ref
from ramseyforge import certify as ce
from ramseyforge import geometry as geo
from ramseyforge import graphcore as gc
from ramseyforge import spectral as sp
from ramseyforge import transfer as tr
from ramseyforge.cli import dispatch
from ramseyforge.gf import spec_for
from ramseyforge.graphcore import ForbiddenPattern, Graph

MASTER_SEED = 20260814

POLARITY_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13)
CHARACTER_CASES = (
    (1, "edgeless", (3, 5, 7, 9, 11, 13)),
    (2, "triangle-free", (5, 7, 9, 11, 13)),
    (3, "k4-free", (3, 5, 7)),
)


@contextlib.contextmanager
def criterion(capsys, idx: int, label: str, limit: float | None = None):
    started = time.monotonic()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.monotonic() - started
        over = limit is not None and elapsed >= limit
        verdict = "FAIL" if (failed or over) else "PASS"
        stamp = f"{elapsed:.1f}s" + (f" < {limit:.0f}s" if limit is not None else "")
        with capsys.disabled():
            print(f"\nacceptance {idx} ({label}): {verdict} [{stamp}]", flush=True)
    if limit is not None:
        assert elapsed < limit, f"criterion {idx} exceeded its {limit}s budget"


def test_criterion_1_polarity_graphs(capsys):
    with criterion(capsys, 1, "polarity graphs", 30):
        for q in POLARITY_ORDERS:
            G = geo.polarity_graph(q)
            n = q * q + q + 1
            assert G.n == n
            absolute = set(gf_reference.absolute_points_by_objects(spec_for(q)))
            assert len(absolute) == q + 1
            assert absolute == {v for v in range(n) if G.degrees[v] == q}
            assert all(G.degrees[v] == q + 1 for v in range(n) if v not in absolute)
            free, _ = gc.is_pattern_free(G, ForbiddenPattern.c4())
            assert free, f"q={q} has a 4-cycle"
            # self-adjacency restored on absolute points completes the
            # +/- sqrt(q) spectrum; the loopless graph shifts q+1 diagonal
            # entries and only approximates it
            A = sp.adjacency_matrix(G)
            for v in absolute:
                A[v, v] = 1.0
            vals = sp.symmetric_eigenvalues(A)
            assert abs(vals[0] - (q + 1)) <= 1e-6
            assert max(abs(abs(v) - math.sqrt(q)) for v in vals[1:]) <= 1e-6


def test_criterion_2_hermitian_unital(capsys):
    with criterion(capsys, 2, "hermitian unital", 60):
        for q in (2, 3, 4):
            H = geo.unital_line_hypergraph(q)
            assert H.n == q * q * (q * q - q + 1)
            assert H.r == q * q
            assert H.regular_degree() == q + 1
            sets = [frozenset(e) for e in H.edges]
            assert len(sets) == (q + 1) * H.n // H.r
            for i in range(len(sets)):
                for j in range(i + 1, len(sets)):
                    assert len(sets[i] & sets[j]) <= 1
            if q <= 3:
                strong, bad = ref.two_coloring_strong_freeness(H, ForbiddenPattern.clique(4))
                assert strong, f"q={q} shadow K4 not covered: {bad}"


def test_criterion_3_transference(capsys):
    with criterion(capsys, 3, "transference at q=3", 120):
        H = geo.unital_line_hypergraph(3)
        rep = tr.concentration_check(H, 100, MASTER_SEED, pattern=ForbiddenPattern.clique(4))
        assert len(rep.trials) == 100
        assert rep.all_pattern_free is True  # every trial exactly K4-free
        assert rep.all_fractions_ok is True  # kept fraction in [0.4, 0.6] per trial
        assert rep.expected_kept_per_edge == math.comb(9, 2) / 2
        assert abs(rep.mean_kept_per_edge - 18.0) <= 0.05 * 18.0


def _spectral_corpus():
    """(name, graph, family, params): the family and parameters that rebuild
    the graph, or None for graphs built otherwise."""
    for q in POLARITY_ORDERS:
        yield f"er{q}", geo.polarity_graph(q), "er", {"q": q}
    for q in (2, 3, 4):
        yield f"unital{q}-shadow", ref.shadow(geo.unital_line_hypergraph(q)), None, None
    for s, _, orders in CHARACTER_CASES:
        for q in orders:
            for variant in ("canonical", "symmetrized"):
                params = {"q": q, "s": s, "variant": variant}
                yield f"bip({q},{s}){variant[:3]}", geo.bip_graph(q, s, variant), "bip", params
    H3 = geo.unital_line_hypergraph(3)
    for i in range(3):
        coloring = tr.random_coloring(H3, tr.derive_seed(5, i))
        yield f"colored{i}", tr.bichromatic_subgraph(H3, coloring), None, None
    yield "k55", Graph.from_edges(10, [(i, 5 + j) for i in range(5) for j in range(5)]), None, None
    yield "petersen", Graph.from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    ), None, None


def test_criterion_5_spectral_identities(capsys):
    with criterion(capsys, 5, "spectral identities"):
        hoffman_at = {}
        for name, G, family, params in _spectral_corpus():
            assert G.n <= 500, name
            if G.n == 0:
                continue
            rep = sp.spectrum(G)
            checks = sp.trace_checks(G, rep)  # sum 0, squares 2|E|, cubes 6*triangles
            assert checks["ok"], (name, checks)
            if rep.is_regular and rep.d >= 1:
                for k in range(1, 11):
                    assert sp.alon_boppana_check(rep, k), (name, k)
            if rep.is_regular and G.edge_count and rep.d - rep.lam_min > 1e-12:
                # a family with reflections proves alpha by orbital branching
                symmetry = ce.family_symmetry(family, params, G) if family else None
                alpha = gc.independence_number(G, symmetry=symmetry).value
                bound = sp.hoffman_bound(rep)
                assert bound >= alpha - 1e-9, (name, bound, alpha)
                hoffman_at[name] = (bound, alpha)
        for tight in ("k55", "petersen"):
            bound, alpha = hoffman_at[tight]
            assert bound == pytest.approx(alpha, abs=1e-9), tight


def test_criterion_6_character_graphs(capsys):
    reported: list[str] = []
    with criterion(capsys, 6, "character graphs", 120):
        for s, property_name, orders in CHARACTER_CASES:
            pattern = None if s == 1 else ForbiddenPattern.clique(s + 1)
            for q in orders:
                canonical = geo.bip_graph(q, s, "canonical")
                if pattern is None:
                    bad = canonical.edge_count > 0
                else:
                    ok, _ = gc.is_pattern_free(canonical, pattern)
                    bad = not ok
                if bad:
                    reported.append(
                        f"[{q},{s}] canonical representative rule is not {property_name}"
                    )
                symmetrized = geo.bip_graph(q, s, "symmetrized")
                if pattern is None:
                    assert symmetrized.edge_count == 0, f"[{q},1] symmetrized has edges"
                else:
                    ok, witness = gc.is_pattern_free(symmetrized, pattern)
                    assert ok, f"[{q},{s}] symmetrized contains {pattern.name}: {witness}"
    if reported:
        with capsys.disabled():
            for line in reported:
                print(f"  reported against the representative-normalization question: {line}")


def test_criterion_7_certificates(capsys, tmp_path):
    with criterion(capsys, 7, "certificates", 30):
        cert_path = tmp_path / "er7.json"
        code = dispatch(
            ["certify", "--family", "er", "--q", "7", "--pattern", "c4",
             "--p", "1", "--out", str(cert_path)]
        )
        capsys.readouterr()
        assert code == 0
        cert = json.loads(cert_path.read_text())
        alpha = gc.independence_number(geo.polarity_graph(7)).value
        assert cert["t"] == alpha + 1
        assert cert["witnessCount"] == 57
        assert cert["valid"] is True

        code = dispatch(["verify", "--cert", str(cert_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["status"] == "VALID"

        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(dict(cert, witnessCount=cert["witnessCount"] + 1)))
        code = dispatch(["verify", "--cert", str(mutated)])
        out = capsys.readouterr().out
        assert code == 1
        assert json.loads(out)["status"] == "INVALID"


def test_criterion_8_thread_determinism(capsys, tmp_path):
    with criterion(capsys, 8, "thread determinism"):
        graph_path = tmp_path / "er5.txt"
        code = dispatch(["construct", "er", "--q", "5", "--out", str(graph_path)])
        capsys.readouterr()
        assert code == 0
        commands = [
            ["transfer", "--q", "3", "--trials", "6", "--seed", "17"],
            ["certify", "--family", "er", "--q", "7", "--pattern", "c4", "--p", "1"],
            ["spectrum", "--in", str(graph_path)],
        ]
        for cmd in commands:
            outputs = set()
            for threads in ("1", "4", "8"):
                proc = subprocess.run(
                    [sys.executable, "-m", "ramseyforge.cli", *cmd, "--threads", threads],
                    capture_output=True,
                    timeout=120,
                )
                assert proc.returncode == 0, (cmd, threads, proc.stderr)
                outputs.add(proc.stdout)
            assert len(outputs) == 1, cmd
