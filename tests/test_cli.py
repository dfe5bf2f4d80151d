"""End-to-end command tests: exit codes, JSON payloads, manifests."""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import random
import re
import time

import pytest

import gf_reference
import graph_reference as ref
from ramseyforge import cli
from ramseyforge import geometry as geo
from ramseyforge import gf
from ramseyforge import graphcore as gc
from ramseyforge import transfer as tr
from ramseyforge.certify import RamseyCertificate, verify_certificate
from ramseyforge.cli import dispatch
from ramseyforge.graphcore import read_graph


def run(capsys, argv):
    code = dispatch(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def manifest(err: str) -> dict:
    return json.loads(err.strip().splitlines()[-1])


@pytest.fixture()
def er3_file(tmp_path, capsys):
    path = tmp_path / "er3.txt"
    code, out, _ = run(capsys, ["construct", "er", "--q", "3"])
    assert code == 0
    path.write_text(out)
    return str(path)


def test_fields(capsys):
    code, out, err = run(capsys, ["fields", "--q", "9"])
    assert code == 0
    assert json.loads(out) == {
        "order": 9, "p": 3, "k": 2, "modulus": [1, 0, 1], "smallestNonresidue": [1, 1],
    }
    code, out, _ = run(capsys, ["fields", "--q", "4"])
    assert json.loads(out)["smallestNonresidue"] is None
    assert run(capsys, ["fields", "--q", "6"])[0] == 2
    m = manifest(err)
    assert m["toolVersion"] == "0.1.0" and m["argv"] == ["fields", "--q", "9"]


def test_fields_large_prime_builds_no_tables(capsys, monkeypatch):
    # GF(9973)'s tables would hold 10^8 entries; the least non-residue is
    # found by element powers alone
    def refuse(spec):
        raise AssertionError(f"op_tables({spec}) called")

    monkeypatch.setattr(gf, "op_tables", refuse)
    monkeypatch.setattr(geo, "op_tables", refuse)
    code, out, _ = run(capsys, ["fields", "--q", "9973"])
    assert code == 0
    assert json.loads(out)["smallestNonresidue"] == [2]


def test_fields_output_pinned(capsys):
    # every tabled order, then the largest prime under the cap: one digest
    # over the stdouts in that order
    digest = hashlib.sha256()
    for q in [*gf_reference.ORDERS, 9973]:
        code, out, _ = run(capsys, ["fields", "--q", str(q)])
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == "22c474a456c5a865325952b65e82a7607d80e22fb9220bd67ffa3df3bc4bc61e"


def test_construct_roundtrip(capsys):
    code, out, _ = run(capsys, ["construct", "er", "--q", "3"])
    assert code == 0
    G, header = read_graph(io.StringIO(out))
    assert G == geo.polarity_graph(3)
    assert header == {"family": "er", "q": 3, "n": 13}

    code, out, _ = run(capsys, ["construct", "unital", "--q", "2"])
    assert code == 0
    H, header = ref.read_hypergraph(io.StringIO(out))
    assert H.n == 12 and H.r == 4 and len(H.edges) == 9

    code, out, _ = run(capsys, ["construct", "bip", "--q", "5", "--s", "2", "--variant", "symmetrized"])
    assert code == 0
    G, _ = read_graph(io.StringIO(out))
    assert (G.n, G.edge_count) == (10, 15)


def test_construct_usage_errors(capsys):
    assert run(capsys, ["construct", "bip", "--q", "4", "--s", "2"])[0] == 2  # even q
    assert run(capsys, ["construct", "bip", "--q", "5"])[0] == 2  # missing --s
    assert run(capsys, ["construct", "er", "--q", "6"])[0] == 2


def test_check(capsys, er3_file):
    code, out, err = run(capsys, ["check", "--pattern", "c4", "--in", er3_file])
    assert code == 0
    assert json.loads(out) == {"pattern": "c4", "free": True, "witness": None}
    assert er3_file in manifest(err)["inputHashes"]

    code, out, _ = run(capsys, ["check", "--pattern", "triangle", "--in", er3_file])
    assert code == 1
    payload = json.loads(out)
    assert payload["free"] is False and len(payload["witness"]) == 3

    assert run(capsys, ["check", "--pattern", "c4", "--in", er3_file + ".missing"])[0] == 2


def test_check_budget_undecided(capsys, er3_file, tmp_path):
    code, out, _ = run(capsys, ["construct", "er", "--q", "7"])
    p7 = tmp_path / "er7.txt"
    p7.write_text(out)
    code, _, err = run(capsys, ["check", "--pattern", "k4", "--in", str(p7), "--budget", "1"])
    assert code == 3 and "undecided" in err
    assert run(capsys, ["check", "--pattern", "k4", "--in", str(p7), "--budget", "1000000"])[0] == 0


def test_negative_or_malformed_budget_is_a_usage_error(capsys, tmp_path):
    # a budget of -1 used to exhaust at once and answer undecided (exit 3)
    code, out, _ = run(capsys, ["construct", "er", "--q", "5"])
    er5 = tmp_path / "er5.txt"
    er5.write_text(out)
    check = ["check", "--pattern", "k4", "--in", str(er5)]
    certify = ["certify", "--family", "er", "--q", "5", "--pattern", "c4"]
    for argv in ([*check, "--budget", "-1"], [*certify, "--budget", "-1"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "") and "--budget" in err and "Traceback" not in err
    # a budget of 0 is still a budget
    assert run(capsys, [*check, "--budget", "0"])[0] == 3


def test_spectrum(capsys, er3_file, tmp_path):
    code, out, _ = run(capsys, ["spectrum", "--in", er3_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 13 and payload["regular"] is False
    assert payload["traceChecks"]["ok"] is True
    assert payload["hoffman"] is None and payload["alonBoppana"] is None
    assert payload["lambda1"] == pytest.approx(3.7465682, abs=1e-5)

    # a regular instance exercises the hoffman and tree-walk branches
    from ramseyforge.graphcore import Graph, write_graph

    pet = tmp_path / "c5.txt"
    buf = io.StringIO()
    write_graph(Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]), buf)
    pet.write_text(buf.getvalue())
    code, out, _ = run(capsys, ["spectrum", "--in", str(pet)])
    assert code == 0
    payload = json.loads(out)
    assert payload["regular"] is True and payload["alonBoppana"] is True
    assert payload["hoffman"] == pytest.approx(5**0.5)  # 5*1.618/3.618 on C5


def test_containers(capsys, er3_file):
    code, out, _ = run(capsys, ["containers", "--in", er3_file])
    assert code == 0
    assert json.loads(out) == {
        "alpha": "24/169", "m": 16, "provenance": "mixing-derived",
        "mode": "exhaustive", "ok": True, "violator": None,
    }
    code, out, _ = run(capsys, ["containers", "--in", er3_file, "--mode", "sampled", "--samples", "50", "--seed", "3"])
    assert code == 0 and json.loads(out)["mode"] == "sampled"


def test_containers_output_pinned(capsys, tmp_path):
    # exhaustive ER_3 and bip(5, 2), sampled ER_7 (seed 4) and bip(11, 2):
    # one digest over the stdouts in that order
    digest = hashlib.sha256()
    for argv, extra in (
        (["er", "--q", "3"], []),
        (["bip", "--q", "5", "--s", "2", "--variant", "symmetrized"], []),
        (["er", "--q", "7"], ["--seed", "4"]),
        (["bip", "--q", "11", "--s", "2", "--variant", "symmetrized"], []),
    ):
        path = tmp_path / "graph.txt"
        path.write_text(run(capsys, ["construct", *argv])[1])
        code, out, _ = run(capsys, ["containers", "--in", str(path), *extra])
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == "de73abe58812981bfc4d7a7ae93eb8463face32ed66a8d22285992300c3a4eaf"


def test_transfer(capsys):
    code, out, _ = run(capsys, ["transfer", "--q", "3", "--trials", "5", "--seed", "9", "--pattern", "k4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    first = json.loads(lines[0])
    assert first["trial"] == 0 and first["patternFree"] is True
    assert first["alphaPrime"] == "1/7" and first["mPrime"] == 14
    assert first["pseudorandomSampled"] is True
    summary = json.loads(lines[-1])
    assert summary["shadowEdges"] == 1008 and summary["expectedKeptPerEdge"] == 18.0
    assert summary["allFractionsOk"] is True and summary["allPatternFree"] is True
    assert run(capsys, ["transfer", "--q", "2", "--trials", "5"])[0] == 2  # shadow too small


def test_transfer_output_pinned(capsys):
    # 25 trials with both sampled verdicts; the false ones are re-derived
    # here from the same seeded k-subset draws on each trial's graph, with
    # e(X) counted pair by pair, and the hash pins the kept edges, the
    # pattern checks and every sampled-check verdict
    H = geo.unital_line_hypergraph(3)
    colored = tr.derive_transfer_params(H)
    k = max(colored.m, 2)
    bound = colored.alpha * math.comb(k, 2)
    false_trials = set()
    for i in range(25):
        trial_seed = tr.derive_seed(1, i)
        G = tr.bichromatic_subgraph(H, tr.random_coloring(H, trial_seed))
        rng = random.Random(tr.derive_seed(trial_seed, 2))
        for _ in range(20):
            X = rng.sample(range(G.n), k)
            if sum(G.has_edge(u, v) for u, v in itertools.combinations(X, 2)) < bound:
                false_trials.add(i)
    assert false_trials == {7, 17, 20}
    code, out, _ = run(capsys, ["transfer", "--q", "3", "--trials", "25", "--pattern", "k4", "--seed", "1"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()[:-1]]
    assert {row["trial"] for row in rows if not row["pseudorandomSampled"]} == false_trials
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "445f1391cf1ce580ea0cefd6d7e340ffe9968cfae0eb11d27a950e5bdeb2c1fe"
    )


def test_transfer_q4_output_pinned(capsys):
    # q = 4 colors 16 slots per hyperedge, two whole bytes per mask, where
    # q = 3 colors 9
    code, out, _ = run(capsys, ["transfer", "--q", "4", "--trials", "2", "--pattern", "k4", "--seed", "5"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e3cb674771f3b6149c9f20fc4b8d9024d6843ed0f2708d5460919408b26e1813"
    )


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_sampled_checks_reject_empty_sample_budget(capsys, er3_file, samples):
    # with no subset drawn, nothing is checked and "ok" would be vacuous
    code, out, err = run(capsys, ["containers", "--in", er3_file, "--mode", "sampled", "--samples", samples])
    assert code == 2 and out == "" and "samples" in err
    code, out, err = run(capsys, ["transfer", "--q", "3", "--trials", "2", "--samples", samples])
    assert code == 2 and out == "" and "samples" in err


def test_thread_count_never_changes_output(capsys):
    outs = []
    for n in ("1", "4", "8"):
        code, out, _ = run(capsys, ["transfer", "--q", "3", "--trials", "4", "--seed", "11", "--threads", n])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert run(capsys, ["fields", "--q", "9", "--threads", "0"])[0] == 2


def test_certify_and_verify(capsys, tmp_path):
    cert_path = tmp_path / "er7.json"
    code, out, err = run(
        capsys,
        ["certify", "--family", "er", "--q", "7", "--pattern", "c4", "--p", "1", "--out", str(cert_path)],
    )
    assert code == 0 and out == ""
    assert manifest(err)["outputPaths"] == [str(cert_path)]
    cert = json.loads(cert_path.read_text())
    assert cert["valid"] is True and cert["witnessCount"] == 57 and cert["t"] == 16
    assert cert["deletionTrace"] == [] and cert["family"] == "er"

    code, out, _ = run(capsys, ["verify", "--cert", str(cert_path)])
    assert code == 0
    assert json.loads(out)["status"] == "VALID"
    assert json.loads(out)["claim"] == "r(c4, 16) > 57"

    mutated = dict(cert, witnessCount=58)
    mut_path = tmp_path / "mut.json"
    mut_path.write_text(json.dumps(mutated))
    code, out, _ = run(capsys, ["verify", "--cert", str(mut_path)])
    assert code == 1 and json.loads(out)["status"] == "INVALID"


def test_certify_budget_exhausted_is_undecided(capsys):
    # the alpha interval under a budget used to cap alpha by a clique bound,
    # fall below the Turan floor and escape dispatch as an AssertionError
    code, out, err = run(
        capsys, ["certify", "--family", "er", "--q", "13", "--pattern", "c4", "--budget", "20000"]
    )
    assert code == 3 and out == ""
    assert "Traceback" not in err
    lo, hi = map(int, re.search(r"undecided: .*\[(\d+), (\d+)\]", err).groups())
    assert -(-183 // 15) <= lo <= hi  # ER_13: 183 vertices, max degree 14


@pytest.mark.parametrize(
    "args, t",
    [
        # trial 0 runs out of budget at 58 vertices; trial 1 decides 47
        (["--family", "unital-transfer", "--q", "3", "--trials", "6", "--seed", "7", "--t", "14",
          "--budget", "80"], 14),
        (["--family", "er", "--q", "13", "--pattern", "c4", "--p", "0.5", "--t", "26", "--seed", "3",
          "--budget", "10"], 26),
    ],
)
def test_certify_undecided_deletion_round_writes_nothing(capsys, tmp_path, args, t):
    # an undecided round used to leave an unproved certificate with exit 1,
    # and could outrank a decided trial
    code, out, err = run(capsys, ["certify", *args])
    assert code == 3 and out == ""
    assert f"undecided: independent set({t}) search exhausted budget" in err
    assert "Traceback" not in err
    path = tmp_path / "und.json"
    code, out, _ = run(capsys, ["certify", *args, "--out", str(path)])
    assert code == 3 and out == "" and not path.exists()


def test_budgeted_verify_names_the_search_that_ran_out(capsys, tmp_path):
    # bip(11, 2)'s k3 check decides within the budget; its alpha search does not
    path = tmp_path / "b11.json"
    argv = ["certify", "--family", "bip", "--q", "11", "--s", "2", "--pattern", "k3"]
    assert run(capsys, [*argv, "--out", str(path)])[0] == 0
    code, out, _ = run(capsys, ["verify", "--cert", str(path), "--budget", "100"])
    assert code == 3
    assert json.loads(out)["detail"] == (
        "exact checks exceeded budget: independent set(25) search exhausted budget 100"
    )


def test_certify_families(capsys):
    code, out, _ = run(capsys, ["certify", "--family", "unital-transfer", "--q", "2", "--trials", "3", "--seed", "42"])
    assert code == 0
    cert = json.loads(out)
    assert cert["family"] == "unital-transfer" and cert["witnessCount"] <= 12
    assert cert["t"] == 1581

    code, out, _ = run(capsys, ["certify", "--family", "bip", "--q", "5", "--s", "2",
                                "--pattern", "triangle", "--t", "4"])
    assert code == 0 and json.loads(out)["valid"] is True
    assert run(capsys, ["certify", "--family", "bip", "--q", "5", "--pattern", "triangle"])[0] == 2


@pytest.mark.parametrize(
    "args, digest",
    [
        (["--family", "er", "--q", "7", "--pattern", "c4"],
         "23190e73f436e8afd3195782c9ec44b657a316ccee1fe38a18ced3b61a155710"),
        (["--family", "bip", "--q", "11", "--s", "2", "--pattern", "k3"],
         "54d4566133e00ae5bac5757a1c4f2f49158bbe1eac58a9e60276f4fb11b088a0"),
        (["--family", "er", "--q", "13", "--p", "0.5", "--t", "26", "--seed", "3"],
         "e697e3619894f6fb1635cb02e1e2c48d27794d683d2df01d267ed27fee95385a"),
        (["--family", "er", "--q", "13", "--p", "0.5", "--t", "26", "--seed", "11"],
         "2f9256218d5462893172e057d2df4ce55838e5d5d17c22af8184d6ded808746d"),
        (["--family", "unital-transfer", "--q", "3", "--trials", "4", "--seed", "7", "--t", "12"],
         "57f046a1a72d9002599ed6cac513cbc9661603bb1851bfc6c54b870bf3112eac"),
    ],
)
def test_certificate_bytes_pinned(capsys, tmp_path, args, digest):
    # the certificate bytes are fixed by the witness and deletion choices of
    # the exact searches, so they pin those searches
    path = tmp_path / "cert.json"
    assert run(capsys, ["certify", *args, "--out", str(path)])[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "args, cert_digest, verify_digest",
    [
        (["--family", "er", "--q", "3", "--pattern", "c4"],
         "abe902b71fb2ad73accf2fae9739cc5414d299cb0d32dad04376d6d0ea1cc4f2",
         "7d4278e740d2ad71c294b67cd8b8d60744d734a2c35c6fca7a3463cd8f764f22"),
        (["--family", "er", "--q", "5", "--pattern", "c4"],
         "f680db84cc3d0d9b09aa39fd0b2a03e20f4630bd0515f388abe3affdc949cf1d",
         "049dcb7d2bda02bc8941923899d9d4a9836656abfa2062f95bd9f5f6d77a9845"),
        (["--family", "er", "--q", "7", "--pattern", "c4"],
         "23190e73f436e8afd3195782c9ec44b657a316ccee1fe38a18ced3b61a155710",
         "e0f06d212bb513f1fb4f0447766e9a38c93883a0d38b6ee5c70b42f1d3a6dc5d"),
        (["--family", "er", "--q", "9", "--pattern", "c4"],
         "d05707fd57ebb6df15441f6cbbeea7d07642dd885e889445c160a3311ed44dbb",
         "5a98ba36a7a8344b2b2256e36571e5923c2e3fc44b13c6c11f5754c3aa9d83d3"),
        (["--family", "bip", "--q", "5", "--s", "2", "--pattern", "k3"],
         "b344188329994693f8a24b8a868ef30bf7a35872d3d0b29a7ed14d04b81ec816",
         "ecfc0c87257d113014e5c02c3e52dcac72f6faa35ebd56ed25c4392fcb891202"),
        (["--family", "bip", "--q", "7", "--s", "2", "--pattern", "k3"],
         "8974177151afcb5c1860e9036046cb07bc06144abedf4a27065355a6f1e7eb86",
         "842743203bd8ea3ccd21c4fb950353e2abe7bcabdbfc56a42e032ac5da415223"),
        (["--family", "bip", "--q", "11", "--s", "2", "--pattern", "k3"],
         "54d4566133e00ae5bac5757a1c4f2f49158bbe1eac58a9e60276f4fb11b088a0",
         "901bd133a4e5dad2f78e3c1abf6eb921503ac8cf9bb2f757c1f4082b5b4125cb"),
    ],
)
def test_whole_graph_certificates_pinned(capsys, tmp_path, monkeypatch, args, cert_digest, verify_digest):
    # p = 1 with the default t: one orbital proof of alpha, whose upper
    # bound leaves the deletion loop nothing to search; verify proves
    # alpha < t on the whole graph once more, on its own.  No independence
    # search runs on all of G: the plain engine runs on the leaves only
    orbital, search = gc._orbital_alpha, gc._max_clique_search
    calls, searched = [], []

    def counted(*a):
        calls.append(a[2:])
        return orbital(*a)

    def plain(G, budget, target, complement=False, floor=0):
        if complement:
            searched.append(G.n)
        return search(G, budget, target, complement, floor)

    monkeypatch.setattr(gc, "_orbital_alpha", counted)
    monkeypatch.setattr(gc, "_max_clique_search", plain)
    path = tmp_path / "cert.json"
    assert run(capsys, ["certify", *args, "--out", str(path)])[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == cert_digest
    code, out, _ = run(capsys, ["verify", "--cert", str(path)])
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == verify_digest
    cert = json.loads(path.read_text())
    t, n = cert["t"], cert["witnessCount"]
    assert calls == [(0, None, None), (t - 1, t, None)]
    assert cert["deletionTrace"] == [] and all(m < n for m in searched)


def test_budgeted_whole_graph_proofs_use_the_reflections(capsys, tmp_path, monkeypatch):
    # a budget bounds the orbital search instead of switching it off: the
    # default-t ER_9 proof and its replay are decided well within 100000
    # nodes, with the unbudgeted bytes, and the environment sets no budget
    monkeypatch.setenv("RAMSEYFORGE_BUDGET", "1")
    certify = ["certify", "--family", "er", "--q", "9", "--pattern", "c4"]
    code, unbudgeted, _ = run(capsys, certify)
    assert code == 0
    path = tmp_path / "cert.json"
    code, _, err = run(capsys, [*certify, "--budget", "100000", "--out", str(path)])
    assert code == 0 and path.read_text() == unbudgeted
    assert "100000" in manifest(err)["argv"]
    code, out, _ = run(capsys, ["verify", "--cert", str(path), "--budget", "100000"])
    assert code == 0 and json.loads(out)["status"] == "VALID"


@pytest.mark.parametrize(
    "args",
    [["--family", "er", "--q", "5", "--pattern", "c4", "--t", "8"]],  # t below alpha = 10
)
def test_certify_builds_symmetry_only_for_unbudgeted_default_t(capsys, monkeypatch, args):
    # an explicit t is searched for as it stands, without the reflections
    def refused(*a):
        raise AssertionError("reflections built")

    monkeypatch.setattr(cli, "family_symmetry", refused)
    assert run(capsys, ["certify", *args])[0] == 0


@pytest.mark.parametrize("p", ["2", "0", "-0.5", "nan"])
def test_certify_rejects_p_before_alpha(capsys, monkeypatch, p):
    # p is checked before the proof of alpha, which takes minutes on ER_11
    def refused(*a):
        raise AssertionError("alpha proved")

    monkeypatch.setattr(cli, "independence_number", refused)
    code, out, err = run(capsys, ["certify", "--family", "er", "--q", "9", "--pattern", "c4", "--p", p])
    assert code == 2 and out == "" and "need 0 < p <= 1" in err


@pytest.mark.parametrize(
    "args, reason",
    [
        (["--family", "unital-transfer", "--q", "3", "--p", "0.5", "--pattern", "c5", "--t", "12"], "k4 at p = 1"),
        (["--family", "unital-transfer", "--q", "3", "--p", "0.5", "--t", "12"], "k4 at p = 1"),
        (["--family", "unital-transfer", "--q", "3", "--pattern", "c5", "--t", "12"], "k4 at p = 1"),
        (["--family", "er", "--q", "3", "--pattern", "c4", "--trials", "2"], "--trials must be 1"),
        (["--family", "bip", "--q", "5", "--s", "2", "--pattern", "k3", "--trials", "0"], "--trials must be 1"),
        (["--family", "er", "--q", "3", "--pattern", "c4", "--s", "7"], "takes no --s or --variant"),
        (["--family", "er", "--q", "3", "--pattern", "c4", "--variant", "canonical"], "takes no --s or --variant"),
        (["--family", "er", "--q", "3", "--variant", "symmetrized"], "takes no --s or --variant"),
        (["--family", "unital-transfer", "--q", "3", "--s", "2", "--t", "12"], "takes no --s or --variant"),
        (["--family", "unital-transfer", "--q", "3", "--variant", "canonical"], "takes no --s or --variant"),
        (["--family", "unital-transfer", "--q", "5"], "q must be one of (2, 3, 4)"),
        (["--family", "unital-transfer", "--q", "2", "--trials", "0"], "need trials >= 1"),
    ],
)
def test_certify_rejects_options_it_would_ignore(capsys, monkeypatch, args, reason):
    def refused(*a, **k):
        raise AssertionError("certificate built")

    for name in ("build_family", "unital_line_hypergraph"):
        monkeypatch.setattr(cli, name, refused)
    code, out, err = run(capsys, ["certify", *args])
    assert code == 2 and out == "" and reason in err


@pytest.mark.parametrize("variant", [None, "symmetrized", "canonical"])
def test_certify_bip_variant_defaults_to_symmetrized(capsys, variant):
    extra = [] if variant is None else ["--variant", variant]
    code, out, _ = run(capsys, ["certify", "--family", "bip", "--q", "5", "--s", "2", "--pattern", "k3",
                                "--t", "4", *extra])
    assert code == 0 and json.loads(out)["params"]["variant"] == (variant or "symmetrized")


def test_certify_unital_transfer_accepts_k4_at_p_1(capsys):
    code, out, _ = run(capsys, ["certify", "--family", "unital-transfer", "--q", "3", "--pattern", "K4",
                                "--p", "1", "--t", "3"])
    assert code == 0 and json.loads(out)["pattern"] == "k4"


def test_certify_checks_ambient_pattern_before_alpha(capsys):
    # the symmetrized bip(7, 3) holds a c5; proving alpha of its 175 vertices
    # first took 56 s before the c5 was found
    start = time.perf_counter()
    code, out, err = run(capsys, ["certify", "--family", "bip", "--q", "7", "--s", "3", "--pattern", "c5"])
    assert time.perf_counter() - start < 5.0
    assert code == 2 and out == "" and "ambient graph contains c5" in err


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["er", "--q", "49"], "d97f0b7e2dd2249d8d4056c9da117a565602f42ebb58da856d5af7c8ada01798"),
        (["unital", "--q", "4"], "e1483ad90c941c903bd164c2f51e8833a7a7d48a55e28bf790b48606bd1c8060"),
        (["bip", "--q", "7", "--s", "3", "--variant", "canonical"],
         "65b3374275c9b4531fb4514e6c47bf98c5f68dc8f7ed1e51658157c7a4210bab"),
        (["bip", "--q", "7", "--s", "3", "--variant", "symmetrized"],
         "15730d7db060986435db2842a7b94d1dd6f0c6a04d3c7908e0d381365e050a88"),
        (["er", "--q", "64"], "08f56ce84bb0c1606211d901e04582664468171b21fc4c7d8f9b0ddd722b7dfc"),
        (["er", "--q", "81"], "66f04e8e53bbcb8a92aadfd3433b5178edea249677f3bb8f5f19e2dac347ea42"),
        (["unital", "--q", "8"], "c80476da812f5c8134ac1867776be5514f36e7045e3919ec6fb40e52ac0741ce"),
        (["bip", "--q", "11", "--s", "2", "--variant", "symmetrized"],
         "c28dc30cb200612248b7eab61cf1d2e24837e693b97b2aa930bfd5c35c20a87f"),
        (["bip", "--q", "13", "--s", "2", "--variant", "canonical"],
         "b0f4fb4ed7779a9b9a028ea10038e417e9fbc4d941eb6d4f59fc8c731b66f044"),
        (["unital", "--q", "7"], "65096f5082082af78fbf5ff4bc42c579dbe895842a1f9926010d75493c8dabe7"),
        (["er", "--q", "2"], "0e2fe49a53bf498501a7702070f475783c9c7bd00c7c87957d8c26ad20752f82"),
    ],
)
def test_construct_output_pinned(capsys, argv, digest):
    # the geometry builds' edge lists, byte for byte
    code, out, _ = run(capsys, ["construct", *argv])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_rejects_deeply_nested_json(capsys, tmp_path):
    # json.loads ends in RecursionError past the recursion limit; that is a
    # malformed certificate (exit 2), not an INVALID one (exit 1)
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, ["verify", "--cert", str(path)])
    assert code == 2 and out == "" and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", [["check", "--pattern", "k4"], ["spectrum"], ["containers"]])
def test_graph_readers_reject_deeply_nested_header(capsys, tmp_path, command):
    path = tmp_path / "deep.txt"
    path.write_text("# " + "[" * 100_000 + "\n0 1\n")
    code, out, err = run(capsys, [*command, "--in", str(path)])
    assert code == 2 and out == "" and err.startswith("error: ") and "Traceback" not in err


def test_check_odd_cycle_longer_than_recursion_limit(capsys, tmp_path):
    # the chord (0, 2) gives odd girth 3, so the exact search walks a path
    # through all 25 001 vertices, past the recursion limit of 20 000
    n = 25_001
    path = tmp_path / "long.txt"
    with open(path, "w") as fh:
        gc.write_graph(gc.Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)] + [(0, 2)]), fh)
    code, out, _ = run(capsys, ["check", "--pattern", f"c{n}", "--in", str(path)])
    assert code == 1 and json.loads(out) == {"pattern": f"c{n}", "free": False, "witness": list(range(n))}


def test_verify_odd_cycle_longer_than_witness(capsys, tmp_path):
    # c59 cannot occur on the 57 vertices of ER_7, so the claim holds
    # trivially and the replay must not walk the graph's paths for it
    cert = {"family": "er", "params": {"q": 7, "p": 1.0}, "pattern": "c59", "t": 16,
            "witnessCount": 57, "seed": 0, "deletionTrace": [], "valid": True, "toolVersion": "0.1.0"}
    path = tmp_path / "c59.json"
    path.write_text(json.dumps(cert))
    start = time.perf_counter()
    code, out, _ = run(capsys, ["verify", "--cert", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["status"] == "VALID"


def test_verify_t_above_witness_size_needs_no_search(capsys, tmp_path):
    # no independent set has more than the witness's 57 vertices, so the
    # claim holds whatever the budget; a budgeted search for it used to end
    # UNVERIFIED
    cert = {"family": "er", "params": {"q": 7, "p": 1.0}, "pattern": "c4", "t": 58,
            "witnessCount": 57, "seed": 0, "deletionTrace": [], "valid": True, "toolVersion": "0.1.0"}
    path = tmp_path / "t58.json"
    path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, ["verify", "--cert", str(path), "--budget", "1"])
    assert code == 0 and json.loads(out)["status"] == "VALID"


@pytest.mark.parametrize(
    "edit, pattern_free, alpha_ok, detail",
    [
        ({"t": 0}, True, False, r"independent set of size t = 0 found: \[\]"),
        ({"pattern": "k3"}, False, True, r"k3 found: \[(\d+), (\d+), (\d+)\]"),
    ],
    ids=["t-0", "pattern-k3"],
)
def test_invalid_verdict_names_the_failed_check(capsys, tmp_path, edit, pattern_free, alpha_ok, detail):
    # the INVALID detail used to be a bare "replay checks failed"
    cert = {"family": "er", "params": {"q": 3, "p": 1.0}, "pattern": "c4", "t": 6,
            "witnessCount": 13, "seed": 0, "deletionTrace": [], "valid": True, "toolVersion": "0.1.0"}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({**cert, **edit}))
    code, out, _ = run(capsys, ["verify", "--cert", str(path)])
    payload = json.loads(out)
    assert code == 1 and payload["status"] == "INVALID"
    assert (payload["patternFree"], payload["alphaLessThanT"]) == (pattern_free, alpha_ok)
    match = re.fullmatch(detail, payload["detail"])
    assert match
    witness = [int(v) for v in match.groups()]
    if witness:  # the copy of k3, in ER_3's own labels
        assert ref.validate_witness(geo.polarity_graph(3), gc.ForbiddenPattern.clique(3), witness)


def test_usage_and_version(capsys):
    assert run(capsys, ["frobnicate"])[0] == 2
    assert run(capsys, ["fields", "--q", "9", "--wat"])[0] == 2
    assert run(capsys, [])[0] == 2
    code, out, _ = run(capsys, ["--version"])
    assert code == 0
    assert run(capsys, ["--help"])[0] == 0


@pytest.mark.parametrize(
    "mutate",
    [lambda c: [1], lambda c: {**c, "t": None}, lambda c: {**c, "deletionTrace": 5}],
    ids=["top-level-list", "t-null", "trace-not-list"],
)
def test_verify_rejects_wrongly_shaped_certificate(capsys, tmp_path, mutate):
    # each used to escape dispatch as a TypeError (a traceback)
    cert = {
        "family": "er", "params": {"p": 1.0, "q": 3}, "pattern": "c4", "t": 6,
        "witnessCount": 13, "seed": 0, "deletionTrace": [], "valid": True,
        "toolVersion": "0.1.0",
    }
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert run(capsys, ["verify", "--cert", str(path)])[0] == 0
    path.write_text(json.dumps(mutate(cert)))
    code, out, err = run(capsys, ["verify", "--cert", str(path)])
    assert code == 2 and out == "" and "certificate" in err


@pytest.mark.parametrize(
    "header", ['[1]', '{"n": 3.7}', '{"n": 100000000000}', '{"n": true}', '{"q": 3}'],
)
def test_check_rejects_malformed_graph_header(capsys, tmp_path, header):
    # a list header was a TypeError, n = 3.7 or true was truncated to an int,
    # and a huge n was a MemoryError; each must be a usage error before any
    # allocation sized by n
    path = tmp_path / "g.txt"
    path.write_text(f"# {header}\n0 1\n1 2\n")
    code, out, err = run(capsys, ["check", "--pattern", "c4", "--in", str(path)])
    assert code == 2 and out == "" and "header" in err


@pytest.mark.parametrize("body", ["0 1 # x\n", "0 1\n1 2 3\n", "0 99999999999999999999\n", "0 x\n", "2 2\n"])
def test_check_rejects_malformed_edge_lines(capsys, tmp_path, body):
    # each is a usage error with a message, never a traceback
    path = tmp_path / "bad.txt"
    path.write_text('# {"n": 3}\n' + body)
    code, out, err = run(capsys, ["check", "--pattern", "c4", "--in", str(path)])
    assert code == 2 and out == "" and err.startswith("error: ")


def test_check_names_the_malformed_line(capsys, tmp_path):
    # the bad line lies past the first block the reader parses
    path = tmp_path / "bad.txt"
    body = "0 1\n" * (gc._READ_CHARS // 4 + 10)
    path.write_text('# {"n": 3}\n' + body + "1 2\n0 1 # x\n")
    code, out, err = run(capsys, ["check", "--pattern", "c4", "--in", str(path)])
    line = 1 + body.count("\n") + 2
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith(f"error: line {line} is not two vertex numbers: '0 1 # x'")


def test_certify_bip_needs_pattern(capsys):
    code, out, err = run(capsys, ["certify", "--family", "bip", "--q", "5", "--s", "2"])
    assert code == 2 and out == "" and "certify --family bip needs --pattern" in err


def test_spectrum_of_an_edgeless_graph(capsys, tmp_path):
    # regular of degree 0: the Hoffman bound is undefined and Alon-Boppana is not run
    path = tmp_path / "empty.txt"
    path.write_text('# {"n": 4}\n')
    code, out, _ = run(capsys, ["spectrum", "--in", str(path)])
    payload = json.loads(out)
    assert code == 0 and payload["regular"] is True and payload["d"] == 0.0
    assert payload["hoffman"] is None and payload["alonBoppana"] is None


def test_check_vertex_cap(capsys, tmp_path):
    # a row is an n-bit int, so the cap of 2^15 vertices bounds the rows of
    # a hostile edge list at 128 MiB
    path = tmp_path / "g.txt"
    path.write_text('# {"n": 32769}\n')
    code, out, err = run(capsys, ["check", "--pattern", "c4", "--in", str(path)])
    assert code == 2 and out == "" and "header" in err
    path.write_text('# {"n": 32768}\n')
    code, out, _ = run(capsys, ["check", "--pattern", "c4", "--in", str(path)])
    assert code == 0 and json.loads(out) == {"pattern": "c4", "free": True, "witness": None}


@pytest.mark.parametrize(
    "family, params",
    [
        ("er", {"q": "5", "p": 1.0}),  # once verified VALID
        ("er", {"q": 5.0, "p": 1.0}),  # once ended INVALID
        ("er", {"q": True, "p": 1.0}),
        ("er", {"q": 5, "p": "1"}),
        ("er", {"q": 5, "p": False}),
        ("er", {"q": 5, "p": 1.0, "s": 2}),
        ("bip", {"q": 5, "s": "2", "p": 1.0}),
        ("bip", {"q": 5, "s": 2, "variant": "other", "p": 1.0}),
        ("unital-transfer", {"q": 2, "colorSeed": 1.5, "p": 1.0}),
        ("unital-transfer", {"q": 2, "colorSeed": 1, "p": 1.0, "variant": "canonical"}),
    ],
)
def test_verify_rejects_mistyped_params(capsys, tmp_path, family, params):
    cert = {"family": family, "params": params, "pattern": "c4", "t": 11, "witnessCount": 31,
            "seed": 0, "deletionTrace": [], "valid": True, "toolVersion": "0.1.0"}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, out, err = run(capsys, ["verify", "--cert", str(path)])
    assert code == 2 and out == "" and "certificate field 'params'" in err


def test_verify_accepts_the_params_certify_writes(capsys, tmp_path):
    # an int p, and a bip certificate without its variant, still replay
    path = tmp_path / "cert.json"
    for family, params, t, count in (
        ("er", {"q": 5, "p": 1}, 11, 31),
        ("bip", {"q": 5, "s": 2, "p": 1.0}, 5, 10),
    ):
        cert = {"family": family, "params": params, "pattern": "c4", "t": t, "witnessCount": count,
                "seed": 0, "deletionTrace": [], "valid": True, "toolVersion": "0.1.0"}
        path.write_text(json.dumps(cert))
        code, out, _ = run(capsys, ["verify", "--cert", str(path)])
        assert (code, json.loads(out)["status"]) == (0, "VALID")


def test_verify_rejects_a_sampling_probability_too_large_for_a_float(capsys, tmp_path):
    # an int p of 401 digits passes the field check, then overflowed float()
    # while the witness was rebuilt, and verify ended in a traceback
    cert = {"family": "er", "params": {"q": 3, "p": 10**400}, "pattern": "c4", "t": 6,
            "witnessCount": 13, "seed": 0, "deletionTrace": [], "valid": True, "toolVersion": "0.1.0"}
    result = verify_certificate(RamseyCertificate.from_json(json.dumps(cert)))
    assert result.status == "INVALID" and result.detail.startswith("reconstruction failed: ")
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, out, err = run(capsys, ["verify", "--cert", str(path)])
    payload = json.loads(out)
    assert code == 1 and payload["status"] == "INVALID" and "Traceback" not in err
    assert payload["detail"] == result.detail


def without_wall_time(err: str) -> str:
    return re.sub(r'"wallTime":[^,}]*', "", err)


def test_dispatch_reuses_one_parser(capsys, monkeypatch):
    build = cli._build_parser
    built = []
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
    certify = ["certify", "--family", "er", "--q", "3", "--pattern", "c4"]
    sequence = [
        ["fields", "--q", "x"],  # an argparse usage error
        ["frobnicate"],
        ["fields", "--q", "9", "--seed", "5"],
        ["fields", "--q", "9"],
        ["construct", "bip", "--q", "5", "--s", "2", "--variant", "symmetrized"],
        ["construct", "bip", "--q", "5", "--s", "2"],
        [*certify, "--t", "4"],
        certify,
        ["certify", "--family", "er", "--q", "3", "--p", "2"],
    ]
    shared = [run(capsys, argv) for argv in sequence * 2]
    assert len(built) == 1
    for argv, (code, out, err) in zip(sequence * 2, shared):
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh = run(capsys, argv)
        assert (code, out, without_wall_time(err)) == (fresh[0], fresh[1], without_wall_time(fresh[2]))
    assert [r[0] for r in shared[: len(sequence)]] == [2, 2, 0, 0, 0, 0, 0, 0, 2]
    assert manifest(shared[3][2])["seed"] == 0
