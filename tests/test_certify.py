"""Certificate construction, replay verification and thresholds."""

from __future__ import annotations

import json

import pytest

from ramseyforge import certify as ce
from ramseyforge import cli
from ramseyforge import geometry as geo
from ramseyforge import graphcore as gc
from ramseyforge.graphcore import ForbiddenPattern


def test_t_transfer_values():
    assert ce.t_transfer(63, 9, 4) == 7691  # 7690.17... by direct evaluation
    assert ce.t_transfer(12, 4, 3) == 1581
    assert ce.t_transfer(10, 100, 600) == 1  # r*d beats 256 n ln^2 n
    # scaling n -> 4n, r -> 2r, d -> 2d keeps the pre-log factor
    assert 256 * 4 * 63 / (18 * 8) == 256 * 63 / (9 * 4)
    with pytest.raises(ValueError):
        ce.t_transfer(0, 1, 1)


def test_sampled_vertices():
    s = ce.sampled_vertices(4000, 0.3, 7)
    assert s == ce.sampled_vertices(4000, 0.3, 7)
    assert s != ce.sampled_vertices(4000, 0.3, 8)
    assert abs(len(s) / 4000 - 0.3) < 0.05
    assert ce.sampled_vertices(10, 1.0, 3) == list(range(10))
    with pytest.raises(ValueError):
        ce.sampled_vertices(5, 0.0, 1)
    with pytest.raises(ValueError):
        ce.sampled_vertices(5, 1.5, 1)


@pytest.fixture(scope="module")
def er3():
    return geo.polarity_graph(3)


def test_certificate_er7_roundtrip():
    G = geo.polarity_graph(7)
    alpha = gc.independence_number(G).value
    assert alpha == 15
    cert = ce.sample_and_delete(G, ForbiddenPattern.c4(), alpha + 1, 1.0, 0, "er", {"q": 7})
    assert cert.valid and cert.witness_count == 57
    assert cert.deletion_trace == ()  # alpha < t already
    assert cert.claim() == "r(c4, 16) > 57"
    assert cert.params == {"q": 7, "p": 1.0}
    rt = ce.RamseyCertificate.from_json(cert.to_json())
    assert rt == cert
    assert ce.verify_certificate(rt).status == "VALID"


def test_deletion_loop(er3):
    alpha = gc.independence_number(er3).value
    assert alpha == 5
    cert = ce.sample_and_delete(er3, ForbiddenPattern.c4(), alpha, 1.0, 5, "er", {"q": 3})
    assert cert.valid
    assert cert.witness_count == er3.n - len(cert.deletion_trace)
    assert cert.deletion_trace == (4, 1, 8)  # canonical tie-breaking, pinned
    sub = er3.induced(sorted(set(range(er3.n)) - set(cert.deletion_trace)))
    assert gc.independence_number(sub).value < alpha
    # p=1 is fully deterministic
    assert cert == ce.sample_and_delete(er3, ForbiddenPattern.c4(), alpha, 1.0, 5, "er", {"q": 3})
    assert ce.verify_certificate(cert).status == "VALID"


def test_degenerate_t_empties_witness(er3):
    cert = ce.sample_and_delete(er3, ForbiddenPattern.c4(), 1, 1.0, 5, "er", {"q": 3})
    assert cert.witness_count == 0
    assert len(cert.deletion_trace) == er3.n
    assert cert.valid and ce.verify_certificate(cert).status == "VALID"


def test_subsampled_certificate_replays(er3):
    cert = ce.sample_and_delete(er3, ForbiddenPattern.c4(), 5, 0.7, 11, "er", {"q": 3})
    assert cert.params["p"] == 0.7
    assert cert.witness_count <= er3.n
    assert ce.verify_certificate(cert).status == "VALID"


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("p, seed", [(1.0, 0), (0.5, 4)])
def test_alpha_below_t_skips_the_deletion_loop(monkeypatch, q, p, seed):
    # alpha.upper bounds alpha of every sample of G: with t above it the
    # certificate is the one the searching loop gives, with no search; with
    # t at or below it the loop runs as before
    G = geo.polarity_graph(q)
    alpha = gc.independence_number(G)
    a = alpha.value

    def certify(t, alpha=None):
        return ce.sample_and_delete(G, ForbiddenPattern.c4(), t, p, seed, "er", {"q": q}, alpha=alpha)

    searched, above = certify(a), certify(a + 1)
    assert certify(a, alpha) == searched

    def refused(*args):
        raise AssertionError("independent set searched for")

    monkeypatch.setattr(ce, "find_independent_set", refused)
    assert certify(a + 1, alpha) == above


def test_ambient_must_be_pattern_free(er3):
    with pytest.raises(ValueError, match="contains k3"):
        ce.sample_and_delete(er3, ForbiddenPattern.clique(3), 5, 1.0, 0, "er", {"q": 3})
    with pytest.raises(ValueError):
        ce.sample_and_delete(er3, ForbiddenPattern.c4(), 0, 1.0, 0, "er", {"q": 3})


def test_budget_exhaustion_never_valid(er3):
    # an undecided deletion round makes no certificate
    with pytest.raises(gc.UndecidedError, match=r"^independent set\(5\) search exhausted budget 1$"):
        ce.sample_and_delete(er3, ForbiddenPattern.c4(), 5, 1.0, 0, "er", {"q": 3}, budget=1)
    good = ce.sample_and_delete(er3, ForbiddenPattern.c4(), 5, 1.0, 5, "er", {"q": 3})
    res = ce.verify_certificate(good, budget=1)
    assert res.status == "UNVERIFIED"
    assert res.detail == "exact checks exceeded budget: independent set(5) search exhausted budget 1"


def test_mutated_certificates_rejected():
    G = geo.polarity_graph(7)
    cert = ce.sample_and_delete(G, ForbiddenPattern.c4(), 16, 1.0, 0, "er", {"q": 7})
    raw = json.loads(cert.to_json())

    def verify(**changes):
        mutated = ce.RamseyCertificate.from_json(json.dumps({**raw, **changes}))
        return ce.verify_certificate(mutated).status

    assert verify(witnessCount=58) == "INVALID"  # one phantom vertex
    assert verify(deletionTrace=[0]) == "INVALID"
    assert verify(deletionTrace=[99]) == "INVALID"
    assert verify(t=15) == "INVALID"  # alpha = 15 is no longer < t
    assert verify(family="nope") == "INVALID"
    assert verify(params={}) == "INVALID"  # construction params gone
    assert verify(t=17) == "VALID"  # raising t only weakens the claim


def test_from_json_rejects_wrong_field_types(er3):
    raw = json.loads(ce.sample_and_delete(er3, ForbiddenPattern.c4(), 6, 1.0, 0, "er", {"q": 3}).to_json())
    bad = [
        {"t": "6"}, {"t": 6.0}, {"t": True}, {"seed": None}, {"valid": "yes"},
        {"params": [["q", 3]]}, {"family": 1}, {"toolVersion": 1},
        {"deletionTrace": ["1"]}, {"deletionTrace": [1.5]}, {"deletionTrace": [True]},
    ]
    for changes in bad:
        with pytest.raises(ValueError, match="certificate field"):
            ce.RamseyCertificate.from_json(json.dumps({**raw, **changes}))
    del raw["witnessCount"]
    with pytest.raises(ValueError, match="witnessCount"):
        ce.RamseyCertificate.from_json(json.dumps(raw))


def test_verify_ignores_embedded_valid_bit():
    G = geo.polarity_graph(3)
    cert = ce.sample_and_delete(G, ForbiddenPattern.c4(), 6, 1.0, 0, "er", {"q": 3})
    lie = ce.RamseyCertificate.from_json(
        json.dumps({**json.loads(cert.to_json()), "t": 5, "valid": True})
    )
    assert ce.verify_certificate(lie).status == "INVALID"


def test_build_family_dispatch():
    assert ce.build_family("er", {"q": 3}).n == 13
    assert ce.build_family("bip", {"q": 5, "s": 2}).n == 10
    G = ce.build_family("unital-transfer", {"q": 2, "colorSeed": 9})
    assert G.n == 12
    with pytest.raises(ValueError):
        ce.build_family("er7", {"q": 7})


def certify(capsys, *argv: str) -> tuple[int, str, str]:
    """Run `ramseyforge certify --family unital-transfer` in-process: exit
    code, stdout, stderr."""
    code = cli.dispatch(["certify", "--family", "unital-transfer", *argv])
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_pipeline_unital_small(capsys):
    code, out, _ = certify(capsys, "--q", "2", "--trials", "3", "--seed", "42")
    best = ce.RamseyCertificate.from_json(out)
    assert code == 0
    assert best.family == "unital-transfer"
    assert best.t == 1581 and best.witness_count <= 12
    assert best.valid
    assert ce.verify_certificate(best).status == "VALID"
    assert best.pattern == "k4"


def test_pipeline_unital_forced_deletions(capsys):
    argv = ("--q", "3", "--trials", "4", "--seed", "7", "--t", "12")
    code, out, _ = certify(capsys, *argv)
    best = ce.RamseyCertificate.from_json(out)
    assert code == 0 and best.valid and best.deletion_trace
    assert best.witness_count + len(best.deletion_trace) == 63
    assert ce.verify_certificate(best).status == "VALID"
    # reproducible
    assert certify(capsys, *argv)[:2] == (code, out)


def test_pipeline_unital_proves_alpha_once(capsys, monkeypatch):
    # one clique search for the ambient k4 check, then one independence
    # search per deletion round and one that proves alpha < t
    searched = []
    search = gc._max_clique_search

    def counted(G, budget, target, complement=False, floor=0):
        searched.append(complement)
        return search(G, budget, target, complement, floor)

    monkeypatch.setattr(gc, "_max_clique_search", counted)
    code, out, _ = certify(capsys, "--q", "3", "--trials", "1", "--seed", "7", "--t", "12")
    cert = ce.RamseyCertificate.from_json(out)
    assert code == 0 and cert.valid and cert.deletion_trace
    assert searched == [False] + [True] * (len(cert.deletion_trace) + 1)


def test_pipeline_guards(capsys):
    code, out, err = certify(capsys, "--q", "5", "--trials", "1", "--seed", "0")
    assert code == 2 and out == "" and "q must be one of (2, 3, 4)" in err
    code, out, err = certify(capsys, "--q", "2", "--trials", "0", "--seed", "0")
    assert code == 2 and out == "" and "need trials >= 1" in err
