"""Command-line entry point.

One executable wires the library together: construct graphs and hypergraphs,
check forbidden patterns, compute spectra, test pseudorandomness, run the
coloring transference, and emit or verify Ramsey certificates.

Conventions: structured data goes to --out or stdout as canonical JSON
(sorted keys, no whitespace); graphs travel as edge-list text; every run
writes a one-line manifest to stderr.  Exit codes: 0 success or VALID,
1 property-false or INVALID, 2 usage error, 3 could-not-decide within budget.
--threads is accepted and recorded but execution is sequential, so results
never depend on it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import time
from typing import Sequence

from . import __version__
from .certify import (
    RamseyCertificate,
    build_family,
    check_ambient,
    family_symmetry,
    sample_and_delete,
    t_transfer,
    verify_certificate,
)
from .containers import MAX_EXHAUSTIVE_N, check_pseudorandom, mixing_derived_params
from .geometry import bip_graph, polarity_graph, unital_line_hypergraph
from .gf import smallest_nonresidue, spec_for
from .graphcore import (
    ForbiddenPattern,
    UndecidedError,
    independence_number,
    is_pattern_free,
    read_graph,
    write_graph,
    write_hypergraph,
)
from .spectral import alon_boppana_check, hoffman_bound, spectrum, trace_checks
from .transfer import concentration_check, derive_seed, derive_transfer_params

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3

# the unital orders certify --family unital-transfer takes
PIPELINE_ORDERS = (2, 3, 4)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class _Run:
    """Book-keeping for the per-run manifest line."""

    def __init__(self, argv: Sequence[str]):
        self.argv = list(argv)
        self.seed: int | None = None
        self.input_hashes: dict[str, str] = {}
        self.output_paths: list[str] = []
        self.started = time.monotonic()

    def manifest(self) -> dict:
        return {
            "argv": self.argv,
            "inputHashes": self.input_hashes,
            "outputPaths": self.output_paths,
            "seed": self.seed,
            "toolVersion": __version__,
            "wallTime": round(time.monotonic() - self.started, 6),
        }


def _emit(text: str, args, run: _Run) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        run.output_paths.append(args.out)
    else:
        sys.stdout.write(text)


def _emit_json(obj, args, run: _Run) -> None:
    _emit(_canonical(obj) + "\n", args, run)


def _read_input(path: str, run: _Run) -> str:
    """The text of the input file `path`, its sha256 recorded in the manifest."""
    with open(path, "rb") as fh:
        raw = fh.read()
    run.input_hashes[path] = hashlib.sha256(raw).hexdigest()
    return raw.decode()


def _load_graph(path: str, run: _Run):
    return read_graph(io.StringIO(_read_input(path, run)))


def _budget(args) -> int | None:
    """--budget, else None (no limit); a negative value is a usage error,
    not an exhausted budget."""
    if args.budget is not None and args.budget < 0:
        raise ValueError(f"--budget must be >= 0, got {args.budget}")
    return args.budget


# --- subcommands --------------------------------------------------------------


def _cmd_fields(args, run: _Run) -> int:
    spec = spec_for(args.q)
    p, k = spec.p, spec.k
    nonresidue = None
    if p != 2:  # its coefficients c0, c1, ...: the index's base-p digits
        index = smallest_nonresidue(spec)
        nonresidue = [index // p ** (k - 1 - j) % p for j in range(k)]
    payload = {
        "order": spec.q,
        "p": p,
        "k": k,
        "modulus": list(spec.modulus),
        "smallestNonresidue": nonresidue,
    }
    _emit_json(payload, args, run)
    return EXIT_OK


def _cmd_construct(args, run: _Run) -> int:
    buf = io.StringIO()
    if args.family == "er":
        write_graph(polarity_graph(args.q), buf, {"family": "er", "q": args.q})
    elif args.family == "bip":
        if args.s is None:
            raise ValueError("construct bip needs --s")
        G = bip_graph(args.q, args.s, args.variant)
        write_graph(G, buf, {"family": "bip", "q": args.q, "s": args.s, "variant": args.variant})
    else:  # unital
        write_hypergraph(
            unital_line_hypergraph(args.q), buf, {"family": "unital", "q": args.q}
        )
    _emit(buf.getvalue(), args, run)
    return EXIT_OK


def _cmd_check(args, run: _Run) -> int:
    G, _ = _load_graph(args.infile, run)
    F = ForbiddenPattern.parse(args.pattern)
    free, witness = is_pattern_free(G, F, _budget(args))
    _emit_json({"pattern": F.name, "free": free, "witness": witness}, args, run)
    return EXIT_OK if free else EXIT_FAIL


def _cmd_spectrum(args, run: _Run) -> int:
    G, _ = _load_graph(args.infile, run)
    rep = spectrum(G)
    tc = trace_checks(G, rep)
    try:
        hoffman = float(hoffman_bound(rep)) if rep.is_regular else None
    except ValueError:
        hoffman = None
    alon_boppana = None
    if rep.is_regular and rep.d >= 1:
        alon_boppana = all(alon_boppana_check(rep, k) for k in range(1, 11))
    payload = {
        "n": rep.n,
        "regular": bool(rep.is_regular),
        "d": float(rep.d),
        "lambda1": float(rep.lambda1),
        "lambda": float(rep.lam),
        "lambdaMin": float(rep.lam_min),
        "traceChecks": tc,
        "hoffman": hoffman,
        "alonBoppana": alon_boppana,
    }
    _emit_json(payload, args, run)
    ok = tc["ok"] and alon_boppana is not False
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_containers(args, run: _Run) -> int:
    G, _ = _load_graph(args.infile, run)
    params = mixing_derived_params(G)
    mode = args.mode
    if mode == "auto":
        mode = "exhaustive" if G.n <= MAX_EXHAUSTIVE_N else "sampled"
    result = check_pseudorandom(G, params, mode=mode, samples=args.samples, seed=args.seed)
    payload = {
        "alpha": str(params.alpha),
        "m": params.m,
        "provenance": params.provenance,
        "mode": mode,
        "ok": result.ok,
        "violator": list(result.violator) if result.violator else None,
    }
    _emit_json(payload, args, run)
    return EXIT_OK if result.ok else EXIT_FAIL


def _cmd_transfer(args, run: _Run) -> int:
    H = unital_line_hypergraph(args.q)
    pattern = ForbiddenPattern.parse(args.pattern) if args.pattern else None
    rep = concentration_check(H, args.trials, args.seed, pattern=pattern, samples=args.samples)
    colored = derive_transfer_params(H)
    lines = [
        _canonical(
            {
                "trial": t.trial,
                "seed": t.seed,
                "edgesKept": t.edges_kept,
                "patternFree": t.pattern_free,
                "alphaPrime": str(colored.alpha),
                "mPrime": colored.m,
                "pseudorandomSampled": t.pseudorandom_sampled,
            }
        )
        for t in rep.trials
    ]
    lines.append(
        _canonical(
            {
                "trials": len(rep.trials),
                "shadowEdges": rep.shadow_edges,
                "expectedKeptPerEdge": rep.expected_kept_per_edge,
                "meanKeptPerEdge": rep.mean_kept_per_edge,
                "allFractionsOk": rep.all_fractions_ok,
                "allPatternFree": rep.all_pattern_free,
            }
        )
    )
    _emit("\n".join(lines) + "\n", args, run)
    ok = rep.all_fractions_ok and rep.all_pattern_free is not False
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_certify(args, run: _Run) -> int:
    # reject what no run can use before any build or search
    if not 0 < args.p <= 1:
        raise ValueError("need 0 < p <= 1")
    unital = args.family == "unital-transfer"
    if unital:
        if args.p != 1 or (args.pattern and ForbiddenPattern.parse(args.pattern).name != "k4"):
            raise ValueError("certify --family unital-transfer certifies k4 at p = 1 only")
    elif args.trials != 1:
        raise ValueError(f"certify --family {args.family} runs one trial; --trials must be 1")
    if args.family != "bip" and (args.s is not None or args.variant is not None):
        raise ValueError(f"certify --family {args.family} takes no --s or --variant")
    budget = _budget(args)
    t = args.t
    if unital:
        if args.q not in PIPELINE_ORDERS:
            raise ValueError(f"q must be one of {PIPELINE_ORDERS}")
        if args.trials < 1:
            raise ValueError("need trials >= 1")
        # the unital's strong k4-freeness is not re-proved: each trial is checked k4-free
        pattern, seeds = "k4", [derive_seed(args.seed, i) for i in range(args.trials)]
        trials = [(s, {"q": args.q, "colorSeed": s}) for s in seeds]
        if t is None:
            H = unital_line_hypergraph(args.q)
            t = t_transfer(H.n, H.r, H.regular_degree())
    else:
        params, pattern = {"q": args.q}, args.pattern or "c4"
        if args.family == "bip":
            if args.s is None:
                raise ValueError("certify --family bip needs --s")
            if not args.pattern:
                raise ValueError("certify --family bip needs --pattern")
            params = {"q": args.q, "s": args.s, "variant": args.variant or "symmetrized"}
        trials = [(args.seed, params)]
    certs = []
    for seed, params in trials:
        G = build_family(args.family, params)
        F = ForbiddenPattern.parse(pattern)  # after the build, whose errors come first
        t_i, alpha = t, None
        if t is None:  # settle the ambient pattern before the costly alpha
            check_ambient(G, F, budget)
            alpha = independence_number(G, budget, family_symmetry(args.family, params, G))
            t_i = alpha.value + 1
        certs.append(sample_and_delete(
            G, F, t_i, args.p, seed, args.family, params, budget=budget, alpha=alpha
        ))
    cert = max(certs, key=lambda c: (c.witness_count, -c.seed))  # ties to the smaller seed
    _emit(cert.to_json() + "\n", args, run)
    return EXIT_OK


def _cmd_verify(args, run: _Run) -> int:
    cert = RamseyCertificate.from_json(_read_input(args.cert, run))
    res = verify_certificate(cert, _budget(args))
    payload = {
        "status": res.status,
        "claim": cert.claim(),
        "patternFree": res.pattern_free,
        "alphaLessThanT": res.alpha_less_than_t,
        "witnessCountOk": res.witness_count_ok,
        "detail": res.detail,
    }
    _emit_json(payload, args, run)
    if res.status == "VALID":
        return EXIT_OK
    return EXIT_UNDECIDED if res.status == "UNVERIFIED" else EXIT_FAIL


# --- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--threads", type=int, default=1)
    common.add_argument("--budget", type=int, default=None)
    common.add_argument("--out", default=None)

    parser = argparse.ArgumentParser(
        prog="ramseyforge",
        description="finite-geometry pseudorandom graphs and Ramsey certificates",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fields", parents=[common], help="describe a finite field")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(handler=_cmd_fields)

    p = sub.add_parser("construct", parents=[common], help="build a graph or hypergraph")
    p.add_argument("family", choices=("er", "unital", "bip"))
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--variant", choices=("canonical", "symmetrized"), default="canonical")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("check", parents=[common], help="test a forbidden pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("spectrum", parents=[common], help="eigenvalues and trace checks")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("containers", parents=[common], help="pseudorandomness check")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", choices=("auto", "exhaustive", "sampled"), default="auto")
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(handler=_cmd_containers)

    p = sub.add_parser("transfer", parents=[common], help="per-hyperedge coloring trials")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--pattern", default=None)
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(handler=_cmd_transfer)

    p = sub.add_parser("certify", parents=[common], help="emit a Ramsey certificate")
    p.add_argument("--family", choices=("er", "bip", "unital-transfer"), required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--variant", choices=("canonical", "symmetrized"), default=None)
    p.add_argument("--pattern", default=None)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--trials", type=int, default=1)
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("verify", parents=[common], help="replay a certificate")
    p.add_argument("--cert", required=True)
    p.set_defaults(handler=_cmd_verify)

    return parser


# built by the first dispatch of the process; parse_args leaves a parser as it
# found it, so every later dispatch reuses this one
_PARSER: argparse.ArgumentParser | None = None


def dispatch(argv: Sequence[str]) -> int:
    """Parse and run one command; always returns an exit status."""
    global _PARSER
    run = _Run(argv)
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    run.seed = getattr(args, "seed", None)
    try:
        if args.threads < 1:
            raise ValueError("--threads must be >= 1")
        code = args.handler(args, run)
    except UndecidedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        code = EXIT_UNDECIDED
    except (KeyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    print(_canonical(run.manifest()), file=sys.stderr)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
