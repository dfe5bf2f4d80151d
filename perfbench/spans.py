"""Spans recorded from outside the program.

The traced run replaces each layer's public functions, in the namespace of
the module that calls them, with a wrapper that records a span: a name, its
start and end, the span that was open when it began (its parent) and counts
taken from the arguments and the result.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the time its direct children
cover; a layer metric sums the self time of the spans bearing its name.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

# The hot per-subset call Graph.subgraph_edge_count is deliberately left
# unwrapped; containers.subsets is computed from the check's arguments.


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.tag = "setup"  # the op (or set-up phase) spans are charged to

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace owner.attr by a recording wrapper.  `name` is a span name
        or a function of (bound arguments, result) returning one; `count`
        returns a dict of counts from (bound arguments, result)."""
        fn = getattr(owner, attr)
        sig = inspect.signature(fn) if count or callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = {"id": sid, "parent": self._stack[-1] if self._stack else None, "tag": self.tag}
            self.spans.append(span)
            self._stack.append(sid)
            result = None
            returned = False
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                bound = None
                if sig is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    bound = bound.arguments
                span["name"] = name(bound, result) if callable(name) else name
                if count is not None and returned:
                    span["counts"] = count(bound, result)

        setattr(owner, attr, traced)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def aggregate(spans: list[dict]) -> dict:
    """Per phase (set-up, or a pass index) and span name: calls, summed self
    time, and summed counts."""
    out: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for s, own in zip(spans, self_times(spans)):
        phase = s["tag"] if isinstance(s["tag"], str) else s["tag"][0]
        agg = out[phase][s["name"]]
        agg["calls"] += 1
        agg["self_s"] += own
        for k, v in s.get("counts", {}).items():
            agg[k] += v
    return out


# -- what is wrapped, where ---------------------------------------------------


def _search_name(args, result) -> str:
    return "graphcore.proof" if result is None else "graphcore.witness"


def _vertices(args, result) -> dict:
    return {"vertices": result.n}


def _io_bytes(args, result) -> dict:
    fh = args["fh"]
    return {"bytes": fh.tell() if "G" in args or "H" in args else len(fh.getvalue())}


def _eig_flops(args, result) -> dict:
    n = len(result)
    return {"flops": 4 * n**3 / 3}


def _subsets(args, result) -> dict:
    if args["mode"] != "sampled":
        return {}
    n = args["G"].n
    return {"subsets": args["samples"] * max(0, n - max(args["params"].m, 2) + 1)}


def _trials(args, result) -> dict:
    return {"trials": args["trials"]}


def _deletion_rounds(args, result) -> dict:
    return {"deletion_rounds": len(result.deletion_trace)}


def install(tracer: Tracer, prog) -> None:
    """Wrap the layer boundaries the workloads cross, in a freshly imported
    program (unital-transfer certificates, not in any workload, are not
    wrapped)."""
    cli, certify, transfer = prog.cli, prog.certify, prog.transfer
    containers, spectral, geometry, graphcore = (
        prog.containers, prog.spectral, prog.geometry, prog.graphcore,
    )
    w = tracer.wrap
    w(cli, "dispatch", "cli.dispatch")
    for attr in ("polarity_graph", "bip_graph", "unital_line_hypergraph"):
        w(cli, attr, "geometry.build", _vertices)
    for attr in ("polarity_graph", "bip_graph"):
        w(certify, attr, "geometry.build", _vertices)
    for mod in (geometry, prog.gf):
        w(mod, "op_tables", "gf.op_tables")
    w(cli, "independence_number", "graphcore.proof")
    w(certify, "find_independent_set", _search_name)
    for mod in (cli, certify, transfer):
        w(mod, "is_pattern_free", "graphcore.pattern")
    for attr in ("read_graph", "write_graph", "write_hypergraph"):
        w(cli, attr, "graphcore.io", _io_bytes)
    for cls in (graphcore.Graph, graphcore.LinearHypergraph):
        w(cls, "__init__", "graphcore.graph_init")
    w(graphcore.Graph, "induced", "graphcore.induced")
    w(graphcore.Graph, "complement", "graphcore.complement")
    w(spectral, "triangle_count", "graphcore.triangle")
    w(spectral, "symmetric_eigenvalues", "spectral.eig", _eig_flops)
    for mod in (cli, containers):
        w(mod, "spectrum", "spectral.spectrum")
    for attr in ("hoffman_bound", "alon_boppana_check"):
        w(cli, attr, "spectral.spectrum")
    w(cli, "trace_checks", "spectral.trace_checks")
    w(cli, "mixing_derived_params", "containers.params")
    for mod in (cli, transfer):
        w(mod, "check_pseudorandom", "containers.check", _subsets)
    w(containers, "exact_alpha_m", "containers.exact_alpha_m")
    w(cli, "concentration_check", "transfer.concentration", _trials)
    w(cli, "derive_transfer_params", "transfer.concentration")
    w(transfer, "random_coloring", "transfer.coloring")
    w(transfer, "bichromatic_subgraph", "transfer.bichromatic")
    w(cli, "sample_and_delete", "certify.sample_delete", _deletion_rounds)
    w(cli, "verify_certificate", "certify.verify")
    w(certify, "build_family", "certify.build_family")


def layer_metrics(agg: dict[str, dict[str, float]]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, with their units."""

    def get(name, key="self_s"):
        return agg.get(name, {}).get(key, 0.0)

    proof, witness = get("graphcore.proof", "calls"), get("graphcore.witness", "calls")
    eig_s, check_s = get("spectral.eig"), get("containers.check")
    m = {
        "graphcore.proof_s": (get("graphcore.proof"), "s"),
        "graphcore.proof_calls": (proof, "count"),
        "graphcore.witness_s": (get("graphcore.witness"), "s"),
        "graphcore.witness_calls": (witness, "count"),
        "graphcore.witness_yield": (witness / (witness + proof) if witness + proof else 0.0, "ratio"),
        "graphcore.induced_s": (get("graphcore.induced"), "s"),
        "graphcore.complement_s": (get("graphcore.complement"), "s"),
        "graphcore.pattern_s": (get("graphcore.pattern"), "s"),
        "graphcore.pattern_calls": (get("graphcore.pattern", "calls"), "count"),
        "graphcore.graph_init_s": (get("graphcore.graph_init"), "s"),
        "graphcore.io_s": (get("graphcore.io"), "s"),
        "graphcore.io_bytes": (get("graphcore.io", "bytes"), "bytes"),
        "graphcore.triangle_s": (get("graphcore.triangle"), "s"),
        "spectral.eig_s": (eig_s, "s"),
        "spectral.eig_calls": (get("spectral.eig", "calls"), "count"),
        "spectral.eig_flops": (get("spectral.eig", "flops"), "flop"),
        "spectral.eig_gflops": (get("spectral.eig", "flops") / eig_s / 1e9 if eig_s else 0.0, "Gflop/s"),
        "spectral.spectrum_self_s": (get("spectral.spectrum"), "s"),
        "spectral.trace_checks_s": (get("spectral.trace_checks"), "s"),
        "containers.check_s": (check_s, "s"),
        "containers.subsets": (get("containers.check", "subsets"), "count"),
        "containers.subsets_per_s": (get("containers.check", "subsets") / check_s if check_s else 0.0, "1/s"),
        "containers.exact_alpha_m_s": (get("containers.exact_alpha_m"), "s"),
        "containers.params_s": (get("containers.params"), "s"),
        "transfer.coloring_s": (get("transfer.coloring"), "s"),
        "transfer.bichromatic_s": (get("transfer.bichromatic"), "s"),
        "transfer.concentration_self_s": (get("transfer.concentration"), "s"),
        "transfer.trials": (get("transfer.concentration", "trials"), "count"),
        "geometry.build_s": (get("geometry.build"), "s"),
        "geometry.builds": (get("geometry.build", "calls"), "count"),
        "geometry.vertices": (get("geometry.build", "vertices"), "count"),
        "gf.op_tables_s": (get("gf.op_tables"), "s"),
        "gf.op_tables_calls": (get("gf.op_tables", "calls"), "count"),
        "certify.sample_delete_self_s": (get("certify.sample_delete"), "s"),
        "certify.deletion_rounds": (get("certify.sample_delete", "deletion_rounds"), "count"),
        "certify.verify_self_s": (get("certify.verify"), "s"),
        "certify.build_family_s": (get("certify.build_family"), "s"),
        "cli.dispatch_self_s": (get("cli.dispatch"), "s"),
    }
    return m
