"""ramseyforge benchmark: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One process, one client: each op starts only after the previous op has
returned and been checked.  An op is a CLI command run in-process through
ramseyforge.cli.dispatch, or one library call where no command exists.

--trace 0 prints the end-to-end metrics: set-up time (import, input files,
warm-up; median of seven set-ups), wall time of one pass over the op list
(median of the passes that fit in --seconds), the median op latency and the
peak resident memory.  The three times are seconds at the reference host
speed of hostspeed.py: each set-up and each pass is scaled by the host speed
sampled just before it (passes in part on the numpy and memory-bound
workloads, see workloads.Plan); the measured seconds go to the run record.

--trace 1 spends half of --seconds on untraced passes, then sets up again
with every layer boundary wrapped (see spans.py), runs the same passes
traced, and prints the per-layer metrics (measured seconds) of that set-up
plus the median traced pass; the difference of the median pass times is
the tracing overhead.

Every op's output is checked by workloads.py against values derived by the
benchmark's own route (oracle.py); the check time is outside every timed
region.  An op that fails its check, exits with the wrong status, or raises
counts as failed and the run goes on.  The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}.  A full record (environment,
per-op latencies and stdout digests, spans) goes to perfbench/work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "ramseyforge"
MODULES = ("gf", "graphcore", "geometry", "spectral", "containers", "transfer", "certify", "cli")
SETUP_REPS = 7
# One BLAS thread.  Measured on a shared 2-vCPU VM (Xeon, 2.0 GHz) whose
# vCPUs slow down independently: with two BLAS threads a spectrum pass ran at
# the pace of the slower vCPU (up to 3x its fast time), and one thread was as
# fast when neither was slowed.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

sys.path.insert(0, str(HERE))
import numpy as np  # noqa: E402  (after the thread settings above)

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class Program:
    """A fresh import of every ramseyforge module, so each set-up pays the
    import and refills the lru caches (gf tables, field specs)."""

    def __init__(self):
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))


def check_program() -> str | None:
    """Why the program under test cannot be imported from this checkout."""
    if not (SRC / PACKAGE / "cli.py").is_file():
        return f"no {PACKAGE} sources under {SRC}"
    sys.path.insert(0, str(SRC))
    try:
        import ramseyforge.cli as cli
    except Exception as exc:  # the run cannot start; report why
        return f"cannot import {PACKAGE}: {type(exc).__name__}: {exc}"
    if Path(cli.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        return f"{PACKAGE} was imported from {cli.__file__}, not from {SRC}"
    return None


# -- one op ----------------------------------------------------------------------


def perform(prog: Program, op: workloads.Op):
    """Run one op; returns (result, seconds, exception or None)."""
    stdout = io.StringIO()
    res = {"code": None, "stdout": "", "value": None}
    error = None
    start = time.perf_counter()
    try:
        if op.argv is not None:
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                res["code"] = prog.cli.dispatch(op.argv)
        else:
            res["value"] = op.call(prog)
    except Exception as exc:  # counted as a failed op; the run goes on
        error = exc
    latency = time.perf_counter() - start
    res["stdout"] = stdout.getvalue()
    return res, latency, error


def execute(prog: Program, op: workloads.Op) -> dict:
    """Run one op (timed), then its input hook and its check (untimed)."""
    res, latency, error = perform(prog, op)
    problems: list[str] = []
    if error is not None:
        problems.append(f"raised {type(error).__name__}: {error}")
    try:
        if op.after is not None:
            op.after()
    except Exception as exc:
        problems.append(f"input hook raised {type(exc).__name__}: {exc}")
    check_start = time.perf_counter()
    digest = hashlib.sha256(res["stdout"].encode())
    if error is None:
        if op.argv is not None and res["code"] != 0:
            problems.append(f"exit status {res['code']}, want 0")
        else:
            try:
                if op.out is not None:
                    digest.update(Path(op.out).read_bytes())
                if op.check is not None:
                    problems.extend(op.check(res))
            except Exception as exc:
                problems.append(f"check raised {type(exc).__name__}: {exc}")
    end = time.perf_counter()
    return {
        "op": op.label,
        "latency_s": latency,
        "check_s": end - check_start,
        "sha256": digest.hexdigest(),
        "error": type(error).__name__ if error is not None else None,
        "problems": [p[:300] for p in problems],
    }


def set_up(plan: workloads.Plan, tracer: spans.Tracer | None = None):
    """Import, fill the gf tables and run the set-up ops.  Returns (program,
    set-up seconds, op records); the seconds exclude output checks and, when
    traced, installing the spans."""
    start = time.perf_counter()
    prog = Program()
    install_s = 0.0
    if tracer is not None:
        t = time.perf_counter()
        spans.install(tracer, prog)
        install_s = time.perf_counter() - t
        tracer.tag = "setup"
    for q in plan.fields:
        prog.gf.op_tables(prog.gf.spec_for(q))
    records = [execute(prog, op) for op in plan.setup_ops]
    elapsed = time.perf_counter() - start - install_s - sum(r["check_s"] for r in records)
    return prog, elapsed, records


def run_pass(prog, plan, index, tracer=None) -> list[dict]:
    records = []
    for i, op in enumerate(plan.ops_for(index)):
        if tracer is not None:
            tracer.tag = [index, i]
        records.append(execute(prog, op))
    return records


def run_passes(prog, plan, deadline, tracer=None) -> tuple[list[list[dict]], list[float]]:
    """Passes 0, 1, ... until the next one would end after the deadline (at
    least one), each after a host speed sample.  Returns the passes' op
    records and the samples."""
    passes, refs = [], []
    while True:
        start = time.perf_counter()
        refs.append(hostspeed.sample())
        passes.append(run_pass(prog, plan, len(passes), tracer))
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return passes, refs


def wall(records: list[dict]) -> float:
    return sum(r["latency_s"] for r in records)


def times_at_reference_speed(setups, setup_refs, passes, refs, exponent=1.0) -> dict:
    """setup_s, wall_s and op_p50_s, each set-up scaled by REF_S / (the host
    speed sample taken just before it), and each pass by that ratio to the
    power `exponent`."""
    setups = [s * hostspeed.REF_S / r for s, r in zip(setups, setup_refs)]
    scales = [(hostspeed.REF_S / r) ** exponent for r in refs]
    per_op = [statistics.median(p[i]["latency_s"] * k for p, k in zip(passes, scales))
              for i in range(len(passes[0]))]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(wall(p) * k for p, k in zip(passes, scales)), "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
    }


# -- reporting ---------------------------------------------------------------------


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        top, commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
        if Path(top).resolve() != ROOT:
            commit = None  # a repository around the checkout, not of it
    except (OSError, ValueError, subprocess.SubprocessError):
        commit = None  # the checkout is not a git repository
    src = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def per_layer(tracer: spans.Tracer, traced_passes: int) -> dict:
    """Set-up plus the median traced pass, per span name and key."""
    phases = spans.aggregate(tracer.spans)
    setup = phases.get("setup", {})
    passes = [phases.get(i, {}) for i in range(traced_passes)]
    names = set(setup).union(*passes)
    combined = {}
    for name in names:
        keys = set(setup.get(name, {})).union(*(p.get(name, {}) for p in passes))
        combined[name] = {
            k: setup.get(name, {}).get(k, 0.0)
            + statistics.median(p.get(name, {}).get(k, 0.0) for p in passes)
            for k in keys
        }
    return combined


def shares(combined: dict) -> dict:
    total = sum(v["self_s"] for v in combined.values())
    by_layer: dict[str, float] = {}
    for name, v in combined.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + v["self_s"] / total
    top = sorted(((v["self_s"] / total, name) for name, v in combined.items()), reverse=True)
    return {
        "by_layer": {k: round(v, 4) for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])},
        "by_span": {name: round(s, 4) for s, name in top[:8]},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    problem = check_program()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    results = HERE / "work" / "results"
    work = HERE / "work" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        plan = workloads.plan(args.workload, args.seed, str(work))
        records: list[dict] = []
        report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                        "ops_per_pass": len(plan.ops_for(0)), "env": environment()}
        if args.trace == 0:
            setups, setup_refs = [], []
            for _ in range(SETUP_REPS):
                setup_refs.append(hostspeed.sample())
                prog, seconds, recs = set_up(plan)
                setups.append(seconds)
                records += recs
            passes, refs = run_passes(prog, plan, time.perf_counter() + args.seconds)
            measured = times_at_reference_speed(setups, [hostspeed.REF_S] * len(setups),
                                                passes, [hostspeed.REF_S] * len(passes))
            metrics = {
                **times_at_reference_speed(setups, setup_refs, passes, refs, plan.speed_exponent),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            report["measured"] = measured
            report["setup_runs_s"] = setups
            report["host_ref_s"] = {"setups": setup_refs, "passes": refs}
        else:
            start = time.perf_counter()
            prog, _, recs = set_up(plan)
            records += recs
            untraced, _ = run_passes(prog, plan, start + args.seconds / 2)
            tracer = spans.Tracer()
            prog, _, recs = set_up(plan, tracer)
            records += recs
            traced, _ = run_passes(prog, plan, start + args.seconds, tracer=tracer)
            passes = untraced + traced
            tracer.write(f"{stem}-spans.jsonl")
            combined = per_layer(tracer, len(traced))
            metrics = spans.layer_metrics(combined)
            report["untraced_wall_s"] = statistics.median(wall(p) for p in untraced)
            report["traced_wall_s"] = statistics.median(wall(p) for p in traced)
            report["trace_overhead_s"] = report["traced_wall_s"] - report["untraced_wall_s"]
            report["self_time_share"] = shares(combined)
        for p in passes:
            records += p
        failures = [r for r in records if r["problems"]]
        report["passes"] = len(passes)
        report["pass_wall_s"] = [wall(p) for p in passes]
        report["attempted"] = len(records)
        report["failed"] = len(failures)
        report["failures"] = [{"op": r["op"], "error": r["error"], "problems": r["problems"][:3]}
                              for r in failures[:5]]
        Path(f"{stem}.json").write_text(json.dumps({**report, "metrics": metrics, "ops": records}, indent=1))
        print(json.dumps(report, sort_keys=True))
        print(json.dumps({
            "correct": not failures,
            "attempted": len(records),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
