"""Self-test of the benchmark: the oracle accepts real outputs and rejects
corrupted ones, op lists are a pure function of the seed, times are scaled
to the reference host speed, and span self times add up.

    python3 perfbench/selftest.py

Exits 0 when every check holds; runs a few small ops (about ten seconds).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import run  # sets the thread limits and the import path first
import hostspeed
import spans
import workloads

FAILED: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILED.append(what)


def rejects(op: workloads.Op, res: dict, what: str) -> None:
    expect(bool(op.check(res)), f"oracle rejects {what}")


def main() -> int:
    problem = run.check_program()
    if problem is not None:
        print(f"selftest: {problem}", file=sys.stderr)
        return 2
    work = run.HERE / "work" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        check_op_lists(str(work))
        check_oracle(str(work))
        check_reference_speed()
        check_self_times()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILED)} failed" if FAILED else "all passed")
    return 1 if FAILED else 0


def check_op_lists(work: str) -> None:
    for name in workloads.WORKLOADS:
        def sigs(seed):
            p = workloads.plan(name, seed, work)
            return [op.signature() for op in p.setup_ops + p.ops_for(0) + p.ops_for(1)]

        expect(sigs(1) == sigs(1), f"{name}: same seed, same op list")
        expect(sigs(1) != sigs(2), f"{name}: another seed, another op list")


def run_op(prog, op) -> dict:
    res, _, error = run.perform(prog, op)
    if error is not None:
        raise error
    return res


def passes(op: workloads.Op, res: dict, what: str) -> None:
    problems = op.check(res)
    expect(not problems, f"oracle passes {what} {problems or ''}")


def check_oracle(work: str) -> None:
    prog = run.Program()

    # a sampled certificate: real output passes, a mutated witnessCount fails
    op = workloads.plan("certify", 1, work).ops_for(0)[0]
    res = run_op(prog, op)
    passes(op, res, "a real certificate")
    cert = json.loads(Path(op.out).read_text())
    cert["witnessCount"] += 1
    Path(op.out).write_text(json.dumps(cert))
    rejects(op, res, "a mutated witnessCount")
    cert["witnessCount"] -= 1
    cert["deletionTrace"] = cert["deletionTrace"][:-1]
    Path(op.out).write_text(json.dumps(cert))
    rejects(op, res, "a trimmed deletion trace")

    # a pattern check: real output passes, a flipped `free` fails
    smoke = workloads.plan("build-check", 1, work).setup_ops
    run_op(prog, smoke[0])
    check = workloads.Op("check c4", smoke[1].argv, check=workloads._check_free("c4"))
    res = run_op(prog, check)
    passes(check, res, "a real pattern check")
    payload = json.loads(res["stdout"])
    payload["free"] = not payload["free"]
    rejects(check, {**res, "stdout": json.dumps(payload)}, "a flipped free")

    # exact_alpha_m: the real value passes, a wrong one fails
    op = next(o for o in workloads.plan("pseudorandom", 1, work).ops_for(0) if o.call is not None)
    res = run_op(prog, op)
    passes(op, res, "a real exact_alpha_m")
    rejects(op, {**res, "value": res["value"] + Fraction(1, 36)}, "a wrong exact_alpha_m")

    # transfer trials: kept-edge counts re-derived from the seed
    op = workloads.Op("transfer", ["transfer", "--q", "3", "--trials", "2", "--pattern", "k4", "--seed", "5"],
                      check=workloads._check_transfer(5, 2))
    res = run_op(prog, op)
    passes(op, res, "real transfer trials")
    rows = res["stdout"].splitlines()
    first = json.loads(rows[0])
    first["edgesKept"] += 2
    rejects(op, {**res, "stdout": "\n".join([json.dumps(first), *rows[1:]])}, "a mutated edgesKept")

    # an op that raises is counted, not fatal
    boom = workloads.Op("raises", call=lambda prog: 1 // 0)
    record = run.execute(prog, boom)
    expect(record["error"] == "ZeroDivisionError" and record["problems"], "a raising op is recorded as failed")


def check_reference_speed() -> None:
    ref = hostspeed.REF_S
    passes = [[{"latency_s": 1.0}, {"latency_s": 3.0}], [{"latency_s": 2.0}, {"latency_s": 6.0}]]
    m = run.times_at_reference_speed([0.5], [2 * ref], passes, [ref, 2 * ref])
    expect(m["wall_s"][0] == 4.0 and m["op_p50_s"][0] == 2.0 and m["setup_s"][0] == 0.25,
           "times are scaled by REF_S / the host speed sample before them")
    m = run.times_at_reference_speed([0.5], [2 * ref], passes, [ref, 4 * ref], exponent=0.5)
    expect(m["wall_s"][0] == 4.0 and m["op_p50_s"][0] == 2.0 and m["setup_s"][0] == 0.25,
           "pass times are scaled by that ratio to the workload's exponent")


def check_self_times() -> None:
    spans_ = [
        {"id": 0, "parent": None, "tag": [0, 0], "name": "cli.dispatch", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "tag": [0, 0], "name": "graphcore.proof", "start": 1.0, "end": 7.0},
        {"id": 2, "parent": 1, "tag": [0, 0], "name": "graphcore.complement", "start": 2.0, "end": 3.0},
        {"id": 3, "parent": 0, "tag": [0, 0], "name": "graphcore.proof", "start": 8.0, "end": 9.0},
    ]
    expect(spans.self_times(spans_) == [3.0, 5.0, 1.0, 1.0], "self time = duration - direct children")
    agg = spans.aggregate(spans_)[0]
    expect(agg["graphcore.proof"]["calls"] == 2 and agg["graphcore.proof"]["self_s"] == 6.0,
           "self times sum per span name")


if __name__ == "__main__":
    sys.exit(main())
