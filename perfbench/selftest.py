"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. A tiny run of each workload passes every gate, untraced and traced.
2. The traced runs separate the layers: `verdicts` makes no call into
   popmax.gstar or popmax.mincost, `solve-certify` none into popmax.mincost,
   and `mincost-lp` takes the certificate fallback.
3. Corrupted outputs trip their gates: a swapped matching pair, a zeroed
   certificate, a wrong cost, a witness with an edge missing.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7


FAILED: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILED.append(what)


def tiny_run(name: str, workdir: str, tracer: tracing.Tracer):
    ops, _ = workloads.WORKLOADS[name].build(SEED, workdir, True)
    runner = harness.Runner(ops)
    runner.run_pass()
    runner.tracer = tracer
    traced = runner.run_pass()
    runner.tracer = None
    expect(not runner.failures and runner.attempted == 2 * len(ops),
           f"{name}: tiny run of {len(ops)} ops passes every gate {runner.failures[:3]}")
    return runner, tracing.pass_metrics(*tracer.take(), harness.scaled(traced))


def outputs(runner: harness.Runner, kind: str):
    """(op, rc, stdout) for every op of this kind, run again untraced."""
    for op in runner.ops:
        if op.kind == kind:
            _, rc, out = runner.run_op(op)
            yield op, rc, out


def corrupt_swap(runner) -> None:
    """Swap the partners of two matched pairs whose cross edges exist."""
    for op, rc, out in outputs(runner, "solve"):
        env = json.loads(out)
        with open(op.argv[-1], encoding="utf-8") as fh:
            edges = set(gen.parse_instance_text(fh.read()).edges)
        pairs = env["result"]["pairs"]
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                (a1, b1), (a2, b2) = pairs[i], pairs[j]
                if (a1, b2) in edges and (a2, b1) in edges:
                    pairs[i], pairs[j] = [a1, b2], [a2, b1]
                    expect(op.check(rc, json.dumps(env)) is not None,
                           f"swapped pair {a1}-{b2}, {a2}-{b1} trips the solve gate")
                    return
    expect(False, "found a solve output with a swappable pair")


def corrupt_certificate(runner) -> None:
    for op, rc, out in outputs(runner, "certify"):
        env = json.loads(out)
        alpha = env["result"]["alpha"]
        if any(alpha.values()):
            env["result"]["alpha"] = {u: 0 for u in alpha}
            expect(op.check(rc, json.dumps(env)) is not None,
                   "zeroed certificate trips the certify gate")
            return
    expect(False, "found a certify output with a nonzero certificate")


def corrupt_cost(runner) -> None:
    op, rc, out = next(outputs(runner, "mincost"))
    expect(op.check(rc, out) is None, "mincost output passes its gate")
    env = json.loads(out)
    env["result"]["cost"] += 1
    expect(op.check(rc, json.dumps(env)) is not None, "wrong reported cost trips the mincost gate")


def corrupt_witness(runner) -> None:
    for op, rc, out in outputs(runner, "verify"):
        if rc == 1 and "witness" in out:
            env = json.loads(out)
            env["witness"]["edges"] = env["witness"]["edges"][1:]
            expect(op.check(rc, json.dumps(env)) is not None,
                   "witness missing an edge trips the verify gate")
            return
    expect(False, "found a rejecting verify output")


def main() -> int:
    expect(harness.tail(list(range(1, 21))) == (10, 50, 20), "tail of 20 samples is p50")
    expect(harness.tail(list(range(10))) is None, "no tail from 10 samples")
    tracer = tracing.Tracer()
    tracer.install()
    work = os.path.join(HERE, ".work", f"selftest-{os.getpid()}")
    runs = {}
    try:
        for name in workloads.WORKLOADS:
            os.makedirs(os.path.join(work, name))
            runs[name] = tiny_run(name, os.path.join(work, name), tracer)
        layers = {name: m for name, (_, m) in runs.items()}
        expect(layers["verdicts"]["gstar.calls"] == 0 and layers["verdicts"]["mincost.calls"] == 0,
               "verdicts makes no call into gstar or mincost")
        expect(layers["verdicts"]["popularity.calls"] > 0, "verdicts runs popularity")
        expect(layers["solve-certify"]["mincost.calls"] == 0, "solve-certify makes no call into mincost")
        expect(layers["solve-certify"]["gstar.builds"] > 0, "solve-certify builds G*")
        expect(layers["mincost-lp"]["certificates.fallback_calls"] > 0,
               "mincost-lp takes the certificate fallback")

        corrupt_swap(runs["solve-certify"][0])
        corrupt_certificate(runs["mincost-lp"][0])
        corrupt_cost(runs["mincost-lp"][0])
        corrupt_witness(runs["verdicts"][0])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILED)} failed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
