"""The workload child: run the ops in-process, time them, gate every output.

All load comes from this one process and one thread. Each op is a
`popmax.cli.main(argv)` call with stdout and stderr captured; only that call
is timed. `gc.collect()` runs before each op, GC is never disabled and the
recursion limit is left at its default, so the program under test runs as
it would for a user.

Timings are reported at a reference machine speed. The speed of a shared
machine swings by 10-50% over seconds to minutes while other tenants load
it, and the swing moves popmax and a fixed loop of the same kind of work
alike. So the loop (`calib.calibration_loop`) runs between every two ops,
and each op's wall time is scaled by CAL_REF_S over the faster of the two
loop times around it (`scaled`). An op's latency is then the median of its
scaled times over the timed passes. The raw wall time of a pass is
reported beside the scaled figures.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import statistics
import time
import traceback

import gen
import tracing
import workloads
from calib import CAL_REF_S, calibration_loop


def tail(samples: list[float]):
    """(value, percentile, n): the highest whole percentile that still has
    at least 10 samples beyond it (nearest-rank), or None when n <= 10."""
    n = len(samples)
    p = (100 * (n - 10)) // n
    if p <= 0:
        return None
    return sorted(samples)[math.ceil(p * n / 100) - 1], p, n


class Runner:
    """Runs passes over an op list. Every output is checked; an output
    identical to one already checked for the same op reuses that verdict."""

    def __init__(self, ops: list[workloads.Op]):
        self.ops = ops
        self.tracer: tracing.Tracer | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self._verdicts: dict[tuple, tuple] = {}

    def run_op(self, op: workloads.Op) -> tuple[float, int, str]:
        from popmax import cli

        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer:
                self.tracer.enabled = True
            start = time.perf_counter()
            try:
                rc = cli.main(op.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a traceback is a failed op, not a crashed run
                rc = "raised:" + traceback.format_exc(limit=-3)
            elapsed = time.perf_counter() - start
            if self.tracer:
                self.tracer.enabled = False
        return elapsed, rc, out.getvalue()

    def outcome(self, i: int, op: workloads.Op, rc, out: str, data: bytes) -> tuple:
        """(error or None, certificate levels used or 0), cached per output;
        `data` is `out` encoded."""
        key = (i, rc, hashlib.blake2b(data).digest())
        if key not in self._verdicts:
            error = op.check(rc, out) if isinstance(rc, int) else str(rc)
            self._verdicts[key] = (error, 0 if error else levels_used(op.kind, out))
        return self._verdicts[key]

    def run_pass(self) -> dict:
        """One pass over the op list: latency per op, outputs checked."""
        lat: list[float] = []
        loops = [calibration_loop()]
        out_bytes = levels = 0
        for i, op in enumerate(self.ops):
            elapsed, rc, out = self.run_op(op)
            loops.append(calibration_loop())
            self.attempted += 1
            data = out.encode()
            error, lv = self.outcome(i, op, rc, out, data)
            if error:
                self.failures.append(f"{op.kind} {' '.join(op.argv[-2:])}: {error}")
            lat.append(elapsed)
            out_bytes += len(data)
            levels += lv
        return {"lat": lat, "loops": loops, "output_bytes": out_bytes, "levels_used": levels}


def scaled(p: dict) -> list[float]:
    """Per-op scale to the reference speed: op i ran between loops i and i+1."""
    loops = p["loops"]
    return [CAL_REF_S / min(loops[i], loops[i + 1]) for i in range(len(p["lat"]))]


def op_latencies(passes: list[dict]) -> list[float]:
    """Each op's median scaled latency over the passes, in seconds."""
    runs = [[t * s for t, s in zip(p["lat"], scaled(p))] for p in passes]
    return [statistics.median(ts) for ts in zip(*runs)]


def levels_used(kind: str, out: str) -> int:
    """Distinct certificate levels |alpha|/2 in a certify or mincost output."""
    if kind == "certify":
        alpha = json.loads(out)["result"]["alpha"]
    elif kind == "mincost":
        alpha = json.loads(out)["result"]["certificate"]
    else:
        return 0
    return len({abs(v) // 2 for v in alpha.values()})


def end_to_end(kinds: list[str], passes: list[dict]) -> dict:
    """Per-kind p50 and tail, the pooled tail and batch_s, over the ops'
    latencies."""
    ms = [t * 1e3 for t in op_latencies(passes)]
    by_kind: dict[str, list[float]] = {}
    for kind, t in zip(kinds, ms):
        by_kind.setdefault(kind, []).append(t)
    per_kind = {kind: {"p50_ms": statistics.median(v), "n": len(v), "tail": tail(v)}
                for kind, v in by_kind.items()}
    return {
        "batch_s": sum(ms) / 1e3,
        "raw_batch_s": statistics.median(sum(p["lat"]) for p in passes),
        "p50_gmean_ms": math.exp(statistics.fmean(
            math.log(k["p50_ms"]) for k in per_kind.values())),
        "tail": tail(ms),
        "kinds": per_kind,
    }


def per_layer(traced: list[tuple[list, dict]], passes: list[dict], base: list[dict]) -> dict:
    """Layer metrics per pass: each `_ms` value is its median over the
    traced passes; counts and ratios come from the first (they repeat
    exactly)."""
    rows = [tracing.pass_metrics(spans, counts, scaled(p))
            for (spans, counts), p in zip(traced, passes)]
    out = {}
    for name in rows[0]:
        out[name] = statistics.median(r[name] for r in rows) if name.endswith("_ms") else rows[0][name]
    out["gstar.levels_used"] = passes[0]["levels_used"]
    out["cli.output_bytes"] = passes[0]["output_bytes"]
    out["trace.overhead_ratio"] = sum(op_latencies(passes)) / sum(op_latencies(base))
    counts_repeat = all(
        r[n] == rows[0][n] for r in rows for n in r if not n.endswith("_ms"))
    return {"metrics": out, "counts_repeat": counts_repeat}


def run_workload(name: str, seed: int, seconds: int, traced: bool, workdir: str,
                 tiny: bool = False) -> dict:
    wl = workloads.WORKLOADS[name]
    ops, files = wl.build(seed, workdir, tiny)
    digest = gen.digest(files)
    recorded = workloads.recorded_digest(name, seed) if not tiny else None
    if recorded is not None and recorded != digest:
        raise RuntimeError(f"inputs for {name} seed {seed} have digest {digest}, "
                           f"recorded {recorded}: the generators changed")
    runner = Runner(ops)
    runner.run_pass()  # warm-up: untimed, every output checked
    n_passes = max(3, math.ceil(seconds / wl.seconds_per_pass))
    result = {"inputs_sha256": digest, "digest_recorded": recorded is not None,
              "passes": n_passes, "ops_per_pass": len(ops)}
    if not traced:
        result["e2e"] = end_to_end([op.kind for op in ops],
                                   [runner.run_pass() for _ in range(n_passes)])
    else:
        base = [runner.run_pass() for _ in range(2)]
        tracer = tracing.Tracer()
        tracer.install()
        runner.tracer = tracer
        passes, spans = [], []
        for _ in range(n_passes):
            passes.append(runner.run_pass())
            spans.append(tracer.take())
        result.update(per_layer(spans, passes, base))
        result["spans"] = [s for s, _ in spans]
    result["attempted"] = runner.attempted
    result["failed"] = len(runner.failures)
    result["failures"] = runner.failures[:20]
    return result
