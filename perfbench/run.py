"""The popmax benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The workload runs in one child process built
from the seed (see README.md). With --trace 0 the last stdout line is a JSON
object holding every end-to-end metric; with --trace 1 it holds every
per-layer metric from a traced run. Lines before it are a readable report.
Exits 1 if any op failed its gate and 2 if the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
CHILD_BUDGET_S = 165
SETUP_RUNS = 11

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", metavar="RESULT", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# times the import inside a fresh interpreter, scaled like the ops
SETUP_PROBE = ("import calib, time; before = calib.calibration_loop(); "
               "t = time.perf_counter(); import popmax.cli; t = time.perf_counter() - t; "
               "after = calib.calibration_loop(); "
               "print(t * calib.CAL_REF_S / min(before, after))")


def measure_setup() -> float:
    """Median over fresh interpreters of the time `import popmax.cli` takes,
    scaled to the reference speed, after one untimed run that leaves the
    bytecode cache warm."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)))
    times = []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                             check=True, timeout=60, capture_output=True, text=True).stdout
        if i:
            times.append(float(out))
    return statistics.median(times)


def run_child(args, workdir: str) -> tuple[dict, float]:
    """Run the workload in a child process; return its result and peak RSS
    in MB (from the child's own rusage)."""
    result_path = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--child", result_path]
    # same seed, same hash order: counts repeat exactly between runs
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
    deadline = time.monotonic() + CHILD_BUDGET_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"workload child exceeded {CHILD_BUDGET_S} s")
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), usage.ru_maxrss / 1024


def child_main(args) -> int:
    sys.path.insert(0, SRC)
    import harness

    workdir = os.path.dirname(args.child)
    result = harness.run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), workdir)
    spans = result.pop("spans", None)
    if spans is not None:
        write_spans(spans, os.path.join(WORK, f"spans-{args.workload}-s{args.seed}.json"))
    with open(args.child, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def write_spans(passes: list[list], path: str) -> None:
    """Spans of every traced pass as [name index, start ns, end ns, parent]."""
    names: dict[str, int] = {}
    rows = [[[names.setdefault(n, len(names)), s, e, p] for n, s, e, p in spans]
            for spans in passes]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": list(names), "passes": rows}, fh, separators=(",", ":"))


def report(args, result: dict, metrics: dict, lines: list[str]) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['passes']} x {result['ops_per_pass']} ops")
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}  loadavg {load}")
    recorded = "matches the recorded digest" if result["digest_recorded"] else "no digest recorded for this seed"
    print(f"inputs sha256 {result['inputs_sha256'][:16]}  ({recorded})")
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.4f} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"failed_ratio {ratio:.4f}  ({result['failed']} of {result['attempted']} ops)")
    for failure in result["failures"]:
        print("  FAILED " + failure[:300])


def e2e_metrics(result: dict, setup_s: float, rss_mb: float) -> tuple[dict, list[str]]:
    e2e = result["e2e"]
    lines = [f"median pass wall time {e2e['raw_batch_s']:.4f} s",
             "per op kind, at the reference speed (lower is better):"]
    for kind, k in sorted(e2e["kinds"].items()):
        name = kind.replace("-", "_")
        lines.append(f"  {name + '_p50_ms':34s} {k['p50_ms']:14.4f} ms  (n={k['n']})")
        if k["tail"] and k["tail"][1] > 50:
            value, p, n = k["tail"]
            lines.append(f"  {name + '_tail_ms':34s} {value:14.4f} ms  (p{p}, n={n})")
    value, p, n = e2e["tail"]
    lines.append(f"tail_ms is p{p} of the latencies of all {n} ops")
    metrics = {
        "batch_s": {"value": e2e["batch_s"], "unit": "s"},
        "p50_gmean_ms": {"value": e2e["p50_gmean_ms"], "unit": "ms"},
        "tail_ms": {"value": value, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    return metrics, lines


def layer_metrics(result: dict) -> tuple[dict, list[str]]:
    def unit(name):
        if name.endswith("_ms"):
            return "ms"
        if name.endswith("_ratio"):
            return "ratio"
        return "bytes" if name.endswith("_bytes") else "count"
    metrics = {n: {"value": v, "unit": unit(n)} for n, v in sorted(result["metrics"].items())}
    lines = [f"counts repeat across traced passes: {result['counts_repeat']}"]
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not os.path.isfile(os.path.join(SRC, "popmax", "cli.py")):
        print(f"error: no popmax sources under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_s = None if args.trace else measure_setup()
        result, rss_mb = run_child(args, workdir)
    except (RuntimeError, ValueError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics, lines = layer_metrics(result)
    else:
        metrics, lines = e2e_metrics(result, setup_s, rss_mb)
    report(args, result, metrics, lines)
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
