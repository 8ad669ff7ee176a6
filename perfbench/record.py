"""Regenerate pool.json and digests.json. Run from the repository root:

    python3 perfbench/record.py

pool.json is the fixed corpus of the mincost-lp workload. Each instance is
made by the benchmark's own generator from its pool seed; its min-cost
optimum is recorded from `min_cost_popular_max`, and on the small slice
(|A| = |B| = 8, where brute force is feasible) cross-checked against
`popmax.oracle`. The small slice also records the min-cost matching that
its `certify` op reads, so that op's input cannot move with mincost.

digests.json records the sha256 of the generated inputs of every workload
for seeds 0..99; each run checks its inputs against it.
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
import workloads  # noqa: E402

COSTED = [dict(kind="costed", n=n, density=0.3, cost_hi=9, seed=1000 * n + 1)
          for n in range(13, 20)]
SMALL = [dict(kind="small", n=8, density=0.6, cost_hi=9, seed=800 + k) for k in range(1, 11)]
DIGEST_SEEDS = range(100)


def record_pool() -> dict:
    from popmax import core, gstar, mincost, oracle, stable

    entries = []
    for entry in COSTED + SMALL:
        g = workloads.pool_instance(entry)
        inst = core.parse_instance(g.text())
        res = mincost.min_cost_popular_max(inst)
        entry = dict(entry, sha256=gen.digest({workloads.pool_name(entry): g.text()}),
                     optimum=res.cost)
        if entry["kind"] == "small":
            _, brute = oracle.brute_min_cost_popular_max(inst, bound=len(inst.edges))
            if brute != res.cost:
                raise SystemExit(f"{workloads.pool_name(entry)}: oracle {brute} != {res.cost}")
            gs = gstar.build_gstar(inst)
            canonical = gstar.project(gs, stable.gale_shapley(gs.inner)).pairs
            entry["matching"] = sorted(map(list, res.matching.pairs))
            entry["canonical"] = canonical == res.matching.pairs
        entries.append(entry)
        print(workloads.pool_name(entry), entry["optimum"], entry.get("canonical", ""))
    return {"costed": [e for e in entries if e["kind"] == "costed"],
            "small": [e for e in entries if e["kind"] == "small"]}


def record_digests() -> dict:
    work = os.path.join(HERE, ".work", "record")
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        out[name] = {}
        for seed in DIGEST_SEEDS:
            os.makedirs(work)
            try:
                _, files = wl.build(seed, work, False)
            finally:
                shutil.rmtree(work)
            out[name][str(seed)] = gen.digest(files)
    return out


def main() -> None:
    pool = record_pool()
    with open(workloads.POOL_PATH, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1)
        fh.write("\n")
    digests = record_digests()
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
