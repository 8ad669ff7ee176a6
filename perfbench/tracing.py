"""Per-layer spans recorded from outside popmax.

`Tracer.install` replaces the public functions of each popmax module, in
every `popmax.*` namespace that binds them, with a wrapper that records a
span (name, start, end, parent) while the tracer is enabled. `Instance` and
`Matching` construction are traced through their `__post_init__`. Per-edge
and per-node helpers (`wt_edge`, the G* name helpers, `Instance.rank` and
`Instance.prefers`) stay unwrapped: at their call volume the wrapper would
dominate what it measures. Size counters are read from return values.

The layers are the modules; `oracle` is test-only and not a layer. A layer
metric ending in `_ms` is self time: span time minus the time covered by
its child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from itertools import accumulate

LAYERS = ("core", "stable", "gstar", "popularity", "certificates", "mincost", "hardness", "cli")
UNWRAPPED = {"wt_edge", "copy_name", "dummy_name", "image_name"}

# metric -> spans whose self time it sums (per pass, in ms)
SELF_MS = {
    "core.parse_ms": ("core.parse_instance", "core.parse_matching"),
    "core.is_maximum_ms": ("core.is_maximum",),
    "core.instance_ms": ("core.Instance",),
    "core.serialize_ms": ("core.serialize_instance", "core.serialize_matching",
                          "core.matching_to_json"),
    "stable.gale_shapley_ms": ("stable.gale_shapley",),
    "stable.is_stable_ms": ("stable.is_stable", "stable.blocking_edges"),
    "gstar.build_ms": ("gstar.build_gstar",),
    "gstar.project_ms": ("gstar.project",),
    "gstar.levels_ms": ("gstar.levels",),
    "popularity.verify_ms": ("popularity.verify_popular_max",),
    "popularity.digraph_ms": ("popularity.build_alternating_digraph",),
    "popularity.pareto_ms": ("popularity.is_pareto_optimal",),
    "certificates.certify_ms": ("certificates.certify_popular_max",),
    "certificates.extract_ms": ("certificates.extract_certificate",),
    "certificates.verify_ms": ("certificates.verify_certificate",),
    "mincost.find_rotations_ms": ("mincost.find_rotations",),
    "mincost.max_flow_ms": ("mincost.max_flow",),
    "mincost.closure_ms": ("mincost.min_cost_stable", "mincost.matching_of_closed_subset"),
    "mincost.emit_lp_ms": ("mincost.emit_lp",),
    "hardness.parse_dimacs_ms": ("hardness.parse_dimacs",),
    "hardness.gadget_ms": ("hardness.transform_formula", "hardness.build_gadget_instance"),
}

# metric -> spans it counts
CALLS = {
    "stable.is_stable_calls": ("stable.is_stable",),
    "gstar.builds": ("gstar.build_gstar",),
    "core.instances": ("core.Instance",),
    "core.matchings": ("core.Matching",),
    "mincost.eliminations": ("mincost.eliminate",),
}

# counters read from return values (see COUNT_HOOKS)
COUNTERS = ("core.instance_entries", "gstar.nodes", "gstar.edges", "popularity.digraph_arcs",
            "mincost.rotations", "mincost.flow_arcs", "mincost.lp_bytes", "hardness.gadget_nodes",
            "certificates.fallback_scanned")

FALLBACK = ("mincost.enumerate_stable", "certificates.certify_popular_max")


def _add(metric: str, size):
    """A hook adding size(args, result) to a counter."""
    return lambda c, args, result, _parent: c.update({metric: size(args, result)})


def _gstar_size(c, _args, r, _parent):
    c["gstar.nodes"] += len(r.inner.side_a) + len(r.inner.side_b)
    c["gstar.edges"] += len(r.inner.edges)


def _verdict(attr: str):
    def count(c, _args, r, _parent):
        c["popularity.verdicts"] += 1
        c["popularity.rejects"] += not getattr(r, attr)
    return count


def _enumerated(c, _args, r, parent):
    if parent == FALLBACK[1]:
        c["certificates.fallback_scanned"] += len(r)


# span name -> hook(counters, args, result, parent span name), run on return
COUNT_HOOKS = {
    "core.Instance": _add("core.instance_entries",
                          lambda a, _r: sum(len(lst) for lst in a[0].prefs.values())),
    "gstar.build_gstar": _gstar_size,
    "popularity.build_alternating_digraph": _add("popularity.digraph_arcs", lambda _a, r: len(r.arcs)),
    "popularity.verify_popular_max": _verdict("popular"),
    "popularity.is_pareto_optimal": _verdict("pareto"),
    "mincost.find_rotations": _add("mincost.rotations", lambda _a, r: len(r.rotations)),
    "mincost.max_flow": _add("mincost.flow_arcs", lambda a, _r: len(a[0].arcs)),
    "mincost.emit_lp": _add("mincost.lp_bytes", lambda _a, r: len(r.encode())),
    "mincost.enumerate_stable": _enumerated,
    "hardness.build_gadget_instance": _add("hardness.gadget_nodes", lambda _a, r: len(r.instance.nodes)),
}


def _modules():
    import popmax
    from popmax import certificates, cli, core, gstar, hardness, mincost, popularity, stable
    mods = dict(core=core, stable=stable, gstar=gstar, popularity=popularity,
                certificates=certificates, mincost=mincost, hardness=hardness, cli=cli)
    return popmax, mods


class Tracer:
    """Spans and counters, held in memory. Disabled until `enabled` is set,
    so the harness's own checks between ops record nothing."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def install(self) -> None:
        popmax, mods = _modules()
        namespaces = [popmax, *mods.values()]
        replaced = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNWRAPPED):
                    replaced[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if id(val) in replaced:
                    setattr(ns, attr, replaced[id(val)])
        for cls in (mods["core"].Instance, mods["core"].Matching):
            cls.__post_init__ = self._wrap(f"core.{cls.__name__}", cls.__post_init__)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counters = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter_ns()
            if counters:
                parent = spans[stack[-1]][0] if stack else None
                counters(self.counts, args, result, parent)
            return result
        return wrapper

    def take(self) -> tuple[list[list], Counter]:
        """Spans and counters since the last call; starts a fresh pass."""
        spans, counts = list(self.spans), self.counts.copy()
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def self_times(spans: list[list], scales: list[float]) -> Counter:
    """Self time in ns per span name; the spans under the k-th root span
    (the k-th op) are scaled by scales[k] to the reference speed."""
    child = [0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Counter = Counter()
    op = -1
    for i, (name, start, end, parent) in enumerate(spans):
        op += parent < 0
        out[name] += (end - start - child[i]) * scales[op]
    return out


def pass_metrics(spans: list[list], counts: Counter, scales: list[float]) -> dict[str, float]:
    """Every per-layer metric of one traced pass; layers that did not run
    report 0. `scales` brings each op's times to the reference speed."""
    selfs = self_times(spans, scales)
    names = Counter(s[0] for s in spans)
    ms = {metric: sum(selfs[n] for n in group) / 1e6 for metric, group in SELF_MS.items()}
    out: dict[str, float] = {}
    for layer in LAYERS:
        prefix = layer + "."
        out[prefix + "calls"] = sum(v for n, v in names.items() if n.startswith(prefix))
        out[prefix + "self_ms"] = sum(v for n, v in selfs.items() if n.startswith(prefix)) / 1e6
    out.update(ms)
    for metric, group in CALLS.items():
        out[metric] = sum(names[n] for n in group)
    for metric in COUNTERS:
        out[metric] = counts[metric]
    op = list(accumulate(p < 0 for _n, _s, _e, p in spans))
    fallback = [(e - s) * scales[op[i] - 1] for i, (n, s, e, p) in enumerate(spans)
                if n == FALLBACK[0] and p >= 0 and spans[p][0] == FALLBACK[1]]
    out["certificates.fallback_calls"] = len(fallback)
    out["certificates.fallback_ms"] = sum(fallback) / 1e6
    verdicts = counts["popularity.verdicts"]
    out["popularity.reject_ratio"] = counts["popularity.rejects"] / verdicts if verdicts else 0.0
    return out
