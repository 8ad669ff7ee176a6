"""The three workloads: their inputs, their op lists and the gate on every op.

A workload is built from a seed into a list of `Op`s over files in a work
directory. Each op is one `popmax` command line; its `check` reads the exit
code and captured stdout and returns an error message, or None when the
output is correct. Checks test properties of the output (a matching of the
instance, maximum, a witness that really wins, a certificate that passes the
verifier, the recorded optimum), never byte digests, so a correct new
algorithm is not counted as a failure.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "pool.json")
DIGESTS_PATH = os.path.join(HERE, "digests.json")


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[int, str], "str | None"]


class Case:
    """One generated instance: its file, the benchmark's own model of it, and
    the popmax objects the library-side checks need (built on demand)."""

    def __init__(self, workdir: str, name: str, inst: gen.Inst, files: dict[str, str]):
        self.inst = inst
        self.workdir = workdir
        self.path = self.write(name + ".txt", inst.text(), files)
        self.edges = set(inst.edges)
        self.rank = {u: inst.rank(u) for u in inst.side_a + inst.side_b}
        self._max_size = None
        self._pm = None

    def write(self, fname: str, text: str, files: dict[str, str] | None) -> str:
        path = os.path.join(self.workdir, fname)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if files is not None:
            files[fname] = text
        return path

    @property
    def max_size(self) -> int:
        if self._max_size is None:
            self._max_size = gen.max_matching_size(self.inst)
        return self._max_size

    @property
    def pm(self):
        """The instance as popmax parses it, for the library verifiers."""
        if self._pm is None:
            from popmax import core
            self._pm = core.parse_instance(self.inst.text())
        return self._pm

    # -- properties checked with the benchmark's own code ------------------

    def matching(self, pairs) -> dict[str, str]:
        return partner_map(self.edges, pairs)

    def votes(self, m: dict[str, str], n: dict[str, str]) -> tuple[int, int]:
        """(nodes preferring m, nodes preferring n); unmatched is worst."""
        pm = pn = 0
        for u, r in self.rank.items():
            x, y = m.get(u), n.get(u)
            if x == y:
                continue
            if y is None or (x is not None and r[x] < r[y]):
                pm += 1
            else:
                pn += 1
        return pm, pn

    def is_stable(self, m: dict[str, str]) -> bool:
        for a, b in self.edges:
            if m.get(a) == b:
                continue
            pa, pb = m.get(a), m.get(b)
            if (pa is None or self.rank[a][b] < self.rank[a][pa]) and \
                    (pb is None or self.rank[b][a] < self.rank[b][pb]):
                return False
        return True

    def library_popular(self, pairs) -> bool:
        from popmax import core, popularity
        return popularity.verify_popular_max(self.pm, core.make_matching(self.pm, pairs)).popular

    def certificate_ok(self, pairs, alpha: dict[str, int]) -> str | None:
        from popmax import certificates, core
        m = core.make_matching(self.pm, pairs)
        report = certificates.verify_certificate(
            self.pm, m, certificates.DualCertificate(dict(alpha), len(pairs)))
        if not report.ok:
            return "certificate rejected: " + "; ".join(report.violations[:3])
        if not self.library_popular(pairs):
            return "certified matching is not popular"
        return None


def partner_map(edges: set, pairs) -> dict[str, str]:
    """Partner map of `pairs`; raises ValueError unless they form a matching
    over `edges`."""
    partner: dict[str, str] = {}
    for a, b in pairs:
        if (a, b) not in edges:
            raise ValueError(f"({a},{b}) is not an edge")
        if a in partner or b in partner:
            raise ValueError("pairs are not node-disjoint")
        partner[a], partner[b] = b, a
    return partner


def _envelope(rc: int, out: str, want_rc: int) -> dict:
    if rc != want_rc:
        raise ValueError(f"exit code {rc}, expected {want_rc}")
    return json.loads(out)


def _gate(fn):
    """Turn a check that raises on a bad output (malformed JSON, a non-edge,
    a verifier error) into one that returns the message."""
    def check(rc, out):
        try:
            return fn(rc, out)
        except Exception as exc:  # any failure to check is a failed op
            return f"{type(exc).__name__}: {exc}"
    return check


# -- gates shared by the workloads ---------------------------------------------


def solve_check(case: Case, sol_path: str):
    """Maximum and popular; the first correct answer becomes the matching
    file that the `verify` and `certify` ops of this instance read."""
    @_gate
    def check(rc, out):
        pairs = [tuple(p) for p in _envelope(rc, out, 0)["result"]["pairs"]]
        case.matching(pairs)
        if len(pairs) != case.max_size:
            return f"{len(pairs)} pairs, maximum is {case.max_size}"
        if not case.library_popular(pairs):
            return "solve output is not popular"
        if not os.path.exists(sol_path):
            case.write(os.path.basename(sol_path), gen.matching_text(pairs), None)
        return None
    return check


def verify_check(case: Case, pairs, expect: str):
    """expect is 'popular', 'unpopular' or 'not-maximum'. A rejection must
    carry a witness whose toggle is a maximum matching that wins the vote."""
    m = case.matching(pairs)

    @_gate
    def check(rc, out):
        if expect == "popular":
            env = _envelope(rc, out, 0)
            return None if env["result"]["popular"] is True else "not accepted"
        env = _envelope(rc, out, 1)
        if expect == "not-maximum":
            if env["result"].get("maximum") is not False:
                return "expected a not-maximum verdict"
            return augmenting_path_error(case, m, env["result"]["augmenting_path"])
        if env["result"].get("maximum") is False:
            return "maximum matching reported as not maximum"
        n = case.matching(toggle(pairs, env["witness"]["edges"]))
        if len(n) != len(m):
            return "witness toggle changes the matching size"
        for_n, for_m = case.votes(n, m)
        if for_n <= for_m:
            return f"witness does not win: {for_n} vs {for_m}"
        return None
    return check


def pareto_check(case: Case, pairs, expect: str, round_trip=None):
    """expect is 'dominated' (the witness toggle must Pareto-dominate) or
    'optimal' (the matching is stable, or `round_trip` confirms it)."""
    m = case.matching(pairs)

    @_gate
    def check(rc, out):
        if expect == "optimal":
            env = _envelope(rc, out, 0)
            if env["result"]["pareto_optimal"] is not True:
                return "not accepted"
            return round_trip() if round_trip else (
                None if case.is_stable(m) else "accepted matching is not known optimal")
        env = _envelope(rc, out, 1)
        n = case.matching(toggle(pairs, env["witness"]["edges"]))
        for_n, for_m = case.votes(n, m)
        if not (for_m == 0 < for_n):
            return f"witness does not Pareto-dominate: {for_n} vs {for_m}"
        return None
    return check


def certify_check(case: Case, pairs):
    @_gate
    def check(rc, out):
        alpha = _envelope(rc, out, 0)["result"]["alpha"]
        return case.certificate_ok(pairs, alpha)
    return check


def mincost_check(case: Case, optimum: int):
    @_gate
    def check(rc, out):
        res = _envelope(rc, out, 0)["result"]
        pairs = [tuple(p) for p in res["pairs"]]
        case.matching(pairs)
        if len(pairs) != case.max_size:
            return f"{len(pairs)} pairs, maximum is {case.max_size}"
        cost = sum(case.inst.costs.get(e, 0) for e in pairs)
        if res["cost"] != cost:
            return f"reported cost {res['cost']}, pairs cost {cost}"
        if cost != optimum:
            return f"cost {cost}, recorded optimum {optimum}"
        return case.certificate_ok(pairs, res["certificate"])
    return check


def emit_lp_check(case: Case):
    """Counts rows without splitting the text, so the check adds little to
    the peak RSS the run reports."""
    @_gate
    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        links = out.count("\n link.")
        if links != len(case.edges):
            return f"{links} link rows for {len(case.edges)} edges"
        for head in ("Minimize", "Subject To", "Bounds"):
            if f"\n{head}\n" not in out:
                return f"no {head} section"
        return None if out.endswith("\nEnd\n") else "LP does not end with End"
    return check


def toggle(pairs, edges):
    return set(map(tuple, pairs)) ^ set(map(tuple, edges))


def augmenting_path_error(case: Case, m: dict[str, str], path) -> str | None:
    if len(path) < 2 or len(path) % 2 or path[0] in m or path[-1] in m:
        return "augmenting path must join two unmatched nodes"
    for i in range(0, len(path) - 1):
        u, v = path[i], path[i + 1]
        edge = (u, v) if (u, v) in case.edges else (v, u)
        if edge not in case.edges:
            return f"augmenting path uses non-edge {u}-{v}"
        if (m.get(u) == v) != (i % 2 == 1):
            return "augmenting path does not alternate"
    return None


# -- the workloads ---------------------------------------------------------------


def _steps(lo: int, hi: int, k: int) -> list[int]:
    """k sizes spread evenly over [lo, hi]: the size mix is fixed, only the
    random structure depends on the seed."""
    return [lo + (hi - lo) * i // (k - 1) for i in range(k)] if k > 1 else [lo]


def build_solve_certify(seed: int, workdir: str, tiny: bool):
    """solve, then verify and certify the matching solve returned."""
    rng = random.Random(seed)
    files: dict[str, str] = {}
    k = 2 if tiny else 12
    shapes = [("sq", n, n, 0.3) for n in _steps(6 if tiny else 16, 8 if tiny else 38, k)]
    shapes += [("lh", na, 3 + i % 4, 1.0)
               for i, na in enumerate(_steps(8 if tiny else 16, 10 if tiny else 38, k))]
    ops = []
    for i, (tag, na, nb, density) in enumerate(shapes):
        case = Case(workdir, f"{tag}{i}", gen.random_instance(rng, na, nb, density), files)
        sol = os.path.join(workdir, f"{tag}{i}.sol")
        ops.append(Op("solve", ["--json", "solve", case.path], solve_check(case, sol)))
        ops.append(Op("verify", ["--json", "verify", case.path, sol],
                      _lazy_pairs(sol, lambda p, c=case: verify_check(c, p, "popular"))))
        ops.append(Op("certify", ["--json", "certify", case.path, sol],
                      _lazy_pairs(sol, lambda p, c=case: certify_check(c, p))))
    return ops, files


def _lazy_pairs(path: str, make_check):
    """A check for an op whose matching file is written by an earlier op's
    check: the gate is built once that file exists."""
    built = []

    def check(rc, out):
        if not built:
            if not os.path.exists(path):
                return "matching file was never produced"
            with open(path, encoding="utf-8") as fh:
                built.append(make_check([tuple(line.split()) for line in fh if line.strip()]))
        return built[0](rc, out)
    return check


def _gadget(case_dir: str, name: str, rng: random.Random, nvars: int, files):
    """A planted 3-CNF, and the gadget instance popmax builds from it with the
    assignment matching of the hidden assignment (derived with the library,
    outside the digest: it is program output, not a generated input)."""
    from popmax import core, hardness

    clauses, hidden = gen.planted_cnf(rng, nvars, 4 * nvars)
    text = gen.cnf_text(nvars, clauses)
    cnf_path = os.path.join(case_dir, name + ".cnf")
    with open(cnf_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    files[name + ".cnf"] = text
    g = hardness.build_gadget_instance(hardness.transform_formula(hardness.parse_dimacs(text)))
    assignment = dict(hidden)
    assignment.update({nvars + v: not x for v, x in hidden.items()})
    pairs = sorted(hardness.assignment_to_matching(g, assignment).pairs)
    case = Case(case_dir, name, gen.parse_instance_text(core.serialize_instance(g.instance)), None)
    mpath = case.write(name + ".match", gen.matching_text(pairs), None)

    def round_trip():
        got = hardness.matching_to_assignment(g, core.make_matching(g.instance, pairs))
        if not all(any(got[abs(l)] == (l > 0) for l in c) for c in clauses):
            return "round-trip assignment does not satisfy the formula"
        return None

    nodes = 12 * len(clauses) + 16 * nvars

    @_gate
    def gen_check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        inst = gen.parse_instance_text(out)
        if len(inst.side_a) + len(inst.side_b) != nodes:
            return f"gadget has {len(inst.side_a) + len(inst.side_b)} nodes, expected {nodes}"
        partner_map(set(inst.edges), pairs)
        if 2 * len(pairs) != nodes or any(inst.costs.get(e, 0) for e in pairs):
            return "assignment matching is not a perfect cost-0 matching of the gadget"
        return None

    return [Op("gen-hardness", ["gen-hardness", cnf_path], gen_check),
            Op("pareto", ["--json", "pareto", case.path, mpath],
               pareto_check(case, pairs, "optimal", round_trip)),
            Op("verify", ["--json", "verify", case.path, mpath],
               verify_check(case, pairs, "unpopular"))]


def build_verdicts(seed: int, workdir: str, tiny: bool):
    """verify / pareto / gen-hardness on supplied matchings: popularity does
    the work, and neither G* nor mincost is reached."""
    rng = random.Random(seed)
    files: dict[str, str] = {}
    ops = []

    def matched(case, name, pairs):
        return case.write(name + ".match", gen.matching_text(pairs), files), sorted(pairs)

    for i, n in enumerate(_steps(30 if tiny else 100, 40 if tiny else 320, 2 if tiny else 12)):
        inst = gen.random_instance(rng, n, n, 8 / n)
        mate = gen.max_matching(inst, rng)
        gen.plant_swap(inst, mate, rng)
        case = Case(workdir, f"sp{i}", inst, files)
        path, pairs = matched(case, f"sp{i}", mate.items())
        ops.append(Op("verify", ["--json", "verify", case.path, path],
                      verify_check(case, pairs, "unpopular")))
        ops.append(Op("pareto", ["--json", "pareto", case.path, path],
                      pareto_check(case, pairs, "dominated")))
    for i, n in enumerate(_steps(6 if tiny else 20, 6 if tiny else 35, 1 if tiny else 4)):
        case = Case(workdir, f"co{i}", gen.random_instance(rng, n, n, 1.0), files)
        path, pairs = matched(case, f"co{i}", gen.stable_matching(case.inst).items())
        ops.append(Op("verify", ["--json", "verify", case.path, path],
                      verify_check(case, pairs, "popular")))
        ops.append(Op("pareto", ["--json", "pareto", case.path, path],
                      pareto_check(case, pairs, "optimal")))
    for i, n in enumerate(_steps(30 if tiny else 100, 30 if tiny else 200, 1 if tiny else 3)):
        inst = gen.random_instance(rng, n, n, 8 / n)
        mate = sorted(gen.max_matching(inst, rng).items())
        mate.pop(rng.randrange(len(mate)))
        case = Case(workdir, f"nm{i}", inst, files)
        path, pairs = matched(case, f"nm{i}", mate)
        ops.append(Op("verify", ["--json", "verify", case.path, path],
                      verify_check(case, pairs, "not-maximum")))
    for i, nvars in enumerate(_steps(4 if tiny else 20, 4 if tiny else 35, 1 if tiny else 4)):
        ops.extend(_gadget(workdir, f"gd{i}", rng, nvars, files))
    return ops, files


def load_pool() -> dict:
    with open(POOL_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def pool_instance(entry: dict) -> gen.Inst:
    rng = random.Random(entry["seed"])
    return gen.random_instance(rng, entry["n"], entry["n"], entry["density"], entry["cost_hi"])


def build_mincost_lp(seed: int, workdir: str, tiny: bool):
    """mincost and emit-lp on the recorded costed corpus, plus certify on the
    recorded min-cost matchings of the small slice. The corpus is fixed
    because each instance carries a recorded optimum; the seed orders it."""
    pool = load_pool()
    costed, small = pool["costed"], pool["small"]
    if tiny:
        costed, small = costed[:1], small[:2]
    files: dict[str, str] = {}
    groups = []
    for entry in costed + small:
        inst = pool_instance(entry)
        name = pool_name(entry)
        case = Case(workdir, name, inst, files)
        got = gen.digest({name: inst.text()})
        if got != entry["sha256"]:
            raise RuntimeError(f"pool instance {name} regenerated with digest {got}, "
                               f"recorded {entry['sha256']}")
        group = [Op("mincost", ["--json", "mincost", case.path],
                    mincost_check(case, entry["optimum"]))]
        if entry["kind"] == "costed":
            group.append(Op("emit-lp", ["emit-lp", case.path], emit_lp_check(case)))
        else:
            pairs = [tuple(p) for p in entry["matching"]]
            path = case.write(name + ".match", gen.matching_text(pairs), files)
            group.append(Op("certify", ["--json", "certify", case.path, path],
                            certify_check(case, pairs)))
        groups.append(group)
    random.Random(seed).shuffle(groups)
    return [op for group in groups for op in group], files


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable
    # A run makes max(3, ceil(--seconds / seconds_per_pass)) timed passes,
    # so a parent and a change run every op equally often. At the
    # benchmark's 10 s that is 4 passes for solve-certify and 6 for the
    # noisier verdicts and mincost-lp; one pass took 2.5-6 s at the seed
    # commit (Python 3.11, 2 vCPUs).
    seconds_per_pass: float
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("solve-certify", build_solve_certify, 3.3,
             "solve then verify and certify its answer on square and level-heavy "
             "instances: G* build and Instance validation dominate"),
    Workload("verdicts", build_verdicts, 1.7,
             "verify, pareto and gen-hardness on supplied matchings: popularity "
             "accepts and rejects; G* and mincost are never reached"),
    Workload("mincost-lp", build_mincost_lp, 1.7,
             "mincost and emit-lp on recorded costed instances plus certify on "
             "non-canonical min-cost matchings: rotations, max-flow, LP text, fallback"),
)}


def pool_name(entry: dict) -> str:
    return f"{entry['kind']}{entry['n']}s{entry['seed']}"


def recorded_digest(name: str, seed: int) -> str | None:
    """The input digest recorded for this workload and seed, if any."""
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)[name].get(str(seed))
