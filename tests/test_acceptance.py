"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Each test prints a PASS line with its corpus size and timing; run with
`pytest -s tests/test_acceptance.py` to see them.
"""

from __future__ import annotations

import hashlib
import random
import subprocess
import sys
import time

import pytest

from popmax import (
    CnfFormula,
    build_gstar,
    check_reduction,
    compare,
    is_maximum,
    is_stable,
    levels,
    min_cost_popular_max,
    pad_unit_clauses,
    popular_max_matching,
    project,
    random_instance,
    verify_certificate,
    verify_popular_max,
    wt_edge,
)
from popmax.certificates import extract_certificate
from popmax.errors import NotMaximumError
from popmax.mincost import FlowNetwork, max_flow
from popmax.oracle import (
    brute_min_cost_popular_max,
    brute_popular_max,
    enum_matchings,
    enum_max_matchings,
    enumerate_stable,
)
from popmax.popularity import apply_witness

from conftest import I0_TEXT, I2_COSTED_TEXT, I3_TEXT


def _instances(count, min_side, max_side, seed0, costs=None):
    for k in range(count):
        rng = random.Random(seed0 + k)
        na = rng.randint(min_side, max_side)
        nb = rng.randint(min_side, max_side)
        density = rng.uniform(0.3, 1.0)
        yield random_instance(na, nb, density, seed0 + 10_000 + k, costs)


def test_criterion_1_existence_and_soundness():
    start = time.monotonic()
    n = 500
    for inst in _instances(n, 2, 6, 11000):
        m = popular_max_matching(inst)
        assert is_maximum(inst, m)[0]
        assert verify_popular_max(inst, m).popular
        for other in enum_max_matchings(inst, bound=40):
            assert compare(inst, m, other).delta >= 0
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"\nACCEPTANCE 1 PASS: existence+soundness on {n} instances in {elapsed:.1f}s")


def test_criterion_2_characterization_equivalence():
    start = time.monotonic()
    n = 200
    matchings_checked = 0
    for inst in _instances(n, 1, 5, 12000):
        pops = {frozenset(m.pairs) for m in brute_popular_max(inst, bound=30)}
        for m in enum_matchings(inst, bound=30):
            matchings_checked += 1
            if not is_maximum(inst, m)[0]:
                with pytest.raises(NotMaximumError):
                    verify_popular_max(inst, m)
                continue
            verdict = verify_popular_max(inst, m)
            assert verdict.popular == (frozenset(m.pairs) in pops)
            if not verdict.popular:
                flipped = apply_witness(m, verdict.witness)
                assert is_maximum(inst, flipped)[0]
                assert compare(inst, flipped, m).delta >= 1
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 2 PASS: verifier == oracle on {matchings_checked} matchings "
          f"of {n} instances in {elapsed:.1f}s")


def _suite3_corpus(count=200, seed0=13000):
    for inst in _instances(count, 1, 4, seed0):
        gs = build_gstar(inst)
        stables = enumerate_stable(gs.inner)
        yield inst, gs, stables


def test_criterion_3_projection_and_level_properties():
    start = time.monotonic()
    n = 0
    for inst, gs, stables in _suite3_corpus():
        n += 1
        pops = {frozenset(m.pairs) for m in brute_popular_max(inst, bound=30)}
        for s in stables:
            m = project(gs, s)
            assert frozenset(m.pairs) in pops          # popular max (incl. property 6)
            assert is_maximum(inst, m)[0]
            la = lb = levels(gs, s)
            for a, b in m.pairs:                        # property 1: level-matched pairs
                assert la[a] == lb[b]
            for i in range(gs.n0):                      # property 1: per-level stability
                sub = [e for e in inst.edges if la[e[0]] == i and lb[e[1]] == i]
                for e in sub:
                    assert wt_edge(inst, m, e) != 2
            for a, b in inst.edges:
                assert la[a] <= lb[b] + 1               # property 3
                if la[a] == lb[b] + 1:                  # property 2
                    assert wt_edge(inst, m, (a, b)) == -2
                if wt_edge(inst, m, (a, b)) == 2:       # property 4
                    assert la[a] <= lb[b] - 1
            for a in inst.side_a:                       # property 5
                if not m.is_matched(a):
                    assert la[a] == gs.n0 - 1
            for b in inst.side_b:
                if not m.is_matched(b):
                    assert lb[b] == 0
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 3 PASS: projection + level properties on {n} instances "
          f"in {elapsed:.1f}s")


def test_criterion_4_surjectivity():
    start = time.monotonic()
    n = 100
    for inst in _instances(n, 1, 4, 14000):
        gs = build_gstar(inst)
        projected = {frozenset(project(gs, s).pairs)
                     for s in enumerate_stable(gs.inner)}
        pops = {frozenset(m.pairs) for m in brute_popular_max(inst, bound=30)}
        assert projected == pops
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 4 PASS: surjectivity on {n} instances in {elapsed:.1f}s")


def test_criterion_5_duality():
    start = time.monotonic()
    certs = 0
    for inst, gs, stables in _suite3_corpus(seed0=13000):
        pops = {frozenset(m.pairs) for m in brute_popular_max(inst, bound=30)}
        for s in stables:
            m = project(gs, s)
            cert = extract_certificate(gs, s)
            report = verify_certificate(inst, m, cert)
            assert report.ok, report.violations         # all six checks
            assert frozenset(m.pairs) in pops           # verified cert => oracle popular
            certs += 1
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 5 PASS: {certs} extracted certificates pass F/CS/Z/R/P1/P2 "
          f"and certify oracle-popular matchings in {elapsed:.1f}s")


def test_criterion_6_min_cost_optimality():
    start = time.monotonic()
    n = 200
    for inst in _instances(n, 1, 5, 15000, costs=(0, 9)):
        res = min_cost_popular_max(inst)
        assert verify_popular_max(inst, res.matching).popular
        _m, best = brute_min_cost_popular_max(inst, bound=30)
        assert res.cost == best
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"\nACCEPTANCE 6 PASS: min-cost optimality on {n} instances in {elapsed:.1f}s")


def test_criterion_7_rotation_machinery_and_flow_certificates():
    start = time.monotonic()
    n = 0
    for inst in _instances(120, 1, 5, 16000):
        n += 1
        got = len(enumerate_stable(inst))
        want = sum(is_stable(inst, m) for m in enum_matchings(inst, bound=30))
        assert got == want
    for inst in _instances(30, 1, 3, 16500):
        gs = build_gstar(inst)
        got = len(enumerate_stable(gs.inner))
        want = sum(is_stable(gs.inner, m) for m in enum_matchings(gs.inner, bound=45))
        assert got == want
    rng = random.Random(16999)
    flows = 0
    for _ in range(50):
        size = rng.randint(2, 9)
        arcs = tuple((rng.randrange(size), rng.randrange(size), rng.randint(0, 9))
                     for _ in range(rng.randint(0, 25)))
        arcs = tuple(a for a in arcs if a[0] != a[1])
        res = max_flow(FlowNetwork(size, arcs, 0, size - 1))
        assert res.cut_capacity == res.value
        flows += 1
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 7 PASS: closed-subset counts == oracle on {n} instances (+30 "
          f"derived), {flows} flow/cut certificates, in {elapsed:.1f}s")


def _random_formula(rng: random.Random) -> CnfFormula:
    num_vars = rng.randint(1, 3)
    clauses = []
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, 3)
        clauses.append(tuple(rng.choice((1, -1)) * rng.randint(1, num_vars)
                             for _ in range(size)))
    return pad_unit_clauses(CnfFormula(num_vars, tuple(clauses)))


def test_criterion_8_hardness_reduction():
    start = time.monotonic()
    n = 50
    sat_count = 0
    for k in range(n):
        f = _random_formula(random.Random(17000 + k))
        report = check_reduction(f)
        assert report.equivalence_holds
        assert report.consistency_ok and report.falsifying_cycles_ok
        sat_count += report.satisfiable
    elapsed = time.monotonic() - start
    assert elapsed < 600
    print(f"\nACCEPTANCE 8 PASS: reduction equivalence on {n} formulas "
          f"({sat_count} satisfiable) in {elapsed:.1f}s")


def test_criterion_9_cli_determinism(tmp_path):
    start = time.monotonic()
    i0 = tmp_path / "i0.txt"
    i0.write_text(I0_TEXT)
    i2c = tmp_path / "i2c.txt"
    i2c.write_text(I2_COSTED_TEXT)
    i3 = tmp_path / "i3.txt"
    i3.write_text(I3_TEXT)
    bad = tmp_path / "bad.match"
    bad.write_text("a3 b1\n")
    good = tmp_path / "good.match"
    good.write_text("a1 b1\n")
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n")
    commands = [
        ["solve", str(i2c)],
        ["mincost", str(i2c)],
        ["verify", str(i3), str(bad)],
        ["verify", str(i3), str(good)],
        ["certify", str(i3), str(good)],
        ["pareto", str(i3), str(good)],
        ["emit-lp", str(i2c)],
        ["gstar", str(i3)],
        ["gen-random", "--na", "4", "--nb", "4", "--density", "0.6", "--seed", "7"],
        ["gen-hardness", str(cnf)],
        ["check-reduction", str(cnf)],
        ["oracle", "popular-max", str(i3)],
        ["--json", "mincost", str(i2c)],
        ["--json", "verify", str(i3), str(bad)],
    ]
    digests = []
    for _run in range(3):
        h = hashlib.sha256()
        for cmd in commands:
            proc = subprocess.run([sys.executable, "-m", "popmax.cli", *cmd],
                                  capture_output=True)
            h.update(str(proc.returncode).encode())
            h.update(proc.stdout)
            h.update(proc.stderr)
        digests.append(h.hexdigest())
    assert digests[0] == digests[1] == digests[2]
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 9 PASS: 3 runs of {len(commands)} CLI commands byte-identical "
          f"(sha256 {digests[0][:12]}...) in {elapsed:.1f}s")
