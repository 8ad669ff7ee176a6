"""Byte-identity guard for the command line.

Every in-process `popmax.cli.main` run over a fixed corpus is reduced to a
16-hex-character SHA-256 digest of (exit code, stdout, stderr) and compared
with `golden_cli.json`. The corpus is 30 seeded costed instances with
sides 1..5, the conftest fixtures and the stretch fixture. Each instance
runs `solve`, `mincost`, `--json mincost`, `emit-lp` and `gstar`; up to six
of its maximum matchings (popular ones first) and one non-maximum matching
run `verify`, `certify` and `pareto`, each also with `--json`. Two larger costed
instances (sides 13 and 17, density 0.3) run `emit-lp` and `--json
emit-lp` only. Six edge cases of the derived-instance layout (|A| = 0,
|A| = 1 so no dummies, |B| = 0, isolated nodes, ids that the LP encoding
escapes, and a level-heavy 7x2 costed instance) run `mincost`, `--json mincost`, `emit-lp` and `--json
emit-lp`; the 7x2 one also runs `gstar`,
whose derived instance keeps |A| levels. Seven level-heavy instances
(|A| from 30 to 60, |B| from 1 to 6, four of them costed) run `solve`,
`mincost` and `--json mincost`, which climb fewer levels than |A|. The
conftest fixtures and the stretch fixture also run `oracle popular-max`
and `oracle min-cost`. Five
CNF formulas run `gen-hardness`, `check-reduction` and `--json
check-reduction`: (1 or 2 or 3), (1 or 2 or 3)(not 1 or not 2), the
unsatisfiable (1)(not 1) with `--pad-units`, a satisfiable one with 4
variables and 6 clauses (the largest `check-reduction` accepts by default,
several occurrences per variable), and the unsatisfiable one made of all
four 2-clauses over 2 variables.

After an intended change of output, rewrite the file with
`PYTHONPATH=src python tests/test_golden_cli.py --regen`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from popmax import (
    cli,
    make_matching,
    parse_instance,
    random_instance,
    serialize_instance,
    serialize_matching,
)
from popmax.oracle import brute_popular_max, enum_max_matchings

import conftest

GOLDEN = Path(__file__).with_name("golden_cli.json")
INSTANCE_COMMANDS = (("solve",), ("mincost",), ("--json", "mincost"), ("emit-lp",), ("gstar",))
MATCHING_COMMANDS = (("verify",), ("--json", "verify"), ("certify",), ("--json", "certify"),
                     ("pareto",), ("--json", "pareto"))
MATCHINGS_PER_INSTANCE = 6
# emit-lp alone on larger costed instances, whose stab.* rows are long
LP_SIDES = (13, 17)
LP_COMMANDS = (("emit-lp",), ("--json", "emit-lp"))
EDGE_COMMANDS = (("mincost",), ("--json", "mincost")) + LP_COMMANDS
EDGE_CASES = {
    "edge-a0": "side A\nside B b1 b2\n",
    "edge-a1": "side A a\nside B b1 b2 b3\npref a: b2 b1\npref b1: a\npref b2: a\n"
               "cost a b1 3\ncost a b2 5\n",
    "edge-b0": "side A a1 a2 a3\nside B\n",
    "edge-isolated": "side A a1 a2 a3 a4\nside B b1 b2 b3\npref a1: b1 b3\npref a3: b3 b1\n"
                     "pref b1: a3 a1\npref b3: a1 a3\ncost a1 b1 4\ncost a3 b1 1\ncost a3 b3 2\n",
    # ids `_enc` writes with %XX escapes: a two-byte UTF-8 letter, '-' and '.'
    "edge-escapes": "side A \u00e9 a.b\nside B x-1 b\npref \u00e9: x-1 b\npref a.b: x-1\n"
                    "pref x-1: a.b \u00e9\npref b: \u00e9\ncost \u00e9 x-1 3\ncost a.b x-1 2\n"
                    "cost \u00e9 b 1\n",
}
# |A| much larger than |B|: random_instance arguments
LEVEL_COMMANDS = (("solve",), ("mincost",), ("--json", "mincost"))
LEVEL_HEAVY = {
    "heavy-40x3-s1": (40, 3, 1.0, 1),
    "heavy-40x3-s2": (40, 3, 1.0, 2),
    "heavy-40x3-s3": (40, 3, 1.0, 3),
    "heavy-60x5-c1": (60, 5, 0.6, 1, (0, 9)),
    "heavy-50x6-c4": (50, 6, 0.15, 4, (0, 9)),
    "heavy-45x4-c5": (45, 4, 0.5, 5, (0, 1)),
    "heavy-30x1-c3": (30, 1, 1.0, 3, (0, 9)),
}
ORACLE_COMMANDS = (("oracle", "popular-max"), ("oracle", "min-cost"))
FIXTURES = ("i0", "i1", "i2", "i2_costed", "i3", "i5", "stretch")
CNF_COMMANDS = (("gen-hardness",), ("check-reduction",), ("--json", "check-reduction"))
# name -> (DIMACS text, extra flags)
CNFS = {
    "cnf-one": ("p cnf 3 1\n1 2 3 0\n", ()),
    "cnf-two": ("p cnf 3 2\n1 2 3 0\n-1 -2 0\n", ()),
    "cnf-unsat": ("p cnf 1 2\n1 0\n-1 0\n", ("--pad-units",)),
    "cnf-four": ("p cnf 4 6\n1 2 3 0\n-1 -2 4 0\n2 -3 0\n1 -4 0\n-2 3 4 0\n-1 4 0\n", ()),
    "cnf-unsat-two": ("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n", ()),
}


def _instances():
    """(name, instance, extra matchings) in a fixed order."""
    for name in ("I0", "I1", "I2", "I2_COSTED", "I3", "I5"):
        yield name.lower(), parse_instance(getattr(conftest, f"{name}_TEXT")), []
    stretch = parse_instance(conftest.STRETCH_TEXT)
    yield "stretch", stretch, [make_matching(stretch, [("a2", "b4"), ("a3", "b1"), ("a4", "b2")])]
    for seed, inst in conftest.random_cases(30, 5, 9700, costs=(0, 9)):
        yield f"seed{seed:02d}", inst, []


def _matchings(inst, extra):
    """Up to six maximum matchings, popular ones first, then the extra ones,
    then the first of them minus one pair, which is not maximum."""
    def key(m):
        return sorted(m.pairs)

    popular = sorted(brute_popular_max(inst, bound=30), key=key)
    chosen = popular + sorted((m for m in enum_max_matchings(inst, bound=30)
                               if m.pairs not in {p.pairs for p in popular}), key=key)
    chosen = chosen[:MATCHINGS_PER_INSTANCE] + extra
    if chosen[0].pairs:
        chosen.append(make_matching(inst, sorted(chosen[0].pairs)[1:]))
    return chosen


def _digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def compute_digests(workdir: Path) -> dict[str, str]:
    digests = {}
    for name, inst, extra in _instances():
        path = workdir / f"{name}.txt"
        path.write_text(serialize_instance(inst))
        commands = INSTANCE_COMMANDS + (ORACLE_COMMANDS if name in FIXTURES else ())
        for cmd in commands:
            digests[f"{name} {' '.join(cmd)}"] = _digest(cmd + (str(path),))
        for k, m in enumerate(_matchings(inst, extra)):
            mpath = workdir / f"{name}.m{k}.txt"
            mpath.write_text(serialize_matching(m))
            for cmd in MATCHING_COMMANDS:
                digests[f"{name}/m{k} {' '.join(cmd)}"] = _digest(cmd + (str(path), str(mpath)))
    for n in LP_SIDES:
        path = workdir / f"lp{n}.txt"
        path.write_text(serialize_instance(random_instance(n, n, 0.3, 500 + n, (0, 9))))
        for cmd in LP_COMMANDS:
            digests[f"lp{n} {' '.join(cmd)}"] = _digest(cmd + (str(path),))
    edge_cases = {name: parse_instance(text) for name, text in EDGE_CASES.items()}
    edge_cases["edge-levels"] = random_instance(7, 2, 0.5, 9427, (0, 9))
    for name, inst in edge_cases.items():
        path = workdir / f"{name}.txt"
        path.write_text(serialize_instance(inst))
        for cmd in EDGE_COMMANDS + ((("gstar",),) if name == "edge-levels" else ()):
            digests[f"{name} {' '.join(cmd)}"] = _digest(cmd + (str(path),))
    for name, args in LEVEL_HEAVY.items():
        path = workdir / f"{name}.txt"
        path.write_text(serialize_instance(random_instance(*args)))
        for cmd in LEVEL_COMMANDS:
            digests[f"{name} {' '.join(cmd)}"] = _digest(cmd + (str(path),))
    for name, (text, flags) in CNFS.items():
        path = workdir / f"{name}.cnf"
        path.write_text(text)
        for cmd in CNF_COMMANDS:
            digests[f"{name} {' '.join(cmd)}"] = _digest(cmd + (str(path),) + flags)
    return digests


def test_cli_output_matches_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    actual = compute_digests(tmp_path)
    assert actual.keys() == expected.keys()
    changed = sorted(k for k in expected if actual[k] != expected[k])
    assert not changed, f"{len(changed)} CLI runs changed output, e.g. {changed[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_cli.py --regen")
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(compute_digests(Path(tmp)), indent=0, sort_keys=True) + "\n")
