"""Command-line behavior: outputs, envelopes, exit codes."""

from __future__ import annotations

import contextlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import popmax
from popmax import random_instance, serialize_instance, serialize_matching
from popmax.cli import FILE_COMMANDS, main

import conftest
from conftest import I0_TEXT, I2_COSTED_TEXT, I3_TEXT, chain, planted_gadget


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("i0", I0_TEXT), ("i2c", I2_COSTED_TEXT), ("i3", I3_TEXT)):
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    bad = tmp_path / "bad.match"
    bad.write_text("a3 b1\n")
    paths["bad"] = str(bad)
    good3 = tmp_path / "good3.match"
    good3.write_text("a1 b1\n")
    paths["good3"] = str(good3)
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    paths["cnf"] = str(cnf)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_single_edge(files, capsys):
    code, out, _ = run(capsys, "solve", files["i0"])
    assert code == 0 and out == "a b\n"


def test_verify_rejection_witness(files, capsys):
    code, out, _ = run(capsys, "verify", files["i3"], files["bad"])
    assert code == 1
    assert out == "path: a1 (b1,a3) wt=2\n"


def test_verify_accept(files, capsys):
    code, out, _ = run(capsys, "verify", files["i3"], files["good3"])
    assert code == 0 and out.strip() == "popular"


def test_verify_json_envelope(files, capsys):
    code, out, _ = run(capsys, "--json", "verify", files["i3"], files["bad"])
    assert code == 1
    envelope = json.loads(out)
    assert envelope["status"] == "rejected"
    assert envelope["witness"]["kind"] == "path"
    assert envelope["witness"]["weight"] == 2


def test_mincost_output(files, capsys):
    code, out, _ = run(capsys, "mincost", files["i2c"])
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["a1 b2", "a2 b1", "cost 0"]
    assert sum(l.startswith("alpha ") for l in lines) == 4


def test_certify_and_pareto(files, capsys):
    code, out, _ = run(capsys, "certify", files["i3"], files["good3"])
    assert code == 0 and "alpha a1 0" in out
    code, out, _ = run(capsys, "certify", files["i3"], files["bad"])
    assert code == 1 and out.startswith("path:")
    code, out, _ = run(capsys, "pareto", files["i3"], files["good3"])
    assert code == 0 and out.strip() == "pareto-optimal"


def test_certify_rejection_runs_one_popularity_pass(files, capsys, monkeypatch):
    """`certify_popular_max` reads the pass off `popularity` when it runs."""
    from popmax import popularity

    one_pass = popularity._witness_or_potentials
    calls = []

    def counted(inst, m):
        calls.append(m)
        return one_pass(inst, m)

    monkeypatch.setattr(popularity, "_witness_or_potentials", counted)
    code, out, _ = run(capsys, "certify", files["i3"], files["bad"])
    assert code == 1 and out == "path: a1 (b1,a3) wt=2\n"
    assert len(calls) == 1


def test_certify_decides_maximality_once(monkeypatch):
    from popmax import certificates, core, popularity
    from popmax.gstar import popular_max_matching

    inst = core.random_instance(30, 30, 0.3, 1)
    m = popular_max_matching(inst)
    decide = core.is_maximum
    calls = []

    def counted(inst, m):
        calls.append(m)
        return decide(inst, m)

    monkeypatch.setattr(popularity, "is_maximum", counted)
    monkeypatch.setattr(certificates, "is_maximum", counted)
    certificates.certify_popular_max(inst, m)
    assert len(calls) == 1


def test_pareto_long_chain_of_blocking_edges(tmp_path, capsys):
    """a_i ranks b_(i+1) first and b_(i+1) ranks a_i first, so the pairs form
    a 1,500-vertex chain of weight-2 arcs with no cycle: Pareto-optimal."""
    n = 1500
    lines = ["side A " + " ".join(f"a{i}" for i in range(n)),
             "side B " + " ".join(f"b{i}" for i in range(n))]
    for i in range(n):
        lines.append(f"pref a{i}: " + (f"b{i + 1} " if i + 1 < n else "") + f"b{i}")
        lines.append(f"pref b{i}: " + (f"a{i - 1} " if i else "") + f"a{i}")
    inst = tmp_path / "chain.txt"
    inst.write_text("\n".join(lines) + "\n")
    m = tmp_path / "chain.match"
    m.write_text("".join(f"a{i} b{i}\n" for i in range(n)))
    code, out, _ = run(capsys, "pareto", str(inst), str(m))
    assert code == 0 and out == "pareto-optimal\n"


def test_verify_non_maximum_rejected(files, capsys, tmp_path, monkeypatch):
    """verify and certify run the maximality search once and print its path."""
    import popmax
    from popmax import certificates, core, popularity

    search = core.is_maximum
    calls = []

    def counted(inst, m):
        calls.append(m)
        return search(inst, m)

    for module in (popmax, core, popularity, certificates):
        monkeypatch.setattr(module, "is_maximum", counted)
    empty = tmp_path / "empty.match"
    empty.write_text("")
    for command in ("verify", "certify"):
        for json_flag, expected in (
                ([], "not maximum; augmenting path: a b\n"),
                (["--json"], '{"result": {"augmenting_path": ["a", "b"], "maximum": false, '
                             '"popular": false}, "status": "rejected"}\n')):
            calls.clear()
            code, out, _ = run(capsys, *json_flag, command, files["i0"], str(empty))
            assert code == 1 and out == expected
            assert len(calls) == 1


def test_gstar_and_emit_lp(files, capsys):
    code, out, _ = run(capsys, "gstar", files["i0"])
    assert code == 0 and "pref a#0: b~" in out
    code, out, _ = run(capsys, "emit-lp", files["i0"])
    assert code == 0 and out.startswith("\\") and "Minimize" in out


def _costed_paths(files, tmp_path) -> list[str]:
    """The conftest costed instance and two seeded random costed ones."""
    paths = [files["i2c"]]
    for k, inst in enumerate((random_instance(6, 6, 0.5, 9101, (0, 9)),
                              random_instance(7, 2, 0.5, 9427, (0, 9)))):
        p = tmp_path / f"r{k}.txt"
        p.write_text(serialize_instance(inst))
        paths.append(str(p))
    return paths


def test_mincost_and_emit_lp_never_build_gstar(files, tmp_path, capsys, monkeypatch):
    """`mincost` and `emit-lp` read the derived instance's integer tables;
    the string-named instance is not built, and the output is unchanged."""
    paths = _costed_paths(files, tmp_path)
    commands = [(cmd, path) for path in paths
                for cmd in (("mincost",), ("--json", "mincost"), ("emit-lp",))]
    expected = [run(capsys, *cmd, path) for cmd, path in commands]

    def refuse(*_args, **_kwargs):
        raise AssertionError("the string-named derived instance was built")

    for mod in (popmax, popmax.gstar, popmax.certificates, popmax.mincost, popmax.cli):
        if hasattr(mod, "build_gstar"):
            monkeypatch.setattr(mod, "build_gstar", refuse)
    for (cmd, path), want in zip(commands, expected):
        assert want[0] == 0
        assert run(capsys, *cmd, path) == want


def test_emit_lp_materializes_no_tables(files, tmp_path, capsys, monkeypatch):
    """`emit-lp` reads the derived instance's layout arithmetic, not its
    lists: with the lists refused, its text and `--json` output are
    unchanged."""
    paths = _costed_paths(files, tmp_path) + [files["i3"]]
    commands = [(cmd, path) for path in paths for cmd in (("emit-lp",), ("--json", "emit-lp"))]
    expected = [run(capsys, *cmd, path) for cmd, path in commands]

    def refuse(*_args, **_kwargs):
        raise AssertionError("the derived instance's lists were built")

    for mod in (popmax.gstar, popmax.mincost):
        monkeypatch.setattr(mod, "_lists", refuse)
    for (cmd, path), want in zip(commands, expected):
        assert want[0] == 0
        assert run(capsys, *cmd, path) == want


def test_mincost_makes_no_popularity_pass(files, tmp_path, capsys, monkeypatch):
    """`mincost` reads its certificate off the levels of its own stable
    matching of the derived instance: with the popularity pass refused,
    its text and `--json` output are unchanged."""
    from popmax import popularity

    commands = [(cmd, path) for path in _costed_paths(files, tmp_path)
                for cmd in (("mincost",), ("--json", "mincost"))]
    expected = [run(capsys, *cmd, path) for cmd, path in commands]

    def refuse(*_args, **_kwargs):
        raise AssertionError("mincost ran the popularity pass")

    for mod in (popularity, popmax.certificates, popmax.mincost):
        if hasattr(mod, "_witness_or_potentials"):
            monkeypatch.setattr(mod, "_witness_or_potentials", refuse)
    for (cmd, path), want in zip(commands, expected):
        assert want[0] == 0
        assert run(capsys, *cmd, path) == want


def test_mincost_theory_failure_is_internal_error(files, tmp_path, capsys, monkeypatch):
    """A min-cost stable matching that projects to a non-maximum matching
    is a bug: exit 4 with `internal error:`, never the exit 1 of a
    rejected matching."""
    from popmax import mincost

    cheapest = mincost._cheapest_elimination

    def drop_one_image_pair(base, cycles, preds, cost):
        pairs = cheapest(base, cycles, preds, cost)
        gt = cost.__self__  # `_min_cost` passes the tables' own cost
        pairs.remove(min(e for e in pairs if gt.origin(e[1])[0] == "image"))
        return pairs

    monkeypatch.setattr(mincost, "_cheapest_elimination", drop_one_image_pair)
    for path in _costed_paths(files, tmp_path):
        code, out, err = run(capsys, "mincost", path)
        assert code == 4 and out == "", (path, out)
        assert err.startswith("internal error: ") and "not maximum" in err
        code, out, err = run(capsys, "--json", "mincost", path)
        assert code == 4 and json.loads(out)["status"] == "error", (path, out)
        assert err.startswith("internal error: ")


def test_mincost_and_emit_lp_reject_reserved_ids(tmp_path, capsys):
    p = tmp_path / "reserved.txt"
    p.write_text("side A x#1\nside B b\n")
    for cmd in (("mincost",), ("--json", "mincost"), ("emit-lp",), ("gstar",)):
        code, _, err = run(capsys, *cmd, str(p))
        assert code == 2
        assert "node id 'x#1' contains a character reserved for derived names (#!~)" in err


def test_emit_lp_reserved_id_prints_no_partial_lp(tmp_path, capsys):
    """The check of the derived names runs before `emit-lp` writes a byte:
    stdout holds the error envelope or nothing, never the head of an LP."""
    p = tmp_path / "reserved.txt"
    p.write_text("side A x#1\nside B b\n")
    message = "node id 'x#1' contains a character reserved for derived names (#!~)"
    assert run(capsys, "emit-lp", str(p)) == (2, "", f"error: {message}\n")
    envelope = json.dumps({"status": "error", "result": message}) + "\n"
    assert run(capsys, "--json", "emit-lp", str(p)) == (2, envelope, f"error: {message}\n")


class _Sink:
    """A stdout that counts the nonempty writes made to it and keeps none
    of their text."""

    def __init__(self):
        self.size = self.writes = 0
        self.whole_lines = True

    def write(self, text: str) -> int:
        if text:
            self.size += len(text)
            self.writes += 1
            self.whole_lines &= text.endswith("\n")
        return len(text)

    def flush(self):
        pass


def test_emit_lp_writes_as_it_goes(tmp_path):
    """At n=40 the LP text is about 94 MB; `emit-lp` holds the tables, one
    copy's stability rows and one chunk at a time, each chunk a run of
    whole lines."""
    import tracemalloc

    p = tmp_path / "n40.txt"
    p.write_text(serialize_instance(random_instance(40, 40, 0.3, 1264, (0, 9))))
    sink = _Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["emit-lp", str(p)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.size > 90_000_000
    assert peak < sink.size / 10
    assert sink.writes > 1 and sink.whole_lines


def _closed_early(argv, keep: int, stdin: bytes = b""):
    """Run popmax in a fresh process whose stdout reader leaves after `keep`
    bytes, then feed it `stdin`: (bytes read, exit code, stderr). Its stdout
    is buffered, as a pipe's is by default, so bytes still in the buffer
    meet the closed pipe when the interpreter flushes it at exit."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(popmax.__file__).parents[1])
    with subprocess.Popen([sys.executable, "-m", "popmax.cli", *argv], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        head = proc.stdout.read(keep)
        proc.stdout.close()
        _, err = proc.communicate(stdin, timeout=60)
    return head, proc.returncode, err


def test_closed_stdout_exits_quietly(tmp_path, capsys):
    """A reader that closes the pipe early (`popmax emit-lp i.txt | head`)
    gets exit code 141 and nothing on stderr, not a traceback and not 1."""
    inst = tmp_path / "c.txt"
    inst.write_text(serialize_instance(random_instance(12, 12, 0.3, 1, (0, 9))))
    code, lp, _ = run(capsys, "emit-lp", str(inst))
    assert code == 0 and len(lp) > 4 * 65536  # more than a pipe holds
    assert _closed_early(["emit-lp", str(inst)], 50) == (lp[:50].encode(), 141, b"")
    # certify writes only once its matching, read from stdin, has come: by
    # then the reader is gone
    _, m, _ = run(capsys, "solve", str(inst))
    assert _closed_early(["--json", "certify", str(inst), "-"], 0, m.encode()) == (b"", 141, b"")


def _sh(argv, redirect: str):
    """Run popmax in a fresh process through `sh -c` with `redirect` after
    it: (exit code, stdout, stderr)."""
    env = {**os.environ, "PYTHONPATH": str(Path(popmax.__file__).parents[1])}
    command = shlex.join([sys.executable, "-m", "popmax.cli", *argv])
    proc = subprocess.run(["sh", "-c", f"{command} {redirect}"], capture_output=True,
                          env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def nonedge(tmp_path):
    """An instance and a matching whose one pair is not an edge of it."""
    inst, m = tmp_path / "path.txt", tmp_path / "nonedge.match"
    inst.write_text("side A a1 a2\nside B b1 b2\npref a1: b1\npref a2: b1 b2\n"
                    "pref b1: a2 a1\npref b2: a2\n")
    m.write_text("a1 b2\n")
    return str(inst), str(m)


@pytest.mark.parametrize("argv, code", [
    (("verify", "i3", "good3"), 0), (("verify", "i3", "bad"), 1),
    (("verify", "path", "nonedge"), 2), (("emit-lp", "i2c"), 0)])
def test_closed_stdout_runs_as_to_the_null_device(files, nonedge, argv, code):
    """Started with fd 1 closed (`>&-`), a command runs, writes nothing and
    exits with its own code, as with stdout at the null device."""
    paths = {**files, "path": nonedge[0], "nonedge": nonedge[1]}
    argv = [paths.get(a, a) for a in argv]
    got = _sh(argv, ">&-")
    assert got == _sh(argv, ">/dev/null")
    assert got[0] == code and b"Traceback" not in got[2]


def test_closed_stderr_keeps_the_envelope(nonedge, capsys):
    """Started with fd 2 closed (`2>&-`), malformed input exits 2 with its
    error envelope alone on stdout."""
    argv = ["--json", "verify", *nonedge]
    code, out, err = run(capsys, *argv)
    assert code == 2 and json.loads(out)["status"] == "error" and "not an edge" in err
    assert _sh(argv, "2>&-")[:2] == (2, out.encode())


def test_gen_random_deterministic(capsys):
    code, out1, _ = run(capsys, "gen-random", "--na", "3", "--nb", "3",
                        "--density", "0.7", "--seed", "5")
    code2, out2, _ = run(capsys, "gen-random", "--na", "3", "--nb", "3",
                         "--density", "0.7", "--seed", "5")
    assert code == code2 == 0 and out1 == out2 and out1.startswith("side A")


def test_gen_hardness_and_check_reduction(files, capsys):
    code, _, err = run(capsys, "gen-hardness", files["cnf"])
    assert code == 2 and "pad" in err
    code, out, _ = run(capsys, "gen-hardness", files["cnf"], "--pad-units")
    assert code == 0 and out.startswith("side A")
    code, out, _ = run(capsys, "check-reduction", files["cnf"], "--pad-units")
    assert code == 0 and "equivalence holds:                True" in out


def test_unit_clause_error_names_the_flag(files, capsys):
    """A 1-literal clause is refused with the flag that pads it, which a CLI
    user can pass, next to the function behind it."""
    for command in ("gen-hardness", "check-reduction"):
        code, out, err = run(capsys, command, files["cnf"])
        assert (code, out) == (2, "")
        assert err == ("error: clause 0 is a 1-literal positive clause, which has no gadget; "
                       "pad it to (l or l) with --pad-units (pad_unit_clauses) "
                       "before transforming\n")


def test_gen_hardness_reads_satlib_files(tmp_path, capsys):
    """A SATLIB file, the formula followed by its `%` and `0` end lines,
    gives the same gadget bytes as the formula alone."""
    plain, satlib = tmp_path / "f.cnf", tmp_path / "satlib.cnf"
    plain.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 0\n")
    satlib.write_text(plain.read_text() + "%\n0\n\n")
    expected = run(capsys, "gen-hardness", str(plain))
    assert expected[0] == 0 and expected[1].startswith("side A")
    assert run(capsys, "gen-hardness", str(satlib)) == expected
    assert run(capsys, "check-reduction", str(satlib)) == run(capsys, "check-reduction", str(plain))


@pytest.mark.parametrize("argv", [
    ("solve", "i3"), ("verify", "i3", "good3"), ("verify", "i3", "bad"),
    ("--json", "verify", "i3", "bad"), ("gen-hardness", "cnf", "--pad-units")])
def test_byte_order_mark_reads_as_nothing(files, tmp_path, capsys, monkeypatch, argv):
    """Instance, matching and CNF files, and stdin, that start with a UTF-8
    byte-order mark give the same bytes and exit code as without it."""
    import io

    expected = run(capsys, *[files.get(a, a) for a in argv])
    marked = {}
    for name, path in files.items():
        marked[name] = tmp_path / f"bom-{Path(path).name}"
        marked[name].write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
    assert run(capsys, *[str(marked[a]) if a in marked else a for a in argv]) == expected
    first = next(a for a in argv if a in files)
    stdin = io.TextIOWrapper(io.BytesIO(marked[first].read_bytes()), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    assert run(capsys, *["-" if a == first else files.get(a, a) for a in argv]) == expected


def test_oracle_subcommands(files, capsys):
    code, out, _ = run(capsys, "oracle", "matchings", files["i0"])
    assert code == 0 and out == "[]\n" + json.dumps([["a", "b"]]) + "\n"
    code, out, _ = run(capsys, "oracle", "popular-max", files["i3"])
    assert code == 0 and out.strip() == json.dumps([["a1", "b1"]])
    code, out, _ = run(capsys, "oracle", "min-cost", files["i2c"])
    assert code == 0 and "cost 0" in out
    # {(a3,b1)} is beaten 2:1 by either rival singleton but never unopposed
    code, out, _ = run(capsys, "oracle", "unpopularity", files["i3"], files["bad"])
    assert code == 0 and out.strip() == "2"


@pytest.mark.parametrize("matching, factor", [
    ("", "inf"),
    ("a2 b3\na3 b2\n", "3"),
    ("a2 b2\na3 b3\n", "1/2"),
])
def test_oracle_unpopularity_renderings(tmp_path, capsys, matching, factor):
    """The factor prints as `str` of the oracle's value, in text and JSON."""
    (tmp_path / "i.txt").write_text(serialize_instance(random_instance(3, 3, 0.7, 0)))
    (tmp_path / "m.txt").write_text(matching)
    paths = str(tmp_path / "i.txt"), str(tmp_path / "m.txt")
    assert run(capsys, "oracle", "unpopularity", *paths) == (0, factor + "\n", "")
    code, out, _ = run(capsys, "--json", "oracle", "unpopularity", *paths)
    assert code == 0 and json.loads(out)["result"] == {"unpopularity_factor": factor}


@pytest.mark.parametrize("cnf, message", [
    ("p cnf 1 1\n0\n", "empty clause"),
    ("p cnf 1 1\n2 0\n", "literal 2 out of range"),
    ("p cnf 4 1\n1 2 3 4 0\n", "clauses must have at most 3 literals"),
])
def test_exit_code_bad_formula(tmp_path, capsys, cnf, message):
    p = tmp_path / "f.cnf"
    p.write_text(cnf)
    for command in ("gen-hardness", "check-reduction"):
        assert run(capsys, command, str(p)) == (2, "", f"error: {message}\n")


def test_oracle_matchings_long_star(tmp_path, capsys):
    """One A-node listing 1,200 B-nodes: 1,201 matchings, enumerated past
    the interpreter's recursion limit."""
    n = 1200
    bs = " ".join(f"b{j}" for j in range(n))
    lines = ["side A a", f"side B {bs}", f"pref a: {bs}"]
    lines += [f"pref b{j}: a" for j in range(n)]
    star = tmp_path / "star.txt"
    star.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "oracle", "matchings", str(star), "--bound", "5000")
    assert code == 0 and len(out.splitlines()) == n + 1


@pytest.fixture(scope="module")
def chain_files(tmp_path_factory):
    """The instance and matching files of chain(20,000), made once per family and order."""
    made = {}

    def files(ladder, reverse):
        if (ladder, reverse) not in made:
            inst, m = chain(20_000, ladder, reverse)
            folder = tmp_path_factory.mktemp("chain")
            made[ladder, reverse] = folder / "chain.txt", folder / "chain.match"
            made[ladder, reverse][0].write_text(serialize_instance(inst))
            made[ladder, reverse][1].write_text(serialize_matching(m))
        return made[ladder, reverse]

    return files


@pytest.mark.parametrize("command, ladder, reverse", [
    ("verify", False, False), ("certify", False, False), ("pareto", False, False),
    ("verify", True, False), ("certify", True, False), ("pareto", True, False),
    ("pareto", False, True), ("pareto", True, True)])
def test_chain_families_at_any_size(chain_files, command, ladder, reverse):
    """The verdict commands finish on chain(20,000) and ladder(20,000) in a
    fresh process within 60 s, with exit 0 and no traceback. Left out:
    `solve` and `mincost`, quadratic on the chain; `gstar` and `emit-lp`,
    whose output grows as |A| * |E|; and reversed-order `verify` and
    `certify`, whose popularity pass takes L - 1 rounds there."""
    inst_path, m_path = chain_files(ladder, reverse)
    env = {**os.environ, "PYTHONPATH": str(Path(popmax.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "popmax.cli", command, str(inst_path), str(m_path)],
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert b"Traceback" not in proc.stderr


def test_exit_code_bad_input(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("side A a\nside B b\npref a: b\npref b:\n")
    code, _, err = run(capsys, "solve", str(p))
    assert code == 2 and "non-mutual" in err


def test_exit_code_bound(tmp_path, capsys):
    inst = tmp_path / "big.txt"
    from popmax import random_instance, serialize_instance

    inst.write_text(serialize_instance(random_instance(6, 6, 1.0, 3)))
    code, _, err = run(capsys, "oracle", "matchings", str(inst))
    assert code == 3 and "bound" in err


def test_stdin_dash(files, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(I0_TEXT))
    code, out, _ = run(capsys, "solve", "-")
    assert code == 0 and out == "a b\n"


@pytest.mark.parametrize("kind", ["directory", "latin-1", "missing"])
def test_exit_code_unreadable_input(tmp_path, capsys, kind):
    p = tmp_path / "input.txt"
    if kind == "directory":
        p.mkdir()
    elif kind == "latin-1":
        p.write_bytes("side A \u00e9\n".encode("latin-1"))
    code, out, err = run(capsys, "solve", str(p))
    assert code == 2 and out == "" and err.startswith("error: cannot read")


def test_exit_code_non_utf8_stdin(capsys, monkeypatch):
    import io

    stdin = io.TextIOWrapper(io.BytesIO(b"side A \xe9\n"), encoding="utf-8",
                             errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "solve", "-")
    assert code == 2 and out == "" and err.startswith("error: cannot read -")


def test_exit_code_closed_stdin(capsys, monkeypatch):
    """Started with fd 0 closed (`popmax solve - <&-`), Python sets
    `sys.stdin` to None; that is unreadable input, not a rejection."""
    monkeypatch.setattr("sys.stdin", None)
    code, out, err = run(capsys, "solve", "-")
    assert (code, out, err) == (2, "", "error: cannot read -: standard input is closed\n")


def test_exit_code_bad_dimacs_header(tmp_path, capsys):
    p = tmp_path / "x.cnf"
    p.write_text("p cnf x 2\n1 2 0\n-1 -2 0\n")
    code, _, err = run(capsys, "gen-hardness", str(p))
    assert code == 2 and "p cnf" in err


@pytest.mark.parametrize("cost_line", ["cost b a 3", "cost a c 3", "cost c b 3"])
def test_exit_code_cost_line_not_a_then_b(tmp_path, capsys, cost_line):
    p = tmp_path / "costed.txt"
    p.write_text(I0_TEXT + cost_line + "\n")
    code, out, err = run(capsys, "solve", str(p))
    assert code == 2 and out == ""
    assert err == "error: cost line must name an A-node then a B-node (line 5)\n"


@pytest.mark.parametrize("argv", [
    ("--na", "-1", "--nb", "2", "--density", "0.5"),
    ("--na", "2", "--nb", "-1", "--density", "0.5"),
    ("--na", "2", "--nb", "2", "--density", "2"),
    ("--na", "2", "--nb", "2", "--density", "-0.1"),
    ("--na", "2", "--nb", "2", "--density", "0.5", "--cost-lo", "5", "--cost-hi", "2"),
])
def test_exit_code_bad_gen_random_arguments(capsys, argv):
    code, out, err = run(capsys, "gen-random", *argv, "--seed", "1")
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv, message", [
    (("gen-random", "--na", "2", "--nb", "2", "--density", "0.5", "--seed", "1", "--cost-lo", "5"),
     "--cost-lo needs --cost-hi"),
    (("oracle", "matchings", "{i0}", "--bound", "-1"), "argument --bound"),
    (("check-reduction", "{cnf}", "--max-vars", "-1"), "argument --max-vars"),
    (("check-reduction", "{cnf}", "--max-clauses", "-1"), "argument --max-clauses"),
    (("check-reduction", "{cnf}", "--max-clauses", "six"), "argument --max-clauses"),
])
def test_exit_code_bad_option_values(files, capsys, argv, message):
    """Option values the command cannot honour exit 2 through the parser."""
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**files) for arg in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage: popmax") and message in captured.err


def test_zero_is_a_count(files, tmp_path, capsys):
    """0 is a valid value of `--bound`, `--max-vars` and `--max-clauses`,
    and it bounds: the empty formula and the empty instance fit in it, a
    formula with a variable or a clause does not."""
    empty_cnf, empty = tmp_path / "empty.cnf", tmp_path / "empty.txt"
    empty_cnf.write_text("p cnf 0 0\n")
    empty.write_text("side A\nside B\n")
    code, out, _ = run(capsys, "check-reduction", str(empty_cnf), "--max-vars", "0", "--max-clauses", "0")
    assert code == 0 and out.endswith("equivalence holds:                True\n")
    assert run(capsys, "oracle", "matchings", str(empty), "--bound", "0") == (0, "[]\n", "")
    for option in ("--max-vars", "--max-clauses"):
        code, out, err = run(capsys, "check-reduction", files["cnf"], option, "0")
        assert code == 3 and out == "" and "> bound 0" in err


def test_gen_random_cost_lo_defaults_to_0(capsys):
    """`--cost-hi` alone draws costs from 0 up, as `--cost-lo 0` does."""
    argv = ("gen-random", "--na", "6", "--nb", "6", "--density", "1", "--seed", "1", "--cost-hi", "3")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == serialize_instance(random_instance(6, 6, 1.0, 1, (0, 3)))
    assert run(capsys, *argv, "--cost-lo", "0") == (0, out, "")
    assert out != serialize_instance(random_instance(6, 6, 1.0, 1, (1, 3)))


@pytest.mark.parametrize("pairs", [
    '[["a"]]', "5", "null", "[[]]", "[5000]", '[[["a"], "b"]]',
    pytest.param("[" * 1000 + "]" * 1000, id="nested-1000"),
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000"),
])
def test_exit_code_bad_json_matching(files, tmp_path, capsys, pairs):
    """From Python 3.12 on, the recursion limit applies only to Python code,
    so 1,000 levels may parse there and fail as a bad shape; 100,000 levels
    are too deep for the JSON scanner of every supported version."""
    m = tmp_path / "m.json"
    m.write_text('{"pairs": ' + pairs + "}")
    code, out, err = run(capsys, "verify", files["i0"], str(m))
    assert code == 2 and out == "" and err.startswith("error: matching JSON")
    if len(pairs) > 100_000:
        assert err == "error: matching JSON is nested too deeply\n"


@pytest.mark.parametrize("command, text, where", [
    ("verify", '{"pairs": [', "line 1, column 12"),
    ("pareto", '{"pairs": []}\n{}', "line 2, column 1"),
])
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_exit_code_bad_json_text(files, tmp_path, capsys, command, text, where, flags):
    """A matching file that is not JSON text names the line and column the
    `json` module stopped at; the reason after `bad JSON:` is that module's
    own text, which differs between Python versions, so it is not pinned."""
    m = tmp_path / "m.json"
    m.write_text(text)
    code, out, err = run(capsys, *flags, command, files["i0"], str(m))
    prefix = f"{where}: bad JSON: "
    assert code == 2 and err.startswith("error: " + prefix) and err.count("\n") == 1
    if flags:
        envelope = json.loads(out)
        assert out.count("\n") == 1 and list(envelope) == ["status", "result"]
        assert envelope["status"] == "error" and envelope["result"].startswith(prefix)
    else:
        assert out == ""


def test_exit_code_internal_error(files, capsys, monkeypatch):
    from popmax import gstar
    from popmax.errors import InternalError

    def broken(_inst):
        raise InternalError("a condition the theory rules out")

    monkeypatch.setattr(gstar, "popular_max_matching", broken)
    code, out, err = run(capsys, "solve", files["i0"])
    assert code == 4 and out == ""
    assert err == "internal error: a condition the theory rules out\n"


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_exit_code_out_of_memory(files, capsys, monkeypatch, flags):
    """A command that runs out of memory exits 3 with one line on stderr and
    no traceback, and under --json writes the error envelope."""
    from popmax import cli

    def exhausted(_args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_solve", exhausted)
    code, out, err = run(capsys, *flags, "solve", files["i0"])
    assert code == 3 and err == "error: out of memory\n"
    assert out == ('{"status": "error", "result": "out of memory"}\n' if flags else "")


def test_two_calls_share_no_state(files, capsys, monkeypatch):
    """The parser is built once; each call still starts from its defaults."""
    from popmax import oracle

    code, out, _ = run(capsys, "--json", "verify", files["i3"], files["good3"])
    assert code == 0 and json.loads(out)["status"] == "ok"
    code, out, _ = run(capsys, "verify", files["i3"], files["good3"])
    assert code == 0 and out == "popular\n"

    bounds = []
    enumerate_all = oracle.enum_matchings

    def recorded(inst, bound):
        bounds.append(bound)
        return enumerate_all(inst, bound)

    monkeypatch.setattr(oracle, "enum_matchings", recorded)
    assert run(capsys, "oracle", "matchings", files["i0"], "--bound", "3")[0] == 0
    assert run(capsys, "oracle", "matchings", files["i0"])[0] == 0
    assert bounds == [3, oracle.DEFAULT_BOUND]


def test_bad_flag_same_error_every_call(files, capsys):
    seen = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--no-such-flag", files["i0"]])
        captured = capsys.readouterr()
        seen.append((exc.value.code, captured.out, captured.err))
    assert seen[0] == seen[1]
    assert seen[0][0] == 2 and seen[0][1] == ""
    assert seen[0][2].startswith("usage: popmax") and "--no-such-flag" in seen[0][2]


def test_verdict_commands_never_read_edges(files, tmp_path, capsys, monkeypatch):
    """`Instance.edges` is computed when read; verify, pareto, solve and
    certify never read it, so they print the same bytes while it raises."""
    import copy
    import pickle

    from popmax import build_gadget_instance, build_gstar, core, parse_dimacs, transform_formula

    from conftest import random_cases

    inst = random_instance(14, 12, 0.35, 7, (0, 9))
    (tmp_path / "r.txt").write_text(serialize_instance(inst))
    (tmp_path / "r.match").write_text(run(capsys, "solve", str(tmp_path / "r.txt"))[1])
    (tmp_path / "bad.json").write_text('{"pairs": [["b1", "a3"]]}')
    cases = [("solve", files["i3"]), ("solve", str(tmp_path / "r.txt"))]
    for i, m in ((files["i3"], files["bad"]), (files["i3"], files["good3"]),
                 (files["i3"], str(tmp_path / "bad.json")),
                 (str(tmp_path / "r.txt"), str(tmp_path / "r.match"))):
        cases += [(command, i, m) for command in ("verify", "pareto", "certify")]
    argvs = [argv for case in cases for argv in (case, ("--json", *case))]
    expected = [run(capsys, *argv) for argv in argvs]
    assert {code for code, _, _ in expected} == {0, 1}

    def unread(self):
        raise AssertionError("Instance.edges was read")

    with monkeypatch.context() as patch:
        patch.setattr(core.Instance, "edges", property(unread))
        assert [run(capsys, *argv) for argv in argvs] == expected

    gadget = build_gadget_instance(transform_formula(parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 -2 0\n")))
    instances = [inst for _, inst in random_cases(20, 6, 2400, min_side=0, costs=(0, 3))]
    instances += [gadget.instance, build_gstar(inst).inner]
    for x in instances:
        assert x.edges == tuple((a, b) for a in x.side_a for b in x.prefs[a])
        for clone in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert clone == x and clone.edges == x.edges


def test_parser_is_built_only_off_the_table_and_once(files, capsys, monkeypatch):
    """The file commands construct no `ArgumentParser`; the argparse route
    builds one parser per process, however often it runs."""
    import argparse

    from popmax import cli

    init = argparse.ArgumentParser.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    monkeypatch.setattr(cli, "_PARSER", None)
    for head in ((), ("--json",)):
        for command in ("solve", "mincost", "emit-lp", "gstar"):
            assert run(capsys, *head, command, files["i3"])[0] == 0
        for command in ("verify", "certify", "pareto"):
            assert run(capsys, *head, command, files["i3"], files["good3"])[0] == 0
    assert built == []
    for _ in range(3):
        assert run(capsys, "oracle", "popular-max", files["i3"])[0] == 0
        with pytest.raises(SystemExit):
            main(["oracle", "unpopularity", files["i3"]])
    assert built.count("popmax") == 1


def test_main_looks_up_the_handler_when_it_runs(files, capsys, monkeypatch):
    """Both routes find `cmd_<command>` by name at each call, so a replaced
    or wrapped handler is the one that runs."""
    import io

    from popmax import cli

    calls = []
    monkeypatch.setattr(cli, "cmd_solve", lambda args: calls.append(vars(args)) or 0)
    monkeypatch.setattr("sys.stdin", io.StringIO(I0_TEXT))
    assert main(["solve", files["i0"]]) == 0  # the table
    assert main(["--json", "solve", "-"]) == 0  # argparse
    assert calls == [{"json": False, "command": "solve", "instance": files["i0"]},
                     {"json": True, "command": "solve", "instance": "-"}]


# paths that argparse reads as options or stdin, or that look like a command
_TOKENS = ("i.txt", "-", "--", "-h", "--js", "", " -x", "a=b", "solve", "verify", "--json")


def _argvs() -> list[list[str]]:
    """[--json] <command> with every 0-2 tokens, and a seeded sample with 3."""
    import itertools
    import random

    from popmax.cli import FILE_COMMANDS

    commands = [*FILE_COMMANDS, "gen-random", "gen-hardness", "check-reduction", "oracle", "nope"]
    heads = [[*json_flag, command] for json_flag in ((), ("--json",)) for command in commands]
    argvs = [[], ["--json"], ["--js", "solve", "i.txt"], ["--json", "--json", "solve", "i.txt"]]
    argvs += [head + list(tokens) for head in heads for n in range(3)
              for tokens in itertools.product(_TOKENS, repeat=n)]
    rng = random.Random(2)
    argvs += [rng.choice(heads) + rng.choices(_TOKENS, k=3) for _ in range(1500)]
    return argvs


def test_table_gives_argparses_namespace_or_declines(capsys):
    """Where the table matches an argv, argparse parses it to the same
    namespace; where it declines one argparse accepts, the argv has an
    option, a `-` path or a command that takes more than files."""
    from popmax import cli

    parser = cli.build_parser()
    matched = set()
    for argv in _argvs():
        table = cli._match(argv)
        try:
            parsed = vars(parser.parse_args(argv))
        except SystemExit:
            parsed = None
        if table is not None:
            assert vars(table) == parsed, argv
            matched.add((table.json, table.command))
        elif parsed is not None and parsed["command"] in cli.FILE_COMMANDS:
            rest = argv[1:] if argv[:1] == ["--json"] else argv
            assert any(arg[:1] == "-" for arg in rest), argv
    capsys.readouterr()
    assert matched == {(j, c) for j in (False, True) for c in cli.FILE_COMMANDS}


_READS = {
    "lf": b"side A a\nside B b\n",
    "crlf": b"side A a\r\nside B b\r\n",
    "cr": b"side A a\rside B b\r",
    "mixed": b"a\r\nb\rc\n\r\n\r",
    "bom": b"\xef\xbb\xbfside A a\n",
    "invalid-past-8k": b"#" * 9000 + b"\xff\n",
    "truncated": b"side A \xe2\x82",
}


@pytest.mark.parametrize("kind", [*_READS, "directory", "missing"])
def test_read_gives_what_text_mode_gives(tmp_path, monkeypatch, kind):
    """`_read` decodes the bytes itself: the same text, line ends and error
    text as a text-mode read that drops a leading byte-order mark, from a
    file and from stdin."""
    import io

    from popmax.cli import _read
    from popmax.errors import InputError

    def text_mode(name: str) -> str:
        try:
            with open(name, encoding="utf-8-sig") as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {name}: {exc}") from None

    def outcome(read, name: str) -> str:
        try:
            return read(name)
        except InputError as exc:
            return f"error: {exc}"

    path = tmp_path / "input.txt"
    if kind == "directory":
        path.mkdir()
    elif kind in _READS:
        path.write_bytes(_READS[kind])
    expected = outcome(text_mode, str(path))
    assert outcome(_read, str(path)) == expected
    if kind in _READS:
        stdin = io.TextIOWrapper(io.BytesIO(_READS[kind]), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        assert outcome(_read, "-") == expected.replace(str(path), "-")


@pytest.mark.parametrize("text, message", [
    ("a1 b1\na1 b1\n", "error: line 2, column 1: duplicate pair ('a1', 'b1') (first at line 1)\n"),
    ("a1 b1\n# same pair\nb1 a1\n",
     "error: line 3, column 1: duplicate pair ('a1', 'b1') (first at line 1)\n"),
    ('{"pairs": [["a1", "b1"], ["b1", "a1"]]}',
     "error: matching JSON lists the pair ('a1', 'b1') twice\n"),
])
def test_exit_code_repeated_matching_pair(files, tmp_path, capsys, text, message):
    m = tmp_path / "dup.match"
    m.write_text(text)
    for command in ("verify", "certify", "pareto"):
        code, out, err = run(capsys, command, files["i3"], str(m))
        assert code == 2 and out == "" and err == message


_PQ = "side A a1 a2\nside B b1 b2\npref a1: b1 b2\npref a2: b1\npref b1: a2 a1\npref b2: a1\n"


@pytest.mark.parametrize("instance, matching, message", [
    ("side A a\nside B b\npref a b\n", "",
     "error: line 3, column 6: expected `pref <id>: ...`\n"),
    ("side A a\nside B b\n  pref a b\n", "",
     "error: line 3, column 8: expected `pref <id>: ...`\n"),
    ("side A a\nside B b\npref : b\n", "",
     "error: line 3, column 6: empty node id before ':'\n"),
    ("side A a\nside B b\npref a: b\npref b: a\n\tpref a: b\n", "",
     "error: line 5, column 7: duplicate pref line for 'a' (first at line 3)\n"),
    (_PQ + "cost a1 b1 3\n# again\ncost a1 b1 4\n", "",
     "error: line 9, column 6: duplicate cost line for ('a1', 'b1') (first at line 7)\n"),
    (_PQ + "cost a1 b1 x3\n", "", "error: line 7, column 12: bad integer 'x3'\n"),
    (_PQ + "cost  a1 b1   3.0\n", "", "error: line 7, column 15: bad integer '3.0'\n"),
    (_PQ + "cost a1 b2 x\ncost a1 b1\n", "", "error: line 7, column 12: bad integer 'x'\n"),
    ("side A a1\nside B b1\npref a1: b1\npref b1: a1\ncost a1 b1\n", "",
     "error: line 5, column 6: expected `cost <idA> <idB> <integer>`\n"),
    ("side A a1\nside B b1\nfoo a1\n", "", "error: line 3, column 1: unknown directive 'foo'\n"),
    ("side C a1\n", "", "error: line 1, column 6: expected `side A ...` or `side B ...`\n"),
    (_PQ + "pref z: b1\n", "", "error: pref line for undeclared node 'z' (line 7)\n"),
    # the first undeclared node by line, on neither the first pref line nor the first line
    ("side A a1\nside B b1\npref a1: b1\n\n# pref yy: b1\npref zz: a1\npref b1: a1\npref yy: b1\n", "",
     "error: pref line for undeclared node 'zz' (line 6)\n"),
    # a comment that reads like the pref line is not its first copy
    ("# pref a: b\nside A a\npref  a: b\nside B b\npref a: b\n", "",
     "error: line 5, column 6: duplicate pref line for 'a' (first at line 3)\n"),
    (_PQ + "cost b1 a1 3\n", "",
     "error: cost line must name an A-node then a B-node (line 7)\n"),
    ("side A a1 x:1 y:2\nside B b1\n", "", "error: bad node identifier 'x:1'\n"),
    ("side A a1\nside B b1 b:2\n", "", "error: bad node identifier 'b:2'\n"),
    ("side A a1\nside B b1\npref a1: b1 b1\n", "",
     "error: duplicate entry in preference list of 'a1'\n"),
    ("side A a1 a2\nside B b1\npref a1: a2\n", "",
     "error: 'a1' lists 'a2', which is not on the opposite side\n"),
    ("side A a1 a2\nside B b1\npref a1: b1\npref a2: b1\npref b1: a1\n", "",
     "error: non-mutual preference: 'a2' lists 'b1' but not vice versa\n"),
    ("side A a1 a2\nside B b1\npref a1: b1\npref b1: a1 a2\n", "",
     "error: non-mutual preference: 'b1' lists 'a2' but not vice versa\n"),
    (_PQ, "a1 b1\nb2 a2\n", "error: ('b2', 'a2') is not an edge\n"),
    (_PQ, "a1 b1\na2 zz\n", "error: ('a2', 'zz') is not an edge\n"),
    (_PQ, '{"pairs": [["b2", "a1"], ["a2", "b2"]]}', "error: ('a2', 'b2') is not an edge\n"),
    # a repeated pair is reported before an earlier pair that is no edge
    (_PQ, "b2 a2\na1 b1\nb1 a1\n", "error: line 3, column 1: duplicate pair ('a1', 'b1') (first at line 2)\n"),
    (_PQ, '{"pairs": [["b2", "a2"], ["a1", "b1"], ["b1", "a1"]]}',
     "error: matching JSON lists the pair ('a1', 'b1') twice\n"),
    (_PQ, "a2 b1\na1 b1\n", "error: matching edges are not node-disjoint\n"),
    (_PQ, "a2 b1\n a1\n", "error: line 2, column 1: expected `<idA> <idB>`\n"),
])
def test_malformed_input_error_text(tmp_path, capsys, instance, matching, message):
    """The exact exit-2 message, line and column for each input-layer check."""
    (tmp_path / "i.txt").write_text(instance)
    (tmp_path / "m.txt").write_text(matching)
    code, out, err = run(capsys, "verify", str(tmp_path / "i.txt"), str(tmp_path / "m.txt"))
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("instance, bad", [
    ("side A #a a2\nside B b1 b2\npref #a: b1\npref a2: b1 b2\npref b1: #a a2\npref b2: a2\n", "#a"),
    ("side A a1 a2\nside B #b b2\npref a1: #b\npref a2: #b b2\npref #b: a2 a1\npref b2: a2\n", "#b"),
])
def test_identifier_starting_with_hash_is_bad_input(tmp_path, capsys, instance, bad):
    """Every file command rejects an id that starts with '#': a matching line
    that began with it would read back as a comment."""
    (tmp_path / "i.txt").write_text(instance)
    (tmp_path / "m.txt").write_text("")
    for command, (files, _) in FILE_COMMANDS.items():
        paths = [str(tmp_path / name) for name in ("i.txt", "m.txt")[:len(files)]]
        assert run(capsys, command, *paths) == (2, "", f"error: bad node identifier {bad!r}\n")


def test_readme_instance_example_solves(tmp_path, capsys):
    """The instance shown under File formats in README.md is a valid one."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("**Instance**", 1)[1].split("```\n")[1]
    (tmp_path / "i.txt").write_text(block)
    assert run(capsys, "solve", str(tmp_path / "i.txt")) == (0, "a1 b2\na2 b1\n", "")
    assert run(capsys, "mincost", str(tmp_path / "i.txt")) == (
        0, "a1 b2\na2 b1\ncost 0\nalpha a1 0\nalpha a2 0\nalpha b1 0\nalpha b2 0\n", "")


def _verdict_files(tmp_path):
    """(instance path, matching path) pairs: every maximum matching of each
    conftest fixture and one non-maximum matching of it, and a planted gadget
    with its assignment matching."""
    from popmax import make_matching, parse_instance
    from popmax.oracle import enum_max_matchings

    named = [(name, parse_instance(getattr(conftest, f"{name}_TEXT")))
             for name in ("I0", "I1", "I2", "I2_COSTED", "I3", "I5", "STRETCH")]
    gadget, assigned = planted_gadget(3, 5)
    pairs = []
    for name, inst in named + [("gadget", gadget)]:
        path = tmp_path / f"{name}.txt"
        path.write_text(serialize_instance(inst))
        matchings = [assigned] if name == "gadget" else list(enum_max_matchings(inst, 30))
        matchings.append(make_matching(inst, sorted(matchings[0].pairs)[1:]))
        for k, m in enumerate(matchings):
            mpath = tmp_path / f"{name}.m{k}.txt"
            mpath.write_text(serialize_matching(m))
            pairs.append((str(path), str(mpath)))
    return pairs


def test_verdicts_build_no_rank_map(tmp_path, capsys, monkeypatch):
    """`verify`, `pareto` and `certify` read positions off the lists: with
    the rank-map builder raising, they print the same bytes, text and JSON."""
    from popmax import core

    argvs = [(*flags, command, i, m) for i, m in _verdict_files(tmp_path)
             for command in ("verify", "pareto", "certify") for flags in ((), ("--json",))]
    expected = [run(capsys, *argv) for argv in argvs]
    assert {code for code, _, _ in expected} == {0, 1}

    def unbuilt(_prefs):
        raise AssertionError("rank maps were built")

    monkeypatch.setattr(core, "_rank_maps", unbuilt)
    assert [run(capsys, *argv) for argv in argvs] == expected


def test_solvers_build_the_rank_maps_at_most_once(tmp_path, capsys, monkeypatch):
    """`solve`, `mincost` and `emit-lp` read the rank maps of their one
    instance, built on the first read and kept."""
    from popmax import core

    build = core._rank_maps
    calls = []

    def counted(prefs):
        calls.append(len(prefs))
        return build(prefs)

    monkeypatch.setattr(core, "_rank_maps", counted)
    paths = {i for i, _ in _verdict_files(tmp_path)}
    costed = tmp_path / "costed.txt"
    costed.write_text(serialize_instance(random_instance(9, 8, 0.4, 3, (0, 9))))
    for path in sorted(paths | {str(costed)}):
        for command in ("solve", "mincost", "emit-lp"):
            calls.clear()
            code, _, _ = run(capsys, command, path)
            assert code == 0 and len(calls) <= 1, (command, path, calls)


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector(files, capsys, monkeypatch, enabled):
    """A command runs with the cyclic collector off, and `main` leaves it as
    it found it on every exit: each exit code, argparse's `SystemExit` and an
    exception it does not catch."""
    import gc

    from popmax import cli
    from popmax.errors import InternalError, NotMaximumError, ParseError

    seen = []

    def raising(exc):
        def handler(_args):
            seen.append(gc.isenabled())
            if isinstance(exc, int):
                return exc
            raise exc
        return handler

    monkeypatch.setattr(os, "dup2", lambda *_: None)  # exit 141 would repoint fd 1
    outcomes = [(0, 0), (NotMaximumError("no", ["a"]), 1), (ParseError("bad", 1), 2),
                (MemoryError(), 3), (InternalError("bug"), 4), (BrokenPipeError(), 141)]
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for exc, code in outcomes:
            monkeypatch.setattr(cli, "cmd_solve", raising(exc))
            assert main(["solve", files["i0"]]) == code
            assert gc.isenabled() is enabled
        monkeypatch.setattr(cli, "cmd_solve", raising(RuntimeError("uncaught")))
        with pytest.raises(RuntimeError):
            main(["solve", files["i0"]])
        assert gc.isenabled() is enabled
        for argv, code in ((["verify", files["i0"]], 2), (["--help"], 0)):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code and gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert seen == [False] * (len(outcomes) + 1)


def test_commands_leave_no_cyclic_garbage(tmp_path, monkeypatch):
    """No collection starts inside a command of the golden corpus, and after
    one warm-up call per command (its imports make cycles) every collection
    until the end of the corpus, one full collection included, finds
    nothing: reference counting frees what a command makes."""
    import gc

    import test_golden_cli
    from popmax import cli

    command_main = cli.main
    state, warmed, inside, found = {"in": None}, set(), [], []

    def note(phase, info):
        if phase == "start":
            inside.append(state["in"] == "command")
        elif state["in"] != "warm-up":
            found.append(info["collected"])

    def main_once_warm(argv):
        command = tuple(a for a in argv if a[:1] == "-" or "/" not in a)
        if command not in warmed:
            warmed.add(command)
            gc.collect()  # what the commands before left is found here
            state["in"] = "warm-up"
            command_main(argv)
            gc.collect()
        state["in"] = "command"
        try:
            return command_main(argv)
        finally:
            state["in"] = None

    monkeypatch.setattr(cli, "main", main_once_warm)
    gc.collect()
    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(note)
    try:
        test_golden_cli.compute_digests(tmp_path)
        gc.collect()
    finally:
        gc.callbacks.remove(note)
        (gc.enable if was else gc.disable)()
    assert len(warmed) > 10 and inside and not any(inside)
    assert not any(found)
