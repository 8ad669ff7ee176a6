"""Command-line front end.

Exit codes: 0 success/verified, 1 verification rejected (witness printed),
2 malformed input, 3 size bound exceeded, 4 internal error (a bug: a
condition the theory rules out was met; `internal error: ...` on stderr),
141 (128 + SIGPIPE) stdout closed by its reader before the output was
written, with nothing on stderr. A command started with stdout or stderr
closed writes to it as to the null device and keeps its own exit code.

Every command uses `core` and `errors`; each handler imports the layers
only it uses, so a command loads no more of the package than it runs.
`json` is imported only where JSON is written (`--json` output, and the
rows `oracle` prints as JSON lines) or read (a JSON matching file, in
`core.parse_matching`), so no other text-mode command loads it.

`main` matches an argv of the form `[--json] <command> <path>...`, where
the command is one of `FILE_COMMANDS` and no path starts with `-`, and
builds its namespace without argparse. Every other argv (help, options,
`-` for stdin, usage errors) goes to the argparse parser, built from the
same table on first need, so argparse alone writes usage, help and error
text, and importing this module imports no argparse. Either way the
handler is looked up by command name (`cmd_<command>`) when `main` runs.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from . import core
from .errors import (
    BoundExceededError,
    InputError,
    InternalError,
    NotMaximumError,
    NotPopularError,
    ParseError,
    UnsupportedClauseError,
    ValidationError,
)

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_BAD_INPUT = 2
EXIT_BOUND = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141


# the commands whose only arguments are files: name -> (file arguments, help)
FILE_COMMANDS = {
    "solve": (("instance",), "compute a popular max-matching"),
    "mincost": (("instance",), "min-cost popular max-matching with certificate"),
    "verify": (("instance", "matching"), "verify a matching is a popular max-matching"),
    "certify": (("instance", "matching"), "produce a dual certificate for a matching"),
    "pareto": (("instance", "matching"), "check Pareto-optimality of a matching"),
    "emit-lp": (("instance",), "emit the extended LP formulation"),
    "gstar": (("instance",), "serialize the derived auxiliary instance"),
}


def _read(path: str) -> str:
    """The file (`-`: stdin) as UTF-8 text, a leading byte-order mark dropped
    and each CRLF and lone CR read as LF as text mode reads them; the bytes
    are read unbuffered and decoded here, which skips the text layer."""
    try:
        if path == "-":
            if sys.stdin is None:  # started with fd 0 closed
                raise OSError("standard input is closed")
            # the text layer of stdin may escape bad bytes instead of failing
            data = sys.stdin.buffer.read() if hasattr(sys.stdin, "buffer") else sys.stdin.read()
        else:
            with open(path, "rb", buffering=0) as fh:
                data = fh.read()
        text = (data if isinstance(data, str) else data.decode("utf-8")).removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return core._line_ends(text)


def _emit(args, status: str, result, witness=None, text: str = ""):
    if args.json:
        import json
        envelope = {"status": status, "result": result}
        if witness is not None:
            envelope["witness"] = witness
        print(json.dumps(envelope, sort_keys=True))
    elif text:
        print(text, end="" if text.endswith("\n") else "\n")


def _reject(args, m, w, result: dict) -> int:
    """Print a witness against m, as one line or in the JSON envelope."""
    from . import popularity
    _emit(args, "rejected", result, w._asdict(), text=popularity.format_witness(m, w))
    return EXIT_REJECTED


def cmd_solve(args) -> int:
    from . import gstar
    inst = core.parse_instance(_read(args.instance))
    m = gstar.popular_max_matching(inst)
    _emit(args, "ok", core.matching_to_json(inst, m), text=core.serialize_matching(m))
    return EXIT_OK


def cmd_mincost(args) -> int:
    from . import certificates, mincost
    inst = core.parse_instance(_read(args.instance))
    res = mincost.min_cost_popular_max(inst)
    text = core.serialize_matching(res.matching)
    text += f"cost {res.cost}\n"
    text += certificates.serialize_certificate(inst, res.certificate)
    result = core.matching_to_json(inst, res.matching)
    result["certificate"] = res.certificate.alpha
    _emit(args, "ok", result, text=text)
    return EXIT_OK


def _load_pair(args):
    inst = core.parse_instance(_read(args.instance))
    m = core.parse_matching(inst, _read(args.matching))
    return inst, m


def _verdict(args, judge, key: str, ok_text: str) -> int:
    """Print `judge(inst, m)`, a (bool, witness) verdict: `{key: True}` and
    `ok_text`, or the witness against m."""
    inst, m = _load_pair(args)
    holds, witness = judge(inst, m)
    if not holds:
        return _reject(args, m, witness, {key: False})
    _emit(args, "ok", {key: True}, text=ok_text)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import popularity
    return _verdict(args, popularity.verify_popular_max, "popular", "popular")


def cmd_certify(args) -> int:
    from . import certificates
    inst, m = _load_pair(args)
    try:
        cert = certificates.certify_popular_max(inst, m)
    except NotPopularError as exc:
        return _reject(args, m, exc.witness, {"popular": False})
    _emit(args, "ok", cert._asdict(), text=certificates.serialize_certificate(inst, cert))
    return EXIT_OK


def cmd_pareto(args) -> int:
    from . import popularity
    return _verdict(args, popularity.is_pareto_optimal, "pareto_optimal", "pareto-optimal")


def cmd_emit_lp(args) -> int:
    """Write the LP text piece by piece as `mincost._lp_text` makes it; with
    --json, each piece escaped inside the envelope, the same bytes as
    `_emit` prints."""
    from itertools import chain
    from . import mincost
    inst = core.parse_instance(_read(args.instance))
    pieces = mincost._lp_text(inst)
    # the first piece builds the tables: pulled before a byte is written, a
    # failure there (out of memory) leaves no half --json envelope
    first = next(pieces)
    write = sys.stdout.write
    escape = str
    if args.json:
        import json
        # json.dumps of the envelope with sort_keys, in pieces: escaping a
        # string is per character, so the escaped pieces join to the whole
        escape = lambda piece: json.dumps(piece)[1:-1]
        write('{"result": {"lp": "')
    for piece in chain((first,), pieces):
        write(escape(piece))
    if args.json:
        write('"}, "status": "ok"}\n')
    return EXIT_OK


def cmd_gstar(args) -> int:
    from . import gstar
    inst = core.parse_instance(_read(args.instance))
    text = gstar._text(inst)
    _emit(args, "ok", {"instance": text, "n0": len(inst.side_a)}, text=text)
    return EXIT_OK


def cmd_gen_random(args) -> int:
    cost_range = None
    if args.cost_hi is not None:
        cost_range = (0 if args.cost_lo is None else args.cost_lo, args.cost_hi)
    inst = core.random_instance(args.na, args.nb, args.density, args.seed, cost_range)
    text = core.serialize_instance(inst)
    _emit(args, "ok", {"instance": text}, text=text)
    return EXIT_OK


def _load_formula(args):
    from . import hardness
    f = hardness.parse_dimacs(_read(args.cnf))
    if args.pad_units:
        f = hardness.pad_unit_clauses(f)
    return f


def cmd_gen_hardness(args) -> int:
    from . import hardness
    f = _load_formula(args)
    g = hardness.build_gadget_instance(hardness.transform_formula(f))
    text = core.serialize_instance(g.instance)
    _emit(args, "ok", {"instance": text}, text=text)
    return EXIT_OK


def cmd_check_reduction(args) -> int:
    from . import hardness
    f = _load_formula(args)
    report = hardness.check_reduction(f, max_vars=args.max_vars, max_clauses=args.max_clauses)
    result = report._asdict()
    result["equivalence_holds"] = report.equivalence_holds
    _emit(args, "ok" if report.equivalence_holds else "rejected", result, text=str(report))
    return EXIT_OK if report.equivalence_holds else EXIT_REJECTED


def cmd_oracle(args) -> int:
    from . import oracle
    bound = oracle.DEFAULT_BOUND if args.bound is None else args.bound
    inst = core.parse_instance(_read(args.instance))
    enumerators = {"matchings": oracle.enum_matchings,
                   "max-matchings": oracle.enum_max_matchings,
                   "popular-max": oracle.brute_popular_max}
    if args.what in enumerators:
        import json
        rows = sorted([list(e) for e in sorted(m.pairs)] for m in enumerators[args.what](inst, bound))
        _emit(args, "ok", rows, text="".join(json.dumps(row) + "\n" for row in rows))
    elif args.what == "min-cost":
        m, cost = oracle.brute_min_cost_popular_max(inst, bound)
        result = core.matching_to_json(inst, m)
        _emit(args, "ok", result, text=core.serialize_matching(m) + f"cost {cost}\n")
    elif args.what == "unpopularity":
        m = core.parse_matching(inst, _read(args.matching))
        text = str(oracle.brute_unpopularity_factor(inst, m, bound))  # inf, 3 or 1/2
        _emit(args, "ok", {"unpopularity_factor": text}, text=text)
    return EXIT_OK


def _count(text: str) -> int:
    """A nonnegative integer option value."""
    import argparse
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def build_parser():
    """The argparse parser of every command, the file commands from
    `FILE_COMMANDS`; it alone writes usage, help and error text."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="popmax",
        description="Popular maximum matchings: solve, verify, certify, optimize.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable {status, result, witness?} envelope")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (files, help_text) in FILE_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for file in files:
            p.add_argument(file)

    p = sub.add_parser("gen-random", help="generate a random instance")
    p.add_argument("--na", type=int, required=True)
    p.add_argument("--nb", type=int, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cost-lo", type=int, default=None, help="needs --cost-hi (default 0)")
    p.add_argument("--cost-hi", type=int, default=None)

    p = sub.add_parser("gen-hardness", help="generate the reduction gadget instance")
    p.add_argument("cnf")
    p.add_argument("--pad-units", action="store_true",
                   help="pad 1-literal clauses to (l or l) before transforming")

    p = sub.add_parser("check-reduction", help="confirm the reduction equivalence (tiny inputs)")
    p.add_argument("cnf")
    p.add_argument("--pad-units", action="store_true")
    p.add_argument("--max-vars", type=_count, default=4)
    p.add_argument("--max-clauses", type=_count, default=6)

    p = sub.add_parser("oracle", help="exponential ground-truth routines (desk scale)")
    p.add_argument("what", choices=["matchings", "max-matchings", "popular-max",
                                    "min-cost", "unpopularity"])
    p.add_argument("instance")
    p.add_argument("matching", nargs="?")
    p.add_argument("--bound", type=_count, default=None)  # None: oracle.DEFAULT_BOUND

    return parser


# Built on first need, by `_parse`. `parse_args` fills a fresh namespace on
# every call, so one parser serves every later call.
_PARSER = None


def _match(argv: list[str]):
    """The namespace argparse makes of `[--json] <command> <path>...` for a
    command of `FILE_COMMANDS` with no path starting with `-`, or None."""
    as_json = argv[:1] == ["--json"]
    command, *paths = argv[as_json:] or ("",)
    entry = FILE_COMMANDS.get(command)
    if entry is None or len(paths) != len(entry[0]) or any(p[:1] == "-" for p in paths):
        return None
    return SimpleNamespace(json=as_json, command=command, **dict(zip(entry[0], paths)))


def _parse(argv: list[str]):
    """Parse with argparse; it exits 2 with usage text on a usage error."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    if args.command == "oracle" and args.what == "unpopularity" and not args.matching:
        _PARSER.error("oracle unpopularity needs a MATCHFILE")
    if args.command == "gen-random" and args.cost_lo is not None and args.cost_hi is None:
        _PARSER.error("gen-random --cost-lo needs --cost-hi")
    return args


def _report_error(args, label: str, exc: Exception | str, code: int) -> int:
    try:
        print(f"{label}: {exc}", file=sys.stderr)
    except OSError:  # fd 2 was closed, and a file opened since holds it
        pass
    if args.json:
        import json
        print(json.dumps({"status": "error", "result": str(exc)}))
    return code


def main(argv=None) -> int:
    """Run one command and return its exit code. The cyclic collector is off
    while it runs: a command's objects hold no reference cycles, so reference
    counting frees them, and the collector would only traverse the survivors.
    Its state is restored on every exit, a raised `SystemExit` included."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        for name in ("stdout", "stderr"):
            if getattr(sys, name) is None:  # started with its fd closed: write nowhere
                setattr(sys, name, open(os.devnull, "w"))
        args = _match(argv) or _parse(argv)
        try:
            code = _run(args)
            sys.stdout.flush()  # a reader gone before the end shows here at the latest
            return code
        except BrokenPipeError:
            # the reader closed stdout (`popmax emit-lp i.txt | head`); point fd 1
            # at the null device so the flush at exit writes the rest there quietly
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            return EXIT_PIPE
    finally:
        if collecting:
            gc.enable()


def _run(args) -> int:
    """Run the command's handler, looked up by name here so that a replaced
    `cmd_*` is the one that runs, mapping each error to its exit code."""
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except NotMaximumError as exc:
        # verify and certify reject a matching that is not maximum
        _emit(args, "rejected", {"popular": False, "maximum": False,
                                 "augmenting_path": exc.path},
              text="not maximum; augmenting path: " + " ".join(exc.path))
        return EXIT_REJECTED
    except (InputError, ParseError, ValidationError, UnsupportedClauseError) as exc:
        return _report_error(args, "error", exc, EXIT_BAD_INPUT)
    except BoundExceededError as exc:
        return _report_error(args, "error", exc, EXIT_BOUND)
    except MemoryError:
        return _report_error(args, "error", "out of memory", EXIT_BOUND)
    except InternalError as exc:
        return _report_error(args, "internal error", exc, EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
