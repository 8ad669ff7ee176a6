"""3SAT-to-matching reduction showing min-cost Pareto-optimal matching is hard.

A formula is first normalized so every clause is purely positive (2-3
literals) or purely negative (exactly 2 literals, each negative literal
occurring once). Every positive literal occurrence gets a 4-node gadget,
every variable a 4-node gadget for its negation, wired by cost-1
consistency edges; gadget-internal edges cost 0. A clause is a ring of
gadgets (x, y, x', y'), its occurrence gadgets if it is positive and the
negation gadgets of its variables if not: each x lists the previous
gadget's y first, at cost 1, and each y lists the next gadget's x first.
One `_ring` lays every clause out for `build_gadget_instance` and gives
`check_reduction` every clause's falsifying cycle. The instance then has a
cost-0 Pareto-optimal matching iff the formula is satisfiable, and
`check_reduction` confirms both directions exhaustively at tiny scale.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .core import Edge, Instance, Matching, _Frozen, _lines, compare, make_matching, matching_cost, wt_edge
from .errors import (
    BoundExceededError,
    InternalError,
    ParseError,
    UnsupportedClauseError,
    ValidationError,
)

Clause = tuple[int, ...]  # nonzero literals; negative int = negated variable


class CnfFormula(_Frozen):
    __slots__ = _compared = ("num_vars", "clauses")

    def __init__(self, num_vars: int, clauses):
        if not isinstance(num_vars, int) or num_vars < 0:
            raise ValidationError(f"variable count {num_vars!r} is not a nonnegative integer")
        try:
            clauses = tuple(tuple(c) for c in clauses)
        except TypeError:
            raise ValidationError("clauses must be lists of literals") from None
        self._set(num_vars=num_vars, clauses=clauses)
        for c in clauses:
            if not c:
                raise ValidationError("empty clause")
            for lit in c:
                if not isinstance(lit, int):
                    raise ValidationError(f"literal {lit!r} is not an integer")
                if lit == 0 or abs(lit) > num_vars:
                    raise ValidationError(f"literal {lit} out of range")


def parse_dimacs(text: str) -> CnfFormula:
    """DIMACS CNF: `p cnf <vars> <clauses>` header, clauses 0-terminated.
    A line starting with `%`, SATLIB's end marker, ends the formula."""
    num_vars = None
    clauses: list[Clause] = []
    current: list[int] = []
    for lineno, raw in enumerate(_lines(text), start=1):
        s = raw.strip()
        if not s or s.startswith("c") or s.startswith("#"):
            continue
        if s.startswith("%"):
            break
        if s.startswith("p"):
            parts = s.split()
            if (len(parts) != 4 or parts[1] != "cnf"
                    or not parts[2].isdecimal() or not parts[3].isdecimal()):
                raise ParseError("expected `p cnf <vars> <clauses>`", lineno)
            num_vars = int(parts[2])
            continue
        for tok in s.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"bad literal {tok!r}", lineno) from None
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(tuple(current))
    if num_vars is None:
        num_vars = max((abs(l) for c in clauses for l in c), default=0)
    return CnfFormula(num_vars, tuple(clauses))


def to_dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    lines += [" ".join(str(l) for l in c) + " 0" for c in f.clauses]
    return "\n".join(lines) + "\n"


def evaluate(f: CnfFormula, assignment: dict[int, bool]) -> bool:
    """Whether `assignment` satisfies f. Raises `ValidationError` naming the
    least variable of f's clauses that it gives no value."""
    unset = {abs(l) for c in f.clauses for l in c}.difference(assignment)
    if unset:
        raise ValidationError(f"assignment gives no value to variable {min(unset)}")
    return all(
        any(assignment[abs(l)] == (l > 0) for l in c) for c in f.clauses)


def brute_sat(f: CnfFormula) -> bool:
    return any(evaluate(f, dict(zip(range(1, f.num_vars + 1), bits)))
               for bits in itertools.product((False, True), repeat=f.num_vars))


def pad_unit_clauses(f: CnfFormula) -> CnfFormula:
    """Duplicate the literal of 1-literal clauses; 1-literal positive
    clauses survive the transformation and have no gadget otherwise."""
    return CnfFormula(f.num_vars,
                      tuple(c if len(c) > 1 else (c[0], c[0]) for c in f.clauses))


def transform_formula(f: CnfFormula) -> CnfFormula:
    """Split every variable X_i into X_i and its stand-in X_{n+i}.

    Occurrences of -X_i become X_{n+i}, and the clauses (X_i or X_{n+i})
    and (-X_i or -X_{n+i}) are added, so the result has 2n variables, all
    original clauses purely positive, every negative clause 2 literals,
    every negative literal occurring exactly once. Equisatisfiable with
    the input.
    """
    n = f.num_vars
    clauses: list[Clause] = []
    for c in f.clauses:
        if len(c) > 3:
            raise ValidationError("clauses must have at most 3 literals")
        clauses.append(tuple(l if l > 0 else n + (-l) for l in c))
    for i in range(1, n + 1):
        clauses.append((i, n + i))
        clauses.append((-i, -(n + i)))
    return CnfFormula(2 * n, tuple(clauses))


# ---------------------------------------------------------------------------
# Gadget construction


class GadgetInstance(NamedTuple):
    """The reduction graph with bookkeeping from formula parts to nodes.

    `pos[(clause_idx, slot)]` holds the (a, b, a', b') node names of that
    positive-literal occurrence's gadget; `neg[var]` the (c, d, c', d')
    names of the variable's negation gadget. Gadget-internal edges cost 0,
    everything else (clause cross edges and consistency edges) costs 1.
    """

    instance: Instance
    formula: CnfFormula
    pos: dict[tuple[int, int], tuple[str, str, str, str]]
    neg: dict[int, tuple[str, str, str, str]]
    occurrences: dict[int, tuple[tuple[int, int], ...]]


def _ring(pos, neg, ci: int, clause: Clause) -> list[tuple[str, str, str, str]]:
    """Clause ci's gadgets (x, y, x', y') in clause order: the occurrence
    gadget of each slot of a positive clause, the negation gadget of each
    variable of a negative one. Each x lists the previous gadget's y first,
    at cost 1, and each y lists the next gadget's x first."""
    if clause[0] > 0:
        return [pos[(ci, slot)] for slot in range(len(clause))]
    return [neg[-l] for l in clause]


def build_gadget_instance(f: CnfFormula) -> GadgetInstance:
    """Build the reduction graph for a formula in transformed shape. Each
    clause's shape is checked as its gadgets are named, in clause order,
    then every variable is checked to have a negation clause. Every clause
    is then wired around its `_ring`, positive clauses first."""
    positive, negative = [], []  # (ci, clause), wired positive clauses first
    pos: dict[tuple[int, int], tuple[str, str, str, str]] = {}
    neg: dict[int, tuple[str, str, str, str]] = {}
    occurrences: dict[int, list[tuple[int, int]]] = {}
    for ci, c in enumerate(f.clauses):
        if len({l > 0 for l in c}) != 1:
            raise UnsupportedClauseError(
                f"clause {ci} mixes positive and negative literals; run transform_formula first")
        if c[0] > 0:
            if len(c) == 1:
                raise UnsupportedClauseError(
                    f"clause {ci} is a 1-literal positive clause, which has no gadget; "
                    "pad it to (l or l) with --pad-units (pad_unit_clauses) before transforming")
            if len(c) > 3:
                raise UnsupportedClauseError(f"clause {ci} has more than 3 literals")
            positive.append((ci, c))
            for slot, v in enumerate(c):
                stem = f"X{v}c{ci}o{slot}"
                pos[(ci, slot)] = (f"a{stem}", f"b{stem}", f"ap{stem}", f"bp{stem}")
                occurrences.setdefault(v, []).append((ci, slot))
        else:
            if len(c) != 2:
                raise UnsupportedClauseError(
                    f"negative clause {ci} must have exactly 2 literals")
            negative.append((ci, c))
            for lit in c:
                v = -lit
                if v in neg:
                    raise UnsupportedClauseError(
                        f"negative literal {lit} occurs more than once")
                neg[v] = (f"cX{v}", f"dX{v}", f"cpX{v}", f"dpX{v}")
                occurrences.setdefault(v, [])
    for v in {abs(l) for c in f.clauses for l in c}:
        if v not in neg:
            raise UnsupportedClauseError(
                f"variable X{v} has no negation clause; the consistency wiring needs one")

    side_a: list[str] = []
    side_b: list[str] = []
    prefs: dict[str, tuple[str, ...]] = {}
    costs: dict[Edge, int] = {}
    for ci, clause in positive + negative:
        ring = _ring(pos, neg, ci, clause)
        for i, (x, y, xp, yp) in enumerate(ring):
            y_prev = ring[i - 1][1]
            side_a += [x, xp]
            side_b += [y, yp]
            costs[(x, y_prev)] = 1
            if clause[0] > 0:  # consistency edges to the variable's negation gadget
                c, _d, _cp, dp = neg[clause[i]]
                prefs[x] = (y_prev, y, dp, yp)
                costs[(x, dp)] = costs[(c, yp)] = 1
                prefs[yp] = (xp, c, x)
            else:  # and back, to every occurrence gadget of the variable
                occs = [pos[o] for o in occurrences[-clause[i]]]
                prefs[x] = (y_prev, y, *[o[3] for o in occs], yp)
                prefs[yp] = (xp, *[o[0] for o in occs], x)
            prefs[xp] = (y, yp)
            prefs[y] = (ring[(i + 1) % len(ring)][0], x, xp)

    inst = Instance(tuple(side_a), tuple(side_b), prefs, costs)
    return GadgetInstance(inst, f, pos, neg,
                          {v: tuple(o) for v, o in occurrences.items()})


def _pattern_pairs(g: GadgetInstance, neg_true: dict[int, bool],
                   occ_true: dict[tuple[int, int], bool] | None = None) -> Matching:
    """Cost-0 perfect matching from per-gadget pattern choices; each
    occurrence gadget follows its variable's negation gadget unless
    `occ_true` sets it."""
    pairs = []
    for v, (c, d, cp, dp) in g.neg.items():
        pairs += [(c, d), (cp, dp)] if neg_true[v] else [(c, dp), (cp, d)]
    for (ci, slot), (a, b, ap, bp) in g.pos.items():
        true = (neg_true[g.formula.clauses[ci][slot]] if occ_true is None
                else occ_true[(ci, slot)])
        pairs += [(a, bp), (ap, b)] if true else [(a, b), (ap, bp)]
    return make_matching(g.instance, pairs)


def assignment_to_matching(g: GadgetInstance, assignment: dict[int, bool]) -> Matching:
    """Perfect cost-0 Pareto-optimal matching from a satisfying assignment.

    True variables pair (c,d),(c',d') and take (a,b'),(a',b) in each of
    their occurrence gadgets; false variables the other diagonal.
    """
    if not evaluate(g.formula, assignment):
        raise ValidationError("assignment does not satisfy the formula")
    return _pattern_pairs(g, assignment)


def _read_assignment(g: GadgetInstance, m: Matching) -> dict[int, bool]:
    """The assignment a cost-0 Pareto-optimal matching encodes: a variable
    is false iff its negation gadget pairs (c,d'),(c',d)."""
    assignment = {}
    for v, (c, d, cp, dp) in g.neg.items():
        if (c, dp) in m.pairs:
            assignment[v] = False
        elif (c, d) in m.pairs:
            assignment[v] = True
        else:
            raise InternalError("cost-0 Pareto-optimal matching breaks a negation gadget")
    if not evaluate(g.formula, assignment):
        raise InternalError("derived assignment does not satisfy the formula")
    return assignment


def matching_to_assignment(g: GadgetInstance, m: Matching) -> dict[int, bool]:
    """Satisfying assignment from a Pareto-optimal matching of cost 0."""
    if matching_cost(g.instance, m) != 0:
        raise ValidationError("matching has nonzero cost")
    from .popularity import is_pareto_optimal
    if not is_pareto_optimal(g.instance, m).pareto:
        raise ValidationError("matching is not Pareto-optimal")
    return _read_assignment(g, m)


# ---------------------------------------------------------------------------
# End-to-end checker


class ReductionReport(NamedTuple):
    satisfiable: bool
    cost0_pareto_exists: bool
    candidates_checked: int
    canonical_iff_ok: bool
    converse_ok: bool
    perfect_ok: bool
    consistency_ok: bool
    falsifying_cycles_ok: bool
    gadget_nodes: int
    gadget_edges: int

    @property
    def equivalence_holds(self) -> bool:
        return (self.satisfiable == self.cost0_pareto_exists
                and self.canonical_iff_ok and self.converse_ok and self.perfect_ok
                and self.consistency_ok and self.falsifying_cycles_ok)

    def __str__(self):
        lines = [
            f"formula satisfiable:              {self.satisfiable}",
            f"cost-0 Pareto-optimal exists:     {self.cost0_pareto_exists}",
            f"candidates checked:               {self.candidates_checked}",
            f"canonical matchings match SAT:    {self.canonical_iff_ok}",
            f"satisfying assignments round-trip: {self.converse_ok}",
            f"cost-0 Pareto implies perfect:    {self.perfect_ok}",
            f"consistency pairs excluded:       {self.consistency_ok}",
            f"falsifying cycles certified:      {self.falsifying_cycles_ok}",
            f"gadget size:                      {self.gadget_nodes} nodes, {self.gadget_edges} edges",
            f"equivalence holds:                {self.equivalence_holds}",
        ]
        return "\n".join(lines)


def _dominates(g: GadgetInstance, m: Matching, cycle_edges: list[Edge],
               expect_voters: int) -> bool:
    """Certify a falsifying cycle: its non-matching edges all block m and
    toggling it beats m `expect_voters` to zero. The caller checks that m
    is not Pareto-optimal, once per pattern matching."""
    for e in cycle_edges:
        if e not in m.pairs and wt_edge(g.instance, m, e) != 2:
            return False
    flipped = Matching(frozenset(m.pairs) ^ frozenset(cycle_edges))
    tally = compare(g.instance, flipped, m)
    return tally.phi_mn == expect_voters and tally.phi_nm == 0


def check_reduction(f: CnfFormula, max_vars: int = 4, max_clauses: int = 6) -> ReductionReport:
    """Confirm at tiny scale that the gadget instance has a cost-0
    Pareto-optimal matching iff the formula is satisfiable.

    Checks, exhaustively over all assignments of the transformed formula:
    the canonical pattern matching of an assignment is Pareto-optimal iff
    the assignment satisfies; every satisfying assignment round-trips
    through the gadget; every non-perfect cost-0 matching leaves two
    adjacent nodes unmatched; and each falsified-clause and
    consistency-violation pattern carries its all-blocking cycle, certified
    by an explicit vote count. A falsified clause's cycle runs around its
    `_ring`, through (x, previous y) and (x, y) of each gadget. The one pass over the assignments also finds
    whether the transformed formula is satisfiable, which must agree with
    the input formula.
    """
    if f.num_vars > max_vars:
        raise BoundExceededError(f"{f.num_vars} variables > bound {max_vars}")
    if len(f.clauses) > max_clauses:
        raise BoundExceededError(f"{len(f.clauses)} clauses > bound {max_clauses}")
    from .popularity import is_pareto_optimal
    ft = transform_formula(f)
    g = build_gadget_instance(ft)
    inst = g.instance

    canonical_iff_ok = True
    converse_ok = True
    exists = False
    ft_satisfiable = False
    for bits in itertools.product((False, True), repeat=ft.num_vars):
        beta = dict(zip(range(1, ft.num_vars + 1), bits))
        sat = evaluate(ft, beta)
        ft_satisfiable |= sat
        m = _pattern_pairs(g, beta)  # what `assignment_to_matching(g, beta)` builds
        if matching_cost(inst, m) != 0 or len(m.pairs) * 2 != len(inst.nodes):
            raise InternalError("pattern matching is not perfect and free")
        pareto = is_pareto_optimal(inst, m).pareto
        canonical_iff_ok &= pareto == sat
        exists |= pareto
        converse_ok &= not sat or (pareto and _read_assignment(g, m) == beta)
    satisfiable = brute_sat(f)
    if ft_satisfiable != satisfiable:
        raise InternalError("transformation broke satisfiability")

    perfect_ok = True
    for x, y, xp, yp in list(g.pos.values()) + list(g.neg.values()):
        for pattern in ([], [(x, y)], [(x, yp)], [(xp, y)], [(xp, yp)]):
            matched = {n for e in pattern for n in e}
            free = [n for n in (x, y, xp, yp) if n not in matched]
            perfect_ok &= any(inst.has_edge(u, v) for u in free for v in free
                              if inst.is_a(u) and not inst.is_a(v))

    consistency_ok = True
    all_occ_true = {occ: True for occ in g.pos}
    for v in sorted(g.neg):
        if not g.occurrences[v]:
            continue
        # negation gadget of v in false pattern, every occurrence gadget true
        m = _pattern_pairs(g, {w: w != v for w in g.neg}, all_occ_true)
        consistency_ok &= not is_pareto_optimal(inst, m).pareto
        c, _d, _cp, dp = g.neg[v]
        for occ in g.occurrences[v]:
            a, _b, _ap, bp = g.pos[occ]
            consistency_ok &= _dominates(g, m, [(a, dp), (c, dp), (c, bp), (a, bp)], 4)

    falsifying_cycles_ok = True
    for ci, clause in enumerate(ft.clauses):
        positive = clause[0] > 0
        variables = {abs(l) for l in clause}
        m = _pattern_pairs(g, {w: (w in variables) != positive for w in g.neg})
        ring = _ring(g.pos, g.neg, ci, clause)
        cycle = []
        for i, (x, y, _xp, _yp) in enumerate(ring):
            cycle += [(x, ring[i - 1][1]), (x, y)]
        falsifying_cycles_ok &= (not is_pareto_optimal(inst, m).pareto
                                 and _dominates(g, m, cycle, 2 * len(ring)))

    return ReductionReport(
        satisfiable=satisfiable,
        cost0_pareto_exists=exists,
        candidates_checked=2 ** ft.num_vars,
        canonical_iff_ok=canonical_iff_ok,
        converse_ok=converse_ok,
        perfect_ok=perfect_ok,
        consistency_ok=consistency_ok,
        falsifying_cycles_ok=falsifying_cycles_ok,
        gadget_nodes=len(inst.nodes),
        gadget_edges=len(inst.edges),
    )
